"""Tests for the benchmark harness: determinism, CSV shape, summaries."""

import json

import numpy as np
import pytest

from dppca.bench import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRecord,
    records_to_csv,
    run_algorithm,
    run_experiment,
    summarize,
    threads_from_env,
    write_csv,
)
from dppca.errors import BudgetError, ContractViolationError, ParameterError
from dppca.matcore import DenseMatrix
from dppca.mech import PrivacyBudget, RngStream, split_budget


def small_grid():
    return [
        {
            "cell": "adaptive-small",
            "gen": {"kind": "gaussian", "n": 200, "d": 4,
                    "sigma1_sq": 0.5, "kappabar": 0.5},
            "algo": "adaptive",
            "eps_total": 2.0, "delta_total": 1e-5, "T": 3,
        },
        {
            "cell": "ag-small",
            "gen": {"kind": "low-coh", "n": 150, "d": 5,
                    "sigma1_frac": 0.3, "gap": 0.5},
            "algo": "analyze-gauss",
            "eps_total": 1.0, "delta_total": 1e-5,
        },
        {
            "cell": "naive-small",
            "gen": {"kind": "high-coh", "n": 120, "d": 4},
            "algo": "naive-power",
            "eps_total": 2.0, "delta_total": 1e-5, "T": 2,
        },
    ]


@pytest.fixture(scope="module")
def small_run():
    cfg = ExperimentConfig(master_seed=7, trials=5, grid=small_grid())
    return cfg, run_experiment(cfg)


class TestRunExperiment:
    def test_record_count_and_ordering(self, small_run):
        _, recs = small_run
        assert len(recs) == 15
        keys = [(r.cell, r.trial) for r in recs]
        assert keys == sorted(keys)

    def test_successful_rows_have_metrics(self, small_run):
        _, recs = small_run
        ok = [r for r in recs if not r.error]
        assert ok, "expected at least one successful trial"
        for r in ok:
            assert r.sin2_emp is not None and 0.0 <= r.sin2_emp <= 1.0
            assert r.rayleigh is not None and 0.0 <= r.rayleigh <= 1.0 + 1e-9

    def test_gaussian_rows_carry_population_angle(self, small_run):
        _, recs = small_run
        for r in recs:
            if r.gen == "gaussian" and not r.error:
                assert r.sin2_pop is not None
            if r.gen != "gaussian":
                assert r.sin2_pop is None

    def test_rerun_is_byte_identical(self, small_run):
        cfg, recs = small_run
        again = run_experiment(
            ExperimentConfig(master_seed=7, trials=5, grid=small_grid())
        )
        assert records_to_csv(recs) == records_to_csv(again)

    def test_threads_do_not_change_bytes(self, small_run):
        cfg, recs = small_run
        threaded = run_experiment(cfg, threads=4)
        assert records_to_csv(recs) == records_to_csv(threaded)

    def test_wall_ms_blank_by_default(self, small_run):
        _, recs = small_run
        assert all(r.wall_ms is None for r in recs)

    def test_record_walltime_flag(self):
        cfg = ExperimentConfig(
            master_seed=7, trials=1, grid=small_grid()[:1],
            record_walltime=True,
        )
        recs = run_experiment(cfg)
        assert recs[0].wall_ms is not None and recs[0].wall_ms >= 0.0


class TestErrorRows:
    def test_reason_code_prefix(self):
        # n < d is rejected up front; the trial becomes an error row.
        cfg = ExperimentConfig(
            master_seed=1, trials=2,
            grid=[{
                "cell": "bad",
                "gen": {"kind": "high-coh", "n": 3, "d": 6},
                "algo": "adaptive",
                "eps_total": 1.0, "delta_total": 1e-5, "T": 2,
            }],
        )
        recs = run_experiment(cfg)
        assert len(recs) == 2
        for r in recs:
            assert r.error.startswith("parameter_error:")
            assert r.sin2_emp is None

    def test_error_rows_fill_csv_columns(self):
        cfg = ExperimentConfig(
            master_seed=1, trials=1,
            grid=[{
                "cell": "bad",
                "gen": {"kind": "high-coh", "n": 3, "d": 6},
                "algo": "adaptive",
                "eps_total": 1.0, "delta_total": 1e-5, "T": 2,
            }],
        )
        csv = records_to_csv(run_experiment(cfg))
        line = csv.strip().split("\n")[1]
        assert line.count(",") == CSV_HEADER.count(",")
        assert "parameter_error:" in line
        assert "," not in line.split("parameter_error:")[1]


    def test_every_dppca_error_becomes_a_row(self, monkeypatch):
        # An error outside the four classic classes (here a SizingError from
        # the Gram product) ends the trial, not the grid.
        from dppca import matcore

        monkeypatch.setattr(matcore, "_MAX_ELEMENTS", 10)
        cfg = ExperimentConfig(master_seed=1, trials=2, grid=small_grid()[1:2])
        recs = run_experiment(cfg)
        assert len(recs) == 2
        for r in recs:
            assert r.error.startswith("sizing_error:")
            assert r.sin2_emp is None

    def test_eigensolver_failure_becomes_a_row(self, monkeypatch):
        # A LAPACK failure in the ground-truth spectrum is a NumericalError,
        # so it ends the trial as a numerical_error row, not the grid.
        def fail(_):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        cfg = ExperimentConfig(master_seed=1, trials=2, grid=small_grid()[1:2])
        recs = run_experiment(cfg)
        assert len(recs) == 2
        for r in recs:
            assert r.error.startswith("numerical_error:")
            assert r.sin2_emp is None


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "cell,trial,algo,n,d,eps_total,delta_total,T,gen,sin2_emp,"
            "sin2_pop,rayleigh,kappa,upsilon,u_inf,removed,clipped,"
            "theory_B,wall_ms,error"
        )

    def test_write_and_reread(self, small_run, tmp_path):
        _, recs = small_run
        path = tmp_path / "out.csv"
        write_csv(recs, path)
        text = path.read_text()
        assert text.startswith(CSV_HEADER + "\n")
        assert len(text.strip().split("\n")) == 16

    def test_float_columns_roundtrip_exactly(self, small_run):
        _, recs = small_run
        rows = records_to_csv(recs).strip().split("\n")[1:]
        col = CSV_HEADER.split(",").index("sin2_emp")
        for row, rec in zip(rows, recs):
            cell = row.split(",")[col]
            if cell:
                assert float(cell) == rec.sin2_emp


class TestSummarize:
    def rec(self, cell, trial, sin2, error=""):
        return ResultRecord(
            cell=cell, trial=trial, algo="adaptive", n=10, d=2,
            eps_total=1.0, delta_total=1e-5, t=1, gen="gaussian",
            sin2_emp=None if error else sin2, error=error,
        )

    def test_lower_median_convention(self):
        recs = [self.rec("c", i, v) for i, v in enumerate([1.0, 2.0, 3.0, 4.0])]
        s = summarize(recs)
        assert s["c"]["sin2_emp"]["median"] == 2.0
        assert s["c"]["sin2_emp"]["q25"] == 1.0
        assert s["c"]["sin2_emp"]["q75"] == 3.0
        assert s["c"]["sin2_emp"]["count"] == 4

    def test_errors_counted_not_averaged(self):
        recs = [self.rec("c", 0, 0.5), self.rec("c", 1, None, "budget_error:x")]
        s = summarize(recs)
        assert s["c"]["errors"] == 1
        assert s["c"]["sin2_emp"]["count"] == 1

    def test_empty_raises(self):
        with pytest.raises(ContractViolationError):
            summarize([])

    def test_real_run_summary(self, small_run):
        _, recs = small_run
        s = summarize(recs)
        assert set(s) == {"adaptive-small", "ag-small", "naive-small"}


class TestConfig:
    def test_from_json(self, tmp_path):
        doc = {"master_seed": 3, "trials": 2, "threads": 2,
               "record_walltime": True, "grid": small_grid()}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.master_seed == 3 and cfg.threads == 2
        assert cfg.record_walltime and len(cfg.grid) == 3

    def test_validation_errors(self):
        base = small_grid()[0]
        with pytest.raises(ParameterError):
            ExperimentConfig(master_seed=1, trials=0, grid=[base])
        with pytest.raises(ParameterError):
            ExperimentConfig(master_seed=1, trials=1, grid=[])
        bad_algo = dict(base, algo="secret")
        with pytest.raises(ParameterError):
            ExperimentConfig(master_seed=1, trials=1, grid=[bad_algo])
        bad_t = dict(base, T="corollary")  # missing kappa guess
        with pytest.raises(ParameterError):
            ExperimentConfig(master_seed=1, trials=1, grid=[bad_t])
        bad_eps = dict(base, eps_total=-1.0)
        with pytest.raises(BudgetError):
            ExperimentConfig(master_seed=1, trials=1, grid=[bad_eps])
        sweep = dict(base, algo="adaptive-sweep")  # missing sweep_J
        with pytest.raises(ParameterError):
            ExperimentConfig(master_seed=1, trials=1, grid=[sweep])

    @pytest.mark.parametrize("index, cell, needle", [
        (0, {"gen": {"kind": "high-coh", "d": 4}}, "lacks n"),
        (1, {"eps_total": None}, "lacks eps_total"),
        (0, {"gen": {"kind": "gaussian", "n": 200}}, "lacks d, sigma1_sq"),
        (0, {"gen": {"kind": "gaussian", "n": 200, "d": 4}}, "lacks sigma1_sq"),
        (1, {"gen": {"kind": "low-coh", "n": 150, "d": 5, "sigma1_frac": 0.3}},
         "lacks gap"),
        (0, {"algo": "adaptive-sweep", "sweep_J": "x"}, "sweep_J"),
        (0, {"gen": {"kind": "high-coh", "n": 120.5, "d": 4}}, "n must be"),
        (0, {"gen": {"kind": "gaussian", "n": 20, "spec": ["a"]}}, "spec"),
        (1, {"beta": "0.1"}, "beta"),
        (1, {"T": "corollary", "kappa": "half", "algo": "adaptive"}, "kappa"),
        (0, {"gen": ["gaussian"]}, "gen.kind"),
        (0, {"gen": {"kind": "low-coh", "n": 150, "d": 5, "sigma1_frac": 0.3,
                     "gap": 0.5, "rotate": "x"}}, "rotate must be"),
        (1, {"eps_total": -1}, "epsilon must be positive"),
        (0, {"delta_total": 2}, "delta must lie in"),
        (0, {"t_cosnt": 0.1}, "cell has unknown key(s) 't_cosnt'"),
        (1, {"accountnat": "zcdp"}, "cell has unknown key(s) 'accountnat'"),
        (0, {"gen": {"kind": "gaussian", "n": 200, "d": 4, "sigma1_sq": 0.5,
                     "kappabar": 0.5, "kappa_bar": 0.5}},
         "gen has unknown key(s) 'kappa_bar'"),
        (0, {"gen": {"kind": "gaussian", "n": 200, "d": 7, "spec": [0.5, 0.3, 0.2]}},
         "d=7 but a spec of 3 entries"),
    ])
    def test_malformed_cell_names_its_index(self, index, cell, needle):
        grid = small_grid()[:2]
        grid[index] = {k: v for k, v in dict(grid[index], **cell).items()
                       if v is not None}
        budget = needle.startswith(("epsilon", "delta"))
        error = BudgetError if budget else ParameterError
        with pytest.raises(error, match=rf"grid\[{index}\]") as info:
            ExperimentConfig(master_seed=1, trials=1, grid=grid)
        assert needle in str(info.value)

    @pytest.mark.parametrize("field, value, needle", [
        ("trials", "2", "trials must be an integer"),
        ("threads", 2.0, "threads must be an integer"),
        ("master_seed", -1, "master_seed must lie in"),
        ("record_walltime", "no", "record_walltime must be true or false"),
        ("out", 5, "out must be a path or null"),
    ])
    def test_mistyped_top_level_field(self, field, value, needle):
        kwargs = dict(master_seed=1, trials=1, grid=small_grid()[:1])
        kwargs[field] = value
        with pytest.raises(ParameterError, match=needle):
            ExperimentConfig(**kwargs)

    def test_accountant_validation(self):
        base = small_grid()[0]
        with pytest.raises(ParameterError, match=r"grid\[0\].*accountant"):
            ExperimentConfig(
                master_seed=1, trials=1, grid=[dict(base, accountant="rdp")]
            )
        for name in ("paper", "zcdp"):
            ExperimentConfig(
                master_seed=1, trials=1, grid=[dict(base, accountant=name)]
            )

    @pytest.mark.parametrize("algo", ["adaptive-sweep", "naive-power"])
    def test_run_algorithm_splits_a_zcdp_total(self, algo):
        cell = dict(small_grid()[0], algo=algo, T=2, sweep_J=2, accountant="zcdp")
        recs = run_experiment(ExperimentConfig(master_seed=1, trials=2, grid=[cell]))
        assert not any(r.error for r in recs)

        data = np.random.default_rng(3).normal(size=(200, 4))
        a = DenseMatrix(data / np.linalg.norm(data, axis=1, keepdims=True))
        total = PrivacyBudget(2.0, 1e-5, "zcdp")
        run = run_algorithm(algo, a, total, RngStream(0), iterations=2, sweep_j=2)
        if algo == "naive-power":
            per_iter = split_budget(total, 2)
            assert run.accounting == {
                "mechanisms": 2,
                "per_mechanism_epsilon": per_iter.epsilon,
                "per_mechanism_delta": per_iter.delta,
            }
            return
        # Each of the J runs spends (epsilon / 2J, delta / J); the selection
        # spends the other epsilon / 2.
        assert run.accounting["per_run_epsilon"] == 2.0 / 4
        assert run.accounting["per_run_delta"] == 1e-5 / 2
        assert run.accounting["selection_epsilon"] == 1.0
        per_iter = split_budget(PrivacyBudget(2.0 / 4, 1e-5 / 2, "zcdp"), 2 * run.t)
        for theta, sigma in zip(run.trace.theta, run.trace.noise_sigma):
            assert sigma == pytest.approx(theta / per_iter.epsilon, rel=1e-12)

    def test_paper_accountant_is_the_default(self, small_run):
        cfg, recs = small_run
        paper = ExperimentConfig(
            master_seed=cfg.master_seed, trials=cfg.trials,
            grid=[dict(cell, accountant="paper") for cell in cfg.grid],
        )
        text = records_to_csv(run_experiment(paper))
        assert text == records_to_csv(recs)
        assert text.splitlines()[0] == CSV_HEADER

    def test_zcdp_cells_run_with_the_same_header(self, small_run):
        cfg, recs = small_run
        zcdp = ExperimentConfig(
            master_seed=cfg.master_seed, trials=cfg.trials,
            grid=[dict(cell, accountant="zcdp") for cell in cfg.grid[:2]],
        )
        out = run_experiment(zcdp)
        assert not any(r.error for r in out)
        assert records_to_csv(out).splitlines()[0] == CSV_HEADER
        by_key = {(r.cell, r.trial): r for r in recs}
        # Same streams, different calibration: the estimates move.
        assert any(r.sin2_emp != by_key[(r.cell, r.trial)].sin2_emp for r in out)

    def test_corollary_cell_accepted(self):
        cell = dict(small_grid()[0], T="corollary", kappa=0.5, t_const=0.1)
        cfg = ExperimentConfig(master_seed=1, trials=1, grid=[cell])
        recs = run_experiment(cfg)
        assert recs[0].t is not None and recs[0].t >= 1


class TestThreadsFromEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("DPPCA_THREADS", raising=False)
        assert threads_from_env(3) == 3

    def test_reads_value(self, monkeypatch):
        monkeypatch.setenv("DPPCA_THREADS", "8")
        assert threads_from_env() == 8

    def test_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("DPPCA_THREADS", "many")
        with pytest.raises(ParameterError):
            threads_from_env()
        monkeypatch.setenv("DPPCA_THREADS", "0")
        with pytest.raises(ParameterError):
            threads_from_env()
