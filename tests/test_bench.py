"""Tests for the benchmark harness: determinism, CSV shape, summaries."""

import json
from pathlib import Path

import numpy as np
import pytest

from dppca import bench
from dppca.adaptive import corollary_iterations
from dppca.bench import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRecord,
    build_instance,
    records_to_csv,
    run_algorithm,
    run_experiment,
    run_to_csv,
    summarize,
)
from dppca.datagen import gen_low_coherence
from dppca.errors import BudgetError, ContractViolationError, ParameterError
from dppca.matcore import DenseMatrix, sin_sq, spectrum_stats
from dppca.mech import PrivacyBudget, RngStream, split_budget
from dppca.svtfilter import DEFAULT_BETA, lay_out_by_norm
from oracles import sweep_runs

DATA = Path(__file__).parent / "data"


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

    @pytest.mark.parametrize("threads", [0, -3, 2.0])
    def test_threads_below_one_or_not_int_rejected(self, small_run, threads):
        cfg, _ = small_run
        with pytest.raises(ParameterError, match="--threads must be >= 1"):
            run_experiment(cfg, threads=threads)

    def test_norm_layout_keeps_bytes_in_a_worker_pool(self):
        # A run of 10 or more searches lays A out by norm, moving its rows in
        # place; each trial owns its instance, so a pool keeps the bytes.
        gen = {"kind": "gaussian", "n": 16384, "d": 64, "sigma1_sq": 0.5, "kappabar": 0.5}
        cell = {"gen": gen, "algo": "adaptive", "eps_total": 1.0, "delta_total": 1e-5,
                "T": 12}
        cfg = ExperimentConfig(master_seed=3, trials=2, grid=[cell])
        for trial in range(cfg.trials):  # more than one group, so rows move
            a, _, _ = build_instance(gen, RngStream(3, trial), DEFAULT_BETA)
            lay_out_by_norm(a)
            assert len(a._layout) >= 2
        serial = run_experiment(cfg, threads=1)
        assert not any(r.error for r in serial)
        assert records_to_csv(run_experiment(cfg, threads=2)) == records_to_csv(serial)


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

    def test_tiny_epsilon_corollary_cell_is_an_error_row(self):
        # beta * delta * epsilon underflows to 0; the corollary rule still
        # gives a T, and the budget too small to spend ends the trial.
        cell = dict(small_grid()[0], eps_total=1e-320, T="corollary", kappa=0.5)
        recs = run_experiment(ExperimentConfig(master_seed=1, trials=1, grid=[cell]))
        assert len(recs) == 1 and recs[0].error.startswith("parameter_error:")

    @pytest.mark.parametrize("algo, eps, accountant, needle", [
        ("adaptive", 1e-300, "paper", "noisy iterate norm inf"),
        ("naive-power", 1e-300, "paper", "noisy iterate norm inf"),
        ("analyze-gauss", 1e-320, "paper", "sigma overflows"),
        ("adaptive", 1e-300, "zcdp", "rho / 6 underflows to 0"),
    ], ids=["adaptive", "naive-power", "analyze-gauss", "zcdp"])
    def test_budget_too_small_to_noise_is_an_error_row(self, algo, eps, accountant, needle):
        # The noisy iterate's norm (adaptive, naive-power) or sigma itself
        # (analyze-gauss) overflows, or zCDP's rho per mechanism underflows
        # to 0: one error row, not a NaN estimate scored as a perfect sin2 of 0.
        cell = {"gen": {"kind": "high-coh", "n": 80, "d": 4}, "algo": algo,
                "eps_total": eps, "delta_total": 1e-5, "accountant": accountant}
        if algo != "analyze-gauss":
            cell["T"] = 3
        with np.errstate(over="ignore"):
            recs = run_experiment(ExperimentConfig(master_seed=1, trials=1, grid=[cell]))
        assert len(recs) == 1 and recs[0].sin2_emp is None
        assert recs[0].error.startswith("parameter_error:") and needle in recs[0].error

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
        # the sizing check before the instance is built) ends the trial, not
        # the grid.
        from dppca import matcore

        monkeypatch.setattr(matcore, "_MAX_ELEMENTS", 10)
        cfg = ExperimentConfig(master_seed=1, trials=2, grid=small_grid()[1:2])
        recs = run_experiment(cfg)
        assert len(recs) == 2
        for r in recs:
            assert r.error.startswith("sizing_error:")
            assert r.sin2_emp is None

    def test_generator_out_of_memory_becomes_a_sizing_row(self, monkeypatch):
        from dppca import bench

        def fail(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(bench, "gen_gaussian_iid", fail)
        recs = run_experiment(ExperimentConfig(master_seed=1, trials=2, grid=small_grid()))
        assert len(recs) == 6
        for r in recs:
            if r.gen == "gaussian":
                assert r.error == "sizing_error:a 200 x 4 instance does not fit in memory"
                assert (r.n, r.d, r.clipped) == (200, 4, None)
            else:
                assert not r.error

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

    def test_low_coherence_cholesky_failure_becomes_a_row(self, monkeypatch):
        # The low-coherence generator's Cholesky of the draw's Gram raising
        # LinAlgError ends those trials as numerical_error rows; the other
        # cells of the grid still run.
        def fail(_):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        cfg = ExperimentConfig(master_seed=1, trials=2, grid=small_grid())
        recs = run_experiment(cfg)
        assert len(recs) == 6
        for r in recs:
            if r.gen == "low-coh":
                assert r.error.startswith("numerical_error:")
                assert r.sin2_emp is None
            else:
                assert not r.error
                assert r.sin2_emp is not None


class TestCsv:
    def test_header_exact(self):
        assert CSV_HEADER == (
            "cell,trial,algo,n,d,eps_total,delta_total,T,gen,sin2_emp,"
            "sin2_pop,rayleigh,kappa,upsilon,u_inf,removed,clipped,error"
        )

    def test_write_and_reread(self, small_run, tmp_path):
        cfg, recs = small_run
        path = tmp_path / "out.csv"
        run_to_csv(cfg, path)
        text = path.read_text()
        assert text == records_to_csv(recs)
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
        doc = {"master_seed": 3, "trials": 2, "threads": 2, "grid": small_grid()}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.master_seed == 3 and cfg.threads == 2
        assert len(cfg.grid) == 3

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
        sweep = {k: v for k, v in base.items() if k != "T"}
        sweep["algo"] = "adaptive-sweep"  # missing sweep_J
        with pytest.raises(ParameterError, match="needs sweep_J"):
            ExperimentConfig(master_seed=1, trials=1, grid=[sweep])
        # An explicit id equal to another cell's default id (its index).
        unnamed = {k: v for k, v in small_grid()[1].items() if k != "cell"}
        grid = [dict(base, cell="1"), unnamed]
        with pytest.raises(ParameterError, match=r"grid\[1\]: cell id '1' repeats"):
            ExperimentConfig(master_seed=1, trials=1, grid=grid)

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
        (0, {"gen": {"kind": "gaussian", "n": 200, "d": 4, "sigma1_sq": 0.5,
                     "kappabar": 0.5, "rotate": True}}, "unknown key(s) 'rotate'"),
        (1, {"eps_total": -1}, "epsilon must be positive"),
        (0, {"delta_total": 2}, "delta must lie in"),
        (0, {"t_cosnt": 0.1}, "cell has unknown key(s) 't_cosnt'"),
        (1, {"accountnat": "zcdp"}, "cell has unknown key(s) 'accountnat'"),
        (0, {"gen": {"kind": "gaussian", "n": 200, "d": 4, "sigma1_sq": 0.5,
                     "kappabar": 0.5, "kappa_bar": 0.5}},
         "gen has unknown key(s) 'kappa_bar'"),
        # beta is read by a gaussian gen, the threshold search and T "corollary".
        (1, {"beta": 0.05}, "does not read beta"),
        (1, {"gen": {"kind": "high-coh", "n": 80, "d": 4, "rotate": False}},
         "high-coh gen has unknown key(s) 'rotate'"),
        (0, {"gen": {"kind": "gaussian", "n": 200, "d": 4, "sigma1_sq": 0.5,
                     "kappabar": 0.5, "spikes": 2, "noise_norm": 0.1}},
         "gaussian gen has unknown key(s) 'spikes', 'noise_norm'"),
        (0, {"gen": {"kind": "gaussian", "n": 200, "d": 4, "sigma1_sq": 0.5,
                     "kappabar": 0.5, "sigma1_frac": 0.3, "gap": 0.5}},
         "gaussian gen has unknown key(s) 'sigma1_frac', 'gap'"),
        (1, {"gen": {"kind": "high-coh", "n": 80, "d": 4}, "beta": 0.9},
         "high-coh gen does not"),
        (0, {"gen": {"kind": "low-coh", "n": 150, "d": 5, "sigma1_frac": 0.3, "gap": 0.5},
             "algo": "naive-power", "beta": 0.05}, "naive-power cell with a"),
        (1, {"gen": {"kind": "low-coh", "n": 150, "d": 5, "sigma1_frac": 0.3,
                     "gap": 0.5, "spikes": 3}},
         "low-coh gen has unknown key(s) 'spikes'"),
        (1, {"cell": "adaptive-small"}, "cell id 'adaptive-small' repeats grid[0]"),
        (0, {"cell": "x,y"}, "cell id must be a string without ','"),
        (1, {"cell": "x\ny"}, "cell id must be a string without ','"),
        (0, {"cell": ["l"]}, "cell id must be a string"),
        (1, {"T": 7, "sweep_J": 3, "kappa": 0.5},
         "analyze-gauss cell has unknown key(s) 'T', 'sweep_J', 'kappa'"),
        (0, {"sweep_J": 9}, "adaptive cell has unknown key(s) 'sweep_J'"),
        (0, {"algo": "naive-power", "sweep_J": 2},
         "naive-power cell has unknown key(s) 'sweep_J'"),
        (0, {"algo": "adaptive-sweep", "sweep_J": 2},
         "adaptive-sweep cell has unknown key(s) 'T'"),
        # JSON's NaN and Infinity parse as floats; no float key takes them.
        (0, {"T": "corollary", "kappa": 0.5, "t_const": float("nan")},
         "t_const must be a finite number"),
        (0, {"T": "corollary", "kappa": 0.5, "t_const": float("inf")},
         "t_const must be a finite number"),
        (0, {"T": "corollary", "kappa": 0.5, "t_const": 0}, "t_const must be positive"),
        (1, {"eps_total": 10**400}, "eps_total must be a finite number"),  # no float
        (1, {"beta": 1.5}, "beta must lie in (0, 1), got 1.5"),
        (1, {"gen": {"kind": "high-coh", "n": 80, "d": 4, "spikes": 4}},
         "high-coh gen has unknown key(s) 'spikes'"),
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
        ("trials", True, "trials must be an integer"),
        ("threads", 0, "threads must be >= 1, got 0"),
    ])
    def test_mistyped_top_level_field(self, field, value, needle):
        kwargs = dict(master_seed=1, trials=1, grid=small_grid()[:1])
        kwargs[field] = value
        with pytest.raises(ParameterError, match=needle):
            ExperimentConfig(**kwargs)

    def test_cell_that_is_not_an_object_names_its_index(self):
        grid = [small_grid()[0], ["adaptive"]]
        with pytest.raises(ParameterError, match=r"grid\[1\]: a cell must be a JSON object"):
            ExperimentConfig(master_seed=1, trials=1, grid=grid)

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

    @pytest.mark.parametrize("algo", ["adaptive", "naive-power"])
    @pytest.mark.parametrize("t", [None, 2.7, True, 0])
    def test_run_algorithm_names_a_bad_t(self, algo, t):
        data = np.random.default_rng(3).normal(size=(200, 4))
        a = DenseMatrix(data / np.linalg.norm(data, axis=1, keepdims=True))
        budget = {"algo": algo, "eps_total": 1.0, "delta_total": 1e-5}
        with pytest.raises(ParameterError, match=rf"T must be an int >= 1 .*got {t}"):
            run_algorithm(dict(budget, T=t), a, RngStream(0))
        run = run_algorithm(dict(budget, T=np.int64(2)), a, RngStream(0))
        assert run.t == 2 and type(run.t) is int

    @pytest.mark.parametrize("algo", ["adaptive-sweep", "naive-power"])
    def test_run_algorithm_splits_a_zcdp_total(self, algo):
        own = {"T": 2} if algo == "naive-power" else {"sweep_J": 2}
        base = {k: v for k, v in small_grid()[0].items() if k != "T"}
        cell = dict(base, algo=algo, accountant="zcdp", **own)
        recs = run_experiment(ExperimentConfig(master_seed=1, trials=2, grid=[cell]))
        assert not any(r.error for r in recs)

        data = np.random.default_rng(3).normal(size=(200, 4))
        a = DenseMatrix(data / np.linalg.norm(data, axis=1, keepdims=True))
        total = PrivacyBudget(2.0, 1e-5, "zcdp")
        run = run_algorithm(cell, a, RngStream(0))
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

    @pytest.mark.parametrize("own", [
        {"algo": "adaptive", "T": 3},
        {"algo": "adaptive-sweep", "sweep_J": 2},
        {"algo": "naive-power", "T": "corollary", "kappa": 0.5},
    ], ids=["search", "sweep", "corollary"])
    def test_beta_is_accepted_where_read(self, own):
        cell = {"gen": {"kind": "high-coh", "n": 80, "d": 4}, "eps_total": 1.0,
                "delta_total": 1e-5, "beta": 0.1, **own}
        ExperimentConfig(master_seed=1, trials=1, grid=[cell])

    def test_corollary_cell_accepted(self):
        cell = dict(small_grid()[0], T="corollary", kappa=0.5, t_const=0.1)
        cfg = ExperimentConfig(master_seed=1, trials=1, grid=[cell])
        recs = run_experiment(cfg)
        assert recs[0].t is not None and recs[0].t >= 1



class TestSinglePath:
    """A bench trial and `run_algorithm` run the same cell the same way."""

    @pytest.mark.parametrize("accountant", ["paper", "zcdp"])
    @pytest.mark.parametrize("own", [
        {"algo": "adaptive", "T": 3},
        {"algo": "adaptive", "T": "corollary", "kappa": 0.5, "t_const": 0.1,
         "gen": {"kind": "high-coh", "n": 4, "d": 5}},
        {"algo": "naive-power", "T": 3},
        {"algo": "analyze-gauss"},
        {"algo": "adaptive-sweep", "sweep_J": 2,
         "gen": {"kind": "high-coh", "n": 4, "d": 5}},
    ], ids=["adaptive", "corollary", "naive-power", "analyze-gauss", "sweep"])
    def test_runs_on_neighbours_across_n_equals_d(self, own, accountant):
        # Adding one row to a 4 x 5 matrix makes it 5 x 5: both give an
        # estimate, so the cell's outcome does not reveal which one ran.
        data = np.random.default_rng(8).normal(size=(5, 5))
        data /= np.linalg.norm(data, axis=1, keepdims=True)
        cell = {"eps_total": 1.0, "delta_total": 1e-5, "accountant": accountant, **own}
        ts = []
        for rows in (4, 5):
            run = run_algorithm(cell, DenseMatrix(data[:rows]), RngStream(2))
            assert run.x_hat.shape == (5,)
            assert np.linalg.norm(run.x_hat) == pytest.approx(1.0, rel=1e-12)
            ts.append(run.t)
        assert ts[0] == ts[1]

    @pytest.mark.parametrize("algo", ["adaptive", "naive-power", "adaptive-sweep"])
    def test_corollary_t_reads_the_gen_not_the_matrix(self, algo, monkeypatch):
        # Add/remove neighbours of 36,002 and 36,003 rows at the acceptance
        # cells' keys: the rule gives T = 5 at the gen's declared n on both,
        # where each matrix's own n would give 5 and 6.  The sweep's second
        # run guesses the same kappa 0.5.
        assert [corollary_iterations(n, DEFAULT_BETA, 1e-5, 1.0, 0.5, 0.1)
                for n in (36_002, 36_003)] == [5, 6]
        gen = {"kind": "gaussian", "n": 36_002, "d": 4, "sigma1_sq": 0.5, "kappabar": 0.5}
        sweep = algo == "adaptive-sweep"
        own = {"sweep_J": 2} if sweep else {"T": "corollary", "kappa": 0.5}
        cell = {"gen": gen, "algo": algo, "eps_total": 1.0, "delta_total": 1e-5,
                "t_const": 0.1, **own}
        ExperimentConfig(master_seed=1, trials=1, grid=[cell])
        ts = []  # the T of every run, as the loop receives it
        loop = bench.run_adaptive_power
        monkeypatch.setattr(bench, "run_adaptive_power",
                            lambda a, t, *args, **kw: ts.append(t) or loop(a, t, *args, **kw))
        want = [3, 5] if sweep else [5]  # the sweep's kappa 1 run takes T = 3
        a, _, _ = build_instance(dict(gen, n=36_003), RngStream(4), DEFAULT_BETA)
        for rows in (a.data[:-1], a.data):
            ts.clear()
            run = run_algorithm(cell, DenseMatrix(rows.copy()), RngStream(2))
            assert ts == want and run.t in want
            if not sweep:
                assert run.accounting["mechanisms"] == (10 if algo == "adaptive" else 5)

    @pytest.mark.parametrize("algo", ["adaptive", "naive-power"])
    def test_corollary_cell_needs_a_gen(self, algo):
        cell = {"algo": algo, "eps_total": 1.0, "delta_total": 1e-5,
                "T": "corollary", "kappa": 0.5}
        a = DenseMatrix(np.eye(4))
        with pytest.raises(ParameterError, match="T='corollary' reads the public n of a gen"):
            run_algorithm(cell, a, RngStream(0))
        with pytest.raises(ParameterError, match="must be >= 1, got 0"):
            run_algorithm(dict(cell, gen={"kind": "high-coh", "n": 0, "d": 4}), a,
                          RngStream(0))

    def test_sweep_cell_needs_a_gen(self):
        class NoDraws:  # a stream that fails on any draw or child stream
            def __getattr__(self, name):
                raise AssertionError(f"drew from the stream: {name}")

        cell = {"algo": "adaptive-sweep", "sweep_J": 2, "eps_total": 1.0,
                "delta_total": 1e-5}
        with pytest.raises(ParameterError,
                           match="adaptive-sweep computes each T_j from the public n of a gen"):
            run_algorithm(cell, DenseMatrix(np.eye(4)), NoDraws())

    def test_numpy_floats_write_plain_floats(self):
        plain = small_grid()
        typed = [dict(cell, eps_total=np.float64(cell["eps_total"]),
                      delta_total=np.float64(cell["delta_total"])) for cell in plain]
        texts = [records_to_csv(run_experiment(ExperimentConfig(
            master_seed=3, trials=1, grid=grid))) for grid in (plain, typed)]
        assert texts[0] == texts[1]

    def test_numpy_integers_write_the_same_bytes(self, small_run):
        def typed(doc):  # every int value (master_seed, trials, n, d, ...) as np.int64
            return {k: np.int64(v) if type(v) is int else v for k, v in doc.items()}

        doc = json.loads((DATA / "acceptance_bench.json").read_text())
        grid = [dict(typed(cell), gen=typed(cell["gen"])) for cell in doc["grid"]]
        texts = [records_to_csv(run_experiment(ExperimentConfig(**config)))
                 for config in (doc, dict(typed(doc), grid=grid))]
        assert texts[0] == texts[1]
        cfg, recs = small_run
        typed_threads = run_experiment(cfg, threads=np.int64(2))
        assert records_to_csv(typed_threads) == records_to_csv(recs)

    def test_bench_row_is_run_algorithm_on_its_stream(self):
        cfg = ExperimentConfig(master_seed=5, trials=2, grid=small_grid())
        recs = {(r.cell, r.trial): r for r in run_experiment(cfg)}
        for i, cell in enumerate(cfg.grid):
            for t in range(cfg.trials):
                stream = RngStream(cfg.master_seed, i * cfg.trials + t)
                beta = cell.get("beta", DEFAULT_BETA)
                a, _, _ = build_instance(cell["gen"], stream, beta)
                run = run_algorithm(cell, a, stream)
                rec = recs[(cell["cell"], t)]
                removed = sum(run.trace.removed) if run.trace else None
                assert (rec.t, rec.removed) == (run.t, removed)
                top = spectrum_stats(a).top_vector
                assert rec.sin2_emp == sin_sq(run.x_hat, top)


class TestSweep:
    """An adaptive-sweep cell: J runs at gap guesses 2^-j, one picked privately."""

    GEN = {"kind": "low-coh", "n": 150, "d": 8, "sigma1_frac": 0.3, "gap": 0.6}

    @pytest.fixture
    def instance(self):
        return gen_low_coherence(150, 8, 0.3, 0.6, RngStream(1))

    def cell(self, runs, eps, delta):
        return {"gen": self.GEN, "algo": "adaptive-sweep", "sweep_J": runs,
                "eps_total": eps, "delta_total": delta}

    def test_structure(self, instance):
        run = run_algorithm(self.cell(3, 4.0, 1e-5), instance, RngStream(11))
        # guesses halve, iteration counts double (ceil effects aside)
        ts = [corollary_iterations(150, DEFAULT_BETA, 1e-5, 4.0, kappa)
              for kappa in (1.0, 0.5, 0.25)]
        assert ts[0] <= ts[1] <= ts[2]
        assert run.t in ts
        assert len(run.trace.theta) == run.t
        assert run.accounting == {"runs": 3, "selection_epsilon": 2.0,
                                  "per_run_epsilon": 4.0 / 6, "per_run_delta": 1e-5 / 3}

    def test_deterministic(self, instance):
        a, b = (run_algorithm(self.cell(2, 4.0, 1e-5), instance, RngStream(12))
                for _ in range(2))
        assert np.array_equal(a.x_hat, b.x_hat)
        assert a.t == b.t

    def test_noiseless_selects_best_rayleigh(self, instance, noiseless):
        # Degenerate selection epsilon: the argmax run must win.
        cell = self.cell(3, 1e6, 0.5)
        run = run_algorithm(cell, instance, RngStream(13))
        _, best, t = max(sweep_runs(cell, instance, RngStream(13)), key=lambda r: r[0])
        assert np.array_equal(run.x_hat, best) and run.t == t

    def test_rejects_zero_guesses(self, instance):
        with pytest.raises(ParameterError, match="needs sweep_J >= 1"):
            run_algorithm(self.cell(0, 1.0, 1e-5), instance, RngStream(0))
