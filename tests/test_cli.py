"""End-to-end tests driving the command-line interface through main()."""

import importlib.util
import json
import os
import struct
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.lib import format as npy

from dppca import bench, cli
from dppca.adaptive import corollary_iterations
from dppca.bench import ExperimentConfig, build_instance, run_algorithm
from dppca.cli import main
from dppca.datagen import GaussSpec
from dppca.errors import ParameterError
from dppca.matcore import DenseMatrix, spectrum_stats
from dppca.matio import load_npy, save_npy
from dppca.mech import PrivacyBudget, RngStream, split_budget
from dppca.svtfilter import DEFAULT_BETA


DATA = Path(__file__).parent / "data"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def gaussian_file(tmp_path):
    out = tmp_path / "a.npy"
    meta = tmp_path / "a.json"
    rc = run_cli(
        "gen", "--kind", "gaussian", "--n", "400", "--d", "4",
        "--sigma1-sq", "0.5", "--kappabar", "0.5",  # spectrum (0.5, 0.25, 0.125, 0.125)
        "--seed", "11", "--out", str(out), "--meta", str(meta),
    )
    assert rc == 0
    return out, meta


class TestGen:
    def test_gaussian_dpm_and_meta(self, gaussian_file):
        out, meta = gaussian_file
        a = load_npy(str(out))
        assert (a.n, a.d) == (400, 4)
        assert a.max_row_norm() <= 1.0 + 1e-9
        doc = json.loads(meta.read_text())
        assert doc["kind"] == "gaussian" and len(doc["vbar1"]) == 4
        assert doc["L"] == pytest.approx(5.2396, abs=1e-4)  # 1 + sqrt(2 ln(400 / 0.05))
        assert doc["sigma1"] > doc["sigma2"]

    def test_high_coh(self, tmp_path):
        out = tmp_path / "h.npy"
        assert run_cli(
            "gen", "--kind", "high-coh", "--n", "64", "--d", "4",
            "--out", str(out),
        ) == 0
        assert load_npy(str(out)).max_row_norm() <= 1.0 + 1e-12
        meta = tmp_path / "h.json"
        assert run_cli(
            "gen", "--kind", "high-coh", "--n", "64", "--d", "4", "--spikes", "16",
            "--out", str(out), "--meta", str(meta),
        ) == 0
        assert json.loads(meta.read_text())["upsilon"] == pytest.approx(0.25)

    def test_spiked_gaussian_matches_build_instance(self, tmp_path):
        files = []
        for name, extra in (("s", []), ("b", ["--beta", str(DEFAULT_BETA)])):
            out, meta = tmp_path / f"{name}.npy", tmp_path / f"{name}.json"
            assert run_cli(
                "gen", "--kind", "gaussian", "--n", "300", "--d", "20",
                "--sigma1-sq", "0.5", "--kappabar", "0.5", "--seed", "3", *extra,
                "--out", str(out), "--meta", str(meta),
            ) == 0
            files.append((out.read_bytes(), meta.read_bytes()))
        assert files[0] == files[1]  # the default --beta is the explicit one
        gen = {"kind": "gaussian", "n": 300, "d": 20, "sigma1_sq": 0.5, "kappabar": 0.5}
        a, _, _ = build_instance(gen, RngStream(3), DEFAULT_BETA)
        assert load_npy(str(out)).data.tobytes() == a.data.tobytes()
        spiked = GaussSpec.spiked(20, 0.5, 0.5).sigmabar_sq
        assert json.loads(meta.read_text())["spectrum"] == list(spiked)

    def test_ground_truth_only_for_meta(self, tmp_path, monkeypatch):
        flags = ("gen", "--kind", "high-coh", "--n", "64", "--d", "4", "--seed", "2")
        out, meta = tmp_path / "h.npy", tmp_path / "h.json"

        def unread(a):
            raise AssertionError("dppca gen computed a ground truth it does not write")

        with monkeypatch.context() as m:
            m.setattr(cli, "spectrum_stats", unread)
            assert run_cli(*flags, "--out", str(out)) == 0
        without = out.read_bytes()
        assert run_cli(*flags, "--out", str(out), "--meta", str(meta)) == 0
        assert out.read_bytes() == without
        stats = spectrum_stats(load_npy(str(out)))
        doc = json.loads(meta.read_text())
        assert (doc["sigma1"], doc["upsilon"], doc["mu"]) == (
            stats.sigma1, stats.upsilon, stats.mu)

    @pytest.mark.parametrize("d", ["20", "4"])  # n x 4 = 2**60 entries: past numpy's limit
    def test_instance_too_large_is_cli_error(self, tmp_path, capsys, d):
        out = tmp_path / "big.npy"
        rc = run_cli("gen", "--kind", "gaussian", "--n", str(2**58), "--d", d,
                     "--sigma1-sq", "0.5", "--kappabar", "0.5", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: product of shape (288230376151711744,")
        assert not out.exists()

    @pytest.mark.parametrize("extra, needle", [
        (("--kind", "high-coh", "--kappabar", "0.5"),
         "high-coh gen has unknown key(s) 'kappabar'"),
        (("--kind", "low-coh", "--sigma1-frac", "0.6", "--gap", "0.5", "--spikes", "3"),
         "'spikes'"),
        (("--kind", "gaussian", "--sigma1-sq", "0.5", "--kappabar", "0.5", "--gap", "0.5"),
         "'gap'"),
        (("--kind", "high-coh", "--beta", "0.1"), "high-coh gen does not read --beta"),
        (("--kind", "low-coh", "--sigma1-frac", "0.6", "--gap", "0.5", "--beta", "7"),
         "low-coh gen does not read --beta"),
    ])
    def test_key_its_kind_does_not_read_is_cli_error(
        self, tmp_path, capsys, extra, needle
    ):
        out = tmp_path / "x.npy"
        rc = run_cli("gen", "--n", "40", "--d", "2", *extra, "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert not out.exists()

    def test_missing_spec_is_cli_error(self, tmp_path, capsys):
        rc = run_cli(
            "gen", "--kind", "gaussian", "--n", "10",
            "--out", str(tmp_path / "x.npy"),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_usage_error(self, tmp_path, capsys, seed):
        out = tmp_path / "x.npy"
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--kind", "high-coh", "--n", "64", "--d", "4",
                    "--seed", seed, "--out", str(out))
        assert exc.value.code == 2
        assert "error: argument --seed: " in capsys.readouterr().err
        assert not out.exists()

    def test_unparsable_spec_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--kind", "gaussian", "--n", "10", "--spec", "0.5,x",
                    "--out", str(tmp_path / "x.npy"))
        assert exc.value.code == 2

    def test_spiked_d2_with_leftover_mass_is_cli_error(self, tmp_path, capsys):
        out, meta = tmp_path / "x.npy", tmp_path / "x.json"
        rc = run_cli("gen", "--kind", "gaussian", "--n", "200", "--d", "2",
                     "--sigma1-sq", "0.5", "--kappabar", "0.5",
                     "--out", str(out), "--meta", str(meta))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: at d = 2")
        assert not out.exists() and not meta.exists()


    def test_meta_that_cannot_be_written_leaves_no_matrix(self, tmp_path, capsys):
        out = tmp_path / "h.npy"
        rc = run_cli(
            "gen", "--kind", "high-coh", "--n", "64", "--d", "4", "--out", str(out),
            "--meta", str(tmp_path / "missing" / "h.json"),
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")
        assert list(tmp_path.iterdir()) == []


# Fields that no mechanism noises; `dppca run` writes them only under evaluation.
UNRELEASED = {"seed", "n", "sin2_vs_v1", "rayleigh_ratio", "removed"}


class TestRun:
    def test_result_that_cannot_be_written_is_cli_error(
        self, gaussian_file, tmp_path, capsys
    ):
        infile, _ = gaussian_file
        res = tmp_path / "missing" / "res.json"
        rc = run_cli(
            "run", "--in", str(infile), "--eps-total", "1", "--delta-total", "1e-5",
            "--T", "3", "--out", str(res),
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
        assert not res.parent.exists()

    @pytest.mark.parametrize("algo", ["adaptive", "naive-power"])
    def test_budget_too_small_to_noise_is_cli_error(
        self, gaussian_file, tmp_path, capsys, algo
    ):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        with np.errstate(over="ignore"):
            rc = run_cli(
                "run", "--in", str(infile), "--eps-total", "1e-300", "--delta-total",
                "1e-5", "--algo", algo, "--T", "3", "--out", str(res),
            )
        assert rc == 2
        assert "error: noisy iterate norm inf at noise scale" in capsys.readouterr().err
        assert not res.exists()

    def test_adaptive_writes_result_and_trace(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        rc = run_cli(
            "run", "--algo", "adaptive", "--in", str(infile),
            "--eps-total", "2.0", "--delta-total", "1e-5", "--T", "3",
            "--seed", "5", "--out", str(res),
        )
        assert rc == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "a.npy", "res.json"]
        doc = json.loads(res.read_text())
        assert list(doc) == ["release", "evaluation"]
        release, evaluation = doc["release"], doc["evaluation"]
        assert release["T"] == 3 and len(release["x_hat"]) == 4 and release["d"] == 4
        assert release["accounting"]["mechanisms"] == 6
        assert list(release["trace"]) == ["theta", "noise_sigma", "queries_issued"]
        assert len(release["trace"]["theta"]) == 3
        assert not UNRELEASED & set(release)
        assert list(evaluation) == ["n", "sin2_vs_v1", "rayleigh_ratio", "removed"]
        assert evaluation["n"] == 400 and len(evaluation["removed"]) == 3
        assert 0.0 <= evaluation["sin2_vs_v1"] <= 1.0

    def test_trace_is_the_same_on_neighbouring_inputs(self, tmp_path):
        # Add/remove neighbours: A and A plus the row e1.  Every released
        # field but the estimate agrees, the thetas and noise scales to
        # rounding; the row count and the exact removal counts differ, so
        # they are evaluation.
        gen = {"kind": "gaussian", "n": 2000, "d": 10, "sigma1_sq": 0.5, "kappabar": 0.5}
        a, _, _ = build_instance(gen, RngStream(1), 0.05)
        docs = []
        for name, rows in (("a", a.data), ("b", np.vstack([a.data, np.eye(10)[:1]]))):
            infile, res = tmp_path / f"{name}.npy", tmp_path / f"{name}.json"
            save_npy(DenseMatrix(rows), str(infile))
            assert run_cli(
                "run", "--in", str(infile), "--eps-total", "1", "--delta-total", "1e-5",
                "--T", "4", "--seed", "3", "--out", str(res),
            ) == 0
            docs.append(json.loads(res.read_text()))
        ra, rb = (doc["release"] for doc in docs)
        assert list(ra) == list(rb) and not UNRELEASED & set(ra)
        ta, tb = ra.pop("trace"), rb.pop("trace")
        assert list(ta) == list(tb) and ta["queries_issued"] == tb["queries_issued"]
        for key in ("theta", "noise_sigma"):
            assert ta[key] == pytest.approx(tb[key], rel=1e-12)
        assert ra.pop("x_hat") != rb.pop("x_hat")
        assert ra == rb
        ea, eb = (doc["evaluation"] for doc in docs)
        assert (ea["n"], eb["n"]) == (2000, 2001) and ea["removed"] != eb["removed"]

    def test_default_flags_run_the_same_mechanisms_on_neighbours(self, tmp_path):
        # Add/remove neighbours of 36,002 and 36,003 rows, on which a rule
        # reading the input's n would pick T = 5 and 6: `dppca run` reads no
        # n, so both release the same T, budget split and trace lengths.
        assert [corollary_iterations(n, DEFAULT_BETA, 1e-5, 1.0, 0.5, 0.1)
                for n in (36_002, 36_003)] == [5, 6]
        gen = {"kind": "gaussian", "n": 36_003, "d": 3, "sigma1_sq": 0.5, "kappabar": 0.5}
        a, _, _ = build_instance(gen, RngStream(4), DEFAULT_BETA)
        releases = []
        for rows in (a.data[:-1], a.data):
            infile, res = tmp_path / f"{len(rows)}.npy", tmp_path / f"{len(rows)}.json"
            save_npy(DenseMatrix(rows.copy()), str(infile))
            assert run_cli("run", "--in", str(infile), "--eps-total", "1",
                           "--delta-total", "1e-5", "--out", str(res)) == 0
            releases.append(json.loads(res.read_text())["release"])
        ra, rb = releases
        assert ra["T"] == rb["T"] == 10
        assert ra["accounting"] == rb["accounting"]
        assert ra["accounting"]["mechanisms"] == 20
        lengths = [{k: len(v) for k, v in r["trace"].items()} for r in releases]
        assert lengths[0] == lengths[1] == dict.fromkeys(ra["trace"], 10)

    def test_default_seed_is_secret(self, gaussian_file, tmp_path):
        # A seed that is known regenerates every noise draw, so without
        # --seed each run draws its own and none writes it.
        infile, _ = gaussian_file
        docs = []
        for name in ("r1.json", "r2.json"):
            res = tmp_path / name
            assert run_cli("run", "--in", str(infile), "--eps-total", "1.0",
                           "--delta-total", "1e-5", "--T", "2", "--out", str(res)) == 0
            docs.append(json.loads(res.read_text()))
        assert docs[0]["release"]["x_hat"] != docs[1]["release"]["x_hat"]
        for doc in docs:
            assert "seed" not in {*doc, *doc["release"], *doc["evaluation"]}

    def test_run_is_deterministic(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        outs = []
        for name in ("r1.json", "r2.json"):
            res = tmp_path / name
            run_cli(
                "run", "--in", str(infile), "--eps-total", "1.0",
                "--delta-total", "1e-5", "--T", "2", "--seed", "9",
                "--out", str(res),
            )
            outs.append(res.read_text())
        assert outs[0] == outs[1]

    def test_without_out_prints_the_result(self, gaussian_file, tmp_path, capsys):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        flags = ["run", "--in", str(infile), "--eps-total", "1.0",
                 "--delta-total", "1e-5", "--T", "2", "--seed", "9"]
        assert run_cli(*flags) == 0
        printed = capsys.readouterr().out
        assert run_cli(*flags, "--out", str(res)) == 0
        assert printed == res.read_text()
        assert json.loads(printed)["release"]["T"] == 2

    def test_analyze_gauss_and_naive(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        for algo, extra in (("analyze-gauss", []), ("naive-power", ["--T", "3"])):
            res = tmp_path / f"{algo}.json"
            rc = run_cli(
                "run", "--algo", algo, "--in", str(infile),
                "--eps-total", "2.0", "--delta-total", "1e-5",
                *extra, "--out", str(res),
            )
            assert rc == 0
            doc = json.loads(res.read_text())
            assert 0.0 <= doc["evaluation"]["sin2_vs_v1"] <= 1.0
            assert "trace" not in doc["release"] and "removed" not in doc["evaluation"]

    def test_naive_corollary_rule_reads_beta(self, gaussian_file):
        # `dppca run` takes an int T; a config cell's corollary rule reads
        # beta and its gen's n.
        infile, _ = gaussian_file
        gen = {"kind": "gaussian", "n": 400, "d": 4, "sigma1_sq": 0.5, "kappabar": 0.5}
        cell = {"gen": gen, "algo": "naive-power", "eps_total": 4.0, "delta_total": 1e-5,
                "T": "corollary", "kappa": 0.5, "beta": 1e-6}
        ExperimentConfig(master_seed=1, trials=1, grid=[cell])
        run = run_algorithm(cell, load_npy(str(infile)), RngStream(0))
        want = corollary_iterations(400, 1e-6, 1e-5, 4.0, 0.5)
        assert want != corollary_iterations(400, DEFAULT_BETA, 1e-5, 4.0, 0.5)
        assert run.t == want and run.accounting["mechanisms"] == want

    def test_zcdp_accountant(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        res = tmp_path / "zcdp.json"
        rc = run_cli(
            "run", "--in", str(infile), "--eps-total", "4.0", "--delta-total", "1e-5",
            "--accountant", "zcdp", "--T", "3", "--out", str(res),
        )
        assert rc == 0
        doc = json.loads(res.read_text())["release"]
        per_iter = split_budget(PrivacyBudget(4.0, 1e-5, "zcdp"), 6)
        assert doc["accountant"] == "zcdp" and doc["T"] == 3
        assert doc["accounting"] == {
            "mechanisms": 6, "per_mechanism_epsilon": per_iter.epsilon,
            "per_mechanism_delta": per_iter.delta,
        }

    # The corollary rule (--T corollary, --kappa, --t-const) and the sweep
    # (--sweep) read the input's own n, which add/remove neighbours do not
    # share, so `dppca run` has no flag for them: they are usage errors.
    @pytest.mark.parametrize("extra, needle", [
        (["--T", "corollary"], "argument --T: invalid int value: 'corollary'"),
        (["--T", "corollary", "--kappa", "1.5"], "argument --T: invalid int value"),
        (["--T", "corollary", "--kappa", "0.5", "--t-const", "0"],
         "argument --T: invalid int value"),
        (["--algo", "analyze-gauss", "--kappa", "0.5"], "unrecognized arguments: --kappa 0.5"),
        (["--sweep", "3", "--kappa", "0.5"], "unrecognized arguments: --sweep 3 --kappa 0.5"),
        (["--algo", "analyze-gauss", "--t-const", "2"], "unrecognized arguments: --t-const 2"),
        (["--algo", "analyze-gauss", "--beta", "0.5"], "analyze-gauss does not read --beta"),
        (["--algo", "naive-power", "--T", "3", "--beta", "0.5"],
         "naive-power does not read --beta"),
        (["--algo", "analyze-gauss", "--T", "5"], "analyze-gauss does not read --T"),
        (["--sweep", "2", "--T", "7"], "unrecognized arguments: --sweep 2"),
    ])
    def test_bad_algorithm_flags_are_cli_errors(
        self, gaussian_file, tmp_path, capsys, extra, needle
    ):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        try:
            rc = run_cli(
                "run", "--in", str(infile), "--eps-total", "4.0",
                "--delta-total", "1e-5", *extra, "--out", str(res),
            )
        except SystemExit as exc:  # argparse's usage error
            rc = exc.code
        assert rc == 2
        assert needle in capsys.readouterr().err
        assert not res.exists()

    # flags [] marks a cell that no `dppca run` flags spell: kappa, t_const
    # and sweep_J have none.
    @pytest.mark.parametrize("cell, flags", [
        ({"T": 0}, ["--T", "0"]),
        ({"T": "corollary"}, []),
        ({"T": "corollary", "kappa": 1.5}, []),
        ({"T": 10, "t_const": 0.0}, []),
        ({"algo": "adaptive-sweep", "sweep_J": 0}, []),
        ({"T": 4, "kappa": 0.5}, []),
        ({"T": 10, "t_const": 0.1}, []),
    ])
    def test_config_api_and_cli_give_one_message(
        self, gaussian_file, capsys, cell, flags
    ):
        infile, _ = gaussian_file
        cell = {"algo": "adaptive", "eps_total": 4.0, "delta_total": 1e-5, **cell}
        gen = {"kind": "high-coh", "n": 20, "d": 4}
        with pytest.raises(ParameterError) as config:
            ExperimentConfig(master_seed=1, trials=1, grid=[dict(cell, gen=gen)])
        with pytest.raises(ParameterError) as api:
            run_algorithm(cell, load_npy(str(infile)), RngStream(0))
        message = str(api.value)
        assert str(config.value) == f"grid[0]: {message}"
        if flags:
            rc = run_cli("run", "--in", str(infile), "--eps-total", "4.0",
                         "--delta-total", "1e-5", *flags)
            assert rc == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flags, message", [
        (["--algo", "analyze-gauss", "--T", "5"], "analyze-gauss does not read --T"),
        (["--T", "0"], "T must be an int >= 1 or 'corollary', got 0"),
    ])
    def test_flags_are_checked_before_the_matrix_is_read(
        self, tmp_path, capsys, flags, message
    ):
        infile = tmp_path / "short.npy"
        infile.write_bytes(b"\x93NUM")  # a truncated magic
        rc = run_cli("run", "--in", str(infile), "--eps-total", "4.0",
                     "--delta-total", "1e-5", *flags)
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("flag, value", [
        ("--T", "many"), ("--accountant", "rdp"),
        ("--seed", "-1"), ("--seed", str(2**64)),
    ])
    def test_bad_flag_values_are_usage_errors(
        self, gaussian_file, tmp_path, capsys, flag, value
    ):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--in", str(infile), "--eps-total", "4.0",
                    "--delta-total", "1e-5", flag, value, "--out", str(res))
        assert exc.value.code == 2
        assert f"error: argument {flag}: " in capsys.readouterr().err
        assert not res.exists()

    # Reference values from every `dppca run` path before the CLI and the
    # bench shared one dispatch: x_hat[:3], the accounting dict and T.
    # naive-power's were re-pinned when its first step was calibrated to
    # the unnormalised start's norm (1.99 here) instead of 1.
    PINS = {
        "adaptive": (
            ["--T", "4"],
            [-0.9150521246245978, -0.1564929654224102, 0.2858693198147098],
            {"mechanisms": 8, "per_mechanism_epsilon": 0.12640523296349723,
             "per_mechanism_delta": 1.1111111111111112e-06,
             "composed_epsilon": 4.0, "composed_delta": 1e-05},
            4,
        ),
        "analyze-gauss": (
            ["--algo", "analyze-gauss"],
            [0.480171656371272, 0.8356325795187, 0.26524656708081823],
            {"mechanisms": 1},
            None,
        ),
        "naive-power": (
            ["--algo", "naive-power", "--T", "4"],
            [-0.5717837856091403, -0.722288085734367, 0.38898909713424434],
            {"mechanisms": 4, "per_mechanism_epsilon": 0.1822346682951581,
             "per_mechanism_delta": 2.0000000000000003e-06},
            4,
        ),
    }

    @pytest.mark.parametrize("path", sorted(PINS))
    def test_run_paths_unchanged(self, gaussian_file, tmp_path, path):
        infile, _ = gaussian_file
        extra, head, accounting, t = self.PINS[path]
        res = tmp_path / "res.json"
        rc = run_cli(
            "run", "--in", str(infile), "--eps-total", "4.0",
            "--delta-total", "1e-5", "--seed", "5", *extra, "--out", str(res),
        )
        assert rc == 0
        doc = json.loads(res.read_text())["release"]
        assert doc["x_hat"][:3] == pytest.approx(head, rel=1e-9)
        assert doc["accounting"] == pytest.approx(accounting, rel=1e-12)
        assert doc.get("T") == t
        assert doc["algo"] == (extra[1] if extra[0] == "--algo" else "adaptive")

    def test_oversize_rows_need_auto_scale(self, tmp_path, capsys):
        big = tmp_path / "big.npy"
        save_npy(DenseMatrix(np.eye(4) * 3.0), str(big))
        rc = run_cli(
            "run", "--in", str(big), "--eps-total", "1.0",
            "--delta-total", "1e-5", "--T", "2",
        )
        assert rc == 2
        assert "clip every row to norm <= 1" in capsys.readouterr().err

    def test_oversized_dpm_header_is_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.npy"
        with open(bad, "wb") as fh:
            npy.write_array_header_1_0(
                fh, {"descr": "<f8", "fortran_order": False, "shape": (2**62, 2**62)})
        rc = run_cli(
            "run", "--in", str(bad), "--eps-total", "1.0",
            "--delta-total", "1e-5",
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("rows", [
        np.eye(3, dtype=np.float32), np.asfortranarray(np.eye(3)[:, :2]), None,
    ], ids=["float32", "fortran", "dpm1"])
    def test_refused_matrix_file_is_cli_error(self, tmp_path, capsys, rows):
        infile, res = tmp_path / "m.npy", tmp_path / "res.json"
        if rows is None:  # the retired DPM1 format: a 22-byte header, then the payload
            infile.write_bytes(struct.pack("<4sHQQ", b"DPM1", 1, 3, 2) + np.eye(3)[:, :2].tobytes())
        else:
            np.save(infile, rows)
        rc = run_cli("run", "--in", str(infile), "--eps-total", "1.0",
                     "--delta-total", "1e-5", "--out", str(res))
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {infile}: ")
        assert not res.exists()

    def test_missing_input_is_cli_error(self, tmp_path, capsys):
        rc = run_cli(
            "run", "--in", str(tmp_path / "none.npy"), "--eps-total", "1.0",
            "--delta-total", "1e-5",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err

    def test_csv_files_are_cli_errors(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        rc = run_cli("gen", "--kind", "high-coh", "--n", "64", "--d", "4", "--out", str(out))
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: --out") and ".npy format" in captured.err
        assert captured.out == "" and not out.exists()
        out.write_text("0.5,0.5\n0.25,0.75\n" * 4)
        rc = run_cli(
            "run", "--in", str(out), "--eps-total", "1.0", "--delta-total", "1e-5",
        )
        assert rc == 2
        assert "no .npy 1.0 or 2.0 header" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["adaptive", "analyze-gauss", "naive-power"])
    def test_trace_is_retired(self, gaussian_file, tmp_path, capsys, algo):
        # The trace is part of the one result document.
        infile, _ = gaussian_file
        res, trace = tmp_path / "res.json", tmp_path / "trace.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--algo", algo, "--in", str(infile), "--eps-total", "1.0",
                    "--delta-total", "1e-5", "--out", str(res), "--trace", str(trace))
        assert exc.value.code == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err
        assert not res.exists() and not trace.exists()

    @pytest.mark.parametrize("algo, t", [("adaptive", "0"), ("naive-power", "-2")])
    def test_t_below_one_is_named(self, gaussian_file, tmp_path, capsys, algo, t):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        rc = run_cli(
            "run", "--in", str(infile), "--eps-total", "1.0", "--delta-total",
            "1e-5", "--algo", algo, "--T", t, "--out", str(res),
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert f"error: T must be an int >= 1 or 'corollary', got {t}" in err
        assert not res.exists()


class TestBench:
    def test_bench_end_to_end(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        cfg = {
            "master_seed": 5,
            "trials": 2,
            "grid": [{
                "cell": "c0",
                "gen": {"kind": "high-coh", "n": 80, "d": 4},
                "algo": "analyze-gauss",
                "eps_total": 1.0, "delta_total": 1e-5,
            }],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "out.csv"
        rc = run_cli("bench", "--config", str(cfg_path), "--out", str(out))
        assert rc == 0
        assert capsys.readouterr().out == (
            f"wrote 2 records (0 errors) to {out}; "
            "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset\n"
        )
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3 and lines[0].startswith("cell,trial,")

    def test_instance_too_large_is_a_row(self, tmp_path, capsys):
        small = {"cell": "a", "gen": {"kind": "high-coh", "n": 80, "d": 4},
                 "algo": "analyze-gauss", "eps_total": 1.0, "delta_total": 1e-5}
        huge = dict(small, cell="b", gen={"kind": "gaussian", "n": 2**58, "d": 20,
                                          "sigma1_sq": 0.5, "kappabar": 0.5})
        rows = {}
        for name, grid in (("one", [small]), ("two", [small, huge])):
            cfg_path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            cfg_path.write_text(json.dumps({"master_seed": 5, "trials": 1, "grid": grid}))
            assert run_cli("bench", "--config", str(cfg_path), "--out", str(out)) == 0
            rows[name] = out.read_text().splitlines()
        assert "(1 errors)" in capsys.readouterr().out
        assert rows["two"][:2] == rows["one"]
        assert len(rows["two"]) == 3
        assert rows["two"][2].startswith(f"b,0,analyze-gauss,{2**58},20,")
        assert rows["two"][2].endswith(",sizing_error:product of shape "
                                       f"({2**58}; 20) exceeds addressable size")

    def test_malformed_cell_is_cli_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "trials": 1,
            "grid": [{
                "cell": "c", "gen": {"kind": "low-coh", "n": 40, "d": 4,
                                     "sigma1_frac": 0.3},
                "algo": "analyze-gauss", "eps_total": 1.0, "delta_total": 1e-5,
            }],
        }))
        out = tmp_path / "o.csv"
        rc = run_cli("bench", "--config", str(cfg_path), "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid[0]:") and "gap" in err
        # json.dumps writes NaN, which json.loads reads back as a float.
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "trials": 1,
            "grid": [{
                "cell": "c", "gen": {"kind": "high-coh", "n": 40, "d": 4},
                "algo": "adaptive", "eps_total": 1.0, "delta_total": 1e-5,
                "T": "corollary", "kappa": 0.5, "t_const": float("nan"),
            }],
        }))
        assert run_cli("bench", "--config", str(cfg_path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid[0]: t_const must be a finite number")
        assert not out.exists()

    def test_mistyped_top_level_field_is_cli_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "trials": "2",
            "grid": [{
                "cell": "c", "gen": {"kind": "high-coh", "n": 40, "d": 4},
                "algo": "analyze-gauss", "eps_total": 1.0, "delta_total": 1e-5,
            }],
        }))
        rc = run_cli("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o.csv"))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: trials must be an integer")

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_cli_error(self, tmp_path, capsys, threads):
        cfg_path = tmp_path / "cfg.json"
        out = tmp_path / "o.csv"
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "trials": 1,
            "grid": [{
                "cell": "c", "gen": {"kind": "high-coh", "n": 40, "d": 4},
                "algo": "analyze-gauss", "eps_total": 1.0, "delta_total": 1e-5,
            }],
        }))
        rc = run_cli("bench", "--config", str(cfg_path), "--out", str(out),
                     "--threads", threads)
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --threads must be >= 1")
        assert not out.exists()

    @pytest.mark.parametrize("text, needle", [
        (None, "No such file"),
        ('{"master_seed": 1,', "not a JSON config"),
        ("[1, 2]", "must be a JSON object"),
        ('{"master_seed": 1, "trials": 1, "grid": [], "treads": 2}',
         "config has unknown key(s) 'treads'"),
        ('{"master_seed": 1, "trials": 1, "grid": [], "record_walltime": false}',
         "config has unknown key(s) 'record_walltime'"),
        ('{"master_seed": 1, "trials": 1, "grid": [], "out": "o.csv"}',
         "config has unknown key(s) 'out'"),
    ])
    def test_unreadable_config_is_cli_error(self, tmp_path, capsys, text, needle):
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        rc = run_cli("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err

    def test_bench_without_out_is_error(self, monkeypatch):
        # --out is required: a usage error, before the grid runs.
        def fail(*args, **kwargs):
            pytest.fail("the grid ran without an output path")

        monkeypatch.setattr(bench, "run_experiment", fail)
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--config", str(DATA / "acceptance_bench.json"))
        assert exc.value.code == 2

    def test_bench_unwritable_out_fails_before_the_grid(self, tmp_path, capsys,
                                                        monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("the grid ran before the output path was opened")

        monkeypatch.setattr(bench, "run_experiment", fail)
        out = tmp_path / "missing" / "x.csv"
        rc = run_cli("bench", "--config", str(DATA / "acceptance_bench.json"),
                     "--out", str(out))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err
        assert not out.parent.exists()

    def test_grid_script_unwritable_out_fails_before_the_grid(self, tmp_path, capsys,
                                                              monkeypatch):
        def fail(*args, **kwargs):
            pytest.fail("the grid ran before the output path was opened")

        # The script pins BLAS threads and prepends src/ to sys.path on import.
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, os.environ.get(var, "1"))
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location("run_grid", SCRIPTS / "run_grid.py")
        run_grid = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_grid)
        monkeypatch.setattr(bench, "run_experiment", fail)
        out = tmp_path / "missing" / "x.csv"
        monkeypatch.setattr(sys, "argv", ["run_grid.py", "--out", str(out)])
        assert run_grid.main() == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err
        assert not out.parent.exists()
