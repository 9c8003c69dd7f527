"""End-to-end tests driving the command-line interface through main()."""

import json
import struct

import numpy as np
import pytest

from dppca.cli import main
from dppca.matio import load_matrix


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def gaussian_file(tmp_path):
    out = tmp_path / "a.dpm"
    meta = tmp_path / "a.json"
    rc = run_cli(
        "gen", "--kind", "gaussian", "--n", "400",
        "--spec", "0.5,0.25,0.125,0.125",
        "--seed", "11", "--out", str(out), "--meta", str(meta),
    )
    assert rc == 0
    return out, meta


class TestGen:
    def test_gaussian_dpm_and_meta(self, gaussian_file):
        out, meta = gaussian_file
        a = load_matrix(str(out))
        assert (a.n, a.d) == (400, 4)
        assert a.max_row_norm() <= 1.0 + 1e-9
        doc = json.loads(meta.read_text())
        assert doc["kind"] == "gaussian" and len(doc["vbar1"]) == 4
        assert doc["L"] > 1.0 and doc["sigma1"] > doc["sigma2"]

    def test_gaussian_d_must_match_spec(self, tmp_path, capsys):
        out = tmp_path / "a.dpm"
        rc = run_cli("gen", "--kind", "gaussian", "--n", "200", "--d", "7",
                     "--spec", "0.5,0.3,0.2", "--out", str(out))
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: gen has d=7 but a spec of 3")
        assert not out.exists()

    def test_csv_output(self, tmp_path):
        out = tmp_path / "a.csv"
        rc = run_cli(
            "gen", "--kind", "low-coh", "--n", "100", "--d", "5",
            "--sigma1-frac", "0.3", "--gap", "0.5",
            "--seed", "3", "--out", str(out),
        )
        assert rc == 0
        a = load_matrix(str(out))
        assert (a.n, a.d) == (100, 5)

    def test_high_coh(self, tmp_path):
        out = tmp_path / "h.dpm"
        assert run_cli(
            "gen", "--kind", "high-coh", "--n", "64", "--d", "4",
            "--out", str(out),
        ) == 0
        assert load_matrix(str(out)).max_row_norm() <= 1.0 + 1e-12

    def test_missing_spec_is_cli_error(self, tmp_path, capsys):
        rc = run_cli(
            "gen", "--kind", "gaussian", "--n", "10",
            "--out", str(tmp_path / "x.dpm"),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


class TestRun:
    def test_adaptive_writes_result_and_trace(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        trace = tmp_path / "trace.json"
        rc = run_cli(
            "run", "--algo", "adaptive", "--in", str(infile),
            "--eps-total", "2.0", "--delta-total", "1e-5", "--T", "3",
            "--seed", "5", "--out", str(res), "--trace", str(trace),
        )
        assert rc == 0
        doc = json.loads(res.read_text())
        assert doc["T"] == 3 and len(doc["x_hat"]) == 4
        assert 0.0 <= doc["sin2_vs_v1"] <= 1.0
        assert doc["accounting"]["mechanisms"] == 6
        tr = json.loads(trace.read_text())
        assert len(tr["theta"]) == 3

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

    def test_analyze_gauss_and_naive(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        for algo in ("analyze-gauss", "naive-power"):
            res = tmp_path / f"{algo}.json"
            rc = run_cli(
                "run", "--algo", algo, "--in", str(infile),
                "--eps-total", "2.0", "--delta-total", "1e-5",
                "--T", "3", "--out", str(res),
            )
            assert rc == 0
            doc = json.loads(res.read_text())
            assert 0.0 <= doc["sin2_vs_v1"] <= 1.0

    def test_sweep(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        res = tmp_path / "sweep.json"
        rc = run_cli(
            "run", "--in", str(infile), "--eps-total", "4.0",
            "--delta-total", "1e-5", "--sweep", "3", "--out", str(res),
        )
        assert rc == 0
        doc = json.loads(res.read_text())
        assert doc["accounting"]["runs"] == 3
        assert "selected_kappa_guess" in doc

    def test_restarts(self, gaussian_file, tmp_path):
        infile, _ = gaussian_file
        res = tmp_path / "rst.json"
        rc = run_cli(
            "run", "--in", str(infile), "--eps-total", "4.0",
            "--delta-total", "1e-5", "--T", "2", "--restarts", "3",
            "--out", str(res),
        )
        assert rc == 0
        assert json.loads(res.read_text())["accounting"]["restarts"] == 3

    # Reference values from every `dppca run` path before the CLI and the
    # bench shared one dispatch: x_hat[:3], the accounting dict and T.
    PINS = {
        "adaptive": (
            ["--T", "4"],
            [-0.9150521246245978, -0.1564929654224102, 0.2858693198147098],
            {"mechanisms": 8, "per_mechanism_epsilon": 0.12640523296349723,
             "per_mechanism_delta": 1.1111111111111112e-06,
             "composed_epsilon": 4.0, "composed_delta": 1e-05},
            4,
        ),
        "noiseless": (
            ["--T", "4", "--noiseless"],
            [-0.660854136962654, -0.5941704759603442, 0.44377797424907134],
            {"mechanisms": 8, "per_mechanism_epsilon": 0.12640523296349723,
             "per_mechanism_delta": 1.1111111111111112e-06,
             "composed_epsilon": 4.0, "composed_delta": 1e-05},
            4,
        ),
        "restarts": (
            ["--T", "3", "--restarts", "3"],
            [-0.15494966214242775, -0.4026009338330845, -0.48679306443407333],
            {"restarts": 3, "selection_epsilon": 2.0,
             "per_run_epsilon": 0.6666666666666666,
             "per_run_delta": 3.3333333333333337e-06},
            3,
        ),
        "sweep": (
            ["--sweep", "3"],
            [-0.00041906923838029017, 0.9153628965794406, -0.20856932473548204],
            {"selection_epsilon": 2.0, "runs": 3,
             "per_run_epsilon": 0.6666666666666666,
             "per_run_delta": 3.3333333333333337e-06},
            20,
        ),
        "analyze-gauss": (
            ["--algo", "analyze-gauss"],
            [0.480171656371272, 0.8356325795187, 0.26524656708081823],
            {"mechanisms": 1},
            None,
        ),
        "naive-power": (
            ["--algo", "naive-power", "--T", "4"],
            [-0.5717886982249158, -0.7222820179471577, 0.38899316110027216],
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
        doc = json.loads(res.read_text())
        assert doc["x_hat"][:3] == pytest.approx(head, rel=1e-9)
        assert doc["accounting"] == pytest.approx(accounting, rel=1e-12)
        assert doc.get("T") == t
        assert doc["algo"] == (extra[1] if extra[0] == "--algo" else "adaptive")

    def test_oversize_rows_need_auto_scale(self, tmp_path, capsys):
        from dppca.matcore import DenseMatrix
        from dppca.matio import save_dpm

        big = tmp_path / "big.dpm"
        save_dpm(DenseMatrix(np.eye(4) * 3.0), str(big))
        rc = run_cli(
            "run", "--in", str(big), "--eps-total", "1.0",
            "--delta-total", "1e-5", "--T", "2",
        )
        assert rc == 2
        assert "clip every row to norm <= 1" in capsys.readouterr().err

    def test_oversized_dpm_header_is_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.dpm"
        bad.write_bytes(struct.pack("<4sHQQ", b"DPM1", 1, 2**62, 2**62))
        rc = run_cli(
            "run", "--in", str(bad), "--eps-total", "1.0",
            "--delta-total", "1e-5",
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_input_is_cli_error(self, tmp_path, capsys):
        rc = run_cli(
            "run", "--in", str(tmp_path / "none.dpm"), "--eps-total", "1.0",
            "--delta-total", "1e-5",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "No such file" in err

    def test_non_utf8_csv_is_cli_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe0.5,0.5\n")
        rc = run_cli(
            "run", "--in", str(bad), "--eps-total", "1.0", "--delta-total", "1e-5",
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not UTF-8" in err

    @pytest.mark.parametrize("extra", [
        ["--algo", "naive-power", "--sweep", "3"],
        ["--algo", "analyze-gauss", "--sweep", "3"],
        ["--algo", "naive-power", "--restarts", "3"],
        ["--algo", "analyze-gauss", "--restarts", "3"],
        ["--sweep", "3", "--restarts", "3"],
        ["--restarts", "0"],
    ])
    def test_sweep_and_restarts_need_plain_adaptive(
        self, gaussian_file, tmp_path, capsys, extra
    ):
        infile, _ = gaussian_file
        res = tmp_path / "res.json"
        rc = run_cli(
            "run", "--in", str(infile), "--eps-total", "4.0",
            "--delta-total", "1e-5", *extra, "--out", str(res),
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err
        assert not res.exists()


class TestAccountant:
    def test_compose_worked_value(self, capsys):
        rc = run_cli(
            "accountant", "compose", "--eps", "0.1", "--delta", "1e-6",
            "--T", "10",
        )
        assert rc == 0
        out = capsys.readouterr().out
        eps = float(out.split("epsilon=")[1].split()[0])
        delta = float(out.split("delta=")[1].split()[0])
        assert eps == pytest.approx(3.52451, abs=1e-5)
        assert delta == pytest.approx(1.1e-5, rel=1e-12)

    def test_invert_roundtrip(self, capsys):
        rc = run_cli(
            "accountant", "invert", "--eps-total", "2.0",
            "--delta-total", "1e-5", "--T", "8",
        )
        assert rc == 0
        out = capsys.readouterr().out
        eps = float(out.split("epsilon=")[1].split()[0])
        delta = float(out.split("delta=")[1].split()[0])
        run_cli("accountant", "compose", "--eps", repr(eps),
                "--delta", repr(delta), "--T", "8")
        out2 = capsys.readouterr().out
        assert float(out2.split("epsilon=")[1].split()[0]) == pytest.approx(2.0, rel=1e-9)


class TestTheory:
    def test_report_json(self, capsys):
        rc = run_cli(
            "theory", "--n", "10000", "--d", "8", "--T", "100",
            "--eps", "1.0", "--delta", "1e-6", "--sigma1", "10",
            "--sigma2", "2", "--upsilon", "0.01",
            "--gauss-spec", "0.5,0.25,0.125,0.125",
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["c1"] == pytest.approx(127.49, abs=0.01)
        assert doc["gaussian"]["L"] == pytest.approx(5.9409, abs=1e-3)


class TestBench:
    def test_bench_end_to_end(self, tmp_path, capsys):
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
        assert "wrote 2 records" in capsys.readouterr().out
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3 and lines[0].startswith("cell,trial,")

    def test_malformed_cell_is_cli_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "trials": 1, "out": str(tmp_path / "o.csv"),
            "grid": [{
                "cell": "c", "gen": {"kind": "low-coh", "n": 40, "d": 4,
                                     "sigma1_frac": 0.3},
                "algo": "analyze-gauss", "eps_total": 1.0, "delta_total": 1e-5,
            }],
        }))
        rc = run_cli("bench", "--config", str(cfg_path))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid[0]:") and "gap" in err

    def test_mistyped_top_level_field_is_cli_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "trials": "2", "out": str(tmp_path / "o.csv"),
            "grid": [{
                "cell": "c", "gen": {"kind": "high-coh", "n": 40, "d": 4},
                "algo": "analyze-gauss", "eps_total": 1.0, "delta_total": 1e-5,
            }],
        }))
        rc = run_cli("bench", "--config", str(cfg_path))
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
    ])
    def test_unreadable_config_is_cli_error(self, tmp_path, capsys, text, needle):
        cfg_path = tmp_path / "cfg.json"
        if text is not None:
            cfg_path.write_text(text)
        rc = run_cli("bench", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err

    def test_bench_without_out_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "master_seed": 1, "trials": 1,
            "grid": [{
                "cell": "c", "gen": {"kind": "high-coh", "n": 40, "d": 4},
                "algo": "analyze-gauss", "eps_total": 1.0, "delta_total": 1e-5,
            }],
        }))
        rc = run_cli("bench", "--config", str(cfg_path))
        assert rc == 2
        assert "error:" in capsys.readouterr().err
