"""The benchmark's own tests: python3 -m pytest perfbench -q"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
from spans import LayerReport, Span, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_reports_every_metric_and_matching_outputs():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.rstrip().endswith("smoke: ok")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "accept-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_spans_share_the_trial_stream_and_bindings_are_restored():
    sys.path.insert(0, str(ROOT / "src"))
    from dppca import bench, matcore

    doc = WORKLOADS["sweep-tall"].config_doc(ROOT, 7, smoke=True)
    cfg = bench.ExperimentConfig(master_seed=7, trials=doc["trials"], grid=doc["grid"])
    before = (bench.spectrum_stats, matcore.compact_svd, bench.RngStream)
    with Tracer() as tracer:
        assert bench.spectrum_stats is not before[0]
        bench.run_experiment(cfg, threads=2)
    assert (bench.spectrum_stats, matcore.compact_svd, bench.RngStream) == before

    assert set(tracer.trial_starts) == {(7, i) for i in range(cfg.trials)}
    assert all(s.trial in tracer.trial_starts for s in tracer.spans)
    assert not any(s.func.startswith("_") for s in tracer.spans)
    assert all(0.0 <= s.dur - s.child_s <= s.dur for s in tracer.spans)
    report = LayerReport(tracer, wall_s=1.0, workers=2)
    assert 0.0 <= report.uncovered_s < report.total_trial_s
    metrics = report.metrics()
    assert metrics["adaptive.iterations"][0] == metrics["svtfilter.threshold_search.calls"][0]
    assert json.dumps({k: v for k, (v, _) in metrics.items()})

    raised = Span("svtfilter", "threshold_search", None, None, ())
    raised.start = raised.end = 0.0  # a call that raised: its counts were never read
    tracer.spans.append(raised)
    after = LayerReport(tracer, wall_s=1.0, workers=2).metrics()
    assert after["svtfilter.threshold_search.calls"][0] == metrics[
        "svtfilter.threshold_search.calls"][0] + 1
    assert after["svtfilter.threshold_search.probes_mean"] == metrics[
        "svtfilter.threshold_search.probes_mean"]


def test_sampler_probes_during_the_block_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as host:
        end = time.perf_counter() + 3 * hostspeed.INTERVAL_S
        while time.perf_counter() < end:
            pass
        inside = len(host.samples)
    assert inside >= 3  # the probe at entry and at least two from the timer
    assert len(host.samples) == inside + 1  # and one at exit
    assert host.handler_s > 0.0 and host.slowdown > 0.0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
