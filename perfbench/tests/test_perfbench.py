"""The benchmark's own tests: ``python3 -m pytest perfbench/tests``.

Each workload runs in smoke mode (tiny inputs) through ``run.py`` exactly as
the benchmark is invoked, then the run's ``result.json`` and ``spans.json``
are inspected.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
from tracer import public_functions  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)


def bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "0.2",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def smoke_result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    printed = json.loads(proc.stdout.strip().splitlines()[-1])
    work = os.path.join(BENCH, ".work", f"{workload}-smoke")
    with open(os.path.join(work, "result.json")) as fh:
        return printed, json.load(fh)


def declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    printed, _ = smoke_result(workload, 0)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] and printed["failed"] == 0
    assert printed["attempted"] >= 1
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in printed["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_catches_layers_and_self_times_add_up(workload):
    printed, result = smoke_result(workload, 1)
    assert printed["correct"]
    assert {k: v["unit"] for k, v in printed["metrics"].items()} == declared("per_layer")
    layers = result["trace"]["layers"]
    if workload == "spectrum_map":
        assert layers["dynamics.sample_trajectory"]["calls"] == 0
        assert layers["dynamics.dynamical_eigenvalues"]["calls"] == 6
    else:
        assert layers["dynamics.sample_trajectory"]["calls"] >= 1

    with open(os.path.join(BENCH, ".work", f"{workload}-smoke", "spans.json")) as fh:
        spans = json.load(fh)["spans"]
    main_total = sum(end - start for _, _, _, name, start, end in spans if name == "cli.main")
    roots = {name for _, parent, _, name, _, _ in spans if parent is None}
    assert roots == {"cli.main"}
    self_sum = math.fsum(row["self_s"] for row in layers.values())
    assert self_sum == pytest.approx(main_total, rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(workload):
    def counts():
        printed, _ = smoke_result(workload, 1)
        return {
            name: m["value"] for name, m in printed["metrics"].items()
            if m["unit"] != "s" and name != "trace.overhead_frac"
        }

    assert counts() == counts()


def test_refuses_to_run_without_sources():
    bare = os.path.join(BENCH, ".work", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(
        BENCH, os.path.join(bare, "perfbench"),
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = bench("single_run", 0, cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_missing_public_names_are_reported_absent():
    assert public_functions("oscsync", ("no_such_layer",)) == {}
    trace = {
        "layers": {"dynamics.sample_trajectory": {"calls": 1, "self_s": 0.5}},
        "samples_propagated": 0,
        "samples_used": 0,
        "overhead_frac": 0.1,
    }
    outputs = {"bytes": 1, "ok": 0, "error": 0, "skipped": 0, "info_samples": 3}
    imports = [{"numpy": 0.1, "scipy": 0.2, "oscsync": 0.01}]
    metrics = run.layer_metrics(trace, outputs, imports)
    assert "info.spectra_per_sample" not in metrics
    assert "info.symplectic_spectrum.calls" not in metrics
    assert metrics["dynamics.sample_trajectory.calls"] == (1, "count")


def test_cell_checks_reject_broken_invariants():
    row = {"status": "ok", "syncAbs": "0.5", "discord": "0.1",
           "mutualInfo": "0.2", "eigRatio": "0.9"}
    metrics = ("syncAbs", "discord", "mutualInfo", "eigRatio")
    assert checks.check_cell(row, metrics) == ""
    assert checks.check_cell({**row, "status": "skipped"}, metrics) == ""
    for broken in ({"status": "error"}, {"syncAbs": "1.01"}, {"discord": "-0.1"},
                   {"discord": "0.3"}, {"eigRatio": "0"}, {"eigRatio": "1.5"},
                   {"mutualInfo": ""}):
        assert checks.check_cell({**row, **broken}, metrics) != ""


def test_reference_comparison_allows_only_the_drift_budget():
    assert checks._matches(repr(1.0 + 0.5e-9), "1.0")
    assert not checks._matches(repr(1.0 + 2e-9), "1.0")
    assert checks._matches(repr(1000.0 * (1 + 0.5e-9)), "1000")
    assert checks._matches("", "")
    assert not checks._matches("0.5", "")
    assert not checks._matches("error", "ok")


def test_speed_probe_samples_during_an_interval_and_disarms():
    probe = calibrate.SpeedProbe(period=0.05)
    probe.begin()
    start = time.perf_counter()
    while time.perf_counter() - start < 0.4:
        pass
    kernel_s, spent = probe.end()
    assert len(probe.samples) >= 3
    assert kernel_s == statistics.median(probe.samples) > 0.0
    assert 0.0 < spent < time.perf_counter() - start
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
