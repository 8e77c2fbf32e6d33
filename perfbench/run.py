"""oscsync benchmark: three CLI workloads, timed end to end and traced per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload single_run --seed 0 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds run metadata (machine, versions, seed, argv, per-invocation times).

Workloads (the seed draws every input; the program sees only generated argv):

``single_run``
    ``simulate`` at one (omega2, lambda) point drawn from the map range
    [1.0, 1.5] x [0.05, 0.9]; common bath, ``sq:2:4``, t_max 400, dt_out
    0.1 (4001 samples), full backend.  The paper's single-trajectory
    figure; the per-sample information loop dominates.
``sweep_map``
    ``sweep`` over the 21 x 35 default (omega2, lambda) map with all four
    metrics, both axes shifted by a seeded sub-step offset.  The paper's
    sync/discord map; trajectory sampling dominates, and the information
    layer sees one sample per cell.
``spectrum_map``
    ``sweep`` with only ``eigRatio`` on a 101 x 171 grid (step 0.005,
    seeded sub-step offset), separate bath.  No trajectories at all: it
    stresses per-cell set-up (coefficients, generator, eigenvalues).
    It is not listed in ``BENCHMARK.json``: on a shared host whose speed
    drifts over minutes (``calibrate.py``) each listed workload needs 50 s
    runs, and a third workload of that length would not fit the time
    allowed for all runs.  Its layers are still traced
    on ``sweep_map``, where they take ~10% of the time; run it by hand to
    see them dominate.

With ``--trace 0`` each run reports ``wall_norm_s`` (median wall time of one
invocation over those expected to end within ``--seconds``, after a
warm-up invocation of the workload's small form), ``setup_s`` (median wall
time of ``import oscsync.cli`` over fresh interpreters) and ``peak_rss_mb``
(peak resident memory of the workload's process).  Both times are scaled to
a reference host speed by calibration kernels timed alongside them
(``calibrate.py``); the raw times are in the metadata line (``wall_s``,
``setup_raw_s``).  With ``--trace 1`` it times plain invocations and one
traced invocation, and reports the per-layer metrics named in
``BENCHMARK.json``; the full per-function table is in
``perfbench/.work/<workload>/result.json`` and the spans in ``spans.json``
there.

Operations are invocations for ``single_run`` and cells for the maps.  An
operation fails when its command exits non-zero, its cell has status
``error``, or its outputs fail the checks in ``checks.py``.

``--smoke`` runs every workload at a tiny size for the benchmark's own tests;
``--record-reference`` rewrites ``reference/<workload>/`` from the
current code at seed 0 (only ever from code whose outputs are trusted).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")
TIME_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_RUNS = 7
IMPORTTIME_RUNS = 3
# times the import, and the bytecode kernel just before and after it
SETUP_CODE = "import time\n" + calibrate.PYTHON_KERNEL + (
    "k = kernel(); t = time.perf_counter(); import oscsync.cli\n"
    "t = time.perf_counter() - t; print(t, (k + kernel()) / 2)"
)


def _axis(start: float, count: int, step: float) -> str:
    """A ``start:stop:step`` range holding exactly ``count`` points."""
    return f"{start!r}:{start + (count - 1) * step!r}:{step!r}"


def single_run(rng: random.Random, smoke: bool) -> dict:
    omega2 = rng.uniform(1.0, 1.5)
    lam = rng.uniform(0.05, 0.9)
    t_max = 20.0 if smoke else 400.0
    dt_out = 0.1
    every = 100
    return {
        "kind": "simulate",
        "argv": [
            "simulate", "--omega2", repr(omega2), "--lambda", repr(lam),
            "--bath", "common", "--initial", "sq:2:4", "--t-max", repr(t_max),
            "--dt-out", repr(dt_out), "--backend", "full",
        ],
        "config": None,
        "samples": round(t_max / dt_out) + 1,
        # simulate writes every sample it propagates
        "used": [0.0, t_max],
        "reference_every": {"trajectory.csv": every, "info.csv": every, "sync.csv": every},
    }


def _sweep(rng, smoke, *, step, counts, metrics, bath, t_eval, every) -> dict:
    n_omega2, n_lambda = (2, 3) if smoke else counts
    omega2 = _axis(1.0 + rng.uniform(0.0, step), n_omega2, step)
    lam = _axis(0.05 + rng.uniform(0.0, step), n_lambda, step)
    t_eval = 20.0 if smoke else t_eval
    window = 15.0
    config = "\n".join(
        [
            f"bath = {bath}",
            "initial = sq:2:4",
            "dt_out = 0.1",
            f"window = {window!r}",
            f"t_eval = {t_eval!r}",
            f"sweep_omega2 = {omega2}",
            f"sweep_lambda = {lam}",
            f"metrics = {','.join(metrics)}",
        ]
    )
    return {
        "kind": "sweep",
        "argv": ["sweep", "--config", "CONFIG"],
        "config": config + "\n",
        "metrics": list(metrics),
        "cells": n_omega2 * n_lambda,
        # a cell reads the indicator and the measures at t_eval only
        "used": [t_eval, t_eval + window],
        "reference_every": {"sweep.csv": every},
    }


def sweep_map(rng: random.Random, smoke: bool) -> dict:
    return _sweep(
        rng, smoke, step=0.025, counts=(21, 35), bath="common", t_eval=300.0,
        metrics=("syncAbs", "discord", "mutualInfo", "eigRatio"), every=1,
    )


def spectrum_map(rng: random.Random, smoke: bool) -> dict:
    return _sweep(
        rng, smoke, step=0.005, counts=(101, 171), bath="separate",
        t_eval=300.0, metrics=("eigRatio",), every=17,
    )


WORKLOADS = {"single_run": single_run, "sweep_map": sweep_map, "spectrum_map": spectrum_map}


def make_spec(workload: str, seed: int, smoke: bool, work: str) -> dict:
    """The child's instructions; config files are written into ``work``."""
    spec = WORKLOADS[workload](random.Random(seed), smoke)
    warm = WORKLOADS[workload](random.Random(seed), True)
    for name, part in (("run", spec), ("warmup", warm)):
        if part["config"] is not None:
            path = f"{name}.cfg"
            with open(os.path.join(work, path), "w") as fh:
                fh.write(part["config"])
            part["argv"] = [path if a == "CONFIG" else a for a in part["argv"]]
    spec["warmup_argv"] = warm["argv"]
    spec["src"] = SRC
    spec["workload"] = workload
    spec["result"] = "result.json"
    ref = os.path.join(REFERENCE, workload)
    spec["reference"] = ref if seed == 0 and not smoke else None
    return spec


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OSCSYNC_THREADS"] = "1"
    return env


def _fresh_interpreter(flags: list, env: dict, deadline: float) -> subprocess.CompletedProcess:
    """Run ``SETUP_CODE`` in a fresh interpreter started with ``flags``."""
    return subprocess.run(
        [sys.executable, *flags, "-c", SETUP_CODE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )


def setup_times(runs: int, env: dict, deadline: float) -> list:
    """Seconds to ``import oscsync.cli`` and seconds of the bytecode kernel
    around it, as a pair per fresh interpreter."""
    return [
        tuple(map(float, _fresh_interpreter([], env, deadline).stdout.split()[-2:]))
        for _ in range(runs)
    ]


def import_breakdown(runs: int, env: dict, deadline: float) -> list:
    """Per fresh interpreter, the import self time (``-X importtime``) summed
    over the modules of each of numpy, scipy and oscsync, in seconds."""
    out = []
    for _ in range(runs):
        report = _fresh_interpreter(["-X", "importtime"], env, deadline).stderr
        totals = {"numpy": 0.0, "scipy": 0.0, "oscsync": 0.0}
        for line in report.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            package = fields[2].strip().split(".", 1)[0]
            if package in totals:
                totals[package] += int(fields[0].split(":")[1]) * 1e-6
        out.append(totals)
    return out


def layer_metrics(trace: dict, outputs: dict, imports: list) -> dict:
    """Every per-layer metric the trace supports, as ``name: (value, unit)``."""
    metrics = {}
    layers = trace["layers"]
    for name, row in layers.items():
        metrics[f"{name}.calls"] = (row["calls"], "count")
        metrics[f"{name}.self_s"] = (row["self_s"], "s")
    propagated = trace["samples_propagated"]
    metrics["dynamics.samples_propagated"] = (propagated, "count")
    metrics["dynamics.samples_used_frac"] = (
        trace["samples_used"] / propagated if propagated else 0.0, "ratio"
    )
    if "info.symplectic_spectrum" in layers:
        samples = outputs["info_samples"]
        spectra = layers["info.symplectic_spectrum"]["calls"]
        metrics["info.spectra_per_sample"] = (spectra / samples if samples else 0.0, "1/sample")
    for status in ("ok", "error", "skipped"):
        metrics[f"sweep.cells_{status}"] = (outputs[status], "count")
    metrics["cli.bytes_written"] = (outputs["bytes"], "bytes")
    for package in ("numpy", "scipy", "oscsync"):
        metrics[f"import.{package}_s"] = (
            statistics.median(run[package] for run in imports), "s"
        )
    metrics["trace.overhead_frac"] = (trace["overhead_frac"], "ratio")
    return metrics


def reported_layers() -> list:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    parser.add_argument(
        "--record-reference", action="store_true",
        help="rewrite the seed-0 reference outputs from the current code",
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not os.path.isfile(os.path.join(SRC, "oscsync", "cli.py")):
        print(f"error: no oscsync sources under {SRC}", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != 0 or args.smoke):
        print("error: references are recorded at seed 0, full size", file=sys.stderr)
        return 2

    work = os.path.join(WORK, args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    spec = make_spec(args.workload, args.seed, args.smoke, work)
    spec["seconds"] = 0 if args.record_reference else args.seconds
    spec["trace"] = bool(args.trace) and not args.record_reference
    with open(os.path.join(work, "spec.json"), "w") as fh:
        json.dump(spec, fh, indent=1)

    env = child_env()
    setup_times(1, env, deadline)  # compiles bytecode, fills the file cache
    setup, imports = [], []
    if args.trace:
        imports = import_breakdown(1 if args.smoke else IMPORTTIME_RUNS, env, deadline)
    else:
        setup = setup_times(2 if args.smoke else SETUP_RUNS, env, deadline)

    with open(os.path.join(work, "child.log"), "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), "spec.json"],
                cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired:
            print("error: workload exceeded the time limit", file=sys.stderr)
            return 3
    if proc.returncode != 0:
        with open(os.path.join(work, "child.log")) as fh:
            sys.stderr.write(fh.read()[-4000:])
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 3
    with open(os.path.join(work, "result.json")) as fh:
        result = json.load(fh)
    if args.record_reference:
        shutil.rmtree(spec["reference"], ignore_errors=True)
        checks.record(os.path.join(work, "out-0"), spec["reference_every"], spec["reference"])
        print(f"recorded {spec['reference']}")
        return 0

    reference = checks.load_reference(spec["reference"]) if spec["reference"] else None
    runs = result["runs"] + ([result["trace"]["run"]] if args.trace else [])
    attempted = failed = 0
    problems = []
    for run in runs:
        a, f, why = checks.check_invocation(
            spec, run["code"], os.path.join(work, run["out"]), reference
        )
        attempted, failed, problems = attempted + a, failed + f, problems + why
    times = [run["seconds"] for run in result["runs"]]

    if args.trace:
        outputs = checks.output_counts(spec, os.path.join(work, runs[-1]["out"]))
        available = layer_metrics(result["trace"], outputs, imports)
        metrics = {
            name: {"value": available[name][0], "unit": available[name][1]}
            for name in reported_layers()
            if name in available
        }
    else:
        wall = statistics.median(
            r["program_s"] / r["kernel_s"] for r in result["runs"]
        ) * calibrate.NUMPY_REF_S
        setup_scaled = statistics.median(t / k for t, k in setup) * calibrate.PYTHON_REF_S
        metrics = {
            "wall_norm_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": setup_scaled, "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        **result["versions"],
        "argv": spec["argv"],
        "invocations": len(times),
        "wall_s": statistics.median(times),
        "times_s": times,
        "kernel_s": [r.get("kernel_s") for r in result["runs"]],
        "setup_raw_s": statistics.median(t for t, _ in setup) if setup else None,
        "setup_runs_s": setup,
        "problems": problems[:20],
    }
    print(json.dumps({"meta": meta}))
    print(
        json.dumps(
            {
                "correct": failed == 0 and attempted > 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
