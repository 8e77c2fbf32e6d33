"""One workload run in a fresh interpreter: ``python child.py SPEC.json``.

Imports ``oscsync.cli``, pays lazy set-up with a warm-up invocation of the
workload's small form, then times invocations of ``cli.main(argv)`` for the
requested seconds, sampling the host's speed during each (``calibrate.py``);
a traced run times them unsampled and adds one traced invocation at the end.
Each invocation writes to its own directory and is checked afterwards by the
parent process, so the checks add nothing to this process's memory.
"""

from __future__ import annotations

import json
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from calibrate import SpeedProbe
from tracer import Tracer


def invoke(cli, argv: list, out_dir: str, probe: SpeedProbe | None = None) -> dict:
    """Exit code and wall time of one ``cli.main`` call writing to ``out_dir``;
    with a ``probe``, also the host's speed while it ran (``kernel_s``) and
    the wall time less the probe's own (``program_s``)."""
    if probe is not None:
        probe.begin()
    start = time.perf_counter()
    try:
        code = cli.main(argv + ["--out", out_dir])
    except SystemExit as exc:  # argparse rejects bad argv this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed operation, not a crash here
        traceback.print_exc()
        code = 1
    run = {"out": out_dir, "code": code, "seconds": time.perf_counter() - start}
    if probe is not None:
        run["kernel_s"], spent = probe.end()
        run["program_s"] = run["seconds"] - spent
    return run


class SampleCounter:
    """Counts samples ``sample_trajectory`` returns, and those inside the
    interval the command goes on to use."""

    def __init__(self, lo: float, hi: float):
        self.lo, self.hi = lo - 1e-9, hi + 1e-9
        self.propagated = 0
        self.used = 0

    def __call__(self, trajectory) -> None:
        times = np.asarray(getattr(trajectory, "times", ()))
        self.propagated += times.size
        self.used += int(np.count_nonzero((times >= self.lo) & (times <= self.hi)))


def next_fits(runs: list, begin: float, spec: dict) -> bool:
    """Whether one more invocation, at the median time so far, ends within
    the run's seconds.  A sweep_map invocation takes 8-17 s, so stopping
    only once the time is up would overrun the run by as much; a traced
    run also keeps room for its traced invocation (at most ~2x slower)."""
    typical = statistics.median(r["seconds"] for r in runs)
    ahead = typical * (3.0 if spec["trace"] else 1.0)
    return time.perf_counter() - begin + ahead <= spec["seconds"]


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import oscsync.cli as cli
    import scipy

    if not cli.__file__.startswith(spec["src"]):
        print(f"imported oscsync from {cli.__file__}, not the checkout", file=sys.stderr)
        return 2

    invoke(cli, spec["warmup_argv"], "warm")
    # the traced invocation's overhead is measured against unprobed ones
    probe = None if spec["trace"] else SpeedProbe()
    runs = []
    begin = time.perf_counter()
    while not runs or next_fits(runs, begin, spec):
        runs.append(invoke(cli, spec["argv"], f"out-{len(runs)}", probe))

    trace = None
    if spec["trace"]:
        counter = SampleCounter(*spec["used"])
        tracer = Tracer(observers={"dynamics.sample_trajectory": counter})
        tracer.invocation = len(runs)
        tracer.install()
        try:
            traced = invoke(cli, spec["argv"], "out-traced")
        finally:
            tracer.uninstall()
        tracer.write("spans.json")
        trace = {
            "run": traced,
            "layers": tracer.layer_table(),
            "root_total_s": tracer.root_total(),
            "spans": len(tracer.spans),
            "overhead_frac": traced["seconds"]
            / statistics.median(r["seconds"] for r in runs) - 1.0,
            "samples_propagated": counter.propagated,
            "samples_used": counter.used,
        }

    result = {
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "runs": runs,
        "trace": trace,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
