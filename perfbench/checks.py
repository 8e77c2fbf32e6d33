"""Output checks for the benchmark's workloads.

Every run checks physical invariants on every output row.  At the default
seed the outputs are also compared against reference values recorded from
the unoptimised code, within the drift budget: no numerical change may move
a value by more than 1e-9 relative (absolute below magnitude 1).
"""

from __future__ import annotations

import json
import math
import os

DRIFT = 1e-9
NU_TOLERANCE = 1e-6  # the physicality tolerance oscsync applies itself
ROUNDING = 1e-12  # slack for bounds that hold exactly in exact arithmetic


def read_csv(path: str) -> tuple[list, list]:
    """Header and rows of an oscsync CSV ('#' lines are comments)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines:
        return [], []
    return lines[0].split(","), [ln.split(",") for ln in lines[1:] if ln]


def _value(text: str):
    """Float of a CSV field, NaN for an empty one, the text otherwise."""
    if text == "":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return text


def _number(text: str) -> float:
    """Float of a CSV field; NaN when it is empty or not a number."""
    value = _value(text)
    return value if isinstance(value, float) else math.nan


def _matches(got: str, want: str) -> bool:
    """Whether one output field agrees with its reference within the budget."""
    got, want = _value(got), _value(want)
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= DRIFT * max(1.0, abs(want))


def record(out_dir: str, every: dict, ref_dir: str) -> None:
    """Copy every ``every[name]``-th row of each CSV in ``out_dir`` into
    ``ref_dir``, prefixed with its row index, under a line giving the row
    count."""
    os.makedirs(ref_dir, exist_ok=True)
    for name, step in every.items():
        header, rows = read_csv(os.path.join(out_dir, name))
        lines = [f"# {len(rows)} rows", ",".join(["row"] + header)]
        lines += [",".join([str(k)] + rows[k]) for k in range(0, len(rows), step)]
        with open(os.path.join(ref_dir, name), "w") as fh:
            fh.write("\n".join(lines) + "\n")


def load_reference(ref_dir: str) -> dict:
    """``{name: (row count, header, {row index: fields})}`` of a reference."""
    reference = {}
    for name in sorted(os.listdir(ref_dir)):
        path = os.path.join(ref_dir, name)
        with open(path) as fh:
            count = int(fh.readline().split()[1])
        header, rows = read_csv(path)
        reference[name] = (count, header[1:], {int(r[0]): r[1:] for r in rows})
    return reference


def compare(out_dir: str, reference: dict) -> tuple[list, set]:
    """File-level problems, and the indices of rows of ``sweep.csv`` that
    differ from ``reference`` beyond the drift budget."""
    problems, bad_rows = [], set()
    for name, (count, ref_header, kept) in reference.items():
        header, rows = read_csv(os.path.join(out_dir, name))
        if header != ref_header or len(rows) != count:
            problems.append(
                f"{name}: layout {header} x {len(rows)} rows differs from"
                f" reference {ref_header} x {count}"
            )
            continue
        for k, want in kept.items():
            got = rows[k]
            if len(got) != len(want) or not all(map(_matches, got, want)):
                if name == "sweep.csv":
                    bad_rows.add(k)
                else:
                    problems.append(f"{name} row {k}: {got} differs from reference {want}")
    return problems, bad_rows


def check_information(info_csv: str) -> list:
    """0 <= discord <= mutualInfo and nuMin >= 1 - 1e-6 on every sample."""
    header, rows = read_csv(info_csv)
    problems = []
    for k, fields in enumerate(rows):
        row = dict(zip(header, fields))
        disc, mi, nu = (
            _number(row.get(n, "")) for n in ("discord", "mutualInfo", "nuMin")
        )
        if not 0.0 <= disc <= mi + ROUNDING:
            problems.append(f"info.csv row {k}: discord {disc}, mutualInfo {mi}")
        if not nu >= 1.0 - NU_TOLERANCE:
            problems.append(f"info.csv row {k}: nuMin {nu}")
    return problems


def check_sync(sync_csv: str) -> list:
    """|C| <= 1 wherever the indicator is defined (empty fields are gaps)."""
    header, rows = read_csv(sync_csv)
    problems = []
    for k, row in enumerate(rows):
        for name, text in zip(header[1:], row[1:]):
            c = _number(text)
            if not (math.isnan(c) or abs(c) <= 1.0 + ROUNDING):
                problems.append(f"sync.csv row {k}: {name} = {c}")
    return problems


def check_simulate(out_dir: str, samples: int, reference: dict | None) -> list:
    """Problems with one ``simulate`` invocation's outputs (empty if none);
    the trajectory and the information measures hold ``samples`` rows."""
    expected = ("trajectory.csv", "info.csv", "sync.csv", "manifest.json")
    missing = [n for n in expected if not os.path.exists(os.path.join(out_dir, n))]
    if missing:
        return [f"missing outputs {missing}"]
    problems = [
        f"{name} has {rows} rows, not {samples}"
        for name in ("trajectory.csv", "info.csv")
        if (rows := len(read_csv(os.path.join(out_dir, name))[1])) != samples
    ]
    problems += check_information(os.path.join(out_dir, "info.csv"))
    problems += check_sync(os.path.join(out_dir, "sync.csv"))
    try:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            json.load(fh)
    except ValueError as exc:
        problems.append(f"manifest.json is not JSON: {exc}")
    if reference is not None:
        problems += compare(out_dir, reference)[0]
    return problems


def check_cell(row: dict, metrics: tuple) -> str:
    """Why one ``sweep.csv`` row fails, or '' when it passes.

    A cell skipped for the stability bound has no values and does not fail.
    """
    status = row.get("status")
    if status == "skipped":
        return ""
    if status != "ok":
        return f"status {status}"
    values = {m: _number(row.get(m, "")) for m in metrics}
    missing = [m for m, v in values.items() if math.isnan(v)]
    if missing:
        return f"no value for {missing}"
    if "syncAbs" in values and not values["syncAbs"] <= 1.0 + ROUNDING:
        return f"syncAbs {values['syncAbs']} > 1"
    if "discord" in values and not values["discord"] >= 0.0:
        return f"discord {values['discord']} < 0"
    if {"discord", "mutualInfo"} <= values.keys() and not (
        values["discord"] <= values["mutualInfo"] + ROUNDING
    ):
        return f"discord {values['discord']} > mutualInfo {values['mutualInfo']}"
    if "eigRatio" in values and not 0.0 < values["eigRatio"] <= 1.0:
        return f"eigRatio {values['eigRatio']} outside (0, 1]"
    return ""


def check_sweep(
    out_dir: str, metrics: tuple, cells: int, reference: dict | None
) -> tuple[int, list]:
    """Failed cells of one ``sweep`` invocation, and what failed.

    A cell fails when its status is ``error``, a requested metric is empty,
    an invariant breaks, or it differs from the reference.  Cells the CSV
    lacks count as failed.
    """
    path = os.path.join(out_dir, "sweep.csv")
    if not os.path.exists(path):
        return cells, ["missing sweep.csv"]
    header, rows = read_csv(path)
    problems, bad_rows = [], set()
    if reference is not None:
        problems, bad_rows = compare(out_dir, reference)
        if problems:
            return cells, problems
    failed = max(0, cells - len(rows))
    if failed:
        problems.append(f"sweep.csv has {len(rows)} of {cells} cells")
    for k, fields in enumerate(rows[:cells]):
        why = check_cell(dict(zip(header, fields)), metrics)
        if not why and k in bad_rows:
            why = "differs from reference"
        if why:
            failed += 1
            if len(problems) < 10:
                problems.append(f"sweep.csv row {k}: {why}")
    return failed, problems


def check_invocation(spec: dict, code: int, out_dir: str, reference) -> tuple[int, int, list]:
    """Operations attempted and failed by one invocation, and what failed."""
    if spec["kind"] == "simulate":
        problems = [f"exit code {code}"] if code else check_simulate(
            out_dir, spec["samples"], reference
        )
        return 1, int(bool(problems)), problems
    cells = spec["cells"]
    if code:
        return cells, cells, [f"exit code {code}"]
    failed, problems = check_sweep(out_dir, tuple(spec["metrics"]), cells, reference)
    return cells, failed, problems


def output_counts(spec: dict, out_dir: str) -> dict:
    """Counts read from one invocation's outputs: bytes written, sweep cells
    by status, and samples whose information measures were computed."""
    total = 0
    for folder, _dirs, files in os.walk(out_dir):
        total += sum(os.path.getsize(os.path.join(folder, f)) for f in files)
    counts = {"bytes": total, "ok": 0, "error": 0, "skipped": 0, "info_samples": 0}
    table = os.path.join(out_dir, "info.csv" if spec["kind"] == "simulate" else "sweep.csv")
    if not os.path.exists(table):
        return counts
    header, rows = read_csv(table)
    if spec["kind"] == "simulate":
        counts["info_samples"] = len(rows)
        return counts
    for fields in rows:
        row = dict(zip(header, fields))
        status = row.get("status", "")
        counts[status] = counts.get(status, 0) + 1
        if row.get("discord") or row.get("mutualInfo"):
            counts["info_samples"] += 1
    return counts
