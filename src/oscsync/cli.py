"""Command-line front end: config ingestion, subcommands, serialization.

Subcommands
-----------
simulate
    One trajectory run; writes ``trajectory.csv`` (mode moments plus
    shot-noise-normalized lab variances), ``info.csv`` (mutual information,
    discord, log-negativity, minimum symplectic eigenvalue), ``sync.csv``
    (raw and smoothed indicator), and ``manifest.json``.  Samples whose
    information measures fail (below the uncertainty bound) get empty
    measures and a ``physicality`` record in the manifest; the files are
    written and the command then exits 3.
eigen
    Dynamical eigenvalues of the drift matrix plus the analytic decay-rate
    clusters and their deviations; writes ``spectrum.json``.
sweep
    Metric maps over the standard (omega2, lambda) grid; writes
    ``sweep.csv`` and ``sweep_manifest.json``.
compare-rwa
    Runs the same configuration under both backends and writes per-backend
    sync/info CSVs plus a ``compare_rwa.json`` deviation summary with each
    backend's ``physicality`` record; failed samples are handled as in
    ``simulate``.

All floats are serialized with 17 significant digits, so identical configs
produce byte-identical outputs.  NaN serializes as an empty CSV field.
Exit codes: 0 success, 2 validation error (also settings that need more
memory than can be allocated), 3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .dynamics import Backend, dynamical_eigenvalues
from .errors import DomainError, OscSyncError
from .info import MEASURES, InitialStateSpec
from .model import BathParams, SystemParams, Topology, rwa_rates
from .sweep import (
    METRICS,
    PointRun,
    SweepGrid,
    _set_up,
    _formatted,
    _write_csv,
    _write_json,
    run_point,
    run_sweep,
    write_sweep_csv,
    write_sweep_sidecar,
)
from .sync import gaussian_smooth

__all__ = ["main", "build_parser", "read_config_file", "resolve_config"]

_DEFAULTS = {
    "omega1": 1.0,
    "omega2": 1.4,
    "lambda": 0.7,
    "gamma": 0.01,
    "cutoff": 50.0,
    "temperature": 10.0,
    "bath": "common",
    "initial": "sq:2:4",
    "t_max": 400.0,
    "dt_out": 0.1,
    "window": 15.0,
    "filter_width": 5.0,
    "backend": "full",
    # sweep-only keys
    "t_eval": 300.0,
    "sweep_omega2": "1.0:1.5:0.025",
    "sweep_lambda": "0.05:0.9:0.025",
    "metrics": ",".join(METRICS),
}
_FLOAT_KEYS = frozenset(
    k for k, v in _DEFAULTS.items() if isinstance(v, float)
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one CLI invocation."""

    system: SystemParams
    bath: BathParams
    initial: InitialStateSpec
    t_max: float
    dt_out: float
    window: float
    filter_width: float
    backend: Backend
    out_dir: str
    parameters: dict  # flat snapshot of the settings above, for manifests
    # sweep-only settings (grid axes as value tuples)
    t_eval: float
    sweep_omega2: tuple
    sweep_lambda: tuple
    metrics: tuple

    def __post_init__(self) -> None:
        for name in ("t_max", "dt_out", "window", "filter_width"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise DomainError(f"{name} must be positive and finite, got {value}")


def read_config_file(path: str) -> dict:
    """Parse a flat ``key = value`` config file ('#' starts a comment).

    Recognized keys: omega1, omega2, lambda, gamma, cutoff, temperature,
    bath, initial, t_max, dt_out, window, filter_width, backend, and the
    sweep-only keys t_eval, sweep_omega2 / sweep_lambda (``start:stop:step``
    ranges), and metrics (comma-separated subset of the sweep metrics).
    Unknown keys are rejected, naming the offender.
    """
    entries = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _DEFAULTS:
                raise DomainError(
                    f"{path}:{lineno}: unknown config key '{key}'"
                )
            entries[key] = value
    return entries


def _as_float(key: str, value) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"config key '{key}' needs a number, got {value!r}") from exc


def _as_choice(key: str, value, kind):
    try:
        return kind(str(value).lower())
    except ValueError:
        names = " or ".join(repr(member.value) for member in kind)
        raise DomainError(f"config key '{key}' needs {names}, got {value!r}") from None


def _parse_axis(key: str, text: str) -> tuple:
    """Decode a ``start:stop:step`` range into an inclusive value tuple."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(
            f"config key '{key}' needs 'start:stop:step', got {text!r}"
        )
    start, stop, step = (_as_float(key, p) for p in parts)
    if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
        raise DomainError(
            f"config key '{key}' needs finite stop >= start and step > 0, got {text!r}"
        )
    try:
        values = np.arange(start, stop + 1e-9 * step, step)
    except ValueError as exc:  # too many values to allocate an index for
        raise DomainError(f"config key '{key}' range {text!r}: {exc}") from exc
    small = np.abs(values) < 2.0**52  # larger floats are whole; v * 1e12 may overflow
    values[small] = np.round(values[small], 12)
    return tuple(values)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags (flags win)."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        merged.update(read_config_file(args.config))
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key in _FLOAT_KEYS:
        merged[key] = _as_float(key, merged[key])
    topology = _as_choice("bath", merged["bath"], Topology)
    backend = _as_choice("backend", merged["backend"], Backend)
    initial = InitialStateSpec.parse(str(merged["initial"]))
    return RunConfig(
        system=SystemParams(
            omega1=merged["omega1"],
            omega2=merged["omega2"],
            lam=merged["lambda"],
        ),
        bath=BathParams(
            gamma=merged["gamma"],
            cutoff=merged["cutoff"],
            temperature=merged["temperature"],
            topology=topology,
        ),
        initial=initial,
        t_max=merged["t_max"],
        dt_out=merged["dt_out"],
        window=merged["window"],
        filter_width=merged["filter_width"],
        backend=backend,
        out_dir=getattr(args, "out", None) or ".",
        parameters={
            **{k: merged[k] for k in _FLOAT_KEYS - {"t_eval"}},
            "bath": topology.value,
            "backend": backend.value,
            "initial": asdict(initial),
        },
        t_eval=merged["t_eval"],
        sweep_omega2=_parse_axis("sweep_omega2", merged["sweep_omega2"]),
        sweep_lambda=_parse_axis("sweep_lambda", merged["sweep_lambda"]),
        metrics=tuple(
            m.strip() for m in str(merged["metrics"]).split(",") if m.strip()
        ),
    )


def _complex_list(mu: np.ndarray) -> list:
    return [{"re": float(z.real), "im": float(z.imag)} for z in mu]


_TRAJ_HEADER = [
    "t",
    "xx_mm", "xx_pp", "xx_mp",
    "pp_mm", "pp_pp", "pp_mp",
    "xp_mm", "xp_pp", "xp_mp", "xp_pm",
    "mean_xm", "mean_pm", "mean_xp", "mean_pp",
    "x1sq_sn", "x2sq_sn",
]


def _raise_first_failure(run: PointRun, info_path: str) -> None:
    # Once every file is written, the first failed sample's error, one line.
    failed = run.measures.failed_samples()
    if failed:
        first = run.measures.error(failed[0])
        times = run.traj.times
        raise type(first)(
            f"{first} at t = {times[failed[0]]:.6g}; {len(failed)} of"
            f" {len(times)} samples up to t = {times[failed[-1]]:.6g}"
            f" have empty information measures in {info_path}"
        )


def cmd_simulate(cfg: RunConfig) -> list:
    # the smoothing kernel spans about 8 filter_width / dt_out samples:
    # wider than the run it only costs time, and at 1e300 it cannot be built
    if cfg.filter_width > cfg.t_max:
        raise DomainError(
            f"filter_width = {cfg.filter_width:g} must not exceed"
            f" t_max = {cfg.t_max:g}"
        )
    run = run_point(cfg.system, cfg.bath, cfg.initial, cfg.backend,
                    cfg.t_max, cfg.dt_out, cfg.window)
    traj, sync = run.traj, run.sync
    smooth = gaussian_smooth(sync, cfg.filter_width)

    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    traj_path = os.path.join(out, "trajectory.csv")
    info_path = os.path.join(out, "info.csv")
    sync_path = os.path.join(out, "sync.csv")
    manifest_path = os.path.join(out, "manifest.json")

    r = traj.second_moments
    t = _formatted(traj.times)
    _write_csv(
        traj_path,
        "t [1/omega1]; mode moments <Xi Xj>, <Pi Pj>, <{Xi,Pj}> and means"
        " (m=minus, p=plus mode) in natural units; x1sq_sn/x2sq_sn are lab"
        " position variances in shot-noise units",
        _TRAJ_HEADER,
        [t] + [r[:, k] for k in range(10)]
        + ["0"] * 4 + [run.x1, run.x2],  # the means of a zero-mean state
    )
    _write_csv(
        info_path,
        "t [1/omega1]; mutualInfo/discord [nats], logNegativity [log-units],"
        " nuMin [shot noise]",
        ["t", *MEASURES],
        [t] + [run.measures.series[name] for name in MEASURES],
    )
    _write_csv(
        sync_path,
        "t [1/omega1]; windowed Pearson indicator C over [t, t+window] and"
        " its Gaussian-smoothed envelope; empty fields mark constant-window"
        " gaps",
        ["t", "C", "Csmooth"],
        [t[: len(sync.times)], sync.C, smooth.C],
    )
    basis = run.basis
    manifest = {
        "version": __version__,
        "command": "simulate",
        "parameters": cfg.parameters,
        "windowEffective": run.sync.span,
        "normalModes": {
            "theta": basis.theta,
            "omegaMinus": basis.omega_minus,
            "omegaPlus": basis.omega_plus,
            "kappaMinus": basis.kappa_minus,
            "kappaPlus": basis.kappa_plus,
        },
        "gammaTilde": run.coeffs.gamma_tilde.tolist(),
        "dTilde": run.coeffs.d_tilde.tolist(),
        "eigenvalues": _complex_list(dynamical_eigenvalues(run.gen).mu),
        "files": [os.path.basename(p) for p in (traj_path, info_path, sync_path)],
        "physicality": run.physicality(),
    }
    _write_json(manifest_path, manifest)
    _raise_first_failure(run, info_path)
    return [traj_path, info_path, sync_path, manifest_path]


def cmd_eigen(cfg: RunConfig) -> list:
    _, coeffs, gen, _ = _set_up(cfg.system, cfg.bath, None, cfg.backend)
    spectrum = dynamical_eigenvalues(gen)
    rates = rwa_rates(coeffs)
    re = spectrum.mu.real

    def nearest_deviation(rate: float) -> float:
        # relative distance from -rate to the closest eigenvalue real part
        if rate <= 0:
            return math.nan
        return float(np.min(np.abs(re + rate)) / rate)

    payload = {
        "version": __version__,
        "parameters": cfg.parameters,
        "eigenvalues": _complex_list(spectrum.mu),
        "ratio": spectrum.ratio,
        "dominantFrequency": spectrum.dominant_frequency,
        "analyticRates": {
            "minus": rates.minus,
            "plus": rates.plus,
            "mixed": rates.mixed,
        },
        "rateDeviations": {
            "minus": nearest_deviation(rates.minus),
            "plus": nearest_deviation(rates.plus),
            "mixed": nearest_deviation(rates.mixed),
        },
        # eigenvalues with non-negative real part (decoherence-free modes)
        "zeroReCount": int(np.sum(re > -1e-12)),
    }
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, "spectrum.json")
    _write_json(path, payload)
    return [path]


def cmd_sweep(cfg: RunConfig) -> list:
    grid = SweepGrid(
        omega2_values=cfg.sweep_omega2,
        lambda_values=cfg.sweep_lambda,
        system=cfg.system,
        bath=cfg.bath,
        t_eval=cfg.t_eval,
        metrics=cfg.metrics,
        backend=cfg.backend,
    )
    result = run_sweep(
        grid,
        cfg.initial,
        window=cfg.window,
        dt_out=cfg.dt_out,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    csv_path = os.path.join(cfg.out_dir, "sweep.csv")
    sidecar_path = os.path.join(cfg.out_dir, "sweep_manifest.json")
    write_sweep_csv(result, csv_path)
    write_sweep_sidecar(result, sidecar_path)
    return [csv_path, sidecar_path]


def cmd_compare_rwa(cfg: RunConfig) -> list:
    runs = {
        backend.value: run_point(cfg.system, cfg.bath, cfg.initial, backend,
                                 cfg.t_max, cfg.dt_out, cfg.window)
        for backend in (Backend.FULL, Backend.RWA)
    }

    full, rwa = runs["full"], runs["rwa"]
    assert np.array_equal(full.traj.times, rwa.traj.times)
    t = _formatted(full.traj.times)
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    paths = []
    for name, run in runs.items():
        sync_path = os.path.join(out, f"sync_{name}.csv")
        info_path = os.path.join(out, f"info_{name}.csv")
        _write_csv(
            sync_path,
            "t [1/omega1]; windowed indicator C, " + name + " backend",
            ["t", "C"],
            [t[: len(run.sync.times)], run.sync.C],
        )
        _write_csv(
            info_path,
            "t [1/omega1]; information measures, " + name + " backend",
            ["t", *MEASURES],
            [t] + [run.measures.series[name] for name in MEASURES],
        )
        paths.extend([sync_path, info_path])

    c_f, c_r = full.sync.C, rwa.sync.C
    both = np.isfinite(c_f) & np.isfinite(c_r)
    max_sync_dev = float(np.max(np.abs(c_f[both] - c_r[both]))) if both.any() else math.nan
    # nanmax skips the blanked samples and equals max when there are none
    d_f, d_r = full.measures.series["discord"], rwa.measures.series["discord"]
    disc_scale = float(np.nanmax(np.abs(d_f)))
    max_disc_dev = float(np.nanmax(np.abs(d_f - d_r)) / disc_scale) if disc_scale > 0 else 0.0
    r_f, r_r = full.traj.second_moments, rwa.traj.second_moments
    mom_scale = np.maximum(np.max(np.abs(r_f), axis=0), 1e-30)
    max_mom_dev = float(np.max(np.abs(r_f - r_r) / mom_scale))
    summary = {
        "version": __version__,
        "parameters": cfg.parameters,
        "windowEffective": full.sync.span,
        "maxAbsSyncDeviation": max_sync_dev,
        "maxRelDiscordDeviation": max_disc_dev,
        "maxRelSecondMomentDeviation": max_mom_dev,
        "physicality": {name: run.physicality() for name, run in runs.items()},
        "files": [os.path.basename(p) for p in paths],
    }
    summary_path = os.path.join(out, "compare_rwa.json")
    _write_json(summary_path, summary)
    paths.append(summary_path)
    for name, run in runs.items():
        _raise_first_failure(run, os.path.join(out, f"info_{name}.csv"))
    return paths


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--omega2", type=float, help="second oscillator frequency")
    common.add_argument("--lambda", dest="lambda", type=float, help="coupling strength")
    common.add_argument("--gamma", type=float, help="damping constant")
    common.add_argument("--cutoff", type=float, help="bath cutoff frequency")
    common.add_argument("--temperature", type=float, help="bath temperature")
    common.add_argument("--bath", choices=["common", "separate"], help="bath topology")
    common.add_argument(
        "--initial", metavar="SPEC", help="vacuum | tms:R | sq:R1:R2"
    )
    common.add_argument("--t-max", dest="t_max", type=float, help="simulation time")
    common.add_argument("--dt-out", dest="dt_out", type=float, help="output spacing")
    common.add_argument("--window", type=float, help="indicator window length")
    common.add_argument("--backend", choices=["full", "rwa"], help="moment equations")
    common.add_argument("--out", metavar="DIR", help="output directory (default .)")

    parser = argparse.ArgumentParser(
        prog="oscsync",
        description="Synchronization and quantum-correlation analysis of two"
        " dissipatively coupled oscillators.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("simulate", parents=[common], help="run one trajectory")
    sub.add_parser("eigen", parents=[common], help="drift-matrix spectrum")
    sub.add_parser("sweep", parents=[common], help="fixed-time metric maps")
    sub.add_parser(
        "compare-rwa", parents=[common], help="full vs RWA backend deviations"
    )
    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "eigen": cmd_eigen,
    "sweep": cmd_sweep,
    "compare-rwa": cmd_compare_rwa,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        paths = _COMMANDS[args.command](cfg)
    except OscSyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        print(f"error: out of memory for these settings: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
