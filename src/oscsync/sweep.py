"""One parameter point's run, and parameter-grid sweeps over detuning and coupling.

A point and a stack of sweep cells go through one pipeline
(:func:`_pipeline`): set-up, sampling, lab variances, indicator,
information measures.  On a point each stage is one call.  On a stack the
set-up, the spectrum and the measures are one call each, and sampling, lab
variances and indicator one call per chunk of cells.  The callers differ
in what they sample and how they fail, and check the window's step count
before anything is sampled.
:func:`run_point`, behind ``simulate``, ``compare-rwa`` and the acceptance
tests, samples one trajectory from ``t = 0`` and measures every sample.

A sweep cell reads the indicator over the window ``[t_eval, t_eval +
window]`` and the information measures at ``t_eval``, so only that window,
or that one step when the indicator is not asked for, is propagated.  The
live cells, in row-major order, go through stacks of as many cells as the
bytes of ``_BLOCK_SAMPLES`` window samples hold generators (1408; the
default map is one stack).  A stack is set up, and its spectrum and
measures read, once; its windows are sampled in chunks of at most
``_BLOCK_SAMPLES`` samples (108 cells at the default window, one cell if
its window alone is longer), of which only each cell's first sample and
its indicator are kept.  A stack or a chunk may cross omega2
rows; a cell's values depend on neither.  A cell that fails is reported
with its message while the rest of its stack goes on; a set-up error
shared by the stack fails all of its cells, and a window too short for the
indicator, or too long for an array, fails the sweep.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import __version__
from .dynamics import (
    _DRIFT_NOT_FINITE,
    Backend,
    MomentGenerator,
    Trajectory,
    build_generator,
    dynamical_eigenvalues,
    sample_trajectory,
)
from .errors import DomainError, NumericalError, OscSyncError
from .info import (
    GaussianMeasures,
    InitialStateSpec,
    gaussian_measures,
    information_measures,
    lab_covariances,
    lab_variance_series,
    make_initial,
)
from .model import (
    BathParams,
    DissipationCoefficients,
    NormalModeBasis,
    SystemParams,
    _NOT_ATTRACTIVE,
    _OVERFLOWS,
    _mode_squares,
    diagonalize,
    dissipation_coefficients,
)
from .sync import (
    _NOT_FINITE,
    _close,
    ObservableSeries,
    SyncResult,
    _steps,
    _window_steps,
    windowed_correlation,
)

__all__ = [
    "METRICS",
    "SweepGrid",
    "SweepResult",
    "PointRun",
    "default_grid",
    "run_point",
    "run_sweep",
    "write_sweep_csv",
    "write_sweep_sidecar",
]

METRICS = ("syncAbs", "discord", "mutualInfo", "eigRatio")


@dataclass(frozen=True)
class SweepGrid:
    """Axes and fixed-parameter template for one sweep."""

    omega2_values: tuple
    lambda_values: tuple
    system: SystemParams
    bath: BathParams
    t_eval: float = 300.0
    metrics: tuple = METRICS
    backend: Backend = Backend.FULL

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega2_values", tuple(self.omega2_values))
        object.__setattr__(self, "lambda_values", tuple(self.lambda_values))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "backend", Backend(self.backend))
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise DomainError(f"unknown sweep metrics: {sorted(unknown)}")
        if not self.metrics or len(set(self.metrics)) < len(self.metrics):
            raise DomainError(f"need one or more distinct sweep metrics, got {self.metrics}")
        if not 0 < self.t_eval < math.inf:
            raise DomainError(f"t_eval must be positive and finite, got {self.t_eval}")
        if not np.all(np.isfinite(self.omega2_values + self.lambda_values)):
            raise DomainError("sweep axis values must be finite")
        # a cell the sweep measures needs a finite Omega+^2, as a point does
        omega2, _, skipped, _, om_plus_sq = self._cells()
        overflow = ~skipped & ~np.isfinite(om_plus_sq)
        if overflow.any():
            raise DomainError(
                _OVERFLOWS.format(self.system.omega1, omega2[overflow][0].item())
            )

    def _cells(self) -> tuple[np.ndarray, ...]:
        # The cells, omega2-major: omega2, lambda, which are skipped (no
        # attractive potential at |lambda| >= omega1 omega2), and the mode
        # squares Omega-^2, Omega+^2.  Those of a skipped cell may overflow;
        # the grid rejects any other that does.
        axes = np.meshgrid(self.omega2_values, self.lambda_values, indexing="ij")
        omega2, lams = (a.ravel() for a in axes)
        omega1 = self.system.omega1
        skipped = np.abs(lams) >= omega1 * omega2
        with np.errstate(over="ignore", invalid="ignore"):
            _, om_minus_sq, om_plus_sq = _mode_squares(omega1, omega2, lams)
        return omega2, lams, skipped, om_minus_sq, om_plus_sq


@dataclass(frozen=True, eq=False)
class SweepResult:
    """A sweep's cells as columns, row-major (omega2 outer, lambda inner): each
    metric's column in ``values`` (NaN where not asked for or not ``ok``), each
    cell's ``status`` (``ok``, ``error`` or ``skipped``) and ``message``."""

    grid: SweepGrid
    omega2: np.ndarray
    lam: np.ndarray
    values: dict
    status: np.ndarray
    message: np.ndarray
    provenance: dict

    def metric_map(self, name: str) -> np.ndarray:
        """2-d array of one metric over (omega2, lambda)."""
        shape = (len(self.grid.omega2_values), len(self.grid.lambda_values))
        return self.values[name].reshape(shape)


def default_grid(
    system: SystemParams | None = None,
    bath: BathParams | None = None,
    t_eval: float = 300.0,
    metrics=METRICS,
) -> SweepGrid:
    """The standard map axes: omega2 in [1.0, 1.5], lambda in [0.05, 0.9], step 0.025."""
    omega2 = np.round(np.arange(1.0, 1.5 + 1e-9, 0.025), 12)
    lam = np.round(np.arange(0.05, 0.9 + 1e-9, 0.025), 12)
    return SweepGrid(
        omega2_values=tuple(omega2),
        lambda_values=tuple(lam),
        system=system or SystemParams(),
        bath=bath or BathParams(),
        t_eval=t_eval,
        metrics=tuple(metrics),
    )


def _set_up(system, bath, initial, backend):
    # Basis, coefficients, generator and, unless `initial` is None, the
    # initial moments of one parameter point or of a stack of them.
    basis = diagonalize(system)
    coeffs = dissipation_coefficients(system, bath, basis)
    gen = build_generator(basis, coeffs, backend=backend)
    state0 = None if initial is None else make_initial(initial, system, basis)
    return basis, coeffs, gen, state0


@dataclass(frozen=True)
class PointRun:
    """Everything one parameter point computes.  In ``measures.series`` the
    measures other than ``nuMin`` are NaN at each failed sample.  A sweep
    stack's pass of :func:`_pipeline` gives one over its cells, with each
    cell's first sample and its indicator."""

    basis: NormalModeBasis
    coeffs: DissipationCoefficients
    gen: MomentGenerator
    traj: Trajectory
    x1: np.ndarray
    x2: np.ndarray
    sync: SyncResult
    measures: GaussianMeasures

    def physicality(self) -> dict:
        """The minimum symplectic eigenvalue and its time, and the count and
        the first and last time of the samples whose measures failed."""
        failed = np.flatnonzero(self.measures.failed())
        times = self.traj.times
        nu_min = self.measures.series["nuMin"]
        k_min = int(np.nanargmin(nu_min)) if np.isfinite(nu_min).any() else None
        return {
            "minNu": None if k_min is None else float(nu_min[k_min]),
            "minNuTime": None if k_min is None else float(times[k_min]),
            "violatingSamples": len(failed),
            "firstViolationTime": float(times[failed[0]]) if failed.size else None,
            "lastViolationTime": float(times[failed[-1]]) if failed.size else None,
        }


def _sliced(stacked, cells: slice):
    # A stacked frozen dataclass with each array field cut to ``cells``; a
    # part of a checked stack needs no check, so __post_init__ is not rerun.
    part = object.__new__(type(stacked))
    for f in fields(stacked):
        value = getattr(stacked, f.name)
        object.__setattr__(part, f.name, value[cells] if np.ndim(value) else value)
    return part


def _sampled(system, basis, gen, state0, dt_out, n, k_start, window, first=False) -> tuple:
    # The trajectory, lab variances, and unless ``window`` is None the
    # indicator and the mask of cells it read, of a point or a chunk.  With
    # ``first`` only each cell's first sample and lab variances are kept, as
    # copies, and the samples are freed before the indicator is read.
    traj = sample_trajectory(gen, state0, dt_out, n, k_start=k_start)
    x1, x2 = lab_variance_series(traj, basis, system)
    times = traj.times
    if first:
        traj = Trajectory(times[:1], traj.second_moments[:, :1].copy())
    sync = finite = None
    if window is not None:
        # a point is a stack of one here; its indicator keeps its own shape
        finite = np.isfinite(x1).all(axis=-1) & np.isfinite(x2).all(axis=-1)
        f, g = (ObservableSeries(times, x[finite]) for x in (x1, x2))
        sync = windowed_correlation(f, g, window)
        C = np.full(finite.shape + sync.C.shape[-1:], np.nan)
        C[finite] = sync.C
        sync = replace(sync, C=C)
    if first:
        x1, x2 = x1[:, :1].copy(), x2[:, :1].copy()
    return traj, x1, x2, sync, finite


def _pipeline(system, set_up, dt_out, n, k_start, window, measure, chunk=None) -> tuple:
    """Sampling, indicator and measures of a point or a stack of cells.

    ``set_up`` is :func:`_set_up`'s for ``system``.  Samples ``n`` steps of
    ``dt_out`` from step ``k_start``; reads the indicator over every window
    of ``window`` unless it is None, NaN where a cell's lab variances are
    not finite; if ``measure``, measures every sample of a point, or the
    first sample of each cell of a stack.  A point is one chunk and keeps
    every sample.  A stack is sampled, and its indicator read, ``chunk``
    cells at a time; of each chunk it keeps only its cells' first sample
    and indicator, and frees the chunk's samples before its indicator is
    read.  A stack's set-up and measures are one call each.
    Returns the :class:`PointRun` and the mask of cells the indicator read
    (None without it).  Raises nothing for values that are not finite: each
    caller has its own policy.
    """
    basis, coeffs, gen, state0 = set_up
    inputs, args = (system, basis, gen, state0), (dt_out, n, k_start, window)
    if chunk is None:
        traj, x1, x2, sync, finite = _sampled(*inputs, *args)
    else:
        parts = [
            _sampled(*(_sliced(x, slice(i, i + chunk)) for x in inputs), *args, first=True)
            for i in range(0, len(gen.A), chunk)
        ]
        trajs, x1, x2, syncs, masks = zip(*parts)
        moments = np.concatenate([t.second_moments for t in trajs])
        traj = replace(trajs[0], second_moments=moments)
        x1, x2 = np.concatenate(x1), np.concatenate(x2)
        sync = finite = None
        if window is not None:
            sync = replace(syncs[0], C=np.concatenate([y.C for y in syncs]))
            finite = np.concatenate(masks)
    measures = None
    if measure and traj.second_moments.ndim == 2:  # in blocks of samples
        measures = information_measures(traj, basis, system)
    elif measure:
        measures = gaussian_measures(lab_covariances(traj.second_moments[:, 0], basis, system))
    return PointRun(basis, coeffs, gen, traj, x1, x2, sync, measures), finite


def run_point(
    system: SystemParams,
    bath: BathParams,
    initial: InitialStateSpec,
    backend: Backend | str,
    t_max: float,
    dt_out: float,
    window: float,
) -> PointRun:
    """One trajectory from ``t = 0`` to ``t_max`` and what is read from it.

    The window's step count is checked before anything is sampled.  A
    sample whose information measures fail (the Redfield transient can dip
    below the uncertainty bound) is blanked and recorded in ``measures``,
    not raised, so the caller can still write it out.  A propagation that
    overflows raises :class:`NumericalError` naming the first sample time
    whose moments or lab variances are not finite.
    """
    if not (t_max >= 0 and dt_out > 0 and math.isfinite(t_max / dt_out)):
        raise DomainError(
            f"need t_max >= 0 and dt_out > 0 with a finite ratio, got {t_max}, {dt_out}"
        )
    n = int(math.floor(t_max / dt_out + 1e-12)) + 1
    if _window_steps(window, dt_out) >= n:
        raise DomainError("window longer than the series")
    set_up = _set_up(system, bath, initial, backend)
    run, _ = _pipeline(system, set_up, dt_out, n, 0, window, True)
    finite = np.isfinite(run.traj.second_moments).all(axis=-1)
    finite &= np.isfinite(run.x1) & np.isfinite(run.x2)
    if not finite.all():
        t = run.traj.times[np.argmin(finite)]
        raise NumericalError(f"the propagation overflows float64 at t = {t:.6g}")
    failed = run.measures.failed()
    for name in ("mutualInfo", "discord", "logNegativity"):
        run.measures.series[name][failed] = np.nan
    return run


_SKIPPED = "coupling exceeds stability bound |lam| < omega1*omega2"
_BLOCK_SAMPLES = 2**14  # window samples per chunk; bounds its temporaries
# The bytes of one window sample in the sampler (R and the constant 1), and
# of one cell of a stack's set-up at its peak (1.05 kB a cell under
# tracemalloc, on an eigRatio-only stack), so a stack's set-up takes about
# as many bytes as a chunk's samples.
_SAMPLE_BYTES = 11 * 8
_GENERATOR_BYTES = 1024


def _check_window_grid(t_eval, k_eval, w, dt_out) -> None:
    # The indicator reads the window's sample times, the steps
    # k_eval .. k_eval + w of dt_out, which floats must space as uniformly
    # as ObservableSeries requires.  A window too long to resolve on its
    # own is left to the sampler's step-count check.
    if not np.spacing(w * dt_out) <= dt_out:
        return
    t_end = t_eval + w * dt_out
    resolved = np.spacing(t_end) <= dt_out
    if resolved:
        steps = np.diff(dt_out * np.arange(k_eval, k_eval + w + 1))
        resolved = _close(steps, steps[0]) and steps[0] > 0
    if not resolved:
        raise DomainError(
            f"t_eval = {t_eval:g} is too large: floats near t = {t_end:.6g}"
            f" cannot resolve steps of dt_out = {dt_out:g}"
        )


def run_sweep(
    grid: SweepGrid,
    initial: InitialStateSpec,
    window: float = 15.0,
    dt_out: float = 0.1,
) -> SweepResult:
    """Evaluate every feasible grid cell; infeasible cells are marked skipped.

    A cell past the stability bound is skipped, and one whose lower mode
    frequency rounds to zero fails on its own.  The rest go, in row-major
    order, through stacks of as many cells as the bytes of
    ``_BLOCK_SAMPLES`` window samples hold generators, each stack one pass
    of :func:`_pipeline`: one set-up, one ``eigRatio`` spectrum and one
    call of the information measures, with its windows sampled and their
    indicator read in chunks of at most ``_BLOCK_SAMPLES`` samples (one
    cell if its window alone is longer).  A stack or a chunk may cross
    omega2 rows, and a cell's values depend on neither.  A set-up error
    fails every cell of its stack, since they share the call.  Each stack's
    arrays and failures are written by index into the columns of the
    :class:`SweepResult`, and a cell that is not ``ok`` is NaN in every
    metric column.

    ``t_eval`` and ``window`` are rounded to whole steps of ``dt_out``;
    the provenance records the effective values (``t_eval_effective``,
    ``window_effective``) and every cell that is not ``ok``, with its
    message (``flagged_cells``).  A ``t_eval`` or ``window`` of no finite
    number of steps fails the sweep.  So do a window too short for the
    indicator and a ``t_eval`` at which floats cannot resolve steps of
    ``dt_out``, when ``syncAbs`` is among the metrics.
    """
    if not (0 < dt_out < math.inf and 0 < window < math.inf):
        raise DomainError(
            f"need finite dt_out > 0 and window > 0, got {dt_out}, {window}"
        )
    sync = "syncAbs" in grid.metrics
    w = _window_steps(window, dt_out) if sync else _steps("window", window, dt_out)
    k_eval = _steps("t_eval", grid.t_eval, dt_out)
    if sync:
        _check_window_grid(grid.t_eval, k_eval, w, dt_out)

    omega2, lams, skipped, om_minus_sq, _ = grid._cells()
    live = ~skipped & (om_minus_sq > 0)
    status = np.where(live, "ok", np.where(skipped, "skipped", "error"))
    message = np.where(skipped, _SKIPPED, "").astype(object)
    for j in np.flatnonzero(~skipped & ~live):
        message[j] = _NOT_ATTRACTIVE.format(om_minus_sq[j])
    values = {name: np.full(omega2.size, np.nan) for name in METRICS}
    sampled = bool({"syncAbs", "discord", "mutualInfo"} & set(grid.metrics))
    names = [name for name in ("discord", "mutualInfo") if name in grid.metrics]
    n = w + 1 if sync else 1  # the samples of each cell
    chunk = max(1, _BLOCK_SAMPLES // n)  # cells a chunk
    size = max(1, _BLOCK_SAMPLES * _SAMPLE_BYTES // _GENERATOR_BYTES)  # cells a stack
    measured = np.flatnonzero(live)
    for b in (measured[i : i + size] for i in range(0, measured.size, size)):
        errors = {}  # stack index: message of the cell's first failure
        try:
            system = replace(grid.system, omega2=omega2[b], lam=lams[b])
            set_up = _set_up(system, grid.bath, initial if sampled else None, grid.backend)
        except OscSyncError as exc:  # shared by the stack, so it fails every cell
            errors = dict.fromkeys(range(b.size), str(exc))
        else:
            if "eigRatio" in grid.metrics:
                # a drift that is not finite fails its cell, as it would alone
                gen = set_up[2]
                finite_drift = np.isfinite(gen.A).all(axis=(1, 2))
                A = np.where(finite_drift[:, None, None], gen.A, 0.0)
                values["eigRatio"][b] = dynamical_eigenvalues(replace(gen, A=A)).ratio
                for j in np.flatnonzero(~finite_drift):
                    errors[j] = _DRIFT_NOT_FINITE
            if sampled:
                run, finite = _pipeline(system, set_up, dt_out, n, k_eval,
                                        w * dt_out if sync else None, bool(names), chunk)
                if sync:
                    values["syncAbs"][b] = abs(run.sync.C[:, 0])
                    for j in np.flatnonzero(~finite):  # as its series would raise alone
                        errors.setdefault(j, _NOT_FINITE)
                for j in np.flatnonzero(run.measures.failed(names) if names else ()):
                    errors.setdefault(j, str(run.measures.error(j, names)))
                for name in names:
                    values[name][b] = run.measures.series[name]
        for j, text in errors.items():
            status[b[j]], message[b[j]] = "error", text
    flagged = status != "ok"
    for v in values.values():
        v[flagged] = np.nan

    provenance = {
        "version": __version__,
        "omega2_values": list(grid.omega2_values),
        "lambda_values": list(grid.lambda_values),
        "omega1": grid.system.omega1,
        "gamma": grid.bath.gamma,
        "cutoff": grid.bath.cutoff,
        "temperature": grid.bath.temperature,
        "bath": grid.bath.topology.value,
        "backend": grid.backend.value,
        "initial": asdict(initial),
        "t_eval": grid.t_eval,
        "t_eval_effective": k_eval * dt_out,
        "window": window,
        "window_effective": w * dt_out,
        "dt_out": dt_out,
        "metrics": list(grid.metrics),
        "flagged_cells": [
            {"omega2": o, "lambda": lam, "status": s, "message": m}
            for o, lam, s, m in zip(
                *(c[flagged].tolist() for c in (omega2, lams, status, message))
            )
        ],
    }
    return SweepResult(grid, omega2, lams, values, status, message, provenance)


_CSV_BLOCK_ROWS = 1024


def _formatted(values: np.ndarray) -> list:
    """The fields :func:`_write_csv` prints for NaN-free ``values``."""
    return ["%.17g" % v for v in values.tolist()]


def _write_csv(path, comment: str, header: list, columns: list) -> None:
    """A ``# comment`` line, the header, and one row per index of the columns.

    A column is an array of numbers (17 significant digits, NaN as an empty
    field), a list of str such as :func:`_formatted` makes, or a str, the
    field of every row; no str may contain "nan".  Rows are formatted a block
    at a time to bound memory, and NaN blanked only if a number column has one.
    """
    row = ",".join(c.replace("%", "%%") if isinstance(c, str) else
                   "%s" if isinstance(c, list) else "%.17g" for c in columns) + "\n"
    varying = [c for c in columns if not isinstance(c, str)]
    blank = any(np.isnan(c).any() for c in varying if not isinstance(c, list))
    with open(path, "w") as fh:
        fh.write("# " + comment + "\n" + ",".join(header) + "\n")
        for start in range(0, len(varying[0]), _CSV_BLOCK_ROWS):
            block = [c[start : start + _CSV_BLOCK_ROWS] for c in varying]
            block = [b if isinstance(b, list) else b.tolist() for b in block]
            text = (row * len(block[0])) % tuple(itertools.chain.from_iterable(zip(*block)))
            # Python prints every NaN as "nan", and %.17g prints no other
            # number with those letters
            fh.write(text.replace("nan", "") if blank else text)


def write_sweep_csv(result: SweepResult, path) -> None:
    """CSV per cell; empty fields mark metrics that were not computed."""
    _write_csv(
        path,
        "omega2 [omega1], lambda [omega1^2], syncAbs [-], discord [nats],"
        " mutualInfo [nats], eigRatio [-], status",
        ["omega2", "lambda", "syncAbs", "discord", "mutualInfo", "eigRatio", "status"],
        [result.omega2, result.lam, *(result.values[m] for m in METRICS),
         result.status.tolist()],
    )


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_sidecar(result: SweepResult, path) -> None:
    """JSON provenance snapshot sufficient to reproduce the sweep."""
    _write_json(path, result.provenance)
