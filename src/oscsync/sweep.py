"""One parameter point's run, and parameter-grid sweeps over detuning and coupling.

:func:`run_point` is the run behind ``simulate``, ``compare-rwa`` and the
acceptance tests: one trajectory from ``t = 0`` and what is read from it.

A sweep cell reads the indicator over the window ``[t_eval, t_eval + window]``
and the information measures at ``t_eval``, so only that window, or
that one step when the indicator is not asked for, is propagated.  The
live cells, in row-major order, go through blocks of at most
``_BLOCK_SAMPLES`` window samples (one cell if its window alone is
longer; an eigRatio-only sweep samples nothing, and its blocks hold as
many generators as those samples take bytes).  Each block is one stack
from set-up to measures: the set-up functions take its detunings and
couplings as arrays, its per-step exponentials are raised to the
evaluation step and its windows filled by doubling, one stacked product
per level (:func:`~oscsync.dynamics.sample_trajectory`), and its
spectrum, its indicator and the information measures of its first window
samples are one :func:`~oscsync.dynamics.dynamical_eigenvalues`, one
:func:`~oscsync.sync.windowed_correlation` and one
:func:`~oscsync.info.gaussian_measures` call.  A block may cross omega2
rows; a cell's values do not depend on its block.  Each block's metric
arrays are written straight into the sweep's columns (:class:`SweepResult`).
A cell that fails is reported with its message while the rest of its
block goes on; a set-up error shared by the block fails its cells, and a
window too short for the indicator fails the sweep.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace

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
from .errors import DomainError, OscSyncError
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
    measures other than ``nuMin`` are NaN at each failed sample."""

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
        failed = self.measures.failed_samples()
        times = self.traj.times
        nu_min = self.measures.series["nuMin"]
        k_min = int(np.nanargmin(nu_min)) if np.isfinite(nu_min).any() else None
        return {
            "minNu": None if k_min is None else float(nu_min[k_min]),
            "minNuTime": None if k_min is None else float(times[k_min]),
            "violatingSamples": len(failed),
            "firstViolationTime": float(times[failed[0]]) if failed else None,
            "lastViolationTime": float(times[failed[-1]]) if failed else None,
        }


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

    A sample whose information measures fail (the Redfield transient can
    dip below the uncertainty bound) is blanked and recorded in
    ``measures``, not raised, so the caller can still write it out.
    """
    if not (t_max >= 0 and dt_out > 0 and math.isfinite(t_max / dt_out)):
        raise DomainError(
            f"need t_max >= 0 and dt_out > 0 with a finite ratio, got {t_max}, {dt_out}"
        )
    n = int(math.floor(t_max / dt_out + 1e-12)) + 1
    basis, coeffs, gen, state0 = _set_up(system, bath, initial, backend)
    traj = sample_trajectory(gen, state0, dt_out, n)
    x1, x2 = lab_variance_series(traj, basis, system)
    f, g = ObservableSeries(traj.times, x1), ObservableSeries(traj.times, x2)
    sync = windowed_correlation(f, g, window)
    measures = information_measures(traj, basis, system)
    failed = measures.failed_samples()
    for name in ("mutualInfo", "discord", "logNegativity"):
        measures.series[name][failed] = np.nan
    return PointRun(basis, coeffs, gen, traj, x1, x2, sync, measures)


_SKIPPED = "coupling exceeds stability bound |lam| < omega1*omega2"


def _sampled(grid) -> bool:
    return bool({"syncAbs", "discord", "mutualInfo"} & set(grid.metrics))


def _measure_stack(grid, omega2, lams, initial, dt_out, w, k_eval) -> tuple:
    """The cells at the detunings ``omega2`` and couplings ``lams``, as one stack.

    Returns each asked-for metric's array over the stack (``values``) and
    each failed cell's message by its stack index (``errors``); the caller
    blanks the failed cells.  Each cell reads its window of ``w`` steps from
    the evaluation step ``k_eval`` for the indicator and that step alone for
    the information measures, so without ``syncAbs`` only that step is
    sampled.  A set-up error fails every cell.  A cell whose drift is not
    finite is left out of the stack's spectrum, and one whose lab variances
    are not finite throughout its window out of the stack's indicator; each
    fails as it would on its own.
    """
    sampled = _sampled(grid)
    try:
        system = replace(grid.system, omega2=omega2, lam=lams)
        basis, _, gen, state0 = _set_up(
            system, grid.bath, initial if sampled else None, grid.backend
        )
    except OscSyncError as exc:
        return {}, dict.fromkeys(range(lams.size), str(exc))
    errors = {}  # cell: message of its first failure
    values = {}
    if "eigRatio" in grid.metrics:
        # a drift that is not finite fails its cell, as it would alone
        finite_drift = np.isfinite(gen.A).all(axis=(1, 2))
        spectrum = dynamical_eigenvalues(
            replace(gen, A=np.where(finite_drift[:, None, None], gen.A, 0.0))
        )
        values["eigRatio"] = np.where(finite_drift, spectrum.ratio, np.nan)
        for j in np.flatnonzero(~finite_drift):
            errors[j] = _DRIFT_NOT_FINITE
    if sampled:
        n = w + 1 if "syncAbs" in grid.metrics else 1
        traj = sample_trajectory(gen, state0, dt_out, n, k_start=k_eval)
    if "syncAbs" in grid.metrics:
        x1, x2 = lab_variance_series(traj, basis, system)
        finite = np.isfinite(x1).all(axis=1) & np.isfinite(x2).all(axis=1)
        f = ObservableSeries(traj.times, x1[finite])
        g = ObservableSeries(traj.times, x2[finite])
        values["syncAbs"] = np.full(lams.size, np.nan)
        values["syncAbs"][finite] = abs(windowed_correlation(f, g, w * dt_out).C[:, 0])
        for j in np.flatnonzero(~finite):  # as the cell's series would raise alone
            errors.setdefault(j, _NOT_FINITE)
    names = [name for name in ("discord", "mutualInfo") if name in grid.metrics]
    if names:
        sigma = lab_covariances(traj.second_moments[:, 0], basis, system)
        measures = gaussian_measures(sigma)
        for j in set().union(*(measures.failures[name] for name in names)):
            errors.setdefault(j, str(measures.error(j, names)))
        values.update((name, measures.series[name]) for name in names)
    return values, errors


_BLOCK_SAMPLES = 2**14  # window samples per stack; bounds its temporaries
# The bytes of one window sample in the sampler (R and the constant 1), and
# of one cell of an eigRatio-only stack at its peak (1.05 kB a cell under
# tracemalloc), so such a stack gets about as many bytes as a sampled one.
_SAMPLE_BYTES = 11 * 8
_GENERATOR_BYTES = 1024


def _steps(setting: str, value: float, dt_out: float) -> int:
    # ``value`` in whole steps of dt_out
    steps = value / dt_out
    if not math.isfinite(steps):
        raise DomainError(
            f"{setting} = {value:g} is too large: it spans no finite number of"
            f" steps of dt_out = {dt_out:g}"
        )
    return int(round(steps))


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
    order, through stacks of up to ``_BLOCK_SAMPLES`` window samples, or
    as many cells as the bytes of those samples hold generators when no
    metric is sampled (:func:`_measure_stack`); a block may cross omega2
    rows, and a cell's values do not depend on its block.  Each block's
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
    cell_bytes = (w + 1) * _SAMPLE_BYTES if _sampled(grid) else _GENERATOR_BYTES
    size = max(1, _BLOCK_SAMPLES * _SAMPLE_BYTES // cell_bytes)
    measured = np.flatnonzero(live)
    for b in (measured[i : i + size] for i in range(0, measured.size, size)):
        cols, errors = _measure_stack(grid, omega2[b], lams[b], initial, dt_out, w, k_eval)
        for name, v in cols.items():
            values[name][b] = v
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
