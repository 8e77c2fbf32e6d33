"""One parameter point's run, and parameter-grid sweeps over detuning and coupling.

:func:`run_point` is the run behind ``simulate``, ``compare-rwa`` and the
acceptance tests: one trajectory from ``t = 0`` and what is read from it.

A sweep cell reads the indicator over the window ``[t_eval, t_eval + window]``
and the information measures at ``t_eval``, so only that window is
propagated.  Each omega2 row is one stack from set-up to measures: the
set-up functions take its coupling values as one array, its per-step
exponentials are raised to the evaluation step and stepped through the
window together (:func:`~oscsync.dynamics.sample_moments`), and its
indicator and the information measures of its first window samples are
one :func:`~oscsync.sync.windowed_correlation` and one
:func:`~oscsync.info.gaussian_measures` call.  A cell that fails is
reported with its message while the rest of its row goes on; a set-up
error shared by the row fails its cells, and a window too short for the
indicator fails the sweep.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import __version__
from .dynamics import (
    Backend,
    MomentGenerator,
    Trajectory,
    build_generator,
    dynamical_eigenvalues,
    sample_moments,
    sample_trajectory,
)
from .errors import DomainError, OscSyncError
from .info import (
    GaussianMeasures,
    InitialStateSpec,
    gaussian_measures,
    information_measures,
    lab_covariances,
    lab_frame,
    lab_variance_series,
    make_initial,
)
from .model import (
    BathParams,
    DissipationCoefficients,
    NormalModeBasis,
    SystemParams,
    Topology,
    _NOT_ATTRACTIVE,
    _mode_squares,
    diagonalize,
    dissipation_coefficients,
)
from .sync import _NOT_FINITE, ObservableSeries, SyncResult, windowed_correlation

__all__ = [
    "METRICS",
    "SweepGrid",
    "CellResult",
    "SweepResult",
    "PointRun",
    "default_grid",
    "run_point",
    "run_sweep",
    "write_sweep_csv",
    "write_sweep_sidecar",
]

METRICS = ("syncAbs", "discord", "mutualInfo", "eigRatio")
_ATTRS = dict(zip(METRICS, ("sync_abs", "discord", "mutual_info", "eig_ratio")))


@dataclass(frozen=True)
class SweepGrid:
    """Axes and fixed-parameter template for one sweep."""

    omega2_values: tuple
    lambda_values: tuple
    system: SystemParams
    bath: BathParams
    t_eval: float = 300.0
    metrics: tuple = METRICS

    def __post_init__(self) -> None:
        object.__setattr__(self, "omega2_values", tuple(self.omega2_values))
        object.__setattr__(self, "lambda_values", tuple(self.lambda_values))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        unknown = set(self.metrics) - set(METRICS)
        if unknown:
            raise DomainError(f"unknown sweep metrics: {sorted(unknown)}")
        if self.t_eval <= 0:
            raise DomainError(f"t_eval must be positive, got {self.t_eval}")
        if not np.all(np.isfinite(self.omega2_values + self.lambda_values)):
            raise DomainError("sweep axis values must be finite")


@dataclass(frozen=True)
class CellResult:
    """Metrics for one (omega2, lambda) cell; NaN where not computed."""

    omega2: float
    lam: float
    status: str = "ok"
    sync_abs: float = math.nan
    discord: float = math.nan
    mutual_info: float = math.nan
    eig_ratio: float = math.nan
    message: str = ""


@dataclass(frozen=True)
class SweepResult:
    """Row-major cell results (omega2 outer, lambda inner) plus provenance."""

    grid: SweepGrid
    cells: tuple
    provenance: dict = field(default_factory=dict)

    def metric_map(self, name: str) -> np.ndarray:
        """2-d array of one metric over (omega2, lambda)."""
        attr = _ATTRS[name]
        shape = (len(self.grid.omega2_values), len(self.grid.lambda_values))
        return np.array([getattr(c, attr) for c in self.cells]).reshape(shape)


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


def _set_up(system, bath, initial, backend=Backend.FULL):
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
    basis, coeffs, gen, state0 = _set_up(system, bath, initial, backend)
    traj = sample_trajectory(gen, state0, t_max, dt_out)
    x1, x2 = lab_variance_series(traj, basis, system)
    f, g = ObservableSeries(traj.times, x1), ObservableSeries(traj.times, x2)
    sync = windowed_correlation(f, g, window)
    measures = information_measures(traj, basis, system)
    failed = measures.failed_samples()
    for name in ("mutualInfo", "discord", "logNegativity"):
        measures.series[name][failed] = np.nan
    return PointRun(basis, coeffs, gen, traj, x1, x2, sync, measures)


_SKIPPED = "coupling exceeds stability bound |lam| < omega1*omega2"


def _measure_stack(grid, omega2, lams, bath, initial, dt_out, w, k_eval) -> list:
    """The cells of one row at the coupling values ``lams``, as one stack.

    Each cell reads its window of ``w`` steps from the evaluation step
    ``k_eval``.  A set-up error fails every cell.  A cell whose lab
    variances are not finite throughout its window is left out of the
    row's indicator and fails as its series would on its own.
    """
    needs_window = bool({"syncAbs", "discord", "mutualInfo"} & set(grid.metrics))
    try:
        system = replace(grid.system, omega2=omega2, lam=lams)
        basis, _, gen, state0 = _set_up(system, bath, initial if needs_window else None)
    except OscSyncError as exc:
        return [CellResult(omega2, lam, "error", message=str(exc)) for lam in lams]
    errors = {}  # cell: message of its first failure
    values = {}
    if "eigRatio" in grid.metrics:
        values["eig_ratio"] = np.full(lams.size, np.nan)
        for j in range(lams.size):
            cell = MomentGenerator(gen.M[j], gen.N[j], gen.A1[j], gen.backend)
            try:
                values["eig_ratio"][j] = dynamical_eigenvalues(cell).ratio
            except OscSyncError as exc:
                errors[j] = str(exc)
    if needs_window:
        first, second = sample_moments(gen, state0, dt_out, w + 1, k_start=k_eval)
    if "syncAbs" in grid.metrics:
        times = dt_out * np.arange(k_eval, k_eval + w + 1)
        x1, x2 = lab_variance_series(Trajectory(times, first, second), basis, system)
        finite = np.isfinite(x1).all(axis=1) & np.isfinite(x2).all(axis=1)
        f = ObservableSeries(times, x1[finite])
        g = ObservableSeries(times, x2[finite])
        values["sync_abs"] = np.full(lams.size, np.nan)
        values["sync_abs"][finite] = abs(windowed_correlation(f, g, w * dt_out).C[:, 0])
        for j in np.flatnonzero(~finite):  # as the cell's series would raise alone
            errors.setdefault(j, _NOT_FINITE)
    names = [name for name in ("discord", "mutualInfo") if name in grid.metrics]
    if names:
        sigma, _ = lab_covariances(first[:, 0], second[:, 0], *lab_frame(basis, system))
        measures = gaussian_measures(sigma)
        for j in set().union(*(measures.failures[name] for name in names)):
            errors.setdefault(j, str(measures.error(j, names)))
        values.update((_ATTRS[name], measures.series[name]) for name in names)
    return [
        CellResult(omega2, lam, "error", message=errors[j])
        if j in errors
        else CellResult(omega2, lam, **{a: float(v[j]) for a, v in values.items()})
        for j, lam in enumerate(lams)
    ]


def _run_row(grid, omega2, bath, initial, dt_out, w, k_eval) -> list:
    """The cells of one omega2 row.  A cell past the stability bound is
    skipped, and one whose lower mode frequency rounds to zero fails on its
    own; the rest are one stack (:func:`_measure_stack`)."""
    lams = np.array(grid.lambda_values, dtype=float)
    omega1 = grid.system.omega1
    skipped = np.abs(lams) >= omega1 * omega2
    _, om_minus_sq, _ = _mode_squares(omega1, omega2, lams)
    live = ~skipped & (om_minus_sq > 0)
    stacked = iter(
        _measure_stack(grid, omega2, lams[live], bath, initial, dt_out, w, k_eval)
    )
    return [
        CellResult(omega2, lam, "skipped", message=_SKIPPED)
        if skip
        else CellResult(omega2, lam, "error", message=_NOT_ATTRACTIVE.format(v))
        if v <= 0
        else next(stacked)
        for lam, skip, v in zip(lams, skipped, om_minus_sq)
    ]


def run_sweep(
    grid: SweepGrid,
    initial: InitialStateSpec,
    topology: Topology | str | None = None,
    window: float = 15.0,
    dt_out: float = 0.1,
) -> SweepResult:
    """Evaluate every feasible grid cell; infeasible cells are marked skipped.

    ``t_eval`` and ``window`` are rounded to whole steps of ``dt_out``;
    the provenance records the effective values (``t_eval_effective``,
    ``window_effective``) and every cell that is not ``ok``, with its
    message (``flagged_cells``).
    """
    if dt_out <= 0 or window <= 0:
        raise DomainError(
            f"need dt_out > 0 and window > 0, got {dt_out}, {window}"
        )
    bath = grid.bath
    if topology is not None:
        bath = replace(bath, topology=Topology(topology))
    k_eval = int(round(grid.t_eval / dt_out))
    w = int(round(window / dt_out))

    cells = [
        cell
        for omega2 in grid.omega2_values
        for cell in _run_row(grid, omega2, bath, initial, dt_out, w, k_eval)
    ]

    provenance = {
        "version": __version__,
        "omega2_values": list(grid.omega2_values),
        "lambda_values": list(grid.lambda_values),
        "omega1": grid.system.omega1,
        "gamma": bath.gamma,
        "cutoff": bath.cutoff,
        "temperature": bath.temperature,
        "bath": bath.topology.value,
        "initial": asdict(initial),
        "t_eval": grid.t_eval,
        "t_eval_effective": k_eval * dt_out,
        "window": window,
        "window_effective": w * dt_out,
        "dt_out": dt_out,
        "metrics": list(grid.metrics),
        "flagged_cells": [
            {
                "omega2": c.omega2,
                "lambda": c.lam,
                "status": c.status,
                "message": c.message,
            }
            for c in cells
            if c.status != "ok"
        ],
    }
    return SweepResult(grid=grid, cells=tuple(cells), provenance=provenance)


def _fmt_column(values) -> list:
    """Each value with 17 significant digits; NaN becomes an empty field."""
    return [
        "" if v != v else format(v, ".17g")
        for v in np.asarray(values, dtype=float).tolist()
    ]


def write_sweep_csv(result: SweepResult, path) -> None:
    """CSV per cell; empty fields mark metrics that were not computed."""
    cells = result.cells
    columns = [
        _fmt_column([getattr(c, attr) for c in cells])
        for attr in ("omega2", "lam", "sync_abs", "discord", "mutual_info", "eig_ratio")
    ]
    columns.append([c.status for c in cells])
    lines = [
        "# omega2 [omega1], lambda [omega1^2], syncAbs [-], discord [nats],"
        " mutualInfo [nats], eigRatio [-], status",
        "omega2,lambda,syncAbs,discord,mutualInfo,eigRatio,status",
    ]
    lines.extend(",".join(row) for row in zip(*columns))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_sidecar(result: SweepResult, path) -> None:
    """JSON provenance snapshot sufficient to reproduce the sweep."""
    _write_json(path, result.provenance)
