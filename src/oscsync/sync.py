"""Windowed synchronization indicator and envelope tools.

The indicator is the sliding-window Pearson correlation

    C(t, dt) = <df dg>_w / sqrt(<df^2>_w <dg^2>_w),

where the averages run over the window ``[t, t + dt]`` and ``df = f - <f>_w``.
``|C| -> 1`` signals that the two series have locked onto a common waveform;
the sign distinguishes in-phase from antiphase locking.

A series may be a stack on one time grid, values ``(..., n)`` for ``n``
times; :func:`windowed_correlation` and :func:`gaussian_smooth` work along
the last axis, and :func:`sync_onset` takes the indicator of one pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.ndimage import gaussian_filter1d

from .errors import DomainError, GridMismatch

__all__ = [
    "ObservableSeries",
    "SyncResult",
    "windowed_correlation",
    "gaussian_smooth",
    "sync_onset",
]

VAR_FLOOR = 1e-30  # below this a window is treated as constant -> NaN gap
_NOT_FINITE = "observable values must be finite"


def _close(a: np.ndarray, b) -> bool:
    # np.allclose(a, b, rtol=1e-9, atol=1e-12) for finite b; NaN or
    # infinite entries are never close.
    return bool(np.all(np.abs(a - b) <= 1e-12 + 1e-9 * np.abs(b)))


@dataclass(frozen=True)
class ObservableSeries:
    """A scalar observable, or a stack of them, on a uniform time grid."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape[-1:] != t.shape or t.size < 2:
            raise DomainError("series needs 1-d times matching values, length >= 2")
        steps = np.diff(t)
        if not _close(steps, steps[0]):
            raise DomainError("time grid must be uniformly spaced")
        if not np.all(np.isfinite(v)):
            raise DomainError(_NOT_FINITE)
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


@dataclass(frozen=True)
class SyncResult:
    """Indicator series C(t) for windows starting at each t.  ``span`` is
    ``window`` rounded to whole sample spacings, the length averaged over."""

    times: np.ndarray
    C: np.ndarray
    window: float
    span: float = math.nan


def _window_sums(y: np.ndarray, w: int, dt: float) -> np.ndarray:
    # Trapezoidal integral over every length-w window of the last axis via
    # cumulative sums; each series of a stack is summed as on its own.
    cs = np.cumsum(y, axis=-1)
    lead = np.zeros(y.shape[:-1] + (1,))
    total = cs[..., w:] - np.concatenate((lead, cs[..., : -(w + 1)]), axis=-1)
    return (total - 0.5 * (y[..., :-w] + y[..., w:])) * dt


def windowed_correlation(
    f: ObservableSeries, g: ObservableSeries, delta_t: float
) -> SyncResult:
    """Sliding-window Pearson correlation of two observables.

    Series ``i`` of a stack ``f`` pairs with series ``i`` of ``g``.  Window
    averages use trapezoidal quadrature on the shared uniform grid.
    Windows in which either signal is constant to within the variance floor
    produce NaN gap markers rather than errors (fully thermalized series
    legitimately have zero variance).

    Raises
    ------
    GridMismatch
        If the two series do not share their time grid and stack shape.
    DomainError
        If the window is shorter than 10 sample spacings.
    """
    # A series' times are finite and uniform, so one object is one grid;
    # equal stack shapes give equal grid lengths.
    if f.values.shape != g.values.shape or (
        f.times is not g.times and not _close(f.times, g.times)
    ):
        raise GridMismatch("observable series must share one time grid and shape")
    dt = f.dt
    w = int(round(delta_t / dt))
    if w < 10:
        raise DomainError(
            f"window {delta_t} must span at least 10 sample spacings of {dt:.6g}"
        )
    if w >= f.times.size:
        raise DomainError("window longer than the series")
    span = w * dt
    fv, gv = f.values, g.values
    mean_f = _window_sums(fv, w, dt) / span
    mean_g = _window_sums(gv, w, dt) / span
    cov = _window_sums(fv * gv, w, dt) / span - mean_f * mean_g
    var_f = _window_sums(fv * fv, w, dt) / span - mean_f**2
    var_g = _window_sums(gv * gv, w, dt) / span - mean_g**2
    c = np.full(mean_f.shape, np.nan)
    ok = (var_f > VAR_FLOOR) & (var_g > VAR_FLOOR)
    c[ok] = cov[ok] / np.sqrt(var_f[ok] * var_g[ok])
    return SyncResult(times=f.times[: c.shape[-1]], C=c, window=delta_t, span=span)


def gaussian_smooth(series, width: float):
    """Gaussian low-pass filter (sigma = width) with reflective boundaries.

    Accepts an :class:`ObservableSeries` or a :class:`SyncResult` and returns
    the same kind with smoothed values.  Used to extract envelopes from
    oscillating indicator or discord series; a constant series passes through
    unchanged.  NaN gaps in an indicator series spread over the kernel
    support, which keeps gap regions visibly marked.
    """
    is_sync = isinstance(series, SyncResult)
    values = series.C if is_sync else series.values
    dt = float(series.times[1] - series.times[0])
    if width <= dt:
        raise DomainError(
            f"filter width {width} must exceed the sample spacing {dt}"
        )
    smoothed = gaussian_filter1d(values, sigma=width / dt, mode="reflect")
    if is_sync:
        return replace(series, C=smoothed)
    return ObservableSeries(times=series.times, values=smoothed)


def sync_onset(result: SyncResult, threshold: float) -> float | None:
    """Earliest time after which |C| stays at or above the threshold.

    NaN gaps are ignored (they carry no phase information).  Returns None
    when the indicator never locks.
    """
    if not 0.0 < threshold < 1.0:
        raise DomainError(f"threshold must lie in (0, 1), got {threshold}")
    c = np.abs(result.C)
    good = c >= threshold
    good |= np.isnan(c)
    if np.isnan(c).all() or not good[-1]:
        return None
    # index of the last window below threshold, if any
    bad = np.nonzero(~good)[0]
    if bad.size == 0:
        first = np.nonzero(~np.isnan(c))[0]
        return float(result.times[first[0]]) if first.size else None
    idx = bad[-1] + 1
    while idx < c.size and math.isnan(c[idx]):
        idx += 1
    return float(result.times[idx]) if idx < c.size else None
