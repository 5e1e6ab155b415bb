"""Scaling-law extraction from sampled observables.

Power-law fits in log-log space, the short-time exponent of the Fisher
information, peak detection for F/t^2, size-scaling exponents, the
localized-phase 1/h^2 collapse and transition-point estimation, plus the
participation-ratio / center-of-mass localization metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientPoints, NonPositiveData, PeakAtBoundary

__all__ = [
    "TimeSeries",
    "ScalingFit",
    "fit_power_law",
    "short_time_alpha",
    "peak_qfi_over_t2",
    "size_scaling_beta",
    "localized_collapse_check",
    "transition_point",
    "skin_localization_metric",
]

# Short-time window of the F ~ t^alpha fit, in units of 1/J.
ALPHA_WINDOW = (0.1, 1.0)

# Relative cross-size spread below which curves count as collapsed.
COLLAPSE_SPREAD_THRESHOLD = 0.1


@dataclass
class TimeSeries:
    """Sampled observable trajectory."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape:
            raise ValueError("times and values must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(np.diff(t) > 0.0)):
            raise ValueError("times must be finite and strictly increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        self.times = t
        self.values = v


@dataclass
class ScalingFit:
    """Power-law fit y = prefactor * x^exponent on a stated window."""

    exponent: float
    prefactor: float
    r_squared: float
    window: tuple


def fit_power_law(xs, ys, window: tuple | None = None) -> ScalingFit:
    """Least-squares line in log-log space; the slope is the exponent.

    ``window = (lo, hi)`` restricts the fit to lo <= x <= hi.  Requires at
    least 4 strictly positive samples inside the window.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("xs and ys must be 1-D arrays of equal length")
    if window is not None:
        lo, hi = float(window[0]), float(window[1])
        keep = (xs >= lo) & (xs <= hi)
        xs, ys = xs[keep], ys[keep]
    else:
        lo, hi = (float(xs.min()), float(xs.max())) if xs.size else (np.nan, np.nan)
    if xs.size < 4:
        raise InsufficientPoints(f"power-law fit needs >= 4 points, got {xs.size}")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise NonPositiveData("power-law fit requires strictly positive data")

    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float((resid**2).sum())
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-20 else 0.0
    else:
        r2 = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return ScalingFit(float(slope), float(np.exp(intercept)), r2, (lo, hi))


def short_time_alpha(series: TimeSeries) -> ScalingFit:
    """Short-time growth exponent alpha of F ~ t^alpha.

    Fits on the window ``ALPHA_WINDOW`` ([0.1, 1] in units of 1/J), which
    must lie inside the sampled range.
    """
    lo, hi = ALPHA_WINDOW
    t = series.times
    if lo < t[0] - 1e-12 or hi > t[-1] + 1e-12:
        raise ValueError(
            f"window [{lo}, {hi}] outside the sampled range [{t[0]}, {t[-1]}]"
        )
    return fit_power_law(t, series.values, (lo, hi))


def peak_qfi_over_t2(series: TimeSeries):
    """Location and height of the maximum of F/t^2 from an F(t) series.

    The grid argmax is refined by a quadratic through the three neighboring
    samples.  Raises PeakAtBoundary when the argmax sits on an endpoint (the
    grid is too short; extend it and retry).

    Returns (t_opt, peak value of F/t^2).
    """
    keep = series.times > 0.0
    t = series.times[keep]
    if t.size < 3:
        raise InsufficientPoints("need at least 3 positive-time samples")
    t_opt, peak, at_boundary = _grid_peak(t, series.values[keep] / t**2)
    if at_boundary:
        raise PeakAtBoundary(f"argmax of F/t^2 at the grid endpoint t = {t_opt}")
    return t_opt, peak


def _grid_peak(xs, ys, log: bool = False):
    """Grid argmax (x, y, at_boundary) of ys, refined by ``_parabola_peak`` (in
    log x when ``log`` is set); the grid point itself at an endpoint or with no vertex."""
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    i = int(np.argmax(ys))
    if 0 < i < xs.size - 1:
        x3 = xs[i - 1 : i + 2]
        vertex = _parabola_peak(np.log(x3) if log else x3, ys[i - 1 : i + 2])
        if vertex is not None:
            return (float(np.exp(vertex[0])) if log else vertex[0]), vertex[1], False
    return float(xs[i]), float(ys[i]), i in (0, xs.size - 1)


def _parabola_peak(x3, y3):
    """Vertex (x, y) of the parabola through three samples, the middle one largest.

    None when the curvature is not negative, or when rounding puts the vertex
    outside the bracket; the caller then keeps the middle grid point.  The
    height is never below the middle sample.
    """
    a, b, c = np.polyfit(x3, y3, 2)
    if a >= 0.0:
        return None
    x = float(-b / (2.0 * a))
    if not x3[0] <= x <= x3[2]:
        return None
    return x, max(float(np.polyval([a, b, c], x)), float(y3[1]))


def size_scaling_beta(sizes, peaks) -> ScalingFit:
    """Exponent beta of peak ~ L^beta over at least four system sizes."""
    sizes = np.asarray(sizes, dtype=float)
    peaks = np.asarray(peaks, dtype=float)
    if sizes.size < 4:
        raise InsufficientPoints(f"size scaling needs >= 4 sizes, got {sizes.size}")
    return fit_power_law(sizes, peaks)


def _curves(h_grid, values_per_L):
    h = np.asarray(h_grid, dtype=float)
    curves = {}
    for L, vals in values_per_L.items():
        v = np.asarray(vals, dtype=float)
        if v.shape != h.shape:
            raise ValueError(f"curve for L = {L} does not match the h grid")
        curves[int(L)] = v
    if len(curves) < 2:
        raise ValueError("need curves for at least two system sizes")
    return h, curves


def localized_collapse_check(h_grid, values_per_L, h_c: float | None = None):
    """Exponent and size-independence of the localized-phase tail.

    Beyond the largest finite-size transition point the curves should
    collapse onto a common power law ~ 1/h^2.  Fields are in units of J.
    ``h_c`` defaults to the 8/L estimate for the smallest supplied size;
    pass the extracted transition point (see :func:`transition_point`) to
    measure the collapse beyond the observed knee instead.  Fits the pooled
    tail samples and reports the maximum relative spread across sizes there.

    Returns (exponent, spread).
    """
    h, curves = _curves(h_grid, values_per_L)
    if h_c is None:
        h_c = 8.0 / min(curves)
    tail = h > h_c
    if not np.any(tail):
        raise ValueError(f"h grid does not cross the transition point {h_c:.3g}")

    tails = np.stack([v[tail] for v in curves.values()])
    fit = fit_power_law(np.tile(h[tail], len(curves)), tails.ravel())
    return fit.exponent, float(_spread(tails).max())


def _spread(stack: np.ndarray) -> np.ndarray:
    """Per column, (max - min) / mean over the rows; a mean <= 0 divides by 1."""
    mean = stack.mean(axis=0)
    return (stack.max(axis=0) - stack.min(axis=0)) / np.where(mean > 0, mean, 1.0)


def _holds_from(ok) -> int | None:
    """Smallest index from which every entry of ``ok`` is true; None if the last is not."""
    fails = np.flatnonzero(~np.asarray(ok, dtype=bool))
    start = int(fails[-1]) + 1 if fails.size else 0
    return start if start < len(ok) else None


def transition_point(h_grid, values_per_L) -> dict:
    """Per-size transition field from the onset of size independence.

    Operational definition: the common localized tail is the region where
    the cross-size relative spread stays below ``COLLAPSE_SPREAD_THRESHOLD``
    (10%); a power law fitted there serves as the reference, and h_c for
    each L is the smallest grid field beyond which that size's curve stays
    within the same threshold of the reference.  Returns {L: h_c}.
    """
    h, curves = _curves(h_grid, values_per_L)
    spread = _spread(np.stack([curves[L] for L in sorted(curves)]))
    start = _holds_from(spread < COLLAPSE_SPREAD_THRESHOLD)
    if start is None or h.size - start < 4:
        raise ValueError("no sustained cross-size collapse found; extend the h grid")

    ref = fit_power_law(np.tile(h[start:], len(curves)),
                        np.concatenate([v[start:] for v in curves.values()]))
    tail_of = ref.prefactor * h**ref.exponent

    out = {}
    for L in sorted(curves):
        i = _holds_from(np.abs(curves[L] - tail_of) / tail_of < COLLAPSE_SPREAD_THRESHOLD)
        if i is None:
            raise ValueError(f"curve for L = {L} never joins the common tail")
        out[L] = float(h[i])
    return out


def skin_localization_metric(state):
    """Participation ratio 1/sum |psi_j|^4 and center of mass sum j |psi_j|^2.

    Sites are counted 1..L.  Requires a normalized vector.
    """
    v = np.asarray(state, dtype=complex)
    if v.ndim != 1:
        raise ValueError("state must be a vector")
    w = np.abs(v) ** 2
    total = float(w.sum())
    if abs(total - 1.0) > 1e-8:
        raise ValueError("state must be normalized")
    pr = 1.0 / float((w**2).sum())
    com = float((np.arange(1, v.size + 1) * w).sum())
    return pr, com
