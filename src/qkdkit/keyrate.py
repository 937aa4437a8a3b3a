"""Binary entropy, asymptotic secret key rate, intensity optimization, sweeps.

The rate per pulse is

    R = max(0, 1/2 * (Q_z1 * (1 - h(e_x1)) - f_ec * Q_z * h(e_z)))

where ``f_ec >= 1`` multiplies the error-correction term (``f_ec = 1``
recovers the bare formula).  The signal intensity is optimized per point
with a deterministic coarse log-grid scan followed by golden-section
refinement, so repeated sweeps are bit-identical.  A sweep runs that search
over every (delta, distance) point at once, as array operations on a table
with delta on the leading axis, with the same grid and golden-section rule at
every point, and returns its results as columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import xlogy

from .channel import (ArrayLike, ChannelParams, ZStats, check_ranges, single_photon_gain,
                      single_photon_stats, single_photon_terms, transmittance,
                      zbasis_gain_error_weight, zbasis_overlaps, zbasis_stats)
from .errors import ValidationError

_LN2 = math.log(2.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

DEFAULT_F_EC = 1.22
DEFAULT_ALPHA_BOUNDS = (1e-4, 1.0)
DEFAULT_ALPHA_TOL = 1e-4
COARSE_GRID_POINTS = 64
#: points per slice of the coarse grid scan, which holds ``(slice, 64)`` arrays
GRID_SCAN_SLICE = 1024


def binary_entropy(x):
    """Binary Shannon entropy ``h(x)`` in bits; ``h(0) = h(1) = 0`` exactly.

    Accepts scalars or arrays in [0, 1].
    """
    arr = np.asarray(x, dtype=float)
    if not (np.all(arr >= 0.0) and np.all(arr <= 1.0)):  # NaN fails too
        raise ValidationError("binary_entropy argument must lie in [0, 1]")
    h = -(xlogy(arr, arr) + xlogy(1.0 - arr, 1.0 - arr)) / _LN2
    if np.isscalar(x) or arr.ndim == 0:
        return float(h)
    return h


def _check_f_ec(f_ec: float) -> None:
    if not (math.isfinite(f_ec) and f_ec >= 1.0):
        raise ValidationError(f"f_ec must be finite and >= 1, got {f_ec!r}")


def _rate(q_z1: ArrayLike, pa_factor: ArrayLike, q_z: ArrayLike, e_z: ArrayLike, f_ec: float):
    """The rate formula, clamped at zero, from the privacy-amplification factor
    ``pa_factor = 1 - h(e_x1)``, which a sweep computes once for all intensities."""
    return np.maximum(0.5 * (q_z1 * pa_factor - f_ec * q_z * binary_entropy(e_z)), 0.0)


def secret_key_rate(stats: ZStats, f_ec: float = DEFAULT_F_EC) -> float:
    """Asymptotic secret key rate per pulse, clamped at zero."""
    _check_f_ec(f_ec)
    return float(_rate(stats.q_z1, 1.0 - binary_entropy(stats.e_x1), stats.q_z, stats.e_z, f_ec))


def _rate_function(params: ChannelParams, t: np.ndarray, f_ec: float, delta: ArrayLike | None):
    """Key rate as a function of the intensity over the columns ``t`` and ``delta``,
    with the shape of their points (distances on the last axis); the pieces that
    do not depend on the intensity are computed here, once."""
    _check_f_ec(f_ec)
    weighted, e_x1 = single_photon_terms(params, t, delta)
    # where nothing clicks the weighted yield and Q_z vanish, so R = 0 for any e_x1
    pa_factor = 1.0 - binary_entropy(np.nan_to_num(e_x1))
    overlaps = zbasis_overlaps(params, delta)

    def rates(alpha: ArrayLike, rows: slice = slice(None)) -> np.ndarray:
        """Rates at ``alpha`` (one column per intensity) of the distances ``rows``."""
        gain, weight = zbasis_gain_error_weight(params, alpha, t[rows], overlaps)
        e_z = np.where(gain > 0.0, weight / np.where(gain > 0.0, gain, 1.0), 0.0)
        q_z1 = single_photon_gain(alpha, weighted[..., rows, :])
        return _rate(q_z1, pa_factor[..., rows, :], gain, e_z, f_ec)

    return rates, weighted.shape[:-1]


@dataclass(frozen=True)
class OptimizeResult:
    """Best intensity found and the rate there."""

    alpha: float
    rate: float
    zero_rate: bool


def _optimize(rates, shape: tuple[int, ...], bounds: tuple[float, float],
              tol: float) -> tuple[np.ndarray, ...]:
    """Best intensity, rate and zero-rate flag per point of the function ``rates``:
    the search of :func:`optimize_alpha`, run for all points of ``shape`` at once
    as array operations, each point stopping under its own width test.  The grid
    scan runs over slices of about :data:`GRID_SCAN_SLICE` points, so its memory
    is bounded."""
    lo, hi = bounds
    if not (0.0 < lo < hi < math.inf):
        raise ValidationError(
            f"alpha bounds must satisfy 0 < alpha_min < alpha_max < inf, got {bounds!r}"
        )
    if not (0.0 < tol < math.inf):
        raise ValidationError(f"alpha_tol must be finite and > 0, got {tol!r}")
    grid = np.geomspace(lo, hi, COARSE_GRID_POINTS)
    best_idx, best_rate = np.empty((*shape, 1), dtype=np.intp), np.empty((*shape, 1))
    per_slice = max(1, GRID_SCAN_SLICE // max(1, math.prod(shape[:-1])))  # distances
    for start in range(0, shape[-1], per_slice):
        rows = slice(start, start + per_slice)
        grid_rates = rates(grid, rows)
        best_idx[..., rows, :] = grid_rates.argmax(axis=-1)[..., None]  # first of equal maxima
        best_rate[..., rows, :] = np.take_along_axis(grid_rates, best_idx[..., rows, :], axis=-1)
    best_alpha = grid[best_idx]
    zero_rate = best_rate <= 0.0  # rates are clamped, so these keep rate 0.0
    a, b = grid[np.maximum(best_idx - 1, 0)], grid[np.minimum(best_idx + 1, COARSE_GRID_POINTS - 1)]
    c, d = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    fc, fd = rates(c), rates(d)
    active = ~zero_rate & ((b - a) > tol * np.maximum(a, lo))
    while True:
        # checking a point's c and d again once it has stopped changes nothing
        for x, fx in ((c, fc), (d, fd)):
            better = ~zero_rate & (fx > best_rate)
            best_alpha, best_rate = np.where(better, x, best_alpha), np.where(better, fx, best_rate)
        if not active.any():
            return best_alpha.ravel(), best_rate.ravel(), zero_rate.ravel()
        width = b - a
        left = active & (fc >= fd)  # keep [a, d]; the old c becomes d
        right = active & ~left  # keep [c, b]; the old d becomes c
        a, b = np.where(right, c, a), np.where(left, d, b)
        c, fc, d, fd = (np.where(right, d, c), np.where(right, fd, fc),
                        np.where(left, c, d), np.where(left, fc, fd))
        probe = np.where(left, b - _GOLDEN * (b - a), a + _GOLDEN * (b - a))
        f_probe = rates(probe)
        c, fc = np.where(left, probe, c), np.where(left, f_probe, fc)
        d, fd = np.where(right, probe, d), np.where(right, f_probe, fd)
        # a bracket a few ulps wide can stop shrinking before any tol below ~4e-16 is met
        active &= ((b - a) > tol * np.maximum(a, lo)) & ((b - a) < width)


def optimize_alpha(
    params: ChannelParams,
    bounds: tuple[float, float] = DEFAULT_ALPHA_BOUNDS,
    tol: float = DEFAULT_ALPHA_TOL,
    f_ec: float = DEFAULT_F_EC,
) -> OptimizeResult:
    """Maximize the key rate over the signal intensity.

    Scans a 64-point logarithmic grid over ``bounds``, then refines the
    bracketing interval around the grid argmax by golden-section search to a
    relative width of ``tol``.  The returned rate is never below any coarse
    grid value.  ``params.alpha`` is ignored.  This is the one-point case of
    the search :func:`sweep` runs over all of its points at once.

    Returns:
        zero_rate is True when the rate is non-positive on the whole grid;
        the grid argmax is still reported as ``alpha``.
    """
    rates, shape = _rate_function(params, np.reshape(transmittance(params), (1, 1)), f_ec, None)
    alpha, rate, zero_rate = _optimize(rates, shape, bounds, tol)
    return OptimizeResult(alpha=float(alpha[0]), rate=float(rate[0]), zero_rate=bool(zero_rate[0]))


@dataclass(frozen=True)
class SweepTable:
    """Sweep results as columns, one row per (delta, distance) point, all
    distances of the first delta first; the checks run once per column."""

    delta: np.ndarray
    distance_km: np.ndarray
    alpha_opt: np.ndarray
    q_z: np.ndarray
    e_z: np.ndarray
    q_z1: np.ndarray
    e_x1: np.ndarray
    rate: np.ndarray

    def __post_init__(self) -> None:
        # the checks of a single point, once per column
        check_ranges(self, rate=self.rate >= 0.0, alpha_opt=self.alpha_opt > 0.0)


def sweep(
    distances: Sequence[float],
    deltas: Sequence[float],
    params: ChannelParams,
    f_ec: float = DEFAULT_F_EC,
    bounds: tuple[float, float] = DEFAULT_ALPHA_BOUNDS,
    tol: float = DEFAULT_ALPHA_TOL,
    alpha: float | None = None,
) -> SweepTable:
    """Evaluate the (optimized) key rate at every (delta, distance) point.

    All points are evaluated together as array operations, with the deltas on
    the leading axis; each point's result depends on that point alone, so a
    row does not depend on the other deltas or distances or their order.
    Passing ``alpha`` skips optimization and evaluates at that fixed intensity.
    """
    distances = np.asarray(distances, dtype=float)
    if not np.all(np.isfinite(distances) & (distances >= 0.0)):
        raise ValidationError("distances must be finite and non-negative")
    params = params.at(alpha=params.alpha if alpha is None else float(alpha))
    # ChannelParams checks each delta
    delta = np.array([params.at(delta=float(d)).delta for d in deltas], dtype=float)[:, None, None]
    t = transmittance(params, distances)[:, None]
    rates, shape = _rate_function(params, t, f_ec, delta)
    if alpha is None:
        alpha_opt, rate, _ = _optimize(rates, shape, bounds, tol)
    else:
        rate = rates(params.alpha).ravel()
        alpha_opt = np.full(rate.shape, params.alpha)
    at = alpha_opt.reshape(len(delta), len(distances), 1)
    q_z, e_z = zbasis_stats(params, at, t, delta)
    q_z1, e_x1 = single_photon_stats(params, at, t, delta)
    return SweepTable(np.repeat(delta.ravel(), len(distances)), np.tile(distances, len(delta)),
                      alpha_opt, q_z.ravel(), e_z.ravel(), q_z1.ravel(), e_x1.ravel(), rate)
