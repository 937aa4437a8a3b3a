"""Binary entropy, asymptotic secret key rate, intensity optimization, sweeps.

The rate per pulse is

    R = max(0, 1/2 * (Q_z1 * (1 - h(e_x1)) - f_ec * Q_z * h(e_z)))

where ``f_ec >= 1`` multiplies the error-correction term (``f_ec = 1``
recovers the bare formula).  The signal intensity is optimized per point
with a deterministic coarse log-grid scan followed by Brent's search
(parabolic steps with a golden-section fallback) from the grid's best point
and its two neighbours, so repeated sweeps are bit-identical.  A sweep runs
that search over every (delta, distance) point at once, as array operations,
with the same grid and rules at every point, each point stopping under its
own test, and returns its results as columns.  Each step evaluates one probe
per point; the search state is updated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import (ArrayLike, ChannelParams, ZStats, check_ranges, real_array,
                      single_photon_from_terms, single_photon_gain, single_photon_terms,
                      transmittance, zbasis_gain_error_weight, zbasis_overlaps, zbasis_stats)
from .errors import ValidationError
from .qstate import _check_real

_LN2 = math.log(2.0)
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # a golden-section step's shrink factor
_GOLDEN_STEP = (3.0 - math.sqrt(5.0)) / 2.0  # Brent's golden step, a share of the larger side
_SQRT_EPS = math.sqrt(np.finfo(float).eps)

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
    arr = real_array(x, "binary_entropy argument", "must be numeric")
    if not (arr.min(initial=0.0) >= 0.0 and arr.max(initial=1.0) <= 1.0):  # NaN fails too
        raise ValidationError("binary_entropy argument must lie in [0, 1]")
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    rest = 1.0 - arr
    # each x log x once, then taken as 0 at x = 0; np.log may differ from libm's
    # log in the last bit, as np.exp and np.expm1 in the rate already do
    with np.errstate(divide="ignore", invalid="ignore"):
        h = arr * np.log(arr)
        tail = rest * np.log(rest)
    h[arr == 0.0] = 0.0
    tail[rest == 0.0] = 0.0
    h += tail
    h /= -_LN2
    return float(h[0]) if scalar else h


def _check_f_ec(f_ec: float) -> None:
    _check_real(f_ec, "f_ec")
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


def _rate_function(params: ChannelParams, t: np.ndarray, f_ec: float, delta: ArrayLike | None,
                   terms: tuple):
    """Key rate as a function of the intensity over the columns ``t`` and ``delta``,
    with the shape of their points (distances on the last axis); ``terms`` are
    their ``single_photon_terms``, and the other pieces that do not depend on the
    intensity are computed here, once."""
    _check_f_ec(f_ec)
    weighted, e_x1 = terms
    # where nothing clicks the weighted yield and Q_z vanish, so R = 0 for any e_x1
    pa_factor = 1.0 - binary_entropy(np.nan_to_num(e_x1))
    overlaps = zbasis_overlaps(params, delta)

    def rates(alpha: ArrayLike, rows: slice = slice(None)) -> np.ndarray:
        """Rates at ``alpha`` (one column per intensity) of the distances ``rows``."""
        gain, weight = zbasis_gain_error_weight(params, alpha, t[rows], overlaps)
        e_z = np.divide(weight, gain, out=np.zeros_like(weight), where=gain > 0.0)
        q_z1 = single_photon_gain(alpha, weighted[..., rows, :])
        return _rate(q_z1, pa_factor[..., rows, :], gain, e_z, f_ec)

    return rates, weighted.shape[:-1]


@dataclass(frozen=True)
class OptimizeResult:
    """Best intensity found and the rate there."""

    alpha: float
    rate: float
    zero_rate: bool


def _step_cap(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """The most Brent steps a search of the bracket ``[a, b]`` may take: the
    golden-section steps that shrink it below ``2 (sqrt(eps) + tol / 3) a``,
    twice the least ``tol1`` of any step, where Brent's stop test holds; none
    for a bracket already that narrow, and at most 1475 where ``a`` is so
    small that the ratio overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        widths = (b - a) / (2.0 * (_SQRT_EPS + tol / 3.0) * a)
    widths = np.fmin(np.fmax(widths, 1.0), np.finfo(float).max)  # a NaN ratio reads 1
    return np.ceil(np.log(widths) / -math.log(_GOLDEN))


def _vertex_step(x, fx, w, fw, v, fv) -> tuple[np.ndarray, np.ndarray]:
    """``(p, q)`` with ``q >= 0``: ``p / q`` is the step from ``x`` to the vertex
    of the parabola through the three points, and ``q = 0`` where there is none."""
    r = (x - w) * (fx - fv)
    q = (x - v) * (fx - fw)
    p = (x - v) * q - (x - w) * r
    q = 2.0 * (q - r)
    return np.where(q > 0.0, -p, p), np.abs(q)


def _optimize(rates, shape: tuple[int, ...], bounds: tuple[float, float],
              tol: float) -> tuple[np.ndarray, ...]:
    """Best intensity, rate and zero-rate flag per point of the function ``rates``:
    the search of :func:`optimize_alpha`, run for all points of ``shape`` at once
    as array operations, each point stopping under its own test.  The grid scan
    runs over slices of about :data:`GRID_SCAN_SLICE` points, so its memory is
    bounded.

    Brent's search (*Algorithms for Minimization without Derivatives*, 1973,
    ch. 5) for a maximum then starts from the grid triple the scan has already
    evaluated: best point ``x``, the better neighbour ``w`` and the other ``v``,
    with the two steps before the first taken as wide as the bracket, so the
    first parabola is tried at no extra evaluation.  Each step evaluates one
    probe per point, ``tol1 = sqrt(eps) x + tol a / 3`` apart from ``x`` at
    least, and ``x`` moves only where the probe's rate is ``>=`` its own.  A
    point stops under Brent's test, or after :func:`_step_cap` steps.  A last
    evaluation then tries the vertex of the parabola through ``x, w, v``, which
    the ``tol1`` spacing kept untried.  So a search makes one grid scan, one
    evaluation per step of its slowest point (6 for the default sweep) and the
    last one."""
    lo, hi = bounds
    if not (0.0 < lo < hi < math.inf):
        raise ValidationError(
            f"alpha bounds must satisfy 0 < alpha_min < alpha_max < inf, got {bounds!r}"
        )
    if isinstance(tol, np.ndarray) and tol.ndim:  # its comparisons would give arrays
        raise ValidationError(f"alpha_tol must be a number, got an array of shape {tol.shape}")
    _check_real(tol, "alpha_tol")
    if not (0.0 < tol < math.inf):
        raise ValidationError(f"alpha_tol must be finite and > 0, got {tol!r}")
    grid = np.geomspace(lo, hi, COARSE_GRID_POINTS)
    last = COARSE_GRID_POINTS - 1
    best_idx = np.empty((*shape, 1), dtype=np.intp)
    fx, f_left, f_right = (np.empty((*shape, 1)) for _ in range(3))
    per_slice = max(1, GRID_SCAN_SLICE // max(1, math.prod(shape[:-1])))  # distances
    for start in range(0, shape[-1], per_slice):
        rows = slice(start, start + per_slice)
        grid_rates = rates(grid, rows)
        idx = grid_rates.argmax(axis=-1)[..., None]  # first of equal maxima
        best_idx[..., rows, :] = idx
        for out, at in ((fx, idx), (f_left, np.maximum(idx - 1, 0)),
                        (f_right, np.minimum(idx + 1, last))):
            out[..., rows, :] = np.take_along_axis(grid_rates, at, axis=-1)
    # the search runs on flat arrays, whose operations cost about half as much
    best_idx, fx, f_left, f_right = (arr.ravel() for arr in (best_idx, fx, f_left, f_right))
    x = grid[best_idx]
    zero_rate = fx <= 0.0  # rates are clamped, so these keep rate 0.0
    a, b = grid[np.maximum(best_idx - 1, 0)], grid[np.minimum(best_idx + 1, last)]
    left = f_left >= f_right
    w, fw = np.where(left, a, b), np.where(left, f_left, f_right)
    v, fv = np.where(left, b, a), np.where(left, f_right, f_left)
    e, d = b - a, b - a  # the step before last and the last step
    third = tol / 3.0
    cap = _step_cap(a, b, tol)
    active = ~zero_rate
    for step in range(int(cap.max(initial=0.0))):
        middle = 0.5 * (a + b)
        tol1 = _SQRT_EPS * x + third * a
        tol2 = 2.0 * tol1
        active &= (np.abs(x - middle) > tol2 - 0.5 * (b - a)) & (step < cap)
        if not active.any():
            break
        p, q = _vertex_step(x, fx, w, fw, v, fv)
        # a parabolic step must stay in the bracket and halve the step before last
        parabolic = ((np.abs(e) > tol1) & (np.abs(p) < np.abs(0.5 * q * e))
                     & (p > q * (a - x)) & (p < q * (b - x)))
        vertex = np.divide(p, q, out=np.zeros_like(p), where=parabolic)  # q > 0 there
        # nor land within tol2 of an end, or it moves tol1 toward the middle
        trial = x + vertex
        near_end = (trial - a < tol2) | (b - trial < tol2)
        vertex = np.where(near_end, np.where(middle >= x, tol1, -tol1), vertex)
        side = np.where(x >= middle, a - x, b - x)  # a golden step goes into the larger side
        np.copyto(e, np.where(parabolic, d, side), where=active)
        np.copyto(d, np.where(parabolic, vertex, _GOLDEN_STEP * side), where=active)
        # each probe lies tol1 from x at least
        u = np.where(active, x + np.where(np.abs(d) >= tol1, d, np.where(d >= 0.0, tol1, -tol1)),
                     x)
        fu = rates(u.reshape(*shape, 1)).ravel()
        better = active & (fu >= fx)  # a NaN rate is worse
        # the end beyond the worse of x and u, seen from the better, moves to it
        beyond = np.where(better, x, u)
        toward_right = better == (u >= x)
        np.copyto(a, beyond, where=active & toward_right)
        np.copyto(b, beyond, where=active & ~toward_right)
        worse = active & ~better
        to_w = worse & ((fu >= fw) | (w == x))
        to_v = worse & ~to_w & ((fu >= fv) | (v == x) | (v == w))
        # each copy reads only values not yet overwritten
        for (old, f_old), (new, f_new), where in (
                ((v, fv), (w, fw), better | to_w), ((w, fw), (x, fx), better),
                ((x, fx), (u, fu), better), ((w, fw), (u, fu), to_w), ((v, fv), (u, fu), to_v)):
            np.copyto(old, new, where=where)
            np.copyto(f_old, f_new, where=where)
    p, q = _vertex_step(x, fx, w, fw, v, fv)
    inside = ~zero_rate & (q > 0.0)
    u = x + np.divide(p, q, out=np.zeros_like(p), where=inside)
    inside &= (a < u) & (u < b)
    u = np.where(inside, u, x)
    fu = rates(u.reshape(*shape, 1)).ravel()
    better = inside & (fu >= fx)
    np.copyto(x, u, where=better)
    np.copyto(fx, fu, where=better)
    return x, fx, zero_rate


def optimize_alpha(
    params: ChannelParams,
    bounds: tuple[float, float] = DEFAULT_ALPHA_BOUNDS,
    tol: float = DEFAULT_ALPHA_TOL,
    f_ec: float = DEFAULT_F_EC,
) -> OptimizeResult:
    """Maximize the key rate over the signal intensity.

    Scans a 64-point logarithmic grid over ``bounds``, then refines the
    bracket of the grid argmax's two neighbours by Brent's search to a relative
    intensity tolerance of about ``tol``, and tries the vertex of the parabola
    through the three best points once more.  The returned rate is never
    below any coarse grid value.  ``params.alpha`` is ignored.  This is the
    one-point case of the search :func:`sweep` runs over all of its points at
    once.

    Returns:
        zero_rate is True when the rate is non-positive on the whole grid;
        the grid argmax is still reported as ``alpha``.
    """
    t = np.reshape(transmittance(params), (1, 1))
    rates, shape = _rate_function(params, t, f_ec, None, single_photon_terms(params, t))
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


def _vector(values: Sequence[float], name: str) -> np.ndarray:
    """``values`` as a 1-D float array; any other input raises ValidationError."""
    arr = real_array(values, name, "must be a sequence of numbers")
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got shape {arr.shape}")
    return arr


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
    ``distances`` and ``deltas`` are 1-D sequences of numbers.
    """
    params = params.at(alpha=params.alpha if alpha is None else float(alpha))
    distances = _vector(distances, "distances")
    if not np.all(np.isfinite(distances) & (distances >= 0.0)):
        raise ValidationError("distances must be finite and non-negative")
    deltas = _vector(deltas, "deltas")
    # ChannelParams checks each delta
    delta = np.array([params.at(delta=float(d)).delta for d in deltas], dtype=float)[:, None, None]
    t = transmittance(params, distances)[:, None]
    terms = single_photon_terms(params, t, delta)
    rates, shape = _rate_function(params, t, f_ec, delta, terms)
    if alpha is None:
        alpha_opt, rate, _ = _optimize(rates, shape, bounds, tol)
    else:
        rate = rates(params.alpha).ravel()
        alpha_opt = np.full(rate.shape, params.alpha)
    at = alpha_opt.reshape(len(delta), len(distances), 1)
    q_z, e_z = zbasis_stats(params, at, t, delta)
    q_z1, e_x1 = single_photon_from_terms(at, *terms)
    return SweepTable(np.repeat(delta.ravel(), len(distances)), np.tile(distances, len(delta)),
                      alpha_opt, q_z.ravel(), e_z.ravel(), q_z1.ravel(), e_x1.ravel(), rate)
