"""Analytic fiber-channel model: loss, dark counts, gains and error rates.

Models a phase-coded weak-coherent-pulse system with an imperfect phase
modulator (shared relative error ``delta`` on both ends, so the effective
error in the parameter-estimation basis is ``3*delta/2``) and threshold
detectors with dark counts.  Double clicks are assigned a random bit.

The X-basis single-photon statistics are expressed through the conditional
yields of the virtual states, whose squared overlaps come from
:func:`qkdkit.qstate.virtual_amplitudes`.  The single-photon phase error rate
``e_x1`` is the estimator's ratio, :func:`qkdkit.estimator.offdiag_share`, of
that virtual-yield table; because channel loss multiplies all of its cells
uniformly, ``e_x1`` is independent of distance whenever dark counts are
negligible.

The helpers are vectorized over the intensity ``alpha``, the transmittance
``t`` and the modulation error ``delta``, so the intensity optimizer evaluates
every (delta, distance) point of a sweep at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .errors import UndefinedRateError, ValidationError
from .estimator import offdiag_share
from .qstate import virtual_amplitudes, virtual_priors

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class ChannelParams:
    """Physical parameters of the simulated link.

    Attributes:
        dark_count: dark count probability per detector per gate.
        det_eff: overall transmittance of Bob's detection apparatus, (0, 1].
        atten_db_per_km: fiber loss coefficient in dB/km.
        distance_km: channel length in km.
        delta: relative phase modulation error (>= 0).
        alpha: per-mode mean photon number of the coherent signal (> 0).
    """

    dark_count: float = 0.5e-7
    det_eff: float = 0.15
    atten_db_per_km: float = 0.21
    distance_km: float = 0.0
    delta: float = 0.0
    alpha: float = 0.5

    def __post_init__(self) -> None:
        for name in ("dark_count", "det_eff", "atten_db_per_km", "distance_km", "delta", "alpha"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value!r}")
        if not (0.0 <= self.dark_count < 1.0):
            raise ValidationError(f"dark_count must be in [0, 1), got {self.dark_count!r}")
        if not (0.0 < self.det_eff <= 1.0):
            raise ValidationError(f"det_eff must be in (0, 1], got {self.det_eff!r}")
        if self.atten_db_per_km < 0.0:
            raise ValidationError("atten_db_per_km must be >= 0")
        if self.distance_km < 0.0:
            raise ValidationError("distance_km must be >= 0")
        # both ends modulate, so the virtual-state overlap formulas see
        # 3*delta/2, which must stay below pi
        if not (0.0 <= self.delta < 2.0 * math.pi / 3.0):
            raise ValidationError(f"delta must be in [0, 2*pi/3), got {self.delta!r}")
        if not (self.alpha > 0.0):
            raise ValidationError(f"alpha must be > 0, got {self.alpha!r}")

    def at(self, **kwargs) -> "ChannelParams":
        """Copy with some fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ZStats:
    """Gains and error rates entering the key-rate formula.

    ``q_z``/``e_z``: overall Z-basis gain and bit error rate.
    ``q_z1``/``e_x1``: single-photon gain and phase error rate.
    """

    q_z: float
    e_z: float
    q_z1: float
    e_x1: float

    def __post_init__(self) -> None:
        check_ranges(self)


def check_ranges(record, **tests) -> None:
    """The checks of a :class:`ZStats`, on scalars or columns: ``tests`` (name -> where
    it passes) first, then ``q_z``, ``e_z``, ``q_z1`` and ``e_x1`` in [0, 1] (NaN fails)
    and ``q_z1 <= q_z + 1e-12``."""
    for name in ("q_z", "e_z", "q_z1", "e_x1"):
        value = getattr(record, name)
        tests[name] = (value >= 0.0) & (value <= 1.0)
    for name, ok in tests.items():
        ok = np.asarray(ok)
        if not ok.all():
            bad = float(np.asarray(getattr(record, name))[~ok][0])
            raise ValidationError(f"{name} = {bad!r} is out of range")
    if np.any(record.q_z1 > record.q_z + 1e-12):
        raise ValidationError("single-photon gain exceeds the overall gain")


def transmittance(params: ChannelParams, distance_km: ArrayLike | None = None) -> ArrayLike:
    """Transmittance ``T = det_eff * 10^(-atten*distance/10)`` of fiber and detector.

    Vectorized over ``distance_km`` (default ``params.distance_km``), with
    Python's ``**`` per element: NumPy's SIMD power can differ in the last place.
    """
    if distance_km is None:
        distance_km = params.distance_km
    with np.errstate(over="ignore"):  # a loss past 1.8e308 dB is -inf, where T is 0
        exponents = -params.atten_db_per_km * np.asarray(distance_km, dtype=float) / 10.0
    powers = [10.0 ** x for x in exponents.ravel().tolist()]
    return params.det_eff * np.reshape(powers, exponents.shape)


def _per_delta(fn, params: ChannelParams, delta: ArrayLike | None, shape: tuple = ()) -> np.ndarray:
    """``fn(d)`` for each element ``d`` of ``delta`` (default ``params.delta``), by the
    same Python ``math`` calls as for a single delta, on ``delta``'s axes then ``shape``."""
    deltas = np.asarray(params.delta if delta is None else delta, dtype=float)
    return np.reshape([fn(d) for d in deltas.ravel().tolist()], deltas.shape + shape)


def conditional_virtual_yields(params: ChannelParams, t: ArrayLike | None = None,
                               delta: ArrayLike | None = None) -> np.ndarray:
    """Conditional X-basis yields ``Y[..., s, j]`` of the two virtual states.

    A transmitted photon clicks detector ``s`` with probability
    ``C[s, j](3*delta/2)**2``; a dark count fires the empty detector with
    probability ``e_d``; double clicks are split evenly between the bits.
    Vectorized over the transmittance ``t`` and ``delta`` (defaults those of
    ``params``): the result has their broadcast shape followed by ``(2, 2)``.
    """
    e_d = params.dark_count
    t = np.asarray(transmittance(params) if t is None else t)
    arrived = t[..., None, None] * _per_delta(lambda d: virtual_amplitudes(1.5 * d) ** 2,
                                              params, delta, (2, 2))
    return arrived * (1.0 - e_d / 2.0) + e_d * (1.0 - e_d / 2.0) + arrived[..., ::-1, :] * e_d


def single_photon_terms(params: ChannelParams, t: ArrayLike | None,
                        delta: ArrayLike | None = None) -> tuple[ArrayLike, ArrayLike]:
    """Prior-weighted conditional yield and single-photon phase error ``e_x1``.

    Neither depends on the intensity; ``e_x1`` is NaN where nothing clicks.
    """
    yields = conditional_virtual_yields(params, t, delta)
    weighted = (yields * _per_delta(virtual_priors, params, delta, (1, 2))).sum(axis=(-2, -1))
    return weighted, offdiag_share(yields)


def single_photon_gain(alpha: ArrayLike, weighted: ArrayLike) -> ArrayLike:
    """Single-photon Z-basis gain from the prior-weighted yield; vectorized."""
    with np.errstate(over="ignore"):  # -2 * alpha is -inf past 9e307, where the gain is 0
        return 0.5 * np.exp(-2.0 * alpha) * alpha * weighted


def single_photon_stats(params: ChannelParams, alpha: ArrayLike | None = None,
                        t: ArrayLike | None = None, delta: ArrayLike | None = None) -> tuple:
    """Return ``(Q_z1, e_x1)``; vectorized over ``alpha``, the transmittance ``t`` and ``delta``."""
    weighted, e_x1 = single_photon_terms(params, t, delta)
    if np.any(np.isnan(e_x1)):
        raise UndefinedRateError("no single-photon detections (total loss, no darks)")
    return single_photon_gain(params.alpha if alpha is None else alpha, weighted), e_x1


def zbasis_overlaps(params: ChannelParams, delta: ArrayLike | None = None) -> tuple:
    """``(sin^2(delta/2), cos^2(delta/2))`` per element of ``delta`` (default
    ``params.delta``): the overlaps of the modulated pi-phase signal with the
    Z basis, which do not depend on the intensity or the transmittance."""
    return (_per_delta(lambda d: math.sin(d / 2.0) ** 2, params, delta),
            _per_delta(lambda d: math.cos(d / 2.0) ** 2, params, delta))


def zbasis_gain_error_weight(params: ChannelParams, alpha: ArrayLike, t: ArrayLike,
                             overlaps: tuple) -> tuple:
    """Overall gain ``Q_z`` and error weight ``w_z``; vectorized over ``alpha``, ``t`` and
    ``overlaps``, which is :func:`zbasis_overlaps` of the deltas.

    Detector ``s`` fires with probability ``P[s|j]`` when bit ``j`` was sent, where
    ``-expm1(-m)`` keeps full precision at a small mean photon number ``m``.  Per sent
    bit, the detection probability is the inclusive-or of the two detectors and the
    error weight counts wrong-detector-only clicks plus half of the double clicks.
    """
    e_d = params.dark_count
    signal = alpha * t
    sin2, cos2 = overlaps
    p00, p10 = e_d + (1.0 - e_d) * -np.expm1(-signal), e_d
    p01 = e_d + (1.0 - e_d) * -np.expm1(-signal * sin2)
    p11 = e_d + (1.0 - e_d) * -np.expm1(-signal * cos2)
    gain = 0.5 * (p00 + p10 - p00 * p10) + 0.5 * (p01 + p11 - p01 * p11)
    weight = 0.5 * ((1.0 - p00) * p10 + 0.5 * p00 * p10) + 0.5 * (
        p01 * (1.0 - p11) + 0.5 * p01 * p11
    )
    return gain, weight


def zbasis_stats(params: ChannelParams, alpha: ArrayLike | None = None,
                 t: ArrayLike | None = None, delta: ArrayLike | None = None) -> tuple:
    """Return ``(Q_z, e_z)`` for the key basis; vectorized over ``alpha``, ``t`` and ``delta``."""
    alpha = params.alpha if alpha is None else alpha
    t = transmittance(params) if t is None else t
    q_z, w_z = zbasis_gain_error_weight(params, alpha, t, zbasis_overlaps(params, delta))
    if np.any(q_z <= 0.0):
        raise UndefinedRateError("Z-basis gain is zero; bit error rate undefined")
    return q_z, w_z / q_z

