"""Monte Carlo simulation of the i.i.d. protocol against Kraus channels and POVMs.

The exact per-pulse outcome probabilities are plain traces, so
:func:`exact_yields` doubles as the brute-force oracle for every estimator
test.  The cell counts of n i.i.d. pulses follow a multinomial law over
those same probabilities, so :func:`run_protocol` draws them in one
multinomial draw from a seeded PCG64 generator: its cost does not grow with
the number of pulses, and the counts are deterministic per seed.

Dark counts and double-click randomization are represented as an affine
mixing of the per-cell outcome probabilities (an :class:`OutcomeMixer`)
rather than extra Kraus operators; :func:`fiber_experiment` assembles the
sources/channel/POVM/mixer quadruple whose exact yields reproduce the
analytic fiber model term by term.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import estimator
from .channel import ChannelParams, _checked_t, transmittance
from .errors import ValidationError
from .estimator import YieldTable
from .qstate import (
    ID2,
    SourceSet,
    _KETS,
    _abs,
    _eigvalsh_2x2,
    _frozen,
    three_state_sources,
)

#: Bob's basis choice
BASIS_PROBS = {"x": 0.5, "z": 0.5}
#: largest pulse count of a run: the multinomial draw counts in a signed
#: 64-bit integer
MAX_PULSES = 2**63 - 1
_OUTCOMES = (0, 1, "f")


@dataclass(frozen=True)
class KrausChannel:
    """A (possibly trace-decreasing) qubit channel ``rho -> sum_k A rho A+``.

    The completeness deficit ``I - sum_k A+ A`` must be PSD; its weight is
    the probability the signal is lost before Bob's measurement.
    """

    operators: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        ops = tuple(np.array(op, dtype=complex) for op in self.operators)  # copies
        if not ops:
            raise ValidationError("channel needs at least one Kraus operator")
        for op in ops:
            if op.shape != (2, 2) or not np.all(np.isfinite(op)):
                raise ValidationError("Kraus operators must be finite 2x2 matrices")
            op.setflags(write=False)
        # an entry above 1 puts a diagonal entry of A+ A above 1; tested first,
        # it also keeps the Gram matrix from overflowing
        if max(np.abs(op).max() for op in ops) > 1.0 + 1e-10 or _eigvalsh_2x2(
                sum(op.conj().T @ op for op in ops).tolist())[1] > 1.0 + 1e-10:
            raise ValidationError("channel is not trace-non-increasing")
        object.__setattr__(self, "operators", ops)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Sub-normalized output matrices of the densities ``rho``, of shape
        ``(..., 2, 2)``; each trace is an arrival probability."""
        return sum(op @ rho @ op.conj().T for op in self.operators)

    def deficit(self) -> np.ndarray:
        return ID2 - sum(op.conj().T @ op for op in self.operators)

    def with_extra_loss(self, ell: float) -> "KrausChannel":
        """Compose with uniform loss: every outcome probability scales by 1-ell."""
        if not (0.0 <= ell < 1.0):
            raise ValidationError(f"loss fraction must be in [0, 1), got {ell!r}")
        factor = math.sqrt(1.0 - ell)
        return KrausChannel(tuple(factor * op for op in self.operators))


@dataclass(frozen=True)
class BobPovm:
    """Bob's two-basis measurement with a shared inconclusive element.

    Holding a single ``m_f`` makes the basis-independent-efficiency
    assumption true by construction.
    """

    x: tuple[np.ndarray, np.ndarray]
    z: tuple[np.ndarray, np.ndarray]
    m_f: np.ndarray

    def __post_init__(self) -> None:
        # m_f, then m0 and m1 of each basis, each in full before the next: 2x2,
        # finite, a PSD Hermitian part, and for m1 a sum (m0 + m1) + m_f within
        # 1e-10 of the identity.  On Python scalars, entry by entry as NumPy
        # computes them: NumPy's per-call cost dwarfs 2x2 arithmetic
        (x0, x1), (z0, z1) = self.x, self.z
        ops = [np.array(op, dtype=complex) for op in (self.m_f, x0, x1, z0, z1)]  # copies
        names = (("m_f", None), ("m0", None), ("m1", "x"), ("m0", None), ("m1", "z"))
        flat: list[list[complex]] = []  # the entries of each element checked so far
        for op, (name, completes) in zip(ops, names):
            op.setflags(write=False)
            if op.shape != (2, 2):
                raise ValidationError(f"{name} must be 2x2")
            a, b, c, d = entries = op.ravel().tolist()
            if not all(map(cmath.isfinite, entries)):
                raise ValidationError(f"{name} must be finite")
            if _eigvalsh_2x2([[(a + a.conjugate()) / 2.0, (b + c.conjugate()) / 2.0],
                              [(c + b.conjugate()) / 2.0, (d + d.conjugate()) / 2.0]])[0] < -1e-10:
                raise ValidationError(f"{name} is not positive semidefinite")
            if completes and max(_abs((m0 + m1) + m_f - one) for m0, m1, m_f, one in zip(
                    flat[-1], entries, flat[0], (1.0, 0.0, 0.0, 1.0))) > 1e-10:
                raise ValidationError(f"basis {completes!r} elements do not sum to identity")
            flat.append(entries)
        object.__setattr__(self, "x", (ops[1], ops[2]))
        object.__setattr__(self, "z", (ops[3], ops[4]))
        object.__setattr__(self, "m_f", ops[0])

    def elements(self, basis: str) -> tuple[np.ndarray, np.ndarray]:
        if basis == "x":
            return self.x
        if basis == "z":
            return self.z
        raise ValidationError(f"unknown basis {basis!r}")


@dataclass(frozen=True)
class OutcomeMixer:
    """Affine map on per-cell outcome probabilities ``(p0, p1, p_f)``.

    Columns sum to one, so total probability is conserved; entries may be
    slightly negative only through the documented dark-count redistribution.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        matrix = np.asarray(self.matrix, dtype=float)
        if matrix.shape != (3, 3):
            raise ValidationError("mixer must be 3x3")
        if not np.all(np.isfinite(matrix)):
            raise ValidationError("mixer entries must be finite")
        if np.abs(matrix.sum(axis=0) - 1.0).max() > 1e-12:
            raise ValidationError("mixer columns must sum to 1")
        matrix = np.array(matrix)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    def apply(self, probs: np.ndarray) -> np.ndarray:
        """The mixed outcome probabilities of ``probs``, of shape ``(..., 3)``."""
        return (self.matrix @ probs[..., None])[..., 0]


def dark_count_mixer(e_d: float) -> OutcomeMixer:
    """Dark-count/double-click mixing of the conclusive outcome probabilities.

    Mixed(p_s) = p_s*(1 - e_d/2) + e_d*(1 - e_d/2) + p_{s^1}*e_d, with the
    constant distributed over (p0, p1, pf) using p0 + p1 + pf = 1.  Each
    matrix gets one mixer, built on first use and then shared (a mixer is
    immutable); rates that compare equal but give other entries, such as
    -0.0 and 0.0, get mixers of their own.
    """
    if isinstance(e_d, np.ndarray) and e_d.ndim:  # its comparisons would give arrays
        raise ValidationError(
            f"dark count rate must be a number, got an array of shape {e_d.shape}")
    # a NumPy complex would pass the range test and lose its imaginary part
    if isinstance(e_d, complex) or not (0.0 <= e_d < 1.0):
        raise ValidationError(f"dark count rate must be in [0, 1), got {e_d!r}")
    keep = (1.0 - e_d / 2.0) * (1.0 + e_d)
    cross = e_d * (2.0 - e_d / 2.0)
    from_f = e_d * (1.0 - e_d / 2.0)
    matrix = np.array(
        [
            [keep, cross, from_f],
            [cross, keep, from_f],
            [1.0 - keep - cross, 1.0 - keep - cross, 1.0 - 2.0 * from_f],
        ],
        dtype=float,
    )
    return _shared_mixer(matrix.tobytes())


@functools.lru_cache(maxsize=64)
def _shared_mixer(entries: bytes) -> OutcomeMixer:
    """The checked mixer of a 3x3 float64 matrix given by its bytes."""
    return OutcomeMixer(matrix=np.frombuffer(entries).reshape(3, 3))


@dataclass(frozen=True)
class TrialRecord:
    """Counts of one finite protocol run, keyed ``(label, basis, outcome)``."""

    counts: Mapping[tuple[str, str, object], int]
    n_pulses: int

    def __post_init__(self) -> None:
        counts = dict(self.counts)
        if not all(isinstance(c, (int, np.integer)) for c in (self.n_pulses, *counts.values())):
            raise ValidationError("counts and n_pulses must be integers")
        if any(c < 0 for c in counts.values()):
            raise ValidationError("counts must be non-negative")
        if sum(counts.values()) != self.n_pulses:
            raise ValidationError("counts must sum to n_pulses")
        object.__setattr__(self, "counts", counts)


@dataclass(frozen=True)
class TrialEstimate:
    """Phase-error estimate from one trial with its first-order standard error."""

    e_x: float
    std_err: float


def _generator(seed: int) -> np.random.Generator:
    """The seeded PCG64 generator of a non-negative integer ``seed``."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.default_rng(seed)


def _random_unitary(rng: np.random.Generator) -> np.ndarray:
    raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(seed: int) -> KrausChannel:
    """Seeded random qubit channel with loss weight up to 0.9."""
    rng = _generator(seed)
    n_ops = int(rng.integers(1, 5))
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(n_ops)]
    loss = float(rng.uniform(0.0, 0.9))
    gram = sum(op.conj().T @ op for op in ops)
    top = np.linalg.eigvalsh(gram).max()
    scale = math.sqrt((1.0 - loss) / top)
    return KrausChannel(tuple(scale * op for op in ops))


def random_povm(seed: int) -> BobPovm:
    """Seeded random two-basis POVM with a shared inconclusive element.

    The inconclusive element, of eigenvalues up to 0.8, is drawn first; the
    remainder is split between the two outcomes of each basis by a randomly
    rotated projective split, so completeness and basis independence hold by
    construction.
    """
    rng = _generator(seed)
    u = _random_unitary(rng)
    m_f = u @ np.diag(rng.uniform(0.0, 0.8, size=2)) @ u.conj().T
    evals, evecs = np.linalg.eigh(ID2 - m_f)
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    elements = {}
    for basis in ("x", "z"):
        ub = _random_unitary(rng)
        split = ub @ np.diag([1.0, 0.0]) @ ub.conj().T
        elements[basis] = (root @ split @ root, root @ (ID2 - split) @ root)
    return BobPovm(x=elements["x"], z=elements["z"], m_f=m_f)


def _joint_probs(
    sources: SourceSet,
    channel: KrausChannel,
    povm: BobPovm,
    mixer: OutcomeMixer | None,
) -> dict[tuple[str, str, object], float]:
    """``P(label) P(basis) P(outcome | label, basis)`` for every cell, with
    outcomes 0, 1 and ``"f"``; a mixer post-composes the outcome probabilities.

    All cells are computed at once, from the stacked source densities and
    the stacked conclusive POVM elements (label, basis, outcome axes)."""
    evolved = channel.apply(np.array([state.density for _, state, _ in sources.entries]))
    products = evolved[:, None, None] @ np.array([povm.x, povm.z])
    p0, p1 = (products[..., 0, 0] + products[..., 1, 1]).real.transpose(2, 0, 1)
    cells = np.stack([p0, p1, 1.0 - p0 - p1], axis=-1)
    if mixer is not None:
        cells = mixer.apply(cells)
    weights = [[prior * bp for bp in BASIS_PROBS.values()] for _, _, prior in sources.entries]
    keys = [(label, basis, outcome) for label in sources.labels
            for basis in BASIS_PROBS for outcome in _OUTCOMES]
    return dict(zip(keys, (np.array(weights)[..., None] * cells).ravel().tolist()))


def exact_yields(
    sources: SourceSet,
    channel: KrausChannel,
    povm: BobPovm,
    mixer: OutcomeMixer | None = None,
) -> YieldTable:
    """Exact joint yields ``P(label) P(basis) Tr(channel(rho) M)``.

    Machine-precision; the oracle every estimator test is checked against.
    An optional mixer post-composes the conclusive-outcome probabilities.
    """
    return _yield_table(_joint_probs(sources, channel, povm, mixer), sources)


def _yield_table(cells: Mapping[tuple[str, str, object], float], sources: SourceSet,
                 consistency_tol: float = YieldTable.consistency_tol) -> YieldTable:
    """The conclusive cells of a ``(label, basis, outcome)`` mapping, re-keyed
    ``(basis, outcome, label)``, as a table with the priors of ``sources``."""
    yields = {(basis, outcome, label): p
              for (label, basis, outcome), p in cells.items() if outcome != "f"}
    priors = {label: prior for label, _, prior in sources.entries}
    return YieldTable(yields, priors, BASIS_PROBS, consistency_tol=consistency_tol)


def run_protocol(
    n_pulses: int,
    sources: SourceSet,
    channel: KrausChannel,
    povm: BobPovm,
    seed: int,
    mixer: OutcomeMixer | None = None,
) -> TrialRecord:
    """Sample the cell counts of ``n_pulses`` i.i.d. protocol rounds.

    The counts of n i.i.d. rounds are Multinomial(n, p) over the joint cell
    probabilities ``p`` that :func:`exact_yields` reads, so they are drawn in
    one multinomial draw, at a cost that does not grow with ``n``.  Slightly
    negative (mixer) cell probabilities are clipped at zero.  Deterministic
    per seed.
    """
    if not 1 <= n_pulses <= MAX_PULSES:
        raise ValidationError(f"n_pulses must be in [1, 2**63 - 1], got {n_pulses!r}")
    cells = _joint_probs(sources, channel, povm, mixer)
    p = np.clip(list(cells.values()), 0.0, None)
    totals = _generator(seed).multinomial(n_pulses, p / p.sum())
    counts = dict(zip(cells, totals.tolist()))
    return TrialRecord(counts=counts, n_pulses=n_pulses)


def empirical_yields(trial: TrialRecord, sources: SourceSet) -> YieldTable:
    """Empirical joint yield table (count fractions) of a trial.

    Consistency checks get a ~6-sigma statistical slack.
    """
    n = trial.n_pulses
    fractions = {key: count / n for key, count in trial.counts.items()}
    return _yield_table(fractions, sources, consistency_tol=6.0 * math.sqrt(0.25 / n) + 1e-9)


#: the three-state phase error as ``(_ERROR_COEFF @ y) / (_TOTAL_COEFF @ y)`` in
#: the yields ``y`` of :func:`estimator.three_state_yields`: the sums of the
#: error cells and of all cells of :data:`estimator.THREE_STATE_MAP`
_ERROR_COEFF = estimator.THREE_STATE_MAP[0, 1] + estimator.THREE_STATE_MAP[1, 0]
_TOTAL_COEFF = estimator.THREE_STATE_MAP.sum(axis=(0, 1))


def estimate_from_trial(trial: TrialRecord, sources: SourceSet) -> TrialEstimate:
    """Three-state phase-error estimate from counts, with a delta-method error.

    Negative predicted virtual yields are clamped to zero at this layer (the
    exact-arithmetic estimator stays strict).  The standard error propagates
    the multinomial covariance of the count fractions through the unclamped
    ratio ``(_ERROR_COEFF @ y) / (_TOTAL_COEFF @ y)``.
    """
    table = empirical_yields(trial, sources)
    e_x = estimator.phase_error_three_state(table, negativity_tol=math.inf)

    n = trial.n_pulses
    fractions = estimator.three_state_yields(table)
    numerator = float(_ERROR_COEFF @ fractions)
    denominator = float(_TOTAL_COEFF @ fractions)
    grad = (_ERROR_COEFF * denominator - numerator * _TOTAL_COEFF) / denominator**2
    cov = (np.diag(fractions) - np.outer(fractions, fractions)) / n
    variance = float(grad @ cov @ grad)
    return TrialEstimate(e_x=e_x, std_err=math.sqrt(max(variance, 0.0)))


@dataclass(frozen=True)
class FiberExperiment:
    """Sources, channel, POVM and mixer reproducing the analytic fiber model."""

    sources: SourceSet
    channel: KrausChannel
    povm: BobPovm
    mixer: OutcomeMixer


#: the fiber model's Z-basis projectors and its zero inconclusive element
_Z_PROJECTORS = tuple(_frozen(np.outer(_KETS[label], _KETS[label].conj()))
                      for label in ("0z", "1z"))
_NO_INCONCLUSIVE = _frozen(np.zeros((2, 2), dtype=complex))


def fiber_experiment(params: ChannelParams, t: float | None = None) -> FiberExperiment:
    """Single-photon equivalent of the analytic fiber model.

    Perfect three-state sources, a uniform-loss channel, and an X
    measurement rotated in the X-Z plane so the arrival click probabilities
    equal the analytic virtual-yield coefficients (both modulation errors
    are attributed to the measurement side); dark counts enter through the
    outcome mixer.  With these pieces the closed-form three-state estimator
    applied to the observed counts converges to the analytic single-photon
    phase error rate.

    ``t`` is the transmittance (default that of ``params``), checked to lie in
    [0, 1].  The sources, the Z-basis elements, the zero inconclusive element
    and the mixer of each dark count are built once per process and shared;
    the channel and the X elements are built per call.
    """
    t = transmittance(params) if t is None else _checked_t(t)
    channel = KrausChannel((math.sqrt(t) * ID2,))
    angle = 3.0 * params.delta / 8.0
    m0 = math.cos(angle) * _KETS["0x"] + math.sin(angle) * _KETS["1x"]
    m1 = -math.sin(angle) * _KETS["0x"] + math.cos(angle) * _KETS["1x"]
    povm = BobPovm(
        x=(np.outer(m0, m0.conj()), np.outer(m1, m1.conj())),
        z=_Z_PROJECTORS,
        m_f=_NO_INCONCLUSIVE,
    )
    return FiberExperiment(
        sources=three_state_sources(),
        channel=channel,
        povm=povm,
        mixer=dark_count_mixer(params.dark_count),
    )
