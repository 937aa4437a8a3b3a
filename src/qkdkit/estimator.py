"""Phase-error-rate estimation from basis-mismatch statistics.

The observed joint detection probabilities of each sent state are linear in
the Bloch vector of that state, with coefficients given by the transmission
rates of the identity and Pauli operators.  Solving the resulting small
linear system (3x3 planar, 4x4 full, 9x9 for the two-party scheme) recovers
those rates exactly and with them the detection statistics of *any* state,
in particular the virtual states that define the phase error rate.

Every path ends in one ratio, :func:`error_rate`: the off-diagonal share of
a 2x2 table of virtual yields, computed by :func:`offdiag_share`.  Each cell
of that table is a linear form in the observed yields (for the perfect
three-state protocol the constant map :data:`THREE_STATE_MAP`; otherwise the
solved functionals evaluated on the virtual states), so uniform channel loss
scales the table and cancels: the estimate is loss-tolerant.  The analytic
fiber model's single-photon ``e_x1`` (:mod:`qkdkit.channel`) is the same
ratio, of its modelled virtual-yield tables.

All solvers use an SVD factorization: it supplies the conditioning check
(smallest/largest singular value) and a numerically robust solve in one go.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    InconsistentYieldsError,
    PlanarityError,
    UndefinedRateError,
    ValidationError,
    WellPosednessError,
)
from .qstate import BlochVector, QubitState, SourceSet, VirtualEnsemble, basis_state

#: smallest/largest singular value below this ratio means ill-posed sources.
SINGULARITY_THRESHOLD = 1e-9
#: predicted yields may undershoot zero by at most this much.
NEGATIVITY_TOL = 1e-9
#: maximum relative residual accepted from a linear solve.
RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class YieldTable:
    """Joint detection probabilities keyed by ``(bob_basis, outcome, alice_label)``.

    Attributes:
        yields: map ``(basis, outcome, label) -> probability``, each the joint
            ``P(label) * P(basis) * P(outcome | label, basis)``; outcomes are
            the conclusive bits 0 and 1 (the remainder of each cell is the
            inconclusive event).
        priors: ``label -> P(label)`` for Alice's choice.
        basis_probs: ``basis -> probability`` for Bob's choice.
        consistency_tol: slack allowed in the prior-consistency checks.
            Exact tables use the default; finite-sample tables pass a
            statistical slack.
    """

    yields: Mapping[tuple[str, int, str], float]
    priors: Mapping[str, float]
    basis_probs: Mapping[str, float]
    consistency_tol: float = 1e-9

    def __post_init__(self) -> None:
        object.__setattr__(self, "yields", dict(self.yields))
        object.__setattr__(self, "priors", dict(self.priors))
        object.__setattr__(self, "basis_probs", dict(self.basis_probs))
        tol = self.consistency_tol
        for key, value in self.yields.items():
            basis, outcome, label = key
            if outcome not in (0, 1):
                raise ValidationError(f"outcome must be 0 or 1, got {outcome!r}")
            if not (math.isfinite(value) and -tol <= value <= 1.0 + tol):
                raise ValidationError(f"yield {key} = {value!r} is not a probability")
        for label, prior in self.priors.items():
            if not (0.0 < prior <= 1.0):
                raise ValidationError(f"prior for {label!r} must be in (0, 1]")
        if abs(sum(self.priors.values()) - 1.0) > max(tol, 1e-9):
            raise ValidationError("priors must sum to 1")
        for basis, prob in self.basis_probs.items():
            if not (0.0 < prob <= 1.0):
                raise ValidationError(f"basis probability for {basis!r} must be in (0, 1]")
        totals: dict[tuple[str, str], float] = {}
        for (basis, _, label), value in self.yields.items():
            cap = self.priors.get(label, 1.0) * self.basis_probs.get(basis, 1.0)
            if value > cap + tol:
                raise ValidationError(
                    f"joint yield for ({basis}, {label}) exceeds its prior weight"
                )
            totals[basis, label] = totals.get((basis, label), 0.0) + value
        for (basis, label), total in totals.items():
            cap = self.priors.get(label, 1.0) * self.basis_probs.get(basis, 1.0)
            if total > cap + tol:
                raise ValidationError(
                    f"conclusive yields for ({basis}, {label}) exceed the prior weight"
                )

    def get(self, basis: str, outcome: int, label: str) -> float:
        try:
            return self.yields[basis, outcome, label]
        except KeyError:
            raise ValidationError(
                f"missing yield entry (basis={basis!r}, outcome={outcome}, label={label!r})"
            ) from None

    def weight(self, basis: str, label: str) -> float:
        """The joint prefactor ``P(label) * P(basis)``."""
        if label not in self.priors:
            raise ValidationError(f"no prior recorded for label {label!r}")
        if basis not in self.basis_probs:
            raise ValidationError(f"no probability recorded for basis {basis!r}")
        return self.priors[label] * self.basis_probs[basis]

    def scaled(self, factor: float) -> "YieldTable":
        """Uniformly rescale all yields (extra loss leaves estimates unchanged)."""
        if not (0.0 < factor <= 1.0):
            raise ValidationError("scale factor must be in (0, 1]")
        scaled = {key: value * factor for key, value in self.yields.items()}
        return YieldTable(scaled, self.priors, self.basis_probs,
                          consistency_tol=self.consistency_tol)


@dataclass(frozen=True)
class TransmissionFunctional:
    """Solved transmission rates ``q_t = Tr(D sigma_t)/2`` for one outcome.

    ``q`` maps ``t in {id, x, z}`` (planar) or ``{id, x, y, z}`` (full) to a
    real coefficient.  The predicted conditional yield of a state with Bloch
    vector ``p`` is ``q_id + p . q``, which must be non-negative for every
    valid state; that bounds the Pauli part by ``q_id``.
    """

    outcome: int
    q: Mapping[str, float]
    planar: bool

    def __post_init__(self) -> None:
        keys = ("id", "x", "z") if self.planar else ("id", "x", "y", "z")
        if set(self.q.keys()) != set(keys):
            raise ValidationError(f"functional must have coefficients {keys}")
        object.__setattr__(self, "q", dict(self.q))
        q_id = self.q["id"]
        if not (-NEGATIVITY_TOL <= q_id <= 1.0 + NEGATIVITY_TOL):
            raise InconsistentYieldsError(
                f"identity transmission rate {q_id!r} outside [0, 1]"
            )
        pauli = [self.q[k] for k in keys[1:]]
        if math.hypot(*pauli) > q_id + NEGATIVITY_TOL:
            raise InconsistentYieldsError(
                "functional predicts negative yields for some valid state"
            )

    def evaluate(self, bloch: BlochVector) -> float:
        """Predicted conditional yield ``q_id + p . q`` for one state."""
        if self.planar:
            if not bloch.is_planar:
                raise PlanarityError(
                    "planar functional applied to a state with p_y != 0"
                )
            return self.q["id"] + bloch.px * self.q["x"] + bloch.pz * self.q["z"]
        return (
            self.q["id"]
            + bloch.px * self.q["x"]
            + bloch.py * self.q["y"]
            + bloch.pz * self.q["z"]
        )


@dataclass(frozen=True)
class TwoQubitFunctional:
    """Solved two-party rates ``q[s, t] = Tr(D sigma_s x sigma_t)/4``.

    Indices run over ``(id, x, z)`` for each party; only planar product
    states can be predicted: the yield of ``a x b`` is ``va @ q @ vb`` over
    their planar rows ``(v0, px, pz)``.
    """

    q: np.ndarray

    def __post_init__(self) -> None:
        q = np.array(self.q, dtype=float)
        if q.shape != (3, 3):
            raise ValidationError("two-qubit functional must be 3x3 over (id, x, z)")
        q.setflags(write=False)
        object.__setattr__(self, "q", q)
        if not (-NEGATIVITY_TOL <= q[0, 0] <= 1.0 + NEGATIVITY_TOL):
            raise InconsistentYieldsError(
                f"identity-identity rate {q[0, 0]!r} outside [0, 1]"
            )


@dataclass(frozen=True)
class ConditioningReport:
    """Result of a well-posedness check on a set of source states."""

    well_posed: bool
    condition_number: float
    singular_values: tuple[float, ...]
    reason: str | None = None


def check_well_posed(blochs: Sequence[BlochVector]) -> ConditioningReport:
    """Check that the source Bloch vectors determine the linear system.

    Three states use the planar components ``(1, px, pz)``; four states use
    the full ``(1, px, py, pz)``.  Well-posed means the smallest singular
    value of the design matrix exceeds ``1e-9`` times the largest.
    """
    n = len(blochs)
    if n not in (3, 4):
        raise ValidationError(f"need 3 or 4 source states, got {n}")
    full = np.array([b.as_array() for b in blochs])
    singular = np.linalg.svd(_design_matrix(blochs), compute_uv=False)
    values = tuple(singular)
    if any(np.abs(full[i] - full[j]).max() <= 1e-12 for i, j in combinations(range(n), 2)):
        return ConditioningReport(False, math.inf, values, reason="duplicate-states")
    smax, smin = float(singular[0]), float(singular[-1])
    if smin <= SINGULARITY_THRESHOLD * smax:
        cond = math.inf if smin == 0.0 else smax / smin
        return ConditioningReport(False, cond, values, reason="rank-deficient")
    return ConditioningReport(True, smax / smin, values)


def _design_matrix(blochs: Sequence[BlochVector]) -> np.ndarray:
    planar = len(blochs) == 3
    return np.array([b.as_array(planar=planar) for b in blochs])


def _checked_design(
    sources: SourceSet, report: ConditioningReport | None = None, party: str = ""
) -> np.ndarray:
    """The design matrix of ``sources`` after the checks of every solve, in
    order: 3 or 4 states, three states in the X-Z plane, well-posed.

    ``report`` is the sources' :func:`check_well_posed` report when the caller
    already has it; ``party`` names the relay party in the messages.
    """
    blochs = sources.blochs()
    n = len(blochs)
    if n not in (3, 4):
        raise ValidationError(f"need 3 or 4 sources, got {n}")
    who = f"party {party} " if party else ""
    if n == 3:
        for label, bloch in zip(sources.labels, blochs):
            if not bloch.is_planar:
                raise PlanarityError(
                    f"{who}source {label!r} has p_y != 0; the 3-state solver is planar"
                )
    if report is None:
        report = check_well_posed(blochs)
    if not report.well_posed:
        raise WellPosednessError(f"{who}sources are ill-posed ({report.reason})")
    return _design_matrix(blochs)


def _svd_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    u, s, vt = np.linalg.svd(matrix)
    if s[-1] <= SINGULARITY_THRESHOLD * s[0]:
        raise WellPosednessError("design matrix is numerically singular")
    return u, s, vt


def _svd_solve(matrix: np.ndarray, factors: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve ``matrix @ x = rhs`` from its :func:`_svd_factor` factors."""
    u, s, vt = factors
    x = vt.T @ ((u.T @ rhs) / s)
    residual = np.abs(matrix @ x - rhs).max()
    if residual > RESIDUAL_TOL * max(1.0, np.abs(rhs).max()):
        raise InconsistentYieldsError(
            f"linear solve residual {residual!r} exceeds tolerance"
        )
    return x


def solve_functionals(
    yields: YieldTable,
    sources: SourceSet,
    outcomes: Sequence[int] = (0, 1),
    basis: str = "x",
    report: ConditioningReport | None = None,
) -> tuple[TransmissionFunctional, ...]:
    """Solve the transmission rates for each of Bob's ``outcomes``, in order.

    The equation for source ``j`` is
    ``Y(basis, outcome, j) = P(j) P(basis) (q_id + p_j . q)``.  Three sources
    must lie in the X-Z plane and give the planar system; four sources give
    the full system.  The sources are checked and factorized once for all
    outcomes; ``report`` is their :func:`check_well_posed` report when the
    caller already has it.

    Raises:
        WellPosednessError: sources do not span the system.
        InconsistentYieldsError: the solved rates would predict negative
            yields beyond ``1e-9`` (the data fit no physical map).
    """
    design = _checked_design(sources, report)
    for label in sources.labels:
        table_prior = yields.priors.get(label)
        if table_prior is not None and abs(table_prior - sources.prior(label)) > 1e-9:
            raise ValidationError(
                f"prior mismatch for {label!r} between yield table and sources"
            )
    factors = _svd_factor(design)
    planar = len(sources) == 3
    keys = ("id", "x", "z") if planar else ("id", "x", "y", "z")
    functionals = []
    for outcome in outcomes:
        rhs = np.array(
            [
                yields.get(basis, outcome, label) / yields.weight(basis, label)
                for label in sources.labels
            ]
        )
        coeffs = _svd_solve(design, factors, rhs)
        functionals.append(
            TransmissionFunctional(outcome=outcome, q=dict(zip(keys, coeffs)), planar=planar)
        )
    return tuple(functionals)


def solve_functional(
    yields: YieldTable,
    sources: SourceSet,
    outcome: int,
    basis: str = "x",
) -> TransmissionFunctional:
    """Solve the transmission rates for one of Bob's outcomes: the one-outcome
    case of :func:`solve_functionals`, with the same checks and errors."""
    return solve_functionals(yields, sources, (outcome,), basis)[0]


def predict_yield(
    functional: TransmissionFunctional,
    state: QubitState | BlochVector,
    prior: float,
) -> float:
    """Joint detection probability ``prior * (q_id + p . q)`` for any state.

    ``prior`` is the joint prefactor of the prediction (state prior times
    basis probability for joint yields).
    """
    if not (0.0 <= prior <= 1.0):
        raise ValidationError(f"prior must be in [0, 1], got {prior!r}")
    bloch = state.bloch() if isinstance(state, QubitState) else state
    return prior * functional.evaluate(bloch)


def offdiag_share(table: np.ndarray) -> np.ndarray:
    """Unchecked ``(max(t01, 0) + max(t10, 0)) / sum`` over the last two axes of ``table``."""
    with np.errstate(invalid="ignore"):  # a table that sums to 0 gives NaN
        errors = np.maximum(table[..., 0, 1], 0.0) + np.maximum(table[..., 1, 0], 0.0)
        return errors / table.sum(axis=(-2, -1))


def error_rate(table: np.ndarray, *, negativity_tol: float = NEGATIVITY_TOL) -> float:
    """Phase error rate: the off-diagonal share of a 2x2 virtual-yield table.

    ``table`` is indexed by virtual bit and outcome (either way round), or by
    the relay's two virtual bits, so the errors are the off-diagonal cells.
    A cell below ``-negativity_tol`` raises :class:`InconsistentYieldsError`;
    smaller negative error cells are clamped to zero.  Statistical callers
    pass ``math.inf`` to always clamp.  The ratio itself is :func:`offdiag_share`.

    Raises:
        ValidationError: a table that is not 2x2 or has a non-finite cell.
        UndefinedRateError: the cells sum to zero or less.
        InconsistentYieldsError: a negative cell, or a rate above 1, beyond
            ``negativity_tol``.
    """
    table = np.asarray(table, dtype=float)
    if table.shape != (2, 2):
        raise ValidationError(f"virtual-yield table must be 2x2, got shape {table.shape}")
    cells = table.ravel().tolist()  # Python scalars: NumPy's per-call cost dwarfs four cells
    if not all(map(math.isfinite, cells)):
        raise ValidationError("virtual-yield table must be finite")
    lowest = min(cells)
    if lowest < -negativity_tol:
        raise InconsistentYieldsError(f"predicted virtual yield {lowest!r} is negative")
    if float(table.sum()) <= 0.0:
        raise UndefinedRateError("virtual yields sum to zero; phase error rate undefined")
    value = float(offdiag_share(table))
    if value > 1.0 + negativity_tol:
        raise InconsistentYieldsError(f"error rate {value!r} exceeds 1 beyond tolerance")
    return min(value, 1.0)


#: The three-state virtual-yield table ``[s, j] = Y(s, jx)`` as a linear map
#: of the X-basis yields ``Y(s, label)``, ordered as :func:`three_state_yields`
#: returns them.  The sent ``0x`` yields are read directly; the unsent ``1x``
#: yields are ``Y(s, 1x) = Y(s, 0z) + Y(s, 1z) - Y(s, 0x)``.  Outcome-major,
#: so :func:`error_rate` sums ``Y(s, 0x) + Y(s, 1x)`` first and a table with
#: no Z-pair detections sums to exactly zero.
THREE_STATE_MAP = np.array([
    [[0.0, 0.0, 1.0, 0.0, 0.0, 0.0], [1.0, 1.0, -1.0, 0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 1.0, -1.0]],
])
THREE_STATE_MAP.setflags(write=False)


def three_state_yields(yields: YieldTable) -> np.ndarray:
    """The X-basis yields of labels ``0z, 1z, 0x``, outcome 0 then outcome 1."""
    return np.array([yields.get("x", s, label) for s in (0, 1) for label in ("0z", "1z", "0x")])


def phase_error_three_state(
    yields: YieldTable, *, negativity_tol: float = NEGATIVITY_TOL
) -> float:
    """Closed-form phase error rate of the perfect three-state protocol.

    Requires joint X-outcome yields for labels ``0z, 1z, 0x`` sent with
    uniform (state, basis) priors: :func:`error_rate` of their image under
    :data:`THREE_STATE_MAP`.
    """
    # summed left to right, so each cell rounds as its formula reads
    table = (THREE_STATE_MAP * three_state_yields(yields)).sum(axis=-1)
    return error_rate(table, negativity_tol=negativity_tol)


def virtual_yields(
    f0: TransmissionFunctional,
    f1: TransmissionFunctional,
    ensemble: VirtualEnsemble,
    prior: float = 1.0,
) -> np.ndarray:
    """Table ``[j, s] = prior * w_j * Y(s | virtual state j)`` of an ensemble.

    ``f0``/``f1`` are the solved functionals for Bob's outcomes 0 and 1 in
    the ensemble's basis; ``prior`` is the joint prefactor of the ensemble.
    """
    if f0.outcome != 0 or f1.outcome != 1:
        raise ValidationError("functionals must be for outcomes 0 and 1, in order")
    if f0.planar != f1.planar:
        raise ValidationError("functionals must both be planar or both full")
    joint = np.array(ensemble.weights) * prior
    for value in joint.tolist():
        if not (0.0 <= value <= 1.0):
            raise ValidationError(f"prior must be in [0, 1], got {value!r}")
    rows = _bloch_rows(ensemble, f0.planar)
    rows[:, 0] = 1.0  # the identity coefficient exactly, as TransmissionFunctional.evaluate
    keys = ("id", "x", "z") if f0.planar else ("id", "x", "y", "z")
    q = np.array([[f.q[k] for k in keys] for f in (f0, f1)])
    # summed left to right, so each cell rounds as TransmissionFunctional.evaluate
    return joint[:, None] * (rows[:, None, :] * q).sum(axis=-1)


def _bloch_rows(ensemble: VirtualEnsemble, planar: bool) -> np.ndarray:
    """The ``as_array(planar)`` rows of an ensemble's states, checked to lie in
    the X-Z plane when ``planar``."""
    blochs = [state.bloch() for state in ensemble.states]
    if planar and not all(bloch.is_planar for bloch in blochs):
        raise PlanarityError("planar functional applied to a state with p_y != 0")
    return np.array([bloch.as_array(planar=planar) for bloch in blochs])


def phase_error_virtual(
    f0: TransmissionFunctional,
    f1: TransmissionFunctional,
    ensemble: VirtualEnsemble,
    *,
    negativity_tol: float = NEGATIVITY_TOL,
) -> float:
    """Phase error rate of an arbitrary virtual ensemble: :func:`error_rate`
    of its :func:`virtual_yields` (errors are outcome != virtual bit)."""
    return error_rate(virtual_yields(f0, f1, ensemble), negativity_tol=negativity_tol)


def _pair_weight(label_a: str, label_b: str, gamma: float) -> float:
    bases = []
    for label in (label_a, label_b):
        if not label or label[-1] not in ("z", "x"):
            raise ValidationError(
                f"label {label!r} must end in 'z' or 'x' to carry its basis"
            )
        bases.append(label[-1])
    if bases[0] == "z" and bases[1] == "z":
        return gamma / 9.0
    return 1.0 / 9.0


def mdi_solve(
    pair_yields: Mapping[tuple[str, str], float],
    sources_a: SourceSet,
    sources_b: SourceSet,
    gamma: float,
) -> TwoQubitFunctional:
    """Solve the nine two-party transmission rates of the relay scheme.

    ``pair_yields`` holds the joint probability that Alice and Bob send the
    labelled pair and the relay announces the target outcome.  Z-Z pairs
    carry the prefactor ``gamma/9`` (the sacrificed test fraction); pairs
    involving an X state carry ``1/9``.  The design is the Kronecker product
    of the parties' checked designs; one source set passed for both is
    checked once.

    Raises:
        WellPosednessError: either party's triple is degenerate.
        InconsistentYieldsError: the solved rates predict a product yield of
            the sources or X eigenstates outside [0, 1].
    """
    if not (0.0 < gamma < 1.0):
        raise ValidationError(f"test fraction gamma must be in (0, 1), got {gamma!r}")
    if len(sources_a) != 3 or len(sources_b) != 3:
        raise ValidationError("each party needs exactly 3 source states")
    design_a = _checked_design(sources_a, party="A")
    design_b = design_a if sources_b is sources_a else _checked_design(sources_b, party="B")
    rhs = []
    for label_a in sources_a.labels:
        for label_b in sources_b.labels:
            key = (label_a, label_b)
            if key not in pair_yields:
                raise ValidationError(f"missing pair yield for {key!r}")
            rhs.append(pair_yields[key] / _pair_weight(label_a, label_b, gamma))
    design = np.kron(design_a, design_b)
    coeffs = _svd_solve(design, _svd_factor(design), np.array(rhs))
    functional = TwoQubitFunctional(q=coeffs.reshape(3, 3))
    x_rows = [basis_state(label).bloch().as_array(planar=True) for label in ("0x", "1x")]
    predicted = np.vstack([design_a, *x_rows]) @ functional.q @ np.vstack([design_b, *x_rows]).T
    if ((predicted < -NEGATIVITY_TOL) | (predicted > 1.0 + NEGATIVITY_TOL)).any():
        raise InconsistentYieldsError("two-qubit functional predicts unphysical product yields")
    return functional


def mdi_virtual_yields(
    functional: TwoQubitFunctional,
    ensemble_a: VirtualEnsemble,
    ensemble_b: VirtualEnsemble,
) -> np.ndarray:
    """``w_j w_k Y(j, k)`` for each pair of X-basis virtual states of both
    parties: the functional evaluated bilinearly on their products."""
    if ensemble_a.basis != "x" or ensemble_b.basis != "x":
        raise ValidationError("relay phase error uses X-basis virtual ensembles")
    rows_a, rows_b = (_bloch_rows(ensemble, planar=True) for ensemble in (ensemble_a, ensemble_b))
    return np.outer(ensemble_a.weights, ensemble_b.weights) * (rows_a @ functional.q @ rows_b.T)


def mdi_phase_error(
    functional: TwoQubitFunctional,
    ensemble_a: VirtualEnsemble,
    ensemble_b: VirtualEnsemble,
    *,
    negativity_tol: float = NEGATIVITY_TOL,
) -> float:
    """Phase error rate of the relay scheme from the solved two-party rates:
    :func:`error_rate` of :func:`mdi_virtual_yields` (errors are the
    anti-correlated bit pairs)."""
    return error_rate(
        mdi_virtual_yields(functional, ensemble_a, ensemble_b), negativity_tol=negativity_tol
    )
