"""Qubit states, Pauli/Bloch algebra, and source/virtual-state construction.

Everything here is plain 2x2 complex linear algebra.  States are immutable;
all functions are pure and safe to call concurrently.

Conventions
-----------
* The computational basis is the Z basis, ``|0z>, |1z>``, with
  ``|jx> = (|0z> + (-1)^j |1z>)/sqrt(2)`` and
  ``|jy> = (|0z> + (-1)^j i |1z>)/sqrt(2)``.
* Pure-state amplitudes are globally rephased so that the first
  non-negligible component is real and non-negative.  Observable quantities
  never depend on this choice; it only makes amplitude-level tests
  deterministic.
* A phase-encoded signal with nominal phase ``theta`` and relative
  modulation error ``delta`` carries the effective phase
  ``theta * (1 + delta/pi)``.  The Z basis is chosen so that the zero-phase
  signal is exactly ``|0z>`` and the pi-phase signal is
  ``sin(delta/2)|0z> + cos(delta/2)|1z>``.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

ATOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

#: Pauli operators keyed by the coefficient names used throughout.
PAULI = {"id": ID2, "x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

_SQ2 = math.sqrt(2.0)
_KETS = {
    "0z": np.array([1.0, 0.0], dtype=complex),
    "1z": np.array([0.0, 1.0], dtype=complex),
    "0x": np.array([1.0 / _SQ2, 1.0 / _SQ2], dtype=complex),
    "1x": np.array([1.0 / _SQ2, -1.0 / _SQ2], dtype=complex),
    "0y": np.array([1.0 / _SQ2, 1.0j / _SQ2], dtype=complex),
    "1y": np.array([1.0 / _SQ2, -1.0j / _SQ2], dtype=complex),
}


def _fix_phase(vec: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Rephase ``vec`` so its first non-negligible component is real >= 0."""
    for comp in vec:
        if abs(comp) > tol:
            return vec * (comp.conjugate() / abs(comp))
    return vec


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class QubitState:
    """A qubit state stored as a 2x2 density matrix (mixed states allowed).

    Attributes:
        density: 2x2 Hermitian PSD matrix with unit trace.
        ket: the amplitude vector when the state was built from amplitudes,
            else ``None``.  Global phase is fixed (first component real >= 0).
    """

    density: np.ndarray
    ket: np.ndarray | None = None

    def __post_init__(self) -> None:
        rho = np.asarray(self.density, dtype=complex)
        if rho.shape != (2, 2):
            raise ValidationError(f"density must be 2x2, got {rho.shape}")
        # the entries as Python scalars: NumPy's per-call cost dwarfs 2x2 arithmetic
        (r00, r01), (r10, r11) = rho.tolist()
        if not all(map(cmath.isfinite, (r00, r01, r10, r11))):
            raise ValidationError("density contains non-finite entries")
        # max |rho - rho^H|; the (1, 0) entry mirrors the (0, 1) one
        try:
            skew = max(abs(r00 - r00.conjugate()), abs(r01 - r10.conjugate()),
                       abs(r11 - r11.conjugate()))
        except OverflowError:  # abs() of a complex raises where NumPy's gives inf
            skew = math.inf
        if skew > ATOL:
            raise ValidationError("density is not Hermitian within 1e-12")
        trace = r00 + r11
        if abs(trace.real - 1.0) > ATOL or abs(trace.imag) > ATOL:
            raise ValidationError("density trace differs from 1 by more than 1e-12")
        evals = np.linalg.eigvalsh(rho)  # ascending
        if evals[0] < -ATOL or evals[-1] > 1.0 + ATOL:
            raise ValidationError("density eigenvalues outside [0, 1] beyond 1e-12")
        object.__setattr__(self, "density", _frozen(rho))
        if self.ket is not None:
            object.__setattr__(self, "ket", _frozen(np.asarray(self.ket, dtype=complex)))

    @classmethod
    def from_amplitudes(cls, a0: complex, a1: complex) -> "QubitState":
        """Build a pure state from Z-basis amplitudes (must be normalized)."""
        vec = np.array([a0, a1], dtype=complex)
        norm2 = float(np.vdot(vec, vec).real)
        if abs(norm2 - 1.0) > ATOL:
            raise ValidationError(f"amplitudes have squared norm {norm2!r}, expected 1")
        vec = _fix_phase(vec)
        return cls(density=np.outer(vec, vec.conj()), ket=vec)

    @classmethod
    def from_density(cls, rho: np.ndarray) -> "QubitState":
        """Build a (possibly mixed) state from a density matrix."""
        return cls(density=rho)

    @functools.cached_property
    def _bloch(self) -> "BlochVector":
        return pauli_decompose(self)

    def bloch(self) -> "BlochVector":
        """The Bloch vector, decomposed on first use and kept: the state is frozen."""
        return self._bloch


@dataclass(frozen=True)
class BlochVector:
    """Pauli-expansion coefficients ``(v0, px, py, pz)`` of a qubit state.

    ``v0`` is the identity coefficient and equals 1 for a normalized state;
    the remaining components obey ``px^2 + py^2 + pz^2 <= 1``.
    """

    v0: float
    px: float
    py: float
    pz: float

    def __post_init__(self) -> None:
        comps = (self.v0, self.px, self.py, self.pz)
        if not all(math.isfinite(c) for c in comps):
            raise ValidationError("Bloch components must be finite")
        if abs(self.v0 - 1.0) > ATOL:
            raise ValidationError(f"identity coefficient must be 1, got {self.v0!r}")
        if self.norm2 > 1.0 + ATOL:
            raise ValidationError("Bloch vector lies outside the unit ball")

    @property
    def norm2(self) -> float:
        try:
            return self.px**2 + self.py**2 + self.pz**2
        except OverflowError:  # ** raises on a square past 1.8e308, where NumPy's gives inf
            return math.inf

    @property
    def is_planar(self) -> bool:
        """True when the state lies in the X-Z plane."""
        return abs(self.py) <= 1e-9

    def as_array(self, planar: bool = False) -> np.ndarray:
        if planar:
            return np.array([self.v0, self.px, self.pz])
        return np.array([self.v0, self.px, self.py, self.pz])


def basis_state(label: str) -> QubitState:
    """Return the canonical eigenstate for one of ``0z,1z,0x,1x,0y,1y``.

    Each is built on first use and then shared: a :class:`QubitState` is
    immutable.
    """
    if label not in _KETS:
        raise ValidationError(f"unknown basis-state label {label!r}")
    return _canonical_state(label)


@functools.cache  # one entry per key of _KETS
def _canonical_state(label: str) -> QubitState:
    vec = _KETS[label]
    return QubitState.from_amplitudes(vec[0], vec[1])


def pauli_decompose(state: QubitState) -> BlochVector:
    """Decompose a state as ``rho = (v0*Id + px*sx + py*sy + pz*sz)/2``.

    Reads ``Tr(rho sigma)`` off the density entries: the Pauli entries are
    exactly 0, +-1 and +-i, so this gives the bits of the matrix products.
    The ``+ 0.0`` turns a -0.0 into 0.0, as the products' zero terms do.
    """
    (r00, r01), (r10, r11) = state.density.tolist()
    return BlochVector(
        v0=r00.real + r11.real,
        px=r01.real + r10.real + 0.0,
        py=r10.imag - r01.imag + 0.0,
        pz=r00.real - r11.real,
    )


def bloch_to_density(bloch: BlochVector) -> QubitState:
    """Inverse of :func:`pauli_decompose`."""
    rho = 0.5 * (
        bloch.v0 * ID2 + bloch.px * SIGMA_X + bloch.py * SIGMA_Y + bloch.pz * SIGMA_Z
    )
    return QubitState.from_density(rho)


def encode_single_photon(theta_a: float, delta: float) -> QubitState:
    """Single-photon qubit for a phase-encoded signal with modulation error.

    Args:
        theta_a: nominal encoding phase; the protocol uses ``0, pi/2, pi``
            but any value is accepted.
        delta: relative phase modulation error, ``>= 0``.  The effective
            phase is ``theta_a * (1 + delta/pi)``.

    Returns:
        The encoded pure state.  ``theta_a = 0`` gives exactly ``|0z>``;
        ``theta_a = pi`` gives ``sin(delta/2)|0z> + cos(delta/2)|1z>``.
    """
    if not math.isfinite(theta_a):
        raise ValidationError("theta_a must be finite")
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValidationError(f"delta must be >= 0, got {delta!r}")
    theta = theta_a * (1.0 + delta / math.pi)
    return QubitState.from_amplitudes(math.cos(theta / 2.0), -math.sin(theta / 2.0))


@dataclass(frozen=True)
class SourceSet:
    """The states a party can send: ``(label, state, prior)`` triples."""

    entries: tuple[tuple[str, QubitState, float], ...]

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        labels = [label for label, _, _ in entries]
        if len(set(labels)) != len(labels):
            raise ValidationError("source labels must be unique")
        priors = [prior for _, _, prior in entries]
        if any(p <= 0.0 for p in priors):
            raise ValidationError("every source prior must be > 0")
        if abs(sum(priors) - 1.0) > ATOL:
            raise ValidationError("source priors must sum to 1 within 1e-12")

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _, _ in self.entries)

    def state(self, label: str) -> QubitState:
        for lab, state, _ in self.entries:
            if lab == label:
                return state
        raise ValidationError(f"no source labelled {label!r}")

    def prior(self, label: str) -> float:
        for lab, _, prior in self.entries:
            if lab == label:
                return prior
        raise ValidationError(f"no source labelled {label!r}")

    def blochs(self) -> list[BlochVector]:
        return [state.bloch() for _, state, _ in self.entries]


def _canonical_sources(labels: tuple[str, ...]) -> SourceSet:
    prior = 1.0 / len(labels)
    return SourceSet(entries=tuple((label, basis_state(label), prior) for label in labels))


def three_state_sources() -> SourceSet:
    """Perfect three-state sources ``{|0z>, |1z>, |0x>}`` with uniform priors."""
    return _canonical_sources(("0z", "1z", "0x"))


def four_state_sources() -> SourceSet:
    """Perfect four-state sources whose Bloch points span a triangular pyramid."""
    return _canonical_sources(("0z", "1z", "0x", "0y"))


def modulated_three_state_sources(delta: float) -> SourceSet:
    """Three-state sources with phase modulation error ``delta``.

    The Z pair is ``encode(0), encode(pi)``; the test signal is
    ``encode(pi/2)``, which in this frame sits on the ``-x`` side of the
    Bloch sphere and is therefore labelled ``1x``.  All three states lie in
    the X-Z plane.
    """
    third = 1.0 / 3.0
    return SourceSet(
        entries=(
            ("0z", encode_single_photon(0.0, delta), third),
            ("1z", encode_single_photon(math.pi, delta), third),
            ("1x", encode_single_photon(math.pi / 2.0, delta), third),
        )
    )


@dataclass(frozen=True)
class VirtualEnsemble:
    """The weighted virtual states Alice effectively emits in one basis.

    ``entries[j]`` is ``(P(j), state_j)`` for virtual bit ``j`` in the tagged
    basis; the weights sum to 1.
    """

    basis: str
    entries: tuple[tuple[float, QubitState], ...]

    def __post_init__(self) -> None:
        if self.basis not in ("x", "y"):
            raise ValidationError(f"ensemble basis must be 'x' or 'y', got {self.basis!r}")
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        weights = [w for w, _ in entries]
        if any(w < 0.0 for w in weights):
            raise ValidationError("ensemble weights must be non-negative")
        if abs(sum(weights) - 1.0) > ATOL:
            raise ValidationError("ensemble weights must sum to 1 within 1e-12")

    @property
    def weights(self) -> tuple[float, ...]:
        return tuple(w for w, _ in self.entries)

    @property
    def states(self) -> tuple[QubitState, ...]:
        return tuple(s for _, s in self.entries)


def virtual_amplitudes(delta: float) -> np.ndarray:
    """X-basis amplitudes ``C[i, j] = <i_x | virtual state j>`` at error ``delta``.

    Columns are normalized; at ``delta = 0`` the matrix is the identity.
    """
    # within about 2e-8 of pi, sin(delta/2) rounds to 1 and the second column to 0/0
    if not (math.isfinite(delta) and 0.0 <= delta < math.pi and math.sin(delta / 2.0) < 1.0):
        raise ValidationError(f"delta must be in [0, pi) with sin(delta/2) < 1, got {delta!r}")
    s = math.sin(delta / 2.0)
    c = math.cos(delta / 2.0)
    rp = 2.0 * math.sqrt(1.0 + s)
    rm = 2.0 * math.sqrt(1.0 - s)
    return np.array(
        [
            [(1.0 + s + c) / rp, (1.0 - s - c) / rm],
            [(1.0 + s - c) / rp, (1.0 - s + c) / rm],
        ]
    )


def virtual_priors(delta: float) -> np.ndarray:
    """Weights ``P(j_x) = [1 + (-1)^j sin(delta/2)]/2`` of the virtual states."""
    s = math.sin(delta / 2.0)
    return np.array([(1.0 + s) / 2.0, (1.0 - s) / 2.0])


def virtual_states_planar(delta: float) -> VirtualEnsemble:
    """Closed-form X-basis virtual ensemble of the modulated Z pair.

    Weights are :func:`virtual_priors`; the states are given by
    :func:`virtual_amplitudes`.  Equivalent to
    :func:`virtual_states_from_purification` on
    ``(encode(0, delta), encode(pi, delta))``.
    """
    coeffs = virtual_amplitudes(delta)
    entries = []
    for j, weight in enumerate(virtual_priors(delta).tolist()):
        # X-basis amplitudes -> Z-basis amplitudes
        a0 = (coeffs[0, j] + coeffs[1, j]) / _SQ2
        a1 = (coeffs[0, j] - coeffs[1, j]) / _SQ2
        entries.append((weight, QubitState.from_amplitudes(a0, a1)))
    return VirtualEnsemble(basis="x", entries=tuple(entries))


def virtual_states_from_purification(
    rho_0z: QubitState,
    rho_1z: QubitState,
    basis: str = "x",
) -> VirtualEnsemble:
    """Virtual ensemble of a general (possibly mixed) Z pair.

    Builds the entangled source state over (key qubit A, shield, B) from
    purifications of the two inputs, projects A onto the ``basis``
    eigenstates, and traces out A and the shield.

    Each input is purified over (shield, system) from one stacked ``eigh``:
    shield row ``i`` is ``sqrt(lambda_i) * v_i`` in eigenvalue-descending
    order with phase-fixed eigenvectors, so the purification is
    deterministic.  Both are zero-padded to the larger rank, not to 2: a
    pure pair's shield sums then keep their one term, and their bits.

    Returns:
        Ensemble ``{(w_j, normalized virtual state j)}`` with
        ``w_j = Tr(unnormalized virtual state j)``.
    """
    if basis not in ("x", "y"):
        raise ValidationError(f"basis must be 'x' or 'y', got {basis!r}")
    # eigh sorts each input's eigenvalues ascending; reversed, they descend
    evals, evecs = np.linalg.eigh(np.stack([rho_0z.density, rho_1z.density]))
    evals, evecs = np.clip(evals[:, ::-1], 0.0, None), evecs[:, :, ::-1]
    ranks = np.maximum(1, np.sum(evals > ATOL, axis=1)).tolist()
    phi = np.zeros((2, max(ranks), 2), dtype=complex)  # (input, shield, system)
    for k, rank in enumerate(ranks):
        for i in range(rank):
            phi[k, i] = np.sqrt(evals[k, i]) * _fix_phase(evecs[k, :, i])
    # <j_basis | j'_z> overlap coefficients of the A projection, one per virtual bit j
    coeff = np.array([1.0, -1.0]) if basis == "x" else np.array([-1.0j, 1.0j])
    psi = (phi[0] + coeff[:, None, None] * phi[1]) / 2.0  # (j, shield, B) amplitudes
    sigma = np.swapaxes(psi, 1, 2) @ psi.conj()  # partial trace over the shield
    weights = sigma[:, 0, 0].real + sigma[:, 1, 1].real
    if weights.min() <= ATOL:
        raise ValidationError("virtual state has zero weight; degenerate source")
    entries = [(w, QubitState.from_density(s / w)) for w, s in zip(weights.tolist(), sigma)]
    return VirtualEnsemble(basis=basis, entries=tuple(entries))
