"""Independent reference computations for the benchmark's output checks.

Written in plain NumPy from the formulas in PAPER.md and qkdkit's module
docstrings; nothing here imports qkdkit.  Every workload checks the
program's printed or written numbers against these functions, or against a
property the method must have, never against stored output.

Covered:
  * the analytic fiber model: gain, bit error rate, single-photon gain,
    single-photon phase error rate and the asymptotic key rate, vectorized
    over distance and intensity;
  * dark-count mixing of per-cell outcome probabilities;
  * trace-formula yields ``P(label) P(basis) Tr(E(rho) M)``;
  * virtual states from the purification formula;
  * phase error rates as trace ratios, single-party and two-party.
"""

from __future__ import annotations

import numpy as np

SQ2 = np.sqrt(2.0)
KETS = {
    "0z": np.array([1.0, 0.0], dtype=complex),
    "1z": np.array([0.0, 1.0], dtype=complex),
    "0x": np.array([1.0, 1.0], dtype=complex) / SQ2,
    "1x": np.array([1.0, -1.0], dtype=complex) / SQ2,
    "0y": np.array([1.0, 1.0j], dtype=complex) / SQ2,
    "1y": np.array([1.0, -1.0j], dtype=complex) / SQ2,
}
ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PLANAR_PAULIS = (ID2, SX, SZ)

# Defaults of the reference scenario (README "CLI" section).
DARK_COUNT = 0.5e-7
DET_EFF = 0.15
ATTEN_DB_PER_KM = 0.21
F_EC = 1.22


def projector(ket: np.ndarray) -> np.ndarray:
    return np.outer(ket, ket.conj())


def density(px: float, py: float, pz: float) -> np.ndarray:
    """``rho = (I + px X + py Y + pz Z) / 2``."""
    return 0.5 * (ID2 + px * SX + py * SY + pz * SZ)


def bloch(rho: np.ndarray) -> tuple[float, float, float]:
    return tuple(float(np.trace(rho @ s).real) for s in (SX, SY, SZ))


def encode(theta_a: float, delta: float) -> np.ndarray:
    """Phase-encoded single photon with effective phase ``theta_a (1 + delta/pi)``.

    Returned as a ket with the first non-negligible amplitude real >= 0.
    """
    theta = theta_a * (1.0 + delta / np.pi)
    return _fix_phase(np.array([np.cos(theta / 2.0), -np.sin(theta / 2.0)], dtype=complex))


def _fix_phase(vec: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    for comp in vec:
        if abs(comp) > tol:
            return vec * (np.conj(comp) / abs(comp))
    return vec


def binary_entropy(x):
    """``h(x)`` in bits with ``h(0) = h(1) = 0``."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(x > 0.0, -x * np.log2(np.where(x > 0.0, x, 1.0)), 0.0)
        terms = terms + np.where(
            x < 1.0, -(1.0 - x) * np.log2(np.where(x < 1.0, 1.0 - x, 1.0)), 0.0
        )
    return terms


# --------------------------------------------------------------------------
# Virtual states (purification formula) and trace formulas


def purification(rho: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Rows ``sqrt(lambda_i) v_i`` over the shield, eigenvalues descending.

    Eigenvectors carry the phase convention of the source states (first
    non-negligible component real and non-negative), so the shield pairing
    between two purified states is deterministic.
    """
    evals, evecs = np.linalg.eigh(rho)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    rank = max(1, int(np.sum(evals > atol)))
    return np.array([np.sqrt(evals[i]) * _fix_phase(evecs[:, i]) for i in range(rank)])


def virtual_states(rho_0z: np.ndarray, rho_1z: np.ndarray, basis: str = "x"):
    """Virtual ensemble of a Z pair: ``(weights (2,), states (2, 2, 2))``.

    The source emits ``(|0>_A |phi_0> + |1>_A |phi_1>) / sqrt(2)`` with
    ``phi_k`` a purification of ``rho_k`` over (shield, B).  Projecting A on
    ``<j_basis|`` leaves ``(phi_0 + c_j phi_1) / 2`` with ``c_j = (-1)^j``
    (X) or ``(-1)^j (-i)`` (Y); tracing out the shield gives the virtual
    state, whose trace is its weight.
    """
    phi0, phi1 = purification(rho_0z), purification(rho_1z)
    dim = max(len(phi0), len(phi1))
    phi0 = np.vstack([phi0, np.zeros((dim - len(phi0), 2))])
    phi1 = np.vstack([phi1, np.zeros((dim - len(phi1), 2))])
    weights, states = [], []
    for j in (0, 1):
        coeff = (-1.0) ** j * (1.0 if basis == "x" else -1.0j)
        psi = (phi0 + coeff * phi1) / 2.0
        sigma = psi.T @ psi.conj()
        weight = float(np.trace(sigma).real)
        weights.append(weight)
        states.append(sigma / weight)
    return np.array(weights), np.array(states)


def fiber_virtual_amplitudes(theta: float) -> np.ndarray:
    """X-basis amplitudes ``C[i, j] = <i_x | v_j>`` of the modulated Z pair.

    ``v_j`` are the virtual states of ``encode(0, theta)`` and
    ``encode(pi, theta)`` by the purification formula; pure states are their
    own purifications, so ``v_j`` is ``(psi_0 + (-1)^j psi_1) / 2``
    normalized, with no eigendecomposition rounding.
    """
    psi0, psi1 = encode(0.0, theta), encode(np.pi, theta)
    out = np.empty((2, 2))
    for j in (0, 1):
        v = (psi0 + (-1.0) ** j * psi1) / 2.0
        v = v / np.linalg.norm(v)
        for i, label in enumerate(("0x", "1x")):
            out[i, j] = float((KETS[label].conj() @ v).real)
    return out


def apply_channel(kraus, rho: np.ndarray) -> np.ndarray:
    return sum(a @ rho @ a.conj().T for a in kraus)


def trace_yield(kraus, rho: np.ndarray, element: np.ndarray) -> float:
    """Conditional yield ``Tr(E(rho) M)``."""
    return float(np.trace(apply_channel(kraus, rho) @ element).real)


def effect(kraus, element: np.ndarray) -> np.ndarray:
    """Heisenberg-picture effect ``D = sum_k A_k^+ M A_k``."""
    return sum(a.conj().T @ element @ a for a in kraus)


def transmission_rates(kraus, element: np.ndarray, planar: bool) -> dict[str, float]:
    """Pauli transmission rates ``q_t = Tr(D sigma_t) / 2``."""
    d = effect(kraus, element)
    names = ("id", "x", "z") if planar else ("id", "x", "y", "z")
    ops = {"id": ID2, "x": SX, "y": SY, "z": SZ}
    return {t: float(np.trace(d @ ops[t]).real) / 2.0 for t in names}


def phase_error_ratio(kraus, x_elements, weights, states) -> float:
    """Phase error rate of a virtual X ensemble as a trace ratio.

    Errors are detections where Bob's X outcome differs from the virtual bit.
    """
    m0, m1 = x_elements
    num = sum(w * trace_yield(kraus, s, (m1, m0)[j]) for j, (w, s) in enumerate(zip(weights, states)))
    den = sum(w * trace_yield(kraus, s, m0 + m1) for w, s in zip(weights, states))
    return num / den


def pair_rates(d: np.ndarray) -> np.ndarray:
    """Two-party rates ``q[s, t] = Tr(D sigma_s (x) sigma_t) / 4`` over (id, x, z)."""
    return np.array(
        [[float(np.trace(d @ np.kron(a, b)).real) / 4.0 for b in PLANAR_PAULIS] for a in PLANAR_PAULIS]
    )


def pair_virtual_yields(d: np.ndarray) -> np.ndarray:
    """Joint ``w_j w_k Tr(D (|jx><jx| (x) |kx><kx|)) / 9`` of the relay X products."""
    out = np.empty((2, 2))
    for j, lj in enumerate(("0x", "1x")):
        for k, lk in enumerate(("0x", "1x")):
            rho = np.kron(projector(KETS[lj]), projector(KETS[lk]))
            out[j, k] = 0.25 * float(np.trace(d @ rho).real) / 9.0
    return out


def pair_phase_error(d: np.ndarray) -> float:
    table = pair_virtual_yields(d)
    return float(table[0, 1] + table[1, 0]) / float(table.sum())


# --------------------------------------------------------------------------
# Analytic fiber model


def dark_count_mix(p0, p1, e_d: float):
    """Mixed conclusive probabilities and the remainder ``(m0, m1, m_f)``.

    ``m_s = p_s (1 - e_d/2) + e_d (1 - e_d/2) + p_{1-s} e_d``: a transmitted
    click survives unless a dark count in the other detector makes a double
    click that is assigned the other bit, the empty detector fires by dark
    count, and half of the double clicks go to each bit.
    """
    m0 = p0 * (1.0 - e_d / 2.0) + e_d * (1.0 - e_d / 2.0) + p1 * e_d
    m1 = p1 * (1.0 - e_d / 2.0) + e_d * (1.0 - e_d / 2.0) + p0 * e_d
    return m0, m1, 1.0 - m0 - m1


def transmittance(distance, det_eff=DET_EFF, atten=ATTEN_DB_PER_KM):
    return det_eff * 10.0 ** (-atten * np.asarray(distance, dtype=float) / 10.0)


def fiber_stats(distance, delta: float, alpha, dark_count=DARK_COUNT, det_eff=DET_EFF,
                atten=ATTEN_DB_PER_KM) -> dict[str, np.ndarray]:
    """``Q_z, e_z, Q_z1, e_x1`` of the fiber model; broadcasts distance and alpha."""
    t = transmittance(distance, det_eff, atten)
    alpha = np.asarray(alpha, dtype=float)
    e_d = dark_count
    # single photon: virtual state j clicks detector s with T C[s, j]^2 (3 delta / 2)
    c2 = fiber_virtual_amplitudes(1.5 * delta) ** 2
    t_ = t[..., None, None]
    y = t_ * c2 * (1.0 - e_d / 2.0) + e_d * (1.0 - e_d / 2.0) + t_ * c2[::-1, :] * e_d
    e_x1 = (y[..., 1, 0] + y[..., 0, 1]) / y.sum(axis=(-2, -1))
    s = np.sin(delta / 2.0)
    prior = np.array([(1.0 + s) / 2.0, (1.0 - s) / 2.0])
    weighted = (y * prior).sum(axis=(-2, -1))
    q_z1 = 0.5 * np.exp(-2.0 * alpha) * alpha * weighted
    # Z basis: threshold detectors, double clicks assigned a random bit.  A
    # detector seeing mean photon number m clicks with 1 - exp(-m), taken as
    # -expm1(-m) so that small m (long fiber, small delta) keeps full precision.
    signal = alpha * t
    p00 = e_d + (1.0 - e_d) * -np.expm1(-signal)
    p10 = e_d + 0.0 * signal
    p01 = e_d + (1.0 - e_d) * -np.expm1(-signal * np.sin(delta / 2.0) ** 2)
    p11 = e_d + (1.0 - e_d) * -np.expm1(-signal * np.cos(delta / 2.0) ** 2)
    gain = 0.5 * (p00 + p10 - p00 * p10) + 0.5 * (p01 + p11 - p01 * p11)
    wrong = 0.5 * ((1.0 - p00) * p10 + 0.5 * p00 * p10) + 0.5 * (p01 * (1.0 - p11) + 0.5 * p01 * p11)
    return {"Q_z": gain, "e_z": wrong / gain, "Q_z1": q_z1, "e_x1": e_x1 + 0.0 * q_z1}


def key_rate(stats: dict[str, np.ndarray], f_ec: float = F_EC) -> np.ndarray:
    """``R = max(0, (Q_z1 (1 - h(e_x1)) - f_ec Q_z h(e_z)) / 2)``."""
    gain_term = stats["Q_z1"] * (1.0 - binary_entropy(stats["e_x1"]))
    cost_term = f_ec * stats["Q_z"] * binary_entropy(stats["e_z"])
    return np.maximum(0.5 * (gain_term - cost_term), 0.0)


def fiber_cell_probs(distance: float, delta: float, dark_count=DARK_COUNT, det_eff=DET_EFF,
                     atten=ATTEN_DB_PER_KM) -> dict[tuple[str, str, object], float]:
    """Joint cell probabilities of the fiber model's event-level protocol.

    Perfect three-state sources with priors 1/3, bases with probability 1/2,
    a uniform-loss channel, and an X measurement whose arrival click
    probabilities on the virtual states equal ``C[s, j]^2``: its outcome-0
    vector has X-basis amplitudes ``C[:, 0]``.  Dark counts enter by
    :func:`dark_count_mix`.  Keys are ``(label, basis, outcome)`` with
    outcome 0, 1 or ``"f"``.
    """
    t = float(transmittance(distance, det_eff, atten))
    kraus = [np.sqrt(t) * ID2]
    c = fiber_virtual_amplitudes(1.5 * delta)
    m0 = c[0, 0] * KETS["0x"] + c[1, 0] * KETS["1x"]
    m1 = -c[1, 0] * KETS["0x"] + c[0, 0] * KETS["1x"]
    elements = {"x": (projector(m0), projector(m1)), "z": (projector(KETS["0z"]), projector(KETS["1z"]))}
    out = {}
    for label in ("0z", "1z", "0x"):
        rho = projector(KETS[label])
        for basis, (e0, e1) in elements.items():
            cells = dark_count_mix(trace_yield(kraus, rho, e0), trace_yield(kraus, rho, e1), dark_count)
            for outcome, p in zip((0, 1, "f"), cells):
                out[label, basis, outcome] = p / 6.0
    return out
