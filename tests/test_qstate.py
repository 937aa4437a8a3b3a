import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdkit.errors import ValidationError
from qkdkit.qstate import (
    ATOL,
    PAULI,
    BlochVector,
    QubitState,
    SourceSet,
    VirtualEnsemble,
    basis_state,
    bloch_to_density,
    canonical_sources,
    encode_single_photon,
    four_state_sources,
    modulated_three_state_sources,
    pauli_decompose,
    three_state_sources,
    virtual_amplitudes,
    virtual_states_from_purification,
    virtual_states_planar,
    _eigvalsh_2x2,
    _fix_phase,
)


def random_pure(theta, phi):
    return QubitState.from_amplitudes(
        math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))
    )


class TestPauliDecompose:
    def test_z_pole(self):
        b = pauli_decompose(basis_state("0z"))
        assert np.allclose(b.as_array(), [1, 0, 0, 1], atol=1e-12)

    def test_x_pole(self):
        b = pauli_decompose(basis_state("0x"))
        assert np.allclose(b.as_array(), [1, 1, 0, 0], atol=1e-12)

    def test_y_pole(self):
        b = pauli_decompose(basis_state("1y"))
        assert np.allclose(b.as_array(), [1, 0, -1, 0], atol=1e-12)

    @settings(max_examples=100)
    @given(
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
    )
    def test_round_trip_pure(self, theta, phi):
        state = random_pure(theta, phi)
        back = bloch_to_density(pauli_decompose(state))
        assert np.abs(back.density - state.density).max() <= 1e-12

    @settings(max_examples=50)
    @given(
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        weight=st.floats(0.0, 1.0),
    )
    def test_round_trip_mixed(self, theta, phi, weight):
        rho = weight * random_pure(theta, phi).density + (1 - weight) * basis_state("0y").density
        state = QubitState.from_density(rho)
        back = bloch_to_density(pauli_decompose(state))
        assert np.abs(back.density - state.density).max() <= 1e-12

    @settings(max_examples=200)
    @given(
        theta=st.floats(0.0, math.pi),
        phi=st.floats(0.0, 2.0 * math.pi),
        weight=st.floats(0.0, 1.0),
        label=st.sampled_from(["0z", "1z", "0x", "1x", "0y", "1y"]),
        delta=st.floats(0.0, 2.0),
    )
    def test_closed_form_equals_trace_formula(self, theta, phi, weight, label, delta):
        # the entries read off the density are the bits of Tr(rho sigma), sign of zero included
        pure = random_pure(theta, phi)
        mixed = QubitState.from_density(
            weight * pure.density + (1 - weight) * basis_state(label).density)
        modulated = modulated_three_state_sources(delta).entries
        for state in (pure, mixed, basis_state(label), *(s for _, s, _ in modulated)):
            traces = [float(np.trace(state.density @ PAULI[k]).real) for k in PAULI]
            closed = pauli_decompose(state).as_array().tolist()
            assert closed == traces
            assert [math.copysign(1.0, v) for v in closed] == \
                [math.copysign(1.0, v) for v in traces]

    def test_bloch_is_computed_once(self):
        state = random_pure(0.3, 1.1)
        assert state.bloch() is state.bloch()
        assert state.bloch() == pauli_decompose(state)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            QubitState.from_density(np.array([[0.5, 0.5j], [0.5j, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            QubitState.from_density(np.diag([0.7, 0.6]))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError):
            QubitState.from_density(np.diag([1.2, -0.2]))

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValidationError):
            QubitState.from_amplitudes(1.0, 1.0)


NOT_2X2 = "density must be 2x2"
NON_FINITE = "density contains non-finite entries"
NOT_HERMITIAN = "density is not Hermitian within 1e-12"
BAD_TRACE = "density trace differs from 1 by more than 1e-12"
BAD_EIGENVALUES = r"density eigenvalues outside \[0, 1\] beyond 1e-12"


class TestStateChecks:
    """Each check of ``QubitState`` decides at its tolerance, in a fixed order."""

    @pytest.mark.parametrize("rho, message", [
        (np.eye(3) / 3.0, NOT_2X2),
        (np.array([0.5, 0.5]), NOT_2X2),
        ([[math.nan, 0.0], [0.0, 1.0]], NON_FINITE),
        ([[0.5, 0.0], [complex(0.0, math.inf), 0.5]], NON_FINITE),
        ([[1.0, math.inf], [math.inf, 0.0]], NON_FINITE),
        ([[0.5, 2e-12], [0.0, 0.5]], NOT_HERMITIAN),
        ([[0.5, 0.5j], [0.5j, 0.5]], NOT_HERMITIAN),
        (np.diag([0.5, 0.5 + 2e-12]), BAD_TRACE),
        (np.diag([0.7, 0.6]), BAD_TRACE),
        # an imaginary diagonal beyond the trace tolerance is never Hermitian within
        # 1e-12, so the Hermitian check, which runs first, rejects it
        (np.diag([0.5 + 1e-12j, 0.5 + 1e-12j]), NOT_HERMITIAN),
        (np.diag([0.5 + 1e-12j, 0.5]), NOT_HERMITIAN),
        (np.diag([0.5, 0.5 + 1e-12j]), NOT_HERMITIAN),
        (np.diag([1.2, -0.2]), BAD_EIGENVALUES),
        ([[0.5, 0.5 + 2e-12], [0.5 + 2e-12, 0.5]], BAD_EIGENVALUES),
        # a trace within 1e-12 with one eigenvalue beyond its bound and the other inside
        (np.diag([1.0 + 1.5e-12, -0.6e-12]), BAD_EIGENVALUES),
        (np.diag([1.0 + 0.6e-12, -1.5e-12]), BAD_EIGENVALUES),
        # a trace error is reported before the eigenvalues it also moves
        (np.diag([1.5, -0.2]), BAD_TRACE),
        # |rho - rho^H| overflows the float range from finite parts
        ([[0.5, 1.5e308 + 1.5e308j], [0.0, 0.5]], NOT_HERMITIAN),
    ])
    def test_rejected(self, rho, message):
        with pytest.raises(ValidationError, match=message):
            QubitState.from_density(np.asarray(rho))

    @pytest.mark.parametrize("rho", [
        [[0.5, 0.9e-12], [0.0, 0.5]],
        np.diag([0.5, 0.5 + 0.9e-12]),
        np.diag([0.5 + 0.5e-12j, 0.5 + 0.5e-12j]),
        [[0.5, 0.5 + 0.4e-12], [0.5 + 0.4e-12, 0.5]],
        np.diag([1.0 + 0.5e-12, -0.5e-12]),
        [[0.5, -0.5j], [0.5j, 0.5]],
    ])
    def test_accepted_inside_tolerance(self, rho):
        state = QubitState.from_density(np.asarray(rho))
        assert np.array_equal(state.density, np.asarray(rho, dtype=complex))
        assert not state.density.flags.writeable


#: a float in [-1, 1] on a grid of 2**-53, scaled by a power of two: exact and normal
SCALED = st.builds(lambda m, k: m / 2.0**53 * 2.0**k,
                   st.integers(-2**53, 2**53), st.integers(-40, 40))


class TestEigenvalues2x2:
    """The closed-form eigenvalues that every 2x2 check uses, against ``eigvalsh``
    and a 40-digit reference."""

    @settings(max_examples=300)
    @given(a=SCALED, d=SCALED, re=SCALED, im=SCALED,
           skew=st.tuples(*[st.floats(-1e-12, 1e-12)] * 4))
    def test_agrees_with_eigvalsh(self, a, d, re, im, skew):
        # Hermitian when ``skew`` is 0, else Hermitian only within 1e-12 of the
        # largest entry; each reads the lower triangle and the real diagonal
        big = max(abs(a), abs(d), abs(complex(re, im)))
        with mpmath.workdps(40):
            exact = mpmath.eighe(mpmath.matrix([[a, mpmath.mpc(re, -im)],
                                                [mpmath.mpc(re, im), d]]))[0]
            exact = sorted(float(x) for x in exact)
        up, imag_a, imag_d = complex(skew[0], skew[1]) * big, skew[2] * big, skew[3] * big
        for rho in ([[a, complex(re, -im)], [complex(re, im), d]],
                    [[complex(a, imag_a), complex(re, -im) + up],
                     [complex(re, im), complex(d, imag_d)]]):
            low, high = _eigvalsh_2x2(rho)
            expected = np.linalg.eigvalsh(np.array(rho, dtype=complex))
            # ulps of the largest entry: the helper within 2 of the exact values,
            # eigvalsh within 16 of the helper (eigvalsh itself was 9 off the
            # exact values on one example hypothesis found)
            assert max(abs(low - exact[0]), abs(high - exact[1])) <= 2 * np.spacing(big)
            assert max(abs(low - expected[0]), abs(high - expected[1])) <= 16 * np.spacing(big)

    @pytest.mark.parametrize("matrix, expected", [
        ([[0.5, 0.5], [0.5, 0.5]], (0.0, 1.0)),
        (np.diag([0.25, -1.0]).tolist(), (-1.0, 0.25)),
        ([[0.0, -1j], [1j, 0.0]], (-1.0, 1.0)),
    ])
    def test_low_then_high(self, matrix, expected):
        assert _eigvalsh_2x2(matrix) == expected

    def test_density_past_the_float_range_rejected(self):
        # |b| overflows from finite parts and is read as inf; eigvalsh gave NaN
        # here, which passed both bounds
        with pytest.raises(ValidationError, match=BAD_EIGENVALUES):
            QubitState.from_density(np.array([[0.5, 1.5e308 - 1.5e308j],
                                              [1.5e308 + 1.5e308j, 0.5]]))


class TestBasisState:
    @pytest.mark.parametrize("label", ["0z", "1z", "0x", "1x", "0y", "1y"])
    def test_one_shared_read_only_state(self, label):
        state = basis_state(label)
        assert basis_state(label) is state
        assert state.bloch() is basis_state(label).bloch()
        for arr in (state.density, state.ket):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, ...] = 0.0
        with pytest.raises(AttributeError):
            state.density = np.eye(2)

    def test_unknown_label_raises_every_time(self):
        for _ in range(2):
            with pytest.raises(ValidationError, match="unknown basis-state label"):
                basis_state("2z")


class TestEncodeSinglePhoton:
    @pytest.mark.parametrize("delta", [0.0, 0.063, 0.126, 0.5])
    def test_zero_phase_is_z_pole(self, delta):
        state = encode_single_photon(0.0, delta)
        assert np.allclose(state.bloch().as_array(), [1, 0, 0, 1], atol=1e-12)

    def test_pi_without_error(self):
        state = encode_single_photon(math.pi, 0.0)
        assert np.abs(state.density - basis_state("1z").density).max() <= 1e-12

    def test_pi_with_error_matches_closed_form(self):
        delta = 0.126
        state = encode_single_photon(math.pi, delta)
        expected = QubitState.from_amplitudes(math.sin(delta / 2), math.cos(delta / 2))
        assert np.abs(state.density - expected.density).max() <= 1e-12
        assert abs(state.ket[0].real - math.sin(0.063)) <= 1e-12
        assert round(float(state.ket[0].real), 5) == 0.06296

    def test_negative_delta_rejected(self):
        with pytest.raises(ValidationError):
            encode_single_photon(0.0, -0.1)

    @pytest.mark.parametrize("delta", [0.0, 0.063, 0.3])
    def test_phase_composition_rule(self, delta):
        # encode(pi/2 + pi/2) must carry the composed phase theta*(1 + delta/pi)
        state = encode_single_photon(math.pi / 2 + math.pi / 2, delta)
        theta = math.pi * (1.0 + delta / math.pi)
        direct = QubitState.from_amplitudes(math.cos(theta / 2), -math.sin(theta / 2))
        assert np.abs(state.ket - direct.ket).max() <= 1e-12


class TestVirtualStates:
    def test_zero_error_is_identity(self):
        coeffs = virtual_amplitudes(0.0)
        assert np.allclose(coeffs, np.eye(2), atol=1e-15)
        ensemble = virtual_states_planar(0.0)
        assert ensemble.weights == (0.5, 0.5)
        assert np.abs(ensemble.states[0].density - basis_state("0x").density).max() <= 1e-12
        assert np.abs(ensemble.states[1].density - basis_state("1x").density).max() <= 1e-12

    @settings(max_examples=100)
    @given(delta=st.floats(0.0, 0.5))
    def test_columns_normalized(self, delta):
        coeffs = virtual_amplitudes(delta)
        norms = (coeffs**2).sum(axis=0)
        assert np.abs(norms - 1.0).max() <= 1e-12

    @pytest.mark.parametrize("delta", [math.pi, math.pi - 1e-8, 3.141592653589785])
    def test_delta_whose_sine_rounds_to_one_rejected(self, delta):
        # sin(delta/2) == 1.0 in double precision: the second column was 0/0
        with pytest.raises(ValidationError, match="delta must be in"):
            virtual_amplitudes(delta)

    @settings(max_examples=50)
    @given(delta=st.floats(0.0, 0.5))
    def test_ensemble_planar_and_normalized(self, delta):
        ensemble = virtual_states_planar(delta)
        assert abs(sum(ensemble.weights) - 1.0) <= 1e-12
        for state in ensemble.states:
            assert abs(state.bloch().py) <= 1e-12

    def test_weights_value(self):
        ensemble = virtual_states_planar(0.126)
        assert abs(ensemble.weights[0] - (1 + math.sin(0.063)) / 2) <= 1e-12
        assert round(ensemble.weights[0], 5) == 0.53148

    @pytest.mark.parametrize("delta", [0.0, 0.063, 0.126, 0.4])
    def test_purification_matches_planar_closed_form(self, delta):
        closed = virtual_states_planar(delta)
        derived = virtual_states_from_purification(
            encode_single_photon(0.0, delta),
            encode_single_photon(math.pi, delta),
            basis="x",
        )
        for (w1, s1), (w2, s2) in zip(closed.entries, derived.entries):
            assert abs(w1 - w2) <= 1e-12
            assert np.abs(s1.density - s2.density).max() <= 1e-12

    def test_perfect_source_x(self):
        ensemble = virtual_states_from_purification(
            basis_state("0z"), basis_state("1z"), basis="x"
        )
        assert np.allclose(ensemble.weights, [0.5, 0.5], atol=1e-12)
        assert np.abs(ensemble.states[0].density - basis_state("0x").density).max() <= 1e-12
        assert np.abs(ensemble.states[1].density - basis_state("1x").density).max() <= 1e-12

    def test_perfect_source_y(self):
        ensemble = virtual_states_from_purification(
            basis_state("0z"), basis_state("1z"), basis="y"
        )
        assert np.allclose(ensemble.weights, [0.5, 0.5], atol=1e-12)
        for state in ensemble.states:
            bloch = state.bloch()
            assert abs(abs(bloch.py) - 1.0) <= 1e-12
            assert abs(bloch.px) <= 1e-12 and abs(bloch.pz) <= 1e-12

    def test_mixed_inputs_reproduce_marginal(self):
        # averaging the weighted virtual states must return (rho0 + rho1)/2
        rho0 = QubitState.from_density(
            0.6 * basis_state("0z").density + 0.4 * basis_state("1x").density
        )
        rho1 = QubitState.from_density(
            0.8 * basis_state("1z").density + 0.2 * basis_state("0y").density
        )
        for basis in ("x", "y"):
            ensemble = virtual_states_from_purification(rho0, rho1, basis=basis)
            marginal = sum(w * s.density for (w, s) in ensemble.entries)
            assert np.abs(marginal - (rho0.density + rho1.density) / 2).max() <= 1e-12


def reference_purification(state):
    """The per-state purification, one ``eigh`` per input: the specification."""
    evals, evecs = np.linalg.eigh(state.density)
    order = np.argsort(evals)[::-1]
    evals = np.clip(evals[order], 0.0, None)
    evecs = evecs[:, order]
    rank = max(1, int(np.sum(evals > ATOL)))
    return np.array([np.sqrt(evals[i]) * _fix_phase(evecs[:, i]) for i in range(rank)])


def reference_virtual_states(rho_0z, rho_1z, basis):
    """``(weight, density)`` of each virtual bit, one projection per bit."""
    phi_a, phi_b = reference_purification(rho_0z), reference_purification(rho_1z)
    dim = max(phi_a.shape[0], phi_b.shape[0])
    phi_a, phi_b = (np.vstack([phi, np.zeros((dim - phi.shape[0], 2))])
                    for phi in (phi_a, phi_b))
    entries = []
    for j in (0, 1):
        coeff = (-1.0) ** j if basis == "x" else (-1.0) ** j * (-1.0j)
        psi = (phi_a + coeff * phi_b) / 2.0
        sigma = psi.T @ psi.conj()
        weight = float(np.trace(sigma).real)
        if weight <= ATOL:
            raise ValidationError("virtual state has zero weight; degenerate source")
        entries.append((weight, sigma / weight))
    return entries


def random_states(seed):
    """Pure, mixed, maximally mixed, near-pure and Bloch-built states of one seed."""
    rng = np.random.default_rng(seed)
    ket = rng.normal(size=2) + 1j * rng.normal(size=2)
    ket /= np.linalg.norm(ket)
    pure = QubitState.from_amplitudes(ket[0], ket[1])
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    rho = (rho + rho.conj().T) / (2.0 * np.trace(rho).real)
    mixed = QubitState.from_density(rho)
    # a tiny second eigenvalue, above or below the rank tolerance
    weight = 1.0 - 10.0 ** rng.uniform(-14.0, -10.0)
    near_pure = QubitState.from_density(
        weight * pure.density + (1.0 - weight) * basis_state("1y").density)
    direction = rng.normal(size=3)
    radius = rng.choice([1.0, rng.uniform(0.0, 1.0)])
    px, py, pz = radius * direction / np.linalg.norm(direction)
    bloch = bloch_to_density(BlochVector(v0=1.0, px=px, py=py, pz=pz))
    maximally_mixed = QubitState.from_density(np.eye(2) / 2.0)
    delta = rng.uniform(0.0, 1.0)
    modulated = [encode_single_photon(theta, delta) for theta in (0.0, math.pi)]
    return [pure, mixed, near_pure, bloch, maximally_mixed, *modulated]


class TestStackedPurification:
    """The stacked purification equals the per-state one bit for bit."""

    @pytest.mark.parametrize("basis", ["x", "y"])
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_reference(self, seed, basis):
        states = random_states(seed)
        labels = ["0z", "1z", "0x", "1x", "0y", "1y"]
        others = random_states(seed + 1000) + [basis_state(lab) for lab in labels]
        for rho_0z in states + [basis_state(labels[seed % 6])]:
            for rho_1z in others:
                try:
                    reference = reference_virtual_states(rho_0z, rho_1z, basis)
                except ValidationError as exc:
                    with pytest.raises(ValidationError, match=str(exc)):
                        virtual_states_from_purification(rho_0z, rho_1z, basis=basis)
                    continue
                ensemble = virtual_states_from_purification(rho_0z, rho_1z, basis=basis)
                assert ensemble.basis == basis
                for (weight, density), (w, state) in zip(reference, ensemble.entries):
                    assert type(w) is float and w == weight
                    assert state.density.tobytes() == density.tobytes()

    def test_equal_pure_inputs_have_a_zero_weight_x_bit(self):
        # |1x> projects phi_a - phi_b = 0; in the Y basis both bits keep weight 1/2
        state = random_states(3)[0]
        with pytest.raises(ValidationError, match="zero weight"):
            reference_virtual_states(state, state, "x")
        with pytest.raises(ValidationError, match="zero weight"):
            virtual_states_from_purification(state, state, basis="x")
        weights = virtual_states_from_purification(state, state, basis="y").weights
        assert np.allclose(weights, 0.5, rtol=0.0, atol=1e-12)


class TestEnsembleWeights:
    @pytest.mark.parametrize("weights", [(math.nan, 1.0), (1.0, math.nan), (-0.5, 1.5)])
    def test_rejects_nan_or_negative(self, weights):
        entries = tuple(zip(weights, (basis_state("0x"), basis_state("1x"))))
        with pytest.raises(ValidationError, match="^ensemble weights must be non-negative$"):
            VirtualEnsemble(basis="x", entries=entries)


class TestSourceSets:
    def test_three_state_labels(self):
        sources = three_state_sources()
        assert sources.labels == ("0z", "1z", "0x")
        assert abs(sum(sources.prior(l) for l in sources.labels) - 1.0) <= 1e-12

    def test_four_state_spans_pyramid(self):
        blochs = np.array([b.as_array() for b in four_state_sources().blochs()])
        assert abs(np.linalg.det(blochs)) > 0.5

    def test_modulated_sources_planar(self):
        sources = modulated_three_state_sources(0.126)
        assert sources.labels == ("0z", "1z", "1x")
        for bloch in sources.blochs():
            assert abs(bloch.py) <= 1e-12
        assert np.abs(
            sources.state("1z").density
            - encode_single_photon(math.pi, 0.126).density
        ).max() <= 1e-12

    def test_rejects_bad_priors(self):
        with pytest.raises(ValidationError):
            SourceSet(entries=(("a", basis_state("0z"), 0.5), ("b", basis_state("1z"), 0.6)))

    @pytest.mark.parametrize("priors", [(math.nan, 1.0), (0.5, math.nan), (math.nan, math.nan)])
    def test_rejects_nan_prior(self, priors):
        entries = tuple(zip(("a", "b"), (basis_state("0z"), basis_state("1z")), priors))
        with pytest.raises(ValidationError, match="^every source prior must be > 0$"):
            SourceSet(entries=entries)

    def test_canonical_sources(self):
        sources = canonical_sources(["0z", "1z", "0x"])
        assert sources == three_state_sources()
        assert all(state is basis_state(label) for label, state, _ in sources.entries)
        with pytest.raises(ValidationError, match="priors must sum to 1"):
            canonical_sources(())

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            SourceSet(entries=(("a", basis_state("0z"), 0.5), ("a", basis_state("1z"), 0.5)))

    def test_bloch_vector_invariants(self):
        with pytest.raises(ValidationError):
            BlochVector(v0=1.0, px=1.0, py=1.0, pz=0.0)
        with pytest.raises(ValidationError):
            BlochVector(v0=0.5, px=0.0, py=0.0, pz=0.0)

    @pytest.mark.parametrize("px, inside", [
        (1.0000000000005, True),  # px**2 is the float 1 + 1e-12, the bound itself
        (1.0000000000005003, False),  # the next float up
        (1e155, False),  # px**2 overflows the float range
        (-1e200, False),
    ])
    def test_bloch_norm_decided_at_bound(self, px, inside):
        if inside:
            assert BlochVector(v0=1.0, px=px, py=0.0, pz=0.0).norm2 == 1.0 + ATOL
        else:
            with pytest.raises(ValidationError, match="outside the unit ball"):
                BlochVector(v0=1.0, px=px, py=0.0, pz=0.0)


class TestEveryRejection:
    """Each rejection of a state-level input, with its class and its exact message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: BlochVector(1.0, 0.0, math.nan, 0.0), "Bloch components must be finite"),
        (lambda: encode_single_photon(math.inf, 0.0), "theta_a must be finite"),
        (lambda: three_state_sources().state("1x"), "no source labelled '1x'"),
        (lambda: three_state_sources().prior("1x"), "no source labelled '1x'"),
        (lambda: VirtualEnsemble("z", virtual_states_planar(0.0).entries),
         "ensemble basis must be 'x' or 'y', got 'z'"),
        (lambda: VirtualEnsemble("x", ((0.5, basis_state("0x")), (0.4, basis_state("1x")))),
         "ensemble weights must sum to 1 within 1e-12"),
        (lambda: virtual_states_from_purification(basis_state("0z"), basis_state("1z"), "z"),
         "basis must be 'x' or 'y', got 'z'"),
    ], ids=["bloch-finite", "theta-finite", "state-label", "prior-label", "ensemble-basis",
            "ensemble-weights", "purification-basis"])
    def test_rejected_with_its_message(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as info:
            call()
        assert type(info.value) is ValidationError
