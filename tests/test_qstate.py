import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdkit.errors import ValidationError
from qkdkit.qstate import (
    PAULI,
    BlochVector,
    QubitState,
    SourceSet,
    basis_state,
    bloch_to_density,
    encode_single_photon,
    four_state_sources,
    modulated_three_state_sources,
    pauli_decompose,
    three_state_sources,
    virtual_amplitudes,
    virtual_states_from_purification,
    virtual_states_planar,
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

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValidationError):
            SourceSet(entries=(("a", basis_state("0z"), 0.5), ("a", basis_state("1z"), 0.5)))

    def test_bloch_vector_invariants(self):
        with pytest.raises(ValidationError):
            BlochVector(v0=1.0, px=1.0, py=1.0, pz=0.0)
        with pytest.raises(ValidationError):
            BlochVector(v0=0.5, px=0.0, py=0.0, pz=0.0)
