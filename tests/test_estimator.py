import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdkit import estimator
from qkdkit.errors import (
    InconsistentYieldsError,
    PlanarityError,
    UndefinedRateError,
    ValidationError,
    WellPosednessError,
)
from qkdkit.estimator import (
    NEGATIVITY_TOL,
    THREE_STATE_MAP,
    TransmissionFunctional,
    TwoQubitFunctional,
    YieldTable,
    check_well_posed,
    error_rate,
    mdi_phase_error,
    mdi_solve,
    mdi_virtual_yields,
    phase_error_three_state,
    phase_error_virtual,
    predict_yield,
    solve_functional,
    solve_functionals,
    virtual_yields,
)
from qkdkit.montecarlo import exact_yields, random_channel, random_povm
from qkdkit.qstate import (
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
    three_state_sources,
    virtual_states_from_purification,
    virtual_states_planar,
)

UNIFORM_PRIORS = {"0z": 1 / 3, "1z": 1 / 3, "0x": 1 / 3}
HALF_BASES = {"x": 0.5, "z": 0.5}


def x_table(conditionals, priors=UNIFORM_PRIORS, bases=HALF_BASES):
    """Joint X-basis yield table from conditional values {(s, label): p}."""
    yields = {
        ("x", s, label): priors[label] * bases["x"] * value
        for (s, label), value in conditionals.items()
    }
    return YieldTable(yields, priors, bases)


def outcome_operator(channel, povm, outcome, basis="x"):
    m = povm.elements(basis)[outcome]
    return sum(op.conj().T @ m @ op for op in channel.operators)


def trace_yield(operator, state, weight):
    return weight * float(np.trace(operator @ state.density).real)


class TestYieldTable:
    def test_joint_entry_capped_by_weight(self):
        with pytest.raises(ValidationError):
            YieldTable(
                {("x", 0, "0z"): 0.4},
                {"0z": 0.5, "1z": 0.5},
                {"x": 0.5, "z": 0.5},
            )

    def test_scale_factor_range(self):
        table = x_table({(0, l): 0.5 for l in ("0z", "1z", "0x")})
        with pytest.raises(ValidationError):
            table.scaled(1.5)


class TestFunctionalInvariants:
    def test_unphysical_coefficients_rejected(self):
        with pytest.raises(InconsistentYieldsError):
            TransmissionFunctional(outcome=0, q={"id": 0.3, "x": 0.4, "z": 0.0})
        with pytest.raises(InconsistentYieldsError):
            TransmissionFunctional(
                outcome=0, q={"id": 1.2, "x": 0.0, "y": 0.0, "z": 0.0}
            )


class TestWellPosedness:
    def test_canonical_three_state(self):
        report = check_well_posed(three_state_sources().blochs())
        assert report.well_posed
        assert report.condition_number < 10.0

    def test_collinear_points_fail(self):
        mixture = QubitState.from_density(
            0.75 * basis_state("0z").density + 0.25 * basis_state("1z").density
        )
        report = check_well_posed(
            [basis_state("0z").bloch(), basis_state("1z").bloch(), mixture.bloch()]
        )
        assert not report.well_posed
        assert report.reason == "rank-deficient"

    def test_duplicates_reported(self):
        report = check_well_posed(
            [basis_state("0z").bloch(), basis_state("0z").bloch(), basis_state("0x").bloch()]
        )
        assert not report.well_posed
        assert report.reason == "duplicate-states"

    def test_four_state_mode(self):
        report = check_well_posed(four_state_sources().blochs())
        assert report.well_posed

    def test_wrong_count_rejected(self):
        with pytest.raises(ValidationError):
            check_well_posed([basis_state("0z").bloch()] * 2)


class TestSourceChecksRunOnce:
    """The solvers count the sources in :func:`check_well_posed`, then test
    planarity, then well-posedness."""

    def test_five_sources_message(self):
        sources = canonical_sources(("0z", "1z", "0x", "1x", "0y"))
        table = x_table({(0, l): 0.5 for l in ("0z", "1z", "0x")})
        with pytest.raises(ValidationError, match=r"^need 3 or 4 source states, got 5$"):
            solve_functionals(table, sources)

    def test_planarity_before_well_posedness(self):
        # 0y sits on the identity row of the planar design: off-plane and ill-posed
        sources = canonical_sources(("0z", "1z", "0y"))
        table = x_table({(0, l): 0.5 for l in ("0z", "1z", "0y")},
                        priors={l: 1 / 3 for l in ("0z", "1z", "0y")})
        with pytest.raises(PlanarityError, match="source '0y' has p_y != 0"):
            solve_functionals(table, sources)


class TestSolveFunctional:
    def test_state_independent_outcome(self):
        table = x_table({(0, l): 0.5 for l in ("0z", "1z", "0x")})
        f = solve_functional(table, three_state_sources(), outcome=0)
        assert abs(f.q["id"] - 0.5) <= 1e-12
        assert abs(f.q["x"]) <= 1e-12 and abs(f.q["z"]) <= 1e-12

    def test_identity_channel_ideal_x_measurement(self):
        # D = P(|0x>): conditional yields 1/2, 1/2, 1 for 0z, 1z, 0x
        table = x_table({(0, "0z"): 0.5, (0, "1z"): 0.5, (0, "0x"): 1.0})
        f = solve_functional(table, three_state_sources(), outcome=0)
        assert abs(f.q["id"] - 0.5) <= 1e-10
        assert abs(f.q["x"] - 0.5) <= 1e-10
        assert abs(f.q["z"]) <= 1e-10

    @pytest.mark.parametrize("seed", range(8))
    def test_random_channel_matches_trace_oracle(self, seed):
        channel = random_channel(seed)
        povm = random_povm(seed + 500)
        sources = three_state_sources()
        table = exact_yields(sources, channel, povm)
        for s in (0, 1):
            f = solve_functional(table, sources, outcome=s)
            oracle_op = outcome_operator(channel, povm, s)
            for t in ("id", "x", "z"):
                oracle = float(np.trace(oracle_op @ PAULI[t]).real) / 2.0
                assert abs(f.q[t] - oracle) <= 1e-10
            # solved functional reproduces the measured yields
            for label in sources.labels:
                predicted = predict_yield(f, sources.state(label), prior=1 / 6)
                assert abs(predicted - table.get("x", s, label)) <= 1e-10

    def test_ill_posed_raises(self):
        mixture = QubitState.from_density(
            0.75 * basis_state("0z").density + 0.25 * basis_state("1z").density
        )
        sources = SourceSet(
            entries=(
                ("0z", basis_state("0z"), 1 / 3),
                ("1z", basis_state("1z"), 1 / 3),
                ("0x", mixture, 1 / 3),
            )
        )
        table = x_table({(0, l): 0.5 for l in ("0z", "1z", "0x")})
        with pytest.raises(WellPosednessError):
            solve_functional(table, sources, outcome=0)

    def test_unphysical_yields_raise(self):
        # would need |q| > q_id: impossible for any physical map
        table = x_table({(0, "0z"): 1.0, (0, "1z"): 0.0, (0, "0x"): 0.9})
        with pytest.raises(InconsistentYieldsError):
            solve_functional(table, three_state_sources(), outcome=0)

    def test_off_plane_source_rejected(self):
        sources = SourceSet(
            entries=(
                ("0z", basis_state("0z"), 1 / 3),
                ("1z", basis_state("1z"), 1 / 3),
                ("0y", basis_state("0y"), 1 / 3),
            )
        )
        table = x_table({(0, l): 0.5 for l in ("0z", "1z", "0y")},
                        priors={"0z": 1 / 3, "1z": 1 / 3, "0y": 1 / 3})
        with pytest.raises(PlanarityError):
            solve_functional(table, sources, outcome=0)


class TestFunctionalFields:
    def test_planar_is_read_off_the_coefficients(self):
        assert TransmissionFunctional(outcome=0, q={"id": 0.5, "x": 0.0, "z": 0.0}).planar
        full = TransmissionFunctional(outcome=0, q={"id": 0.5, "x": 0.0, "y": 0.0, "z": 0.0})
        assert not full.planar

    def test_wrong_coefficients_named(self):
        with pytest.raises(ValidationError, match=r"\('id', 'x', 'y', 'z'\)"):
            TransmissionFunctional(outcome=0, q={"id": 0.5, "y": 0.0})

    def test_messages_print_python_floats(self):
        with pytest.raises(InconsistentYieldsError) as planar:
            TransmissionFunctional(outcome=0, q={"id": np.float64(1.5), "x": 0.0, "z": 0.0})
        with pytest.raises(InconsistentYieldsError) as pair:
            TwoQubitFunctional(q=np.diag([1.5, 0.0, 0.0]))
        # factors of 2 * identity applied to the identity leave half the rhs over
        factors = np.linalg.svd(2.0 * np.eye(2))
        with pytest.raises(InconsistentYieldsError) as solve:
            estimator._svd_solve(np.eye(2), factors, np.array([1.0, 0.0]))
        assert str(planar.value) == "identity transmission rate 1.5 outside [0, 1]"
        assert str(pair.value) == "identity-identity rate 1.5 outside [0, 1]"
        assert str(solve.value) == "linear solve residual 0.5 exceeds tolerance"


class TestPredictYield:
    def test_constant_functional(self):
        f = TransmissionFunctional(outcome=0, q={"id": 0.5, "x": 0.0, "z": 0.0})
        for label in ("0z", "1z", "0x", "1x"):
            assert abs(predict_yield(f, basis_state(label), prior=1 / 6) - 1 / 12) <= 1e-12
        f_full = TransmissionFunctional(
            outcome=0, q={"id": 0.5, "x": 0.0, "y": 0.0, "z": 0.0}
        )
        assert abs(predict_yield(f_full, basis_state("0y"), prior=1 / 6) - 1 / 12) <= 1e-12

    def test_orthogonal_state_yield_zero(self):
        f = TransmissionFunctional(outcome=0, q={"id": 0.5, "x": 0.5, "z": 0.0})
        assert abs(predict_yield(f, basis_state("1x"), prior=1 / 6)) <= 1e-12

    def test_planar_functional_rejects_off_plane(self):
        f = TransmissionFunctional(outcome=0, q={"id": 0.5, "x": 0.1, "z": 0.1})
        with pytest.raises(PlanarityError):
            predict_yield(f, basis_state("0y"), prior=1 / 6)

    @pytest.mark.parametrize("seed", range(5))
    def test_unsent_state_closed_form(self, seed):
        # with uniform priors: Y(s, 1x) = Y(s, 0z) + Y(s, 1z) - Y(s, 0x)
        channel = random_channel(seed)
        povm = random_povm(seed + 600)
        sources = three_state_sources()
        table = exact_yields(sources, channel, povm)
        for s in (0, 1):
            f = solve_functional(table, sources, outcome=s)
            closed = (
                table.get("x", s, "0z") + table.get("x", s, "1z") - table.get("x", s, "0x")
            )
            assert abs(predict_yield(f, basis_state("1x"), 1 / 6) - closed) <= 1e-10


class TestErrorRate:
    def test_small_negative_error_cell_clamped(self):
        table = np.array([[0.5, -0.5 * NEGATIVITY_TOL], [0.1, 0.4]])
        assert error_rate(table) == 0.1 / table.sum()

    @pytest.mark.parametrize("cell", [(0, 1), (1, 1)])
    def test_cell_below_tolerance_raises(self, cell):
        table = np.array([[0.5, 0.2], [0.1, 0.4]])
        table[cell] = -2.0 * NEGATIVITY_TOL
        with pytest.raises(InconsistentYieldsError):
            error_rate(table)

    @pytest.mark.parametrize("cell", [math.nan, math.inf, -math.inf])
    def test_non_finite_cell_rejected(self, cell):
        table = np.array([[0.5, 0.2], [cell, 0.4]])
        with pytest.raises(ValidationError, match="must be finite"):
            error_rate(table)

    def test_zero_denominator_undefined(self):
        with pytest.raises(UndefinedRateError):
            error_rate(np.zeros((2, 2)))

    def test_infinite_tolerance_always_clamps(self):
        table = np.array([[0.5, -0.2], [0.1, 0.4]])
        assert error_rate(table, negativity_tol=math.inf) == 0.1 / table.sum()

    def test_rate_above_one_raises(self):
        table = np.array([[0.0, 0.5], [0.5, -0.5]])
        with pytest.raises(InconsistentYieldsError):
            error_rate(table, negativity_tol=0.6)

    def test_three_state_map_rows_sum_to_z_pair(self):
        # row s of the table is Y(s, 0x) + Y(s, 1x) = Y(s, 0z) + Y(s, 1z)
        z_pair = np.array([[1.0, 1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 1.0, 0.0]])
        assert np.array_equal(THREE_STATE_MAP.sum(axis=1), z_pair)

    def test_no_z_pair_detections_undefined_when_clamping(self):
        table = x_table({
            (0, "0z"): 0.0, (0, "1z"): 0.0, (0, "0x"): 0.1,
            (1, "0z"): 0.0, (1, "1z"): 0.0, (1, "0x"): 0.2,
        })
        with pytest.raises(UndefinedRateError):
            phase_error_three_state(table, negativity_tol=math.inf)


class TestPhaseErrorThreeState:
    def test_identity_channel_zero(self):
        table = x_table({
            (0, "0z"): 0.5, (0, "1z"): 0.5, (0, "0x"): 1.0,
            (1, "0z"): 0.5, (1, "1z"): 0.5, (1, "0x"): 0.0,
        })
        assert phase_error_three_state(table) == 0.0

    def test_depolarizing_half(self):
        table = x_table({(s, l): 0.5 for s in (0, 1) for l in ("0z", "1z", "0x")})
        assert abs(phase_error_three_state(table) - 0.5) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_oracle_and_general_path(self, seed):
        channel = random_channel(seed)
        povm = random_povm(seed + 700)
        sources = three_state_sources()
        table = exact_yields(sources, channel, povm)
        closed = phase_error_three_state(table)
        ops = {s: outcome_operator(channel, povm, s) for s in (0, 1)}
        y = {
            (s, j): trace_yield(ops[s], basis_state(f"{j}x"), 1 / 6)
            for s in (0, 1) for j in (0, 1)
        }
        oracle = (y[0, 1] + y[1, 0]) / (y[0, 0] + y[0, 1] + y[1, 0] + y[1, 1])
        assert abs(closed - oracle) <= 1e-10
        f0 = solve_functional(table, sources, outcome=0)
        f1 = solve_functional(table, sources, outcome=1)
        general = phase_error_virtual(f0, f1, virtual_states_planar(0.0))
        assert abs(closed - general) <= 1e-10

    def test_zero_denominator(self):
        table = x_table({(s, l): 0.0 for s in (0, 1) for l in ("0z", "1z", "0x")})
        with pytest.raises(UndefinedRateError):
            phase_error_three_state(table)

    def test_missing_entry_reported(self):
        table = x_table({(0, "0z"): 0.5, (0, "1z"): 0.5, (0, "0x"): 1.0})
        with pytest.raises(ValidationError, match="outcome=1"):
            phase_error_three_state(table)

    def test_negative_virtual_yield_raises_when_strict(self):
        table = x_table({
            (0, "0z"): 0.1, (0, "1z"): 0.1, (0, "0x"): 0.4,
            (1, "0z"): 0.9, (1, "1z"): 0.9, (1, "0x"): 0.6,
        })
        with pytest.raises(InconsistentYieldsError):
            phase_error_three_state(table)
        # statistical callers clamp instead
        assert phase_error_three_state(table, negativity_tol=math.inf) >= 0.0

    @settings(max_examples=40)
    @given(factor=st.floats(1e-3, 1.0))
    def test_uniform_scaling_invariance(self, factor):
        channel = random_channel(11)
        povm = random_povm(911)
        table = exact_yields(three_state_sources(), channel, povm)
        base = phase_error_three_state(table)
        scaled = phase_error_three_state(table.scaled(factor))
        assert abs(base - scaled) <= 1e-10

    @settings(max_examples=25)
    @given(factor=st.floats(1e-3, 1.0))
    def test_scaling_invariance_of_virtual_path(self, factor):
        sources = three_state_sources()
        table = exact_yields(sources, random_channel(12), random_povm(912))
        ensemble = virtual_states_planar(0.0)

        def rate(t):
            f0 = solve_functional(t, sources, outcome=0)
            f1 = solve_functional(t, sources, outcome=1)
            return phase_error_virtual(f0, f1, ensemble)

        assert abs(rate(table) - rate(table.scaled(factor))) <= 1e-10


class TestPhaseErrorVirtual:
    def test_perfect_everything_zero(self):
        table = x_table({
            (0, "0z"): 0.5, (0, "1z"): 0.5, (0, "0x"): 1.0,
            (1, "0z"): 0.5, (1, "1z"): 0.5, (1, "0x"): 0.0,
        })
        sources = three_state_sources()
        f0 = solve_functional(table, sources, outcome=0)
        f1 = solve_functional(table, sources, outcome=1)
        assert phase_error_virtual(f0, f1, virtual_states_planar(0.0)) <= 1e-12

    @pytest.mark.parametrize("loss", [0.0, 0.3, 0.9, 0.999])
    def test_loss_tolerant_value_with_modulated_source(self, loss):
        # Measurement rotated 3*delta/4 away from the virtual-state axis:
        # e_x = [1 - cos(3*delta/4)]/2 at every loss.
        from qkdkit.montecarlo import BobPovm, KrausChannel
        from qkdkit.qstate import _KETS, modulated_three_state_sources

        delta = 0.126
        sources = modulated_three_state_sources(delta)
        ensemble = virtual_states_planar(delta)
        # virtual axis is tilted delta/2 above +x; rotate a further 3*delta/4
        angle = (delta / 2.0 + 3.0 * delta / 4.0) / 2.0
        m0 = math.cos(angle) * _KETS["0x"] + math.sin(angle) * _KETS["1x"]
        m1 = -math.sin(angle) * _KETS["0x"] + math.cos(angle) * _KETS["1x"]
        povm = BobPovm(
            x=(np.outer(m0, m0.conj()), np.outer(m1, m1.conj())),
            z=(basis_state("0z").density, basis_state("1z").density),
            m_f=np.zeros((2, 2)),
        )
        channel = KrausChannel((math.sqrt(1.0 - loss) * np.eye(2),))
        table = exact_yields(sources, channel, povm)
        f0 = solve_functional(table, sources, outcome=0)
        f1 = solve_functional(table, sources, outcome=1)
        e_x = phase_error_virtual(f0, f1, ensemble)
        expected = (1.0 - math.cos(3.0 * delta / 4.0)) / 2.0
        assert abs(e_x - expected) <= 1e-10
        assert round(expected, 5) == round(2.23e-3, 5)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_channel_matches_two_outcome_oracle(self, seed):
        delta = 0.2
        from qkdkit.qstate import modulated_three_state_sources

        sources = modulated_three_state_sources(delta)
        channel = random_channel(seed)
        povm = random_povm(seed + 800)
        table = exact_yields(sources, channel, povm)
        f0 = solve_functional(table, sources, outcome=0)
        f1 = solve_functional(table, sources, outcome=1)
        ensemble = virtual_states_planar(delta)
        got = phase_error_virtual(f0, f1, ensemble)
        ops = {s: outcome_operator(channel, povm, s) for s in (0, 1)}
        (w0, s0), (w1, s1) = ensemble.entries
        num = w0 * trace_yield(ops[1], s0, 1.0) + w1 * trace_yield(ops[0], s1, 1.0)
        den = sum(
            w * trace_yield(ops[s], state, 1.0)
            for (w, state) in ensemble.entries for s in (0, 1)
        )
        assert abs(got - num / den) <= 1e-10


class TestFourState:
    @pytest.mark.parametrize("seed", range(5))
    def test_full_functional_and_y_basis_error(self, seed):
        rng = np.random.default_rng(seed)
        channel = random_channel(seed + 20)
        povm = random_povm(seed + 900)
        # random tetrahedral sources
        while True:
            states = []
            for _ in range(4):
                vec = rng.normal(size=2) + 1j * rng.normal(size=2)
                vec /= np.linalg.norm(vec)
                states.append(QubitState.from_amplitudes(vec[0], vec[1]))
            sources = SourceSet(
                entries=tuple((f"s{i}", st_, 0.25) for i, st_ in enumerate(states))
            )
            if check_well_posed(sources.blochs()).well_posed:
                break
        table = exact_yields(sources, channel, povm)
        functionals = {}
        for s in (0, 1):
            f = solve_functional(table, sources, outcome=s)
            assert not f.planar
            oracle_op = outcome_operator(channel, povm, s)
            for t in ("id", "x", "y", "z"):
                oracle = float(np.trace(oracle_op @ PAULI[t]).real) / 2.0
                assert abs(f.q[t] - oracle) <= 1e-10
            functionals[s] = f
        # Y-basis error rate of the virtual states of the first two sources
        ensemble = virtual_states_from_purification(states[0], states[1], basis="y")
        got = phase_error_virtual(functionals[0], functionals[1], ensemble)
        ops = {s: outcome_operator(channel, povm, s) for s in (0, 1)}
        (w0, s0), (w1, s1) = ensemble.entries
        num = w0 * trace_yield(ops[1], s0, 1.0) + w1 * trace_yield(ops[0], s1, 1.0)
        den = sum(
            w * trace_yield(ops[s], state, 1.0)
            for (w, state) in ensemble.entries for s in (0, 1)
        )
        assert abs(got - num / den) <= 1e-9


def mdi_pair_yields(operator, sources_a, sources_b, gamma):
    """Pair-yield map from a two-qubit outcome operator (trace oracle)."""
    pairs = {}
    for label_a in sources_a.labels:
        for label_b in sources_b.labels:
            weight = gamma / 9.0 if label_a.endswith("z") and label_b.endswith("z") else 1.0 / 9.0
            product = np.kron(
                sources_a.state(label_a).density, sources_b.state(label_b).density
            )
            pairs[label_a, label_b] = weight * float(np.trace(operator @ product).real)
    return pairs


def random_two_qubit_operator(seed):
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    d = raw.conj().T @ raw
    return d * (rng.uniform(0.1, 1.0) / np.linalg.eigvalsh(d).max())


class TestMdi:
    def test_state_independent_relay(self):
        sources = three_state_sources()
        constant = 0.37
        pairs = mdi_pair_yields(constant * np.eye(4), sources, sources, gamma=0.5)
        f = mdi_solve(pairs, sources, sources, gamma=0.5)
        assert abs(f.q[0, 0] - constant) <= 1e-10
        assert np.abs(f.q).sum() - abs(f.q[0, 0]) <= 1e-10

    def test_honest_bell_relay_zero_error(self):
        bell = np.zeros((4, 4), dtype=complex)
        vec = np.array([1, 0, 0, 1]) / math.sqrt(2)
        bell += np.outer(vec, vec.conj())
        sources = three_state_sources()
        pairs = mdi_pair_yields(bell, sources, sources, gamma=0.25)
        f = mdi_solve(pairs, sources, sources, gamma=0.25)
        ensemble = virtual_states_planar(0.0)
        assert mdi_phase_error(f, ensemble, ensemble) <= 1e-12

    def test_random_relay_announcement_half(self):
        sources = three_state_sources()
        pairs = mdi_pair_yields(0.2 * np.eye(4), sources, sources, gamma=0.5)
        f = mdi_solve(pairs, sources, sources, gamma=0.5)
        ensemble = virtual_states_planar(0.0)
        assert abs(mdi_phase_error(f, ensemble, ensemble) - 0.5) <= 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_random_operator_oracle(self, seed):
        operator = random_two_qubit_operator(seed)
        sources = three_state_sources()
        gamma = 0.4
        pairs = mdi_pair_yields(operator, sources, sources, gamma)
        f = mdi_solve(pairs, sources, sources, gamma)
        for i, s in enumerate(("id", "x", "z")):
            for j, t in enumerate(("id", "x", "z")):
                oracle = float(
                    np.trace(operator @ np.kron(PAULI[s], PAULI[t])).real
                ) / 4.0
                assert abs(f.q[i, j] - oracle) <= 1e-10
        ensemble = virtual_states_planar(0.0)
        got = mdi_phase_error(f, ensemble, ensemble)
        y = {}
        for j in (0, 1):
            for k in (0, 1):
                product = np.kron(
                    basis_state(f"{j}x").density, basis_state(f"{k}x").density
                )
                y[j, k] = float(np.trace(operator @ product).real)
        oracle_e = (y[0, 1] + y[1, 0]) / (y[0, 0] + y[0, 1] + y[1, 0] + y[1, 1])
        assert abs(got - oracle_e) <= 1e-9

    def test_degenerate_party_rejected(self):
        mixture = QubitState.from_density(
            0.5 * basis_state("0z").density + 0.5 * basis_state("1z").density
        )
        bad = SourceSet(
            entries=(
                ("0z", basis_state("0z"), 1 / 3),
                ("1z", basis_state("1z"), 1 / 3),
                ("0x", mixture, 1 / 3),
            )
        )
        good = three_state_sources()
        pairs = mdi_pair_yields(0.2 * np.eye(4), bad, good, gamma=0.5)
        with pytest.raises(WellPosednessError):
            mdi_solve(pairs, bad, good, gamma=0.5)

    def test_singular_product_design_rejected(self):
        # each party is well-posed (condition number 8.5e4), but the relay's
        # 9x9 design is their Kronecker product, whose condition number is the
        # square and passes the singularity threshold
        parties = [SourceSet(entries=tuple(
            (label, bloch_to_density(BlochVector(1.0, math.sin(t), 0.0, math.cos(t))), 1 / 3)
            for label, t in (("0z", 0.0), ("1z", 0.01), ("0x", 0.02)))) for _ in range(2)]
        report = estimator.check_well_posed(parties[0].blochs())
        assert report.well_posed and 8e4 < report.condition_number < 9e4
        pairs = mdi_pair_yields(0.2 * np.eye(4), *parties, gamma=0.5)
        with pytest.raises(WellPosednessError, match="design matrix is numerically singular"):
            mdi_solve(pairs, *parties, gamma=0.5)

    def test_singular_product_design_rejected_for_one_shared_source_set(self):
        # the same parties as above, as one source set checked once: its
        # condition number still counts once for each party
        sources = SourceSet(entries=tuple(
            (label, bloch_to_density(BlochVector(1.0, math.sin(t), 0.0, math.cos(t))), 1 / 3)
            for label, t in (("0z", 0.0), ("1z", 0.01), ("0x", 0.02))))
        pairs = mdi_pair_yields(0.2 * np.eye(4), sources, sources, gamma=0.5)
        with pytest.raises(WellPosednessError, match="design matrix is numerically singular"):
            mdi_solve(pairs, sources, sources, gamma=0.5)

    @pytest.mark.parametrize("shared", [True, False])
    def test_unphysical_product_yield_rejected(self, shared):
        # every sent pair's yield is in [0, 1], but |0x>|1x> would get 0.2 - 0.5
        operator = 0.2 * np.eye(4) + 0.5 * np.kron(PAULI["x"], PAULI["x"])
        sources_a = three_state_sources()
        sources_b = sources_a if shared else three_state_sources()
        pairs = mdi_pair_yields(operator, sources_a, sources_b, gamma=0.5)
        assert min(pairs.values()) >= 0.0 and max(pairs.values()) <= 1.0
        with pytest.raises(InconsistentYieldsError, match="unphysical product yields"):
            mdi_solve(pairs, sources_a, sources_b, gamma=0.5)

    def test_gamma_range_enforced(self):
        sources = three_state_sources()
        pairs = mdi_pair_yields(0.2 * np.eye(4), sources, sources, gamma=0.5)
        with pytest.raises(ValidationError):
            mdi_solve(pairs, sources, sources, gamma=1.5)

    @pytest.mark.parametrize("factor", [0.01, 0.37, 1.0])
    def test_scaling_invariance(self, factor):
        operator = random_two_qubit_operator(77)
        sources = three_state_sources()
        pairs = mdi_pair_yields(operator, sources, sources, gamma=0.3)
        ensemble = virtual_states_planar(0.0)
        base = mdi_phase_error(
            mdi_solve(pairs, sources, sources, 0.3), ensemble, ensemble
        )
        scaled_pairs = {key: factor * value for key, value in pairs.items()}
        scaled = mdi_phase_error(
            mdi_solve(scaled_pairs, sources, sources, 0.3), ensemble, ensemble
        )
        assert abs(base - scaled) <= 1e-10


# Y eigenstates tagged as an X-basis ensemble, so only the planarity check can reject them
Y_STATES = VirtualEnsemble(basis="x", entries=((0.5, basis_state("0y")), (0.5, basis_state("1y"))))


def reference_virtual_yields(f0, f1, ensemble, prior):
    """Per-cell :func:`predict_yield`: the specification of ``virtual_yields``."""
    table = np.empty((2, 2))
    for j, (w_j, state) in enumerate(ensemble.entries):
        for s, functional in enumerate((f0, f1)):
            table[j, s] = predict_yield(functional, state, prior=w_j * prior)
    return table


def reference_mdi_virtual_yields(functional, ensemble_a, ensemble_b):
    """Per-cell ``w_j w_k (va @ q @ vb)``: the specification of ``mdi_virtual_yields``."""
    table = np.empty((2, 2))
    for j, (wa, sa) in enumerate(ensemble_a.entries):
        for k, (wb, sb) in enumerate(ensemble_b.entries):
            va, vb = sa.bloch().as_array(planar=True), sb.bloch().as_array(planar=True)
            table[j, k] = wa * wb * float(va @ functional.q @ vb)
    return table


def random_planar_state(rng):
    """A planar qubit state: a random mixture of two random pure planar states."""
    angles = rng.uniform(0.0, 2.0 * math.pi, size=2)
    weight = rng.uniform(0.0, 1.0)
    pure = [encode_single_photon(angle, 0.0).density for angle in angles]
    return QubitState.from_density(weight * pure[0] + (1.0 - weight) * pure[1])


def random_ensembles(rng, basis="x"):
    """A pure closed-form ensemble, a purified pure Z pair and a purified mixed Z pair."""
    delta = rng.uniform(0.0, 1.0)
    pure_pair = (encode_single_photon(0.0, delta), encode_single_photon(math.pi, delta))
    mixed_pair = (random_planar_state(rng), random_planar_state(rng))
    ensembles = [virtual_states_planar(delta)] if basis == "x" else []
    return ensembles + [virtual_states_from_purification(*pure_pair, basis=basis),
                        virtual_states_from_purification(*mixed_pair, basis=basis)]


def random_functional(rng, outcome, planar):
    """A valid functional: ``|Pauli part| <= q_id``."""
    keys = ("x", "z") if planar else ("x", "y", "z")
    q_id = rng.uniform(0.05, 1.0)
    pauli = rng.normal(size=len(keys))
    pauli *= rng.uniform(0.0, 1.0) * q_id / np.linalg.norm(pauli)
    q = {"id": q_id, **dict(zip(keys, pauli.tolist()))}
    return TransmissionFunctional(outcome=outcome, q=q)


class TestVirtualTables:
    """The virtual-yield tables are contractions over stacked Bloch rows; the
    per-cell formulas they replaced stay here as their reference, and the
    checks those formulas made stay with them."""

    @pytest.mark.parametrize("seed", range(20))
    def test_virtual_yields_match_per_cell_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        for planar, basis in ((True, "x"), (False, "x"), (False, "y")):
            f0, f1 = (random_functional(rng, s, planar) for s in (0, 1))
            for ensemble in random_ensembles(rng, basis):
                prior = rng.uniform(0.0, 1.0)
                got = virtual_yields(f0, f1, ensemble, prior)
                want = reference_virtual_yields(f0, f1, ensemble, prior)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_mdi_virtual_yields_match_per_cell_bit_for_bit(self, seed):
        rng = np.random.default_rng(seed)
        q = rng.normal(scale=0.2, size=(3, 3))
        q[0, 0] = rng.uniform(0.0, 1.0)
        functional = TwoQubitFunctional(q=q)
        ensembles = random_ensembles(rng)
        for ensemble_a in ensembles:
            for ensemble_b in ensembles:
                got = mdi_virtual_yields(functional, ensemble_a, ensemble_b)
                want = reference_mdi_virtual_yields(functional, ensemble_a, ensemble_b)
                assert got.tobytes() == want.tobytes()

    def test_planar_functional_rejects_y_basis_ensemble(self):
        f0, f1 = solve_functionals(x_table({
            (0, "0z"): 0.5, (0, "1z"): 0.5, (0, "0x"): 1.0,
            (1, "0z"): 0.5, (1, "1z"): 0.5, (1, "0x"): 0.0,
        }), three_state_sources())
        y_ensemble = virtual_states_from_purification(
            basis_state("0z"), basis_state("1z"), basis="y")
        for ensemble in (y_ensemble, Y_STATES):
            with pytest.raises(PlanarityError):
                virtual_yields(f0, f1, ensemble)

    def test_planar_and_full_functionals_not_mixed(self):
        rng = np.random.default_rng(0)
        planar, full = random_functional(rng, 0, True), random_functional(rng, 1, False)
        with pytest.raises(ValidationError, match="both be planar or both full"):
            virtual_yields(planar, full, virtual_states_planar(0.0))

    def test_relay_functional_rejects_y_states(self):
        sources = three_state_sources()
        functional = mdi_solve(
            mdi_pair_yields(0.2 * np.eye(4), sources, sources, 0.5), sources, sources, 0.5)
        x_ensemble = virtual_states_planar(0.0)
        for ensembles in ((Y_STATES, x_ensemble), (x_ensemble, Y_STATES)):
            with pytest.raises(PlanarityError):
                mdi_virtual_yields(functional, *ensembles)


F0 = TransmissionFunctional(outcome=0, q={"id": 0.5, "x": 0.25, "z": 0.0})
F1 = TransmissionFunctional(outcome=1, q={"id": 0.5, "x": -0.25, "z": 0.0})
TABLE = x_table({(0, "0z"): 0.5})
#: the canonical three states with a label that carries no basis
UNLABELLED_X = SourceSet((("0z", basis_state("0z"), 1 / 3), ("1z", basis_state("1z"), 1 / 3),
                          ("a", basis_state("0x"), 1 / 3)))


class TestEveryRejection:
    """Each rejection of the estimator's inputs, with its class and its exact message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: YieldTable({("x", 2, "0z"): 0.1}, {"0z": 1.0}, {"x": 1.0}),
         "outcome must be 0 or 1, got 2"),
        (lambda: YieldTable({}, {"0z": 1.5}, {"x": 1.0}), "prior for '0z' must be in (0, 1]"),
        (lambda: YieldTable({}, {"0z": 0.5}, {"x": 1.0}), "priors must sum to 1"),
        (lambda: YieldTable({}, {"0z": 1.0}, {"x": 0.0}),
         "basis probability for 'x' must be in (0, 1]"),
        (lambda: TABLE.weight("x", "1y"), "no prior recorded for label '1y'"),
        (lambda: TABLE.weight("y", "0z"), "no probability recorded for basis 'y'"),
        (lambda: TwoQubitFunctional(q=np.zeros((2, 2))),
         "two-qubit functional must be 3x3 over (id, x, z)"),
        (lambda: solve_functionals(x_table({}, priors={"0z": 0.5, "1z": 0.25, "0x": 0.25}),
                                   three_state_sources()),
         "prior mismatch for '0z' between yield table and sources"),
        (lambda: predict_yield(F0, basis_state("0z"), 1.5), "prior must be in [0, 1], got 1.5"),
        (lambda: error_rate(np.zeros(3)), "virtual-yield table must be 2x2, got shape (3,)"),
        (lambda: virtual_yields(F1, F0, virtual_states_planar(0.0)),
         "functionals must be for outcomes 0 and 1, in order"),
        (lambda: virtual_yields(F0, F1, virtual_states_planar(0.0), 3.0),
         "prior must be in [0, 1], got 1.5"),
        (lambda: mdi_solve({(a, b): 0.01 for a in UNLABELLED_X.labels
                            for b in UNLABELLED_X.labels}, UNLABELLED_X, UNLABELLED_X, 0.5),
         "label 'a' must end in 'z' or 'x' to carry its basis"),
        (lambda: mdi_virtual_yields(TwoQubitFunctional(q=np.zeros((3, 3))),
                                    virtual_states_planar(0.0),
                                    VirtualEnsemble("y", virtual_states_planar(0.0).entries)),
         "relay phase error uses X-basis virtual ensembles"),
    ], ids=["outcome", "prior-range", "prior-sum", "basis-range", "weight-label",
            "weight-basis", "two-qubit-shape", "prior-mismatch", "predict-prior",
            "table-shape", "outcome-order", "virtual-prior", "pair-label", "relay-basis"])
    def test_rejected_with_its_message(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as info:
            call()
        assert type(info.value) is ValidationError
