import math
import re
import warnings

import numpy as np
import pytest

from qkdkit import montecarlo
from qkdkit.channel import (
    ChannelParams,
    conditional_virtual_yields,
    single_photon_stats,
    transmittance,
)
from qkdkit.errors import ValidationError
from qkdkit.montecarlo import (
    MAX_PULSES,
    BobPovm,
    KrausChannel,
    OutcomeMixer,
    TrialRecord,
    _joint_probs,
    dark_count_mixer,
    empirical_yields,
    estimate_from_trial,
    exact_yields,
    fiber_experiment,
    random_channel,
    random_povm,
    run_protocol,
)
from qkdkit.qstate import (
    ID2,
    basis_state,
    four_state_sources,
    modulated_three_state_sources,
    three_state_sources,
)


def ideal_povm():
    """Projective X/Z measurements with no inconclusive outcome."""
    def proj(label):
        return basis_state(label).density

    return BobPovm(
        x=(proj("0x"), proj("1x")),
        z=(proj("0z"), proj("1z")),
        m_f=np.zeros((2, 2)),
    )


class TestGenerators:
    def test_channel_deterministic_per_seed(self):
        a, b = random_channel(123), random_channel(123)
        assert all(np.array_equal(x, y) for x, y in zip(a.operators, b.operators))

    @pytest.mark.parametrize("seed", range(50))
    def test_channel_deficit_psd(self, seed):
        deficit = random_channel(seed).deficit()
        assert np.linalg.eigvalsh(deficit).min() >= -1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_povm_valid(self, seed):
        povm = random_povm(seed)
        for basis in ("x", "z"):
            m0, m1 = povm.elements(basis)
            assert np.abs(m0 + m1 + povm.m_f - ID2).max() <= 1e-10
            for m in (m0, m1):
                assert np.linalg.eigvalsh(m).min() >= -1e-10

    def test_extra_loss_scales_yields(self):
        channel = random_channel(5)
        povm = random_povm(5)
        sources = three_state_sources()
        base = exact_yields(sources, channel, povm)
        for ell in (0.1, 0.5, 0.9):
            lossy = exact_yields(sources, channel.with_extra_loss(ell), povm)
            for key, value in base.yields.items():
                assert abs(lossy.yields[key] - (1.0 - ell) * value) <= 1e-14

    def test_invalid_channel_rejected(self):
        with pytest.raises(ValidationError):
            KrausChannel((2.0 * np.eye(2),))

    def test_kraus_copies_the_callers_operators(self):
        # the channel freezes its own copy; the caller's array stays writable
        a = 0.5 * np.eye(2, dtype=complex)
        channel = KrausChannel((a,))
        a[0, 0] = 1.0
        assert channel.operators[0][0, 0] == 0.5
        assert not channel.operators[0].flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            channel.operators[0][0, 0] = 1.0

    def test_povm_completeness_enforced(self):
        with pytest.raises(ValidationError):
            BobPovm(
                x=(0.6 * ID2, 0.6 * ID2),
                z=(0.5 * ID2, 0.5 * ID2),
                m_f=np.zeros((2, 2)),
            )


class TestInputContract:
    """Each constructor rejects a non-finite or non-integer input with a
    :class:`ValidationError`, and warns of nothing."""

    def test_kraus_entries_that_overflow_the_gram_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="^channel is not trace-non-increasing$"):
                KrausChannel((1e200 * ID2,))

    @pytest.mark.parametrize("name", ["m0", "m1", "m_f"])
    def test_povm_nan_element(self, name):
        elements = {"m0": 0.5 * ID2, "m1": 0.5 * ID2, "m_f": np.zeros((2, 2))}
        elements[name] = np.full((2, 2), np.nan)
        with pytest.raises(ValidationError, match=f"^{name} must be finite$"):
            BobPovm(x=(elements["m0"], elements["m1"]), z=(0.5 * ID2, 0.5 * ID2),
                    m_f=elements["m_f"])

    def test_povm_checks_each_element_once(self, monkeypatch):
        elements = [0.2 * ID2, *(0.8 * basis_state(label).density
                                 for label in ("0x", "1x", "0z", "1z"))]
        calls = []
        helper = montecarlo._eigvalsh_2x2
        monkeypatch.setattr(montecarlo, "_eigvalsh_2x2", lambda a: calls.append(a) or helper(a))
        # opposite skew-Hermitian parts keep the X basis complete
        skew = np.array([[0.0, 0.1j], [0.1j, 0.0]])
        elements[1], elements[2] = elements[1] + skew, elements[2] - skew
        BobPovm(x=tuple(elements[1:3]), z=tuple(elements[3:]), m_f=elements[0])
        # one call per element, on its Hermitian part: m_f, then m0 and m1 of each basis
        assert len(calls) == 5
        for matrix, element in zip(calls, elements):
            assert np.array_equal(matrix, (element + element.conj().T) / 2.0)

    @pytest.mark.parametrize("top, accepted", [(1.0 + 0.8e-10, True), (1.0 + 1.2e-10, False)])
    def test_kraus_decides_at_its_tolerance(self, top, accepted):
        # a rotated operator whose Gram matrix has eigenvalues 0.3 and ``top``
        rotation = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
        op = rotation @ np.diag([math.sqrt(0.3), math.sqrt(top)]) @ rotation.conj().T
        if accepted:
            KrausChannel((op,))
        else:
            with pytest.raises(ValidationError, match="^channel is not trace-non-increasing$"):
                KrausChannel((op,))

    @pytest.mark.parametrize("low, accepted", [(-0.8e-10, True), (-1.2e-10, False)])
    def test_povm_decides_at_its_tolerance(self, low, accepted):
        # m_f with eigenvalues ``low`` and 0.2 in a rotated frame; each basis still
        # sums to the identity
        rotation = np.array([[0.6, -0.8j], [-0.8j, 0.6]])
        m_f = rotation @ np.diag([low, 0.2]) @ rotation.conj().T
        rest = ID2 - m_f
        args = dict(x=(rest / 2.0, rest / 2.0), z=(rest / 2.0, rest / 2.0), m_f=m_f)
        if accepted:
            BobPovm(**args)
        else:
            with pytest.raises(ValidationError, match="^m_f is not positive semidefinite$"):
                BobPovm(**args)

    @pytest.mark.parametrize("bad, message", [
        # an earlier element's failure wins over a later malformed element
        ({"x0": np.diag([1.2, -0.2]), "x1": np.diag([-0.2, 1.2]), "z1": np.eye(3)},
         "^m0 is not positive semidefinite$"),
        ({"m_f": np.diag([-0.1, 0.0]), "x1": np.full((2, 2), np.nan)},
         "^m_f is not positive semidefinite$"),
        ({"x0": np.diag([1.0, 0.2]), "z0": np.full((2, 2), np.inf)},
         "^basis 'x' elements do not sum to identity$"),
        ({"x1": np.eye(3), "z0": np.diag([1.2, -0.2])}, "^m1 must be 2x2$"),
        ({"z0": np.full((2, 2), np.nan), "z1": np.zeros(2)}, "^m0 must be finite$"),
        ({"z0": np.diag([1.2, -0.2]), "z1": np.diag([-0.2, 1.2])},
         "^m0 is not positive semidefinite$"),
    ])
    def test_povm_reports_its_first_bad_element(self, bad, message):
        elements = {"m_f": np.zeros((2, 2)), "x0": basis_state("0x").density,
                    "x1": basis_state("1x").density, "z0": basis_state("0z").density,
                    "z1": basis_state("1z").density, **bad}
        with pytest.raises(ValidationError, match=message):
            BobPovm(x=(elements["x0"], elements["x1"]), z=(elements["z0"], elements["z1"]),
                    m_f=elements["m_f"])

    @pytest.mark.parametrize("e_d", [np.complex128(1e-7), 1e-7j])
    def test_complex_dark_count_rejected(self, e_d):
        # NumPy would drop the imaginary part of a NumPy complex with a ComplexWarning
        with pytest.raises(ValidationError, match="^dark count rate must be in \\[0, 1\\), got "):
            dark_count_mixer(e_d)

    def test_mixer_nan(self):
        matrix = np.eye(3)
        matrix[0, 1] = np.nan
        with pytest.raises(ValidationError, match="^mixer entries must be finite$"):
            OutcomeMixer(matrix)

    @pytest.mark.parametrize("counts, n_pulses", [
        ({("0z", "x", 0): 1.5, ("0z", "x", 1): 0.5}, 2),
        ({("0z", "x", 0): 1, ("0z", "x", 1): 0.5}, 1.5),
        ({("0z", "x", 0): 1}, 1.0),
        ({("0z", "x", 0): math.nan}, 1),
    ])
    def test_trial_record_non_integers(self, counts, n_pulses):
        with pytest.raises(ValidationError, match="^counts and n_pulses must be integers$"):
            TrialRecord(counts=counts, n_pulses=n_pulses)

    @pytest.mark.parametrize("seed", [1.5, math.nan, -1, None, "1"])
    @pytest.mark.parametrize("draw", ["random_channel", "random_povm", "run_protocol"])
    def test_seed_must_be_a_non_negative_integer(self, draw, seed):
        calls = {"random_channel": random_channel, "random_povm": random_povm,
                 "run_protocol": lambda s: run_protocol(
                     10, three_state_sources(), KrausChannel((ID2,)), ideal_povm(), seed=s)}
        with pytest.raises(ValidationError,
                           match=rf"^seed must be a non-negative integer, got {seed!r}$"):
            calls[draw](seed)

    def test_numpy_integer_seed(self):
        args = (three_state_sources(), KrausChannel((ID2,)), ideal_povm())
        assert (run_protocol(1_000, *args, seed=np.uint64(7)).counts
                == run_protocol(1_000, *args, seed=7).counts)

    def test_trial_record_numpy_integers(self):
        trial = TrialRecord(counts={("0z", "x", 0): np.int64(3)}, n_pulses=3)
        assert trial.counts == {("0z", "x", 0): 3}


class TestExactYields:
    def test_identity_channel_ideal_z(self):
        table = exact_yields(
            three_state_sources(), KrausChannel((np.eye(2),)), ideal_povm()
        )
        assert abs(table.get("z", 0, "0z") - (1 / 3) * 0.5) <= 1e-15
        assert abs(table.get("z", 1, "0z")) <= 1e-15

    @pytest.mark.parametrize("seed", range(10))
    def test_completeness_per_cell(self, seed):
        # conclusive yields plus the inconclusive weight account for the
        # whole cell probability P(label) * P(basis)
        channel = random_channel(seed)
        povm = random_povm(seed + 100)
        sources = three_state_sources()
        table = exact_yields(sources, channel, povm)
        for label in sources.labels:
            evolved = channel.apply(sources.state(label).density)
            lost = 1.0 - float(np.trace(evolved).real)
            for basis in ("x", "z"):
                weight = table.weight(basis, label)
                conclusive = sum(table.get(basis, s, label) for s in (0, 1))
                inconclusive = weight * (
                    lost + float(np.trace(evolved @ povm.m_f).real)
                )
                assert abs(conclusive + inconclusive - weight) <= 1e-12

    def test_matches_analytic_model(self):
        for delta, distance in ((0.0, 0.0), (0.063, 25.0), (0.126, 50.0)):
            params = ChannelParams(distance_km=distance, delta=delta)
            exp = fiber_experiment(params)
            table = exact_yields(exp.sources, exp.channel, exp.povm, mixer=exp.mixer)
            analytic = conditional_virtual_yields(params)
            for s in (0, 1):
                got = table.get("x", s, "0x") / table.weight("x", "0x")
                assert abs(got - analytic[s, 0]) <= 1e-12

    def test_kraus_amplitude_is_transmittance(self):
        # rebuilding T as 1 - (1 - T) would cost ~1e-16/T relative precision
        params = ChannelParams(distance_km=300.0)
        amplitude = fiber_experiment(params).channel.operators[0][0, 0].real
        t = transmittance(params)
        assert abs(amplitude**2 - t) <= 1e-15 * t


def per_cell_probs(sources, channel, povm, mixer=None):
    """The joint cell probabilities one cell at a time: the reference for the
    stacked pass of ``_joint_probs``."""
    probs = {}
    for label, state, prior in sources.entries:
        rho = state.density
        evolved = sum(op @ rho @ op.conj().T for op in channel.operators)
        for basis in ("x", "z"):
            m0, m1 = povm.elements(basis)
            p0 = float(np.trace(evolved @ m0).real)
            p1 = float(np.trace(evolved @ m1).real)
            cell = np.array([p0, p1, 1.0 - p0 - p1])
            if mixer is not None:
                cell = mixer.matrix @ cell
            for outcome, p in zip((0, 1, "f"), cell.tolist()):
                probs[label, basis, outcome] = prior * 0.5 * p
    return probs


class TestStackedPass:
    """``_joint_probs`` computes every cell in one stacked pass, bit for bit
    as the per-cell reference, in the same cell order."""

    @staticmethod
    def assert_same_bits(got, expected):
        assert list(got) == list(expected)
        got_bits, expected_bits = (np.array(list(d.values())).tobytes() for d in (got, expected))
        assert got_bits == expected_bits

    @pytest.mark.parametrize("seed", range(40))
    def test_random_channels_and_povms(self, seed):
        rng = np.random.default_rng(seed)
        shift = rng.uniform(-0.05, 0.05, (3, 3))
        mixer = OutcomeMixer(np.eye(3) + shift - shift.mean(axis=0))  # columns sum to 1
        for sources in (three_state_sources(), four_state_sources(),
                        modulated_three_state_sources(rng.uniform(0.0, 0.6))):
            args = (sources, random_channel(seed), random_povm(seed + 1000))
            for mix in (None, dark_count_mixer(rng.uniform(0.0, 0.5)), mixer):
                self.assert_same_bits(_joint_probs(*args, mix), per_cell_probs(*args, mix))

    @pytest.mark.parametrize("delta", [0.0, 0.063, 0.126, 0.5, 2.0])
    def test_fiber_experiments(self, delta):
        for distance in (0.0, 1.0, 10.0, 50.0, 150.0, 400.0):
            exp = fiber_experiment(ChannelParams(distance_km=distance, delta=delta))
            args = (exp.sources, exp.channel, exp.povm, exp.mixer)
            self.assert_same_bits(_joint_probs(*args), per_cell_probs(*args))


class TestMixer:
    def test_columns_sum_to_one(self):
        mixer = dark_count_mixer(0.3)
        assert np.abs(mixer.matrix.sum(axis=0) - 1.0).max() <= 1e-12

    def test_zero_darks_identity(self):
        mixer = dark_count_mixer(0.0)
        assert np.allclose(mixer.matrix, np.eye(3), atol=1e-15)

    def test_reproduces_dark_count_structure(self):
        # mixed(p_s) = p_s (1-e/2) + e (1-e/2) + p_{s^1} e on the simplex
        e_d = 0.2
        mixer = dark_count_mixer(e_d)
        probs = np.array([0.3, 0.1, 0.6])
        mixed = mixer.apply(probs)
        for s in (0, 1):
            expected = probs[s] * (1 - e_d / 2) + e_d * (1 - e_d / 2) + probs[1 - s] * e_d
            assert abs(mixed[s] - expected) <= 1e-12

    def test_invalid_matrix_rejected(self):
        with pytest.raises(ValidationError):
            OutcomeMixer(matrix=np.eye(3) * 2.0)

    def test_one_shared_mixer_per_matrix(self):
        mixer = dark_count_mixer(1e-7)
        assert dark_count_mixer(1e-7) is mixer
        assert not mixer.matrix.flags.writeable
        # -0.0 equals 0.0 but gives -0.0 entries, so it gets a mixer of its own
        negative, positive = dark_count_mixer(-0.0), dark_count_mixer(0.0)
        assert negative is not positive
        assert np.signbit(negative.matrix[0, 1]) and not np.signbit(positive.matrix[0, 1])
        # a float32 rate computes in float32, as it did before the mixers were shared
        narrow = dark_count_mixer(np.float32(0.1))
        assert narrow is not dark_count_mixer(0.1)
        assert narrow.matrix[0, 0] == np.float32((1.0 - np.float32(0.1) / 2.0) * 1.1)


class TestFiberExperiment:
    def test_shared_pieces(self):
        a, b = (fiber_experiment(ChannelParams(distance_km=d, delta=0.1)) for d in (5.0, 50.0))
        assert a.sources is b.sources is three_state_sources()
        assert a.mixer is b.mixer

    def test_given_transmittance_keeps_the_bits(self):
        params = ChannelParams(distance_km=80.0, delta=0.126)
        given = fiber_experiment(params, transmittance(params))
        assert given.channel.operators[0].tobytes() == (
            fiber_experiment(params).channel.operators[0].tobytes())

    @pytest.mark.parametrize("t", [-0.1, 1.5, math.nan])
    def test_transmittance_outside_the_unit_interval(self, t):
        with pytest.raises(ValidationError, match="^t must be in \\[0, 1\\], got "):
            fiber_experiment(ChannelParams(), t)


class TestRunProtocol:
    def test_single_pulse(self):
        trial = run_protocol(
            1, three_state_sources(), KrausChannel((np.eye(2),)), ideal_povm(), seed=0
        )
        assert sum(trial.counts.values()) == 1

    def test_deterministic_per_seed(self):
        args = (three_state_sources(), KrausChannel((np.eye(2),)), ideal_povm())
        a = run_protocol(10_000, *args, seed=42)
        b = run_protocol(10_000, *args, seed=42)
        assert a.counts == b.counts

    def test_counts_sum_invariant(self):
        trial = run_protocol(
            5_000, three_state_sources(), random_channel(3), random_povm(3), seed=9
        )
        assert sum(trial.counts.values()) == trial.n_pulses == 5_000

    def test_zero_pulses_rejected(self):
        with pytest.raises(ValidationError):
            run_protocol(0, three_state_sources(), KrausChannel((np.eye(2),)), ideal_povm(), seed=0)

    def test_pulses_beyond_int64_rejected(self):
        # the multinomial draw would raise a raw OverflowError at 2**63
        args = (three_state_sources(), KrausChannel((np.eye(2),)), ideal_povm())
        with pytest.raises(ValidationError, match="n_pulses"):
            run_protocol(MAX_PULSES + 1, *args, seed=0)
        assert sum(run_protocol(MAX_PULSES, *args, seed=0).counts.values()) == MAX_PULSES

    def test_frequencies_within_five_sigma(self):
        n = 1_000_000
        sources = three_state_sources()
        channel = random_channel(17)
        povm = random_povm(17)
        exact = exact_yields(sources, channel, povm)
        trial = run_protocol(n, sources, channel, povm, seed=20240817)
        for (basis, outcome, label), expected in exact.yields.items():
            got = trial.counts[label, basis, outcome] / n
            sigma = math.sqrt(max(expected * (1 - expected), 1e-12) / n)
            assert abs(got - expected) <= 5.0 * sigma


class TestEstimateFromTrial:
    def test_identity_channel_estimate_near_zero(self):
        sources = three_state_sources()
        trial = run_protocol(
            200_000, sources, KrausChannel((np.eye(2),)), ideal_povm(), seed=5
        )
        estimate = estimate_from_trial(trial, sources)
        assert estimate.e_x <= 3.0 * max(estimate.std_err, 1e-6)

    def test_fiber_estimate_within_four_errors(self):
        params = ChannelParams(distance_km=50.0, delta=0.126)
        exp = fiber_experiment(params)
        trial = run_protocol(
            10_000_000, exp.sources, exp.channel, exp.povm, seed=99, mixer=exp.mixer
        )
        estimate = estimate_from_trial(trial, exp.sources)
        _, analytic = single_photon_stats(params)
        assert abs(estimate.e_x - analytic) <= 4.0 * estimate.std_err

    def test_convergence_rate(self):
        # 100x more pulses shrinks the median cell error by roughly 10x
        sources = three_state_sources()
        channel = random_channel(23)
        povm = random_povm(23)
        exact = exact_yields(sources, channel, povm)
        keys = sorted(exact.yields)
        errs = {2_000: [], 200_000: []}
        for rep in range(50):
            for n in errs:
                trial = run_protocol(n, sources, channel, povm, seed=1000 * rep + n)
                worst = max(
                    abs(trial.counts[label, basis, outcome] / n - exact.yields[basis, outcome, label])
                    for (basis, outcome, label) in keys
                )
                errs[n].append(worst)
        ratio = np.median(errs[2_000]) / np.median(errs[200_000])
        assert 5.0 <= ratio <= 20.0

    def test_error_bars_calibrated(self):
        params = ChannelParams(distance_km=10.0, delta=0.3)
        exp = fiber_experiment(params)
        _, analytic = single_photon_stats(params)
        estimates = []
        hits = 0
        for rep in range(200):
            trial = run_protocol(
                100_000, exp.sources, exp.channel, exp.povm, seed=rep, mixer=exp.mixer
            )
            est = estimate_from_trial(trial, exp.sources)
            estimates.append(est.e_x)
            if abs(est.e_x - analytic) <= 4.0 * est.std_err:
                hits += 1
        assert hits >= 198  # >= 99% coverage
        assert len(set(estimates)) > 1  # disjoint seeds give distinct estimates

    def test_empirical_table_allows_sampling_noise(self):
        sources = three_state_sources()
        trial = run_protocol(
            1_000, sources, KrausChannel((np.eye(2),)), ideal_povm(), seed=1
        )
        table = empirical_yields(trial, sources)
        for (label, basis, outcome), count in trial.counts.items():
            if outcome != "f":
                assert table.get(basis, outcome, label) == count / 1_000


class TestEveryRejection:
    """Each rejection of the sampler's inputs, with its class and its exact message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: KrausChannel(()), "channel needs at least one Kraus operator"),
        (lambda: KrausChannel((np.eye(3),)), "Kraus operators must be finite 2x2 matrices"),
        (lambda: KrausChannel((ID2, np.full((2, 2), np.inf))),
         "Kraus operators must be finite 2x2 matrices"),
        (lambda: KrausChannel((ID2,)).with_extra_loss(1.0),
         "loss fraction must be in [0, 1), got 1.0"),
        (lambda: ideal_povm().elements("y"), "unknown basis 'y'"),
        (lambda: OutcomeMixer(np.eye(2)), "mixer must be 3x3"),
        (lambda: TrialRecord(counts={("0z", "x", 0): -1, ("0z", "x", 1): 2}, n_pulses=1),
         "counts must be non-negative"),
        (lambda: TrialRecord(counts={("0z", "x", 0): 1}, n_pulses=2),
         "counts must sum to n_pulses"),
    ], ids=["no-operator", "kraus-shape", "kraus-finite", "extra-loss", "povm-basis",
            "mixer-shape", "negative-count", "count-sum"])
    def test_rejected_with_its_message(self, call, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as info:
            call()
        assert type(info.value) is ValidationError
