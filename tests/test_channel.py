import math
import re

import numpy as np
import pytest
from mpmath import mp

from qkdkit.channel import (
    ChannelParams,
    ZStats,
    conditional_virtual_yields,
    single_photon_stats,
    transmittance,
    virtual_priors,
    zbasis_stats,
)
from qkdkit.errors import UndefinedRateError, ValidationError

DEFAULTS = ChannelParams()  # dark 0.5e-7, det_eff 0.15, 0.21 dB/km


def c_squared(eps):
    """Independent closed-form evaluation of the virtual-overlap squares."""
    s, c = math.sin(eps / 2.0), math.cos(eps / 2.0)
    return np.array(
        [
            [(1 + s + c) ** 2 / (4 * (1 + s)), (1 - s - c) ** 2 / (4 * (1 - s))],
            [(1 + s - c) ** 2 / (4 * (1 + s)), (1 - s + c) ** 2 / (4 * (1 - s))],
        ]
    )


class TestTransmittance:
    def test_zero_distance(self):
        assert abs(transmittance(DEFAULTS) - 0.15) <= 1e-15

    def test_perfect_apparatus(self):
        p = ChannelParams(det_eff=1.0, atten_db_per_km=0.0, distance_km=100.0)
        assert transmittance(p) == 1.0

    def test_fifty_km(self):
        p = DEFAULTS.at(distance_km=50.0)
        assert abs(transmittance(p) - 0.0133687640720062) <= 1e-12

    @pytest.mark.parametrize("distance", [-1e300, -1.0, -5e-324, math.nan, -math.inf,
                                          np.array([1.0, math.nan]), np.array([[2.0, -3.0]])])
    def test_negative_or_nan_distance_rejected(self, distance):
        # -1e300 km used to overflow 10 ** x with a raw OverflowError
        with pytest.raises(ValidationError, match="^distance_km must be >= 0, got "):
            transmittance(DEFAULTS, distance)

    @pytest.mark.parametrize("distance, message", [
        (np.array([1.0 + 1j]), "^distance_km must be real, got complex values$"),
        (np.complex128(2.0), "^distance_km must be real, got complex values$"),
        ([np.complex128(1.0)], "^distance_km must be real, got complex values$"),
        (np.array([np.complex128(1.0)], dtype=object),
         "^distance_km must be real, got complex values$"),
        # a Python complex, alone or in an object array, as a NumPy one
        (np.array([1j], dtype=object), "^distance_km must be real, got complex values$"),
        (1j, "^distance_km must be real, got complex values$"),
        (np.array([np.complex64(1.0)], dtype=object),
         "^distance_km must be real, got complex values$"),
        ("x", "^distance_km must be numeric$"),
    ])
    def test_non_real_distance_rejected(self, distance, message):
        with pytest.raises(ValidationError, match=message):
            transmittance(DEFAULTS, distance)

    def test_non_negative_distances_keep_their_bits(self):
        # each point as the one formula in Python floats; inf km transmits nothing
        rng = np.random.default_rng(3)
        distances = [0.0, -0.0, 5e-324, 1e-300, 0.5, 50.0, 1e5, 1e300, 1.7e308, math.inf,
                     *rng.uniform(0.0, 500.0, 200).tolist()]
        expected = [DEFAULTS.det_eff * 10.0 ** (-DEFAULTS.atten_db_per_km * d / 10.0)
                    for d in distances]
        assert transmittance(DEFAULTS, np.array(distances)).tolist() == expected
        assert [float(transmittance(DEFAULTS, d)) for d in distances] == expected

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            ChannelParams(det_eff=0.0)
        with pytest.raises(ValidationError):
            ChannelParams(dark_count=1.0)

    def test_negative_attenuation_rejected(self):
        with pytest.raises(ValidationError, match="^atten_db_per_km must be >= 0$"):
            ChannelParams(atten_db_per_km=-0.1)
        with pytest.raises(ValidationError):
            ChannelParams(alpha=0.0)
        with pytest.raises(ValidationError):
            ChannelParams(distance_km=-1.0)

    @pytest.mark.parametrize("name", ["distance_km", "atten_db_per_km", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValidationError, match=name):
            ChannelParams(**{name: value})


class TestHelperInputContract:
    """The vectorized helpers take each ``alpha`` finite and > 0, and each
    transmittance ``t`` in [0, 1]; outside, they raise instead of warning."""

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, -1e300])
    def test_zbasis_alpha_rejected(self, alpha):
        with pytest.raises(ValidationError,
                           match=f"^alpha must be finite and > 0, got {re.escape(repr(alpha))}$"):
            zbasis_stats(DEFAULTS, alpha)

    def test_single_photon_infinite_alpha_rejected(self):
        with pytest.raises(ValidationError, match="^alpha must be finite and > 0, got inf$"):
            single_photon_stats(DEFAULTS, math.inf)

    @pytest.mark.parametrize("t", [math.inf, -math.inf])
    def test_infinite_transmittance_rejected(self, t):
        with pytest.raises(ValidationError, match=f"^t must be in \\[0, 1\\], got {t!r}$"):
            conditional_virtual_yields(DEFAULTS, t=t)

    def test_first_bad_element_named(self):
        with pytest.raises(ValidationError, match="^alpha must be finite and > 0, got nan$"):
            zbasis_stats(DEFAULTS, np.array([0.5, math.nan, -1.0]))

    def test_domain_edges_accepted(self):
        alpha = np.array([5e-324, 1e-300, 0.5, 1e300])
        t = np.array([[0.0], [1.0]])
        q_z, e_z = zbasis_stats(DEFAULTS, alpha, t)
        q_z1, e_x1 = single_photon_stats(DEFAULTS, alpha, t)
        assert np.isfinite(q_z).all() and np.isfinite(e_z).all()
        assert np.isfinite(q_z1).all() and np.isfinite(e_x1).all()


class TestConditionalVirtualYields:
    def test_everything_lost(self):
        # absurd distance underflows the transmittance to exactly zero
        p = ChannelParams(dark_count=0.0, distance_km=1e7)
        assert transmittance(p) == 0.0
        assert np.all(conditional_virtual_yields(p) == 0.0)

    def test_lossless_perfect(self):
        p = ChannelParams(dark_count=0.0, det_eff=1.0, atten_db_per_km=0.0)
        yields = conditional_virtual_yields(p)
        assert np.allclose(yields, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("distance", [0.0, 25.0, 80.0])
    def test_error_coefficient_matches_oracle(self, distance):
        delta = 0.126
        p = ChannelParams(dark_count=0.0, distance_km=distance, delta=delta)
        yields = conditional_virtual_yields(p)
        survive = transmittance(p)
        oracle = c_squared(1.5 * delta)
        assert np.abs(yields / survive - oracle).max() <= 1e-12


class TestSinglePhotonStats:
    def test_zero_error_zero_darks(self):
        for distance in (0.0, 50.0, 150.0):
            p = ChannelParams(dark_count=0.0, distance_km=distance)
            _, e_x1 = single_photon_stats(p)
            assert e_x1 == 0.0

    def test_distance_constancy_without_darks(self):
        values = [
            single_photon_stats(
                ChannelParams(dark_count=0.0, distance_km=d, delta=0.126)
            )[1]
            for d in (0.0, 50.0, 100.0, 150.0)
        ]
        assert max(values) - min(values) <= 1e-12

    def test_value_matches_coefficient_oracle(self):
        p = ChannelParams(dark_count=0.0, distance_km=50.0, delta=0.126)
        _, e_x1 = single_photon_stats(p)
        oracle = c_squared(1.5 * 0.126)
        expected = (oracle[1, 0] + oracle[0, 1]) / 2.0
        assert abs(e_x1 / expected - 1.0) <= 1e-6
        assert abs(expected - 2.23e-3) < 1e-5

    def test_darks_revive_errors_at_long_distance(self):
        short = single_photon_stats(DEFAULTS.at(delta=0.126, distance_km=0.0))[1]
        mid = single_photon_stats(DEFAULTS.at(delta=0.126, distance_km=50.0))[1]
        far = single_photon_stats(DEFAULTS.at(delta=0.126, distance_km=300.0))[1]
        assert abs(short - mid) < 1e-4
        assert far > 10.0 * short

    def test_gain_formula(self):
        p = ChannelParams(dark_count=0.0, det_eff=1.0, atten_db_per_km=0.0, alpha=0.5)
        q_z1, _ = single_photon_stats(p)
        assert abs(q_z1 - 0.5 * math.exp(-1.0) * 0.5) <= 1e-15

    def test_undefined_when_nothing_clicks(self):
        p = ChannelParams(dark_count=0.0, distance_km=1e7)
        with pytest.raises(UndefinedRateError):
            single_photon_stats(p)

    def test_priors(self):
        pri = virtual_priors(0.126)
        assert abs(pri.sum() - 1.0) <= 1e-15
        assert abs(pri[0] - (1 + math.sin(0.063)) / 2) <= 1e-15


class TestZBasis:
    def test_no_error_mechanism(self):
        p = ChannelParams(dark_count=0.0, delta=0.0, alpha=0.3, distance_km=20.0)
        q_z, e_z = zbasis_stats(p)
        assert e_z == 0.0
        assert q_z > 0.0

    def test_dark_count_limit(self):
        p = DEFAULTS.at(alpha=1e-9, distance_km=100.0)
        _, e_z = zbasis_stats(p)
        assert abs(e_z - 0.5) < 1e-2

    def test_regression_against_high_precision_oracle(self):
        # independent recomputation of the click/gain/error algebra at 50 digits
        p = DEFAULTS.at(alpha=0.5, delta=0.126, distance_km=50.0)
        q_z, e_z = zbasis_stats(p)
        with mp.workdps(50):
            ed = mp.mpf("0.5e-7")
            survive = mp.mpf("0.15") * mp.power(10, -mp.mpf("0.21") * 50 / 10)
            sig = mp.mpf("0.5") * survive
            half = mp.mpf("0.126") / 2
            p00 = ed + (1 - ed) * (1 - mp.e**-sig)
            p10 = ed
            p01 = ed + (1 - ed) * (1 - mp.e ** (-sig * mp.sin(half) ** 2))
            p11 = ed + (1 - ed) * (1 - mp.e ** (-sig * mp.cos(half) ** 2))
            gain = (p00 + p10 - p00 * p10) / 2 + (p01 + p11 - p01 * p11) / 2
            weight = ((1 - p00) * p10 + p00 * p10 / 2) / 2 + (
                p01 * (1 - p11) + p01 * p11 / 2
            ) / 2
            assert abs(q_z - float(gain)) <= 1e-15
            assert abs(e_z - float(weight / gain)) <= 1e-12

    @pytest.mark.parametrize("distance", [50, 150, 300])
    @pytest.mark.parametrize("delta,alpha", [("0.126", "0.5"), ("0.063", "0.05")])
    def test_full_precision_at_long_distance(self, distance, delta, alpha):
        # Q_z, e_z and Q_z1 against a 40-digit evaluation of the same model;
        # small transmittance and small mean photon number must not cost digits
        params = DEFAULTS.at(distance_km=float(distance), delta=float(delta), alpha=float(alpha))
        (q_z, e_z), (q_z1, _) = zbasis_stats(params), single_photon_stats(params)
        with mp.workdps(40):
            ed, a, half = mp.mpf("0.5e-7"), mp.mpf(alpha), mp.mpf(delta) / 2
            t = mp.mpf("0.15") * mp.power(10, -mp.mpf("0.21") * distance / 10)
            p00 = ed + (1 - ed) * -mp.expm1(-a * t)
            p01 = ed + (1 - ed) * -mp.expm1(-a * t * mp.sin(half) ** 2)
            p11 = ed + (1 - ed) * -mp.expm1(-a * t * mp.cos(half) ** 2)
            gain = (p00 + ed - p00 * ed) / 2 + (p01 + p11 - p01 * p11) / 2
            weight = ((1 - p00) * ed + p00 * ed / 2) / 2 + (p01 * (1 - p11) + p01 * p11 / 2) / 2
            s, c = mp.sin(3 * half / 2), mp.cos(3 * half / 2)
            c_sq = [[(1 + s + c) ** 2 / (4 * (1 + s)), (1 - s - c) ** 2 / (4 * (1 - s))],
                    [(1 + s - c) ** 2 / (4 * (1 + s)), (1 - s + c) ** 2 / (4 * (1 - s))]]
            prior = [(1 + mp.sin(half)) / 2, (1 - mp.sin(half)) / 2]
            weighted = sum(
                (t * c_sq[k][j] * (1 - ed / 2) + ed * (1 - ed / 2) + t * c_sq[1 - k][j] * ed)
                * prior[j]
                for k in (0, 1) for j in (0, 1)
            )
            expected = (gain, weight / gain, a * mp.exp(-2 * a) * weighted / 2)
            for value, oracle in zip(map(float, (q_z, e_z, q_z1)), expected):
                assert abs(value / oracle - 1) <= 1e-13

    def test_gain_monotone_error_growing_with_distance(self):
        distances = np.arange(0.0, 201.0, 10.0)
        stats = [zbasis_stats(DEFAULTS.at(alpha=0.4, delta=0.063, distance_km=d)) for d in distances]
        gains = [s[0] for s in stats]
        errors = [s[1] for s in stats]
        assert all(a >= b - 1e-15 for a, b in zip(gains, gains[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(errors, errors[1:]))

    def test_undefined_gain(self):
        p = ChannelParams(dark_count=0.0, distance_km=1e7, alpha=0.5)
        with pytest.raises(UndefinedRateError):
            zbasis_stats(p)


class TestChannelStats:
    @pytest.mark.parametrize("distance", [0.0, 50.0, 120.0])
    @pytest.mark.parametrize("delta", [0.0, 0.126])
    def test_single_photon_gain_below_total(self, distance, delta):
        params = DEFAULTS.at(distance_km=distance, delta=delta, alpha=0.45)
        assert single_photon_stats(params)[0] <= zbasis_stats(params)[0] + 1e-12

    def test_zstats_validation(self):
        with pytest.raises(ValidationError):
            ZStats(q_z=0.1, e_z=0.0, q_z1=0.2, e_x1=0.0)
        with pytest.raises(ValidationError):
            ZStats(q_z=0.1, e_z=1.5, q_z1=0.05, e_x1=0.0)

    @pytest.mark.parametrize("dark_count", [0.0, 0.5e-7, 1e-4])
    def test_model_e_x1_is_the_estimator_ratio(self, dark_count):
        # e_x1 is error_rate of the modelled virtual-yield table, bit for bit
        from qkdkit.estimator import error_rate

        rng = np.random.default_rng(5)
        params = DEFAULTS.at(dark_count=dark_count)
        t = transmittance(params, rng.uniform(0.0, 400.0, 50))
        delta = rng.uniform(0.0, 2.0, (8, 1))
        _, e_x1 = single_photon_stats(params, t=t, delta=delta)
        tables = conditional_virtual_yields(params, t, delta).reshape(-1, 2, 2)
        assert e_x1.ravel().tolist() == [error_rate(table) for table in tables]

    def test_two_paths_one_number(self):
        # analytic e_x1 == estimator pipeline on the equivalent experiment
        from qkdkit.estimator import phase_error_virtual, solve_functional
        from qkdkit.montecarlo import exact_yields, fiber_experiment
        from qkdkit.qstate import virtual_states_planar

        for delta, distance in ((0.0, 10.0), (0.063, 50.0), (0.126, 120.0)):
            p = DEFAULTS.at(delta=delta, distance_km=distance)
            _, analytic = single_photon_stats(p)
            exp = fiber_experiment(p)
            table = exact_yields(exp.sources, exp.channel, exp.povm, mixer=exp.mixer)
            f0 = solve_functional(table, exp.sources, outcome=0)
            f1 = solve_functional(table, exp.sources, outcome=1)
            pipeline = phase_error_virtual(f0, f1, virtual_states_planar(0.0))
            assert abs(pipeline - analytic) <= 1e-12
