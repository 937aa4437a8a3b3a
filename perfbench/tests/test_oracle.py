"""Property tests of the benchmark's independent oracle.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import oracle  # noqa: E402
import workloads  # noqa: E402


def test_phase_error_independent_of_distance_without_dark_counts():
    distance = np.linspace(0.0, 200.0, 41)
    for delta in (0.0, 0.063, 0.126, 0.5):
        e_x1 = oracle.fiber_stats(distance, delta, 0.5, dark_count=0.0)["e_x1"]
        assert np.ptp(e_x1) <= 1e-15
        # closed form: virtual state 0 clicks detector 1 with sin^2(3 delta / 8)
        assert e_x1[0] == pytest.approx(np.sin(3.0 * delta / 8.0) ** 2, abs=1e-15)


def test_rate_is_zero_at_half_phase_error():
    stats = {"Q_z": np.array([0.01]), "e_z": np.array([0.01]), "Q_z1": np.array([0.005]),
             "e_x1": np.array([0.5])}
    rate = oracle.key_rate(stats)
    assert rate[0] == 0.0
    stats["e_x1"] = np.array([0.0])
    stats["e_z"] = np.array([0.0])
    rate = oracle.key_rate(stats)
    assert rate[0] == pytest.approx(0.5 * 0.005)


def test_binary_entropy_endpoints_and_symmetry():
    x = np.array([0.0, 1e-9, 0.11, 0.5, 0.89, 1.0])
    h = oracle.binary_entropy(x)
    assert h[0] == 0.0 and h[-1] == 0.0 and h[3] == 1.0
    assert h[2] == pytest.approx(h[4], rel=1e-14)


def test_error_ratios_unchanged_by_uniform_loss():
    rng = np.random.default_rng(5)
    for _ in range(20):
        kraus, povm = workloads.random_kraus(rng), workloads.random_povm(rng)
        keep = np.sqrt(rng.uniform(0.01, 0.9))
        lossy = [keep * a for a in kraus]
        weights, states = oracle.virtual_states(oracle.projector(oracle.KETS["0z"]),
                                                oracle.projector(oracle.KETS["1z"]))
        a = oracle.phase_error_ratio(kraus, povm["x"], weights, states)
        b = oracle.phase_error_ratio(lossy, povm["x"], weights, states)
        assert b == pytest.approx(a, rel=1e-12)
        u = workloads.random_unitary(rng, 4)
        d = u @ np.diag(rng.uniform(0.05, 0.95, size=4)) @ u.conj().T
        assert oracle.pair_phase_error(0.3 * d) == pytest.approx(oracle.pair_phase_error(d), rel=1e-12)


def test_fiber_phase_error_unchanged_by_transmittance_without_dark_counts():
    for delta in (0.063, 0.3):
        a = oracle.fiber_stats(np.array([10.0]), delta, 0.5, dark_count=0.0, det_eff=0.9)["e_x1"]
        b = oracle.fiber_stats(np.array([10.0]), delta, 0.5, dark_count=0.0, det_eff=0.01)["e_x1"]
        assert b[0] == pytest.approx(a[0], rel=1e-13)


def test_virtual_states_of_perfect_pair_are_x_eigenstates():
    weights, states = oracle.virtual_states(oracle.projector(oracle.KETS["0z"]),
                                            oracle.projector(oracle.KETS["1z"]))
    assert weights == pytest.approx([0.5, 0.5], abs=1e-15)
    assert np.abs(states[0] - oracle.projector(oracle.KETS["0x"])).max() < 1e-15
    assert np.abs(states[1] - oracle.projector(oracle.KETS["1x"])).max() < 1e-15


def test_virtual_states_average_back_to_the_z_pair():
    """Summed over the virtual bit, the ensemble is (rho_0z + rho_1z) / 2."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        rhos = []
        for label in ("0z", "1z"):
            u = workloads.random_rotation(rng, 0.5)
            r = rng.uniform(0.8, 1.0)
            rho = u @ oracle.projector(oracle.KETS[label]) @ u.conj().T
            rhos.append(r * rho + (1.0 - r) * oracle.ID2 / 2.0)
        for basis in ("x", "y"):
            weights, states = oracle.virtual_states(*rhos, basis)
            mix = weights[0] * states[0] + weights[1] * states[1]
            assert np.abs(mix - (rhos[0] + rhos[1]) / 2.0).max() < 1e-13


def test_modulated_virtual_weights():
    """P(j_x) = [1 + (-1)^j sin(delta/2)] / 2 for the pure modulated pair."""
    for delta in (0.0, 0.126, 0.6):
        weights, _ = oracle.virtual_states(oracle.projector(oracle.encode(0.0, delta)),
                                           oracle.projector(oracle.encode(np.pi, delta)))
        s = np.sin(delta / 2.0)
        assert weights == pytest.approx([(1 + s) / 2, (1 - s) / 2], abs=1e-14)


def test_dark_count_mixing_conserves_probability_and_is_identity_without_darks():
    p0, p1 = 0.3, 0.45
    assert oracle.dark_count_mix(p0, p1, 0.0) == pytest.approx((p0, p1, 1 - p0 - p1))
    m0, m1, mf = oracle.dark_count_mix(p0, p1, 1e-3)
    assert m0 + m1 + mf == pytest.approx(1.0, abs=1e-15)
    assert m0 > p0 * (1 - 1e-3) and m1 > p1 * (1 - 1e-3)


def test_fiber_cells_reproduce_the_analytic_phase_error():
    """Three-state estimator on exact cells gives e_x1 (the model's design)."""
    for distance, delta in ((0.0, 0.126), (50.0, 0.126), (120.0, 0.4)):
        cells = oracle.fiber_cell_probs(distance, delta)
        assert sum(cells.values()) == pytest.approx(1.0, abs=1e-14)
        y = {(s, lab): cells[lab, "x", s] for s in (0, 1) for lab in ("0z", "1z", "0x")}
        virtual0 = y[0, "0z"] + y[0, "1z"] - y[0, "0x"]
        e_x = (virtual0 + y[1, "0x"]) / (y[0, "0z"] + y[0, "1z"] + y[1, "0z"] + y[1, "1z"])
        expected = oracle.fiber_stats(np.array(distance), delta, 0.5)["e_x1"]
        assert e_x == pytest.approx(float(expected), rel=1e-9)


def test_transmission_rates_predict_trace_yields():
    rng = np.random.default_rng(3)
    kraus, povm = workloads.random_kraus(rng), workloads.random_povm(rng)
    q = oracle.transmission_rates(kraus, povm["x"][0], planar=False)
    for _ in range(10):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        rho = oracle.density(*v)
        predicted = q["id"] + v[0] * q["x"] + v[1] * q["y"] + v[2] * q["z"]
        assert predicted == pytest.approx(oracle.trace_yield(kraus, rho, povm["x"][0]), rel=1e-12)


def test_zbasis_stats_keep_full_precision_at_long_distance():
    """Against 40-digit arithmetic: small mean photon numbers lose no digits."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    e_d, det_eff, atten, alpha = (mp.mpf(v) for v in (oracle.DARK_COUNT, oracle.DET_EFF,
                                                      oracle.ATTEN_DB_PER_KM, 0.5))
    for delta in (0.063, 0.126):
        for distance in (100.0, 148.5, 149.5):
            m = alpha * det_eff * mp.power(10, -atten * mp.mpf(distance) / 10)
            p00 = e_d + (1 - e_d) * -mp.expm1(-m)
            p10 = e_d
            p01 = e_d + (1 - e_d) * -mp.expm1(-m * mp.sin(mp.mpf(delta) / 2) ** 2)
            p11 = e_d + (1 - e_d) * -mp.expm1(-m * mp.cos(mp.mpf(delta) / 2) ** 2)
            gain = (p00 + p10 - p00 * p10) / 2 + (p01 + p11 - p01 * p11) / 2
            wrong = ((1 - p00) * p10 + p00 * p10 / 2) / 2 + (p01 * (1 - p11) + p01 * p11 / 2) / 2
            stats = oracle.fiber_stats(np.array(distance), delta, 0.5)
            assert float(stats["Q_z"]) == pytest.approx(float(gain), rel=1e-14)
            assert float(stats["e_z"]) == pytest.approx(float(wrong / gain), rel=1e-14)
