"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.

Criterion 6b is stated exactly as required and is expected to fail: the
analytic model's pointwise rate ratio R(delta=0.126)/R(delta=0) dips to
~0.8497 around 30-75 km, below the required 0.85.  This is a property of
the model itself, not of the optimizer (verified against a 10^6-point
dense intensity grid) or of any bookkeeping freedom (every defensible
double-click convention for the bit-error weight lands between 0.8493 and
0.8500); the 0.85 bound holds at short distances and beyond ~90 km but not
at the dip, where the error-correction overhead peaks relative to the
single-photon gain.  The bound is left as-is and the failure is honest.
Sub-criteria 6a and 6c pass.
"""

import math
import time

import numpy as np
import qkdkit as qk
from qkdkit.channel import ChannelParams
from qkdkit.qstate import PAULI, QubitState, SourceSet, basis_state

DEFAULTS = ChannelParams()  # dark count 0.5e-7, det_eff 0.15, 0.21 dB/km


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def outcome_operator(channel, povm, outcome, basis="x"):
    m = povm.elements(basis)[outcome]
    return sum(op.conj().T @ m @ op for op in channel.operators)


def trace_ratio(ops, ensemble):
    """Oracle phase-error ratio from direct traces of the outcome operators."""
    (w0, s0), (w1, s1) = ensemble.entries
    y = {
        (s, j): w * float(np.trace(ops[s] @ state.density).real)
        for s in (0, 1)
        for j, (w, state) in enumerate(ensemble.entries)
    }
    num = y[1, 0] + y[0, 1]
    return num / (y[0, 0] + y[0, 1] + y[1, 0] + y[1, 1])


def test_criterion_1_estimator_exactness():
    start = time.monotonic()
    sources = qk.three_state_sources()
    perfect_x = qk.virtual_states_planar(0.0)
    worst_yield = worst_ex = 0.0
    for seed in range(1000):
        channel = qk.random_channel(seed)
        povm = qk.random_povm(100_000 + seed)
        table = qk.exact_yields(sources, channel, povm)
        ops = {s: outcome_operator(channel, povm, s) for s in (0, 1)}
        for s in (0, 1):
            f = qk.solve_functional(table, sources, outcome=s)
            solved = qk.predict_yield(f, basis_state("1x"), prior=1 / 6)
            oracle = float(np.trace(ops[s] @ basis_state("1x").density).real) / 6.0
            worst_yield = max(worst_yield, abs(solved - oracle))
        solved_ex = qk.phase_error_three_state(table)
        worst_ex = max(worst_ex, abs(solved_ex - trace_ratio(ops, perfect_x)))
    elapsed = time.monotonic() - start
    ok = worst_yield <= 1e-10 and worst_ex <= 1e-9 and elapsed <= 10.0
    assert report(
        "1",
        ok,
        f"1000 random channel/POVM pairs: max |Y(s,1x) - oracle| = {worst_yield:.2e} "
        f"(<=1e-10), max |e_x - oracle| = {worst_ex:.2e} (<=1e-9), {elapsed:.1f}s (<=10s)",
    )


def test_criterion_2_loss_tolerance_invariance():
    start = time.monotonic()
    sources = qk.three_state_sources()
    worst = 0.0
    for seed in range(200):
        channel = qk.random_channel(seed)
        povm = qk.random_povm(200_000 + seed)
        base = qk.phase_error_three_state(qk.exact_yields(sources, channel, povm))
        for ell in (0.1, 0.5, 0.9):
            lossy = qk.phase_error_three_state(
                qk.exact_yields(sources, channel.with_extra_loss(ell), povm)
            )
            worst = max(worst, abs(lossy - base))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed <= 5.0
    assert report(
        "2",
        ok,
        f"200 channels x loss {{0.1,0.5,0.9}}: max |delta e_x| = {worst:.2e} "
        f"(<=1e-10), {elapsed:.1f}s (<=5s)",
    )


def test_criterion_3_mdi_exactness():
    start = time.monotonic()
    sources = qk.three_state_sources()
    ensemble = qk.virtual_states_planar(0.0)
    axes = ("id", "x", "z")
    worst_q = worst_ex = 0.0
    for seed in range(200):
        rng = np.random.default_rng(300_000 + seed)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        operator = raw.conj().T @ raw
        operator *= rng.uniform(0.1, 1.0) / np.linalg.eigvalsh(operator).max()
        gamma = float(rng.uniform(0.05, 0.95))
        pairs = {}
        for la in sources.labels:
            for lb in sources.labels:
                weight = gamma / 9.0 if la.endswith("z") and lb.endswith("z") else 1.0 / 9.0
                product = np.kron(
                    sources.state(la).density, sources.state(lb).density
                )
                pairs[la, lb] = weight * float(np.trace(operator @ product).real)
        functional = qk.mdi_solve(pairs, sources, sources, gamma)
        for i, s in enumerate(axes):
            for j, t in enumerate(axes):
                oracle = float(
                    np.trace(operator @ np.kron(PAULI[s], PAULI[t])).real
                ) / 4.0
                worst_q = max(worst_q, abs(functional.q[i, j] - oracle))
        y = {
            (j, k): float(
                np.trace(
                    operator
                    @ np.kron(basis_state(f"{j}x").density, basis_state(f"{k}x").density)
                ).real
            )
            for j in (0, 1)
            for k in (0, 1)
        }
        oracle_ex = (y[0, 1] + y[1, 0]) / sum(y.values())
        worst_ex = max(
            worst_ex, abs(qk.mdi_phase_error(functional, ensemble, ensemble) - oracle_ex)
        )
    elapsed = time.monotonic() - start
    ok = worst_q <= 1e-10 and worst_ex <= 1e-9 and elapsed <= 10.0
    assert report(
        "3",
        ok,
        f"200 random two-qubit operators: max |q - oracle| = {worst_q:.2e} (<=1e-10), "
        f"max |e_x - oracle| = {worst_ex:.2e} (<=1e-9), {elapsed:.1f}s (<=10s)",
    )


def test_criterion_4_four_state_y_basis_recovery():
    start = time.monotonic()
    worst_q = worst_ey = 0.0
    for seed in range(200):
        rng = np.random.default_rng(400_000 + seed)
        channel = qk.random_channel(seed + 31)
        povm = qk.random_povm(410_000 + seed)
        while True:
            states = []
            for _ in range(4):
                vec = rng.normal(size=2) + 1j * rng.normal(size=2)
                vec /= np.linalg.norm(vec)
                states.append(QubitState.from_amplitudes(vec[0], vec[1]))
            sources = SourceSet(
                entries=tuple((f"s{i}", st, 0.25) for i, st in enumerate(states))
            )
            if qk.check_well_posed(sources.blochs()).well_posed:
                break
        table = qk.exact_yields(sources, channel, povm)
        ops = {s: outcome_operator(channel, povm, s) for s in (0, 1)}
        functionals = {}
        for s in (0, 1):
            f = qk.solve_functional(table, sources, outcome=s)
            functionals[s] = f
            for t in ("id", "x", "y", "z"):
                oracle = float(np.trace(ops[s] @ PAULI[t]).real) / 2.0
                worst_q = max(worst_q, abs(f.q[t] - oracle))
        ensemble = qk.virtual_states_from_purification(states[0], states[1], basis="y")
        solved = qk.phase_error_virtual(functionals[0], functionals[1], ensemble)
        worst_ey = max(worst_ey, abs(solved - trace_ratio(ops, ensemble)))
    elapsed = time.monotonic() - start
    ok = worst_q <= 1e-10 and worst_ey <= 1e-9
    assert report(
        "4",
        ok,
        f"200 random channels, tetrahedral sources: max |q - oracle| = {worst_q:.2e} "
        f"(<=1e-10), max |e_y - oracle| = {worst_ey:.2e} (<=1e-9), {elapsed:.1f}s",
    )


def test_criterion_5_analytic_closed_forms():
    values = [
        qk.single_photon_stats(
            ChannelParams(dark_count=0.0, distance_km=d, delta=0.126)
        )[1]
        for d in (0.0, 50.0, 100.0, 150.0)
    ]
    spread = max(values) - min(values)

    eps = 1.5 * 0.126
    s, c = math.sin(eps / 2.0), math.cos(eps / 2.0)
    c10_sq = (1 + s - c) ** 2 / (4 * (1 + s))
    c01_sq = (1 - s - c) ** 2 / (4 * (1 - s))
    oracle = (c10_sq + c01_sq) / 2.0
    rel = abs(values[0] / oracle - 1.0)

    clean = ChannelParams(dark_count=0.0, delta=0.0, distance_km=50.0)
    _, e_x1_clean = qk.single_photon_stats(clean)
    _, e_z_clean = qk.zbasis_stats(clean)

    ok = (
        spread <= 1e-12
        and rel <= 1e-6
        and abs(oracle - 2.23e-3) < 1e-5
        and e_x1_clean == 0.0
        and e_z_clean == 0.0
    )
    assert report(
        "5",
        ok,
        f"e_x1 spread over 0-150 km at e_d=0: {spread:.2e} (<=1e-12); value vs "
        f"C-coefficient oracle {oracle:.4e}: rel diff {rel:.2e} (<=1e-6); "
        f"exact zeros at delta=0: e_z={e_z_clean}, e_x1={e_x1_clean}",
    )


DISTANCES = [float(d) for d in range(0, 151, 5)]


def _sweep_rates(delta):
    return qk.sweep(DISTANCES, [delta], DEFAULTS, f_ec=1.22).rate


def test_criterion_6a_positive_rate_at_100km():
    start = time.monotonic()
    rates = {d: _sweep_rates(d)[DISTANCES.index(100.0)] for d in (0.0, 0.063, 0.126)}
    elapsed = time.monotonic() - start
    ok = all(r > 0.0 for r in rates.values()) and elapsed <= 30.0
    assert report(
        "6a",
        ok,
        f"R at 100 km: " + ", ".join(f"delta={d}: {r:.3e}" for d, r in rates.items())
        + f"; {elapsed:.1f}s (<=30s)",
    )


def test_criterion_6b_modulation_error_rate_ratio():
    base = _sweep_rates(0.0)
    modulated = _sweep_rates(0.126)
    ratios = [
        (distance, r1 / r0)
        for distance, r0, r1 in zip(DISTANCES, base, modulated)
        if r0 > 1e-10
    ]
    worst_distance, worst = min(ratios, key=lambda item: item[1])
    ok = worst >= 0.85
    report(
        "6b",
        ok,
        f"min pointwise R(0.126)/R(0) = {worst:.6f} at {worst_distance:.0f} km "
        f"(required >=0.85; known model limit, see module docstring)",
    )
    assert ok, (
        f"pointwise rate ratio {worst:.6f} < 0.85 at {worst_distance} km: the "
        "analytic model's ratio dips to ~0.8497 around 30-75 km, so the 0.85 "
        "bound is unattainable as stated (see module docstring)"
    )


def test_criterion_6c_sweep_is_byte_identical(tmp_path):
    from qkdkit import cli

    outs = []
    for name in ("s1.csv", "s2.csv"):
        out = tmp_path / name
        code = cli.main(
            ["sweep", "--delta", "0.0", "--distance", "0:150:5", "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    ok = outs[0] == outs[1]
    assert report("6c", ok, f"repeated delta=0 sweep identical: {ok} ({len(outs[0])} bytes)")


def test_criterion_7_monte_carlo_consistency():
    start = time.monotonic()
    params = DEFAULTS.at(distance_km=50.0, delta=0.126)
    experiment = qk.fiber_experiment(params)
    n = 1_000_000
    trial = qk.run_protocol(
        n, experiment.sources, experiment.channel, experiment.povm,
        seed=20_240_501, mixer=experiment.mixer,
    )
    exact = qk.exact_yields(
        experiment.sources, experiment.channel, experiment.povm, mixer=experiment.mixer
    )
    # the construction's X-basis virtual yields equal the analytic model exactly
    analytic_yields = qk.conditional_virtual_yields(params)
    model_gap = max(
        abs(exact.get("x", s, "0x") / exact.weight("x", "0x") - analytic_yields[s, 0])
        for s in (0, 1)
    )
    worst_sigma = 0.0
    for label in experiment.sources.labels:
        for basis in ("x", "z"):
            n_cell = sum(trial.counts[label, basis, o] for o in (0, 1, "f"))
            for outcome in (0, 1):
                p = exact.get(basis, outcome, label) / exact.weight(basis, label)
                got = trial.counts[label, basis, outcome] / n_cell
                sigma = math.sqrt(max(p * (1.0 - p), 1e-30) / n_cell)
                worst_sigma = max(worst_sigma, abs(got - p) / sigma)
    estimate = qk.estimate_from_trial(trial, experiment.sources)
    _, analytic_ex = qk.single_photon_stats(params)
    z_score = abs(estimate.e_x - analytic_ex) / estimate.std_err
    elapsed = time.monotonic() - start
    ok = model_gap <= 1e-12 and worst_sigma <= 5.0 and z_score <= 4.0 and elapsed <= 60.0
    assert report(
        "7",
        ok,
        f"n=1e6 at 50 km, delta=0.126: construction vs analytic model {model_gap:.1e} "
        f"(<=1e-12), worst cell deviation {worst_sigma:.2f} sigma (<=5), pipeline "
        f"z-score {z_score:.2f} (<=4), {elapsed:.1f}s (<=60s)",
    )


def dense_rates(params, alphas, f_ec):
    """Key rate over an array of intensities, from the public channel functions."""
    q_z, e_z = qk.zbasis_stats(params, alphas)
    q_z1, e_x1 = qk.single_photon_stats(params, alphas)
    rate = 0.5 * (q_z1 * (1.0 - qk.binary_entropy(e_x1)) - f_ec * q_z * qk.binary_entropy(e_z))
    return np.maximum(rate, 0.0)


def test_criterion_8_optimizer_soundness():
    start = time.monotonic()
    dense_alphas = np.geomspace(1e-4, 1.0, 100_000)
    configs = [
        (distance, delta, f_ec)
        for distance in (0.0, 25.0, 50.0, 75.0, 100.0)
        for delta in (0.0, 0.126)
        for f_ec in (1.0, 1.22)
    ]
    assert len(configs) == 20
    worst = 0.0
    for distance, delta, f_ec in configs:
        params = DEFAULTS.at(distance_km=distance, delta=delta)
        result = qk.optimize_alpha(params, f_ec=f_ec)
        dense = float(dense_rates(params, dense_alphas, f_ec).max())
        worst = max(worst, abs(result.rate - dense) / dense)
    elapsed = time.monotonic() - start
    ok = worst <= 1e-6
    assert report(
        "8",
        ok,
        f"20 configurations vs 1e5-point dense grid: max relative gap {worst:.2e} "
        f"(<=1e-6), {elapsed:.1f}s",
    )


def test_criterion_9_entropy_and_rate_sanity():
    exact = (
        qk.binary_entropy(0.0) == 0.0
        and qk.binary_entropy(1.0) == 0.0
        and qk.binary_entropy(0.5) == 1.0
    )
    half_error_zero = all(
        qk.secret_key_rate(qk.ZStats(q_z=q, e_z=e_z, q_z1=q1, e_x1=0.5)) == 0.0
        for q, e_z, q1 in ((0.1, 0.0, 0.05), (0.5, 0.1, 0.2), (1.0, 0.3, 0.9))
    )
    stats = qk.ZStats(q_z=0.1, e_z=0.02, q_z1=0.04, e_x1=0.01)
    rates = [qk.secret_key_rate(stats, f_ec=f) for f in np.linspace(1.0, 2.0, 11)]
    monotone = all(a >= b for a, b in zip(rates, rates[1:]))
    ok = exact and half_error_zero and monotone
    assert report(
        "9",
        ok,
        f"h endpoints exact: {exact}; R=0 at e_x1=1/2: {half_error_zero}; "
        f"R non-increasing in f_ec: {monotone}",
    )
