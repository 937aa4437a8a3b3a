import hashlib
import math
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from qkdkit import cli, keyrate
from qkdkit.channel import (
    ChannelParams,
    ZStats,
    single_photon_stats,
    zbasis_stats,
)
from qkdkit.errors import UndefinedRateError, ValidationError
from qkdkit.keyrate import (
    COARSE_GRID_POINTS,
    binary_entropy,
    optimize_alpha,
    SweepTable,
    secret_key_rate,
    sweep,
)

import mpref

DEFAULTS = ChannelParams()
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def reference_rates(params, alphas, f_ec):
    """Key rate over an array of intensities, from the public channel functions."""
    try:
        q_z, e_z = zbasis_stats(params, alphas)
        q_z1, e_x1 = single_photon_stats(params, alphas)
    except UndefinedRateError:  # nothing clicks
        return np.zeros_like(alphas)
    rate = 0.5 * (q_z1 * (1.0 - binary_entropy(e_x1)) - f_ec * q_z * binary_entropy(e_z))
    return np.maximum(rate, 0.0)


def reference_optimize(params, bounds=(1e-4, 1.0), tol=1e-4, f_ec=1.22):
    """Scalar grid scan plus golden-section search: the optimizer's specification.

    Returns ``(alpha, rate, zero_rate)``.
    """
    lo, hi = bounds
    grid = np.geomspace(lo, hi, COARSE_GRID_POINTS)
    rates = reference_rates(params, grid, f_ec)
    i = int(np.argmax(rates))
    if rates[i] <= 0.0:
        return float(grid[i]), 0.0, True

    def rate_at(alpha):
        return float(reference_rates(params, np.array([alpha]), f_ec)[0])

    best_alpha, best_rate = float(grid[i]), float(rates[i])
    a, b = float(grid[max(i - 1, 0)]), float(grid[min(i + 1, COARSE_GRID_POINTS - 1)])
    c, d = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    fc, fd = rate_at(c), rate_at(d)
    shrinking = True
    while shrinking and (b - a) > tol * max(a, lo):
        for x, fx in ((c, fc), (d, fd)):
            if fx > best_rate:
                best_alpha, best_rate = x, fx
        width = b - a
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = rate_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = rate_at(d)
        shrinking = (b - a) < width  # a bracket a few ulps wide can stop shrinking
    for x, fx in ((c, fc), (d, fd)):
        if fx > best_rate:
            best_alpha, best_rate = x, fx
    return best_alpha, best_rate, False


class TestBinaryEntropy:
    def test_exact_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_symmetric(self):
        assert abs(binary_entropy(0.3) - binary_entropy(0.7)) <= 1e-15

    def test_eleven_percent_benchmark(self):
        # oracle: 50-digit evaluation of -x log2 x - (1-x) log2 (1-x)
        with mp.workdps(50):
            x = mp.mpf("0.11")
            oracle = float(-(x * mp.log(x, 2) + (1 - x) * mp.log(1 - x, 2)))
        value = binary_entropy(0.11)
        assert abs(value - oracle) <= 1e-15
        assert f"{value:.4f}" == "0.4999"

    def test_vectorized(self):
        grid = np.array([0.0, 0.25, 0.5, 1.0])
        h = binary_entropy(grid)
        assert h.shape == grid.shape
        assert h[0] == 0.0 and h[3] == 0.0 and h[2] == 1.0

    def test_range_validation(self):
        with pytest.raises(ValidationError):
            binary_entropy(-0.01)
        with pytest.raises(ValidationError):
            binary_entropy(np.array([0.2, 1.01]))
        with pytest.raises(ValidationError):
            binary_entropy(math.nan)
        with pytest.raises(ValidationError):
            binary_entropy(np.array([0.2, math.nan]))

    @pytest.mark.parametrize("x", ["x", [0.1, "x"], [[0.1], [0.1, 0.2]]])
    def test_non_numeric_rejected(self, x):
        with pytest.raises(ValidationError, match="binary_entropy argument must be numeric"):
            binary_entropy(x)

    @pytest.mark.parametrize("x", [np.array([0.5 + 1j]), np.array([0.5 + 0j]),
                                   np.complex128(0.25), [np.complex128(0.5)],
                                   np.array([np.complex128(0.5)], dtype=object),
                                   np.array([0.5, np.complex64(0.5)], dtype=object),
                                   1j, np.array([0.5, 1j], dtype=object)])
    def test_complex_rejected(self, x):
        # NumPy would drop the imaginary part with a ComplexWarning
        with pytest.raises(ValidationError,
                           match="^binary_entropy argument must be real, got complex values$"):
            binary_entropy(x)

    def test_within_three_ulps_of_a_40_digit_entropy(self):
        # np.log may differ from libm's log in the last bit; on this draw h stays
        # within 2.44 ulps of h(x) at 40 digits, as SciPy's xlogy did
        edges, x = entropy_draw()
        h = binary_entropy(x)
        with mp.workdps(mpref.DIGITS):
            exact = [mpref.entropy(v) for v in x.tolist()]
            worst = max(float(abs(mp.mpf(v) - e)) / float(np.spacing(float(e)))
                        for v, e in zip(h.tolist(), exact))
        assert worst <= 3.0
        assert (h[0], h[len(edges) - 1]) == (0.0, 0.0)
        assert [binary_entropy(float(v)) for v in edges] == h[:len(edges)].tolist()

    def test_draw_bytes_pinned(self):
        # the bits of h on the 40-digit test's draw, as NumPy's x log x first gave them
        digest = hashlib.sha256(binary_entropy(entropy_draw()[1]).tobytes()).hexdigest()
        assert digest == "b166a72fa25f090aaf84fd6e9bc3051c52b082f22a468188ecb54fdf9cec7a3f"

    @pytest.mark.parametrize("x, kind, shape, bits", [
        (0.0, float, None, [-0.0]),  # h(0) = -(0 + 0) / ln 2 is -0.0
        (-0.0, float, None, [-0.0]),
        (1.0, float, None, [-0.0]),
        (np.float64(0.25), float, None, [0.8112781244591328]),
        (np.array(-0.0), float, None, [-0.0]),
        (np.array(0.25), float, None, [0.8112781244591328]),
        ([0.25, 0.0], np.ndarray, (2,), [0.8112781244591328, -0.0]),
        (np.array([]), np.ndarray, (0,), []),
        ([], np.ndarray, (0,), []),
        (np.zeros((2, 0)), np.ndarray, (2, 0), []),
        (np.array([[0.5, -0.0], [1.0, 0.25]]), np.ndarray, (2, 2),
         [1.0, -0.0, -0.0, 0.8112781244591328]),
    ])
    def test_edge_inputs_keep_values_types_and_shapes(self, x, kind, shape, bits):
        h = binary_entropy(x)
        assert type(h) is kind
        if shape is not None:
            assert h.shape == shape and h.dtype == np.float64
        assert np.asarray(h, dtype=float).tobytes() == np.array(bits, dtype=float).tobytes()


def entropy_draw():
    """Edge values of ``h`` and 20,000 uniform draws after them: ``(edges, x)``."""
    tiny = np.nextafter(0.0, 1.0)
    half = [np.nextafter(0.5, 0.0), 0.5, np.nextafter(0.5, 1.0)]
    edges = [0.0, tiny, 2 * tiny, 1e-310, 2.2250738585072014e-308, *half,
             1.0 - 2.0**-53, 1.0]
    return edges, np.concatenate([edges, np.random.default_rng(0).random(20_000)])


class TestSecretKeyRate:
    def test_half_phase_error_gives_zero(self):
        stats = ZStats(q_z=0.1, e_z=0.05, q_z1=0.05, e_x1=0.5)
        assert secret_key_rate(stats) == 0.0

    def test_noiseless(self):
        stats = ZStats(q_z=0.1, e_z=0.0, q_z1=0.04, e_x1=0.0)
        assert abs(secret_key_rate(stats) - 0.02) <= 1e-15

    def test_monotone_in_error_rates_and_f_ec(self):
        base = dict(q_z=0.1, q_z1=0.04)
        rates_ez = [
            secret_key_rate(ZStats(e_z=e, e_x1=0.01, **base)) for e in (0.0, 0.01, 0.02, 0.05)
        ]
        assert all(a >= b for a, b in zip(rates_ez, rates_ez[1:]))
        rates_ex = [
            secret_key_rate(ZStats(e_z=0.01, e_x1=e, **base)) for e in (0.0, 0.01, 0.05, 0.2)
        ]
        assert all(a >= b for a, b in zip(rates_ex, rates_ex[1:]))
        stats = ZStats(e_z=0.02, e_x1=0.01, **base)
        rates_f = [secret_key_rate(stats, f_ec=f) for f in (1.0, 1.1, 1.22, 1.5)]
        assert all(a >= b for a, b in zip(rates_f, rates_f[1:]))

    def test_f_ec_validation(self):
        with pytest.raises(ValidationError):
            secret_key_rate(ZStats(q_z=0.1, e_z=0.0, q_z1=0.04, e_x1=0.0), f_ec=0.9)


class TestOptimizeAlpha:
    def test_short_distance_positive(self):
        result = optimize_alpha(DEFAULTS.at(distance_km=0.0, delta=0.0))
        assert not result.zero_rate
        assert 0.0 < result.alpha < 1.0
        assert result.rate > 0.0

    @pytest.mark.parametrize(
        "distance,delta", [(0.0, 0.0), (50.0, 0.126), (100.0, 0.063), (140.0, 0.126)]
    )
    def test_matches_dense_grid(self, distance, delta):
        params = DEFAULTS.at(distance_km=distance, delta=delta)
        result = optimize_alpha(params)
        dense = reference_rates(params, np.geomspace(1e-4, 1.0, 100_000), 1.22).max()
        assert result.rate >= dense * (1.0 - 1e-6)

    def test_beats_every_coarse_grid_point(self):
        params = DEFAULTS.at(distance_km=75.0, delta=0.063)
        result = optimize_alpha(params)
        coarse = reference_rates(params, np.geomspace(1e-4, 1.0, 64), 1.22)
        assert result.rate >= coarse.max()

    def test_zero_rate_flag_beyond_cutoff(self):
        result = optimize_alpha(DEFAULTS.at(distance_km=500.0, delta=0.0))
        assert result.zero_rate
        assert result.rate == 0.0
        assert result.alpha > 0.0

    def test_regression_locked_fifty_km(self):
        result = optimize_alpha(DEFAULTS.at(distance_km=50.0, delta=0.0), f_ec=1.22)
        assert result.rate > 0.0
        assert abs(result.rate - 6.141594789602746e-4) <= 1e-12
        assert abs(result.alpha - 0.4999633275718594) <= 1e-12

    def test_bounds_validation(self):
        with pytest.raises(ValidationError):
            optimize_alpha(DEFAULTS, bounds=(0.5, 0.1))


# (distances, bounds, tol, f_ec): defaults; a tighter interval, tolerance and
# f_ec; optima on the upper bound (alpha_max 0.05) and on the lower bound
# (alpha_min 0.6); a tolerance the first bracket already meets; a tolerance below
# float resolution, where the bracket stops shrinking; 500 km has no key
SEARCH_CASES = [
    ([0.0, 1e-9, 37.5, 100.0, 149.5, 500.0], (1e-4, 1.0), 1e-4, 1.22),
    ([0.0, 60.0, 130.0, 250.0], (1e-3, 0.3), 1e-7, 1.0),
    ([0.0, 80.0, 140.0], (1e-5, 0.05), 1e-3, 1.5),
    ([0.0, 80.0, 140.0], (0.6, 2.0), 1e-4, 1.22),
    ([10.0, 90.0], (1e-4, 1.0), 0.5, 1.1),
    ([0.0, 60.0, 140.0], (1e-4, 1.0), 1e-17, 1.22),
]


SEARCH_DELTAS = [0.0, 0.063, 0.126, 0.5]


class TestBatchedOptimizer:
    """The batched search equals the scalar specification bit for bit."""

    @pytest.mark.parametrize("delta", SEARCH_DELTAS)
    @pytest.mark.parametrize("distances,bounds,tol,f_ec", SEARCH_CASES)
    def test_sweep_and_optimize_alpha_match_reference(self, delta, distances, bounds, tol, f_ec):
        # one search over all four deltas; the rows of ``delta`` are checked
        table = sweep(distances, SEARCH_DELTAS, DEFAULTS, f_ec=f_ec, bounds=bounds, tol=tol)
        block = table.delta == delta
        assert table.distance_km[block].tolist() == distances
        for distance, alpha_opt, rate in zip(distances, table.alpha_opt[block], table.rate[block]):
            params = DEFAULTS.at(distance_km=distance, delta=delta)
            alpha, rate_ref, zero_rate = reference_optimize(params, bounds, tol, f_ec)
            result = optimize_alpha(params, bounds=bounds, tol=tol, f_ec=f_ec)
            assert (result.alpha, result.rate, result.zero_rate) == (alpha, rate_ref, zero_rate)
            assert (alpha_opt, rate) == (alpha, rate_ref)

    @settings(max_examples=50, deadline=None)
    @given(lo=st.floats(-6.0, 0.0), decades=st.floats(0.05, 4.0), tol=st.floats(-17.0, -0.5),
           f_ec=st.floats(1.0, 2.0), dark=st.one_of(st.none(), st.floats(-9.0, -3.0)),
           deltas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=2),
           distances=st.lists(st.floats(0.0, 600.0), min_size=1, max_size=3))
    def test_random_searches_match_reference(self, lo, decades, tol, f_ec, dark, deltas, distances):
        # bounds, tol and the dark count are drawn by their decimal exponents
        bounds, tol = (10.0**lo, 10.0**(lo + decades)), 10.0**tol
        params = DEFAULTS.at(dark_count=0.0 if dark is None else 10.0**dark)
        table = sweep(distances, deltas, params, f_ec=f_ec, bounds=bounds, tol=tol)
        points = [(delta, distance) for delta in deltas for distance in distances]
        assert list(zip(table.delta.tolist(), table.distance_km.tolist())) == points
        for (delta, distance), alpha_opt, rate in zip(points, table.alpha_opt, table.rate):
            point = params.at(distance_km=distance, delta=delta)
            alpha, rate_ref, zero_rate = reference_optimize(point, bounds, tol, f_ec)
            result = optimize_alpha(point, bounds=bounds, tol=tol, f_ec=f_ec)
            assert (result.alpha, result.rate, result.zero_rate) == (alpha, rate_ref, zero_rate)
            assert (alpha_opt, rate) == (alpha, rate_ref)

    def test_cases_reach_bounds_and_zero_rate(self):
        # guards SEARCH_CASES: they must keep covering the edge cases they name
        far = reference_optimize(DEFAULTS.at(distance_km=500.0))
        assert far[2] and far[0] == 1e-4
        upper = reference_optimize(DEFAULTS.at(distance_km=80.0), (1e-5, 0.05), 1e-3, 1.5)
        lower = reference_optimize(DEFAULTS.at(distance_km=80.0), (0.6, 2.0))
        assert upper[0] > 0.05 * (1.0 - 1e-3) and lower[0] < 0.6 * (1.0 + 1e-4)


class TestRateEvaluations:
    """Each search makes 20 rate evaluations: the grid scan, the first two
    probes and one new probe per golden step (17 at the default tol)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """The number of calls of each rate function ``_rate_function`` returns."""
        counts = []
        rate_function = keyrate._rate_function

        def counting(*args):
            rates, shape = rate_function(*args)
            counts.append(0)
            index = len(counts) - 1

            def counted(*rate_args):
                counts[index] += 1
                return rates(*rate_args)

            return counted, shape

        monkeypatch.setattr(keyrate, "_rate_function", counting)
        return counts

    # the three calls of a sweep_dense round: 100 distances each, three deltas
    @pytest.mark.parametrize("distance", ["0.0:148.5:1.5", "0.5:149.0:1.5", "1.0:149.5:1.5"])
    def test_dense_sweep_grid(self, tmp_path, counts, distance):
        out = tmp_path / "dense.csv"
        assert cli.main(["sweep", "--optimize", "--distance", distance, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 301
        assert counts == [20]

    def test_default_sweep(self, tmp_path, counts):
        assert cli.main(["sweep", "--out", str(tmp_path / "default.csv")]) == 0
        assert counts == [20]

    def test_optimize_alpha(self, counts):
        optimize_alpha(DEFAULTS.at(distance_km=50.0))
        assert counts == [20]


def rows(table):
    """The rows of a sweep table as tuples of the bytes of each cell."""
    columns = [getattr(table, f.name) for f in fields(table)]
    return list(zip(*([x.tobytes() for x in column] for column in columns)))


class TestSweep:
    def test_empty_distances(self):
        for distances, deltas in (([], [0.0]), ([0.0, 10.0], []), ([], [])):
            table = sweep(distances, deltas, DEFAULTS)
            assert all(getattr(table, f.name).shape == (0,) for f in fields(table))

    def test_order_invariance(self):
        distances = [0.0, 40.0, 80.0]
        forward = sweep(distances, [0.063], DEFAULTS)
        backward = sweep(distances[::-1], [0.063], DEFAULTS)
        assert rows(forward) == rows(backward)[::-1]

    @pytest.mark.parametrize("alpha", [None, 0.3])
    def test_rows_do_not_depend_on_other_deltas(self, alpha):
        # each delta's block equals its own single-delta sweep bit for bit, and
        # reversing the deltas only reverses the blocks
        distances, deltas = [0.0, 1e-9, 37.5, 149.5, 500.0], [0.0, 0.063, 0.126, 0.5, 1.2]
        table = rows(sweep(distances, deltas, DEFAULTS, f_ec=1.5, alpha=alpha))
        blocks = [table[i:i + len(distances)] for i in range(0, len(table), len(distances))]
        singles = [rows(sweep(distances, [d], DEFAULTS, f_ec=1.5, alpha=alpha)) for d in deltas]
        assert blocks == singles
        reverse = rows(sweep(distances, deltas[::-1], DEFAULTS, f_ec=1.5, alpha=alpha))
        assert reverse == [row for block in blocks[::-1] for row in block]

    def test_monotone_rate(self):
        rates = sweep(list(np.arange(0.0, 151.0, 10.0)), [0.063], DEFAULTS).rate
        assert all(a >= b - 1e-15 for a, b in zip(rates, rates[1:]))

    def test_negative_distance_rejected(self):
        with pytest.raises(ValidationError):
            sweep([-1.0], [0.0], DEFAULTS)

    @pytest.mark.parametrize("distances, deltas, message", [
        (5.0, [0.0], r"distances must be 1-D, got shape \(\)"),
        ([[1.0, 2.0]], [0.0], r"distances must be 1-D, got shape \(1, 2\)"),
        ([1.0], [[0.0, 0.1]], r"deltas must be 1-D, got shape \(1, 2\)"),
        ([1.0], 0.0, r"deltas must be 1-D, got shape \(\)"),
        (["x"], [0.0], "distances must be a sequence of numbers"),
        ([1.0], [[0.0], [0.0, 0.1]], "deltas must be a sequence of numbers"),
        (np.array([1.0 + 2j]), [0.0], "distances must be real, got complex values"),
        ([1.0], np.array([0.0j]), "deltas must be real, got complex values"),
        (np.array([np.complex128(1.0)], dtype=object), [0.0],
         "distances must be real, got complex values"),
        ([1.0], np.array([np.complex128(0.0)], dtype=object),
         "deltas must be real, got complex values"),
    ])
    def test_malformed_sequence_rejected(self, distances, deltas, message):
        with pytest.raises(ValidationError, match=message):
            sweep(distances, deltas, DEFAULTS)

    @pytest.mark.parametrize("distance", [math.nan, math.inf])
    def test_non_finite_distance_rejected(self, distance):
        with pytest.raises(ValidationError, match="finite"):
            sweep([10.0, distance], [0.0], DEFAULTS)

    @pytest.mark.parametrize("delta", [-0.1, 2.0 * math.pi / 3.0, math.nan])
    def test_out_of_range_delta_rejected(self, delta):
        with pytest.raises(ValidationError, match="delta"):
            sweep([10.0], [0.0, delta], DEFAULTS)

    def test_fixed_alpha_skips_optimization(self):
        table = sweep([0.0, 50.0], [0.0, 0.126], DEFAULTS, alpha=0.3)
        assert table.alpha_opt.tolist() == [0.3] * 4

    def test_rate_is_secret_key_rate_of_its_row(self):
        # the sweep and secret_key_rate state the rate formula once, so they agree bit for bit
        rng = np.random.default_rng(11)
        for _ in range(300):
            params = DEFAULTS.at(dark_count=float(rng.choice([0.0, 0.5e-7, 1e-4])))
            distance, delta = float(rng.uniform(0.0, 300.0)), float(rng.uniform(0.0, 0.8))
            alpha, f_ec = float(rng.uniform(1e-3, 1.0)), float(rng.uniform(1.0, 1.6))
            row = sweep([distance], [delta], params, f_ec=f_ec, alpha=alpha)
            stats = ZStats(q_z=float(row.q_z[0]), e_z=float(row.e_z[0]),
                           q_z1=float(row.q_z1[0]), e_x1=float(row.e_x1[0]))
            assert row.rate[0] == secret_key_rate(stats, f_ec=f_ec)

    def test_sliced_grid_scan_bounds_memory(self, monkeypatch):
        # an unsliced scan holds (points, 64) temporaries: a 98 MiB peak here
        distances = [k * 0.0075 for k in range(20_000)]
        tracemalloc.start()
        try:
            table = sweep(distances, [0.063], DEFAULTS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        monkeypatch.setattr(keyrate, "GRID_SCAN_SLICE", len(distances))  # one slice
        unsliced = sweep(distances, [0.063], DEFAULTS)
        for f in fields(table):
            assert getattr(table, f.name).tobytes() == getattr(unsliced, f.name).tobytes()

    def test_ratio_nearly_constant_without_darks(self):
        params = DEFAULTS.at(dark_count=0.0)
        distances = list(np.arange(0.0, 101.0, 20.0))
        base, mod = sweep(distances, [0.0, 0.126], params).rate.reshape(2, -1)
        ratios = [m / b for b, m in zip(base, mod) if b > 1e-10]
        assert max(ratios) - min(ratios) <= 0.02 * max(ratios)


class TestSweepTable:
    """The record checks run once per column."""

    GOOD = dict(delta=[0.0, 0.1], distance_km=[0.0, 5.0], alpha_opt=[0.5, 0.4],
                q_z=[0.1, 0.05], e_z=[0.01, 0.02], q_z1=[0.05, 0.02], e_x1=[0.0, 0.01],
                rate=[0.02, 0.0])

    def table(self, **changes):
        return SweepTable(**{k: np.array(changes.get(k, v)) for k, v in self.GOOD.items()})

    def test_valid_columns_accepted(self):
        assert self.table().rate.tolist() == [0.02, 0.0]

    @pytest.mark.parametrize("column, values, message", [
        ("rate", [0.02, math.nan], "rate = nan is out of range"),
        ("rate", [-1e-3, 0.0], "rate = -0.001 is out of range"),
        ("alpha_opt", [0.5, 0.0], "alpha_opt = 0.0 is out of range"),
        ("e_z", [0.01, 1.5], "e_z = 1.5 is out of range"),
        ("q_z", [math.inf, 0.05], "q_z = inf is out of range"),
        ("e_x1", [math.nan, 0.0], "e_x1 = nan is out of range"),
        ("q_z1", [0.05, 0.06], "single-photon gain exceeds the overall gain"),
        # a single point, as ZStats, runs the same checks
        (ZStats, dict(q_z=0.1, e_z=1.5, q_z1=0.05, e_x1=0.0), "e_z = 1.5 is out of range"),
        (ZStats, dict(q_z=math.inf, e_z=0.0, q_z1=0.05, e_x1=0.0), "q_z = inf is out of range"),
        (ZStats, dict(q_z=0.1, e_z=0.0, q_z1=0.05, e_x1=math.nan), "e_x1 = nan is out of range"),
        (ZStats, dict(q_z=0.1, e_z=0.0, q_z1=-1e-3, e_x1=0.0), "q_z1 = -0.001 is out of range"),
        (ZStats, dict(q_z=0.05, e_z=0.0, q_z1=0.06, e_x1=0.0),
         "single-photon gain exceeds the overall gain"),
    ])
    def test_bad_column_rejected(self, column, values, message):
        with pytest.raises(ValidationError, match=message):
            if column is ZStats:
                ZStats(**values)
            else:
                self.table(**{column: values})
