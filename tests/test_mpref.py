"""The transmission rates of the pinned ``estimate`` and ``mdi-estimate``
outputs, and the rows of the pinned sweep CSVs, against the 40-digit
references of ``tests/mpref.py``.

Each ``q[...]`` line of a pinned ``.out`` file must lie within ``MAX_ULPS``
of its input's reference, counted in ulps of the largest coefficient on the
line.  Each column of a pinned sweep row must lie within ``MAX_SWEEP_ULPS``
of its reference at the row's own ``alpha_opt``, counted in ulps of the
reference, and ``R`` in ulps of the larger of its two terms.  Each
``virtual_yield[...]`` or ``virtual_pair_yield[...]`` line of a pinned output
whose Z pair is canonical must lie within ``MAX_VIRTUAL_ULPS``, and its ``e_x``
line within ``MAX_E_X_ULPS``, counted in ulps of the reference.  Each ``R`` of
an optimized pinned sweep may lie at most ``MAX_SHORTFALL`` below the
40-digit maximum over the intensity, relative to that maximum.  The bounds
are the worst distance measured when they were set, rounded up; a change may
lower them, never raise them.
"""

import functools
from pathlib import Path

import mpmath
import numpy as np
import pytest

import mpref

DATA = Path(__file__).parent / "data"
#: per pinned input, the largest distance allowed, in ulps
MAX_ULPS = {"estimate_canonical": 4, "estimate_planar": 3, "estimate_four_state": 3,
            "mdi_relay": 13, "mdi_relay_mixed_labels": 9}
#: per pinned output whose Z pair is canonical, the largest distance allowed of
#: a virtual-yield line and of the e_x line, in ulps
MAX_VIRTUAL_ULPS = {"estimate_canonical": 6, "mdi_relay": 5, "mdi_relay_mixed_labels": 5}
MAX_E_X_ULPS = {"estimate_canonical": 1, "mdi_relay": 2, "mdi_relay_mixed_labels": 2}
#: per sweep column, the largest distance allowed over the pinned sweep CSVs, in ulps
MAX_SWEEP_ULPS = {"Q_z": 8, "e_z": 6, "Q_z1": 9, "e_x1": 11, "R": 8}
#: the pinned sweep CSVs and the f_ec each was written with
PINNED_SWEEPS = {"sweep_default": 1.22, "sweep_three_deltas_f_ec": 1.5, "sweep_fixed_alpha": 1.22}
#: per optimized pinned sweep, the number of rows with R > 0 and the largest
#: shortfall allowed of their R from the maximum, relative to the maximum
MAX_SHORTFALL = {"sweep_default": (93, 1.2e-15), "sweep_three_deltas_f_ec": (54, 1.4e-15)}


def printed_rates(name: str) -> list[list[float]]:
    """The coefficients of each ``q[...]`` line of a pinned output, in order."""
    return mpref.printed_rates((DATA / f"{name}.out").read_text())


@functools.cache
def sweep_maxima(name: str) -> list:
    """:func:`mpref.sweep_maxima` of an optimized pinned sweep, computed once."""
    return mpref.sweep_maxima(DATA / f"{name}.csv", PINNED_SWEEPS[name])


def ulps_off(values: list[float], exact: list, scale=None) -> float:
    """The largest distance of ``values`` from ``exact``, in ulps of ``scale``,
    by default of the largest value."""
    if scale is None:
        scale = max(abs(v) for v in values)
    scale = float(np.spacing(abs(float(scale))))
    with mpmath.workdps(mpref.DIGITS):
        return max(float(abs(mpmath.mpf(v) - e)) for v, e in zip(values, exact)) / scale


@pytest.mark.parametrize("name", ["estimate_canonical", "estimate_planar",
                                  "estimate_four_state"])
def test_single_party_rates_near_the_reference(name):
    reference = mpref.single_party_rates(DATA / f"{name}.csv")
    lines = printed_rates(name)
    assert [len(values) for values in lines] == [len(reference[0])] * 2
    for outcome, values in enumerate(lines):
        assert ulps_off(values, reference[outcome]) <= MAX_ULPS[name]


@pytest.mark.parametrize("name", ["mdi_relay", "mdi_relay_mixed_labels"])
def test_relay_rates_near_the_reference(name):
    reference = mpref.relay_rates(DATA / f"{name}.csv")
    lines = printed_rates(name)
    assert [len(values) for values in lines] == [1] * 9
    for values, exact in zip(lines, reference):
        assert ulps_off(values, [exact]) <= MAX_ULPS[name]


@pytest.mark.parametrize("name", MAX_VIRTUAL_ULPS)
def test_virtual_yields_and_e_x_near_the_reference(name):
    reference = mpref.virtual_references(DATA / f"{name}.csv")
    printed = mpref.printed_values((DATA / f"{name}.out").read_text())
    assert printed.keys() == reference.keys() and len(printed) == 5
    for line, value in printed.items():
        bound = MAX_E_X_ULPS[name] if line == "e_x" else MAX_VIRTUAL_ULPS[name]
        assert ulps_off([value], [reference[line]], reference[line]) <= bound, line


@pytest.mark.parametrize("name", PINNED_SWEEPS)
def test_sweep_rows_near_the_reference(name):
    rows = mpref.sweep_rows(DATA / f"{name}.csv", PINNED_SWEEPS[name])
    assert rows
    for row, reference in rows:
        for column in mpref.SWEEP_COLUMNS:
            scale = (max(reference["gain"], reference["cost"]) if column == "R"
                     else reference[column])
            off = ulps_off([row[column]], [reference[column]], scale)
            assert off <= MAX_SWEEP_ULPS[column], (column, row["delta"], row["distance_km"])


@pytest.mark.parametrize("name", MAX_SHORTFALL)
def test_sweep_rates_near_their_maximum(name):
    count, bound = MAX_SHORTFALL[name]
    maxima = sweep_maxima(name)
    assert len(maxima) == count
    with mpmath.workdps(mpref.DIGITS):
        shortfalls = [(best - mpmath.mpf(row["R"])) / best for row, (_, best) in maxima]
    assert float(max(shortfalls)) <= bound


@pytest.mark.parametrize("name", MAX_SHORTFALL)
def test_maximum_agrees_with_a_golden_search(name):
    # the first and the last row with R > 0 of each delta that has one, in a
    # bracket of +-1% around the printed alpha_opt
    ends = {}
    for row, best in sweep_maxima(name):
        ends.setdefault(row["delta"], []).append((row, best))
    checked = [pair for block in ends.values() for pair in (block[0], block[-1])]
    assert len(checked) == 2 * len(ends) >= 4
    with mpmath.workdps(mpref.DIGITS):
        for row, (alpha, rate) in checked:
            golden = mpref.golden_max_rate(row["delta"], row["distance_km"], PINNED_SWEEPS[name],
                                           row["alpha_opt"] * 0.99, row["alpha_opt"] * 1.01)
            assert abs(golden[0] - alpha) <= mpmath.mpf("1e-18") * alpha
            assert abs(golden[1] - rate) <= mpmath.mpf("1e-36") * rate


def test_reference_tells_a_one_ulp_error():
    # the canonical table's identity rate, moved by one ulp of itself at a time
    exact = mpref.single_party_rates(DATA / "estimate_canonical.csv")[0][0]
    value = float(exact)
    assert ulps_off([value], [exact]) <= 0.5
    assert 0.5 <= ulps_off([np.nextafter(value, 1.0)], [exact]) <= 1.5


@pytest.mark.parametrize("name", ["estimate_four_state", "mdi_relay"])
def test_a_rate_moved_one_ulp_away_counts_as_farther(name):
    # the first printed rate, moved one ulp away from its reference
    before = (DATA / f"{name}.out").read_text()
    lines = before.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("q["))
    value = mpref.printed_rates(lines[i])[0][0]
    exact = mpref.reference_rates(DATA / f"{name}.csv")[0]
    away = np.nextafter(value, np.inf if value >= exact else -np.inf)
    head, colon, tail = lines[i].partition(":")
    lines[i] = head + colon + tail.replace(f"{value:.17g}", f"{away:.17g}", 1)
    after = "".join(lines)
    unmoved = sum(map(len, mpref.printed_rates(before))) - 1
    path = DATA / f"{name}.csv"
    assert mpref.moved_rates(path, before, after) == {"farther": 1, "unmoved": unmoved}
    assert mpref.moved_rates(path, after, before) == {"nearer": 1, "unmoved": unmoved}
