"""Tests of the host-speed normalization.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import hostref  # noqa: E402


def test_call_is_divided_by_the_mean_slowdown_of_the_blocks_around_it():
    clock = hostref.HostClock(("interpreted",))
    clock.blocks = [1.0, 2.0, 1.5]
    normalized = hostref.normalize([3.0, 1.5, 1.75], [0, 0, 1], clock)
    assert normalized == pytest.approx([2.0, 1.0, 1.0])


def test_block_measures_slowdown_against_nominal_time():
    for parts in (("interpreted", "small_arrays"), ("large_arrays",)):
        clock = hostref.HostClock(parts)
        clock.block()
        clock.block()
        assert len(clock.blocks) == 2
        # a shared host can run slower than nominal, never orders faster
        assert all(0.1 < slowdown < 100.0 for slowdown in clock.blocks)
