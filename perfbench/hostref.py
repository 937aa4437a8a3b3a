"""A fixed reference task that measures the host's speed next to the program.

The benchmark runs on a shared host whose speed drifts by up to about 2x in
phases of seconds to minutes, and CPU time drifts with wall time (the
slowdown happens below the guest), so neither separates the program from
the host.  The reference task is fixed work that calls no qkdkit code, made
of the kinds of work the workloads do: interpreted Python, NumPy on small
arrays, and NumPy sampling over arrays too large for the cache.  Each
workload names the parts that match its own work.  The task runs in short
blocks between program calls, and each call's wall time is divided by the
host's slowdown measured by the blocks around it (see :func:`normalize`).

``NOMINAL_S`` holds each part's median time on the machine the reference
figures come from.  It only sets the scale of the normalized times and must
not change, or normalized figures taken before and after stop comparing.
"""

from __future__ import annotations

import time

import numpy as np

#: a block runs after the first call that ends this long after the last block
PERIOD_S = 0.4
#: a block runs whole tasks for this share of the time since the last block,
#: and for at least ``BLOCK_MIN_S``
BLOCK_SHARE = 0.1
BLOCK_MIN_S = 0.03

_SMALL = np.linspace(0.1, 1.0, 16)
_MATRIX = np.eye(4) + 0.1 * np.arange(16.0).reshape(4, 4) / 16.0
_VECTOR = np.ones(4)
_CDF = np.linspace(0.125, 0.875, 7)
_TABLE = np.tile([0.3, 0.8], (8, 1))
_RNG = np.random.default_rng(0)


def _interpreted() -> float:
    acc = 0.0
    table = {}
    for i in range(9000):
        key = i % 97
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += (i * 7 % 13) / (1.0 + key)
    return acc + sum(table.values())


def _small_arrays() -> float:
    acc = 0.0
    x = _SMALL
    for _ in range(225):
        y = np.exp(-x) * x + np.sqrt(x)
        acc += float(np.linalg.solve(_MATRIX, _VECTOR)[0]) + float(y.sum())
    return acc


def _large_arrays() -> float:
    u = _RNG.random(1 << 17)
    cells = np.searchsorted(_CDF, u, side="right")
    outcome = (_RNG.random(u.size)[:, None] > _TABLE[cells]).sum(axis=1)
    return float(np.bincount(cells * 3 + outcome, minlength=24)[5])


NOMINAL_S = {"interpreted": 0.002, "small_arrays": 0.002, "large_arrays": 0.010}
_PARTS = {"interpreted": _interpreted, "small_arrays": _small_arrays, "large_arrays": _large_arrays}


class HostClock:
    """Reference blocks, run between calls, and the host slowdown they measure."""

    def __init__(self, parts: tuple[str, ...]) -> None:
        self.parts = [_PARTS[name] for name in parts]
        self.nominal = sum(NOMINAL_S[name] for name in parts)
        self.blocks: list[float] = []  # each block's mean task time / nominal
        self.block_ends: list[float] = []

    def task_seconds(self) -> float:
        """Wall time of one run of the reference task."""
        start = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - start

    def block(self) -> None:
        start = time.perf_counter()
        since = start - self.block_ends[-1] if self.block_ends else 0.0
        budget = max(BLOCK_MIN_S, BLOCK_SHARE * since)
        reps, busy = 0, 0.0
        while reps == 0 or time.perf_counter() - start < budget:
            busy += self.task_seconds()
            reps += 1
        self.blocks.append(busy / (reps * self.nominal))
        self.block_ends.append(time.perf_counter())

    def due(self) -> bool:
        return not self.block_ends or time.perf_counter() - self.block_ends[-1] >= PERIOD_S

    def slowdown(self, before: int) -> float:
        """Host slowdown for a call made after block ``before``: the mean of
        that block's and the next block's."""
        return 0.5 * (self.blocks[before] + self.blocks[before + 1])


def normalize(latencies, blocks_before, clock: HostClock) -> list[float]:
    """Each call's wall time divided by the host slowdown around it: the time
    the call would take on a host that runs the reference task in its
    nominal time."""
    return [t / clock.slowdown(b) for t, b in zip(latencies, blocks_before)]
