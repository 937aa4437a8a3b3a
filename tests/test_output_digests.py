"""Estimator output pinned by digest over seeded inputs.

``estimator_inputs`` writes 60 yield files: canonical three-state tables,
three-state tables of modulated, partly mixed sources with ``px,pz``
columns, four-state tables of perturbed mixed sources with ``px,py,pz``
columns, and relay pair tables (party B sends ``0z, 1z, 0x`` or
``0z, 1z, 1x``), plus uniformly scaled copies of the first of each kind.
The yields are :func:`exact_yields` through ``random_channel(k)`` and
``random_povm(k)``, and for the relay the projection on Phi+ after
``random_channel(k)`` and ``random_channel(k + 1)``.

``tests/data/estimator_digests.txt`` holds, per input, the sha256 of the
exit code, stdout and stderr of one CLI call.  A change that moves any byte
of any report fails the test, which names the first input that differs.  To
repin after a change that means to move bytes (and says so), write the
output of ``digests(path)`` for an empty directory ``path`` to that file.

``tests/data/simulate_digests.txt`` holds, per ``simulate`` call of the
first round of seed 1 of the benchmark's ``simulate_small`` and
``simulate_large`` workloads, the sha256 of its exit code, stdout and counts
file; it is repinned the same way from ``simulate_digests(path)``.

``tests/data/workload_digests.txt`` holds, per call of the first round of
seed 1 of the benchmark's ``estimate_mix`` and ``sweep_dense`` workloads,
the sha256 of its exit code, stdout, stderr and written file (``None`` for
a call that writes none); it is repinned the same way from
``workload_digests(path)``.
"""

import contextlib
import csv
import hashlib
import io
import math
import os
import sys
from pathlib import Path

import numpy as np

import qkdkit
from qkdkit import cli
from qkdkit.montecarlo import exact_yields, random_channel, random_povm
from qkdkit.qstate import (
    BlochVector,
    SourceSet,
    basis_state,
    bloch_to_density,
    four_state_sources,
    modulated_three_state_sources,
    three_state_sources,
)

PINNED = Path(__file__).parent / "data" / "estimator_digests.txt"
SIMULATE_PINNED = Path(__file__).parent / "data" / "simulate_digests.txt"
WORKLOAD_PINNED = Path(__file__).parent / "data" / "workload_digests.txt"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TABLES_PER_KIND = 12
SCALES = (0.5, 0.125, 1e-3)
_PHI_PLUS = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def _write(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _shrunk(sources, factors, columns):
    """``sources`` with each Bloch vector scaled by its factor, and the
    written Bloch columns of each label."""
    entries, written = [], {}
    for (label, state, prior), factor in zip(sources.entries, factors):
        b = state.bloch()
        shrunk = BlochVector(v0=1.0, px=b.px * factor, py=b.py * factor, pz=b.pz * factor)
        written[label] = [repr(getattr(shrunk, column)) for column in columns]
        entries.append((label, bloch_to_density(shrunk), prior))
    return SourceSet(entries=tuple(entries)), written


def _yield_rows(sources, seed, written):
    table = exact_yields(sources, random_channel(seed), random_povm(seed))
    return [[label, basis, s, repr(table.get(basis, s, label)), repr(table.weight(basis, label)),
             *written.get(label, ())]
            for label in sources.labels for basis in ("x", "z") for s in (0, 1)]


def _relay_rows(seed, labels_b):
    gamma = 0.2 + 0.05 * (seed % 12)
    pairs = [np.kron(a, b) for a in random_channel(seed).operators
             for b in random_channel(seed + 1).operators]
    rows = []
    for label_a in ("0z", "1z", "0x"):
        for label_b in labels_b:
            rho = np.kron(basis_state(label_a).density, basis_state(label_b).density)
            p = sum((_PHI_PLUS @ k @ rho @ k.conj().T @ _PHI_PLUS).real for k in pairs)
            weight = gamma / 9.0 if label_a[-1] == label_b[-1] == "z" else 1.0 / 9.0
            rows.append([label_a, label_b, repr(weight * float(p)), repr(weight)])
    return rows


def estimator_inputs(directory):
    """``(name, argv)`` of each seeded input, written under ``directory``."""
    rng = np.random.default_rng(20141117)
    header = ["label", "basis", "outcome", "probability", "prior"]
    tables = []
    for i in range(TABLES_PER_KIND):
        seed = 100 + i
        tables.append((f"canonical-{i}", "estimate", header,
                       _yield_rows(three_state_sources(), seed, {})))
        sources, written = _shrunk(modulated_three_state_sources(rng.uniform(0.05, 0.6)),
                                   rng.choice([1.0, 0.95], size=3).tolist(), ("px", "pz"))
        tables.append((f"planar-{i}", "estimate", header + ["px", "pz"],
                       _yield_rows(sources, seed, written)))
        sources, written = _shrunk(four_state_sources(), rng.uniform(0.9, 1.0, size=4).tolist(),
                                   ("px", "py", "pz"))
        tables.append((f"full-{i}", "estimate", header + ["px", "py", "pz"],
                       _yield_rows(sources, seed, written)))
        labels_b = ("0z", "1z", "0x") if i % 2 else ("0z", "1z", "1x")
        tables.append((f"relay-{i}", "mdi-estimate", ["label_a", "label_b", "probability", "prior"],
                       _relay_rows(seed, labels_b)))
    for name, command, head, rows in tables[:4]:
        column = head.index("probability")
        for factor in SCALES:
            scaled = [row[:column] + [repr(float(row[column]) * factor)] + row[column + 1:]
                      for row in rows]
            tables.append((f"{name}-scaled-{factor!r}", command, head, scaled))
    inputs = []
    for name, command, head, rows in tables:
        path = Path(directory) / f"{name}.csv"
        _write(path, head, rows)
        inputs.append((name, [command, str(path)]))
    return inputs


def digests(directory):
    """``name sha256`` lines of the CLI's (exit code, stdout, stderr) per input."""
    lines = []
    for name, argv in estimator_inputs(directory):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        record = repr((rc, out.getvalue(), err.getvalue().replace(str(directory), "<dir>")))
        lines.append(f"{name} {hashlib.sha256(record.encode()).hexdigest()}")
    return lines


def test_estimator_output_digests(tmp_path):
    pinned = PINNED.read_text().splitlines()
    lines = digests(tmp_path)
    assert len(lines) == len(pinned)
    for line, expected in zip(lines, pinned):
        assert line == expected, f"first input whose output moved: {expected.split()[0]}"


def _first_round(name, directory):
    """The calls of the first round of seed 1 of the benchmark workload ``name``,
    as ``perfbench/workloads.py`` builds them, with inputs under ``directory``."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import workloads

    workload = workloads.WORKLOADS[name](1, str(directory))
    workload.prepare()
    return workload.next_round()


def simulate_digests(directory):
    """``name sha256`` lines of (exit code, stdout, counts file) per call of the
    first round of seed 1 of the ``simulate_small`` and ``simulate_large``
    workloads, whose calls ``perfbench/workloads.py`` builds; a call without a
    counts file gets one."""
    lines = []
    for name in ("simulate_small", "simulate_large"):
        for i, call in enumerate(_first_round(name, directory)):
            argv = list(call.argv)
            if "--out" not in argv:
                argv += ["--out", os.path.join(directory, "counts.csv")]
            out = Path(argv[argv.index("--out") + 1])
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
            counts = out.read_bytes()
            out.unlink()
            record = repr((rc, stdout.getvalue(), counts))
            lines.append(f"{name}-{i} {hashlib.sha256(record.encode()).hexdigest()}")
    return lines


def test_simulate_output_digests(tmp_path):
    pinned = SIMULATE_PINNED.read_text().splitlines()
    lines = simulate_digests(tmp_path)
    assert len(lines) == len(pinned)
    for line, expected in zip(lines, pinned):
        assert line == expected, f"first call whose output moved: {expected.split()[0]}"


def workload_digests(directory):
    """``name sha256`` lines of (exit code, stdout, stderr, written file) per call
    of the first round of seed 1 of the ``estimate_mix`` and ``sweep_dense``
    workloads."""
    lines = []
    for name in ("estimate_mix", "sweep_dense"):
        for i, call in enumerate(_first_round(name, directory)):
            argv = list(call.argv)
            out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = cli.main(argv)
            written = None
            if out is not None and out.exists():
                written = out.read_bytes()
                out.unlink()
            record = repr((rc, stdout.getvalue(),
                           stderr.getvalue().replace(str(directory), "<dir>"), written))
            lines.append(f"{name}-{i} {hashlib.sha256(record.encode()).hexdigest()}")
    return lines


def test_workload_output_digests(tmp_path):
    pinned = WORKLOAD_PINNED.read_text().splitlines()
    lines = workload_digests(tmp_path)
    assert len(lines) == len(pinned)
    for line, expected in zip(lines, pinned):
        assert line == expected, f"first call whose output moved: {expected.split()[0]}"


def test_public_names_pinned():
    # the sha256 of qkdkit.__all__ joined by commas: its 56 names, sorted
    digest = hashlib.sha256(",".join(qkdkit.__all__).encode()).hexdigest()
    assert digest == "5716d5337f635a4d78a782f86f68d1ffa27d8e114352eabc9aa01b0d93069b49"
