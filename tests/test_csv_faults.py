"""Every message of the CSV readers pinned over seeded faulty and odd files.

``csv_inputs`` writes 300 files of the three CSV kinds (counts, yield and
pair-yield), each built from one of the pinned inputs under ``tests/data``.
The first 220 carry one to three faults each: unparsable, blank, NaN or
infinite cells (one or two in a row), short rows, extra cells, a dropped
column, duplicate keys, inconsistent priors, Bloch columns or Z-Z gamma,
and X pairs off the 1/9 prior.  The last 80 are formatted oddly, in one or
two ways each: spaces around numbers, ``+1``, ``1_0``, ``1e-320``, columns
in another order or an unknown column.  Most of these are valid; a way
applied twice can write ``++1`` or name a column twice.  Any file may also
have CRLF line endings, blank lines, trailing commas, a byte-order mark or
a quoted multi-line cell, so that a message's ``row N`` differs from the
record's index.

``tests/data/csv_fault_digests.txt`` holds one line per file: its name, the
exit code of one CLI call, and the sha256 of its stdout and of its stderr,
with the directory replaced by ``<dir>``.  To repin after a change that
means to move a message (and says so), write the output of
``fault_digests(path)`` for an empty directory ``path`` to that file.
"""

import contextlib
import csv
import hashlib
import io
import random
from pathlib import Path

from qkdkit import cli

DATA = Path(__file__).parent / "data"
PINNED = DATA / "csv_fault_digests.txt"
FAULTY, ODD = 220, 80
#: (base file, command) of each kind of input
BASES = (("simulate_counts.csv", "estimate"), ("estimate_canonical.csv", "estimate"),
         ("estimate_planar.csv", "estimate"), ("estimate_four_state.csv", "estimate"),
         ("mdi_relay.csv", "mdi-estimate"), ("mdi_relay_mixed_labels.csv", "mdi-estimate"))
#: cell texts that no column reads, or that only some columns read
BAD_TEXTS = ("", " ", "nan", "NaN", "-nan", "inf", "-inf", "+inf", "1e400", "-1e400", "abc",
             "0x1", "1.0.0", "--1", "1,5", "½", "١", "0y", "1z", "f", "2", "-1", "0.5", "1e-320",
             "9" * 30, "1_0", "_1", " 1 ", "+0", "-0.0")
#: ways to write a valid number oddly
ODD_NUMBERS = (lambda t: f" {t} ", lambda t: f"+{t}" if not t.startswith("-") else t,
               lambda t: f"{t}\t")


def _read(name):
    with open(DATA / name, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    return header, rows


def _numeric(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def _fault(rng, header, rows):
    """Apply one seeded fault to ``rows`` in place; a fault may leave the file valid."""
    kind = rng.choice(("cell", "cell", "cells", "finite", "short", "duplicate", "prior", "bloch",
                       "key", "extra", "column"))
    i = rng.randrange(len(rows))
    row = rows[i]
    if not row:  # a row an earlier fault cut to nothing gets one blank cell
        row.append("")
    if kind == "cell":
        row[rng.randrange(len(row))] = rng.choice(BAD_TEXTS)
    elif kind == "cells":  # two faults in one row
        for column in rng.sample(range(len(row)), min(2, len(row))):
            row[column] = rng.choice(BAD_TEXTS)
    elif kind == "finite":
        row[rng.randrange(len(row))] = rng.choice(("nan", "inf", "-inf", "1e400", "-1E999"))
    elif kind == "column":  # a column dropped from the header and from every row
        column = rng.randrange(len(header))
        del header[column]
        for other in rows:
            del other[column:column + 1]
    elif kind == "short":
        del row[rng.randrange(len(row)):]
    elif kind == "duplicate":
        copy = list(row)
        if ("probability" in header and rng.random() < 0.5
                and header.index("probability") < len(copy)):
            copy[header.index("probability")] = "0.25"
        rows.insert(rng.randrange(i + 1, len(rows) + 1), copy)
    elif kind == "prior" and "prior" in header:
        column = header.index("prior")
        if column < len(row) and _numeric(row[column]):
            step = rng.choice((1e-13, 5e-13, 2e-12, 1e-6, -3e-12, 0.5))
            row[column] = repr(float(row[column]) + step)
    elif kind == "bloch" and "px" in header:
        column = rng.choice([c for c, name in enumerate(header) if name in ("px", "py", "pz")])
        if column < len(row) and _numeric(row[column]):
            value = float(row[column])
            row[column] = rng.choice((repr(value + 1e-13), repr(value + 5e-12), "", f"{value}0",
                                      repr(value * 1.5), repr(-value), "1.5"))
        else:
            row[column:column + 1] = [rng.choice(("0.1", "", "x"))]
    elif kind == "key":
        # a label, basis or outcome of another row, or one no table knows
        column = rng.randrange(min(3, len(row)))
        row[column] = rng.choice([other[column] for other in rows if column < len(other)]
                                 + ["2y", "q", "0", "vac"])
    else:
        row.extend(rng.choice(("", "0.1", "x")) for _ in range(rng.randint(1, 3)))


def _odd(rng, header, rows):
    """Rewrite ``header`` and ``rows`` in place, formatted oddly; most read alike."""
    kind = rng.choice(("spaces", "plus", "underscore", "tiny", "reorder", "unknown"))
    if kind == "spaces":
        for row in rows:
            row[:] = [rng.choice(ODD_NUMBERS)(t) if _numeric(t) else t for t in row]
    elif kind == "plus":
        for row in rows:
            row[:] = [f"+{t}" if _numeric(t) and not t.startswith("-") else t for t in row]
    elif kind == "underscore" and "count" in header:
        column = header.index("count")
        for row in rows:
            if len(row[column]) > 1:
                row[column] = f"{row[column][0]}_{row[column][1:]}"
    elif kind == "tiny" and "probability" in header:
        rng.choice(rows)[header.index("probability")] = "1e-320"
    elif kind == "reorder":
        order = list(range(len(header)))
        rng.shuffle(order)
        header[:] = [header[c] for c in order]
        rows[:] = [[row[c] for c in order] for row in rows]
    else:
        header.append("note")
        for row in rows:
            row.append(rng.choice(("", "ok", "a b")))


def _text(rng, header, rows):
    """The file's text: CSV with seeded line endings, blank lines, trailing
    commas, multi-line quoted cells and byte-order mark."""
    if rng.random() < 0.25:  # a quoted multi-line cell in an unknown column
        header.append("comment")
        for row in rows:
            row.append(rng.choice(("", "line one\nline two", "a\r\nb\nc")))
    if rng.random() < 0.2:
        header.append("")
        for row in rows:
            row.append("")
    records = [header, *rows]
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        records.insert(rng.randrange(1, len(records) + 1), [])
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator=rng.choice(("\n", "\n", "\r\n"))).writerows(records)
    return ("\ufeff" if rng.random() < 0.1 else "") + buffer.getvalue()


def csv_inputs(directory):
    """``(name, argv)`` of each seeded file, written under ``directory``."""
    rng = random.Random(20140314)
    inputs = []
    for n in range(FAULTY + ODD):
        base, command = rng.choice(BASES)
        header, rows = _read(base)
        if n < FAULTY:
            for _ in range(rng.randint(1, 3)):
                _fault(rng, header, rows)
        else:
            for _ in range(rng.randint(1, 2)):
                _odd(rng, header, rows)
        name = f"{'fault' if n < FAULTY else 'odd'}-{n}-{base[:-4]}"
        path = Path(directory) / f"{name}.csv"
        path.write_bytes(_text(rng, header, rows).encode("utf-8"))
        inputs.append((name, [command, str(path)]))
    return inputs


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fault_digests(directory):
    """``name exit-code sha256(stdout) sha256(stderr)`` lines, one per file."""
    lines = []
    for name, argv in csv_inputs(directory):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        stderr = err.getvalue().replace(str(directory), "<dir>")
        lines.append(f"{name} {rc} {_sha(out.getvalue())} {_sha(stderr)}")
    return lines


def test_csv_fault_digests(tmp_path):
    pinned = PINNED.read_text().splitlines()
    lines = fault_digests(tmp_path)
    assert len(lines) == len(pinned)
    for line, expected in zip(lines, pinned):
        assert line == expected, f"first file whose output moved: {expected.split()[0]}"
