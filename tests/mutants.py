"""Mutation sampler: how many one-operator faults in a module do its tests catch?

Usage (by hand; pytest does not collect this file)::

    python tests/mutants.py keyrate --sample 20 --seed 0

Each mutant flips one operator of ``src/qkdkit/MODULE.py``: a comparison
(``<`` and ``<=``, ``>`` and ``>=``, ``==`` and ``!=`` swap) or a binary
``+ - * /`` (``+`` and ``-``, ``*`` and ``/`` swap).  ``--sample`` sites are
drawn with ``random.Random(seed)`` from all of them, in source order.  The
repository is copied once to a temporary directory; each mutant is written
into the copy in turn, and the module's test files run there with pytest,
stopping at the first failure, with criterion 6b deselected by its node id
(it fails by design).  A run still going after ``TIMEOUT`` seconds is
stopped.

A mutant is *killed* when the run fails, *survived* when it passes, and
*hung* when it is stopped.  Each is reported with its line and the mutated
source, then the counts.

The module's test files are ``tests/test_MODULE.py``, ``tests/test_acceptance.py``
(which reaches every module through ``qkdkit``) and every other test file that
imports the module by name.  The script mutates the checkout it lies in; to
sample another commit, copy it into that commit's ``tests``.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import tokenize
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DESELECT = "tests/test_acceptance.py::test_criterion_6b_modulation_error_rate_ratio"
TIMEOUT = 90.0  # seconds per pytest run
#: each operator's symbol and the symbol it is flipped to
FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Add: ("+", "-"),
         ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*")}


@dataclass(frozen=True)
class Site:
    """One operator token of the source: its 1-based line, its 0-based column
    and its symbol, and the symbol it is flipped to."""

    line: int
    col: int
    symbol: str
    flipped: str

    def apply(self, source: str) -> str:
        lines = source.splitlines(keepends=True)
        text = lines[self.line - 1]
        assert text[self.col:self.col + len(self.symbol)] == self.symbol
        lines[self.line - 1] = text[:self.col] + self.flipped + text[self.col + len(self.symbol):]
        return "".join(lines)


def sites(source: str) -> list[Site]:
    """Every comparison and binary ``+ - * /`` of ``source``, in source order.

    Each operator's token is the one operator token between its operands."""
    operators = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                 if tok.type == tokenize.OP]
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in FLIPS:
            pairs = [(node.left, node.op, node.right)]
        elif isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = [(left, op, right) for left, op, right
                     in zip(operands, node.ops, node.comparators) if type(op) in FLIPS]
        else:
            continue
        for left, op, right in pairs:
            symbol, flipped = FLIPS[type(op)]
            start, end = (left.end_lineno, left.end_col_offset), (right.lineno, right.col_offset)
            tok = next((tok for tok in operators
                        if start <= tok.start and tok.end <= end and tok.string == symbol), None)
            if tok is not None:  # none inside an f-string, which is one token
                found.append(Site(tok.start[0], tok.start[1], symbol, flipped))
    return sorted(found, key=lambda site: (site.line, site.col))


def test_files(root: Path, module: str) -> list[str]:
    """The module's test files, as paths relative to ``root``."""
    imports = re.compile(rf"qkdkit\.{module}\b|^from qkdkit import .*\b{module}\b", re.M)
    files = {f"tests/test_{module}.py", "tests/test_acceptance.py"}
    files.update(f"tests/{path.name}" for path in (root / "tests").glob("test_*.py")
                 if imports.search(path.read_text(encoding="utf-8")))
    return sorted(name for name in files if (root / name).exists())


def run(copy: Path, tests: list[str]) -> str:
    """``killed``, ``survived`` or ``hung``: pytest on ``tests`` in ``copy``."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
               "--deselect", DESELECT, *tests]
    with subprocess.Popen(command, cwd=copy, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, start_new_session=True) as process:
        try:
            code = process.wait(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            return "hung"
    return "survived" if code == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="a module of src/qkdkit, such as keyrate")
    parser.add_argument("--sample", type=int, default=20, help="mutants to run (20)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the sample (0)")
    args = parser.parse_args(argv)
    target = Path("src", "qkdkit", f"{args.module}.py")
    source = (ROOT / target).read_text(encoding="utf-8")
    every = sites(source)
    chosen = sorted(random.Random(args.seed).sample(every, min(args.sample, len(every))),
                    key=lambda site: (site.line, site.col))
    tests = test_files(ROOT, args.module)
    print(f"{target}: {len(every)} sites, {len(chosen)} sampled (seed {args.seed}); "
          f"tests: {' '.join(tests)}", flush=True)
    counts = dict.fromkeys(("killed", "survived", "hung"), 0)
    with tempfile.TemporaryDirectory() as temp:
        copy = Path(temp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out", ".work"))
        for site in chosen:
            mutated = site.apply(source)
            (copy / target).write_text(mutated, encoding="utf-8")
            outcome = run(copy, tests)
            counts[outcome] += 1
            line = mutated.splitlines()[site.line - 1].strip()
            print(f"{outcome:8} {target.name}:{site.line} {site.symbol} -> {site.flipped}: {line}",
                  flush=True)
        (copy / target).write_text(source, encoding="utf-8")
    print(", ".join(f"{count} {outcome}" for outcome, count in counts.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
