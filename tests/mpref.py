"""40-digit references for the transmission rates that ``estimate`` and
``mdi-estimate`` print, solved from a yield CSV's own numbers.

Each reference states the estimator's linear system once more, in mpmath at
40 significant digits, and solves it with ``mpmath.lu_solve``:

* a single-party table: for each source ``j`` and outcome ``s``,
  ``Y(x, s, j) / prior_j = q_id + p_j . q``, with ``prior_j`` the prior
  column and ``p_j`` the Bloch columns as written, or the exact canonical
  Bloch vector of a label without them.  Three sources give the planar
  ``(id, x, z)`` system, four the full ``(id, x, y, z)`` one;
* a relay pair table: ``Y(a, b) / w(a, b) = (1, p_a) q (1, p_b)^T`` over the
  nine pairs of canonical planar rows, the 9x9 Kronecker system, with
  ``w = gamma / 9`` for Z-Z pairs, ``gamma`` nine times their prior column,
  and ``w = 1/9`` for every other pair.

Every number is read from its decimal text, so the references carry none of
the estimator's rounding.
"""

import csv

import mpmath

DIGITS = 40
#: the exact Bloch vectors ``(px, py, pz)`` of the canonical labels
CANONICAL_BLOCH = {"0z": (0, 0, 1), "1z": (0, 0, -1), "0x": (1, 0, 0), "1x": (-1, 0, 0),
                   "0y": (0, 1, 0), "1y": (0, -1, 0)}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def single_party_rates(path) -> dict[int, list]:
    """The rates ``q`` of each outcome of a yield CSV, in the order ``estimate``
    prints them: ``(id, x, z)`` for three sources, ``(id, x, y, z)`` for four."""
    rows = _rows(path)
    with mpmath.workdps(DIGITS):
        labels = list(dict.fromkeys(row["label"] for row in rows))
        priors, blochs = {}, {}
        for row in rows:
            priors.setdefault(row["label"], mpmath.mpf(row["prior"]))
            if (row.get("px") or "").strip():
                bloch = [mpmath.mpf((row.get(axis) or "0").strip() or "0")
                         for axis in ("px", "py", "pz")]
            else:
                bloch = [mpmath.mpf(v) for v in CANONICAL_BLOCH[row["label"]]]
            blochs.setdefault(row["label"], bloch)
        planar = len(labels) == 3
        design = mpmath.matrix([[1, px, pz] if planar else [1, px, py, pz]
                                for px, py, pz in (blochs[label] for label in labels)])
        rates = {}
        for outcome in (0, 1):
            yields = {row["label"]: mpmath.mpf(row["probability"]) for row in rows
                      if row["basis"] == "x" and int(row["outcome"]) == outcome}
            rhs = mpmath.matrix([yields[label] / priors[label] for label in labels])
            rates[outcome] = list(mpmath.lu_solve(design, rhs))
        return rates


def relay_rates(path) -> list:
    """The nine rates ``q[s, t]`` of a pair-yield CSV, ``s`` and ``t`` over
    ``(id, x, z)``, in the order ``mdi-estimate`` prints them."""
    rows = _rows(path)
    with mpmath.workdps(DIGITS):
        gamma = next(9 * mpmath.mpf(row["prior"]) for row in rows
                     if row["label_a"].endswith("z") and row["label_b"].endswith("z"))
        design, rhs = [], []
        for row in rows:
            a, b = (CANONICAL_BLOCH[row[key]] for key in ("label_a", "label_b"))
            zz = row["label_a"].endswith("z") and row["label_b"].endswith("z")
            weight = gamma / 9 if zz else mpmath.mpf(1) / 9
            design.append([u * v for u in (1, a[0], a[2]) for v in (1, b[0], b[2])])
            rhs.append(mpmath.mpf(row["probability"]) / weight)
        return list(mpmath.lu_solve(mpmath.matrix(design), mpmath.matrix(rhs)))
