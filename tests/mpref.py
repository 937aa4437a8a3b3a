"""40-digit references for the transmission rates that ``estimate`` and
``mdi-estimate`` print, solved from a yield CSV's own numbers, and for the
rows that ``sweep`` writes.

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

For a table whose Z pair is the canonical ``|0z>, |1z>``, the references of
the ``virtual_yield[...]`` or ``virtual_pair_yield[...]`` lines, and of ``e_x``
(their off-diagonal share), are:

* a single-party table of the canonical ``0z, 1z, 0x`` at equal priors, by
  the closed form: ``Y(s, 0x)`` as read and ``Y(s, 1x) = Y(s, 0z) + Y(s, 1z)
  - Y(s, 0x)``, with ``Y`` the X-basis yields of the CSV;
* a relay pair table: its nine rates evaluated on ``|0x>`` and ``|1x>`` at
  weight 1/2 each for both parties, divided by 9 as printed.

Every number is read from its decimal text, so the references carry none of
the estimator's rounding.  :func:`moved_rates` tells whether the rates printed
by two versions of the program moved nearer to these references.

A sweep row's reference is the fiber model of ``perfbench/oracle.py``
(``fiber_stats`` and ``key_rate``) restated in mpmath, at the row's own
``delta``, ``distance_km`` and ``alpha_opt`` as the doubles the program read,
with the default channel of ``qkdkit sweep``.  The reference of an optimized
row's ``R`` is the maximum of that model over the intensity: the root of
``dR/dalpha`` by ``mpmath.findroot``, which :func:`golden_max_rate` checks
by a golden-section search at the same precision.
"""

import csv
from collections import Counter

import mpmath

DIGITS = 40
#: the exact Bloch vectors ``(px, py, pz)`` of the canonical labels
CANONICAL_BLOCH = {"0z": (0, 0, 1), "1z": (0, 0, -1), "0x": (1, 0, 0), "1x": (-1, 0, 0),
                   "0y": (0, 1, 0), "1y": (0, -1, 0)}
#: the default channel of ``qkdkit sweep``: dark count, detector efficiency, dB/km
DARK_COUNT, DET_EFF, ATTEN_DB_PER_KM = 0.5e-7, 0.15, 0.21
#: the columns of a sweep row that :func:`sweep_row` gives references for
SWEEP_COLUMNS = ("Q_z", "e_z", "Q_z1", "e_x1", "R")


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


def virtual_references(path) -> dict:
    """The references of the virtual-yield and ``e_x`` lines that ``estimate``
    or ``mdi-estimate`` prints for the CSV at ``path``, whose Z pair must be
    canonical, keyed by each line's name as :func:`printed_values` reads it."""
    rows = _rows(path)
    with mpmath.workdps(DIGITS):
        if "label_a" in rows[0]:
            q = relay_rates(path)
            r = [(1, 1, 0), (1, -1, 0)]  # (id, x, z) of |0x> and |1x>
            table = [[sum(r[j][s] * q[3 * s + t] * r[k][t] for s in range(3) for t in range(3))
                      / 36 for k in (0, 1)] for j in (0, 1)]
            names = {(j, k): f"virtual_pair_yield[{j}x,{k}x]" for j in (0, 1) for k in (0, 1)}
        else:
            assert {row["label"] for row in rows} == {"0z", "1z", "0x"}
            assert not any((row.get("px") or "").strip() for row in rows)
            assert len({row["prior"] for row in rows if row["label"] in ("0z", "1z")}) == 1
            y = {(int(row["outcome"]), row["label"]): mpmath.mpf(row["probability"])
                 for row in rows if row["basis"] == "x"}
            # table[s][j]: outcome s of the virtual state jx
            table = [[y[s, "0x"], y[s, "0z"] + y[s, "1z"] - y[s, "0x"]] for s in (0, 1)]
            names = {(s, j): f"virtual_yield[outcome={s},{j}x]" for s in (0, 1) for j in (0, 1)}
        references = {name: table[a][b] for (a, b), name in names.items()}
        # the off-diagonal share, a negative error cell read as 0
        errors = max(table[0][1], 0) + max(table[1][0], 0)
        references["e_x"] = errors / sum(table[0] + table[1])
        return references


def printed_values(stdout: str) -> dict[str, float]:
    """The value of each ``virtual_yield[...]``, ``virtual_pair_yield[...]`` and
    ``e_x`` line of an ``estimate`` or ``mdi-estimate`` report, by the line's name."""
    lines = (line.partition(": ") for line in stdout.splitlines())
    return {name: float(value) for name, _, value in lines
            if name == "e_x" or name.startswith("virtual_")}


def printed_rates(stdout: str) -> list[list[float]]:
    """The coefficients of each ``q[...]`` line of an ``estimate`` or
    ``mdi-estimate`` report, in order."""
    return [[float(value.rpartition("=")[2]) for value in line.partition(":")[2].split()]
            for line in stdout.splitlines() if line.startswith("q[")]


def reference_rates(path) -> list:
    """The references of every rate that ``estimate`` or ``mdi-estimate``
    prints for the CSV at ``path``, in printed order; a CSV with a
    ``label_a`` column is a relay pair table."""
    with open(path, newline="", encoding="utf-8") as handle:
        relay = "label_a" in next(csv.reader(handle))
    if relay:
        return relay_rates(path)
    rates = single_party_rates(path)
    return rates[0] + rates[1]


def moved_rates(path, before: str, after: str) -> Counter:
    """How each printed rate moved between two reports of the CSV at ``path``:
    the count of rates that came ``nearer`` to the reference, went ``farther``
    from it, or stayed at the same distance (``unmoved``)."""
    counts = Counter()
    pairs = zip(*(sum(printed_rates(text), []) for text in (before, after)),
                reference_rates(path), strict=True)
    with mpmath.workdps(DIGITS):
        for old, new, exact in pairs:
            was, now = abs(mpmath.mpf(old) - exact), abs(mpmath.mpf(new) - exact)
            counts["nearer" if now < was else "farther" if now > was else "unmoved"] += 1
    return counts


def entropy(x):
    """The binary entropy ``h(x)`` in bits of the number ``x``, with
    ``h(0) = h(1) = 0``; call it within ``mpmath.workdps``."""
    x = mpmath.mpf(x)
    return -sum((v * mpmath.log(v, 2) for v in (x, 1 - x) if v), mpmath.mpf(0))


def sweep_row(delta: float, distance_km: float, alpha: float, f_ec: float) -> dict:
    """``Q_z``, ``e_z``, ``Q_z1``, ``e_x1`` and ``R`` of the fiber model at one
    point, and ``R``'s two terms: ``gain`` ``Q_z1 (1 - h(e_x1)) / 2`` and
    ``cost`` ``f_ec Q_z h(e_z) / 2``, so that ``R = max(0, gain - cost)``."""
    with mpmath.workdps(DIGITS):
        return _sweep_row(delta, distance_km, mpmath.mpf(alpha), f_ec)


def _sweep_row(delta, distance_km, alpha, f_ec) -> dict:
    """:func:`sweep_row` at the working precision, ``alpha`` an mpf."""
    delta, f_ec, e_d = (mpmath.mpf(v) for v in (delta, f_ec, DARK_COUNT))
    t = DET_EFF * mpmath.power(10, -mpmath.mpf(ATTEN_DB_PER_KM) * distance_km / 10)
    # single photon: the virtual states of the Z pair, whose second state
    # is (sin, cos) of 3 delta / 4, seen in the X basis
    sin, cos = mpmath.sin(3 * delta / 4), mpmath.cos(3 * delta / 4)
    virtual = [(1 + sign * sin, sign * cos) for sign in (1, -1)]  # v_j, unnormalized
    # c2[s][j] = |<s_x|v_j>|^2, with <0x| = (1, 1)/sqrt(2) and <1x| = (1, -1)/sqrt(2)
    c2 = [[(v0 + side * v1) ** 2 / (2 * (v0 ** 2 + v1 ** 2)) for v0, v1 in virtual]
          for side in (1, -1)]
    y = [[t * c2[s][j] * (1 - e_d / 2) + e_d * (1 - e_d / 2) + t * c2[1 - s][j] * e_d
          for j in (0, 1)] for s in (0, 1)]
    e_x1 = (y[1][0] + y[0][1]) / sum(y[0] + y[1])
    half_sin = mpmath.sin(delta / 2)
    prior = ((1 + half_sin) / 2, (1 - half_sin) / 2)
    q_z1 = mpmath.exp(-2 * alpha) * alpha * sum(y[s][j] * prior[j] for s in (0, 1)
                                                for j in (0, 1)) / 2
    # Z basis: threshold detectors, double clicks assigned a random bit
    signal = alpha * t
    p00 = e_d + (1 - e_d) * -mpmath.expm1(-signal)
    p10 = e_d
    p01 = e_d + (1 - e_d) * -mpmath.expm1(-signal * half_sin ** 2)
    p11 = e_d + (1 - e_d) * -mpmath.expm1(-signal * mpmath.cos(delta / 2) ** 2)
    q_z = (p00 + p10 - p00 * p10) / 2 + (p01 + p11 - p01 * p11) / 2
    wrong = ((1 - p00) * p10 + p00 * p10 / 2) / 2 + (p01 * (1 - p11) + p01 * p11 / 2) / 2
    e_z = wrong / q_z
    gain, cost = q_z1 * (1 - entropy(e_x1)) / 2, f_ec * q_z * entropy(e_z) / 2
    return {"Q_z": q_z, "e_z": e_z, "Q_z1": q_z1, "e_x1": e_x1,
            "R": max(gain - cost, mpmath.mpf(0)), "gain": gain, "cost": cost}


def _unclamped_rate(delta, distance_km, f_ec):
    """``gain - cost`` of :func:`sweep_row` as a function of an mpf intensity."""
    def rate(alpha):
        row = _sweep_row(delta, distance_km, alpha, f_ec)
        return row["gain"] - row["cost"]
    return rate


def max_rate(delta: float, distance_km: float, f_ec: float, alpha: float,
             bounds=(1e-4, 1.0)) -> tuple:
    """``(alpha, R)`` at the maximum of the fiber model's rate over the
    intensity: the root of ``dR/dalpha`` that ``mpmath.findroot`` reaches from
    ``alpha``, which must lie strictly inside ``bounds``."""
    with mpmath.workdps(DIGITS):
        rate = _unclamped_rate(delta, distance_km, f_ec)
        root = mpmath.findroot(lambda a: mpmath.diff(rate, a), mpmath.mpf(alpha))
        assert bounds[0] < root < bounds[1], (delta, distance_km, root)
        return root, rate(root)


def golden_max_rate(delta: float, distance_km: float, f_ec: float, a: float,
                    b: float) -> tuple:
    """``(alpha, R)`` at the maximum of the fiber model's rate on ``[a, b]`` by
    golden-section search, down to a relative width of ``1e-22``, where the
    rate is flat to about 40 digits."""
    with mpmath.workdps(DIGITS):
        rate = _unclamped_rate(delta, distance_km, f_ec)
        a, b = mpmath.mpf(a), mpmath.mpf(b)
        ratio = (mpmath.sqrt(5) - 1) / 2
        c, d = b - ratio * (b - a), a + ratio * (b - a)
        fc, fd = rate(c), rate(d)
        while b - a > mpmath.mpf("1e-22") * a:
            if fc >= fd:
                b, d, fd = d, c, fc
                c = b - ratio * (b - a)
                fc = rate(c)
            else:
                a, c, fc = c, d, fd
                d = a + ratio * (b - a)
                fd = rate(d)
        return (c, fc) if fc >= fd else (d, fd)


def sweep_rows(path, f_ec: float) -> list[tuple[dict, dict]]:
    """Each row of the sweep CSV at ``path``, its columns as floats, with the
    reference of :func:`sweep_row` at its own ``alpha_opt``."""
    rows = [{key: float(value) for key, value in row.items()} for row in _rows(path)]
    return [(row, sweep_row(row["delta"], row["distance_km"], row["alpha_opt"], f_ec))
            for row in rows]


def sweep_maxima(path, f_ec: float) -> list[tuple[dict, tuple]]:
    """Each row of the optimized sweep CSV at ``path`` whose ``R`` is positive,
    its columns as floats, with :func:`max_rate` from its own ``alpha_opt``."""
    rows = [{key: float(value) for key, value in row.items()} for row in _rows(path)]
    return [(row, max_rate(row["delta"], row["distance_km"], f_ec, row["alpha_opt"]))
            for row in rows if row["R"] > 0.0]
