"""The workloads: seeded inputs, the CLI calls they make, output checks.

Each workload turns its seed into inputs, hands the program only those
inputs (command-line arguments and files), and checks every output against
:mod:`oracle` or against a property the method must have.  Calls come in
whole rounds of the same operations, so every run attempts whole rounds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.special import bdtr, bdtrc

import oracle

SWEEP_HEADER = "delta,distance_km,alpha_opt,Q_z,e_z,Q_z1,e_x1,R"
SWEEP_DELTAS = (0.0, 0.063, 0.126)
SWEEP_POINTS_PER_DELTA = 300
SWEEP_STEP_KM = 0.5
#: calls per sweep_dense round; call k sweeps every SWEEP_CALLS-th distance from the k-th
SWEEP_CALLS = 3
ALPHA_BOUNDS = (1e-4, 1.0)
DENSE_ALPHA_POINTS = 4096
#: the one sweep check the program fails on every call (see SweepDense)
KNOWN_SWEEP_FAULT = "e_z "
#: one-sided tail probability of a normal deviate beyond 5 sigma
FIVE_SIGMA_TAIL = 0.5 * math.erfc(5.0 / math.sqrt(2.0))


@dataclass
class Call:
    """One operation: a CLI argument list plus what its checks need."""

    argv: list[str]
    info: dict = field(default_factory=dict)


def parse_report(stdout: str) -> dict[str, str]:
    """``key: value`` lines of a CLI report."""
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def read_and_remove(path: str) -> bytes:
    with open(path, "rb") as handle:
        data = handle.read()
    os.unlink(path)
    return data


def close(value: float, expected: float, rel: float, scale: float = 0.0) -> bool:
    """``|value - expected| <= rel * max(|expected|, scale)``."""
    return math.isfinite(value) and abs(value - expected) <= rel * max(abs(expected), scale)


class Workload:
    """Base class; subclasses define the inputs, the calls and the checks.

    Checks run in :meth:`collect`, between calls and outside their timing,
    and keep only state of fixed size, so the harness's memory does not grow
    with the number of calls a run makes.
    """

    name = ""
    #: what per-point / per-table layer metrics are divided by
    unit_name = "call"
    units_per_call = 1
    pulses_per_call = 0
    #: parts of the host reference task (:mod:`hostref`) that match the work
    reference = ("interpreted", "small_arrays")

    def __init__(self, seed: int, workdir: str) -> None:
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def prepare(self) -> None:
        """Write input files; runs before any timing."""

    def warmup_argv(self) -> list[str]:
        raise NotImplementedError

    def next_round(self) -> list[Call]:
        raise NotImplementedError

    def collect(self, call: Call, rc: int, stdout: str) -> str | None:
        """Check one call's outputs: the reason it failed, or None."""
        raise NotImplementedError

    def finish(self, rerun) -> list[str]:
        """Run-level failures.  ``rerun(call)`` repeats a call untimed and
        returns its ``(exit code, stdout)``."""
        return []


# --------------------------------------------------------------------------
# sweep_dense


class SweepDense(Workload):
    """Optimized sweep over the three default deltas on a dense distance grid.

    The grid is the CLI's default 0-150 km range at ten times its density:
    300 distances 0.5 km apart, so 900 (delta, distance) points per round.
    A round is three calls; call ``k`` sweeps the distances ``0.5 k``,
    ``0.5 k + 1.5``, ... up to 150 km, so each call covers the whole range
    with 300 points and the host-speed blocks between calls (``hostref``)
    stay close together.  The grid does not depend on the seed: the
    program's ``e_z`` misses the 1e-10 check beyond about 100 km
    (``1 - exp(-m)`` loses precision for small mean photon numbers ``m``) on
    each of the three grids, so every call fails, and an operation that
    fails must see the same inputs on every seed.  Every round repeats the
    same three sweeps; each call's first output is checked against the
    oracle and each later one must match it byte for byte.  Since every call
    already fails, any other failure (another check, an exit code, differing
    bytes) is a run-level failure, so that a new fault still shows in
    ``correct``.
    """

    name = "sweep_dense"
    unit_name = "point"
    units_per_call = SWEEP_POINTS_PER_DELTA * len(SWEEP_DELTAS) // SWEEP_CALLS

    def prepare(self) -> None:
        self.out = os.path.join(self.workdir, "sweep.csv")
        step = SWEEP_CALLS * SWEEP_STEP_KM
        last = (SWEEP_POINTS_PER_DELTA // SWEEP_CALLS - 1) * step
        self.argvs = [["sweep", "--optimize", "--distance",
                       f"{k * SWEEP_STEP_KM!r}:{k * SWEEP_STEP_KM + last!r}:{step!r}", "--out", self.out]
                      for k in range(SWEEP_CALLS)]
        self.warm = ["sweep", "--optimize", "--distance", f"0:1:{SWEEP_STEP_KM!r}",
                     "--out", os.path.join(self.workdir, "warmup.csv")]
        self.first: list[bytes | None] = [None] * SWEEP_CALLS
        self.problem: list[str | None] = [None] * SWEEP_CALLS
        self.unexpected: set[str] = set()

    def warmup_argv(self) -> list[str]:
        return self.warm

    def next_round(self) -> list[Call]:
        return [Call(list(argv), {"kind": k}) for k, argv in enumerate(self.argvs)]

    def collect(self, call: Call, rc: int, stdout: str) -> str | None:
        if rc != 0:
            self.unexpected.add(f"exit code {rc}")
            return f"exit code {rc}"
        k = call.info["kind"]
        written = read_and_remove(self.out)
        if self.first[k] is None:
            self.first[k] = written
            problems = check_sweep(written.decode("ascii"))
            self.problem[k] = "; ".join(problems) or None
            self.unexpected.update(p for p in problems if not p.startswith(KNOWN_SWEEP_FAULT))
        elif written != self.first[k]:
            self.unexpected.add("repeated sweep wrote different CSV bytes")
            return "repeated sweep wrote different CSV bytes"
        return self.problem[k]

    def finish(self, rerun) -> list[str]:
        return sorted(self.unexpected)


def check_sweep(text: str) -> list[str]:
    """Check a sweep CSV against the oracle; one line per failed check."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return ["bad sweep header"]
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    per_delta = SWEEP_POINTS_PER_DELTA // SWEEP_CALLS
    expected_rows = per_delta * len(SWEEP_DELTAS)
    if rows.shape != (expected_rows, 8):
        return [f"sweep has shape {rows.shape}, expected ({expected_rows}, 8)"]
    problems, rates = [], {}
    for delta in SWEEP_DELTAS:
        block = rows[rows[:, 0] == delta]
        if len(block) != per_delta:
            return [f"delta {delta}: {len(block)} rows"]
        distance, alpha = block[:, 1], block[:, 2]
        stats = oracle.fiber_stats(distance, delta, alpha)
        columns = [(block[:, col], stats[key], key)
                   for col, key in ((3, "Q_z"), (4, "e_z"), (5, "Q_z1"), (6, "e_x1"))]
        columns.append((block[:, 7], oracle.key_rate(stats), "R"))
        for value, expected, key in columns:
            with np.errstate(divide="ignore", invalid="ignore"):
                err = np.abs(value - expected) / np.abs(expected)
            err[value == expected] = 0.0  # exact agreement, clamped R = 0 rows included
            bad = ~(err <= 1e-10)  # NaN fails too
            if bad.any():
                i = int(np.argmax(np.where(bad, np.nan_to_num(err, nan=np.inf), 0.0)))
                problems.append(f"{key} at delta={delta}: {int(bad.sum())} of "
                                f"{len(err)} rows off the oracle by more than 1e-10 relative, "
                                f"worst {err[i]:.2e} at {distance[i]} km")
        best = dense_alpha_max(distance, delta)
        short = block[:, 7] < (1.0 - 1e-6) * best
        if short.any():
            i = int(np.argmax(short))
            problems.append(f"R at delta={delta} d={distance[i]}: {block[i, 7]!r} below "
                            f"dense-grid max {best[i]!r}")
        rates[delta] = block[:, 7]
    for delta in SWEEP_DELTAS[1:]:
        if np.any(rates[delta] > rates[0.0]):
            problems.append(f"R(delta={delta}) exceeds R(0) at some distance")
    return problems


def dense_alpha_max(distance: np.ndarray, delta: float, chunk: int = 2) -> np.ndarray:
    """Oracle key rate maximized over a dense log grid of intensities.

    Small chunks keep the check's arrays to a few hundred KiB: it runs in
    the measured interpreter, where larger ones would add to its peak RSS.
    """
    alphas = np.geomspace(*ALPHA_BOUNDS, DENSE_ALPHA_POINTS)
    best = np.empty(len(distance))
    for lo in range(0, len(distance), chunk):
        d = distance[lo:lo + chunk, None]
        rate = oracle.key_rate(oracle.fiber_stats(d, delta, alphas[None, :]))
        best[lo:lo + chunk] = rate.max(axis=1)
    return best


# --------------------------------------------------------------------------
# simulate_large


def simulate_argv(pulses: int, seed: int, delta: float, distance: float) -> list[str]:
    return ["simulate", "--pulses", str(pulses), "--seed", str(seed), "--delta", repr(delta),
            "--distance", f"{distance!r}:{distance!r}:1"]


def check_simulate_report(report: dict[str, str], call: Call) -> str | None:
    """Fields every ``simulate`` report must carry, and the analytic rate."""
    try:
        pulses = int(report["pulses"])
        seed = int(report["seed"])
        std_err = float(report["std_err"])
        analytic = float(report["e_x_analytic"])
        z = float(report["z_score"])
        float(report["e_x_estimate"])
    except (KeyError, ValueError) as exc:
        return f"unparsable simulate report ({exc})"
    info = call.info
    if pulses != info["pulses"] or seed != info["seed"]:
        return "report echoes the wrong pulses or seed"
    expected = float(oracle.fiber_stats(np.array(info["distance"]), info["delta"], 0.5)["e_x1"])
    if not close(analytic, expected, 1e-12):
        return f"e_x_analytic {analytic!r} vs oracle {expected!r}"
    if not (math.isfinite(std_err) and std_err > 0.0):
        return f"std_err {std_err!r} is not finite and positive"
    if not math.isfinite(z):
        return f"z_score {z!r} is not finite"
    return None


class SimulateLarge(Workload):
    """``simulate`` at 10^7 pulses, 50 km, delta 0.126, a fresh seed per call."""

    name = "simulate_large"
    PULSES = 10_000_000
    DISTANCE = 50.0
    DELTA = 0.126

    pulses_per_call = PULSES
    reference = ("large_arrays",)

    def prepare(self) -> None:
        self.out = os.path.join(self.workdir, "counts.csv")
        self.cells = oracle.fiber_cell_probs(self.DISTANCE, self.DELTA)
        self.first: tuple[Call, int, bytes | None] | None = None

    def _call(self, pulses: int, seed: int, out: str) -> Call:
        argv = simulate_argv(pulses, seed, self.DELTA, self.DISTANCE) + ["--out", out]
        return Call(argv, {"pulses": pulses, "seed": seed, "delta": self.DELTA,
                           "distance": self.DISTANCE})

    def warmup_argv(self) -> list[str]:
        return self._call(10_000, 1, os.path.join(self.workdir, "warmup.csv")).argv

    def next_round(self) -> list[Call]:
        return [self._call(self.PULSES, int(self.rng.integers(0, 2**63)), self.out)]

    def collect(self, call: Call, rc: int, stdout: str) -> str | None:
        written = read_and_remove(self.out) if rc == 0 else None
        if self.first is None:
            self.first = (call, rc, written)
        if rc != 0:
            return f"exit code {rc}"
        report = parse_report(stdout)
        problem = check_simulate_report(report, call)
        if problem:
            return problem
        if abs(float(report["z_score"])) > 5.0:
            return f"|z_score| = {report['z_score']} > 5"
        lines = written.decode("ascii").splitlines()
        if lines[0] != "label,basis,outcome,count":
            return "bad counts header"
        counts = {}
        for line in lines[1:]:
            label, basis, out, count = line.split(",")
            counts[label, basis, int(out) if out in ("0", "1") else out] = int(count)
        if set(counts) != set(self.cells):
            return "counts CSV does not hold the 18 (label, basis, outcome) cells"
        n = call.info["pulses"]
        if sum(counts.values()) != n:
            return f"counts sum to {sum(counts.values())}, not {n}"
        # "within 5 sigma" as exact binomial tails: dark-count cells expect
        # about 0.1 counts, where the normal approximation does not hold.
        # bdtr(k) = P(X <= k) and bdtrc(k - 1) = P(X >= k); scipy.special is
        # already loaded by the program, so the check adds no imports.
        for key, p in self.cells.items():
            k = counts[key]
            if min(bdtr(k, n, p), bdtrc(k - 1, n, p)) < FIVE_SIGMA_TAIL:
                return f"cell {key}: {k} counts, expected {n * p:.4g}, beyond a 5-sigma tail"
        return None

    def finish(self, rerun) -> list[str]:
        call, rc, written = self.first
        again_rc, _ = rerun(call)
        again = read_and_remove(self.out) if again_rc == 0 else None
        if again_rc != rc or again != written:
            return ["same seed run twice gave different counts"]
        return []


# --------------------------------------------------------------------------
# simulate_small


class SimulateSmall(Workload):
    """Many ``simulate`` calls of 10^4 pulses: the error-bar calibration use.

    Per-call fixed costs dominate: argument parsing, ``fiber_experiment``,
    sampler set-up and ``estimate_from_trial``.  Each call draws its
    distance (0-10 km), delta (0.126-0.8) and seed from the run's seed.
    """

    name = "simulate_small"
    PULSES = 10_000
    CALLS_PER_ROUND = 64
    #: |z| bound on every call, and the share of a run's calls within |z| <= 2
    MAX_Z = 6.0
    MIN_SHARE_WITHIN_2 = 0.9

    pulses_per_call = PULSES

    def prepare(self) -> None:
        self.calls = 0
        self.within_2 = 0

    def _call(self, seed: int, delta: float, distance: float) -> Call:
        return Call(simulate_argv(self.PULSES, seed, delta, distance),
                    {"pulses": self.PULSES, "seed": seed, "delta": delta, "distance": distance})

    def warmup_argv(self) -> list[str]:
        return self._call(1, 0.126, 5.0).argv

    def next_round(self) -> list[Call]:
        return [self._call(int(self.rng.integers(0, 2**63)), float(self.rng.uniform(0.126, 0.8)),
                           float(self.rng.uniform(0.0, 10.0)))
                for _ in range(self.CALLS_PER_ROUND)]

    def collect(self, call: Call, rc: int, stdout: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        report = parse_report(stdout)
        problem = check_simulate_report(report, call)
        if problem:
            return problem
        z = abs(float(report["z_score"]))
        if z > self.MAX_Z:
            return f"|z_score| = {z} > {self.MAX_Z}"
        self.calls += 1
        self.within_2 += z <= 2.0
        return None

    def finish(self, rerun) -> list[str]:
        share = self.within_2 / self.calls if self.calls else 0.0
        if share < self.MIN_SHARE_WITHIN_2:
            return [f"{share:.3f} of calls have |z| <= 2, below {self.MIN_SHARE_WITHIN_2}"]
        return []


# --------------------------------------------------------------------------
# estimate_mix


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_kraus(rng: np.random.Generator) -> list[np.ndarray]:
    """1 to 4 Kraus operators with loss weight up to 0.9."""
    ops = [rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(int(rng.integers(1, 5)))]
    top = np.linalg.eigvalsh(sum(a.conj().T @ a for a in ops)).max()
    scale = math.sqrt((1.0 - rng.uniform(0.0, 0.9)) / top)
    return [scale * a for a in ops]


def random_povm(rng: np.random.Generator) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Two-basis POVM sharing one inconclusive element (basis independence)."""
    u = random_unitary(rng, 2)
    m_f = u @ np.diag(rng.uniform(0.0, 0.8, size=2)) @ u.conj().T
    evals, evecs = np.linalg.eigh(np.eye(2) - m_f)
    root = evecs @ np.diag(np.sqrt(np.clip(evals, 0.0, None))) @ evecs.conj().T
    out = {}
    for basis in ("x", "z"):
        v = random_unitary(rng, 2)
        split = v @ np.diag([1.0, 0.0]) @ v.conj().T
        out[basis] = (root @ split @ root, root @ (np.eye(2) - split) @ root)
    return out


def random_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, max_angle)
    gen = axis[0] * oracle.SX + axis[1] * oracle.SY + axis[2] * oracle.SZ
    return math.cos(angle / 2.0) * oracle.ID2 - 1j * math.sin(angle / 2.0) * gen


def _as_written(rho: np.ndarray, columns: tuple[str, ...]) -> tuple[np.ndarray, dict[str, str]]:
    """Bloch columns as the CSV carries them, and the state they denote."""
    comps = dict(zip(("px", "py", "pz"), oracle.bloch(rho)))
    text = {name: repr(float(comps[name])) for name in columns}
    return oracle.density(*(float(text.get(name, 0.0)) for name in ("px", "py", "pz"))), text


class EstimateMix(Workload):
    """``estimate`` and ``mdi-estimate`` over seeded yield tables.

    Four kinds, TABLES_PER_KIND each, from random Kraus channels, POVMs and
    two-qubit operators: canonical three-state, three-state with ``px,pz``
    columns (modulated, partly mixed sources), four-state with ``px,py,pz``
    columns, and relay pair tables.  The first SCALED_PER_KIND tables of each
    kind also get a uniformly scaled copy (extra loss).  A round runs every
    table once.
    """

    name = "estimate_mix"
    unit_name = "table"
    TABLES_PER_KIND = 48
    SCALED_PER_KIND = 16
    KINDS = ("canonical", "planar", "full", "relay")

    def prepare(self) -> None:
        self.calls = []
        self.base_e_x: dict[str, float] = {}
        for i in range(self.TABLES_PER_KIND):
            for kind in self.KINDS:
                path = os.path.join(self.workdir, f"{kind}-{i:03d}.csv")
                rows, expected = getattr(self, f"_table_{kind}")()
                self._write(path, rows)
                command = "mdi-estimate" if kind == "relay" else "estimate"
                self.calls.append(Call([command, path], {"kind": kind, "expected": expected,
                                                         "base": path, "factor": 1.0}))
                if i < self.SCALED_PER_KIND:
                    factor = float(self.rng.uniform(0.05, 0.5))
                    scaled = os.path.join(self.workdir, f"{kind}-{i:03d}-scaled.csv")
                    self._write(scaled, [self._scale_row(row, factor) for row in rows])
                    self.calls.append(Call([command, scaled], {"kind": kind, "expected": expected,
                                                               "base": path, "factor": factor}))

    @staticmethod
    def _scale_row(row: dict, factor: float) -> dict:
        row = dict(row)
        row["probability"] = repr(float(row["probability"]) * factor)
        return row

    @staticmethod
    def _write(path: str, rows: list[dict]) -> None:
        header = list(rows[0])
        lines = [",".join(header)] + [",".join(row[k] for k in header) for row in rows]
        with open(path, "w", encoding="ascii") as handle:
            handle.write("\n".join(lines) + "\n")

    def _single_party(self, states: dict[str, np.ndarray], prior: float, columns: tuple[str, ...]):
        """Rows and expected report of one single-party table.

        ``prior`` is the joint P(label) P(basis) written in the prior column;
        bases are chosen with probability 1/2.  ``columns`` names the Bloch
        columns written (none for canonical labels).
        """
        planar = len(states) == 3
        kraus, povm = random_kraus(self.rng), random_povm(self.rng)
        rows, used = [], {}
        for label, rho in states.items():
            extra = {}
            if columns:
                rho, extra = _as_written(rho, columns)
            used[label] = rho
            for basis in ("x", "z"):
                for outcome in (0, 1):
                    p = prior * oracle.trace_yield(kraus, rho, povm[basis][outcome])
                    rows.append({"label": label, "basis": basis, "outcome": str(outcome),
                                 "probability": repr(p), "prior": repr(prior), **extra})
        weights, virtual = oracle.virtual_states(used["0z"], used["1z"], "x")
        z_pair = 2.0 * prior  # P(0z) + P(1z), times P(X basis) = 1/2
        expected = {"e_x": oracle.phase_error_ratio(kraus, povm["x"], weights, virtual)}
        for s in (0, 1):
            for j in (0, 1):
                expected[f"virtual_yield[outcome={s},{j}x]"] = (
                    weights[j] * z_pair * oracle.trace_yield(kraus, virtual[j], povm["x"][s]))
            rates = oracle.transmission_rates(kraus, povm["x"][s], planar)
            for t, value in rates.items():
                expected[f"q[outcome={s}].{t}"] = value
        return rows, expected

    def _table_canonical(self):
        states = {lab: oracle.projector(oracle.KETS[lab]) for lab in ("0z", "1z", "0x")}
        return self._single_party(states, 1.0 / 6.0, ())

    def _table_planar(self):
        delta = float(self.rng.uniform(0.05, 0.6))
        states = {}
        for label, theta in (("0z", 0.0), ("1z", math.pi), ("1x", math.pi / 2.0)):
            rho = oracle.projector(oracle.encode(theta, delta))
            if self.rng.random() < 0.5:  # partly depolarized source
                r = self.rng.uniform(0.9, 0.99)
                rho = r * rho + (1.0 - r) * oracle.ID2 / 2.0
            states[label] = rho
        return self._single_party(states, 1.0 / 6.0, ("px", "pz"))

    def _table_full(self):
        states = {}
        for label in ("0z", "1z", "0x", "0y"):
            u = random_rotation(self.rng, 0.3)
            rho = u @ oracle.projector(oracle.KETS[label]) @ u.conj().T
            r = self.rng.uniform(0.9, 1.0)
            states[label] = r * rho + (1.0 - r) * oracle.ID2 / 2.0
        return self._single_party(states, 1.0 / 8.0, ("px", "py", "pz"))

    def _table_relay(self):
        u = random_unitary(self.rng, 4)
        d = u @ np.diag(self.rng.uniform(0.05, 0.95, size=4)) @ u.conj().T
        gamma = float(self.rng.uniform(0.2, 0.8))
        rows = []
        for la in ("0z", "1z", "0x"):
            for lb in ("0z", "1z", "0x"):
                weight = gamma / 9.0 if la[-1] == lb[-1] == "z" else 1.0 / 9.0
                rho = np.kron(oracle.projector(oracle.KETS[la]), oracle.projector(oracle.KETS[lb]))
                p = weight * float(np.trace(d @ rho).real)
                rows.append({"label_a": la, "label_b": lb, "probability": repr(p),
                             "prior": repr(weight)})
        expected = {"e_x": oracle.pair_phase_error(d)}
        rates = oracle.pair_rates(d)
        axes = ("id", "x", "z")
        for i, s in enumerate(axes):
            for j, t in enumerate(axes):
                expected[f"q[{s},{t}]"] = rates[i, j]
        table = oracle.pair_virtual_yields(d)
        for j in (0, 1):
            for k in (0, 1):
                expected[f"virtual_pair_yield[{j}x,{k}x]"] = table[j, k]
        return rows, expected

    def warmup_argv(self) -> list[str]:
        return list(self.calls[0].argv)

    def next_round(self) -> list[Call]:
        return self.calls

    def collect(self, call: Call, rc: int, stdout: str) -> str | None:
        problem, e_x = self._problem(call, rc, stdout)
        info = call.info
        if problem is None and info["factor"] == 1.0:
            self.base_e_x.setdefault(info["base"], e_x)
        # loss tolerance: a scaled table reports the same e_x as its original,
        # which comes before it in every round
        if problem is None and info["factor"] != 1.0:
            base = self.base_e_x.get(info["base"])
            if base is None or abs(e_x - base) > 1e-10 * max(base, 1e-3):
                problem = f"scaled table gives e_x {e_x!r}, original {base!r}"
        return problem

    def _problem(self, call: Call, rc: int, stdout: str) -> tuple[str | None, float]:
        if rc != 0:
            return f"exit code {rc}", math.nan
        expected, factor = call.info["expected"], call.info["factor"]
        report = parse_report(stdout)
        values = {}
        for key, text in report.items():
            if key.startswith("q[outcome="):
                for part in text.split():
                    name, _, number = part.partition("=")
                    values[f"{key}.{name}"] = float(number)
            else:
                values[key] = float(text)
        missing = set(expected) - set(values)
        if missing:
            return f"report lacks {sorted(missing)[:3]}", math.nan
        e_x = values["e_x"]
        if not abs(e_x - expected["e_x"]) <= 1e-9:
            return f"e_x {e_x!r} vs oracle trace ratio {expected['e_x']!r}", e_x
        rates = {k: v for k, v in expected.items() if k.startswith("q[")}
        rate_scale = 1e-3 * factor * max(abs(v) for v in rates.values())
        for key, value in expected.items():
            # virtual yields to 1e-10 relative; transmission rates q are
            # components that can sit near 0, so their error is floored at
            # 1e-3 of the table's largest rate
            scale = rate_scale if key in rates else 0.0
            if key != "e_x" and not close(values[key], value * factor, 1e-10, scale):
                return f"{key} {values[key]!r} vs oracle {value * factor!r}", e_x
        return None, e_x


WORKLOADS = {cls.name: cls for cls in (SweepDense, SimulateLarge, SimulateSmall, EstimateMix)}
