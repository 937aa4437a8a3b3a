"""Command-line front end: sweeps, estimation from yield files, simulation.

Commands
--------
``sweep``         key-rate vs distance curves, one CSV row per (delta, distance)
``estimate``      solve a single-party yield CSV and report the phase error rate
``simulate``      Monte Carlo run of the fiber model plus an estimate report
``mdi-estimate``  solve a two-party pair-yield CSV

``estimate`` and ``mdi-estimate`` take an input path alone.  ``sweep`` and
``simulate`` read a flat ``key = value`` text file with ``#`` comments given
by ``--config``; any of their flags overrides the file.  All outputs are
deterministic functions of the configuration (plus seed) and are written
atomically with 17 significant digits so reruns are byte-identical.

Input CSVs are read once each, column by column, from one schema table per
kind (``_CSV_SCHEMAS``); of several faults, the one a row-by-row reader
would meet first is reported.

Exit codes: 0 success, 1 validation or I/O error, 2 ill-posed sources,
3 undefined rate.
"""

from __future__ import annotations

import bisect
import csv
import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import estimator
from .errors import (
    InconsistentYieldsError,
    UndefinedRateError,
    ValidationError,
    WellPosednessError,
)
from .qstate import (
    ATOL,
    PLANAR_AXES,
    THREE_STATE_LABELS,
    BlochVector,
    QubitState,
    SourceSet,
    VirtualEnsemble,
    basis_state,
    bloch_to_density,
    canonical_sources,
    three_state_sources,
    virtual_states_from_purification,
    virtual_states_planar,
)
from .estimator import YieldTable

if TYPE_CHECKING:
    import argparse
    from collections.abc import Callable

    from .channel import ChannelParams

SWEEP_HEADER = ("delta", "distance_km", "alpha_opt", "Q_z", "e_z", "Q_z1", "e_x1", "R")


class _Column(NamedTuple):
    """A CSV column: its name, its cells' type (``str``, ``int`` or finite ``float``),
    whether every file has it and, for one read only beside ``beside``, a blank cell's value."""

    name: str
    kind: type
    required: bool = True
    default: float | None = None
    beside: str | None = None


#: each CSV kind's columns by name, the required ones in the order messages list them
_CSV_SCHEMAS = {kind: {c.name: c for c in columns} for kind, columns in {
    "counts": (_Column("label", str), _Column("basis", str), _Column("outcome", str),
               _Column("count", int)),
    "yield": (_Column("basis", str), _Column("label", str), _Column("outcome", int),
              _Column("prior", float), _Column("probability", float),
              _Column("px", float, False),  # blank: the label's canonical state
              *(_Column(name, float, False, 0.0, "px") for name in ("py", "pz"))),
    "pair-yield": (_Column("label_a", str), _Column("label_b", str), _Column("prior", float),
                   _Column("probability", float)),
}.items()}
CSV_COLUMNS = {kind: tuple(name for name, c in columns.items() if c.required)
               for kind, columns in _CSV_SCHEMAS.items()}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ILL_POSED = 2
EXIT_UNDEFINED = 3

MAX_DISTANCE_POINTS = 2**17  # a sweep keeps ~210 bytes per point: ~80 MiB for 3 deltas here
_DISTANCE_FIELDS = ("distance_start", "distance_stop", "distance_step")


@dataclass(frozen=True)
class RunConfig:
    """Flattened run configuration; defaults reproduce the reference curves.

    A channel or key-rate field left None is not given: it takes the library's
    default, a ``channel.ChannelParams`` field or a ``keyrate.DEFAULT_*`` value.
    The CLI states only its own defaults: the deltas, the distance range, the
    seed and the pulse count."""

    dark_count: float | None = None
    det_eff: float | None = None
    atten_db_per_km: float | None = None
    delta: tuple[float, ...] = (0.0, 0.063, 0.126)
    distance_start: float = 0.0
    distance_stop: float = 150.0
    distance_step: float = 5.0
    f_ec: float | None = None
    alpha: float | None = None
    alpha_min: float | None = None
    alpha_max: float | None = None
    alpha_tol: float | None = None
    seed: int = 1
    pulses: int = 1_000_000
    out: str | None = None

    def __post_init__(self) -> None:
        for name in _DISTANCE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"invalid field {name}: must be finite, got {value!r}")
        if self.distance_step <= 0.0:
            raise ValidationError("invalid field distance_step: must be > 0")

    def distances(self) -> list[float]:
        """``start + i*step`` for each ``i`` with ``start + i*step <= stop + 1e-9``."""
        start, step, limit = self.distance_start, self.distance_step, self.distance_stop + 1e-9
        if start + MAX_DISTANCE_POINTS * step <= limit:
            raise ValidationError(f"invalid field distance: {start!r}:{self.distance_stop!r}:"
                                  f"{step!r} gives more than {MAX_DISTANCE_POINTS} points")
        # the test is monotone in i, so bisect for the first i that fails it
        count = bisect.bisect_left(range(MAX_DISTANCE_POINTS), True,
                                   key=lambda i: start + i * step > limit)
        return [start + i * step for i in range(count)]

    def channel_params(self, distance_km: float, delta: float) -> ChannelParams:
        """The link at one point, with the default intensity: ``sweep`` takes
        ``alpha`` as its own argument, and ``simulate`` has no intensity."""
        from . import channel

        given = {name: value for name in ("dark_count", "det_eff", "atten_db_per_km")
                 if (value := getattr(self, name)) is not None}
        return channel.ChannelParams(distance_km=distance_km, delta=delta, **given)


class _Setting(NamedTuple):
    """A ``sweep``/``simulate`` setting: its ``RunConfig`` or config-file key, the
    type of its value and, if the command line sets it, its flag, metavar and
    the commands that take the flag."""

    key: str
    kind: object  # float, int, str, _FLOATS or _SWITCH
    flag: str | None = None
    metavar: str | None = None
    commands: tuple[str, ...] = ("sweep", "simulate")


_FLOATS = "repeatable float"  # a list of floats: a flag given once per value, or one file line
_SWITCH = "switch"  # a flag without a value

#: every ``sweep``/``simulate`` setting, each command's flags in ``--help`` order
_SETTINGS = (
    _Setting("config", str, "--config", "PATH"),
    _Setting("out", str, "--out", "PATH"),
    _Setting("delta", _FLOATS, "--delta", "F"),
    _Setting("distance", str, "--distance", "START:STOP:STEP"),  # sets the _DISTANCE_FIELDS
    _Setting("alpha", float, "--alpha", "F", ("sweep",)),
    _Setting("optimize", _SWITCH, "--optimize", commands=("sweep",)),  # clears alpha
    _Setting("f_ec", float, "--f-ec", "F", ("sweep",)),
    _Setting("seed", int, "--seed", "U64", ("simulate",)),
    _Setting("pulses", int, "--pulses", "U64", ("simulate",)),
    *(_Setting(key, float) for key in ("dark_count", "det_eff", "atten_db_per_km", "alpha_min",
                                       "alpha_max", "alpha_tol", *_DISTANCE_FIELDS)),
)
#: each command's flags; ``estimate`` and ``mdi-estimate`` take one input path instead
_FLAGS = {command: {s.flag: s for s in _SETTINGS if s.flag and command in s.commands}
          for command in ("sweep", "simulate")}
#: the type of each key a config file may set: a file names no other file and sets no switch
_FILE_KINDS = {s.key: s.kind for s in _SETTINGS if s.key != "config" and s.kind is not _SWITCH}


def _parse_distance_range(text: str) -> dict[str, float]:
    """``START:STOP:STEP`` as RunConfig keyword arguments."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"invalid field distance: expected START:STOP:STEP, got {text!r}")
    try:
        return dict(zip(_DISTANCE_FIELDS, (float(p) for p in parts)))
    except ValueError:
        raise ValidationError(f"invalid field distance: non-numeric part in {text!r}") from None


def _config_from_mapping(values: dict[str, str]) -> dict[str, object]:
    """Convert raw string config values to RunConfig keyword arguments."""
    out: dict[str, object] = {}
    for key, raw in values.items():
        kind = _FILE_KINDS.get(key)
        if kind is None:
            raise ValidationError(f"unknown config field {key!r}")
        if key == "distance":
            out.update(_parse_distance_range(raw))
            continue
        try:
            out[key] = (tuple(float(p) for p in raw.replace(",", " ").split()) if kind is _FLOATS
                        else kind(raw))
        except ValueError:
            raise ValidationError(f"invalid field {key}: cannot parse {raw!r}") from None
    return out


def load_config_file(path: str) -> dict[str, object]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8-sig") as handle:  # a byte-order mark is not a key
        for lineno, line in enumerate(handle, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return _config_from_mapping(values)


def _format(value: float) -> str:
    return format(float(value), ".17g")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to a private (mode 0600) temporary file beside
    ``path``, fsync it, then rename it over ``path``; on failure, remove it."""
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)))
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(text.encode("utf-8"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def cmd_sweep(config: RunConfig) -> int:
    if config.out is None:
        raise ValidationError("invalid field out: sweep requires an output path")
    from . import keyrate

    given = {name: value for name, value in (("f_ec", config.f_ec), ("tol", config.alpha_tol))
             if value is not None}
    low, high = keyrate.DEFAULT_ALPHA_BOUNDS  # a half-given range keeps the other default
    bounds = (low if config.alpha_min is None else config.alpha_min,
              high if config.alpha_max is None else config.alpha_max)
    table = keyrate.sweep(config.distances(), config.delta, config.channel_params(0.0, 0.0),
                          bounds=bounds, alpha=config.alpha, **given)
    # "%.17g" % x gives the bytes of _format(x)
    row = ",".join(["%.17g"] * len(SWEEP_HEADER))
    columns = (getattr(table, f.name).tolist() for f in fields(table))
    lines = [",".join(SWEEP_HEADER), *(row % values for values in zip(*columns))]
    _atomic_write(config.out, "\n".join(lines) + "\n")
    return EXIT_OK


class _Records(NamedTuple):
    """A CSV file's kind, its schema columns' cells and each record's row number."""

    path: str
    kind: str
    cells: dict[str, tuple[str, ...]]
    lines: list[int]

    def columns(self, names: tuple[str, ...], rows: list[int] | None = None) -> tuple[list, list]:
        """The columns ``names`` at ``rows`` (default every row), each as its type
        with a blank cell as its default, and each one's first bad cell as a fault
        ``(row, message)`` or None; a column's values stop at its bad cell."""
        schema, values = _CSV_SCHEMAS[self.kind], []
        try:
            for name in names:
                kind, default = schema[name].kind, schema[name].default
                cells = self.cells.get(name)
                if cells is None:  # py or pz, which the file leaves out
                    column = [default] * len(rows)
                else:
                    if rows is not None:
                        cells = map(cells.__getitem__, rows)
                    column = ([raw.strip() or None for raw in cells] if kind is str
                              else [kind(raw.strip() or default) for raw in cells])
                if None in column if kind is str else (
                        kind is float and not all(map(math.isfinite, column))):
                    break
                values.append(column)
            else:
                return values, [None] * len(names)
        except (TypeError, ValueError):
            pass
        return tuple(zip(*(self._first_bad(name, rows) for name in names)))

    def _first_bad(self, name: str, rows: list[int] | None) -> tuple[list, tuple | None]:
        """Column ``name`` at ``rows`` tested cell by cell, as a row-by-row reader
        would: its values up to its first bad cell, and that cell's fault or None."""
        column, cells, values = _CSV_SCHEMAS[self.kind][name], self.cells.get(name), []
        if cells is None:
            return [column.default] * len(rows), None
        for raw in cells if rows is None else [cells[i] for i in rows]:
            text = raw.strip()
            try:
                value = column.kind(text) if text else column.default
            except ValueError:
                message = f"column {name}: cannot parse {raw!r}"
                break
            if value is None or column.kind is float and not math.isfinite(value):
                message = (f"column {name} is missing" if value is None
                           else f"column {name} must be finite, got {raw!r}")
                break
            values.append(value)
        else:  # a blank py or pz reads as 0
            return values, None
        i = len(values) if rows is None else rows[len(values)]
        return values, (i, f"{self.path}: row {self.lines[i]}: {message}")


def _read_csv(path: str, kind: str | None = None) -> _Records:
    """The records of a CSV file of ``kind``, read once after its header's tests.
    Without a ``kind``, a header naming ``count`` (spaces stripped) is counts, else yield."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if kind is None:
            kind = "counts" if "count" in [col.strip() for col in header or ()] else "yield"
        schema, required = _CSV_SCHEMAS[kind], CSV_COLUMNS[kind]
        if header is None or not set(required).issubset(header):
            raise ValidationError(f"{path}: {kind} CSV must have columns {list(required)}")
        named = [col for col in header if col.strip()]  # a blank header cell names nothing
        if len(set(named)) < len(named):
            twice = next(col for i, col in enumerate(named) if col in named[:i])
            raise ValidationError(f"{path}: {kind} CSV names column {twice!r} twice")
        for c in schema.values():
            if c.beside and c.name in header and c.beside not in header:
                raise ValidationError(
                    f"{path}: {kind} CSV has a {c.name} column but no {c.beside} column")
        for col in named:  # any other unknown column is ignored
            if col not in schema and col.strip().lower() in schema:
                raise ValidationError(
                    f"{path}: {kind} CSV column {col!r} must be spelled {col.strip().lower()!r}")
        records, lines = [], []
        for record in reader:  # an empty line is skipped
            if record:
                records.append(record)
                lines.append(reader.line_num)
    width = len(header)
    if min(map(len, records), default=width) < width:  # a short record's cells are blank
        records = [record + [""] * (width - len(record)) for record in records]
    columns = list(zip(*records)) or [()] * width
    return _Records(path, kind, {col: columns[i] for i, col in enumerate(header) if col in schema},
                    lines)


def _first_fault(faults: list[tuple | None]) -> tuple[float, str | None]:
    """The fault a row-by-row reader meets first, as ``(row, message)``: the lowest
    row and, within it, the first of ``faults`` (each None or a ``(row, message)``);
    ``(inf, None)`` without one."""
    if not any(faults):
        return math.inf, None
    return min((fault[0], order, fault[1]) for order, fault in enumerate(faults) if fault)[::2]


def _first_repeat(keys: list, message: Callable[[object], str]) -> tuple[int, str] | None:
    """The fault ``(index, message(key))`` of the first key equal to an earlier one."""
    if len(set(keys)) == len(keys):
        return None
    seen: set = set()
    i = next(i for i, key in enumerate(keys) if key in seen or seen.add(key))
    return i, message(keys[i])


def _first_change(keys: list, values: list, far: Callable[[object, object], bool],
                  message: Callable[[object], str], previous: bool = True) -> tuple[int, str] | None:
    """The fault ``(index, message(key))`` of the first value ``far`` from its key's
    value on that key's previous row (or, without ``previous``, its first row)."""
    pairs = list(zip(keys, values))
    if len(set(pairs)) == len(dict(pairs)):  # one value per key
        return None
    held: dict = {}
    for i, (key, value) in enumerate(pairs):
        if far(held.setdefault(key, value), value):
            return i, message(key)
        if previous:
            held[key] = value
    return None


def _read_counts_csv(records: _Records) -> dict[tuple, int]:
    """The counts of a counts CSV (the ``simulate`` output schema), as those of a
    :class:`~qkdkit.montecarlo.TrialRecord`."""
    (outcome, label, basis, count), faults = records.columns(("outcome", "label", "basis",
                                                              "count"))
    outcome = [int(text) if text in ("0", "1") else text for text in outcome]
    keys = list(zip(label, basis, outcome))
    repeat = _first_repeat(keys, lambda key: f"{records.path}: duplicate counts row {key}")
    _, message = _first_fault([*faults[:3], repeat, faults[3]])
    if message:
        raise ValidationError(message)
    if not keys:
        raise ValidationError(f"{records.path}: no count rows found")
    return dict(zip(keys, count))


def _read_yield_csv(records: _Records) -> tuple[YieldTable, SourceSet]:
    """The table and source states of a single-party yield CSV.  The prior column
    is the per-(state, basis) prefactor (1/6 in the uniform three-state protocol).
    A label's state is its first row's ``px, py, pz``, or its canonical state where
    ``px`` is blank; later rows repeat them within 1e-12 or leave ``px`` blank too."""
    path = records.path
    (label, basis, outcome, probability, prior), faults = records.columns(
        ("label", "basis", "outcome", "probability", "prior"))
    keys = list(zip(basis, outcome, label))
    faults = [*faults, _first_repeat(keys, lambda key: f"{path}: duplicate cell {key}"),
              _first_change(label, prior, lambda a, b: abs(a - b) > 1e-12,
                            lambda lab: f"{path}: inconsistent priors for label {lab!r}")]
    labels = list(dict.fromkeys(label))
    first = dict(zip(labels, map(label.index, labels)))  # each label's first row
    blochs: dict[int, tuple] = {}  # the px, py, pz of each row read
    if "px" in records.cells:
        # a label whose rows all repeat its first row's Bloch cells is read on that row
        varied = len(set(zip(label, *(records.cells[c] for c in ("px", "py", "pz")
                                      if c in records.cells)))) > len(first)
        px_cells = records.cells["px"]
        rows = [i for i in (range(len(label)) if varied else first.values()) if px_cells[i].strip()]
        (px, py, pz), bloch_faults = records.columns(("px", "py", "pz"), rows)
        blochs = dict(zip(rows, zip(px, py, pz)))  # up to the first bad cell
        faults += bloch_faults
        if varied:
            stop = min([fault[0] for fault in bloch_faults if fault] or [len(label)])
            faults.append(_first_change(
                label, [blochs.get(i, ()) for i in range(stop)], lambda a, b: len(a) != len(b)
                or any(abs(p - q) > 1e-12 for p, q in zip(b, a)),
                lambda lab: f"{path}: inconsistent Bloch columns for label {lab!r}", False))
    row, message = _first_fault(faults)
    states = {}  # each label's state, from its first row, after that row's tests
    for lab, i in first.items():
        if i < row:
            cells = blochs.get(i)
            states[lab] = bloch_to_density(BlochVector(1.0, *cells)) if cells else basis_state(lab)
    if message:
        raise ValidationError(message)
    if not keys:
        raise ValidationError(f"{path}: no yield rows found")
    # The prior column is the joint prefactor P(label) * P(basis); factorize it
    # so the table's weight(basis, label) reproduces it exactly.
    priors = dict(zip(label, prior))  # each label's last prior, in order of first appearance
    total = sum(priors.values())
    if not (0.0 < total <= 1.0 + 1e-9):
        raise ValidationError(f"{path}: prior column sums to {total!r} per basis")
    sources = SourceSet(entries=tuple(
        (label, states[label], priors[label] / total) for label in priors))
    # input tables are typically empirical, so allow sampling-noise slack in
    # the prior-consistency checks (the solvers stay strict)
    yields = dict(zip(keys, probability))
    table = YieldTable(yields, {label: prior / total for label, prior in priors.items()},
                       {basis: total for basis in {k[0] for k in yields}}, consistency_tol=1e-2)
    return table, sources


@functools.cache
def _perfect_x_ensemble() -> VirtualEnsemble:
    """The X-basis virtual ensemble of the perfect Z pair, built on first use."""
    return virtual_states_planar(0.0)


@functools.cache
def _canonical_z_pair_ensemble() -> VirtualEnsemble:
    """The purified X-basis ensemble of the shared ``|0z>, |1z>``, built on first use.

    Not :func:`_perfect_x_ensemble`: its ``|0x>`` has ``px = 0.9999999999999998``.
    """
    return virtual_states_from_purification(basis_state("0z"), basis_state("1z"))


def cmd_estimate(yields_path: str) -> int:
    records = _read_csv(yields_path)
    if records.kind == "counts":
        # counts from a `simulate` run: statistical estimate with error bar
        from . import montecarlo

        counts = _read_counts_csv(records)
        trial = montecarlo.TrialRecord(counts=counts, n_pulses=sum(counts.values()))
        sources = three_state_sources()
        estimate = montecarlo.estimate_from_trial(trial, sources)
        print(f"pulses: {trial.n_pulses}")
        print(f"e_x_estimate: {_format(estimate.e_x)}")
        print(f"std_err: {_format(estimate.std_err)}")
        return EXIT_OK
    table, sources = _read_yield_csv(records)
    missing = [
        ("x", s, label)
        for s in (0, 1)
        for label in sources.labels
        if ("x", s, label) not in table.yields
    ]
    if missing:
        raise ValidationError(f"{yields_path}: missing yield entries {missing}")
    report = estimator.check_well_posed(sources.blochs())
    print(f"condition_number: {_format(report.condition_number)}")
    if not report.well_posed:
        raise WellPosednessError(f"sources are ill-posed ({report.reason})")
    functionals = estimator.solve_functionals(table, sources, (0, 1), report=report)
    for s, functional in enumerate(functionals):
        coeffs = " ".join(f"{k}={_format(v)}" for k, v in functional.q.items())
        print(f"q[outcome={s}]: {coeffs}")
    # joint prefactor of virtual state j: P(Z pair) * P(X basis) * w_j
    if {"0z", "1z"} <= set(sources.labels):
        rho_0z, rho_1z = sources.state("0z"), sources.state("1z")
        if rho_0z is basis_state("0z") and rho_1z is basis_state("1z"):
            ensemble = _canonical_z_pair_ensemble()
        else:
            ensemble = virtual_states_from_purification(rho_0z, rho_1z)
        z_pair_weight = table.weight("x", "0z") + table.weight("x", "1z")
    else:
        # two labels at the mean prior, in the table's own X basis
        ensemble = _perfect_x_ensemble()
        z_pair_weight = 2.0 * table.basis_probs["x"] / len(sources)
    virtual = estimator.virtual_yields(*functionals, ensemble, z_pair_weight)
    for (j, s), value in np.ndenumerate(virtual):
        print(f"virtual_yield[outcome={s},{j}x]: {_format(value)}")
    # a label without Bloch columns is the shared canonical state itself
    if set(sources.labels) == set(THREE_STATE_LABELS) and all(
        sources.state(lab) is basis_state(lab)
        or np.allclose(sources.state(lab).density, basis_state(lab).density, rtol=0.0, atol=ATOL)
        for lab in sources.labels
    ):
        # exact canonical sources: the closed form keeps an ideal table's 0 exact
        e_x = estimator.phase_error_three_state(table)
    else:
        e_x = estimator.error_rate(virtual)
    print(f"e_x: {_format(e_x)}")
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    if not config.delta:
        raise ValidationError("invalid field delta: simulate needs a delta, got none")
    if len(config.delta) > 1:
        raise ValidationError(
            f"invalid field delta: simulate takes one delta, got {len(config.delta)}")
    from . import channel, montecarlo

    delta = config.delta[0]
    params = config.channel_params(config.distance_start, delta)
    t = channel.transmittance(params)
    experiment = montecarlo.fiber_experiment(params, t)
    trial = montecarlo.run_protocol(
        config.pulses,
        experiment.sources,
        experiment.channel,
        experiment.povm,
        seed=config.seed,
        mixer=experiment.mixer,
    )
    if config.out is not None:
        lines = [",".join(CSV_COLUMNS["counts"])]
        for (label, basis, outcome), count in sorted(
            trial.counts.items(), key=lambda item: (item[0][0], item[0][1], str(item[0][2]))
        ):
            lines.append(f"{label},{basis},{outcome},{count}")
        _atomic_write(config.out, "\n".join(lines) + "\n")
    estimate = montecarlo.estimate_from_trial(trial, experiment.sources)
    _, analytic = channel.single_photon_stats(params, t=t)
    if estimate.std_err > 0.0:
        z_score = (estimate.e_x - analytic) / estimate.std_err
    else:
        z_score = 0.0 if estimate.e_x == analytic else math.inf

    print(f"pulses: {config.pulses}")
    print(f"seed: {config.seed}")
    print(f"e_x_estimate: {_format(estimate.e_x)}")
    print(f"std_err: {_format(estimate.std_err)}")
    print(f"e_x_analytic: {_format(analytic)}")
    print(f"z_score: {_format(z_score)}")
    return EXIT_OK


def _read_pair_yield_csv(path: str) -> tuple[dict[tuple[str, str], float], float]:
    """Parse a two-party pair-yield CSV; returns pair yields and gamma.

    Columns: label_a, label_b, probability, prior.  The prior column holds
    the per-pair prefactor (gamma/9 for Z-Z pairs, 1/9 otherwise) and must
    be internally consistent.
    """
    records = _read_csv(path, "pair-yield")
    (label_a, label_b, probability, prior), faults = records.columns(
        ("label_a", "label_b", "probability", "prior"))
    keys = list(zip(label_a, label_b))
    repeat = _first_repeat(keys, lambda key: f"{path}: duplicate pair {key}")
    gamma, off = None, None
    for i, ((a, b), p) in enumerate(zip(keys, prior)):
        if a.endswith("z") and b.endswith("z"):
            if gamma is not None and abs(gamma - p * 9.0) > 1e-12:
                off = i, f"{path}: inconsistent Z-Z priors"
                break
            gamma = p * 9.0
        elif abs(p - 1.0 / 9.0) > 1e-12:
            off = i, f"{path}: pairs involving X states must carry prior 1/9"
            break
    _, message = _first_fault([*faults[:2], repeat, *faults[2:], off])
    if message:
        raise ValidationError(message)
    if gamma is None:
        raise ValidationError(f"{path}: no Z-Z pair rows found")
    return dict(zip(keys, probability)), gamma


def cmd_mdi_estimate(yields_path: str) -> int:
    pairs, gamma = _read_pair_yield_csv(yields_path)
    labels_a = sorted({a for a, _ in pairs})
    labels_b = sorted({b for _, b in pairs})
    sources_a = canonical_sources(labels_a)
    # one source set for both parties is checked once
    sources_b = sources_a if labels_b == labels_a else canonical_sources(labels_b)
    functional = estimator.mdi_solve(pairs, sources_a, sources_b, gamma)
    for i, s in enumerate(PLANAR_AXES):
        for j, t in enumerate(PLANAR_AXES):
            print(f"q[{s},{t}]: {_format(functional.q[i, j])}")
    ensemble = _perfect_x_ensemble()
    table = estimator.mdi_virtual_yields(functional, ensemble, ensemble)
    for (j, k), value in np.ndenumerate(table / 9.0):
        print(f"virtual_pair_yield[{j}x,{k}x]: {_format(value)}")
    e_x = estimator.error_rate(table)
    print(f"e_x: {_format(e_x)}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the settings table, built once per process; parsing leaves
    it unchanged.  ``main`` runs it only on a line :func:`_read_argv` declines,
    so it reports every usage error and prints ``--help``.  Its namespace holds
    only the settings a line gives, as the reader's settings do."""
    import argparse

    class OneValue(argparse.Action):
        """Stores a flag's value, or appends it when ``const`` is ``_FLOATS``.
        Python 3.11 drops the ``--`` of ``--flag=--`` and passes no value: a
        usage error, as the flag without its value is."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            if self.const is _FLOATS:
                values = [*getattr(namespace, self.dest, ()), values]
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="qkdkit",
        description="Loss-tolerant phase-error estimation and key-rate simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("sweep", "estimate", "simulate", "mdi-estimate"):
        cmd = sub.add_parser(command, argument_default=argparse.SUPPRESS)
        if command not in _FLAGS:
            cmd.add_argument("yields", help="input yield CSV")
        for s in _FLAGS.get(command, {}).values():
            if s.kind is _SWITCH:
                cmd.add_argument(s.flag, dest=s.key, action="store_true")
            else:
                cmd.add_argument(s.flag, dest=s.key, metavar=s.metavar, action=OneValue,
                                 const=s.kind, type=float if s.kind is _FLOATS else s.kind)
    return parser


def _read_argv(argv: list[str]) -> dict[str, object] | None:
    """The settings of a plain command line, as the parser's namespace would hold
    them, or None for any other line, which the parser then reads.

    A plain line is a command and then either one input path (``estimate``,
    ``mdi-estimate``) or the command's own flags by their full names, each with
    one value as ``--flag value`` or ``--flag=value`` (``--optimize`` takes
    none).  No value may start with ``-``, and each must convert to its
    setting's type.  ``--help``, abbreviated flags, ``--`` and every usage
    error are left to the parser."""
    if not argv:
        return None
    command, *rest = argv
    if command in ("estimate", "mdi-estimate"):
        if len(rest) == 1 and not rest[0].startswith("-"):
            return {"command": command, "yields": rest[0]}
        return None
    flags = _FLAGS.get(command)
    if flags is None:
        return None
    settings: dict[str, object] = {"command": command}
    tokens = iter(rest)
    for token in tokens:
        flag, given, value = token.partition("=")
        setting = flags.get(flag)
        if setting is None:
            return None
        if setting.kind is _SWITCH:
            if given:
                return None
            settings[setting.key] = True
            continue
        if not given:
            value = next(tokens, "-")  # a missing value declines
        if value.startswith("-"):
            return None
        try:
            value = (float if setting.kind is _FLOATS else setting.kind)(value)
        except ValueError:
            return None
        if setting.kind is _FLOATS:
            settings.setdefault(setting.key, []).append(value)
        else:
            settings[setting.key] = value
    return settings


def _run_config(settings: dict[str, object]) -> RunConfig:
    """The ``RunConfig`` of a ``sweep`` or ``simulate`` line's settings: the config
    file's values, overridden by the flags'."""
    kwargs = load_config_file(settings["config"]) if "config" in settings else {}
    for key, value in settings.items():
        if key == "delta":
            kwargs[key] = tuple(value)
        elif key == "distance":
            kwargs.update(_parse_distance_range(value))
        elif key not in ("command", "config", "optimize"):
            kwargs[key] = value
    if "optimize" in settings:
        kwargs["alpha"] = None
    if settings["command"] == "simulate":
        # without a delta of its own, simulate runs the first of the sweep's defaults
        kwargs.setdefault("delta", RunConfig.delta[:1])
    return RunConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    settings = _read_argv(argv)
    if settings is None:
        settings = vars(build_parser().parse_args(argv))
    command = settings["command"]
    try:
        if command == "estimate":
            return cmd_estimate(settings["yields"])
        if command == "mdi-estimate":
            return cmd_mdi_estimate(settings["yields"])
        config = _run_config(settings)
        return cmd_sweep(config) if command == "sweep" else cmd_simulate(config)
    except (WellPosednessError, UndefinedRateError, ValidationError, InconsistentYieldsError,
            OSError, UnicodeDecodeError, csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, WellPosednessError):
            return EXIT_ILL_POSED
        return EXIT_UNDEFINED if isinstance(exc, UndefinedRateError) else EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
