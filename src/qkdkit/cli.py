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

Input CSVs are read once each, then converted row by row: of several
faults, the first one met is reported.

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

    from .channel import ChannelParams

SWEEP_HEADER = ("delta", "distance_km", "alpha_opt", "Q_z", "e_z", "Q_z1", "e_x1", "R")


#: each CSV kind's required columns, in the order messages list them
CSV_COLUMNS = {
    "counts": ("label", "basis", "outcome", "count"),
    "yield": ("basis", "label", "outcome", "prior", "probability"),
    "pair-yield": ("label_a", "label_b", "prior", "probability"),
}
#: a yield CSV's optional Bloch columns; ``py`` and ``pz`` come only beside ``px``
_BLOCH_COLUMNS = ("px", "py", "pz")

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

    def check_distances(self, names: tuple[str, ...] = _DISTANCE_FIELDS) -> None:
        """Refuse a non-finite field of ``names``, then a ``distance_step`` <= 0 if named."""
        for name in names:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(f"invalid field {name}: must be finite, got {value!r}")
        if "distance_step" in names and self.distance_step <= 0.0:
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
    config.check_distances()
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
    """A CSV file's kind, the index of each of its kind's columns that it has, its
    records (short ones padded with blank cells) and each record's row number."""

    path: str
    kind: str
    index: dict[str, int]
    rows: list[list[str]]
    lines: list[int]


def _read_csv(path: str, kind: str | None = None) -> _Records:
    """The records of a CSV file of ``kind``, read once after its header's tests.
    Without a ``kind``, a header naming ``count`` (spaces stripped) is counts, else yield."""
    # utf-8-sig drops the byte-order mark that spreadsheet exports write
    with open(path, "r", encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if kind is None:
            kind = "counts" if "count" in [col.strip() for col in header or ()] else "yield"
        required = CSV_COLUMNS[kind]
        known = required + _BLOCH_COLUMNS if kind == "yield" else required
        if header is None or not set(required).issubset(header):
            raise ValidationError(f"{path}: {kind} CSV must have columns {list(required)}")
        named = [col for col in header if col.strip()]  # a blank header cell names nothing
        if len(set(named)) < len(named):
            twice = next(col for i, col in enumerate(named) if col in named[:i])
            raise ValidationError(f"{path}: {kind} CSV names column {twice!r} twice")
        beside = [col for col in _BLOCH_COLUMNS[1:] if col in header]
        if kind == "yield" and beside and "px" not in header:
            raise ValidationError(f"{path}: yield CSV has a {beside[0]} column but no px column")
        for col in named:  # any other unknown column is ignored
            if col not in known and col.strip().lower() in known:
                raise ValidationError(
                    f"{path}: {kind} CSV column {col!r} must be spelled {col.strip().lower()!r}")
        rows, lines = [], []
        for record in reader:  # an empty line is skipped
            if record:
                rows.append(record)
                lines.append(reader.line_num)
    width = len(header)
    if min(map(len, rows), default=width) < width:  # a short record's cells are blank
        rows = [record + [""] * (width - len(record)) for record in rows]
    return _Records(path, kind, {col: i for i, col in enumerate(header) if col in known},
                    rows, lines)


def _cell(records: _Records, i: int, name: str, kind: type = float, default: object = None):
    """Cell ``name`` of record ``i``, stripped, as ``kind`` (``str``, ``int`` or a finite
    ``float``); a blank cell, or one of a column the file lacks, gives ``default`` if set."""
    column = records.index.get(name)
    raw = "" if column is None else records.rows[i][column]
    text = raw.strip()
    if not text:
        if default is not None:
            return default
        message = f"column {name} is missing"
    elif kind is str:
        return text
    else:
        try:
            value = kind(text)
        except ValueError:
            message = f"column {name}: cannot parse {raw!r}"
        else:
            if kind is not float or math.isfinite(value):
                return value
            message = f"column {name} must be finite, got {raw!r}"
    raise ValidationError(f"{records.path}: row {records.lines[i]}: {message}")


def _read_counts_csv(records: _Records) -> dict[tuple, int]:
    """The counts of a counts CSV (the ``simulate`` output schema), as those of a
    :class:`~qkdkit.montecarlo.TrialRecord`."""
    counts: dict[tuple, int] = {}
    for i in range(len(records.rows)):
        outcome = _cell(records, i, "outcome", str)
        if outcome in ("0", "1"):
            outcome = int(outcome)
        key = (_cell(records, i, "label", str), _cell(records, i, "basis", str), outcome)
        if key in counts:
            raise ValidationError(f"{records.path}: duplicate counts row {key}")
        counts[key] = _cell(records, i, "count", int)
    if not counts:
        raise ValidationError(f"{records.path}: no count rows found")
    return counts


def _bloch_cells(records: _Records, i: int) -> tuple[float, ...]:
    """The ``px, py, pz`` cells of yield record ``i`` (a blank ``py`` or ``pz`` is 0),
    or ``()`` where ``px`` is blank."""
    if not _cell(records, i, "px", str, ""):
        return ()
    return (_cell(records, i, "px"), _cell(records, i, "py", default=0.0),
            _cell(records, i, "pz", default=0.0))


def _read_yield_csv(records: _Records) -> tuple[YieldTable, SourceSet]:
    """The table and source states of a single-party yield CSV.  The prior column
    is the per-(state, basis) prefactor (1/6 in the uniform three-state protocol).
    A label's state is built on its first row, from its ``px, py, pz``, or as its
    canonical state where ``px`` is blank; later rows repeat those cells within
    1e-12 or leave ``px`` blank too."""
    path, yields, priors, states = records.path, {}, {}, {}
    blochs = {}  # each label's first-row Bloch cells, as text and as numbers
    at = [records.index[col] for col in _BLOCH_COLUMNS if col in records.index]
    for i, record in enumerate(records.rows):
        label = _cell(records, i, "label", str)
        basis = _cell(records, i, "basis", str)
        outcome = _cell(records, i, "outcome", int)
        probability = _cell(records, i, "probability")
        prior = _cell(records, i, "prior")
        key = (basis, outcome, label)
        if key in yields:
            raise ValidationError(f"{path}: duplicate cell {key}")
        yields[key] = probability
        if label in priors and abs(priors[label] - prior) > 1e-12:
            raise ValidationError(f"{path}: inconsistent priors for label {label!r}")
        priors[label] = prior
        if label not in states:
            bloch = _bloch_cells(records, i)
            blochs[label] = [record[j] for j in at], bloch
            states[label] = (bloch_to_density(BlochVector(1.0, *bloch)) if bloch
                             else basis_state(label))
        # a row that repeats its label's first Bloch cells as text repeats its numbers
        elif at and [record[j] for j in at] != blochs[label][0]:
            first, bloch = blochs[label][1], _bloch_cells(records, i)
            if len(bloch) != len(first) or any(abs(p - q) > 1e-12 for p, q in zip(bloch, first)):
                raise ValidationError(f"{path}: inconsistent Bloch columns for label {label!r}")
    if not yields:
        raise ValidationError(f"{path}: no yield rows found")
    # The prior column is the joint prefactor P(label) * P(basis); factorize it
    # so the table's weight(basis, label) reproduces it exactly.
    total = sum(priors.values())
    if not (0.0 < total <= 1.0 + 1e-9):
        raise ValidationError(f"{path}: prior column sums to {total!r} per basis")
    sources = SourceSet(entries=tuple(
        (label, states[label], priors[label] / total) for label in priors))
    # input tables are typically empirical, so allow sampling-noise slack in
    # the prior-consistency checks (the solvers stay strict)
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
    config.check_distances(("distance_start",))
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
    pairs, gamma = {}, None
    for i in range(len(records.rows)):
        key = (_cell(records, i, "label_a", str), _cell(records, i, "label_b", str))
        if key in pairs:
            raise ValidationError(f"{path}: duplicate pair {key}")
        pairs[key] = _cell(records, i, "probability")
        prior = _cell(records, i, "prior")
        if key[0].endswith("z") and key[1].endswith("z"):
            if gamma is not None and abs(gamma - prior * 9.0) > 1e-12:
                raise ValidationError(f"{path}: inconsistent Z-Z priors")
            gamma = prior * 9.0
        elif abs(prior - 1.0 / 9.0) > 1e-12:
            raise ValidationError(f"{path}: pairs involving X states must carry prior 1/9")
    if gamma is None:
        raise ValidationError(f"{path}: no Z-Z pair rows found")
    return pairs, gamma


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
