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

Exit codes: 0 success, 1 validation or I/O error, 2 ill-posed sources,
3 undefined rate.
"""

from __future__ import annotations

import argparse
import bisect
import csv
import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from . import estimator, keyrate, montecarlo
from .channel import ChannelParams, single_photon_stats
from .errors import (
    InconsistentYieldsError,
    UndefinedRateError,
    ValidationError,
    WellPosednessError,
)
from .qstate import (
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

SWEEP_HEADER = ("delta", "distance_km", "alpha_opt", "Q_z", "e_z", "Q_z1", "e_x1", "R")
CSV_COLUMNS = {"counts": ("label", "basis", "outcome", "count"),
               "yield": ("basis", "label", "outcome", "prior", "probability"),
               "pair-yield": ("label_a", "label_b", "prior", "probability")}

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_ILL_POSED = 2
EXIT_UNDEFINED = 3

MAX_DISTANCE_POINTS = 2**17  # a sweep keeps ~210 bytes per point: ~80 MiB for 3 deltas here
_DISTANCE_FIELDS = ("distance_start", "distance_stop", "distance_step")


@dataclass(frozen=True)
class RunConfig:
    """Flattened run configuration; defaults reproduce the reference curves."""

    dark_count: float = ChannelParams.dark_count
    det_eff: float = ChannelParams.det_eff
    atten_db_per_km: float = ChannelParams.atten_db_per_km
    delta: tuple[float, ...] = (0.0, 0.063, 0.126)
    distance_start: float = 0.0
    distance_stop: float = 150.0
    distance_step: float = 5.0
    f_ec: float = keyrate.DEFAULT_F_EC
    alpha: float | None = None
    alpha_min: float = keyrate.DEFAULT_ALPHA_BOUNDS[0]
    alpha_max: float = keyrate.DEFAULT_ALPHA_BOUNDS[1]
    alpha_tol: float = keyrate.DEFAULT_ALPHA_TOL
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
        if self.seed < 0:
            raise ValidationError(f"invalid field seed: must be >= 0, got {self.seed}")
        if not 0 <= self.pulses <= montecarlo.MAX_PULSES:
            raise ValidationError("invalid field pulses: must be in [0, 2**63 - 1]")

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
        return ChannelParams(
            dark_count=self.dark_count,
            det_eff=self.det_eff,
            atten_db_per_km=self.atten_db_per_km,
            distance_km=distance_km,
            delta=delta,
            alpha=self.alpha if self.alpha is not None else ChannelParams.alpha,
        )


_FLOAT_FIELDS = {
    "dark_count", "det_eff", "atten_db_per_km", "f_ec",
    "alpha", "alpha_min", "alpha_max", "alpha_tol", *_DISTANCE_FIELDS,
}
_INT_FIELDS = {"seed", "pulses"}


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
    known = {f.name for f in fields(RunConfig)}
    out: dict[str, object] = {}
    for key, raw in values.items():
        if key == "distance":
            out.update(_parse_distance_range(raw))
            continue
        if key not in known:
            raise ValidationError(f"unknown config field {key!r}")
        try:
            if key == "delta":
                out[key] = tuple(float(p) for p in raw.replace(",", " ").split())
            elif key in _FLOAT_FIELDS:
                out[key] = float(raw)
            elif key in _INT_FIELDS:
                out[key] = int(raw)
            else:
                out[key] = raw
        except ValueError:
            raise ValidationError(f"invalid field {key}: cannot parse {raw!r}") from None
    return out


def load_config_file(path: str) -> dict[str, object]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle = tempfile.NamedTemporaryFile(
        "w", dir=directory, delete=False, encoding="utf-8", newline=""
    )
    try:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(handle.name, path)
    except BaseException:
        handle.close()
        if os.path.exists(handle.name):
            os.unlink(handle.name)
        raise


def cmd_sweep(config: RunConfig) -> int:
    if config.out is None:
        raise ValidationError("invalid field out: sweep requires an output path")
    table = keyrate.sweep(config.distances(), config.delta, config.channel_params(0.0, 0.0),
                          f_ec=config.f_ec, bounds=(config.alpha_min, config.alpha_max),
                          tol=config.alpha_tol, alpha=config.alpha)
    # "%.17g" % x gives the bytes of _format(x)
    row = ",".join(["%.17g"] * len(SWEEP_HEADER))
    columns = (getattr(table, f.name).tolist() for f in fields(table))
    lines = [",".join(SWEEP_HEADER), *(row % values for values in zip(*columns))]
    _atomic_write(config.out, "\n".join(lines) + "\n")
    return EXIT_OK


def _csv_rows(path: str, kind: str | None = None) -> tuple[str, list[tuple[dict, str]]]:
    """The kind and rows of a CSV file whose header has the ``CSV_COLUMNS`` of
    ``kind``, each row with its ``"<path>: row N"`` location for error messages.
    Without a ``kind``, a header naming ``count`` (spaces stripped) is counts, else yield."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames
        if kind is None:
            kind = "counts" if "count" in [col.strip() for col in header or ()] else "yield"
        required = CSV_COLUMNS[kind]
        if header is None or not set(required).issubset(header):
            raise ValidationError(f"{path}: {kind} CSV must have columns {list(required)}")
        return kind, [(row, f"{path}: row {reader.line_num}") for row in reader]


def _cell(row: dict, column: str, where: str, kind: type = float, default: object = None):
    """The named cell of a CSV row as ``kind`` (``str``, ``int`` or a finite
    ``float``); a blank or missing cell gives ``default`` when one is set."""
    raw = row.get(column)
    if raw is None or not raw.strip():
        if default is not None:
            return default
        raise ValidationError(f"{where}: column {column} is missing")
    try:
        value = kind(raw.strip())
    except ValueError:
        raise ValidationError(f"{where}: column {column}: cannot parse {raw!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValidationError(f"{where}: column {column} must be finite, got {raw!r}")
    return value


def _read_counts_csv(path: str, rows: list[tuple[dict, str]]) -> montecarlo.TrialRecord:
    """Parse the rows of a counts CSV (the ``simulate`` output schema) into a trial."""
    counts: dict[tuple[str, str, object], int] = {}
    for row, where in rows:
        outcome: object = _cell(row, "outcome", where, str)
        if outcome in ("0", "1"):
            outcome = int(outcome)
        key = (_cell(row, "label", where, str), _cell(row, "basis", where, str), outcome)
        if key in counts:
            raise ValidationError(f"{path}: duplicate counts row {key}")
        counts[key] = _cell(row, "count", where, int)
    if not counts:
        raise ValidationError(f"{path}: no count rows found")
    return montecarlo.TrialRecord(counts=counts, n_pulses=sum(counts.values()))


def _read_yield_csv(path: str, rows: list[tuple[dict, str]]) -> tuple[YieldTable, SourceSet]:
    """Parse the rows of a single-party yield CSV into a table plus source states.

    Required columns: label, basis, outcome, probability, prior.  The prior
    column is the full per-(state, basis) prefactor (1/6 in the uniform
    three-state protocol).  Optional px, py, pz columns override the
    canonical state for a label; otherwise labels must be canonical
    (0z, 1z, 0x, 1x, 0y, 1y).
    """
    yields: dict[tuple[str, int, str], float] = {}
    priors: dict[str, float] = {}
    states: dict[str, QubitState] = {}
    for row, where in rows:
        label = _cell(row, "label", where, str)
        basis = _cell(row, "basis", where, str)
        outcome = _cell(row, "outcome", where, int)
        probability = _cell(row, "probability", where)
        prior = _cell(row, "prior", where)
        key = (basis, outcome, label)
        if key in yields:
            raise ValidationError(f"{path}: duplicate cell {key}")
        yields[key] = probability
        if label in priors and abs(priors[label] - prior) > 1e-12:
            raise ValidationError(f"{path}: inconsistent priors for label {label!r}")
        priors[label] = prior
        if label not in states:
            if (row.get("px") or "").strip():
                bloch = BlochVector(
                    v0=1.0,
                    px=_cell(row, "px", where),
                    py=_cell(row, "py", where, default=0.0),
                    pz=_cell(row, "pz", where, default=0.0),
                )
                states[label] = bloch_to_density(bloch)
            else:
                states[label] = basis_state(label)
    if not yields:
        raise ValidationError(f"{path}: no yield rows found")
    # The prior column is the joint prefactor P(label) * P(basis); factorize it
    # so the table's weight(basis, label) reproduces it exactly.
    total = sum(priors.values())
    if not (0.0 < total <= 1.0 + 1e-9):
        raise ValidationError(f"{path}: prior column sums to {total!r} per basis")
    sources = SourceSet(
        entries=tuple(
            (label, states[label], priors[label] / total) for label in priors
        )
    )
    # input tables are typically empirical, so allow sampling-noise slack in
    # the prior-consistency checks (the solvers stay strict)
    table = YieldTable(
        yields,
        {label: prior / total for label, prior in priors.items()},
        {basis: total for basis in {k[0] for k in yields}},
        consistency_tol=1e-2,
    )
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
    kind, rows = _csv_rows(yields_path)
    if kind == "counts":
        # counts from a `simulate` run: statistical estimate with error bar
        trial = _read_counts_csv(yields_path, rows)
        sources = three_state_sources()
        estimate = montecarlo.estimate_from_trial(trial, sources)
        print(f"pulses: {trial.n_pulses}")
        print(f"e_x_estimate: {_format(estimate.e_x)}")
        print(f"std_err: {_format(estimate.std_err)}")
        return EXIT_OK
    table, sources = _read_yield_csv(yields_path, rows)
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
        z_pair_weight = (sources.prior("0z") + sources.prior("1z")) * 0.5
    else:
        ensemble, z_pair_weight = _perfect_x_ensemble(), 1.0 / len(sources)
    virtual = estimator.virtual_yields(*functionals, ensemble, z_pair_weight)
    for (j, s), value in np.ndenumerate(virtual):
        print(f"virtual_yield[outcome={s},{j}x]: {_format(value)}")
    # a label without Bloch columns is the shared canonical state itself
    if set(sources.labels) == {"0z", "1z", "0x"} and all(
        sources.state(lab) is basis_state(lab)
        or np.allclose(sources.state(lab).density, basis_state(lab).density, atol=1e-12)
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
    # without a delta of its own, simulate runs the first of the sweep's defaults
    if len(config.delta) > 1 and config.delta is not RunConfig.delta:
        raise ValidationError(
            f"invalid field delta: simulate takes one delta, got {len(config.delta)}")
    delta = config.delta[0]
    params = config.channel_params(config.distance_start, delta)
    experiment = montecarlo.fiber_experiment(params)
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
    _, analytic = single_photon_stats(params)
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
    pairs: dict[tuple[str, str], float] = {}
    gamma: float | None = None
    for row, where in _csv_rows(path, "pair-yield")[1]:
        key = (_cell(row, "label_a", where, str), _cell(row, "label_b", where, str))
        if key in pairs:
            raise ValidationError(f"{path}: duplicate pair {key}")
        pairs[key] = _cell(row, "probability", where)
        prior = _cell(row, "prior", where)
        if key[0].endswith("z") and key[1].endswith("z"):
            implied = prior * 9.0
            if gamma is not None and abs(gamma - implied) > 1e-12:
                raise ValidationError(f"{path}: inconsistent Z-Z priors")
            gamma = implied
        elif abs(prior - 1.0 / 9.0) > 1e-12:
            raise ValidationError(
                f"{path}: pairs involving X states must carry prior 1/9"
            )
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
    axes = ("id", "x", "z")
    for i, s in enumerate(axes):
        for j, t in enumerate(axes):
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
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qkdkit",
        description="Loss-tolerant phase-error estimation and key-rate simulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sweep = sub.add_parser("sweep")
    sub.add_parser("estimate").add_argument("yields", help="input yield CSV")
    simulate = sub.add_parser("simulate")
    sub.add_parser("mdi-estimate").add_argument("yields", help="input yield CSV")
    for cmd in (sweep, simulate):
        cmd.add_argument("--config", metavar="PATH")
        cmd.add_argument("--out", metavar="PATH")
        cmd.add_argument("--delta", type=float, action="append", metavar="F")
        cmd.add_argument("--distance", metavar="START:STOP:STEP")
    sweep.add_argument("--alpha", type=float, metavar="F")
    sweep.add_argument("--optimize", action="store_true")
    sweep.add_argument("--f-ec", type=float, dest="f_ec", metavar="F")
    simulate.add_argument("--seed", type=int, metavar="U64")
    simulate.add_argument("--pulses", type=int, metavar="U64")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """The ``RunConfig`` of a ``sweep`` or ``simulate`` command line."""
    kwargs: dict[str, object] = {}
    if args.config is not None:
        kwargs.update(load_config_file(args.config))
    options = vars(args)
    kwargs.update({name: options[name] for name in ("out", "alpha", "seed", "pulses", "f_ec")
                   if options.get(name) is not None})
    if args.delta:
        kwargs["delta"] = tuple(args.delta)
    if args.distance is not None:
        kwargs.update(_parse_distance_range(args.distance))
    if options.get("optimize"):
        kwargs["alpha"] = None
    return RunConfig(**kwargs)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "estimate":
            return cmd_estimate(args.yields)
        if args.command == "mdi-estimate":
            return cmd_mdi_estimate(args.yields)
        config = _config_from_args(args)
        return cmd_sweep(config) if args.command == "sweep" else cmd_simulate(config)
    except WellPosednessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_POSED
    except UndefinedRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNDEFINED
    except (ValidationError, InconsistentYieldsError, OSError, UnicodeDecodeError,
            csv.Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
