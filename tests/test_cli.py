import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdkit import channel, cli, montecarlo, qstate
from qkdkit.qstate import THREE_STATE_LABELS, basis_state

DATA = Path(__file__).parent / "data"


def write_yield_csv(path, rows, extra_cols=()):
    header = ["label", "basis", "outcome", "probability", "prior", *extra_cols]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def identity_three_state_rows():
    w = 1.0 / 6.0
    conditionals = {
        (0, "0z"): 0.5, (0, "1z"): 0.5, (0, "0x"): 1.0,
        (1, "0z"): 0.5, (1, "1z"): 0.5, (1, "0x"): 0.0,
    }
    return [
        [label, "x", s, repr(w * value), repr(w)]
        for (s, label), value in conditionals.items()
    ]


class TestConfig:
    def test_defaults_match_reference_parameters(self):
        # the CLI states the deltas; the channel and f_ec are the library's
        from qkdkit import keyrate

        assert cli.RunConfig().delta == (0.0, 0.063, 0.126)
        params = channel.ChannelParams()
        assert params.dark_count == 0.5e-7
        assert params.det_eff == 0.15
        assert params.atten_db_per_km == 0.21
        assert keyrate.DEFAULT_F_EC == 1.22

    def test_unset_fields_read_the_library_defaults(self, tmp_path, monkeypatch):
        from qkdkit import keyrate

        config = cli.RunConfig(det_eff=0.5, out=str(tmp_path / "sweep.csv"))
        assert config.channel_params(5.0, 0.1) == channel.ChannelParams(
            det_eff=0.5, distance_km=5.0, delta=0.1)
        library_sweep, calls = keyrate.sweep, []

        def sweep(*args, **kwargs):
            # the arguments the library's sweep runs with, its own defaults filled in
            call = inspect.signature(library_sweep).bind(*args, **kwargs)
            call.apply_defaults()
            calls.append(call.arguments)
            return library_sweep(*args, **kwargs)

        monkeypatch.setattr(keyrate, "sweep", sweep)
        assert cli.cmd_sweep(config) == 0
        [arguments] = calls
        assert arguments["bounds"] == keyrate.DEFAULT_ALPHA_BOUNDS
        assert (arguments["f_ec"], arguments["tol"]) == (
            keyrate.DEFAULT_F_EC, keyrate.DEFAULT_ALPHA_TOL)

    def test_file_parsing_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "delta = 0.1 0.2\n"
            "distance = 0:20:10\n"
            "seed = 7\n"
            "f_ec = 1.5  # trailing comment\n"
        )
        settings = cli._read_argv(
            ["simulate", "--config", str(path), "--seed", "9", "--out", "x.csv"]
        )
        config = cli._run_config(settings)
        assert config.delta == (0.1, 0.2)
        assert config.distances() == [0.0, 10.0, 20.0]
        assert config.seed == 9  # flag overrides file
        assert config.f_ec == 1.5

    def test_config_keys_are_the_run_config_fields_and_distance(self):
        # the settings table types every config-file key: the RunConfig fields,
        # and distance, which sets the three distance fields
        assert set(cli._FILE_KINDS) == {f.name for f in fields(cli.RunConfig)} | {"distance"}

    def test_unknown_field_named(self, tmp_path):
        # protocol and gamma were config fields that nothing read
        for name in ("not_a_field", "protocol", "gamma"):
            path = tmp_path / "bad.cfg"
            path.write_text(f"{name} = 3\n")
            with pytest.raises(cli.ValidationError, match=f"unknown config field '{name}'"):
                cli.load_config_file(str(path))

    def test_byte_order_mark_before_the_first_key_is_read_past(self, tmp_path, capsys):
        # a config file with a byte-order mark before its first key runs as without it
        text = "delta = 0.063\ndistance = 20:20:1\n"
        runs = []
        for name, head in (("plain.cfg", b""), ("marked.cfg", b"\xef\xbb\xbf")):
            config = tmp_path / name
            config.write_bytes(head + text.encode())
            code = cli.main(["simulate", "--pulses", "1000", "--config", str(config)])
            runs.append((code, capsys.readouterr()))
        assert runs[1] == runs[0] and runs[0][0] == 0

    def test_bad_distance_range(self):
        with pytest.raises(cli.ValidationError, match="distance"):
            cli._parse_distance_range("0:10")


class TestSweepCommand:
    def test_golden_schema_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        argv = ["sweep", "--delta", "0.0", "--distance", "0:10:5", "--alpha", "0.5"]
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().splitlines()
        assert lines[0] == "delta,distance_km,alpha_opt,Q_z,e_z,Q_z1,e_x1,R"
        assert len(lines) == 4  # header + 3 distances
        row = lines[1].split(",")
        assert len(row) == 8
        assert float(row[2]) == 0.5

    def test_golden_file(self, tmp_path):
        # the column set, order and 17-significant-digit formatting are part
        # of the external contract
        out = tmp_path / "golden.csv"
        code = cli.main(
            ["sweep", "--delta", "0.126", "--distance", "50:50:5", "--alpha", "0.5",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == (
            "delta,distance_km,alpha_opt,Q_z,e_z,Q_z1,e_x1,R\n"
            "0.126,50,0.5,0.0066621905825560547,0.0019893335773742324,"
            "0.0012295325917145061,0.0022346746719816395,0.00051649084168114566\n"
        )

    @pytest.mark.parametrize("text", [
        None, "alpha_max = 1.0", "alpha_min = 0.0001", "f_ec = 1.22", "alpha_tol = 0.0001",
        "dark_count = 5e-08\natten_db_per_km = 0.21",
    ])
    def test_golden_default_optimized_sweep(self, tmp_path, text):
        # the bytes of the default optimized sweep (3 deltas x 31 distances)
        # guard the intensity optimizer as well as the channel model; a config
        # file that sets keys to the library's own defaults, one bound of the
        # intensity range alone among them, writes the same bytes
        out, config = tmp_path / "default.csv", tmp_path / "run.cfg"
        argv = ["sweep", "--out", str(out)]
        if text is not None:
            config.write_text(text + "\n")
            argv += ["--config", str(config)]
        assert cli.main(argv) == 0
        assert out.read_bytes() == (DATA / "sweep_default.csv").read_bytes()

    @pytest.mark.parametrize("options, name", [
        # a non-default f_ec, a delta near the top of its range and zero-rate
        # rows past the cutoff
        (["--delta", "0", "--delta", "0.3", "--delta", "1.2", "--distance", "0:300:7.5",
          "--f-ec", "1.5"], "sweep_three_deltas_f_ec.csv"),
        (["--delta", "0", "--delta", "0.063", "--delta", "0.5", "--distance", "0:200:12.5",
          "--alpha", "0.3"], "sweep_fixed_alpha.csv"),
    ])
    def test_golden_multi_delta_sweep(self, tmp_path, options, name):
        out = tmp_path / name
        assert cli.main(["sweep", *options, "--out", str(out)]) == 0
        assert out.read_bytes() == (DATA / name).read_bytes()

    def test_default_deltas_give_three_blocks(self, tmp_path):
        out = tmp_path / "blocks.csv"
        code = cli.main(["sweep", "--distance", "0:10:10", "--alpha", "0.5",
                         "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["0", "0", "0.063", "0.063", "0.126", "0.126"]

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = cli.main(
            ["sweep", "--delta", "0.0", "--distance", "10:0:5", "--alpha", "0.5",
             "--out", str(out)]
        )
        assert code == 0
        assert out.read_text() == "delta,distance_km,alpha_opt,Q_z,e_z,Q_z1,e_x1,R\n"

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    @pytest.mark.parametrize(
        "distance,field",
        [("0:nan:5", "distance_stop"), ("0:inf:5", "distance_stop"),
         ("nan:10:5", "distance_start"), ("-inf:10:5", "distance_start"),
         ("0:10:inf", "distance_step"), ("0:10:nan", "distance_step")],
    )
    def test_non_finite_distance_range_rejected(self, tmp_path, capsys, command, distance, field):
        # a NaN or infinite stop used to make the distance loop run forever
        argv = [command, f"--distance={distance}", "--out", str(tmp_path / "x")]
        argv += ["--pulses", "10"] * (command == "simulate")
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("line", ["seed = -3", "pulses = -5"])
    def test_config_seed_and_pulses_are_ignored(self, tmp_path, line):
        # seed and pulses are simulate keys; a sweep draws nothing
        argv = ["sweep", "--delta", "0.126", "--distance", "0:20:10"]
        plain, configured, config = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert cli.main(argv + ["--out", str(plain)]) == 0
        assert cli.main(argv + ["--config", str(config), "--out", str(configured)]) == 0
        assert configured.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "line,field",
        [("alpha = inf", "alpha"), ("atten_db_per_km = nan", "atten_db_per_km"),
         ("atten_db_per_km = inf", "atten_db_per_km")],
    )
    def test_non_finite_channel_field_rejected(self, tmp_path, capsys, line, field):
        config, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        config.write_text(line + "\n")
        argv = ["sweep", "--config", str(config), "--distance", "0:10:5", "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line,field",
        [("f_ec = nan", "f_ec"), ("f_ec = inf", "f_ec"), ("f_ec = 0.5", "f_ec"),
         ("alpha_tol = nan", "alpha_tol"), ("alpha_tol = 0", "alpha_tol"),
         ("alpha_min = nan", "alpha_min"), ("alpha_max = inf", "alpha_max"),
         ("alpha_min = 2", "alpha_min")],
    )
    def test_invalid_rate_field_rejected(self, tmp_path, capsys, line, field):
        # NaN used to pass the range checks: R = nan, or an unrefined alpha_opt
        config, out = tmp_path / "run.cfg", tmp_path / "x.csv"
        config.write_text(line + "\n")
        argv = ["sweep", "--config", str(config), "--distance", "0:10:5", "--delta", "0",
                "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not out.exists()

    def test_nan_f_ec_flag_rejected(self, tmp_path, capsys):
        argv = ["sweep", "--distance", "0:10:5", "--delta", "0", "--f-ec", "nan",
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "f_ec" in err

    def test_requires_out(self, capsys):
        assert cli.main(["sweep", "--delta", "0.0", "--alpha", "0.5"]) == 1
        assert "out" in capsys.readouterr().err

    @pytest.mark.parametrize("distance", ["0:10:1e-12", "1e300:1e300:1"])
    def test_too_many_distances_rejected(self, tmp_path, capsys, distance):
        # the first looped for hours; in the second start + i*step never
        # passes stop, so the loop ran until memory ran out
        out = tmp_path / "x.csv"
        argv = ["sweep", "--delta", "0", "--alpha", "0.5", "--distance", distance,
                "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid field distance:") and "more than" in err
        assert not out.exists()

    @pytest.mark.parametrize("start, stop, step", [
        (0.0, 150.0, 5.0), (0.0, 0.3, 0.1), (0.0, 1e-9, 1e-9), (0.1, 0.7, 0.2), (10.0, 0.0, 5.0),
        (5.0, 5.0, 1.0), (1e300, 1e300, 1e300), (0.0, 1.0, 1.0 / 3.0), (-5.0, 5.0, 2.5),
    ])
    def test_distance_count_keeps_loop_boundary(self, start, stop, step):
        expected, i = [], 0
        while start + i * step <= stop + 1e-9:
            expected.append(start + i * step)
            i += 1
        config = cli.RunConfig(distance_start=start, distance_stop=stop, distance_step=step)
        assert config.distances() == expected

    def test_distance_count_limit(self):
        limit = cli.MAX_DISTANCE_POINTS
        assert limit > 10**5
        last = float(limit - 1)
        assert len(cli.RunConfig(distance_stop=last, distance_step=1.0).distances()) == limit
        with pytest.raises(cli.ValidationError, match="invalid field distance"):
            cli.RunConfig(distance_stop=last + 1.0, distance_step=1.0).distances()

    def test_delta_just_below_limit_rejected(self, tmp_path, capsys):
        # 3*delta/4 rounds to within 1e-8 of pi/2: a raw ZeroDivisionError before
        argv = ["sweep", "--delta", "2.09439510239319", "--distance", "0:10:5",
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: delta must be in [0, pi)")

    def test_alpha_tol_below_float_resolution_ends(self, tmp_path):
        # the bracket stops shrinking a few ulps wide; the search used to loop forever
        config = tmp_path / "run.cfg"
        config.write_text("alpha_tol = 1e-17\n")
        argv = ["sweep", "--delta", "0", "--distance", "0:10:5", "--config", str(config),
                "--out", str(tmp_path / "x.csv")]
        assert cli.main(argv) == 0

    @pytest.mark.parametrize("alpha, line", [
        ("1e308", ""),  # -2 * alpha overflows in the single-photon gain, whose 0 is right
        ("0.5", "atten_db_per_km = 1e308"),  # the loss in dB overflows; T = 0 is right
    ])
    def test_overflow_to_zero_prints_no_warning(self, tmp_path, capsys, alpha, line):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        argv = ["sweep", "--delta", "0", "--distance", "5:15:5", "--alpha", alpha,
                "--config", str(config), "--out", str(tmp_path / "x.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0
        assert capsys.readouterr().err == ""
        rates = [row.split(",")[-1] for row in (tmp_path / "x.csv").read_text().splitlines()[1:]]
        assert rates == ["0", "0", "0"]


MIXED_CALLS = [
    ["sweep", "--delta", "0.3", "--distance", "0:10:5", "--alpha", "0.5"],
    ["estimate", str(DATA / "estimate_planar.csv")],
    ["simulate", "--pulses", "1000", "--seed", "3", "--distance", "5:5:1"],
    ["sweep", "--distance", "0:10:5", "--alpha", "0.5"],
]
# the same calls by unambiguous prefixes and a `--`, which only the parser reads
ABBREVIATED_CALLS = [
    ["sweep", "--del", "0.3", "--dist", "0:10:5", "--al", "0.5"],
    ["estimate", "--", str(DATA / "estimate_planar.csv")],
    ["simulate", "--pul", "1000", "--se", "3", "--dist", "5:5:1"],
    ["sweep", "--dist", "0:10:5", "--al", "0.5"],
]


class TestParserReuse:
    @staticmethod
    def run_all(tmp_path, capsys, calls, out_flag, fresh=False):
        """``(exit code, stdout, stderr, output bytes)`` of each call, its output
        named by ``out_flag``; with ``fresh``, each call builds the parser anew."""
        results = []
        for k, argv in enumerate(calls):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{k}.out"
            out.unlink(missing_ok=True)
            rc = cli.main(argv + [out_flag, str(out)] * (argv[0] != "estimate"))
            captured = capsys.readouterr()
            results.append((rc, captured.out, captured.err,
                            out.read_bytes() if out.exists() else None))
        return results

    def test_mixed_commands_match_fresh_parser(self, tmp_path, capsys):
        # each call prints and writes what it does after a fresh parser, and no
        # --delta list leaks into the next
        cli.build_parser.cache_clear()
        reused = self.run_all(tmp_path, capsys, MIXED_CALLS, "--out")
        # the reader reads all of these lines, so none builds the parser
        assert cli.build_parser.cache_info().misses == 0
        assert reused == self.run_all(tmp_path, capsys, MIXED_CALLS, "--out", fresh=True)
        assert all(rc == 0 for rc, *_ in reused)
        rows = reused[3][3].decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0"] * 3 + ["0.063"] * 3 + ["0.126"] * 3

    def test_abbreviated_flags_match_the_full_names(self, tmp_path, capsys):
        # only the parser reads prefixes and `--`: one cached parser serves every
        # call as a fresh one would, and each call runs as its full-name line
        cli.build_parser.cache_clear()
        reused = self.run_all(tmp_path, capsys, ABBREVIATED_CALLS, "--ou")
        assert cli.build_parser.cache_info().misses == 1
        assert reused == self.run_all(tmp_path, capsys, ABBREVIATED_CALLS, "--ou", fresh=True)
        assert reused == self.run_all(tmp_path, capsys, MIXED_CALLS, "--out")


# the options of each command that its handler does not read
UNREAD_OPTIONS = [("sweep", "--seed"), ("sweep", "--pulses"), ("simulate", "--alpha"),
                  ("simulate", "--optimize"), ("simulate", "--f-ec")] + [
    (command, option) for command in ("estimate", "mdi-estimate")
    for option in ("--config", "--out", "--delta", "--distance", "--alpha", "--optimize",
                   "--seed", "--pulses", "--f-ec")]
ESTIMATE_INPUTS = {"estimate": "estimate_canonical.csv", "mdi-estimate": "mdi_relay.csv"}


class TestOptionsPerCommand:
    """Each command takes only the options its handler reads."""

    @pytest.mark.parametrize("command, option", UNREAD_OPTIONS)
    def test_unread_option_is_a_usage_error(self, capsys, command, option):
        name = ESTIMATE_INPUTS.get(command)
        argv = [command] if name is None else [command, str(DATA / name)]
        argv += [option] + ["1"] * (option != "--optimize")
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: qkdkit")
        assert f"error: unrecognized arguments: {option}" in err

    @pytest.mark.parametrize("command, name", ESTIMATE_INPUTS.items())
    def test_estimate_commands_build_no_config(self, monkeypatch, capsys, command, name):
        def refuse(*args, **kwargs):
            raise AssertionError("a run configuration was built")

        monkeypatch.setattr(cli, "RunConfig", refuse)
        monkeypatch.setattr(cli, "load_config_file", refuse)
        assert cli.main([command, str(DATA / name)]) == 0


DISTANCE_PARTS = ["0", "5", "7.5", "150", "1e-300", "1e-12", "1e300", "1e308", "-1", "nan",
                  "inf", "x", ""]
DELTAS = ["0", "0.063", "1.2", "2.0943951023931953", "2.09439510239319", "-0.1", "3.2", "nan",
          "inf", "1e308"]
EXTREMES = ["5e-324", "1e-308", "1e-4", "0.5", "1", "1.22", "2", "1e308", "0", "-1", "nan", "inf"]
CONFIG_KEYS = ("alpha_min", "alpha_max", "alpha_tol", "f_ec", "dark_count", "det_eff",
               "atten_db_per_km", "alpha")
CONFIG_LINES = [f"{key} = {value}" for key in CONFIG_KEYS for value in EXTREMES] + [
    "delta = 0 0.5", "delta = 3", "delta =", "distance = 0:150:7.5", "distance = 0:1e300:1",
    "distance = 1:2", "bogus = 1"]


class TestSweepArgvFuzz:
    @settings(max_examples=200, deadline=2000)
    @given(
        distance=st.tuples(*[st.sampled_from(DISTANCE_PARTS)] * 3),
        deltas=st.lists(st.sampled_from(DELTAS), max_size=3),
        alpha=st.one_of(st.none(), st.sampled_from(EXTREMES)),
        f_ec=st.one_of(st.none(), st.sampled_from(EXTREMES)),
        optimize=st.booleans(),
        config=st.lists(st.sampled_from(CONFIG_LINES), max_size=4),
    )
    def test_sweep_never_escapes(self, distance, deltas, alpha, f_ec, optimize, config):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            argv = ["sweep", f"--distance={':'.join(distance)}", f"--out={tmp}/x.csv"]
            argv += [f"--delta={d}" for d in deltas] + ["--optimize"] * optimize
            argv += [f"--alpha={alpha}"] * (alpha is not None)
            argv += [f"--f-ec={f_ec}"] * (f_ec is not None)
            if config:
                path = os.path.join(tmp, "run.cfg")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write("\n".join(config) + "\n")
                argv += ["--config", path]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:  # an argparse usage error
                    rc = exc.code
                    assert rc == 2 and "error:" in err.getvalue()
                    return
        assert rc in (0, 1, 2, 3)
        assert not caught, [str(w.message) for w in caught]
        assert out.getvalue() == ""
        if rc:
            assert err.getvalue().startswith("error:")
        else:
            assert err.getvalue() == ""


# inputs per command: mostly its own kinds, then another command's and a missing file
INPUTS = {
    "simulate": [None],
    "estimate": ["estimate_canonical.csv", "estimate_planar.csv", "estimate_four_state.csv",
                 "simulate_counts.csv", "mdi_relay.csv", "missing.csv"],
    "mdi-estimate": ["mdi_relay.csv", "estimate_canonical.csv", "missing.csv"],
}
COUNTS = ["0", "1", "10", "1000", "1000000", "1000000000000", "9223372036854775807",
          "9223372036854775808", "-1", "1e3", "x"]
RUN_LINES = CONFIG_LINES + [f"{key} = {value}" for key in ("seed", "pulses") for value in COUNTS]


def run_cli(argv):
    """``(exit code, stdout, stderr, warnings)`` of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # an argparse usage error
            rc = ("usage", exc.code)
    return rc, out.getvalue(), err.getvalue(), [str(w.message) for w in caught]


class TestRunArgvFuzz:
    """``simulate``, ``estimate`` and ``mdi-estimate`` on generated argv and
    config files: every call ends in an exit code, never a traceback, and a
    repeated call prints the same, so nothing one call builds leaks into the next."""

    @settings(max_examples=200, deadline=2000)
    @given(
        command=st.sampled_from(sorted(INPUTS)),
        data=st.data(),
        distance=st.one_of(st.none(), st.tuples(*[st.sampled_from(DISTANCE_PARTS)] * 3)),
        deltas=st.lists(st.sampled_from(DELTAS), max_size=2),
        # an empty slot keeps about half the flags off, so most examples get past the parser
        flags=st.lists(st.one_of(st.none(), st.tuples(st.sampled_from(["--seed", "--pulses"]),
                                                      st.sampled_from(COUNTS))), max_size=3),
        config=st.lists(st.sampled_from(RUN_LINES), max_size=4),
    )
    def test_run_commands_never_escape(self, command, data, distance, deltas, flags, config):
        name = data.draw(st.sampled_from(INPUTS[command]))
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command] if name is None else [command, str(DATA / name)]
            if command == "simulate":  # the estimate commands take their input alone
                argv.append(f"--out={tmp}/x.csv")
                if distance is not None:
                    argv.append(f"--distance={':'.join(distance)}")
                argv += [f"--delta={d}" for d in deltas]
                flags = [flag for flag in flags if flag is not None]
                argv += [f"{flag}={value}" for flag, value in flags]
                if not any(flag == "--pulses" for flag, _ in flags):
                    argv.append("--pulses=1000")  # not the default 10^6, to keep examples fast
                if config:
                    path = os.path.join(tmp, "run.cfg")
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write("\n".join(config) + "\n")
                    argv += ["--config", path]
            first, second = run_cli(argv), run_cli(argv)
        assert first == second
        rc, out, err, caught = first
        if rc == ("usage", 2):
            assert "error:" in err
            return
        assert rc in (0, 1, 2, 3)
        assert not caught, caught
        assert "Traceback" not in out + err
        if rc:
            assert err.startswith("error:")
        else:
            assert err == "" and out


# plain values of each setting type, and values the reader leaves to the parser:
# empty, non-numeric, negative, flag-like
PLAIN_VALUES = {float: ["0", "0.126", "1e-3", "1_0", " 2", "nan", "inf"],
                int: ["3", "0", "007", "1_000"],
                str: ["a.csv", "0:10:5", "x=y", "", " "]}
PLAIN_VALUES[cli._FLOATS] = PLAIN_VALUES[float]
ODD_VALUES = ["", "x", "1.5", "-1", "-0.5", "-x", "-", "--", "-h", "--out"]
ODD_TOKENS = ["-h", "--help", "--", "extra", "p.csv", "-1", "-0.5", "--bogus", "-", "=", "--out="]


def flag_tokens(setting, plain):
    """Tokens giving ``setting``, with or without ``=``: by its full name and a
    plain value, or else by its name or a prefix of it and any value."""
    flag = setting.flag
    names = st.just(flag) if plain else st.one_of(
        st.just(flag), st.sampled_from([flag[:k] for k in range(3, len(flag))]))
    if setting.kind is cli._SWITCH:
        suffixes = [""] if plain else ["", "=", "=1"]
        return st.tuples(names, st.sampled_from(suffixes)).map(lambda t: ["".join(t)])
    values = st.sampled_from(PLAIN_VALUES[setting.kind])
    if not plain:
        values = st.one_of(values, st.sampled_from(ODD_VALUES))
    return st.tuples(names, values, st.booleans()).map(
        lambda t: [f"{t[0]}={t[1]}"] if t[2] else [t[0], t[1]])


NOISE = st.one_of(*[flag_tokens(s, plain=False) for s in cli._SETTINGS if s.flag],
                  st.sampled_from(ODD_TOKENS).map(lambda token: [token]))


def command_lines(command):
    """A plain line of ``command`` (its own flags by full name with plain values,
    or its input path), with up to two pieces of noise put in."""
    own = [flag_tokens(s, plain=True) for s in cli._SETTINGS
           if s.flag and command in s.commands]
    plain = st.lists(st.one_of(*own), max_size=4) if own else st.just([["p.csv"]])

    def line(items, noise):
        items = list(items)
        for position, tokens in noise:
            items.insert(position % (len(items) + 1), tokens)
        return [command, *(token for tokens in items for token in tokens)]

    return st.builds(line, plain, st.lists(st.tuples(st.integers(0, 4), NOISE), max_size=2))


COMMAND_LINES = {command: command_lines(command)
                 for command in ("sweep", "simulate", "estimate", "mdi-estimate", "swe", "-h", "")}
ARGV_LINES = st.sampled_from([*COMMAND_LINES][:4] * 6 + [*COMMAND_LINES][4:]).flatmap(
    COMMAND_LINES.__getitem__)


def parsed(argv):
    """The parser's settings of ``argv``, or its exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit as exc:
            return exc.code


USAGE_LINES = [["--help"], ["sweep", "--help"], ["simulate", "-h"], ["estimate", "--help"],
               ["mdi-estimate", "--help"], [], ["bogus"], ["sweep", "--seed", "1"],
               ["simulate", "--alpha=1"], ["simulate", "--pulses", "x"], ["simulate", "--delta="],
               ["simulate", "--seed"], ["sweep", "--optimize=1"], ["sweep", "--d", "1"],
               ["sweep", "extra"], ["estimate"], ["estimate", "a.csv", "b.csv"],
               ["mdi-estimate", "--out", "x"]]


def usage_transcript():
    """Exit code, stdout and stderr of each of ``USAGE_LINES``."""
    parts = []
    for argv in USAGE_LINES:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(list(argv))
            except SystemExit as exc:
                code = exc.code
        parts.append(f"$ qkdkit {shlex.join(argv)}\n[exit {code}]\n--- stdout\n{out.getvalue()}"
                     f"--- stderr\n{err.getvalue()}")
    return "\n".join(parts)


class TestArgvReader:
    """``main`` reads a plain line by the settings table and leaves every other
    line to the parser built from the same table."""

    @settings(max_examples=600, deadline=2000)
    @given(argv=ARGV_LINES)
    def test_reader_declines_or_gives_the_parsers_settings(self, argv):
        settings, expected = cli._read_argv(argv), parsed(argv)
        if not isinstance(expected, dict):  # a usage error (2) or --help (0)
            assert settings is None
        elif settings is not None:  # repr: a NaN value equals itself there
            assert repr(sorted(settings.items())) == repr(sorted(expected.items()))

    @pytest.mark.parametrize("argv", [
        ["sweep", "--out", "-x"], ["sweep", "--out", "--"], ["sweep", "--out=-"], ["sweep", "--out"],
        ["sweep", "--optimize="], ["sweep", "--alpha", "-1"], ["sweep", "--alpha="],
        ["sweep", "--", "--alpha", "1"], ["sweep", "--al", "1"], ["sweep", "-h"], ["sweep", "x"],
        ["simulate", "--seed", "1.5"], ["simulate", "--pulses", "-5"], ["simulate", "--alpha", "1"],
        ["estimate"], ["estimate", "-"], ["estimate", "--", "a.csv"], ["estimate", "a", "b"],
        ["mdi-estimate", "a.csv", "--out", "x"], ["swe"], [],
    ])
    def test_reader_declines_what_it_does_not_read_plainly(self, argv):
        assert cli._read_argv(argv) is None

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_reader_reads_each_flag_in_both_forms(self, command):
        argv = [command]
        for setting in cli._SETTINGS:
            if setting.kind is cli._SWITCH and command in setting.commands:
                argv.append(setting.flag)
            elif setting.flag and command in setting.commands:
                value = PLAIN_VALUES[setting.kind][1]
                argv += [setting.flag, value, f"{setting.flag}={value}"]
        assert cli._read_argv(argv) == parsed(argv)
        assert cli._read_argv(["estimate", "a.csv"]) == parsed(["estimate", "a.csv"])

    @pytest.mark.parametrize("command", ["sweep", "simulate", "estimate", "mdi-estimate"])
    def test_help_lists_exactly_the_tables_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        options = capsys.readouterr().out.split("\noptions:\n")[1]
        assert re.findall(r"^  (-h, --help|--\S+)", options, re.M) == ["-h, --help"] + [
            s.flag for s in cli._SETTINGS if s.flag and command in s.commands]

    def test_usage_errors_and_help_text_pinned(self, monkeypatch):
        # the parser's own text, byte for byte, at 80 columns
        monkeypatch.setenv("COLUMNS", "80")
        assert usage_transcript() == (DATA / "usage.out").read_text()

    @pytest.mark.parametrize("command, flag", [(command, flag) for command in cli._FLAGS
                                               for flag in cli._FLAGS[command]])
    def test_dash_dash_as_a_flags_value_is_a_usage_error(self, capsys, command, flag):
        # Python 3.11's argparse drops the "--" of "--flag=--" and passes no value
        switch = cli._FLAGS[command][flag].kind is cli._SWITCH
        lines = [[command, f"{flag}=--"]] if switch else [[command, f"{flag}=--"], [command, flag]]
        for argv in lines:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2
        errors = capsys.readouterr().err.split("usage: ")[1:]
        if switch:  # a switch takes no value
            assert errors[0].endswith(f"error: argument {flag}: ignored explicit argument '--'\n")
        else:  # the same usage error as the flag without its value
            assert errors[0] == errors[1]

    def test_readme_lists_the_tables_options(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("Each command takes only the options it reads:\n\n")[1]
        items = re.findall(r"^- `([\w-]+)`(?: and `([\w-]+)`)?: (.*?)(?=^- |\n\n)", block,
                           re.M | re.S)
        listed = {command: re.findall(r"`(--[^`]+)`", text)
                  for *commands, text in items for command in commands if command}
        assert listed == {command: [" ".join(filter(None, (s.flag, s.metavar)))
                                    for s in cli._SETTINGS if s.flag and command in s.commands]
                          for command in ("sweep", "simulate", "estimate", "mdi-estimate")}


class TestEstimateCommand:
    def test_identity_table_zero_error(self, tmp_path, capsys):
        path = tmp_path / "yields.csv"
        write_yield_csv(path, identity_three_state_rows())
        assert cli.main(["estimate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "condition_number:" in out
        assert "e_x: 0" in out

    def test_depolarizing_half(self, tmp_path, capsys):
        w = 1.0 / 6.0
        rows = [
            [label, "x", s, repr(w * 0.5), repr(w)]
            for s in (0, 1) for label in ("0z", "1z", "0x")
        ]
        path = tmp_path / "depol.csv"
        write_yield_csv(path, rows)
        assert cli.main(["estimate", str(path)]) == 0
        assert "e_x: 0.5" in capsys.readouterr().out

    def test_collinear_sources_exit_two(self, tmp_path, capsys):
        w = 1.0 / 6.0
        rows = []
        for i, pz in enumerate((1.0, 0.5, 0.0)):
            for s in (0, 1):
                rows.append([f"c{i}", "x", s, repr(w * 0.4), repr(w), "0.0", "0.0", repr(pz)])
        path = tmp_path / "collinear.csv"
        write_yield_csv(path, rows, extra_cols=("px", "py", "pz"))
        assert cli.main(["estimate", str(path)]) == 2
        assert "ill-posed" in capsys.readouterr().err

    def test_rank_deficient_condition_number_printed(self, tmp_path, capsys):
        # the third source is nearly mixed, so the design's smallest singular
        # value is tiny but not zero; the printed ratio is its own smax / smin
        w = 1.0 / 6.0
        sources = (("a", "0.0", "1.0"), ("b", "0.0", "-1.0"), ("c", "1e-10", "0.0"))
        rows = [[label, "x", s, repr(w * 0.4), repr(w), px, "0.0", pz]
                for label, px, pz in sources for s in (0, 1)]
        path = tmp_path / "nearly_collinear.csv"
        write_yield_csv(path, rows, extra_cols=("px", "py", "pz"))
        assert cli.main(["estimate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert err == "error: sources are ill-posed (rank-deficient)\n"
        singular = np.linalg.svd(np.array([[1.0, 0.0, 1.0], [1.0, 0.0, -1.0], [1.0, 1e-10, 0.0]]),
                                 compute_uv=False)
        name, value = out.strip().split(": ")
        assert name == "condition_number"
        assert float(value) > 1e9
        assert abs(float(value) / (singular[0] / singular[-1]) - 1.0) <= 1e-6

    def test_huge_bloch_component_exits_one(self, tmp_path, capsys):
        w = 1.0 / 6.0
        sources = (("a", "0.0", "1.0"), ("b", "0.0", "-1.0"), ("c", "1e200", "0.0"))
        rows = [[label, "x", s, repr(w * 0.4), repr(w), px, "0.0", pz]
                for label, px, pz in sources for s in (0, 1)]
        path = tmp_path / "huge.csv"
        write_yield_csv(path, rows, extra_cols=("px", "py", "pz"))
        assert cli.main(["estimate", str(path)]) == 1
        assert capsys.readouterr().err == "error: Bloch vector lies outside the unit ball\n"

    def test_missing_entries_listed(self, tmp_path, capsys):
        rows = identity_three_state_rows()[:-1]  # drop one cell
        path = tmp_path / "partial.csv"
        write_yield_csv(path, rows)
        assert cli.main(["estimate", str(path)]) == 1
        assert "0x" in capsys.readouterr().err

    def test_four_state_table(self, tmp_path, capsys):
        # identity channel with ideal X measurement on the tetrahedral set
        w = 1.0 / 8.0
        conditionals = {
            (0, "0z"): 0.5, (0, "1z"): 0.5, (0, "0x"): 1.0, (0, "0y"): 0.5,
            (1, "0z"): 0.5, (1, "1z"): 0.5, (1, "0x"): 0.0, (1, "0y"): 0.5,
        }
        rows = [
            [label, "x", s, repr(w * value), repr(w)]
            for (s, label), value in conditionals.items()
        ]
        path = tmp_path / "four.csv"
        write_yield_csv(path, rows)
        assert cli.main(["estimate", str(path)]) == 0
        out = capsys.readouterr().out
        q_line = next(l for l in out.splitlines() if l.startswith("q[outcome=0]"))
        coeffs = dict(part.split("=") for part in q_line.split(": ")[1].split())
        assert set(coeffs) == {"id", "x", "y", "z"}
        assert abs(float(coeffs["id"]) - 0.5) <= 1e-10
        assert abs(float(coeffs["x"]) - 0.5) <= 1e-10
        assert abs(float(coeffs["y"])) <= 1e-10
        assert "e_x: 0" in out

    def test_no_z_pair_uses_the_perfect_x_ensemble(self, tmp_path, capsys):
        # without 0z and 1z the virtual states are the perfect |0x>, |1x>, and
        # their Z pair weight is two labels at the mean prior: 2 P(X) / len(sources)
        w = 1.0 / 6.0
        conditionals = {"0z": (0.5, 0.5), "0x": (0.9, 0.1), "1x": (0.1, 0.9)}
        rows = [[label, "x", s, repr(w * p[s]), repr(w)]
                for s in (0, 1) for label, p in conditionals.items()]
        path = tmp_path / "no_z_pair.csv"
        write_yield_csv(path, rows)
        assert cli.main(["estimate", str(path)]) == 0
        assert capsys.readouterr().out == (
            "condition_number: 2.4142135623730949\n"
            "q[outcome=0]: id=0.50000000000000011 x=0.40000000000000008 "
            "z=-2.1785500798489733e-16\n"
            "q[outcome=1]: id=0.50000000000000011 x=-0.40000000000000008 "
            "z=-2.1785500798489733e-16\n"
            "virtual_yield[outcome=0,0x]: 0.15000000000000002\n"
            "virtual_yield[outcome=1,0x]: 0.016666666666666691\n"
            "virtual_yield[outcome=0,1x]: 0.016666666666666691\n"
            "virtual_yield[outcome=1,1x]: 0.15000000000000002\n"
            "e_x: 0.10000000000000012\n")

    def test_no_z_pair_weighs_by_the_tables_x_probability(self, tmp_path, capsys):
        # the probability and prior columns times 0.6: P(X) = 0.3, so each virtual
        # yield scales by 0.6 while the functionals and the ratio stay
        w = 1.0 / 6.0
        conditionals = {"0z": (0.5, 0.5), "0x": (0.9, 0.1), "1x": (0.1, 0.9)}
        reports = []
        for scale in (1.0, 0.6):
            rows = [[label, "x", s, repr(scale * w * p[s]), repr(scale * w)]
                    for s in (0, 1) for label, p in conditionals.items()]
            path = tmp_path / f"no_z_pair_{scale}.csv"
            write_yield_csv(path, rows)
            assert cli.main(["estimate", str(path)]) == 0
            reports.append(dict(line.split(": ") for line in
                                capsys.readouterr().out.splitlines()))
        plain, scaled = reports
        virtual = [key for key in plain if key.startswith("virtual_yield")]
        assert len(virtual) == 4
        for key in virtual:
            assert float(scaled[key]) == pytest.approx(0.6 * float(plain[key]), rel=1e-12)
        for key in ("q[outcome=0]", "q[outcome=1]", "e_x"):
            assert scaled[key] == plain[key]

    def test_undefined_rate_exit_three(self, tmp_path, capsys):
        w = 1.0 / 6.0
        rows = [
            [label, "x", s, "0.0", repr(w)]
            for s in (0, 1) for label in ("0z", "1z", "0x")
        ]
        path = tmp_path / "silent.csv"
        write_yield_csv(path, rows)
        assert cli.main(["estimate", str(path)]) == 3


class TestCanonicalSourceTest:
    """The closed form applies only when each of ``0z, 1z, 0x`` equals its
    canonical state within 1e-12 absolute."""

    BLOCH = {"0z": (0.0, 1.0), "1z": (0.0, -1.0), "0x": (1.0, 0.0)}

    def estimate(self, tmp_path, px_0x):
        """The estimate report of exact yields through ``random_channel(3)`` and
        ``random_povm(4)`` from sources at ``BLOCH``, with ``0x`` at ``px_0x``,
        and the yield table and sources."""
        from qkdkit.montecarlo import exact_yields, random_channel, random_povm
        from qkdkit.qstate import BlochVector, SourceSet, bloch_to_density

        bloch = {**self.BLOCH, "0x": (px_0x, 0.0)}
        sources = SourceSet(tuple((label, bloch_to_density(BlochVector(1.0, px, 0.0, pz)), 1 / 3)
                                  for label, (px, pz) in bloch.items()))
        table = exact_yields(sources, random_channel(3), random_povm(4))
        rows = [[label, basis, s, repr(table.get(basis, s, label)),
                 repr(table.weight(basis, label)), repr(px), repr(pz)]
                for label, (px, pz) in bloch.items() for basis in ("x", "z") for s in (0, 1)]
        path = tmp_path / "near_canonical.csv"
        write_yield_csv(path, rows, extra_cols=("px", "pz"))
        rc, out, err, caught = run_cli(["estimate", str(path)])
        assert (rc, err, caught) == (0, "", [])
        return out, table, sources

    def test_near_canonical_test_state_takes_the_general_path(self, tmp_path):
        # px = 0.99999 is within NumPy's default rtol=1e-5 of |0x>; it used to
        # get the closed form's e_x, 0.49837631876516603
        from qkdkit.estimator import phase_error_virtual, solve_functionals
        from qkdkit.qstate import virtual_states_from_purification

        out, table, sources = self.estimate(tmp_path, 0.99999)
        ensemble = virtual_states_from_purification(sources.state("0z"), sources.state("1z"))
        expected = phase_error_virtual(*solve_functionals(table, sources), ensemble)
        e_x = float(out.splitlines()[-1].removeprefix("e_x: "))
        assert abs(e_x - expected) <= 1e-12

    def test_exactly_canonical_columns_keep_the_closed_form(self, tmp_path):
        # the columns give densities within 1e-12 of, but not identical to, the
        # canonical ones
        from qkdkit.estimator import phase_error_three_state

        out, table, sources = self.estimate(tmp_path, 1.0)
        assert not np.array_equal(sources.state("0x").density, basis_state("0x").density)
        assert out.splitlines()[-1] == f"e_x: {cli._format(phase_error_three_state(table))}"


def test_virtual_yields_carry_the_tables_own_basis_probability(tmp_path):
    # the prior column scaled by 0.6 sums to 0.3 per basis, so P(X) is 0.3 and
    # each virtual yield scales by 0.6; the rates and e_x do not move
    with open(DATA / "estimate_canonical.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    for row in rows:
        for column in ("probability", "prior"):
            row[column] = repr(float(row[column]) * 0.6)
    path = tmp_path / "scaled.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    rc, out, err, _ = run_cli(["estimate", str(path)])
    assert (rc, err) == (0, "")
    pinned = (DATA / "estimate_canonical.out").read_text().splitlines()
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [line.split(":")[0] for line in pinned]
    for line, original in zip(lines, pinned):
        key, _, text = line.partition(": ")
        values = [float(part.rpartition("=")[2]) for part in text.split()]
        expected = [float(part.rpartition("=")[2]) for part in original.partition(": ")[2].split()]
        scale = 0.6 if key.startswith("virtual_yield") else 1.0
        for value, reference in zip(values, expected):
            assert abs(value - scale * reference) <= 1e-12 * abs(scale * reference), line


class TestSimulateCommand:
    def test_report_and_counts(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        argv = [
            "simulate", "--pulses", "20000", "--seed", "11",
            "--delta", "0.126", "--distance", "50:50:1", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        report = capsys.readouterr().out
        for field in ("e_x_estimate:", "std_err:", "e_x_analytic:", "z_score:"):
            assert field in report
        lines = out.read_text().splitlines()
        assert lines[0] == "label,basis,outcome,count"
        counts = sum(int(line.split(",")[3]) for line in lines[1:])
        assert counts == 20000

    def test_same_seed_identical_counts(self, tmp_path):
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            cli.main(
                ["simulate", "--pulses", "5000", "--seed", "3", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_failed_rename_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise OSError(f"cannot rename to {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "counts.csv"
        assert cli.main(["simulate", "--pulses", "100", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: cannot rename to {out}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("offset, z_score", [(0.0, "0"), (0.01, "inf")])
    def test_zero_std_err_z_score(self, monkeypatch, capsys, offset, z_score):
        # an estimate without spread reads 0 on the analytic value and inf off it
        argv = ["simulate", "--pulses", "2000", "--seed", "5", "--distance", "50:50:1"]
        assert cli.main(argv) == 0
        report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        e_x = float(report["e_x_analytic"]) + offset
        monkeypatch.setattr(montecarlo, "estimate_from_trial",
                            lambda trial, sources: montecarlo.TrialEstimate(e_x=e_x, std_err=0.0))
        assert cli.main(argv) == 0
        report = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert (report["std_err"], report["e_x_estimate"]) == ("0", format(e_x, ".17g"))
        assert report["z_score"] == z_score

    def test_zero_pulses_rejected(self, capsys):
        assert cli.main(["simulate", "--pulses", "0"]) == 1
        assert "pulses" in capsys.readouterr().err

    def test_zero_pulses_rejected_by_the_sampler(self, capsys):
        assert cli.main(["simulate", "--pulses", "0"]) == 1
        assert capsys.readouterr().err == "error: n_pulses must be in [1, 2**63 - 1], got 0\n"

    def test_empty_delta_list_rejected(self, tmp_path, capsys):
        # "delta =" in a config file is an empty list, not delta 0
        config = tmp_path / "run.cfg"
        config.write_text("delta =\n")
        assert cli.main(["simulate", "--pulses", "10", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: invalid field delta")

    def test_repeated_delta_rejected(self, capsys):
        argv = ["simulate", "--pulses", "10", "--delta", "0.1", "--delta", "0.5"]
        assert cli.main(argv) == 1
        assert capsys.readouterr() == (
            "", "error: invalid field delta: simulate takes one delta, got 2\n")

    def test_config_delta_list_rejected(self, tmp_path, capsys):
        # the sweep's three defaults, given explicitly, are a list too
        config = tmp_path / "run.cfg"
        config.write_text("delta = 0.0, 0.063, 0.126\n")
        assert cli.main(["simulate", "--pulses", "10", "--config", str(config)]) == 1
        assert capsys.readouterr() == (
            "", "error: invalid field delta: simulate takes one delta, got 3\n")

    def test_no_delta_runs_the_first_default(self, capsys):
        argv = ["simulate", "--pulses", "1000", "--seed", "5"]
        assert cli.main(argv) == 0
        default = capsys.readouterr()
        assert cli.main(argv + ["--delta", "0.0"]) == 0
        assert capsys.readouterr() == default
        assert cli.main(argv + ["--delta", "0.063"]) == 0
        assert capsys.readouterr().out != default.out

    @pytest.mark.parametrize("line", ["alpha = 0", "alpha = -1", "alpha = nan", "alpha = 0.9",
                                      "f_ec = 0.5", "alpha_min = 2", "alpha_max = inf",
                                      "alpha_tol = nan"])
    def test_config_alpha_is_ignored(self, tmp_path, capsys, line):
        # alpha and the key-rate keys are sweep keys; simulate's experiment has
        # no intensity and no key rate, so values sweep refuses change nothing
        argv = ["simulate", "--pulses", "1000"]
        assert cli.main(argv) == 0
        default = capsys.readouterr()
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert cli.main(argv + ["--config", str(config)]) == 0
        assert capsys.readouterr() == default

    @pytest.mark.parametrize("line, message", [
        ("alpha = x", "invalid field alpha: cannot parse 'x'"),
        ("det_eff = 0", "det_eff must be in (0, 1], got 0.0"),
        ("speed = 1", "unknown config field 'speed'"),
    ])
    def test_config_errors_still_fail(self, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(line + "\n")
        assert cli.main(["simulate", "--pulses", "1000", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_negative_seed_rejected(self, capsys):
        # the sampler's rule and message: the config does not restate it
        assert cli.main(["simulate", "--seed", "-1", "--pulses", "10"]) == 1
        assert capsys.readouterr() == ("", "error: seed must be a non-negative integer, got -1\n")

    def test_pulses_beyond_int64_rejected(self, capsys):
        # the multinomial draw would raise a raw OverflowError at 2**63
        assert cli.main(["simulate", "--pulses", str(2**63)]) == 1
        assert capsys.readouterr() == (
            "", "error: n_pulses must be in [1, 2**63 - 1], got 9223372036854775808\n")

    def test_negative_pulses_rejected(self, capsys):
        assert cli.main(["simulate", "--pulses", "-1"]) == 1
        assert capsys.readouterr() == ("", "error: n_pulses must be in [1, 2**63 - 1], got -1\n")

    def test_first_bad_value_read_is_reported(self, capsys):
        # the sampler reads the pulse count before the seed
        assert cli.main(["simulate", "--seed", "-1", "--pulses", "-1"]) == 1
        assert capsys.readouterr().err == "error: n_pulses must be in [1, 2**63 - 1], got -1\n"

    def test_million_pulse_z_score_within_five(self, capsys):
        argv = ["simulate", "--pulses", "1000000", "--seed", "42",
                "--delta", "0.0", "--distance", "50:50:1"]
        assert cli.main(argv) == 0
        report = capsys.readouterr().out
        z_line = next(l for l in report.splitlines() if l.startswith("z_score"))
        assert abs(float(z_line.split(":")[1])) <= 5.0

    def test_counts_round_trip_through_estimate(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        argv = [
            "simulate", "--pulses", "50000", "--seed", "4",
            "--delta", "0.126", "--distance", "10:10:1", "--out", str(out),
        ]
        assert cli.main(argv) == 0
        simulate_report = capsys.readouterr().out
        assert cli.main(["estimate", str(out)]) == 0
        estimate_report = capsys.readouterr().out
        assert "std_err:" in estimate_report

        def field(report, name):
            line = next(l for l in report.splitlines() if l.startswith(name))
            return float(line.split(":")[1])

        assert field(simulate_report, "e_x_estimate") == field(estimate_report, "e_x_estimate")
        assert field(simulate_report, "std_err") == field(estimate_report, "std_err")


class TestMdiEstimateCommand:
    @staticmethod
    def bell_rows(gamma=0.5):
        vec = np.array([1, 0, 0, 1]) / math.sqrt(2)
        bell = np.outer(vec, vec.conj())
        rows = []
        for a in ("0z", "1z", "0x"):
            for b in ("0z", "1z", "0x"):
                prior = gamma / 9.0 if a.endswith("z") and b.endswith("z") else 1.0 / 9.0
                product = np.kron(basis_state(a).density, basis_state(b).density)
                value = prior * float(np.trace(bell @ product).real)
                rows.append([a, b, repr(value), repr(prior)])
        return rows

    def test_honest_relay_zero_error(self, tmp_path, capsys):
        path = tmp_path / "pairs.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["label_a", "label_b", "probability", "prior"])
            writer.writerows(self.bell_rows())
        assert cli.main(["mdi-estimate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "q[id,id]:" in out
        e_x = float(out.strip().splitlines()[-1].split(":")[1])
        assert abs(e_x) <= 1e-12

    def test_inconsistent_priors_rejected(self, tmp_path, capsys):
        rows = self.bell_rows()
        rows[0][3] = repr(0.9 / 9.0)  # one Z-Z prior off
        path = tmp_path / "bad.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["label_a", "label_b", "probability", "prior"])
            writer.writerows(rows)
        assert cli.main(["mdi-estimate", str(path)]) == 1
        assert "prior" in capsys.readouterr().err

    def test_unphysical_product_yield_exits_one(self, tmp_path, capsys):
        # every sent pair's yield is in [0, 1], but |0x>|1x> would get 0.2 - 0.5
        sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
        operator = 0.2 * np.eye(4) + 0.5 * np.kron(sigma_x, sigma_x)
        rows = []
        for a in ("0z", "1z", "0x"):
            for b in ("0z", "1z", "0x"):
                prior = 0.5 / 9.0 if a.endswith("z") and b.endswith("z") else 1.0 / 9.0
                product = np.kron(basis_state(a).density, basis_state(b).density)
                value = prior * float(np.trace(operator @ product).real)
                rows.append([a, b, repr(value), repr(prior)])
        path = tmp_path / "unphysical.csv"
        write_csv(path, PAIR_HEADER, rows)
        assert cli.main(["mdi-estimate", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "unphysical product yields" in captured.err

    def test_party_of_four_labels_exits_one(self, tmp_path, capsys):
        rows = self.bell_rows() + [[a, "1x", "0.01", repr(1.0 / 9.0)] for a in ("0z", "1z", "0x")]
        path = tmp_path / "four.csv"
        write_csv(path, PAIR_HEADER, rows)
        assert cli.main(["mdi-estimate", str(path)]) == 1
        assert capsys.readouterr().err == "error: each party needs exactly 3 source states\n"


class TestErrorNumbers:
    """Numbers in ``error:`` lines print as Python floats, not NumPy reprs."""

    def test_identity_identity_rate(self, tmp_path, capsys):
        rows = [row[:2] + ["5.0", row[3]] for row in TestMdiEstimateCommand.bell_rows()]
        path = tmp_path / "fives.csv"
        write_csv(path, PAIR_HEADER, rows)
        assert cli.main(["mdi-estimate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: identity-identity rate 90.0 outside [0, 1]\n"

    def test_identity_transmission_rate(self, tmp_path, capsys):
        # outcome 0 of every source slightly above its prior weight, within the
        # reader's slack of 1e-2
        w = 1.0 / 6.0
        rows = [[label, "x", s, repr(w + 0.009 if s == 0 else 0.0), repr(w)]
                for label in ("0z", "1z", "0x") for s in (0, 1)]
        path = tmp_path / "above.csv"
        write_yield_csv(path, rows)
        assert cli.main(["estimate", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: identity transmission rate 1.0540000000000003 outside [0, 1]\n"

    @settings(max_examples=60, deadline=2000)
    @given(kind=st.sampled_from(["yield", "yield_px", "pairs"]),
           value=st.sampled_from(["5.0", "0.5", "0.2", "1e-3", "0.0", "-1e-3", "0.1666"]),
           cells=st.lists(st.integers(0, 20), min_size=1, max_size=6))
    def test_no_numpy_repr_in_stderr(self, kind, value, cells):
        command, header, rows = valid_inputs()[kind]
        rows = [list(r) for r in rows]
        column = header.index("probability")
        for cell in cells:
            rows[cell % len(rows)][column] = value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.csv")
            write_csv(path, header, rows)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                cli.main([command, path])
        assert "np." not in err.getvalue()


# (command, input, pinned stdout); inputs and outputs live in tests/data
PINNED_STDOUT = [
    ("estimate", "estimate_canonical.csv", "estimate_canonical.out"),
    ("estimate", "estimate_planar.csv", "estimate_planar.out"),
    ("estimate", "estimate_four_state.csv", "estimate_four_state.out"),
    ("mdi-estimate", "mdi_relay.csv", "mdi_relay.out"),
    ("mdi-estimate", "mdi_relay_mixed_labels.csv", "mdi_relay_mixed_labels.out"),
    ("estimate", "simulate_counts.csv", "simulate_counts.estimate.out"),
]
PINNED_SIMULATE = ["simulate", "--pulses", "1000000", "--seed", "7",
                   "--delta", "0.5", "--distance", "5:5:1"]


class TestPinnedStdout:
    """Estimator and simulator output pinned byte for byte.

    The single-party tables are ``exact_yields`` of the canonical three-state
    sources, of partly mixed modulated sources (``px,pz`` columns) and of
    perturbed mixed four-state sources (``px,py,pz`` columns) through
    ``random_channel(k)`` and ``random_povm(k)``, k = 3, 4, 5.  The relay
    tables project on Phi+ after ``random_channel(6)`` and
    ``random_channel(7)`` with gamma 0.4: in one both parties send
    ``0z, 1z, 0x``, in the other party B sends ``0z, 1z, 1x``.  The counts
    CSV is the output of ``PINNED_SIMULATE``.
    """

    @pytest.mark.parametrize("command, name, expected", PINNED_STDOUT)
    def test_stdout(self, command, name, expected, capsys):
        assert cli.main([command, str(DATA / name)]) == 0
        assert capsys.readouterr().out == (DATA / expected).read_text()

    @pytest.mark.parametrize("command, name, expected", PINNED_STDOUT)
    def test_byte_order_mark_before_the_header_is_read_past(self, command, name, expected,
                                                             tmp_path, capsys):
        # spreadsheet exports often write a UTF-8 byte-order mark before the header
        path = tmp_path / name
        path.write_bytes(b"\xef\xbb\xbf" + (DATA / name).read_bytes())
        assert cli.main([command, str(path)]) == 0
        assert capsys.readouterr().out == (DATA / expected).read_text()

    def test_simulate_counts_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        assert cli.main(PINNED_SIMULATE + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == (DATA / "simulate_counts.out").read_text()
        assert out.read_bytes() == (DATA / "simulate_counts.csv").read_bytes()


COLD_START = """
import contextlib, io, json, os, sys, tempfile
import qkdkit, qkdkit.cli
data = sys.argv[1]
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
    codes = [qkdkit.cli.main(["estimate", os.path.join(data, "estimate_canonical.csv")]),
             qkdkit.cli.main(["mdi-estimate", os.path.join(data, "mdi_relay.csv")]),
             qkdkit.cli.main(["simulate", "--pulses", "1000", "--out", os.path.join(tmp, "c.csv")])]
loaded = "scipy" in sys.modules
qkdkit.sweep([0.0], [0.0], qkdkit.ChannelParams())
print(json.dumps([codes, loaded, "scipy" in sys.modules]))
"""


def fresh_process(code, *args):
    """The JSON printed by ``code`` run with ``args`` in a fresh interpreter
    that imports qkdkit from this checkout's ``src``."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_scipy_stays_out_of_cold_start():
    # importing SciPy was most of a fresh process's start-up; no command loads it,
    # the sweep's entropy included
    assert fresh_process(COLD_START, str(DATA)) == [[0, 0, 0], False, False]


COMMAND_MODULES = """
import contextlib, io, json, sys
import qkdkit
loaded = sorted(name for name in sys.modules if name.startswith("qkdkit."))
import qkdkit.cli
with contextlib.redirect_stdout(io.StringIO()):
    rc = qkdkit.cli.main()  # as the console script calls it: the line is sys.argv[1:]
print(json.dumps([loaded, rc, sorted(name for name in sys.modules if name.startswith("qkdkit.")),
                  "argparse" in sys.modules]))
"""
# the modules of the estimator alone: every command loads at least these
ESTIMATOR_MODULES = ["qkdkit.cli", "qkdkit.errors", "qkdkit.estimator", "qkdkit.qstate"]


@pytest.mark.parametrize("argv, extra", [
    (["estimate", "{data}/estimate_planar.csv"], []),
    (["estimate", "{data}/simulate_counts.csv"], ["qkdkit.channel", "qkdkit.montecarlo"]),
    (["mdi-estimate", "{data}/mdi_relay.csv"], []),
    (["simulate", "--pulses", "1000"], ["qkdkit.channel", "qkdkit.montecarlo"]),
    (["sweep", "--distance", "0:10:5", "--out", "{tmp}/x.csv"], ["qkdkit.channel", "qkdkit.keyrate"]),
], ids=["estimate-yields", "estimate-counts", "mdi-estimate", "simulate", "sweep"])
def test_each_command_loads_only_its_modules(tmp_path, argv, extra):
    # one fresh process per command: `import qkdkit` alone loads no module,
    # and a command loads only the modules it runs; the reader reads a plain
    # line without argparse
    argv = [arg.format(data=DATA, tmp=tmp_path) for arg in argv]
    assert fresh_process(COMMAND_MODULES, *argv) == [
        [], 0, sorted(ESTIMATOR_MODULES + extra), False]


PARSER_TEXT = """
import contextlib, io, json, os, sys
os.environ["COLUMNS"] = "80"
import qkdkit.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        qkdkit.cli.main()
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, out.getvalue(), err.getvalue(), "argparse" in sys.modules]))
"""


@pytest.mark.parametrize("argv, code, out, err", [
    (["estimate"], 2, "", "usage: qkdkit estimate [-h] yields\n"
     "qkdkit estimate: error: the following arguments are required: yields\n"),
    (["mdi-estimate", "--help"], 0, "usage: qkdkit mdi-estimate [-h] yields\n\n"
     "positional arguments:\n  yields      input yield CSV\n\n"
     "options:\n  -h, --help  show this help message and exit\n", ""),
], ids=["usage-error", "help"])
def test_parser_reports_what_the_reader_declines(argv, code, out, err):
    # a fresh process loads argparse for a line the reader declines, and prints its text
    assert fresh_process(PARSER_TEXT, *argv) == [code, out, err, True]


class TestFixedObjectsBuiltOnce:
    """SVD, 2x2 eigenvalue and ``eigh`` calls per call on the pinned inputs.

    The canonical states, their Bloch vectors, the perfect virtual ensemble
    and the purified ensemble of the canonical Z pair are built once per
    process, and an ``estimate`` factorizes its sources once for both
    outcomes after one well-posedness check.  The relay's only SVDs are its
    parties' well-posedness checks, and a source set shared by both parties
    is checked once, so the relay table whose parties send the same labels
    makes one SVD and the other two.  The eigenvalue tests
    (``qstate._eigvalsh_2x2``) left are the state checks of the Bloch-column
    sources and of the purified virtual states, which differ per input; a Z
    pair from Bloch columns is purified with one ``eigh``.  No check calls
    ``np.linalg.eigvalsh``.  A change that rebuilds a fixed object on every
    call changes these counts.
    """

    # (svd, 2x2 eigenvalue test, eigh) calls of one call on each pinned input
    CALLS = {"estimate_canonical.csv": (2, 0, 0), "estimate_planar.csv": (2, 5, 1),
             "estimate_four_state.csv": (2, 6, 1), "mdi_relay.csv": (1, 0, 0),
             "mdi_relay_mixed_labels.csv": (2, 0, 0), "simulate_counts.csv": (0, 0, 0)}

    @staticmethod
    def counted_calls(monkeypatch):
        """A counter of the SVD, ``eigvalsh``, ``eigh`` and 2x2 eigenvalue-test
        calls made from now on, keyed by function name."""
        counts = Counter()

        def counting(fn):
            def counted(*args, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            return counted

        for fn in (np.linalg.svd, np.linalg.eigvalsh, np.linalg.eigh):
            monkeypatch.setattr(np.linalg, fn.__name__, counting(fn))
        helper = counting(qstate._eigvalsh_2x2)
        for module in (qstate, montecarlo):  # each module that binds the test
            monkeypatch.setattr(module, "_eigvalsh_2x2", helper)
        return counts

    @staticmethod
    def calls(counts):
        """``(svd, 2x2 eigenvalue test, eigh)`` of ``counts``, after checking that no
        ``eigvalsh`` call was made."""
        assert counts["eigvalsh"] == 0
        return counts["svd"], counts["_eigvalsh_2x2"], counts["eigh"]

    @pytest.mark.parametrize("command, name, expected", PINNED_STDOUT)
    def test_linear_algebra_calls(self, monkeypatch, capsys, command, name, expected):
        argv = [command, str(DATA / name)]
        assert cli.main(argv) == 0  # builds what is built once per process
        counts = self.counted_calls(monkeypatch)
        for _ in range(2):
            counts.clear()
            assert cli.main(argv) == 0
            assert self.calls(counts) == self.CALLS[name]
        assert capsys.readouterr().out == (DATA / expected).read_text() * 3

    SIMULATE = ["simulate", "--pulses", "1000", "--delta", "0.3", "--distance", "5:5:1"]

    def test_simulate_linear_algebra_calls(self, monkeypatch, capsys):
        # the channel's completeness check and one PSD check per POVM element
        assert cli.main(self.SIMULATE) == 0
        counts = self.counted_calls(monkeypatch)
        for _ in range(2):
            counts.clear()
            assert cli.main(self.SIMULATE) == 0
            assert self.calls(counts) == (0, 6, 0)
        out = capsys.readouterr().out
        assert out == out[:len(out) // 3] * 3

    def test_simulate_builds_its_fixed_objects_once(self, monkeypatch, capsys):
        # the sources and the dark-count mixer are shared, and the transmittance
        # is computed once for the channel and the analytic rate alike
        assert cli.main(self.SIMULATE) == 0
        counts = Counter()
        for cls in (montecarlo.OutcomeMixer, qstate.SourceSet):
            def counted(obj, post_init=cls.__post_init__, name=cls.__name__):
                counts[name] += 1
                post_init(obj)
            monkeypatch.setattr(cls, "__post_init__", counted)

        def counted_transmittance(*args, transmittance=channel.transmittance, **kwargs):
            counts["transmittance"] += 1
            return transmittance(*args, **kwargs)

        for module in (channel, montecarlo):  # each module that binds it
            monkeypatch.setattr(module, "transmittance", counted_transmittance)
        for _ in range(2):
            counts.clear()
            assert cli.main(self.SIMULATE) == 0
            assert counts == {"transmittance": 1}
        out = capsys.readouterr().out
        assert out == out[:len(out) // 3] * 3


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


YIELD_HEADER = ["label", "basis", "outcome", "probability", "prior"]
PAIR_HEADER = ["label_a", "label_b", "probability", "prior"]
CANONICAL_BLOCH = {"0z": ["0.0", "0.0", "1.0"], "1z": ["0.0", "0.0", "-1.0"],
                   "0x": ["1.0", "0.0", "0.0"]}


def valid_inputs():
    """(command, header, rows) of one valid input of each CSV kind."""
    yields = identity_three_state_rows()
    with open(DATA / "simulate_counts.csv", newline="") as handle:
        counts = list(csv.reader(handle))
    return {
        "yield": ("estimate", YIELD_HEADER, yields),
        "yield_px": ("estimate", YIELD_HEADER + ["px", "py", "pz"],
                     [row + CANONICAL_BLOCH[row[0]] for row in yields]),
        "counts": ("estimate", counts[0], counts[1:]),
        "pairs": ("mdi-estimate", PAIR_HEADER, TestMdiEstimateCommand.bell_rows()),
    }


YIELD_ROW = ["0z", "x", "0", "0.05", repr(1 / 6)]
COUNTS_HEADER = ["label", "basis", "outcome", "count"]


class TestEveryInputRejection:
    """Each rejection of a config file or CSV table that its own row cannot show:
    exit 1 and the exact ``error:`` line."""

    @pytest.mark.parametrize("command, header, rows, message", [
        ("estimate", COUNTS_HEADER, [["0z", "x", "0", "5"], ["0z", "x", "0", "6"]],
         "duplicate counts row ('0z', 'x', 0)"),
        ("estimate", COUNTS_HEADER, [], "no count rows found"),
        ("estimate", YIELD_HEADER, [YIELD_ROW, YIELD_ROW], "duplicate cell ('x', 0, '0z')"),
        ("estimate", YIELD_HEADER, [YIELD_ROW, ["0z", "x", "1", "0.05", "0.2"]],
         "inconsistent priors for label '0z'"),
        ("estimate", YIELD_HEADER, [], "no yield rows found"),
        ("estimate", YIELD_HEADER,
         [[label, "x", "0", "0.1", "0.5"] for label in THREE_STATE_LABELS],
         "prior column sums to 1.5 per basis"),
        ("mdi-estimate", PAIR_HEADER, [*TestMdiEstimateCommand.bell_rows()[:2],
                                       TestMdiEstimateCommand.bell_rows()[0]],
         "duplicate pair ('0z', '0z')"),
        ("mdi-estimate", PAIR_HEADER, [row for row in TestMdiEstimateCommand.bell_rows()
                                       if "0x" in row[:2]], "no Z-Z pair rows found"),
    ], ids=["duplicate-count", "no-counts", "duplicate-cell", "inconsistent-priors",
            "no-yields", "prior-sum", "duplicate-pair", "no-z-pair"])
    def test_table_rejected(self, tmp_path, capsys, command, header, rows, message):
        path = tmp_path / "table.csv"
        write_csv(path, header, rows)
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("kind, drop, repeat, message", [
        ("yield_px", "px", None, "yield CSV has a py column but no px column"),
        ("yield", None, "label", "yield CSV names column 'label' twice"),
        ("yield_px", None, "pz", "yield CSV names column 'pz' twice"),
        ("counts", None, "count", "counts CSV names column 'count' twice"),
        ("pairs", None, "prior", "pair-yield CSV names column 'prior' twice"),
    ], ids=["py-without-px", "label-twice", "pz-twice", "count-twice", "prior-twice"])
    def test_header_rejected(self, tmp_path, capsys, kind, drop, repeat, message):
        # each file reads as valid once the dropped or repeated column is undone
        command, header, rows = valid_inputs()[kind]
        columns = [column for column in zip(header, *rows) if column[0] != drop]
        columns += [column for column in columns if column[0] == repeat]
        header, *rows = zip(*columns)
        path = tmp_path / "table.csv"
        write_csv(path, header, rows)
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_planar_table_without_px_rejected(self, tmp_path, capsys):
        # read on the canonical states, this file gave e_x 0.67214642085742715
        with open(DATA / "estimate_planar.csv", newline="") as handle:
            header, *rows = list(csv.reader(handle))
        keep = [i for i, column in enumerate(header) if column != "px"]
        path = tmp_path / "planar.csv"
        write_csv(path, [header[i] for i in keep], [[row[i] for i in keep] for row in rows])
        assert cli.main(["estimate", str(path)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {path}: yield CSV has a pz column but no px column\n")

    @pytest.mark.parametrize("header, message", [
        ("Px", "yield CSV column 'Px' must be spelled 'px'"),
        ("PX", "yield CSV column 'PX' must be spelled 'px'"),
        (" px", "yield CSV column ' px' must be spelled 'px'"),
    ])
    def test_misspelled_px_rejected(self, tmp_path, capsys, header, message):
        # with pz dropped, this file was read on the canonical states: e_x 0.67214642085742715
        with open(DATA / "estimate_planar.csv", newline="") as handle:
            head, *rows = list(csv.reader(handle))
        keep = [i for i, column in enumerate(head) if column != "pz"]
        path = tmp_path / "planar.csv"
        write_csv(path, [header if head[i] == "px" else head[i] for i in keep],
                  [[row[i] for i in keep] for row in rows])
        assert cli.main(["estimate", str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    @pytest.mark.parametrize("kind, extra, message", [
        ("counts", "Count", "counts CSV column 'Count' must be spelled 'count'"),
        ("yield", "Label ", "yield CSV column 'Label ' must be spelled 'label'"),
        ("yield_px", "PY", "yield CSV column 'PY' must be spelled 'py'"),
        ("pairs", "PRIOR", "pair-yield CSV column 'PRIOR' must be spelled 'prior'"),
    ])
    def test_misspelled_extra_column_rejected(self, tmp_path, capsys, kind, extra, message):
        # beside the column it misspells, the extra column was ignored
        command, header, rows = valid_inputs()[kind]
        path = tmp_path / "table.csv"
        write_csv(path, [*header, extra], [[*row, "0"] for row in rows])
        assert cli.main([command, str(path)]) == 1
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")

    def test_unknown_column_ignored(self, tmp_path, capsys):
        command, header, rows = valid_inputs()["yield_px"]
        plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
        write_csv(plain, header, rows)
        write_csv(noted, [*header, "note", "p_x"], [[*row, "x", "0.5"] for row in rows])
        assert cli.main([command, str(plain)]) == 0
        expected = capsys.readouterr()
        assert cli.main([command, str(noted)]) == 0
        assert capsys.readouterr() == expected

    def test_blank_header_cells_name_no_column(self, tmp_path, capsys):
        # trailing commas give blank header cells, which may repeat
        command, header, rows = valid_inputs()["yield"]
        plain, padded = tmp_path / "plain.csv", tmp_path / "padded.csv"
        write_csv(plain, header, rows)
        write_csv(padded, header + ["", ""], [row + ["", ""] for row in rows])
        assert cli.main([command, str(plain)]) == 0
        expected = capsys.readouterr()
        assert cli.main([command, str(padded)]) == 0
        assert capsys.readouterr() == expected

    def test_config_line_without_equals_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("# seeds\nseed 3\n")
        assert cli.main(["simulate", "--pulses", "10", "--config", str(config)]) == 1
        assert capsys.readouterr() == ("", f"error: {config}:2: expected 'key = value'\n")

    def test_config_out_key_names_the_output(self, tmp_path):
        # the config file's out, as --out; a flag overrides it
        argv = ["sweep", "--delta", "0.126", "--distance", "0:20:10"]
        by_flag, by_config, config = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "run.cfg"
        config.write_text(f"out = {by_config}\n")
        assert cli.main(argv + ["--out", str(by_flag)]) == 0
        assert cli.main(argv + ["--config", str(config)]) == 0
        assert by_config.read_bytes() == by_flag.read_bytes()
        by_config.unlink()
        assert cli.main(argv + ["--config", str(config), "--out", str(by_flag)]) == 0
        assert not by_config.exists()


class TestMalformedCells:
    """A bad cell ends in an ``error:`` line naming its row and column."""

    @pytest.mark.parametrize("kind, row, column, text, message", [
        ("yield", 0, 2, "zero", "row 2: column outcome: cannot parse 'zero'"),
        ("counts", 0, 3, "ten", "row 2: column count: cannot parse 'ten'"),
        ("yield", 1, 3, None, "row 3: column probability is missing"),
        ("yield_px", 0, 5, "oops", "row 2: column px: cannot parse 'oops'"),
        ("pairs", 4, 2, "abc", "row 6: column probability: cannot parse 'abc'"),
        ("pairs", 2, 3, "nan", "row 4: column prior must be finite"),  # an X pair
        ("pairs", 0, 3, "nan", "row 2: column prior must be finite"),  # first Z-Z pair
        ("yield", 0, 3, "inf", "row 2: column probability must be finite"),
        # the first rows of labels 1z and 0z, then a later row of 0z
        ("yield_px", 1, 5, "oops", "row 3: column px: cannot parse 'oops'"),
        ("yield_px", 3, 5, "oops", "row 5: column px: cannot parse 'oops'"),
        ("yield_px", 3, 7, "nan", "row 5: column pz must be finite"),
        ("yield_px", 3, 5, "0.5", "inconsistent Bloch columns for label '0z'"),
        ("yield_px", 3, 5, "", "inconsistent Bloch columns for label '0z'"),
        ("yield_px", 0, 5, "", "inconsistent Bloch columns for label '0z'"),
    ])
    def test_bad_cell_exits_one(self, tmp_path, capsys, kind, row, column, text, message):
        command, header, rows = valid_inputs()[kind]
        rows = [list(r) for r in rows]
        if text is None:  # a short row
            del rows[row][column:]
        else:
            rows[row][column] = text
        path = tmp_path / "bad.csv"
        write_csv(path, header, rows)
        assert cli.main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"bad.csv: {message}" in err

    @pytest.mark.parametrize("row, column, text", [(3, 5, "1e-12"), (3, 7, "0.999999999999")])
    def test_bloch_columns_agree_within_tolerance(self, tmp_path, capsys, row, column, text):
        # a later row may differ from its label's first row by up to 1e-12; the
        # state is the first row's
        command, header, rows = valid_inputs()["yield_px"]
        path = tmp_path / "ok.csv"
        write_csv(path, header, rows)
        assert cli.main([command, str(path)]) == 0
        expected = capsys.readouterr()
        rows[row][column] = text
        write_csv(path, header, rows)
        assert cli.main([command, str(path)]) == 0
        assert capsys.readouterr() == expected

    def test_spaced_count_column_read_as_counts(self, tmp_path, capsys):
        # a header naming " count " makes a counts file, whose columns must match exactly
        path = tmp_path / "spaced.csv"
        path.write_text("label,basis,outcome, count \n0z,x,0,5\n")
        assert cli.main(["estimate", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: counts CSV must have columns "
            "['label', 'basis', 'outcome', 'count']\n")

    def test_undecodable_bytes_exit_one(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"label,basis,outcome,probability,prior\n0z,x,0,0.1\xff,0.1\n")
        assert cli.main(["estimate", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    @settings(max_examples=200, deadline=2000)
    @given(
        kind=st.sampled_from(["yield", "yield_px", "counts", "pairs"]),
        row=st.integers(0, 20),
        column=st.integers(0, 7),
        text=st.one_of(
            st.sampled_from(["", " ", "nan", "-inf", "1e400", "-1", "0", "1", "2", "0.5",
                             "1e-320", "9" * 40, "zero", "f", "0y", "1x"]),
            st.text(st.characters(blacklist_categories=("Cs",)), max_size=6),
        ),
        truncate=st.booleans(),
    )
    def test_malformed_cell_never_escapes(self, kind, row, column, text, truncate):
        command, header, rows = valid_inputs()[kind]
        rows = [list(r) for r in rows]
        target = rows[row % len(rows)]
        if truncate:
            del target[column % len(target):]
        else:
            target[column % len(target)] = text
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "input.csv")
            write_csv(path, header, rows)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main([command, path])
        assert rc in (0, 1, 2, 3)
        assert (rc == 0) == (err.getvalue() == "")
        if rc:
            assert err.getvalue().startswith("error:")
