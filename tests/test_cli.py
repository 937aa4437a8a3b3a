import contextlib
import csv
import io
import math
import os
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdkit import cli
from qkdkit.qstate import basis_state

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
        config = cli.RunConfig()
        assert config.dark_count == 0.5e-7
        assert config.det_eff == 0.15
        assert config.atten_db_per_km == 0.21
        assert config.f_ec == 1.22
        assert config.delta == (0.0, 0.063, 0.126)

    def test_file_parsing_and_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            "delta = 0.1 0.2\n"
            "distance = 0:20:10\n"
            "seed = 7\n"
            "f_ec = 1.5  # trailing comment\n"
        )
        args = cli.build_parser().parse_args(
            ["simulate", "--config", str(path), "--seed", "9", "--out", "x.csv"]
        )
        config = cli._config_from_args(args)
        assert config.delta == (0.1, 0.2)
        assert config.distances() == [0.0, 10.0, 20.0]
        assert config.seed == 9  # flag overrides file
        assert config.f_ec == 1.5

    def test_unknown_field_named(self, tmp_path):
        # protocol and gamma were config fields that nothing read
        for name in ("not_a_field", "protocol", "gamma"):
            path = tmp_path / "bad.cfg"
            path.write_text(f"{name} = 3\n")
            with pytest.raises(cli.ValidationError, match=f"unknown config field '{name}'"):
                cli.load_config_file(str(path))

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

    def test_golden_default_optimized_sweep(self, tmp_path):
        # the bytes of the default optimized sweep (3 deltas x 31 distances)
        # guard the intensity optimizer as well as the channel model
        out = tmp_path / "default.csv"
        assert cli.main(["sweep", "--out", str(out)]) == 0
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


class TestParserReuse:
    def test_mixed_commands_match_fresh_parser(self, tmp_path, capsys):
        # one cached parser serves every call; each call prints and writes what
        # a freshly built parser gives, and no --delta list leaks into the next
        calls = [
            ["sweep", "--delta", "0.3", "--distance", "0:10:5", "--alpha", "0.5"],
            ["estimate", str(DATA / "estimate_planar.csv")],
            ["simulate", "--pulses", "1000", "--seed", "3", "--distance", "5:5:1"],
            ["sweep", "--distance", "0:10:5", "--alpha", "0.5"],
        ]

        def run(k, argv, fresh):
            if fresh:
                cli.build_parser.cache_clear()
            out = tmp_path / f"{k}-{fresh}.out"
            rc = cli.main(argv + ["--out", str(out)] * (argv[0] != "estimate"))
            captured = capsys.readouterr()
            return rc, captured.out, captured.err, out.read_bytes() if out.exists() else None

        cli.build_parser.cache_clear()
        reused = [run(k, argv, fresh=False) for k, argv in enumerate(calls)]
        assert cli.build_parser.cache_info().misses == 1
        assert reused == [run(k, argv, fresh=True) for k, argv in enumerate(calls)]
        assert all(rc == 0 for rc, *_ in reused)
        rows = reused[3][3].decode().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0"] * 3 + ["0.063"] * 3 + ["0.126"] * 3


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
        # their Z pair weight is 1/len(sources)
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

    def test_undefined_rate_exit_three(self, tmp_path, capsys):
        w = 1.0 / 6.0
        rows = [
            [label, "x", s, "0.0", repr(w)]
            for s in (0, 1) for label in ("0z", "1z", "0x")
        ]
        path = tmp_path / "silent.csv"
        write_yield_csv(path, rows)
        assert cli.main(["estimate", str(path)]) == 3


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

    def test_negative_seed_rejected(self, capsys):
        assert cli.main(["simulate", "--seed", "-1", "--pulses", "10"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err

    def test_pulses_beyond_int64_rejected(self, capsys):
        # the multinomial draw would raise a raw OverflowError at 2**63
        assert cli.main(["simulate", "--pulses", str(2**63)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "pulses" in err

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
        assert err == "error: identity-identity rate 90.00000000000003 outside [0, 1]\n"

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

    def test_simulate_counts_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "counts.csv"
        assert cli.main(PINNED_SIMULATE + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == (DATA / "simulate_counts.out").read_text()
        assert out.read_bytes() == (DATA / "simulate_counts.csv").read_bytes()


class TestFixedObjectsBuiltOnce:
    """SVD, ``eigvalsh`` and ``eigh`` calls per call on the pinned inputs.

    The canonical states, their Bloch vectors, the perfect virtual ensemble
    and the purified ensemble of the canonical Z pair are built once per
    process, and an ``estimate`` factorizes its sources once for both
    outcomes after one well-posedness check.  A source set shared by both
    relay parties is checked once, so the relay table whose parties send the
    same labels makes one SVD fewer than the other.  The ``eigvalsh`` calls
    left are the state checks of the Bloch-column sources and of the purified
    virtual states, which differ per input; a Z pair from Bloch columns is
    purified with one ``eigh``.  A change that rebuilds a fixed object on
    every call changes these counts.
    """

    # (svd, eigvalsh, eigh) calls of one call on each pinned input
    CALLS = {"estimate_canonical.csv": (2, 0, 0), "estimate_planar.csv": (2, 5, 1),
             "estimate_four_state.csv": (2, 6, 1), "mdi_relay.csv": (2, 0, 0),
             "mdi_relay_mixed_labels.csv": (3, 0, 0), "simulate_counts.csv": (0, 0, 0)}

    @pytest.mark.parametrize("command, name, expected", PINNED_STDOUT)
    def test_linear_algebra_calls(self, monkeypatch, capsys, command, name, expected):
        argv = [command, str(DATA / name)]
        assert cli.main(argv) == 0  # builds what is built once per process
        counts = Counter()

        def counting(fn):
            def counted(*args, **kwargs):
                counts[fn.__name__] += 1
                return fn(*args, **kwargs)
            return counted

        for fn in (np.linalg.svd, np.linalg.eigvalsh, np.linalg.eigh):
            monkeypatch.setattr(np.linalg, fn.__name__, counting(fn))
        for _ in range(2):
            counts.clear()
            assert cli.main(argv) == 0
            assert (counts["svd"], counts["eigvalsh"], counts["eigh"]) == self.CALLS[name]
        assert capsys.readouterr().out == (DATA / expected).read_text() * 3


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
