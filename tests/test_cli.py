import argparse
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reflowsim.thermal as thermal
from reflowsim import build_profile, cli, inclusive_grid, load_trace_csv
from reflowsim.cli import build_parser, main
from reflowsim.config import RunConfig, config_from_dict, load_config

from helpers import ambient_reference

DATA = Path(__file__).parent / "data"

SMALL_SWEEP_YAML = """
params: {tt1: 165, tt2: 185, tt3: 225, tt4: 265, belt_speed: 83}
ranges:
  tt1: [165, 165]
  tt2: [185, 185]
  tt3: [225, 225]
  tt4: [265, 265]
  belt_speed: [83, 83]
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFieldCommand:
    def test_default_rows(self, capsys, tmp_path):
        out_path = tmp_path / "field.csv"
        code, _, _ = run_cli(capsys, "field", "--out", str(out_path))
        assert code == 0
        rows = dict(
            line.split(",") for line in out_path.read_text().splitlines()[1:]
        )
        assert rows["40.0"] == "175.0000"
        assert rows["200.0"] == "185.0000"
        assert rows["435.5"] == "25.0000"

    def test_stdout_and_header(self, capsys):
        code, out, _ = run_cli(capsys, "field", "--dx", "100")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "position_cm,temp_c"
        assert lines[-1] == "435.5,25.0000"

    @pytest.mark.parametrize("flags", [
        [],
        ["--tt1", "185", "--tt2", "185", "--tt3", "245", "--tt4", "245"],
        ["--tt1", "165", "--tt2", "205", "--tt3", "225", "--tt4", "265", "--dx", "0.37"],
    ], ids=["default", "merged-plateaus", "off-grid-dx"])
    def test_rows_equal_point_by_point_evaluation(self, capsys, tmp_path, flags):
        # the dump evaluates the profile once on the whole grid; every row must
        # read as if each position were evaluated alone
        out_path = tmp_path / "field.csv"
        code, _, _ = run_cli(capsys, "field", "--out", str(out_path), *flags)
        assert code == 0
        cfg = config_from_dict({})
        values = dict(zip(flags[::2], flags[1::2]))
        params = replace(cfg.params, **{k[2:]: float(v) for k, v in values.items() if k != "--dx"})
        profile = build_profile(cfg.layout, params, cfg.blend_weight)
        xs = inclusive_grid(0.0, profile.total_length_cm, float(values.get("--dx", cfg.field_dx)))
        expected = ["position_cm,temp_c"] + [f"{x:.1f},{ambient_reference(profile, x):.4f}" for x in xs]
        assert out_path.read_text().splitlines() == expected


class TestSimulateCommand:
    def test_writes_trace_and_verdict(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        code, out, _ = run_cli(capsys, "simulate", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[2] == "0.000000,0.000000,25.000000"
        # verdict table has exactly five limit rows (they end in yes/no)
        table = [l for l in out.splitlines() if l.endswith((" yes", " no"))]
        assert len(table) == 5

    def test_zero_speed_is_an_error_naming_the_slot(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--belt-speed", "0",
            "--out", str(tmp_path / "t.csv"),
        )
        assert code != 0
        assert "belt_speed" in err

    @pytest.mark.parametrize("dt, message", [
        ("5e-324", "dt_out / dt overflows: dt_out = 0.5, dt = 5e-324"),
        ("1e-300", "dt = 1e-300 s needs 3.73e+302 integration steps to cross the furnace"),
    ])
    def test_extreme_step_exits_2_naming_dt(self, capsys, tmp_path, dt, message):
        out_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "simulate", "--dt", dt, "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert message in err and "Traceback" not in err

    def test_output_interval_past_the_transit_exits_2_naming_dt_out(self, capsys, tmp_path):
        # a stride of 1e11 steps: refused before its stage arrays are allocated
        out_path = tmp_path / "trace.csv"
        code, out, err = run_cli(capsys, "simulate", "--dt-out", "1e10", "--out", str(out_path))
        assert code == 2 and out == "" and not out_path.exists()
        assert "dt_out = 1e+10 s exceeds the 373.2 s transit of the furnace" in err
        assert "Traceback" not in err

    def test_tiny_coefficient_runs(self, capsys, tmp_path):
        # A**stride rounds to 1 at this coefficient; the board stays at 25 degC
        out_path = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "simulate", "--coefficient", "1e-16", "--out", str(out_path))
        assert code == 0
        assert np.all(load_trace_csv(out_path).temps == 25.0)

    def test_verdict_csv(self, capsys, tmp_path):
        out_path = tmp_path / "trace.csv"
        verdict_path = tmp_path / "verdict.csv"
        code, _, _ = run_cli(
            capsys, "simulate", "--out", str(out_path),
            "--verdict-csv", str(verdict_path),
        )
        assert code == 0
        lines = verdict_path.read_text().splitlines()
        assert lines[0] == "limit,measured,lo,hi,pass"
        assert len(lines) == 6


class TestCheckCommand:
    def test_two_column_file_with_speed_flag(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text(
            "t_s,temp_c\n" + "\n".join(
                f"{0.5 * i:.1f},{25.0 + i:.1f}" for i in range(20)
            ) + "\n"
        )
        code, out, _ = run_cli(capsys, "check", str(path), "--trace-belt-speed", "70")
        assert code == 0
        assert "overall:" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "check", str(tmp_path / "nope.csv"))
        assert code != 0
        assert "nope.csv" in err


class TestCalibrateCommand:
    def test_round_trip_through_file_layer(self, capsys, tmp_path):
        trace_path = tmp_path / "measured.csv"
        code, _, _ = run_cli(capsys, "simulate", "--out", str(trace_path))
        assert code == 0
        code, out, _ = run_cli(
            capsys, "calibrate", str(trace_path), "--refine-rounds", "0"
        )
        assert code == 0
        assert "best coefficient: 0.021000" in out
        data_rows = [l for l in out.splitlines() if l.strip().startswith("0.0")]
        assert len(data_rows) == 5

    def test_fit_blend_flag(self, capsys, tmp_path):
        trace_path = tmp_path / "measured.csv"
        run_cli(capsys, "simulate", "--out", str(trace_path))
        code, out, _ = run_cli(
            capsys, "calibrate", str(trace_path), "--refine-rounds", "0", "--fit-blend"
        )
        assert code == 0
        assert "best blend weight: 0.8000" in out

    def test_trace_at_another_speed_exits_2(self, capsys, tmp_path):
        trace_path = tmp_path / "measured.csv"
        run_cli(capsys, "simulate", "--belt-speed", "90", "--out", str(trace_path))
        code, out, err = run_cli(capsys, "calibrate", str(trace_path), "--refine-rounds", "0")
        assert code == 2 and out == ""
        assert ("recorded at belt speed 90 cm/min, but the run's belt speed (--belt-speed) "
                "is 70 cm/min") in err
        code, out, _ = run_cli(capsys, "calibrate", str(trace_path), "--refine-rounds", "0",
                               "--belt-speed", "90")
        assert code == 0
        assert "best coefficient: 0.021000" in out

    @pytest.mark.parametrize("from_config", [False, True], ids=["flag", "config"])
    def test_endless_refinement_ends_by_itself(self, capsys, tmp_path, from_config):
        trace_path = tmp_path / "measured.csv"
        run_cli(capsys, "simulate", "--out", str(trace_path))
        config_path = tmp_path / "c.yaml"
        config_path.write_text("calibration: {refine_rounds: 1.0e+308}\n")
        rounds = ["--config", str(config_path)] if from_config else ["--refine-rounds", "1000000"]
        code, endless, _ = run_cli(capsys, "calibrate", str(trace_path), *rounds)
        assert code == 0
        _, capped, _ = run_cli(capsys, "calibrate", str(trace_path), "--refine-rounds", "20")
        # the first line echoes the rounds asked for
        assert endless.splitlines()[1:] == capped.splitlines()[1:]
        assert capped.startswith("coefficient candidates: 157 evaluated")

    def test_a_repeated_candidate_is_counted_once(self, capsys, tmp_path):
        trace_path = tmp_path / "measured.csv"
        run_cli(capsys, "simulate", "--out", str(trace_path))
        config_path = tmp_path / "c.yaml"
        config_path.write_text("calibration: {coefficients: [0.021, 0.0205, 0.021],"
                               " weights: [0.8, 0.8]}\n")
        code, out, _ = run_cli(capsys, "calibrate", str(trace_path), "--config",
                               str(config_path), "--refine-rounds", "0", "--fit-blend")
        assert code == 0
        assert out.splitlines() == [
            "coefficient candidates: 2 evaluated (2 on the base grid, refine_rounds=0)",
            " coefficient     discrepancy     pearson",
            "    0.021000        0.000000    1.000000",
            "    0.020500        0.748499    0.999923",
            "best coefficient: 0.021000",
            "blend_weight     discrepancy",
            "      0.8000        0.000000",
            "best blend weight: 0.8000",
        ]

    # measured traces simulated at the hidden coefficient and weight, then
    # the calibrate arguments; the goldens were written by the version
    # that integrated each candidate on its own
    GOLDEN = {
        "default": ([], ["--fit-blend"]),
        "speed90": (["--belt-speed", "90", "--blend-weight", "0.9", "--coefficient", "0.0205"],
                    ["--belt-speed", "90", "--blend-weight", "0.9", "--fit-blend"]),
        "refine3": (["--dt", "0.05", "--dt-out", "0.25", "--blend-weight", "0.6",
                     "--coefficient", "0.0215"],
                    ["--dt", "0.05", "--dt-out", "0.25", "--blend-weight", "0.6",
                     "--refine-rounds", "3", "--fit-blend"]),
    }

    @pytest.mark.parametrize("name", GOLDEN)
    def test_stdout_equals_the_golden(self, capsys, tmp_path, name):
        simulate_args, calibrate_args = self.GOLDEN[name]
        trace_path = tmp_path / "measured.csv"
        assert run_cli(capsys, "simulate", *simulate_args, "--out", str(trace_path))[0] == 0
        code, out, _ = run_cli(capsys, "calibrate", str(trace_path), *calibrate_args)
        assert code == 0
        assert out == (DATA / f"calibrate_{name}.txt").read_text()

    def test_missing_file_names_path(self, capsys, tmp_path):
        missing = tmp_path / "missing.csv"
        code, _, err = run_cli(capsys, "calibrate", str(missing))
        assert code != 0
        assert "missing.csv" in err


class TestOptimizeCommands:
    def test_speed_reports_none_for_default_setpoints(self, capsys):
        # The stock setpoints exceed the heating-slope cap at every speed.
        code, out, _ = run_cli(capsys, "optimize-speed", "--speed-step", "5")
        assert code == 0
        assert "max feasible: none" in out

    def test_speed_reports_value_for_feasible_setpoints(self, capsys):
        code, out, _ = run_cli(
            capsys, "optimize-speed", "--speed-step", "5",
            "--tt1", "165", "--tt2", "185", "--tt3", "225", "--tt4", "265",
        )
        assert code == 0
        assert "max feasible: 80.0000" in out

    def test_speed_candidates_csv_equals_the_golden(self, capsys, tmp_path):
        # 351 speeds, 183 of them feasible, so the feasible column holds both
        out_path = tmp_path / "speed.csv"
        code, _, _ = run_cli(capsys, "optimize-speed", "--tt1", "165", "--tt2", "185",
                             "--tt3", "225", "--tt4", "265", "--candidates-csv", str(out_path))
        assert code == 0
        assert out_path.read_bytes() == (DATA / "optimize_speed_pocket.csv").read_bytes()

    @pytest.mark.parametrize("command, golden", [
        (["optimize-area"], "refine_sweep_area"),
        (["optimize-symmetry", "--area-domain", "time"], "refine_sweep_symmetry_time"),
    ], ids=["area", "symmetry-time"])
    def test_refine_sweep_equals_the_golden(self, capsys, tmp_path, command, golden):
        # a coarse lattice and a refinement round: stdout and the candidates
        # CSV, byte for byte
        out_path = tmp_path / "candidates.csv"
        code, out, _ = run_cli(capsys, *command, "--config", str(DATA / "refine_sweep.yaml"),
                               "--workers", "1", "--candidates-csv", str(out_path))
        assert code == 0
        assert out.encode() == (DATA / f"{golden}.txt").read_bytes()
        assert out_path.read_bytes() == (DATA / f"{golden}.csv").read_bytes()

    @pytest.mark.parametrize("command", ["optimize-area", "optimize-symmetry"])
    def test_output_interval_past_the_fastest_transit_is_refused_before_any_plan(
            self, capsys, monkeypatch, command):
        # each geometry group's plan covers every sweep speed, and would
        # refuse the fastest; the sweep refuses it before any plan
        plans = []
        monkeypatch.setattr(thermal, "_Plateaus", lambda *args: plans.append(args))
        code, out, err = run_cli(capsys, command, "--dt-out", "300")
        assert code == 2 and out == "" and plans == []
        assert ("error: dt_out = 300 s exceeds the 261.3 s transit of the furnace at belt "
                "speed 100 cm/min: a trace needs at least 2 samples") in err
        assert "Traceback" not in err

    def test_simulate_keeps_an_output_interval_within_its_own_transit(self, capsys, tmp_path):
        # 280 s is past the transit at 100 cm/min, the fastest swept speed,
        # but within the 373.2 s at 70
        code, out, _ = run_cli(capsys, "simulate", "--belt-speed", "70", "--dt-out", "280",
                               "--out", str(tmp_path / "t.csv"))
        assert code == 0 and "(2 samples, dt=280 s)" in out

    def test_area_singleton_grid(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SMALL_SWEEP_YAML)
        cands = tmp_path / "cands.csv"
        code, out, _ = run_cli(
            capsys, "optimize-area", "--config", str(cfg),
            "--workers", "1", "--candidates-csv", str(cands),
        )
        assert code == 0
        lines = cands.read_text().splitlines()
        assert lines[0] == "tt1,tt2,tt3,tt4,v,feasible,peak,area,symmetry"
        assert len(lines) == 2
        assert "candidates evaluated: 1" in out

    def test_symmetry_singleton_grid(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SMALL_SWEEP_YAML)
        code, out, _ = run_cli(
            capsys, "optimize-symmetry", "--config", str(cfg), "--workers", "1"
        )
        assert code == 0
        assert "best: tt1=165.0000" in out

    def test_report_echoes_grid_and_tie_break(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(SMALL_SWEEP_YAML)
        code, out, _ = run_cli(
            capsys, "optimize-area", "--config", str(cfg), "--workers", "1"
        )
        assert code == 0
        assert "grid: tt1 [165,165]" in out
        assert "tie-break:" in out
        assert "objective:" in out


class TestDeterminism:
    def test_simulate_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        _, out1, _ = run_cli(capsys, "simulate", "--out", str(a))
        _, out2, _ = run_cli(capsys, "simulate", "--out", str(b))
        assert out1.replace(str(a), "X") == out2.replace(str(b), "X")
        assert a.read_bytes() == b.read_bytes()

    def test_field_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(capsys, "field", "--out", str(a))
        run_cli(capsys, "field", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestConfig:
    def test_empty_config_is_default_scenario(self, tmp_path):
        cfg_file = tmp_path / "empty.yaml"
        cfg_file.write_text("")
        assert load_config(str(cfg_file)) == RunConfig()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg_file = tmp_path / "bad.yaml"
        cfg_file.write_text("params: {tt1: 175, oven_speed: 3}\n")
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg_file),
            "--out", str(tmp_path / "t.csv"),
        )
        assert code != 0
        assert "oven_speed" in err

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            config_from_dict({"limits2": {}})

    def test_non_mapping_section_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            config_from_dict({"params": 5})

    def test_malformed_yaml_is_a_clean_error(self, capsys, tmp_path):
        cfg_file = tmp_path / "broken.yaml"
        cfg_file.write_text("{{{nope")
        code, _, err = run_cli(
            capsys, "field", "--config", str(cfg_file), "--out", str(tmp_path / "f.csv")
        )
        assert code != 0
        assert "not valid YAML" in err

    @pytest.mark.parametrize("command", ["simulate", "optimize-speed"])
    def test_an_infinite_furnace_is_refused_naming_the_zone(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--config", str(DATA / "infinite_furnace.yaml"))
        assert code == 2 and out == ""
        assert "error: zone 'exit': end_cm must be finite, got inf" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "optimize-speed", "optimize-area"])
    def test_a_huge_furnace_is_refused_for_its_step_count(self, capsys, command):
        # only field builds the field-dump grid, so only field names output.field_dx
        code, out, err = run_cli(capsys, command, "--config", str(DATA / "huge_furnace.yaml"))
        assert code == 2 and out == ""
        assert "error: dt = 0.1 s needs inf integration steps to cross the furnace" in err
        assert "output.field_dx" not in err

    def test_a_huge_furnace_is_checked_and_refused_by_field(self, capsys, tmp_path):
        config = str(DATA / "huge_furnace.yaml")
        trace = str(tmp_path / "t.csv")
        assert run_cli(capsys, "simulate", "--out", trace)[0] == 0
        code, out, _ = run_cli(capsys, "check", trace, "--config", config)
        assert code == 0 and out.startswith(f"checked {trace}")
        code, out, err = run_cli(capsys, "field", "--config", config,
                                 "--out", str(tmp_path / "f.csv"))
        assert (code, out) == (2, "")
        assert "output.field_dx = 0.1 makes inf grid values over [0, 1e+308]" in err
        assert not (tmp_path / "f.csv").exists()

    def test_incomplete_layout_section(self):
        with pytest.raises(ValueError, match="total_length_cm"):
            config_from_dict({"oven": {"zones": []}})

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text("params: {tt1: 165}\n")
        out_path = tmp_path / "field.csv"
        code, _, _ = run_cli(
            capsys, "field", "--config", str(cfg_file), "--tt1", "175",
            "--out", str(out_path),
        )
        assert code == 0
        rows = dict(l.split(",") for l in out_path.read_text().splitlines()[1:])
        assert rows["40.0"] == "175.0000"

    def test_layout_override(self, capsys, tmp_path):
        cfg_file = tmp_path / "cfg.yaml"
        cfg_file.write_text(
            """
oven:
  total_length_cm: 40.0
  zones:
    - {name: entry, kind: entry, start_cm: 0, end_cm: 10}
    - {name: z1, kind: heated, start_cm: 10, end_cm: 30, setpoint_slot: TT1}
    - {name: exit, kind: exit, start_cm: 30, end_cm: 40}
"""
        )
        out_path = tmp_path / "field.csv"
        code, _, _ = run_cli(
            capsys, "field", "--config", str(cfg_file), "--out", str(out_path), "--dx", "5"
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert "20.0,175.0000" in lines  # inside the single heated zone
        assert lines[-1] == "40.0,25.0000"  # exit region sits at tt5

    def test_range_validation_at_resolution(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "field", "--tt1", "300", "--out", str(tmp_path / "f.csv")
        )
        assert code != 0
        assert "tt1" in err

    def test_workers_resolution(self):
        assert RunConfig(workers=3).resolved_workers() == 3
        assert RunConfig(workers=0).resolved_workers() >= 1

    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(ValueError, match="got -3"):
            RunConfig(workers=-3)
        with pytest.raises(ValueError, match="got -2"):
            config_from_dict({"sweep": {"workers": -2}})
        code, out, err = run_cli(capsys, "optimize-area", "--workers", "-3")
        assert code != 0 and out == ""
        assert "workers must be 0 (all cores) or positive, got -3" in err


COMMON_FLAGS = ["-h", "--help", "--config", "--tt1", "--tt2", "--tt3", "--tt4", "--belt-speed",
                "--coefficient", "--blend-weight", "--dt", "--dt-out", "--workers",
                "--area-domain"]
OWN_FLAGS = {
    "field": ["--dx", "--out"],
    "simulate": ["--out", "--verdict-csv"],
    "check": ["trace", "--trace-belt-speed", "--verdict-csv"],
    "calibrate": ["measured", "--trace-belt-speed", "--refine-rounds", "--fit-blend"],
    "optimize-speed": ["--speed-step", "--candidates-csv"],
    "optimize-area": ["--candidates-csv"],
    "optimize-symmetry": ["--candidates-csv"],
}


def test_subcommand_option_strings_in_order():
    """Each subcommand's options, positionals by name, in the order --help
    lists them: the common flags first, then its own."""
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == list(OWN_FLAGS)
    for name, own in OWN_FLAGS.items():
        got = [s for a in subparsers.choices[name]._actions for s in a.option_strings or [a.dest]]
        assert got == COMMON_FLAGS + own, name


def _python(code: str) -> str:
    """Stdout of ``python -c code`` in a fresh process that imports this tree."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_neither_the_pool_nor_yaml():
    # what `import reflowsim.cli` loads beyond numpy: the process pool's
    # modules load with workers > 1, yaml with a configuration file
    loaded = _python("import sys, numpy; before = set(sys.modules); import reflowsim.cli; "
                     "print(' '.join(sorted(set(sys.modules) - before)))").split()
    assert "reflowsim.cli" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("multiprocessing", "yaml")] == []


def test_parser_is_built_on_the_first_main_call_only():
    code = (
        "import argparse, os\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "import reflowsim.cli\n"
        "counts = [len(built)]\n"
        "for _ in range(2):\n"
        "    reflowsim.cli.main(['field', '--dx', '100', '--out', os.devnull])\n"
        "    counts.append(len(built))\n"
        "print(*counts)\n"
    )
    at_import, first, second = map(int, _python(code).split())
    assert at_import == 0
    assert first == second > 0


class TestParserReuse:
    """Calls of ``main`` in one process share one parser; each sequence
    must print, exit and write exactly as with a fresh ``build_parser()``
    per call."""

    SEQUENCES = {
        "calibrate-then-without-blend": [
            (["simulate", "--out", "t.csv"], ["t.csv"]),
            (["calibrate", "t.csv", "--fit-blend"], []),
            (["calibrate", "t.csv"], []),
        ],
        "bad-flag-then-good": [
            (["simulate", "--bogus"], []),
            (["simulate", "--tt1", "hot"], []),
            (["simulate", "--out", "t.csv"], ["t.csv"]),
        ],
        "all-seven-commands": [
            (["field", "--dx", "50", "--out", "field.csv"], ["field.csv"]),
            (["simulate", "--out", "t.csv", "--verdict-csv", "v.csv"], ["t.csv", "v.csv"]),
            (["check", "t.csv"], []),
            (["calibrate", "t.csv"], []),
            (["optimize-speed", "--speed-step", "5", "--candidates-csv", "speeds.csv"],
             ["speeds.csv"]),
            (["optimize-area", "--config", "cfg.yaml", "--workers", "1",
              "--candidates-csv", "area.csv"], ["area.csv"]),
            (["optimize-symmetry", "--config", "cfg.yaml", "--workers", "1"], []),
        ],
    }

    def _run(self, capsys, monkeypatch, directory, steps):
        """Each step's exit code, stdout, stderr and output files, run in
        ``directory`` so that the relative paths in stdout agree."""
        directory.mkdir()
        (directory / "cfg.yaml").write_text(SMALL_SWEEP_YAML)
        monkeypatch.chdir(directory)
        results = []
        for argv, files in steps:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            results.append((code, out, err, [(directory / f).read_bytes() for f in files]))
        return results

    @pytest.mark.parametrize("name", SEQUENCES)
    def test_sequence_equals_fresh_parsers(self, capsys, monkeypatch, tmp_path, name):
        steps = self.SEQUENCES[name]
        builds = []

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        with monkeypatch.context() as patched:
            patched.setattr(cli, "_parser", counting_build_parser)
            fresh = self._run(capsys, patched, tmp_path / "fresh", steps)
        assert len(builds) == len(steps)

        builds.clear()
        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        shared = self._run(capsys, monkeypatch, tmp_path / "shared", steps)
        assert len(builds) == 1
        assert shared == fresh
        expected_codes = [2, 2, 0] if name == "bad-flag-then-good" else [0] * len(steps)
        assert [code for code, *_ in shared] == expected_codes
        if name == "calibrate-then-without-blend":
            assert "best blend weight" in shared[1][1]
            assert "blend" not in shared[2][1]
