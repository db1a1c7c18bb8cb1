"""The config table: YAML sections, CLI flag overrides and value checks."""

import argparse
import math
import re
from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from reflowsim import (
    ParameterRanges,
    ProcessParameters,
    SimulationGrid,
    calibrate_coefficient,
    inclusive_grid,
    minimize_area,
)
from reflowsim.cli import FLAG_KEYS, _resolve_config, build_parser, main
from reflowsim.config import SECTIONS, RunConfig, config_from_dict, load_config
from reflowsim.optimize import _MAX_GRID, _grid_size, _refined_ranges, _sweep_size

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_config(tmp_path, text):
    path = tmp_path / "cfg.yaml"
    path.write_text(text)
    return str(path)


def config_keys():
    """Every (section, key, RunConfig default) the configuration accepts."""
    default = RunConfig()
    for section, target in SECTIONS.items():
        if isinstance(target, str):
            nested = getattr(default, target)
            for f in fields(nested):
                yield section, f.name, getattr(nested, f.name)
        else:
            for key, name in target.items():
                yield section, key, getattr(default, name)


def as_yaml(value):
    return list(value) if isinstance(value, tuple) else value


class TestTable:
    @pytest.mark.parametrize("section,key,default", list(config_keys()),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_default_value_round_trips(self, tmp_path, section, key, default):
        path = write_config(tmp_path, yaml.safe_dump({section: {key: as_yaml(default)}}))
        assert load_config(path) == RunConfig()

    def test_every_override_flag_is_in_the_table(self):
        parser = build_parser()
        commands = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices
        not_config = {"help", "config", "trace", "measured", "trace_belt_speed", "fit_blend"}
        dests = {
            action.dest
            for sub in commands.values()
            for action in sub._actions
            if action.dest not in not_config
        }
        assert dests == set(FLAG_KEYS)

    # flag destination -> (argv setting it, value of its config key)
    FLAG_SAMPLES = {
        "tt1": (["field", "--tt1", "170"], 170.0),
        "tt2": (["field", "--tt2", "190"], 190.0),
        "tt3": (["field", "--tt3", "230"], 230.0),
        "tt4": (["field", "--tt4", "250"], 250.0),
        "belt_speed": (["field", "--belt-speed", "80"], 80.0),
        "coefficient": (["field", "--coefficient", "0.0205"], 0.0205),
        "blend_weight": (["field", "--blend-weight", "0.7"], 0.7),
        "dt": (["field", "--dt", "0.05"], 0.05),
        "dt_out": (["field", "--dt-out", "1.0"], 1.0),
        "speed_step": (["optimize-speed", "--speed-step", "0.5"], 0.5),
        "workers": (["optimize-area", "--workers", "2"], 2),
        "area_domain": (["optimize-area", "--area-domain", "time"], "time"),
        "refine_rounds": (["calibrate", "m.csv", "--refine-rounds", "2"], 2),
        "dx": (["field", "--dx", "0.5"], 0.5),
        "field_csv": (["field", "--out", "f.csv"], "f.csv"),
        "trace_csv": (["simulate", "--out", "t.csv"], "t.csv"),
        "verdict_csv": (["simulate", "--verdict-csv", "v.csv"], "v.csv"),
        "candidates_csv": (["optimize-area", "--candidates-csv", "c.csv"], "c.csv"),
    }

    def test_samples_cover_the_table(self):
        assert set(self.FLAG_SAMPLES) == set(FLAG_KEYS)

    @pytest.mark.parametrize("dest", sorted(FLAG_SAMPLES))
    def test_flag_equals_its_yaml_key(self, dest):
        argv, value = self.FLAG_SAMPLES[dest]
        section, key = FLAG_KEYS[dest]
        from_flag = _resolve_config(build_parser().parse_args(argv))
        from_yaml = config_from_dict({section: {key: value}})
        assert from_flag == from_yaml != RunConfig()

    @pytest.mark.parametrize("dt,dt_out", [("0.2", "1.0"), ("0.3", "0.9")])
    def test_grid_flags_replace_the_grid_together(self, capsys, tmp_path, dt, dt_out):
        # 0.3 with the file's dt_out 0.5 is not a valid grid on its own
        path = write_config(tmp_path, "grid: {dt: 0.1, dt_out: 0.5}\n")
        argv = ["simulate", "--config", path, "--dt", dt, "--dt-out", dt_out]
        args = build_parser().parse_args(argv + ["--out", str(tmp_path / "t.csv")])
        assert _resolve_config(args).grid == SimulationGrid(float(dt), float(dt_out))
        code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "t.csv"))
        assert code == 0
        assert f"dt={float(dt_out):g} s" in out

    @pytest.mark.parametrize("where", [*SECTIONS, "oven", "oven.zones[1]"])
    def test_unknown_key_rejected_in_every_section(self, where):
        zones = [
            {"name": "entry", "kind": "entry", "start_cm": 0, "end_cm": 10},
            {"name": "exit", "kind": "exit", "start_cm": 10, "end_cm": 20},
        ]
        oven = {"total_length_cm": 20, "zones": zones}
        if where == "oven":
            data = {"oven": {**oven, "bogus": 1}}
        elif where == "oven.zones[1]":
            zones[1]["bogus"] = 1
            data = {"oven": oven}
        else:
            data = {where: {"bogus": 1}}
        with pytest.raises(ValueError, match=re.escape(f"unknown config key {where}.'bogus'")):
            config_from_dict(data)

    def test_unknown_keys_of_mixed_types_rejected(self):
        with pytest.raises(ValueError, match="unknown config key params.1"):
            config_from_dict({"params": {1: 2, "foo": 3}})


class TestWrongTypes:
    @pytest.mark.parametrize("text,message", [
        ("calibration: {coefficients: 5}",
         "calibration.coefficients must be a list of numbers, got 5"),
        ("params: {tt1: null}", "params.tt1 must be a number, got None"),
        ("params: {tt1: abc}", "params.tt1 must be a number, got 'abc'"),
        ("params: {tt1: true}", "params.tt1 must be a number, got True"),
        ("ranges: {tt1: [165]}", "ranges.tt1 must be a [low, high] pair of numbers, got [165]"),
        ("sweep: {workers: 1.7}", "sweep.workers must be an integer, got 1.7"),
        ("sweep: {refine_rounds: 0.5}", "sweep.refine_rounds must be an integer, got 0.5"),
        ("calibration: {refine_rounds: .inf}",
         "calibration.refine_rounds must be an integer, got inf"),
        ("sweep: {area_domain: 5}", "sweep.area_domain must be a string, got 5"),
        ("output: {field_csv: 5}", "output.field_csv must be a string or null, got 5"),
        ("oven: {total_length_cm: 40, zones: 5}", "oven.zones must be a list of zones, got 5"),
    ], ids=lambda v: v.split(" must")[0] if " must" in v else None)
    def test_exits_2_naming_the_key_and_value(self, capsys, tmp_path, text, message):
        code, out, err = run_cli(capsys, "simulate", "--config", write_config(tmp_path, text),
                                 "--out", str(tmp_path / "t.csv"))
        assert (code, out) == (2, "")
        assert f"error: config key {message}\n" == err

    def test_integral_float_is_an_integer(self):
        assert config_from_dict({"sweep": {"workers": 2.0}}).workers == 2


class TestRefineRounds:
    @pytest.mark.parametrize("argv,text", [
        (["optimize-area"], "sweep: {refine_rounds: -1}"),
        (["optimize-symmetry"], "sweep: {refine_rounds: -1}"),
        (["calibrate", "m.csv"], "calibration: {refine_rounds: -1}"),
        (["calibrate", "m.csv", "--refine-rounds", "-1"], ""),
    ])
    def test_negative_rounds_refused_before_output(self, capsys, tmp_path, argv, text):
        code, out, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, text))
        assert (code, out) == (2, "")
        assert "refine_rounds must be 0 or positive, got -1" in err

    def test_library_boundary(self, default_trace, layout, params):
        with pytest.raises(ValueError, match="refine_rounds must be 0 or positive, got -1"):
            minimize_area(layout, ParameterRanges(), 0.8, 0.021, refine_rounds=-1)
        with pytest.raises(ValueError, match="refine_rounds must be 0 or positive, got -2"):
            calibrate_coefficient(default_trace, layout, params, 0.8, [0.021], refine_rounds=-2)


class TestSteps:
    @pytest.mark.parametrize("argv,text,message", [
        (["field", "--dx", "nan"], "", "field_dx must be positive and finite, got nan"),
        (["field", "--dx", "-1"], "", "field_dx must be positive and finite, got -1.0"),
        (["field"], "output: {field_dx: .nan}", "field_dx must be positive and finite, got nan"),
        (["optimize-speed", "--speed-step", "nan"], "",
         "speed_sweep_step must be positive and finite, got nan"),
        (["optimize-speed", "--speed-step", "0"], "",
         "speed_sweep_step must be positive and finite, got 0.0"),
        (["optimize-speed"], "sweep: {speed_step: .nan}",
         "speed_sweep_step must be positive and finite, got nan"),
        (["optimize-area"], "ranges: {temp_step: .nan}",
         "enumeration steps must be positive and finite, got temp_step=nan"),
        (["optimize-area"], "ranges: {tt1: [165, .inf]}",
         "range for tt1 must have finite bounds, got [165.0, inf]"),
        (["optimize-area"], "ranges: {tt1: [.nan, 185]}",
         "range for tt1 must have finite bounds, got [nan, 185.0]"),
        (["optimize-symmetry"], "ranges: {belt_speed: [-.inf, 100]}",
         "range for belt_speed must have finite bounds, got [-inf, 100.0]"),
        (["optimize-speed"], "ranges: {tt5: [25, .nan]}",
         "range for tt5 must have finite bounds, got [25.0, nan]"),
        (["optimize-area"], "ranges: {tt5: [20, 30]}",
         "range for tt5 must be a single value, got [20.0, 30.0]"),
    ])
    def test_bad_step_fails_with_empty_stdout(self, capsys, tmp_path, argv, text, message):
        code, out, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, text))
        assert (code, out) == (2, "")
        assert message in err

    def test_grid_refuses_nan_step(self):
        with pytest.raises(ValueError, match="got nan"):
            inclusive_grid(0.0, 1.0, math.nan)


class TestBlendWeights:
    @pytest.mark.parametrize("argv,text,message", [
        (["optimize-speed"], "model: {blend_weight: 1.5}",
         "model.blend_weight must lie in [0, 1], got 1.5"),
        (["optimize-area"], "model: {blend_weight: .nan}",
         "model.blend_weight must lie in [0, 1], got nan"),
        (["optimize-speed", "--blend-weight", "1.5"], "",
         "model.blend_weight must lie in [0, 1], got 1.5"),
        (["field", "--blend-weight", "-0.1"], "",
         "model.blend_weight must lie in [0, 1], got -0.1"),
        (["calibrate", "m.csv", "--fit-blend"], "calibration: {weights: [0.5, 1.5]}",
         "calibration.weights must lie in [0, 1], got 1.5"),
        (["calibrate", "m.csv", "--fit-blend"], "calibration: {weights: [.nan]}",
         "calibration.weights must lie in [0, 1], got nan"),
    ])
    def test_refused_before_any_output(self, capsys, tmp_path, argv, text, message):
        code, out, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, text))
        assert (code, out) == (2, "")
        assert message in err

    def test_bounds_are_accepted(self):
        config_from_dict({"model": {"blend_weight": 0.0},
                          "calibration": {"weights": [0.0, 1.0]}}).validate()
        config_from_dict({"model": {"blend_weight": 1.0}}).validate()


class TestStepBound:
    """e = coefficient * dt at or above 1.29559774 lets the RK4 trace leave
    the ambient range; the CLI refuses it before any stdout."""

    @pytest.mark.parametrize("argv,text,message", [
        (["optimize-speed", "--coefficient", "30"], "",
         "model.coefficient: RK4 step is unstable: coefficient 30.0 * dt 0.1 = e 3,"),
        (["optimize-area", "--coefficient", "30"], "",
         "model.coefficient: RK4 step is unstable: coefficient 30.0 * dt 0.1 = e 3,"),
        (["simulate"], "model: {coefficient: 0.5}\ngrid: {dt: 2.6, dt_out: 2.6}",
         "coefficient 0.5 * dt 2.6 = e 1.3,"),
        (["calibrate", "m.csv"], "calibration: {coefficients: [0.02, 13.0]}",
         "calibration.coefficients: RK4 step is unstable: coefficient 13.0 * dt 0.1"),
    ])
    def test_refused_before_any_output(self, capsys, tmp_path, argv, text, message):
        code, out, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, text))
        assert (code, out) == (2, "")
        assert message in err

    def test_just_below_the_bound_is_accepted(self):
        config_from_dict({"model": {"coefficient": 12.955},
                          "calibration": {"coefficients": [0.021, 12.955]}}).validate()


class TestGridBounds:
    """Every grid is counted before it is built: one of more than
    _MAX_GRID values, or a joint sweep of more candidates, is refused before
    any stdout, naming the key, the step and the count.  Nothing of the
    refused size is ever allocated."""

    @pytest.mark.parametrize("argv,text,message", [
        (["field", "--dx", "1e-9"], "",
         "output.field_dx = 1e-09 makes 435500000001 grid values over [0, 435.5]; "
         "the limit is 1000000"),
        (["optimize-speed", "--speed-step", "1e-9"], "",
         "sweep.speed_step = 1e-09 makes 35000000001 grid values over [65, 100]"),
        (["optimize-area"], "ranges: {tt1: [0, 1000000], tt2: [0, 1000000]}",
         "ranges.temp_step = 5 and ranges.speed_step = 1 make 36000360000900 candidates "
         "(1000010000025 setpoint combinations x 36 speeds); the limit is 1000000"),
        (["optimize-symmetry"], "ranges: {tt1: [0, 10000000]}",
         "ranges.temp_step = 5 makes 2000001 grid values over [0, 1e+07]"),
        (["simulate"], "ranges: {belt_speed: [65, 100], speed_step: 1e-300}",
         "ranges.speed_step = 1e-300 makes 3.5e+301 grid values over [65, 100]"),
    ])
    def test_refused_before_any_output(self, capsys, tmp_path, argv, text, message):
        code, out, err = run_cli(capsys, *argv, "--config", write_config(tmp_path, text))
        assert (code, out) == (2, "")
        assert message in err

    def test_library_boundary(self, layout):
        with pytest.raises(ValueError, match="step = 1e-09 makes 1000000000 grid values"):
            inclusive_grid(0.0, 1.0, 1e-9)
        huge = ParameterRanges(tt1=(0.0, 1e6), tt2=(0.0, 1e6))
        with pytest.raises(ValueError, match="make 36000360000900 candidates"):
            minimize_area(layout, huge, 0.8, 0.021)

    def test_the_bound_is_inclusive(self):
        assert _grid_size(0.0, 999_999.0, 1.0) == _MAX_GRID
        with pytest.raises(ValueError, match="makes 1000001 grid values"):
            _grid_size(0.0, 1_000_000.0, 1.0)
        # an off-grid upper bound is a value of its own
        assert _grid_size(0.0, 999_998.5, 1.0) == _MAX_GRID

    def test_defaults_and_refined_rounds_sit_below_the_bounds(self):
        ranges = ParameterRanges()
        assert _sweep_size(ranges) == 625 * 36
        # a refinement round re-grids +/- one step at step / 5
        best = ProcessParameters(tt1=175.0, tt2=195.0, tt3=235.0, tt4=255.0, belt_speed=80.0)
        assert _sweep_size(_refined_ranges(ranges, best, 5)) == 11 ** 5
        assert _grid_size(0.0, 435.5, RunConfig().field_dx) == 4356
        RunConfig().validate()


class TestReadme:
    def rows(self):
        """(section, key, flag cell, default cell) of the key reference table."""
        rows = []
        for line in README.read_text().splitlines():
            cells = [c.strip() for c in line.strip("|").split("|")]
            match = re.fullmatch(r"`(\w+)\.(\w+)`", cells[0])
            if match:
                rows.append((*match.groups(), cells[1], cells[2]))
        return rows

    def test_example_yaml_loads(self, tmp_path):
        block = re.search(r"```yaml\n(# example\.yaml\n.*?)```", README.read_text(), re.DOTALL)
        cfg = load_config(write_config(tmp_path, block.group(1)))
        cfg.validate()
        assert cfg.params.belt_speed == 83.0

    def test_key_table_lists_every_key_and_default(self):
        rows = self.rows()
        expected = {(s, k): d for s, k, d in config_keys()}
        documented = {(s, k): d for s, k, _, d in rows if s != "oven"}
        assert documented.keys() == expected.keys()
        for key, cell in documented.items():
            value = yaml.safe_load(cell.strip("`"))
            assert as_yaml(expected[key]) == value, key
        assert {(s, k) for s, k, _, _ in rows if s == "oven"} == {
            ("oven", "total_length_cm"), ("oven", "zones")
        }

    def test_key_table_flags_match_the_cli(self):
        flagged = {(s, k) for s, k, flag, _ in self.rows() if flag}
        assert flagged == set(FLAG_KEYS.values())


class TestLimitBounds:
    @pytest.mark.parametrize("text, message", [
        ("limits: {peak: [.nan, 250]}", "peak bounds must not be NaN, got (nan, 250.0)"),
        ("limits: {slope_max: .nan}", "slope_max must not be NaN, got nan"),
        ("limits: {slope_min: 4}", "slope_min 4.0 is above slope_max 3.0"),
    ])
    def test_refused_before_any_output(self, capsys, tmp_path, text, message):
        code, out, err = run_cli(capsys, "optimize-speed", "--config",
                                 write_config(tmp_path, text))
        assert (code, out) == (2, "")
        assert message in err
