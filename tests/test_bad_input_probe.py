"""Every flag and every configuration key, and each key of three
``oven.zones`` entries, fed each of a table of bad values.

Each run must exit 0 or 2 without raising.  A refusal (2) prints nothing on
stdout and names the key (or its flag, or its zone) on stderr; a finished
run (0) prints no NaN or infinity, except the value given where the output
echoes it (a file name, or a limit's bound in the verdict table: a limit may
be infinite).  Sweeps run on single-point ranges, so each run takes
milliseconds, and no process pool starts: a recorder takes the pool's place
and checks that the workers asked for are at most the cores.  A range given
the wrong way round to the API is refused with both of its bounds named, and
a refinement round or worker count given to it that is not an integer with
the argument named.
"""

import argparse
import concurrent.futures
import os
import re
from dataclasses import asdict, fields
from itertools import product

import numpy as np
import pytest
import yaml

import reflowsim.optimize
from reflowsim import WeldingModel, build_profile, calibrate_coefficient, simulate
from reflowsim.config import _RUN_FIELDS, SECTIONS, RunConfig
from reflowsim.cli import FLAG_KEYS, build_parser, main
from reflowsim.optimize import feasible_speed_interval, minimize_area
from reflowsim.oven import ParameterRanges, ProcessParameters, ZoneSpec, default_layout

BAD_VALUES = ["nan", "inf", "-inf", "-1", "0", "1e308", "1e-300", "5e-324", "text"]

# Single-point ranges around the default setpoints: a sweep evaluates one
# candidate per round.
POINT_RANGES = {"tt1": [175.0, 175.0], "tt2": [195.0, 195.0], "tt3": [235.0, 235.0],
                "tt4": [255.0, 255.0], "belt_speed": [70.0, 70.0]}


def _config_keys():
    """Every (section, key) of the configuration, with its field's type."""
    keys = {}
    for section, target in SECTIONS.items():
        if isinstance(target, str):
            for f in fields(getattr(RunConfig(), target)):
                keys[section, f.name] = f.type
        else:
            for key, name in target.items():
                keys[section, key] = _RUN_FIELDS[name].type
    return keys


CONFIG_KEYS = _config_keys()

# The default furnace's zones as config entries, and the key types of one
ZONES = [asdict(zone) for zone in default_layout().zones]
ZONE_KEYS = {f.name: f.type for f in fields(ZoneSpec)}


def _commands(section: str, key: str) -> list[list[str]]:
    """The subcommands (each with its arguments) that read the key.  The
    grid keys also run through the three sweeps, which refuse some grids
    only once the sweep has started."""
    if section == "ranges" or (section, key) in {("sweep", "refine_rounds"), ("sweep", "workers"),
                                                 ("sweep", "area_domain"),
                                                 ("output", "candidates_csv")}:
        return [["optimize-symmetry"]]
    if (section, key) == ("sweep", "speed_step"):
        return [["optimize-speed"]]
    if section == "calibration":
        return [["calibrate", "measured.csv", "--fit-blend"]]
    if (section, key) in {("output", "field_dx"), ("output", "field_csv")}:
        return [["field"]]
    if section == "grid":
        return [["simulate"], ["optimize-speed"], ["optimize-area"], ["optimize-symmetry"]]
    return [["simulate"]]


def _flag(command: str, dest: str) -> str:
    [subparsers] = [a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)]
    [flag] = [a.option_strings[0] for a in subparsers.choices[command]._actions
              if a.dest == dest]
    return flag


def _yaml_value(token: str, kind: str):
    value = yaml.safe_load(token)
    if isinstance(value, str) and token != "text":
        value = float(token)  # YAML 1.1 reads nan, inf and 1e308 as strings
    if kind == "tuple[float, float]":
        return [value, value]
    if kind == "tuple[float, ...]":
        return [value]
    return value


class Recorder:
    """Stands in for ProcessPoolExecutor: checks the workers asked for and
    maps in-process."""

    def __init__(self, max_workers):
        assert 1 < max_workers <= (os.cpu_count() or 1)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory with the measured trace and the single-point ranges."""
    directory = tmp_path_factory.mktemp("probe")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(directory)
        assert main(["simulate", "--out", "measured.csv"]) == 0
    return directory


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses a flag's value
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _check(code, out, err, names, token, echoed):
    """What is wrong with one run, or None."""
    if code == 2:
        if out:
            return f"refused with stdout {out[:80]!r}"
        if not any(name in err for name in names):
            return f"refused without naming {names[0]}: {err.strip()[-160:]!r}"
        return None
    if code != 0:
        return f"exit {code}: {err.strip()[-160:]!r}"
    if echoed:
        out = out.replace(token, "")
    leaked = re.findall(r"\b(?:nan|inf)\b", out)
    return f"stdout holds {leaked[0]}" if leaked else None


def _probe(capsys, monkeypatch, workdir, section, key, flag_argv):
    monkeypatch.chdir(workdir)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
    kind = CONFIG_KEYS[section, key]
    problems = []
    for command, token in product(_commands(section, key), BAD_VALUES):
        flag = _flag(command[0], flag_argv) if flag_argv else None
        data = {"ranges": dict(POINT_RANGES)}
        if flag is None:
            data.setdefault(section, {})[key] = _yaml_value(token, kind)
            argv = command
            names = [key]
        else:
            argv = [*command, f"{flag}={token}"]
            names = [key, flag]
        (workdir / "probe.yaml").write_text(yaml.safe_dump(data))
        code, out, err = _run(capsys, [*argv, "--config", "probe.yaml"])
        problem = _check(code, out, err, names, token,
                         echoed=kind.startswith("str") or section == "limits")
        if problem:
            problems.append(f"{command[0]} {token}: {problem}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("section, key", list(CONFIG_KEYS), ids=[".".join(k) for k in CONFIG_KEYS])
def test_config_key(capsys, monkeypatch, workdir, section, key):
    _probe(capsys, monkeypatch, workdir, section, key, None)


@pytest.mark.parametrize("dest", list(FLAG_KEYS))
def test_flag(capsys, monkeypatch, workdir, dest):
    _probe(capsys, monkeypatch, workdir, *FLAG_KEYS[dest], dest)


# the first zone, a heated zone and the last zone
@pytest.mark.parametrize("index", [0, 1, len(ZONES) - 1])
@pytest.mark.parametrize("key", list(ZONE_KEYS))
def test_zone_key(capsys, monkeypatch, workdir, index, key):
    """A key of one ``oven.zones`` entry of the default furnace: a refusal
    names the key or the zone."""
    monkeypatch.chdir(workdir)
    problems = []
    for token in BAD_VALUES:
        zones = [dict(zone) for zone in ZONES]
        zones[index][key] = _yaml_value(token, ZONE_KEYS[key])
        data = {"ranges": dict(POINT_RANGES),
                "oven": {"total_length_cm": default_layout().total_length_cm, "zones": zones}}
        (workdir / "probe.yaml").write_text(yaml.safe_dump(data))
        code, out, err = _run(capsys, ["simulate", "--config", "probe.yaml"])
        problem = _check(code, out, err, [key, repr(ZONES[index]["name"])], token,
                         echoed=False)
        if problem:
            problems.append(f"zones[{index}].{key} {token}: {problem}")
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("refuse, message", [
    (lambda: feasible_speed_interval(default_layout(), ProcessParameters(), 0.8, 0.021,
                                     speed_range=(100, 65)),
     "grid upper bound below lower bound, got [100, 65]"),
    (lambda: ParameterRanges(tt1=(185, 165)),
     "range for tt1 has lower bound above upper, got [185, 165]"),
], ids=["speed_range", "tt1"])
def test_reversed_range_names_both_bounds(refuse, message):
    with pytest.raises(ValueError) as info:
        refuse()
    assert str(info.value) == message


POINT = ParameterRanges(**{k: tuple(v) for k, v in POINT_RANGES.items()})


def _calibrate(**kwargs):
    params = ProcessParameters()
    trace = simulate(build_profile(default_layout(), params, 0.8), params, WeldingModel(0.021))
    return calibrate_coefficient(trace, default_layout(), params, 0.8, [0.021], **kwargs)


def _sweep(**kwargs):
    return minimize_area(default_layout(), POINT, 0.8, 0.021, **kwargs)


@pytest.mark.parametrize("run", [_sweep, _calibrate], ids=["minimize_area", "calibrate"])
@pytest.mark.parametrize("value", [1.5, True, np.float64(2.0)], ids=["1.5", "True", "float64"])
def test_refine_rounds_must_be_an_integer(run, value):
    with pytest.raises(ValueError, match=f"^refine_rounds must be an integer, got {value}$"):
        run(refine_rounds=value)


@pytest.mark.parametrize("value", [1.5, True, np.float64(2.0)], ids=["1.5", "True", "float64"])
def test_workers_must_be_an_integer(monkeypatch, value):
    # refused before any job is built or any pool starts
    monkeypatch.setattr(reflowsim.optimize, "_sweep_jobs", None)
    with pytest.raises(ValueError, match=f"^workers must be an integer, got {value}$"):
        _sweep(workers=value)


def test_numpy_integer_counts_are_accepted():
    assert _sweep(refine_rounds=np.int64(0), workers=np.int32(1)).candidates_evaluated == 1
    assert len(_calibrate(refine_rounds=np.int64(0)).scores) == 1
