"""Tests of the benchmark itself: its checks fire on wrong outputs, tracing
does not change outputs, exact counters repeat, and the runner's metric names
match BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from reflowsim import ProcessParameters, default_layout  # noqa: E402
import reflowsim.optimize  # noqa: E402
import reflowsim.thermal  # noqa: E402
from workloads import Cli, JointSweep, SpeedSweep  # noqa: E402


@pytest.fixture(scope="module")
def layout():
    return default_layout()


@pytest.fixture(scope="module")
def joint(layout):
    # 81 setpoint combinations in three tt4 slices, at two speeds
    return JointSweep(3, layout, temp_step=10.0)


@pytest.fixture(scope="module")
def joint_ops(joint):
    return joint.run(0, parallel=True)


@pytest.fixture(scope="module")
def speed(layout):
    w = SpeedSweep(1, layout, n_sets=1)
    w.sets = [ProcessParameters(tt1=165, tt2=185, tt3=225, tt4=265)]  # a feasible pocket
    return w


@pytest.fixture(scope="module")
def speed_ops(speed):
    return speed.run(0)


@pytest.fixture(scope="module")
def cli(layout, tmp_path_factory):
    return Cli(5, layout, tmp_path_factory.mktemp("cli"), n_scenarios=1)


@pytest.fixture(scope="module")
def cli_ops(cli):
    return cli.run(0)


def _swap(ops, key, value):
    return [replace(op, value=value) if op.key == key else op for op in ops]


def _value(ops, key):
    return next(op.value for op in ops if op.key == key)


def test_correct_outputs_pass(joint, joint_ops, speed, speed_ops, cli, cli_ops):
    assert joint.check(joint_ops, {}) == {}
    assert speed.check(speed_ops, {}) == {}
    assert cli.check(cli_ops, {}) == {}


def test_joint_checks_fire(joint, joint_ops):
    # the slice that holds the lattice winner, so workers=2 must disagree too
    area = min((op for op in joint_ops if op.kind == "minimize_area" and op.value.best),
               key=lambda op: joint.order("area")(op.value.best))
    w2 = next(op.key for op in joint_ops if op.kind == "minimize_area_w2")
    result = area.value
    perturbed = replace(result, best=replace(result.best, area=result.best.area * (1 + 1e-6)))
    flipped = replace(result, best=replace(result.best, feasible=False))
    for bad in (perturbed, flipped):
        assert {area.key, w2} <= set(joint.check(_swap(joint_ops, area.key, bad), {}))
    # a workers=2 result that differs from workers=1 is a failed operation
    assert set(joint.check(_swap(joint_ops, w2, result), {})) == {w2}
    # a later round must reproduce the first round exactly
    reference = {}
    assert joint.check(joint_ops, reference) == {}
    assert area.key in joint.check(_swap(joint_ops, area.key, perturbed), reference)


def test_speed_checks_fire(speed, speed_ops):
    result = _value(speed_ops, "set0")
    assert len(result.feasible_speeds) >= 2
    flipped = replace(result, feasible_speeds=result.feasible_speeds[:-1],
                      max_feasible=result.feasible_speeds[-2])
    assert set(speed.check(_swap(speed_ops, "set0", flipped), {})) == {"set0"}


def test_cli_checks_fire(cli, cli_ops):
    stdout, files = _value(cli_ops, "calibrate:0")
    s = cli.scenarios[0]
    wrong = stdout.replace(f"best coefficient: {s.coefficient:.6f}",
                           f"best coefficient: {s.coefficient + 0.0005:.6f}")
    assert wrong != stdout
    assert set(cli.check(_swap(cli_ops, "calibrate:0", (wrong, files)), {})) == {"calibrate:0"}

    stdout, files = _value(cli_ops, "check:0")
    flipped = stdout.replace("overall: pass", "overall: fail") if "overall: pass" in stdout \
        else stdout.replace("overall: fail", "overall: pass")
    assert set(cli.check(_swap(cli_ops, "check:0", (flipped, files)), {})) == {"check:0"}

    failing = [replace(op, value=None, error="exit 2: boom") if op.key == "simulate:0" else op
               for op in cli_ops]
    assert "simulate:0" in cli.check(failing, {})


def _traced(workload, round_no=0):
    rec = spans.Recorder()
    with spans.installed(rec):
        ops = workload.run(round_no, span=rec.span)
    return rec, ops


def test_tracing_keeps_outputs_and_counters_repeat(joint, joint_ops, speed, speed_ops, cli):
    simulate = reflowsim.optimize.simulate
    for workload, untraced in ((joint, joint_ops), (speed, speed_ops)):
        first, ops = _traced(workload)
        second, _ = _traced(workload)
        assert [op.value for op in ops] == [op.value for op in untraced[:len(ops)]]
        assert first.calls == second.calls
        assert first.counts == second.counts
    # the originals are back after tracing
    assert reflowsim.optimize.simulate is simulate is reflowsim.thermal.simulate
    assert not hasattr(reflowsim.thermal.ThermalTrace.__init__, "__wrapped__")

    cli_ref = {}
    assert cli.check(cli.run(0), cli_ref) == {}
    rec, ops = _traced(cli)
    assert cli.check(ops, cli_ref) == {}
    assert rec.calls["cli.calibrate"] == 1 and rec.counts["calibrate.candidates"] > 0


def test_counts_match_the_workload(joint, speed):
    rec, ops = _traced(joint)
    evaluated = sum(op.value.candidates_evaluated for op in ops)
    assert rec.calls["thermal.simulate"] == evaluated == 2 * len(joint.lattice) * 2
    # one profile per setpoint combination and call, shared by both speeds
    assert rec.calls["ambient.build_profile"] == 2 * len(joint.lattice)
    feasible = sum(c.feasible for op in ops for c in op.value.candidates)
    # each sweep that finds a winner re-checks it once more
    assert rec.counts["limits.feasible"] == feasible + sum(op.value.best is not None for op in ops)
    rec, _ = _traced(speed)
    assert rec.calls["thermal.simulate"] == 351 * len(speed.sets)
    assert rec.calls["optimize.symmetry_score"] == 0


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_runner_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_levels_cover_the_default_grids():
    assert len(workloads.setpoint_lattice()) == 625
    assert len(workloads.levels(65.0, 100.0, 0.1)) == 351
