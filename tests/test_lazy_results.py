"""The sweeps' lazily built results against the one-at-a-time oracles.

The joint sweeps keep their candidates as columns and build the
SweepCandidates of ``OptimizationResult.candidates`` on its first read; the
speed sweep does the same for ``SpeedSweepResult.per_speed``.  Read, the
results must equal, with exact float equality, the plain tuples the
per-candidate and per-speed chains build, and behave as those tuples do.
"""

import itertools
import pickle
import random
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reflowsim.optimize as optimize
from reflowsim import (
    ParameterRanges,
    ProcessLimits,
    ProcessParameters,
    WeldingModel,
    build_profile,
    check_limits,
    compute_metrics,
    feasible_speed_interval,
    inclusive_grid,
    minimize_area,
    most_symmetric,
    simulate,
)
from reflowsim.cli import main
from reflowsim.optimize import SpeedCheck, SpeedSweepResult

from helpers import brute_force_candidates, brute_force_joint_sweep, brute_force_speed_sweep

WEIGHT, COEFFICIENT = 0.8, 0.021
# 2 x 2 candidates in a feasible pocket; refinement rounds re-grid tt4 and
# the speed around the winner
POCKET = ParameterRanges(tt1=(165.0, 165.0), tt2=(185.0, 185.0), tt3=(225.0, 225.0),
                         tt4=(260.0, 265.0), belt_speed=(78.0, 82.0), temp_step=5.0,
                         speed_step=4.0)
REFINE_SWEEP = Path(__file__).parent / "data" / "refine_sweep.yaml"
SWEEPS = {"area": minimize_area, "symmetry": most_symmetric}
_references = {}


def reference(layout, objective, area_domain, refine_rounds, ranges=POCKET):
    key = (objective, area_domain, refine_rounds, ranges)
    if key not in _references:
        _references[key] = brute_force_candidates(layout, ranges, WEIGHT, COEFFICIENT, objective,
                                                  area_domain=area_domain,
                                                  refine_rounds=refine_rounds)
    return _references[key]


def assert_reads_as(lazy, plain: tuple):
    """lazy behaves as the plain tuple of the same items."""
    assert lazy == plain and plain == lazy
    assert not (lazy != plain or plain != lazy)
    assert len(lazy) == len(plain)
    assert hash(lazy) == hash(plain)
    assert repr(lazy) == repr(plain)
    assert lazy[0] == plain[0] and lazy[-1] == plain[-1]
    assert lazy[1:3] == plain[1:3] and lazy[::-1] == plain[::-1]
    assert list(lazy) == list(plain)
    assert lazy.index(plain[-1]) == len(plain) - 1
    assert plain[0] in lazy
    copy = pickle.loads(pickle.dumps(lazy))
    assert type(copy) is tuple and copy == plain
    assert lazy != plain[:-1] and plain[:-1] != lazy
    assert lazy != list(plain)


@pytest.mark.parametrize("area_domain", ["position", "time"])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("refine_rounds", [0, 1, 2])
@pytest.mark.parametrize("objective", ["area", "symmetry"])
def test_candidates_read_as_the_chain_tuple(layout, objective, refine_rounds, workers,
                                            area_domain):
    candidates, best = reference(layout, objective, area_domain, refine_rounds)
    result = SWEEPS[objective](layout, POCKET, WEIGHT, COEFFICIENT, area_domain=area_domain,
                               refine_rounds=refine_rounds, workers=workers)
    assert result.best == best
    assert result.candidates_evaluated == len(candidates)
    feasible = [c for c in candidates if c.feasible]
    assert result.candidates_feasible == len(feasible)
    undefined = sum(c.symmetry is None for c in feasible)
    assert result.rejected_from_objective == (undefined if objective == "symmetry" else 0)
    assert_reads_as(result.candidates, tuple(candidates))
    assert result == replace(result, candidates=tuple(candidates))
    assert replace(result, candidates=tuple(candidates)) == result
    assert hash(result) == hash(replace(result, candidates=tuple(candidates)))
    assert pickle.loads(pickle.dumps(result)) == result
    if refine_rounds == 0:
        oracle = brute_force_joint_sweep(layout, POCKET, WEIGHT, COEFFICIENT, objective,
                                         area_domain=area_domain)
        assert (best.key(), best.area) == oracle[:2]


def test_refinement_rounds_add_candidates(layout):
    # the refinement rounds above do re-grid, and meet keys seen before
    sizes = [len(reference(layout, "area", "position", n)[0]) for n in range(3)]
    assert sizes[0] == 4 and sizes[0] < sizes[1] < sizes[2]


# Every candidate passes these limits, and those that never exceed 217 degC
# have no symmetry score
LOOSE = ProcessLimits(slope_max=100.0, slope_min=-100.0, rise_150_190=(0.0, 1e6),
                      time_above_217=(0.0, 1e6), peak=(0.0, 1e6))
LOW_AND_HIGH = ParameterRanges(tt1=(165.0, 165.0), tt2=(185.0, 185.0), tt3=(205.0, 225.0),
                               tt4=(205.0, 265.0), belt_speed=(78.0, 82.0), temp_step=20.0,
                               speed_step=4.0)


@pytest.mark.parametrize("refine_rounds", [0, 1])
@pytest.mark.parametrize("objective", ["area", "symmetry"])
def test_feasible_rows_without_a_symmetry_score(layout, objective, refine_rounds):
    candidates, best = brute_force_candidates(layout, LOW_AND_HIGH, WEIGHT, COEFFICIENT,
                                              objective, limits=LOOSE,
                                              refine_rounds=refine_rounds)
    result = SWEEPS[objective](layout, LOW_AND_HIGH, WEIGHT, COEFFICIENT, limits=LOOSE,
                               refine_rounds=refine_rounds)
    assert result.candidates == tuple(candidates) and result.best == best
    assert result.candidates_feasible == len(candidates)
    undefined = sum(c.symmetry is None for c in candidates)
    assert undefined >= 8
    assert result.rejected_from_objective == (undefined if objective == "symmetry" else 0)


# Steps of 3e-10: inclusive_grid rounds 80.0000000003 to 80.0 and
# 80.0000000006 to 80.000000001, and the key of the end point 80.0000000009
# rounds to that too, so four grid values hold two keys on each axis.
MERGING = ParameterRanges(tt1=(165.0, 165.0), tt2=(185.0, 185.0), tt3=(225.0, 225.0),
                          tt4=(263.0, 263.0 + 9e-10), belt_speed=(80.0, 80.0 + 9e-10),
                          temp_step=3e-10, speed_step=3e-10)


@pytest.mark.parametrize("refine_rounds", [0, 1])
def test_merged_keys_keep_the_per_candidate_order(layout, refine_rounds):
    assert len(inclusive_grid(*MERGING.belt_speed, MERGING.speed_step)) == 4
    candidates, best = reference(layout, "area", "position", refine_rounds, MERGING)
    assert len(candidates) == 4
    result = minimize_area(layout, MERGING, WEIGHT, COEFFICIENT, refine_rounds=refine_rounds)
    assert result.best == best
    assert result.candidates == tuple(candidates)


def test_new_points_equal_per_point_rounding():
    rng = random.Random(5)
    for _ in range(50):
        axes = [[rng.choice([1.0, 2.0, 3.0]) for _ in range(rng.randint(1, 4))]
                for _ in range(5)]
        seen = [[set(rng.sample([1.0, 2.0, 3.0], rng.randint(1, 3))) for _ in range(5)]
                for _ in range(rng.randint(0, 2))]
        keys = {point for grid in seen for point in itertools.product(*grid)}
        want = []
        for point in itertools.product(*axes):
            want.append(point not in keys)
            keys.add(point)
        assert optimize._new_points(axes, seen).tolist() == want


def test_candidates_are_built_on_first_read_only(layout, monkeypatch):
    built = []
    candidate = optimize.SweepCandidate

    def counted(*args):
        built.append(args)
        return candidate(*args)

    monkeypatch.setattr(optimize, "SweepCandidate", counted)
    result = minimize_area(layout, POCKET, WEIGHT, COEFFICIENT, refine_rounds=1)
    assert len(built) == result.candidates_feasible < result.candidates_evaluated
    assert len(result.candidates) == result.candidates_evaluated
    assert len(built) == result.candidates_feasible
    first = list(result.candidates)
    assert len(built) == result.candidates_feasible + result.candidates_evaluated
    assert list(result.candidates) == first and result.candidates[0] is first[0]
    assert len(built) == result.candidates_feasible + result.candidates_evaluated


@pytest.mark.parametrize("command", ["optimize-area", "optimize-symmetry"])
def test_sweep_report_builds_only_the_eligible_candidates(capsys, monkeypatch, command):
    built = []
    candidate = optimize.SweepCandidate

    def counted(*args):
        built.append(args)
        return candidate(*args)

    monkeypatch.setattr(optimize, "SweepCandidate", counted)
    assert main([command, "--config", str(REFINE_SWEEP), "--workers", "1"]) == 0
    out = capsys.readouterr().out
    count = {line.split(":")[0]: line.split()[-1] for line in out.splitlines()}
    assert count["area domain"] == "1"  # the refinement rounds
    assert 0 < len(built) <= int(count["feasible candidates"]) \
        < int(count["candidates evaluated"])


@pytest.mark.parametrize("params", [ProcessParameters(tt1=165.0, tt2=185.0, tt3=225.0,
                                                      tt4=265.0),
                                    ProcessParameters(),
                                    # never reaches 190 degC: no rise time at any speed
                                    ProcessParameters(tt1=120.0, tt2=140.0, tt3=160.0,
                                                      tt4=175.0)],
                         ids=["pocket", "default", "cool"])
def test_per_speed_reads_as_the_chain_tuple(layout, params):
    speed_range, speed_step = (70.0, 90.0), 0.5
    result = feasible_speed_interval(layout, params, WEIGHT, COEFFICIENT, speed_range,
                                     speed_step)
    profile = build_profile(layout, params, WEIGHT)
    checks = []
    for v in inclusive_grid(*speed_range, speed_step):
        trace = simulate(profile, replace(params, belt_speed=v), WeldingModel(COEFFICIENT))
        metrics = compute_metrics(trace)
        checks.append(SpeedCheck(v, metrics, check_limits(metrics)))
    feasible = brute_force_speed_sweep(layout, params, WEIGHT, COEFFICIENT, speed_range,
                                       speed_step)
    assert list(result.feasible_speeds) == feasible
    plain = SpeedSweepResult(tuple(feasible), feasible[-1] if feasible else None,
                             tuple(checks))
    assert plain == result and result == plain
    assert hash(plain) == hash(result)
    assert pickle.loads(pickle.dumps(result)) == plain
    assert_reads_as(result.per_speed, tuple(checks))
    # a copy with other fields keeps the per-speed rows it was given
    assert replace(result, max_feasible=result.max_feasible).per_speed == tuple(checks)
    # the verdicts pass exactly at the feasible speeds, as bools; a missing
    # rise time reads None and fails
    assert [c.speed for c in result.per_speed if c.verdict.passed] == feasible
    assert all(type(c.passed) is bool for row in result.per_speed for c in row.verdict.checks)
    missing = [row.verdict.checks[2] for row in result.per_speed
               if row.metrics.rise_time_150_190 is None]
    assert all(c.measured is None and c.passed is False for c in missing)
    assert len(missing) == (len(result.per_speed) if params.tt4 == 175.0 else 0)


def test_symmetry_columns_mark_undefined_rows_nan():
    times = np.arange(5) * 0.5
    temps = np.array([[200.0, 220, 230, 220, 200], [200, 220, 210, 220, 200],
                      [200, 210, 215, 210, 200]])
    scores, passes = optimize._symmetry_columns(times, temps)
    assert passes.tolist() == [1, 2, 0]
    assert scores[0] == 0.0 and np.isnan(scores[1:]).all()
