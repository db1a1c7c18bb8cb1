"""The batched speed-sweep engine against the per-speed chain.

feasible_speed_interval evaluates the belt speeds of its one profile as
padded row blocks.  Its whole result must equal, with exact float equality,
the one built speed by speed through build_profile -> simulate ->
compute_metrics -> check_limits.
"""

from dataclasses import replace

import numpy as np
import pytest

import reflowsim.optimize as optimize
import reflowsim.thermal as thermal
from reflowsim import (
    ProcessLimits,
    ProcessParameters,
    SimulationGrid,
    WeldingModel,
    build_profile,
    check_limits,
    compute_metrics,
    feasible_speed_interval,
    inclusive_grid,
    simulate,
)
from reflowsim.optimize import SpeedCheck, SpeedSweepResult
from reflowsim.thermal import _Plateaus, rk4_blocks

DEFAULT = ProcessParameters(tt1=165.0, tt2=185.0, tt3=225.0, tt4=265.0)
# tt1 = tt2 and tt3 = tt4 merge plateaus: fewer segments, other boundaries
MERGED = ProcessParameters(tt1=185.0, tt2=185.0, tt3=245.0, tt4=245.0)


def per_speed_chain(layout, params, speed_range, speed_step, grid, limits):
    """The sweep result built one speed at a time from the public functions."""
    profile = build_profile(layout, params, 0.8)
    checks = []
    for v in inclusive_grid(*speed_range, speed_step):
        trace = simulate(profile, replace(params, belt_speed=v), WeldingModel(0.021), grid)
        metrics = compute_metrics(trace)
        checks.append(SpeedCheck(v, metrics, check_limits(metrics, limits)))
    feasible = tuple(c.speed for c in checks if c.verdict.passed)
    return SpeedSweepResult(feasible, feasible[-1] if feasible else None, tuple(checks))


def assert_matches_chain(layout, params, speed_range=(65.0, 100.0), speed_step=0.1,
                         grid=None, limits=None):
    result = feasible_speed_interval(layout, params, 0.8, 0.021, speed_range, speed_step,
                                     grid, limits)
    reference = per_speed_chain(layout, params, speed_range, speed_step,
                                grid or SimulationGrid(), limits or ProcessLimits())
    assert result == reference
    return result


# DEFAULT has 183 feasible speeds among its 351, MERGED none
@pytest.mark.parametrize("params, n_feasible", [(DEFAULT, 183), (MERGED, 0)],
                         ids=["default", "merged"])
def test_default_sweep_equals_the_chain(layout, params, n_feasible):
    result = assert_matches_chain(layout, params)
    assert (len(result.per_speed), len(result.feasible_speeds)) == (351, n_feasible)


def test_non_default_limits(layout):
    limits = ProcessLimits(slope_max=2.5, peak=(235.0, 255.0), time_above_217=(30.0, 100.0))
    assert_matches_chain(layout, DEFAULT, limits=limits)


@pytest.mark.parametrize("grid", [(0.5, 0.5), (0.1, 0.3), (0.05, 0.5), (0.1, 5.0), (0.1, 30.0)])
@pytest.mark.parametrize("params", [DEFAULT, MERGED], ids=["default", "merged"])
def test_other_integration_grids(layout, params, grid):
    assert_matches_chain(layout, params, speed_step=0.7, grid=SimulationGrid(*grid))


def test_one_speed_range(layout):
    result = assert_matches_chain(layout, DEFAULT, speed_range=(80.0, 80.0))
    assert [c.speed for c in result.per_speed] == [80.0]


def test_step_that_does_not_divide_the_range(layout):
    result = assert_matches_chain(layout, DEFAULT, speed_range=(64.3, 101.0), speed_step=0.75)
    speeds = [c.speed for c in result.per_speed]
    assert speeds[-1] == 101.0 and speeds[-2] < 101.0 - 0.5


def test_speed_count_not_a_multiple_of_the_block(layout, monkeypatch):
    # 4-row blocks over 13 speeds: three full blocks and a one-row tail.  A
    # row's largest array per stage is the nodes of its varying samples.
    grid = SimulationGrid()
    speeds = np.array(inclusive_grid(65.0, 66.2, 0.1))
    profile = build_profile(layout, DEFAULT, 0.8)
    plan = _Plateaus(profile, speeds, grid.dt, grid.stride)
    row_floats = int(plan.varying_counts().max()) * (grid.stride + 1)
    assert row_floats > plan.k_end + 1  # more than the samples
    monkeypatch.setattr(thermal, "_BLOCK_BYTES", 4 * 8 * row_floats)
    blocks = []

    def counted(*args):
        for part, block, temps, lengths in rk4_blocks(*args):
            blocks.append(len(temps))
            yield part, block, temps, lengths

    monkeypatch.setattr(optimize, "rk4_blocks", counted)
    assert_matches_chain(layout, DEFAULT, speed_range=(65.0, 66.2))
    assert blocks == [4, 4, 4, 1]


def test_rows_do_not_depend_on_the_block_size(layout, monkeypatch):
    reference = feasible_speed_interval(layout, MERGED, 0.8, 0.021, speed_step=0.3)
    for block_bytes in (1, 100_000, 1 << 26):  # one row per block, a few, all in one
        monkeypatch.setattr(thermal, "_BLOCK_BYTES", block_bytes)
        assert feasible_speed_interval(layout, MERGED, 0.8, 0.021, speed_step=0.3) == reference


def test_engine_makes_no_per_speed_simulate_call(layout, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the speed sweep must not simulate speed by speed")

    monkeypatch.setattr(optimize, "simulate", forbidden)
    feasible_speed_interval(layout, DEFAULT, 0.8, 0.021, speed_step=5.0)
