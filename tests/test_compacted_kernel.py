"""The plateau-compacted RK4 kernel of ``thermal.simulate_speeds``.

simulate_speeds computes positions, field, forcing and Horner sums only for
the samples that touch a sigmoid, the cooling blend or a segment join; every
sample wholly inside a plateau takes its level's Horner sum.  Its samples
must equal, with exact float equality, what the full-field oracle of
``tests/helpers.py`` gives: ``stage_positions``, ``ambient_at`` at every
node and midpoint, and ``integrate_rows``.  A row of a block must also equal
its one-row run.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reflowsim.optimize as optimize
from reflowsim import (
    OvenLayout,
    ParameterRanges,
    ProcessParameters,
    SimulationGrid,
    WeldingModel,
    build_profile,
    default_layout,
    feasible_speed_interval,
    inclusive_grid,
    simulate,
)
from reflowsim.ambient import ConstantSegment
from reflowsim.oven import cm_per_second
from reflowsim.thermal import _Plateaus, _reach, simulate_speeds, step_counts

from helpers import full_field_rk4

LAYOUT = default_layout()
MODEL = WeldingModel(0.021)
DEFAULT = ProcessParameters(tt1=165.0, tt2=185.0, tt3=225.0, tt4=265.0)
# tt1 = tt2 and tt3 = tt4 merge plateaus: fewer segments, other boundaries
MERGED = ProcessParameters(tt1=185.0, tt2=185.0, tt3=245.0, tt4=245.0)
# every zone at the exterior temperature: one plateau after the entry
COLD = ProcessParameters(tt1=25.0, tt2=25.0, tt3=25.0, tt4=25.0)
# without its exit region the furnace ends inside the cooling blend, so the
# padding of the faster rows lies in a varying segment
BLEND_TO_END = OvenLayout(LAYOUT.zones[:-1], LAYOUT.zones[-1].start_cm)
SPEEDS = [65.0, 65.1, 70.3, 82.1, 99.9, 100.0]


def full_field(profile, y0, grid, speeds):
    return full_field_rk4(profile, y0, MODEL.coefficient, grid, speeds)


def assert_equals_full_field(profile, grid, speeds, y0=25.0):
    temps, counts = simulate_speeds(profile, y0, MODEL, grid, speeds)
    assert np.array_equal(temps, full_field(profile, y0, grid, speeds))
    # each row alone gives the same samples
    for row, (v, count) in enumerate(zip(speeds, counts)):
        alone, _ = simulate_speeds(profile, y0, MODEL, grid, [v])
        assert np.array_equal(alone[0], temps[row, :count])
    return temps


def varying_samples(profile, grid, speeds):
    n_steps = step_counts(profile.total_length_cm, speeds, grid.dt)
    plan = _Plateaus(profile, np.array(speeds), grid.dt, grid.stride, int(n_steps.max()))
    return plan.varying_counts(), plan.k_end


@pytest.mark.parametrize("params", [DEFAULT, MERGED], ids=["default", "merged"])
@pytest.mark.parametrize("grid", [(0.1, 0.5), (0.1, 0.1), (0.25, 0.25), (0.05, 0.25)],
                         ids=["default", "stride-1", "dt-0.25", "dt-0.05"])
def test_rows_equal_the_full_field(params, grid):
    profile = build_profile(LAYOUT, params, 0.8)
    assert_equals_full_field(profile, SimulationGrid(*grid), SPEEDS)


def test_most_samples_take_their_plateau_sum():
    profile = build_profile(LAYOUT, DEFAULT, 0.8)
    varying, k_end = varying_samples(profile, SimulationGrid(), SPEEDS)
    # 86 of the furnace's 435.5 cm vary: about 160 of the 804 samples at
    # 65 cm/min, fewer on a faster belt
    assert varying.max() < 0.25 * k_end
    assert varying[-1] < varying[0]


def test_all_cold_furnace_has_no_varying_segment():
    profile = build_profile(LAYOUT, COLD, 0.8)
    assert all(isinstance(seg, ConstantSegment) for seg in profile.segments)
    temps = assert_equals_full_field(profile, SimulationGrid(), SPEEDS)
    assert np.max(np.abs(temps - 25.0)) <= 1e-12
    # only the sample across the entry/zone join (25 -> 25) needs a field
    varying, _ = varying_samples(profile, SimulationGrid(), SPEEDS)
    assert varying.tolist() == [1] * len(SPEEDS)


@pytest.mark.parametrize("grid", [(0.1, 0.5), (0.5, 0.5)])
def test_blend_reaching_the_furnace_end(grid):
    profile = build_profile(BLEND_TO_END, DEFAULT, 0.8)
    assert profile.segments[-1].x_end == BLEND_TO_END.total_length_cm
    assert not isinstance(profile.segments[-1], ConstantSegment)
    grid = SimulationGrid(*grid)
    assert_equals_full_field(profile, grid, SPEEDS)
    # the fastest row's padding lies in the blend, so it needs a field too
    varying, k_end = varying_samples(profile, grid, SPEEDS)
    own = step_counts(profile.total_length_cm, SPEEDS, grid.dt)[-1] // grid.stride
    assert own < k_end and varying[-1] >= k_end - own


def test_samples_longer_than_a_plateau():
    # at 30 s a sample spans 32.5 cm or more, longer than the 30.5 cm
    # plateaus of zones 2 and 3: none of their samples is constant
    grid = SimulationGrid(0.1, 30.0)
    profile = build_profile(LAYOUT, DEFAULT, 0.8)
    assert_equals_full_field(profile, grid, SPEEDS)
    assert_equals_full_field(build_profile(LAYOUT, MERGED, 0.8), grid, SPEEDS)


def test_ragged_rows_in_one_block():
    # step counts from 2,613 to 4,020 in one block, in no particular order
    profile = build_profile(LAYOUT, MERGED, 0.5)
    speeds = [83.4, 65.0, 100.0, 71.9, 65.3]
    temps = assert_equals_full_field(profile, SimulationGrid(), speeds)
    assert len(set(step_counts(profile.total_length_cm, speeds, 0.1).tolist())) == 5
    assert temps.shape[0] == 5


def test_speed_sweep_in_ragged_blocks(monkeypatch):
    # blocks of 5 rows over 13 speeds: two full blocks and a tail of three
    profile = build_profile(LAYOUT, DEFAULT, 0.8)
    grid = SimulationGrid()
    varying, _ = varying_samples(profile, grid, inclusive_grid(65.0, 66.2, 0.1))
    reference = feasible_speed_interval(LAYOUT, DEFAULT, 0.8, 0.021, (65.0, 66.2))
    monkeypatch.setattr(optimize, "_BLOCK_BYTES", 5 * 8 * int(varying.max()) * (grid.stride + 1))
    assert optimize._rk4_rows(int(varying.max()) * (grid.stride + 1)) == 5
    result = feasible_speed_interval(LAYOUT, DEFAULT, 0.8, 0.021, (65.0, 66.2))
    assert result == reference
    for check in result.per_speed:
        trace, _ = simulate_speeds(profile, DEFAULT.tt5, MODEL, grid, [check.speed, 100.0])
        alone = full_field(profile, DEFAULT.tt5, grid, [check.speed])
        assert np.array_equal(trace[0], alone[0])


@pytest.mark.parametrize("grid", [(0.1, 0.5), (0.1, 0.1), (0.05, 0.25), (0.25, 0.5)])
def test_reach_is_a_sorted_search_of_the_kept_nodes(grid):
    """``_reach`` against ``np.searchsorted`` of the segment starts into the
    position of every kept node, computed as the kernel computes it.  Near
    38.8, 42.0 and 47.4 cm/min a start lies within rounding of a kept node,
    where the estimate from one division is off by one."""
    profile = build_profile(LAYOUT, DEFAULT, 0.8)
    grid = SimulationGrid(*grid)
    speeds = np.round(np.arange(30.0, 120.0, 0.1), 1)
    k_end = int(step_counts(profile.total_length_cm, speeds, grid.dt).max()) // grid.stride
    rate = cm_per_second(speeds)[:, None]
    got = _reach(rate, profile._starts, grid.dt, grid.stride, k_end)
    kept = rate * ((np.arange(k_end + 1) * grid.stride).astype(float) * grid.dt)
    want = np.array([row.searchsorted(profile._starts, side="left") for row in kept])
    assert np.array_equal(got, want)
    estimate = np.ceil(profile._starts / (rate * (grid.stride * grid.dt)))
    assert np.any(estimate != want)


def test_buffers_too_small_are_replaced():
    profile = build_profile(LAYOUT, DEFAULT, 0.8)
    grid = SimulationGrid()
    plan_buffers = _Plateaus(profile, np.array(SPEEDS[:2]), 0.1, 5, 4020).buffers(2, 0)
    small, _ = simulate_speeds(profile, 25.0, MODEL, grid, SPEEDS, plan_buffers)
    assert np.array_equal(small, full_field(profile, 25.0, grid, SPEEDS))


RANGES = ParameterRanges()


def lattice(name):
    return st.sampled_from(inclusive_grid(*getattr(RANGES, name), RANGES.temp_step))


@settings(max_examples=40, deadline=None)
@given(
    temps=st.tuples(lattice("tt1"), lattice("tt2"), lattice("tt3"), lattice("tt4")),
    weight=st.sampled_from([0.0, 0.5, 1.0]),
    speeds=st.lists(st.integers(650, 1000), min_size=2, max_size=6).map(
        lambda tenths: [t / 10.0 for t in tenths]),
    grid=st.sampled_from([(0.1, 0.5), (0.1, 0.1), (0.25, 0.25), (0.05, 0.25), (0.5, 2.5),
                          (0.2, 6.0)]),
    y0=st.sampled_from([20.0, 25.0, 30.0]),
)
@example(temps=(185.0, 185.0, 245.0, 245.0), weight=0.0, speeds=[65.0, 100.0],
         grid=(0.1, 0.5), y0=25.0)
def test_lattice_setpoints_equal_the_full_field(temps, weight, speeds, grid, y0):
    params = replace(ProcessParameters(*temps), tt5=y0)
    profile = build_profile(LAYOUT, params, weight)
    assert_equals_full_field(profile, SimulationGrid(*grid), speeds, y0)


# (dt, dt_out) pairs from dt 0.05, 0.1, 0.25 and dt_out 0.1, 0.5, 30 s
ONE_ROW_GRIDS = [(dt, dt_out) for dt in (0.05, 0.1, 0.25) for dt_out in (0.1, 0.5, 30.0)
                 if dt_out >= dt]


@settings(max_examples=60, deadline=None)
@given(
    temps=st.tuples(lattice("tt1"), lattice("tt2"), lattice("tt3"), lattice("tt4")),
    weight=st.sampled_from([0.0, 0.5, 0.8, 1.0]),
    speed=st.integers(650, 1000).map(lambda tenths: tenths / 10.0),
    grid=st.sampled_from(ONE_ROW_GRIDS),
)
@example(temps=(185.0, 185.0, 245.0, 245.0), weight=0.8, speed=65.0, grid=(0.1, 0.5))
@example(temps=(25.0, 25.0, 25.0, 25.0), weight=0.8, speed=100.0, grid=(0.05, 0.1))
@example(temps=(165.0, 185.0, 225.0, 265.0), weight=0.5, speed=65.0, grid=(0.1, 500.0))
def test_one_row_simulate_equals_the_full_field(temps, weight, speed, grid):
    """``simulate`` is the one-row case of the compacted kernel.  dt_out 500 s
    is longer than the 402 s transit at 65 cm/min: the trace is one sample."""
    params = ProcessParameters(*temps, belt_speed=speed)
    profile = build_profile(LAYOUT, params, weight)
    grid = SimulationGrid(*grid)
    trace = simulate(profile, params, MODEL, grid)
    want = full_field_rk4(profile, params.tt5, MODEL.coefficient, grid, [speed])[0]
    assert np.array_equal(trace.temps, want)
    if grid.dt_out > 402.0:
        assert trace.temps.tolist() == [params.tt5]
