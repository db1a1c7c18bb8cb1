"""The plateau-compacted joint sweep against two references.

Per geometry group, with one plan for all belt speeds, the joint sweep
computes the field, forcing and Horner sums only for the samples that touch
a sigmoid, the cooling blend or a segment join (``thermal._Plateaus``);
every sample wholly inside a plateau takes its level's Horner sum.  A group
of one row runs as the speed sweep does, in padded blocks of speeds.  Every
candidate must equal, with exact float equality:

* the per-candidate chain: build_profile -> simulate -> compute_metrics ->
  check_limits -> reflow_area -> symmetry_score;
* the full-field reference kept here: a geometry group's profiles as rows of
  two full-width ``FieldRows`` (nodes and midpoints) through the
  ``integrate_rows`` oracle of ``tests/helpers.py``, measured by the same
  public functions.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reflowsim.optimize as optimize
import reflowsim.thermal as thermal
from reflowsim import (
    ParameterRanges,
    ProcessLimits,
    ProcessParameters,
    SimulationGrid,
    SweepCandidate,
    ThermalTrace,
    WeldingModel,
    build_profile,
    check_limits,
    compute_metrics,
    default_layout,
    feasible_speed_interval,
    inclusive_grid,
    minimize_area,
    most_symmetric,
    reflow_area,
    simulate,
    symmetry_score,
)
from reflowsim.ambient import FieldRows, _level_columns

from helpers import geometry_key, integrate_rows, stage_positions

LAYOUT = default_layout()
COEFFICIENT = 0.021
# tt1 = tt2 = 185 and tt3 = tt4 = 245 merge plateaus; the speeds span the
# default range
MERGED = ParameterRanges(tt1=(180.0, 185.0), tt2=(185.0, 190.0), tt3=(240.0, 245.0),
                         tt4=(245.0, 250.0), belt_speed=(65.0, 100.0), temp_step=5.0,
                         speed_step=17.5)
# one group of 42 profiles and one of 3 (tt1 = tt2 = 185)
GROUPS = ParameterRanges(tt1=(165.0, 185.0), tt2=(185.0, 195.0), tt3=(225.0, 235.0),
                         tt4=(265.0, 265.0), belt_speed=(65.0, 100.0), temp_step=5.0,
                         speed_step=17.5)


def grid_params(ranges):
    """Setpoint combinations in sweep order."""
    return [
        ProcessParameters(tt1=a, tt2=b, tt3=c, tt4=d)
        for a in inclusive_grid(*ranges.tt1, ranges.temp_step)
        for b in inclusive_grid(*ranges.tt2, ranges.temp_step)
        for c in inclusive_grid(*ranges.tt3, ranges.temp_step)
        for d in inclusive_grid(*ranges.tt4, ranges.temp_step)
    ]


def measured(params, trace, limits, area_domain):
    """A candidate from its trace, through the public functions."""
    metrics = compute_metrics(trace)
    try:
        symmetry = symmetry_score(trace)
    except ValueError:
        symmetry = None
    return SweepCandidate(params, metrics, reflow_area(trace, area_domain), symmetry,
                          check_limits(metrics, limits).passed)


def chain(params, weight, grid, limits, area_domain):
    trace = simulate(build_profile(LAYOUT, params, weight), params, WeldingModel(COEFFICIENT),
                     grid)
    return measured(params, trace, limits, area_domain)


def full_field(ranges, weight, grid, limits, area_domain):
    """Every grid candidate, in sweep order, with each geometry group's
    field at every node and midpoint."""
    params = grid_params(ranges)
    speeds = inclusive_grid(*ranges.belt_speed, ranges.speed_step)
    profiles = [build_profile(LAYOUT, p, weight) for p in params]
    groups = {}
    for i, profile in enumerate(profiles):
        groups.setdefault(geometry_key(profile), []).append(i)
    found = {}
    for idx in groups.values():
        group = [profiles[i] for i in idx]
        y0 = np.array([params[i].tt5 for i in idx])
        for v in speeds:
            x_nodes, x_mid, _ = stage_positions(LAYOUT.total_length_cm, [v], grid.dt)
            levels = _level_columns(group)
            temps = integrate_rows(FieldRows(group[0], x_nodes[0]).fill(levels),
                                   FieldRows(group[0], x_mid[0]).fill(levels), y0, COEFFICIENT,
                                   grid)
            for i, row in zip(idx, temps):
                trace = ThermalTrace(grid.dt_out, v, row)
                found[i, v] = measured(replace(params[i], belt_speed=v), trace, limits,
                                       area_domain)
    return [found[i, v] for i in range(len(params)) for v in speeds]


def assert_equals_both(ranges, sweep=minimize_area, weight=0.8, grid=None, limits=None,
                       area_domain="position", workers=1):
    grid = grid if grid is not None else SimulationGrid()
    limits = limits if limits is not None else ProcessLimits()
    result = sweep(LAYOUT, ranges, weight, COEFFICIENT, grid=grid, limits=limits,
                   area_domain=area_domain, workers=workers)
    assert list(result.candidates) == full_field(ranges, weight, grid, limits, area_domain)
    for cand in result.candidates:
        assert cand == chain(cand.params, weight, grid, limits, area_domain)
    return result


def test_merged_plateaus():
    # with or without each merge; tt4 also moves the cooling blend
    profiles = [build_profile(LAYOUT, p, 0.8) for p in grid_params(MERGED)]
    assert len({geometry_key(p) for p in profiles}) == 6
    assert len(assert_equals_both(MERGED).candidates) == 16 * 3


@pytest.mark.parametrize("grid", [(0.1, 0.1), (0.05, 0.25), (0.25, 0.5), (0.1, 5.0),
                                  (0.1, 30.0)],
                         ids=["stride-1", "dt-0.05", "dt-0.25", "dt-out-5", "dt-out-30"])
def test_other_integration_grids(grid):
    assert_equals_both(MERGED, grid=SimulationGrid(*grid))


def test_one_plan_per_geometry_group_and_one_evaluator(monkeypatch):
    """The joint sweep evaluates each geometry group, one-row groups
    included, with one ``_Plateaus`` plan over all its speeds; the speed
    sweep is a one-profile call of the same ``_evaluate_group``."""
    plans, jobs = [], []
    plateaus, evaluate = thermal._Plateaus, optimize._evaluate_group

    def counted_plan(template, speeds, *args):
        plans.append(len(speeds))
        return plateaus(template, speeds, *args)

    def counted_evaluate(*args):
        jobs.append(len(args[-1][1]))
        return evaluate(*args)

    monkeypatch.setattr(thermal, "_Plateaus", counted_plan)
    monkeypatch.setattr(optimize, "_evaluate_group", counted_evaluate)
    minimize_area(LAYOUT, MERGED, 0.8, COEFFICIENT, workers=1)
    assert jobs == [3, 6, 3, 1, 2, 1] and plans == [3] * 6
    plans.clear()
    jobs.clear()
    feasible_speed_interval(LAYOUT, ProcessParameters(), 0.8, COEFFICIENT, speed_step=5.0)
    assert jobs == [1] and plans == [8]


def test_ragged_rk4_blocks(monkeypatch):
    # samples of 1 s: RK4 blocks of a few rows, so the groups of 42 and 3
    # rows leave ragged tails; each block is measured as it is integrated
    monkeypatch.setattr(thermal, "_BLOCK_BYTES", 8 * 4 * 1000)
    grid = SimulationGrid(0.1, 1.0)
    reference = assert_equals_both(GROUPS, sweep=most_symmetric, grid=grid)
    integrated, measured_rows = [], []
    integrate, metrics_rows = thermal._Plateaus.integrate, optimize.metrics_rows

    def counted_integrate(self, field, levels, *args):
        integrated.append(len(levels))
        return integrate(self, field, levels, *args)

    def counted_metrics(times, temps, *args):
        measured_rows.append(len(temps))
        return metrics_rows(times, temps, *args)

    monkeypatch.setattr(thermal._Plateaus, "integrate", counted_integrate)
    monkeypatch.setattr(optimize, "metrics_rows", counted_metrics)
    assert most_symmetric(LAYOUT, GROUPS, 0.8, COEFFICIENT, grid=grid) == reference
    assert integrated == measured_rows
    assert max(integrated) > min(integrated) > 0


def test_time_domain_with_two_workers():
    limits = ProcessLimits(slope_max=2.5, peak=(235.0, 255.0))
    result = assert_equals_both(GROUPS, sweep=most_symmetric, limits=limits,
                                area_domain="time", workers=2)
    assert result == most_symmetric(LAYOUT, GROUPS, 0.8, COEFFICIENT, limits=limits,
                                    area_domain="time")


RANGES = ParameterRanges()


@st.composite
def lattice_ranges(draw):
    """A small sub-lattice of the default ranges and one to three speeds."""
    bounds = {}
    for name in ("tt1", "tt2", "tt3", "tt4"):
        values = inclusive_grid(*getattr(RANGES, name), RANGES.temp_step)
        lo = draw(st.integers(0, len(values) - 1))
        hi = draw(st.integers(lo, min(lo + 1, len(values) - 1)))
        bounds[name] = (values[lo], values[hi])
    lo = draw(st.integers(650, 1000))
    hi = draw(st.integers(lo, 1000))
    step = max(hi - lo, 1) / draw(st.sampled_from([1, 2]))
    return ParameterRanges(**bounds, belt_speed=(lo / 10.0, hi / 10.0), temp_step=5.0,
                           speed_step=step / 10.0)


@settings(max_examples=15, deadline=None)
@given(ranges=lattice_ranges(), weight=st.sampled_from([0.0, 0.5, 1.0]),
       grid=st.sampled_from([(0.1, 0.5), (0.1, 0.1), (0.25, 0.25), (0.2, 1.0)]))
@example(ranges=MERGED, weight=0.0, grid=(0.1, 0.5))
def test_lattice_subsets_equal_both_references(ranges, weight, grid):
    assert_equals_both(ranges, weight=weight, grid=SimulationGrid(*grid))
