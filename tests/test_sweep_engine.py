"""The batched joint-sweep engine against the per-candidate chain.

The engine evaluates all setpoint combinations that share a segment geometry
at one belt speed as one 2-D array.  Every candidate it returns must equal,
with exact float equality, the one built by build_profile -> simulate ->
compute_metrics -> check_limits -> reflow_area -> symmetry_score.
"""

import math

import numpy as np
import pytest

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
    inclusive_grid,
    minimize_area,
    most_symmetric,
    reflow_area,
    simulate,
    symmetry_score,
)
from reflowsim.ambient import FieldRows, _level_columns
from reflowsim.limits import metrics_rows

from helpers import ambient_reference, geometry_key, loop_symmetry

# tt1 = tt2 = 185 merges zones 1-6 into one plateau: a second geometry.
MERGED_TT1_TT2 = ParameterRanges(
    tt1=(175.0, 185.0), tt2=(185.0, 195.0), tt3=(225.0, 225.0), tt4=(265.0, 265.0),
    belt_speed=(75.0, 85.0), temp_step=5.0, speed_step=5.0,
)
# tt3 = tt4 = 245 merges zones 7-9; tt4 also moves the cooling blend.
MERGED_TT3_TT4 = ParameterRanges(
    tt1=(165.0, 165.0), tt2=(185.0, 185.0), tt3=(240.0, 245.0), tt4=(245.0, 250.0),
    belt_speed=(70.0, 80.0), temp_step=5.0, speed_step=10.0,
)
GRIDS = {"tt1=tt2": MERGED_TT1_TT2, "tt3=tt4": MERGED_TT3_TT4}
SWEEPS = {"area": minimize_area, "symmetry": most_symmetric}


def chain(layout, params, grid, limits, area_domain):
    """One candidate through the public per-candidate functions."""
    trace = simulate(build_profile(layout, params, 0.8), params, WeldingModel(0.021), grid)
    metrics = compute_metrics(trace)
    try:
        symmetry = symmetry_score(trace)
    except ValueError:
        symmetry = None
    return SweepCandidate(params, metrics, reflow_area(trace, area_domain), symmetry,
                          check_limits(metrics, limits).passed)


def grid_points(ranges):
    """Setpoint combinations in sweep order, then speeds."""
    return [
        (a, b, c, d, v)
        for a in inclusive_grid(*ranges.tt1, ranges.temp_step)
        for b in inclusive_grid(*ranges.tt2, ranges.temp_step)
        for c in inclusive_grid(*ranges.tt3, ranges.temp_step)
        for d in inclusive_grid(*ranges.tt4, ranges.temp_step)
        for v in inclusive_grid(*ranges.belt_speed, ranges.speed_step)
    ]


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_grids_hold_several_geometries(layout, name):
    ranges = GRIDS[name]
    keys = {geometry_key(build_profile(layout, ProcessParameters(*pt[:4]), 0.8))
            for pt in grid_points(ranges)}
    assert len(keys) >= 2


@pytest.mark.parametrize("objective", sorted(SWEEPS))
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_candidates_equal_the_per_candidate_chain(layout, name, objective):
    ranges = GRIDS[name]
    result = SWEEPS[objective](layout, ranges, 0.8, 0.021)
    assert [c.key() for c in result.candidates] == grid_points(ranges)
    grid, limits = SimulationGrid(), ProcessLimits()
    for cand in result.candidates:
        assert cand == chain(layout, cand.params, grid, limits, "position")
    parallel = SWEEPS[objective](layout, ranges, 0.8, 0.021, workers=2)
    assert parallel == result


def test_non_default_grid_limits_and_domain(layout):
    grid = SimulationGrid(dt=0.05, dt_out=0.25)
    limits = ProcessLimits(slope_max=2.5, peak=(235.0, 255.0))
    result = minimize_area(layout, MERGED_TT3_TT4, 0.8, 0.021, grid=grid, limits=limits,
                           area_domain="time")
    for cand in result.candidates:
        assert cand == chain(layout, cand.params, grid, limits, "time")


def test_block_size_does_not_change_results(layout, monkeypatch):
    reference = most_symmetric(layout, MERGED_TT1_TT2, 0.8, 0.021)
    for block_bytes in (1, 100_000):  # one row per block, then a few
        monkeypatch.setattr(thermal, "_BLOCK_BYTES", block_bytes)
        assert most_symmetric(layout, MERGED_TT1_TT2, 0.8, 0.021) == reference


def test_bad_area_domain_is_rejected_before_any_work(layout):
    with pytest.raises(ValueError, match="domain"):
        minimize_area(layout, MERGED_TT1_TT2, 0.8, 0.021, area_domain="volume")


class TestFieldRows:
    def profiles(self, layout):
        return [build_profile(layout, ProcessParameters(a, b, 225.0, 265.0), 0.8)
                for a in (165.0, 175.0, 180.0) for b in (190.0, 205.0)]

    def test_rows_equal_the_reference(self, layout):
        profiles = self.profiles(layout)
        assert len({geometry_key(p) for p in profiles}) == 1
        rng = np.random.default_rng(7)
        sorted_x = np.linspace(0.0, layout.total_length_cm, 2001)
        shuffled = rng.permutation(np.concatenate((sorted_x, [25.0, 90.5, 435.5])))
        for x in (sorted_x, shuffled):
            rows = FieldRows(profiles[0], x).fill(_level_columns(profiles))
            for profile, row in zip(profiles, rows):
                assert np.array_equal(row, ambient_reference(profile, x))

    def test_positions_outside_the_furnace(self, layout):
        with pytest.raises(ValueError, match="outside"):
            FieldRows(self.profiles(layout)[0], np.array([0.0, 436.0]))

    def test_merged_plateau_changes_the_geometry(self, layout):
        split = build_profile(layout, ProcessParameters(180.0, 185.0, 225.0, 265.0), 0.8)
        merged = build_profile(layout, ProcessParameters(185.0, 185.0, 225.0, 265.0), 0.8)
        assert geometry_key(split) != geometry_key(merged)

    def test_blend_endpoint_is_part_of_the_geometry(self, layout):
        cooler = build_profile(layout, ProcessParameters(tt4=255.0), 0.8)
        hotter = build_profile(layout, ProcessParameters(tt4=260.0), 0.8)
        assert geometry_key(cooler) != geometry_key(hotter)


def reference_rise(trace):
    """Rise time from the per-level scan the batched metrics replaced."""

    def first_crossing(level, end_idx):
        reached = np.nonzero(trace.temps[: end_idx + 1] >= level)[0]
        if reached.size == 0:
            return None
        j = int(reached[0])
        if j == 0:
            return float(trace.times[0])
        t0, t1 = trace.times[j - 1], trace.times[j]
        y0, y1 = trace.temps[j - 1], trace.temps[j]
        return float(t0 + (t1 - t0) * (level - y0) / (y1 - y0))

    peak = int(np.argmax(trace.temps))
    low, high = first_crossing(150.0, peak), first_crossing(190.0, peak)
    return None if low is None or high is None else high - low


def awkward_rows(rng, n):
    """Traces that start or end above 217, graze it, cross it often, reach
    190 only at the peak, or never reach it."""
    t = np.linspace(0.0, 1.0, n)
    i = np.arange(n)
    levels = np.array([150.0, 190.0, 216.0, 217.0, 218.0, 245.0])
    return np.array([
        rng.uniform(200.0, 235.0, n),
        rng.choice(levels, n),
        25.0 + 220.0 * np.abs(np.sin(2.0 * np.pi * t)),
        np.where(i % 7 == 3, 217.0, 230.0),
        np.cumsum(rng.normal(0.0, 6.0, n)) + 210.0,
        np.select([i == n // 2, i == n // 2 - 1], [200.0, 160.0], 120.0),
        100.0 + 70.0 * t,
    ])


@pytest.mark.parametrize("dt", [0.5, 0.3])  # 0.3 s steps round inexactly
@pytest.mark.parametrize("seed", range(6))
def test_vectorised_crossings_equal_the_loop(seed, dt):
    rng = np.random.default_rng(seed)
    rows = awkward_rows(rng, int(rng.integers(2, 80)))
    times = np.arange(rows.shape[1]) * dt
    batched_metrics = metrics_rows(times, rows)
    batched, passes = optimize._symmetry_columns(times, rows)
    for row, metrics, score, count in zip(rows, batched_metrics, batched.tolist(), passes):
        score = None if math.isnan(score) else score
        trace = ThermalTrace(dt, 80.0, row)
        want, want_count = loop_symmetry(trace.times, trace.temps)
        assert (score, count) == (want, want_count)
        assert metrics == compute_metrics(trace)
        assert metrics.rise_time_150_190 == reference_rise(trace)
        if want_count == 1:
            assert symmetry_score(trace) == want
        else:
            with pytest.raises(ValueError, match="symmetry undefined"):
                symmetry_score(trace)
