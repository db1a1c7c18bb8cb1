"""The compacted kernel's field against ``ambient_at``.

``thermal._Plateaus.field`` evaluates the ambient field only at the stages
of the samples that touch a sigmoid, the cooling blend or a segment join,
and at one sample per plateau that stands for every sample wholly inside
it.  For every sample of every row, the field the kernel takes (its own
sample's, or its plateau's) must equal exactly what the generic
``ambient_at`` gives at that sample's stage positions, which come from the
full-field ``stage_positions`` of ``tests/helpers.py``.  ``FieldRows``,
which evaluates the field of those samples, must refuse what
``ambient_at`` refuses, with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflowsim import (
    ParameterRanges,
    ProcessParameters,
    SimulationGrid,
    ambient_at,
    build_profile,
    inclusive_grid,
)
from reflowsim.ambient import FieldRows, _level_columns
from reflowsim.oven import default_layout
from reflowsim.thermal import _Buffers, _Plateaus, step_counts

from helpers import stage_positions

LAYOUT = default_layout()
RANGES = ParameterRanges()
# tt1 = tt2 and tt3 = tt4 merge plateaus: fewer segments, other boundaries
MERGED = (185.0, 185.0, 245.0, 245.0)


def lattice(name):
    return st.sampled_from(inclusive_grid(*getattr(RANGES, name), RANGES.temp_step))


setpoints = st.tuples(lattice("tt1"), lattice("tt2"), lattice("tt3"), lattice("tt4"))
weights = st.sampled_from([0.0, 0.5, 1.0])


def profile_of(temps, weight):
    tt1, tt2, tt3, tt4 = temps
    return build_profile(LAYOUT, ProcessParameters(tt1=tt1, tt2=tt2, tt3=tt3, tt4=tt4), weight)


def kernel_field(profile, speeds, grid):
    """Per row and sample, the field the compacted kernel takes at the
    sample's s + 1 nodes and s midpoints: shape (rows, samples, 2s + 1)."""
    n_steps = step_counts(profile.total_length_cm, speeds, grid.dt)
    plan = _Plateaus(profile, speeds, grid.dt, grid.stride, int(n_steps.max()))
    own, source, blend = plan.field(_Buffers())
    columns = np.concatenate((own.fill(_level_columns([profile]))[0], blend), axis=1)
    return columns[:, source].transpose(1, 2, 0)


def stage_field(profile, speeds, grid):
    """``ambient_at`` at the same stages, from the full-field positions."""
    x_nodes, x_mid, n_steps = stage_positions(profile.total_length_cm, speeds, grid.dt)
    s = grid.stride
    first = s * np.arange(int(n_steps.max()) // s)[:, None]
    x = np.concatenate((x_nodes[:, first + np.arange(s + 1)], x_mid[:, first + np.arange(s)]),
                       axis=2)
    return ambient_at(profile, x)


# speeds of one padded block, 65-100 cm/min in 0.1 steps
speed_blocks = st.lists(st.integers(650, 1000), min_size=1, max_size=8).map(
    lambda tenths: np.array(tenths) / 10.0)


@settings(max_examples=60, deadline=None)
@given(temps=setpoints, weight=weights, speeds=speed_blocks,
       grid=st.sampled_from([(0.1, 0.5), (0.1, 0.1), (0.5, 0.5), (5.0, 5.0), (5.0, 10.0)]))
@example(temps=MERGED, weight=0.0, speeds=np.array([65.0, 82.3, 100.0]), grid=(0.1, 0.5))
@example(temps=MERGED, weight=1.0, speeds=np.array([65.0]), grid=(5.0, 5.0))
def test_stage_blocks_equal_ambient_at(temps, weight, speeds, grid):
    """Padded blocks of rows as ``simulate_speeds`` lays them out.  At dt 5.0
    a step (5.4 cm and more) jumps over a whole 5 cm sigmoid gap."""
    profile = profile_of(temps, weight)
    grid = SimulationGrid(*grid)
    assert np.array_equal(kernel_field(profile, speeds, grid), stage_field(profile, speeds, grid))


@st.composite
def hand_built_positions(draw):
    """(profile, x): rows of positions drawn from the segment starts, 0, the
    furnace end and points between, in any order."""
    profile = profile_of(draw(setpoints), draw(weights))
    total = profile.total_length_cm
    marks = [0.0, total, *(seg.x_start for seg in profile.segments)]
    point = st.one_of(st.sampled_from(marks), st.floats(0.0, total))
    width = draw(st.integers(1, 24))
    rows = draw(st.lists(st.lists(point, min_size=width, max_size=width), min_size=1,
                         max_size=4))
    return profile, np.array(rows)


def field_rows(profile, x):
    return FieldRows(profile, x).fill(_level_columns([profile]))[0]


@settings(max_examples=200, deadline=None)
@given(hand_built_positions())
def test_hand_built_runs_equal_ambient_at(case):
    profile, x = case
    assert np.array_equal(field_rows(profile, x), ambient_at(profile, x))


def test_positions_on_segment_starts_take_the_later_segment(profile):
    starts = [seg.x_start for seg in profile.segments]
    x = np.array([starts + [profile.total_length_cm] * 2])
    levels = field_rows(profile, x)
    assert np.array_equal(levels, ambient_at(profile, x))
    assert levels[0, :2].tolist() == [25.0, 175.0]
    assert levels[0, -2:].tolist() == [25.0, 25.0]


@settings(max_examples=100, deadline=None)
@given(case=hand_built_positions(), data=st.data())
def test_out_of_range_run_raises_as_ambient_at(case, data):
    profile, x = case
    total = profile.total_length_cm
    row = data.draw(st.integers(0, len(x) - 1))
    col = data.draw(st.integers(0, x.shape[1] - 1))
    x[row, col] = data.draw(st.sampled_from([-1e-9, -0.5, -math.inf, math.nan,
                                             total + 1e-9, total + 3.0, math.inf]))
    with pytest.raises(ValueError, match="position outside furnace") as expected:
        ambient_at(profile, x)
    with pytest.raises(ValueError) as got:
        FieldRows(profile, x)
    assert str(got.value) == str(expected.value)
