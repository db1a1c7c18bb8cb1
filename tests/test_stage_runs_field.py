"""The speed sweep's field on sorted stage runs against ``ambient_at``.

``thermal.simulate_speeds`` evaluates the ambient field with
``ambient._ambient_on_runs``, which searches the profile's segment starts
into each sorted run of a row instead of every position into the starts.
On the same positions it must give exactly what the generic ``ambient_at``
gives, and refuse what ``ambient_at`` refuses with the same message.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflowsim import ParameterRanges, ProcessParameters, ambient_at, build_profile, inclusive_grid
from reflowsim.ambient import _ambient_on_runs
from reflowsim.oven import default_layout
from reflowsim.thermal import _split, _stages

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


def assert_equals_ambient_at(profile, x, cuts):
    assert np.array_equal(_ambient_on_runs(profile, x, cuts), ambient_at(profile, x))


# speeds of one padded block, 65-100 cm/min in 0.1 steps
speed_blocks = st.lists(st.integers(650, 1000), min_size=1, max_size=8).map(
    lambda tenths: np.array(tenths) / 10.0)


@settings(max_examples=60, deadline=None)
@given(temps=setpoints, weight=weights, speeds=speed_blocks,
       dt=st.sampled_from([0.1, 0.5, 5.0]))
@example(temps=MERGED, weight=0.0, speeds=np.array([65.0, 82.3, 100.0]), dt=0.1)
@example(temps=MERGED, weight=1.0, speeds=np.array([65.0]), dt=5.0)
def test_stage_blocks_equal_ambient_at(temps, weight, speeds, dt):
    """Padded stage arrays as ``simulate_speeds`` builds them.  At dt 5.0 a
    step (5.4 cm and more) jumps over a whole 5 cm sigmoid gap."""
    profile = profile_of(temps, weight)
    x, _ = _stages(profile.total_length_cm, speeds, dt)
    assert_equals_ambient_at(profile, x, (_split(x)[0].shape[1],))


@st.composite
def hand_built_runs(draw):
    """(profile, x, cuts): rows of sorted runs drawn from the segment starts,
    0, the furnace end (repeated at the end of a run) and points between."""
    profile = profile_of(draw(setpoints), draw(weights))
    total = profile.total_length_cm
    marks = [0.0, total, *(seg.x_start for seg in profile.segments)]
    point = st.one_of(st.sampled_from(marks), st.floats(0.0, total))
    lengths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    repeats = draw(st.integers(0, 3))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = []
        for n in lengths:
            run = sorted(draw(st.lists(point, min_size=n, max_size=n)))
            row += run + [total] * repeats
        rows.append(row)
    cuts = np.cumsum([n + repeats for n in lengths])[:-1].tolist()
    return profile, np.array(rows), cuts


@settings(max_examples=200, deadline=None)
@given(hand_built_runs())
def test_hand_built_runs_equal_ambient_at(case):
    assert_equals_ambient_at(*case)


def test_positions_on_segment_starts_take_the_later_segment(profile):
    starts = [seg.x_start for seg in profile.segments]
    x = np.array([starts + [profile.total_length_cm] * 2])
    assert_equals_ambient_at(profile, x, ())
    levels = _ambient_on_runs(profile, x, ())[0]
    assert levels[:2].tolist() == [25.0, 175.0]
    assert levels[-2:].tolist() == [25.0, 25.0]


@settings(max_examples=100, deadline=None)
@given(case=hand_built_runs(), data=st.data())
def test_out_of_range_run_raises_as_ambient_at(case, data):
    profile, x, cuts = case
    total = profile.total_length_cm
    edges = [0, *cuts, x.shape[1]]
    run = data.draw(st.integers(0, len(edges) - 2))
    row = data.draw(st.integers(0, len(x) - 1))
    if data.draw(st.booleans()):
        col = edges[run]
        x[row, col] = data.draw(st.sampled_from([-1e-9, -0.5, -math.inf, math.nan]))
    else:
        col = edges[run + 1] - 1
        x[row, col] = data.draw(st.sampled_from([total + 1e-9, total + 3.0, math.inf, math.nan]))
    with pytest.raises(ValueError, match="position outside furnace") as expected:
        ambient_at(profile, x)
    with pytest.raises(ValueError) as got:
        _ambient_on_runs(profile, x, cuts)
    assert str(got.value) == str(expected.value)
