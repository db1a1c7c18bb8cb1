"""The columnar sweep kernels against their one-row and per-row references.

metrics_rows measures many padded rows at once, check_rows checks their
columns, and the joint sweep's symmetry finds every row's above-217 passes
from one crossing list and interpolates every offset pair of a block at
once.  Each must equal, with exact float equality, what the one-row
functions (or a crossing loop and np.interp) give row by row, whatever the
padding holds.  The sweeps' padding lies at the furnace end, below 217
degC; here it also lies above it, where a crossing or a sample read past a
row's end would show.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflowsim.limits as limits
import reflowsim.optimize as optimize
import reflowsim.thermal as thermal
from reflowsim import (
    ParameterRanges,
    ProcessLimits,
    ProcessParameters,
    ThermalTrace,
    TraceMetrics,
    check_limits,
    compute_metrics,
    feasible_speed_interval,
    minimize_area,
    most_symmetric,
)
from reflowsim.limits import (
    MetricColumns,
    _time_above_terms,
    check_rows,
    metrics_rows,
)

from helpers import loop_above_intervals, loop_symmetry

# padding kinds: below every level, above each level, the row's maximum
PADDING = ("low", 160.0, 200.0, 230.0, "max")


@st.composite
def padded_rows(draw):
    """(times, temps, lengths, dt): rows of random lengths in one array,
    each padded to the width with one of PADDING."""
    width = draw(st.integers(2, 300))  # past 128 numpy's pairwise sum splits
    dt = draw(st.sampled_from([0.5, 0.3, 0.25]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 6))
    lengths = np.array([draw(st.integers(2, width)) for _ in range(n_rows)])
    temps = np.empty((n_rows, width))
    for row, n in zip(temps, lengths):
        t = np.linspace(0.0, 1.0, n)
        peak = rng.uniform(140.0, 260.0)
        shape = rng.choice(["bump", "walk", "levels"])
        if shape == "bump":
            row[:n] = 25.0 + (peak - 25.0) * np.sin(np.pi * t) ** rng.uniform(0.5, 3.0)
        elif shape == "walk":
            row[:n] = np.cumsum(rng.normal(0.0, 8.0, n)) + rng.uniform(120.0, 230.0)
        else:
            row[:n] = rng.choice([150.0, 190.0, 216.0, 217.0, 218.0, peak], n)
        pad = draw(st.sampled_from(PADDING))
        row[n:] = {"low": 100.0, "max": row[:n].max()}.get(pad, pad)
    return np.arange(width) * dt, temps, lengths, dt


@settings(max_examples=150, deadline=None)
@given(padded_rows())
def test_columns_equal_each_rows_own_prefix(case):
    times, temps, lengths, dt = case
    columns = metrics_rows(times, temps, lengths)
    assert len(columns) == len(temps)
    for r, (row, n) in enumerate(zip(temps, lengths.tolist())):
        own = metrics_rows(times[:n], row[None, :n])[0]
        assert columns[r] == list(columns)[r] == own
        assert own == compute_metrics(ThermalTrace(dt, 80.0, row[:n]))


@settings(max_examples=50, deadline=None)
@given(padded_rows())
def test_no_lengths_means_full_rows(case):
    times, temps, _, _ = case
    full = np.full(len(temps), temps.shape[1])
    assert list(metrics_rows(times, temps)) == list(metrics_rows(times, temps, full))


def loop_segments(xs, row, level):
    """Per segment, in a plain loop: the time above level (xs are times) and
    the area above it, by the formulas of the masked kernels they replaced."""
    above, area = [], []
    for h, p, q in zip(np.diff(xs), row[:-1], row[1:]):
        a, b = p - level, q - level
        if p > level and q > level:
            above.append(h * 1.0)
            area.append(0.5 * h * (a + b))
        elif p <= level < q:
            above.append(h * ((q - level) / (q - p)))
            area.append(0.5 * h * b * b / (b - a))
        elif q <= level < p:
            above.append(h * ((p - level) / (p - q)))
            area.append(0.5 * h * a * a / -(b - a))
        else:
            above.append(0.0)
            area.append(0.0)
    return above, area


def loop_rise(times, row):
    """Rise time by scanning for the first sample at or above each level up
    to the peak; None where either is missing."""
    peak = int(np.argmax(row))
    crossings = []
    for level in (150.0, 190.0):
        j = next((i for i in range(peak + 1) if row[i] >= level), None)
        if j is None:
            return None
        crossings.append(times[0] if j == 0 else
                         times[j - 1] + (times[j] - times[j - 1]) * (level - row[j - 1])
                         / (row[j] - row[j - 1]))
    return float(crossings[1] - crossings[0])


@settings(max_examples=100, deadline=None)
@given(padded_rows())
def test_segment_kernels_equal_the_loop(case):
    times, temps, _, _ = case
    xs = times * 1.4
    terms = _time_above_terms(times, temps, 217.0)
    areas = optimize._reflow_area_rows(xs, temps)
    rises = metrics_rows(times, temps).rise_time_150_190
    for row, row_terms, area, rise in zip(temps, terms.tolist(), areas.tolist(), rises.tolist()):
        assert row_terms == loop_segments(times, row, 217.0)[0]
        assert area == np.sum(loop_segments(xs, row, 217.0)[1])
        assert (None if math.isnan(rise) else rise) == loop_rise(times, row)


@pytest.mark.parametrize("lengths, message", [
    ([1, 4], "at least 2 samples"),
    ([4, 5], "exceed the 4 columns"),
])
def test_bad_lengths_are_refused(lengths, message):
    temps = np.full((2, 4), 200.0)
    with pytest.raises(ValueError, match=message):
        metrics_rows(np.arange(4) * 0.5, temps, np.array(lengths))


def bound_columns(limits):
    """Every combination of metrics on, just inside and just outside the
    bounds, with and without a rise time."""
    def around(x):
        return [x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)]

    rise_lo, rise_hi = limits.rise_150_190
    above_lo, above_hi = limits.time_above_217
    peak_lo, peak_hi = limits.peak
    values = [
        around(limits.slope_max),
        around(limits.slope_min),
        around(rise_lo) + around(rise_hi) + [math.nan],
        around(above_lo) + around(above_hi),
        around(peak_lo) + around(peak_hi),
    ]
    return MetricColumns(*np.array(list(itertools.product(*values))).T,
                         np.zeros(math.prod(map(len, values))))


@pytest.mark.parametrize("limits", [
    ProcessLimits(),
    ProcessLimits(slope_max=2.5, slope_min=-2.0, rise_150_190=(70.0, 70.0),
                  time_above_217=(30.0, 100.0), peak=(235.0, 255.0)),
], ids=["default", "custom"])
def test_check_rows_equals_check_limits(limits):
    columns = bound_columns(limits)
    masks = check_rows(columns, limits)
    assert masks.shape == (5, len(columns))
    passed = [0] * 5
    for r, metrics in enumerate(columns):
        verdict = check_limits(metrics, limits)
        assert masks[:, r].tolist() == [c.passed for c in verdict.checks]
        passed = [p + c.passed for p, c in zip(passed, verdict.checks)]
    # every limit both passes and fails somewhere
    assert all(0 < p < len(columns) for p in passed)


def test_missing_rise_time_fails_its_limit():
    columns = MetricColumns(*(np.array([x]) for x in (1.0, -1.0, math.nan, 60.0, 245.0, 9.0)))
    assert columns[0] == TraceMetrics(1.0, -1.0, None, 60.0, 245.0, 9.0)
    assert check_rows(columns).tolist() == [[True], [True], [False], [True], [True]]


def assert_padded_rows_equal_their_own(times, temps, lengths):
    """``_melt_passes``, ``_reflow_area_rows`` (over one xs row per row) and
    ``_symmetry_columns`` of padded rows with their lengths against the
    one-row calls on each row's own samples, bit for bit; a row's pass
    start and end only where it has a pass."""
    xs = times * np.linspace(1.0, 1.7, len(temps))[:, None]
    passes, starts, ends = optimize._melt_passes(times, temps, lengths)
    areas = optimize._reflow_area_rows(xs, temps, lengths)
    scores, counts = optimize._symmetry_columns(times, temps, lengths)
    assert counts.tolist() == passes.tolist()
    for r, n in enumerate(lengths.tolist()):
        row = temps[r : r + 1, :n]
        own_passes, own_starts, own_ends = optimize._melt_passes(times[:n], row)
        assert passes[r] == own_passes[0]
        if passes[r]:
            assert (starts[r], ends[r]) == (own_starts[0], own_ends[0])
        assert areas[r] == optimize._reflow_area_rows(xs[r, :n], row)[0]
        own_score, _ = optimize._symmetry_columns(times[:n], row)
        assert undefined_as_none(scores[r : r + 1]) == undefined_as_none(own_score)


def assert_passes_equal_the_loop(times, rows):
    """``_melt_passes`` against the crossing loop: the number of passes,
    and the first start and last end where there is one, bit for bit."""
    passes, starts, ends = optimize._melt_passes(times, rows)
    for row, n, start, end in zip(rows, passes.tolist(), starts.tolist(), ends.tolist()):
        intervals = loop_above_intervals(times, row, 217.0)
        assert n == len(intervals)
        if intervals:
            assert (start, end) == (intervals[0][0], intervals[-1][1])


# 13 samples each, 0.5 s apart, and the passes each should give
SYMMETRY_CASES = {
    # crossings exactly on samples 2 and 10: every query lies on a sample
    "on samples": ([200, 210, 217, 220, 226, 229, 231, 228, 224, 219, 217, 205, 190], 1),
    # the pass runs to the end, where the last right query is the last sample
    "to the last sample": ([200, 210, 217, 222, 230, 235, 236, 237, 238, 236, 233, 229, 225], 1),
    # a pass shorter than two offsets: k = 0
    "k = 0": ([200, 216, 218, 216, 200, 190, 180, 170, 160, 150, 140, 130, 120], 1),
    "two passes": ([200, 220, 225, 210, 200, 221, 230, 222, 200, 190, 180, 170, 160], 2),
    # touches 217 from above at one sample: one pass
    "grazing": ([200, 219, 224, 217, 223, 228, 220, 210, 200, 190, 180, 170, 160], 1),
    "never above": ([200, 210, 217, 216, 200, 190, 180, 170, 160, 150, 140, 130, 120], 0),
    "all above": ([218, 230, 240, 245, 246, 245, 240, 236, 232, 228, 224, 220, 219], 1),
    "from the start": ([225, 230, 236, 238, 236, 230, 222, 215, 205, 195, 185, 175, 165], 1),
    "grazing at the start": ([219, 217, 221, 226, 230, 226, 221, 216, 205, 195, 185, 175, 165], 1),
    "ends on the line": ([200, 210, 220, 230, 235, 236, 237, 236, 233, 229, 225, 220, 217], 1),
    # two touching passes, then a third apart from them
    "grazing, a third": ([200, 220, 225, 217, 226, 217, 222, 210, 200, 224, 230, 210, 190], 2),
    # the pass starts 1e-10 s after sample 2 and runs to the end: k rounds
    # up to 5, and the last right query lies 5e-11 s past the last sample
    "past the last sample": ([200, 210, 216.999999999, 222, 230, 235, 236, 237, 238, 236, 233,
                              229, 225], 1),
}


def undefined_as_none(scores) -> list:
    """Symmetry scores as the loop gives them: None where NaN marks an
    undefined symmetry."""
    return [None if math.isnan(s) else s for s in scores.tolist()]


def test_symmetry_pairs_equal_np_interp():
    rows = np.array([values for values, _ in SYMMETRY_CASES.values()], dtype=float)
    times = np.arange(rows.shape[1]) * 0.5
    scores, passes = optimize._symmetry_columns(times, rows)
    scores = undefined_as_none(scores)
    for name, row, score in zip(SYMMETRY_CASES, rows, scores):
        assert score == loop_symmetry(times, row)[0], name
    assert passes.tolist() == [n for _, n in SYMMETRY_CASES.values()]
    assert_passes_equal_the_loop(times, rows)
    named = dict(zip(SYMMETRY_CASES, scores))
    assert named["k = 0"] == 0.0
    assert named["two passes"] is None and named["never above"] is None
    # each case whole and cut short, in blocks padded above 217 degC: with
    # 250 degC, and with the last own sample repeated
    lengths = np.array([13 - i % 7 for i in range(len(rows))])
    for full in (np.full(len(rows), 13), lengths):
        padded = np.hstack([rows, np.zeros((len(rows), 3))])
        beyond = np.arange(padded.shape[1]) >= full[:, None]
        padded[beyond] = 250.0
        times = np.arange(padded.shape[1]) * 0.5
        assert_padded_rows_equal_their_own(times, padded, full)
        padded[beyond] = np.repeat(padded[np.arange(len(rows)), full - 1],
                                   padded.shape[1] - full)
        assert_padded_rows_equal_their_own(times, padded, full)


@settings(max_examples=100, deadline=None)
@given(padded_rows())
def test_symmetry_of_random_rows_equals_the_loop(case):
    times, temps, lengths, _ = case
    scores, _ = optimize._symmetry_columns(times, temps)
    assert undefined_as_none(scores) == [loop_symmetry(times, row)[0] for row in temps]
    assert_passes_equal_the_loop(times, temps)
    assert_padded_rows_equal_their_own(times, temps, lengths)


def test_interp_rows_equals_np_interp():
    rng = np.random.default_rng(3)
    times = np.arange(40) * 0.3
    temps = rng.uniform(100.0, 250.0, (3, 40))
    # every sample, beyond both ends, and in between
    x = np.concatenate((times, [-0.2, times[-1] + 0.1], rng.uniform(0.0, times[-1], 30)))
    queries = np.array([rng.permutation(x) for _ in temps])
    got = optimize._interp_rows(queries, times, temps, np.arange(len(temps)))
    for q, row, g in zip(queries, temps, got):
        assert g.tolist() == np.interp(q, times, row).tolist()


@pytest.mark.parametrize("dt", [0.1, 0.25, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("padded", [False, True])
def test_interp_rows_brackets_at_sample_boundaries(dt, padded):
    """Queries on every sample, one ulp either side of it, before the first
    and past the last: where the floor(x / dt) estimate needs its
    correction.  Padded rows hold 250 degC past their own samples."""
    rng = np.random.default_rng(int(dt * 10) + padded)
    width = 60
    times = np.arange(width) * dt
    temps = rng.uniform(100.0, 250.0, (4, width))
    counts = np.array([width, 2, 31, 59]) if padded else None
    own = counts if padded else np.full(4, width)
    for row, n in zip(temps, own):
        row[n:] = 250.0
    x = np.concatenate((times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
                        [-dt, -1e-300, times[-1] + dt, 1e300]))
    queries = np.array([rng.permutation(x) for _ in temps])
    rows = np.array([2, 0, 3, 1])  # each row of x reads another row of temps
    got = optimize._interp_rows(queries, times, temps, rows,
                                None if counts is None else counts[rows])
    for q, r, g in zip(queries, rows, got):
        n = own[r]
        assert g.tolist() == np.interp(q, times[:n], temps[r, :n]).tolist()


def loop_slope_extremes(row, dt):
    slopes = np.diff(row) / dt
    return np.max(slopes), np.min(slopes)


def test_slope_extremes_equal_those_of_the_divided_differences():
    """Only the two extremes are divided by dt, bit for bit as the extremes
    of ``np.diff(temps) / dt``: on rows with tied extremes, all rising, all
    falling, and padded rows read over their own segments."""
    rng = np.random.default_rng(5)
    rows = [rng.uniform(20.0, 250.0, 40), np.tile([20.0, 23.0, 19.0], 14)[:40],
            np.cumsum(rng.uniform(0.01, 3.0, 40)), -np.cumsum(rng.uniform(0.01, 3.0, 40)),
            np.full(40, 217.0), np.linspace(0.0, 1.0, 40) ** 3]
    temps = np.array(rows)
    for dt in (0.1, 0.3, 0.5, 1.0 / 3.0):
        hi, lo = limits._slope_extremes(temps, dt)
        assert list(zip(hi.tolist(), lo.tolist())) == [loop_slope_extremes(r, dt) for r in temps]
        lengths = np.array([40, 2, 17, 33, 3, 25])
        padded = temps.copy()
        for row, n in zip(padded, lengths):
            row[n:] = [1e6, -1e6] * ((40 - n) // 2) + [1e6] * ((40 - n) % 2)
        segments = (np.arange(40) < lengths[:, None])[:, 1:]
        hi, lo = limits._slope_extremes(padded, dt, segments)
        assert list(zip(hi.tolist(), lo.tolist())) == [
            loop_slope_extremes(r[:n], dt) for r, n in zip(temps, lengths)]


# RK4 blocks of 12 rows in the speed sweep below, where a row's largest
# array per stage is the 984 nodes of its 164 varying samples at 65 cm/min,
# and of 13 to 15 rows in the joint sweep; 7 bytes fewer give the same, one
# byte gives one row per block and 64 MB every row in one block
BLOCK_BYTES = (8 * 4021 * 3, 8 * 4021 * 3 - 7, 1, 1 << 26)


def test_speed_sweep_does_not_depend_on_the_block_size(layout, monkeypatch):
    params = ProcessParameters(tt1=165.0, tt2=185.0, tt3=225.0, tt4=265.0)
    reference = feasible_speed_interval(layout, params, 0.8, 0.021, speed_step=0.3)
    assert len(reference.feasible_speeds) > 0
    for block_bytes in BLOCK_BYTES:
        monkeypatch.setattr(thermal, "_BLOCK_BYTES", block_bytes)
        assert feasible_speed_interval(layout, params, 0.8, 0.021, speed_step=0.3) == reference


JOINT = ParameterRanges(tt1=(165.0, 175.0), tt2=(185.0, 195.0), tt3=(225.0, 235.0),
                        tt4=(265.0, 265.0), belt_speed=(70.0, 80.0), temp_step=5.0,
                        speed_step=5.0)


@pytest.mark.parametrize("sweep", [minimize_area, most_symmetric])
def test_joint_sweep_does_not_depend_on_the_block_size(layout, monkeypatch, sweep):
    reference = sweep(layout, JOINT, 0.8, 0.021)
    assert reference.best is not None
    for block_bytes in BLOCK_BYTES:
        monkeypatch.setattr(thermal, "_BLOCK_BYTES", block_bytes)
        assert sweep(layout, JOINT, 0.8, 0.021) == reference


def test_joint_sweep_checks_limits_only_for_the_winner(layout, monkeypatch):
    calls = []

    def counted(metrics, limits=None):
        calls.append(metrics)
        return check_limits(metrics, limits)

    monkeypatch.setattr(optimize, "check_limits", counted)
    result = minimize_area(layout, JOINT, 0.8, 0.021)
    assert calls == [result.best.metrics]
    assert sum(c.feasible for c in result.candidates) > 1
