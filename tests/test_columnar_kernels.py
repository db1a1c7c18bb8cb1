"""The columnar sweep kernels against their one-row and per-row references.

metrics_rows measures many padded rows at once, check_rows checks their
columns, and the joint sweep's symmetry interpolates every offset pair of a
block at once.  Each must equal, with exact float equality, what the one-row
functions (or np.interp) give row by row, whatever the padding holds.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflowsim.optimize as optimize
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
from reflowsim.limits import MetricColumns, _time_above_terms, check_rows, metrics_rows

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
    columns = metrics_rows(times, temps, dt, lengths)
    assert len(columns) == len(temps)
    for r, (row, n) in enumerate(zip(temps, lengths.tolist())):
        own = metrics_rows(times[:n], row[None, :n], dt)[0]
        assert columns[r] == list(columns)[r] == own
        assert own == compute_metrics(ThermalTrace.from_temps(dt, 80.0, row[:n]))


@settings(max_examples=50, deadline=None)
@given(padded_rows())
def test_no_lengths_means_full_rows(case):
    times, temps, _, dt = case
    full = np.full(len(temps), temps.shape[1])
    assert list(metrics_rows(times, temps, dt)) == list(metrics_rows(times, temps, dt, full))


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
    times, temps, _, dt = case
    xs = times * 1.4
    terms = _time_above_terms(times, temps, 217.0)
    areas = optimize._reflow_area_rows(xs, temps)
    rises = metrics_rows(times, temps, dt).rise_time_150_190
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
        metrics_rows(np.arange(4) * 0.5, temps, 0.5, np.array(lengths))


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


def loop_symmetry(times, row, offset_step):
    """The per-row np.interp loop that the vectorised pairs replaced."""
    passes, t1s, t2s = optimize._melt_passes(times, row[None])
    if passes[0] != 1:
        return None
    t1, t2 = float(t1s[0]), float(t2s[0])
    center = 0.5 * (t1 + t2)
    k = int(np.floor(0.5 * (t2 - t1) / offset_step + 1e-9))
    if k == 0:
        return 0.0
    offsets = (np.arange(k) + 1) * offset_step
    left = np.interp(center - offsets, times, row)
    right = np.interp(center + offsets, times, row)
    return float(np.sum((left - right) ** 2))


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
}


@pytest.mark.parametrize("offset_step", [0.5, 0.3, 1.0])
def test_symmetry_pairs_equal_np_interp(offset_step):
    rows = np.array([values for values, _ in SYMMETRY_CASES.values()], dtype=float)
    times = np.arange(rows.shape[1]) * 0.5
    scores, passes = optimize._symmetry_rows(times, rows, offset_step)
    for name, row, score in zip(SYMMETRY_CASES, rows, scores):
        assert score == loop_symmetry(times, row, offset_step), name
    assert passes.tolist() == [n for _, n in SYMMETRY_CASES.values()]
    named = dict(zip(SYMMETRY_CASES, scores))
    assert named["k = 0"] == 0.0
    assert named["two passes"] is None and named["never above"] is None


@settings(max_examples=100, deadline=None)
@given(padded_rows(), st.sampled_from([0.5, 0.3, 1.25]))
def test_symmetry_of_random_rows_equals_the_loop(case, offset_step):
    times, temps, _, _ = case
    scores, _ = optimize._symmetry_rows(times, temps, offset_step)
    assert scores == [loop_symmetry(times, row, offset_step) for row in temps]


def test_interp_rows_equals_np_interp():
    rng = np.random.default_rng(3)
    times = np.arange(40) * 0.3
    temps = rng.uniform(100.0, 250.0, (3, 40))
    # every sample, beyond both ends, and in between
    x = np.concatenate((times, [-0.2, times[-1] + 0.1], rng.uniform(0.0, times[-1], 30)))
    queries = np.array([rng.permutation(x) for _ in temps])
    got = optimize._interp_rows(queries, times, temps)
    for q, row, g in zip(queries, temps, got):
        assert g.tolist() == np.interp(q, times, row).tolist()


@st.composite
def block_sizes(draw):
    rk4_rows = draw(st.integers(1, 50))
    n_samples = draw(st.integers(1, 5000))
    capacity = rk4_rows * n_samples * draw(st.integers(1, 20))
    return rk4_rows, n_samples, capacity


@given(block_sizes(), st.sampled_from([1, 1000, 1 << 18, 1 << 24]))
def test_sample_blocks_hold_whole_rk4_blocks_within_the_buffer(sizes, block_bytes):
    rk4_rows, n_samples, capacity = sizes
    old = optimize._BLOCK_BYTES
    optimize._BLOCK_BYTES = block_bytes
    try:
        rows = optimize._sample_block_rows(rk4_rows, n_samples, capacity)
    finally:
        optimize._BLOCK_BYTES = old
    assert rows % rk4_rows == 0 and rows >= rk4_rows
    assert rows * n_samples <= capacity


# RK4 blocks of 3 rows at 65 cm/min (4,020 steps, 805 samples) in sample
# blocks of 12 rows; 7 bytes fewer give 2 and 14 rows
BLOCK_BYTES = (8 * 4021 * 3, 8 * 4021 * 3 - 7, 1, 1 << 26)


def test_speed_sweep_does_not_depend_on_the_block_size(layout, monkeypatch):
    params = ProcessParameters(tt1=165.0, tt2=185.0, tt3=225.0, tt4=265.0)
    reference = feasible_speed_interval(layout, params, 0.8, 0.021, speed_step=0.3)
    assert len(reference.feasible_speeds) > 0
    for block_bytes in BLOCK_BYTES:
        monkeypatch.setattr(optimize, "_BLOCK_BYTES", block_bytes)
        assert feasible_speed_interval(layout, params, 0.8, 0.021, speed_step=0.3) == reference


JOINT = ParameterRanges(tt1=(165.0, 175.0), tt2=(185.0, 195.0), tt3=(225.0, 235.0),
                        tt4=(265.0, 265.0), belt_speed=(70.0, 80.0), temp_step=5.0,
                        speed_step=5.0)


@pytest.mark.parametrize("sweep", [minimize_area, most_symmetric])
def test_joint_sweep_does_not_depend_on_the_block_size(layout, monkeypatch, sweep):
    reference = sweep(layout, JOINT, 0.8, 0.021)
    assert reference.best is not None
    for block_bytes in BLOCK_BYTES:
        monkeypatch.setattr(optimize, "_BLOCK_BYTES", block_bytes)
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
