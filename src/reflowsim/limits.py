"""Manufacturability metrics of a trace and the five process-window checks.

The five quantities: extreme heating/cooling slopes, the duration of the
rising pass between 150 degC and 190 degC, the total time above the 217 degC
solder melting point, and the peak temperature.  Level crossings are located
by linear interpolation between bracketing samples, so durations are exact
for piecewise-linear traces whose vertices are sample nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .thermal import ThermalTrace

RISE_BAND_LOW_C = 150.0
RISE_BAND_HIGH_C = 190.0
MELT_C = 217.0


@dataclass(frozen=True)
class ProcessLimits:
    """Inclusive bounds on the five trace metrics."""

    slope_max: float = 3.0
    slope_min: float = -3.0
    rise_150_190: tuple[float, float] = (60.0, 120.0)
    time_above_217: tuple[float, float] = (40.0, 90.0)
    peak: tuple[float, float] = (240.0, 250.0)

    def __post_init__(self):
        # a NaN bound would fail every candidate silently
        for name in ("slope_max", "slope_min"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN, got {getattr(self, name)}")
        if self.slope_min > self.slope_max:
            raise ValueError(
                f"slope_min {self.slope_min} is above slope_max {self.slope_max}"
            )
        for name in ("rise_150_190", "time_above_217", "peak"):
            lo, hi = getattr(self, name)
            if math.isnan(lo) or math.isnan(hi):
                raise ValueError(f"{name} bounds must not be NaN, got ({lo}, {hi})")
            if lo > hi:
                raise ValueError(f"{name} interval has lower bound above upper: ({lo}, {hi})")


@dataclass(frozen=True)
class TraceMetrics:
    """Measured values of the five manufacturability quantities.

    rise_time_150_190 is None when either band edge is never reached before
    the peak.  duration_above_217 sums every interval of the super-level set,
    not just the first.
    """

    max_slope: float
    min_slope: float
    rise_time_150_190: float | None
    duration_above_217: float
    peak_temp: float
    peak_time: float

    def __post_init__(self):
        if self.min_slope > self.max_slope:
            raise ValueError("min_slope exceeds max_slope")
        if self.duration_above_217 < 0:
            raise ValueError("duration_above_217 must be non-negative")


@dataclass(frozen=True)
class LimitCheck:
    name: str
    measured: float | None
    lower: float | None
    upper: float | None
    passed: bool


@dataclass(frozen=True)
class LimitVerdict:
    """Per-limit results in fixed order; overall pass is their conjunction."""

    checks: tuple[LimitCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "checks", tuple(self.checks))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def crossing_time(t0, t1, y0, y1, level):
    """Where the line through (t0, y0) and (t1, y1) meets level."""
    return t0 + (t1 - t0) * (level - y0) / (y1 - y0)


def _slope_extremes(temps, dt: float, segments=None):
    """Per row, the largest and the smallest forward-difference slope over
    the segments where ``segments`` holds (all of them without it); the
    others count as -inf and +inf, so padding never wins.  Division by a
    positive dt is monotone, so only the extreme differences are divided."""
    diffs = np.diff(temps, axis=1)
    where = True if segments is None else segments
    return (np.max(diffs, axis=1, where=where, initial=-np.inf) / dt,
            np.min(diffs, axis=1, where=where, initial=np.inf) / dt)


def _first_crossings(times, temps, level, end_idx) -> np.ndarray:
    """Per row, the first upward crossing of level within samples
    [0, end_idx[row]]; NaN where the row does not reach it there.  A row
    already at or above level at its first sample crosses it at t[0]."""
    # no crossing past a row's end_idx counts, nor any past the latest
    reached = temps[:, : np.max(end_idx, initial=0) + 1] >= level
    # the first sample at or above level, or 0 if none is
    first = np.argmax(reached, axis=1)
    rows = np.arange(len(temps))
    hit = reached[rows, first] & (first <= end_idx)
    out = np.full(len(temps), np.nan)
    out[hit & (first == 0)] = times[0]
    # inside a row, the sample before the first hit lies below level, so
    # these denominators are positive
    r = np.flatnonzero(hit & (first > 0))
    j = first[r]
    out[r] = crossing_time(times[j - 1], times[j], temps[r, j - 1], temps[r, j], level)
    return out


def _super_level_segments(temps, level):
    """The segments of each row's linear interpolant against the strict
    super-level set {T > level}: a mask of those whose two ends both lie
    above level, and the row-major (row, segment) indices of those with one
    end above it, which cross it (a flat search finds them several times
    faster than a 2-D ``np.nonzero``).  A crossing segment has y1 != y0."""
    above = temps > level
    above0, above1 = above[:, :-1], above[:, 1:]
    return above0 & above1, np.divmod(np.flatnonzero(above0 != above1), above0.shape[1])


def _time_above_terms(times, temps, level, segments=None) -> np.ndarray:
    """Per row and segment, the time the linear interpolant spends strictly
    above level; segments is ``_super_level_segments(temps, level)`` when
    the caller has it."""
    inside, (r, c) = segments if segments is not None else _super_level_segments(temps, level)
    terms = inside.astype(float)
    # only the few crossing segments take a fraction
    a, b = temps[r, c], temps[r, c + 1]
    terms[r, c] = np.where(b > level, (b - level) / (b - a), (a - level) / (a - b))
    terms *= np.diff(times)
    return terms


def _prefix_sums(terms, counts) -> np.ndarray:
    """Per row r, ``np.sum(terms[r, :counts[r]])``, bit for bit.

    Summing zeros in the padding would change numpy's pairwise summation
    order, so each row is reduced over its own columns only; without
    padding, all rows go in one call.
    """
    counts = np.asarray(counts)
    if counts.size and counts.min() == terms.shape[1]:
        return np.sum(terms, axis=1)
    return np.array([np.add.reduce(row[:n]) for row, n in zip(terms, counts.tolist())])


@dataclass(frozen=True, eq=False)
class MetricColumns:
    """The metrics of many rows, one array per metric.

    rise_time_150_190 is NaN where a row has none.  As a sequence it holds
    each row's TraceMetrics.
    """

    max_slope: np.ndarray
    min_slope: np.ndarray
    rise_time_150_190: np.ndarray
    duration_above_217: np.ndarray
    peak_temp: np.ndarray
    peak_time: np.ndarray

    def __len__(self) -> int:
        return len(self.peak_temp)

    def __iter__(self):
        return map(_row_metrics, *(getattr(self, f.name).tolist() for f in fields(self)))

    def __getitem__(self, row: int) -> TraceMetrics:
        return _row_metrics(*(getattr(self, f.name)[row].item() for f in fields(self)))


def _row_metrics(max_slope, min_slope, rise, *rest) -> TraceMetrics:
    # NaN marks a missing rise time; it is the only value not equal to itself
    return TraceMetrics(max_slope, min_slope, rise if rise == rise else None, *rest)


def metrics_rows(times, temps, lengths=None, melt=None) -> MetricColumns:
    """The five metrics of every row of temps, sampled at times, one array
    per metric.

    Row r is measured over its first lengths[r] samples, or over all of
    them without lengths.  What follows is padding: it may hold any finite
    values and changes nothing.  Each row's values equal a one-row call on
    its own samples, bit for bit: the extremes see -inf or +inf in the
    padding, and the time above 217 degC sums each row's own terms (see
    ``_prefix_sums``).  Where every row fills temps (always without
    lengths) there is no padding, and the extremes and sums run on the rows
    as they are.  Slopes are forward differences at the sample interval
    times[1] - times[0].  The rise time
    is measured on the rising pass only: first upward crossings of 150 degC
    and 190 degC at or before the peak.  melt is
    ``_super_level_segments(temps, MELT_C)`` when the caller has it.
    """
    n_rows, width = temps.shape
    counts = np.full(n_rows, width) if lengths is None else np.asarray(lengths)
    if width < 2 or np.any(counts < 2):
        raise ValueError("metrics need at least 2 samples")
    if np.any(counts > width):
        raise ValueError(f"row lengths exceed the {width} columns of temps")
    dt = times[1] - times[0]
    if (counts == width).all():
        max_slope, min_slope = _slope_extremes(temps, dt)
        peak_idx = np.argmax(temps, axis=1)
    else:
        valid = np.arange(width) < counts[:, None]
        max_slope, min_slope = _slope_extremes(temps, dt, valid[:, 1:])
        peak_idx = np.argmax(np.where(valid, temps, -np.inf), axis=1)
    return MetricColumns(
        max_slope,
        min_slope,
        (_first_crossings(times, temps, RISE_BAND_HIGH_C, peak_idx)
         - _first_crossings(times, temps, RISE_BAND_LOW_C, peak_idx)),
        _prefix_sums(_time_above_terms(times, temps, MELT_C, melt), counts - 1),
        temps[np.arange(n_rows), peak_idx],
        times[peak_idx],
    )


def compute_metrics(trace: ThermalTrace) -> TraceMetrics:
    """Extract the five manufacturability metrics from a trace: the one-row
    case of ``metrics_rows``."""
    return metrics_rows(trace.times, trace.temps[None])[0]


def _bounds(limits: ProcessLimits):
    """The five limits in check order: (limit name, TraceMetrics field,
    lower, upper), with None for an open side."""
    return (
        ("max_slope", "max_slope", None, limits.slope_max),
        ("min_slope", "min_slope", limits.slope_min, None),
        ("rise_time_150_190", "rise_time_150_190", *limits.rise_150_190),
        ("time_above_217", "duration_above_217", *limits.time_above_217),
        ("peak_temp", "peak_temp", *limits.peak),
    )


def _within(value, lower, upper):
    """lower <= value <= upper, for a float or elementwise for an array; an
    open side (None) holds everywhere, and NaN fails."""
    lower = -math.inf if lower is None else lower
    upper = math.inf if upper is None else upper
    return (lower <= value) & (value <= upper)


def check_rows(columns: MetricColumns, limits: ProcessLimits | None = None) -> np.ndarray:
    """Pass masks of many rows, one row per limit in ``check_limits``
    order: the columnar case of ``check_limits``.  A NaN rise time (none
    measured) fails its limit."""
    limits = limits if limits is not None else ProcessLimits()
    return np.array([_within(getattr(columns, field), lower, upper)
                     for _, field, lower, upper in _bounds(limits)])


def check_limits(metrics: TraceMetrics, limits: ProcessLimits | None = None) -> LimitVerdict:
    """Check the five metrics against their bounds (all inclusive).

    An absent rise time fails its limit; nothing raises.
    """
    limits = limits if limits is not None else ProcessLimits()
    checks = []
    for name, field, lower, upper in _bounds(limits):
        measured = getattr(metrics, field)
        value = math.nan if measured is None else measured
        checks.append(LimitCheck(name, measured, lower, upper, _within(value, lower, upper)))
    return LimitVerdict(checks)
