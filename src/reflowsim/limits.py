"""Manufacturability metrics of a trace and the five process-window checks.

The five quantities: extreme heating/cooling slopes, the duration of the
rising pass between 150 degC and 190 degC, the total time above the 217 degC
solder melting point, and the peak temperature.  Level crossings are located
by linear interpolation between bracketing samples, so durations are exact
for piecewise-linear traces whose vertices are sample nodes.
"""

from __future__ import annotations

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
        for name in ("rise_150_190", "time_above_217", "peak"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} interval has lower bound above upper")


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


def _slope_extremes(temps, dt: float, segments):
    """Per row, the largest and the smallest forward-difference slope over
    the segments where ``segments`` holds; the others count as -inf and
    +inf, so padding never wins."""
    slopes = np.diff(temps, axis=1)
    slopes /= dt
    return (np.max(slopes, axis=1, where=segments, initial=-np.inf),
            np.min(slopes, axis=1, where=segments, initial=np.inf))


def _first_crossings(times, temps, level, end_idx) -> np.ndarray:
    """Per row, the first upward crossing of level within samples
    [0, end_idx[row]]; NaN where the row does not reach it there.  A row
    already at or above level at its first sample crosses it at t[0]."""
    reached = temps >= level
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


def _rise_times(times, temps, end_idx) -> np.ndarray:
    """Per row, the time from the first upward crossing of 150 degC to that
    of 190 degC, both within samples [0, end_idx[row]]; NaN where either
    level is not reached there."""
    return (_first_crossings(times, temps, RISE_BAND_HIGH_C, end_idx)
            - _first_crossings(times, temps, RISE_BAND_LOW_C, end_idx))


def _time_above_terms(times, temps, level) -> np.ndarray:
    """Per row and segment, the time the linear interpolant spends strictly
    above level."""
    y0, y1 = temps[:, :-1], temps[:, 1:]
    above0, above1 = y0 > level, y1 > level
    terms = (above0 & above1).astype(float)
    # only the few segments that enter or leave the set take a fraction;
    # they have y1 != y0, so neither division sees a zero denominator
    r, c = np.nonzero(above0 != above1)
    a, b = y0[r, c], y1[r, c]
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


def metrics_rows(times, temps, dt: float, lengths=None) -> MetricColumns:
    """The five metrics of every row of temps, sampled at times, one array
    per metric.

    Row r is measured over its first lengths[r] samples, or over all of
    them without lengths.  What follows is padding: it may hold any finite
    values and changes nothing.  Each row's values equal a one-row call on
    its own samples, bit for bit: the extremes see -inf or +inf in the
    padding, and the time above 217 degC sums each row's own terms (see
    ``_prefix_sums``).  Slopes are forward differences at the sample interval
    dt.  The rise time is measured on the rising pass only: first upward
    crossings of 150 degC and 190 degC at or before the peak.
    """
    n_rows, width = temps.shape
    lengths = np.full(n_rows, width) if lengths is None else np.asarray(lengths)
    if width < 2 or np.any(lengths < 2):
        raise ValueError("metrics need at least 2 samples")
    if np.any(lengths > width):
        raise ValueError(f"row lengths exceed the {width} columns of temps")
    valid = np.arange(width) < lengths[:, None]
    max_slope, min_slope = _slope_extremes(temps, dt, valid[:, 1:])
    peak_idx = np.argmax(np.where(valid, temps, -np.inf), axis=1)
    return MetricColumns(
        max_slope,
        min_slope,
        _rise_times(times, temps, peak_idx),
        _prefix_sums(_time_above_terms(times, temps, MELT_C), lengths - 1),
        temps[np.arange(n_rows), peak_idx],
        times[peak_idx],
    )


def compute_metrics(trace: ThermalTrace) -> TraceMetrics:
    """Extract the five manufacturability metrics from a trace: the one-row
    case of ``metrics_rows``."""
    return metrics_rows(trace.times, trace.temps[None], trace.dt)[0]


def check_rows(columns: MetricColumns, limits: ProcessLimits | None = None) -> np.ndarray:
    """Pass masks of many rows, one row per limit in ``check_limits``
    order: the columnar case of ``check_limits``.  A NaN rise time (none
    measured) fails its limit."""
    limits = limits if limits is not None else ProcessLimits()

    def within(values, bounds):
        return (bounds[0] <= values) & (values <= bounds[1])

    return np.array([
        columns.max_slope <= limits.slope_max,
        columns.min_slope >= limits.slope_min,
        within(columns.rise_time_150_190, limits.rise_150_190),
        within(columns.duration_above_217, limits.time_above_217),
        within(columns.peak_temp, limits.peak),
    ])


def check_limits(metrics: TraceMetrics, limits: ProcessLimits | None = None) -> LimitVerdict:
    """Check the five metrics against their bounds (all inclusive).

    An absent rise time fails its limit; nothing raises.
    """
    limits = limits if limits is not None else ProcessLimits()
    rise = metrics.rise_time_150_190
    checks = (
        LimitCheck(
            "max_slope",
            metrics.max_slope,
            None,
            limits.slope_max,
            metrics.max_slope <= limits.slope_max,
        ),
        LimitCheck(
            "min_slope",
            metrics.min_slope,
            limits.slope_min,
            None,
            metrics.min_slope >= limits.slope_min,
        ),
        LimitCheck(
            "rise_time_150_190",
            rise,
            limits.rise_150_190[0],
            limits.rise_150_190[1],
            rise is not None
            and limits.rise_150_190[0] <= rise <= limits.rise_150_190[1],
        ),
        LimitCheck(
            "time_above_217",
            metrics.duration_above_217,
            limits.time_above_217[0],
            limits.time_above_217[1],
            limits.time_above_217[0]
            <= metrics.duration_above_217
            <= limits.time_above_217[1],
        ),
        LimitCheck(
            "peak_temp",
            metrics.peak_temp,
            limits.peak[0],
            limits.peak[1],
            limits.peak[0] <= metrics.peak_temp <= limits.peak[1],
        ),
    )
    return LimitVerdict(checks)
