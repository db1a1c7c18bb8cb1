"""Manufacturability metrics of a trace and the five process-window checks.

The five quantities: extreme heating/cooling slopes, the duration of the
rising pass between 150 degC and 190 degC, the total time above the 217 degC
solder melting point, and the peak temperature.  Level crossings are located
by linear interpolation between bracketing samples, so durations are exact
for piecewise-linear traces whose vertices are sample nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _rise_times(times, temps, end_idx) -> list[float | None]:
    """Per row, the time from the first upward crossing of 150 degC to that
    of 190 degC, both within samples [0, end_idx[row]].

    None where either level is not reached there.  A row already at or above
    a level at its first sample crosses it at t[0].
    """
    levels = (RISE_BAND_LOW_C, RISE_BAND_HIGH_C)
    # per row and level, the first sample at or above it, or 0 if none is
    firsts = np.argmax(temps[:, None, :] >= np.array(levels)[:, None], axis=2)
    out = []
    for row, js, end in zip(temps, firsts.tolist(), end_idx.tolist()):
        crossings = []
        for level, j in zip(levels, js):
            if j > end or not row[j] >= level:
                break
            if j == 0:
                crossings.append(times[0])
            else:
                crossings.append(crossing_time(times[j - 1], times[j], row[j - 1], row[j], level))
        out.append(float(crossings[1] - crossings[0]) if len(crossings) == 2 else None)
    return out


def _measure_above(times, temps, level) -> np.ndarray:
    """Per row, the total time the linear interpolant spends strictly above
    level."""
    t0, t1 = times[:-1], times[1:]
    y0, y1 = temps[:, :-1], temps[:, 1:]
    width = t1 - t0
    both_above = (y0 > level) & (y1 > level)
    up = (y0 <= level) & (y1 > level)
    down = (y0 > level) & (y1 <= level)
    # Crossing segments have y1 != y0 by construction, so the masked
    # divisions below never see a zero denominator.
    frac_up = np.zeros(y0.shape)
    np.divide(y1 - level, y1 - y0, out=frac_up, where=up)
    frac_down = np.zeros(y0.shape)
    np.divide(y0 - level, y0 - y1, out=frac_down, where=down)
    return np.sum(width * (both_above + frac_up + frac_down), axis=1)


def metrics_rows(times, temps, dt: float) -> list[TraceMetrics]:
    """The five metrics of every row of temps, all sampled at times.

    Slopes are forward differences at the sample interval dt.  The rise time
    is measured on the rising pass only: first upward crossings of 150 degC
    and 190 degC at or before the peak.
    """
    if temps.shape[1] < 2:
        raise ValueError("metrics need at least 2 samples")
    slopes = np.diff(temps, axis=1) / dt
    peak_idx = np.argmax(temps, axis=1)
    columns = zip(
        slopes.max(axis=1).tolist(),
        slopes.min(axis=1).tolist(),
        _rise_times(times, temps, peak_idx),
        _measure_above(times, temps, MELT_C).tolist(),
        temps[np.arange(len(temps)), peak_idx].tolist(),
        times[peak_idx].tolist(),
    )
    return [TraceMetrics(*values) for values in columns]


def compute_metrics(trace: ThermalTrace) -> TraceMetrics:
    """Extract the five manufacturability metrics from a trace: the one-row
    case of ``metrics_rows``."""
    return metrics_rows(trace.times, trace.temps[None], trace.dt)[0]


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
