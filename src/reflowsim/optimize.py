"""Exhaustive parameter sweeps subject to the process-window checks.

Three strategies over simulated traces:

* sweep the belt speed alone and report which speeds stay inside the process
  window (and the largest such speed),
* sweep all setpoints and the speed jointly, minimizing the reflow area (the
  area between the trace and the 217 degC melting line where the trace
  exceeds it),
* the same joint sweep minimizing the asymmetry of the above-217 pass, with
  reflow area as tie-breaker.

All three run one evaluator, ``_evaluate_group``: per job of profiles that
share one segment geometry (defined in the ``ambient`` module docstring),
one ``thermal.rk4_blocks`` call over every speed runs the plateau-compacted
RK4 kernel in blocks of rows, and each block is measured as it is yielded,
each row over its own samples: metrics, and in the joint sweeps reflow area
and symmetry, on one crossing of the melting line; one ``check_rows`` call
on the job's metric columns gives the limit pass masks.  The joint sweeps
group the setpoint lattice, one array, by the geometry of its profiles, one
job per group (or per piece of one, with a pool); the speed sweep is the
job of its one profile, without area and symmetry.  Padding only follows a
row's end, the recursion is causal and rows never mix, so each candidate
equals the one the per-candidate chain (build_profile, simulate,
compute_metrics, check_limits, reflow_area, symmetry_score) builds, bit for
bit, and each SpeedCheck the one its first four build; the scalar functions
are the one-row cases of the same kernels.  Reductions use total
deterministic orderings, so results do not depend on evaluation order or on
the worker count.

Both kinds of sweep keep what they measure as columns (``_SweepColumns``
for the joint sweeps, ``MetricColumns`` for the speed sweep) and
build objects only where a caller reads them.  A joint sweep de-duplicates
its candidates on the rounded grid values of each axis (``_new_points``),
counts feasible ones from the pass mask, and builds SweepCandidates only for
the rows that compete under the objective, from which ``objective_key``
picks the winner.  ``OptimizationResult.candidates`` and
``SpeedSweepResult.per_speed`` are tuples built on their first read
(``_LazyTuple``).  That read builds the objects the sweep no longer does,
about 7-8 ms per 1,000 candidates or 9 ms per 1,000 speeds (in-process,
2-core host); later reads reuse them.
"""

from __future__ import annotations

import math
import os
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace
from functools import partial, reduce
from itertools import compress, product

import numpy as np

from .ambient import _lattice_groups, _level_columns, build_profile
from .limits import (
    MELT_C,
    LimitVerdict,
    MetricColumns,
    ProcessLimits,
    TraceMetrics,
    _prefix_sums,
    _super_level_segments,
    check_limits,
    check_rows,
    crossing_time,
    metrics_rows,
)
from .oven import OvenLayout, ParameterRanges, ProcessParameters, check_count, cm_per_second
from .thermal import (
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    check_step,
    rk4_blocks,
    simulate,  # noqa: F401  (kept in this namespace for code that patches or traces it)
    step_counts,
)

DEFAULT_SPEED_SWEEP_STEP = 0.1
DEFAULT_OFFSET_STEP = 0.5  # s between symmetry pairs
REFINE_FACTOR = 5  # finer steps per step of the grids, at each refinement round
# Most values one grid holds, and most candidates (setpoint combinations x
# speeds) one joint sweep evaluates: both are checked before anything that
# size is built.
_MAX_GRID = 1_000_000
# The names of the metric columns, in ``MetricColumns`` order
_METRICS = tuple(f.name for f in fields(MetricColumns))


def _grid_size(lo: float, hi: float, step: float, key: str = "step") -> int:
    """How many values ``inclusive_grid(lo, hi, step)`` holds: the steps
    from lo up to hi, and hi itself.  A ValueError names non-finite bounds,
    or the key, the step and the count when that exceeds _MAX_GRID (or is
    not a number), before anything is built."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid bounds must be finite, got [{lo:g}, {hi:g}]")
    if not step > 0:  # also refuses NaN
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"grid upper bound below lower bound, got [{lo:g}, {hi:g}]")
    n = float(np.floor((hi - lo) / step + 1e-9))
    # hi is a value of its own unless the last step lands within 1e-9 of it
    size = n + 1 + (abs(round(lo + n * step, 9) - hi) > 1e-9) if n < 2**53 else n + 1
    if not size <= _MAX_GRID:
        count = f"{size:.0f}" if size < 2**53 else f"{size:.3g}"
        raise ValueError(f"{key} = {step:g} makes {count} grid values over "
                         f"[{lo:g}, {hi:g}]; the limit is {_MAX_GRID}")
    return int(size)


def inclusive_grid(lo: float, hi: float, step: float) -> list[float]:
    """Uniform grid from lo by step, always containing both endpoints; at
    most _MAX_GRID values (see ``_grid_size``)."""
    return [round(lo + i * step, 9) for i in range(_grid_size(lo, hi, step) - 1)] + [hi]


def _sweep_size(ranges: ParameterRanges, prefix: str = "") -> int:
    """How many candidates a joint sweep over ranges evaluates; a
    ValueError naming the steps and the count when that exceeds _MAX_GRID,
    before any grid is built.  prefix goes before the names of the steps."""
    combos = math.prod(_grid_size(*getattr(ranges, name), ranges.temp_step, f"{prefix}temp_step")
                       for name in ("tt1", "tt2", "tt3", "tt4"))
    speeds = _grid_size(*ranges.belt_speed, ranges.speed_step, f"{prefix}speed_step")
    if combos * speeds > _MAX_GRID:
        raise ValueError(
            f"{prefix}temp_step = {ranges.temp_step:g} and {prefix}speed_step = "
            f"{ranges.speed_step:g} make {combos * speeds} candidates ({combos} setpoint "
            f"combinations x {speeds} speeds); the limit is {_MAX_GRID}"
        )
    return combos * speeds


def _melt_passes(times, temps, lengths=None, melt=None):
    """Per row: the number of maximal intervals where the linear interpolant
    strictly exceeds 217 degC, and the first start and last end among them.

    Row r is read over its first lengths[r] samples (all without lengths).
    Crossing endpoints are interpolated; intervals that touch at a single
    point (the trace grazing the level from above) count as one.  melt is
    ``_super_level_segments(temps, MELT_C)`` when the caller has it.  A
    row's crossings alternate in direction, so it has a pass per upward
    crossing and one if it starts above, less its touching pairs.
    """
    level = MELT_C
    n, width = temps.shape
    last = np.full(n, width - 1) if lengths is None else np.asarray(lengths) - 1
    _, (r, c) = melt if melt is not None else _super_level_segments(temps, level)
    if (last < width - 1).any():  # drop the crossings past a row's own end
        own = c < last[r]
        r, c = r[own], c[own]
    # negating both factors of the ratio is exact, so downward crossings
    # round as (y0 - level) / (y0 - y1) would
    at = crossing_time(times[c], times[c + 1], temps[r, c], temps[r, c + 1], level)
    up = temps[r, c + 1] > level
    first_in = temps[:, 0] > level
    last_in = temps[np.arange(n), last] > level
    # a downward crossing, then an upward one within 1e-9 s
    touching = (r[1:] == r[:-1]) & up[1:] & (at[1:] - at[:-1] <= 1e-9)
    passes = np.bincount(r[up], minlength=n) + first_in - np.bincount(r[1:][touching], minlength=n)
    if r.size == 0:  # every row lies above the level throughout or nowhere
        return passes, np.full(n, times[0]), times[last]
    # each row's crossings are at[edges[i]:edges[i + 1]]; a row without any
    # reads a neighbour's, which its own ends replace or nothing reads
    edges = np.searchsorted(r, np.arange(n + 1))
    starts = np.where(first_in, times[0], at[np.minimum(edges[:-1], r.size - 1)])
    return passes, starts, np.where(last_in, times[last], at[edges[1:] - 1])


def _reflow_area_rows(xs, temps, lengths=None, melt=None) -> np.ndarray:
    """Per row, the area between the interpolant over xs (one row, or one
    per row of temps) and the melting line where the row exceeds it, summed
    over the row's own segments; lengths and melt as for ``_melt_passes``."""
    h = np.diff(np.atleast_2d(xs))
    y = temps - MELT_C
    inside, (r, c) = melt if melt is not None else _super_level_segments(temps, MELT_C)
    area = np.zeros(inside.shape)  # +0.0 outside the super-level segments
    np.add(y[:, :-1], y[:, 1:], out=area, where=inside)
    area *= 0.5 * h
    # the few segments that cross the line hold a triangle
    a, b, w = y[r, c], y[r, c + 1], 0.5 * h[r % len(h), c]
    area[r, c] = np.where(b > 0, w * b * b / (b - a), w * a * a / -(b - a))
    return np.sum(area, axis=1) if lengths is None else _prefix_sums(area, np.asarray(lengths) - 1)


def _area_axis(domain: str, times, positions):
    if domain == "position":
        return positions
    if domain == "time":
        return times
    raise ValueError(f"domain must be 'position' or 'time', got {domain!r}")


def _interp_rows(x, times, temps, rows, counts=None) -> np.ndarray:
    """``np.interp(x[i], times[:n], temps[rows[i], :n])`` for every row i
    of x, with n = counts[i] (all of times without counts), bit for bit.

    times is ``np.arange(width) * dt`` (width >= 2), so floor(x / dt),
    clipped to the row's segments before the cast (x / dt overflows for a
    subnormal dt), is off by one at most from the segment j holding x; the
    samples around it correct it.  Samples come by flat ``take``s, then
    np.interp's own formula applies, edge rules included.
    """
    width = temps.shape[1]
    last = width - 1 if counts is None else np.asarray(counts)[:, None] - 1
    j = x / (times[1] - times[0])
    j = np.clip(j, 0, last - 1, out=j).astype(np.intp)  # truncating floors it
    j += x >= times.take(j + 1)
    j -= x < times.take(j)
    np.clip(j, 0, last - 1, out=j)
    t0, t1 = times.take(j), times.take(j + 1)
    j += (np.asarray(rows) * width)[:, None]
    y0, y1 = temps.take(j), temps.take(j + 1)
    out = (y1 - y0) / (t1 - t0)
    out *= x - t0
    out += y0
    # before the first sample or on sample j x <= t0; at or past the last x >= t1
    np.copyto(out, y0, where=x <= t0)
    np.copyto(out, y1, where=x >= t1)
    return out


def _symmetry_columns(times, temps, lengths=None, melt=None):
    """Per row, the symmetry score (NaN unless the row has exactly one
    above-217 pass) and the number of passes; lengths and melt as for
    ``_melt_passes``.

    Both sides of the k offset pairs of all rows with one pass are
    interpolated at once, in a rows x 2 max(k) array; each row's squares
    are summed over its own k pairs, as ``symmetry_score`` sums them.  A k
    above _MAX_GRID is refused before that array exists.
    """
    passes, t1s, t2s = _melt_passes(times, temps, lengths, melt)
    one = np.flatnonzero(passes == 1)
    t1, t2 = t1s[one], t2s[one]
    center = (0.5 * (t1 + t2))[:, None]
    k = np.floor(0.5 * (t2 - t1) / DEFAULT_OFFSET_STEP + 1e-9)
    if not k.max(initial=0) <= _MAX_GRID:
        raise ValueError(f"the above-217 pass makes {k.max():.0f} symmetry pairs; "
                         f"the limit is {_MAX_GRID}")
    k = k.astype(np.int64)
    offsets = (np.arange(k.max(initial=0)) + 1) * DEFAULT_OFFSET_STEP
    counts = None if lengths is None else np.asarray(lengths)[one]
    # left, then right queries; a one-sample row has no segment and no pair
    x = center + np.concatenate((-offsets, offsets))
    left, right = np.hsplit(_interp_rows(x, times, temps, one, counts) if x.size else x, 2)
    scores = np.full(len(temps), np.nan)
    scores[one] = _prefix_sums((left - right) ** 2, k)
    return scores, passes


def reflow_area(trace: ThermalTrace, domain: str = "position") -> float:
    """Area between the trace and the melting line where the trace exceeds it.

    Trapezoidal integration with interpolated crossing endpoints, exact for
    piecewise-linear traces.  ``domain`` selects the integration variable:
    "position" (degC * cm) or "time" (degC * s).
    """
    xs = _area_axis(domain, trace.times, trace.positions)
    return float(_reflow_area_rows(xs, trace.temps[None])[0])


def symmetry_score(trace: ThermalTrace) -> float:
    """Sum of squared temperature mismatches at mirrored offsets around the
    center of the above-217 pass.

    The melting crossings t1 and t2 are interpolated, the center is their
    midpoint, and pairs are taken at offsets 0.5 s, 1 s, ... (multiples of
    DEFAULT_OFFSET_STEP) while both mirrored points stay inside [t1, t2].
    Zero means a perfectly symmetric pass.

    Raises
    ------
    ValueError
        If the pass holds more than _MAX_GRID (1,000,000) pairs (before
        they are built).  If the trace never exceeds 217 degC, or exceeds
        it on more than one disjoint interval.
    """
    scores, passes = _symmetry_columns(trace.times, trace.temps[None])
    if passes[0] == 0:
        raise ValueError("trace never exceeds 217 degC; symmetry undefined")
    if passes[0] > 1:
        raise ValueError(
            f"trace exceeds 217 degC on {passes[0]} disjoint intervals; "
            "symmetry undefined"
        )
    return float(scores[0])


class _LazyTuple(Sequence):
    """A tuple of ``length`` items that ``build()`` makes on first read,
    and that is kept from then on.

    It compares equal to the tuple of the same items, either way round (and
    to another _LazyTuple), and hashes, reprs and pickles as that tuple: a
    pickle or a copy of it is the tuple itself.
    """

    __slots__ = ("_length", "_build", "_items")

    def __init__(self, length: int, build):
        self._length = length
        self._build = build
        self._items = None

    def _tuple(self) -> tuple:
        if self._items is None:
            self._items = tuple(self._build())
            self._build = None  # frees what the items were built from
        return self._items

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self):
        return iter(self._tuple())

    def __eq__(self, other):
        if isinstance(other, _LazyTuple):
            other = other._tuple()
        return self._tuple() == other if isinstance(other, tuple) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._tuple())

    def __repr__(self) -> str:
        return repr(self._tuple())

    def __reduce__(self):
        return tuple, (self._tuple(),)


@dataclass(frozen=True)
class SpeedCheck:
    speed: float
    metrics: TraceMetrics
    verdict: LimitVerdict


@dataclass(frozen=True)
class SpeedSweepResult:
    """Outcome of the speed-only sweep.

    ``feasible_speed_interval`` builds the SpeedChecks of per_speed on its
    first read; either way it reads, compares and hashes as a tuple.
    """

    feasible_speeds: tuple[float, ...]
    max_feasible: float | None
    per_speed: Sequence[SpeedCheck]

    def __post_init__(self):
        object.__setattr__(self, "feasible_speeds", tuple(self.feasible_speeds))
        if not isinstance(self.per_speed, _LazyTuple):
            object.__setattr__(self, "per_speed", tuple(self.per_speed))
        expected = self.feasible_speeds[-1] if self.feasible_speeds else None
        if self.max_feasible != expected:
            raise ValueError("max_feasible must be the last feasible speed")


def feasible_speed_interval(
    layout: OvenLayout,
    params: ProcessParameters,
    weight: float,
    coefficient: float,
    speed_range: tuple[float, float] = ParameterRanges.belt_speed,
    speed_step: float = DEFAULT_SPEED_SWEEP_STEP,
    grid: SimulationGrid | None = None,
    limits: ProcessLimits | None = None,
) -> SpeedSweepResult:
    """Sweep the belt speed on an inclusive grid at fixed setpoints.

    params.belt_speed is ignored; each grid speed is simulated, measured and
    checked against the limits.  An empty feasible set is a valid result.
    It is the one-profile case of the joint sweeps' ``_evaluate_group``,
    without area and symmetry; the SpeedChecks are built from its columns
    when per_speed is first read.
    """
    grid = grid if grid is not None else SimulationGrid()
    limits = limits if limits is not None else ProcessLimits()
    profile = build_profile(layout, params, weight)
    model = WeldingModel(coefficient)
    speeds = inclusive_grid(speed_range[0], speed_range[1], speed_step)
    values, passed = _evaluate_group(model, grid, limits, None, speeds, params.tt5,
                                     (profile, _level_columns([profile])))
    metrics = MetricColumns(*values[:, 0])
    feasible = tuple(compress(speeds, passed[0].tolist()))
    return SpeedSweepResult(feasible, feasible[-1] if feasible else None, _LazyTuple(
        len(speeds), lambda: [SpeedCheck(v, m, check_limits(m, limits))
                              for v, m in zip(speeds, metrics)]))


@dataclass(frozen=True)
class SweepCandidate:
    """One evaluated joint-sweep grid point."""

    params: ProcessParameters
    metrics: TraceMetrics
    area: float
    symmetry: float | None
    feasible: bool

    def key(self) -> tuple[float, float, float, float, float]:
        p = self.params
        return (p.tt1, p.tt2, p.tt3, p.tt4, p.belt_speed)


@dataclass(frozen=True)
class OptimizationResult:
    """Best feasible candidate under the named objective, if any.

    The joint sweeps build the SweepCandidates of candidates on its first
    read; either way it reads, compares and hashes as a tuple.
    candidates_feasible counts its feasible candidates.
    """

    objective: str
    best: SweepCandidate | None
    candidates_evaluated: int
    candidates: Sequence[SweepCandidate]
    rejected_from_objective: int = 0
    candidates_feasible: int = 0


@dataclass(frozen=True, eq=False)
class _SweepColumns:
    """The candidates of one joint-sweep grid as columns, in sweep order:
    candidate i is setpoint row i // len(speeds) at speed i % len(speeds).

    values holds a column per metric (``_METRICS``), then the reflow area
    and the symmetry score (NaN where it is undefined); feasible is the
    limit pass mask.  ``candidates`` builds the SweepCandidates of any of
    them.
    """

    rows: list
    speeds: tuple[float, ...]
    values: np.ndarray
    feasible: np.ndarray

    def eligible(self, objective: str) -> np.ndarray:
        """Per candidate, whether it can compete under the objective: a
        feasible one under "area", a feasible one with a defined symmetry
        under "symmetry"."""
        if objective == "symmetry":
            return self.feasible & ~np.isnan(self.values[-1])
        return self.feasible

    def candidates(self, idx) -> list[SweepCandidate]:
        """The SweepCandidates at the indices idx, in their order."""
        idx = np.asarray(idx, dtype=np.int64)
        rows, speeds = self.rows, self.speeds
        combo, at = np.divmod(idx, len(speeds))
        *metrics, areas, symmetry = self.values[:, idx]
        # NaN marks an undefined symmetry; it is the only value not equal to itself
        return [SweepCandidate(ProcessParameters(*rows[c], belt_speed=speeds[v]), m, a,
                               y if y == y else None, ok)
                for c, v, m, a, y, ok in zip(combo.tolist(), at.tolist(), MetricColumns(*metrics),
                                             areas.tolist(), symmetry.tolist(),
                                             self.feasible[idx].tolist())]


def _evaluate_group(
    model: WeldingModel,
    grid: SimulationGrid,
    limits: ProcessLimits,
    area_domain: str | None,
    speeds: Sequence[float],
    tt5: float,
    job: tuple,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate a job of setpoint rows whose profiles share one segment
    geometry at every sweep speed: (template profile, the rows'
    ``_level_columns``), every row starting at the exterior temperature
    tt5, in one ``thermal.rk4_blocks`` call.  Returns the ``_SweepColumns``
    values (without area and symmetry when area_domain is None) and the
    feasible mask of the rows x speeds, with the rows and speeds in order.
    Top-level so process pools can pickle it.
    """
    template, levels = job
    rates = cm_per_second(np.array(speeds))
    values = np.empty((len(_METRICS) + 2 * (area_domain is not None), len(levels), len(speeds)))
    for part, block, temps, lengths in rk4_blocks(template, levels, tt5, model, grid, speeds):
        times = np.arange(temps.shape[1]) * grid.dt_out
        shape = (part.stop - part.start, len(lengths))  # rows are profile-major
        # only a block of one profile's speeds holds padding, a length per row
        lengths = lengths if lengths.min() < temps.shape[1] else None
        melt = _super_level_segments(temps, MELT_C)
        metrics = metrics_rows(times, temps, lengths, melt)
        columns = [getattr(metrics, name) for name in _METRICS]
        if area_domain is not None:
            xs = _area_axis(area_domain, times, rates[block, None] * times)
            columns += [_reflow_area_rows(xs, temps, lengths, melt),
                        _symmetry_columns(times, temps, lengths, melt)[0]]
        values[:, part, block] = np.reshape(columns, (len(columns), *shape))
    return values, check_rows(MetricColumns(*values[: len(_METRICS)]), limits).all(axis=0)


def _grids(ranges: ParameterRanges) -> list[list[float]]:
    """The grids of tt1..tt4 and the belt speed, in ``SweepCandidate.key`` order."""
    steps = (ranges.temp_step,) * 4 + (ranges.speed_step,)
    return [inclusive_grid(*getattr(ranges, name), step)
            for name, step in zip(("tt1", "tt2", "tt3", "tt4", "belt_speed"), steps)]


def _grid_keys(ranges: ParameterRanges) -> list[list[float]]:
    """The values of ``_grids(ranges)`` as the candidate keys hold them:
    rounded to 9 decimals."""
    return [[round(x, 9) for x in g] for g in _grids(ranges)]


def _new_points(axes, seen) -> np.ndarray:
    """Which points of the product of axes (``_grid_keys``) hold a new
    candidate key, in sweep order: the first point with its key, unless an
    earlier grid holds the key.  seen lists the earlier grids, each as one
    set of keys per axis.

    A key's points are the product of its values' positions on each axis,
    so the first of them lies at each value's first position.
    """

    def first(axis):
        at = {}
        return np.array([at.setdefault(x, i) == i for i, x in enumerate(axis)])

    new = reduce(np.logical_and.outer, map(first, axes))
    for keys in seen:
        new &= ~reduce(np.logical_and.outer,
                       [np.array([x in k for x in axis]) for axis, k in zip(axes, keys)])
    return new.ravel()


def _sweep_jobs(layout: OvenLayout, ranges: ParameterRanges, weight: float, workers: int):
    """The lattice of the setpoint ranges, in sweep order, and the jobs that
    cover it: (row indices, (template profile, level columns)).

    The lattice is one list of setpoint rows (tt1..tt4 from the ranges'
    grids, tt5 the one value of ranges.tt5), grouped by the geometry of
    their profiles, each group with its template and level columns
    (``ambient._lattice_groups``).  With a pool, the groups are split so
    the workers get similar shares.
    """
    _sweep_size(ranges)
    rows = list(product(*_grids(ranges)[:4], [float(ranges.tt5[0])]))
    size = len(rows) if workers <= 1 else math.ceil(len(rows) / (4 * workers))
    jobs = []
    for idx, template, levels in _lattice_groups(layout, rows, weight):
        for lo in range(0, len(idx), size):
            piece = idx[lo : lo + size]
            jobs.append((piece, (template, levels[lo : lo + size])))
    return rows, jobs


def _sweep_grid(
    layout: OvenLayout,
    ranges: ParameterRanges,
    weight: float,
    coefficient: float,
    grid: SimulationGrid,
    limits: ProcessLimits,
    area_domain: str,
    workers: int,
) -> _SweepColumns:
    """Every grid candidate, ordered by setpoint combination, then speed."""
    _area_axis(area_domain, None, None)  # reject a bad domain before any work
    model = WeldingModel(coefficient)
    check_step(coefficient, grid.dt)
    rows, jobs = _sweep_jobs(layout, ranges, weight, workers)
    speeds = tuple(inclusive_grid(*ranges.belt_speed, ranges.speed_step))
    # a dt_out past the transit at the fastest speed is refused here, before
    # any job's plan or the pool starts
    step_counts(layout.total_length_cm, speeds, grid.dt, grid.stride)
    evaluate = partial(_evaluate_group, model, grid, limits, area_domain, speeds,
                       float(ranges.tt5[0]))
    if workers > 1:
        # imported here: the pool's modules cost a one-process run start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(evaluate, [job for _, job in jobs]))
    else:
        batches = [evaluate(job) for _, job in jobs]
    values = np.empty((len(_METRICS) + 2, len(rows), len(speeds)))
    feasible = np.empty((len(rows), len(speeds)), dtype=bool)
    for (idx, _), (job_values, job_feasible) in zip(jobs, batches):
        values[:, idx] = job_values
        feasible[idx] = job_feasible
    return _SweepColumns(rows, speeds, values.reshape(len(values), -1), feasible.ravel())


def _refined_ranges(ranges: ParameterRanges, best: ProcessParameters) -> ParameterRanges:
    """Shrink the grids to +/- one step around the incumbent at step/REFINE_FACTOR."""

    def narrow(name, step):
        (lo, hi), center = getattr(ranges, name), getattr(best, name)
        return (max(lo, center - step), min(hi, center + step))

    temps = {name: narrow(name, ranges.temp_step) for name in ("tt1", "tt2", "tt3", "tt4")}
    return replace(ranges, **temps, belt_speed=narrow("belt_speed", ranges.speed_step),
                   temp_step=ranges.temp_step / REFINE_FACTOR,
                   speed_step=ranges.speed_step / REFINE_FACTOR)


def objective_key(objective: str, candidate: SweepCandidate) -> tuple:
    """Total deterministic ordering used to pick the best candidate.

    "area": (area, params); "symmetry": (symmetry, area, params).  Smaller
    is better throughout, so ties always resolve to the lexicographically
    smallest parameter tuple.
    """
    if objective == "area":
        return (candidate.area, *candidate.key())
    if objective == "symmetry":
        return (candidate.symmetry, candidate.area, *candidate.key())
    raise ValueError(f"unknown objective {objective!r}")


def _optimize(
    objective: str,
    layout: OvenLayout,
    ranges: ParameterRanges,
    weight: float,
    coefficient: float,
    grid: SimulationGrid | None,
    limits: ProcessLimits | None,
    area_domain: str,
    refine_rounds: int,
    workers: int,
) -> OptimizationResult:
    grid = grid if grid is not None else SimulationGrid()
    limits = limits if limits is not None else ProcessLimits()
    if objective not in ("area", "symmetry"):
        raise ValueError(f"unknown objective {objective!r}")
    check_count("refine_rounds", refine_rounds, 0)
    check_count("workers", workers, 1)
    # a pool starts all its processes at once, and more than the cores only
    # split the jobs finer
    workers = min(workers, os.cpu_count() or 1)

    parts = []  # per swept grid: its columns and the indices of its new candidates
    seen = []  # per swept grid: the set of its keys on each axis
    pool = []  # the candidates that compete under the objective
    current_ranges = ranges
    best = None
    for round_idx in range(refine_rounds + 1):
        batch = _sweep_grid(
            layout, current_ranges, weight, coefficient, grid, limits, area_domain, workers
        )
        axes = _grid_keys(current_ranges)
        kept = np.flatnonzero(_new_points(axes, seen))
        seen.append([set(axis) for axis in axes])
        parts.append((batch, kept))
        pool += batch.candidates(kept[batch.eligible(objective)[kept]])
        best = min(pool, key=partial(objective_key, objective)) if pool else None
        if best is None or round_idx == refine_rounds:
            break
        current_ranges = _refined_ranges(current_ranges, best.params)
        # nothing new: the grid has collapsed onto seen keys, as finer ones will
        if not _new_points(_grid_keys(current_ranges), seen).any():
            break

    if best is not None and not check_limits(best.metrics, limits).passed:
        raise RuntimeError("internal error: selected candidate fails the limit re-check")
    evaluated = sum(len(kept) for _, kept in parts)
    feasible = sum(int(np.count_nonzero(batch.feasible[kept])) for batch, kept in parts)
    return OptimizationResult(
        objective=objective,
        best=best,
        candidates_evaluated=evaluated,
        candidates=_LazyTuple(evaluated, lambda: [cand for batch, kept in parts
                                                  for cand in batch.candidates(kept)]),
        # feasible candidates without a symmetry score
        rejected_from_objective=feasible - len(pool) if objective == "symmetry" else 0,
        candidates_feasible=feasible,
    )


def minimize_area(
    layout: OvenLayout,
    ranges: ParameterRanges,
    weight: float,
    coefficient: float,
    grid: SimulationGrid | None = None,
    limits: ProcessLimits | None = None,
    area_domain: str = "position",
    refine_rounds: int = 0,
    workers: int = 1,
) -> OptimizationResult:
    """Exhaustively search the setpoint/speed grids for the feasible candidate
    with the smallest reflow area.

    Ties break toward the lexicographically smallest (tt1, tt2, tt3, tt4,
    belt_speed).  With refine_rounds > 0, each round re-grids one step around
    the incumbent at step/REFINE_FACTOR (a fifth of the step) and
    re-evaluates, until the rounds run out or a round's grid holds no new
    candidate.  An infeasible-everywhere sweep returns best=None rather than raising.
    """
    return _optimize(
        "area", layout, ranges, weight, coefficient, grid, limits,
        area_domain, refine_rounds, workers,
    )


def most_symmetric(
    layout: OvenLayout,
    ranges: ParameterRanges,
    weight: float,
    coefficient: float,
    grid: SimulationGrid | None = None,
    limits: ProcessLimits | None = None,
    area_domain: str = "position",
    refine_rounds: int = 0,
    workers: int = 1,
) -> OptimizationResult:
    """Joint sweep minimizing (symmetry score, reflow area) lexicographically.

    Feasible candidates whose above-217 pass is disconnected have no
    symmetry score; they are excluded from the objective and counted in
    rejected_from_objective.
    """
    return _optimize(
        "symmetry", layout, ranges, weight, coefficient, grid, limits,
        area_domain, refine_rounds, workers,
    )
