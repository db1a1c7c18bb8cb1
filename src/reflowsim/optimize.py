"""Exhaustive parameter sweeps subject to the process-window checks.

Three strategies over simulated traces:

* sweep the belt speed alone and report which speeds stay inside the process
  window (and the largest such speed),
* sweep all setpoints and the speed jointly, minimizing the reflow area (the
  area between the trace and the 217 degC melting line where the trace
  exceeds it),
* the same joint sweep minimizing the asymmetry of the above-217 pass, with
  reflow area as tie-breaker.

The joint sweeps enumerate the setpoint lattice as one array and group its
rows by the segment geometry of their ambient profiles, with one template
profile per group.  At each belt speed they evaluate a group's rows as one
2-D array, on the plateau-compacted kernel (``thermal._Plateaus``): field,
forcing and Horner sums only for the samples that touch a sigmoid, the
cooling blend or a segment join, laid out once per geometry and speed, and
each plateau sample from its level's Horner sum.  RK4 blocks of rows write
their samples into a sample block, on which metrics (one array per metric),
limit pass masks, reflow area and symmetry run once.  Rows never mix, so
each candidate equals the one the per-candidate chain (build_profile,
simulate, compute_metrics, check_limits, reflow_area, symmetry_score)
builds, bit for bit; the scalar functions are the one-row cases of the
same kernels.
Reductions use total deterministic orderings, so results do not depend on
evaluation order or on the worker count.

The speed sweep evaluates its one profile at every grid speed as rows of
padded 2-D arrays: RK4 recursion per RK4 block, on the same kernel
(``thermal.simulate_speeds``), then
metrics and limit masks once per sample block, each row over its own
samples.  Padding only follows a row's end and the recursion is causal, so
each SpeedCheck equals the one the per-speed chain (build_profile,
simulate, compute_metrics, check_limits) builds, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import product

import numpy as np

from .ambient import _assemble, _gathered_levels, _geometry_groups, build_profile
from .limits import (
    MELT_C,
    LimitVerdict,
    ProcessLimits,
    TraceMetrics,
    _prefix_sums,
    _super_level_segments,
    check_limits,
    check_rows,
    crossing_time,
    metrics_rows,
    verdict_rows,
)
from .oven import OvenLayout, ParameterRanges, ProcessParameters
from .thermal import (
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    _Buffers,
    _Plateaus,
    _rk4_coefficients,
    _simulate_rows,
    _view,
    check_step,
    simulate,  # noqa: F401  (kept in this namespace for code that patches or traces it)
    step_counts,
)

DEFAULT_SPEED_SWEEP_STEP = 0.1
DEFAULT_OFFSET_STEP = 0.5
# Bytes of a block's largest array per stage (its field at the nodes, say);
# sets how many rows an RK4 block holds, and how many rows of samples a
# sample block holds.
_BLOCK_BYTES = 1 << 18
# Most values one grid holds, and most candidates (setpoint combinations x
# speeds) one joint sweep evaluates: both are checked before anything that
# size is built.
_MAX_GRID = 1_000_000


def _grid_size(lo: float, hi: float, step: float, key: str = "step") -> int:
    """How many values ``inclusive_grid(lo, hi, step)`` holds: the steps
    from lo up to hi, and hi itself.  A ValueError names the key, the step
    and the count when that exceeds _MAX_GRID (or is not a number), before
    anything is built."""
    if not step > 0:  # also refuses NaN
        raise ValueError(f"step must be positive, got {step}")
    if hi < lo:
        raise ValueError("grid upper bound below lower bound")
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


def _melt_passes(times, temps, melt=None):
    """Per row: the number of maximal intervals where the linear interpolant
    strictly exceeds 217 degC, and the first start and last end among them.

    Crossing endpoints are interpolated; intervals that touch at a single
    point (the trace grazing the level from above) count as one.  melt is
    ``_super_level_segments(temps, MELT_C)`` when the caller has it.
    """
    level = MELT_C
    _, (r, c) = melt if melt is not None else _super_level_segments(temps, level)
    # negating both factors of the ratio is exact, so downward crossings
    # round as (y0 - level) / (y0 - y1) would
    at = crossing_time(times[c], times[c + 1], temps[r, c], temps[r, c + 1], level)
    up = temps[r, c + 1] > level
    up_r, starts = r[up], at[up]
    down_r, ends = r[~up], at[~up]
    # a row above the level at its first (last) sample starts (ends) there
    first_in = np.flatnonzero(temps[:, 0] > level)
    last_in = np.flatnonzero(temps[:, -1] > level)
    start_rows = np.concatenate((first_in, up_r))
    starts = np.concatenate((np.full(first_in.size, times[0]), starts))
    order = np.argsort(start_rows, kind="stable")
    start_rows, starts = start_rows[order], starts[order]
    end_rows = np.concatenate((down_r, last_in))
    ends = np.concatenate((ends, np.full(last_in.size, times[-1])))
    ends = ends[np.argsort(end_rows, kind="stable")]
    # starts[i] and ends[i] now bound the i-th interval, ordered by row
    touching = (start_rows[1:] == start_rows[:-1]) & (starts[1:] - ends[:-1] <= 1e-9)
    n = len(temps)
    passes = np.bincount(start_rows, minlength=n) - np.bincount(
        start_rows[1:][touching], minlength=n
    )
    if starts.size == 0:
        return passes, np.zeros(n), np.zeros(n)
    # rows without a pass get a neighbour's bounds, which nothing reads
    first = np.searchsorted(start_rows, np.arange(n), side="left")
    last = np.searchsorted(start_rows, np.arange(n), side="right") - 1
    return passes, starts[np.minimum(first, starts.size - 1)], ends[last]


def _reflow_area_rows(xs, temps, melt=None) -> np.ndarray:
    """Per row, the area between the interpolant over xs and the melting
    line where the row exceeds it; melt as for ``_melt_passes``."""
    h = np.diff(xs)
    y = temps - MELT_C
    inside, (r, c) = melt if melt is not None else _super_level_segments(temps, MELT_C)
    area = y[:, :-1] + y[:, 1:]
    area *= 0.5 * h
    area[~inside] = 0.0
    # the few segments that cross the line hold a triangle
    a, b, w = y[r, c], y[r, c + 1], 0.5 * h[c]
    area[r, c] = np.where(b > 0, w * b * b / (b - a), w * a * a / -(b - a))
    return np.sum(area, axis=1)


def _area_axis(domain: str, times, positions):
    if domain == "position":
        return positions
    if domain == "time":
        return times
    raise ValueError(f"domain must be 'position' or 'time', got {domain!r}")


def _interp_rows(x, times, temps) -> np.ndarray:
    """``np.interp(x[r], times, temps[r])`` for every row r, bit for bit.

    The bracketing sample j (times[j] <= x < times[j+1]) comes from one
    ``searchsorted``, then np.interp's own formula applies: a query on a
    sample, at or past the last one or before the first returns that
    sample, any other slope * (x - times[j]) + temps[j].  (np.interp's
    fallback for a NaN result needs non-finite samples.)
    """
    j = np.searchsorted(times, x, side="right") - 1
    last = len(times) - 1
    rows = np.arange(len(temps))[:, None]
    on_sample = np.clip(j, 0, last)
    lo = np.minimum(on_sample, last - 1)
    slope = (temps[rows, lo + 1] - temps[rows, lo]) / (times[lo + 1] - times[lo])
    between = (j >= 0) & (j < last) & (x != times[on_sample])
    return np.where(between, slope * (x - times[lo]) + temps[rows, lo], temps[rows, on_sample])


def _symmetry_rows(times, temps, offset_step: float, melt=None):
    """Per row, the symmetry score (None unless the row has exactly one
    above-217 pass) and the number of passes; melt as for ``_melt_passes``.

    The k offset pairs of all rows with one pass are interpolated at once,
    in a rows x max(k) array; each row's squares are summed over its own k
    columns, as ``symmetry_score`` sums them.
    """
    passes, t1s, t2s = _melt_passes(times, temps, melt)
    one = np.flatnonzero(passes == 1)
    t1, t2 = t1s[one], t2s[one]
    center = (0.5 * (t1 + t2))[:, None]
    k = np.floor(0.5 * (t2 - t1) / offset_step + 1e-9).astype(np.int64)
    offsets = (np.arange(k.max(initial=0)) + 1) * offset_step
    left = _interp_rows(center - offsets, times, temps[one])
    right = _interp_rows(center + offsets, times, temps[one])
    scores = np.zeros(len(temps))
    scores[one] = _prefix_sums((left - right) ** 2, k)
    return [s if n == 1 else None for s, n in zip(scores.tolist(), passes.tolist())], passes


def reflow_area(trace: ThermalTrace, domain: str = "position") -> float:
    """Area between the trace and the melting line where the trace exceeds it.

    Trapezoidal integration with interpolated crossing endpoints, exact for
    piecewise-linear traces.  ``domain`` selects the integration variable:
    "position" (degC * cm) or "time" (degC * s).
    """
    xs = _area_axis(domain, trace.times, trace.positions)
    return float(_reflow_area_rows(xs, trace.temps[None])[0])


def symmetry_score(trace: ThermalTrace, offset_step: float = DEFAULT_OFFSET_STEP) -> float:
    """Sum of squared temperature mismatches at mirrored offsets around the
    center of the above-217 pass.

    The melting crossings t1 and t2 are interpolated, the center is their
    midpoint, and pairs are taken at offsets offset_step, 2*offset_step, ...
    while both mirrored points stay inside [t1, t2].  Zero means a perfectly
    symmetric pass.

    Raises
    ------
    ValueError
        If the trace never exceeds 217 degC, or exceeds it on more than one
        disjoint interval.
    """
    scores, passes = _symmetry_rows(trace.times, trace.temps[None], offset_step)
    if passes[0] == 0:
        raise ValueError("trace never exceeds 217 degC; symmetry undefined")
    if passes[0] > 1:
        raise ValueError(
            f"trace exceeds 217 degC on {passes[0]} disjoint intervals; "
            "symmetry undefined"
        )
    return scores[0]


@dataclass(frozen=True)
class SpeedCheck:
    speed: float
    metrics: TraceMetrics
    verdict: LimitVerdict


@dataclass(frozen=True)
class SpeedSweepResult:
    """Outcome of the speed-only sweep."""

    feasible_speeds: tuple[float, ...]
    max_feasible: float | None
    per_speed: tuple[SpeedCheck, ...]

    def __post_init__(self):
        object.__setattr__(self, "feasible_speeds", tuple(self.feasible_speeds))
        object.__setattr__(self, "per_speed", tuple(self.per_speed))
        expected = self.feasible_speeds[-1] if self.feasible_speeds else None
        if self.max_feasible != expected:
            raise ValueError("max_feasible must be the last feasible speed")


def feasible_speed_interval(
    layout: OvenLayout,
    params: ProcessParameters,
    weight: float,
    coefficient: float,
    speed_range: tuple[float, float] = (65.0, 100.0),
    speed_step: float = DEFAULT_SPEED_SWEEP_STEP,
    grid: SimulationGrid | None = None,
    limits: ProcessLimits | None = None,
) -> SpeedSweepResult:
    """Sweep the belt speed on an inclusive grid at fixed setpoints.

    params.belt_speed is ignored; each grid speed is simulated, measured and
    checked against the limits.  An empty feasible set is a valid result.
    Speeds go through ``thermal.simulate_speeds``'s plateau-compacted
    kernel in RK4 blocks of as many rows as keep its largest array per stage
    within _BLOCK_BYTES: the nodes of a row's varying samples, or its
    samples, at the speed that needs the most.  The blocks write their
    samples into a sample block of several RK4 blocks; the metrics and the
    limit masks then run once per sample block, each row over its own
    samples.  Every block reuses the same buffers.
    """
    grid = grid if grid is not None else SimulationGrid()
    limits = limits if limits is not None else ProcessLimits()
    profile = build_profile(layout, params, weight)
    model = WeldingModel(coefficient)
    speeds = inclusive_grid(speed_range[0], speed_range[1], speed_step)
    speed_rows = np.array(speeds)
    n_steps = step_counts(profile.total_length_cm, speed_rows, grid.dt)
    n_samples = n_steps // grid.stride + 1
    times = np.arange(n_samples.max()) * grid.dt_out
    # every speed's compacted row, padded to the slowest: no block's rows
    # need more
    plan = _Plateaus(profile, speed_rows, grid.dt, grid.stride, int(n_steps.max()))
    varying = int(plan.varying_counts().max())
    block = _rk4_rows(max(varying * (grid.stride + 1), len(times)))
    buffers = plan.buffers(block, max(block * len(times), _BLOCK_BYTES // 8))
    wide = _sample_block_rows(block, len(times), buffers.samples.size)
    per_speed = []
    for lo in range(0, len(speeds), wide):
        lengths = n_samples[lo : lo + wide]
        temps = _view(buffers.samples, (len(lengths), lengths.max()))
        for r0 in range(0, len(lengths), block):
            part = temps[r0 : r0 + block]
            rows = slice(lo + r0, lo + r0 + len(part))
            _, counts = _simulate_rows(profile, params.tt5, model, grid, speed_rows[rows],
                                       n_steps[rows], buffers, part)
            # the columns past this RK4 block's longest row hold its last
            # sample, so no stale value enters the padding
            part[:, counts.max() :] = part[:, counts.max() - 1, None]
        metrics = metrics_rows(times[: temps.shape[1]], temps, grid.dt_out, lengths)
        # the verdicts hold the very values of the rows' TraceMetrics
        row_metrics = list(metrics)
        per_speed += map(SpeedCheck, speeds[lo : lo + wide], row_metrics,
                         verdict_rows(row_metrics, metrics, limits))
    feasible = tuple(c.speed for c in per_speed if c.verdict.passed)
    return SpeedSweepResult(feasible, feasible[-1] if feasible else None, tuple(per_speed))


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
    """Best feasible candidate under the named objective, if any."""

    objective: str
    best: SweepCandidate | None
    candidates_evaluated: int
    candidates: tuple[SweepCandidate, ...]
    rejected_from_objective: int = 0


def _rk4_rows(row_floats: int) -> int:
    """Rows of an RK4 block whose largest array per stage (the field at the
    nodes, say) takes row_floats floats a row: as many as keep it within
    _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // (8 * row_floats))


def _sample_block_rows(rk4_rows: int, n_samples: int, capacity: int) -> int:
    """Rows of a sample block: whole RK4 blocks, as many as keep its samples
    within _BLOCK_BYTES and within the shared samples buffer of ``capacity``
    floats, which always holds one RK4 block's samples."""
    fit = min(_BLOCK_BYTES // (8 * n_samples), capacity // n_samples)
    return max(1, fit // rk4_rows) * rk4_rows


def _block_buffers() -> _Buffers:
    """Buffers for the blocks of a joint sweep: they hold every RK4 block
    whose largest array per stage fits _BLOCK_BYTES, and its sample block.
    The compacted field has 2s + 1 stages per varying sample against the
    s + 1 nodes that size the block, so it takes less than twice that; the
    forcing and the sample block take it once.  A larger block grows them.
    """
    floats = _BLOCK_BYTES // 8
    return _Buffers(stages=2 * floats, forcing=floats, samples=floats)


def _evaluate_speed(
    model: WeldingModel,
    grid: SimulationGrid,
    limits: ProcessLimits,
    area_domain: str,
    speed: float,
    rows: list[tuple],
    template,
    levels: np.ndarray,
    buffers: _Buffers,
) -> list[SweepCandidate]:
    """Candidates of the setpoint rows (tt1..tt5) whose profiles share the
    geometry_key of ``template``, at one belt speed; ``levels`` holds their
    ``_level_columns``.

    The plateau-compacted kernel (``thermal._Plateaus``) lays out the speed's
    samples once: the stage positions of those that touch a sigmoid, the
    cooling blend or a segment join, what of their field depends on
    position alone, and the Horner sums inside the cooling blend, which are
    the same for every profile.  Rows then go through in RK4 blocks of as
    many rows as keep the largest compacted array per stage (the varying
    samples' nodes, or the samples) within _BLOCK_BYTES, all in the same
    buffers, grown here when too small.  The RK4 blocks write their
    samples into consecutive rows of a sample block, and metrics, limit
    checks, reflow area and symmetry run once per sample block, on one
    crossing of the melting line.
    """
    s = grid.stride
    speeds = np.array([speed])
    n_steps = int(step_counts(template.total_length_cm, speeds, grid.dt)[0])
    plan = _Plateaus(template, speeds, grid.dt, s, n_steps)
    n_samples = n_steps // s + 1
    # the samples the kernel keeps: every stride-th node
    times = np.arange(n_samples) * grid.dt_out
    xs = _area_axis(area_domain, times, (speed / 60.0) * times)
    block = _rk4_rows(max(int(plan.varying_counts()[0]) * (s + 1), n_samples))
    plan.buffers(block, block * n_samples, buffers)
    wide = _sample_block_rows(block, n_samples, buffers.samples.size)
    coefficients = _rk4_coefficients(model.coefficient * grid.dt)
    field = plan.field(buffers)
    y0 = np.array([row[4] for row in rows], dtype=float)
    out = []
    for lo in range(0, len(rows), wide):
        temps = _view(buffers.samples, (min(wide, len(rows) - lo), n_samples))
        for r0 in range(0, len(temps), block):
            part = slice(lo + r0, lo + min(r0 + block, len(temps)))
            plan.integrate(field, levels[part], y0[part], coefficients, buffers,
                           temps[r0 : r0 + block])
        melt = _super_level_segments(temps, MELT_C)
        metrics = metrics_rows(times, temps, grid.dt_out, None, melt)
        feasible = check_rows(metrics, limits).all(axis=0).tolist()
        areas = _reflow_area_rows(xs, temps, melt).tolist()
        symmetry, _ = _symmetry_rows(times, temps, DEFAULT_OFFSET_STEP, melt)
        for row, m, area, sym, ok in zip(rows[lo : lo + wide], metrics, areas, symmetry,
                                         feasible):
            out.append(SweepCandidate(ProcessParameters(*row, belt_speed=speed), m, area, sym,
                                      ok))
    return out


def _evaluate_group(
    model: WeldingModel,
    grid: SimulationGrid,
    limits: ProcessLimits,
    area_domain: str,
    speeds: tuple[float, ...],
    job: tuple,
    buffers: _Buffers | None = None,
) -> list[list[SweepCandidate]]:
    """Evaluate a job of setpoint rows whose profiles share one geometry_key
    at every sweep speed: (template profile, rows, their level columns).
    One list of candidates per row, in speed order.  Without buffers it
    makes its own.  Top-level so process pools can pickle it.
    """
    template, rows, levels = job
    buffers = buffers if buffers is not None else _block_buffers()
    by_speed = [_evaluate_speed(model, grid, limits, area_domain, v, rows, template, levels,
                                buffers)
                for v in speeds]
    return [list(cands) for cands in zip(*by_speed)]


def _sweep_jobs(layout: OvenLayout, ranges: ParameterRanges, weight: float, workers: int):
    """The lattice of the setpoint ranges, in sweep order, and the jobs that
    cover it: (row indices, (template profile, rows, level columns)).

    The lattice is one array of setpoint rows (tt1..tt4 from the ranges'
    grids, tt5 the one value of ranges.tt5), grouped by the geometry
    of their profiles (``ambient._geometry_groups``).  Each group's first
    row gives its template profile and, from the same assembly, the
    setpoints its levels come from, so the rows' level columns are one
    gather.  With a pool, the groups are split so the workers get similar
    shares.
    """
    _sweep_size(ranges)
    grids = [inclusive_grid(*getattr(ranges, name), ranges.temp_step)
             for name in ("tt1", "tt2", "tt3", "tt4")]
    rows = list(product(*grids, [float(ranges.tt5[0])]))
    setpoints = np.array(rows, dtype=float)
    size = len(rows) if workers <= 1 else math.ceil(len(rows) / (4 * workers))
    jobs = []
    for idx in _geometry_groups(layout, setpoints):
        first = ProcessParameters(*rows[idx[0]])
        # the template is the profile build_profile gives any caller; its
        # level sources come from the same assembly
        template = build_profile(layout, first, weight)
        levels = _gathered_levels(setpoints[idx], _assemble(layout, first, weight)[1])
        for lo in range(0, len(idx), size):
            piece = idx[lo : lo + size]
            jobs.append((piece, (template, [rows[i] for i in piece], levels[lo : lo + size])))
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
) -> list[SweepCandidate]:
    """Every grid candidate, ordered by setpoint combination, then speed."""
    _area_axis(area_domain, None, None)  # reject a bad domain before any work
    model = WeldingModel(coefficient)
    check_step(coefficient, grid.dt)
    rows, jobs = _sweep_jobs(layout, ranges, weight, workers)
    speeds = tuple(inclusive_grid(*ranges.belt_speed, ranges.speed_step))
    evaluate = partial(_evaluate_group, model, grid, limits, area_domain, speeds)
    if workers > 1:
        # imported here: the pool's modules cost a one-process run start-up time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(evaluate, [job for _, job in jobs]))
    else:
        buffers = _block_buffers()
        batches = [evaluate(job, buffers) for _, job in jobs]
    per_row = [None] * len(rows)
    for (idx, _), batch in zip(jobs, batches):
        for i, cands in zip(idx.tolist(), batch):
            per_row[i] = cands
    return [cand for cands in per_row for cand in cands]


def _refined_ranges(ranges: ParameterRanges, best: ProcessParameters, factor: int) -> ParameterRanges:
    """Shrink the grids to +/- one step around the incumbent at step/factor."""

    def narrow(interval, center, step):
        return (max(interval[0], center - step), min(interval[1], center + step))

    return ParameterRanges(
        tt1=narrow(ranges.tt1, best.tt1, ranges.temp_step),
        tt2=narrow(ranges.tt2, best.tt2, ranges.temp_step),
        tt3=narrow(ranges.tt3, best.tt3, ranges.temp_step),
        tt4=narrow(ranges.tt4, best.tt4, ranges.temp_step),
        tt5=ranges.tt5,
        belt_speed=narrow(ranges.belt_speed, best.belt_speed, ranges.speed_step),
        temp_step=ranges.temp_step / factor,
        speed_step=ranges.speed_step / factor,
    )


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


def objective_eligible(objective: str, candidate: SweepCandidate) -> bool:
    """Whether a candidate can compete under the objective."""
    if objective == "area":
        return candidate.feasible
    if objective == "symmetry":
        return candidate.feasible and candidate.symmetry is not None
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
    refine_factor: int,
    workers: int,
) -> OptimizationResult:
    grid = grid if grid is not None else SimulationGrid()
    limits = limits if limits is not None else ProcessLimits()
    if objective not in ("area", "symmetry"):
        raise ValueError(f"unknown objective {objective!r}")
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be 0 or positive, got {refine_rounds}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")

    def sort_key(c: SweepCandidate):
        return objective_key(objective, c)

    def eligible(c: SweepCandidate) -> bool:
        return objective_eligible(objective, c)

    candidates: list[SweepCandidate] = []
    seen: set[tuple] = set()
    current_ranges = ranges
    best = None
    for round_idx in range(refine_rounds + 1):
        batch = _sweep_grid(
            layout, current_ranges, weight, coefficient, grid, limits, area_domain, workers
        )
        for cand in batch:
            k = tuple(round(x, 9) for x in cand.key())
            if k in seen:
                continue
            seen.add(k)
            candidates.append(cand)
        pool = [c for c in candidates if eligible(c)]
        best = min(pool, key=sort_key) if pool else None
        if best is None or round_idx == refine_rounds:
            break
        current_ranges = _refined_ranges(current_ranges, best.params, refine_factor)

    rejected = sum(1 for c in candidates if c.feasible and c.symmetry is None)
    if best is not None and not check_limits(best.metrics, limits).passed:
        raise RuntimeError("internal error: selected candidate fails the limit re-check")
    return OptimizationResult(
        objective=objective,
        best=best,
        candidates_evaluated=len(candidates),
        candidates=tuple(candidates),
        rejected_from_objective=rejected if objective == "symmetry" else 0,
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
    refine_factor: int = 5,
    workers: int = 1,
) -> OptimizationResult:
    """Exhaustively search the setpoint/speed grids for the feasible candidate
    with the smallest reflow area.

    Ties break toward the lexicographically smallest (tt1, tt2, tt3, tt4,
    belt_speed).  With refine_rounds > 0, each round re-grids one step around
    the incumbent at step/refine_factor and re-evaluates.  An infeasible-
    everywhere sweep returns best=None rather than raising.
    """
    return _optimize(
        "area", layout, ranges, weight, coefficient, grid, limits,
        area_domain, refine_rounds, refine_factor, workers,
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
    refine_factor: int = 5,
    workers: int = 1,
) -> OptimizationResult:
    """Joint sweep minimizing (symmetry score, reflow area) lexicographically.

    Feasible candidates whose above-217 pass is disconnected have no
    symmetry score; they are excluded from the objective and counted in
    rejected_from_objective.
    """
    return _optimize(
        "symmetry", layout, ranges, weight, coefficient, grid, limits,
        area_domain, refine_rounds, refine_factor, workers,
    )
