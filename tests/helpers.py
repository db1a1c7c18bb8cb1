"""Independent oracle implementations used by the test suite.

Everything here deliberately avoids the library's own algorithms: the RK4
reference runs the textbook four-stage loop instead of the affine/filter
form, metrics come from dense resampling instead of interpolated crossings,
and the sweep oracles are plain nested loops with explicit if-chains.

The field oracle, ``ambient_reference``, finds each position's segment by
comparing it with the segment ends and applies that segment's own
``evaluate``; the library evaluates every field through ``FieldRows``
instead.  The RK4 and forward-Euler oracles take their field from it.
``geometry_key`` is the oracle partition of profiles by segment geometry,
which the library's ``_geometry_groups`` computes from setpoints alone.

One oracle is the exception: the full-field RK4 path (``stage_positions``,
``integrate_rows``, ``full_field_rk4``) evaluates the reference field at
every node and midpoint, then reuses the library's ``_forcing_sums`` and
``_sample_scan``.  It is the bit-identity oracle of the plateau-compacted
kernel, which must give the same floats, not merely close ones; the
textbook loop above checks its arithmetic only to a tolerance.

The trace CSV oracle (``write_trace_rows``, ``load_trace_rows``) formats and
parses one row at a time with ``str.format`` and ``float()``: the library's
chunked writer and loader must give the same bytes, arrays and messages.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from reflowsim import (
    OvenLayout,
    ParameterRanges,
    ProcessLimits,
    ProcessParameters,
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    build_profile,
    inclusive_grid,
    reflow_area,
    simulate,
    symmetry_score,
)
from reflowsim.ambient import ExpLinearBlendSegment
from reflowsim.limits import check_limits, compute_metrics
from reflowsim.optimize import SweepCandidate
from reflowsim.oven import cm_per_second, position_at_time
from reflowsim.thermal import (
    _MAX_STEPS,
    _forcing_sums,
    _rk4_coefficients,
    _sample_scan,
    step_counts,
)


def piecewise_trace(dt: float, belt_speed: float, vertices) -> ThermalTrace:
    """Trace passing exactly through (t, temp) vertices, sampled every dt.

    Vertex times must land on the dt grid so the sampled trace reproduces
    the polyline exactly (its slopes and crossings are then analytic).
    """
    vertices = sorted(vertices)
    t_end = vertices[-1][0]
    n = int(round(t_end / dt))
    if abs(n * dt - t_end) > 1e-9:
        raise ValueError("last vertex time must be a multiple of dt")
    for t, _ in vertices:
        k = t / dt
        if abs(k - round(k)) > 1e-9:
            raise ValueError(f"vertex time {t} is off the dt={dt} grid")
    times = np.arange(n + 1) * dt
    vt = np.array([v[0] for v in vertices])
    vy = np.array([v[1] for v in vertices])
    temps = np.interp(times, vt, vy)
    return ThermalTrace(dt, belt_speed, temps)


def ambient_reference(profile, x):
    """The ambient field at positions x in cm, each from its own segment's
    ``evaluate``: the segment whose [x_start, x_end) holds it, and the last
    segment at the furnace end.  Scalar in, float out; array in, float
    ndarray of x's shape out.  Positions no segment holds raise."""
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, np.nan)
    last = profile.segments[-1]
    for seg in profile.segments:
        at = (seg.x_start <= x) & ((x < seg.x_end) | ((seg is last) & (x == seg.x_end)))
        out[at] = seg.evaluate(x[at])
    if np.isnan(out).any():
        raise ValueError(f"positions outside the furnace: {x[np.isnan(out)]}")
    return float(out) if out.ndim == 0 else out


def geometry_key(profile) -> tuple:
    """Everything of a profile except its plateau and transition levels:
    each segment's type and bounds, a sigmoid's centre, and the cooling
    blend whole (its exponential depends on its endpoint temperatures).
    Profiles with equal keys differ only in ConstantSegment.level and in
    SigmoidSegment.t_before/t_after."""
    return tuple(
        seg if isinstance(seg, ExpLinearBlendSegment)
        else (type(seg), seg.x_start, seg.x_end, getattr(seg, "center", None))
        for seg in profile.segments
    )


def naive_rk4(profile, params, coefficient, dt, dt_out):
    """Textbook per-step RK4 loop for the heating ODE; the field comes from
    ``ambient_reference``, at every stage position in one call."""
    v = params.belt_speed
    total = profile.total_length_cm
    t_end = total * 60.0 / v
    n_steps = int(math.floor(t_end / dt + 1e-9))
    stride = int(round(dt_out / dt))
    stages = [(min((v / 60.0) * (i * dt), total),
               min((v / 60.0) * (i * dt + 0.5 * dt), total),
               min((v / 60.0) * (i * dt + dt), total)) for i in range(n_steps)]
    field = ambient_reference(profile, np.array(stages).reshape(n_steps, 3)).tolist()
    y = float(params.tt5)
    out = [y]
    for i, (ta, tb, tc) in enumerate(field):
        k1 = coefficient * (ta - y)
        k2 = coefficient * (tb - (y + 0.5 * dt * k1))
        k3 = coefficient * (tb - (y + 0.5 * dt * k2))
        k4 = coefficient * (tc - (y + dt * k3))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % stride == 0:
            out.append(y)
    return ThermalTrace(dt_out, v, np.array(out))


def euler_reference(profile, params, model, dt: float) -> ThermalTrace:
    """Forward-Euler integration of the heating ODE as a plain Python loop,
    sampled at every step (the trace's dt is the integration dt); the field
    comes from ``ambient_reference`` at every node.

    First-order, no coefficient algebra, nothing shared with the library's
    field.  Refuses a bad dt, e = coefficient * dt above 1 (there a step is
    no longer a weighted mean of y and the ambient, and the trace can
    overshoot it) and more steps than the library's cap (``step_counts``).
    """
    v = params.belt_speed
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    q = model.coefficient
    if not q * dt <= 1.0:
        raise ValueError(
            f"forward-Euler step is unstable: coefficient {q} * dt {dt} = e {q * dt:.6g}, "
            "above 1, where a step is no longer a weighted mean of y and the ambient"
        )
    total = profile.total_length_cm
    n_steps = int(step_counts(total, v, dt))
    node_times = np.arange(n_steps + 1) * dt
    x_nodes = np.clip(position_at_time(v, node_times), 0.0, total)
    amb = ambient_reference(profile, x_nodes).tolist()
    y = float(params.tt5)
    temps = [y]
    for i in range(n_steps):
        y = y + dt * q * (amb[i] - y)
        temps.append(y)
    return ThermalTrace(dt, v, np.array(temps))


def resample(trace: ThermalTrace, dt_out: float) -> ThermalTrace:
    """Linear interpolation of a trace onto nodes k * dt_out up to its final
    time; refuses a bad dt_out, and more intervals than the library's step
    cap before any array is built."""
    if not (math.isfinite(dt_out) and dt_out > 0):
        raise ValueError(f"dt_out must be positive and finite, got {dt_out}")
    n = np.floor(trace.duration / dt_out + 1e-9)
    if not n <= _MAX_STEPS:
        raise ValueError(f"dt_out = {dt_out} s needs {n:.0f} intervals to span the trace; "
                         f"the limit is {_MAX_STEPS}")
    new_times = np.arange(int(n) + 1) * dt_out
    return ThermalTrace(dt_out, trace.belt_speed,
                        np.interp(new_times, trace.times, trace.temps))


def stage_positions(total_cm: float, belt_speeds, dt: float):
    """Positions of the RK4 nodes and of the half-step midpoints, in cm, one
    row per belt speed, and each row's step count.

    A row's stage positions up to its own step count stay inside the
    furnace.  Shorter rows are padded to the longest by running on past the
    exit, where the clip holds them at the furnace end.  Both arrays are
    views of one.
    """
    speeds = np.atleast_1d(np.asarray(belt_speeds, dtype=float))
    n_steps = step_counts(total_cm, speeds, dt)
    n = int(n_steps.max())
    node_times = np.arange(n + 1) * dt
    rate = cm_per_second(speeds)[:, None]
    x = np.empty((len(speeds), 2 * n + 1))
    np.multiply(rate, node_times, out=x[:, : n + 1])
    np.multiply(rate, node_times[:-1] + 0.5 * dt, out=x[:, n + 1 :])
    np.clip(x, 0.0, total_cm, out=x)
    return x[:, : n + 1], x[:, n + 1 :], n_steps


def integrate_rows(t_amb_nodes, t_amb_mid, y0, coefficient: float, grid: SimulationGrid):
    """RK4 traces of many ambient fields at once, one per row, from the
    field at every node (one more column) and midpoint; both are
    overwritten.  Returns every grid.stride-th node of each row: the affine
    recursion y[n+1] = A*y[n] + f[n] stepped from kept sample to kept sample
    through the library's ``_forcing_sums`` and ``_sample_scan``."""
    coefficients = _rk4_coefficients(coefficient * grid.dt)
    s = grid.stride
    rows, n_steps = t_amb_mid.shape
    out = np.empty((rows, n_steps // s + 1))
    _forcing_sums(t_amb_nodes, t_amb_mid, coefficients, s, np.empty((rows, n_steps)),
                  out[:, 1:])
    return _sample_scan(out, coefficients[0] ** s, y0)


def full_field_rk4(profile, y0, coefficient: float, grid: SimulationGrid, belt_speeds):
    """Every belt speed's row through the full field: stage positions,
    ``ambient_reference`` at every node and midpoint, ``integrate_rows``."""
    x_nodes, x_mid, _ = stage_positions(profile.total_length_cm, belt_speeds, grid.dt)
    return integrate_rows(ambient_reference(profile, x_nodes),
                          ambient_reference(profile, x_mid), y0, coefficient, grid)


def dense_resample(trace, step=0.001):
    """Dense piecewise-linear resampling of a trace."""
    t = np.arange(0.0, trace.times[-1] + step / 2, step)
    return t, np.interp(t, trace.times, trace.temps)


def oracle_metrics(trace, step=0.001):
    """Brute-force metric extraction on a dense grid.

    Returns a dict so it cannot accidentally share code paths with
    TraceMetrics.  Crossing times are dense-grid scans, accurate to ~step.
    """
    slopes = []
    for i in range(len(trace) - 1):
        slopes.append((trace.temps[i + 1] - trace.temps[i]) / trace.dt)
    td, yd = dense_resample(trace, step)
    peak_idx_dense = int(np.argmax(yd))
    peak_idx = int(np.argmax(trace.temps))

    def first_reach(level):
        hits = np.nonzero(yd[: peak_idx_dense + 1] >= level)[0]
        return None if hits.size == 0 else float(td[hits[0]])

    t150 = first_reach(150.0)
    t190 = first_reach(190.0)
    rise = None if t150 is None or t190 is None else t190 - t150
    above = float(np.count_nonzero(yd > 217.0) * step)
    return {
        "max_slope": max(slopes),
        "min_slope": min(slopes),
        "rise": rise,
        "above": above,
        "peak": float(trace.temps[peak_idx]),
        "peak_time": float(trace.times[peak_idx]),
    }


def oracle_verdict(m, limits: ProcessLimits | None = None):
    """Independent if-chain over the five limits; returns 5 booleans."""
    lim = limits if limits is not None else ProcessLimits()
    ok1 = m["max_slope"] <= lim.slope_max
    ok2 = m["min_slope"] >= lim.slope_min
    ok3 = m["rise"] is not None and lim.rise_150_190[0] <= m["rise"] <= lim.rise_150_190[1]
    ok4 = lim.time_above_217[0] <= m["above"] <= lim.time_above_217[1]
    ok5 = lim.peak[0] <= m["peak"] <= lim.peak[1]
    return (ok1, ok2, ok3, ok4, ok5)


def brute_force_above_duration(trace, step=0.001):
    _, yd = dense_resample(trace, step)
    return float(np.count_nonzero(yd > 217.0) * step)


def brute_force_area(trace, step=0.001):
    """Riemann sum of max(f - 217, 0) over position at a fine step."""
    x = np.arange(trace.positions[0], trace.positions[-1], step)
    y = np.interp(x, trace.positions, trace.temps)
    return float(np.sum(np.maximum(y - 217.0, 0.0)) * step)


def loop_above_intervals(times, temps, level):
    """The maximal intervals where a row's interpolant exceeds level, from a
    sample-by-sample crossing loop; intervals that touch within 1e-9 s are
    merged."""
    intervals = []
    inside = temps[0] > level
    start = times[0] if inside else None
    for i in range(len(times) - 1):
        t0, t1 = times[i], times[i + 1]
        y0, y1 = temps[i], temps[i + 1]
        if not inside and y1 > level >= y0:
            start = t0 + (t1 - t0) * (level - y0) / (y1 - y0)
            inside = True
        elif inside and y1 <= level:
            end = t0 + (t1 - t0) * (y0 - level) / (y0 - y1)
            intervals.append((start, end))
            inside = False
    if inside:
        intervals.append((start, times[-1]))
    merged = [intervals[0]] if intervals else []
    for lo, hi in intervals[1:]:
        if lo - merged[-1][1] <= 1e-9:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def loop_symmetry(times, temps):
    """Symmetry score from the loop's intervals, with np.interp at each
    offset pair, and the number of intervals; the score is None unless
    there is exactly one."""
    intervals = loop_above_intervals(times, temps, 217.0)
    if len(intervals) != 1:
        return None, len(intervals)
    t1, t2 = intervals[0]
    center = 0.5 * (t1 + t2)
    k = int(np.floor(0.5 * (t2 - t1) / 0.5 + 1e-9))
    if k == 0:
        return 0.0, 1
    offsets = (np.arange(k) + 1) * 0.5
    left = np.interp(center - offsets, times, temps)
    right = np.interp(center + offsets, times, temps)
    return float(np.sum((left - right) ** 2)), 1


def brute_force_speed_sweep(layout, params, weight, coefficient,
                            speed_range=(65.0, 100.0), speed_step=0.1,
                            grid=None, limits=None):
    """Independently coded per-speed limit check over the same grid."""
    grid = grid if grid is not None else SimulationGrid()
    lim = limits if limits is not None else ProcessLimits()
    profile = build_profile(layout, params, weight)
    feasible = []
    values = inclusive_grid(speed_range[0], speed_range[1], speed_step)
    for v in values:
        p = ProcessParameters(params.tt1, params.tt2, params.tt3, params.tt4,
                              params.tt5, v)
        trace = simulate(profile, p, WeldingModel(coefficient), grid)
        m = compute_metrics(trace)
        ok = True
        if m.max_slope > lim.slope_max:
            ok = False
        if m.min_slope < lim.slope_min:
            ok = False
        if m.rise_time_150_190 is None:
            ok = False
        elif not (lim.rise_150_190[0] <= m.rise_time_150_190 <= lim.rise_150_190[1]):
            ok = False
        if not (lim.time_above_217[0] <= m.duration_above_217 <= lim.time_above_217[1]):
            ok = False
        if not (lim.peak[0] <= m.peak_temp <= lim.peak[1]):
            ok = False
        if ok:
            feasible.append(v)
    return feasible


def brute_force_joint_sweep(layout, ranges: ParameterRanges, weight, coefficient,
                            objective, grid=None, limits=None,
                            area_domain="position", shuffle_seed=None):
    """Independent exhaustive re-evaluation of the joint sweep.

    Explicit nested loops, optional shuffled evaluation order, and a running
    minimum under the documented ordering.  Returns (best_tuple, best_area,
    best_symmetry) or None.
    """
    grid = grid if grid is not None else SimulationGrid()
    lim = limits if limits is not None else ProcessLimits()
    points = []
    for tt1 in inclusive_grid(*ranges.tt1, ranges.temp_step):
        for tt2 in inclusive_grid(*ranges.tt2, ranges.temp_step):
            for tt3 in inclusive_grid(*ranges.tt3, ranges.temp_step):
                for tt4 in inclusive_grid(*ranges.tt4, ranges.temp_step):
                    for v in inclusive_grid(*ranges.belt_speed, ranges.speed_step):
                        points.append((tt1, tt2, tt3, tt4, v))
    if shuffle_seed is not None:
        rng = np.random.default_rng(shuffle_seed)
        rng.shuffle(points)

    best_key = None
    best = None
    model = WeldingModel(coefficient)
    profiles = {}
    for tt1, tt2, tt3, tt4, v in points:
        p = ProcessParameters(tt1, tt2, tt3, tt4, 25.0, v)
        temps_key = (tt1, tt2, tt3, tt4)
        if temps_key not in profiles:
            profiles[temps_key] = build_profile(layout, p, weight)
        trace = simulate(profiles[temps_key], p, model, grid)
        m = compute_metrics(trace)
        if not check_limits(m, lim).passed:
            continue
        area = reflow_area(trace, area_domain)
        try:
            sym = symmetry_score(trace)
        except ValueError:
            sym = None
        if objective == "area":
            key = (area, tt1, tt2, tt3, tt4, v)
        else:
            if sym is None:
                continue
            key = (sym, area, tt1, tt2, tt3, tt4, v)
        if best_key is None or key < best_key:
            best_key = key
            best = ((tt1, tt2, tt3, tt4, v), area, sym)
    return best


def brute_force_candidates(layout, ranges: ParameterRanges, weight, coefficient,
                           objective, grid=None, limits=None,
                           area_domain="position", refine_rounds=0):
    """Every candidate of the joint sweep with its refinement rounds, one at
    a time, and the winner: (candidates, best).

    Each round walks its grid in sweep order through build_profile,
    simulate, compute_metrics, check_limits, reflow_area and
    symmetry_score, and keeps a candidate unless an earlier one has the same
    key, each coordinate rounded to 9 decimals on its own.  The winner is a
    running minimum under the documented ordering.  The next round re-grids
    one step around it at a fifth of the step; a round whose keys were all
    seen adds nothing, so this loop needs no stopping rule of its own.
    """
    grid = grid if grid is not None else SimulationGrid()
    lim = limits if limits is not None else ProcessLimits()
    model = WeldingModel(coefficient)
    candidates, seen, best, best_key = [], set(), None, None
    for round_idx in range(refine_rounds + 1):
        temps = [inclusive_grid(*iv, ranges.temp_step)
                 for iv in (ranges.tt1, ranges.tt2, ranges.tt3, ranges.tt4)]
        speeds = inclusive_grid(*ranges.belt_speed, ranges.speed_step)
        for tt1, tt2, tt3, tt4, v in itertools.product(*temps, speeds):
            key = tuple(round(x, 9) for x in (tt1, tt2, tt3, tt4, v))
            if key in seen:
                continue
            seen.add(key)
            p = ProcessParameters(tt1, tt2, tt3, tt4, float(ranges.tt5[0]), v)
            trace = simulate(build_profile(layout, p, weight), p, model, grid)
            m = compute_metrics(trace)
            try:
                sym = symmetry_score(trace)
            except ValueError:
                sym = None
            cand = SweepCandidate(p, m, reflow_area(trace, area_domain), sym,
                                  check_limits(m, lim).passed)
            candidates.append(cand)
            if not cand.feasible or (objective == "symmetry" and sym is None):
                continue
            order = (cand.area, *cand.key()) if objective == "area" \
                else (sym, cand.area, *cand.key())
            if best_key is None or order < best_key:
                best_key, best = order, cand
        if best is None or round_idx == refine_rounds:
            break
        b, t, s = best.params, ranges.temp_step, ranges.speed_step
        ranges = ParameterRanges(
            tt1=(max(ranges.tt1[0], b.tt1 - t), min(ranges.tt1[1], b.tt1 + t)),
            tt2=(max(ranges.tt2[0], b.tt2 - t), min(ranges.tt2[1], b.tt2 + t)),
            tt3=(max(ranges.tt3[0], b.tt3 - t), min(ranges.tt3[1], b.tt3 + t)),
            tt4=(max(ranges.tt4[0], b.tt4 - t), min(ranges.tt4[1], b.tt4 + t)),
            tt5=ranges.tt5,
            belt_speed=(max(ranges.belt_speed[0], b.belt_speed - s),
                        min(ranges.belt_speed[1], b.belt_speed + s)),
            temp_step=t / 5, speed_step=s / 5,
        )
    return candidates, best


_SPEED_COMMENT = "# belt_speed_cm_min ="


def write_trace_rows(trace: ThermalTrace, path) -> None:
    """Trace CSV writer formatting each row's NumPy scalars with ``str.format``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_SPEED_COMMENT} {trace.belt_speed:.10g}\n")
        fh.write("t_s,x_cm,temp_c\n")
        for t, x, temp in zip(trace.times, trace.positions, trace.temps):
            fh.write("{:.6f},{:.6f},{:.6f}\n".format(t, x, temp))


def load_trace_rows(path, belt_speed: float | None = None) -> ThermalTrace:
    """Trace CSV loader converting each cell with ``float()``, row by row.

    Same checks in the same order with the same messages as
    ``load_trace_csv``; a leading byte-order mark is skipped, as there.
    """
    comment_speed = None
    header = None
    rows: list[tuple[int, list[str]]] = []
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(_SPEED_COMMENT):
                    text = line[len(_SPEED_COMMENT):].strip()
                    try:
                        comment_speed = float(text)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {lineno}: belt speed comment {text!r} is not a number"
                        ) from None
                continue
            if header is None:
                header = line
                continue
            rows.append((lineno, line.split(",")))

    if header not in ("t_s,x_cm,temp_c", "t_s,temp_c"):
        raise ValueError(
            f"{path}: malformed header {header!r}; expected "
            f"'t_s,x_cm,temp_c' or 't_s,temp_c'"
        )
    n_cols = 3 if header == "t_s,x_cm,temp_c" else 2
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(rows)}")

    data = np.empty((len(rows), n_cols))
    for i, (lineno, cells) in enumerate(rows):
        if len(cells) != n_cols:
            raise ValueError(
                f"{path}: row {lineno}: expected {n_cols} columns, got {len(cells)}"
            )
        try:
            data[i] = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{path}: row {lineno}: non-numeric value") from None
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        (lineno, cells), col = rows[bad[0][0]], bad[0][1]
        raise ValueError(f"{path}: row {lineno}: non-finite value {cells[col].strip()!r}")

    times = data[:, 0]
    temps = data[:, -1]
    if abs(times[0]) > 1e-6:
        raise ValueError(
            f"{path}: row {rows[0][0]}: time must start at 0, got {times[0]}"
        )
    deltas = np.diff(times)
    bad = np.nonzero(deltas <= 0)[0]
    if bad.size:
        raise ValueError(
            f"{path}: row {rows[bad[0] + 1][0]}: time is not strictly increasing"
        )
    dt = (times[-1] - times[0]) / (len(times) - 1)
    drift = np.abs(times - np.arange(len(times)) * dt)
    bad = np.nonzero(drift > 1e-6)[0]
    if bad.size:
        raise ValueError(
            f"{path}: row {rows[bad[0]][0]}: non-uniform time spacing "
            f"(off the uniform grid by {drift[bad[0]]:.3g} s)"
        )

    speed = belt_speed if belt_speed is not None else comment_speed
    if speed is None and n_cols == 3:
        if times[-1] <= 0:
            raise ValueError(f"{path}: cannot infer belt speed from a zero-length trace")
        speed = 60.0 * data[-1, 1] / times[-1]
    if speed is None:
        raise ValueError(
            f"{path}: no x column and no belt speed given; pass belt_speed "
            f"or add a '{_SPEED_COMMENT} ...' comment"
        )
    if not (np.isfinite(speed) and speed > 0):
        raise ValueError(f"{path}: belt_speed must be positive and finite, got {speed}")

    if n_cols == 3:
        expected_x = (speed / 60.0) * np.arange(len(times)) * dt
        bad = np.nonzero(np.abs(data[:, 1] - expected_x) > 1e-3)[0]
        if bad.size:
            raise ValueError(
                f"{path}: row {rows[bad[0]][0]}: x column inconsistent with "
                f"belt speed {speed:g} cm/min"
            )
    return ThermalTrace(dt, speed, temps)
