"""Independent oracle implementations used by the test suite.

Everything here deliberately avoids the library's own algorithms: the RK4
reference runs the textbook four-stage loop instead of the affine/filter
form, metrics come from dense resampling instead of interpolated crossings,
and the sweep oracles are plain nested loops with explicit if-chains.

One oracle is the exception: the full-field RK4 path (``stage_positions``,
``integrate_rows``, ``full_field_rk4``) evaluates the ambient field at every
node and midpoint, then reuses the library's ``_forcing_sums`` and
``_sample_scan``.  It is the bit-identity oracle of the plateau-compacted
kernel, which must give the same floats, not merely close ones; the
textbook loop above checks its arithmetic only to a tolerance.
"""

from __future__ import annotations

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
from reflowsim.ambient import ambient_at
from reflowsim.limits import check_limits, compute_metrics
from reflowsim.oven import cm_per_second
from reflowsim.thermal import _forcing_sums, _rk4_coefficients, _sample_scan, step_counts


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
    return ThermalTrace.from_temps(dt, belt_speed, temps)


def naive_rk4(profile, params, coefficient, dt, dt_out):
    """Textbook per-step RK4 loop for the heating ODE; no vectorization."""
    v = params.belt_speed
    total = profile.total_length_cm
    t_end = total * 60.0 / v
    n_steps = int(math.floor(t_end / dt + 1e-9))
    stride = int(round(dt_out / dt))
    y = float(params.tt5)
    out = [y]
    for i in range(n_steps):
        t = i * dt
        xa = min((v / 60.0) * t, total)
        xb = min((v / 60.0) * (t + 0.5 * dt), total)
        xc = min((v / 60.0) * (t + dt), total)
        ta = profile(xa)
        tb = profile(xb)
        tc = profile(xc)
        k1 = coefficient * (ta - y)
        k2 = coefficient * (tb - (y + 0.5 * dt * k1))
        k3 = coefficient * (tb - (y + 0.5 * dt * k2))
        k4 = coefficient * (tc - (y + dt * k3))
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (i + 1) % stride == 0:
            out.append(y)
    return ThermalTrace.from_temps(dt_out, v, np.array(out))


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
    ``ambient_at`` at every node and midpoint, ``integrate_rows``."""
    x_nodes, x_mid, _ = stage_positions(profile.total_length_cm, belt_speeds, grid.dt)
    return integrate_rows(ambient_at(profile, x_nodes), ambient_at(profile, x_mid), y0,
                          coefficient, grid)


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
