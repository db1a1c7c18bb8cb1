"""Weld-area-center temperature simulation along the conveyor.

The board's weld-area center is treated as a lumped mass relaxing toward the
local ambient temperature:

    dy/dt = coefficient * (T_ambient(x(t)) - y),    x(t) = (belt_speed/60) * t

with y(0) equal to the exterior temperature.  Integration is classical
fourth-order Runge-Kutta on a fixed step; because the ODE is linear in y and
the step is constant, each step collapses to an affine update

    y[n+1] = A * y[n] + Ba * T(x_n) + Bb * T(x_n + dx/2) + Bc * T(x_n + dx)

with scalar coefficients depending only on coefficient * dt, so the whole
trace is one vectorized ambient evaluation plus a first-order linear
recursion.  Only every stride-th node is kept, so the recursion is stepped
from kept sample to kept sample and run as a chunked, scaled cumulative sum
(``integrate_rows``): numpy elementwise operations and ``cumsum`` only, so
rows never interact.  A forward-Euler reference integrator is kept as a
deliberately simple, loop-based oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientProfile, _ambient_on_runs, ambient_at
from .oven import ProcessParameters, position_at_time

_TIME_EPS = 1e-9
# Most RK4 steps one trace may take: the default furnace at 65 cm/min with
# dt of about 0.2 ms; a row of them takes 16 MB per array.
_MAX_STEPS = 2_000_000
# The sample scan's chunks: their widest scaling of a term, and their most
# columns (which bounds the length of one cumulative sum).
_CHUNK_GROWTH = 4.0
_MAX_CHUNK = 4096


@dataclass(frozen=True)
class WeldingModel:
    """Lumped heating model: a single relaxation rate in 1/s."""

    coefficient: float

    def __post_init__(self):
        if not (math.isfinite(self.coefficient) and self.coefficient > 0):
            raise ValueError(
                f"welding coefficient must be positive and finite, got {self.coefficient}"
            )


@dataclass(frozen=True)
class SimulationGrid:
    """Integration step and output sample interval, both in seconds."""

    dt: float = 0.1
    dt_out: float = 0.5

    def __post_init__(self):
        for name in ("dt", "dt_out"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        ratio = self.dt_out / self.dt
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("dt_out must be a positive integer multiple of dt")

    @property
    def stride(self) -> int:
        return int(round(self.dt_out / self.dt))


def _check_timing(dt: float, belt_speed: float) -> None:
    for name, value in (("dt", dt), ("belt_speed", belt_speed)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class ThermalTrace:
    """Uniformly sampled weld-center temperature series.

    times[i] = i * dt and positions[i] = (belt_speed/60) * times[i]; both are
    validated on construction, so every trace in the system obeys the same
    time/position bookkeeping.  Arrays are read-only.
    """

    dt: float
    belt_speed: float
    times: np.ndarray
    positions: np.ndarray
    temps: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        positions = np.asarray(self.positions, dtype=float)
        temps = np.asarray(self.temps, dtype=float)
        if times.size == 0:
            raise ValueError("trace must not be empty")
        if not (times.shape == positions.shape == temps.shape):
            raise ValueError("times, positions and temps must have equal length")
        _check_timing(self.dt, self.belt_speed)
        expected_t = np.arange(times.size) * self.dt
        # written as not-within so that a NaN time or position fails too
        if not np.max(np.abs(times - expected_t)) <= 1e-9:
            raise ValueError("sample times must be uniform: t[i] = i * dt")
        expected_x = (self.belt_speed / 60.0) * times
        if not np.max(np.abs(positions - expected_x)) <= 1e-9:
            raise ValueError("positions must satisfy x[i] = (belt_speed/60) * t[i]")
        bad = np.flatnonzero(~np.isfinite(temps))
        if bad.size:
            raise ValueError(f"temps must be finite: sample {bad[0]} is {temps[bad[0]]}")
        for name, arr in (("times", times), ("positions", positions), ("temps", temps)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_temps(cls, dt: float, belt_speed: float, temps) -> "ThermalTrace":
        """Build a trace from temperatures alone; times/positions are derived."""
        _check_timing(dt, belt_speed)  # before they scale the derived arrays
        temps = np.asarray(temps, dtype=float)
        times = np.arange(temps.size) * dt
        positions = (belt_speed / 60.0) * times
        return cls(dt, belt_speed, times, positions, temps)

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def duration(self) -> float:
        return float(self.times[-1])


def _rk4_coefficients(e: float) -> tuple[float, float, float, float]:
    """Affine one-step coefficients of classical RK4 for dy/dt = q*(T - y).

    e = coefficient * dt.  Derived by expanding the four stages; the
    homogeneous factor A is the fourth-order Taylor polynomial of exp(-e).
    """
    a = 1.0 - e + e * e / 2.0 - e**3 / 6.0 + e**4 / 24.0
    ba = (e / 6.0) * (1.0 - e + e * e / 2.0 - e**3 / 4.0)
    bb = (e / 6.0) * (4.0 - 2.0 * e + e * e / 2.0)
    bc = e / 6.0
    return a, ba, bb, bc


def _capped(count: float, name: str, step: float, what: str) -> int:
    """count as an int, or a ValueError naming the step when it exceeds
    _MAX_STEPS (or is not a number): checked before anything that size is
    allocated."""
    if not count <= _MAX_STEPS:
        raise ValueError(
            f"{name} = {step} s needs {count:.0f} {what}; the limit is {_MAX_STEPS}"
        )
    return int(count)


def step_counts(total_cm: float, belt_speeds, dt: float) -> np.ndarray:
    """RK4 steps that cross the furnace at each belt speed: the whole steps
    of dt that fit in the transit time.

    The trailing fraction of a step (when the transit time is not a multiple
    of dt) is not integrated.  Raises before anything is allocated when a
    speed would need more than _MAX_STEPS steps, or less than one.
    """
    speeds = np.asarray(belt_speeds, dtype=float)
    if not np.all(speeds > 0):
        raise ValueError(f"belt_speed must be positive, got {np.min(speeds)}")
    t_end = total_cm * 60.0 / speeds
    n_steps = np.floor(t_end / dt + _TIME_EPS)
    _capped(np.max(n_steps), "dt", dt, "integration steps to cross the furnace")
    if np.min(n_steps) < 1:
        raise ValueError("integration step exceeds the furnace transit time")
    return n_steps.astype(np.int64)


def _view(buffer, shape) -> np.ndarray:
    """A C-contiguous array of the given shape: the start of a flat buffer
    shared between blocks, or a new array without one."""
    if buffer is None:
        return np.empty(shape)
    return buffer[: math.prod(shape)].reshape(shape)


def _stages(total_cm: float, speeds: np.ndarray, dt: float, buffer=None):
    """Stage positions of each speed's row: the RK4 nodes, then the half-step
    midpoints, in one array, and each row's step count."""
    n_steps = step_counts(total_cm, speeds, dt)
    n = int(n_steps.max())
    node_times = np.arange(n + 1) * dt
    # cm per second: rate * t is position_at_time(speed, t), bit for bit
    rate = position_at_time(speeds, 1.0)[:, None]
    x = _view(buffer, (len(speeds), 2 * n + 1))
    np.multiply(rate, node_times, out=x[:, : n + 1])
    np.multiply(rate, node_times[:-1] + 0.5 * dt, out=x[:, n + 1 :])
    np.clip(x, 0.0, total_cm, out=x)
    return x, n_steps


def _split(stages: np.ndarray):
    """The node and the midpoint columns of a ``_stages`` array."""
    n = stages.shape[1] // 2
    return stages[:, : n + 1], stages[:, n + 1 :]


def stage_positions(total_cm: float, belt_speeds, dt: float, out=None):
    """Positions of the RK4 nodes and of the half-step midpoints, in cm, one
    row per belt speed, and each row's step count.

    A row's stage positions up to its own step count stay inside the
    furnace.  Shorter rows are padded to the longest by running on past the
    exit, where the clip holds them at the furnace end.  Both arrays are
    views of one, which ``out`` (a flat buffer of at least
    rows * (2 * steps + 1) floats) holds when given.
    """
    speeds = np.atleast_1d(np.asarray(belt_speeds, dtype=float))
    x, n_steps = _stages(total_cm, speeds, dt, out)
    return (*_split(x), n_steps)


def _chunk_width(b: float) -> int:
    """Columns per chunk of the sample scan with factor b: the most for
    which the scaled terms grow by at most _CHUNK_GROWTH, and no more than
    _MAX_CHUNK."""
    if b <= 0.0:  # A**stride underflowed: no chunk could rescale its terms
        return 0
    return int(min(_MAX_CHUNK, math.log(_CHUNK_GROWTH) / -math.log(b)))


def _sample_scan(out, b: float, y0):
    """Turn out[:, 1:] = g into out[:, 0] = y0, out[:, k+1] = b*out[:, k] + g[:, k],
    row by row, in place.

    The columns go in chunks of W = _chunk_width(b).  From a chunk's start
    z[c], its values are z[c+m] = b**m * (z[c] + sum_{i<m} g[c+i] * b**-(i+1)),
    one scaled cumulative sum; only the starts pass from chunk to chunk, in
    a short loop.  Chunk edges sit at multiples of W whatever the row length,
    and every operation is elementwise or a cumulative sum along the row, so
    a row's first columns do not depend on the rest of the batch or on the
    row's length.  A factor so small that W < 2 runs the plain recursion.
    """
    rows, n = out.shape[0], out.shape[1] - 1
    out[:, 0] = y0
    width = _chunk_width(b)
    if width < 2 or n == 0:
        for k in range(n):
            out[:, k + 1] += np.multiply(out[:, k], b)
        return out
    width = min(width, n)
    grow = b ** np.arange(-1.0, -1.0 - width, -1.0)
    decay = 1.0 / grow
    n_full, rest = divmod(n, width)
    # splitting the last axis keeps this a view of out
    body = out[:, 1 : 1 + n_full * width].reshape(rows, n_full, width)
    body *= grow
    np.cumsum(body, axis=2, out=body)
    # a chunk's start is what the two lines after this loop make of the
    # column before it, (start + end) * decay[-1]; Python floats do the same
    # IEEE operations without a numpy call per chunk
    factor = float(decay[-1])
    starts = []
    for z0, ends in zip(out[:, 0].tolist(), body[:, :, -1].tolist()):
        row = [z0]
        for end in ends:
            z0 = (z0 + end) * factor
            row.append(z0)
        starts.append(row)
    starts = np.array(starts)
    body += starts[:, :n_full, None]
    body *= decay
    if rest:
        tail = out[:, 1 + n_full * width :]
        tail *= grow[:rest]
        np.cumsum(tail, axis=1, out=tail)
        tail += starts[:, n_full:]
        tail *= decay[:rest]
    return out


def integrate_rows(t_amb_nodes, t_amb_mid, y0, coefficient: float, grid: SimulationGrid,
                   forcing=None, out=None):
    """RK4 traces of many ambient fields at once, one per row.

    t_amb_nodes has one more column than t_amb_mid; both are overwritten.
    Returns every grid.stride-th node of each row.  ``forcing`` (the shape
    of t_amb_mid) and ``out`` (rows x samples, rows need not be adjacent)
    are optional buffers that a caller running many blocks passes each
    time.  Refuses a step whose recursion is unstable: |A| >= 1, which holds
    from e = coefficient * dt of about 2.785 on.

    The recursion y[n+1] = A*y[n] + f[n] runs from kept sample to kept
    sample, s = grid.stride nodes apart,

        z[k+1] = A**s * z[k] + g[k],   g[k] = sum_j A**(s-1-j) * f[k*s + j],

    with g in Horner form and z from ``_sample_scan``.  Only elementwise
    operations and cumulative sums along the rows are used, so rows do not
    interact and a row's first samples come out the same, bit for bit,
    whatever else is in the batch and however long the rows are.
    """
    e = coefficient * grid.dt
    a, ba, bb, bc = _rk4_coefficients(e)
    if not abs(a) < 1.0:
        raise ValueError(
            f"RK4 step is unstable: coefficient {coefficient} * dt {grid.dt} = e {e:.6g}, "
            f"where |A| = {abs(a):.6g} must stay below 1 (e below about 2.785)"
        )
    s = grid.stride
    rows, n_steps = t_amb_mid.shape
    n_samples = n_steps // s + 1
    if forcing is None:
        forcing = np.empty((rows, n_steps))
    if out is None:
        out = np.empty((rows, n_samples))
    # f[n] = ba*T(node n) + bb*T(mid n) + bc*T(node n+1)
    np.multiply(ba, t_amb_nodes[:, :-1], out=forcing)
    forcing += np.multiply(bb, t_amb_mid, out=t_amb_mid)
    forcing += np.multiply(bc, t_amb_nodes[:, 1:], out=t_amb_nodes[:, 1:])
    # g by Horner, straight into the sample columns
    f = forcing[:, : (n_samples - 1) * s]
    g = out[:, 1:]
    if s == 1:
        np.copyto(g, f)
    else:
        np.multiply(f[:, 0::s], a, out=g)
        g += f[:, 1::s]
        for j in range(2, s):
            g *= a
            g += f[:, j::s]
    return _sample_scan(out, a**s, y0)


class _Buffers:
    """Flat arrays that the blocks of one sweep share: stage positions,
    fields, forcing and samples.  Each block takes the start of each in its
    own shape, so their pages are touched once per sweep, not once per
    block.  A sample row is far shorter than its stage row, so the samples
    array holds a sample block: the rows of several RK4 blocks, measured
    at once.  The four are rows of one allocation: glibc keeps that block
    for the next sweep, where four separate ones went back to the system
    and were faulted in again on every call.  Without a size, every block
    allocates its own arrays."""

    def __init__(self, size: int | None = None):
        if size is None:
            self.stages = self.field = self.forcing = self.samples = None
        else:
            self.stages, self.field, self.forcing, self.samples = np.empty((4, size))


def simulate_speeds(profile: AmbientProfile, y0: float, model: WeldingModel,
                    grid: SimulationGrid, belt_speeds, buffers: _Buffers | None = None,
                    out=None):
    """RK4 traces of one profile at several belt speeds, one row per speed.

    The ambient field comes from ``ambient._ambient_on_runs``: a row's node
    positions and its midpoints are each non-decreasing, so the profile's
    segment starts are searched into those two runs instead of every
    position into the starts, with values equal to ``ambient_at`` bit for
    bit.

    Returns every stride-th node of each row and each row's sample count;
    row r is valid up to its count.  Past its own step count a row holds
    padding, and the recursion is causal, so its valid samples equal a
    one-row run bit for bit.  ``buffers`` need 2 * steps + 1 floats per row
    of the longest.  The samples go to the first columns of ``out`` when
    given (one row per speed, at least as many columns as the longest row
    has samples; its rows need not be adjacent), else to buffers.samples.
    """
    buffers = buffers if buffers is not None else _Buffers()
    speeds = np.atleast_1d(np.asarray(belt_speeds, dtype=float))
    x, n_steps = _stages(profile.total_length_cm, speeds, grid.dt, buffers.stages)
    # nodes and midpoints in one evaluation: each row is two sorted runs
    cut = _split(x)[0].shape[1]
    nodes, mid = _split(_ambient_on_runs(profile, x, (cut,)))
    n_samples = mid.shape[1] // grid.stride + 1
    if out is None:
        out = _view(buffers.samples, (len(speeds), n_samples))
    temps = integrate_rows(nodes, mid, y0, model.coefficient, grid,
                           _view(buffers.forcing, mid.shape), out[:, :n_samples])
    return temps, n_steps // grid.stride + 1


def simulate(
    profile: AmbientProfile,
    params: ProcessParameters,
    model: WeldingModel,
    grid: SimulationGrid | None = None,
) -> ThermalTrace:
    """Integrate the weld-center temperature through the whole furnace.

    Starts at the exterior temperature at the furnace entry and steps until
    the conveyor reaches the furnace end; the returned trace holds every
    stride-th integration node, i.e. samples every grid.dt_out seconds.
    Integration never evaluates the ambient field beyond the furnace end
    (see ``stage_positions``).  This is the one-row case of
    ``simulate_speeds``.

    Pure function: identical inputs produce bit-identical traces.
    """
    grid = grid if grid is not None else SimulationGrid()
    v = params.belt_speed
    temps, _ = simulate_speeds(profile, params.tt5, model, grid, [v])
    return ThermalTrace.from_temps(grid.dt_out, v, temps[0])


def euler_reference(
    profile: AmbientProfile,
    params: ProcessParameters,
    model: WeldingModel,
    dt: float,
) -> ThermalTrace:
    """Forward-Euler integration of the same ODE, as a plain Python loop.

    Exists solely as an independent oracle for the RK4 path: first-order,
    no coefficient algebra, no filtering tricks.  Output is sampled at every
    step (the trace's dt equals the integration dt).
    """
    v = params.belt_speed
    if v <= 0:
        raise ValueError(f"belt_speed must be positive, got {v}")
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    q = model.coefficient
    total = profile.total_length_cm
    t_end = total * 60.0 / v
    n_steps = _capped(np.floor(t_end / dt + _TIME_EPS), "dt", dt,
                      "integration steps to cross the furnace")
    node_times = np.arange(n_steps + 1) * dt
    x_nodes = np.clip(position_at_time(v, node_times), 0.0, total)
    t_amb = ambient_at(profile, x_nodes)

    y = float(params.tt5)
    temps = [y]
    amb = t_amb.tolist()
    for i in range(n_steps):
        y = y + dt * q * (amb[i] - y)
        temps.append(y)
    return ThermalTrace.from_temps(dt, v, np.array(temps))


def resample(trace: ThermalTrace, dt_out: float) -> ThermalTrace:
    """Linearly interpolate a trace onto a uniform dt_out grid.

    The new grid spans the same time range: nodes k * dt_out up to the
    original final time.
    """
    if not (math.isfinite(dt_out) and dt_out > 0):
        raise ValueError(f"dt_out must be positive and finite, got {dt_out}")
    n = _capped(np.floor(trace.duration / dt_out + _TIME_EPS), "dt_out", dt_out,
                "intervals to span the trace")
    new_times = np.arange(n + 1) * dt_out
    new_temps = np.interp(new_times, trace.times, trace.temps)
    return ThermalTrace.from_temps(dt_out, trace.belt_speed, new_temps)
