"""Weld-area-center temperature simulation along the conveyor.

The board's weld-area center is treated as a lumped mass relaxing toward the
local ambient temperature:

    dy/dt = coefficient * (T_ambient(x(t)) - y),    x(t) = (belt_speed/60) * t

with y(0) equal to the exterior temperature.  Integration is classical
fourth-order Runge-Kutta on a fixed step; because the ODE is linear in y and
the step is constant, each step collapses to an affine update

    y[n+1] = A * y[n] + Ba * T(x_n) + Bb * T(x_n + dx/2) + Bc * T(x_n + dx)

with scalar coefficients depending only on coefficient * dt, so the whole
trace is one vectorized ambient evaluation plus a first-order recursive
filter.  A forward-Euler reference integrator is kept as a deliberately
simple, loop-based oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from .ambient import AmbientProfile, ambient_at
from .oven import ProcessParameters, position_at_time

_TIME_EPS = 1e-9
# Most RK4 steps one trace may take: the default furnace at 65 cm/min with
# dt of about 0.2 ms; a row of them takes 16 MB per array.
_MAX_STEPS = 2_000_000


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
        for name in ("dt", "belt_speed"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        expected_t = np.arange(times.size) * self.dt
        if np.max(np.abs(times - expected_t)) > 1e-9:
            raise ValueError("sample times must be uniform: t[i] = i * dt")
        expected_x = (self.belt_speed / 60.0) * times
        if np.max(np.abs(positions - expected_x)) > 1e-9:
            raise ValueError("positions must satisfy x[i] = (belt_speed/60) * t[i]")
        for name, arr in (("times", times), ("positions", positions), ("temps", temps)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_temps(cls, dt: float, belt_speed: float, temps) -> "ThermalTrace":
        """Build a trace from temperatures alone; times/positions are derived."""
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
    worst = np.max(n_steps)
    if not worst <= _MAX_STEPS:
        raise ValueError(
            f"dt = {dt} s needs {worst:.0f} integration steps to cross the furnace; "
            f"the limit is {_MAX_STEPS}"
        )
    if np.min(n_steps) < 1:
        raise ValueError("integration step exceeds the furnace transit time")
    return n_steps.astype(np.int64)


def stage_positions(total_cm: float, belt_speeds, dt: float):
    """Positions of the RK4 nodes and of the half-step midpoints, in cm, one
    row per belt speed, and each row's step count.

    A row's stage positions up to its own step count stay inside the
    furnace.  Shorter rows are padded to the longest by running on past the
    exit, where the clip holds them at the furnace end.
    """
    speeds = np.atleast_1d(np.asarray(belt_speeds, dtype=float))
    n_steps = step_counts(total_cm, speeds, dt)
    node_times = np.arange(n_steps.max() + 1) * dt
    v = speeds[:, None]
    x_nodes = np.clip(position_at_time(v, node_times), 0.0, total_cm)
    x_mid = np.clip(position_at_time(v, node_times[:-1] + 0.5 * dt), 0.0, total_cm)
    return x_nodes, x_mid, n_steps


def integrate_rows(t_amb_nodes, t_amb_mid, y0, coefficient: float, grid: SimulationGrid):
    """RK4 traces of many ambient fields at once, one per row.

    t_amb_nodes has one more column than t_amb_mid; both are overwritten.
    Returns every grid.stride-th node of each row.  Rows do not interact,
    and the recursion is causal, so a row's first columns come out the same
    whatever else is in the batch and however long the rows are.  Refuses
    a step whose recursion is unstable: |A| >= 1, which holds from
    e = coefficient * dt of about 2.785 on.
    """
    e = coefficient * grid.dt
    a, ba, bb, bc = _rk4_coefficients(e)
    if not abs(a) < 1.0:
        raise ValueError(
            f"RK4 step is unstable: coefficient {coefficient} * dt {grid.dt} = e {e:.6g}, "
            f"where |A| = {abs(a):.6g} must stay below 1 (e below about 2.785)"
        )
    # y[0] = y0; y[n] = A*y[n-1] + forcing[n-1]: a first-order IIR recursion,
    # with forcing = ba*T(node) + bb*T(mid) + bc*T(next node).
    driven = np.empty(t_amb_nodes.shape)
    driven[:, 0] = y0
    forcing = driven[:, 1:]
    np.multiply(ba, t_amb_nodes[:, :-1], out=forcing)
    forcing += np.multiply(bb, t_amb_mid, out=t_amb_mid)
    forcing += np.multiply(bc, t_amb_nodes[:, 1:], out=t_amb_nodes[:, 1:])
    del t_amb_nodes, t_amb_mid  # let a batch's fields go before the filter runs
    return lfilter([1.0], [1.0, -a], driven, axis=1)[:, :: grid.stride]


def simulate_speeds(profile: AmbientProfile, y0: float, model: WeldingModel,
                    grid: SimulationGrid, belt_speeds):
    """RK4 traces of one profile at several belt speeds, one row per speed.

    Returns every stride-th node of each row and each row's sample count;
    row r is valid up to its count.  Past its own step count a row holds
    padding, and the recursion is causal, so its valid samples equal a
    one-row run bit for bit.
    """
    x_nodes, x_mid, n_steps = stage_positions(profile.total_length_cm, belt_speeds, grid.dt)
    temps = integrate_rows(ambient_at(profile, x_nodes), ambient_at(profile, x_mid),
                           y0, model.coefficient, grid)
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
    if dt <= 0:
        raise ValueError("dt must be positive")
    q = model.coefficient
    total = profile.total_length_cm
    t_end = total * 60.0 / v
    n_steps = int(np.floor(t_end / dt + _TIME_EPS))
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
    if dt_out <= 0:
        raise ValueError("dt_out must be positive")
    n = int(np.floor(trace.duration / dt_out + _TIME_EPS))
    new_times = np.arange(n + 1) * dt_out
    new_temps = np.interp(new_times, trace.times, trace.temps)
    return ThermalTrace.from_temps(dt_out, trace.belt_speed, new_temps)
