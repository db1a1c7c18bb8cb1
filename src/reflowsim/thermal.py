"""Weld-area-center temperature simulation along the conveyor.

The board's weld-area center is treated as a lumped mass relaxing toward the
local ambient temperature:

    dy/dt = coefficient * (T_ambient(x(t)) - y),    x(t) = (belt_speed/60) * t

with y(0) equal to the exterior temperature.  Integration is classical
fourth-order Runge-Kutta on a fixed step; because the ODE is linear in y and
the step is constant, each step collapses to an affine update

    y[n+1] = A * y[n] + Ba * T(x_n) + Bb * T(x_n + dx/2) + Bc * T(x_n + dx)

with scalar coefficients depending only on coefficient * dt.  Only every
stride-th node is kept, so the recursion is stepped from kept sample to kept
sample (``_forcing_sums``) and run as a chunked, scaled cumulative sum
(``_sample_scan``): numpy elementwise operations and ``cumsum`` only, so
rows never interact.  Steps with e = coefficient * dt from about 1.2956 on
are refused (``check_step``): there Ba turns negative, and a step is no
longer a weighted mean of y and the ambient.

Most of the furnace is plateau, where every step has the same forcing.
The one RK4 kernel (``_Plateaus``) therefore evaluates the field, forcing
and Horner sums only for the samples that touch a sigmoid, the cooling
blend or a segment join; a sample inside a plateau takes its level's sum,
computed by the same operations, so every value is bit-identical to the
recursion on the field at every node and midpoint.  It serves one profile
at one speed (``simulate``), at several speeds (``simulate_speeds``) and
the profiles of one segment geometry at one speed (the joint sweep).  A
forward-Euler reference integrator is kept as a deliberately simple,
loop-based oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ambient import (
    AmbientProfile,
    ConstantSegment,
    FieldRows,
    SigmoidSegment,
    _level_columns,
    ambient_at,
)
from .oven import ProcessParameters, cm_per_second, position_at_time

_TIME_EPS = 1e-9
# Most RK4 steps one trace may take: the default furnace at 65 cm/min with
# dt of about 0.2 ms; a row of them takes 16 MB per array.
_MAX_STEPS = 2_000_000
# The sample scan's chunks: their widest scaling of a term, and their most
# columns (which bounds the length of one cumulative sum).
_CHUNK_GROWTH = 4.0
_MAX_CHUNK = 4096
# Largest e = coefficient * dt (exclusive) that ``check_step`` accepts: the
# root of 1 - e + e^2/2 - e^3/4, where Ba = (e/6) * (1 - e + e^2/2 - e^3/4)
# changes sign.
_MAX_E = 1.2955977425220848


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
        if not np.abs(times - expected_t).max() <= 1e-9:
            raise ValueError("sample times must be uniform: t[i] = i * dt")
        expected_x = (self.belt_speed / 60.0) * times
        if not np.abs(positions - expected_x).max() <= 1e-9:
            raise ValueError("positions must satisfy x[i] = (belt_speed/60) * t[i]")
        if not np.isfinite(temps).all():
            bad = np.flatnonzero(~np.isfinite(temps))
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


def check_step(coefficient: float, dt: float) -> None:
    """Refuse an RK4 step e = coefficient * dt at or above _MAX_E.

    Below it the four weights of a step (A on y, Ba, Bb and Bc on the
    ambient at the node, the midpoint and the next node) are non-negative
    and sum to 1: each step is a weighted mean, so the trace stays within
    the range of its start and the ambient, and the recursion cannot grow.
    """
    e = coefficient * dt
    if not e < _MAX_E:
        raise ValueError(
            f"RK4 step is unstable: coefficient {coefficient} * dt {dt} = e {e:.6g}, "
            f"at or above {_MAX_E:.9g}, where the weight of a step's first node turns "
            "negative and the trace can leave the ambient range"
        )


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
    if not (speeds > 0).all():
        raise ValueError(f"belt_speed must be positive, got {np.min(speeds)}")
    t_end = total_cm * 60.0 / speeds
    n_steps = np.floor(t_end / dt + _TIME_EPS)
    _capped(n_steps.max(), "dt", dt, "integration steps to cross the furnace")
    if n_steps.min() < 1:
        raise ValueError("integration step exceeds the furnace transit time")
    return n_steps.astype(np.int64)


def _view(buffer, shape) -> np.ndarray:
    """A C-contiguous array of the given shape: the start of a flat buffer
    shared between blocks, or a new array without one or when it is too
    small."""
    size = math.prod(shape)
    if buffer is None or buffer.size < size:
        return np.empty(shape)
    return buffer[:size].reshape(shape)


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
    body.cumsum(axis=2, out=body)
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
        tail.cumsum(axis=1, out=tail)
        tail += starts[:, n_full:]
        tail *= decay[:rest]
    return out


def _forcing_sums(t_amb_nodes, t_amb_mid, coefficients, stride: int, forcing, g):
    """The RK4 forcing of each step and its Horner sums between kept samples.

    Steps run along the last axis.  f[n] = ba*T(node n) + bb*T(mid n) +
    bc*T(node n+1), into ``forcing`` (the shape of t_amb_mid; both fields
    are overwritten), then

        g[k] = sum_j A**(s-1-j) * f[k*s + j],   s = stride,

    for each k along the last axis of g, in Horner form.  Every sample of
    ``_Plateaus``, a plateau's included, goes through here, so equal fields
    give equal sums bit for bit.
    """
    a, ba, bb, bc = coefficients
    np.multiply(ba, t_amb_nodes[..., :-1], out=forcing)
    forcing += np.multiply(bb, t_amb_mid, out=t_amb_mid)
    forcing += np.multiply(bc, t_amb_nodes[..., 1:], out=t_amb_nodes[..., 1:])
    f = forcing[..., : g.shape[-1] * stride]
    if stride == 1:
        np.copyto(g, f)
    else:
        np.multiply(f[..., 0::stride], a, out=g)
        g += f[..., 1::stride]
        for j in range(2, stride):
            g *= a
            g += f[..., j::stride]
    return g


class _Buffers:
    """Flat arrays that the blocks of one sweep share, so that their pages
    are touched once per sweep, not once per block; each block takes the
    start of each in its own shape (see ``_view``).  The plateau-compacted
    kernel (``_Plateaus``) keeps the stage positions, then the field, of its
    varying samples in ``stages`` and their forcing and Horner sums in
    ``forcing``.  ``samples`` holds a sample block: the rows of several RK4
    blocks, measured at once.

    All are parts of one allocation: glibc keeps that block for the next
    sweep, where separate ones went back to the system and were faulted in
    again on every call.  Regions are sized by name; without any, every
    block allocates its own arrays.
    """

    _NAMES = ("stages", "forcing", "samples")

    def __init__(self, **sizes):
        self.stages = self.forcing = self.samples = None
        if sizes:
            self.reserve(**sizes)

    def reserve(self, **sizes) -> "_Buffers":
        """Make each named region hold at least its number of floats.  When
        one does not, all regions move to one new allocation, none smaller
        than before; their contents are not kept."""
        have = [0 if getattr(self, n) is None else getattr(self, n).size for n in self._NAMES]
        want = [max(h, sizes.get(n, 0)) for n, h in zip(self._NAMES, have)]
        if want != have:
            flat = np.empty(sum(want))
            for name, stop, n in zip(self._NAMES, np.cumsum(want).tolist(), want):
                setattr(self, name, flat[stop - n : stop])
        return self


# the kept nodes just before and at an estimate of ``_reach``
_PAIR = np.array([-1.0, 0.0])[:, None, None]


def _reach(rate, starts, dt: float, stride: int, k_end: int) -> np.ndarray:
    """Per row and segment start: the first kept node k (of 0..k_end) whose
    position rate * ((k*stride) * dt) is at least the start, k_end + 1
    where none is.  Shape (rows, starts).

    These are the positions ``_Plateaus.field`` computes, with the same
    operations, so the indices are where a sorted search of the starts into
    the kept nodes lands (the clip to the furnace changes no comparison
    with a start inside it).  The estimate k from a division is off by one
    at most: its relative error is a few units in the last place, far below
    1 / k_end.  So the answer is k - 1 plus how many of nodes k - 1 and k
    lie below the start.
    """
    k = np.ceil(starts / (rate * (stride * dt)))
    # at k = 0 the node before lies at a negative position, below every start
    below = rate * ((k + _PAIR) * stride * dt) < starts
    k += below.sum(axis=0) - 1
    np.minimum(k, k_end + 1, out=k)
    return k.astype(np.int64)


# The run code of the samples that need each profile's own field; a plateau's
# samples carry the column of its Horner sum (0, 1, ...), and those inside
# the cooling blend segment i carry -2 - i.
_OWN = -1


class _Plateaus:
    """The plateau-compacted RK4 kernel: how the samples of rows at several
    belt speeds lie on the segments of one segment geometry (see
    ``ambient.geometry_key``), and the samples of profiles with that
    geometry computed from it.  It serves one profile at one speed
    (``simulate``), one profile at many speeds (the speed sweep) and many
    profiles at one speed (a geometry group of the joint sweep): profile
    p's row at speed r is output row p * speeds + r.

    Sample k of a row (k < K = n // stride, the row's Horner sums) spans the
    steps from kept node k to kept node k + 1 (nodes k*s and (k+1)*s): those
    nodes and the midpoints between.  Positions only grow along a row, so
    the sample lies wholly inside a segment when both its kept nodes do.
    Each row's samples fall into runs, in order: segment i's inside
    samples, then the one across the join after it (none when no kept node
    lies in the next segment).  ``counts`` holds each run's length.  Rows
    are padded to n steps past their own end, where the positions stay at
    the furnace end.

    Samples are of three kinds, told apart by their run's code (``codes``):

    * wholly inside a ``ConstantSegment``: the sample sees its profile's
      level at every stage, so its Horner sum is that level's;
    * inside a sigmoid or across a join (``_OWN``): the field depends on
      the profile's levels, so each profile's field, forcing and Horner
      sums are computed at the sample's own stages;
    * inside the cooling blend: the field is the same for every profile of
      the geometry, so the Horner sum is computed once.
    """

    def __init__(self, template: AmbientProfile, speeds: np.ndarray, dt: float, stride: int,
                 n: int):
        s = stride
        self.template, self.dt, self.stride, self.k_end = template, dt, s, n // s
        # rate * t is position_at_time(speed, t), bit for bit
        self.rate = cm_per_second(speeds)
        reach = _reach(self.rate[:, None], template._starts, dt, s, self.k_end)
        first = np.minimum(reach, self.k_end)
        bounds = np.empty((len(speeds), 2 * first.shape[1] + 1), dtype=np.int64)
        bounds[:, 0:-1:2] = first
        # the sample across a join ends at the next segment's first kept node
        bounds[:, 1:-2:2] = np.maximum(reach[:, 1:] - 1, first[:, :-1])
        bounds[:, -2:] = self.k_end
        self.counts = bounds[:, 1:] - bounds[:, :-1]
        codes, self.middles, self.blends = [], [], []
        for i, seg in enumerate(template.segments):
            if isinstance(seg, ConstantSegment):
                codes.append(len(self.middles))
                self.middles.append(0.5 * (seg.x_start + seg.x_end))
            elif isinstance(seg, SigmoidSegment):
                codes.append(_OWN)
            else:
                codes.append(-2 - i)
                self.blends.append(i)
            codes.append(_OWN)
        self.codes = np.array(codes)

    def varying_counts(self) -> np.ndarray:
        """Per row, the samples that need their own field."""
        return self.counts[:, self.codes < 0].sum(axis=1)

    def buffers(self, rows: int, samples: int, buffers: _Buffers | None = None) -> _Buffers:
        """Buffers that hold the compacted arrays of any ``rows`` output rows
        and ``samples`` samples: ``buffers`` grown where too small, or new
        ones."""
        most = rows * (int(self.varying_counts().max(initial=0)) + len(self.middles))
        s = self.stride
        sizes = dict(stages=most * (2 * s + 1), forcing=most * (s + 1), samples=samples)
        return (buffers if buffers is not None else _Buffers()).reserve(**sizes)

    def field(self, buffers: _Buffers):
        """The field rows of one sample per plateau and of the own samples;
        which column of their Horner sums (then of those inside the cooling
        blend) each sample of each row takes; and the field of the samples
        inside the cooling blend.

        A plateau's sample has every stage at the plateau's middle, so its
        Horner sum is that of any sample wholly inside it.  The s + 1 nodes
        of the others, then their s midpoints, lie at rate * (j*dt [+ dt/2])
        (j*dt is exact in floats: j is an integer), one column per sample,
        so each stage is a contiguous row.  Positions are computed in the
        buffers, which are free again on return.
        """
        s, p = self.stride, len(self.middles)
        # each sample's run code, row after row
        source = self.codes[None].repeat(len(self.rate), axis=0).repeat(self.counts.ravel())
        # the own samples, then the cooling blend's, segment by segment
        parts = [np.flatnonzero(source == code) for code in (_OWN, *(-2 - i for i in self.blends))]
        varying = np.concatenate(parts)
        rows, samples = np.divmod(varying, self.k_end)
        x = _view(buffers.stages, (2 * s + 1, p + samples.size))
        x[:, :p] = self.middles
        stages = x[:, p:]
        # j: k*s + 0..s at the nodes, then k*s + 0..s-1 at the midpoints
        np.add(samples * float(s), (np.arange(2 * s + 1.0) % (s + 1))[:, None], out=stages)
        stages *= self.dt
        stages[s + 1 :] += 0.5 * self.dt
        stages *= self.rate[rows]
        np.minimum(stages, self.template.total_length_cm, out=stages)
        stop = end = p + parts[0].size
        for i, blend in zip(self.blends, parts[1:]):
            cols = slice(stop, stop + blend.size)
            x[:, cols] = self.template.segments[i].evaluate(x[:, cols])
            stop = cols.stop
        source[varying] = np.arange(p, p + varying.size)
        return (FieldRows(self.template, x[:, :end]),
                source.reshape(len(self.rate), self.k_end), x[:, end:].copy())

    def integrate(self, field, levels: np.ndarray, y0, coefficients, buffers: _Buffers,
                  out: np.ndarray) -> np.ndarray:
        """The RK4 samples of profiles with these ``_level_columns`` at every
        speed, from ``field``, into out (profiles * speeds rows, at least
        K + 1 columns; rows need not be adjacent); y0 is a scalar or one per
        output row.

        Each profile's field at the plateau and own samples, then the
        cooling blend's, go through one ``_forcing_sums`` in the buffers, a
        column per sample; each sample of each output row then takes its
        column's Horner sum.  Then ``_sample_scan``.
        """
        s, profiles = self.stride, len(levels)
        own, source, blend = field
        m = own.shape[1]
        width = profiles * m
        stages = _view(buffers.stages, (2 * s + 1, width + blend.shape[1]))
        own.fill(levels, stages[:, :width].reshape(2 * s + 1, profiles, m).swapaxes(0, 1))
        stages[:, width:] = blend
        forcing = _view(buffers.forcing, (s + 1, stages.shape[1]))
        sums = _forcing_sums(stages[: s + 1].T, stages[s + 1 :].T, coefficients, s,
                             forcing[:s].T, forcing[s:].T)[:, 0]
        table = np.empty((profiles, m + blend.shape[1]))
        table[:, :m] = sums[:width].reshape(profiles, m)
        table[:, m:] = sums[width:]
        g = out[:, 1 : self.k_end + 1].reshape(profiles, len(self.rate), self.k_end)
        g[...] = table.take(source, axis=1)
        return _sample_scan(out[:, : self.k_end + 1], coefficients[0] ** s, y0)


def simulate_speeds(profile: AmbientProfile, y0: float, model: WeldingModel,
                    grid: SimulationGrid, belt_speeds, buffers: _Buffers | None = None,
                    out=None):
    """RK4 traces of one profile at one or more belt speeds, one row per
    speed.

    Most of a trace crosses plateaus, where every step has the same forcing
    and every sample between two kept nodes the same Horner sum.  So the
    field, forcing and Horner sums are computed only for the samples that
    touch a sigmoid, the cooling blend or a segment join (see
    ``_Plateaus``), at their own stage positions; every other sample takes
    its level's sum, computed once by the same operations
    (``_forcing_sums``).  Where each row meets each segment start comes from
    the exact position formula (``_reach``), and the field is what
    ``ambient_at`` gives at each stage position.  So every sample equals,
    bit for bit, what the RK4 recursion gives with the field evaluated at
    every node and midpoint.

    Returns every stride-th node of each row and each row's sample count;
    row r is valid up to its count.  Past its own step count a row holds
    padding, and the recursion is causal, so its valid samples equal a
    one-row run bit for bit.  ``buffers`` hold the compacted stage
    positions and fields (``stages``) and the forcing (``forcing``); a part
    too small for a block is replaced by a new array.  The samples go to
    the first columns of ``out`` when given (one row per speed, at least as
    many columns as the longest row has samples; its rows need not be
    adjacent), else to buffers.samples.
    """
    speeds = np.atleast_1d(np.asarray(belt_speeds, dtype=float))
    n_steps = step_counts(profile.total_length_cm, speeds, grid.dt)
    return _simulate_rows(profile, y0, model, grid, speeds, n_steps, buffers, out)


def _simulate_rows(profile: AmbientProfile, y0, model: WeldingModel, grid: SimulationGrid,
                   speeds: np.ndarray, n_steps: np.ndarray, buffers: _Buffers | None = None,
                   out=None):
    """``simulate_speeds`` for speeds whose step counts are known."""
    check_step(model.coefficient, grid.dt)
    buffers = buffers if buffers is not None else _Buffers()
    n, s = int(n_steps.max()), grid.stride
    if out is None:
        out = _view(buffers.samples, (len(speeds), n // s + 1))
    coefficients = _rk4_coefficients(model.coefficient * grid.dt)
    plan = _Plateaus(profile, speeds, grid.dt, s, n)
    temps = plan.integrate(plan.field(buffers), _level_columns([profile]), y0, coefficients,
                           buffers, out)
    return temps, n_steps // s + 1


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
    Integration never evaluates the ambient field beyond the furnace end:
    stage positions are clipped to it.  This is the one-row case of
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
