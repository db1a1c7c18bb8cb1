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
recursion on the field at every node and midpoint.  One generator,
``rk4_blocks``, runs it in RK4 blocks of rows, each in arrays of its own
and with as many rows as ``_BLOCK_BYTES`` allows, on one plan: one
profile at many speeds (the speed sweep, a joint-sweep group of one row)
and the profiles of one segment geometry at one speed (the joint sweep's
other groups).  One profile at one speed is one row, and ``simulator`` is the one single-speed path: it builds the plan,
its stage positions and a field per profile once, for profiles that differ
only in their cooling blends' weights, and integrates a sequence of welding
models as one RK4 block.  ``simulate`` (one model, one profile), each round
of the coefficient fit (many models, one profile) and the blend fit (one
model, many profiles) all run through it.  Every welding model enters the
kernel at ``_Plateaus.integrate``, which checks its step (``check_step``)
and builds its ``_rk4_coefficients``.  The test suite judges this module
against independent oracles of its own: a textbook RK4 loop and a
forward-Euler loop, both on a field evaluated segment by segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .ambient import (
    AmbientProfile,
    ConstantSegment,
    ExpLinearBlendSegment,
    FieldRows,
    SigmoidSegment,
    _level_columns,
)
from .oven import ProcessParameters, cm_per_second

_TIME_EPS = 1e-9
# Most RK4 steps one trace may take: the default furnace at 65 cm/min with
# dt of about 0.2 ms; a row of them takes 16 MB per array.
_MAX_STEPS = 2_000_000
# The sample scan's chunks: their widest scaling of a term, and their most
# columns (which bounds the length of one cumulative sum).
_CHUNK_GROWTH = 4.0
_MAX_CHUNK = 4096
# Bytes of an RK4 block's largest array per stage (its field at the nodes,
# say); sets how many rows a block holds (``_Plateaus.block_rows``).
_BLOCK_BYTES = 1 << 18
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
        if not math.isfinite(ratio):
            raise ValueError(f"dt_out / dt overflows: dt_out = {self.dt_out}, dt = {self.dt}; "
                             "dt_out must be a positive integer multiple of dt")
        if abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
            raise ValueError("dt_out must be a positive integer multiple of dt")

    @property
    def stride(self) -> int:
        return int(round(self.dt_out / self.dt))


@dataclass(frozen=True, eq=False)
class ThermalTrace:
    """Uniformly sampled weld-center temperature series.

    Built from dt, belt_speed and a copy of temps: times[i] = i * dt and
    positions[i] = (belt_speed/60) * times[i] are derived, so every trace
    obeys the same time/position bookkeeping.  Arrays are read-only.  Traces
    are equal when dt, belt_speed and temps are, bit for bit; they do not hash.
    """

    dt: float
    belt_speed: float
    temps: np.ndarray
    times: np.ndarray = field(init=False)
    positions: np.ndarray = field(init=False)

    def __post_init__(self):
        for name in ("dt", "belt_speed"):  # before they scale the derived arrays
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        temps = np.array(self.temps, dtype=float)
        if temps.size == 0:
            raise ValueError("trace must not be empty")
        if temps.ndim != 1:
            raise ValueError(f"temps must be 1-D, got shape {temps.shape}")
        check_finite(temps)
        times = np.arange(temps.size) * self.dt
        positions = cm_per_second(self.belt_speed) * times
        for name, arr in (("times", times), ("positions", positions), ("temps", temps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __eq__(self, other):
        if not isinstance(other, ThermalTrace):
            return NotImplemented
        return ((self.dt, self.belt_speed) == (other.dt, other.belt_speed)
                and np.array_equal(self.temps, other.temps))

    def __len__(self) -> int:
        return int(self.times.size)

    @property
    def duration(self) -> float:
        return float(self.times[-1])


def check_finite(temps: np.ndarray) -> None:
    """Refuse a non-finite temperature of a trace or a block, naming the first."""
    if not np.isfinite(temps).all():
        first = tuple(np.argwhere(~np.isfinite(temps))[0])
        raise ValueError(f"temps must be finite: sample {first[-1]} is {temps[first]}")


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


def step_counts(total_cm: float, belt_speeds, dt: float, stride: int = 1) -> np.ndarray:
    """RK4 steps that cross the furnace at each belt speed: the whole steps
    of dt that fit in the transit time.

    The trailing fraction of a step (when the transit time is not a multiple
    of dt) is not integrated.  Raises before anything is allocated when a
    speed would need more than _MAX_STEPS steps (or NaN of them), naming dt
    and the count, or less than one; and, naming dt_out = stride * dt and
    the fastest speed, when a speed takes fewer than stride, where its trace
    would keep its first sample alone.
    """
    speeds = np.asarray(belt_speeds, dtype=float)
    if not (speeds > 0).all():
        raise ValueError(f"belt_speed must be positive, got {np.min(speeds)}")
    t_end = total_cm * 60.0 / speeds
    n_steps = np.floor(t_end / dt + _TIME_EPS)
    most = n_steps.max()
    if not most <= _MAX_STEPS:  # also refuses NaN
        count = f"{most:.0f}" if most < 2**53 else f"{most:.3g}"
        raise ValueError(f"dt = {dt} s needs {count} integration steps to cross the furnace; "
                         f"the limit is {_MAX_STEPS}")
    if n_steps.min() < 1:
        raise ValueError("integration step exceeds the furnace transit time")
    if n_steps.min() < stride:
        i = np.argmin(n_steps)  # the fastest speed; .flat reads a scalar speed too
        raise ValueError(f"dt_out = {stride * dt:g} s exceeds the {n_steps.flat[i] * dt:g} s "
                         f"transit of the furnace at belt speed {speeds.flat[i]:g} cm/min: a "
                         "trace needs at least 2 samples")
    return n_steps.astype(np.int64)


def _chunk_width(b: float) -> int:
    """Columns per chunk of the sample scan with factor b: the most for
    which the scaled terms grow by at most _CHUNK_GROWTH, and no more than
    _MAX_CHUNK."""
    if b <= 0.0:  # A**stride underflowed: no chunk could rescale its terms
        return 0
    if b >= 1.0:  # A**stride rounded to 1 (a tiny coefficient): no term grows
        return _MAX_CHUNK
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


def _runs(reach: np.ndarray, k_end: int) -> np.ndarray:
    """Per row, the lengths of its runs of samples (see ``_Plateaus``) when
    rows are padded to k_end samples, from ``_reach``.  A row's reach is at
    most its own K + 1, whose position lies past the furnace end, so any
    k_end of a block that holds the row fits it."""
    first = np.minimum(reach, k_end)
    bounds = np.empty((len(reach), 2 * first.shape[1] + 1), dtype=np.int64)
    bounds[:, 0:-1:2] = first
    # the sample across a join ends at the next segment's first kept node
    bounds[:, 1:-2:2] = np.maximum(reach[:, 1:] - 1, first[:, :-1])
    bounds[:, -2:] = k_end
    return bounds[:, 1:] - bounds[:, :-1]


# The run code of the samples that need each profile's own field; a plateau's
# samples carry the column of its Horner sum (0, 1, ...), and those inside
# the cooling blend segment i carry -2 - i.
_OWN = -1


class _Plateaus:
    """The plateau-compacted RK4 kernel: how the samples of rows at several
    belt speeds lie on the segments of one segment geometry (defined in
    the ``ambient`` module docstring), and the samples of profiles with that
    geometry computed from it, a block of speeds at a time
    (``rk4_blocks``): profile p's row at speed r of a block is output row
    p * speeds + r.

    Sample k of a row (k < K, the row's Horner sums; K = n // stride for
    n steps) spans the steps from kept node k to kept node k + 1 (nodes k*s
    and (k+1)*s): those nodes and the midpoints between.  Positions only
    grow along a row, so the sample lies wholly inside a segment when both
    its kept nodes do.  Each row's samples fall into runs, in order: segment
    i's inside samples, then the one across the join after it (none when no
    kept node lies in the next segment).  ``_runs`` gives each run's length.
    A block's rows are padded to the K of its slowest row, where the
    positions stay at the furnace end.

    Samples are of three kinds, told apart by their run's code (``codes``):

    * wholly inside a ``ConstantSegment``: the sample sees its profile's
      level at every stage, so its Horner sum is that level's;
    * inside a sigmoid or across a join (``_OWN``): the field depends on
      the profile's levels, so each profile's field, forcing and Horner
      sums are computed at the sample's own stages;
    * inside the cooling blend: the field is the same for every profile of
      the geometry, so the Horner sum is computed once.
    """

    def __init__(self, template: AmbientProfile, speeds: np.ndarray, dt: float, stride: int):
        s = stride
        n_steps = step_counts(template.total_length_cm, speeds, dt, s)
        self.template, self.dt, self.stride = template, dt, s
        # each row's samples, its kept nodes 0..K
        self.lengths = n_steps // s + 1
        self.k_end = int(self.lengths.max()) - 1
        # rate * t is position_at_time(speed, t), bit for bit
        self.rate = cm_per_second(speeds)
        self.reach = _reach(self.rate[:, None], template._starts, dt, s, self.k_end)
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

    def varying_counts(self, speeds: slice = slice(None)) -> np.ndarray:
        """Per row at the speeds, the samples that need their own field in a
        block of those speeds, padded to the slowest of them."""
        k_end = int(self.lengths[speeds].max()) - 1
        return _runs(self.reach[speeds], k_end)[:, self.codes < 0].sum(axis=1)

    def block_rows(self, speeds: slice = slice(None)) -> int:
        """Output rows per RK4 block over the speeds: as many as keep a
        block's largest array per stage within _BLOCK_BYTES, at least one.
        That array is the nodes of a row's varying samples (s + 1 per
        sample) or its samples, at the row that needs the most."""
        s, varying = self.stride, int(self.varying_counts(speeds).max())
        return max(1, _BLOCK_BYTES // (8 * max(varying * (s + 1), int(self.lengths[speeds].max()))))

    def field(self, speeds: slice, profiles) -> list:
        """For the rows of a block of speeds, one field per profile of
        ``profiles`` (each the template's segments but for the weights of
        its cooling blends): the field rows of one sample per plateau and of
        the own samples; which column of their Horner sums (then of those
        inside the cooling blend) each sample of each row takes, one array
        that all profiles share; and the field of the samples inside the
        cooling blend.

        A plateau's sample has every stage at the plateau's middle, so its
        Horner sum is that of any sample wholly inside it.  The s + 1 nodes
        of the others, then their s midpoints, lie at rate * (j*dt [+ dt/2])
        (j*dt is exact in floats: j is an integer), one column per sample,
        so each stage is a contiguous row.  The positions are computed once
        for every profile and freed on return: ``FieldRows`` keeps none of
        them, and each profile's blend field is an array of its own.
        """
        s, p = self.stride, len(self.middles)
        k_end = int(self.lengths[speeds].max()) - 1
        rate = self.rate[speeds]
        # each sample's run code, row after row
        source = self.codes[None].repeat(len(rate), axis=0).repeat(
            _runs(self.reach[speeds], k_end).ravel())
        # the own samples, then the cooling blend's, segment by segment
        parts = [np.flatnonzero(source == code) for code in (_OWN, *(-2 - i for i in self.blends))]
        varying = np.concatenate(parts)
        rows, samples = np.divmod(varying, k_end)
        x = np.empty((2 * s + 1, p + samples.size))
        x[:, :p] = self.middles
        stages = x[:, p:]
        # j: k*s + 0..s at the nodes, then k*s + 0..s-1 at the midpoints
        np.add(samples * float(s), (np.arange(2 * s + 1.0) % (s + 1))[:, None], out=stages)
        stages *= self.dt
        stages[s + 1 :] += 0.5 * self.dt
        stages *= rate[rows]
        np.minimum(stages, self.template.total_length_cm, out=stages)
        source[varying] = np.arange(p, p + varying.size)
        source = source.reshape(len(rate), k_end)
        end = p + parts[0].size
        own, blend = x[:, :end], x[:, end:]
        # per cooling blend segment, the columns of blend that lie in it
        stops = np.cumsum([0] + [part.size for part in parts[1:]]).tolist()
        values = np.empty((2 * s + 1, len(profiles), blend.shape[1]))
        for j, profile in enumerate(profiles):
            for i, lo, hi in zip(self.blends, stops, stops[1:]):
                values[:, j, lo:hi] = profile.segments[i].evaluate(blend[:, lo:hi])
        return [FieldRows(profile, own) for profile in profiles], source, values

    def integrate(self, field, levels: np.ndarray, y0: float, models) -> np.ndarray:
        """The RK4 samples of each ``WeldingModel`` at each profile of
        ``field`` with each ``_level_columns`` row, at its speeds: models *
        profiles * levels * speeds rows of K + 1 columns, one RK4 block,
        every row starting at y0.  Every model's step is checked
        (``check_step``) before any is integrated.  Each profile's stages are
        filled once, a column per sample; then each model, with its
        ``_rk4_coefficients`` as floats (faster than broadcast arrays), runs
        one ``_forcing_sums``, one gather of its rows and one ``_sample_scan``.
        """
        for model in models:
            check_step(model.coefficient, self.dt)
        (owns, source, blend), s = field, self.stride
        profiles, rows, m = len(owns), len(levels), owns[0].shape[1]
        speeds, k_end = source.shape
        width = profiles * rows * m
        stages = np.empty((len(models), 2 * s + 1, width + profiles * blend.shape[2]))
        fill = stages[0, :, :width].reshape(2 * s + 1, profiles, rows, m)
        for p, own in enumerate(owns):
            own.fill(levels, fill[:, p].swapaxes(0, 1))
        stages[0, :, width:] = blend.reshape(2 * s + 1, -1)
        stages[1:] = stages[0]  # _forcing_sums overwrites the stages: a copy per model
        forcing = np.empty((s + 1, stages.shape[2]))
        table = np.empty((profiles, rows, m + blend.shape[2]))
        out = np.empty((len(models), profiles * rows * speeds, k_end + 1))
        for st, block, model in zip(stages, out, models):
            rk4 = _rk4_coefficients(model.coefficient * self.dt)
            sums = _forcing_sums(st[: s + 1].T, st[s + 1 :].T, rk4, s,
                                 forcing[:s].T, forcing[s:].T)[:, 0]
            table[..., :m] = sums[:width].reshape(profiles, rows, m)
            table[..., m:] = sums[width:].reshape(profiles, 1, -1)
            block[:, 1:].reshape(profiles, rows, speeds, k_end)[...] = table.take(source, axis=-1)
            _sample_scan(block, rk4[0] ** s, y0)
        return out.reshape(-1, k_end + 1)


def rk4_blocks(template: AmbientProfile, levels: np.ndarray, y0: float, model: WeldingModel,
               grid: SimulationGrid, belt_speeds):
    """RK4 traces of profiles that share ``template``'s segment geometry
    (one ``_level_columns`` row per profile), all starting at the exterior
    temperature y0, at each belt speed, one RK4 block at a time: yields
    (profile slice, speed slice, temps, lengths) per block.

    Row i of temps is the profile slice's profile i // m at its speed
    slice's speed i % m, for the slice's m speeds.  It holds every
    stride-th RK4 node, as many columns as the block's slowest row has
    samples; lengths[r] is the sample count at speed r of the slice, and
    past it a row holds padding.  The recursion is causal and rows never
    mix, so a row's samples equal its one-row run bit for bit, which
    equals the recursion with the field at every node and midpoint (see
    ``_Plateaus``).

    Blocks hold ``_Plateaus.block_rows`` rows, which bounds the memory of
    one block; one row is one block.  One profile runs in blocks of speeds,
    more in blocks of profiles at one speed: the shape depends on the
    profile count alone, and only blocks of speeds hold padding.  One plan
    serves every block, and each speed slice computes its field once.  Every
    block's arrays are its own: a later block leaves the temps of an earlier
    one as they were.  The first block's ``_Plateaus.integrate`` checks the
    model's step (``check_step``).
    """
    speeds = np.array(belt_speeds, dtype=float, ndmin=1)
    plan = _Plateaus(template, speeds, grid.dt, grid.stride)
    if len(levels) == 1:
        per = plan.block_rows()
        blocks = [(slice(lo, min(lo + per, len(speeds))), 1) for lo in range(0, len(speeds), per)]
    else:
        blocks = [(slice(at, at + 1), plan.block_rows(slice(at, at + 1)))
                  for at in range(len(speeds))]
    for block, rows in blocks:
        field = plan.field(block, [template])
        for first in range(0, len(levels), rows):
            part = slice(first, min(first + rows, len(levels)))
            temps = plan.integrate(field, levels[part], y0, [model])
            yield part, block, temps, plan.lengths[block]
        del field  # free before the next block's field is computed


def _unweighted(profile: AmbientProfile) -> list:
    """The segments of a profile with its cooling blends' weights set to 0."""
    return [replace(seg, weight=0.0) if isinstance(seg, ExpLinearBlendSegment) else seg
            for seg in profile.segments]


def simulator(profiles, params: ProcessParameters, grid: SimulationGrid):
    """``simulate`` for many welding models at profiles that differ only in
    the weights of their cooling blends (``build_profile`` at several blend
    weights), at one speed and grid: returns a function of a sequence of
    ``WeldingModel`` that gives one temperature row per (model, profile),
    model-major, each the temps of ``simulate`` bit for bit; sample k of
    every row is at k * grid.dt_out.

    The plan, the stage positions, the level columns, the start
    temperature and each profile's field do not depend on the coefficient,
    so they are built once, here (``_Plateaus.field``), and profiles that
    differ off the blend, or a grid error, are refused here, before any
    model runs.  The function, ``_Plateaus.integrate`` on them, checks
    every model's step (``check_step``) before it integrates.
    """
    template = profiles[0]
    if any(_unweighted(p) != _unweighted(template) for p in profiles[1:]):
        raise ValueError("profiles must differ only in the weights of their cooling blends")
    plan = _Plateaus(template, np.array([params.belt_speed], dtype=float), grid.dt, grid.stride)
    return partial(plan.integrate, plan.field(slice(0, 1), profiles), _level_columns([template]),
                   params.tt5)


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
    stage positions are clipped to it.  This is the one-profile, one-model
    case of ``simulator``: one row of the plateau-compacted kernel, the
    rows that ``rk4_blocks`` yields by the block.

    Pure function: identical inputs produce bit-identical traces.
    """
    grid = grid if grid is not None else SimulationGrid()
    temps = simulator([profile], params, grid)([model])[0]
    return ThermalTrace(grid.dt_out, params.belt_speed, temps)
