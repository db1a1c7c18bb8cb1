"""Piecewise ambient temperature field inside the furnace.

The field T(x) is assembled from the layout and the zone setpoints:

* constant plateaus over the entry region and over runs of equally-set zones
  (gaps between equal setpoints are absorbed into the plateau),
* a unit-steepness sigmoid across each gap separating differently-set zones,
* a weighted exponential/linear blend over the cooling stretch, from the end
  of the last hot zone to the end of the last heated zone,
* a constant tail at the exterior temperature over the exit region.

Segment joins are right-continuous: a position exactly on a boundary belongs
to the later segment, except the furnace end which belongs to the last one.
The sigmoid gaps therefore leave small jumps of |dT|/(1 + e^2.5) at their
endpoints; this is deliberate, not a bug to smooth over.

The field has one evaluation path, ``FieldRows``: the RK4 kernel, the sweeps
and calibration run it on many profiles at once, and ``ambient_at`` is its
one-row case.  Each segment's ``evaluate`` states its formula on its own.

Profiles share a *segment geometry* when their segments match one for one
in type, x_start and x_end (which fix a sigmoid's centre), and their
cooling blends are equal whole: its exponential depends on its endpoint
temperatures.  Such profiles differ only in plateau levels and in sigmoid
t_before/t_after, the ``_level_columns`` that ``FieldRows`` batches over.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .oven import SETPOINT_SLOTS, OvenLayout, ProcessParameters

DEFAULT_BLEND_WEIGHT = 0.8
# the exterior temperature's column of a setpoint row
_COLD_SLOT = SETPOINT_SLOTS.index("TT5")


@dataclass(frozen=True)
class ConstantSegment:
    x_start: float
    x_end: float
    level: float

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return np.full(np.shape(x), self.level, dtype=float)


@dataclass(frozen=True)
class SigmoidSegment:
    """Smooth transition between two plateaus, centered on the gap midpoint.

    The exponent is (x - center) with x in cm: unit steepness per cm, no
    extra scale factor.
    """

    x_start: float
    x_end: float
    t_before: float
    t_after: float

    @property
    def center(self) -> float:
        return 0.5 * (self.x_start + self.x_end)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        denominator = 1.0 + np.exp(-(np.asarray(x, dtype=float) - self.center))
        return self.t_before + (self.t_after - self.t_before) / denominator


@dataclass(frozen=True)
class ExpLinearBlendSegment:
    """Cooling-region model: weight * line + (1 - weight) * exponential.

    Both components, so the blend at any weight, interpolate (x_start, t_hot)
    and (x_end, t_cold), the ends of the stretch it models.  The exponential
    requires strictly positive endpoint temperatures.
    """

    x_start: float
    x_end: float
    t_hot: float
    t_cold: float
    weight: float

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"blend weight must lie in [0, 1], got {self.weight}")
        if self.t_hot <= 0.0 or self.t_cold <= 0.0:
            raise ValueError(
                "blend endpoint temperatures must be positive for the "
                f"exponential component, got {self.t_hot}, {self.t_cold}"
            )
        if not self.x_start < self.x_end:
            raise ValueError("blend segment must satisfy x_start < x_end")

    @property
    def rate(self) -> float:
        """Exponential rate: t_hot * exp(rate * (x - x_start)) hits t_cold at x_end."""
        return (math.log(self.t_hot) - math.log(self.t_cold)) / (self.x_start - self.x_end)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """weight * (t_hot + (t_cold - t_hot) * (x - x_start) / (x_end - x_start))
        + (1 - weight) * t_hot * exp(rate * (x - x_start)), operation by
        operation, in two arrays."""
        linear = np.asarray(np.asarray(x, dtype=float) - self.x_start)
        exponential = linear.copy()
        exponential *= self.rate
        np.exp(exponential, out=exponential)
        exponential *= self.t_hot
        exponential *= 1.0 - self.weight
        linear *= self.t_cold - self.t_hot
        linear /= self.x_end - self.x_start
        linear += self.t_hot
        linear *= self.weight
        linear += exponential
        return linear


Segment = ConstantSegment | SigmoidSegment | ExpLinearBlendSegment


@dataclass(frozen=True)
class AmbientProfile:
    """Contiguous segments covering [0, total_length_cm]; immutable and pure."""

    segments: tuple[Segment, ...]

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("profile needs at least one segment")
        if self.segments[0].x_start != 0.0:
            raise ValueError("profile must start at x = 0")
        for prev, cur in zip(self.segments, self.segments[1:]):
            if cur.x_start != prev.x_end:
                raise ValueError(
                    f"profile segments not contiguous at x = {prev.x_end}"
                )
        starts = np.array([s.x_start for s in self.segments])
        starts.setflags(write=False)
        object.__setattr__(self, "_starts", starts)

    @property
    def total_length_cm(self) -> float:
        return self.segments[-1].x_end

    def __call__(self, x):
        return ambient_at(self, x)


def _check_inside(profile: AmbientProfile, arr: np.ndarray) -> None:
    """A domain error naming the first position outside the furnace, NaN
    included."""
    total = profile.total_length_cm
    # NaN fails both comparisons, and is the minimum of any array it is in
    if arr.size and not (arr.min() >= 0.0 and arr.max() <= total):
        inside = (arr >= 0.0) & (arr <= total)
        first = np.unravel_index(np.argmin(inside), arr.shape)
        where = f"x[{', '.join(map(str, first))}]" if first else "x"
        raise ValueError(
            f"position outside furnace [0, {total}] cm: {where} = {arr[first]}"
        )


def _level_columns(profiles) -> np.ndarray:
    """Per profile (rows) and segment, the two levels ``FieldRows.fill``
    reads: a plateau's level twice, a sigmoid's t_before and t_after, NaN on
    the cooling blend.  Shape (profiles, segments, 2)."""
    return np.array([[(s.level, s.level) if isinstance(s, ConstantSegment)
                      else (s.t_before, s.t_after) if isinstance(s, SigmoidSegment)
                      else (np.nan, np.nan) for s in p.segments] for p in profiles])


class FieldRows:
    """The ambient field of profiles sharing one segment geometry (see the
    module docstring) at fixed positions (an array of any shape, 0-d
    included), as one row per profile.

    Each position takes its segment's formula: row r equals, bit for bit,
    what the ``evaluate`` of profiles[r]'s segments gives, except that a
    plateau at -0.0 degC reads +0.0.  What depends on position alone is
    computed once, here: each position's segment, the sigmoid denominators
    and the cooling blend's values.  Nothing of x is kept.
    """

    def __init__(self, template: AmbientProfile, x):
        x = np.asarray(x, dtype=float)
        self.shape = x.shape
        _check_inside(template, x)
        # each position's segment; the furnace end, which no later segment
        # starts, belongs to the last
        segment = template._starts[1:].searchsorted(x, side="right")
        # each position's t_before and t_after in a flat level columns row
        self._before = 2 * segment
        self._after = self._before + 1
        # off the sigmoids t_after = t_before, so any finite denominator
        # leaves the level; a centre at the entry keeps exp from overflowing
        centre = np.array([getattr(seg, "center", 0.0)
                           for seg in template.segments])[segment]
        self._denominator = 1.0 + np.exp(-(x - centre))
        self._blends = []
        for i, seg in enumerate(template.segments):
            if isinstance(seg, ExpLinearBlendSegment):
                at = segment == i
                self._blends.append((i, at, seg.evaluate(x[at])))

    def fill(self, levels: np.ndarray, out=None) -> np.ndarray:
        """One row per profile from its ``_level_columns`` row, written into
        ``out`` (profiles x the shape of x) when given."""
        if out is None:
            out = np.empty((len(levels), *self.shape))
        flat = levels.reshape(len(levels), -1)
        before = flat.take(self._before, axis=1)
        np.subtract(flat.take(self._after, axis=1), before, out=out)
        out /= self._denominator
        out += before
        for _, at, values in self._blends:
            out[:, at] = values
        return out


def ambient_at(profile: AmbientProfile, x):
    """Evaluate the ambient field at position(s) x in cm: the one-row case
    of ``FieldRows``.

    Scalar in, float out; array in, float ndarray of x's shape out.
    Positions outside [0, total_length_cm], and NaN, are a domain error.
    """
    out = FieldRows(profile, x).fill(_level_columns([profile]))[0]
    return float(out) if out.ndim == 0 else out


def build_profile(
    layout: OvenLayout,
    params: ProcessParameters,
    weight: float = DEFAULT_BLEND_WEIGHT,
) -> AmbientProfile:
    """Assemble the piecewise ambient field for a layout and set of setpoints.

    Parameters
    ----------
    layout : OvenLayout
        Furnace geometry.  Must follow the canonical structure: entry region,
        heated zones separated by gaps, exit region.
    params : ProcessParameters
        Zone setpoints; each heated zone reads its slot temperature.
    weight : float
        Mixing weight of the linear component in the cooling blend (the
        remaining 1 - weight goes to the exponential component).

    Raises
    ------
    ValueError
        If the layout lacks the expected region structure, the weight is
        outside [0, 1], or the cooling endpoints are not positive.
    """
    segments, _ = _assemble(layout, params, weight)
    return AmbientProfile(segments)


def _assemble(layout: OvenLayout, params: ProcessParameters, weight: float):
    """``build_profile``'s segments, and next to them each segment's level
    sources: the ``SETPOINT_SLOTS`` indices of the setpoints that its two
    ``_level_columns`` entries hold (a plateau's slot twice, a sigmoid's
    slots before and after), or None for the cooling blend."""
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"blend weight must lie in [0, 1], got {weight}")
    heated = layout.heated_zones()
    if not heated:
        raise ValueError("layout has no heated zones")
    temps = [params.slot_temperature(z.setpoint_slot) for z in heated]
    slots = [SETPOINT_SLOTS.index(z.setpoint_slot) for z in heated]
    cold = params.tt5

    # Last zone set hotter than the exterior: the cooling blend starts where
    # it ends and runs to the end of the last heated zone.
    hot_idx = None
    for i in range(len(heated) - 1, -1, -1):
        if temps[i] != cold:
            hot_idx = i
            break

    segments: list[Segment] = []
    sources: list[tuple[int, int] | None] = []
    first_heated_start = heated[0].start_cm
    if first_heated_start > 0.0:
        segments.append(ConstantSegment(0.0, first_heated_start, cold))
        sources.append((_COLD_SLOT, _COLD_SLOT))

    if hot_idx is None:
        # Degenerate furnace: everything at the exterior temperature.
        segments.append(ConstantSegment(first_heated_start, layout.total_length_cm, cold))
        sources.append((_COLD_SLOT, _COLD_SLOT))
        return tuple(segments), tuple(sources)

    run_start = heated[0].start_cm
    run_temp, run_slot = temps[0], slots[0]
    for i in range(hot_idx + 1):
        zone = heated[i]
        temp = temps[i]
        if temp != run_temp:
            # Close the previous plateau at its last zone's end and bridge
            # the gap with a sigmoid.
            gap_start = run_end
            gap_end = zone.start_cm
            if gap_end <= gap_start:
                raise ValueError(
                    f"zones with different setpoints must be separated by a "
                    f"gap (missing before {zone.name!r})"
                )
            segments.append(ConstantSegment(run_start, gap_start, run_temp))
            sources.append((run_slot, run_slot))
            segments.append(SigmoidSegment(gap_start, gap_end, run_temp, temp))
            sources.append((run_slot, slots[i]))
            run_start = gap_end
            run_temp, run_slot = temp, slots[i]
        run_end = zone.end_cm
    segments.append(ConstantSegment(run_start, run_end, run_temp))
    sources.append((run_slot, run_slot))

    blend_start = heated[hot_idx].end_cm
    blend_end = heated[-1].end_cm
    if hot_idx < len(heated) - 1:
        segments.append(ExpLinearBlendSegment(blend_start, blend_end, t_hot=temps[hot_idx],
                                              t_cold=cold, weight=weight))
        sources.append(None)
    if blend_end < layout.total_length_cm:
        segments.append(ConstantSegment(blend_end, layout.total_length_cm, cold))
        sources.append((_COLD_SLOT, _COLD_SLOT))
    return tuple(segments), tuple(sources)


def _geometry_groups(layout: OvenLayout, setpoints: np.ndarray) -> list[np.ndarray]:
    """The rows of ``setpoints`` (one column per ``SETPOINT_SLOTS`` slot)
    grouped by the segment geometry (see the module docstring) of their
    ``build_profile``: each group's row indices in order, the groups in the
    order of their first rows.

    A profile's geometry is fixed by the last heated zone set apart from the
    exterior (tt5), which zones differ from the next, and the cooling
    blend's endpoint temperatures when it has one: its segment boundaries
    follow from those alone, in ``_assemble``'s order.  (The zones past the
    hot one are all at the exterior temperature, so the hot zone also fixes
    which of them differ.)
    """
    heated = layout.heated_zones()
    n = len(heated)
    temps = setpoints[:, [SETPOINT_SLOTS.index(z.setpoint_slot) for z in heated]]
    cold = setpoints[:, _COLD_SLOT]
    hot = temps != cold[:, None]
    # the hot zone, -1 when every zone is at the exterior temperature
    hot_idx = np.where(hot.any(axis=1), n - 1 - np.argmax(hot[:, ::-1], axis=1), -1)
    differ = temps[:, 1:] != temps[:, :-1]
    blend = (hot_idx >= 0) & (hot_idx < n - 1)
    t_hot = np.where(blend, temps[np.arange(len(temps)), hot_idx], 0.0)
    t_cold = np.where(blend, cold, 0.0)
    signature = np.column_stack((hot_idx, differ, t_hot, t_cold))
    _, first, inverse, counts = np.unique(signature, axis=0, return_index=True,
                                          return_inverse=True, return_counts=True)
    members = np.split(np.argsort(inverse.ravel(), kind="stable"), np.cumsum(counts)[:-1])
    return [members[g] for g in np.argsort(first)]


def _lattice_groups(layout: OvenLayout, rows, weight: float):
    """The setpoint rows (tuples in ``SETPOINT_SLOTS`` order) by segment
    geometry (``_geometry_groups``): per group, its row indices, template
    profile and the rows' ``_level_columns``.  One assembly of the group's
    first row gives the template's segments and the level sources that
    name each row's setpoint columns to gather."""
    setpoints = np.array(rows, dtype=float)
    groups = []
    for idx in _geometry_groups(layout, setpoints):
        segments, sources = _assemble(layout, ProcessParameters(*rows[idx[0]]), weight)
        levels = setpoints[idx][:, [s if s is not None else (0, 0) for s in sources]]
        levels[:, [s is None for s in sources]] = np.nan
        groups.append((idx, AmbientProfile(segments), levels))
    return groups


def __getattr__(name: str):
    # fit_blend_weight lives in calibrate; perfbench/spans.py, this alias's one
    # reader, looks it up here.  ROADMAP item 1 retargets it and deletes the alias.
    if name == "fit_blend_weight":
        from .calibrate import fit_blend_weight
        return fit_blend_weight
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
