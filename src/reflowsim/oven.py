"""Furnace geometry, adjustable process parameters, and time/position conversion.

The reflow furnace is a fixed sequence of spatial regions along the conveyor:
an unheated entry region, eleven heated zones separated by unheated gaps, and
an unheated exit region.  Zone setpoints are wired to five controller slots
(TT1..TT5); the board travels through at a constant belt speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SETPOINT_SLOTS = ("TT1", "TT2", "TT3", "TT4", "TT5")

ZONE_KINDS = ("entry", "heated", "gap", "exit")

SECONDS_PER_MINUTE = 60.0


@dataclass(frozen=True)
class ZoneSpec:
    """One contiguous region of the furnace."""

    name: str
    kind: str
    start_cm: float
    end_cm: float
    setpoint_slot: str | None = None

    def __post_init__(self):
        if self.kind not in ZONE_KINDS:
            raise ValueError(f"unknown zone kind {self.kind!r}")
        if not self.end_cm > self.start_cm:
            raise ValueError(
                f"zone {self.name!r}: end_cm ({self.end_cm}) must exceed "
                f"start_cm ({self.start_cm})"
            )
        if self.kind == "heated":
            if self.setpoint_slot not in SETPOINT_SLOTS:
                raise ValueError(
                    f"heated zone {self.name!r} needs a setpoint slot in "
                    f"{SETPOINT_SLOTS}, got {self.setpoint_slot!r}"
                )
        elif self.setpoint_slot is not None:
            raise ValueError(
                f"{self.kind} zone {self.name!r} must not carry a setpoint slot"
            )

    @property
    def length_cm(self) -> float:
        return self.end_cm - self.start_cm


@dataclass(frozen=True)
class OvenLayout:
    """Ordered, contiguous furnace regions covering [0, total_length_cm]."""

    zones: tuple[ZoneSpec, ...]
    total_length_cm: float

    def __post_init__(self):
        if not self.zones:
            raise ValueError("layout must contain at least one zone")
        object.__setattr__(self, "zones", tuple(self.zones))
        if self.zones[0].start_cm != 0.0:
            raise ValueError("first zone must start at 0 cm")
        for prev, cur in zip(self.zones, self.zones[1:]):
            if cur.start_cm != prev.end_cm:
                raise ValueError(
                    f"zones {prev.name!r} and {cur.name!r} are not contiguous: "
                    f"{prev.end_cm} != {cur.start_cm}"
                )
        if self.zones[-1].end_cm != self.total_length_cm:
            raise ValueError(
                f"last zone ends at {self.zones[-1].end_cm} cm but "
                f"total_length_cm is {self.total_length_cm}"
            )

    def heated_zones(self) -> tuple[ZoneSpec, ...]:
        return tuple(z for z in self.zones if z.kind == "heated")


@dataclass(frozen=True)
class ProcessParameters:
    """Controller setpoints (degC) and belt speed (cm/min).

    tt5 doubles as the exterior air temperature and is fixed at 25 degC on
    the real equipment; it is kept as a field so the model stays explicit
    about where that value enters.
    """

    tt1: float = 175.0
    tt2: float = 195.0
    tt3: float = 235.0
    tt4: float = 255.0
    tt5: float = 25.0
    belt_speed: float = 70.0

    def __post_init__(self):
        values = (self.tt1, self.tt2, self.tt3, self.tt4, self.tt5, self.belt_speed)
        if not all(map(math.isfinite, values)):  # one cheap test: sweeps build many
            names = ("tt1", "tt2", "tt3", "tt4", "tt5", "belt_speed")
            name, value = next(nv for nv in zip(names, values) if not math.isfinite(nv[1]))
            raise ValueError(f"{name} must be finite, got {value}")

    def slot_temperature(self, slot: str) -> float:
        try:
            return {
                "TT1": self.tt1,
                "TT2": self.tt2,
                "TT3": self.tt3,
                "TT4": self.tt4,
                "TT5": self.tt5,
            }[slot]
        except KeyError:
            raise ValueError(f"unknown setpoint slot {slot!r}") from None


@dataclass(frozen=True)
class ParameterRanges:
    """Closed adjustable intervals per slot plus enumeration step sizes.

    Steps drive the exhaustive sweeps: temperatures advance by ``temp_step``
    degC and belt speed by ``speed_step`` cm/min.  tt5, the exterior
    temperature, is one value, which every swept candidate takes.
    """

    tt1: tuple[float, float] = (165.0, 185.0)
    tt2: tuple[float, float] = (185.0, 205.0)
    tt3: tuple[float, float] = (225.0, 245.0)
    tt4: tuple[float, float] = (245.0, 265.0)
    tt5: tuple[float, float] = (25.0, 25.0)
    belt_speed: tuple[float, float] = (65.0, 100.0)
    temp_step: float = 5.0
    speed_step: float = 1.0

    def __post_init__(self):
        for name in ("tt1", "tt2", "tt3", "tt4", "tt5", "belt_speed"):
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"range for {name} must have finite bounds, got [{lo}, {hi}]")
            if lo > hi:
                raise ValueError(f"range for {name} has lower bound above upper")
        if self.tt5[0] != self.tt5[1]:
            raise ValueError(
                f"range for tt5 must be a single value, got [{self.tt5[0]}, {self.tt5[1]}]: "
                "tt5 is the exterior temperature, which no sweep varies"
            )
        for name in ("temp_step", "speed_step"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"enumeration steps must be positive and finite, got {name}={value}"
                )

    def interval(self, name: str) -> tuple[float, float]:
        return getattr(self, name)


@dataclass(frozen=True)
class RangeViolation:
    """A single out-of-range slot found by validate_parameters."""

    slot: str
    value: float
    lower: float
    upper: float

    def __str__(self) -> str:
        return f"{self.slot}={self.value:g} outside [{self.lower:g}, {self.upper:g}]"


# Table-1 furnace: entry 25 cm, eleven 30.5 cm zones separated by 5 cm gaps,
# exit 25 cm, total 435.5 cm.  Slot wiring: zones 1-5 -> TT1, 6 -> TT2,
# 7 -> TT3, 8-9 -> TT4, 10-11 -> TT5.
_ZONE_SLOTS = ("TT1", "TT1", "TT1", "TT1", "TT1", "TT2", "TT3", "TT4", "TT4", "TT5", "TT5")
_ENTRY_CM = 25.0
_ZONE_CM = 30.5
_GAP_CM = 5.0
_EXIT_CM = 25.0


def default_layout() -> OvenLayout:
    """The standard furnace layout; idempotent, always the same geometry."""
    zones = []
    x = 0.0
    zones.append(ZoneSpec("entry", "entry", x, x + _ENTRY_CM))
    x += _ENTRY_CM
    for i, slot in enumerate(_ZONE_SLOTS, start=1):
        zones.append(ZoneSpec(f"zone {i}", "heated", x, x + _ZONE_CM, slot))
        x += _ZONE_CM
        if i < len(_ZONE_SLOTS):
            zones.append(ZoneSpec(f"gap {i}", "gap", x, x + _GAP_CM))
            x += _GAP_CM
    zones.append(ZoneSpec("exit", "exit", x, x + _EXIT_CM))
    x += _EXIT_CM
    return OvenLayout(tuple(zones), x)


def validate_parameters(
    params: ProcessParameters, ranges: ParameterRanges
) -> list[RangeViolation]:
    """Report every slot whose value lies outside its closed interval.

    An empty report means the parameters are valid.  Violations are data,
    not exceptions: sweeps and CLI validation both want the full list.
    """
    report = []
    for slot, value in (
        ("tt1", params.tt1),
        ("tt2", params.tt2),
        ("tt3", params.tt3),
        ("tt4", params.tt4),
        ("tt5", params.tt5),
        ("belt_speed", params.belt_speed),
    ):
        lo, hi = ranges.interval(slot)
        if not (lo <= value <= hi):
            report.append(RangeViolation(slot, value, lo, hi))
    return report


def cm_per_second(belt_speed):
    """A belt speed in cm/min as cm/s, unchecked: the cm/min -> cm/s
    conversion lives here and nowhere else, so ``position_at_time(v, t)``
    is ``cm_per_second(v) * t`` bit for bit."""
    return belt_speed / SECONDS_PER_MINUTE


def position_at_time(belt_speed: float, t: float):
    """Conveyor position (cm) after t seconds at belt_speed cm/min.

    Accepts scalar or ndarray t, and a scalar or ndarray belt_speed that
    broadcasts against it.  A belt speed that is not positive and finite, or
    a time that is negative or not finite, is refused with the first such
    value.
    """
    speed = np.asarray(belt_speed, dtype=float)
    ok = np.isfinite(speed) & (speed > 0)
    if not np.all(ok):
        raise ValueError(f"belt_speed must be positive and finite, got {speed[~ok].flat[0]}")
    times = np.asarray(t, dtype=float)
    ok = np.isfinite(times) & (times >= 0)
    if not np.all(ok):
        raise ValueError(f"time must be non-negative and finite, got {times[~ok].flat[0]}")
    return cm_per_second(belt_speed) * t
