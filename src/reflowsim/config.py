"""Run configuration: defaults, YAML loading, strict validation.

An empty configuration reproduces the stock scenario: the standard furnace,
default setpoints (175/195/235/255/25 at 70 cm/min), coefficient 0.021,
blend weight 0.8, dt 0.1 s with 0.5 s output sampling.  Unknown keys anywhere
in the file are errors, and the resolved parameters must sit inside the
configured adjustable ranges before any computation runs.  Section keys
come from the dataclass fields (see SECTIONS); each value is converted by its
field's type annotation.
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

from .ambient import DEFAULT_BLEND_WEIGHT
from .limits import ProcessLimits
from .optimize import DEFAULT_SPEED_SWEEP_STEP, _grid_size, _sweep_size
from .oven import (
    OvenLayout,
    ParameterRanges,
    ProcessParameters,
    ZoneSpec,
    default_layout,
    validate_parameters,
)
from .thermal import SimulationGrid, WeldingModel, check_step

DEFAULT_COEFFICIENT = 0.021
DEFAULT_COEFFICIENT_CANDIDATES = (0.0200, 0.0205, 0.0210, 0.0215, 0.0220)
DEFAULT_WEIGHT_CANDIDATES = (0.6, 0.7, 0.8, 0.9, 1.0)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration for one CLI invocation."""

    layout: OvenLayout = field(default_factory=default_layout)
    params: ProcessParameters = field(default_factory=ProcessParameters)
    coefficient: float = DEFAULT_COEFFICIENT
    blend_weight: float = DEFAULT_BLEND_WEIGHT
    grid: SimulationGrid = field(default_factory=SimulationGrid)
    ranges: ParameterRanges = field(default_factory=ParameterRanges)
    limits: ProcessLimits = field(default_factory=ProcessLimits)
    speed_sweep_step: float = DEFAULT_SPEED_SWEEP_STEP
    sweep_refine_rounds: int = 0
    area_domain: str = "position"
    workers: int = 0  # 0 means all available cores
    coefficient_candidates: tuple[float, ...] = DEFAULT_COEFFICIENT_CANDIDATES
    weight_candidates: tuple[float, ...] = DEFAULT_WEIGHT_CANDIDATES
    calibration_refine_rounds: int = 1
    field_dx: float = 0.1
    trace_csv: str = "trace.csv"
    field_csv: str | None = None
    verdict_csv: str | None = None
    candidates_csv: str | None = None

    def __post_init__(self):
        if self.workers < 0:
            raise ValueError(f"workers must be 0 (all cores) or positive, got {self.workers}")

    def resolved_workers(self) -> int:
        return self.workers if self.workers > 0 else (os.cpu_count() or 1)

    def validate(self) -> None:
        violations = validate_parameters(self.params, self.ranges)
        if violations:
            raise ValueError(
                "parameters outside the adjustable ranges: "
                + "; ".join(str(v) for v in violations)
            )
        if self.area_domain not in ("position", "time"):
            raise ValueError(
                f"area_domain must be 'position' or 'time', got {self.area_domain!r}"
            )
        for key, value in (("output.field_dx", self.field_dx),
                           ("sweep.speed_step", self.speed_sweep_step)):
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be positive and finite, got {value}")
        # the sweeps' grids: bounded before any of them exists (``field`` bounds its own)
        _grid_size(*self.ranges.belt_speed, self.speed_sweep_step, "sweep.speed_step")
        _sweep_size(self.ranges, "ranges.")
        for name in ("sweep_refine_rounds", "calibration_refine_rounds"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be 0 or positive, got {getattr(self, name)}")
        if not self.coefficient_candidates:
            raise ValueError("coefficient candidate grid must not be empty")
        if not self.weight_candidates:
            raise ValueError("weight candidate grid must not be empty")
        # the blend weights that build_profile accepts; NaN fails both bounds
        for key, weights in (("model.blend_weight", (self.blend_weight,)),
                             ("calibration.weights", self.weight_candidates)):
            for w in weights:
                if not 0.0 <= w <= 1.0:
                    raise ValueError(f"{key} must lie in [0, 1], got {w}")
        # the models and RK4 steps that simulate accepts at the configured dt
        for key, coefficients in (("model.coefficient", (self.coefficient,)),
                                  ("calibration.coefficients", self.coefficient_candidates)):
            for c in coefficients:
                try:
                    WeldingModel(c)
                    check_step(c, self.grid.dt)
                except ValueError as exc:
                    raise ValueError(f"{key}: {exc}") from None


# Each section names either the RunConfig field holding a dataclass, whose
# fields are then the section's keys, or a {key: RunConfig field} mapping.
SECTIONS: dict[str, str | dict[str, str]] = {
    **{name: name for name in ("params", "grid", "ranges", "limits")},
    "model": {"coefficient": "coefficient", "blend_weight": "blend_weight"},
    "sweep": {
        "speed_step": "speed_sweep_step",
        "refine_rounds": "sweep_refine_rounds",
        "area_domain": "area_domain",
        "workers": "workers",
    },
    "calibration": {
        "coefficients": "coefficient_candidates",
        "weights": "weight_candidates",
        "refine_rounds": "calibration_refine_rounds",
    },
    "output": {
        key: key for key in ("field_dx", "trace_csv", "field_csv", "verdict_csv", "candidates_csv")
    },
}


def _expect(ok: bool, value):
    if not ok:
        raise TypeError(f"unexpected value {value!r}")
    return value


def _number(value) -> float:
    return float(_expect(not isinstance(value, bool), value))


def _integer(value) -> int:
    number = _number(value)
    return int(_expect(number.is_integer(), number))


def _numbers(value, size: int | None = None) -> tuple[float, ...]:
    ok = isinstance(value, list) and size in (None, len(value))
    return tuple(_number(v) for v in _expect(ok, value))


# Field annotation -> (converter, what the value must be).  A converter raises
# TypeError or ValueError on a bad value.
_CONVERTERS = {
    "float": (_number, "a number"),
    "int": (_integer, "an integer"),
    "str": (lambda v: _expect(isinstance(v, str), v), "a string"),
    "str | None": (lambda v: _expect(v is None or isinstance(v, str), v), "a string or null"),
    "tuple[float, float]": (lambda v: _numbers(v, 2), "a [low, high] pair of numbers"),
    "tuple[float, ...]": (_numbers, "a list of numbers"),
    # each zone is read by _layout
    "tuple[ZoneSpec, ...]": (lambda v: _expect(isinstance(v, list), v), "a list of zones"),
}


def _fields_of(cls) -> dict:
    return {f.name: f for f in fields(cls)}


_RUN_FIELDS = _fields_of(RunConfig)


def _require_keys(where: str, node, allowed) -> None:
    if not isinstance(node, dict):
        raise ValueError(f"config section {where or 'root'!r} must be a mapping")
    unknown = sorted(set(node) - set(allowed), key=str)  # YAML keys need not be strings
    if unknown:
        prefix = f"{where}." if where else ""
        raise ValueError(f"unknown config key {prefix}{unknown[0]!r}")


def _values(where: str, node, fields_by_key: dict) -> dict:
    """Check a mapping's keys and convert each value by its field's annotation."""
    _require_keys(where, node, fields_by_key)
    for key, f in fields_by_key.items():
        if key not in node and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"config key {where} needs {key!r}")
    values = {}
    for key, value in node.items():
        convert, expected = _CONVERTERS[fields_by_key[key].type]
        try:
            values[key] = convert(value)
        except (TypeError, ValueError):
            raise ValueError(
                f"config key {where}.{key} must be {expected}, got {value!r}"
            ) from None
    return values


def _layout(node) -> OvenLayout:
    values = _values("oven", node, _fields_of(OvenLayout))
    zones = tuple(
        ZoneSpec(**_values(f"oven.zones[{i}]", zone, _fields_of(ZoneSpec)))
        for i, zone in enumerate(values["zones"])
    )
    return OvenLayout(zones, values["total_length_cm"])


def merge_config(cfg: RunConfig, data: dict | None) -> RunConfig:
    """Apply a {section: {key: value}} mapping on top of cfg.

    Unknown sections and keys raise.  All keys given for a nested section are
    replaced in one step, so grid.dt and grid.dt_out are checked together.
    """
    data = data or {}
    _require_keys("", data, ("oven", *SECTIONS))
    changes = {}
    for section, node in data.items():
        target = SECTIONS.get(section)
        if section == "oven":
            changes["layout"] = _layout(node)
        elif isinstance(target, str):
            current = getattr(cfg, target)
            changes[target] = replace(current, **_values(section, node, _fields_of(current)))
        else:
            by_key = {key: _RUN_FIELDS[name] for key, name in target.items()}
            for key, value in _values(section, node, by_key).items():
                changes[target[key]] = value
    return replace(cfg, **changes)


def config_from_dict(data: dict | None) -> RunConfig:
    """Build a RunConfig from a parsed configuration mapping.

    Missing sections and keys fall back to the defaults; unknown keys raise.
    """
    return merge_config(RunConfig(), data)


def load_config(path: str | None) -> RunConfig:
    """Load a YAML configuration file; None or an empty file gives defaults."""
    if path is None:
        return RunConfig()
    # imported here: a run without a configuration file never needs it
    import yaml

    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_dict(data)
