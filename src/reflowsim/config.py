"""Run configuration: defaults, YAML loading, strict validation.

An empty configuration reproduces the stock scenario: the standard furnace,
default setpoints (175/195/235/255/25 at 70 cm/min), coefficient 0.021,
blend weight 0.8, dt 0.1 s with 0.5 s output sampling.  Unknown keys anywhere
in the file are errors, and the resolved parameters must sit inside the
configured adjustable ranges before any computation runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

import yaml

from .limits import ProcessLimits
from .oven import (
    OvenLayout,
    ParameterRanges,
    ProcessParameters,
    ZoneSpec,
    default_layout,
    validate_parameters,
)
from .thermal import SimulationGrid

DEFAULT_COEFFICIENT = 0.021
DEFAULT_BLEND_WEIGHT = 0.8
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
    speed_sweep_step: float = 0.1
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
        if self.field_dx <= 0:
            raise ValueError("field_dx must be positive")
        if self.speed_sweep_step <= 0:
            raise ValueError("speed sweep step must be positive")
        if not self.coefficient_candidates:
            raise ValueError("coefficient candidate grid must not be empty")
        if not self.weight_candidates:
            raise ValueError("weight candidate grid must not be empty")


def _require_keys(section: str, mapping, allowed: tuple[str, ...]) -> None:
    if not isinstance(mapping, dict):
        raise ValueError(f"config section {section or 'root'!r} must be a mapping")
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        where = f"{section}." if section else ""
        raise ValueError(f"unknown config key {where}{unknown[0]!r}")


def _pair(section: str, key: str, value) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"config key {section}.{key} must be a [low, high] pair")
    return (float(value[0]), float(value[1]))


def _layout_from_config(node) -> OvenLayout:
    _require_keys("oven", node, ("total_length_cm", "zones"))
    for key in ("total_length_cm", "zones"):
        if key not in node:
            raise ValueError(f"config section 'oven' needs key {key!r}")
    if not isinstance(node["zones"], list):
        raise ValueError("config key oven.zones must be a list")
    zones = []
    for i, z in enumerate(node["zones"]):
        _require_keys(
            f"oven.zones[{i}]", z, ("name", "kind", "start_cm", "end_cm", "setpoint_slot")
        )
        for key in ("name", "kind", "start_cm", "end_cm"):
            if key not in z:
                raise ValueError(f"config key oven.zones[{i}] needs {key!r}")
        zones.append(
            ZoneSpec(
                name=str(z["name"]),
                kind=str(z["kind"]),
                start_cm=float(z["start_cm"]),
                end_cm=float(z["end_cm"]),
                setpoint_slot=z.get("setpoint_slot"),
            )
        )
    return OvenLayout(tuple(zones), float(node["total_length_cm"]))


def config_from_dict(data: dict | None) -> RunConfig:
    """Build a RunConfig from a parsed configuration mapping.

    Missing sections and keys fall back to the defaults; unknown keys raise.
    """
    data = data or {}
    if not isinstance(data, dict):
        raise ValueError("configuration root must be a mapping")
    _require_keys(
        "",
        data,
        ("oven", "params", "model", "grid", "ranges", "limits", "sweep",
         "calibration", "output"),
    )
    cfg = RunConfig()

    if "oven" in data:
        cfg = replace(cfg, layout=_layout_from_config(data["oven"]))

    node = data.get("params", {})
    _require_keys("params", node, ("tt1", "tt2", "tt3", "tt4", "tt5", "belt_speed"))
    p = cfg.params
    cfg = replace(
        cfg,
        params=ProcessParameters(
            tt1=float(node.get("tt1", p.tt1)),
            tt2=float(node.get("tt2", p.tt2)),
            tt3=float(node.get("tt3", p.tt3)),
            tt4=float(node.get("tt4", p.tt4)),
            tt5=float(node.get("tt5", p.tt5)),
            belt_speed=float(node.get("belt_speed", p.belt_speed)),
        ),
    )

    node = data.get("model", {})
    _require_keys("model", node, ("coefficient", "blend_weight"))
    cfg = replace(
        cfg,
        coefficient=float(node.get("coefficient", cfg.coefficient)),
        blend_weight=float(node.get("blend_weight", cfg.blend_weight)),
    )

    node = data.get("grid", {})
    _require_keys("grid", node, ("dt", "dt_out"))
    cfg = replace(
        cfg,
        grid=SimulationGrid(
            dt=float(node.get("dt", cfg.grid.dt)),
            dt_out=float(node.get("dt_out", cfg.grid.dt_out)),
        ),
    )

    node = data.get("ranges", {})
    _require_keys(
        "ranges",
        node,
        ("tt1", "tt2", "tt3", "tt4", "tt5", "belt_speed", "temp_step", "speed_step"),
    )
    r = cfg.ranges
    cfg = replace(
        cfg,
        ranges=ParameterRanges(
            tt1=_pair("ranges", "tt1", node["tt1"]) if "tt1" in node else r.tt1,
            tt2=_pair("ranges", "tt2", node["tt2"]) if "tt2" in node else r.tt2,
            tt3=_pair("ranges", "tt3", node["tt3"]) if "tt3" in node else r.tt3,
            tt4=_pair("ranges", "tt4", node["tt4"]) if "tt4" in node else r.tt4,
            tt5=_pair("ranges", "tt5", node["tt5"]) if "tt5" in node else r.tt5,
            belt_speed=_pair("ranges", "belt_speed", node["belt_speed"])
            if "belt_speed" in node
            else r.belt_speed,
            temp_step=float(node.get("temp_step", r.temp_step)),
            speed_step=float(node.get("speed_step", r.speed_step)),
        ),
    )

    node = data.get("limits", {})
    _require_keys(
        "limits",
        node,
        ("slope_max", "slope_min", "rise_150_190", "time_above_217", "peak"),
    )
    lim = cfg.limits
    cfg = replace(
        cfg,
        limits=ProcessLimits(
            slope_max=float(node.get("slope_max", lim.slope_max)),
            slope_min=float(node.get("slope_min", lim.slope_min)),
            rise_150_190=_pair("limits", "rise_150_190", node["rise_150_190"])
            if "rise_150_190" in node
            else lim.rise_150_190,
            time_above_217=_pair("limits", "time_above_217", node["time_above_217"])
            if "time_above_217" in node
            else lim.time_above_217,
            peak=_pair("limits", "peak", node["peak"]) if "peak" in node else lim.peak,
        ),
    )

    node = data.get("sweep", {})
    _require_keys("sweep", node, ("speed_step", "refine_rounds", "area_domain", "workers"))
    cfg = replace(
        cfg,
        speed_sweep_step=float(node.get("speed_step", cfg.speed_sweep_step)),
        sweep_refine_rounds=int(node.get("refine_rounds", cfg.sweep_refine_rounds)),
        area_domain=str(node.get("area_domain", cfg.area_domain)),
        workers=int(node.get("workers", cfg.workers)),
    )

    node = data.get("calibration", {})
    _require_keys("calibration", node, ("coefficients", "weights", "refine_rounds"))
    cfg = replace(
        cfg,
        coefficient_candidates=tuple(float(c) for c in node["coefficients"])
        if "coefficients" in node
        else cfg.coefficient_candidates,
        weight_candidates=tuple(float(w) for w in node["weights"])
        if "weights" in node
        else cfg.weight_candidates,
        calibration_refine_rounds=int(
            node.get("refine_rounds", cfg.calibration_refine_rounds)
        ),
    )

    node = data.get("output", {})
    _require_keys(
        "output", node, ("field_dx", "trace_csv", "field_csv", "verdict_csv", "candidates_csv")
    )
    cfg = replace(
        cfg,
        field_dx=float(node.get("field_dx", cfg.field_dx)),
        trace_csv=str(node.get("trace_csv", cfg.trace_csv)),
        field_csv=node.get("field_csv", cfg.field_csv),
        verdict_csv=node.get("verdict_csv", cfg.verdict_csv),
        candidates_csv=node.get("candidates_csv", cfg.candidates_csv),
    )
    return cfg


def load_config(path: str | None) -> RunConfig:
    """Load a YAML configuration file; None or an empty file gives defaults."""
    if path is None:
        return RunConfig()
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: not valid YAML: {exc}") from exc
    return config_from_dict(data)
