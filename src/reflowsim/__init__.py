"""Reflow-oven thermal profile simulation, calibration and optimization.

The package models a conveyor reflow furnace as a piecewise ambient
temperature field, integrates the weld-area-center heating ODE along the
belt, extracts manufacturability metrics, checks them against process
limits, and searches the adjustable parameter space exhaustively.
"""

from .ambient import (
    AmbientProfile,
    ConstantSegment,
    ExpLinearBlendSegment,
    SigmoidSegment,
    ambient_at,
    build_profile,
)
from .calibrate import (
    AlignedPair,
    BlendFit,
    CalibrationResult,
    CandidateScore,
    align,
    calibrate_coefficient,
    discrepancy,
    fit_blend_weight,
    pearson,
)
from .limits import (
    LimitCheck,
    LimitVerdict,
    ProcessLimits,
    TraceMetrics,
    check_limits,
    compute_metrics,
)
from .optimize import (
    OptimizationResult,
    SpeedSweepResult,
    SweepCandidate,
    feasible_speed_interval,
    inclusive_grid,
    minimize_area,
    most_symmetric,
    objective_key,
    reflow_area,
    symmetry_score,
)
from .oven import (
    OvenLayout,
    ParameterRanges,
    ProcessParameters,
    RangeViolation,
    ZoneSpec,
    default_layout,
    position_at_time,
    validate_parameters,
)
from .thermal import (
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    simulate,
)
from .traceio import load_trace_csv, write_trace_csv

__version__ = "0.1.0"

__all__ = [
    "AlignedPair",
    "AmbientProfile",
    "BlendFit",
    "CalibrationResult",
    "CandidateScore",
    "ConstantSegment",
    "ExpLinearBlendSegment",
    "LimitCheck",
    "LimitVerdict",
    "OptimizationResult",
    "OvenLayout",
    "ParameterRanges",
    "ProcessLimits",
    "ProcessParameters",
    "RangeViolation",
    "SigmoidSegment",
    "SimulationGrid",
    "SpeedSweepResult",
    "SweepCandidate",
    "ThermalTrace",
    "TraceMetrics",
    "WeldingModel",
    "ZoneSpec",
    "align",
    "ambient_at",
    "build_profile",
    "calibrate_coefficient",
    "check_limits",
    "compute_metrics",
    "default_layout",
    "discrepancy",
    "feasible_speed_interval",
    "fit_blend_weight",
    "inclusive_grid",
    "load_trace_csv",
    "minimize_area",
    "most_symmetric",
    "objective_key",
    "pearson",
    "position_at_time",
    "reflow_area",
    "simulate",
    "symmetry_score",
    "validate_parameters",
    "write_trace_csv",
]
