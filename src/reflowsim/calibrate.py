"""Scoring simulated traces against measured ones, and fitting the welding
coefficient and the cooling-blend weight by grid search.

The score is the mean squared error over the measured trace's own timestamps
(simulated values are interpolated onto them), complemented by the Pearson
correlation coefficient as a shape-agreement report.  Both fits keep the
candidate of least error, ties going to the smaller parameter (``_best``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import build_profile
from .oven import OvenLayout, ProcessParameters
from .thermal import SimulationGrid, ThermalTrace, WeldingModel, simulate, simulator

REFINE_FACTOR = 10  # finer steps per step of the grid, at each refinement round


@dataclass(frozen=True)
class AlignedPair:
    """Measured and simulated series on a common, strictly increasing time grid."""

    times: np.ndarray
    measured: np.ndarray
    simulated: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        measured = np.asarray(self.measured, dtype=float)
        simulated = np.asarray(self.simulated, dtype=float)
        if not (times.shape == measured.shape == simulated.shape):
            raise ValueError("aligned series must have equal lengths")
        if times.size < 2:
            raise ValueError("aligned pair needs at least 2 samples")
        if np.any(np.diff(times) <= 0):
            raise ValueError("aligned times must be strictly increasing")
        for name, arr in (
            ("times", times),
            ("measured", measured),
            ("simulated", simulated),
        ):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def align(measured: ThermalTrace, simulated: ThermalTrace) -> AlignedPair:
    """Interpolate the simulated trace onto the measured timestamps.

    Only the overlap of the two time ranges is used; measured values are
    taken verbatim.  Fewer than 2 measured samples in the overlap is an
    error.
    """
    lo = max(measured.times[0], simulated.times[0])
    hi = min(measured.times[-1], simulated.times[-1])
    mask = (measured.times >= lo - 1e-12) & (measured.times <= hi + 1e-12)
    if np.count_nonzero(mask) < 2:
        raise ValueError(
            "measured and simulated time ranges overlap in fewer than 2 samples"
        )
    t = measured.times[mask]
    sim_vals = np.interp(t, simulated.times, simulated.temps)
    return AlignedPair(t, measured.temps[mask], sim_vals)


def discrepancy(pair: AlignedPair) -> float:
    """Mean squared error between the aligned series, in degC squared."""
    diff = pair.measured - pair.simulated
    return float(np.mean(diff * diff))


def pearson(pair: AlignedPair) -> float:
    """Sample Pearson correlation coefficient of the aligned series."""
    m = pair.measured
    s = pair.simulated
    if np.ptp(m) == 0.0 or np.ptp(s) == 0.0:
        raise ValueError("Pearson correlation undefined for a zero-variance series")
    return float(np.corrcoef(m, s)[0, 1])


def check_trace_speed(measured: ThermalTrace, belt_speed: float,
                      name: str = "params.belt_speed") -> None:
    """Refuse to fit a trace recorded at another belt speed than the
    simulations run at: ``name`` (what sets that speed) would otherwise
    be fitted away by a wrong coefficient or weight.  Speeds within a
    relative 1e-9 match, since trace files keep 10 significant digits."""
    if not abs(measured.belt_speed - belt_speed) <= 1e-9 * abs(belt_speed):
        raise ValueError(
            f"the measured trace was recorded at belt speed {measured.belt_speed:g} cm/min, "
            f"but {name} is {belt_speed:g} cm/min: simulate at the trace's speed"
        )


def _best(scores, name: str):
    """The score of least discrepancy, ties going to the smaller parameter
    ``name``: the one rule of both grid searches and of their results."""
    return min(scores, key=lambda s: (s.discrepancy, getattr(s, name)))


def _check_best(result, name: str) -> None:
    """Freeze a grid-search result's scores; its best_<name> must be _best's."""
    object.__setattr__(result, "scores", tuple(result.scores))
    if getattr(_best(result.scores, name), name) != getattr(result, f"best_{name}"):
        raise ValueError(f"best_{name} does not attain the minimum discrepancy")


def _start_search(measured, params, candidates: list, name: str, grid) -> SimulationGrid:
    """What both grid searches check first: a non-empty candidate list (the
    argument ``name``) and the trace's speed.  Returns the grid to run on."""
    if not candidates:
        raise ValueError(f"{name} must not be empty")
    check_trace_speed(measured, params.belt_speed)
    return grid if grid is not None else SimulationGrid()


@dataclass(frozen=True)
class CandidateScore:
    coefficient: float
    discrepancy: float
    pearson: float


@dataclass(frozen=True)
class CalibrationResult:
    """Grid-search outcome; ties in discrepancy go to the smaller coefficient."""

    best_coefficient: float
    scores: tuple[CandidateScore, ...]

    def __post_init__(self):
        _check_best(self, "coefficient")


def calibrate_coefficient(
    measured: ThermalTrace,
    layout: OvenLayout,
    params: ProcessParameters,
    weight: float,
    candidates,
    grid: SimulationGrid | None = None,
    refine_rounds: int = 1,
) -> CalibrationResult:
    """Grid-search the welding coefficient against a measured trace.

    Parameters
    ----------
    measured : ThermalTrace
        Sensor trace to fit.
    layout, params, weight
        Furnace geometry, setpoints and cooling-blend weight used for the
        candidate simulations.  params.belt_speed must be the trace's
        (``check_trace_speed``).
    candidates : iterable of float
        Coefficient grid to evaluate, e.g. 0.0200 to 0.0220 in steps of
        0.0005.  A candidate whose trace stays at the start temperature
        (its Pearson correlation undefined) is refused when it runs.
    grid : SimulationGrid, optional
        Integration/output grid (defaults to dt=0.1 s, dt_out=0.5 s).
    refine_rounds : int
        After the coarse pass, re-grid one coarse step around the incumbent
        at 1/REFINE_FACTOR (a tenth) of the step and re-evaluate; repeated
        per round with ever finer steps, until the rounds run out or one
        adds no candidate.  Pass 0 to restrict the search to the given grid.

    Returns
    -------
    CalibrationResult
        Per-candidate (coefficient, discrepancy, pearson) rows in evaluation
        order and the best coefficient.
    """
    cands = [float(c) for c in candidates]
    grid = _start_search(measured, params, cands, "candidates", grid)
    if refine_rounds < 0:
        raise ValueError(f"refine_rounds must be 0 or positive, got {refine_rounds}")
    # one plan and field for every candidate: only the coefficient varies
    run = simulator(build_profile(layout, params, weight), params, grid)

    def evaluate(q: float) -> CandidateScore:
        pair = align(measured, run(WeldingModel(q)))
        if np.ptp(pair.simulated) == 0.0:
            raise ValueError(f"candidate coefficients: {q:g} leaves the board at its start "
                             "temperature, where the Pearson correlation is undefined")
        return CandidateScore(q, discrepancy(pair), pearson(pair))

    scores = [evaluate(q) for q in cands]
    seen = {round(q, 12) for q in cands}
    step = _grid_step(cands)
    for _ in range(refine_rounds if step is not None else 0):
        incumbent = _best(scores, "coefficient")
        fine = step / REFINE_FACTOR
        seen_before = len(seen)
        for k in range(-REFINE_FACTOR, REFINE_FACTOR + 1):
            q = incumbent.coefficient + k * fine
            q = round(q, 12)
            if q <= 0 or q in seen:
                continue
            seen.add(q)
            scores.append(evaluate(q))
        # nothing new: the grid has collapsed onto seen values, as finer ones will
        if len(seen) == seen_before:
            break
        step = fine

    best = _best(scores, "coefficient")
    return CalibrationResult(best.coefficient, tuple(scores))


def _grid_step(candidates: list[float]) -> float | None:
    """Median adjacent spacing of the sorted grid; None when not refinable."""
    uniq = sorted(set(candidates))
    if len(uniq) < 2:
        return None
    return float(np.median(np.diff(uniq)))


@dataclass(frozen=True)
class WeightScore:
    weight: float
    discrepancy: float


@dataclass(frozen=True)
class BlendFit:
    """Result of the blend-weight grid search; ties go to the smaller weight."""

    best_weight: float
    scores: tuple[WeightScore, ...]

    def __post_init__(self):
        _check_best(self, "weight")


def fit_blend_weight(
    measured: ThermalTrace,
    layout: OvenLayout,
    params: ProcessParameters,
    coefficient: float,
    weight_candidates,
    grid: SimulationGrid | None = None,
) -> BlendFit:
    """Grid-search the cooling-blend weight against a measured trace.

    Simulates the furnace once per candidate weight and scores each run by
    the mean squared error against the measured trace at its own timestamps.
    params.belt_speed must be the trace's (``check_trace_speed``), and each
    weight must lie in [0, 1]; both are checked before any simulation.
    """
    candidates = list(weight_candidates)
    grid = _start_search(measured, params, candidates, "weight_candidates", grid)
    model = WeldingModel(coefficient)
    # every profile first: build_profile refuses a bad weight before any run
    profiles = [build_profile(layout, params, w) for w in candidates]
    scores = []
    for w, profile in zip(candidates, profiles):
        pair = align(measured, simulate(profile, params, model, grid))
        scores.append(WeightScore(w, discrepancy(pair)))
    best = _best(scores, "weight")
    return BlendFit(best.weight, tuple(scores))
