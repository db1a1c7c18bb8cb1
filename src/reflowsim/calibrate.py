"""Scoring simulated traces against measured ones, and fitting the welding
coefficient and the cooling-blend weight by grid search.

The score is the mean squared error over the measured trace's own timestamps
(simulated values are interpolated onto them), complemented by the Pearson
correlation coefficient as a shape-agreement report.  Both fits keep the
candidate of least error, ties going to the smaller parameter (``_best``),
and prepare the measured side once per search (``_Scorer``); ``align``,
``discrepancy`` and ``pearson`` are its one-pair case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import build_profile
from .oven import OvenLayout, ProcessParameters, check_count
from .thermal import SimulationGrid, ThermalTrace, WeldingModel, check_finite, check_step, simulator

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


def _overlap(measured: ThermalTrace, times: np.ndarray) -> np.ndarray:
    """Which measured samples lie within the simulated time range ``times``:
    the one overlap rule of ``align`` and ``_Scorer``.  Fewer than 2 is an
    error."""
    lo = max(measured.times[0], times[0])
    hi = min(measured.times[-1], times[-1])
    mask = (measured.times >= lo - 1e-12) & (measured.times <= hi + 1e-12)
    if np.count_nonzero(mask) < 2:
        raise ValueError(
            "measured and simulated time ranges overlap in fewer than 2 samples"
        )
    return mask


def align(measured: ThermalTrace, simulated: ThermalTrace) -> AlignedPair:
    """Interpolate the simulated trace onto the measured timestamps.

    Only the overlap of the two time ranges is used; measured values are
    taken verbatim.  Fewer than 2 measured samples in the overlap is an
    error.
    """
    mask = _overlap(measured, simulated.times)
    t = measured.times[mask]
    sim_vals = np.interp(t, simulated.times, simulated.temps)
    return AlignedPair(t, measured.temps[mask], sim_vals)


_FLAT = "Pearson correlation undefined for a zero-variance series"


def _squared_error(measured: np.ndarray, simulated: np.ndarray) -> np.ndarray:
    diff = measured - simulated
    return np.mean(diff * diff, axis=-1)


def _centred_rows(measured: np.ndarray) -> np.ndarray:
    """Two rows for ``_correlation``: the measured series less its mean,
    then room for the simulated one."""
    rows = np.empty((2, measured.size))
    np.subtract(measured, measured.mean(), out=rows[0])
    return rows


def _correlation(rows: np.ndarray, simulated: np.ndarray) -> float:
    """np.corrcoef(measured, simulated)[0, 1] bit for bit, from the measured
    series' ``_centred_rows`` (their second row is overwritten).

    These are corrcoef's own steps: the centred rows stacked, one np.dot of
    them with their transpose, the 1/(N-1) scale, division by the square
    roots of the diagonal, the clip.  Separate 1-D dot products round
    differently."""
    np.subtract(simulated, simulated.mean(), out=rows[1])
    c = np.dot(rows, rows.T)
    c *= 1.0 / (rows.shape[1] - 1)
    r = float(c[0, 1]) / math.sqrt(c[0, 0]) / math.sqrt(c[1, 1])
    return min(max(r, -1.0), 1.0)


def discrepancy(pair: AlignedPair) -> float:
    """Mean squared error between the aligned series, in degC squared."""
    return float(_squared_error(pair.measured, pair.simulated))


def pearson(pair: AlignedPair) -> float:
    """Sample Pearson correlation coefficient of the aligned series."""
    m = pair.measured
    s = pair.simulated
    if np.ptp(m) == 0.0 or np.ptp(s) == 0.0:
        raise ValueError(_FLAT)
    return _correlation(_centred_rows(m), s)


class _Scorer:
    """The scores of one grid search's simulated rows against its measured
    trace, bit for bit those of ``align``, ``discrepancy`` and ``pearson``,
    their one-pair case.

    A search's rows share one time axis (one grid, one belt speed; sample k
    at k * dt, as in a ``ThermalTrace``), so the measured side is prepared
    once, at the first block: the samples in the overlap (``_overlap``),
    whether they are flat, and their ``_centred_rows``.  Each block passes
    one finite check, then its rows are interpolated and scored.
    """

    def __init__(self, measured: ThermalTrace, dt: float):
        self.measured, self.dt, self.times = measured, dt, None

    def simulated(self, rows: np.ndarray) -> np.ndarray:
        """Each row's temperatures at the measured times in the overlap."""
        check_finite(rows)
        if self.times is None:
            self.axis = np.arange(rows.shape[1]) * self.dt
            mask = _overlap(self.measured, self.axis)
            self.times, self.temps = self.measured.times[mask], self.measured.temps[mask]
            self.flat = np.ptp(self.temps) == 0.0
            self.rows = _centred_rows(self.temps)
        return np.array([np.interp(self.times, self.axis, row) for row in rows])

    def discrepancy(self, simulated: np.ndarray) -> list[float]:
        return _squared_error(self.temps, simulated).tolist()

    def pearson(self, simulated: np.ndarray) -> list[float]:
        """Each row's correlation; the caller has refused a flat row."""
        if self.flat:
            raise ValueError(_FLAT)
        return [_correlation(self.rows, row) for row in simulated]


def _key(value: float) -> float:
    """Two candidates are the same when their first 12 significant digits are."""
    return float(f"{value:.12g}")


def distinct(values) -> list:
    """The candidates without repeats by ``_key``, each at its first occurrence."""
    firsts = {}
    for value in values:
        firsts.setdefault(_key(value), value)
    return list(firsts.values())


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


def _start_search(measured, params, candidates: list, name: str, grid):
    """What both grid searches check first: a non-empty candidate list (the
    argument ``name``) and the trace's speed.  Returns the grid to run on,
    the search's ``_Scorer`` and its ``distinct`` candidates."""
    if not candidates:
        raise ValueError(f"{name} must not be empty")
    check_trace_speed(measured, params.belt_speed)
    grid = grid if grid is not None else SimulationGrid()
    return grid, _Scorer(measured, grid.dt_out), distinct(candidates)


@dataclass(frozen=True)
class CandidateScore:
    coefficient: float
    discrepancy: float
    pearson: float


@dataclass(frozen=True)
class CalibrationResult:
    """Grid-search outcome; ties in discrepancy go to the smaller coefficient."""

    scores: tuple[CandidateScore, ...]

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(self.scores))

    @property
    def best_coefficient(self) -> float:
        return _best(self.scores, "coefficient").coefficient


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
        0.0005; a repeat is evaluated once (``distinct``).  It runs in RK4
        blocks of at most 2 * REFINE_FACTOR + 1, as each refinement round
        does.  When its block runs, the first candidate in evaluation order
        that ``WeldingModel`` or ``check_step`` refuses is refused before
        the block integrates; once it is out, the first whose trace stays
        at the start temperature (its Pearson correlation undefined).
    grid : SimulationGrid, optional
        Integration/output grid (defaults to dt=0.1 s, dt_out=0.5 s).
    refine_rounds : int
        After the base grid, re-grid one coarse step around the incumbent
        at 1/REFINE_FACTOR (a tenth) of the step and re-evaluate; repeated
        per round with ever finer steps, until the rounds run out or one
        adds no candidate.  A refined candidate that ``check_step`` refuses
        is skipped.  Pass 0 to restrict the search to the given grid.

    Returns
    -------
    CalibrationResult
        Per-candidate (coefficient, discrepancy, pearson) rows in evaluation
        order and the best coefficient.
    """
    cands = [float(c) for c in candidates]
    grid, score, base = _start_search(measured, params, cands, "candidates", grid)
    check_count("refine_rounds", refine_rounds, 0)
    # one plan and field for every candidate: only the coefficient varies
    run = simulator([build_profile(layout, params, weight)], params, grid)

    def evaluate(qs: list[float]) -> list[CandidateScore]:  # one RK4 block
        simulated = score.simulated(run([WeldingModel(q) for q in qs]))
        flat = np.ptp(simulated, axis=1) == 0.0
        # a flat measurement is refused at the first row's Pearson, after its flatness
        if flat.any() and (flat[0] or not score.flat):
            raise ValueError(f"candidate coefficients: {qs[flat.argmax()]:g} leaves the board at "
                             "its start temperature, where the Pearson correlation is undefined")
        return list(map(CandidateScore, qs, score.discrepancy(simulated), score.pearson(simulated)))

    # a long grid runs in blocks no wider than a refinement round, which bounds their memory
    width = 2 * REFINE_FACTOR + 1
    scores = [s for i in range(0, len(base), width) for s in evaluate(base[i : i + width])]
    seen = {_key(q) for q in base}
    step = float(np.median(np.diff(sorted(base)))) if len(base) > 1 else None
    for _ in range(refine_rounds if step is not None else 0):
        incumbent = _best(scores, "coefficient")
        fine = step / REFINE_FACTOR
        fresh = []
        for k in range(-REFINE_FACTOR, REFINE_FACTOR + 1):
            q = round(incumbent.coefficient + k * fine, 12)
            if q <= 0 or _key(q) in seen:
                continue
            try:  # a refined candidate past the RK4 stability bound is skipped
                check_step(q, grid.dt)
            except ValueError:
                continue
            seen.add(_key(q))
            fresh.append(q)
        # nothing new: the grid has collapsed onto seen values, as finer ones will
        if not fresh:
            break
        scores += evaluate(fresh)
        step = fine

    return CalibrationResult(scores)


@dataclass(frozen=True)
class WeightScore:
    weight: float
    discrepancy: float


@dataclass(frozen=True)
class BlendFit:
    """Result of the blend-weight grid search; ties go to the smaller weight."""

    scores: tuple[WeightScore, ...]

    def __post_init__(self):
        object.__setattr__(self, "scores", tuple(self.scores))

    @property
    def best_weight(self) -> float:
        return _best(self.scores, "weight").weight


def fit_blend_weight(
    measured: ThermalTrace,
    layout: OvenLayout,
    params: ProcessParameters,
    coefficient: float,
    weight_candidates,
    grid: SimulationGrid | None = None,
) -> BlendFit:
    """Grid-search the cooling-blend weight against a measured trace.

    Integrates every weight, a repeat once (``distinct``), as one RK4 block
    of one ``thermal.simulator``: the profiles share one plan and stage
    positions; only the cooling blend's field depends on the weight.  Each
    row is scored by the mean squared error at the measured timestamps.
    params.belt_speed must be the trace's (``check_trace_speed``), each
    weight in [0, 1] and the step stable (``check_step``), all checked
    before the block integrates.
    """
    grid, score, weights = _start_search(measured, params, list(weight_candidates),
                                         "weight_candidates", grid)
    model = WeldingModel(coefficient)
    # every profile first: build_profile refuses a bad weight before any run
    profiles = [build_profile(layout, params, w) for w in weights]
    simulated = score.simulated(simulator(profiles, params, grid)([model]))
    return BlendFit(map(WeightScore, weights, score.discrepancy(simulated)))
