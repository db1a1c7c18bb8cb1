"""Seeded inputs, timed rounds and output checks of the benchmark workloads.

A workload is built from a seed and runs in rounds.  ``tasks`` lists one
round of operations through reflowsim's public API, each a callable that
times itself and returns an ``Op``; ``run`` simply runs them.  ``check`` runs outside the timed region and returns
the keys of the operations whose output is wrong: the first time a key is
seen its output is checked against independent oracles, and afterwards it
must equal that first, checked output.  Every entry point is looked up on
its module when the round is listed, so spans installed by
``spans.installed`` before that see it.
"""

from __future__ import annotations

import importlib.util
import io
import math
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Any

import numpy as np

import reflowsim.cli
import reflowsim.optimize
from reflowsim import (
    ParameterRanges,
    ProcessParameters,
    WeldingModel,
    build_profile,
    check_limits,
    compute_metrics,
    reflow_area,
    simulate,
    symmetry_score,
)
from reflowsim.config import DEFAULT_COEFFICIENT_CANDIDATES, DEFAULT_WEIGHT_CANDIDATES


def _load_test_oracles():
    """The independent oracles of the acceptance suite (tests/helpers.py)."""
    path = Path(__file__).resolve().parent.parent / "tests" / "helpers.py"
    spec = importlib.util.spec_from_file_location("reflowsim_test_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracles = _load_test_oracles()
naive_rk4 = oracles.naive_rk4
brute_force_speed_sweep = oracles.brute_force_speed_sweep

WEIGHT = 0.8
COEFFICIENT = 0.021
TOL = 1e-9
METRIC_FIELDS = ("max_slope", "min_slope", "rise_time_150_190",
                 "duration_above_217", "peak_temp", "peak_time")


@dataclass
class Op:
    """One timed operation: its kind (for latency grouping), a key unique
    within the round, its duration, its output and any exception raised."""

    kind: str
    key: str
    seconds: float
    value: Any = None
    error: str | None = None


def no_span(name: str):
    return nullcontext()


def _timed(kind: str, key: str, fn, *args, **kwargs) -> Op:
    start = perf_counter()
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # a raising operation is a failed operation
        return Op(kind, key, perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
    return Op(kind, key, perf_counter() - start, value)


def levels(lo: float, hi: float, step: float) -> list[float]:
    """lo, lo + step, ..., hi (hi must lie on the grid)."""
    n = int(round((hi - lo) / step))
    return [round(lo + i * step, 9) for i in range(n + 1)]


def setpoint_lattice(temp_step: float = 5.0) -> list[tuple[float, float, float, float]]:
    """Every (tt1, tt2, tt3, tt4) of the default adjustable ranges."""
    r = ParameterRanges()
    return [(a, b, c, d)
            for a in levels(*r.tt1, temp_step) for b in levels(*r.tt2, temp_step)
            for c in levels(*r.tt3, temp_step) for d in levels(*r.tt4, temp_step)]


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def _metrics_mismatch(got, want) -> str | None:
    for name in METRIC_FIELDS:
        if not _close(getattr(got, name), getattr(want, name)):
            return f"{name} {getattr(got, name)!r} != {getattr(want, name)!r}"
    return None


def _naive_mismatch(layout, params, trace) -> str | None:
    """Compare a trace with the textbook RK4 loop of the test oracles."""
    ref = naive_rk4(build_profile(layout, params, WEIGHT), params, COEFFICIENT, 0.1, 0.5)
    if len(ref) != len(trace) or np.max(np.abs(ref.temps - trace.temps)) > TOL:
        return f"trace at {params} differs from the naive RK4 oracle"
    return None


class Workload:
    """Common round bookkeeping; subclasses provide ``tasks`` and ``_check_first``."""

    # kinds whose durations add up to the round's wall time (workers=1)
    wall_kinds: tuple[str, ...] = ()
    # untraced rounds a run needs at least, whatever its duration
    min_rounds = 1

    def context(self) -> dict:
        return {}

    def tasks(self, round_no: int, parallel: bool = False, span=no_span) -> list:
        raise NotImplementedError

    def run(self, round_no: int, parallel: bool = False, span=no_span) -> list[Op]:
        return [task() for task in self.tasks(round_no, parallel, span)]

    def check(self, ops: list[Op], reference: dict[str, Any]) -> dict[str, str]:
        """Map the key of every wrong operation to the reason.

        ``reference`` holds the checked output of every key seen before; the
        outputs of keys checked for the first time here are added to it.
        """
        errors = {op.key: op.error for op in ops if op.error}
        fresh = [op for op in ops if op.key not in errors and op.key not in reference]
        for op in ops:
            if op.key in errors or op.key not in reference:
                continue
            if op.value != reference[op.key]:
                errors[op.key] = "output differs from the first run of the same input"
        errors.update(self._check_first(fresh, ops))
        for op in fresh:
            if op.key not in errors:
                reference[op.key] = op.value
        return errors

    def _check_first(self, fresh: list[Op], ops: list[Op]) -> dict[str, str]:
        raise NotImplementedError


class JointSweep(Workload):
    """minimize_area and most_symmetric over the full 5 degC setpoint
    lattice at two belt speeds, plus minimize_area at workers=2.

    Each workers=1 call sweeps one tt4 slice (125 combinations of TT1..TT3)
    at both speeds, so, as in the full sweep, each ambient profile serves
    every speed, and a timed operation lasts about 0.3 s, short enough for
    the reference kernel sampled around it to track the host's speed.  The
    winner over the lattice is the best of its slices.  The workers=2 call
    sweeps the whole lattice at both speeds.
    """

    wall_kinds = ("minimize_area", "most_symmetric")
    # seeded candidates per call re-run through the per-candidate chain
    SAMPLES_RECHECKED = 2

    def __init__(self, seed: int, layout, temp_step: float = 5.0):
        rng = np.random.default_rng(seed)
        # The seed moves the two speeds towards each other, which keeps the
        # summed transit time (the work per round) within 1% across seeds.
        shift = int(rng.integers(0, 20)) / 10.0
        lo, hi = 65.0 + shift, 82.0 - shift
        both_speeds = {"belt_speed": (lo, hi), "speed_step": hi - lo, "temp_step": temp_step}
        self.layout = layout
        self.speeds = [lo, hi]
        self.lattice = setpoint_lattice(temp_step)
        self.slices = {f"tt4={t:g}": ParameterRanges(tt4=(t, t), **both_speeds)
                       for t in sorted({c[3] for c in self.lattice})}
        self.full = ParameterRanges(**both_speeds)
        self.sample_seed = int(rng.integers(2**31))

    def context(self) -> dict:
        return {"setpoint_combos": len(self.lattice), "speeds": self.speeds,
                "calls_per_round": 2 * len(self.slices),
                "candidates_per_call": len(self.lattice) * len(self.speeds) // len(self.slices),
                "rechecked_per_call": self.SAMPLES_RECHECKED + 1}

    @staticmethod
    def order(objective: str):
        """The documented total ordering of an objective."""
        if objective == "area":
            return lambda c: (c.area, *c.key())
        return lambda c: (c.symmetry, c.area, *c.key())

    def tasks(self, round_no: int, parallel: bool = False, span=no_span) -> list:
        opt = reflowsim.optimize
        args = (WEIGHT, COEFFICIENT)
        tasks = [partial(_timed, kind, f"{kind}@{part}", fn, self.layout, ranges, *args)
                 for kind, fn in (("minimize_area", opt.minimize_area),
                                  ("most_symmetric", opt.most_symmetric))
                 for part, ranges in self.slices.items()]
        if parallel:
            tasks.append(partial(_timed, "minimize_area_w2", "minimize_area_w2",
                                 opt.minimize_area, self.layout, self.full, *args, workers=2))
        return tasks

    def check(self, ops, reference):
        errors = super().check(ops, reference)
        # workers=2 over the lattice must equal workers=1 over its slices
        for op in ops:
            if op.kind != "minimize_area_w2" or op.key in errors:
                continue
            parts = [o for o in ops if o.kind == "minimize_area"]
            if len(parts) != len(self.slices) or any(o.error for o in parts):
                errors[op.key] = "workers=1 slices missing"
                continue
            key = self.order("area")
            bests = [o.value.best for o in parts if o.value.best is not None]
            one = sorted((c for o in parts for c in o.value.candidates), key=key)
            if (sorted(op.value.candidates, key=key) != one
                    or op.value.best != (min(bests, key=key) if bests else None)):
                errors[op.key] = "workers=2 result differs from workers=1"
        return errors

    def _check_first(self, fresh, ops):
        errors = {}
        winners = {}  # kind -> (best, key of the slice that holds it)
        for op in fresh:
            if op.kind == "minimize_area_w2":
                continue
            objective = "symmetry" if op.kind == "most_symmetric" else "area"
            reason = self.check_result(objective, self.slices[op.key.split("@")[1]], op.value)
            if reason:
                errors[op.key] = reason
            elif op.value.best is not None:
                incumbent = winners.get(op.kind)
                if incumbent is None or self.order(objective)(op.value.best) \
                        < self.order(objective)(incumbent[0]):
                    winners[op.kind] = (op.value.best, op.key)
        for best, key in winners.values():
            p = best.params
            reason = _naive_mismatch(self.layout, p, simulate(
                build_profile(self.layout, p, WEIGHT), p, WeldingModel(COEFFICIENT)))
            if reason:
                errors[key] = reason
        return errors

    def check_result(self, objective: str, ranges, result) -> str | None:
        """Check one OptimizationResult of one tt4 slice of the lattice."""
        cands = result.candidates
        grid = {t + (v,) for t in self.lattice if t[3] == ranges.tt4[0] for v in self.speeds}
        if result.candidates_evaluated != len(grid) or len(cands) != len(grid):
            return f"{result.candidates_evaluated} candidates evaluated, grid has {len(grid)}"
        if {tuple(round(x, 9) for x in c.key()) for c in cands} != grid:
            return "evaluated candidates do not cover the grid"
        eligible = [c for c in cands
                    if c.feasible and (objective == "area" or c.symmetry is not None)]
        expected = min(eligible, key=self.order(objective)) if eligible else None
        if result.best != expected:
            return "reported best is not the minimum over the eligible candidates"
        rng = np.random.default_rng(self.sample_seed)
        picks = rng.choice(len(cands), self.SAMPLES_RECHECKED, replace=False)
        sample = [cands[int(i)] for i in picks]
        for cand in [result.best, *sample] if expected else sample:
            reason = self._rerun_mismatch(cand)
            if reason:
                return reason
        return None

    def _rerun_mismatch(self, cand) -> str | None:
        """Re-run one candidate through the per-candidate reference chain."""
        p = cand.params
        trace = simulate(build_profile(self.layout, p, WEIGHT), p, WeldingModel(COEFFICIENT))
        metrics = compute_metrics(trace)
        try:
            symmetry = symmetry_score(trace)
        except ValueError:
            symmetry = None
        reason = _metrics_mismatch(cand.metrics, metrics)
        if reason is None and cand.feasible != check_limits(metrics).passed:
            reason = "feasible flag disagrees with the limit check"
        if reason is None and not _close(cand.area, reflow_area(trace)):
            reason = f"area {cand.area!r} != {reflow_area(trace)!r}"
        if reason is None and not _close(cand.symmetry, symmetry):
            reason = f"symmetry {cand.symmetry!r} != {symmetry!r}"
        return None if reason is None else f"candidate {cand.key()}: {reason}"


class SpeedSweep(Workload):
    """feasible_speed_interval over 351 speeds for seeded setpoint sets."""

    wall_kinds = ("feasible_speed_interval",)

    def __init__(self, seed: int, layout, n_sets: int = 8):
        rng = np.random.default_rng(seed)
        lattice = setpoint_lattice()
        chosen = sorted(int(i) for i in rng.choice(len(lattice), n_sets, replace=False))
        self.layout = layout
        self.sets = [ProcessParameters(*lattice[i]) for i in chosen]
        self.speeds = levels(65.0, 100.0, 0.1)

    def context(self) -> dict:
        return {"setpoint_sets": [list(self.key_of(p)) for p in self.sets],
                "speeds_per_set": len(self.speeds)}

    @staticmethod
    def key_of(p) -> tuple:
        return (p.tt1, p.tt2, p.tt3, p.tt4)

    def tasks(self, round_no: int, parallel: bool = False, span=no_span) -> list:
        opt = reflowsim.optimize
        return [partial(_timed, "feasible_speed_interval", f"set{i}",
                        opt.feasible_speed_interval, self.layout, p, WEIGHT, COEFFICIENT)
                for i, p in enumerate(self.sets)]

    def _check_first(self, fresh, ops):
        errors = {}
        for op in fresh:
            reason = self.check_result(self.sets[int(op.key[3:])], op.value)
            if reason:
                errors[op.key] = reason
        # the trace at the largest feasible speed of the round (or at 100 when
        # nothing is feasible) against the naive RK4 oracle
        checked = [op for op in fresh if op.key not in errors]
        if checked:
            op = max(checked, key=lambda o: o.value.max_feasible or 0.0)
            reason = self.naive_mismatch(self.sets[int(op.key[3:])], op.value)
            if reason:
                errors[op.key] = reason
        return errors

    def check_result(self, params, result) -> str | None:
        speeds = [c.speed for c in result.per_speed]
        if len(speeds) != len(self.speeds) or not all(map(_close, speeds, self.speeds)):
            return "per-speed table does not cover the 351-speed grid"
        oracle = brute_force_speed_sweep(self.layout, params, WEIGHT, COEFFICIENT)
        if list(result.feasible_speeds) != oracle:
            return f"feasible speeds differ from brute force for {self.key_of(params)}"
        return None

    def naive_mismatch(self, params, result) -> str | None:
        target = result.max_feasible if result.max_feasible is not None else self.speeds[-1]
        p = ProcessParameters(*self.key_of(params), belt_speed=target)
        trace = simulate(build_profile(self.layout, p, WEIGHT), p, WeldingModel(COEFFICIENT))
        reason = _naive_mismatch(self.layout, p, trace)
        if reason is None:
            row = result.per_speed[[c.speed for c in result.per_speed].index(target)]
            reason = _metrics_mismatch(row.metrics, compute_metrics(trace))
        return reason


@dataclass
class Scenario:
    params: ProcessParameters
    coefficient: float
    weight: float
    truth: Any  # noiseless naive-RK4 trace
    measured: Path
    flags: list[str]


class Cli(Workload):
    """In-process ``reflowsim.cli.main`` over seeded scenarios: simulate,
    check the written trace, calibrate against a seeded measurement, and one
    field dump per round."""

    wall_kinds = ("simulate", "check", "calibrate", "field")
    # Well below the noise at which the nearest refinement candidate
    # (coefficient step 5e-5) could win on any lattice scenario (about 0.1).
    NOISE_C = 0.02

    def __init__(self, seed: int, layout, workdir: Path, n_scenarios: int = 8):
        # at least 100 latency samples per command, 10 of them beyond the p90
        self.min_rounds = math.ceil(100 / n_scenarios)
        rng = np.random.default_rng(seed)
        lattice = setpoint_lattice()
        self.layout = layout
        self.workdir = Path(workdir)
        self.scenarios = []
        for i in range(n_scenarios):
            tt = lattice[int(rng.integers(len(lattice)))]
            # stratified speeds keep the round's work the same across seeds
            speed = round(65.0 + 35.0 * (i + float(rng.uniform())) / n_scenarios, 1)
            q = float(rng.choice(DEFAULT_COEFFICIENT_CANDIDATES))
            w = float(rng.choice(DEFAULT_WEIGHT_CANDIDATES))
            p = ProcessParameters(*tt, belt_speed=speed)
            truth = naive_rk4(build_profile(layout, p, w), p, q, 0.1, 0.5)
            noisy = truth.temps + rng.normal(0.0, self.NOISE_C, len(truth))
            measured = self.workdir / f"measured_{i}.csv"
            with open(measured, "w", encoding="utf-8") as fh:
                fh.write(f"# belt_speed_cm_min = {speed}\nt_s,temp_c\n")
                fh.writelines(f"{t:.6f},{y:.6f}\n" for t, y in zip(truth.times, noisy))
            flags = ["--tt1", f"{tt[0]:g}", "--tt2", f"{tt[1]:g}", "--tt3", f"{tt[2]:g}",
                     "--tt4", f"{tt[3]:g}", "--belt-speed", f"{speed:g}",
                     "--coefficient", f"{q:g}", "--blend-weight", f"{w:g}"]
            self.scenarios.append(Scenario(p, q, w, truth, measured, flags))

    def context(self) -> dict:
        return {"scenarios": len(self.scenarios), "field_dx_cm": 0.1,
                "noise_c": self.NOISE_C}

    def tasks(self, round_no: int, parallel: bool = False, span=no_span) -> list:
        tasks = []
        for i, s in enumerate(self.scenarios):
            sim = self.workdir / f"sim_{i}.csv"
            tasks.append(partial(self._call, "simulate", f"simulate:{i}",
                                 ["simulate", *s.flags, "--out", str(sim)], [sim], span))
            tasks.append(partial(self._call, "check", f"check:{i}", ["check", str(sim)], [], span))
            tasks.append(partial(self._call, "calibrate", f"calibrate:{i}",
                                 ["calibrate", str(s.measured), *s.flags, "--fit-blend"],
                                 [], span))
        j = round_no % len(self.scenarios)
        field = self.workdir / f"field_{j}.csv"
        tasks.append(partial(self._call, "field", f"field:{j}",
                             ["field", *self.scenarios[j].flags[:8], "--out", str(field)],
                             [field], span))
        return tasks

    @staticmethod
    def _call(kind, key, argv, files, span) -> Op:
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with span(f"cli.{kind}"):
                with redirect_stdout(out), redirect_stderr(err):
                    code = reflowsim.cli.main(argv)
        except Exception as exc:  # a raising command is a failed operation
            return Op(kind, key, perf_counter() - start, None, f"{type(exc).__name__}: {exc}")
        seconds = perf_counter() - start
        if code != 0:
            return Op(kind, key, seconds, None, f"exit {code}: {err.getvalue().strip()}")
        return Op(kind, key, seconds, (out.getvalue(), tuple(Path(f).read_bytes() for f in files)))

    @staticmethod
    def verdict(stdout: str) -> list[str]:
        """The pass/fail column of the verdict table and the overall line."""
        lines = stdout.splitlines()
        rows = [f"{l.split()[0]} {l.split()[-1]}" for l in lines if l.endswith((" yes", " no"))]
        return rows + [l for l in lines if l.startswith("overall:")]

    def _check_first(self, fresh, ops):
        by_key = {op.key: op for op in ops}
        errors = {}
        for op in fresh:
            kind, index = op.key.split(":")
            s = self.scenarios[int(index)]
            stdout, files = op.value
            if kind == "simulate":
                reason = self.check_simulate(s, files[0])
            elif kind == "check":
                reason = self.check_verdict(by_key.get(f"simulate:{index}"), stdout)
            elif kind == "calibrate":
                reason = self.check_calibrate(s, stdout)
            else:
                reason = self.check_field(s, files[0])
            if reason:
                errors[op.key] = reason
        return errors

    @staticmethod
    def check_simulate(s: Scenario, data: bytes) -> str | None:
        rows = data.decode().splitlines()[2:]
        temps = np.array([float(r.split(",")[2]) for r in rows])
        if temps.shape != s.truth.temps.shape or np.max(np.abs(temps - s.truth.temps)) > 1e-6:
            return "written trace differs from the naive RK4 oracle"
        return None

    def check_verdict(self, simulate_op: Op | None, stdout: str) -> str | None:
        verdict = self.verdict(stdout)
        if (simulate_op is None or simulate_op.error or len(verdict) != 6
                or self.verdict(simulate_op.value[0]) != verdict):
            return "check verdict differs from the verdict simulate printed"
        return None

    @staticmethod
    def check_calibrate(s: Scenario, stdout: str) -> str | None:
        want = (f"best coefficient: {s.coefficient:.6f}", f"best blend weight: {s.weight:.4f}")
        missing = [w for w in want if w not in stdout.splitlines()]
        return f"calibration did not recover {missing}" if missing else None

    def check_field(self, s: Scenario, data: bytes) -> str | None:
        lines = data.decode().splitlines()
        if lines[0] != "position_cm,temp_c" or len(lines) != 1 + len(levels(0.0, 435.5, 0.1)):
            return "field dump has the wrong header or row count"
        rows = dict(line.split(",") for line in lines[1:])
        # zones 1-9 (TT1..TT4) are plateaus at their setpoint; 10-11 lie in
        # the cooling blend
        for zone in self.layout.heated_zones()[:9]:
            centre = f"{0.5 * (zone.start_cm + zone.end_cm):.1f}"
            want = f"{s.params.slot_temperature(zone.setpoint_slot):.4f}"
            if rows.get(centre) != want:
                return f"field at {centre} cm is {rows.get(centre)}, expected {want}"
        return None

