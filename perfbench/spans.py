"""Span recorder installed around reflowsim's public functions from outside.

Each traced function is replaced, in every loaded ``reflowsim`` module that
holds it under its own name, by a wrapper that records one span per call:
the call count, and the self time (the span's duration minus the part its
child spans cover).  The callers' module-level lookups (for example
``reflowsim.optimize.simulate``) therefore hit the wrapper without any change
to the package.  ``installed`` puts every original object back on exit.

Some spans also feed exact counters (points evaluated, RK4 steps, limit
rejections); they repeat exactly for a given input and may back a count
claim.
"""

from __future__ import annotations

import math
import os
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from reflowsim.thermal import SimulationGrid, ThermalTrace

# (span name, home module, attribute).  optimize.sweep is the outermost span
# of every sweep entry point; its self time is candidate assembly,
# de-duplication and reductions.
TRACED = (
    ("oven.position_at_time", "reflowsim.oven", "position_at_time"),
    ("ambient.build_profile", "reflowsim.ambient", "build_profile"),
    ("ambient.ambient_at", "reflowsim.ambient", "ambient_at"),
    ("ambient.fit_blend_weight", "reflowsim.ambient", "fit_blend_weight"),
    ("thermal.simulate", "reflowsim.thermal", "simulate"),
    ("limits.compute_metrics", "reflowsim.limits", "compute_metrics"),
    ("limits.check_limits", "reflowsim.limits", "check_limits"),
    ("optimize.reflow_area", "reflowsim.optimize", "reflow_area"),
    ("optimize.symmetry_score", "reflowsim.optimize", "symmetry_score"),
    ("optimize.sweep", "reflowsim.optimize", "minimize_area"),
    ("optimize.sweep", "reflowsim.optimize", "most_symmetric"),
    ("optimize.sweep", "reflowsim.optimize", "feasible_speed_interval"),
    ("calibrate.calibrate_coefficient", "reflowsim.calibrate", "calibrate_coefficient"),
    ("calibrate.align", "reflowsim.calibrate", "align"),
    ("calibrate.discrepancy", "reflowsim.calibrate", "discrepancy"),
    ("calibrate.pearson", "reflowsim.calibrate", "pearson"),
    ("traceio.write_trace_csv", "reflowsim.traceio", "write_trace_csv"),
    ("traceio.load_trace_csv", "reflowsim.traceio", "load_trace_csv"),
    ("config.load_config", "reflowsim.config", "load_config"),
)

# Spans recorded by the runner itself, around whole CLI commands.
CLI_SPANS = ("cli.simulate", "cli.check", "cli.calibrate", "cli.field")
SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TRACED)) + ("thermal.ThermalTrace",) + CLI_SPANS

LIMIT_NAMES = ("max_slope", "min_slope", "rise_time_150_190", "time_above_217", "peak_temp")
# Exact counters: they repeat exactly for a given seed.
COUNTERS = (
    "ambient.ambient_at.points",
    "thermal.rk4_steps",
    *(f"limits.reject.{name}" for name in LIMIT_NAMES),
    "limits.feasible",
    "optimize.symmetry_undefined",
    "calibrate.candidates",
    "traceio.write_trace_csv.bytes",
    "traceio.load_trace_csv.rows",
)


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


def _count_points(counts, args, kwargs, result, exc):
    counts["ambient.ambient_at.points"] += int(np.size(_arg(args, kwargs, 1, "x")))


def _count_rk4_steps(counts, args, kwargs, result, exc):
    # Steps the reference fixed-step integration needs to cross the furnace,
    # derived from the inputs, so a faster engine cannot redefine the count.
    profile = _arg(args, kwargs, 0, "profile")
    params = _arg(args, kwargs, 1, "params")
    grid = _arg(args, kwargs, 3, "grid") or SimulationGrid()
    t_end = profile.total_length_cm * 60.0 / params.belt_speed
    counts["thermal.rk4_steps"] += int(math.floor(t_end / grid.dt + 1e-9))


def _count_verdict(counts, args, kwargs, result, exc):
    if result is None:
        return
    for check in result.checks:
        if not check.passed:
            counts[f"limits.reject.{check.name}"] += 1
    counts["limits.feasible"] += bool(result.passed)


def _count_symmetry(counts, args, kwargs, result, exc):
    if isinstance(exc, ValueError):
        counts["optimize.symmetry_undefined"] += 1


def _count_candidates(counts, args, kwargs, result, exc):
    if result is not None:
        counts["calibrate.candidates"] += len(result.scores)


def _count_bytes(counts, args, kwargs, result, exc):
    if exc is None:
        counts["traceio.write_trace_csv.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_rows(counts, args, kwargs, result, exc):
    if result is not None:
        counts["traceio.load_trace_csv.rows"] += len(result)


HOOKS = {
    "ambient.ambient_at": _count_points,
    "thermal.simulate": _count_rk4_steps,
    "limits.check_limits": _count_verdict,
    "optimize.symmetry_score": _count_symmetry,
    "calibrate.calibrate_coefficient": _count_candidates,
    "traceio.write_trace_csv": _count_bytes,
    "traceio.load_trace_csv": _count_rows,
}


class Recorder:
    """Per-span call counts and self times, plus exact counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []

    def _close(self, name: str, start: float, frame: list[float]) -> None:
        duration = perf_counter() - start
        self._stack.pop()
        self.calls[name] += 1
        self.self_s[name] += duration - frame[0]
        if self._stack:
            self._stack[-1][0] += duration

    @contextmanager
    def span(self, name: str):
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            self._close(name, start, frame)

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        rec = self

        def traced(*args, **kwargs):
            frame = [0.0]
            rec._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec._close(name, start, frame)
                if hook:
                    hook(rec.counts, args, kwargs, None, exc)
                raise
            rec._close(name, start, frame)
            if hook:
                hook(rec.counts, args, kwargs, result, None)
            return result

        traced.__wrapped__ = fn
        return traced


def _reflowsim_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "reflowsim" or n.startswith("reflowsim."))]


@contextmanager
def installed(rec: Recorder):
    """Route every reflowsim lookup of a traced function through ``rec``."""
    restore = []
    try:
        modules = _reflowsim_modules()
        for name, home, attr in TRACED:
            original = getattr(sys.modules[home], attr)
            wrapper = rec.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        restore.append((module, key, original))
                        setattr(module, key, wrapper)
        # ThermalTrace is constructed through from_temps' ``cls(...)``, so the
        # class itself is the only place its construction can be observed.
        restore.append((ThermalTrace, "__init__", ThermalTrace.__init__))
        ThermalTrace.__init__ = rec.wrap("thermal.ThermalTrace", ThermalTrace.__init__)
        yield rec
    finally:
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
