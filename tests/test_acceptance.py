"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Numeric bounds that the criteria allow to be "measured and tightened" are
frozen here at their measured values with margin; everything else is checked
against independent oracles (closed forms, dense brute force, duplicated
sweep logic) rather than against the code paths under test.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from reflowsim import (
    ParameterRanges,
    ProcessParameters,
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    build_profile,
    calibrate_coefficient,
    check_limits,
    compute_metrics,
    default_layout,
    feasible_speed_interval,
    minimize_area,
    most_symmetric,
    reflow_area,
    simulate,
)
from reflowsim.ambient import AmbientProfile, ConstantSegment, ambient_at
from reflowsim.cli import main as cli_main

from helpers import (
    brute_force_above_duration,
    brute_force_area,
    brute_force_joint_sweep,
    brute_force_speed_sweep,
    oracle_metrics,
    oracle_verdict,
    piecewise_trace,
)
from test_oven import EXPECTED_REGIONS


@contextlib.contextmanager
def criterion(number: int, title: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {number:2d}] {title}: FAIL")
        raise
    print(f"[criterion {number:2d}] {title}: PASS "
          f"({time.perf_counter() - start:.1f}s)")


def test_criterion_01_geometry_exactness():
    with criterion(1, "geometry exactness"):
        start = time.perf_counter()
        layout = default_layout()
        assert len(layout.zones) == 23
        for zone, (name, kind, lo, hi, slot) in zip(layout.zones, EXPECTED_REGIONS):
            assert (zone.name, zone.kind, zone.start_cm, zone.end_cm,
                    zone.setpoint_slot) == (name, kind, lo, hi, slot)
        assert layout.zones[0].start_cm == 0.0
        for prev, cur in zip(layout.zones, layout.zones[1:]):
            assert prev.end_cm == cur.start_cm
        assert layout.zones[-1].end_cm == layout.total_length_cm == 435.5
        assert time.perf_counter() - start < 1.0


def test_criterion_02_field_correctness(profile):
    with criterion(2, "ambient field vs 12 hand-computed probes"):
        # plateau interiors
        probes = [(10.0, 25.0), (40.0, 175.0), (210.0, 195.0), (250.0, 235.0),
                  (300.0, 255.0), (420.0, 25.0)]
        # sigmoid midpoints are plateau averages
        probes += [(200.0, 185.0), (235.5, 215.0), (271.0, 245.0)]
        # cooling-blend anchors
        probes += [(339.5, 255.0), (410.5, 25.0)]
        for x, expected in probes:
            assert ambient_at(profile, x) == pytest.approx(expected, abs=1e-9)
        # blend interior, evaluated independently: the anchored line plus the
        # anchored exponential, mixed 0.8 / 0.2
        x = 375.0
        line = 255.0 + (25.0 - 255.0) * (x - 339.5) / (410.5 - 339.5)
        rate = (math.log(255.0) - math.log(25.0)) / (339.5 - 410.5)
        expo = 255.0 * math.exp(rate * (x - 339.5))
        assert ambient_at(profile, x) == pytest.approx(
            0.8 * line + 0.2 * expo, abs=1e-9
        )


def test_criterion_03_ode_correctness():
    with criterion(3, "constant-ambient RK4 vs closed form, 4th order"):
        start = time.perf_counter()
        profile = AmbientProfile((ConstantSegment(0.0, 435.5, 175.0),))
        params = ProcessParameters()

        def max_error(coefficient, dt):
            trace = simulate(profile, params, WeldingModel(coefficient),
                             SimulationGrid(dt, dt))
            mask = trace.times <= 300.0
            closed = 175.0 - 150.0 * np.exp(-coefficient * trace.times[mask])
            return np.max(np.abs(trace.temps[mask] - closed))

        # at the working coefficient the error sits at roundoff level
        assert max_error(0.021, 0.1) <= 1e-6
        # the order measurement needs truncation above roundoff: 0.2 / s
        err_h = max_error(0.2, 0.1)
        err_h2 = max_error(0.2, 0.05)
        assert err_h <= 1e-6
        assert 12.0 <= err_h / err_h2 <= 20.0
        assert time.perf_counter() - start < 1.0


def test_criterion_04_euler_oracle_equivalence(default_trace, euler_fine):
    with criterion(4, "default-scenario RK4 vs fine-step Euler"):
        start = time.perf_counter()
        euler_on_grid = np.interp(default_trace.times, euler_fine.times,
                                  euler_fine.temps)
        diff = np.max(np.abs(default_trace.temps - euler_on_grid))
        # measured 0.039 degC; frozen with margin, well under the 0.5 ceiling
        assert diff <= 0.1
        assert time.perf_counter() - start < 10.0


def test_criterion_05_calibration_round_trip(layout, params, profile):
    with criterion(5, "coefficient grid-search round trips"):
        grid_values = [0.0200, 0.0205, 0.0210, 0.0215, 0.0220]
        for q_true in grid_values:
            measured = simulate(profile, params, WeldingModel(q_true))
            result = calibrate_coefficient(
                measured, layout, params, 0.8, grid_values, refine_rounds=0
            )
            assert result.best_coefficient == q_true

        # exact recovery also holds with the default refinement round
        measured = simulate(profile, params, WeldingModel(0.021))
        refined = calibrate_coefficient(measured, layout, params, 0.8, grid_values)
        assert refined.best_coefficient == 0.0210

        # noisy recovery on the same grid, after checking that the candidate
        # separation dominates the noise-induced wobble
        clean = calibrate_coefficient(
            measured, layout, params, 0.8, grid_values, refine_rounds=0
        )
        by_q = {s.coefficient: s.discrepancy for s in clean.scores}
        gap = min(by_q[0.0205], by_q[0.0215])
        sigma = 1.0
        assert gap > 10 * 2 * sigma * np.sqrt(gap / len(measured))
        rng = np.random.default_rng(20240817)
        noisy = ThermalTrace(
            measured.dt, measured.belt_speed,
            measured.temps + rng.normal(0.0, sigma, len(measured)),
        )
        result = calibrate_coefficient(
            noisy, layout, params, 0.8, grid_values, refine_rounds=0
        )
        assert result.best_coefficient == 0.0210


def _limit_suite_traces():
    """Ten piecewise-linear traces: per limit, one passing everything and one
    failing exactly that limit.  All vertices sit on the 0.5 s grid and all
    margins are comfortably wider than the oracle's 1 ms discretization."""
    return {
        "pass_slope_up": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (130, 190), (157, 217), (185, 245),
            (213, 217), (280, 150), (330, 25)]),
        "fail_slope_up": piecewise_trace(0.5, 70.0, [
            (0, 25), (35, 150), (115, 190), (142, 217), (170, 245),
            (198, 217), (265, 150), (315, 25)]),
        "pass_slope_down": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (130, 190), (157, 217), (185, 245),
            (213, 217), (246.5, 150), (296.5, 25)]),
        "fail_slope_down": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (130, 190), (157, 217), (185, 245),
            (213, 217), (233, 147), (294, 25)]),
        "pass_rise_time": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (160, 190), (187, 217), (215, 245),
            (243, 217), (310, 150), (360, 25)]),
        "fail_rise_time": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (180, 190), (207, 217), (235, 245),
            (263, 217), (330, 150), (380, 25)]),
        "pass_melt_window": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (130, 190), (157, 217), (197, 245),
            (242, 217), (309, 150), (359, 25)]),
        "fail_melt_window": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (130, 190), (157, 217), (207, 247),
            (257, 217), (324, 150), (374, 25)]),
        "pass_peak": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (130, 190), (157, 217), (189, 249),
            (221, 217), (288, 150), (338, 25)]),
        "fail_peak": piecewise_trace(0.5, 70.0, [
            (0, 25), (50, 150), (130, 190), (157, 217), (195, 255),
            (233, 217), (300, 150), (350, 25)]),
    }


def test_criterion_06_limit_checker_oracle_agreement():
    with criterion(6, "limit checker vs independent oracle on 10 traces"):
        failing_limit = {
            "fail_slope_up": 0, "fail_slope_down": 1, "fail_rise_time": 2,
            "fail_melt_window": 3, "fail_peak": 4,
        }
        for name, trace in _limit_suite_traces().items():
            verdict = check_limits(compute_metrics(trace))
            flags = tuple(c.passed for c in verdict.checks)
            oracle = oracle_verdict(oracle_metrics(trace))
            assert flags == oracle, f"{name}: {flags} vs oracle {oracle}"
            if name.startswith("pass_"):
                assert all(flags), name
            else:
                expected = tuple(i != failing_limit[name] for i in range(5))
                assert flags == expected, name


def test_criterion_07_metrics_analytics():
    with criterion(7, "triangle-wave analytics vs closed form and brute force"):
        # 25 -> 245 -> 25 at +/-1 degC/s: 56 s above the melting line
        triangle = piecewise_trace(0.5, 70.0, [(0, 25), (220, 245), (440, 25)])
        duration = compute_metrics(triangle).duration_above_217
        assert duration == pytest.approx(56.0, rel=1e-9)
        assert duration == pytest.approx(
            brute_force_above_duration(triangle, 0.001), rel=1e-4
        )
        # 197 -> 237 -> 197 at +/-1 degC/cm: a 40 cm x 20 degC triangle
        area_triangle = piecewise_trace(
            0.5, 60.0, [(0, 197), (40, 237), (80, 197)]
        )
        area = reflow_area(area_triangle)
        assert area == pytest.approx(400.0, rel=1e-9)
        assert area == pytest.approx(
            brute_force_area(area_triangle, 0.001), rel=1e-4
        )


def test_criterion_08_sweeps_match_brute_force(layout):
    with criterion(8, "sweeps vs independent brute force on default grids"):
        # speed sweep, default setpoints (empty set) and a feasible pocket
        start = time.perf_counter()
        for setpoints in (ProcessParameters(),
                          ProcessParameters(tt1=165, tt2=185, tt3=225, tt4=265)):
            sweep = feasible_speed_interval(layout, setpoints, 0.8, 0.021)
            oracle = brute_force_speed_sweep(layout, setpoints, 0.8, 0.021)
            assert list(sweep.feasible_speeds) == oracle
            assert [c.speed for c in sweep.per_speed][0] == 65.0
            assert [c.speed for c in sweep.per_speed][-1] == 100.0
        speed_elapsed = time.perf_counter() - start
        assert speed_elapsed < 30.0

        ranges = ParameterRanges()
        start = time.perf_counter()
        area_result = minimize_area(layout, ranges, 0.8, 0.021)
        sym_result = most_symmetric(layout, ranges, 0.8, 0.021)
        joint_elapsed = time.perf_counter() - start
        assert joint_elapsed < 600.0

        area_oracle = brute_force_joint_sweep(layout, ranges, 0.8, 0.021, "area")
        assert area_result.best.key() == area_oracle[0]
        assert area_result.best.area == pytest.approx(area_oracle[1], abs=1e-9)

        sym_oracle = brute_force_joint_sweep(layout, ranges, 0.8, 0.021, "symmetry")
        assert sym_result.best.key() == sym_oracle[0]
        assert sym_result.best.symmetry == pytest.approx(sym_oracle[2], abs=1e-9)
        assert sym_result.best.area == pytest.approx(sym_oracle[1], abs=1e-9)

        # evaluation order must not matter: re-run the oracle shuffled
        shuffled = brute_force_joint_sweep(
            layout, ranges, 0.8, 0.021, "area", shuffle_seed=1234
        )
        assert shuffled == area_oracle


def test_criterion_09_cli_determinism(tmp_path, capsys):
    with criterion(9, "CLI byte-identical on repeated runs"):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(
            "params: {tt1: 165, tt2: 185, tt3: 225, tt4: 265, belt_speed: 83}\n"
            "ranges:\n"
            "  tt1: [165, 165]\n  tt2: [185, 185]\n  tt3: [225, 225]\n"
            "  tt4: [265, 265]\n  belt_speed: [83, 83]\n"
        )
        measured = tmp_path / "measured.csv"
        assert cli_main(["simulate", "--out", str(measured)]) == 0
        capsys.readouterr()

        invocations = {
            "field": ["field", "--out", "{run}/field.csv"],
            "simulate": ["simulate", "--out", "{run}/trace.csv"],
            "check": ["check", str(measured)],
            "calibrate": ["calibrate", str(measured), "--refine-rounds", "0"],
            "optimize-speed": ["optimize-speed", "--speed-step", "5"],
            "optimize-area": ["optimize-area", "--config", str(cfg),
                              "--workers", "1", "--candidates-csv", "{run}/c.csv"],
            "optimize-symmetry": ["optimize-symmetry", "--config", str(cfg),
                                  "--workers", "1", "--candidates-csv", "{run}/c.csv"],
        }
        for name, argv in invocations.items():
            outputs = []
            for run in ("run1", "run2"):
                run_dir = tmp_path / f"{name}-{run}"
                run_dir.mkdir()
                concrete = [a.replace("{run}", str(run_dir)) for a in argv]
                assert cli_main(concrete) == 0, name
                stdout = capsys.readouterr().out.replace(str(run_dir), "RUN")
                files = {
                    f.name: f.read_bytes() for f in sorted(run_dir.iterdir())
                }
                outputs.append((stdout, files))
            assert outputs[0] == outputs[1], f"{name} is not deterministic"


def test_criterion_10_default_scenario_sanity(default_trace, euler_fine):
    with criterion(10, "default-scenario trace sanity vs Euler oracle"):
        for trace in (default_trace, euler_fine):
            assert np.all(np.isfinite(trace.temps))
            assert trace.temps[0] == 25.0
            peak_idx = int(np.argmax(trace.temps))
            peak_x = trace.positions[peak_idx]
            assert 273.5 <= peak_x <= 410.5
            assert trace.temps[-1] < trace.temps[peak_idx]
