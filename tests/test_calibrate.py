from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reflowsim.calibrate as calibrate_module
import reflowsim.thermal as thermal
from reflowsim import (
    AlignedPair,
    CalibrationResult,
    CandidateScore,
    ProcessParameters,
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    align,
    build_profile,
    calibrate_coefficient,
    discrepancy,
    fit_blend_weight,
    pearson,
    simulate,
)
from reflowsim.calibrate import BlendFit, WeightScore, check_trace_speed
from reflowsim.thermal import simulator

from helpers import full_field_rk4

COARSE_GRID = [0.0200, 0.0205, 0.0210, 0.0215, 0.0220]


def trace_from(temps, dt=0.5, v=70.0):
    return ThermalTrace(dt, v, np.asarray(temps, dtype=float))


class TestAlign:
    def test_identical_grids_verbatim(self, default_trace):
        pair = align(default_trace, default_trace)
        assert np.array_equal(pair.measured, default_trace.temps)
        assert np.array_equal(pair.simulated, default_trace.temps)

    def test_node_coincidence_preserved_exactly(self, profile, params):
        fine = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.1))
        coarse = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.5))
        pair = align(coarse, fine)
        assert np.array_equal(pair.simulated, fine.temps[::5][: len(pair.simulated)])

    def test_overlap_restriction(self):
        short = trace_from(np.linspace(25, 80, 21))   # 10 s
        long = trace_from(np.linspace(25, 80, 101))   # 50 s
        pair = align(long, short)
        assert pair.times[-1] <= short.duration + 1e-12

    def test_degenerate_overlap_is_an_error(self, default_trace):
        single = trace_from([25.0])
        with pytest.raises(ValueError, match="overlap"):
            align(single, default_trace)

    def test_pair_validation(self):
        with pytest.raises(ValueError, match="equal lengths"):
            AlignedPair(np.array([0.0, 1.0]), np.array([1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="increasing"):
            AlignedPair(np.array([0.0, 0.0]), np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="2 samples"):
            AlignedPair(np.array([0.0]), np.array([1.0]), np.array([1.0]))


class TestDiscrepancy:
    def test_identical_series(self):
        pair = AlignedPair(np.arange(5.0), np.ones(5), np.ones(5))
        assert discrepancy(pair) == 0.0

    def test_constant_offset(self):
        pair = AlignedPair(np.arange(7.0), np.full(7, 30.0), np.full(7, 28.0))
        assert discrepancy(pair) == pytest.approx(4.0, abs=1e-12)

    def test_hand_arithmetic(self):
        pair = AlignedPair(
            np.arange(3.0), np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 5.0])
        )
        assert discrepancy(pair) == pytest.approx(5.0 / 3.0, rel=1e-12)

    @given(
        st.lists(st.floats(min_value=-500, max_value=500), min_size=2, max_size=30)
    )
    def test_non_negative(self, values):
        arr = np.array(values)
        pair = AlignedPair(np.arange(len(arr), dtype=float), arr, arr[::-1].copy())
        assert discrepancy(pair) >= 0.0


class TestPearson:
    def test_self_correlation(self):
        series = np.array([25.0, 80.0, 240.0, 110.0, 30.0])
        pair = AlignedPair(np.arange(5.0), series, series.copy())
        assert pearson(pair) == pytest.approx(1.0, abs=1e-12)

    def test_sign_reversal(self):
        series = np.array([25.0, 80.0, 240.0, 110.0, 30.0])
        pair = AlignedPair(np.arange(5.0), series, -series)
        assert pearson(pair) == pytest.approx(-1.0, abs=1e-12)

    def test_positive_affine_invariance(self):
        series = np.array([25.0, 80.0, 240.0, 110.0, 30.0])
        pair = AlignedPair(np.arange(5.0), series, 3.5 * series + 12.0)
        assert pearson(pair) == pytest.approx(1.0, abs=1e-9)

    @given(
        a=st.floats(min_value=0.01, max_value=50.0),
        b=st.floats(min_value=-100.0, max_value=100.0),
    )
    @settings(max_examples=50)
    def test_affine_transform_leaves_r_unchanged(self, a, b):
        rng = np.random.default_rng(3)
        m = rng.normal(100.0, 20.0, 25)
        s = m + rng.normal(0.0, 5.0, 25)
        t = np.arange(25.0)
        base = pearson(AlignedPair(t, m, s))
        scaled = pearson(AlignedPair(t, a * m + b, s))
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_zero_variance_is_an_error(self):
        pair = AlignedPair(np.arange(4.0), np.full(4, 25.0), np.arange(4.0))
        with pytest.raises(ValueError, match="zero-variance"):
            pearson(pair)


class TestCalibrateCoefficient:
    def test_round_trip_every_grid_point(self, layout, params, profile):
        for q_true in COARSE_GRID:
            measured = simulate(profile, params, WeldingModel(q_true))
            result = calibrate_coefficient(
                measured, layout, params, 0.8, COARSE_GRID, refine_rounds=0
            )
            assert result.best_coefficient == q_true
            exact = {s.coefficient: s.discrepancy for s in result.scores}
            assert exact[q_true] == 0.0

    def test_round_trip_survives_refinement(self, layout, params, profile):
        measured = simulate(profile, params, WeldingModel(0.021))
        result = calibrate_coefficient(
            measured, layout, params, 0.8, COARSE_GRID, refine_rounds=1
        )
        assert result.best_coefficient == 0.0210
        assert len(result.scores) > len(COARSE_GRID)

    def test_discrepancy_unimodal_on_grid(self, layout, params, profile):
        measured = simulate(profile, params, WeldingModel(0.021))
        result = calibrate_coefficient(
            measured, layout, params, 0.8, COARSE_GRID, refine_rounds=0
        )
        values = [s.discrepancy for s in result.scores]
        k = int(np.argmin(values))
        assert all(values[i] > values[i + 1] for i in range(k))
        assert all(values[i] < values[i + 1] for i in range(k, len(values) - 1))

    def test_noisy_recovery_on_grid(self, layout, params, profile):
        measured = simulate(profile, params, WeldingModel(0.021))
        clean = calibrate_coefficient(
            measured, layout, params, 0.8, COARSE_GRID, refine_rounds=0
        )
        by_q = {s.coefficient: s.discrepancy for s in clean.scores}
        neighbor_gap = min(by_q[0.0205], by_q[0.0215])
        sigma = 1.0
        # Noise shifts each candidate's MSE by roughly sigma^2 plus a
        # zero-mean wobble ~ 2 sigma sqrt(D/n); recovery needs the
        # clean separation to dominate that wobble.
        wobble = 2 * sigma * np.sqrt(neighbor_gap / len(measured))
        assert neighbor_gap > 10 * wobble

        rng = np.random.default_rng(20240817)
        noisy = ThermalTrace(
            measured.dt, measured.belt_speed,
            measured.temps + rng.normal(0.0, sigma, len(measured)),
        )
        result = calibrate_coefficient(
            noisy, layout, params, 0.8, COARSE_GRID, refine_rounds=0
        )
        assert result.best_coefficient == 0.0210

    def test_singleton_candidate(self, layout, params, profile):
        measured = simulate(profile, params, WeldingModel(0.021))
        result = calibrate_coefficient(
            measured, layout, params, 0.8, [0.05], refine_rounds=0
        )
        assert result.best_coefficient == 0.05
        assert len(result.scores) == 1

    def test_tiny_candidate_is_scored(self, layout, params, default_trace):
        # at 1e-16 the scan factor A**stride rounds to 1
        result = calibrate_coefficient(
            default_trace, layout, params, 0.8, [1e-16, 0.021], refine_rounds=0
        )
        assert result.best_coefficient == 0.021
        assert np.isfinite(result.scores[0].discrepancy)

    def test_pearson_reported_per_candidate(self, layout, params, profile):
        measured = simulate(profile, params, WeldingModel(0.021))
        result = calibrate_coefficient(
            measured, layout, params, 0.8, COARSE_GRID, refine_rounds=0
        )
        assert len(result.scores) == 5
        assert all(-1.0 <= s.pearson <= 1.0 for s in result.scores)
        best_row = [s for s in result.scores if s.coefficient == 0.0210][0]
        assert best_row.pearson == pytest.approx(1.0, abs=1e-12)

    def test_refinement_stops_once_a_round_adds_nothing(self, layout, params, default_trace,
                                                        monkeypatch):
        # a tenth of the step per round: after nine rounds the steps fall
        # below the 1e-12 the candidates are rounded to
        best, calls = calibrate_module._best, []

        def counted(scores, name):
            calls.append(len(scores))
            return best(scores, name)

        monkeypatch.setattr(calibrate_module, "_best", counted)
        endless = calibrate_coefficient(default_trace, layout, params, 0.8, COARSE_GRID,
                                        refine_rounds=10**6)
        # one incumbent per round
        assert len(calls) < 20 and len(endless.scores) == 157
        assert calibrate_coefficient(default_trace, layout, params, 0.8, COARSE_GRID,
                                     refine_rounds=20) == endless
        assert calibrate_coefficient(default_trace, layout, params, 0.8, COARSE_GRID,
                                     refine_rounds=8).scores == endless.scores[:149]

    def test_refinement_skips_candidates_past_the_stability_bound(self, layout, params,
                                                                  profile):
        # 12.9 * 0.1 lies just below the RK4 bound; a step of 0.9 around it
        # refines up to 13.8, past it
        measured = simulate(profile, params, WeldingModel(12.5))
        coarse = calibrate_coefficient(measured, layout, params, 0.8, [12.0, 12.9],
                                       refine_rounds=0)
        assert [s.coefficient for s in coarse.scores] == [12.0, 12.9]
        assert coarse == reference_calibration(measured, layout, params, 0.8, [12.0, 12.9],
                                               SimulationGrid(), 0)
        refined = calibrate_coefficient(measured, layout, params, 0.8, [12.0, 12.9],
                                        refine_rounds=1)
        assert refined.scores[:2] == coarse.scores and len(refined.scores) > 2
        assert all(s.coefficient * 0.1 < thermal._MAX_E for s in refined.scores)

    def test_constant_candidate_trace_is_refused_naming_the_candidate(
            self, layout, params, default_trace):
        # at 1e-300 the board never leaves 25 degC, and Pearson is undefined
        with pytest.raises(ValueError, match="candidate coefficients: 1e-300 leaves the board "
                                             "at its start temperature"):
            calibrate_coefficient(default_trace, layout, params, 0.8, [0.021, 1e-300],
                                  refine_rounds=0)

    def test_empty_candidates(self, layout, params, default_trace):
        with pytest.raises(ValueError, match="empty"):
            calibrate_coefficient(default_trace, layout, params, 0.8, [])

    def test_trace_at_another_speed_is_refused(self, layout, params, profile):
        # params run at 70 cm/min; the trace was simulated at 90
        measured = simulate(profile, replace(params, belt_speed=90.0), WeldingModel(0.021))
        message = ("recorded at belt speed 90 cm/min, but params.belt_speed is 70 cm/min: "
                   "simulate at the trace's speed")
        with pytest.raises(ValueError, match=message):
            calibrate_coefficient(measured, layout, params, 0.8, COARSE_GRID)
        with pytest.raises(ValueError, match=message):
            fit_blend_weight(measured, layout, params, 0.021, [0.8])

    def test_trace_speed_matches_within_a_relative_1e9(self):
        # trace files keep 10 significant digits of the speed
        check_trace_speed(trace_from([25.0, 26.0], v=83.12345679), 83.123456789123)
        with pytest.raises(ValueError, match="belt speed 83.1235 cm/min, but --belt-speed"):
            check_trace_speed(trace_from([25.0, 26.0], v=83.123457), 83.123456789123,
                              "--belt-speed")

    @pytest.mark.parametrize("result_type, score, name", [
        (CalibrationResult, lambda q, d: CandidateScore(q, d, 0.9), "coefficient"),
        (BlendFit, WeightScore, "weight"),
    ], ids=["coefficient", "weight"])
    def test_tie_breaks_toward_smaller_coefficient(self, result_type, score, name):
        scores = [score(0.3, 5.0), score(0.1, 5.0), score(0.2, 7.0)]
        result = result_type(scores)
        assert getattr(result, f"best_{name}") == 0.1 and result.scores == tuple(scores)


def reference_calibration(measured, layout, params, weight, candidates, grid, refine_rounds):
    """``calibrate_coefficient`` written out: each candidate's trace from the
    full-field oracle, scored by align, discrepancy and pearson; refinement
    re-grids one step around the incumbent at a tenth of the step."""
    profile = build_profile(layout, params, weight)

    def score(q):
        temps = full_field_rk4(profile, params.tt5, q, grid, [params.belt_speed])[0]
        pair = align(measured, ThermalTrace(grid.dt_out, params.belt_speed, temps))
        return CandidateScore(q, discrepancy(pair), pearson(pair))

    def best(scores):
        return min(scores, key=lambda s: (s.discrepancy, s.coefficient))

    scores = [score(q) for q in candidates]
    seen = {round(q, 12) for q in candidates}
    step = float(np.median(np.diff(sorted(set(candidates)))))
    for _ in range(refine_rounds):
        centre, step = best(scores).coefficient, step / 10
        for k in range(-10, 11):
            q = round(centre + k * step, 12)
            if q > 0 and q not in seen:
                seen.add(q)
                scores.append(score(q))
    return CalibrationResult(scores)


def counted_integrations(monkeypatch) -> list:
    """The coefficients of the candidates that ``calibrate_coefficient``
    integrates, a round's recorded once its block is out."""
    ran = []

    def counted(*args):
        run = thermal.simulator(*args)

        def counted_run(models):
            rows = run(models)
            ran.extend(model.coefficient for model in models)
            return rows

        return counted_run

    monkeypatch.setattr(calibrate_module, "simulator", counted)
    return ran


class TestOnePlanPerCalibration:
    """Every candidate of one calibration integrates on one plan and field."""

    @pytest.mark.parametrize("refine_rounds", [0, 1, 2])
    @pytest.mark.parametrize("grid", [(0.1, 0.5), (0.05, 0.25), (0.25, 0.5)])
    @pytest.mark.parametrize("speed", [65.0, 78.3, 100.0])
    def test_result_equals_the_full_field_reference(self, layout, speed, grid, refine_rounds):
        params = ProcessParameters(170.0, 200.0, 230.0, 260.0, belt_speed=speed)
        grid = SimulationGrid(*grid)
        truth = full_field_rk4(build_profile(layout, params, 0.7), params.tt5, 0.02113, grid,
                               [speed])[0]
        noise = np.random.default_rng(7).normal(0.0, 0.05, truth.size)
        measured = ThermalTrace(grid.dt_out, speed, truth + noise)
        result = calibrate_coefficient(measured, layout, params, 0.7, COARSE_GRID, grid,
                                       refine_rounds=refine_rounds)
        assert result == reference_calibration(measured, layout, params, 0.7, COARSE_GRID,
                                               grid, refine_rounds)
        assert len(result.scores) > 5 * refine_rounds

    def test_a_candidate_at_the_step_bound_is_refused_when_it_runs(
            self, layout, params, default_trace, monkeypatch):
        ran = counted_integrations(monkeypatch)
        # at dt 1 the candidate's e is the bound itself, which is refused
        grid = SimulationGrid(1.0, 1.0)
        with pytest.raises(ValueError, match=(
                rf"RK4 step is unstable: coefficient {thermal._MAX_E} \* dt 1.0 = e 1.2956, "
                "at or above 1.29559774")):
            calibrate_coefficient(default_trace, layout, params, 0.8,
                                  [0.021, thermal._MAX_E, 0.022], grid, refine_rounds=0)
        assert ran == []  # refused before any row of its round's block is integrated

    def test_a_long_grid_runs_in_blocks_no_wider_than_a_round(
            self, layout, params, default_trace, monkeypatch):
        blocks, check_finite = [], calibrate_module.check_finite

        def counted_check(rows):
            blocks.append(len(rows))
            check_finite(rows)

        monkeypatch.setattr(calibrate_module, "check_finite", counted_check)
        grid = [float(q) for q in np.linspace(0.018, 0.024, 45)]
        result = calibrate_coefficient(default_trace, layout, params, 0.8, grid, refine_rounds=0)
        assert blocks == [21, 21, 3]
        assert result == reference_calibration(default_trace, layout, params, 0.8, grid,
                                               SimulationGrid(), 0)

    @pytest.mark.parametrize("refine_rounds", [0, 1, 2])
    def test_one_plan_per_calibration(self, layout, params, default_trace, monkeypatch,
                                      refine_rounds):
        plans = []

        class Counted(thermal._Plateaus):
            def __init__(self, *args, **kwargs):
                plans.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(thermal, "_Plateaus", Counted)
        result = calibrate_coefficient(default_trace, layout, params, 0.8, COARSE_GRID,
                                       refine_rounds=refine_rounds)
        assert len(plans) == 1
        assert len(result.scores) > 5 * refine_rounds


WEIGHTS = [0.6, 0.7, 0.8, 0.9, 1.0]


def reference_blend_fit(measured, layout, params, coefficient, weights, grid):
    """``fit_blend_weight`` written out: each weight's trace from the
    full-field oracle on its own profile, scored by align and discrepancy."""
    scores = []
    for w in weights:
        temps = full_field_rk4(build_profile(layout, params, w), params.tt5, coefficient, grid,
                               [params.belt_speed])[0]
        pair = align(measured, ThermalTrace(grid.dt_out, params.belt_speed, temps))
        scores.append(WeightScore(w, discrepancy(pair)))
    return BlendFit(scores)


class TestOnePlanPerBlendFit:
    """Every weight of one blend fit integrates on one plan and one set of
    stage positions; only the cooling blend's field is evaluated per weight."""

    @pytest.mark.parametrize("grid", [(0.1, 0.5), (0.05, 0.25), (0.25, 0.5)])
    @pytest.mark.parametrize("speed", [65.0, 78.3, 100.0])
    def test_result_equals_the_full_field_reference(self, layout, speed, grid):
        params = ProcessParameters(170.0, 200.0, 230.0, 260.0, belt_speed=speed)
        grid = SimulationGrid(*grid)
        truth = full_field_rk4(build_profile(layout, params, 0.7), params.tt5, 0.02113, grid,
                               [speed])[0]
        noise = np.random.default_rng(7).normal(0.0, 0.05, truth.size)
        measured = ThermalTrace(grid.dt_out, speed, truth + noise)
        fit = fit_blend_weight(measured, layout, params, 0.02113, WEIGHTS, grid)
        assert fit == reference_blend_fit(measured, layout, params, 0.02113, WEIGHTS, grid)
        assert fit.best_weight == 0.7

    @pytest.mark.parametrize("grid", [(0.1, 0.5), (0.05, 0.25), (0.25, 0.5)])
    @pytest.mark.parametrize("speed", [65.0, 78.3, 100.0])
    def test_each_weight_equals_its_own_simulate(self, layout, speed, grid):
        params = ProcessParameters(170.0, 200.0, 230.0, 260.0, belt_speed=speed)
        grid = SimulationGrid(*grid)
        model = WeldingModel(0.021)
        # the first weight, the ends of [0, 1], and a repeat
        weights = [0.8, 0.0, 0.35, 1.0, 0.8]
        rows = simulator([build_profile(layout, params, w) for w in weights], params,
                         grid)([model])
        for w, row in zip(weights, rows, strict=True):
            alone = simulate(build_profile(layout, params, w), params, model, grid)
            assert np.array_equal(row, alone.temps)

    def test_one_plan_per_fit(self, layout, params, default_trace, monkeypatch):
        plans = []

        class Counted(thermal._Plateaus):
            def __init__(self, *args, **kwargs):
                plans.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(thermal, "_Plateaus", Counted)
        fit = fit_blend_weight(default_trace, layout, params, 0.021, WEIGHTS)
        assert len(plans) == 1 and fit.best_weight == 0.8

    def test_profiles_that_differ_off_the_blend_are_refused(self, layout, params):
        profiles = [build_profile(layout, params, 0.8),
                    build_profile(layout, replace(params, tt1=180.0), 0.8)]
        # refused as the simulator is built, before any model runs
        with pytest.raises(ValueError, match="differ only in the weights of their cooling blends"):
            simulator(profiles, params, SimulationGrid())


def assert_scorer_equals_one_pair_functions(measured, simulated):
    """A scorer scores a block of the simulated traces' temps, row by row,
    as align, discrepancy, pearson and np.corrcoef score each trace, bit
    for bit."""
    score = calibrate_module._Scorer(measured, simulated[0].dt)
    values = score.simulated(np.array([trace.temps for trace in simulated]))
    scores = zip(score.discrepancy(values), score.pearson(values), strict=True)
    for trace, row, (d, r) in zip(simulated, values, scores, strict=True):
        pair = align(measured, trace)
        assert np.array_equal(score.times, pair.times)
        assert np.array_equal(score.temps, pair.measured)
        assert np.array_equal(row, pair.simulated)
        assert d == discrepancy(pair)
        assert r == pearson(pair) == float(np.corrcoef(pair.measured, pair.simulated)[0, 1])


class TestPreparedScorer:
    """The measured side prepared once per search against the public
    one-pair functions, and against np.corrcoef itself, so that a change in
    how numpy computes a correlation cannot pass unseen.  Traces all start
    at t = 0, so a measured trace can only overlap part of the simulated
    range by ending early, or run past its end."""

    @pytest.mark.parametrize("cut", [slice(0, 300), slice(0, 2), slice(0, None)],
                             ids=["ends-early", "two-samples", "whole"])
    def test_measured_over_part_of_the_simulated_range(self, default_trace, profile, params,
                                                       cut):
        measured = trace_from(default_trace.temps[cut] + 0.3, v=params.belt_speed)
        others = [simulate(profile, params, WeldingModel(q)) for q in (0.021, 0.0205, 0.03)]
        assert_scorer_equals_one_pair_functions(measured, others)

    def test_measured_past_the_simulated_end(self, default_trace, params):
        simulated = trace_from(default_trace.temps[:200], v=params.belt_speed)
        assert_scorer_equals_one_pair_functions(default_trace, [simulated])

    @pytest.mark.parametrize("dt", [0.3, 0.7, 1.1])
    def test_measured_off_the_simulated_step(self, profile, params, dt):
        fine = simulate(profile, params, WeldingModel(0.0212), SimulationGrid(0.1, 0.1))
        n = int(fine.duration / dt)
        measured = ThermalTrace(dt, params.belt_speed,
                                np.interp(np.arange(n) * dt, fine.times, fine.temps))
        others = [simulate(profile, params, WeldingModel(q)) for q in (0.0205, 0.021, 0.0215)]
        assert_scorer_equals_one_pair_functions(measured, others)

    def test_seeded_random_series(self):
        rng = np.random.default_rng(20241020)
        pairs = 0
        while pairs < 240:
            measured = trace_from(rng.normal(150.0, 60.0, int(rng.integers(2, 900))),
                                  dt=float(rng.choice([0.5, 0.3, 0.7, 1.1])))
            times = np.arange(int(rng.integers(2, 900))) * 0.5
            if np.count_nonzero(measured.times <= times[-1]) < 2:
                continue
            # one search's traces share one time axis; some follow the measurement
            follow = np.interp(times, measured.times, measured.temps)
            sims = [trace_from(rng.uniform(0.0, 2.0) * follow
                               + rng.normal(0.0, rng.uniform(0.01, 80.0), times.size))
                    for _ in range(3)]
            assert_scorer_equals_one_pair_functions(measured, sims)
            pairs += len(sims)

    def test_a_flat_measurement_is_refused_once_the_first_candidate_ran(
            self, layout, params, monkeypatch):
        ran = counted_integrations(monkeypatch)
        flat = trace_from(np.full(400, 25.0), v=params.belt_speed)
        with pytest.raises(ValueError,
                           match="^Pearson correlation undefined for a zero-variance series$"):
            calibrate_coefficient(flat, layout, params, 0.8, COARSE_GRID, refine_rounds=0)
        assert ran == COARSE_GRID  # refused after the round's block

    def test_a_flat_candidate_is_named_before_a_flat_measurement(self, layout, params,
                                                                 monkeypatch):
        ran = counted_integrations(monkeypatch)
        flat = trace_from(np.full(400, 25.0), v=params.belt_speed)
        with pytest.raises(ValueError, match="^candidate coefficients: 1e-300 leaves the board"):
            calibrate_coefficient(flat, layout, params, 0.8, [1e-300, 0.021], refine_rounds=0)
        assert ran == [1e-300, 0.021]  # refused after the round's block

    def test_a_flat_measurement_is_named_before_a_later_flat_candidate(
            self, layout, params, monkeypatch):
        # the first candidate's Pearson refuses the measurement before the
        # second candidate's flatness is looked at
        ran = counted_integrations(monkeypatch)
        flat = trace_from(np.full(400, 25.0), v=params.belt_speed)
        with pytest.raises(ValueError,
                           match="^Pearson correlation undefined for a zero-variance series$"):
            calibrate_coefficient(flat, layout, params, 0.8, [0.021, 1e-300], refine_rounds=0)
        assert ran == [0.021, 1e-300]

    def test_flat_series_raise_the_one_pair_message(self):
        score = calibrate_module._Scorer(trace_from(np.full(10, 25.0)), 0.5)
        values = score.simulated(np.arange(10.0)[None])
        assert score.discrepancy(values) == [discrepancy(
            AlignedPair(np.arange(10) * 0.5, np.full(10, 25.0), np.arange(10.0)))]
        with pytest.raises(ValueError, match="zero-variance"):
            score.pearson(values)


class TestRowWiseScoring:
    """A block's rows are scored at once: np.mean and np.ptp along each row
    reduce it alone, in the order of their one-row calls."""

    # numpy's pairwise sum changes blocks at 8 and 128 samples
    @pytest.mark.parametrize("overlap", [2, 7, 8, 9, 127, 128, 129, 1000])
    def test_rows_score_as_the_one_pair_functions(self, overlap):
        rng = np.random.default_rng(overlap)
        measured = trace_from(rng.normal(150.0, 60.0, overlap))
        rows = rng.normal(150.0, 60.0, (5, overlap + 3))
        score = calibrate_module._Scorer(measured, 0.5)
        values = score.simulated(rows)
        assert values.shape == (5, overlap)
        assert np.array_equal(np.ptp(values, axis=1), [np.ptp(row) for row in values])
        for row, d, r in zip(rows, score.discrepancy(values), score.pearson(values), strict=True):
            pair = align(measured, trace_from(row))
            assert (d, r) == (discrepancy(pair), pearson(pair))

    def test_a_non_finite_row_is_refused_by_the_trace_message(self):
        rows = np.full((3, 10), 25.0)
        rows[1, 4] = np.inf
        score = calibrate_module._Scorer(trace_from(np.arange(10.0)), 0.5)
        with pytest.raises(ValueError, match="^temps must be finite: sample 4 is inf$"):
            score.simulated(rows)


class TestRepeatedCandidates:
    """A value repeated in a candidate list (by its first 12 significant
    digits, the key of refinement) is integrated and scored once, at its
    first occurrence."""

    def test_tiny_distinct_coefficients_are_both_scored(self, layout, params, default_trace):
        # absolute rounding to 12 decimals would give both the key 0.0
        for grid in ([1e-13, 2e-13], [1e-16, 3e-16]):
            result = calibrate_coefficient(default_trace, layout, params, 0.8, grid,
                                           refine_rounds=0)
            assert [s.coefficient for s in result.scores] == grid

    def test_a_repeated_coefficient_is_scored_once(self, layout, params, default_trace):
        result = calibrate_coefficient(default_trace, layout, params, 0.8, [0.021, 0.021])
        assert [s.coefficient for s in result.scores] == [0.021]
        grid = [0.0205, 0.021, 0.0215]
        repeated = calibrate_coefficient(default_trace, layout, params, 0.8,
                                         [0.0205, 0.021, 0.0205 + 1e-15, 0.0215, 0.021])
        assert repeated == calibrate_coefficient(default_trace, layout, params, 0.8, grid)

    def test_a_repeated_weight_is_scored_once(self, layout, params, default_trace):
        fit = fit_blend_weight(default_trace, layout, params, 0.021, [0.8, 0.8])
        assert [s.weight for s in fit.scores] == [0.8]
        repeated = fit_blend_weight(default_trace, layout, params, 0.021, [0.9, 0.7, 0.9, 0.7])
        assert repeated == fit_blend_weight(default_trace, layout, params, 0.021, [0.9, 0.7])
