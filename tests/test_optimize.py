import numpy as np
import pytest

from reflowsim import (
    ParameterRanges,
    ProcessParameters,
    SweepCandidate,
    ThermalTrace,
    TraceMetrics,
    WeldingModel,
    build_profile,
    check_limits,
    compute_metrics,
    feasible_speed_interval,
    inclusive_grid,
    minimize_area,
    most_symmetric,
    objective_eligible,
    objective_key,
    reflow_area,
    simulate,
    symmetry_score,
)
from helpers import (
    brute_force_area,
    brute_force_joint_sweep,
    brute_force_speed_sweep,
    piecewise_trace,
)

# A feasible pocket of the default parameter space: entry slope needs
# tt1 = 165 and the peak limit needs a hot tt4.
FEASIBLE_POINT = dict(tt1=165.0, tt2=185.0, tt3=225.0, tt4=265.0)

SMALL_RANGES = ParameterRanges(
    tt1=(165.0, 165.0),
    tt2=(185.0, 195.0),
    tt3=(225.0, 235.0),
    tt4=(255.0, 265.0),
    belt_speed=(70.0, 90.0),
    temp_step=5.0,
    speed_step=5.0,
)


class TestInclusiveGrid:
    def test_divisible_range(self):
        assert inclusive_grid(65.0, 100.0, 0.1)[0] == 65.0
        assert inclusive_grid(65.0, 100.0, 0.1)[-1] == 100.0
        assert len(inclusive_grid(65.0, 100.0, 0.1)) == 351

    def test_non_divisible_range_appends_endpoint(self):
        assert inclusive_grid(0.0, 1.0, 0.3) == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_singleton(self):
        assert inclusive_grid(5.0, 5.0, 1.0) == [5.0]

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="positive"):
            inclusive_grid(0.0, 1.0, 0.0)
        with pytest.raises(ValueError, match="below"):
            inclusive_grid(1.0, 0.0, 0.1)


class TestReflowArea:
    def test_zero_when_never_above_melt(self):
        trace = piecewise_trace(0.5, 70.0, [(0.0, 25.0), (50.0, 200.0), (100.0, 25.0)])
        assert reflow_area(trace) == 0.0

    def test_triangle_closed_form(self):
        # v = 60 cm/min makes x = t, so +/-1 degC/s is +/-1 degC/cm: a
        # triangle reaching 20 degC above the melting line over a 40 cm base.
        trace = piecewise_trace(0.5, 60.0, [(0.0, 197.0), (40.0, 237.0), (80.0, 197.0)])
        assert reflow_area(trace) == pytest.approx(400.0, rel=1e-9)
        assert reflow_area(trace) == pytest.approx(
            brute_force_area(trace, 0.001), rel=1e-4
        )

    def test_position_scaling_doubles_area(self):
        trace = piecewise_trace(0.5, 60.0, [(0.0, 197.0), (40.0, 237.0), (80.0, 197.0)])
        stretched = ThermalTrace.from_temps(trace.dt, 120.0, trace.temps)
        assert reflow_area(stretched) == pytest.approx(2.0 * reflow_area(trace), rel=1e-12)

    def test_lead_in_below_melt_leaves_area_unchanged(self):
        base = piecewise_trace(0.5, 60.0, [(0.0, 197.0), (40.0, 237.0), (80.0, 197.0)])
        padded = piecewise_trace(
            0.5, 60.0,
            [(0.0, 197.0), (30.0, 197.0), (70.0, 237.0), (110.0, 197.0)],
        )
        assert reflow_area(padded) == pytest.approx(reflow_area(base), rel=1e-12)

    def test_time_domain_is_rescaled_position_domain(self, default_trace):
        pos = reflow_area(default_trace, "position")
        tim = reflow_area(default_trace, "time")
        assert tim == pytest.approx(pos * 60.0 / default_trace.belt_speed, rel=1e-12)

    def test_unknown_domain(self, default_trace):
        with pytest.raises(ValueError, match="domain"):
            reflow_area(default_trace, "length")


class TestSymmetryScore:
    def test_symmetric_pass_scores_zero(self):
        trace = piecewise_trace(0.5, 70.0, [(0.0, 207.0), (15.0, 237.0), (30.0, 207.0)])
        assert symmetry_score(trace) == 0.0

    def test_asymmetric_triangle_hand_sum(self):
        # Rise 1 degC/s, fall 2 degC/s through 217 -> 227 -> 217: the above-
        # melt pass spans 15 s, and the 0.5 s mirrored pairs sum to 126.25.
        trace = piecewise_trace(0.5, 70.0, [(0.0, 207.0), (20.0, 227.0), (30.0, 207.0)])
        assert symmetry_score(trace) == pytest.approx(126.25, abs=1e-9)

    def test_translation_invariance(self):
        base = piecewise_trace(0.5, 70.0, [(0.0, 207.0), (20.0, 227.0), (30.0, 207.0)])
        shifted = piecewise_trace(
            0.5, 70.0,
            [(0.0, 207.0), (40.0, 207.0), (60.0, 227.0), (70.0, 207.0)],
        )
        assert symmetry_score(shifted) == pytest.approx(symmetry_score(base), abs=1e-9)

    def test_never_above_melt_is_an_error(self):
        trace = piecewise_trace(0.5, 70.0, [(0.0, 25.0), (50.0, 200.0), (100.0, 25.0)])
        with pytest.raises(ValueError, match="never exceeds"):
            symmetry_score(trace)

    def test_disjoint_passes_are_an_error(self):
        trace = piecewise_trace(
            0.5, 70.0,
            [(0.0, 25.0), (96.0, 217.0), (101.0, 227.0), (111.0, 207.0),
             (121.0, 227.0), (126.0, 217.0), (222.5, 25.0)],
        )
        with pytest.raises(ValueError, match="disjoint"):
            symmetry_score(trace)

    def test_grazing_touch_counts_as_connected(self):
        # Dips exactly to the melting line for a single instant: measure-zero
        # split, treated as one pass.
        trace = piecewise_trace(
            0.5, 70.0,
            [(0.0, 207.0), (10.0, 227.0), (20.0, 217.0), (30.0, 227.0), (40.0, 207.0)],
        )
        assert symmetry_score(trace) == pytest.approx(0.0, abs=1e-9)

    def test_narrow_pass_scores_zero(self):
        trace = piecewise_trace(0.5, 70.0, [(0.0, 216.5), (0.5, 217.4), (1.0, 216.5)])
        assert symmetry_score(trace) == 0.0

    def test_default_trace_deterministic(self, default_trace):
        assert symmetry_score(default_trace) == symmetry_score(default_trace)


class TestFeasibleSpeedInterval:
    def test_grid_includes_both_endpoints(self, layout):
        params = ProcessParameters(**FEASIBLE_POINT)
        sweep = feasible_speed_interval(layout, params, 0.8, 0.021, speed_step=5.0)
        speeds = [c.speed for c in sweep.per_speed]
        assert speeds[0] == 65.0
        assert speeds[-1] == 100.0

    def test_singleton_grid(self, layout):
        params = ProcessParameters(**FEASIBLE_POINT)
        sweep = feasible_speed_interval(
            layout, params, 0.8, 0.021, speed_range=(83.0, 83.0), speed_step=1.0
        )
        assert sweep.feasible_speeds == (83.0,)
        assert sweep.max_feasible == 83.0

    def test_matches_independent_limit_check(self, layout):
        params = ProcessParameters(**FEASIBLE_POINT)
        sweep = feasible_speed_interval(
            layout, params, 0.8, 0.021, speed_range=(65.0, 100.0), speed_step=2.5
        )
        oracle = brute_force_speed_sweep(
            layout, params, 0.8, 0.021, speed_range=(65.0, 100.0), speed_step=2.5
        )
        assert list(sweep.feasible_speeds) == oracle

    def test_empty_feasible_set_is_a_result(self, layout):
        params = ProcessParameters(tt1=165.0, tt2=185.0, tt3=225.0, tt4=245.0)
        sweep = feasible_speed_interval(layout, params, 0.8, 0.021, speed_step=5.0)
        assert sweep.feasible_speeds == ()
        assert sweep.max_feasible is None
        # All setpoints at their minimum cannot reach the 240 degC peak floor.
        assert all(c.metrics.peak_temp < 240.0 for c in sweep.per_speed)


class TestObjectiveOrdering:
    def _candidate(self, area, symmetry, feasible=True, v=70.0):
        params = ProcessParameters(belt_speed=v)
        metrics = TraceMetrics(
            max_slope=2.0, min_slope=-2.0, rise_time_150_190=80.0,
            duration_above_217=60.0, peak_temp=245.0, peak_time=100.0,
        )
        return SweepCandidate(params, metrics, area, symmetry, feasible)

    def test_equal_symmetry_smaller_area_wins(self):
        a = self._candidate(area=900.0, symmetry=5.0)
        b = self._candidate(area=700.0, symmetry=5.0)
        winner = min([a, b], key=lambda c: objective_key("symmetry", c))
        assert winner is b

    def test_symmetry_dominates_area(self):
        a = self._candidate(area=100.0, symmetry=9.0)
        b = self._candidate(area=900.0, symmetry=5.0)
        winner = min([a, b], key=lambda c: objective_key("symmetry", c))
        assert winner is b

    def test_parameter_tuple_breaks_full_ties(self):
        a = self._candidate(area=700.0, symmetry=5.0, v=80.0)
        b = self._candidate(area=700.0, symmetry=5.0, v=70.0)
        winner = min([a, b], key=lambda c: objective_key("area", c))
        assert winner is b

    def test_eligibility(self):
        infeasible = self._candidate(area=1.0, symmetry=1.0, feasible=False)
        no_sym = self._candidate(area=1.0, symmetry=None)
        assert not objective_eligible("area", infeasible)
        assert objective_eligible("area", no_sym)
        assert not objective_eligible("symmetry", no_sym)

    def test_unknown_objective(self):
        with pytest.raises(ValueError, match="objective"):
            objective_key("peak", self._candidate(1.0, 1.0))


class TestJointSweeps:
    def test_singleton_grid_feasible_point(self, layout):
        ranges = ParameterRanges(
            tt1=(165.0, 165.0), tt2=(185.0, 185.0), tt3=(225.0, 225.0),
            tt4=(265.0, 265.0), belt_speed=(83.0, 83.0),
        )
        result = minimize_area(layout, ranges, 0.8, 0.021)
        assert result.candidates_evaluated == 1
        assert result.best is not None
        assert result.best.key() == (165.0, 185.0, 225.0, 265.0, 83.0)

    def test_minimize_area_matches_brute_force(self, layout):
        result = minimize_area(layout, SMALL_RANGES, 0.8, 0.021)
        oracle = brute_force_joint_sweep(layout, SMALL_RANGES, 0.8, 0.021, "area")
        assert oracle is not None
        best_tuple, best_area, _ = oracle
        assert result.best.key() == best_tuple
        assert result.best.area == pytest.approx(best_area, abs=1e-9)

    def test_most_symmetric_matches_brute_force(self, layout):
        result = most_symmetric(layout, SMALL_RANGES, 0.8, 0.021)
        oracle = brute_force_joint_sweep(layout, SMALL_RANGES, 0.8, 0.021, "symmetry")
        assert oracle is not None
        best_tuple, best_area, best_sym = oracle
        assert result.best.key() == best_tuple
        assert result.best.symmetry == pytest.approx(best_sym, abs=1e-9)
        assert result.best.area == pytest.approx(best_area, abs=1e-9)

    def test_shuffled_evaluation_order_is_irrelevant(self, layout):
        ordered = brute_force_joint_sweep(layout, SMALL_RANGES, 0.8, 0.021, "area")
        shuffled = brute_force_joint_sweep(
            layout, SMALL_RANGES, 0.8, 0.021, "area", shuffle_seed=99
        )
        assert ordered == shuffled
        result = minimize_area(layout, SMALL_RANGES, 0.8, 0.021)
        assert result.best.key() == ordered[0]

    def test_parallel_equals_serial(self, layout):
        serial = minimize_area(layout, SMALL_RANGES, 0.8, 0.021, workers=1)
        parallel = minimize_area(layout, SMALL_RANGES, 0.8, 0.021, workers=2)
        assert serial.best.key() == parallel.best.key()
        assert serial.best.area == parallel.best.area
        assert [c.key() for c in serial.candidates] == [c.key() for c in parallel.candidates]
        assert [c.area for c in serial.candidates] == [c.area for c in parallel.candidates]

    @pytest.mark.parametrize("workers", [0, -1])
    @pytest.mark.parametrize("sweep", [minimize_area, most_symmetric])
    def test_workers_below_one_are_refused(self, layout, sweep, workers):
        with pytest.raises(ValueError, match=f"workers must be at least 1, got {workers}"):
            sweep(layout, SMALL_RANGES, 0.8, 0.021, workers=workers)

    def test_infeasible_grid_returns_none(self, layout):
        ranges = ParameterRanges(
            tt1=(175.0, 175.0), tt2=(195.0, 195.0), tt3=(235.0, 235.0),
            tt4=(255.0, 255.0), belt_speed=(70.0, 70.0),
        )
        result = minimize_area(layout, ranges, 0.8, 0.021)
        assert result.best is None
        assert result.candidates_evaluated == 1

    @pytest.mark.parametrize("sweep", [minimize_area, most_symmetric])
    def test_candidates_take_the_exterior_temperature_of_the_ranges(self, layout, sweep):
        ranges = ParameterRanges(
            tt1=(175.0, 175.0), tt2=(195.0, 195.0), tt3=(235.0, 235.0),
            tt4=(255.0, 255.0), tt5=(30.0, 30.0), belt_speed=(70.0, 70.0),
        )
        (cand,) = sweep(layout, ranges, 0.8, 0.021).candidates
        params = ProcessParameters(175.0, 195.0, 235.0, 255.0, 30.0, 70.0)
        assert cand.params == params and type(cand.params.tt5) is float
        trace = simulate(build_profile(layout, params, 0.8), params, WeldingModel(0.021))
        assert trace.temps[0] == 30.0
        metrics = compute_metrics(trace)
        assert cand.metrics == metrics
        assert cand.area == reflow_area(trace)
        assert cand.feasible == check_limits(metrics).passed

    def test_best_candidate_passes_limits(self, layout):
        result = minimize_area(layout, SMALL_RANGES, 0.8, 0.021)
        assert result.best.feasible
        from reflowsim import check_limits
        assert check_limits(result.best.metrics).passed

    def test_refinement_improves_or_keeps_best(self, layout):
        ranges = ParameterRanges(
            tt1=(165.0, 165.0), tt2=(185.0, 185.0), tt3=(225.0, 225.0),
            tt4=(260.0, 265.0), belt_speed=(80.0, 85.0),
            temp_step=5.0, speed_step=5.0,
        )
        coarse = minimize_area(layout, ranges, 0.8, 0.021)
        refined = minimize_area(layout, ranges, 0.8, 0.021, refine_rounds=1)
        assert refined.candidates_evaluated > coarse.candidates_evaluated
        assert refined.best.area <= coarse.best.area
        keys = [c.key() for c in refined.candidates]
        assert len(keys) == len(set(keys))

    def test_evaluated_count_matches_grid(self, layout):
        result = minimize_area(layout, SMALL_RANGES, 0.8, 0.021)
        assert result.candidates_evaluated == 1 * 3 * 3 * 3 * 5
        assert len(result.candidates) == result.candidates_evaluated
