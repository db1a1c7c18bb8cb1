import numpy as np
import pytest
from hypothesis import given, strategies as st

from reflowsim import (
    LimitCheck,
    ProcessLimits,
    ProcessParameters,
    SimulationGrid,
    ThermalTrace,
    TraceMetrics,
    WeldingModel,
    check_limits,
    compute_metrics,
    simulate,
)
from helpers import brute_force_above_duration, piecewise_trace, resample


def metrics_all_pass(**overrides):
    base = dict(
        max_slope=2.9,
        min_slope=-2.9,
        rise_time_150_190=80.0,
        duration_above_217=60.0,
        peak_temp=245.0,
        peak_time=100.0,
    )
    base.update(overrides)
    return TraceMetrics(**base)


class TestComputeMetrics:
    def test_linear_ramp_then_plateau(self):
        # 1 degC/s from 25 to 250 (225 s) then constant for 75 s.
        trace = piecewise_trace(0.5, 70.0, [(0.0, 25.0), (225.0, 250.0), (300.0, 250.0)])
        m = compute_metrics(trace)
        assert m.max_slope == pytest.approx(1.0, abs=1e-12)
        assert m.min_slope == pytest.approx(0.0, abs=1e-12)
        assert m.rise_time_150_190 == pytest.approx(40.0, abs=1e-9)
        assert m.peak_temp == 250.0
        assert m.peak_time == 225.0  # earliest sample on the plateau

    def test_never_above_melt(self):
        trace = piecewise_trace(0.5, 70.0, [(0.0, 25.0), (100.0, 200.0), (200.0, 25.0)])
        m = compute_metrics(trace)
        assert m.duration_above_217 == 0.0
        verdict = check_limits(m)
        assert not verdict.checks[3].passed

    def test_triangle_duration_above_melt(self):
        # 25 -> 245 -> 25 at +/- 1 degC/s: above 217 for 2 * 28 = 56 s.
        trace = piecewise_trace(0.5, 70.0, [(0.0, 25.0), (220.0, 245.0), (440.0, 25.0)])
        m = compute_metrics(trace)
        assert m.duration_above_217 == pytest.approx(56.0, rel=1e-9)
        brute = brute_force_above_duration(trace, step=0.001)
        assert m.duration_above_217 == pytest.approx(brute, rel=1e-4)

    def test_disjoint_melt_passes_are_summed(self):
        # M-shaped pass: two 10 s excursions to 227 separated by a dip to 207.
        trace = piecewise_trace(
            0.5, 70.0,
            [(0.0, 25.0), (96.0, 217.0), (101.0, 227.0), (106.0, 217.0),
             (111.0, 207.0), (116.0, 217.0), (121.0, 227.0), (126.0, 217.0),
             (222.5, 25.0)],
        )
        m = compute_metrics(trace)
        assert m.duration_above_217 == pytest.approx(20.0, rel=1e-9)
        brute = brute_force_above_duration(trace, step=0.0005)
        assert m.duration_above_217 == pytest.approx(brute, abs=5e-3)

    def test_rise_time_ignores_cooling_reentry(self):
        # Rising pass crosses 150/190 once; the cooling side re-crosses both
        # and must not contribute.
        trace = piecewise_trace(
            0.5, 70.0, [(0.0, 25.0), (230.0, 255.0), (460.0, 25.0)]
        )
        m = compute_metrics(trace)
        assert m.rise_time_150_190 == pytest.approx(40.0, abs=1e-9)

    def test_rise_time_absent_when_band_not_reached(self):
        trace = piecewise_trace(0.5, 70.0, [(0.0, 25.0), (100.0, 140.0), (200.0, 25.0)])
        m = compute_metrics(trace)
        assert m.rise_time_150_190 is None

    def test_time_dilation_scales_metrics(self):
        vertices = [(0.0, 25.0), (220.0, 245.0), (440.0, 25.0)]
        base = piecewise_trace(0.5, 70.0, vertices)
        dilated = ThermalTrace(1.0, 70.0, base.temps)
        mb = compute_metrics(base)
        md = compute_metrics(dilated)
        assert md.max_slope == pytest.approx(mb.max_slope / 2.0, rel=1e-12)
        assert md.min_slope == pytest.approx(mb.min_slope / 2.0, rel=1e-12)
        assert md.duration_above_217 == pytest.approx(2.0 * mb.duration_above_217, rel=1e-12)

    def test_peak_time_earliest_on_ties(self):
        temps = np.array([25.0, 100.0, 100.0, 50.0])
        trace = ThermalTrace(0.5, 70.0, temps)
        m = compute_metrics(trace)
        assert m.peak_time == 0.5

    def test_requires_two_samples(self):
        trace = ThermalTrace(0.5, 70.0, [25.0])
        with pytest.raises(ValueError, match="2 samples"):
            compute_metrics(trace)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=400.0), min_size=2, max_size=60)
    )
    def test_duration_bounded_by_trace_length(self, values):
        trace = ThermalTrace(0.5, 70.0, np.array(values))
        m = compute_metrics(trace)
        assert 0.0 <= m.duration_above_217 <= trace.duration + 1e-9

    def test_crossing_consistency_under_refinement(self, profile, params):
        coarse = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.5))
        fine = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.1))
        mc = compute_metrics(coarse)
        mf = compute_metrics(fine)
        assert abs(mc.rise_time_150_190 - mf.rise_time_150_190) < 0.5
        assert abs(mc.duration_above_217 - mf.duration_above_217) < 0.5


class TestCheckLimits:
    def test_interior_point_passes_all(self):
        verdict = check_limits(metrics_all_pass())
        assert verdict.passed
        assert [c.passed for c in verdict.checks] == [True] * 5

    def test_fixed_row_order(self):
        verdict = check_limits(metrics_all_pass())
        assert [c.name for c in verdict.checks] == [
            "max_slope", "min_slope", "rise_time_150_190", "time_above_217", "peak_temp",
        ]

    @pytest.mark.parametrize(
        "override, failing",
        [
            ({"max_slope": 3.4}, "max_slope"),
            ({"min_slope": -3.4}, "min_slope"),
            ({"rise_time_150_190": 130.0}, "rise_time_150_190"),
            ({"rise_time_150_190": 50.0}, "rise_time_150_190"),
            ({"duration_above_217": 95.0}, "time_above_217"),
            ({"duration_above_217": 30.0}, "time_above_217"),
            ({"peak_temp": 238.0}, "peak_temp"),
            ({"peak_temp": 252.0}, "peak_temp"),
        ],
    )
    def test_single_violations(self, override, failing):
        verdict = check_limits(metrics_all_pass(**override))
        assert not verdict.passed
        failures = [c.name for c in verdict.checks if not c.passed]
        assert failures == [failing]

    def test_absent_rise_time_fails_its_limit_only(self):
        verdict = check_limits(metrics_all_pass(rise_time_150_190=None))
        failures = [c.name for c in verdict.checks if not c.passed]
        assert failures == ["rise_time_150_190"]

    def test_bounds_inclusive(self):
        m = metrics_all_pass(
            max_slope=3.0, min_slope=-3.0, rise_time_150_190=120.0,
            duration_above_217=90.0, peak_temp=250.0,
        )
        assert check_limits(m).passed
        m = metrics_all_pass(
            max_slope=3.0, min_slope=-3.0, rise_time_150_190=60.0,
            duration_above_217=40.0, peak_temp=240.0,
        )
        assert check_limits(m).passed

    def test_relaxing_bounds_is_monotone(self):
        m = metrics_all_pass(max_slope=2.99, duration_above_217=89.0)
        tight = check_limits(m, ProcessLimits())
        relaxed = check_limits(
            m,
            ProcessLimits(
                slope_max=5.0, slope_min=-5.0, rise_150_190=(30.0, 200.0),
                time_above_217=(10.0, 200.0), peak=(200.0, 300.0),
            ),
        )
        for before, after in zip(tight.checks, relaxed.checks):
            assert after.passed or not before.passed

    def test_checks_report_custom_bounds(self):
        limits = ProcessLimits(slope_max=2.5, slope_min=-2.0, rise_150_190=(70.0, 75.0),
                               time_above_217=(30.0, 100.0), peak=(235.0, 255.0))
        m = metrics_all_pass(max_slope=2.6, min_slope=-1.5, rise_time_150_190=72.0,
                             duration_above_217=101.0, peak_temp=235.0)
        assert check_limits(m, limits).checks == (
            LimitCheck("max_slope", 2.6, None, 2.5, False),
            LimitCheck("min_slope", -1.5, -2.0, None, True),
            LimitCheck("rise_time_150_190", 72.0, 70.0, 75.0, True),
            LimitCheck("time_above_217", 101.0, 30.0, 100.0, False),
            LimitCheck("peak_temp", 235.0, 235.0, 255.0, True),
        )
        rise = check_limits(metrics_all_pass(rise_time_150_190=None), limits).checks[2]
        assert rise == LimitCheck("rise_time_150_190", None, 70.0, 75.0, False)
        assert all(type(c.passed) is bool for c in check_limits(m, limits).checks)

    def test_limits_validation(self):
        with pytest.raises(ValueError, match="interval"):
            ProcessLimits(peak=(250.0, 240.0))

    def test_metrics_validation(self):
        with pytest.raises(ValueError, match="min_slope"):
            metrics_all_pass(min_slope=5.0)
        with pytest.raises(ValueError, match="non-negative"):
            metrics_all_pass(duration_above_217=-1.0)


class TestLimitBounds:
    @pytest.mark.parametrize("overrides, message", [
        (dict(slope_max=float("nan")), "slope_max must not be NaN, got nan"),
        (dict(slope_min=float("nan")), "slope_min must not be NaN, got nan"),
        (dict(peak=(float("nan"), 250.0)), "peak bounds must not be NaN, got (nan, 250.0)"),
        (dict(rise_150_190=(60.0, float("nan"))),
         "rise_150_190 bounds must not be NaN, got (60.0, nan)"),
        (dict(time_above_217=(float("nan"),) * 2),
         "time_above_217 bounds must not be NaN, got (nan, nan)"),
        (dict(slope_min=4.0), "slope_min 4.0 is above slope_max 3.0"),
        (dict(slope_max=-3.5), "slope_min -3.0 is above slope_max -3.5"),
    ])
    def test_refused_naming_the_field_and_value(self, overrides, message):
        with pytest.raises(ValueError) as exc:
            ProcessLimits(**overrides)
        assert str(exc.value) == message

    def test_equal_and_infinite_bounds_are_accepted(self):
        ProcessLimits(slope_max=1.0, slope_min=1.0, peak=(245.0, 245.0))
        ProcessLimits(slope_max=float("inf"), slope_min=-float("inf"),
                      time_above_217=(0.0, float("inf")))


@given(
    speed=st.integers(650, 1000).map(lambda tenths: tenths / 10.0),
    dt_out=st.sampled_from([0.5, 1.0]),
    k=st.integers(2, 5),
)
def test_metrics_invariant_under_refined_resampling(profile, speed, dt_out, k):
    """Resampling at dt / k keeps the piecewise-linear interpolant and its
    vertices, so the five metrics stay within 1e-9."""
    params = ProcessParameters(belt_speed=speed)
    trace = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, dt_out))
    before = compute_metrics(trace)
    after = compute_metrics(resample(trace, trace.dt / k))
    assert before.rise_time_150_190 is not None
    for name in ("max_slope", "min_slope", "rise_time_150_190", "duration_above_217",
                 "peak_temp"):
        assert getattr(after, name) == pytest.approx(getattr(before, name), abs=1e-9, rel=0)
