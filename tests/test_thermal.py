import math

import numpy as np
import pytest

from reflowsim import (
    AmbientProfile,
    ConstantSegment,
    ParameterRanges,
    ProcessParameters,
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    ambient_at,
    euler_reference,
    feasible_speed_interval,
    minimize_area,
    resample,
    simulate,
)
from reflowsim.thermal import (
    _MAX_E,
    _MAX_STEPS,
    _rk4_coefficients,
    check_step,
    step_counts,
)
from helpers import naive_rk4, stage_positions


def constant_profile(level, length=435.5):
    return AmbientProfile((ConstantSegment(0.0, length, level),))


class TestSimulateAgainstClosedForm:
    """Constant ambient: dy/dt = q (C - y) has y(t) = C + (y0 - C) e^{-q t}."""

    def test_equilibrium_fixed_point(self):
        profile = constant_profile(175.0)
        params = ProcessParameters(tt5=175.0)
        trace = simulate(profile, params, WeldingModel(0.05))
        np.testing.assert_allclose(trace.temps, 175.0, atol=1e-9)

    def test_matches_exponential_relaxation(self):
        profile = constant_profile(175.0)
        params = ProcessParameters()  # y0 = 25, v = 70
        trace = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.1))
        closed = 175.0 - 150.0 * np.exp(-0.021 * trace.times)
        assert np.max(np.abs(trace.temps - closed)) <= 1e-6
        at_60 = trace.temps[np.searchsorted(trace.times, 60.0)]
        assert at_60 == pytest.approx(132.45189602503444, abs=1e-6)

    def test_fourth_order_convergence(self):
        # q = 0.2 keeps the truncation error well above double-precision
        # roundoff so the dt -> dt/2 ratio is measurable.
        profile = constant_profile(175.0)
        params = ProcessParameters()
        errors = []
        for dt in (0.1, 0.05):
            trace = simulate(profile, params, WeldingModel(0.2), SimulationGrid(dt, dt))
            mask = trace.times <= 300.0
            closed = 175.0 - 150.0 * np.exp(-0.2 * trace.times[mask])
            errors.append(np.max(np.abs(trace.temps[mask] - closed)))
        ratio = errors[0] / errors[1]
        assert 12.0 <= ratio <= 20.0

    def test_never_crosses_ambient(self):
        profile = constant_profile(175.0)
        params = ProcessParameters()
        trace = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.5))
        assert np.all(trace.temps < 175.0)
        assert np.all(np.diff(trace.temps) > 0)


class TestSimulateDefaultScenario:
    def test_initial_condition(self, default_trace):
        assert default_trace.temps[0] == 25.0
        assert default_trace.times[0] == 0.0

    def test_peak_inside_reflow_region(self, default_trace):
        peak_x = default_trace.positions[np.argmax(default_trace.temps)]
        assert 273.5 <= peak_x <= 410.5

    def test_matches_naive_stagewise_rk4(self, profile, params):
        # The production path collapses RK4 to an affine recursion; the
        # textbook four-stage loop must agree to rounding noise.
        fast = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.5))
        slow = naive_rk4(profile, params, 0.021, 0.1, 0.5)
        assert len(fast) == len(slow)
        assert np.max(np.abs(fast.temps - slow.temps)) <= 1e-9

    def test_deterministic(self, profile, params):
        a = simulate(profile, params, WeldingModel(0.021))
        b = simulate(profile, params, WeldingModel(0.021))
        assert np.array_equal(a.temps, b.temps)
        assert np.array_equal(a.times, b.times)

    def test_trace_consistency_invariants(self, default_trace):
        n = len(default_trace)
        assert np.max(np.abs(default_trace.times - np.arange(n) * 0.5)) <= 1e-9
        expected_x = (70.0 / 60.0) * default_trace.times
        assert np.max(np.abs(default_trace.positions - expected_x)) <= 1e-9

    def test_exact_transit_time_reaches_exit(self, profile):
        # 65 cm/min gives a 402 s transit, a multiple of dt_out, so the last
        # sample lands exactly on the furnace end.
        params = ProcessParameters(belt_speed=65.0)
        trace = simulate(profile, params, WeldingModel(0.021))
        assert trace.times[-1] == pytest.approx(402.0, abs=1e-9)
        assert trace.positions[-1] == pytest.approx(435.5, abs=1e-9)

    def test_rejects_nonpositive_speed(self, profile):
        params = ProcessParameters(belt_speed=0.0)
        with pytest.raises(ValueError, match="belt_speed"):
            simulate(profile, params, WeldingModel(0.021))


class TestEulerReference:
    def test_equilibrium(self):
        profile = constant_profile(100.0)
        params = ProcessParameters(tt5=100.0)
        trace = euler_reference(profile, params, WeldingModel(0.05), 0.1)
        np.testing.assert_allclose(trace.temps, 100.0, atol=1e-12)

    def test_close_to_rk4_on_default_scenario(self, default_trace, euler_fine):
        # Bound measured at 0.039 degC and frozen with margin.
        on_rk4_grid = np.interp(default_trace.times, euler_fine.times, euler_fine.temps)
        assert np.max(np.abs(default_trace.temps - on_rk4_grid)) <= 0.1

    def test_first_order_convergence(self):
        profile = constant_profile(175.0)
        params = ProcessParameters()
        errors = []
        for dt in (0.1, 0.05):
            trace = euler_reference(profile, params, WeldingModel(0.2), dt)
            closed = 175.0 - 150.0 * np.exp(-0.2 * trace.times)
            errors.append(np.max(np.abs(trace.temps - closed)))
        assert 1.8 <= errors[0] / errors[1] <= 2.2


class TestResample:
    def test_identity_grid(self, default_trace):
        again = resample(default_trace, default_trace.dt)
        assert np.array_equal(again.temps, default_trace.temps)
        assert np.array_equal(again.times, default_trace.times)

    def test_linear_ramp_reproduced(self):
        ramp = ThermalTrace.from_temps(0.5, 70.0, 25.0 + 1.5 * np.arange(100) * 0.5)
        for dt_out in (0.25, 0.5, 1.0, 2.0):
            re = resample(ramp, dt_out)
            expected = 25.0 + 1.5 * re.times
            np.testing.assert_allclose(re.temps, expected, atol=1e-9)

    def test_node_coincidence(self, profile, params):
        fine = simulate(profile, params, WeldingModel(0.021), SimulationGrid(0.1, 0.1))
        coarse = resample(fine, 0.5)
        assert np.array_equal(coarse.temps, fine.temps[::5])

    def test_rejects_bad_interval(self, default_trace):
        with pytest.raises(ValueError, match="positive"):
            resample(default_trace, 0.0)


class TestThermalTraceInvariants:
    def test_from_temps_consistency(self):
        trace = ThermalTrace.from_temps(0.5, 70.0, [25.0, 26.0, 27.0])
        np.testing.assert_allclose(trace.times, [0.0, 0.5, 1.0])
        np.testing.assert_allclose(trace.positions, (70.0 / 60.0) * trace.times)

    def test_rejects_nonuniform_times(self):
        with pytest.raises(ValueError, match="uniform"):
            ThermalTrace(0.5, 70.0, np.array([0.0, 0.5, 1.1]),
                         (70.0 / 60.0) * np.array([0.0, 0.5, 1.1]),
                         np.array([25.0, 26.0, 27.0]))

    def test_rejects_inconsistent_positions(self):
        with pytest.raises(ValueError, match="positions"):
            ThermalTrace(0.5, 70.0, np.array([0.0, 0.5]),
                         np.array([0.0, 1.0]), np.array([25.0, 26.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ThermalTrace.from_temps(0.5, 70.0, [])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["dt", "belt_speed"])
    def test_rejects_non_finite_timing(self, name, value):
        timing = {"dt": 0.5, "belt_speed": 70.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value}"):
            ThermalTrace.from_temps(timing["dt"], timing["belt_speed"], [25.0, 26.0])

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_temps(self, value):
        with pytest.raises(ValueError, match=f"temps must be finite: sample 1 is {value}"):
            ThermalTrace.from_temps(0.5, 70.0, [25.0, value, 230.0, 240.0, 200.0])

    @pytest.mark.parametrize("name", ["times", "positions"])
    def test_rejects_nan_times_and_positions(self, name):
        arrays = {"times": np.array([0.0, 0.5]), "positions": np.array([0.0, 70.0 / 120.0])}
        arrays[name][1] = float("nan")
        with pytest.raises(ValueError, match=name[:-1]):
            ThermalTrace(0.5, 70.0, arrays["times"], arrays["positions"], np.array([25.0, 26.0]))

    def test_arrays_read_only(self, default_trace):
        with pytest.raises(ValueError):
            default_trace.temps[0] = 0.0


class TestGridAndModelValidation:
    def test_grid_requires_integer_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            SimulationGrid(dt=0.3, dt_out=0.5)

    def test_grid_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SimulationGrid(dt=0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["dt", "dt_out"])
    def test_grid_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be positive and finite, got {value}"):
            SimulationGrid(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_model_rejects_non_finite_coefficient(self, value):
        with pytest.raises(ValueError, match=f"got {value}"):
            WeldingModel(value)

    def test_grid_stride(self):
        assert SimulationGrid(0.1, 0.5).stride == 5
        assert SimulationGrid(0.25, 0.25).stride == 1

    def test_model_requires_positive_coefficient(self):
        with pytest.raises(ValueError, match="positive"):
            WeldingModel(0.0)
        with pytest.raises(ValueError, match="positive"):
            WeldingModel(-0.01)


class TestIntegrationBoundary:
    """The RK4 stability bound and the step cap, checked by validation
    alone: no test here allocates an oversized trace."""

    def test_unstable_step_is_rejected(self, profile, params):
        # e = 30 * 0.1 = 3 puts |A| above 1: the recursion would run to inf
        with pytest.raises(ValueError, match=r"coefficient 30 \* dt 0.1 = e 3\b"):
            simulate(profile, params, WeldingModel(30))

    def test_stable_step_just_below_the_bound(self, profile, params):
        # e = 2.78 keeps |A| below 1 but overshoots the ambient range by
        # 1.28 degC: Ba < 0 from e = 1.29559774 on
        with pytest.raises(ValueError, match=r"coefficient 27.8 \* dt 0.1 = e 2.78\b"):
            simulate(profile, params, WeldingModel(27.8))
        assert 12.955977 * 0.1 < _MAX_E  # e = 1.2955977
        trace = simulate(profile, params, WeldingModel(12.955977))
        field = ambient_at(profile, np.linspace(0.0, profile.total_length_cm, 20001))
        assert field.min() - 1e-9 <= trace.temps.min()
        assert trace.temps.max() <= field.max() + 1e-9

    def test_bound_is_where_ba_turns_negative(self):
        below = math.nextafter(_MAX_E, 0.0)
        assert min(_rk4_coefficients(below)) >= 0.0
        assert _rk4_coefficients(math.nextafter(_MAX_E, 2.0))[1] < 0.0
        check_step(below, 1.0)
        with pytest.raises(ValueError, match=r"coefficient 1.2955977425220848 \* dt 1.0"):
            check_step(_MAX_E, 1.0)

    def test_joint_sweep_rejects_an_overshooting_step(self, layout):
        ranges = ParameterRanges(tt1=(165.0, 165.0), tt2=(185.0, 185.0), tt3=(225.0, 225.0),
                                 tt4=(265.0, 265.0), belt_speed=(70.0, 70.0))
        with pytest.raises(ValueError, match="RK4 step is unstable: coefficient 13.0"):
            minimize_area(layout, ranges, 0.8, 13.0)

    def test_speed_sweep_rejects_an_unstable_step(self, layout, params):
        with pytest.raises(ValueError, match="RK4 step is unstable"):
            feasible_speed_interval(layout, params, 0.8, 30.0, speed_step=5.0)

    def test_step_count_is_capped(self):
        # 402 s in steps of 1e-7 s: 4e9 steps, 30 GiB per array
        with pytest.raises(ValueError, match=r"dt = 1e-07 s needs 40\d{8} integration steps"):
            step_counts(435.5, 65.0, 1e-7)

    def test_stage_positions_refuses_past_the_cap(self):
        # just past the cap, so a missing check would allocate megabytes, not gigabytes
        with pytest.raises(ValueError, match=f"the limit is {_MAX_STEPS}"):
            stage_positions(435.5, [100.0, 65.0], 402.0 / (_MAX_STEPS + 10))

    def test_euler_reference_refuses_past_the_cap(self, profile, params):
        # 70 cm/min crosses in 373.3 s: 2,785,714 Euler steps of 0.134 ms
        with pytest.raises(ValueError, match=r"dt = 0.000134 s needs 2785714 integration steps"):
            euler_reference(profile, params, WeldingModel(0.021), 402.0 / 3e6)

    def test_resample_refuses_past_the_cap(self, default_trace):
        dt_out = default_trace.duration / (_MAX_STEPS + 10)
        with pytest.raises(ValueError, match=f"dt_out = {dt_out} s needs {_MAX_STEPS + 10} "
                                             f"intervals to span the trace; the limit is"):
            resample(default_trace, dt_out)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.1])
    def test_euler_and_resample_name_a_bad_step(self, profile, params, default_trace, value):
        with pytest.raises(ValueError, match=f"dt must be positive and finite, got {value}"):
            euler_reference(profile, params, WeldingModel(0.021), value)
        with pytest.raises(ValueError, match=f"dt_out must be positive and finite, got {value}"):
            resample(default_trace, value)

    def test_stage_positions_pad_rows_with_the_furnace_end(self):
        x_nodes, x_mid, n_steps = stage_positions(435.5, [100.0, 65.0], 0.1)
        assert n_steps.tolist() == [2613, 4020]
        assert x_nodes.shape == (2, 4021) and x_mid.shape == (2, 4020)
        assert np.all(x_nodes[0, 2613:] == 435.5) and x_nodes[0, 2612] < 435.5
        single, _, _ = stage_positions(435.5, 100.0, 0.1)
        assert np.array_equal(single[0], x_nodes[0, :2614])

