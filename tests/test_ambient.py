import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reflowsim.ambient
import reflowsim.calibrate
import reflowsim.thermal as thermal
from reflowsim import (
    AmbientProfile,
    ConstantSegment,
    ExpLinearBlendSegment,
    ProcessParameters,
    SigmoidSegment,
    SimulationGrid,
    ThermalTrace,
    WeldingModel,
    ambient_at,
    build_profile,
    fit_blend_weight,
    simulate,
)
from reflowsim.ambient import FieldRows
from reflowsim.oven import OvenLayout, ZoneSpec, default_layout

from helpers import ambient_reference


def blend_scalar(x, t_hot=255.0, t_cold=25.0, x_start=339.5, x_end=410.5, w=0.8):
    """Independent scalar evaluation of the cooling blend (line through the
    anchors plus exponential through the anchors)."""
    lin = t_hot + (t_cold - t_hot) * (x - x_start) / (x_end - x_start)
    b = (math.log(t_hot) - math.log(t_cold)) / (x_start - x_end)
    expo = t_hot * math.exp(b * x) / math.exp(b * x_start)
    return w * lin + (1.0 - w) * expo


class TestDefaultProfileStructure:
    def test_segment_layout(self, profile):
        spans = [(type(s).__name__, s.x_start, s.x_end) for s in profile.segments]
        assert spans == [
            ("ConstantSegment", 0.0, 25.0),
            ("ConstantSegment", 25.0, 197.5),
            ("SigmoidSegment", 197.5, 202.5),
            ("ConstantSegment", 202.5, 233.0),
            ("SigmoidSegment", 233.0, 238.0),
            ("ConstantSegment", 238.0, 268.5),
            ("SigmoidSegment", 268.5, 273.5),
            ("ConstantSegment", 273.5, 339.5),
            ("ExpLinearBlendSegment", 339.5, 410.5),
            ("ConstantSegment", 410.5, 435.5),
        ]

    def test_plateau_levels(self, profile):
        levels = [s.level for s in profile.segments if isinstance(s, ConstantSegment)]
        assert levels == [25.0, 175.0, 195.0, 235.0, 255.0, 25.0]

    def test_first_sigmoid_center(self, profile):
        sig = profile.segments[2]
        assert isinstance(sig, SigmoidSegment) and sig.center == 200.0
        assert (sig.t_before, sig.t_after) == (175.0, 195.0)

    def test_blend_parameters(self, layout, params):
        profile = build_profile(layout, params, 0.8)
        blend = profile.segments[8]
        assert isinstance(blend, ExpLinearBlendSegment)
        assert (blend.t_hot, blend.t_cold) == (255.0, 25.0)
        assert (blend.x_start, blend.x_end) == (339.5, 410.5)
        assert blend.weight == 0.8


class TestAmbientValues:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (10.0, 25.0),        # entry plateau
            (40.0, 175.0),       # zones 1-5 plateau
            (210.0, 195.0),      # zone 6 plateau
            (250.0, 235.0),      # zone 7 plateau
            (300.0, 255.0),      # zones 8-9 plateau
            (420.0, 25.0),       # exit plateau
            (200.0, 185.0),      # sigmoid midpoint = plateau average
            (235.5, 215.0),
            (271.0, 245.0),
            (339.5, 255.0),      # blend start anchors the hot plateau
            (410.5, 25.0),       # blend end hits the exterior temperature
        ],
    )
    def test_probe_points(self, profile, x, expected):
        assert ambient_at(profile, x) == pytest.approx(expected, abs=1e-9)

    def test_blend_interior_matches_independent_scalar(self, profile):
        assert ambient_at(profile, 375.0) == pytest.approx(blend_scalar(375.0), abs=1e-9)

    def test_plateau_exactness(self, profile):
        for x, level in [(5.0, 25.0), (30.0, 175.0), (196.0, 175.0), (205.0, 195.0),
                         (232.0, 195.0), (240.0, 235.0), (275.0, 255.0), (339.0, 255.0),
                         (411.0, 25.0), (435.0, 25.0)]:
            assert ambient_at(profile, x) == level

    def test_sigmoid_symmetry(self, profile):
        for center, before, after in [(200.0, 175.0, 195.0), (235.5, 195.0, 235.0),
                                      (271.0, 235.0, 255.0)]:
            for d in (0.1, 0.7, 1.3, 2.0, 2.49):
                left = ambient_at(profile, center - d)
                right = ambient_at(profile, center + d)
                assert left + right == pytest.approx(before + after, abs=1e-9)

    def test_blend_segment_interpolates_both_endpoints(self, profile):
        blend = profile.segments[8]
        assert float(blend.evaluate(339.5)) == pytest.approx(255.0, abs=1e-9)
        assert float(blend.evaluate(410.5)) == pytest.approx(25.0, abs=1e-9)

    def test_blend_strictly_decreasing(self, profile):
        xs = np.arange(339.5, 410.5, 0.1)
        vals = ambient_at(profile, xs)
        assert np.all(np.diff(vals) < 0)

    def test_gap_end_discontinuities(self, profile):
        # The unit-steepness sigmoid leaves jumps of |dT| / (1 + e^2.5) at
        # both ends of a 5 cm gap: the sigmoid evaluated exactly at the gap
        # endpoints differs from the adjacent plateaus by that amount.
        jump_factor = 1.0 / (1.0 + math.exp(2.5))
        for idx, before, after in [(2, 175.0, 195.0), (4, 195.0, 235.0),
                                   (6, 235.0, 255.0)]:
            sig = profile.segments[idx]
            delta = after - before
            left_jump = float(sig.evaluate(sig.x_start)) - before
            assert left_jump == pytest.approx(delta * jump_factor, abs=1e-9)
            right_jump = after - float(sig.evaluate(sig.x_end))
            assert right_jump == pytest.approx(delta * jump_factor, abs=1e-9)

    def test_boundary_joins_take_right_segment(self, profile):
        assert ambient_at(profile, 25.0) == 175.0
        assert ambient_at(profile, 202.5) == 195.0
        # furnace end belongs to the last segment
        assert ambient_at(profile, 435.5) == 25.0

    def test_outside_furnace_is_domain_error(self, profile):
        with pytest.raises(ValueError, match="outside"):
            ambient_at(profile, -0.1)
        with pytest.raises(ValueError, match="outside"):
            ambient_at(profile, 435.6)

    def test_array_evaluation_matches_scalars(self, profile):
        xs = np.array([10.0, 200.0, 375.0, 435.5])
        vals = ambient_at(profile, xs)
        assert vals.shape == xs.shape
        for x, v in zip(xs, vals):
            assert v == ambient_at(profile, float(x))


class TestBuildProfileValidation:
    def test_weight_out_of_range(self, layout, params):
        with pytest.raises(ValueError, match="weight"):
            build_profile(layout, params, 1.2)
        with pytest.raises(ValueError, match="weight"):
            build_profile(layout, params, -0.1)

    def test_nonpositive_cooling_endpoint_rejected(self, layout):
        params = ProcessParameters(tt5=-5.0)
        with pytest.raises(ValueError, match="positive"):
            build_profile(layout, params, 0.8)

    def test_missing_gap_between_different_setpoints(self):
        zones = (
            ZoneSpec("z1", "heated", 0.0, 10.0, "TT1"),
            ZoneSpec("z2", "heated", 10.0, 20.0, "TT2"),
            ZoneSpec("z3", "heated", 20.0, 30.0, "TT5"),
        )
        layout = OvenLayout(zones, 30.0)
        with pytest.raises(ValueError, match="gap"):
            build_profile(layout, ProcessParameters(), 0.8)

    @pytest.mark.parametrize("furnace, params", [
        (OvenLayout((ZoneSpec("entry", "entry", 0.0, 5.0),
                     ZoneSpec("z1", "heated", 5.0, 15.0, "TT5"),
                     ZoneSpec("exit", "exit", 15.0, 20.0)), 20.0), ProcessParameters()),
        # integer setpoints make integer plateau levels
        (default_layout(), ProcessParameters(25, 25, 25, 25, 25)),
    ], ids=["one-cold-zone", "integer-setpoints"])
    def test_all_zones_cold_gives_flat_profile(self, furnace, params):
        profile = build_profile(furnace, params, 0.8)
        xs = np.linspace(0.0, furnace.total_length_cm, 21)
        values = ambient_at(profile, xs)
        assert values.dtype == np.float64
        np.testing.assert_array_equal(values, np.full(21, 25.0))
        assert type(ambient_at(profile, 12.5)) is float


class TestProfileValidation:
    def test_rejects_non_contiguous_segments(self):
        segs = (ConstantSegment(0.0, 10.0, 25.0), ConstantSegment(11.0, 20.0, 30.0))
        with pytest.raises(ValueError, match="contiguous"):
            AmbientProfile(segs)

    def test_rejects_offset_start(self):
        with pytest.raises(ValueError, match="x = 0"):
            AmbientProfile((ConstantSegment(1.0, 10.0, 25.0),))

    def test_sigmoid_center_is_the_midpoint_of_its_ends(self):
        sig = SigmoidSegment(10.0, 15.0, 25.0, 35.0)
        assert sig.center == 12.5
        assert sig.evaluate(12.5) == 30.0
        with pytest.raises(TypeError, match="center"):
            SigmoidSegment(10.0, 15.0, 25.0, 35.0, center=12.5)

    @pytest.mark.parametrize("weight", [0.0, 0.3, 1.0])
    def test_blend_meets_its_ends_at_any_weight(self, weight):
        blend = ExpLinearBlendSegment(339.5, 410.5, 255.0, 25.0, weight)
        np.testing.assert_allclose(blend.evaluate([339.5, 410.5]), [255.0, 25.0], rtol=1e-12)

    def test_blend_needs_x_start_below_x_end(self):
        with pytest.raises(ValueError, match="x_start < x_end"):
            ExpLinearBlendSegment(5.0, 5.0, 255.0, 25.0, 0.8)


class TestFitBlendWeight:
    def test_round_trip_recovers_weight(self, layout, params):
        measured = simulate(
            build_profile(layout, params, 0.8), params, WeldingModel(0.021),
            SimulationGrid(),
        )
        fit = fit_blend_weight(measured, layout, params, 0.021,
                               [0.6, 0.7, 0.8, 0.9, 1.0])
        assert fit.best_weight == 0.8
        exact = {s.weight: s.discrepancy for s in fit.scores}
        assert exact[0.8] == 0.0
        assert all(v > 0 for w, v in exact.items() if w != 0.8)

    def test_singleton_candidate(self, layout, params):
        measured = simulate(
            build_profile(layout, params, 0.8), params, WeldingModel(0.021),
            SimulationGrid(),
        )
        fit = fit_blend_weight(measured, layout, params, 0.021, [1.0])
        assert fit.best_weight == 1.0
        assert len(fit.scores) == 1

    def test_noisy_round_trip(self, layout, params):
        clean = simulate(
            build_profile(layout, params, 0.7), params, WeldingModel(0.021),
            SimulationGrid(),
        )
        candidates = [0.6, 0.7, 0.8, 0.9, 1.0]
        # Verify the inter-candidate separation dominates the noise floor
        # before asserting recovery under noise.
        ref = fit_blend_weight(clean, layout, params, 0.021, candidates)
        clean_scores = sorted(s.discrepancy for s in ref.scores)
        assert clean_scores[1] > 0.5  # second-best candidate is well separated

        rng = np.random.default_rng(7)
        noisy = ThermalTrace(
            clean.dt, clean.belt_speed, clean.temps + rng.normal(0.0, 0.5, len(clean))
        )
        fit = fit_blend_weight(noisy, layout, params, 0.021, candidates)
        assert fit.best_weight == 0.7

    def test_empty_candidates(self, layout, params, default_trace):
        with pytest.raises(ValueError, match="empty"):
            fit_blend_weight(default_trace, layout, params, 0.021, [])

    @pytest.mark.parametrize("weights, bad", [
        ([0.6, 0.7, math.nan], "nan"),
        ([0.8, 1.5], "1.5"),
        ([-0.1, 0.5], "-0.1"),
    ])
    def test_bad_weight_is_refused_before_any_simulation(
        self, layout, params, default_trace, monkeypatch, weights, bad
    ):
        calls = []
        monkeypatch.setattr(thermal, "_Plateaus", lambda *args: calls.append(args))
        with pytest.raises(ValueError,
                           match=re.escape(f"blend weight must lie in [0, 1], got {bad}")):
            fit_blend_weight(default_trace, layout, params, 0.021, weights)
        assert calls == []


class TestModuleBoundary:
    """The blend fit lives in ``calibrate``; ``ambient`` keeps only a lazy
    alias of it, the one place in the module that imports at call time."""

    def test_alias_is_the_calibrate_function(self):
        assert reflowsim.ambient.fit_blend_weight is reflowsim.calibrate.fit_blend_weight

    @pytest.mark.parametrize("name", ["fit_blend_weights", "BlendFit", "WeightScore"])
    def test_other_unknown_attributes_raise(self, name):
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(reflowsim.ambient, name)

    def test_only_the_module_getattr_imports(self):
        tree = ast.parse(Path(reflowsim.ambient.__file__).read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node in tree.body and node.name == "__getattr__":
                continue
            imports = [n.lineno for n in ast.walk(node)
                       if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not imports, f"{node.name} imports at line(s) {imports}"


class TestPositionDomain:
    @pytest.mark.parametrize("x, message", [
        (float("nan"), "x = nan"),
        (-0.1, "x = -0.1"),
        ([1.0, float("nan")], "x[1] = nan"),
        ([[1.0, 2.0], [435.5, 436.0]], "x[1, 1] = 436.0"),
        ([float("inf"), -1.0], "x[0] = inf"),
    ])
    def test_ambient_at_names_the_first_bad_position(self, profile, x, message):
        with pytest.raises(ValueError) as exc:
            ambient_at(profile, x)
        assert str(exc.value) == f"position outside furnace [0, 435.5] cm: {message}"

    def test_field_rows_refuse_nan(self, profile):
        with pytest.raises(ValueError, match=r"outside furnace \[0, 435.5\] cm: x\[1\] = nan"):
            FieldRows(profile, [1.0, float("nan")])

    def test_empty_array_evaluates_to_empty(self, profile):
        assert ambient_at(profile, np.array([])).shape == (0,)


# equal setpoints merge plateaus and leave zones at the exterior
# temperature; integer setpoints make integer levels
setpoint = st.one_of(st.sampled_from([25, 175, 175.0, 255.5]), st.floats(1.0, 300.0))


@st.composite
def profiles_and_positions(draw):
    """(profile, x): a drawn profile, and positions on every segment
    boundary, a float to either side of each, and anywhere inside."""
    tt = draw(st.tuples(setpoint, setpoint, setpoint, setpoint))
    params = ProcessParameters(*tt, tt5=draw(st.sampled_from([25, 25.0, 175])))
    profile = build_profile(default_layout(), params, draw(st.floats(0.0, 1.0)))
    total = profile.total_length_cm
    bounds = [seg.x_start for seg in profile.segments] + [total]
    near = [math.nextafter(b, side) for b in bounds for side in (0.0, total)]
    inside = draw(st.lists(st.floats(0.0, total), max_size=20))
    return profile, np.clip(bounds + near + inside, 0.0, total)


class TestReference:
    """``ambient_at`` (the one-row ``FieldRows``) against the segments' own
    ``evaluate``, bit for bit: 0-d, empty, 1-D and 2-D input."""

    @settings(max_examples=100, deadline=None)
    @given(case=profiles_and_positions())
    def test_ambient_at_equals_the_reference(self, case):
        profile, x = case
        for xs in (x, x[: len(x) // 2 * 2].reshape(2, -1), x[:0]):
            got, want = ambient_at(profile, xs), ambient_reference(profile, xs)
            assert got.dtype == want.dtype == np.float64
            assert got.shape == xs.shape
            assert got.tobytes() == want.tobytes()
        for point in x:
            for scalar in (float(point), np.asarray(point)):
                got, want = ambient_at(profile, scalar), ambient_reference(profile, scalar)
                assert type(got) is type(want) is float
                assert got.hex() == want.hex()
