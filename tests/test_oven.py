import numpy as np
import pytest
from hypothesis import given, strategies as st

from reflowsim import (
    OvenLayout,
    ParameterRanges,
    ProcessParameters,
    ZoneSpec,
    default_layout,
    position_at_time,
    validate_parameters,
)

# The standard furnace, region by region: 25 cm entry, eleven 30.5 cm zones
# with 5 cm gaps, 25 cm exit.
EXPECTED_REGIONS = [
    ("entry", "entry", 0.0, 25.0, None),
    ("zone 1", "heated", 25.0, 55.5, "TT1"),
    ("gap 1", "gap", 55.5, 60.5, None),
    ("zone 2", "heated", 60.5, 91.0, "TT1"),
    ("gap 2", "gap", 91.0, 96.0, None),
    ("zone 3", "heated", 96.0, 126.5, "TT1"),
    ("gap 3", "gap", 126.5, 131.5, None),
    ("zone 4", "heated", 131.5, 162.0, "TT1"),
    ("gap 4", "gap", 162.0, 167.0, None),
    ("zone 5", "heated", 167.0, 197.5, "TT1"),
    ("gap 5", "gap", 197.5, 202.5, None),
    ("zone 6", "heated", 202.5, 233.0, "TT2"),
    ("gap 6", "gap", 233.0, 238.0, None),
    ("zone 7", "heated", 238.0, 268.5, "TT3"),
    ("gap 7", "gap", 268.5, 273.5, None),
    ("zone 8", "heated", 273.5, 304.0, "TT4"),
    ("gap 8", "gap", 304.0, 309.0, None),
    ("zone 9", "heated", 309.0, 339.5, "TT4"),
    ("gap 9", "gap", 339.5, 344.5, None),
    ("zone 10", "heated", 344.5, 375.0, "TT5"),
    ("gap 10", "gap", 375.0, 380.0, None),
    ("zone 11", "heated", 380.0, 410.5, "TT5"),
    ("exit", "exit", 410.5, 435.5, None),
]


class TestDefaultLayout:
    def test_every_boundary_exact(self):
        layout = default_layout()
        assert len(layout.zones) == 23
        for zone, (name, kind, start, end, slot) in zip(layout.zones, EXPECTED_REGIONS):
            assert zone.name == name
            assert zone.kind == kind
            assert zone.start_cm == start
            assert zone.end_cm == end
            assert zone.setpoint_slot == slot

    def test_partition_no_gaps_no_overlaps(self):
        layout = default_layout()
        assert layout.zones[0].start_cm == 0.0
        for prev, cur in zip(layout.zones, layout.zones[1:]):
            assert prev.end_cm == cur.start_cm
        assert layout.zones[-1].end_cm == layout.total_length_cm == 435.5

    def test_region_census(self):
        layout = default_layout()
        kinds = [z.kind for z in layout.zones]
        assert kinds.count("heated") == 11
        assert kinds.count("gap") == 10
        assert kinds.count("entry") == kinds.count("exit") == 1

    def test_specific_regions(self):
        layout = default_layout()
        zone1 = layout.zones[1]
        assert (zone1.start_cm, zone1.end_cm) == (25.0, 55.5)
        gap9 = [z for z in layout.zones if z.name == "gap 9"][0]
        assert (gap9.start_cm, gap9.end_cm) == (339.5, 344.5)

    def test_idempotent(self):
        assert default_layout() == default_layout()


class TestZoneAndLayoutValidation:
    def test_zone_end_before_start(self):
        with pytest.raises(ValueError, match="end_cm"):
            ZoneSpec("bad", "gap", 10.0, 5.0)

    @pytest.mark.parametrize("key, start, end", [
        ("end_cm", 0.0, float("inf")),
        ("end_cm", 0.0, float("nan")),
        ("start_cm", float("-inf"), 10.0),
        ("start_cm", float("nan"), 10.0),
    ])
    def test_zone_bounds_must_be_finite(self, key, start, end):
        value = start if key == "start_cm" else end
        with pytest.raises(ValueError) as info:
            ZoneSpec("exit", "exit", start, end)
        assert str(info.value) == f"zone 'exit': {key} must be finite, got {value}"

    def test_heated_zone_needs_slot(self):
        with pytest.raises(ValueError, match="setpoint slot"):
            ZoneSpec("bad", "heated", 0.0, 10.0)

    def test_gap_must_not_carry_slot(self):
        with pytest.raises(ValueError, match="must not carry"):
            ZoneSpec("bad", "gap", 0.0, 10.0, "TT1")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            ZoneSpec("bad", "oven", 0.0, 10.0)

    def test_layout_rejects_non_contiguous(self):
        zones = (
            ZoneSpec("a", "entry", 0.0, 10.0),
            ZoneSpec("b", "exit", 11.0, 20.0),
        )
        with pytest.raises(ValueError, match="contiguous"):
            OvenLayout(zones, 20.0)

    def test_layout_rejects_bad_total(self):
        zones = (ZoneSpec("a", "entry", 0.0, 10.0),)
        with pytest.raises(ValueError, match="total_length_cm"):
            OvenLayout(zones, 12.0)


class TestValidateParameters:
    def test_defaults_are_valid(self):
        assert validate_parameters(ProcessParameters(), ParameterRanges()) == []

    def test_boundary_is_inclusive(self):
        p = ProcessParameters(tt1=165.0)
        assert validate_parameters(p, ParameterRanges()) == []

    def test_speed_violation_named(self):
        p = ProcessParameters(belt_speed=101.0)
        report = validate_parameters(p, ParameterRanges())
        assert [v.slot for v in report] == ["belt_speed"]
        assert "belt_speed" in str(report[0])

    def test_multiple_violations(self):
        p = ProcessParameters(tt1=200.0, tt5=30.0, belt_speed=50.0)
        report = validate_parameters(p, ParameterRanges())
        assert [v.slot for v in report] == ["tt1", "tt5", "belt_speed"]

    def test_ranges_validate_bounds(self):
        with pytest.raises(ValueError, match="lower bound"):
            ParameterRanges(tt1=(190.0, 160.0))
        with pytest.raises(ValueError, match="steps"):
            ParameterRanges(temp_step=0.0)

    @pytest.mark.parametrize("bounds", [(20.0, 30.0), (25.0, 25.5)])
    def test_ranges_refuse_a_tt5_interval(self, bounds):
        with pytest.raises(ValueError) as info:
            ParameterRanges(tt5=bounds)
        assert str(info.value).startswith(
            f"range for tt5 must be a single value, got [{bounds[0]}, {bounds[1]}]")
        assert ParameterRanges(tt5=(30.0, 30.0)).tt5 == (30.0, 30.0)

    @pytest.mark.parametrize("bounds", [(0.0, 100.0), (-5.0, 0.0), (-1.0, 70.0)])
    def test_ranges_refuse_a_belt_speed_bound_not_above_zero(self, bounds):
        with pytest.raises(ValueError) as info:
            ParameterRanges(belt_speed=bounds)
        assert str(info.value) == (
            f"range for belt_speed must be positive, got [{bounds[0]}, {bounds[1]}]")
        assert ParameterRanges(belt_speed=(1e-300, 70.0)).belt_speed == (1e-300, 70.0)

    @pytest.mark.parametrize("bounds, shown", [
        ((165.0, float("inf")), "[165.0, inf]"),
        ((float("nan"), 185.0), "[nan, 185.0]"),
        ((float("-inf"), 185.0), "[-inf, 185.0]"),
        ((float("nan"), float("nan")), "[nan, nan]"),
    ])
    @pytest.mark.parametrize("name", ["tt1", "tt2", "tt3", "tt4", "tt5", "belt_speed"])
    def test_ranges_refuse_non_finite_bounds(self, name, bounds, shown):
        with pytest.raises(ValueError) as info:
            ParameterRanges(**{name: bounds})
        assert str(info.value) == f"range for {name} must have finite bounds, got {shown}"


class TestPositionAtTime:
    def test_one_minute(self):
        assert position_at_time(70.0, 60.0) == pytest.approx(70.0, rel=1e-12)

    def test_origin(self):
        assert position_at_time(70.0, 0.0) == 0.0

    def test_full_furnace_transit(self):
        # 435.5 cm at 100 cm/min takes 261.3 s
        assert position_at_time(100.0, 261.3) == pytest.approx(435.5, rel=1e-12)

    @given(
        v=st.floats(min_value=1.0, max_value=200.0),
        a=st.floats(min_value=0.0, max_value=1e4),
        b=st.floats(min_value=0.0, max_value=1e4),
    )
    def test_linear_in_time(self, v, a, b):
        whole = position_at_time(v, a + b)
        parts = position_at_time(v, a) + position_at_time(v, b)
        assert whole == pytest.approx(parts, rel=1e-12, abs=1e-12)

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError, match="belt_speed"):
            position_at_time(0.0, 10.0)
        with pytest.raises(ValueError, match="belt_speed"):
            position_at_time(-5.0, 10.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="non-negative"):
            position_at_time(70.0, -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_speed_or_time(self, value):
        with pytest.raises(ValueError, match=f"belt_speed must be positive and finite, got {value}"):
            position_at_time(value, 1.0)
        with pytest.raises(ValueError, match=f"belt_speed must be positive and finite, got {value}"):
            position_at_time(np.array([70.0, value]), 1.0)
        with pytest.raises(ValueError, match=f"time must be non-negative and finite, got {value}"):
            position_at_time(70.0, np.array([0.0, 30.0, value]))

    def test_vectorized(self):
        t = np.array([0.0, 30.0, 60.0])
        np.testing.assert_allclose(position_at_time(70.0, t), [0.0, 35.0, 70.0])


class TestProcessParameters:
    def test_slot_lookup(self):
        p = ProcessParameters()
        assert p.slot_temperature("TT1") == 175.0
        assert p.slot_temperature("TT5") == 25.0

    def test_unknown_slot(self):
        with pytest.raises(ValueError, match="slot"):
            ProcessParameters().slot_temperature("TT9")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["tt1", "tt2", "tt3", "tt4", "tt5", "belt_speed"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {value}"):
            ProcessParameters(**{name: value})

    @pytest.mark.parametrize("value", [0.0, -0.0, -70.0, 0])
    def test_rejects_nonpositive_belt_speed(self, value):
        with pytest.raises(ValueError, match=f"^belt_speed must be positive, got {value}$"):
            ProcessParameters(belt_speed=value)

    @pytest.mark.parametrize("value", [-273.16, -300.0, -1e9])
    @pytest.mark.parametrize("name", ["tt1", "tt2", "tt3", "tt4", "tt5"])
    def test_rejects_a_setpoint_below_absolute_zero(self, name, value):
        message = rf"^{name} must be at least -273\.15 degC \(absolute zero\), got {value}$"
        with pytest.raises(ValueError, match=message):
            ProcessParameters(**{name: value})

    def test_absolute_zero_and_any_positive_speed_are_accepted(self):
        p = ProcessParameters(-273.15, -273.15, -273.15, -273.15, -273.15, 1e-9)
        assert (p.tt1, p.belt_speed) == (-273.15, 1e-9)

    def test_the_first_bad_field_is_named(self):
        # a non-finite value before a bad speed, a bad speed before a cold setpoint
        with pytest.raises(ValueError, match="tt4 must be finite, got nan"):
            ProcessParameters(tt1=-300.0, tt4=float("nan"), belt_speed=0.0)
        with pytest.raises(ValueError, match="belt_speed must be positive, got 0.0"):
            ProcessParameters(tt1=-300.0, belt_speed=0.0)
        with pytest.raises(ValueError, match="tt2 must be at least"):
            ProcessParameters(tt2=-300.0, tt3=-400.0)
