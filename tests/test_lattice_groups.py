"""The joint sweep's lattice, grouped from one setpoint array.

``optimize._sweep_jobs`` enumerates the setpoint combinations as rows of one
array; ``ambient._lattice_groups`` groups them by a geometry signature
computed on the array (``ambient._geometry_groups``), builds one template
profile per group and gathers the rows' level columns by the level sources
of the template's own assembly (``ambient._assemble``), once per group.
Against the per-combination path
(``build_profile`` for every combination, grouped by ``helpers.geometry_key``):

* the groups are exactly the ``geometry_key`` partition, and every member's
  key equals its template's;
* the gathered level columns equal ``_level_columns`` of the members'
  profiles;
* the candidates' parameters equal, with the same types, those the
  per-combination path builds, and each candidate equals the per-candidate
  chain.
"""

import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reflowsim.ambient as ambient
import reflowsim.optimize as optimize
from reflowsim import (
    OvenLayout,
    ParameterRanges,
    ProcessParameters,
    SimulationGrid,
    SweepCandidate,
    WeldingModel,
    ZoneSpec,
    build_profile,
    check_limits,
    compute_metrics,
    default_layout,
    inclusive_grid,
    minimize_area,
    reflow_area,
    simulate,
    symmetry_score,
)
from reflowsim.ambient import _level_columns

from helpers import geometry_key

LAYOUT = default_layout()
WEIGHT = 0.8
COEFFICIENT = 0.021


def per_combination(ranges):
    """Setpoint combinations in sweep order, one ProcessParameters each from
    the ranges' grids: the per-combination path."""
    return [
        ProcessParameters(tt1=a, tt2=b, tt3=c, tt4=d)
        for a in inclusive_grid(*ranges.tt1, ranges.temp_step)
        for b in inclusive_grid(*ranges.tt2, ranges.temp_step)
        for c in inclusive_grid(*ranges.tt3, ranges.temp_step)
        for d in inclusive_grid(*ranges.tt4, ranges.temp_step)
    ]


def assert_grouping(ranges, workers=1, layout=LAYOUT):
    """The jobs of a sweep over ranges against the per-combination path."""
    rows, jobs = optimize._sweep_jobs(layout, ranges, WEIGHT, workers)
    params = per_combination(ranges)
    built = [ProcessParameters(*row) for row in rows]
    assert built == params
    assert [tuple(map(type, astuple(p))) for p in built] == \
        [tuple(map(type, astuple(p))) for p in params]
    profiles = [build_profile(layout, p, WEIGHT) for p in params]
    keys = [geometry_key(p) for p in profiles]
    partition = {}
    for i, key in enumerate(keys):
        partition.setdefault(key, []).append(i)
    groups = {}
    for idx, (template, levels) in jobs:
        assert all(keys[i] == geometry_key(template) for i in idx)
        assert np.array_equal(levels, _level_columns([profiles[i] for i in idx]), equal_nan=True)
        groups.setdefault(id(template), []).extend(idx.tolist())
    assert sorted(groups.values()) == sorted(partition.values())
    if workers == 1:
        assert len(jobs) == len(partition)
    return params


def chain(params, layout=LAYOUT):
    """A candidate through the per-candidate chain."""
    trace = simulate(build_profile(layout, params, WEIGHT), params, WeldingModel(COEFFICIENT),
                     SimulationGrid())
    metrics = compute_metrics(trace)
    try:
        symmetry = symmetry_score(trace)
    except ValueError:
        symmetry = None
    return SweepCandidate(params, metrics, reflow_area(trace), symmetry,
                          check_limits(metrics).passed)


def assert_candidates(ranges, params, workers=1, layout=LAYOUT):
    """The sweep's candidates: the per-combination parameters at each speed,
    of the same types, and each candidate equal to the per-candidate chain."""
    result = minimize_area(layout, ranges, WEIGHT, COEFFICIENT, workers=workers)
    speeds = inclusive_grid(*ranges.belt_speed, ranges.speed_step)
    expected = [replace(p, belt_speed=v) for p in params for v in speeds]
    got = [c.params for c in result.candidates]
    assert got == expected
    assert [tuple(map(type, astuple(p))) for p in got] == \
        [tuple(map(type, astuple(p))) for p in expected]
    for cand in result.candidates:
        assert cand == chain(cand.params, layout)
    return result


def rewired(slots):
    """The default furnace with its heated zones wired to these slots."""
    wired = iter(slots)
    return OvenLayout(tuple(replace(z, setpoint_slot=next(wired)) if z.kind == "heated" else z
                            for z in LAYOUT.zones), LAYOUT.total_length_cm)


# zones 10 and 11 on TT4: a hot last zone leaves no cooling blend, whatever
# its setpoint
NO_BLEND = rewired(("TT1",) * 5 + ("TT2", "TT3") + ("TT4",) * 4)

# 25 is tt5: a zone set to it is not hot, which moves the hot zone or, with
# every zone at it, removes the blend; 180..190 and 240..250 merge plateaus
VALUES = (25, 180, 185, 190, 240, 245, 250)


@st.composite
def sub_lattices(draw):
    """One or two values per setpoint, one or two speeds, int or float."""
    integral = draw(st.booleans())
    number = int if integral else float
    bounds = {}
    for name in ("tt1", "tt2", "tt3", "tt4"):
        lo = draw(st.sampled_from(VALUES))
        bounds[name] = (number(lo), number(lo + 5 * draw(st.integers(0, 1))))
    lo = draw(st.sampled_from((65, 70, 90)))
    hi = lo + draw(st.sampled_from((0, 10)))
    return ParameterRanges(**bounds, belt_speed=(number(lo), number(hi)), temp_step=number(5),
                           speed_step=number(10))


MERGED = ParameterRanges(tt1=(180, 185), tt2=(185, 190), tt3=(240, 245), tt4=(245, 250),
                         belt_speed=(70, 90), temp_step=5, speed_step=20)
COLD = ParameterRanges(tt1=(25.0, 25.0), tt2=(25.0, 25.0), tt3=(25.0, 25.0),
                       tt4=(25.0, 25.0), belt_speed=(70.0, 70.0))
HOT_ZONE_MOVES = ParameterRanges(tt1=(180.0, 185.0), tt2=(185.0, 185.0), tt3=(240.0, 240.0),
                                 tt4=(25.0, 25.0), belt_speed=(70.0, 70.0))


@settings(max_examples=30, deadline=None)
@given(ranges=sub_lattices(), layout=st.sampled_from([LAYOUT, NO_BLEND]))
@example(ranges=MERGED, layout=LAYOUT)
@example(ranges=COLD, layout=LAYOUT)
@example(ranges=HOT_ZONE_MOVES, layout=LAYOUT)
@example(ranges=MERGED, layout=NO_BLEND)
def test_groups_are_the_geometry_key_partition(ranges, layout):
    params = assert_grouping(ranges, layout=layout)
    assert_candidates(ranges, params, layout=layout)


@pytest.mark.parametrize("ranges", [MERGED, HOT_ZONE_MOVES], ids=["merged-int", "hot-zone"])
def test_pieces_of_two_workers(ranges):
    params = assert_grouping(ranges, workers=2)
    result = assert_candidates(ranges, params, workers=2)
    assert result == minimize_area(LAYOUT, ranges, WEIGHT, COEFFICIENT)


def test_swapped_level_sources_fail_the_property(monkeypatch):
    # the entry plateau reads tt5 and the first zone's plateau tt1
    assemble = ambient._assemble

    def swapped(*args):
        segments, sources = assemble(*args)
        return segments, (sources[1], sources[0], *sources[2:])

    monkeypatch.setattr(ambient, "_assemble", swapped)
    with pytest.raises(AssertionError):
        assert_grouping(MERGED)


@pytest.mark.parametrize("workers", [1, 2])
def test_each_group_is_assembled_once(monkeypatch, workers):
    # the sweep reaches the assembly only through ambient, where it is counted
    assert not hasattr(optimize, "_assemble")
    assemble, calls = ambient._assemble, []

    def counted(*args):
        calls.append(args[1])
        return assemble(*args)

    monkeypatch.setattr(ambient, "_assemble", counted)
    _, jobs = optimize._sweep_jobs(LAYOUT, MERGED, WEIGHT, workers)
    templates = {id(template) for _, (template, _) in jobs}
    assert len(calls) == len(templates) > 1


def gapless_layout():
    """The default furnace without the gaps after zones 5 and 6: tt1 | tt2
    and tt2 | tt3 meet without a sigmoid gap."""
    zones, x = [], 0.0
    for z in LAYOUT.zones:
        if z.name in ("gap 5", "gap 6"):
            continue
        zones.append(ZoneSpec(z.name, z.kind, x, x + z.length_cm, z.setpoint_slot))
        x += z.length_cm
    return OvenLayout(tuple(zones), x)


@pytest.mark.parametrize("tt1", [(185.0, 190.0), (180.0, 190.0)], ids=["zone-7", "zone-6"])
def test_missing_gap_raises_at_the_first_failing_combination(tt1):
    # tt1 = tt2 = 185 fails before zone 7, tt1 != tt2 before zone 6: the
    # first combination that fails sets the message
    layout = gapless_layout()
    ranges = ParameterRanges(tt1=tt1, tt2=(185.0, 190.0), tt3=(240.0, 240.0),
                             tt4=(250.0, 250.0), belt_speed=(70.0, 70.0))
    for p in per_combination(ranges):
        try:
            build_profile(layout, p, WEIGHT)
        except ValueError as exc:
            first = str(exc)
            break
    with pytest.raises(ValueError, match=re.escape(first)):
        minimize_area(layout, ranges, WEIGHT, COEFFICIENT)
    assert ("zone 7" in first) == (tt1[0] == 185.0)
