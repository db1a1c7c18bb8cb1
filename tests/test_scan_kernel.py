"""The RK4 sample scan (``thermal._sample_scan``), through the full-field
``integrate_rows`` of ``tests/helpers.py``.

integrate_rows steps the affine recursion y[n+1] = A*y[n] + f[n] from kept
sample to kept sample with a chunked, scaled cumulative sum.  Checked here:
agreement with a plain sequential loop, rows that do not depend on their
batch or padding, the maximum principle, and an import path without scipy.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reflowsim import (
    ParameterRanges,
    ProcessParameters,
    SimulationGrid,
    WeldingModel,
    ambient_at,
    build_profile,
    inclusive_grid,
    simulate,
)
from reflowsim.thermal import _MAX_CHUNK, _chunk_width, _rk4_coefficients

from helpers import integrate_rows

ROOT = Path(__file__).resolve().parent.parent
DT = 0.1
# Largest e = coefficient * dt with all four RK4 coefficients non-negative:
# Ba = (e/6) * (1 - e + e^2/2 - e^3/4) changes sign at e = 1.29559774...
CONVEX_E = 1.2955


def sequential(t_nodes, t_mid, y0, e, stride):
    """y[0] = y0, y[n+1] = A*y[n] + d[n] one step at a time in Python floats,
    with d[n] = Ba*T(node n) + Bb*T(mid n) + Bc*T(node n+1); every stride-th y."""
    a, ba, bb, bc = _rk4_coefficients(e)
    nodes, mids = t_nodes.tolist(), t_mid.tolist()
    ys = [y0]
    y = y0
    for n in range(len(mids)):
        y = a * y + (ba * nodes[n] + bb * mids[n] + bc * nodes[n + 1])
        ys.append(y)
    return np.array(ys[::stride])


def fields(rng, rows, n_steps):
    """Random ambient values at the nodes and midpoints, in degC."""
    return (rng.uniform(20.0, 280.0, (rows, n_steps + 1)),
            rng.uniform(20.0, 280.0, (rows, n_steps)))


def run(t_nodes, t_mid, y0, e, stride):
    grid = SimulationGrid(DT, DT * stride)
    return integrate_rows(t_nodes.copy(), t_mid.copy(), y0, e / DT, grid)


class TestAgainstTheSequentialLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        e=st.floats(min_value=1e-6, max_value=2.78),
        stride=st.sampled_from([1, 2, 5, 50]),
        chunks=st.integers(min_value=1, max_value=2),
        offset=st.sampled_from([-1, 0, 1]),
        extra=st.integers(min_value=0, max_value=49),
        rows=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_samples_agree(self, e, stride, chunks, offset, extra, rows, seed):
        # sample counts at, just below and just above a chunk edge, and steps
        # past the last kept sample that the scan must ignore
        a = _rk4_coefficients(e)[0]
        width = max(_chunk_width(a**stride), 1)
        n_samples = max(chunks * width + offset, 1)
        n_steps = n_samples * stride + extra % stride
        rng = np.random.default_rng(seed)
        t_nodes, t_mid = fields(rng, rows, n_steps)
        y0 = rng.uniform(20.0, 280.0, rows)
        got = run(t_nodes, t_mid, y0, e, stride)
        for r in range(rows):
            want = sequential(t_nodes[r], t_mid[r], float(y0[r]), e, stride)
            assert got[r].shape == want.shape
            assert np.max(np.abs(got[r] - want)) <= 1e-10 * np.max(np.abs(want))

    @pytest.mark.parametrize("e, stride", [(1.5, 50), (1.6, 1000), (2.0, 2)])
    def test_small_sample_factor_runs_the_plain_recursion(self, e, stride):
        # A**stride too small for a chunk of two columns (1.6, 1000 underflows to 0)
        a = _rk4_coefficients(e)[0]
        assert _chunk_width(a**stride) < 2
        rng = np.random.default_rng(7)
        t_nodes, t_mid = fields(rng, 2, 7 * stride + 3)
        got = run(t_nodes, t_mid, 25.0, e, stride)
        for r in range(2):
            want = sequential(t_nodes[r], t_mid[r], 25.0, e, stride)
            assert np.max(np.abs(got[r] - want)) <= 1e-10 * np.max(np.abs(want))

    def test_chunk_width(self):
        # the default grid: e = 0.0021, stride 5; growth b**-W stays at most 4
        b = _rk4_coefficients(0.0021)[0] ** 5
        width = _chunk_width(b)
        assert b**-width <= 4.0 < b ** -(width + 1)
        assert _chunk_width(_rk4_coefficients(1e-6)[0]) == _MAX_CHUNK
        assert _chunk_width(0.0) == 0


class TestRowsStandAlone:
    @settings(max_examples=30, deadline=None)
    @given(
        e=st.floats(min_value=1e-4, max_value=2.78),
        stride=st.sampled_from([1, 3, 5]),
        lengths=st.lists(st.integers(min_value=1, max_value=900), min_size=1, max_size=5),
        pad_value=st.floats(min_value=-1e3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_row_equals_its_one_row_run(self, e, stride, lengths, pad_value, seed):
        rng = np.random.default_rng(seed)
        longest = max(lengths)
        t_nodes = np.full((len(lengths), longest + 1), pad_value)
        t_mid = np.full((len(lengths), longest), pad_value)
        y0 = rng.uniform(20.0, 280.0, len(lengths))
        alone = []
        for r, n_steps in enumerate(lengths):
            nodes, mid = fields(rng, 1, n_steps)
            t_nodes[r, : n_steps + 1], t_mid[r, :n_steps] = nodes[0], mid[0]
            alone.append(run(nodes, mid, float(y0[r]), e, stride)[0])
        batch = run(t_nodes, t_mid, y0, e, stride)
        for r, row in enumerate(alone):
            assert np.array_equal(batch[r, : row.size], row)
        # any sub-batch, in any order, gives the same rows
        order = rng.permutation(len(lengths))[: max(1, len(lengths) // 2)]
        part = run(t_nodes[order], t_mid[order], y0[order], e, stride)
        assert np.array_equal(part, batch[order])


class TestMaximumPrinciple:
    def test_coefficients_form_a_convex_combination(self):
        for e in np.linspace(1e-6, CONVEX_E, 200):
            coefficients = np.array(_rk4_coefficients(e))
            assert np.all(coefficients >= 0.0)
            assert abs(coefficients.sum() - 1.0) <= 1e-15
        assert _rk4_coefficients(1.2956)[1] < 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        setpoints=st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(4))),
        speed=st.floats(min_value=65.0, max_value=100.0),
        e=st.floats(min_value=1e-5, max_value=CONVEX_E),
        stride=st.sampled_from([1, 5]),
    )
    def test_trace_stays_within_the_ambient_range(self, layout, setpoints, speed, e, stride):
        ranges = ParameterRanges()
        levels = [inclusive_grid(*ranges.interval(slot), ranges.temp_step)
                  for slot in ("tt1", "tt2", "tt3", "tt4")]
        tt = [lv[i] for lv, i in zip(levels, setpoints)]
        params = ProcessParameters(*tt, belt_speed=speed)
        profile = build_profile(layout, params, 0.8)
        trace = simulate(profile, params, WeldingModel(e / DT), SimulationGrid(DT, DT * stride))
        field = ambient_at(profile, np.linspace(0.0, profile.total_length_cm, 20001))
        assert trace.temps.min() >= field.min() - 1e-9
        assert trace.temps.max() <= field.max() + 1e-9


def test_cli_import_leaves_scipy_out():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, reflowsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
