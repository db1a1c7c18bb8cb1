"""The chunked trace CSV writer and loader against the per-row oracle in
``helpers``: equal bytes, bit-equal arrays and the same message for every
malformed file, within one chunk and across chunk boundaries."""

from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import load_trace_rows, write_trace_rows
from reflowsim import ThermalTrace, load_trace_csv, traceio, write_trace_csv

CHUNK = traceio._CHUNK_ROWS

# Cells that parse (with underscores, padding, signs or non-ASCII digits),
# cells that do not, and cells that parse to a non-finite value.
ODD_CELLS = [
    " 25.0", "26.5 ", "1_0", "+1", "1e3", ".5", "\u0661", "-0",
    "hot", "", "1__0", "0x10", "1 0", "nan(1)",
    "nan", "NaN", "inf", "-Infinity", "1e999",
]


def outcome(load, path, belt_speed=None):
    """A loaded trace's fields, exactly, or the loader's message."""
    try:
        trace = load(path, belt_speed=belt_speed)
    except ValueError as exc:
        return str(exc)
    return (float(trace.dt).hex(), float(trace.belt_speed).hex(), trace.times.tobytes(),
            trace.positions.tobytes(), trace.temps.tobytes())


def assert_matches_oracle(path, belt_speed=None):
    got = outcome(load_trace_csv, path, belt_speed)
    assert got == outcome(load_trace_rows, path, belt_speed)
    return got


def assert_written_like_oracle(trace, directory):
    write_trace_csv(trace, directory / "chunked.csv")
    write_trace_rows(trace, directory / "rows.csv")
    assert (directory / "chunked.csv").read_bytes() == (directory / "rows.csv").read_bytes()
    return directory / "chunked.csv"


class TestDefaultTrace:
    def test_bytes_and_arrays_equal_the_oracle(self, tmp_path, default_trace):
        path = assert_written_like_oracle(default_trace, tmp_path)
        assert not isinstance(assert_matches_oracle(path), str)


@settings(max_examples=80, deadline=None)
@given(
    dt=st.sampled_from([0.05, 0.1, 0.3, 0.5, 1.0]),
    speed=st.floats(10.0, 200.0),
    temps=st.lists(st.floats(-1e7, 1e7), min_size=1, max_size=40),
    chunk=st.integers(1, 8),
)
def test_generated_traces_equal_the_oracle(tmp_path_factory, dt, speed, temps, chunk):
    directory = tmp_path_factory.mktemp("trace")
    trace = ThermalTrace(dt, speed, np.array(temps))
    with patch.object(traceio, "_CHUNK_ROWS", chunk):
        path = assert_written_like_oracle(trace, directory)
        assert_matches_oracle(path)


@st.composite
def trace_files(draw):
    """Trace CSV text: a header, rows on a uniform time grid, and draws of
    odd cells, wrong column counts, comments, blank lines, a byte-order mark
    and CRLF line endings."""
    header = draw(st.sampled_from(["t_s,temp_c", "t_s,x_cm,temp_c", "time,temp"]))
    n_cols = 3 if header == "t_s,x_cm,temp_c" else 2
    dt = draw(st.sampled_from([0.1, 0.5, 1.0]))
    rows = []
    for i in range(draw(st.integers(0, 25))):
        cells = [f"{i * dt:.6f}", f"{70.0 / 60.0 * i * dt:.6f}", f"{25.0 + i:.6f}"]
        rows.append(cells if n_cols == 3 else [cells[0], cells[2]])
    if rows:
        for _ in range(draw(st.integers(0, 3))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(ODD_CELLS))
        # two edits can cancel out in the file's total cell count
        for _ in range(draw(st.integers(0, 2))):
            row = rows[draw(st.integers(0, len(rows) - 1))]
            if draw(st.booleans()):
                row.append("1.0")
            else:
                row.pop()
    lines = [header] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(["", "   ", "# note", "# belt_speed_cm_min = 70"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    speed = draw(st.sampled_from([None, "70", "65.5", "fast", "nan"]))
    if speed is not None:
        lines.insert(0, f"# belt_speed_cm_min = {speed}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom + newline.join(lines) + newline


@settings(max_examples=300, deadline=None)
@given(text=trace_files(), belt_speed=st.sampled_from([None, 70.0]), chunk=st.integers(1, 6))
def test_generated_files_load_like_the_oracle(tmp_path_factory, text, belt_speed, chunk):
    path = tmp_path_factory.mktemp("csv") / "trace.csv"
    path.write_bytes(text.encode("utf-8"))
    with patch.object(traceio, "_CHUNK_ROWS", chunk):
        assert_matches_oracle(path, belt_speed)


class TestLongerThanOneChunk:
    N = CHUNK + 100
    BAD = CHUNK + 10  # a data row in the second chunk

    def _write(self, path, edits=()):
        """A two-column file of N rows; ``edits`` replaces the temperature
        cell of data row i; the header is file line 1, so data row i is
        file line i + 2."""
        temps = [f"{25.0 + 0.01 * i:.6f}" for i in range(self.N)]
        for i, cell in edits:
            temps[i] = cell
        rows = [f"{0.5 * i:.6f},{temp}" for i, temp in enumerate(temps)]
        path.write_text("t_s,temp_c\n" + "\n".join(rows) + "\n")
        return path

    def test_trace_written_like_the_oracle(self, tmp_path):
        trace = ThermalTrace(0.5, 70.0, 25.0 + np.sin(np.arange(self.N) * 0.01))
        path = assert_written_like_oracle(trace, tmp_path)
        assert len(path.read_text().splitlines()) == self.N + 2
        assert not isinstance(assert_matches_oracle(path), str)

    def test_file_loads_like_the_oracle(self, tmp_path):
        path = self._write(tmp_path / "long.csv")
        trace = load_trace_csv(path, belt_speed=70.0)
        assert len(trace) == self.N > CHUNK
        assert not isinstance(assert_matches_oracle(path, 70.0), str)

    @pytest.mark.parametrize("cell, message", [
        ("hot", "non-numeric value"),
        ("26.0,1.0", "expected 2 columns, got 3"),
        ("nan", "non-finite value 'nan'"),
        (" inf ", "non-finite value 'inf'"),
    ])
    def test_bad_cell_in_the_second_chunk_names_its_row(self, tmp_path, cell, message):
        path = self._write(tmp_path / "bad.csv", [(self.BAD, cell)])
        with pytest.raises(ValueError) as info:
            load_trace_csv(path, belt_speed=70.0)
        assert str(info.value) == f"{path}: row {self.BAD + 2}: {message}"
        assert_matches_oracle(path, 70.0)

    def test_non_numeric_in_the_second_chunk_outranks_non_finite_in_the_first(self, tmp_path):
        # every cell is converted before any is checked for finiteness
        path = self._write(tmp_path / "bad.csv", [(5, "nan"), (self.BAD, "hot")])
        assert assert_matches_oracle(path, 70.0) == (
            f"{path}: row {self.BAD + 2}: non-numeric value")


class TestByteOrderMark:
    BODY = ["t_s,temp_c", "0.0,25.0", "0.5,26.0", "1.0,27.0"]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("comment", [True, False], ids=["comment-first", "header-first"])
    def test_loads_like_the_plain_file(self, tmp_path, newline, comment):
        lines = (["# belt_speed_cm_min = 70"] if comment else []) + self.BODY
        plain = tmp_path / "plain.csv"
        plain.write_text("\n".join(lines) + "\n")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(("\ufeff" + newline.join(lines) + newline).encode("utf-8"))
        expected = outcome(load_trace_csv, plain, 70.0)
        assert not isinstance(expected, str)
        assert outcome(load_trace_csv, marked, 70.0) == expected

    def test_written_trace_reloads_with_mark_and_crlf(self, tmp_path, default_trace):
        path = tmp_path / "trace.csv"
        write_trace_csv(default_trace, path)
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
        assert outcome(load_trace_csv, marked) == outcome(load_trace_csv, path)
