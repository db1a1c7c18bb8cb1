"""CSV ingestion and emission for temperature traces.

Schema: header ``t_s,x_cm,temp_c`` (full trace) or ``t_s,temp_c`` (sensor
export without positions; the position column is then reconstructed from the
belt speed).  Lines starting with ``#`` are comments and are ignored, except
that the writer records the belt speed in one so a written file can be
reloaded without out-of-band metadata.  UTF-8, comma separated; the loader
also accepts a leading byte-order mark and CRLF or lone-CR line endings.

Neither side takes a Python step per row.  The writer formats each chunk of
``_CHUNK_ROWS`` rows with one ``%`` over the chunk's interleaved columns; the
loader reads the file once, splits it once on newlines, sorts out blank,
comment, header and data lines with whole-list operations and converts the
data ``_CHUNK_ROWS`` rows at a time.  So ``_CHUNK_ROWS`` bounds what either
side holds beyond the trace or the file's lines: one chunk's floats and text
when writing, one chunk's cell strings and floats when loading.
"""

from __future__ import annotations

from itertools import compress, count, repeat
from operator import not_

import numpy as np

from .oven import cm_per_second
from .thermal import ThermalTrace

_SPEED_COMMENT = "# belt_speed_cm_min ="
FULL_HEADER = "t_s,x_cm,temp_c"
SHORT_HEADER = "t_s,temp_c"
# Every byte but the comma and the newline, for ``bytes.translate`` to delete
_NOT_SEPARATOR = bytes(byte for byte in range(256) if byte not in b",\n")

# Six fractional digits: coarse enough for stable golden files, fine enough
# that a write/load round trip stays within 1e-6 degC and 1e-6 s.  ``%.6f``
# is the conversion of ``{:.6f}``, so the bytes are those of a per-row
# ``str.format``.
_ROW3 = "%.6f,%.6f,%.6f\n"
# Rows formatted or parsed per batch: large enough that the per-batch calls
# vanish against the rows' own cost, small enough that a batch's Python
# floats, text or cell strings stay around a megabyte.
_CHUNK_ROWS = 8192


def write_trace_csv(trace: ThermalTrace, path) -> None:
    """Write a trace with full columns plus a belt-speed comment line.

    Each chunk of ``_CHUNK_ROWS`` rows is formatted by one ``%`` over its
    interleaved columns, so besides the trace the writer holds one chunk's
    floats and text, never the file's.
    """
    columns = (trace.times, trace.positions, trace.temps)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_SPEED_COMMENT} {trace.belt_speed:.10g}\n")
        fh.write(FULL_HEADER + "\n")
        for start in range(0, len(trace), _CHUNK_ROWS):
            chunk = np.column_stack([column[start:start + _CHUNK_ROWS] for column in columns])
            fh.write(_ROW3 * len(chunk) % tuple(chunk.ravel().tolist()))


def _parse_rows(path, lines: list[str], linenos: list[int], n_cols: int) -> np.ndarray:
    """Parse stripped data lines into an ``(len(lines), n_cols)`` float array.

    When every line has ``n_cols - 1`` commas, which is checked once on the
    commas and line ends of the lines joined, all cells are converted by one
    ``np.array(cells, dtype=float)``, which parses each cell as ``float()``
    does.  If a line has another column count or a cell does not convert,
    the lines are parsed again one by one, so the error names the first
    offending row exactly as a per-row parse would.
    """
    text = "\n".join(lines)
    row = b"," * (n_cols - 1)
    if text.encode().translate(None, _NOT_SEPARATOR) == (row + b"\n") * (len(lines) - 1) + row:
        cells = text.replace("\n", ",").split(",")
        try:
            return np.array(cells, dtype=float).reshape(len(lines), n_cols)
        except ValueError:
            pass
    data = np.empty((len(lines), n_cols))
    for i, (line, lineno) in enumerate(zip(lines, linenos)):
        cells = line.split(",")
        if len(cells) != n_cols:
            raise ValueError(
                f"{path}: row {lineno}: expected {n_cols} columns, got {len(cells)}"
            )
        try:
            data[i] = [float(c) for c in cells]
        except ValueError:
            raise ValueError(f"{path}: row {lineno}: non-numeric value") from None
    return data


def load_trace_csv(path, belt_speed: float | None = None) -> ThermalTrace:
    """Load a trace CSV, reconstructing positions from time and belt speed.

    Belt speed is resolved in order of preference: the ``belt_speed``
    argument, a ``# belt_speed_cm_min = ...`` comment in the file, or (for
    files with an x column) the ratio of the last position to the last time.
    Two-column files with none of these are an error.  A leading UTF-8
    byte-order mark is skipped.

    The file is read once and split once on newlines (after the universal
    newline translation of text mode, so CRLF and lone CR end lines too);
    blank lines, comments, the header and the data lines are then sorted
    out by whole-list operations, with no Python step per data line (only
    comment lines are read one by one, for the belt speed), and the data
    lines are converted in chunks of ``_CHUNK_ROWS`` rows (see
    ``_parse_rows``).  Besides the file's lines and the result the loader
    holds one chunk of cell strings at a time.

    Raises
    ------
    ValueError
        A missing or malformed header, non-numeric or non-finite cells,
        non-monotone or non-uniform time (beyond 1e-6 s), time not starting
        at 0, a belt speed comment that is not a number, a belt speed that
        is not positive and finite, or position data that contradicts the
        belt speed; messages name the offending row or line.
    """
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = list(map(str.strip, fh.read().split("\n")))
    linenos = list(compress(count(1), lines))  # the file line of each non-blank line
    lines = list(filter(None, lines))
    comments = list(map(str.startswith, lines, repeat("#")))
    # speed comments are read in file order: the first bad one is an error,
    # and of good ones the last wins
    comment_speed = None
    for line, lineno in compress(zip(lines, linenos), comments):
        if line.startswith(_SPEED_COMMENT):
            text = line[len(_SPEED_COMMENT):].strip()
            try:
                comment_speed = float(text)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: belt speed comment {text!r} is not a number"
                ) from None
    content = list(map(not_, comments))
    lines = list(compress(lines, content))
    linenos = list(compress(linenos, content))

    if not lines:
        raise ValueError(
            f"{path}: no header line; expected {FULL_HEADER!r} or {SHORT_HEADER!r}"
        )
    header, lines, linenos = lines[0], lines[1:], linenos[1:]
    if header not in (FULL_HEADER, SHORT_HEADER):
        raise ValueError(
            f"{path}: malformed header {header!r}; expected "
            f"{FULL_HEADER!r} or {SHORT_HEADER!r}"
        )
    n_cols = 3 if header == FULL_HEADER else 2
    if len(lines) < 2:
        raise ValueError(f"{path}: need at least 2 data rows, got {len(lines)}")

    data = np.empty((len(lines), n_cols))
    for start in range(0, len(lines), _CHUNK_ROWS):
        stop = start + _CHUNK_ROWS
        data[start:stop] = _parse_rows(path, lines[start:stop], linenos[start:stop], n_cols)
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        cell = lines[row].split(",")[col].strip()
        raise ValueError(f"{path}: row {linenos[row]}: non-finite value {cell!r}")

    times = data[:, 0]
    temps = data[:, -1]
    if abs(times[0]) > 1e-6:
        raise ValueError(
            f"{path}: row {linenos[0]}: time must start at 0, got {times[0]}"
        )
    deltas = np.diff(times)
    bad = np.nonzero(deltas <= 0)[0]
    if bad.size:
        raise ValueError(
            f"{path}: row {linenos[bad[0] + 1]}: time is not strictly increasing"
        )
    dt = (times[-1] - times[0]) / (len(times) - 1)
    drift = np.abs(times - np.arange(len(times)) * dt)
    bad = np.nonzero(drift > 1e-6)[0]
    if bad.size:
        raise ValueError(
            f"{path}: row {linenos[bad[0]]}: non-uniform time spacing "
            f"(off the uniform grid by {drift[bad[0]]:.3g} s)"
        )

    speed = belt_speed if belt_speed is not None else comment_speed
    if speed is None and n_cols == 3:
        if times[-1] <= 0:
            raise ValueError(f"{path}: cannot infer belt speed from a zero-length trace")
        speed = 60.0 * data[-1, 1] / times[-1]
    if speed is None:
        raise ValueError(
            f"{path}: no x column and no belt speed given; pass belt_speed "
            f"or add a '{_SPEED_COMMENT} ...' comment"
        )
    if not (np.isfinite(speed) and speed > 0):
        raise ValueError(f"{path}: belt_speed must be positive and finite, got {speed}")

    if n_cols == 3:
        expected_x = cm_per_second(speed) * np.arange(len(times)) * dt
        bad = np.nonzero(np.abs(data[:, 1] - expected_x) > 1e-3)[0]
        if bad.size:
            raise ValueError(
                f"{path}: row {linenos[bad[0]]}: x column inconsistent with "
                f"belt speed {speed:g} cm/min"
            )
    return ThermalTrace(dt, speed, temps)
