"""CSV ingestion and emission for temperature traces.

Schema: header ``t_s,x_cm,temp_c`` (full trace) or ``t_s,temp_c`` (sensor
export without positions; the position column is then reconstructed from the
belt speed).  Lines starting with ``#`` are comments and are ignored, except
that the writer records the belt speed in one so a written file can be
reloaded without out-of-band metadata.  UTF-8, comma separated; the loader
also accepts a leading byte-order mark and CRLF line endings.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from .oven import cm_per_second
from .thermal import ThermalTrace

_SPEED_COMMENT = "# belt_speed_cm_min ="
FULL_HEADER = "t_s,x_cm,temp_c"
SHORT_HEADER = "t_s,temp_c"

# Six fractional digits: coarse enough for stable golden files, fine enough
# that a write/load round trip stays within 1e-6 degC and 1e-6 s.
_ROW3 = "{:.6f},{:.6f},{:.6f}\n"
# Rows formatted or parsed per batch: large enough that the per-batch calls
# vanish against the rows' own cost, small enough that a batch's Python
# floats or cell strings stay around a megabyte.
_CHUNK_ROWS = 8192


def write_trace_csv(trace: ThermalTrace, path) -> None:
    """Write a trace with full columns plus a belt-speed comment line.

    Rows are formatted ``_CHUNK_ROWS`` at a time from Python floats, so
    besides the trace the writer holds one chunk's floats, never the file's
    text.
    """
    columns = (trace.times, trace.positions, trace.temps)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{_SPEED_COMMENT} {trace.belt_speed:.10g}\n")
        fh.write(FULL_HEADER + "\n")
        for start in range(0, len(trace), _CHUNK_ROWS):
            chunk = [column[start:start + _CHUNK_ROWS].tolist() for column in columns]
            fh.writelines(map(_ROW3.format, *chunk))


def _parse_rows(path, lines: list[str], linenos: list[int], n_cols: int) -> np.ndarray:
    """Parse stripped data lines into an ``(len(lines), n_cols)`` float array.

    When every line has ``n_cols - 1`` commas, all cells are converted by one
    ``np.array(cells, dtype=float)``, which parses each cell as ``float()``
    does.  If a line has another column count or a cell does not convert,
    the lines are parsed again one by one, so the error names the first
    offending row exactly as a per-row parse would.
    """
    if list(map(str.count, lines, repeat(","))).count(n_cols - 1) == len(lines):
        cells = ",".join(lines).split(",")
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

    The file's data lines are kept as strings and converted in chunks of
    ``_CHUNK_ROWS`` rows (see ``_parse_rows``), so besides those lines and the
    result the loader holds one chunk of cell strings at a time.

    Raises
    ------
    ValueError
        Malformed header, non-numeric or non-finite cells, non-monotone or
        non-uniform time (beyond 1e-6 s), time not starting at 0, a belt
        speed comment that is not a number, a belt speed that is not
        positive and finite, or position data that contradicts the belt
        speed; messages name the offending row or line.
    """
    comment_speed = None
    header = None
    lines: list[str] = []    # data lines, stripped
    linenos: list[int] = []  # the file line of each, for messages
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line.startswith(_SPEED_COMMENT):
                    text = line[len(_SPEED_COMMENT):].strip()
                    try:
                        comment_speed = float(text)
                    except ValueError:
                        raise ValueError(
                            f"{path}: line {lineno}: belt speed comment {text!r} is not a number"
                        ) from None
                continue
            if header is None:
                header = line
                continue
            lines.append(line)
            linenos.append(lineno)

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
