"""Plain-text matrix format, and CSV files written deterministically.

Matrix files: a header line "rows cols", then whitespace-separated entries in
row-major order, newline-terminated.

CSV files: the header line first, then one line per row, cells joined by ","
and every line ended by "\n" (the last one too).  Floats are written as
their shortest round-tripping `repr` ("nan" for a missing value, "-0.0",
"5e-324"), so identical runs produce identical bytes and reading a cell back
with `float` gives the same float.  Rows are formatted and written a chunk of
CSV_CHUNK_ROWS at a time; the caller may hand them over as a generator.
Reading skips blank and whitespace-only lines; `read_csv_lines` returns the
remaining lines unsplit, `read_csv` every cell as a string, `read_csv_floats`
a float array checked against the header.
"""

from itertools import islice

import numpy as np

from .errors import MissingInput


CSV_CHUNK_ROWS = 4096


def format_value(v):
    if type(v) is float:            # trajectory cells: the common case first
        return repr(v)
    if isinstance(v, (bool, np.bool_)):
        return "True" if v else "False"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def save_matrix(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows, cols = M.shape
    lines = [f"{rows} {cols}"]
    for r in range(rows):
        lines.append(" ".join(repr(float(x)) for x in M[r]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path):
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except (IndexError, ValueError):
        rows = cols = 0
    if rows < 1 or cols < 1:
        raise ValueError(f"matrix file {path} has no 'rows cols' header")
    try:
        vals = np.array([float(t) for t in tokens[2:2 + rows * cols]])
    except ValueError as exc:
        raise ValueError(f"matrix file {path}: {exc}") from None
    if vals.size != rows * cols:
        raise ValueError(f"matrix file {path} truncated")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"matrix file {path} has non-finite entries")
    return vals.reshape(rows, cols)


def write_csv(path, header, rows):
    rows = iter(rows)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            fh.write("".join([",".join(map(format_value, row)) + "\n" for row in chunk]))


def read_csv_lines(path):
    """The header line and the row lines of a CSV, blank lines skipped."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().split("\n") if ln.strip()]
    if not lines:
        raise MissingInput(f"{path} is empty")
    return lines


def read_csv(path):
    lines = read_csv_lines(path)
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def read_csv_floats(path, columns):
    """The rows of a CSV whose header is exactly `columns`, as a float array
    of shape (rows, len(columns)); every cell is parsed as `float` parses it."""
    lines = read_csv_lines(path)
    header = lines[0].split(",")
    if header != columns:
        raise MissingInput(f"{path} has unexpected columns {header}")
    body = lines[1:]
    if not body:
        raise MissingInput(f"{path} has a header but no samples")
    malformed = f"{path} has rows that are not {len(columns)} numbers"
    if any(ln.count(",") != len(columns) - 1 for ln in body):
        raise MissingInput(malformed)
    try:
        # one conversion of all cells; each line holds exactly len(columns) of them
        return np.array(",".join(body).split(","), dtype=float).reshape(len(body), -1)
    except ValueError:
        raise MissingInput(malformed) from None
