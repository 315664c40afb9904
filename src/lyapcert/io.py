"""Plain-text matrix format and deterministic CSV writing.

Matrix files: a header line "rows cols", then whitespace-separated entries in
row-major order, newline-terminated.  CSV floats use the shortest
round-tripping decimal representation so identical runs produce identical
bytes.
"""

import numpy as np

from .errors import MissingInput


def format_value(v):
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
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines:
        raise MissingInput(f"{path} is empty")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows
