"""Plain-text matrix format, CSV files written deterministically, and keyed
binary copies of float CSVs.

Matrix files: a header line "rows cols", then exactly rows * cols
whitespace-separated entries in row-major order, newline-terminated.

CSV files: the header line first, then one line per row, cells joined by ","
and every line ended by "\n" (the last one too).  Floats are written as
their shortest round-tripping `repr` ("nan" for a missing value, "-0.0",
"5e-324"), so identical runs produce identical bytes and reading a cell back
with `float` gives the same float.  `write_csv` takes a float array or an
iterable of rows of mixed values; it formats an array CSV_CHUNK_ROWS rows at
a time, one column at a time, so no Python code runs per float cell.
Reading skips blank and whitespace-only lines; `read_csv_lines` returns the
remaining lines unsplit, `read_csv` every cell as a string, `read_csv_floats`
a float array checked against the header and parsed by numpy's text reader.

`save_float_copy` writes a table just written by `write_csv` again as the
CSV's SHA-256 (its key) and little-endian float64 rows; `load_float_copy`
returns it only while the key matches the CSV, bit for bit what parsing the
CSV would give, and None otherwise.  Every writer here returns the SHA-256
digest of the bytes it wrote.
"""

import hashlib
from itertools import chain

import numpy as np

from .errors import MissingInput


CSV_CHUNK_ROWS = 4096


def format_value(v):
    if isinstance(v, (bool, np.bool_)):
        return "True" if v else "False"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_hashed(path, chunks):
    """Write the byte chunks to `path`; the SHA-256 digest of what was written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for data in chunks:
            digest.update(data)
            fh.write(data)
    return digest.digest()


def write_text(path, text):
    return _write_hashed(path, [text.encode()])


def save_matrix(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    rows = (" ".join(map(float.__repr__, row)) for row in M.tolist())
    return write_text(path, "\n".join([f"{M.shape[0]} {M.shape[1]}", *rows, ""]))


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
    if len(tokens) - 2 > rows * cols:
        raise ValueError(f"matrix file {path} has more than {rows} x {cols} entries")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"matrix file {path} has non-finite entries")
    return vals.reshape(rows, cols)


def _formatted_columns(rows):
    """The rows in chunks, each as a list of columns of formatted cells: an
    array in chunks of at most CSV_CHUNK_ROWS, mixed rows (a few) in one."""
    if isinstance(rows, np.ndarray):
        for lo in range(0, len(rows), CSV_CHUNK_ROWS):
            yield [list(map(float.__repr__, col))
                   for col in rows[lo:lo + CSV_CHUNK_ROWS].T.tolist()]
    elif rows := list(rows):
        yield [list(map(format_value, col)) for col in zip(*rows, strict=True)]


def write_csv(path, header, rows):
    """Write `header` and `rows`: a 2-D float array, or an iterable of
    equally long rows of mixed values."""
    lines = chain([",".join(header)], ("\n".join(map(",".join, zip(*cols)))
                                        for cols in _formatted_columns(rows)))
    return _write_hashed(path, (text.encode() + b"\n" for text in lines))


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
    of shape (rows, len(columns)).  numpy's text reader parses the cells; a
    cell is a number when it is an ASCII decimal, `inf` or `nan` literal as
    `float` spells it, without underscores, with optional surrounding
    whitespace."""
    lines = read_csv_lines(path)
    header = lines[0].split(",")
    if header != columns:
        raise MissingInput(f"{path} has unexpected columns {header}")
    body = lines[1:]
    if not body:                # checked here: numpy's reader warns on no data
        raise MissingInput(f"{path} has a header but no samples")
    malformed = f"{path} has rows that are not {len(columns)} numbers"
    try:
        data = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        raise MissingInput(malformed) from None
    if data.shape != (len(body), len(columns)):
        raise MissingInput(malformed)
    return data


def save_float_copy(path, key, table):
    """Write `table`, just written to a CSV by `write_csv`, to `path`: `key`,
    the digest `write_csv` returned, then the rows as little-endian float64
    with every NaN the one that parsing "nan" gives."""
    table = np.asarray(table, dtype=float)
    rows = np.where(np.isnan(table), np.nan, table).astype("<f8", copy=False)
    return _write_hashed(path, [key, rows])


def load_float_copy(path, csv_path, columns):
    """The float array that `save_float_copy` wrote to `path` from the CSV
    `csv_path` with header `columns`, writable like a parsed one; None where
    `path` is missing or is not a copy of `csv_path` as it now is."""
    try:
        with open(path, "rb") as fh:
            buf = bytearray(fh.read())
    except OSError:
        return None
    with open(csv_path, "rb") as fh:
        text = fh.read()
    rows = text.count(b"\n") - 1           # write_csv writes no blank lines
    if (buf[:32] != hashlib.sha256(text).digest() or rows < 1
            or len(buf) != 32 + 8 * len(columns) * rows
            or not text.startswith((",".join(columns) + "\n").encode())):
        return None
    return np.frombuffer(buf, dtype="<f8", offset=32).reshape(rows, len(columns))
