"""Property-based tests of the input layer: config grammar, matrix files, CSV
reading and writing, and the CLI failure contract (exit 0, or exit nonzero
with one `ERROR <Name>: ...` line last).  Derandomized with bounded example
counts so the suite stays deterministic and fast.
"""

import contextlib
import io
import os
import re
import tempfile

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lyapcert import config
from lyapcert.cli import TRAJECTORY_COLUMNS, _load_trajectory, _trajectory_table, main
from lyapcert.config import ExperimentConfig, parse_config
from lyapcert.errors import MissingInput, ParseError, ValidationError
from lyapcert.io import CSV_CHUNK_ROWS, load_matrix, read_csv, read_csv_floats, write_csv
from lyapcert.sim import Trajectory

def fuzz(max_examples):
    return settings(derandomize=True, max_examples=max_examples, deadline=None,
                    database=None, suppress_health_check=[HealthCheck.too_slow])


ERROR_LINE = re.compile(r"ERROR [A-Za-z_]\w*: ")

# single-line text without the characters that end a value (newline, comment)
FREE_TEXT = st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                  blacklist_characters="#"), max_size=12)
NUMBERS = st.sampled_from(["0", "1", "-1", "2", "0.5", "1e-3", "-0.25", "1e309",
                           "nan", "inf", "-inf", "3.0"])
VALUES = st.one_of(
    NUMBERS,
    st.sampled_from(["", "x", "1, 2", "1; 2", "1, 2; 3", "0, 1; -1, 0", "1,; ,",
                     "a, b; c, d", "on", "off", "exp", "semiglobal", "poly",
                     "exponential", "polynomial", "exponential, polynomial",
                     "linear", "clamp", "tanh", "arctan", "weak", "norm_saturation",
                     "constant 1.0", "constant", "constant x", "constant nan",
                     "indicator 0.2 0.8 1", "indicator 0.2 x 1", "indicator 0.2 0.8 inf",
                     "indicator 0.2", "finite_dim", "kdv", "wave", "eigvec 0 1.0",
                     "eigvec", "eigvec 7 1", "eigvec -1 2", "eigvec x y", "eigvec 0 nan",
                     "file z0.vec", "file", "file missing.vec", "file .", ".", "auto"]),
    FREE_TEXT)
KEYS = st.sampled_from(["name", "A", "B", "A_file", "B_file", "k", "L",
                        "a_profile", "kind", "s0", "q", "c", "C1", "C2",
                        "error_control", "local_error_target", "z0",
                        "certificate", "r", "c_S", "gamma", "C_theta", "fits",
                        "radii", "window_lo", "window_hi", "directory"])
SECTIONS = st.sampled_from(["system", "damping", "sim", "analysis", "output"])


def config_lines():
    """Config text as lines: sections of key = value assignments, mixed with
    stray headers, comments and free text."""
    assignment = st.builds(lambda k, v: f"{k} = {v}", KEYS, VALUES)
    section = st.builds(lambda name, body: [f"[{name}]"] + body,
                        SECTIONS, st.lists(assignment, max_size=5))
    stray = st.one_of(st.builds(lambda t: f"[{t}]", FREE_TEXT),
                      st.builds(lambda t: f"# {t}", FREE_TEXT),
                      st.builds(lambda k, v: f"{k} = {v}", FREE_TEXT, VALUES), FREE_TEXT)
    return st.lists(st.one_of(section, section, st.builds(lambda t: [t], stray)),
                    max_size=6).map(lambda blocks: [ln for b in blocks for ln in b])


@fuzz(300)
@given(config_lines())
def test_parse_config_returns_or_raises_config_errors(lines):
    try:
        cfg = parse_config("\n".join(lines))
    except (ParseError, ValidationError):
        return
    assert isinstance(cfg, ExperimentConfig)


MATRIX_TOKENS = st.one_of(NUMBERS, st.sampled_from(["x", "2x", "", "-", "1e", "0x10"]),
                          st.integers(-3, 4).map(str))


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


@fuzz(200)
@given(st.lists(MATRIX_TOKENS, max_size=10), st.sampled_from([" ", "\n", "\t"]))
def test_load_matrix_returns_header_shape_or_names_the_file(tokens, sep):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "M.mat")
        write(path, sep.join(tokens))
        try:
            M = load_matrix(path)
        except ValueError as exc:
            assert path in str(exc)
            return
        assert M.shape == (int(tokens[0]), int(tokens[1]))


@fuzz(100)
@given(st.lists(st.one_of(FREE_TEXT, st.just("")), max_size=6))
def test_read_csv_returns_rows_or_reports_empty_file(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        write(path, "\n".join(lines))
        try:
            header, rows = read_csv(path)
        except MissingInput as exc:
            assert path in str(exc) and not any(ln.strip() for ln in lines)
            return
        kept = [ln for ln in lines if ln.strip()]
        assert header == kept[0].split(",")
        assert rows == [ln.split(",") for ln in kept[1:]]


EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308]
FINITE = st.one_of(st.sampled_from(EDGE_FLOATS),
                   st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def trajectory_columns(draw):
    """times (strictly increasing), norm_H, norm_DA, V and damping_power; some
    runs cross the writer's chunk boundary, and V may be all nan (no
    certificate)."""
    length = draw(st.sampled_from([None] * 9 + [CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                               2 * CSV_CHUNK_ROWS + 3]))
    if length is None:
        times = np.unique(draw(st.lists(FINITE, min_size=1, max_size=20)))
        length = len(times)
    else:
        times = np.arange(length) * draw(st.sampled_from([5e-324, 1e-300, 2e-3, 1e300]))
    cols = [times] + [np.resize(np.array(draw(st.lists(FINITE, min_size=1, max_size=20))),
                                length) for _ in range(4)]
    if draw(st.booleans()):
        cols[3] = np.full(length, np.nan)
    return cols


@fuzz(60)
@given(trajectory_columns())
def test_trajectory_csv_bytes_and_round_trip(cols):
    times, norm_H, norm_DA, V, power = cols
    no_V = bool(np.all(np.isnan(V)))
    traj = Trajectory(times=times, states=np.zeros((len(times), 1)), norm_H=norm_H,
                      norm_DA=norm_DA, damping_power=power, V_values=None if no_V else V)
    oracle = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in zip(*cols))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trajectory.csv")
        write_csv(path, TRAJECTORY_COLUMNS, _trajectory_table(traj))
        with open(path, "rb") as fh:
            written = fh.read().decode()
        data = read_csv_floats(path, TRAJECTORY_COLUMNS)
        # the unit-ball entry time that loading computes may overflow on
        # extreme times; only the columns are compared here
        with np.errstate(all="ignore"):
            loaded = _load_trajectory(tmp)
    assert written == ",".join(TRAJECTORY_COLUMNS) + "\n" + oracle
    # every column bit for bit: nan and the sign of -0.0 included
    assert np.array_equal(data.view(np.uint64), np.column_stack(cols).view(np.uint64))
    assert (loaded.V_values is None) == no_V
    for got, want in [(loaded.times, times), (loaded.norm_H, norm_H)] + (
            [] if no_V else [(loaded.V_values, V)]):
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))      # -0.0 kept


BASE_CONFIG = {
    "system": {"name": "finite_dim", "A_file": "A.mat", "B_file": "B.mat"},
    "damping": {"kind": "clamp", "verify_dim": "2", "verify_trials": "100"},
    "sim": {"dt": "0.05", "t_end": "1.0", "error_control": "off", "z0": "eigvec 0 2.0"},
    "analysis": {"certificate": "exp", "fits": "exponential", "radii": "1, 2"},
}


def copies(make, n):
    """n strategies that make() builds apart: st.one_of draws its distinct
    strategies alike and keeps only one of several that are the same object."""
    return [make() for _ in range(n)]


# well-formed 2-state matrices three times as often as malformed files, so
# that most examples get past the loaders into the subcommands
WELL_FORMED = ["2 2\n0 1\n-1 0\n", "2 2\n-1 0\n0 -2\n", "2 1\n1\n0\n", "2 1\n0\n0\n",
               "2 2\n1 0\n0 1\n", "2 1\n2\n0\n", "2 2\nnan 0\n0 -1\n",
               "2 2\n1e308 0\n0 -1\n", "1 2\n1 0\n", "2 1\n1e-300\n-3\n"]
MATRIX_TEXT = st.one_of(
    *copies(lambda: st.sampled_from(WELL_FORMED), 3),
    st.sampled_from(["1 1\n-1\n", "3 1\n1\n0\n0\n", "2 3\n0 1 0\n-1 0 0\n",
                     "2 2\n0 1\n-1 x\n", "2 2\n0 1\n", "", "2\n", "0 0\n"]),
    st.lists(MATRIX_TOKENS, max_size=8).map(" ".join))
TRAJECTORY_TEXT = st.one_of(
    st.sampled_from(["", "t,norm_H,norm_DA,V,damping_power\n",
                     "t,norm_H,norm_DA,V,damping_power\n0,1,2,3,4\n1,0.5,1,1\n",
                     "t,norm_H,norm_DA,V,damping_power\n0,1,2,nan,0\n0,1,2,nan,0\n",
                     "t,norm_H,norm_DA,V,damping_power\n0,1,x,1,0\n",
                     "a,b\n1,2\n"]),
    st.builds(lambda rows: "t,norm_H,norm_DA,V,damping_power\n" + "\n".join(
        ",".join(repr(float(v)) for v in row) for row in rows) + "\n",
        st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 5), min_size=1, max_size=15)))
SUBCOMMANDS = st.sampled_from(["simulate", "certify", "check-damping", "fit-decay",
                               "sweep", "verify", "report"])
# keys that set the size of a run take values from a bounded set, so that
# every example stays a short run
SIZED = {("sim", "dt"): ("0", "-1", "x", "nan", "0.1", "1e300"),
         ("sim", "t_end"): ("0", "x", "inf", "0.5", "1e-300"),
         ("system", "N"): ("16", "4", "x", "-4", "16.5"),
         ("damping", "verify_dim"): ("0", "-1", "x", "3", "2.5", "nan", "inf"),
         ("damping", "verify_trials"): ("10", "x", "120", "150.5", "nan", "inf")}

# values that their key takes (a positive number where the key is not named),
# so that most edits of a known key get past validation
TAKEN = {"name": ("finite_dim", "kdv", "wave"), "A": ("0, 1; -1, 0",), "B": ("1; 0",),
         "A_file": ("A.mat",), "B_file": ("B.mat",), "a_profile": ("constant 1.0",),
         "kind": ("linear", "clamp", "tanh", "arctan", "norm_saturation", "weak"),
         "error_control": ("on", "off"), "z0": ("eigvec 0 1.0", "file z0.vec"),
         "certificate": ("exp", "semiglobal", "poly"), "fits": ("exponential", "polynomial"),
         "radii": ("1, 2",), "c_S": ("auto", "0.5"), "C_theta": ("auto", "2"),
         "directory": (".",)}


def known_edit(pair):
    """Sets the key of pair, one of config.KEYS, or removes it (value None): a
    key of SIZED to one of its values, any other six times in eight to a value
    that it takes, else to one of VALUES or away."""
    values = (st.sampled_from(SIZED[pair]) if pair in SIZED else
              st.one_of(*copies(lambda: st.sampled_from(TAKEN.get(pair[1], ("0.5", "1", "2"))),
                                6), VALUES, st.none()))
    return values.map(lambda value: (*pair, value))


# nine in ten edits take a (section, key) pair of config.KEYS; the tenth draws
# a section and a key apart, which the section mostly does not take, so that
# the unknown-key refusal stays covered
EDITS = st.lists(st.one_of(
    *copies(lambda: st.sampled_from([(section, key) for section, keys in config.KEYS.items()
                                     for key in keys]).flatmap(known_edit), 9),
    st.tuples(SECTIONS, KEYS, st.one_of(VALUES, st.none()))), max_size=4)


@fuzz(200)
@given(subcommand=SUBCOMMANDS, edits=EDITS,
       a_text=MATRIX_TEXT, b_text=MATRIX_TEXT, z0_text=MATRIX_TEXT,
       trajectory=st.one_of(st.none(), TRAJECTORY_TEXT))
def test_cli_exits_zero_or_prints_error_line_last(subcommand, edits, a_text, b_text,
                                                  z0_text, trajectory):
    sections = {name: dict(keys) for name, keys in BASE_CONFIG.items()}
    for section, key, value in edits:
        if value is None:
            sections.setdefault(section, {}).pop(key, None)
        else:
            sections.setdefault(section, {})[key] = value
    text = "\n".join(f"[{name}]\n" + "\n".join(f"{k} = {v}" for k, v in keys.items())
                     for name, keys in sections.items()) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        for name, content in (("A.mat", a_text), ("B.mat", b_text), ("z0.vec", z0_text),
                              ("run.cfg", text)):
            write(os.path.join(tmp, name), content)
        if trajectory is not None:
            write(os.path.join(tmp, "trajectory.csv"), trajectory)
        out = io.StringIO()
        # overflow in deliberately extreme inputs is part of the run, not a
        # finding; keep numpy's floating-point warnings out of the test log
        with contextlib.redirect_stdout(out), np.errstate(all="ignore"):
            rc = main([subcommand, "--config", os.path.join(tmp, "run.cfg"),
                       "--out", tmp])
    printed = out.getvalue().strip().splitlines()
    assert rc == 0 or (printed and ERROR_LINE.match(printed[-1])), (rc, printed[-3:])


# a key that takes a number (or a file that holds numbers), the text that
# sets it with {} standing for the drawn token, and the name the ERROR line
# must carry
NUMERIC_INPUTS = st.sampled_from(
    [(sect, key, "{}", f"[{sect}] {key}:")
     for sect, key in (("damping", "C1"), ("damping", "C2"), ("damping", "c"),
                       ("damping", "verify_dim"), ("damping", "verify_trials"),
                       ("analysis", "r"), ("analysis", "gamma"), ("analysis", "c_S"),
                       ("analysis", "C_theta"), ("sim", "local_error_target"),
                       ("analysis", "window_lo"), ("analysis", "window_hi"))]
    + [("sim", "z0", "eigvec 0 {}", "[sim] z0:"),
       ("system", "A", "0, 1; -1, {}", "[system] A:"),
       ("system", "a_profile", "constant {}", "[system] a_profile:"),
       ("system", "a_profile", "indicator {} 0.8 1", "[system] a_profile:"),
       ("file", "A.mat", "2 2\n0 1\n-1 {}\n", "A.mat"),
       ("file", "B.mat", "2 1\n{}\n0\n", "B.mat"),
       ("file", "z0.vec", "2 1\n{}\n0\n", "z0.vec")])
NOT_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e309", "NaN", "x", "1x", "0x10", "1; 2"])


@fuzz(120)
@given(target=NUMERIC_INPUTS, token=NOT_FINITE)
def test_cli_names_the_key_of_a_non_finite_or_non_numeric_value(target, token):
    sect, key, template, name = target
    sections = {s: dict(keys) for s, keys in BASE_CONFIG.items()}
    sections["sim"]["z0"] = "file z0.vec"
    files = {"A.mat": "2 2\n0 1\n-1 0\n", "B.mat": "2 1\n1\n0\n", "z0.vec": "2 1\n2\n0\n"}
    value = template.format(token)
    if sect == "file":
        files[key] = value
    else:
        sections[sect][key] = value
    if key == "a_profile":
        sections["system"].update(name="kdv", N="16")
    text = "\n".join(f"[{s}]\n" + "\n".join(f"{k} = {v}" for k, v in keys.items())
                     for s, keys in sections.items()) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        for fname, content in list(files.items()) + [("run.cfg", text)]:
            write(os.path.join(tmp, fname), content)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(["simulate", "--config", os.path.join(tmp, "run.cfg"), "--out", tmp])
    printed = out.getvalue().strip().splitlines()
    assert rc != 0 and ERROR_LINE.match(printed[-1]) and name in printed[-1], (rc, printed[-3:])
