"""Experiment configuration: INI-style grammar, validation, serialization.

Grammar: `[section]` headers, `key = value` lines, `#` starts a comment,
blank lines ignored.  Values parse as int, float, comma-separated list,
semicolon-separated matrix rows, or fall back to (possibly spaced) strings.
Every semantic violation is collected and reported together with the line
number where the key was set.  The damping kinds are damping.BY_NAME's keys;
the `a_profile` grammar is parse_profile's, which cli.build_system calls too.
"""

from dataclasses import dataclass, field

import numpy as np

from .damping import BY_NAME
from .errors import ParseError, ValidationError

KEYS = {   # section -> the keys it takes; validate refuses any other
    "system": ("name", "A", "B", "A_file", "B_file", "k", "N", "L", "a_profile"),
    "damping": ("kind", "s0", "c", "q", "C1", "C2", "verify_dim", "verify_trials"),
    "sim": ("dt", "t_end", "error_control", "local_error_target", "z0"),
    "analysis": ("certificate", "r", "c_S", "gamma", "C_theta", "fits", "radii",
                 "window_lo", "window_hi"),
    "output": ("directory", "formats")}
SECTIONS = tuple(KEYS)
SUBCOMMAND_DEFAULTS = {
    "sim": {"dt": 1e-3, "error_control": "on", "local_error_target": 1e-8,
            "t_end": 10.0},
    "damping": {"kind": "linear", "s0": 1.0, "q": 0.5, "c": 1.0,
                "verify_dim": 4, "verify_trials": 1000},
    "analysis": {"fits": ["exponential"]},
    "output": {"directory": "out", "formats": ["csv"]},
}
DAMPING_KINDS = tuple(BY_NAME)
SYSTEM_NAMES = ("finite_dim", "kdv", "wave")


@dataclass
class ExperimentConfig:
    system: dict = field(default_factory=dict)
    damping: dict = field(default_factory=dict)
    sim: dict = field(default_factory=dict)
    analysis: dict = field(default_factory=dict)
    output: dict = field(default_factory=dict)
    lines: dict = field(default_factory=dict)     # (section, key) -> line number
    base_dir: str = "."                           # anchor for file references

    def section(self, name):
        return getattr(self, name)

    def get(self, section, key, default=None):
        return self.section(section).get(key, default)


def _parse_scalar(tok):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        pass
    return tok


def _parse_value(text):
    text = text.strip()
    if ";" in text:
        rows = [[_parse_scalar(t.strip()) for t in row.split(",")]
                for row in text.split(";") if row.strip()]
        return np.array(rows, dtype=float)
    if "," in text:
        return [_parse_scalar(t.strip()) for t in text.split(",") if t.strip()]
    return _parse_scalar(text)


def parse_config(text):
    """Parse and validate; raises ParseError (syntax) or ValidationError."""
    cfg = ExperimentConfig()
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"line {lineno}: unterminated section header")
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ParseError(f"line {lineno}: unknown section [{name}]")
            section = name
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        if section is None:
            raise ParseError(f"line {lineno}: assignment before any [section]")
        key, val = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ParseError(f"line {lineno}: empty key")
        try:
            cfg.section(section)[key] = _parse_value(val)
        except ValueError as exc:           # matrix rows that are not numbers
            raise ParseError(f"line {lineno}: [{section}] {key}: {exc}") from None
        cfg.lines[(section, key)] = lineno

    for sect, defaults in SUBCOMMAND_DEFAULTS.items():
        for k, v in defaults.items():
            cfg.section(sect).setdefault(k, v)

    problems = validate(cfg)
    if problems:
        raise ValidationError(problems)
    return cfg


def parse_profile(text):
    """The profile a(x) that an `a_profile` value names: `constant c`, or
    `indicator lo hi amplitude` (the amplitude on [lo, hi], 0 elsewhere) with
    lo < hi; finite numbers, amplitude >= 0.  ValueError says what fails."""
    toks = str(text).split()
    if toks[:1] not in (["constant"], ["indicator"]):
        raise ValueError("expected 'constant c' or 'indicator lo hi amplitude'")
    if toks[0] == "constant" and len(toks) != 2:
        raise ValueError("constant profile takes one amplitude")
    if toks[0] == "indicator" and len(toks) != 4:
        raise ValueError("indicator profile takes lo hi amplitude")
    try:
        *window, amp = (float(t) for t in toks[1:])
    except ValueError:
        window, amp = [], np.nan
    if not np.all(np.isfinite(window + [amp])):
        raise ValueError(f"bounds and amplitude must be finite numbers, got {text!r}")
    if amp < 0:
        raise ValueError(f"amplitude must be >= 0, got {text!r}")
    lo, hi = window or (-np.inf, np.inf)         # constant: amplitude everywhere
    if lo >= hi:
        raise ValueError(f"indicator needs lo < hi, got {text!r}")
    return lambda x: amp if lo <= x <= hi else 0.0


def validate(cfg):
    problems = []

    def where(sect, key):
        ln = cfg.lines.get((sect, key))
        return f" (line {ln})" if ln is not None else ""

    def bad(sect, key, msg):
        # one line: the repr of a matrix value spans several
        problems.append(" ".join(f"[{sect}] {key}: {msg}{where(sect, key)}".split()))

    def choice(sect, key):
        # a key that names one of several choices; a number, list or matrix
        # there names none of them
        val = cfg.get(sect, key)
        return val if val is None or isinstance(val, str) else repr(val)

    def positive(x):
        return isinstance(x, (int, float)) and 0 < x < np.inf

    def finite(x):
        return isinstance(x, (int, float)) and bool(np.isfinite(x))

    for sect, key in [(s, k) for s, k in cfg.lines if k not in KEYS[s]]:
        bad(sect, key, "unknown key; one of " + "|".join(KEYS[sect]))
    name = choice("system", "name")
    if name is None:
        bad("system", "name", "required; one of " + "|".join(SYSTEM_NAMES))
    elif name not in SYSTEM_NAMES:
        bad("system", "name", f"unknown system {name!r}")
    if name in ("kdv", "wave"):
        N = cfg.get("system", "N")
        if not isinstance(N, int) or N < 16:
            bad("system", "N", f"must be an integer >= 16, got {N!r}")
        try:
            parse_profile(cfg.get("system", "a_profile", "constant 1.0"))
        except ValueError as exc:
            bad("system", "a_profile", str(exc))

    kind, q = choice("damping", "kind"), cfg.get("damping", "q")
    if kind not in DAMPING_KINDS:
        bad("damping", "kind", f"unknown kind {kind!r}; one of " + "|".join(DAMPING_KINDS))
    elif "q" in BY_NAME[kind][1] and not (isinstance(q, (int, float)) and 0 < q < 1):
        bad("damping", "q", f"must lie in (0, 1), got {q!r}")
    for key, least in (("verify_dim", 1), ("verify_trials", 100)):
        val = cfg.get("damping", key)
        if not isinstance(val, int) or val < least:
            bad("damping", key, f"must be an integer >= {least}, got {val!r}")
    ec = choice("sim", "error_control")
    if ec not in ("on", "off"):
        bad("sim", "error_control", f"must be on|off, got {ec!r}")

    # positive and finite: required or defaulted keys, optional keys, auto keys
    required = [("system", "L", 2 * np.pi)] if name == "kdv" else []
    required += [("system", "k", 1.0), ("damping", "s0", None), ("sim", "dt", None),
                 ("sim", "t_end", None), ("sim", "local_error_target", None)]
    for sect, key, default in required:
        val = cfg.get(sect, key, default)
        if not positive(val):
            bad(sect, key, f"must be positive and finite, got {val!r}")
    for sect, key in (("damping", "c"), ("damping", "C1"), ("damping", "C2"),
                      ("analysis", "r"), ("analysis", "gamma")):
        val = cfg.get(sect, key)
        if val is not None and not positive(val):
            bad(sect, key, f"must be positive and finite, got {val!r}")
    for key in ("c_S", "C_theta"):
        val = cfg.get("analysis", key)
        if not (val is None or positive(val) or choice("analysis", key) == "auto"):
            bad("analysis", key, f"must be positive and finite or auto, got {val!r}")

    for key in ("radii", "fits"):               # one value is a list of one
        if cfg.get("analysis", key) is not None and not isinstance(cfg.analysis[key], list):
            cfg.analysis[key] = [cfg.analysis[key]]
    radii = cfg.get("analysis", "radii")
    if radii is not None:
        vals = [r for r in radii if positive(r)]
        if len(vals) != len(radii) or any(b <= a for a, b in zip(vals, vals[1:])):
            bad("analysis", "radii", f"must be positive and increasing, got {radii!r}")
    for f in cfg.get("analysis", "fits") or []:
        if not isinstance(f, str) or f not in ("exponential", "polynomial"):
            bad("analysis", "fits", f"unknown fit {f!r}")
    lo, hi = cfg.get("analysis", "window_lo"), cfg.get("analysis", "window_hi")
    for key, val in (("window_lo", lo), ("window_hi", hi)):
        if val is not None and not finite(val):
            bad("analysis", key, f"must be a finite time, got {val!r}")
    if finite(lo) and finite(hi) and lo >= hi:
        bad("analysis", "window_hi", f"must exceed window_lo = {lo!r}, got {hi!r}")
    certkind = choice("analysis", "certificate")
    if certkind is not None and certkind not in ("exp", "semiglobal", "poly"):
        bad("analysis", "certificate", f"must be exp|semiglobal|poly, got {certkind!r}")

    return problems


def serialize(cfg):
    """Config back to text; parse(serialize(parse(text))) is stable."""
    lines = []
    for sect in SECTIONS:
        data = cfg.section(sect)
        if not data:
            continue
        lines.append(f"[{sect}]")
        for key in sorted(data):
            v = data[key]
            if isinstance(v, np.ndarray):
                body = "; ".join(", ".join(repr(float(x)) for x in row) for row in v)
            elif isinstance(v, list):
                body = ", ".join(str(x) for x in v)
            else:
                body = str(v)
            lines.append(f"{key} = {body}")
        lines.append("")
    return "\n".join(lines)
