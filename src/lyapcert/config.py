"""Experiment configuration: INI-style grammar, validation, serialization.

Grammar: `[section]` headers, `key = value` lines, `#` starts a comment,
blank lines ignored.  Values parse as int, float, comma-separated list,
semicolon-separated matrix rows, or fall back to (possibly spaced) strings.
KEYS gives each key its default, which parse_config stores where the config
leaves the key out, and its rule, which validate applies whatever the system
or damping kind; all violations are reported together, each with its line.
The damping kinds are damping.BY_NAME's keys; the `a_profile` grammar is
parse_profile's, which cli.build_system calls too.
"""

from dataclasses import dataclass, field

import numpy as np

from .damping import BY_NAME
from .errors import ParseError, ValidationError


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


def _positive(x):
    return isinstance(x, (int, float)) and 0 < x < np.inf


def _finite(x):
    return isinstance(x, (int, float)) and bool(np.isfinite(x))


def _choice(val):
    """A choice key's value as named: a number, list or matrix names no choice."""
    return val if val is None or isinstance(val, str) else repr(val)


def _rule(test, message):
    """A key's rule: no problem where test(value) holds, else message with the value."""
    return lambda val: [] if test(val) else [message.format(val)]


def _one_of(names, message):
    return lambda val: _rule(names.__contains__, message)(_choice(val))


def _integer(least):
    return _rule(lambda x: isinstance(x, int) and x >= least,
                 f"must be an integer >= {least}, got {{!r}}")


def _profile(text):
    try:
        parse_profile(text)
    except ValueError as exc:
        return [str(exc)]
    return []


def _increasing(radii):
    vals = [r for r in radii if _positive(r)]
    return len(vals) == len(radii) and all(a < b for a, b in zip(vals, vals[1:]))


DAMPING_KINDS = tuple(BY_NAME)
SYSTEM_NAMES = ("finite_dim", "kdv", "wave")
FITS = ("exponential", "polynomial")
POSITIVE = _rule(_positive, "must be positive and finite, got {!r}")
POSITIVE_OR_AUTO = _rule(lambda x: _positive(x) or _choice(x) == "auto",
                         "must be positive and finite or auto, got {!r}")
FINITE_TIME = _rule(_finite, "must be a finite time, got {!r}")
# section -> key -> (default, rule).  parse_config stores the default of every
# key the config leaves out (None: there is none); validate applies the rule to
# the value a key holds (None: the CLI checks it where it reads it) and refuses
# any key not listed here.
KEYS = {
    "system": {"name": (None, _one_of(SYSTEM_NAMES, "unknown system {!r}")),
               "A": (None, None), "B": (None, None), "A_file": (None, None),
               "B_file": (None, None), "k": (1.0, POSITIVE), "N": (None, _integer(16)),
               "L": (2 * np.pi, POSITIVE), "a_profile": ("constant 1.0", _profile)},
    "damping": {"kind": ("linear", _one_of(DAMPING_KINDS, "unknown kind {!r}; one of "
                                           + "|".join(DAMPING_KINDS))),
                "s0": (1.0, POSITIVE), "c": (1.0, POSITIVE),
                "q": (0.5, _rule(lambda q: isinstance(q, (int, float)) and 0 < q < 1,
                                 "must lie in (0, 1), got {!r}")),
                "C1": (None, POSITIVE), "C2": (None, POSITIVE),
                "verify_dim": (4, _integer(1)), "verify_trials": (1000, _integer(100))},
    "sim": {"dt": (1e-3, POSITIVE), "t_end": (10.0, POSITIVE),
            "error_control": ("on", _one_of(("on", "off"), "must be on|off, got {!r}")),
            "local_error_target": (1e-8, POSITIVE), "z0": ("eigvec 0 1.0", None)},
    "analysis": {"certificate": (None, _one_of(("exp", "semiglobal", "poly"),
                                               "must be exp|semiglobal|poly, got {!r}")),
                 "r": (1.0, POSITIVE), "c_S": ("auto", POSITIVE_OR_AUTO),
                 "gamma": (1.0, POSITIVE), "C_theta": ("auto", POSITIVE_OR_AUTO),
                 "fits": (["exponential"], lambda fits: [
                     f"unknown fit {f!r}" for f in fits if _choice(f) not in FITS]),
                 "radii": (None, _rule(_increasing, "must be positive and increasing, got {!r}")),
                 "window_lo": (None, FINITE_TIME), "window_hi": (None, FINITE_TIME)},
    "output": {"directory": ("out", None)}}
SECTIONS = tuple(KEYS)


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
    cfg = ExperimentConfig(**{sect: {key: default for key, (default, _) in keys.items()
                                     if default is not None} for sect, keys in KEYS.items()})
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

    problems = validate(cfg)
    if problems:
        raise ValidationError(problems)
    return cfg


def validate(cfg):
    """The problems of cfg, one line each: the rule of every key in KEYS, and
    the checks that no single key's value decides."""
    problems = []

    def bad(sect, key, msg):
        ln = cfg.lines.get((sect, key))
        where = f" (line {ln})" if ln is not None else ""
        # one line: the repr of a matrix value spans several
        problems.append(" ".join(f"[{sect}] {key}: {msg}{where}".split()))

    for sect, key in [(s, k) for s, k in cfg.lines if k not in KEYS[s]]:
        bad(sect, key, "unknown key; one of " + "|".join(KEYS[sect]))
    name = _choice(cfg.get("system", "name"))
    if name is None:
        bad("system", "name", "required; one of " + "|".join(SYSTEM_NAMES))
    for key in ("radii", "fits"):               # one value is a list of one
        if not isinstance(cfg.analysis.get(key, []), list):
            cfg.analysis[key] = [cfg.analysis[key]]
    for sect, keys in KEYS.items():
        for key, (_, rule) in keys.items():
            val = cfg.get(sect, key)
            required = key == "N" and name in ("kdv", "wave")
            if rule and (val is not None or required):
                for msg in rule(val):
                    bad(sect, key, msg)
    lo, hi = cfg.get("analysis", "window_lo"), cfg.get("analysis", "window_hi")
    if _finite(lo) and _finite(hi) and lo >= hi:
        bad("analysis", "window_hi", f"must exceed window_lo = {lo!r}, got {hi!r}")
    return problems


def serialize(cfg):
    """Config back to text; parse(serialize(parse(text))) is stable."""
    lines = []
    for sect in SECTIONS:
        data = cfg.section(sect)               # every section holds its defaults
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
