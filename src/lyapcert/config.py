"""Experiment configuration: INI-style grammar, validation, serialization.

Grammar: `[section]` headers, `key = value` lines, `#` starts a comment,
blank lines ignored.  Values parse as int, float, comma-separated list,
semicolon-separated matrix rows, or fall back to (possibly spaced) strings.
Every semantic violation is collected and reported together with the line
number where the key was set.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ParseError, ValidationError

SECTIONS = ("system", "damping", "sim", "analysis", "output")
SUBCOMMAND_DEFAULTS = {
    "sim": {"dt": 1e-3, "error_control": "on", "local_error_target": 1e-8,
            "t_end": 10.0},
    "damping": {"kind": "linear", "s0": 1.0, "q": 0.5, "c": 1.0,
                "verify_dim": 4, "verify_trials": 1000},
    "analysis": {"fits": ["exponential"]},
    "output": {"directory": "out", "formats": ["csv"]},
}
DAMPING_KINDS = ("linear", "norm_saturation", "clamp", "tanh", "arctan", "weak")
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


def _finite_number(tok):
    try:
        return bool(np.isfinite(float(tok)))
    except ValueError:
        return False


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

    name = choice("system", "name")
    if name is None:
        bad("system", "name", "required; one of " + "|".join(SYSTEM_NAMES))
    elif name not in SYSTEM_NAMES:
        bad("system", "name", f"unknown system {name!r}")
    if name in ("kdv", "wave"):
        N = cfg.get("system", "N")
        if not isinstance(N, int) or N < 16:
            bad("system", "N", f"must be an integer >= 16, got {N!r}")
    if name == "kdv":
        L = cfg.get("system", "L", 2 * np.pi)
        if not positive(L):
            bad("system", "L", f"must be positive, got {L!r}")
    k = cfg.get("system", "k", 1.0)
    if not positive(k):
        bad("system", "k", f"must be positive, got {k!r}")
    prof = cfg.get("system", "a_profile")
    if prof is not None and name in ("kdv", "wave"):
        toks = str(prof).split()
        if toks[:1] not in (["constant"], ["indicator"]):
            bad("system", "a_profile", "expected 'constant c' or 'indicator lo hi amplitude'")
        elif toks[0] == "constant" and len(toks) != 2:
            bad("system", "a_profile", "constant profile takes one amplitude")
        elif toks[0] == "indicator" and len(toks) != 4:
            bad("system", "a_profile", "indicator profile takes lo hi amplitude")
        elif not all(_finite_number(t) for t in toks[1:]):
            bad("system", "a_profile", f"bounds and amplitude must be finite numbers, got {prof!r}")

    kind = choice("damping", "kind")
    if kind not in DAMPING_KINDS:
        bad("damping", "kind", f"unknown kind {kind!r}; one of " + "|".join(DAMPING_KINDS))
    s0 = cfg.get("damping", "s0")
    if not positive(s0):
        bad("damping", "s0", f"must be positive, got {s0!r}")
    q = cfg.get("damping", "q")
    if kind == "weak" and not (isinstance(q, (int, float)) and 0 < q < 1):
        bad("damping", "q", f"must lie in (0, 1), got {q!r}")
    for key in ("c", "C1", "C2"):
        val = cfg.get("damping", key)
        if val is not None and not positive(val):
            bad("damping", key, f"must be positive and finite, got {val!r}")
    for key, least in (("verify_dim", 1), ("verify_trials", 100)):
        val = cfg.get("damping", key)
        if not isinstance(val, int) or val < least:
            bad("damping", key, f"must be an integer >= {least}, got {val!r}")

    dt = cfg.get("sim", "dt")
    if not positive(dt):
        bad("sim", "dt", f"must be positive and finite, got {dt!r}")
    t_end = cfg.get("sim", "t_end")
    if not positive(t_end):
        bad("sim", "t_end", f"must be positive and finite, got {t_end!r}")
    ec = choice("sim", "error_control")
    if ec not in ("on", "off"):
        bad("sim", "error_control", f"must be on|off, got {ec!r}")
    target = cfg.get("sim", "local_error_target")
    if not positive(target):
        bad("sim", "local_error_target", f"must be positive and finite, got {target!r}")

    radii = cfg.get("analysis", "radii")
    if radii is not None:
        if not isinstance(radii, list):
            radii = [radii]
            cfg.analysis["radii"] = radii
        vals = [r for r in radii if positive(r)]
        if len(vals) != len(radii) or any(b <= a for a, b in zip(vals, vals[1:])):
            bad("analysis", "radii", f"must be positive and increasing, got {radii!r}")
    fits = cfg.get("analysis", "fits")
    if fits is not None:
        if not isinstance(fits, list):
            fits = [fits]
            cfg.analysis["fits"] = fits
        for f in fits:
            if not isinstance(f, str) or f not in ("exponential", "polynomial"):
                bad("analysis", "fits", f"unknown fit {f!r}")
    for key, may_be_auto in (("r", False), ("gamma", False), ("c_S", True), ("C_theta", True)):
        val = cfg.get("analysis", key)
        if val is None or positive(val) or (may_be_auto and choice("analysis", key) == "auto"):
            continue
        bad("analysis", key, "must be positive and finite" + (" or auto" if may_be_auto else "")
            + f", got {val!r}")
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
