"""Catalogue of nonlinear damping functions and the three-item compliance checker.

A damping function sigma comes with constants C1, C2 and a comparison
function h such that  ||sigma(s) - C1*s||_{S'} <= C2 * h(||s||_S) * <sigma(s), s>_U.
The catalogue covers the identity, norm-level saturation, componentwise
saturations (clamp / tanh / arctan) and the sublinear weak damping
sigma(s) = c * sign(s) * |s|^q with q < 1; every rule but weak damping also
gives its derivative sigma' (`DampingSpec.jacobian`).  The checker states
items 1 (locally Lipschitz) and 2 (monotone) exactly from each rule's sigma'
and samples item 3, the sector inequality.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, require_positive

KINDS = ("linear", "norm_saturation", "componentwise_saturation", "weak_damping")
SCALAR_RULES = {        # rule -> (sigma, sigma') at level s0, entrywise
    "clamp": (lambda x, s0: np.clip(x, -s0, s0), lambda x, s0: (np.abs(x) < s0).astype(float)),
    "tanh": (lambda x, s0: s0 * np.tanh(x / s0), lambda x, s0: 1.0 - np.tanh(x / s0) ** 2),
    "arctan": (lambda x, s0: (2.0 * s0 / np.pi) * np.arctan(np.pi * x / (2.0 * s0)),
               lambda x, s0: 1.0 / (1.0 + (0.5 * np.pi * x / s0) ** 2))}

# Norm tags: U is the weighted l2 control norm; S the discrete sup norm
# (only meaningful when the damping acts componentwise).
U_EUCLIDEAN = "U_euclidean"
S_SUP = "S_sup"

S_NORM_FLOOR = 1e-6     # weak damping's sector check skips ||s||_S below this


@dataclass(frozen=True)
class DampingSpec:
    kind: str
    scalar_rule: str = ""
    s0: float = 1.0
    q: float = 0.5
    c: float = 1.0
    C1: float = 1.0
    C2: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown damping kind {self.kind!r}")
        rules = SCALAR_RULES if self.kind == "componentwise_saturation" else ("",)
        if self.scalar_rule not in rules:
            raise ValueError(f"unknown scalar rule {self.scalar_rule!r} for kind {self.kind!r}")
        if self.kind in ("norm_saturation", "componentwise_saturation"):
            require_positive(s0=self.s0)
        if self.kind == "weak_damping":
            if not (0.0 < self.q < 1.0):
                raise ValueError("weak damping exponent q must lie in (0, 1)")
            require_positive(c=self.c)          # before C1, which weak_damping pins to c
        require_positive(C1=self.C1, C2=self.C2)

    # --- evaluation ---

    def apply(self, s, u_weights=None):
        """sigma(s) along the last axis: one vector s or a (trials, dim) block;
        u_weights are the diagonal U-norm weights."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if self.kind == "linear":
            return s.copy()
        if self.kind == "norm_saturation":
            w = 1.0 if u_weights is None else np.asarray(u_weights)
            ns = np.sqrt(np.sum(w * s * s, axis=-1, keepdims=True))
            return s * (self.s0 / np.maximum(ns, self.s0))
        if self.kind == "componentwise_saturation":
            return SCALAR_RULES[self.scalar_rule][0](s, self.s0)
        # weak damping: c * sign(s) * |s|^q entrywise
        return self.c * np.sign(s) * np.abs(s) ** self.q

    def jacobian(self, s, u_weights=None):
        """d sigma / ds at s as apply lays it out: the diagonal, or for norm saturation
        the matrix (one more axis).  Weak damping has none at 0 (DomainError)."""
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if self.kind == "weak_damping":
            raise DomainError("weak damping sigma = c sign(s) |s|^q has no derivative at 0")
        if self.kind == "norm_saturation":
            w, s0 = (1.0 if u_weights is None else np.asarray(u_weights)), self.s0
            r = np.sqrt(np.sum(w * s * s, axis=-1))[..., None, None]
            outer = s[..., :, None] * (w * s)[..., None, :] / np.maximum(r, s0) ** 2
            return (s0 / np.maximum(r, s0)) * (np.eye(s.shape[-1]) - np.where(r > s0, outer, 0.0))
        if self.kind == "componentwise_saturation":
            return SCALAR_RULES[self.scalar_rule][1](s, self.s0)
        return np.ones_like(s)

    def h_eval(self, x):
        """h(x) for x >= 0: 1 for every kind but weak damping, whose
        h(x) = x^(q-1) is unbounded at 0 (DomainError)."""
        if x < 0:
            raise DomainError("h is defined on x >= 0")
        if self.kind != "weak_damping":
            return 1.0
        if x == 0.0:
            raise DomainError("h(x) = x^(q-1) is unbounded at x = 0")
        return float(x ** (self.q - 1.0))

    def k_integral(self, X, b_norm):
        """K(X) = int_0^X sqrt(v) h(b_norm sqrt(v)) dv in closed form, for a
        scalar or an array X >= 0."""
        X = np.asarray(X, dtype=float)
        if np.any(X < 0):
            raise DomainError("K is defined on X >= 0")
        if self.kind == "weak_damping":
            # sqrt(v) * (b sqrt(v))^(q-1) = b^(q-1) v^(q/2)
            p = 0.5 * self.q + 1.0
            K = b_norm ** (self.q - 1.0) * X**p / p
        else:
            K = (2.0 / 3.0) * X**1.5
        return float(K) if K.ndim == 0 else K


# --- catalogue constructors (defaults satisfy the three-item definition with
#     C1 = 1 and C2 = 1/s0; for weak damping C1 is pinned to the gain c) ---

def linear():
    return DampingSpec(kind="linear", C1=1.0, C2=1.0)


def _saturation(kind, rule, s0):
    require_positive(s0=s0)                 # before C2 = 1/s0 is formed
    return DampingSpec(kind=kind, scalar_rule=rule, s0=s0, C1=1.0, C2=1.0 / s0)


def norm_saturation(s0=1.0):
    return _saturation("norm_saturation", "", s0)


def clamp(s0=1.0):
    return _saturation("componentwise_saturation", "clamp", s0)


def tanh_saturation(s0=1.0):
    return _saturation("componentwise_saturation", "tanh", s0)


def arctan_saturation(s0=1.0):
    return _saturation("componentwise_saturation", "arctan", s0)


def weak_damping(c=1.0, q=0.5):
    return DampingSpec(kind="weak_damping", c=c, q=q, C1=c, C2=1.0)


# Config kind -> (constructor, the [damping] keys it takes); the one list of
# kinds, read by config.validate and cli.build_damping.
BY_NAME = {"linear": (linear, ()), "norm_saturation": (norm_saturation, ("s0",)),
           "clamp": (clamp, ("s0",)), "tanh": (tanh_saturation, ("s0",)),
           "arctan": (arctan_saturation, ("s0",)), "weak": (weak_damping, ("c", "q"))}


# --- definition compliance checker ---

@dataclass
class DampingReport:
    """Outcome of the three-item compliance check: items 1 and 2 exact,
    item 3 sampled."""

    kind: str
    lipschitz_constant: float = np.inf
    monotonicity_min: float = 0.0       # exact for every rule: each is nondecreasing
    sector_margin: float = np.inf
    item1_pass: bool = False
    item2_pass: bool = True
    item3_pass: bool = False
    flags: list = field(default_factory=list)
    samples: int = 0

    def rows(self):
        """CSV-ready rows: (item, margin, pass)."""
        return [
            ("lipschitz_max_ratio", self.lipschitz_constant, self.item1_pass),
            ("monotonicity_min", self.monotonicity_min, self.item2_pass),
            ("sector_margin_min", self.sector_margin, self.item3_pass),
        ]

    def text_block(self):
        names = ("item 1 (locally Lipschitz) constant", "item 2 (monotone) min pairing",
                 f"item 3 (sector inequality) min margin over {self.samples} samples")
        lines = [f"damping kind: {self.kind}"] + [
            f"{name}: {value!r} -> {'pass' if ok else 'FAIL'}"
            for name, (_, value, ok) in zip(names, self.rows())]
        return "\n".join(lines + [f"flag: {f}" for f in self.flags])


def verify_definition(spec, dim, trials=1000, seed=0):
    """The three definition items in dim dimensions; failures land in the report.

    Items 1 and 2 are exact.  Each rule is the identity, a projection onto a
    ball (norm saturation) or odd, entrywise and concave on u >= 0, so its
    Lipschitz constant is ||sigma'(0)||; weak damping has no sigma'(0) and no
    finite constant (inf).  Each rule is nondecreasing, so the pairing
    <sigma(a) - sigma(b), a - b> has the exact infimum 0 (at a = b).
    Item 3 is sampled: trials >= 100 seeded draws.  For weak damping the sector
    inequality is evaluated only on samples with ||s||_S > S_NORM_FLOOR and the
    report flags the singular h(0).
    """
    if trials < 100:
        raise ValueError("trials must be >= 100")
    report = DampingReport(kind=spec.kind if spec.kind != "componentwise_saturation"
                           else f"{spec.kind}:{spec.scalar_rule}", samples=trials)
    try:
        J = spec.jacobian(np.zeros(dim))        # a diagonal, or norm saturation's matrix
        report.lipschitz_constant = float(np.linalg.norm(J, 2 if J.ndim == 2 else np.inf))
    except DomainError:
        report.lipschitz_constant = np.inf
    report.item1_pass = bool(np.isfinite(report.lipschitz_constant))

    # item 3: sector inequality margin
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(-3, 2, size=(trials, 1))
    S = scales * rng.standard_normal((trials, dim))
    on_sup = spec.kind in ("componentwise_saturation", "weak_damping")  # sup norm, l1 dual
    s_norms = np.max(np.abs(S), axis=1) if on_sup else np.linalg.norm(S, axis=1)
    keep = s_norms > (S_NORM_FLOOR if spec.kind == "weak_damping" else 0.0)
    skipped = int(trials - np.sum(keep))
    S, s_norms = S[keep], s_norms[keep]
    sig = spec.apply(S)
    pairing = np.sum(sig * S, axis=1)
    diff = sig - spec.C1 * S
    lhs = np.sum(np.abs(diff), axis=1) if on_sup else np.linalg.norm(diff, axis=1)
    h_vals = np.array([spec.h_eval(x) for x in s_norms])
    report.sector_margin = float(np.min(spec.C2 * h_vals * pairing - lhs))
    report.item3_pass = report.sector_margin >= -1e-12

    if spec.kind == "weak_damping":
        report.flags.append("h(x) = x^(q-1) is unbounded at x = 0; "
                            f"sector check restricted to ||s||_S >= {S_NORM_FLOOR!r} "
                            f"({skipped} samples skipped)")
    return report
