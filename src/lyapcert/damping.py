"""Catalogue of nonlinear damping functions and the three-item compliance checker.

A damping function sigma comes with constants C1, C2 and a comparison
function h such that  ||sigma(s) - C1*s||_{S'} <= C2 * h(||s||_S) * <sigma(s), s>_U.
The catalogue covers the identity, norm-level saturation, componentwise
saturations (clamp / tanh / arctan) and the sublinear weak damping
sigma(s) = c * sign(s) * |s|^q with q < 1; every rule but weak damping also
gives its derivative sigma' (`DampingSpec.jacobian`).  The checker states
all three items exactly, with no random draws: items 1 (locally Lipschitz)
and 2 (monotone) from each rule's sigma', and item 3, the sector inequality,
as a closed-form margin that is the same in every dimension.
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

    def k_integral(self, X):
        """K(X) = int_0^X sqrt(v) dv = (2/3) X^1.5 (h = 1, whatever ||B*||) for a
        scalar or an array X >= 0; none for weak damping, which no certificate has."""
        X = np.asarray(X, dtype=float)
        if self.kind == "weak_damping":
            raise DomainError("weak damping fails the sector inequality: no certificate has K")
        if np.any(X < 0):
            raise DomainError("K is defined on X >= 0")
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
    """Outcome of the three-item compliance check, every item exact."""

    kind: str
    lipschitz_constant: float = np.inf
    monotonicity_min: float = 0.0       # exact for every rule: each is nondecreasing
    sector_margin: float = np.inf
    item1_pass: bool = False
    item2_pass: bool = True
    item3_pass: bool = False
    flags: list = field(default_factory=list)

    def rows(self):
        """CSV-ready rows: (item, margin, pass)."""
        return [
            ("lipschitz_max_ratio", self.lipschitz_constant, self.item1_pass),
            ("monotonicity_min", self.monotonicity_min, self.item2_pass),
            ("sector_margin_min", self.sector_margin, self.item3_pass),
        ]

    def text_block(self):
        names = ("item 1 (locally Lipschitz) constant", "item 2 (monotone) min pairing",
                 "item 3 (sector inequality) min margin")
        lines = [f"damping kind: {self.kind}"] + [
            f"{name}: {value!r} -> {'pass' if ok else 'FAIL'}"
            for name, (_, value, ok) in zip(names, self.rows())]
        return "\n".join(lines + [f"flag: {f}" for f in self.flags])


def verify_definition(spec):
    """The three definition items, exact and the same in every dimension;
    failures land in the report.

    Item 1: each rule is the identity, a projection onto a ball (norm
    saturation) or odd, entrywise and concave on u >= 0, so its Lipschitz
    constant is ||sigma'(0)||; weak damping has no sigma'(0) and no finite
    constant (inf).  Item 2: each rule is nondecreasing, so the pairing
    <sigma(a) - sigma(b), a - b> has the exact infimum 0 (at a = b).
    Item 3: the normalized margin
        m = inf_{s != 0} C2 h(||s||_S) - ||sigma(s) - C1 s||_{S'} / <sigma(s), s>,
    S the sup norm and S' the l1 norm for the componentwise kinds and weak
    damping, both Euclidean otherwise, passes at m >= 0.  Near s = 0 the ratio
    is about |sigma'(0) - C1| / ||s||, which outgrows C2 h unless C1 = sigma'(0)
    (never for weak damping), so then m = -inf.  With C1 = sigma'(0) = 1 the
    ratio is 0 for linear damping, m = C2.  For a saturation each entry's ratio
    rises to 1/s0 without reaching it (clamp: 1/s0 - 1/|u|; tanh: the Langevin
    function coth v - 1/v over s0; arctan: as arctan v >= v / sqrt(1 + v^2);
    norm saturation is the radial clamp); a ratio of sums is at most its
    largest entry's, attained at s = (u, ..., u), so m = C2 - 1/s0.
    """
    report = DampingReport(kind=spec.kind if spec.kind != "componentwise_saturation"
                           else f"{spec.kind}:{spec.scalar_rule}")
    try:
        J = spec.jacobian(np.zeros(1))          # a diagonal, or norm saturation's matrix
        report.lipschitz_constant = float(np.linalg.norm(J, 2 if J.ndim == 2 else np.inf))
    except DomainError:
        report.lipschitz_constant = np.inf
    report.item1_pass = bool(np.isfinite(report.lipschitz_constant))

    if spec.C1 != report.lipschitz_constant:    # sigma'(0) = I has norm 1; weak damping inf
        report.sector_margin = -np.inf
    else:
        report.sector_margin = spec.C2 - (0.0 if spec.kind == "linear" else 1.0 / spec.s0)
    report.item3_pass = report.sector_margin >= 0.0

    if spec.kind == "weak_damping":
        report.flags.append("h(x) = x^(q-1) is unbounded at x = 0 but grows slower than "
                            "the ratio, about 1/||s||: no C2 holds near s = 0")
    return report
