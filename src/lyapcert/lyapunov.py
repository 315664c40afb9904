"""Construction, evaluation and text form of Lyapunov certificates.

Three constructions are provided, each an H-form G and a rule for the weight M
that one assembly, `_certificate`, turns into P, alpha and the norms.  With a
norm-level (or linear) damping the compensated functional

    V(z) = <Pz, z>_H + M K(||z||_H^2),   K(X) = int_0^X sqrt(v) h(||B|| sqrt(v)) dv

is a strict global Lyapunov function.  With componentwise damping measured in
the sup norm the quadratic functional <Pz, z>_H + M ||z||_H^2 decays at a rate
mu(r) valid on the ball ||z0||_{D(A)} <= r.  When the linear closed loop is
certified through the Gramian construction the same quadratic form yields an
inverse-sqrt decay of the state norm on such balls.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg as sla

from . import damping as dmp
from .errors import CalibrationFailed, MissingInput, WrongNormChoice, require_positive
from .linalg import (InnerProduct, matrix_exponential, operator_norm_nonsym,
                     row_norms, solve_lyapunov)

KINDS = ("global_exp_SU", "semiglobal_exp_SneqU", "semiglobal_poly")
GRAMIAN_SHIFT = 0.1                               # coercivity shift of the poly form
CALIBRATION_T_GRID = np.linspace(0.0, 100.0, 41)  # times at which C_theta is calibrated
CALIBRATION_PROBES = 32                           # random probe states
# the scalars export_text writes: those every kind has, then the rest
REQUIRED_SCALARS = ("C", "alpha", "M", "B_norm", "P_norm_H")
SCALARS = REQUIRED_SCALARS + ("P_norm_DA", "mu", "r", "c_S", "C_theta", "gamma")


@dataclass(frozen=True)
class LyapunovCertificate:
    kind: str
    P: np.ndarray                 # operator matrix (acts on state coordinates)
    G: np.ndarray                 # H-form matrix W @ P, symmetric
    C: float                      # decrease constant: dV/dt <= -C ||z||_H^2
    alpha: float                  # coercivity constant of the quadratic part
    M: float                      # nonlinearity-compensation weight
    damping_ref: dmp.DampingSpec
    B_norm: float                 # ||B*||_{L(H,U)} (= ||B||_{L(U,H)})
    P_norm_H: float
    system: object = None         # SemiDiscreteSystem the certificate belongs to
    P_norm_DA: float = None
    mu: float = None              # decay rate (semiglobal exponential kind)
    r: float = None               # validity radius in the D(A) norm
    c_S: float = None
    C_theta: float = None
    gamma: float = None
    flags: tuple = ()

    @cached_property
    def energy_form(self):
        """L^T P L^{-T} = L^{-1} G L^{-T} (W = L L^T): <Pz, z>_H in the energy
        coordinates y = z L.  From P, which certificate_P.mat holds exactly, so a
        certificate read back evaluates as the one built."""
        return self.system.H_ip.conjugate(self.P.T).T

    def scalars(self):
        values = {"kind": self.kind, **{name: getattr(self, name) for name in SCALARS}}
        return {name: v for name, v in values.items() if v is not None}


def _certificate(kind, system, damping, G, M_rule, C=1.0, **fields):
    """The certificate of `kind` on the H-form G: P = W^-1 G; alpha and ||P||_H,
    the least lam and the largest |lam| of the pencil G z = lam W z (P is
    self-adjoint in H); ||B*||_{L(H,U)}; for the kinds with a radius r,
    ||P||_{D(A)}; and M = M_rule(**those norms).  fields are the kind's own
    (alpha too, where the kind has its own)."""
    W = system.H_ip.weight
    lam = sla.eigh(G, W, eigvals_only=True)
    P = np.linalg.solve(W, G)
    norms = {"B_norm": operator_norm_nonsym(system.Bstar, system.H_ip,
                                            InnerProduct(np.diag(system.U_weights))),
             "P_norm_H": float(max(-lam[0], lam[-1]))}
    if "r" in fields:   # sqrt(2) x the norm in the quadratic graph norm bounds the sum's
        norms["P_norm_DA"] = float(
            np.sqrt(2.0) * operator_norm_nonsym(P, InnerProduct(system.graph_weight)))
    return LyapunovCertificate(kind=kind, P=P, G=G, C=C, M=M_rule(**norms),
                               damping_ref=damping, system=system, **norms,
                               **{"alpha": float(lam[0]), **fields})


def build_exp_certificate(system, damping):
    """Strict global certificate for dampings measured in the control norm.

    The feedback gain of the certified linear loop is the damping's sector
    constant C1.  The decrease constant is normalized to C = 1 by solving the
    Lyapunov equation with right-hand side -W.
    """
    if damping.kind == "weak_damping":
        raise ValueError("weak damping has decreasing h; no global sector certificate")
    if damping.kind == "componentwise_saturation" and system.S_choice == dmp.S_SUP:
        raise WrongNormChoice(
            "componentwise damping on a sup-norm system needs the semiglobal builder")
    G = solve_lyapunov(system.closed_loop(damping.C1), system.H_ip.weight)
    return _certificate("global_exp_SU", system, damping, G,
                        lambda B_norm, P_norm_H: damping.C2 * B_norm * P_norm_H)


def build_semiglobal_certificate(system, damping, r, c_S):
    """Quadratic certificate valid on ||z0||_{D(A)} <= r for sup-norm damping."""
    if damping.kind not in ("componentwise_saturation", "weak_damping"):
        raise WrongNormChoice("semiglobal certificate expects componentwise damping")
    if system.S_choice != dmp.S_SUP:
        raise WrongNormChoice("system does not use the sup-norm choice")
    if not 0 <= c_S < np.inf:
        raise ValueError(f"c_S must be finite and >= 0, got {c_S!r}")
    require_positive(r=r)
    G = solve_lyapunov(system.closed_loop(damping.C1), system.H_ip.weight)
    cert = _certificate(
        "semiglobal_exp_SneqU", system, damping, G,
        lambda B_norm, P_norm_DA, **_:
            c_S * damping.C2 * damping.h_eval(B_norm * r) * r * P_norm_DA, r=r, c_S=c_S)
    return replace(cert, mu=cert.C / (2.0 * max(cert.P_norm_H, cert.M)))


def calibrate_C_theta(system, Atilde, G1, gamma, at_zero, seed=0):
    """Smallest constant making the weighted-decay bound hold on probes and at t = 0.

    Probes are D(A)-normalized random states evolved through the linear closed
    loop Atilde to the times of CALIBRATION_T_GRID; the t = 0 requirement over
    all states, at_zero, is the largest eigenvalue of G1 z = lam W_G z against
    the quadratic graph weight W_G.
    """
    needed = at_zero
    probes = np.random.default_rng(seed).standard_normal((CALIBRATION_PROBES, system.n))
    probes /= system.norm_DA(probes)[:, None]
    for t in CALIBRATION_T_GRID:
        Zt = probes @ matrix_exponential(Atilde, float(t)).T
        w = (1.0 + t) ** (2.0 * gamma - 1.0)
        needed = max(needed, w * float(np.einsum("ij,ij->i", Zt @ G1, Zt).max()))
    return needed


def build_poly_certificate(system, damping, r, gamma, C_theta=None, seed=0):
    """Quadratic certificate from the Gramian construction (control-norm damping).

    The quadratic part is the closed loop's observability-type Gramian
    int_0^inf e^{s Atilde^T} W e^{s Atilde} ds, taken exactly as the solution
    of Atilde^T G + G Atilde = -W, plus GRAMIAN_SHIFT * W.  C_theta
    must dominate the weighted decay of the quadratic part along probe
    trajectories (CalibrationFailed otherwise); C_theta=None calibrates it
    with 5% headroom.  r, gamma and C_theta must be positive and finite;
    gamma <= 1/2 is accepted but flagged.
    """
    if damping.kind == "weak_damping":
        raise ValueError("weak damping has decreasing h; certificate formulas do not apply")
    require_positive(r=r, gamma=gamma)
    if C_theta is not None:
        require_positive(C_theta=C_theta)
    Atilde = system.closed_loop(damping.C1)
    W = system.H_ip.weight
    G1 = solve_lyapunov(Atilde, W) + GRAMIAN_SHIFT * W

    lam = sla.eigh(G1, system.graph_weight, eigvals_only=True)   # G1 is exactly symmetric
    needed = calibrate_C_theta(system, Atilde, G1, gamma, float(lam[-1]), seed=seed)
    if C_theta is None:
        C_theta = 1.05 * needed
    elif C_theta < needed * (1.0 - 1e-12):
        raise CalibrationFailed(
            f"C_theta={C_theta!r} below the probe requirement {needed!r}")

    # exact decrease constant of the shifted Gramian (= 1 up to rounding)
    D = -(Atilde.T @ G1 + G1 @ Atilde)
    C = float(min(1.0, sla.eigh(0.5 * (D + D.T), W, eigvals_only=True)[0]))

    flags = (("gamma <= 1/2: decay exponent outside the guaranteed range",)
             if gamma <= 0.5 else ())
    return _certificate(
        "semiglobal_poly", system, damping, G1,
        lambda B_norm, **_: damping.C2 * C_theta * damping.h_eval(B_norm * r) * B_norm * r,
        C=C, alpha=0.5 * float(lam[0]), r=r, C_theta=C_theta, gamma=gamma, flags=flags)


def eval_V(cert, z=None, y=None, norm_H=None):
    """Value of the certificate functional along the last axis, through
    `energy_form`: at the energy coordinates y = z L of the state z, or at
    those of a recorded run and their norms norm_H = |y| = ||z||_H."""
    if y is None:
        y = np.asarray(z, dtype=float) @ cert.system.H_ip.factor
        norm_H = row_norms(y)
    quad = np.einsum("...i,...i->...", y @ cert.energy_form, y)
    if cert.kind == "global_exp_SU":
        return quad + cert.M * cert.damping_ref.k_integral(norm_H * norm_H, cert.B_norm)
    return quad + cert.M * norm_H * norm_H


def sandwich_bounds(cert, z):
    """Kind-appropriate lower/upper envelopes of the functional at z."""
    z = np.asarray(z, dtype=float)
    nH = cert.system.norm_H(z)
    if cert.kind == "global_exp_SU":
        h0 = cert.damping_ref.h_eval(0.0)
        lower = cert.alpha * nH**2 + cert.M * (2.0 * h0 / 3.0) * nH**3
        h_at = cert.damping_ref.h_eval(cert.B_norm * nH)
        upper = cert.P_norm_H * nH**2 + cert.M * nH**3 * h_at
        return lower, upper
    if cert.kind == "semiglobal_exp_SneqU":
        return (cert.alpha + cert.M) * nH**2, (cert.P_norm_H + cert.M) * nH**2
    nDA = cert.system.norm_DA(z)
    return (cert.alpha * nDA**2 + cert.M * nH**2,
            cert.M * nH**2 + cert.C_theta * nDA**2)


def export_text(cert):
    """Structured text block with every scalar at full precision."""
    lines = [f"{k} = {v!r}" for k, v in cert.scalars().items()]
    d = cert.damping_ref
    lines.append(f"damping = {d.kind}" + (f":{d.scalar_rule}" if d.scalar_rule else ""))
    lines += [f"damping_C1 = {d.C1!r}", f"damping_C2 = {d.C2!r}"]
    lines += [f"flag = {f}" for f in cert.flags]
    return "\n".join(lines) + "\n"


def read_text(lines, where):
    """The certificate in export_text's lines, scalars only (P, G, system and
    damping are None).  MissingInput, naming where, for a non-finite scalar, a
    C or r <= 0, a missing kind or required scalar, or a kind not in KINDS."""
    fields, flags = {}, []
    for line in lines:
        key, _, val = (part.strip() for part in line.partition(" = "))
        if key == "kind":
            fields["kind"] = val
        elif key == "flag":
            flags.append(val)
        elif key in SCALARS:
            try:
                fields[key] = float(val)
            except ValueError:
                fields[key] = np.nan
            if not np.isfinite(fields[key]):
                raise MissingInput(f"{where}: {key} = {val!r} is not a finite number")
            if key in ("C", "r") and fields[key] <= 0:
                raise MissingInput(f"{where}: {key} = {val!r} is not positive")
    missing = [key for key in ("kind",) + REQUIRED_SCALARS if key not in fields]
    if missing:
        raise MissingInput(f"{where} has no {missing[0]!r} entry")
    kinds = [repr(kind) for kind in KINDS]          # export_text writes the repr
    if fields["kind"] not in kinds:
        raise MissingInput(f"{where}: kind {fields['kind']} is not one of {', '.join(kinds)}")
    fields["kind"] = fields["kind"][1:-1]
    return LyapunovCertificate(P=None, G=None, damping_ref=None, flags=tuple(flags), **fields)
