"""Construction and evaluation of Lyapunov certificates.

Three constructions are provided.  With a norm-level (or linear) damping the
compensated functional

    V(z) = <Pz, z>_H + M K(||z||_H^2),   K(X) = int_0^X sqrt(v) h(||B|| sqrt(v)) dv

is a strict global Lyapunov function.  With componentwise damping measured in
the sup norm the quadratic functional <Pz, z>_H + M ||z||_H^2 decays at a rate
mu(r) valid on the ball ||z0||_{D(A)} <= r.  When the linear closed loop is
certified through the Gramian construction the same quadratic form yields an
inverse-sqrt decay of the state norm on such balls.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from . import damping as dmp
from .errors import CalibrationFailed, MissingCS, WrongNormChoice
from .linalg import (InnerProduct, matrix_exponential, operator_norm,
                     operator_norm_nonsym, require_hurwitz, solve_lyapunov)

KINDS = ("global_exp_SU", "semiglobal_exp_SneqU", "semiglobal_poly", "finite_dim")
GRAMIAN_SHIFT = 0.1                               # coercivity shift of the poly form
CALIBRATION_T_GRID = np.linspace(0.0, 100.0, 41)  # times at which C_theta is calibrated
CALIBRATION_PROBES = 32                           # random probe states


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

    def quad_form(self, z):
        """<Pz, z>_H along the last axis."""
        z = np.asarray(z, dtype=float)
        q = np.einsum("...i,...i->...", z @ self.G, z)
        return float(q) if q.ndim == 0 else q

    def scalars(self):
        out = {"kind": self.kind, "C": self.C, "alpha": self.alpha, "M": self.M,
               "B_norm": self.B_norm, "P_norm_H": self.P_norm_H}
        for name in ("P_norm_DA", "mu", "r", "c_S", "C_theta", "gamma"):
            v = getattr(self, name)
            if v is not None:
                out[name] = v
        return out


def _norms_and_form(system, gain):
    Atilde = system.closed_loop(gain)
    require_hurwitz(Atilde, "closed-loop matrix")
    W = system.H_ip.weight
    G = solve_lyapunov(Atilde, W)
    P = np.linalg.solve(W, G)
    alpha = float(sla.eigh(G, W, eigvals_only=True)[0])
    P_norm_H = operator_norm(P, system.H_ip)
    U_ip = InnerProduct(np.diag(system.U_weights))
    B_norm = operator_norm_nonsym(system.Bstar, system.H_ip, U_ip)
    return Atilde, G, P, alpha, P_norm_H, B_norm


def _graph_ip(system):
    W = system.H_ip.weight
    A = system.A
    return InnerProduct(W + A.T @ W @ A)


def _p_norm_DA(system, P):
    # Upper bound for the operator norm in the sum graph norm via the
    # equivalent quadratic graph norm: ||z||_G <= ||z||_H + ||Az||_H <= sqrt(2) ||z||_G.
    gip = _graph_ip(system)
    return float(np.sqrt(2.0) * operator_norm_nonsym(P, gip))


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
    _, G, P, alpha, P_norm_H, B_norm = _norms_and_form(system, damping.C1)
    M = damping.C2 * B_norm * P_norm_H
    kind = "finite_dim" if system.H_ip.is_identity() else "global_exp_SU"
    return LyapunovCertificate(kind=kind, P=P, G=G, C=1.0, alpha=alpha, M=M,
                               damping_ref=damping, B_norm=B_norm,
                               P_norm_H=P_norm_H, system=system)


def build_semiglobal_certificate(system, damping, r, c_S=None):
    """Quadratic certificate valid on ||z0||_{D(A)} <= r for sup-norm damping."""
    if damping.kind not in ("componentwise_saturation", "weak_damping"):
        raise WrongNormChoice("semiglobal certificate expects componentwise damping")
    if system.S_choice != dmp.S_SUP:
        raise WrongNormChoice("system does not use the sup-norm choice")
    if c_S is None:
        raise MissingCS("pass c_S from estimate_cS(system)")
    if not 0 <= c_S < np.inf:
        raise ValueError(f"c_S must be finite and >= 0, got {c_S!r}")
    if not 0 < r < np.inf:
        raise ValueError(f"radius r must be positive and finite, got {r!r}")
    _, G, P, alpha, P_norm_H, B_norm = _norms_and_form(system, damping.C1)
    P_norm_DA = _p_norm_DA(system, P)
    h_val = damping.h_eval(B_norm * r) if B_norm * r > 0 else damping.h_eval(0.0)
    M = c_S * damping.C2 * h_val * r * P_norm_DA
    C = 1.0
    mu = C / (2.0 * P_norm_H) if M == 0.0 else min(C / (2.0 * P_norm_H), C / (2.0 * M))
    return LyapunovCertificate(kind="semiglobal_exp_SneqU", P=P, G=G, C=C,
                               alpha=alpha, M=M, damping_ref=damping,
                               B_norm=B_norm, P_norm_H=P_norm_H, system=system,
                               P_norm_DA=P_norm_DA, mu=mu, r=r, c_S=c_S)


def calibrate_C_theta(system, gain, G1, gamma, seed=0):
    """Smallest constant making the weighted-decay bound hold on probes and at t = 0.

    Probes are D(A)-normalized random states evolved through the linear closed
    loop to the times of CALIBRATION_T_GRID; the t = 0 requirement over all
    states reduces to a generalized eigenvalue against the quadratic graph
    weight.
    """
    W = system.H_ip.weight
    A = system.A
    WG = W + A.T @ W @ A
    needed = float(sla.eigh(0.5 * (G1 + G1.T), WG, eigvals_only=True)[-1])

    Atilde = system.closed_loop(gain)
    rng = np.random.default_rng(seed)
    probes = rng.standard_normal((CALIBRATION_PROBES, system.n))
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
    if not 0 < r < np.inf:
        raise ValueError(f"radius r must be positive and finite, got {r!r}")
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")
    if C_theta is not None and not 0 < C_theta < np.inf:
        raise ValueError(f"C_theta must be positive and finite, got {C_theta!r}")
    Atilde = system.closed_loop(damping.C1)
    require_hurwitz(Atilde, "closed-loop matrix")
    W = system.H_ip.weight
    G1 = solve_lyapunov(Atilde, W) + GRAMIAN_SHIFT * W
    P1 = np.linalg.solve(W, G1)

    needed = calibrate_C_theta(system, damping.C1, G1, gamma, seed=seed)
    if C_theta is None:
        C_theta = 1.05 * needed
    elif C_theta < needed * (1.0 - 1e-12):
        raise CalibrationFailed(
            f"C_theta={C_theta!r} below the probe requirement {needed!r}")

    # exact decrease constant of the shifted Gramian (= 1 up to rounding)
    D = -(Atilde.T @ G1 + G1 @ Atilde)
    C = float(min(1.0, sla.eigh(0.5 * (D + D.T), W, eigvals_only=True)[0]))

    WG = W + system.A.T @ W @ system.A
    alpha = 0.5 * float(sla.eigh(G1, WG, eigvals_only=True)[0])

    P_norm_H = operator_norm(P1, system.H_ip)
    U_ip = InnerProduct(np.diag(system.U_weights))
    B_norm = operator_norm_nonsym(system.Bstar, system.H_ip, U_ip)
    h_val = damping.h_eval(B_norm * r) if B_norm * r > 0 else damping.h_eval(0.0)
    M = damping.C2 * C_theta * h_val * B_norm * r

    flags = ()
    if gamma <= 0.5:
        flags = ("gamma <= 1/2: decay exponent outside the guaranteed range",)
    return LyapunovCertificate(kind="semiglobal_poly", P=P1, G=G1, C=C,
                               alpha=alpha, M=M, damping_ref=damping,
                               B_norm=B_norm, P_norm_H=P_norm_H, system=system,
                               P_norm_DA=_p_norm_DA(system, P1), r=r,
                               C_theta=C_theta, gamma=gamma, flags=flags)


def eval_V(cert, z):
    """Value of the certificate functional at state z (along the last axis)."""
    z = np.asarray(z, dtype=float)
    quad = cert.quad_form(z)
    nH = cert.system.norm_H(z)
    if cert.kind in ("global_exp_SU", "finite_dim"):
        return quad + cert.M * cert.damping_ref.k_integral(nH * nH, cert.B_norm)
    return quad + cert.M * nH * nH


def sandwich_bounds(cert, z):
    """Kind-appropriate lower/upper envelopes of the functional at z."""
    z = np.asarray(z, dtype=float)
    nH = cert.system.norm_H(z)
    if cert.kind in ("global_exp_SU", "finite_dim"):
        h0 = cert.damping_ref.h_eval(0.0)
        lower = cert.alpha * nH**2 + cert.M * (2.0 * h0 / 3.0) * nH**3
        h_at = cert.damping_ref.h_eval(cert.B_norm * nH) if cert.B_norm * nH > 0 else h0
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
    lines.append(f"damping_C1 = {d.C1!r}")
    lines.append(f"damping_C2 = {d.C2!r}")
    for f in cert.flags:
        lines.append(f"flag = {f}")
    return "\n".join(lines) + "\n"
