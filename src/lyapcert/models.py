"""System builders: validated finite-dimensional pairs and the semi-discrete
transport/dispersion and wave models, all in the form

    dz/dt = A z - sqrt(k) B sigma(sqrt(k) B* z)

with A dissipative for the system's inner product.  Every builder verifies the
dissipativity margin of the assembled A before returning.
"""

from dataclasses import dataclass, field

import numpy as np

from . import damping as dmp
from .errors import (NotControllable, NotDissipative,
                     NotDissipativeDiscretization, NotStabilized)
from .linalg import InnerProduct, dissipativity_margin, spectral_abscissa

DISSIPATIVITY_TOL = 1e-10


@dataclass(frozen=True)
class SemiDiscreteSystem:
    """Drift A, input map B with its adjoint, feedback gain and norm choices."""

    A: np.ndarray
    B: np.ndarray
    k: float
    H_ip: InnerProduct
    U_weights: np.ndarray            # diagonal weights of the control-space norm
    S_choice: str = dmp.U_EUCLIDEAN  # U_euclidean | S_sup
    name: str = "finite_dim"
    grid: dict = field(default_factory=dict)
    a_profile: np.ndarray = None

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def Bstar(self):
        """H-to-U adjoint of B: <Bu, z>_H = <u, B* z>_U."""
        return np.diag(1.0 / self.U_weights) @ self.B.T @ self.H_ip.weight

    def closed_loop(self, gain=None):
        g = self.k if gain is None else gain
        return self.A - g * self.B @ self.Bstar

    def norm_H(self, z):
        return self.H_ip.norm(z)

    def norm_DA(self, z):
        """Graph norm ||z||_H + ||Az||_H along the last axis."""
        return self.H_ip.norm(z) + self.H_ip.norm(np.asarray(z) @ self.A.T)


def kalman_rank(A, B):
    n = A.shape[0]
    blocks = [B]
    for _ in range(n - 1):
        blocks.append(A @ blocks[-1])
    return int(np.linalg.matrix_rank(np.hstack(blocks)))


def require_dissipative(A, ip, error):
    """Raise `error` unless A is dissipative for the inner product ip."""
    margin = dissipativity_margin(A, ip)
    if margin > DISSIPATIVITY_TOL:
        raise error(f"A has dissipativity margin {margin:.3e} > {DISSIPATIVITY_TOL}")


def make_finite_dim(A, B, k=1.0):
    """Validated finite-dimensional system with the Euclidean inner product.

    Requires A dissipative, (A, B) controllable (Kalman rank), and checks that
    A - k B B^T is Hurwitz.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n = A.shape[0]
    ip = InnerProduct.euclidean(n)
    require_dissipative(A, ip, NotDissipative)
    if kalman_rank(A, B) < n:
        raise NotControllable(f"Kalman rank {kalman_rank(A, B)} < {n}")
    if not 0 < k < np.inf:
        raise ValueError("k must be positive and finite")
    Atilde = A - k * B @ B.T
    if spectral_abscissa(Atilde) >= 0:
        raise NotStabilized("A - k B B^T is not Hurwitz")
    return SemiDiscreteSystem(A=A, B=B, k=float(k), H_ip=ip,
                              U_weights=np.ones(B.shape[1]),
                              S_choice=dmp.U_EUCLIDEAN, name="finite_dim")


def _profile_values(a_profile, x):
    a = np.asarray([a_profile(xi) for xi in x], dtype=float) \
        if callable(a_profile) else np.asarray(a_profile, dtype=float)
    if a.shape != x.shape:
        raise ValueError("a_profile length does not match the grid")
    if not np.all(np.isfinite(a)) or np.any(a < -1e-14):
        raise ValueError("a_profile must be finite and nonnegative")
    return np.maximum(a, 0.0)


def discretize_kdv(L, N, a_profile, k=1.0):
    """Transport + third-derivative model on (0, L) with localized damping.

    Interior nodes x_j = j*h, h = L/(N+1); boundary values at x = 0, L are zero
    and the one-sided stencil closure at the right end stands in for the
    vanishing derivative there.  First derivative: backward difference; third
    derivative: biased 4-point product D+ D+ D-.  Both choices make the
    assembled quadratic form nonpositive, which is verified after assembly.
    """
    if N < 16:
        raise ValueError("N must be >= 16")
    if not 0 < L < np.inf:
        raise ValueError("L must be positive and finite")
    h = L / (N + 1)
    x = h * np.arange(1, N + 1)
    a = _profile_values(a_profile, x)

    e = np.ones(N)
    Dm = (np.diag(e) - np.diag(e[1:], -1)) / h          # backward difference
    Dp = (np.diag(e[1:], 1) - np.diag(e)) / h           # forward difference
    A = -Dm - Dp @ Dp @ Dm

    ip = InnerProduct(h * np.eye(N))
    require_dissipative(A, ip, NotDissipativeDiscretization)

    B = np.diag(np.sqrt(a))
    return SemiDiscreteSystem(A=A, B=B, k=float(k), H_ip=ip,
                              U_weights=h * np.ones(N), S_choice=dmp.S_SUP,
                              name="kdv", grid={"L": L, "N": N, "spacing": h},
                              a_profile=a)


def discretize_wave(N, a_profile, k=1.0):
    """Vibrating string on (0, 1): state (displacement, velocity), Dirichlet ends.

    A = [[0, I], [Lap_h, 0]] with Lap_h = tridiag(1, -2, 1)/h^2; the energy
    inner product weights the displacement block by the stiffness matrix, which
    makes the undamped operator exactly skew (margin 0).
    """
    if N < 16:
        raise ValueError("N must be >= 16")
    h = 1.0 / (N + 1)
    x = h * np.arange(1, N + 1)
    a = _profile_values(a_profile, x)

    lap = (np.diag(-2.0 * np.ones(N)) + np.diag(np.ones(N - 1), 1)
           + np.diag(np.ones(N - 1), -1)) / h**2
    Z = np.zeros((N, N))
    A = np.block([[Z, np.eye(N)], [lap, Z]])

    stiffness = -h * lap                                  # discrete H^1_0 weight
    W = np.block([[stiffness, Z], [Z, h * np.eye(N)]])
    ip = InnerProduct(W)
    require_dissipative(A, ip, NotDissipativeDiscretization)

    B = np.vstack([Z, np.diag(np.sqrt(a))])
    return SemiDiscreteSystem(A=A, B=B, k=float(k), H_ip=ip,
                              U_weights=h * np.ones(N), S_choice=dmp.S_SUP,
                              name="wave", grid={"L": 1.0, "N": N, "spacing": h},
                              a_profile=a)


def leading_eigvec(M, index=0):
    """Eigenvector of M sorted by (|lambda|, Re, Im); deterministic sign."""
    vals, vecs = np.linalg.eig(M)
    order = np.lexsort((vals.imag, vals.real, np.abs(vals)))
    v = vecs[:, order[index]]
    z = v.real if np.linalg.norm(v.real) > 1e-12 * np.linalg.norm(v) else v.imag
    j = int(np.argmax(np.abs(z)))
    if z[j] < 0:
        z = -z
    return z


def estimate_cS(system, n_probes=1000, seed=0):
    """Probe-based lower estimate of sup ||B* s||_S / ||s||_{D(A)}.

    The probe set mixes seeded random vectors with the eigenvectors of the
    closed-loop matrix; the result under-approximates the true supremum, which
    is why certificates built from it get re-validated along trajectories.
    """
    if system.S_choice != dmp.S_SUP:
        raise ValueError("c_S estimation applies to the sup-norm choice only")
    Bs = system.Bstar
    n = system.n
    rng = np.random.default_rng(seed)
    _, vecs = np.linalg.eig(system.closed_loop())
    probes = np.vstack([rng.standard_normal((n_probes, n)), vecs.real.T, vecs.imag.T])

    sup_vals = np.max(np.abs(probes @ Bs.T), axis=1)
    denom = system.norm_DA(probes)
    ok = denom > 1e-300
    return float(np.max(sup_vals[ok] / denom[ok])) if np.any(ok) else 0.0
