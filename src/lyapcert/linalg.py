"""Dense linear-algebra kernel: Lyapunov solves, matrix exponentials,
dissipativity margins and weighted operator norms.

All matrices are plain numpy arrays.  Inner products other than the
Euclidean one are carried by :class:`InnerProduct`.  Every constant is a
closed form: the Lyapunov equation by Bartels-Stewart with one residual
correction, the dissipativity margin and the operator norm as extreme
eigenvalues of one generalized symmetric eigenproblem K z = lam W z.  The
Gramian's integral form, the independent check of the algebraic solve, is a
test oracle and lives with the tests.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import NotHurwitz, Overflow, SingularSystem

HURWITZ_MARGIN = -1e-12


@dataclass(frozen=True)
class InnerProduct:
    """Weighted inner product <x, y> = x^T W y with W symmetric positive definite."""

    weight: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        W = np.asarray(self.weight, dtype=float)
        if W.ndim != 2 or W.shape[0] != W.shape[1]:
            raise ValueError("weight must be a square matrix")
        if not np.all(np.isfinite(W)):
            raise ValueError("weight has non-finite entries")
        sym_err = np.max(np.abs(W - W.T))
        if sym_err > 1e-12 * max(1.0, np.max(np.abs(W))):
            raise ValueError(f"weight not symmetric (max asymmetry {sym_err:.3e})")
        W = 0.5 * (W + W.T)
        try:
            L = sla.cholesky(W, lower=True)
        except sla.LinAlgError as exc:
            raise ValueError("weight is not positive definite") from exc
        object.__setattr__(self, "weight", W)
        object.__setattr__(self, "_chol", L)

    @classmethod
    def euclidean(cls, n):
        return cls(np.eye(n))

    @property
    def factor(self):
        """Lower Cholesky factor L of the weight, W = L L^T: ||x||_W = |x @ L|."""
        return self._chol

    def inner(self, x, y):
        return float(np.asarray(x) @ self.weight @ np.asarray(y))

    def norm(self, x):
        """||x||_W along the last axis: a float for one vector, the row norms
        of a block.  Via the Cholesky factor, so never negative under roundoff."""
        nrm = row_norms(np.asarray(x) @ self._chol)
        return float(nrm) if nrm.ndim == 0 else nrm

    def conjugate(self, M):
        """L^{-1} M L, by one triangular solve: the map y -> y L^{-1} M L on
        the coordinates y = x L of the map x -> x M."""
        return sla.solve_triangular(self._chol, M @ self._chol, lower=True)


def row_norms(Y):
    """The Euclidean norms along the last axis."""
    return np.sqrt(np.einsum("...i,...i->...", Y, Y))


def spectral_abscissa(A):
    return float(np.max(np.linalg.eigvals(A).real))


def require_hurwitz(A, what="matrix", error=NotHurwitz):
    a = spectral_abscissa(A)
    if a >= HURWITZ_MARGIN:
        raise error(f"{what} has spectral abscissa {a:.6e} >= {HURWITZ_MARGIN}")
    return a


def solve_lyapunov(Atilde, Q):
    """Solve Atilde^T P + P Atilde = -Q for symmetric positive-definite P.

    Uses the Bartels-Stewart solver; the test suite cross-checks against an
    independent Kronecker-vectorization solve.  When the residual R exceeds
    1e-10 ||Q||_F, one correction Atilde^T dP + dP Atilde = -R is solved with
    the same solver and added; SingularSystem if the bound still fails.
    Requires Atilde Hurwitz and Q symmetric positive definite.
    """
    Atilde = np.asarray(Atilde, dtype=float)
    Q = np.asarray(Q, dtype=float)
    require_hurwitz(Atilde, "Lyapunov equation matrix")
    tol = 1e-10 * np.linalg.norm(Q, "fro")
    try:
        P = sla.solve_continuous_lyapunov(Atilde.T, -Q)
        P = 0.5 * (P + P.T)
        R = Atilde.T @ P + P @ Atilde + Q
        res = np.linalg.norm(R, "fro")
        if res > tol:
            dP = sla.solve_continuous_lyapunov(Atilde.T, -R)
            P = P + 0.5 * (dP + dP.T)
            res = np.linalg.norm(Atilde.T @ P + P @ Atilde + Q, "fro")
    except (sla.LinAlgError, ValueError) as exc:
        raise SingularSystem(f"Lyapunov solve failed: {exc}") from exc
    if not np.all(np.isfinite(P)) or res > tol:
        raise SingularSystem(
            f"Lyapunov solve numerically rank-deficient (residual {res:.3e}, "
            f"tolerance {tol:.3e})"
        )
    return P


def matrix_exponential(A, t=1.0):
    """e^{tA} by scaling and squaring (scipy.linalg.expm)."""
    A = np.asarray(A, dtype=float)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        E = sla.expm(t * A)
    if not np.all(np.isfinite(E)):
        raise Overflow(f"exp({t} * A) has non-finite entries")
    return E


def _generalized_eigvalsh(K, W):
    """Ascending eigenvalues of K z = lam W z for symmetric K and SPD W."""
    return sla.eigh(0.5 * (K + K.T), W, eigvals_only=True)


def dissipativity_margin(A, ip=None):
    """Max of <Az,z> + <z,Az> over unit vectors; <= 0 means dissipative.

    Exact: the largest eigenvalue of (A^T W + W A) z = lam W z.
    """
    A = np.asarray(A, dtype=float)
    if ip is None:
        ip = InnerProduct.euclidean(A.shape[0])
    W = ip.weight
    return float(_generalized_eigvalsh(A.T @ W + W @ A, W)[-1])


def operator_norm_nonsym(M, ip_dom, ip_codom=None):
    """Operator norm sup ||Mz||_codom / ||z||_dom: sqrt of the largest
    eigenvalue of (M^T W_codom M) z = lam W_dom z."""
    if ip_codom is None:
        ip_codom = ip_dom
    lam = _generalized_eigvalsh(M.T @ ip_codom.weight @ M, ip_dom.weight)[-1]
    return float(np.sqrt(max(lam, 0.0)))
