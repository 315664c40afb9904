import os

# One BLAS thread for the suite, set before numpy is first imported: on small
# matrices a second thread costs more than it gives.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from lyapcert import damping, models
from lyapcert.linalg import matrix_exponential, require_hurwitz


class TailNotConvergent(Exception):
    """The Gramian integrand norm failed to decrease while doubling the horizon."""


def kron_lyapunov_oracle(Atilde, Q):
    """Independent Lyapunov solve: vectorize A^T P + P A = -Q and solve the
    n^2 x n^2 linear system directly (column-major vec convention)."""
    n = Atilde.shape[0]
    M = np.kron(np.eye(n), Atilde.T) + np.kron(Atilde.T, np.eye(n))
    vecP = np.linalg.solve(M, -Q.flatten(order="F"))
    return vecP.reshape((n, n), order="F")


def gramian_quadrature(A, alpha=0.0, tol=1e-8, t_max=1e6):
    """Independent Gramian: P = int_0^T exp(sA)^T exp(sA) ds + alpha*I with T
    set by a tail bound.

    T doubles from 1 until ||exp(TA)||^2 / (2 |max Re lambda|) <= tol.  Raises
    TailNotConvergent when the integrand norm stops decreasing before the bound
    is met.  For Hurwitz A the result agrees with solve_lyapunov(A, I) + alpha*I
    up to the quadrature tolerance.
    """
    from scipy.integrate import quad_vec     # deferred: slow to import

    A = np.asarray(A, dtype=float)
    decay = abs(require_hurwitz(A, "Gramian matrix"))

    T = 1.0
    prev = np.linalg.norm(matrix_exponential(A, T), 2)
    while prev**2 / (2.0 * decay) > tol:
        if T > t_max:
            raise TailNotConvergent(
                f"tail bound not met by T={T:.3e} (||exp(TA)|| = {prev:.3e})")
        T *= 2.0
        prev = np.linalg.norm(matrix_exponential(A, T), 2)

    def integrand(s):
        E = matrix_exponential(A, s)
        return E.T @ E

    G, _ = quad_vec(integrand, 0.0, T, epsabs=0.25 * tol, epsrel=1e-12)
    G = 0.5 * (G + G.T)
    return G + alpha * np.eye(A.shape[0])


def random_hurwitz(rng, n, margin=0.5):
    """Random matrix shifted left of the imaginary axis by at least `margin`."""
    A = rng.standard_normal((n, n))
    shift = np.max(np.linalg.eigvals(A).real)
    return A - (shift + margin) * np.eye(n)


def random_dissipative_hurwitz(rng, n, margin=0.2):
    """Skew part plus a strictly negative definite symmetric part."""
    S = rng.standard_normal((n, n))
    S = S - S.T
    R = rng.standard_normal((n, n))
    return S - R @ R.T - margin * np.eye(n)


def random_spd(rng, n, shift=0.5):
    M = rng.standard_normal((n, n))
    return M @ M.T + shift * np.eye(n)


@pytest.fixture(scope="session")
def oscillator():
    return models.make_finite_dim(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                  np.array([[1.0], [0.0]]), k=1.0)


@pytest.fixture(scope="session")
def scalar_system():
    return models.make_finite_dim(np.array([[0.0]]), np.array([[1.0]]), k=1.0)


@pytest.fixture(scope="session")
def kdv64():
    return models.discretize_kdv(2 * np.pi, 64, lambda x: 1.0, k=1.0)


@pytest.fixture(scope="session")
def wave32():
    return models.discretize_wave(32, lambda x: 1.0, k=1.0)


@pytest.fixture(scope="session")
def wave32_undamped():
    return models.discretize_wave(32, lambda x: 0.0, k=1.0)


@pytest.fixture(scope="session")
def clamp1():
    return damping.clamp(1.0)
