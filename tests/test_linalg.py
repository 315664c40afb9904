import numpy as np
import pytest
import scipy.linalg as sla

from lyapcert import damping
from lyapcert.errors import NotHurwitz, Overflow, SingularSystem
from lyapcert.linalg import (InnerProduct, dissipativity_margin,
                             matrix_exponential, operator_norm_nonsym,
                             solve_lyapunov)
from lyapcert.lyapunov import _certificate
from lyapcert.models import SemiDiscreteSystem

from conftest import (TailNotConvergent, gramian_quadrature, kron_lyapunov_oracle,
                      random_hurwitz, random_spd)

# frozen by the Kronecker oracle ahead of the build
ORACLE_P_OSC = np.array([[1.0, -0.5], [-0.5, 1.5]])


class TestSolveLyapunov:
    def test_identity_drift(self):
        P = solve_lyapunov(-np.eye(2), np.eye(2))
        assert np.allclose(P, 0.5 * np.eye(2), atol=1e-14)

    def test_scalar(self):
        P = solve_lyapunov(np.array([[-1.0]]), np.array([[2.0]]))
        assert np.allclose(P, [[1.0]], atol=1e-14)

    def test_against_kron_oracle(self):
        At = np.array([[-1.0, 1.0], [-1.0, 0.0]])
        P = solve_lyapunov(At, np.eye(2))
        assert np.allclose(P, kron_lyapunov_oracle(At, np.eye(2)), atol=1e-12)
        assert np.allclose(P, ORACLE_P_OSC, atol=1e-12)

    def test_not_hurwitz(self):
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
        with pytest.raises(NotHurwitz):
            solve_lyapunov(np.eye(3), np.eye(3))

    def test_non_finite_right_hand_side_rejected(self):
        Q = np.eye(2)
        Q[0, 1] = np.nan
        with pytest.raises(SingularSystem, match="^Lyapunov solve failed: "):
            solve_lyapunov(-np.eye(2), Q)

    def test_near_singular_solve_rejected(self):
        # a near-defective block passes the Hurwitz gate but the solution
        # grows like 1/d^3 and the residual check catches the lost digits
        A = np.array([[-1e-6, 1.0], [0.0, -1e-6]])
        with pytest.raises(SingularSystem):
            solve_lyapunov(A, np.eye(2))

    def test_random_instances_residual_and_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            n = int(rng.integers(2, 31))
            A = random_hurwitz(rng, n)
            Q = random_spd(rng, n)
            P = solve_lyapunov(A, Q)
            res = np.linalg.norm(A.T @ P + P @ A + Q, "fro")
            assert res <= 1e-10 * np.linalg.norm(Q, "fro")
            assert np.allclose(P, kron_lyapunov_oracle(A, Q),
                               atol=1e-8 * np.linalg.norm(P))
            assert np.min(np.linalg.eigvalsh(0.5 * (P + P.T))) > 0


class TestMatrixExponential:
    def test_zero(self):
        assert np.array_equal(matrix_exponential(np.zeros((3, 3)), 1.0), np.eye(3))

    def test_scalar_halving(self):
        E = matrix_exponential(np.diag([-1.0]), np.log(2.0))
        assert abs(E[0, 0] - 0.5) < 1e-14

    def test_nilpotent(self):
        A = np.array([[0.0, 1.0], [0.0, 0.0]])
        for t in (0.3, 2.0, -1.7):
            assert np.allclose(matrix_exponential(A, t),
                               [[1.0, t], [0.0, 1.0]], atol=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            A = rng.standard_normal((n, n))
            s, t = rng.uniform(0, 5, size=2)
            Est = matrix_exponential(A, s + t)
            err = np.linalg.norm(Est - matrix_exponential(A, s) @ matrix_exponential(A, t))
            assert err <= 1e-9 * np.linalg.norm(Est)

    def test_ode_accuracy(self):
        # against the diagonalized closed form, ||tA|| <= 50
        rng = np.random.default_rng(5)
        Q = sla.qr(rng.standard_normal((6, 6)))[0]
        lam = rng.uniform(-4, 1, size=6)
        A = Q @ np.diag(lam) @ Q.T
        t = 50.0 / np.linalg.norm(A, 2)
        exact = Q @ np.diag(np.exp(t * lam)) @ Q.T
        err = np.linalg.norm(matrix_exponential(A, t) - exact)
        assert err <= 1e-10 * np.linalg.norm(exact)

    def test_overflow(self):
        with pytest.raises(Overflow):
            matrix_exponential(np.array([[1000.0]]), 1000.0)

    def test_infinite_time_rejected(self):
        with pytest.raises(ValueError, match="^t must be finite$"):
            matrix_exponential(-np.eye(2), np.inf)


class TestGramianQuadrature:
    def test_scalar_with_shift(self):
        G = gramian_quadrature(np.array([[-1.0]]), alpha=0.1, tol=1e-9)
        assert abs(G[0, 0] - 0.6) < 1e-8

    def test_minus_two_identity(self):
        G = gramian_quadrature(-2.0 * np.eye(2), alpha=0.0, tol=1e-9)
        assert np.allclose(G, 0.25 * np.eye(2), atol=1e-8)

    def test_matches_lyapunov_solution(self):
        rng = np.random.default_rng(11)
        A = random_hurwitz(rng, 3)
        G = gramian_quadrature(A, alpha=0.25, tol=1e-7)
        ref = solve_lyapunov(A, np.eye(3)) + 0.25 * np.eye(3)
        assert np.max(np.abs(G - ref)) < 1e-6

    def test_tail_guard(self):
        A = np.array([[-1e-9, 10.0], [-10.0, -1e-9]])   # nearly conservative
        with pytest.raises(TailNotConvergent):
            gramian_quadrature(A, tol=1e-12, t_max=64.0)

    def test_requires_hurwitz(self):
        with pytest.raises(NotHurwitz):
            gramian_quadrature(np.array([[0.0, 1.0], [-1.0, 0.0]]))


class TestDissipativityMargin:
    def test_skew_is_zero(self):
        A = np.array([[0.0, 2.0], [-2.0, 0.0]])
        assert abs(dissipativity_margin(A)) <= 1e-12

    def test_minus_identity(self):
        assert abs(dissipativity_margin(-np.eye(2)) + 2.0) <= 1e-12

    def test_weighted_matches_eig_oracle(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((5, 5))
        W = random_spd(rng, 5)
        ip = InnerProduct(W)
        S = A.T @ W + W @ A
        expected = sla.eigh(0.5 * (S + S.T), W, eigvals_only=True)[-1]
        assert abs(dissipativity_margin(A, ip) - expected) < 1e-10

    def test_margin_implies_contraction(self):
        rng = np.random.default_rng(9)
        R = rng.standard_normal((4, 4))
        A = -R @ R.T - 0.1 * np.eye(4)
        assert dissipativity_margin(A) <= 0
        z = rng.standard_normal(4)
        norms = [np.linalg.norm(matrix_exponential(A, t) @ z)
                 for t in np.linspace(0, 5, 21)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


class TestOperatorNorms:
    def test_matches_cholesky_spectral_norm(self):
        # ||P||_W = ||L^T P L^{-T}||_2 with W = L L^T, for the certificate
        # layer's P = W^-1 G
        rng = np.random.default_rng(21)
        W = random_spd(rng, 8)
        G = random_spd(rng, 8)
        system = SemiDiscreteSystem(A=-np.eye(8), B=np.zeros((8, 1)), k=1.0,
                                    H_ip=InnerProduct(W), U_weights=np.ones(1))
        cert = _certificate("global_exp_SU", system, damping.linear(), G, lambda **_: 0.0)
        P, P_norm_H = cert.P, cert.P_norm_H
        L = np.linalg.cholesky(W)
        expected = np.linalg.norm(L.T @ P @ np.linalg.inv(L.T), 2)
        assert abs(P_norm_H - expected) < 1e-7 * expected

    def test_nonsym_matches_svd(self):
        rng = np.random.default_rng(22)
        M = rng.standard_normal((3, 5))
        ip = InnerProduct.euclidean(5)
        ip3 = InnerProduct.euclidean(3)
        assert abs(operator_norm_nonsym(M, ip, ip3)
                   - np.linalg.norm(M, 2)) < 1e-7 * np.linalg.norm(M, 2)


class TestInnerProduct:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            InnerProduct(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            InnerProduct(np.diag([1.0, -1.0]))

    @pytest.mark.parametrize("weight, message", [
        (np.ones(3), "weight must be a square matrix"),
        (np.array([[1.0, np.nan], [np.nan, 1.0]]), "weight has non-finite entries")])
    def test_rejects_malformed(self, weight, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            InnerProduct(weight)

    def test_conjugate_matches_dense(self):
        # L^{-1} M L by one triangular solve against the dense inverse, and the
        # conjugated map acts on y = x L as M acts on x
        rng = np.random.default_rng(3)
        ip = InnerProduct(random_spd(rng, 6))
        L = ip.factor
        M = rng.standard_normal((6, 6))
        dense = np.linalg.inv(L) @ M @ L
        np.testing.assert_allclose(ip.conjugate(M), dense, rtol=0,
                                   atol=1e-12 * np.abs(dense).max())
        x = rng.standard_normal(6)
        np.testing.assert_allclose((x @ L) @ ip.conjugate(M), (x @ M) @ L, rtol=1e-12)

    def test_norm_consistency(self):
        rng = np.random.default_rng(1)
        W = random_spd(rng, 4)
        ip = InnerProduct(W)
        z = rng.standard_normal(4)
        assert abs(ip.norm(z) ** 2 - ip.inner(z, z)) < 1e-12 * ip.norm(z) ** 2
