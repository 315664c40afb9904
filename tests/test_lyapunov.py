import dataclasses

import numpy as np
import pytest

from lyapcert import damping, lyapunov, models
from lyapcert.errors import (CalibrationFailed, MissingCS, NotHurwitz,
                             WrongNormChoice)
from lyapcert.linalg import InnerProduct
from lyapcert.models import SemiDiscreteSystem

from conftest import kron_lyapunov_oracle

# frozen: Kronecker oracle P for the damped oscillator, M = C2 |B*| |P| = lam_max(P)
ORACLE_M_OSC = 1.8090169943749475
ORACLE_ALPHA_OSC = 0.6909830056250525

# frozen regression values from the first certified KdV run (N=64, a=1, clamp,
# r=5, seed-0 probe estimate of the embedding constant)
KDV_CS = 0.530315822728637
KDV_M = 26.627677749328576
KDV_MU = 0.018777454222894358


def undriven_system(A):
    n = A.shape[0]
    return SemiDiscreteSystem(A=np.asarray(A, dtype=float), B=np.zeros((n, 1)),
                              k=1.0, H_ip=InnerProduct.euclidean(n),
                              U_weights=np.ones(1))


class TestExpCertificate:
    def test_oscillator_matches_oracle(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        assert cert.kind == "finite_dim"
        P_oracle = kron_lyapunov_oracle(oscillator.closed_loop(1.0), np.eye(2))
        assert np.allclose(cert.P, P_oracle, atol=1e-10)
        assert abs(cert.M - ORACLE_M_OSC) < 1e-7
        assert abs(cert.alpha - ORACLE_ALPHA_OSC) < 1e-10
        assert cert.C == 1.0

    def test_no_input_decay(self):
        sys0 = undriven_system(-np.eye(2))
        cert = lyapunov.build_exp_certificate(sys0, damping.linear())
        assert np.allclose(cert.P, 0.5 * np.eye(2), atol=1e-12)
        assert cert.M == 0.0
        z = np.array([1.0, -2.0])
        assert abs(lyapunov.eval_V(cert, z) - z @ cert.P @ z) < 1e-14

    def test_doubling_C2_doubles_M(self, oscillator, clamp1):
        cert1 = lyapunov.build_exp_certificate(oscillator, clamp1)
        cert2 = lyapunov.build_exp_certificate(
            oscillator, dataclasses.replace(clamp1, C2=2.0 * clamp1.C2))
        assert cert2.M == 2.0 * cert1.M

    def test_sup_norm_system_rejected(self, kdv64, clamp1):
        with pytest.raises(WrongNormChoice):
            lyapunov.build_exp_certificate(kdv64, clamp1)

    def test_undamped_skew_not_hurwitz(self):
        sys0 = undriven_system(np.array([[0.0, 1.0], [-1.0, 0.0]]))
        with pytest.raises(NotHurwitz):
            lyapunov.build_exp_certificate(sys0, damping.linear())

    def test_weak_damping_rejected(self, oscillator):
        with pytest.raises(ValueError):
            lyapunov.build_exp_certificate(oscillator, damping.weak_damping())


class TestSemiglobalCertificate:
    def test_kdv_regression_values(self, kdv64, clamp1):
        c_S = models.estimate_cS(kdv64, n_probes=1000, seed=0)
        assert abs(c_S - KDV_CS) < 1e-4 * KDV_CS
        cert = lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=5.0, c_S=c_S)
        assert abs(cert.M - KDV_M) < 1e-4 * KDV_M
        assert abs(cert.mu - KDV_MU) < 1e-4 * KDV_MU
        # formula identities, re-derivable from the stored fields
        h_val = clamp1.h_eval(cert.B_norm * cert.r)
        assert cert.M == cert.c_S * clamp1.C2 * h_val * cert.r * cert.P_norm_DA
        assert cert.mu == min(cert.C / (2 * cert.P_norm_H), cert.C / (2 * cert.M))

    def test_vanishing_radius_limit(self, kdv64, clamp1):
        c_S = models.estimate_cS(kdv64, n_probes=200, seed=0)
        cert = lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=1e-12, c_S=c_S)
        assert cert.M < 1e-10
        assert abs(cert.mu - cert.C / (2 * cert.P_norm_H)) < 1e-9 * cert.mu

    def test_radius_monotonicity(self, kdv64, clamp1):
        c_S = models.estimate_cS(kdv64, n_probes=200, seed=0)
        c1 = lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=1.0, c_S=c_S)
        c2 = lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=5.0, c_S=c_S)
        assert c1.M <= c2.M and c1.mu >= c2.mu

    def test_missing_embedding_constant(self, kdv64, clamp1):
        with pytest.raises(MissingCS):
            lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=1.0)

    @pytest.mark.parametrize("kwargs", [{"c_S": np.nan}, {"c_S": np.inf}, {"c_S": -0.3},
                                        {"r": np.nan}, {"r": np.inf}, {"r": 0.0}])
    def test_non_finite_inputs_rejected(self, kdv64, clamp1, kwargs):
        args = {"r": 5.0, "c_S": 0.3, **kwargs}
        with pytest.raises(ValueError):
            lyapunov.build_semiglobal_certificate(kdv64, clamp1, **args)

    def test_control_norm_damping_rejected(self, kdv64):
        with pytest.raises(WrongNormChoice):
            lyapunov.build_semiglobal_certificate(kdv64, damping.linear(), r=1.0,
                                                  c_S=1.0)


class TestPolyCertificate:
    def test_wave_tanh_formula(self, wave32):
        th = damping.tanh_saturation(1.0)
        cert = lyapunov.build_poly_certificate(wave32, th, r=2.0, gamma=1.0, seed=0)
        assert cert.C >= 1.0 - 1e-6
        h_val = th.h_eval(cert.B_norm * cert.r)
        assert cert.M == th.C2 * cert.C_theta * h_val * cert.B_norm * cert.r
        assert cert.gamma == 1.0 and not cert.flags

    def test_gramian_matches_kron_oracle(self):
        system = models.discretize_wave(16, lambda x: 1.0, k=1.0)
        th = damping.tanh_saturation(1.0)
        cert = lyapunov.build_poly_certificate(system, th, r=2.0, gamma=1.0, seed=0)
        W = system.H_ip.weight
        oracle = kron_lyapunov_oracle(system.closed_loop(th.C1), W)
        assert np.allclose(cert.G - 0.1 * W, oracle,
                           atol=1e-10 * np.linalg.norm(oracle))

    def test_localized_wave64_builds(self, clamp1):
        # damping on [0.3, 0.7]: the first Bartels-Stewart pass misses the
        # 1e-10 ||Q|| residual bound here; the correction step recovers it
        system = models.discretize_wave(
            64, lambda x: 1.0 if 0.3 <= x <= 0.7 else 0.0, k=1.0)
        sg = lyapunov.build_semiglobal_certificate(system, clamp1, r=5.0, c_S=0.3)
        poly = lyapunov.build_poly_certificate(
            system, damping.tanh_saturation(1.0), r=2.0, gamma=1.0, seed=0)
        for cert in (sg, poly):
            At = system.closed_loop(cert.damping_ref.C1)
            W = system.H_ip.weight
            G = cert.G - (0.1 * W if cert is poly else 0.0)
            res = np.linalg.norm(At.T @ G + G @ At + W)
            assert res <= 1e-10 * np.linalg.norm(W)

    def test_calibration_rejects_small_constant(self, oscillator):
        with pytest.raises(CalibrationFailed):
            lyapunov.build_poly_certificate(oscillator, damping.linear(), r=1.0,
                                            gamma=1.0, C_theta=1e-9)

    @pytest.mark.parametrize("kwargs", [{"r": np.nan}, {"gamma": np.nan}, {"gamma": 0.0},
                                        {"C_theta": np.nan}, {"C_theta": np.inf}])
    def test_non_finite_inputs_rejected(self, oscillator, kwargs):
        args = {"r": 1.0, "gamma": 1.0, **kwargs}
        with pytest.raises(ValueError):
            lyapunov.build_poly_certificate(oscillator, damping.linear(), **args)

    def test_gamma_below_half_flagged(self, oscillator):
        cert = lyapunov.build_poly_certificate(oscillator, damping.linear(), r=1.0,
                                               gamma=0.4, seed=0)
        assert cert.flags and "gamma" in cert.flags[0]

    def test_weighted_decay_bound_on_probes(self, oscillator):
        cert = lyapunov.build_poly_certificate(oscillator, damping.linear(), r=1.0,
                                               gamma=1.0, seed=0)
        from lyapcert.linalg import matrix_exponential
        rng = np.random.default_rng(12)
        At = oscillator.closed_loop(1.0)
        for _ in range(16):
            z = rng.standard_normal(2)
            z /= oscillator.norm_DA(z)
            for t in np.linspace(0.0, 50.0, 11):
                zt = matrix_exponential(At, t) @ z
                lhs = float(zt @ cert.G @ zt) * (1.0 + t) ** (2 * cert.gamma - 1)
                assert lhs <= cert.C_theta * (1.0 + 1e-9)


class TestLyapunovInequality:
    def test_strict_decrease_form_all_kinds(self, oscillator, kdv64, wave32, clamp1):
        c_S = models.estimate_cS(kdv64, n_probes=200, seed=0)
        certs = [
            lyapunov.build_exp_certificate(oscillator, clamp1),
            lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=5.0, c_S=c_S),
            lyapunov.build_poly_certificate(wave32, damping.tanh_saturation(1.0),
                                            r=2.0, gamma=1.0, seed=0),
        ]
        rng = np.random.default_rng(8)
        for cert in certs:
            system = cert.system
            At = system.closed_loop(cert.damping_ref.C1)
            W = system.H_ip.weight
            Fdot = At.T @ cert.G + cert.G @ At
            for _ in range(1000):
                z = rng.standard_normal(system.n)
                assert float(z @ Fdot @ z) <= -cert.C * float(z @ W @ z) + 1e-9


class TestFunctionalEvaluation:
    def test_vanishes_at_origin(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        assert lyapunov.eval_V(cert, np.zeros(2)) == 0.0
        assert lyapunov.sandwich_bounds(cert, np.zeros(2)) == (0.0, 0.0)

    def test_positive_and_radially_increasing(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        rng = np.random.default_rng(5)
        for _ in range(50):
            z = rng.standard_normal(2)
            vals = [lyapunov.eval_V(cert, t * z) for t in (1.0, 2.0, 4.0, 8.0)]
            assert vals[0] > 0.0
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_k_term_closed_form(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        z = np.array([1.5, -0.5])
        nH = np.linalg.norm(z)
        expected = z @ cert.G @ z + cert.M * (2.0 / 3.0) * nH**3
        assert abs(lyapunov.eval_V(cert, z) - expected) < 1e-12

    def test_sandwich_structure_constant_h(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        z = np.array([2.0, 1.0])
        nH = np.linalg.norm(z)
        lo, up = lyapunov.sandwich_bounds(cert, z)
        assert abs(lo - (cert.alpha * nH**2 + (2 * cert.M / 3) * nH**3)) < 1e-12
        assert abs(up - (cert.P_norm_H * nH**2 + cert.M * nH**3)) < 1e-12

    def test_sandwich_holds_on_samples(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        rng = np.random.default_rng(6)
        for _ in range(10000):
            z = rng.standard_normal(2) * 10 ** rng.uniform(-2, 2)
            lo, up = lyapunov.sandwich_bounds(cert, z)
            v = lyapunov.eval_V(cert, z)
            assert lo <= v * (1 + 1e-9) + 1e-300
            assert v <= up * (1 + 1e-9) + 1e-300

    def test_poly_sandwich(self, wave32):
        th = damping.tanh_saturation(1.0)
        cert = lyapunov.build_poly_certificate(wave32, th, r=2.0, gamma=1.0, seed=0)
        assert lyapunov.sandwich_bounds(cert, np.zeros(64)) == (0.0, 0.0)
        rng = np.random.default_rng(7)
        for _ in range(500):
            z = rng.standard_normal(64)
            lo, up = lyapunov.sandwich_bounds(cert, z)
            v = lyapunov.eval_V(cert, z)
            assert lo <= v * (1 + 1e-9) and v <= up * (1 + 1e-9)

    def test_block_evaluation_matches_rows(self, oscillator, kdv64, wave32, clamp1):
        # eval_V and norm_DA on a (steps, n) block equal their one-state values
        certs = [
            lyapunov.build_exp_certificate(oscillator, clamp1),
            lyapunov.build_semiglobal_certificate(kdv64, clamp1, 5.0, c_S=0.3),
            lyapunov.build_poly_certificate(wave32, damping.tanh_saturation(1.0),
                                            2.0, 1.0),
        ]
        rng = np.random.default_rng(5)
        for cert in certs:
            system = cert.system
            Z = rng.standard_normal((7, system.n)) * 10.0 ** rng.uniform(-2, 1, (7, 1))
            np.testing.assert_allclose(
                lyapunov.eval_V(cert, Z), [lyapunov.eval_V(cert, z) for z in Z],
                rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                system.norm_DA(Z), [system.norm_DA(z) for z in Z], rtol=1e-13, atol=0)
            assert isinstance(lyapunov.eval_V(cert, Z[0]), float)
            assert isinstance(system.norm_DA(Z[0]), float)

    def test_export_text_full_precision(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        text = lyapunov.export_text(cert)
        assert f"M = {cert.M!r}" in text
        assert "damping = componentwise_saturation:clamp" in text
