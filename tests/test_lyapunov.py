import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from lyapcert import damping, lyapunov, models
from lyapcert.errors import CalibrationFailed, NotHurwitz, ValidationError, WrongNormChoice
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
        assert cert.kind == "global_exp_SU"
        P_oracle = kron_lyapunov_oracle(oscillator.closed_loop(1.0), np.eye(2))
        assert np.allclose(cert.P, P_oracle, atol=1e-10)
        assert abs(cert.M - ORACLE_M_OSC) < 1e-7
        assert abs(cert.alpha - ORACLE_ALPHA_OSC) < 1e-10
        assert cert.C == 1.0

    @pytest.mark.parametrize("name", ["kdv32", "wave32"])
    def test_weighted_inner_product_matches_cholesky(self, name, wave32):
        # the exp kind on a weighted H (W = h I for kdv, the stiffness block
        # for wave) against dense oracles through W = L L^T
        system = (models.discretize_kdv(2 * np.pi, 32, lambda x: 1.0, k=1.0)
                  if name == "kdv32" else wave32)
        spec = damping.norm_saturation(1.0)
        cert = lyapunov.build_exp_certificate(system, spec)
        assert cert.kind == "global_exp_SU"
        assert cert.M == spec.C2 * cert.B_norm * cert.P_norm_H
        W = system.H_ip.weight
        L = np.linalg.cholesky(W)
        L_inv = np.linalg.inv(L)
        P_norm = np.linalg.norm(L.T @ cert.P @ L_inv.T, 2)
        alpha = np.linalg.eigvalsh(L_inv @ cert.G @ L_inv.T)[0]
        B_norm = np.linalg.norm(np.sqrt(system.U_weights)[:, None] * system.Bstar @ L_inv.T, 2)
        assert abs(cert.P_norm_H - P_norm) < 1e-9 * P_norm
        assert abs(cert.alpha - alpha) < 1e-9 * P_norm
        assert abs(cert.B_norm - B_norm) < 1e-9 * B_norm
        Z = np.random.default_rng(5).standard_normal((6, system.n))
        norm_H = np.sqrt(np.einsum("ij,jk,ik->i", Z, W, Z))
        expected = (np.einsum("ij,jk,ik->i", Z, cert.G, Z)
                    + cert.M * (2.0 / 3.0) * norm_H**3)
        np.testing.assert_allclose(lyapunov.eval_V(cert, Z), expected, rtol=1e-10, atol=0)

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
        with pytest.raises(ValidationError, match="the sector inequality fails"):
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
        with pytest.raises(TypeError, match="c_S"):
            lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=1.0)

    @pytest.mark.parametrize("kwargs", [{"c_S": np.nan}, {"c_S": np.inf}, {"c_S": -0.3},
                                        {"r": np.nan}, {"r": np.inf}, {"r": 0.0}])
    def test_non_finite_inputs_rejected(self, kdv64, clamp1, kwargs):
        args = {"r": 5.0, "c_S": 0.3, **kwargs}
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be .+, got {value!r}$"):
            lyapunov.build_semiglobal_certificate(kdv64, clamp1, **args)

    def test_mu_is_one_expression(self, kdv64, clamp1):
        # mu = C / (2 max(|P|_H, M)) bit for bit: M = 0, M < |P|_H and M > |P|_H
        for r, c_S in ((1.0, 0.0), (1e-3, 1.0), (25.0, 1.0)):
            cert = lyapunov.build_semiglobal_certificate(kdv64, clamp1, r=r, c_S=c_S)
            assert cert.mu == cert.C / (2.0 * max(cert.P_norm_H, cert.M))

    def test_control_norm_damping_rejected(self, kdv64):
        with pytest.raises(WrongNormChoice):
            lyapunov.build_semiglobal_certificate(kdv64, damping.linear(), r=1.0,
                                                  c_S=1.0)

    def test_control_norm_system_rejected(self, oscillator, clamp1):
        with pytest.raises(WrongNormChoice, match="^system does not use the sup-norm choice$"):
            lyapunov.build_semiglobal_certificate(oscillator, clamp1, r=1.0, c_S=1.0)


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

    def test_pencil_solved_once(self, wave32, monkeypatch):
        # the t = 0 calibration and alpha read the two ends of the spectrum of
        # G1 z = lam W_G z; G1 is exactly symmetric, so one eigh serves both
        calls, eigh = [], sla.eigh
        monkeypatch.setattr(sla, "eigh", lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
        cert = lyapunov.build_poly_certificate(wave32, damping.tanh_saturation(1.0),
                                               r=2.0, gamma=1.0, seed=0)
        monkeypatch.undo()
        assert len(calls) == 5
        assert np.array_equal(cert.G, cert.G.T)
        lam = sla.eigh(cert.G, wave32.graph_weight, eigvals_only=True)
        assert cert.alpha == 0.5 * lam[0] and cert.C_theta >= 1.05 * lam[-1]

    def test_calibration_rejects_small_constant(self, oscillator):
        with pytest.raises(CalibrationFailed):
            lyapunov.build_poly_certificate(oscillator, damping.linear(), r=1.0,
                                            gamma=1.0, C_theta=1e-9)

    @pytest.mark.parametrize("kwargs", [{"r": np.nan}, {"gamma": np.nan}, {"gamma": 0.0},
                                        {"C_theta": np.nan}, {"C_theta": np.inf}])
    def test_non_finite_inputs_rejected(self, oscillator, kwargs):
        args = {"r": 1.0, "gamma": 1.0, **kwargs}
        (name, value), = kwargs.items()
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got {value!r}$"):
            lyapunov.build_poly_certificate(oscillator, damping.linear(), **args)

    def test_weak_damping_rejected(self, oscillator):
        with pytest.raises(ValidationError, match="the sector inequality fails"):
            lyapunov.build_poly_certificate(oscillator, damping.weak_damping(), r=1.0,
                                            gamma=1.0)

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


BUILDERS = {
    "exp": lyapunov.build_exp_certificate,
    "semiglobal": lambda system, spec: lyapunov.build_semiglobal_certificate(
        system, spec, 5.0, c_S=1.5),
    "poly": lambda system, spec: lyapunov.build_poly_certificate(
        system, spec, r=1.0, gamma=1.0)}
OFF_SECTOR = dataclasses.replace(damping.clamp(1.0), C1=0.5, C2=2.0)
THIN_C2 = dataclasses.replace(damping.norm_saturation(1.0), C2=0.999)


class TestSectorGate:
    """Every builder first passes the damping through require_sector: no
    certificate rests on a damping whose exact sector margin is negative."""

    @pytest.mark.parametrize("builder, system, spec", [
        ("exp", "oscillator", damping.weak_damping()),
        ("poly", "oscillator", damping.weak_damping()),
        ("semiglobal", "wave32", damping.weak_damping()),
        ("semiglobal", "oscillator", damping.weak_damping()),
        ("exp", "oscillator", OFF_SECTOR),
        ("poly", "oscillator", OFF_SECTOR),
        ("exp", "oscillator", THIN_C2),
        ("poly", "oscillator", THIN_C2),
        ("semiglobal", "wave32", dataclasses.replace(damping.clamp(1.0), C2=0.999))],
        ids=["exp-weak", "poly-weak", "semiglobal-weak", "semiglobal-weak-on-U-norm",
             "exp-clamp-C1", "poly-clamp-C1", "exp-thin-C2", "poly-thin-C2",
             "semiglobal-thin-C2"])
    def test_builder_refuses_negative_margin(self, request, monkeypatch, builder, system,
                                             spec):
        # the gate comes before any other check or solve
        def unreached(*args, **kwargs):
            raise AssertionError("solved before the sector gate")
        monkeypatch.setattr(lyapunov, "solve_lyapunov", unreached)
        margin = damping.verify_definition(spec).sector_margin
        assert margin < 0.0
        with pytest.raises(ValidationError) as exc:
            BUILDERS[builder](request.getfixturevalue(system), spec)
        assert str(exc.value) == (f"[damping] C1 = {spec.C1!r}, C2 = {spec.C2!r}: the sector "
                                  f"inequality fails, min margin {margin!r}")

    def test_thin_margin_is_finite(self):
        assert damping.verify_definition(THIN_C2).sector_margin == -0.0010000000000000009

    @pytest.mark.parametrize("make", [damping.linear, damping.norm_saturation, damping.clamp,
                                      damping.tanh_saturation, damping.arctan_saturation])
    def test_every_other_default_builds(self, oscillator, wave32, make):
        spec = make()
        assert damping.verify_definition(spec).sector_margin >= 0.0
        certs = [BUILDERS["exp"](oscillator, spec), BUILDERS["poly"](oscillator, spec)]
        if spec.kind == "componentwise_saturation":
            certs.append(BUILDERS["semiglobal"](wave32, spec))
        assert all(cert.damping_ref == spec and cert.M > 0.0 for cert in certs)


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

    def test_semiglobal_sandwich(self, clamp1):
        # (alpha + M) |z|_H^2 <= V(z) <= (|P|_H + M) |z|_H^2
        kdv16 = models.discretize_kdv(2 * np.pi, 16, lambda x: 1.0)
        cert = lyapunov.build_semiglobal_certificate(kdv16, clamp1, r=5.0, c_S=1.5)
        assert cert.kind == "semiglobal_exp_SneqU" and cert.M > 0.0
        Z = np.random.default_rng(11).standard_normal((50, 16))
        nH = kdv16.norm_H(Z)
        lo, up = lyapunov.sandwich_bounds(cert, Z)
        np.testing.assert_array_equal(lo, (cert.alpha + cert.M) * nH**2)
        np.testing.assert_array_equal(up, (cert.P_norm_H + cert.M) * nH**2)
        V = lyapunov.eval_V(cert, Z)
        assert np.all(lo <= V * (1 + 1e-12)) and np.all(V <= up * (1 + 1e-12))

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

    def test_state_and_energy_coordinates_agree_bitwise(self, clamp1):
        # V at z and V at y = z L with the norm |y| of a recorded run are one
        # evaluation, on the wave_certify system, whose L is not diagonal
        system = models.discretize_wave(64, lambda x: 1.0 if 0.25 <= x <= 0.75 else 0.0)
        L = system.H_ip.factor
        assert np.any(L - np.diag(np.diag(L)))
        cert = lyapunov.build_semiglobal_certificate(system, clamp1, 5.0, c_S=0.3)
        Z = np.random.default_rng(11).standard_normal((1000, system.n))
        Y = Z @ L
        assert np.array_equal(lyapunov.eval_V(cert, Z),
                              lyapunov.eval_V(cert, y=Y, norm_H=system.norm_H(Z)))

    def test_export_text_full_precision(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        text = lyapunov.export_text(cert)
        assert f"M = {cert.M!r}" in text
        assert "damping = componentwise_saturation:clamp" in text
