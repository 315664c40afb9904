import numpy as np
import pytest

from lyapcert import damping, models
from lyapcert.errors import (NotControllable, NotDissipative,
                             NotDissipativeDiscretization, NotStabilized)
from lyapcert.linalg import (dissipativity_margin, matrix_exponential,
                             spectral_abscissa)

from conftest import random_dissipative_hurwitz


class TestMakeFiniteDim:
    def test_oscillator_accepted(self, oscillator):
        At = oscillator.closed_loop()
        assert np.allclose(At, [[-1.0, 1.0], [-1.0, 0.0]])
        # eigenvalue oracle: both closed-loop eigenvalues have real part -1/2
        assert np.allclose(np.linalg.eigvals(At).real, -0.5, atol=1e-12)

    def test_scalar_integrator_chain(self, scalar_system):
        assert np.allclose(scalar_system.closed_loop(), [[-1.0]])

    def test_uncontrollable(self):
        with pytest.raises(NotControllable):
            models.make_finite_dim(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                   np.zeros((2, 1)), k=1.0)

    def test_not_dissipative(self):
        with pytest.raises(NotDissipative):
            models.make_finite_dim(np.eye(2), np.eye(2), k=1.0)

    def test_stabilized_with_the_lyapunov_solver_margin(self):
        # A - k B B^T must clear linalg.HURWITZ_MARGIN, the margin every
        # certificate builder's Lyapunov solve requires, not just abscissa 0
        A = np.array([[0.0, 1.0], [-1.0, 0.0]])
        with pytest.raises(NotStabilized, match=r"abscissa -(4\.9|5\.0)\d*e-13 >= -1e-12"):
            models.make_finite_dim(A, np.array([[1e-6], [0.0]]))
        system = models.make_finite_dim(A, np.array([[1e-5], [0.0]]))
        assert abs(spectral_abscissa(system.closed_loop()) / -5e-11 - 1.0) < 1e-6

    def test_one_dimensional_B_is_a_column(self):
        system = models.make_finite_dim(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                        np.array([1.0, 0.0]), k=2.0)
        assert system.B.shape == (2, 1) and system.m == 1 and system.k == 2.0
        assert np.array_equal(system.closed_loop(), [[-2.0, 1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("k", [0.0, -1.0, np.inf, np.nan])
    def test_gain_not_positive_and_finite(self, k):
        with pytest.raises(ValueError, match="k must be positive and finite"):
            models.make_finite_dim(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                   np.array([[1.0], [0.0]]), k=k)

    def test_kalman_agrees_with_pbh(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            A = random_dissipative_hurwitz(rng, n)
            B = rng.standard_normal((n, 1))
            kal = models.kalman_rank(A, B) == n
            pbh = all(np.linalg.matrix_rank(
                np.hstack([A - lam * np.eye(n), B]), tol=1e-9) == n
                for lam in np.linalg.eigvals(A))
            assert kal == pbh


class TestKdV:
    def test_dissipativity_margin(self, kdv64):
        assert dissipativity_margin(kdv64.A, kdv64.H_ip) <= 1e-10

    def test_damped_loop_is_hurwitz(self, kdv64):
        assert spectral_abscissa(kdv64.closed_loop()) < 0

    def test_undamped_profile_still_dissipative(self):
        sys0 = models.discretize_kdv(2 * np.pi, 64, lambda x: 0.0, k=1.0)
        assert dissipativity_margin(sys0.A, sys0.H_ip) <= 1e-10
        assert spectral_abscissa(sys0.closed_loop()) <= 0
        assert not np.any(sys0.B)

    def test_zero_vector_annihilated(self, kdv64):
        assert np.array_equal(kdv64.A @ np.zeros(64), np.zeros(64))

    def test_small_grid_rejected(self):
        with pytest.raises(ValueError):
            models.discretize_kdv(1.0, 8, lambda x: 1.0)

    def test_grid_checked_before_length(self):
        with pytest.raises(ValueError, match="N must be >= 16"):
            models.discretize_kdv(-1.0, 8, lambda x: 1.0)
        with pytest.raises(ValueError, match="L must be positive and finite"):
            models.discretize_kdv(-1.0, 16, lambda x: 1.0)

    def test_profile_array_of_grid_length(self):
        a = np.linspace(0.0, 1.0, 16)
        system = models.discretize_kdv(2.0, 16, a, k=0.5)
        assert np.array_equal(system.a_profile, a) and system.k == 0.5
        assert system.grid == {"L": 2.0, "N": 16, "spacing": 2.0 / 17}
        assert system.S_choice == damping.S_SUP and system.name == "kdv"
        with pytest.raises(ValueError, match="length does not match"):
            models.discretize_kdv(2.0, 16, a[:-1])

    def test_dissipativity_gate_enforced(self, monkeypatch):
        # tighten the gate beyond what the scheme delivers: the builder must
        # reject rather than hand back a non-certified operator
        monkeypatch.setattr(models, "DISSIPATIVITY_TOL", -1.0)
        with pytest.raises(NotDissipativeDiscretization):
            models.discretize_kdv(2 * np.pi, 32, lambda x: 1.0)

    def test_negative_profile_rejected(self):
        with pytest.raises(ValueError):
            models.discretize_kdv(1.0, 32, lambda x: -1.0)

    @pytest.mark.parametrize("L, amplitude", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan),
                                              (1.0, np.inf)])
    def test_non_finite_length_or_profile_rejected(self, L, amplitude):
        with pytest.raises(ValueError):
            models.discretize_kdv(L, 32, lambda x: amplitude)

    def test_localized_profile(self):
        L = 2 * np.pi
        sysloc = models.discretize_kdv(
            L, 64, lambda x: 1.0 if 0.3 * L <= x <= 0.7 * L else 0.0, k=1.0)
        assert dissipativity_margin(sysloc.A, sysloc.H_ip) <= 1e-10
        assert spectral_abscissa(sysloc.closed_loop()) < 0


@pytest.mark.parametrize("build", [
    lambda k: models.discretize_kdv(2 * np.pi, 16, lambda x: 1.0, k=k),
    lambda k: models.discretize_wave(16, lambda x: 1.0, k=k)], ids=["kdv", "wave"])
@pytest.mark.parametrize("k", [0.0, -1.0, np.inf, np.nan])
def test_grid_gain_not_positive_and_finite(build, k):
    # as make_finite_dim: a negative k would certify, then the integrator
    # would take the square root of it
    with pytest.raises(ValueError, match="k must be positive and finite"):
        build(k)


class TestWave:
    def test_undamped_energy_skew(self, wave32_undamped):
        margin = dissipativity_margin(wave32_undamped.A, wave32_undamped.H_ip)
        assert abs(margin) <= 1e-12

    def test_uniform_damping_hurwitz(self, wave32):
        assert spectral_abscissa(wave32.closed_loop()) < 0

    @pytest.mark.parametrize("N", [15, 8, 0])
    def test_small_grid_rejected(self, N):
        with pytest.raises(ValueError, match="N must be >= 16"):
            models.discretize_wave(N, lambda x: 1.0)

    def test_grid_record_and_profile(self):
        system = models.discretize_wave(16, lambda x: 2.0 if x <= 0.5 else 0.0, k=3.0)
        h = 1.0 / 17
        assert system.grid == {"L": 1.0, "N": 16, "spacing": h}
        assert np.array_equal(system.a_profile, np.where(h * np.arange(1, 17) <= 0.5, 2.0, 0.0))
        assert system.S_choice == damping.S_SUP and system.name == "wave" and system.k == 3.0
        assert np.array_equal(system.U_weights, h * np.ones(16))

    def test_localized_damping_hurwitz(self):
        sysloc = models.discretize_wave(
            32, lambda x: 1.0 if 0.3 <= x <= 0.7 else 0.0, k=1.0)
        assert spectral_abscissa(sysloc.closed_loop()) < 0

    def test_energy_conserved_along_flow(self, wave32_undamped):
        # matrix-exponential flow keeps the energy norm to 1e-9 over [0, 10]
        n = 32
        x = np.arange(1, n + 1) / (n + 1)
        z0 = np.concatenate([np.sin(np.pi * x), np.zeros(n)])
        e0 = wave32_undamped.norm_H(z0)
        for t in np.linspace(0.0, 10.0, 11):
            zt = matrix_exponential(wave32_undamped.A, t) @ z0
            assert abs(wave32_undamped.norm_H(zt) - e0) <= 1e-9 * e0

    def test_adjoint_extracts_scaled_velocity(self, wave32):
        rng = np.random.default_rng(3)
        z = rng.standard_normal(64)
        assert np.allclose(wave32.Bstar @ z, np.sqrt(wave32.a_profile) * z[32:],
                           atol=1e-12)
        assert wave32.Bstar is wave32.Bstar         # built once per system

    def test_graph_weight_is_the_quadratic_graph_norm(self, wave32):
        # z^T (W + A^T W A) z = ||z||_H^2 + ||Az||_H^2, built once per system
        z = np.random.default_rng(4).standard_normal(64)
        expected = wave32.norm_H(z) ** 2 + wave32.norm_H(wave32.A @ z) ** 2
        assert abs(z @ wave32.graph_weight @ z - expected) <= 1e-12 * expected
        assert wave32.graph_weight is wave32.graph_weight


class TestEstimateCS:
    def test_zero_input_map(self, wave32_undamped):
        assert models.estimate_cS(wave32_undamped, n_probes=100) == 0.0

    def test_control_norm_system_rejected(self, oscillator):
        with pytest.raises(ValueError, match="sup-norm choice only"):
            models.estimate_cS(oscillator, n_probes=100)

    def test_wave_positive_and_probe_monotone(self, wave32):
        small = models.estimate_cS(wave32, n_probes=100, seed=0)
        large = models.estimate_cS(wave32, n_probes=2000, seed=0)
        assert 0 < small <= large     # same leading probe stream, more candidates

    def test_kdv_bounded_under_refinement(self):
        # sup-norm/graph-norm ratio stays bounded as the grid doubles
        c1 = models.estimate_cS(
            models.discretize_kdv(2 * np.pi, 64, lambda x: 1.0), n_probes=2000, seed=0)
        c2 = models.estimate_cS(
            models.discretize_kdv(2 * np.pi, 128, lambda x: 1.0), n_probes=2000, seed=0)
        assert c2 <= 1.5 * c1
