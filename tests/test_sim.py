import numpy as np
import pytest
import scipy.linalg as sla

import lyapcert.sim as sim_mod
from lyapcert import damping, lyapunov, models, sim
from lyapcert.errors import ContractionViolation, StepRejectionLimit
from lyapcert.linalg import InnerProduct
from lyapcert.models import SemiDiscreteSystem


def undriven(A):
    n = A.shape[0]
    return SemiDiscreteSystem(A=np.asarray(A, dtype=float), B=np.zeros((n, 1)),
                              k=1.0, H_ip=InnerProduct.euclidean(n),
                              U_weights=np.ones(1))


def value_at(traj, t):
    return float(np.interp(t, traj.times, traj.norm_H))


class TestIntegrate:
    def test_scalar_linear_flow(self):
        traj = sim.integrate(undriven(np.array([[-1.0]])), damping.linear(),
                             np.array([1.0]),
                             sim.IntegratorConfig(dt=1e-3, t_end=1.0,
                                                  error_control="none"))
        assert abs(traj.norm_H[-1] - np.exp(-1.0)) < 1e-6

    def test_scalar_saturated_closed_form(self, scalar_system, clamp1):
        # dz/dt = -sat(z), z0 = 5: affine until t = 4, exponential afterwards
        traj = sim.integrate(scalar_system, clamp1, np.array([5.0]),
                             sim.IntegratorConfig(dt=1e-3, t_end=6.0,
                                                  error_control="none"))
        assert abs(value_at(traj, 1.0) - 4.0) < 1e-6
        assert abs(value_at(traj, 4.0) - 1.0) < 1e-6
        assert abs(value_at(traj, 6.0) - np.exp(-2.0)) < 1e-6

    def test_conservative_wave_norm_constant(self, wave32_undamped):
        x = np.arange(1, 33) / 33.0
        z0 = np.concatenate([np.sin(np.pi * x), np.zeros(32)])
        traj = sim.integrate(wave32_undamped, damping.linear(), z0,
                             sim.IntegratorConfig(dt=1e-3, t_end=10.0,
                                                  error_control="none"))
        drift = np.max(np.abs(traj.norm_H - traj.norm_H[0]))
        assert drift <= 1e-8 * traj.norm_H[0]

    def test_discrete_contraction_property(self, kdv64, clamp1):
        zhat = models.leading_eigvec(kdv64.closed_loop())
        zhat /= kdv64.norm_DA(zhat)
        traj = sim.integrate(kdv64, clamp1, 5.0 * zhat,
                             sim.IntegratorConfig(dt=1e-3, t_end=5.0,
                                                  error_control="none"))
        assert np.all(traj.norm_H[1:] <= traj.norm_H[:-1] * (1 + 1e-10))
        assert np.all(traj.damping_power >= -1e-12)

    def test_graph_norm_monotone_for_smoothed_data(self, kdv64, clamp1):
        rng = np.random.default_rng(4)
        z0 = sim.smooth_initial_state(kdv64, rng.standard_normal(64), eps=1e-3)
        traj = sim.integrate(kdv64, clamp1, z0,
                             sim.IntegratorConfig(dt=5e-4, t_end=2.0,
                                                  error_control="none"))
        tol = 1e-6 * traj.norm_DA[0]
        assert np.all(np.diff(traj.norm_DA) <= tol)

    def test_energy_identity(self, wave32, clamp1):
        x = np.arange(1, 33) / 33.0
        z0 = 3.0 * np.concatenate([np.sin(np.pi * x), np.sin(2 * np.pi * x)])
        traj = sim.integrate(wave32, clamp1, z0,
                             sim.IntegratorConfig(dt=1e-4, t_end=1.0,
                                                  error_control="none"))
        W = wave32.H_ip.weight
        idx = np.linspace(1, len(traj.times) - 2, 100).astype(int)
        for i in idx:
            dt2 = traj.times[i + 1] - traj.times[i - 1]
            lhs = (traj.norm_H[i + 1] ** 2 - traj.norm_H[i - 1] ** 2) / dt2
            z = traj.states[i]
            rhs = 2 * float(z @ W @ (wave32.A @ z)) - 2 * traj.damping_power[i]
            assert abs(lhs - rhs) <= 1e-4 * max(1.0, abs(rhs))

    def test_step_halving_second_order(self, oscillator):
        # smooth saturation keeps the scheme at its clean second order
        sat = damping.tanh_saturation(1.0)
        z0 = np.array([3.0, 1.0])
        runs = {}
        for dt in (2e-2, 1e-2, 5e-3):
            runs[dt] = sim.integrate(oscillator, sat, z0,
                                     sim.IntegratorConfig(dt=dt, t_end=2.0,
                                                          error_control="none"))
        ref = runs[5e-3]
        def err(traj, stride):
            return np.max(np.linalg.norm(
                traj.states - ref.states[::stride][:len(traj.states)], axis=1))
        e_coarse = err(runs[2e-2], 4)
        e_fine = err(runs[1e-2], 2)
        assert e_coarse / e_fine >= 3.5

    def test_adaptive_matches_fixed(self, oscillator, clamp1):
        z0 = np.array([2.0, -1.0])
        fixed = sim.integrate(oscillator, clamp1, z0,
                              sim.IntegratorConfig(dt=1e-3, t_end=3.0,
                                                   error_control="none"))
        adaptive = sim.integrate(oscillator, clamp1, z0,
                                 sim.IntegratorConfig(dt=1e-3, t_end=3.0,
                                                      error_control="step-halving",
                                                      local_error_target=1e-8))
        assert abs(adaptive.times[-1] - 3.0) < 1e-9
        assert abs(adaptive.norm_H[-1] - fixed.norm_H[-1]) < 1e-5

    def test_step_rejection_limit(self, kdv64, clamp1, monkeypatch):
        monkeypatch.setattr(sim_mod, "MAX_HALVINGS", 2)
        zhat = models.leading_eigvec(kdv64.closed_loop())
        with pytest.raises(StepRejectionLimit):
            sim.integrate(kdv64, clamp1, 5.0 * zhat,
                          sim.IntegratorConfig(dt=1e-2, t_end=1.0,
                                               error_control="step-halving",
                                               local_error_target=1e-18))

    def test_contraction_violation_aborts(self):
        growing = undriven(np.array([[0.1]]))       # deliberately non-dissipative
        with pytest.raises(ContractionViolation):
            sim.integrate(growing, damping.linear(), np.array([1.0]),
                          sim.IntegratorConfig(dt=1e-2, t_end=5.0,
                                               error_control="none"))

    def test_records_V_with_certificate(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        traj = sim.integrate(oscillator, clamp1, np.array([2.0, 0.0]),
                             sim.IntegratorConfig(dt=1e-3, t_end=1.0,
                                                  error_control="none"),
                             cert=cert)
        assert traj.V_values is not None
        assert abs(traj.V_values[0] - lyapunov.eval_V(cert, traj.states[0])) < 1e-12


def reference_integrate(system, spec, z0, config, cert=None):
    """Independent oracle for `sim.integrate`: the IMEX step as one LU solve
    of (I - dt/2 A) z_new = z + dt/2 A z + dt g(z_half) per step, with every
    diagnostic evaluated per step from the weight matrix.  Returns
    (times, norm_H, norm_DA, damping_power, V)."""
    A, W, w = system.A, system.H_ip.weight, system.U_weights
    sqrtk = np.sqrt(system.k)
    eye = np.eye(system.n)

    def control(z):
        return sqrtk * (system.Bstar @ z)

    def nonlinear(z):
        return -sqrtk * (system.B @ spec.apply(control(z), w))

    def step(z, dt):
        z_half = z + 0.5 * dt * (A @ z + nonlinear(z))
        rhs = z + 0.5 * dt * (A @ z) + dt * nonlinear(z_half)
        return sla.lu_solve(sla.lu_factor(eye - 0.5 * dt * A), rhs)

    def w_norm(z):
        return float(np.sqrt(z @ W @ z))

    def record(t, z):
        s = control(z)
        out.append((t, w_norm(z), w_norm(z) + w_norm(A @ z),
                    float(np.sum(w * spec.apply(s, w) * s)),
                    np.nan if cert is None else lyapunov.eval_V(cert, z)))

    out = []
    z = np.asarray(z0, dtype=float)
    norm0 = system.norm_H(z)
    t, dt = 0.0, min(config.dt, config.t_end)
    record(t, z)
    while t < config.t_end - 1e-12 * config.t_end:
        dt = min(dt, config.t_end - t)
        grow = False
        if config.error_control == "step-halving":
            while True:
                z_fine = step(step(z, 0.5 * dt), 0.5 * dt)
                err = system.norm_H(step(z, dt) - z_fine) / 3.0
                tol = config.local_error_target * max(system.norm_H(z), 1e-9 * norm0)
                if err <= tol:
                    break
                dt *= 0.5
            z_new, grow = z_fine, err <= 0.125 * tol
        else:
            z_new = step(z, dt)
        t += dt
        z = z_new
        record(t, z)
        if grow:
            dt = min(2.0 * dt, config.dt)
    return tuple(np.array(col) for col in zip(*out))


class TestAgainstReference:
    """`sim.integrate` (per-dt propagator, diagnostics after the loop) against
    the per-step LU-solve reference, to 1e-10 relative.  The damping power is
    compared relative to its largest value along the run: where the control
    signal crosses zero its pointwise relative error is set by the rounding
    of the state, not by the scheme."""

    @staticmethod
    def assert_matches(traj, ref, with_V):
        times, norm_H, norm_DA, power, V = ref
        assert np.array_equal(traj.times, times)
        np.testing.assert_allclose(traj.norm_H, norm_H, rtol=1e-10, atol=0)
        np.testing.assert_allclose(traj.norm_DA, norm_DA, rtol=1e-10, atol=0)
        assert np.max(np.abs(traj.damping_power - power)) <= 1e-10 * np.max(np.abs(power))
        if with_V:
            np.testing.assert_allclose(traj.V_values, V, rtol=1e-10, atol=0)

    def test_kdv_clamp_fixed_step(self, kdv64, clamp1):
        zhat = models.leading_eigvec(kdv64.closed_loop())
        z0 = 5.0 * zhat / kdv64.norm_DA(zhat)
        cert = lyapunov.build_semiglobal_certificate(
            kdv64, clamp1, 5.0, c_S=models.estimate_cS(kdv64))
        config = sim.IntegratorConfig(dt=2e-3, t_end=2.0, error_control="none")
        traj = sim.integrate(kdv64, clamp1, z0, config, cert=cert)
        self.assert_matches(traj, reference_integrate(kdv64, clamp1, z0, config, cert),
                            with_V=True)

    def test_oscillator_step_halving(self, oscillator):
        sat = damping.norm_saturation(1.0)
        cert = lyapunov.build_exp_certificate(oscillator, sat)
        z0 = np.array([20.0, 0.0])
        config = sim.IntegratorConfig(dt=1e-2, t_end=10.0, error_control="step-halving")
        traj = sim.integrate(oscillator, sat, z0, config, cert=cert)
        ref = reference_integrate(oscillator, sat, z0, config, cert)
        assert len(np.unique(np.round(np.diff(ref[0]), 12))) > 2    # dt did change
        self.assert_matches(traj, ref, with_V=True)


class TestUnitBallEntry:
    def test_starts_inside(self):
        traj = sim.Trajectory.from_norms([0.0, 1.0, 2.0], [0.5, 0.4, 0.3])
        assert sim.detect_unit_ball_entry(traj) == 0.0

    def test_scalar_saturated_entry_time(self, scalar_system, clamp1):
        traj = sim.integrate(scalar_system, clamp1, np.array([5.0]),
                             sim.IntegratorConfig(dt=1e-3, t_end=6.0,
                                                  error_control="none"))
        assert abs(traj.t_star - 4.0) <= 1e-3

    def test_never_enters(self, wave32_undamped):
        x = np.arange(1, 33) / 33.0
        z0 = np.concatenate([np.sin(np.pi * x), np.zeros(32)])
        z0 *= 2.0 / wave32_undamped.norm_H(z0)
        traj = sim.integrate(wave32_undamped, damping.linear(), z0,
                             sim.IntegratorConfig(dt=1e-2, t_end=2.0,
                                                  error_control="none"))
        assert traj.t_star is None

    def test_log_interpolation(self):
        # crossing between samples 1 and 2 interpolated in log norm
        traj = sim.Trajectory.from_norms([0.0, 1.0, 2.0], [4.0, 2.0, 0.5])
        expected = 1.0 + np.log(2.0) / (np.log(2.0) - np.log(0.5))
        assert abs(traj.t_star - expected) < 1e-12


class TestConfigValidation:
    def test_bad_dt(self):
        with pytest.raises(ValueError):
            sim.IntegratorConfig(dt=0.0, t_end=1.0)

    def test_infinite_horizon_rejected(self):
        with pytest.raises(ValueError):
            sim.IntegratorConfig(dt=1e-3, t_end=np.inf)

    def test_bad_scheme(self):
        with pytest.raises(ValueError):
            sim.IntegratorConfig(dt=1e-3, t_end=1.0, error_control="rk45")

    def test_times_strictly_increasing(self):
        with pytest.raises(ValueError):
            sim.Trajectory.from_norms([0.0, 0.0, 1.0], [1.0, 1.0, 1.0])
