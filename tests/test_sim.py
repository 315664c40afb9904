import math
import re

import numpy as np
import pytest
import scipy.linalg as sla

import lyapcert.sim as sim_mod
from lyapcert import damping, lyapunov, models, sim
from lyapcert.errors import (ContractionViolation, StepRejectionLimit,
                             SubflowNotConverged)
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
        # fixed-step norms are checked in blocks; the first growing step is named
        with pytest.raises(ContractionViolation, match=r"at t=0\.01$"):
            sim.integrate(growing, damping.linear(), np.array([1.0]),
                          sim.IntegratorConfig(dt=1e-2, t_end=5.0,
                                               error_control="none"))

    def test_contraction_violation_under_step_halving(self):
        growing = undriven(np.array([[0.5]]))
        # the message prints plain float reprs
        with pytest.raises(ContractionViolation,
                           match=r"^norm grew from 1\.0 to .* at t=0\.01$"):
            sim.integrate(growing, damping.linear(), np.array([1.0]),
                          sim.IntegratorConfig(dt=1e-2, t_end=1.0))

    def test_contraction_violation_names_earliest_step_across_rows(self):
        # B = e1, linear damping: the second row (0, 1) grows from the first
        # step, the first row (1, 1e-3) only once z1 has decayed, past step 64
        system = SemiDiscreteSystem(A=np.diag([-5.0, 0.01]), B=np.array([[1.0], [0.0]]),
                                    k=1.0, H_ip=InnerProduct.euclidean(2),
                                    U_weights=np.ones(1))
        with pytest.raises(ContractionViolation, match=r"^norm grew from 1\.0 to .* at t=0\.01$"):
            sim.integrate_batch(system, damping.linear(), np.array([[1.0, 1e-3], [0.0, 1.0]]),
                                sim.IntegratorConfig(dt=1e-2, t_end=3.0, error_control="none"))

    def test_records_V_with_certificate(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        traj = sim.integrate(oscillator, clamp1, np.array([2.0, 0.0]),
                             sim.IntegratorConfig(dt=1e-3, t_end=1.0,
                                                  error_control="none"),
                             cert=cert)
        assert traj.V_values is not None
        assert abs(traj.V_values[0] - lyapunov.eval_V(cert, traj.states[0])) < 1e-12


def reference_imex(system, spec, z0, config):
    """The previous scheme, kept as an order check of the new one: implicit
    trapezoidal on A and explicit midpoint on the damping, one LU solve of
    (I - dt/2 A) z_new = z + dt/2 A z + dt g(z_half) per step.  Returns
    (times, norm_H)."""
    A, w = system.A, system.U_weights
    sqrtk = np.sqrt(system.k)
    eye = np.eye(system.n)

    def nonlinear(z):
        return -sqrtk * (system.B @ spec.apply(sqrtk * (system.Bstar @ z), w))

    z = np.asarray(z0, dtype=float)
    times, norms = [0.0], [system.norm_H(z)]
    for t, dt in reference_fixed_grid(config):
        z_half = z + 0.5 * dt * (A @ z + nonlinear(z))
        rhs = z + 0.5 * dt * (A @ z) + dt * nonlinear(z_half)
        z = sla.lu_solve(sla.lu_factor(eye - 0.5 * dt * A), rhs)
        times.append(t)
        norms.append(system.norm_H(z))
    return np.array(times), np.array(norms)


def reference_fixed_grid(config):
    """(t_next, step length) of the fixed-step grid t_k = k dt, ended at t_end."""
    k, t_end = 0, config.t_end
    while k * config.dt < t_end * (1.0 - 1e-12):
        t_next = (k + 1) * config.dt
        if t_next >= t_end * (1.0 - 1e-12):
            yield t_end, t_end - k * config.dt
            return
        yield t_next, config.dt
        k += 1


def reference_subflow(system, spec, z, dt):
    """Exact damping subflow for linear, clamp and norm saturation damping,
    one scalar at a time.  B*B is diagonal here, so s_j = sqrt(k) (B* z)_j obeys
    ds_j/dt = -g_j sigma(s_j) with g_j = k (B*B)_jj, and z moves by
    sqrt(k) B (s_new - s)/g."""
    sqrtk = math.sqrt(system.k)
    BsB = system.Bstar @ system.B
    assert np.count_nonzero(BsB - np.diag(np.diag(BsB))) == 0
    g = system.k * np.diag(BsB)
    s = sqrtk * (system.Bstar @ z)
    s0 = spec.s0

    def clamp_flow(x, gj):
        """|s(dt)| from |s(0)| = x under d|s|/dt = -gj min(|s|, s0)."""
        if x > s0:
            t_hit = (x - s0) / (gj * s0)
            if t_hit >= dt:
                return x - gj * s0 * dt
            return s0 * math.exp(-gj * (dt - t_hit))
        return x * math.exp(-gj * dt)

    if spec.kind == "linear":
        s_new = np.array([x * math.exp(-gj * dt) for x, gj in zip(s, g)])
    elif spec.kind == "norm_saturation":
        assert len(set(g.tolist())) == 1
        r = math.sqrt(float(np.sum(system.U_weights * s * s)))
        s_new = s * (clamp_flow(r, g[0]) / r) if r > 0 else s
    else:
        assert spec.scalar_rule == "clamp"
        s_new = np.array([math.copysign(clamp_flow(abs(x), gj), x) if gj > 0 else x
                          for x, gj in zip(s, g)])
    delta = np.array([(a - b) / gj if gj > 0 else 0.0 for a, b, gj in zip(s_new, s, g)])
    return z + sqrtk * (system.B @ delta)


def reference_integrate(system, spec, z0, config, cert=None):
    """Independent oracle for `sim.integrate`: the Strang step as two dense
    solves of (I - dt/4 A) y = (I + dt/4 A) x around the scalar subflow, with
    every diagnostic evaluated per step from the weight matrix.  Returns
    (times, norm_H, norm_DA, damping_power, V)."""
    A, W, w = system.A, system.H_ip.weight, system.U_weights
    eye = np.eye(system.n)

    def step(z, dt):
        z = np.linalg.solve(eye - 0.25 * dt * A, (eye + 0.25 * dt * A) @ z)
        z = reference_subflow(system, spec, z, dt)
        return np.linalg.solve(eye - 0.25 * dt * A, (eye + 0.25 * dt * A) @ z)

    def w_norm(z):
        return float(np.sqrt(z @ W @ z))

    def record(t, z):
        s = np.sqrt(system.k) * (system.Bstar @ z)
        out.append((t, w_norm(z), w_norm(z) + w_norm(A @ z),
                    float(np.sum(w * spec.apply(s, w) * s)),
                    np.nan if cert is None else lyapunov.eval_V(cert, z)))

    out = []
    z = np.asarray(z0, dtype=float)
    record(0.0, z)
    if config.error_control == "none":
        for t, dt in reference_fixed_grid(config):
            z = step(z, dt)
            record(t, z)
        return tuple(np.array(col) for col in zip(*out))
    norm0 = system.norm_H(z)
    t, dt = 0.0, min(config.dt, config.t_end)
    while t < config.t_end - 1e-12 * config.t_end:
        dt = min(dt, config.t_end - t)
        while True:
            z_fine = step(step(z, 0.5 * dt), 0.5 * dt)
            err = system.norm_H(step(z, dt) - z_fine) / 3.0
            tol = config.local_error_target * max(system.norm_H(z), 1e-9 * norm0)
            if err <= tol:
                break
            dt *= 0.5
        t += dt
        z = z_fine
        record(t, z)
        if err <= 0.125 * tol:
            dt = min(2.0 * dt, config.dt)
    return tuple(np.array(col) for col in zip(*out))


class TestAgainstReference:
    """`sim.integrate` (fused Strang step, diagnostics after the loop) against
    the per-step dense-solve reference, to 1e-10 relative.  The damping power
    is compared relative to its largest value along the run: where the control
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

    @pytest.mark.parametrize("case", ["kdv_clamp", "oscillator_norm_saturation"])
    def test_previous_scheme_gap_is_second_order(self, case, kdv64, oscillator):
        """The explicit-midpoint IMEX scheme and the Strang scheme are both
        second order, so their gap falls about 4x when dt is halved."""
        if case == "kdv_clamp":
            zhat = models.leading_eigvec(kdv64.closed_loop())
            system, spec = kdv64, damping.clamp(1.0)
            z0, dts, t_end = 5.0 * zhat / kdv64.norm_DA(zhat), (2e-3, 1e-3), 1.0
        else:
            system, spec = oscillator, damping.norm_saturation(1.0)
            z0, dts, t_end = np.array([20.0, 0.0]), (2e-2, 1e-2), 10.0
        gaps = []
        for dt in dts:
            config = sim.IntegratorConfig(dt=dt, t_end=t_end, error_control="none")
            times, norms = reference_imex(system, spec, z0, config)
            traj = sim.integrate(system, spec, z0, config)
            assert np.array_equal(traj.times, times)
            gaps.append(np.max(np.abs(traj.norm_H - norms)))
        assert gaps[0] / gaps[1] >= 3.5


def pure_damping(gains, weights=None):
    """A = 0, B = diag(gains): every step is the damping subflow alone, so the
    recorded states sample its exact flow z' = -B sigma(B* z)."""
    m = len(gains)
    W = np.eye(m) if weights is None else np.diag(weights)
    return SemiDiscreteSystem(A=np.zeros((m, m)), B=np.diag(gains), k=1.0,
                              H_ip=InnerProduct(W), U_weights=np.diag(W).copy())


class TestSubflows:
    """Each closed-form subflow against `solve_ivp` at rtol 1e-12."""

    @staticmethod
    def flow(system, spec, z0, times):
        from scipy.integrate import solve_ivp

        def rhs(_, z):
            s = system.Bstar @ z
            return -(system.B @ spec.apply(s, system.U_weights))
        sol = solve_ivp(rhs, (0.0, times[-1]), z0, method="DOP853", t_eval=times,
                        rtol=1e-13, atol=1e-16 * np.max(np.abs(z0)))
        assert sol.success
        return sol.y.T

    @pytest.mark.parametrize("spec, gains, z0, dt, t_end", [
        (damping.linear(), [1.0, 0.7], [3.0, -2.0], 0.25, 2.0),
        # the first component crosses s0 = 1 at t = 4, inside the step [3.9, 4.2]
        (damping.clamp(1.0), [1.0, 0.7], [5.0, -0.5], 0.3, 6.0),
        (damping.tanh_saturation(1.0), [1.0, 0.7], [3.0, -1.0], 0.25, 3.0),
        (damping.tanh_saturation(0.5), [1.0, 0.7], [450.0, -0.2], 0.5, 2.0),   # |s|/s0 = 900
        # norm saturation with equal gains: a clamp on |s|, which reaches s0 at t = 4
        (damping.norm_saturation(1.0), [1.0, 1.0], [4.0, -3.0], 0.3, 6.0),
    ])
    def test_closed_form_matches_solve_ivp(self, spec, gains, z0, dt, t_end):
        system = pure_damping(gains)
        z0 = np.array(z0)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            traj = sim.integrate(system, spec, z0,
                                 sim.IntegratorConfig(dt=dt, t_end=t_end,
                                                      error_control="none"))
        ref = self.flow(system, spec, z0, traj.times)
        np.testing.assert_allclose(traj.states, ref, rtol=1e-12, atol=0)

    def test_weak_damping_extinction(self):
        # |s_j|^(1/2) falls linearly at rate g_j c / 2: extinction at
        # t = 2 |s_j(0)|^(1/2) / g_j, here 2.0 and about 1.87
        spec = damping.weak_damping(1.0, 0.5)
        gains = np.array([1.0, 0.7])
        system = pure_damping(gains)
        z0 = np.array([1.0, -0.3])
        traj = sim.integrate(system, spec, z0,
                             sim.IntegratorConfig(dt=0.125, t_end=3.0,
                                                  error_control="none"))
        s0 = np.abs(gains * z0)
        t_ext = 2.0 * np.sqrt(s0) / gains**2
        early = traj.times < 0.9 * t_ext.min()
        ref = self.flow(system, spec, z0, traj.times[early])
        np.testing.assert_allclose(traj.states[early], ref, rtol=1e-12, atol=0)
        for j in range(2):
            # extinct up to the rounding of z - B (s - s_new) / g
            after = traj.times >= t_ext[j]
            assert np.all(np.abs(traj.states[after, j]) <= 1e-15 * abs(z0[j]))
            assert np.all(np.abs(traj.states[~after, j]) > 1e-3 * abs(z0[j]))


class TestNewtonSubflow:
    """Arctan and a non-diagonal B*B take the implicit-midpoint substep."""

    @pytest.fixture(scope="class")
    def coupled(self):
        # B has non-orthogonal columns, so B*B = [[1, .5], [.5, 1.25]]
        A = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, -0.1]])
        return models.make_finite_dim(A, np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]]))

    def test_linear_coupled_is_second_order(self, coupled):
        z0 = np.array([2.0, -1.0, 0.5])
        exact = sla.expm(2.0 * coupled.closed_loop()) @ z0
        errs = []
        for dt in (2e-2, 1e-2):
            traj = sim.integrate(coupled, damping.linear(), z0,
                                 sim.IntegratorConfig(dt=dt, t_end=2.0,
                                                      error_control="none"))
            errs.append(np.linalg.norm(traj.states[-1] - exact))
        assert errs[1] < 1e-4 * np.linalg.norm(z0)
        assert errs[0] / errs[1] >= 3.5

    @pytest.mark.parametrize("spec", [damping.clamp(1.0), damping.tanh_saturation(1.0),
                                      damping.arctan_saturation(1.0),
                                      damping.norm_saturation(1.0),
                                      damping.weak_damping(1.0, 0.5)])
    def test_coupled_runs_contract(self, coupled, spec):
        traj = sim.integrate(coupled, spec, np.array([4.0, -3.0, 2.0]),
                             sim.IntegratorConfig(dt=1e-2, t_end=5.0,
                                                  error_control="none"))
        assert np.all(traj.norm_H[1:] <= traj.norm_H[:-1])
        assert traj.norm_H[-1] < traj.norm_H[0]

    def test_arctan_is_second_order(self, oscillator):
        spec = damping.arctan_saturation(1.0)
        z0 = np.array([3.0, 1.0])
        finals = {}
        for dt in (4e-2, 2e-2, 1e-2):
            traj = sim.integrate(oscillator, spec, z0,
                                 sim.IntegratorConfig(dt=dt, t_end=2.0,
                                                      error_control="none"))
            finals[dt] = traj.states[-1]
        ratio = (np.linalg.norm(finals[4e-2] - finals[2e-2])
                 / np.linalg.norm(finals[2e-2] - finals[1e-2]))
        assert ratio >= 3.5

    def test_unconverged_newton_raises(self, kdv64, monkeypatch):
        monkeypatch.setattr(sim_mod, "NEWTON_MAXITER", 1)
        zhat = models.leading_eigvec(kdv64.closed_loop())
        with pytest.raises(SubflowNotConverged):
            sim.integrate(kdv64, damping.arctan_saturation(1.0), 5.0 * zhat,
                          sim.IntegratorConfig(dt=1e-2, t_end=1.0,
                                               error_control="none"))


class TestWeakDampingContracts:
    """Weak damping is not Lipschitz at 0; the previous explicit-midpoint
    damping term overshot there and aborted with ContractionViolation."""

    @pytest.mark.parametrize("case", ["kdv64", "wave32"])
    def test_runs_to_t_end_with_norm_nonincreasing(self, case, kdv64, wave32):
        # kdv64 from 5 zhat aborted at t = 2.61, wave32 from 0.01 zhat at
        # t = 0.12; kdv64 is damped everywhere and goes extinct
        system, scale, dt, t_end, drop = {"kdv64": (kdv64, 5.0, 2e-3, 16.0, 0.0),
                                          "wave32": (wave32, 0.01, 1e-2, 10.0, 0.1)}[case]
        zhat = models.leading_eigvec(system.closed_loop())
        zhat /= system.norm_DA(zhat)
        traj = sim.integrate(system, damping.weak_damping(1.0, 0.5), scale * zhat,
                             sim.IntegratorConfig(dt=dt, t_end=t_end,
                                                  error_control="none"))
        assert traj.times[-1] == t_end
        assert np.all(traj.norm_H[1:] <= traj.norm_H[:-1])
        assert traj.norm_H[-1] <= drop * traj.norm_H[0]


class TestBatch:
    def test_block_equals_single_runs(self, kdv64, clamp1):
        zhat = models.leading_eigvec(kdv64.closed_loop())
        zhat /= kdv64.norm_DA(zhat)
        Z0 = np.outer([1.0, 5.0, 25.0], zhat)
        config = sim.IntegratorConfig(dt=2e-3, t_end=2.0, error_control="none")
        block = sim.integrate_batch(kdv64, clamp1, Z0, config)
        assert len(block) == 3
        singles = [sim.integrate(kdv64, clamp1, z0, config) for z0 in Z0]
        for traj, single in zip(block, singles):
            assert np.array_equal(traj.times, single.times)
            np.testing.assert_allclose(traj.norm_H, single.norm_H, rtol=1e-12, atol=0)
            np.testing.assert_allclose(traj.damping_power, single.damping_power,
                                       rtol=1e-12, atol=1e-12 * single.damping_power.max())
            # the block enters the linear regime with its largest row
            assert traj.stats == {**single.stats, "rows": 3,
                                  "max_growth": traj.stats["max_growth"],
                                  "linear_steps": min(t.stats["linear_steps"]
                                                      for t in singles)}
        assert singles[0].stats["linear_steps"] > 0

    def test_step_halving_block_runs_rows_alone(self, oscillator):
        sat = damping.norm_saturation(1.0)
        Z0 = np.array([[20.0, 0.0], [2.0, 1.0]])
        config = sim.IntegratorConfig(dt=1e-2, t_end=5.0)
        block = sim.integrate_batch(oscillator, sat, Z0, config)
        for z0, traj in zip(Z0, block):
            single = sim.integrate(oscillator, sat, z0, config)
            assert np.array_equal(traj.times, single.times)
            np.testing.assert_allclose(traj.norm_H, single.norm_H, rtol=1e-12, atol=0)

    def test_block_shape_checked(self, oscillator, clamp1):
        config = sim.IntegratorConfig(dt=1e-2, t_end=1.0, error_control="none")
        with pytest.raises(ValueError):
            sim.integrate_batch(oscillator, clamp1, np.array([1.0, 0.0]), config)
        with pytest.raises(ValueError):
            sim.integrate(oscillator, clamp1, np.ones((2, 2)), config)
        with pytest.raises(ValueError):
            sim.integrate_batch(oscillator, clamp1, np.ones((2, 3)), config)


class TestLinearRegime:
    """Once kappa ||z||_H <= s0 the fixed-step loop advances by powers of the
    linear step; the states, the growth check and the grid stay those of the
    per-step loop."""

    @pytest.mark.parametrize("case", ["kdv_linear", "kdv_clamp_r25",
                                      "oscillator_norm_saturation"])
    def test_matches_reference(self, case, kdv64, oscillator):
        system, spec, scale, dt, t_end = {
            "kdv_linear": (kdv64, damping.linear(), 5.0, 2e-3, 1.0),
            "kdv_clamp_r25": (kdv64, damping.clamp(1.0), 25.0, 2e-3, 6.0),
            "oscillator_norm_saturation": (oscillator, damping.norm_saturation(1.0),
                                           20.0, 1e-2, 20.0),
        }[case]
        zhat = models.leading_eigvec(system.closed_loop())
        z0 = scale * zhat / system.norm_DA(zhat)
        cert = lyapunov.build_exp_certificate(system, spec) if system is oscillator else None
        config = sim.IntegratorConfig(dt=dt, t_end=t_end, error_control="none")
        traj = sim.integrate(system, spec, z0, config, cert=cert)
        assert traj.stats["linear_steps"] > 0
        TestAgainstReference.assert_matches(
            traj, reference_integrate(system, spec, z0, config, cert), with_V=cert is not None)

    @pytest.mark.parametrize("spec", [damping.clamp(0.5), damping.norm_saturation(0.5)])
    def test_radius_is_the_exact_bound(self, wave32, spec):
        # the wave's energy weight is not diagonal; kappa from dense W^-1 and eigh
        T = np.sqrt(wave32.k) * wave32.Bstar
        W = wave32.H_ip.weight
        if spec.kind == "norm_saturation":
            kappa2 = sla.eigh(T.T @ np.diag(wave32.U_weights) @ T, W, eigvals_only=True)[-1]
        else:
            kappa2 = np.max(np.diag(T @ np.linalg.solve(W, T.T)))
        radius, _ = sim_mod._subflow(wave32, spec)[1]
        assert radius == pytest.approx(0.5 / np.sqrt(kappa2), rel=1e-12)

    def test_growth_inside_linear_block_raises(self):
        # B = e1 with linear damping: z1 decays, the undamped z2 grows slowly,
        # so the norm falls and then grows, after the switch at step 64
        dt = 1e-2
        system = SemiDiscreteSystem(A=np.diag([-5.0, 0.01]), B=np.array([[1.0], [0.0]]),
                                    k=1.0, H_ip=InnerProduct.euclidean(2),
                                    U_weights=np.ones(1))
        z0 = np.array([1.0, 1e-3])
        # one step multiplies z1 by the two Cayley half-steps and exp(-dt), z2
        # by its two half-steps; the first step beyond GROWTH_TOL is named
        cayley = [(1.0 + 0.25 * dt * a) / (1.0 - 0.25 * dt * a) for a in (-5.0, 0.01)]
        rates = (cayley[0] ** 2 * math.exp(-dt), cayley[1] ** 2)
        z, prev, k = list(z0), math.hypot(*z0), 0
        while True:
            k += 1
            z = [zi * ri for zi, ri in zip(z, rates)]
            new = math.hypot(*z)
            if new > prev * (1.0 + sim_mod.GROWTH_TOL) + 1e-14 * math.hypot(*z0):
                break
            prev = new
        assert k > sim_mod.CHECK_EVERY
        with pytest.raises(ContractionViolation, match=rf"at t={re.escape(repr(k * dt))}$"):
            sim.integrate(system, damping.linear(), z0,
                          sim.IntegratorConfig(dt=dt, t_end=3.0, error_control="none"))

    @pytest.mark.parametrize("spec", [damping.tanh_saturation(1.0),
                                      damping.arctan_saturation(1.0),
                                      damping.weak_damping(1.0, 0.5)])
    def test_nonlinear_rules_bypass(self, oscillator, spec):
        traj = sim.integrate(oscillator, spec, np.array([0.1, 0.0]),
                             sim.IntegratorConfig(dt=1e-2, t_end=2.0,
                                                  error_control="none"))
        assert traj.stats["linear_steps"] == 0

    def test_coupled_linear_bypasses(self):
        # B*B = [[1, .5], [.5, 1.25]] is not diagonal: the implicit-midpoint step
        coupled = models.make_finite_dim(
            np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, -0.1]]),
            np.array([[1.0, 0.5], [0.0, 1.0], [0.0, 0.0]]))
        traj = sim.integrate(coupled, damping.linear(), np.array([0.1, 0.0, 0.0]),
                             sim.IntegratorConfig(dt=1e-2, t_end=2.0,
                                                  error_control="none"))
        assert traj.stats["linear_steps"] == 0

    def test_step_halving_bypasses(self, oscillator):
        traj = sim.integrate(oscillator, damping.linear(), np.array([0.1, 0.0]),
                             sim.IntegratorConfig(dt=1e-2, t_end=2.0))
        assert traj.stats["linear_steps"] == 0

    def test_shortened_last_step_after_linear_path(self, oscillator):
        spec = damping.norm_saturation(1.0)
        z0 = np.array([0.5, 0.0])
        config = sim.IntegratorConfig(dt=1e-2, t_end=1.505, error_control="none")
        traj = sim.integrate(oscillator, spec, z0, config)
        assert traj.times[-1] == 1.505 and len(traj.times) == 152
        assert traj.stats["distinct_dt"] == 2
        assert traj.stats["linear_steps"] == 150 - sim_mod.CHECK_EVERY
        TestAgainstReference.assert_matches(
            traj, reference_integrate(oscillator, spec, z0, config), with_V=False)


class TestStats:
    def test_fixed_step_block_factors_once(self, kdv64, clamp1):
        zhat = models.leading_eigvec(kdv64.closed_loop())
        block = sim.integrate_batch(kdv64, clamp1, np.outer([1.0, 5.0, 25.0], zhat),
                                    sim.IntegratorConfig(dt=2e-3, t_end=2.0,
                                                         error_control="none"))
        for traj in block:
            assert traj.stats["distinct_dt"] == 1
            assert traj.stats["rows"] == 3
            assert traj.stats["accepted_steps"] == 1000 == len(traj.times) - 1
            assert traj.stats["rejected_trials"] == traj.stats["max_halvings"] == 0
            assert traj.stats["max_growth"] <= 1.0 + traj.stats["growth_tol"]

    def test_shortened_last_step_factors_twice(self, oscillator, clamp1):
        traj = sim.integrate(oscillator, clamp1, np.array([2.0, 0.0]),
                             sim.IntegratorConfig(dt=0.3, t_end=1.0,
                                                  error_control="none"))
        assert np.allclose(traj.times, [0.0, 0.3, 0.6, 0.9, 1.0], rtol=0, atol=1e-15)
        assert traj.stats["distinct_dt"] == 2

    def test_step_halving_reports_halvings(self, oscillator):
        traj = sim.integrate(oscillator, damping.norm_saturation(1.0),
                             np.array([20.0, 0.0]),
                             sim.IntegratorConfig(dt=1e-2, t_end=10.0))
        st = traj.stats
        assert st["rejected_trials"] > 0 and 1 <= st["max_halvings"] <= sim_mod.MAX_HALVINGS
        assert st["accepted_steps"] == len(traj.times) - 1
        assert st["distinct_dt"] > 1 and st["rows"] == 1
        assert st["max_growth"] <= 1.0


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
