import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from lyapcert import analysis, damping, lyapunov, models, sim
from lyapcert.errors import InsufficientData, NoLinearPhase, NotHurwitz
from lyapcert.linalg import InnerProduct, matrix_exponential
from lyapcert.models import SemiDiscreteSystem

from conftest import (gramian_quadrature, random_dissipative_hurwitz, random_hurwitz,
                      random_spd)


def synthetic(times, norms):
    return sim.Trajectory.from_norms(times, norms)


class TestFits:
    def test_exponential_exact(self):
        t = np.linspace(0.0, 5.0, 200)
        est = analysis.fit_exponential(synthetic(t, np.exp(-2.0 * t)))
        assert abs(est.rate - 2.0) < 1e-9
        assert abs(est.r_squared - 1.0) < 1e-9

    def test_constant_sequence(self):
        t = np.linspace(0.0, 5.0, 50)
        est = analysis.fit_exponential(synthetic(t, np.full(50, 2.0)))
        assert abs(est.rate) < 1e-12

    def test_polynomial_exact(self):
        t = np.linspace(0.0, 40.0, 400)
        est = analysis.fit_polynomial(synthetic(t, (1.0 + t) ** -0.5))
        assert abs(est.rate - 0.5) < 1e-9
        assert abs(est.r_squared - 1.0) < 1e-9

    def test_model_discrimination(self):
        t = np.linspace(0.0, 10.0, 300)
        traj = synthetic(t, np.exp(-t))
        r2_exp = analysis.fit_exponential(traj).r_squared
        r2_poly = analysis.fit_polynomial(traj).r_squared
        assert r2_poly < r2_exp

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            analysis.fit_exponential(synthetic([0.0, 1.0, 2.0], [1.0, 0.5, 0.25]))

    def test_noise_floor_excluded(self):
        t = np.linspace(0.0, 50.0, 500)
        n = np.exp(-t) + 0.0
        n[n < 1e-8] = 1e-12          # buried samples must not poison the fit
        est = analysis.fit_exponential(synthetic(t, n), window=(0.0, 17.0))
        assert abs(est.rate - 1.0) < 1e-6

    def test_refined_dt_self_consistency(self, oscillator, clamp1):
        z0 = np.array([1.0, 0.0])
        fits = []
        for dt in (1e-3, 2.5e-4):
            traj = sim.integrate(oscillator, clamp1, z0,
                                 sim.IntegratorConfig(dt=dt, t_end=25.0,
                                                      error_control="none"))
            fits.append(analysis.fit_exponential(traj).rate)
        assert abs(fits[0] - fits[1]) <= 0.1 * abs(fits[1])


class TestLyapunovDecrease:
    def test_linear_damping_exact_flow_nonpositive(self, oscillator):
        # on the exact linear closed-loop flow the sampled decrease test has
        # no positive violation at all
        lin = damping.linear()
        cert = lyapunov.build_exp_certificate(oscillator, lin)
        At = oscillator.closed_loop(1.0)
        times = np.linspace(0.0, 10.0, 2001)
        z0 = np.array([3.0, 1.0])
        states = np.array([matrix_exponential(At, t) @ z0 for t in times])
        norms = np.linalg.norm(states, axis=1)
        V = np.array([lyapunov.eval_V(cert, z) for z in states])
        traj = sim.Trajectory(times=times, states=states, norm_H=norms,
                              norm_DA=np.full_like(norms, np.nan),
                              damping_power=np.zeros_like(norms), V_values=V)
        rep = analysis.verify_lyapunov_decrease(traj, cert)
        assert rep.passed
        assert rep.max_violation <= 1e-12

    def test_clamped_oscillator_violation_shrinks(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        z0 = 20.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
        viol = {}
        for dt in (1e-3, 5e-4):
            traj = sim.integrate(oscillator, clamp1, z0,
                                 sim.IntegratorConfig(dt=dt, t_end=20.0,
                                                      error_control="none"),
                                 cert=cert)
            rep = analysis.verify_lyapunov_decrease(traj, cert)
            assert rep.passed
            viol[dt] = rep.max_violation
        assert viol[5e-4] <= viol[1e-3] / 2.0

    def test_corrupted_certificate_fails(self, oscillator, clamp1):
        import dataclasses
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        bad = dataclasses.replace(cert, M=0.5 * cert.M)
        z0 = 100.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
        traj = sim.integrate(oscillator, clamp1, z0,
                             sim.IntegratorConfig(dt=1e-3, t_end=30.0,
                                                  error_control="none"),
                             cert=bad)
        rep = analysis.verify_lyapunov_decrease(traj, bad)
        assert not rep.passed

    def test_corrupted_tail_fails(self, oscillator, clamp1):
        # demo 01's run with V raised by 10 (t - t*) after unit-ball entry; a
        # slack scaled by the launch's V(0) (26.3 here) let it pass
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        z0 = 60.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
        traj = sim.integrate(oscillator, clamp1, z0,
                             sim.IntegratorConfig(dt=1e-3, t_end=120.0,
                                                  error_control="none"),
                             cert=cert)
        assert analysis.verify_lyapunov_decrease(traj, cert).passed
        tail = traj.times > traj.t_star
        V = traj.V_values.copy()
        V[tail] += 10.0 * (traj.times[tail] - traj.t_star)
        bad = sim.Trajectory.from_norms(traj.times, traj.norm_H, V_values=V)
        assert not analysis.verify_lyapunov_decrease(bad, cert).passed

    def test_zero_state_has_no_violation(self, oscillator, clamp1):
        # each step's scale C ||z||^2 is floored, so a run at rest divides by no zero
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        rest = sim.Trajectory.from_norms(np.arange(5.0), np.zeros(5), V_values=np.zeros(5))
        with np.errstate(all="raise"):
            rep = analysis.verify_lyapunov_decrease(rest, cert)
        assert rep.passed and rep.max_violation == 0.0

    def test_requires_recorded_V(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        traj = sim.integrate(oscillator, clamp1, np.array([1.0, 0.0]),
                             sim.IntegratorConfig(dt=1e-2, t_end=1.0,
                                                  error_control="none"))
        with pytest.raises(ValueError):
            analysis.verify_lyapunov_decrease(traj, cert)


class TestDecreaseAcrossZoo:
    def test_every_certificate_on_its_validity_domain(self, oscillator, kdv64,
                                                      wave32):
        zoo = [damping.linear(), damping.clamp(1.0), damping.tanh_saturation(1.0),
               damping.arctan_saturation(1.0), damping.norm_saturation(1.0)]
        cases = []
        for spec in zoo:
            cases.append((oscillator, spec, "exp", 1e-3, 20.0))
        for system in (kdv64, wave32):
            for spec in zoo:
                route = ("semiglobal"
                         if spec.kind == "componentwise_saturation" else "exp")
                cases.append((system, spec, route, 5e-4, 10.0))
        for system, spec, route, dt, t_end in cases:
            if route == "exp":
                cert = lyapunov.build_exp_certificate(system, spec)
            else:
                c_S = models.estimate_cS(system, n_probes=200, seed=0)
                cert = lyapunov.build_semiglobal_certificate(system, spec, r=2.0,
                                                             c_S=c_S)
            zhat = models.leading_eigvec(system.closed_loop(spec.C1))
            z0 = 2.0 * zhat / system.norm_DA(zhat)
            traj = sim.integrate(system, spec, z0,
                                 sim.IntegratorConfig(dt=dt, t_end=t_end,
                                                      error_control="none"),
                                 cert=cert)
            rep = analysis.verify_lyapunov_decrease(traj, cert)
            assert rep.passed, (system.name, spec.kind, spec.scalar_rule,
                                rep.max_violation, rep.tolerance)


class TestPolyChain:
    def test_scalar_analytic(self):
        sysd = SemiDiscreteSystem(A=np.array([[-1.0]]), B=np.zeros((1, 1)), k=1.0,
                                  H_ip=InnerProduct.euclidean(1),
                                  U_weights=np.ones(1))
        P = gramian_quadrature(np.array([[-1.0]]), alpha=0.1, tol=1e-9)
        assert abs(P[0, 0] - 0.6) < 1e-8
        rep = analysis.verify_poly_chain(sysd, P, C=1.0, z0=np.array([2.0]),
                                         t_grid=np.linspace(0.0, 8.0, 9))
        assert rep.passed
        # the tail margin is exactly the coercivity shift times the decayed norm
        assert rep.details["tail_margin"] == pytest.approx(0.1 * 4.0 * np.exp(-16.0),
                                                           rel=1e-3, abs=1e-9)

    def test_small_times_excluded_from_doubling_check(self):
        sysd = SemiDiscreteSystem(A=np.array([[-1.0]]), B=np.zeros((1, 1)), k=1.0,
                                  H_ip=InnerProduct.euclidean(1),
                                  U_weights=np.ones(1))
        P = gramian_quadrature(np.array([[-1.0]]), alpha=0.1, tol=1e-9)
        rep = analysis.verify_poly_chain(sysd, P, C=1.0, z0=np.array([2.0]),
                                         t_grid=np.array([0.25, 0.5]))
        assert rep.details["doubling_margin"] is None

    def test_random_dissipative_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(4):
            n = int(rng.integers(2, 6))
            A = random_dissipative_hurwitz(rng, n)
            sysd = SemiDiscreteSystem(A=A, B=np.zeros((n, 1)), k=1.0,
                                      H_ip=InnerProduct.euclidean(n),
                                      U_weights=np.ones(1))
            P = gramian_quadrature(A, alpha=0.1, tol=1e-9)
            rep = analysis.verify_poly_chain(sysd, P, C=1.0,
                                             z0=rng.standard_normal(n),
                                             t_grid=np.linspace(0.0, 6.0, 7))
            assert rep.passed and rep.max_violation <= 1e-8


    def test_tail_margin_matches_quadrature(self):
        # independent oracle: the tail int_t^inf ||z(s)||^2 ds by adaptive quadrature
        rng = np.random.default_rng(17)
        n = 3
        A = random_hurwitz(rng, n)
        W = random_spd(rng, n)
        sysd = SemiDiscreteSystem(A=A, B=np.zeros((n, 1)), k=1.0,
                                  H_ip=InnerProduct(W), U_weights=np.ones(1))
        P = np.linalg.solve(W, random_spd(rng, n))
        z0 = rng.standard_normal(n)
        t_grid = np.linspace(0.0, 4.0, 5)
        rep = analysis.verify_poly_chain(sysd, P, C=1.0, z0=z0, t_grid=t_grid)

        def norm_sq(s):
            z = matrix_exponential(A, s) @ z0
            return float(z @ W @ z)

        G = W @ P
        worst = np.inf
        for t in t_grid:
            zt = matrix_exponential(A, t) @ z0
            tail, _ = quad(norm_sq, t, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
            worst = min(worst, float(zt @ G @ zt) - tail)
        assert rep.details["tail_margin"] == pytest.approx(worst, rel=1e-8, abs=1e-12)

    def test_skew_flow_not_hurwitz(self):
        sysd = SemiDiscreteSystem(A=np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                  B=np.zeros((2, 1)), k=1.0,
                                  H_ip=InnerProduct.euclidean(2), U_weights=np.ones(1))
        with pytest.raises(NotHurwitz):
            analysis.verify_poly_chain(sysd, np.eye(2), C=1.0, z0=np.ones(2),
                                       t_grid=np.linspace(0.0, 2.0, 3))


class TestLinearPhase:
    def test_scalar_saturated_slope(self, scalar_system, clamp1):
        traj = sim.integrate(scalar_system, clamp1, np.array([5.0]),
                             sim.IntegratorConfig(dt=1e-3, t_end=6.0,
                                                  error_control="none"))
        est = analysis.fit_linear_phase(traj, C_sigma=1.0, B_norm=1.0)
        assert abs(est.rate + 1.0) < 1e-6
        assert est.slope_bound == -2.0
        assert est.bound_ok

    def test_inside_ball_rejected(self, scalar_system, clamp1):
        traj = sim.integrate(scalar_system, clamp1, np.array([0.5]),
                             sim.IntegratorConfig(dt=1e-2, t_end=1.0,
                                                  error_control="none"))
        with pytest.raises(NoLinearPhase):
            analysis.fit_linear_phase(traj, C_sigma=1.0, B_norm=1.0)

    def test_too_few_samples_before_entry(self):
        traj = sim.Trajectory.from_norms([0.0, 1.0, 2.0, 3.0], [3.0, 0.5, 0.2, 0.1])
        with pytest.raises(NoLinearPhase, match="^fewer than 3 samples before unit-ball entry$"):
            analysis.fit_linear_phase(traj, C_sigma=1.0, B_norm=1.0)

    def test_oscillator_slope_bounded(self, oscillator, clamp1):
        z0 = 30.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
        traj = sim.integrate(oscillator, clamp1, z0,
                             sim.IntegratorConfig(dt=1e-3, t_end=60.0,
                                                  error_control="none"))
        est = analysis.fit_linear_phase(traj, C_sigma=1.0, B_norm=1.0)
        assert est.bound_ok and -2.0 <= est.rate <= 0.0


class TestSweep:
    def test_linear_damping_flat(self, kdv64):
        cfg = sim.IntegratorConfig(dt=1e-3, t_end=40.0, error_control="none")
        res = analysis.sweep_semiglobal(kdv64, damping.linear(),
                                        [1.0, 5.0, 25.0], cfg)
        mus = [row[1] for row in res.rows]
        assert (max(mus) - min(mus)) <= 0.02 * min(mus)
        assert res.mu_trend_ok

    def test_bad_radii(self, kdv64, clamp1):
        cfg = sim.IntegratorConfig(dt=1e-3, t_end=1.0, error_control="none")
        with pytest.raises(ValueError):
            analysis.sweep_semiglobal(kdv64, clamp1, [5.0, 1.0], cfg)


# frozen: behavior_profile on the osc_pipeline benchmark's fixed-step run
# (oscillator, norm saturation s0 = 1, launch 'eigvec 0 20.0', dt 2e-3,
# t_end 40), from the 64-point C4 grid and the C3 calibrated on the run,
# which the envelope now reports as pre_ratio
BENCH_RUN_C3 = 0.991904850570111
BENCH_RUN_C4 = 2.7045575454704047
BENCH_RUN_C_V = 0.276393202250021
BENCH_RUN_POST_RATIO = 0.4365187309650114
BENCH_RUN_SCALED_C3 = 1.0117429475815132     # the same run with every norm x 1.02


@pytest.fixture(scope="module")
def bench_run(oscillator):
    sat = damping.norm_saturation(1.0)
    cert = lyapunov.build_exp_certificate(oscillator, sat)
    zhat = models.leading_eigvec(oscillator.closed_loop(), 0)
    traj = sim.integrate(oscillator, sat, (20.0 / oscillator.norm_DA(zhat)) * zhat,
                         sim.IntegratorConfig(dt=2e-3, t_end=40.0, error_control="none"),
                         cert=cert)
    return traj, sat, cert


def grid_C4(traj, damping_spec, cert):
    """C4 as the maximum of F_up/F over 64 geometric points of [1, X0]."""
    X = np.geomspace(1.0, max(traj.norm_H[0] ** 2, 1.0 + 1e-9), 64)
    F = damping_spec.k_integral(X) + cert.alpha * X
    F_up = cert.P_norm_H * X + cert.M * X**1.5 * damping_spec.h_eval(0.0)
    return float(np.max(F_up / F))


class TestBehaviorProfile:
    def test_two_phase_envelopes(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        cfg = sim.IntegratorConfig(dt=1e-3, t_end=45.0, error_control="none")
        small = sim.integrate(oscillator, clamp1,
                              20.0 * np.array([1.0, 1.0]) / np.sqrt(2.0), cfg,
                              cert=cert)
        prof_small = analysis.behavior_profile(small, clamp1, cert.B_norm, cert)
        assert prof_small.pre_ratio <= 1.0 + 1e-9     # nothing fitted to this run

        cfg2 = sim.IntegratorConfig(dt=1e-3, t_end=80.0, error_control="none")
        big = sim.integrate(oscillator, clamp1,
                            40.0 * np.array([1.0, 1.0]) / np.sqrt(2.0), cfg2,
                            cert=cert)
        prof_big = analysis.behavior_profile(big, clamp1, cert.B_norm, cert)
        assert prof_big.pre_ratio <= 1.0 + 1e-9
        assert prof_big.post_ratio <= 1.0

    def test_matches_calibrated_constants(self, bench_run):
        traj, sat, cert = bench_run
        prof = analysis.behavior_profile(traj, sat, cert.B_norm, cert)
        for got, frozen in ((prof.pre_ratio, BENCH_RUN_C3), (prof.C4, BENCH_RUN_C4),
                            (prof.C_V, BENCH_RUN_C_V),
                            (prof.post_ratio, BENCH_RUN_POST_RATIO)):
            assert abs(got - frozen) <= 1e-12 * frozen
        pre_t, pre_obs, pre_pred = prof.pre_samples.T
        assert prof.pre_ratio == np.max(pre_obs / pre_pred)
        assert len(pre_t) >= analysis.PROFILE_SAMPLES
        assert prof.pre_ratio <= 1.0

    def test_corrupted_run_exceeds_envelope(self, bench_run):
        traj, sat, cert = bench_run
        scaled = sim.Trajectory.from_norms(traj.times, 1.02 * traj.norm_H,
                                           V_values=traj.V_values)
        prof = analysis.behavior_profile(scaled, sat, cert.B_norm, cert)
        assert prof.pre_ratio > 1.01
        assert abs(prof.pre_ratio - BENCH_RUN_SCALED_C3) <= 1e-12 * BENCH_RUN_SCALED_C3

    @pytest.mark.parametrize("rule", ["clamp", "tanh", "arctan", "norm_saturation"])
    def test_C4_is_the_grid_maximum(self, oscillator, scalar_system, rule):
        # F_up/F is monotone in sqrt(X), so its two ends give what 64 grid
        # points give; C4 depends on the run through ||z(0)||_H alone
        spec = damping.BY_NAME[rule][0](s0=1.0)
        t = np.linspace(0.0, 10.0, 101)
        for system in (oscillator, scalar_system):
            cert = lyapunov.build_exp_certificate(system, spec)
            for n0 in (1.0, 1.5, 5.0, 20.0, 60.0, 1e3):
                norms = n0 * np.exp(-t)
                traj = sim.Trajectory.from_norms(t, norms, V_values=cert.P_norm_H * norms**2)
                prof = analysis.behavior_profile(traj, spec, cert.B_norm, cert)
                assert prof.C4 == grid_C4(traj, spec, cert)

    @pytest.mark.parametrize("r", [5.0, 20.0, 60.0])
    def test_scalar_system_within_envelope(self, scalar_system, clamp1, r):
        cert = lyapunov.build_exp_certificate(scalar_system, clamp1)
        traj = sim.integrate(scalar_system, clamp1, np.array([r]),
                             sim.IntegratorConfig(dt=1e-3, t_end=20.0 + 2 * r,
                                                  error_control="none"), cert=cert)
        prof = analysis.behavior_profile(traj, clamp1, cert.B_norm, cert)
        assert prof.pre_ratio <= 1.0 + 1e-7
        assert prof.post_ratio <= 1.0

    def test_envelope_matches_closed_form(self, oscillator, clamp1):
        # For constant h, F(X) = (2/3) X^1.5 + lam X and G(F(X)) = 2 sqrt(X) +
        # lam ln X, so the bracket X(t) solves
        # 2 (sqrt(X0) - sqrt(X)) + lam ln(X0 / X) = t / C4 with F(X0) = V0 / C4,
        # and the raw envelope is sqrt(F_lo^-1(C4 F(X(t)))).
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        cfg = sim.IntegratorConfig(dt=1e-3, t_end=45.0, error_control="none")
        traj = sim.integrate(oscillator, clamp1,
                             20.0 * np.array([1.0, 1.0]) / np.sqrt(2.0), cfg,
                             cert=cert)
        prof = analysis.behavior_profile(traj, clamp1, cert.B_norm, cert)
        lam, M, C4 = cert.alpha, cert.M, prof.C4

        def F(X):
            return (2.0 / 3.0) * X**1.5 + lam * X

        def F_lo(X):
            return lam * X + (2.0 * M / 3.0) * X**1.5

        def inverse(f, v):
            return brentq(lambda X: f(X) - v, 0.0, v / lam, xtol=1e-300, rtol=1e-15)

        X0 = inverse(F, traj.V_values[0] / C4)
        for t, _, pred in prof.pre_samples:
            X = X0 if t == 0.0 else brentq(
                lambda X: 2.0 * (np.sqrt(X0) - np.sqrt(X)) + lam * np.log(X0 / X) - t / C4,
                1e-12, X0, xtol=1e-300, rtol=1e-15)
            exact = np.sqrt(inverse(F_lo, C4 * F(X)))
            assert abs(pred - exact) <= 1e-4 * exact

    def test_rejects_weak_damping(self, wave32, clamp1):
        # no certificate carries weak damping, so one of the clamp stands in
        wd = damping.weak_damping(1.0, 0.5)
        cert = lyapunov.build_semiglobal_certificate(wave32, clamp1, 2.0, c_S=0.3)
        traj = sim.Trajectory.from_norms(np.linspace(0.0, 2.0, 21),
                                         np.linspace(2.0, 0.5, 21),
                                         V_values=np.linspace(8.0, 0.5, 21))
        assert traj.t_star is not None
        with pytest.raises(ValueError, match="weak damping"):
            analysis.behavior_profile(traj, wd, cert.B_norm, cert)

    def test_saturation_envelope_is_affine(self, oscillator, clamp1):
        cert = lyapunov.build_exp_certificate(oscillator, clamp1)
        cfg = sim.IntegratorConfig(dt=1e-3, t_end=45.0, error_control="none")
        traj = sim.integrate(oscillator, clamp1,
                             20.0 * np.array([1.0, 1.0]) / np.sqrt(2.0), cfg,
                             cert=cert)
        prof = analysis.behavior_profile(traj, clamp1, cert.B_norm, cert)
        t = prof.pre_samples[:, 0]
        pred = prof.pre_samples[:, 2]
        A = np.vstack([t, np.ones_like(t)]).T
        coef, res, *_ = np.linalg.lstsq(A, pred, rcond=None)
        ss_tot = np.sum((pred - pred.mean()) ** 2)
        assert 1.0 - float(res[0]) / ss_tot >= 0.999
        assert coef[0] < 0.0

    def test_requires_entry(self, wave32_undamped):
        x = np.arange(1, 33) / 33.0
        z0 = np.concatenate([np.sin(np.pi * x), np.zeros(32)])
        z0 *= 2.0 / wave32_undamped.norm_H(z0)
        traj = sim.integrate(wave32_undamped, damping.linear(), z0,
                             sim.IntegratorConfig(dt=1e-2, t_end=2.0,
                                                  error_control="none"))
        cert = None
        with pytest.raises(NoLinearPhase):
            analysis.behavior_profile(traj, damping.linear(), 0.0, cert)


class TestWeakDampingObservation:
    def test_wave_weak_damping_fit_consistency(self):
        # decay-exponent observation under sublinear damping, recorded with a
        # refined-dt control; the fitted exponent is reported, not certified
        wd = damping.weak_damping(c=1.0, q=0.5)
        wave = models.discretize_wave(32, lambda x: 1.0, k=1.0)
        zhat = models.leading_eigvec(wave.closed_loop())
        zhat /= wave.norm_DA(zhat)
        rates = []
        for dt in (1e-3, 2.5e-4):
            traj = sim.integrate(wave, wd, 10.0 * zhat,
                                 sim.IntegratorConfig(dt=dt, t_end=10.0,
                                                      error_control="none"))
            rates.append(analysis.fit_polynomial(traj).rate)
        assert rates[0] == pytest.approx(rates[1], rel=0.1)
        n2 = models.discretize_wave(64, lambda x: 1.0, k=1.0)
        zh2 = models.leading_eigvec(n2.closed_loop())
        zh2 /= n2.norm_DA(zh2)
        traj2 = sim.integrate(n2, wd, 10.0 * zh2,
                              sim.IntegratorConfig(dt=1e-3, t_end=10.0,
                                                   error_control="none"))
        assert analysis.fit_polynomial(traj2).rate == pytest.approx(rates[0], rel=0.25)
