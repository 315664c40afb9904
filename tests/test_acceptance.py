"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import time

import numpy as np
import pytest

from lyapcert import analysis, damping, lyapunov, models, sim
from lyapcert.linalg import InnerProduct, solve_lyapunov
from lyapcert.models import SemiDiscreteSystem

from conftest import (gramian_quadrature, random_dissipative_hurwitz, random_hurwitz,
                      random_spd)


def report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_lyapunov_solver_exactness():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 31))
        A = random_hurwitz(rng, n)
        Q = random_spd(rng, n)
        P = solve_lyapunov(A, Q)
        res = np.linalg.norm(A.T @ P + P @ A + Q, "fro")
        worst = max(worst, res / np.linalg.norm(Q, "fro"))
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 5.0,
           f"100 solves, worst relative residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_gramian_equivalence():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 9))
        A = random_hurwitz(rng, n)
        alpha = float(rng.uniform(0.0, 1.0))
        G = gramian_quadrature(A, alpha=alpha, tol=1e-7)
        ref = solve_lyapunov(A, np.eye(n)) + alpha * np.eye(n)
        worst = max(worst, float(np.max(np.abs(G - ref))))
    report(2, worst <= 1e-6,
           f"20 instances, worst quadrature/algebraic gap {worst:.3e}")


def test_criterion_3_poly_chain_inequalities():
    worst = -np.inf

    def chain(A, z0, alpha=0.1):
        n = A.shape[0]
        sysd = SemiDiscreteSystem(A=A, B=np.zeros((n, 1)), k=1.0,
                                  H_ip=InnerProduct.euclidean(n),
                                  U_weights=np.ones(1))
        P = gramian_quadrature(A, alpha=alpha, tol=1e-9)
        return analysis.verify_poly_chain(sysd, P, C=1.0, z0=z0,
                                          t_grid=np.linspace(0.0, 8.0, 9))

    rep = chain(np.array([[-1.0]]), np.array([2.0]))
    ok = rep.passed
    worst = max(worst, rep.max_violation)
    rng = np.random.default_rng(303)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        rep = chain(random_dissipative_hurwitz(rng, n), rng.standard_normal(n))
        ok = ok and rep.passed
        worst = max(worst, rep.max_violation)
    report(3, ok and worst <= 1e-8,
           f"scalar + 10 random instances, worst violation {worst:.3e}")


def test_criterion_4_strict_decrease_with_refinement(oscillator, clamp1):
    t0 = time.time()
    cert = lyapunov.build_exp_certificate(oscillator, clamp1)
    z0 = 20.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
    viol = {}
    passed = True
    for dt in (1e-3, 5e-4):
        traj = sim.integrate(oscillator, clamp1, z0,
                             sim.IntegratorConfig(dt=dt, t_end=20.0,
                                                  error_control="none"),
                             cert=cert)
        rep = analysis.verify_lyapunov_decrease(traj, cert)
        passed = passed and rep.passed
        viol[dt] = rep.max_violation
    elapsed = time.time() - t0
    shrank = viol[5e-4] <= viol[1e-3] / 2.0
    report(4, passed and shrank and elapsed < 30.0,
           f"violations {viol[1e-3]:.3e} -> {viol[5e-4]:.3e} "
           f"(ratio {viol[1e-3] / viol[5e-4]:.2f}), {elapsed:.1f}s")


def test_criterion_5_semiglobal_kdv_sweep(kdv64, clamp1):
    t0 = time.time()
    cfg = sim.IntegratorConfig(dt=1e-3, t_end=40.0, error_control="none")
    sat = analysis.sweep_semiglobal(kdv64, clamp1, [1.0, 5.0, 25.0], cfg)
    mus = [row[1] for row in sat.rows]
    r2s = [row[3] for row in sat.rows]
    lin = analysis.sweep_semiglobal(kdv64, damping.linear(), [1.0, 5.0, 25.0], cfg)
    lin_mus = [row[1] for row in lin.rows]
    elapsed = time.time() - t0
    ok = (all(r2 >= 0.99 for r2 in r2s)
          and mus[2] <= 1.2 * mus[0]
          and sat.mu_trend_ok
          and (max(lin_mus) - min(lin_mus)) <= 0.02 * min(lin_mus)
          and elapsed < 300.0)
    report(5, ok, f"mu(r) = {[f'{m:.4f}' for m in mus]}, R2 >= "
                  f"{min(r2s):.4f}, linear spread "
                  f"{(max(lin_mus) - min(lin_mus)) / min(lin_mus):.2e}, {elapsed:.0f}s")


def test_criterion_6_two_phase_behavior(scalar_system, oscillator, clamp1):
    certS = lyapunov.build_exp_certificate(scalar_system, clamp1)
    trS = sim.integrate(scalar_system, clamp1, np.array([100.0]),
                        sim.IntegratorConfig(dt=1e-3, t_end=112.0,
                                             error_control="none"), cert=certS)
    lpS = analysis.fit_linear_phase(trS, C_sigma=1.0, B_norm=1.0)
    tailS = analysis.fit_exponential(trS, window=(trS.t_star, trS.times[-1]))

    certO = lyapunov.build_exp_certificate(oscillator, clamp1)
    z0 = 100.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
    trO = sim.integrate(oscillator, clamp1, z0,
                        sim.IntegratorConfig(dt=1e-3, t_end=185.0,
                                             error_control="none"), cert=certO)
    lpO = analysis.fit_linear_phase(trO, C_sigma=1.0, B_norm=1.0)
    tailO = analysis.fit_exponential(trO, window=(trO.t_star, trO.times[-1]))

    # closed-form spot checks for the scalar run started at 5
    trC = sim.integrate(scalar_system, clamp1, np.array([5.0]),
                        sim.IntegratorConfig(dt=1e-3, t_end=6.0,
                                             error_control="none"))
    closed_form_err = max(
        abs(np.interp(1.0, trC.times, trC.norm_H) - 4.0),
        abs(np.interp(4.0, trC.times, trC.norm_H) - 1.0),
        abs(np.interp(6.0, trC.times, trC.norm_H) - np.exp(-2.0)))

    ok = (lpS.bound_ok and -2.0 <= lpS.rate <= 0.0
          and lpO.bound_ok and -2.0 <= lpO.rate <= 0.0
          and tailS.r_squared >= 0.99 and tailO.r_squared >= 0.99
          and closed_form_err <= 1e-4)
    report(6, ok, f"slopes {lpS.rate:.4f}, {lpO.rate:.4f} in [-2, 0]; tail R2 "
                  f"{tailS.r_squared:.4f}, {tailO.r_squared:.4f}; closed-form "
                  f"err {closed_form_err:.2e}")


def test_criterion_7_damping_definition_compliance():
    kinds = {
        "linear": damping.linear(),
        "clamp": damping.clamp(1.0),
        "tanh": damping.tanh_saturation(1.0),
        "arctan": damping.arctan_saturation(1.0),
        "norm_saturation": damping.norm_saturation(1.0),
    }
    ok = True
    worst = np.inf
    for name, spec in kinds.items():        # exact: the same report in every dimension
        rep = damping.verify_definition(spec)
        ok = ok and rep.item2_pass and rep.item3_pass
        worst = min(worst, rep.monotonicity_min, rep.sector_margin)

    wd = damping.weak_damping(1.0, 0.5)
    grid = np.logspace(-6, 2, 200)
    h_ok = all(abs(wd.h_eval(x) - x ** -0.5) <= 1e-12 * x ** -0.5 for x in grid)
    rep = damping.verify_definition(wd)
    flagged = any("unbounded" in f for f in rep.flags)
    ok = ok and h_ok and flagged
    report(7, ok, f"5 kinds exact margins >= {worst:.2e}; weak-damping "
                  f"h-power reproduced and singularity flagged: {h_ok and flagged}")


def test_criterion_8_conservation_control(wave32_undamped):
    x = np.arange(1, 33) / 33.0
    z0 = np.concatenate([np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x),
                         np.zeros(32)])
    traj = sim.integrate(wave32_undamped, damping.linear(), z0,
                         sim.IntegratorConfig(dt=1e-3, t_end=10.0,
                                              error_control="none"))
    drift = float(np.max(np.abs(traj.norm_H - traj.norm_H[0])) / traj.norm_H[0])
    report(8, drift <= 1e-8, f"energy drift {drift:.3e} over [0, 10]")


def test_criterion_9_determinism(tmp_path):
    from lyapcert.cli import main
    config = """
[system]
name = finite_dim
A = 0, 1; -1, 0
B = 1; 0

[damping]
kind = clamp

[sim]
dt = 1e-3
t_end = 8.0
error_control = off
z0 = eigvec 0 3.0

[analysis]
certificate = exp
fits = exponential, polynomial
"""
    cfgpath = tmp_path / "det.cfg"
    cfgpath.write_text(config)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        for cmd in ("simulate", "fit-decay"):
            rc = main([cmd, "--config", str(cfgpath), "--out", str(out),
                       "--seed", "11"])
            assert rc == 0
        outs.append(out)
    same = all((outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
               for f in ("trajectory.csv", "decay_fit.csv"))
    report(9, same, "repeated simulate + fit-decay runs byte-identical")
