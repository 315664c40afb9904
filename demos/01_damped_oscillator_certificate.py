# Build a strict Lyapunov certificate for a harmonic oscillator closed by a
# clamped (saturated) velocity feedback, then watch the two-phase decay:
# an affine slide while the feedback is saturated, an exponential tail once
# the trajectory enters the unit ball.

import numpy as np

from lyapcert import analysis, damping, lyapunov, models, sim

A = np.array([[0.0, 1.0], [-1.0, 0.0]])
B = np.array([[1.0], [0.0]])
system = models.make_finite_dim(A, B, k=1.0)
sat = damping.clamp(s0=1.0)

cert = lyapunov.build_exp_certificate(system, sat)
print("certificate kind:", cert.kind)
print("  P =", cert.P.tolist())
print("  decrease constant C =", cert.C)
print("  compensation weight M =", cert.M)
print("  coercivity alpha =", cert.alpha)

# launch far outside the saturation region
z0 = 60.0 * np.array([1.0, 1.0]) / np.sqrt(2.0)
cfg = sim.IntegratorConfig(dt=1e-3, t_end=120.0, error_control="none")
traj = sim.integrate(system, sat, z0, cfg, cert=cert)
print(f"\nsimulated {len(traj.times)} steps; unit-ball entry at t* = {traj.t_star:.2f}")

rep = analysis.verify_lyapunov_decrease(traj, cert)
print(f"dV/dt <= -C||z||^2 along the run: pass={rep.passed} "
      f"(max violation {rep.max_violation:.2e}, tolerance {rep.tolerance:.2e})")

lp = analysis.fit_linear_phase(traj, C_sigma=sat.s0, B_norm=cert.B_norm)
print(f"linear phase slope {lp.rate:.4f} (converse bound {lp.slope_bound}); "
      f"bound satisfied: {lp.bound_ok}")

tail = analysis.fit_exponential(traj, window=(traj.t_star, traj.times[-1]))
print(f"exponential tail: rate {tail.rate:.4f}, R^2 = {tail.r_squared:.5f}")

prof = analysis.behavior_profile(traj, sat, cert.B_norm, cert)
print(f"envelope from the certificate's constants (C4 = {prof.C4:.4f}, nothing fitted): "
      f"max observed/predicted {prof.pre_ratio:.4f} before t* and "
      f"{prof.post_ratio:.4f} after; the bound holds where both are <= 1")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(7, 4))
    ax.semilogy(traj.times, traj.norm_H, label="||z(t)||")
    ax.semilogy(prof.pre_samples[:, 0], prof.pre_samples[:, 2], "--",
                label="pre-entry envelope")
    ax.semilogy(prof.post_samples[:, 0], prof.post_samples[:, 2], ":",
                label="post-entry envelope")
    ax.axvline(traj.t_star, color="gray", lw=0.8)
    ax.set_xlabel("t")
    ax.set_ylabel("state norm")
    ax.legend()
    fig.tight_layout()
    fig.savefig("demo01_oscillator.png", dpi=120)
    print("wrote demo01_oscillator.png")
except ImportError:
    print("matplotlib not available; skipping the figure")
