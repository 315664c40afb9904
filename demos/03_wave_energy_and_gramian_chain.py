# The semi-discrete string: with no damping the energy inner product makes
# the generator exactly skew, so the integrator must conserve the norm; with
# distributed tanh damping the Gramian construction yields a quadratic
# certificate whose chain inequalities bound the norm by an inverse-sqrt
# factor on bounded launch sets.

import numpy as np

from lyapcert import InnerProduct, analysis, damping, lyapunov, models, sim
from lyapcert.linalg import dissipativity_margin, solve_lyapunov

undamped = models.discretize_wave(N=32, a_profile=lambda x: 0.0)
print("undamped dissipativity margin:",
      dissipativity_margin(undamped.A, undamped.H_ip))

x = np.arange(1, 33) / 33.0
z0 = np.concatenate([np.sin(np.pi * x), np.zeros(32)])
cfg = sim.IntegratorConfig(dt=1e-3, t_end=10.0, error_control="none")
traj = sim.integrate(undamped, damping.linear(), z0, cfg)
drift = np.max(np.abs(traj.norm_H - traj.norm_H[0])) / traj.norm_H[0]
print(f"energy drift over [0, 10]: {drift:.2e}  (conservation control)")

damped = models.discretize_wave(N=32, a_profile=lambda x: 1.0)
sat = damping.tanh_saturation(s0=1.0)
cert = lyapunov.build_poly_certificate(damped, sat, r=2.0, gamma=1.0, seed=0)
print(f"\nGramian certificate: C = {cert.C:.6f}, C_theta = {cert.C_theta:.4f}, "
      f"M = {cert.M:.4f}, alpha = {cert.alpha:.2e}")

zhat = models.leading_eigvec(damped.closed_loop())
zhat /= damped.norm_DA(zhat)
run = sim.integrate(damped, sat, 2.0 * zhat,
                    sim.IntegratorConfig(dt=5e-4, t_end=20.0, error_control="none"),
                    cert=cert)
rep = analysis.verify_lyapunov_decrease(run, cert)
print(f"decrease along the damped run: pass={rep.passed} "
      f"(max violation {rep.max_violation:.2e})")

# chain inequalities for the linear flow of a small dissipative system
rng = np.random.default_rng(1)
S = rng.standard_normal((4, 4)); S = S - S.T
R = rng.standard_normal((4, 4))
A = S - R @ R.T - 0.2 * np.eye(4)
small = models.SemiDiscreteSystem(A=A, B=np.zeros((4, 1)), k=1.0,
                                  H_ip=InnerProduct.euclidean(4),
                                  U_weights=np.ones(1))
P = solve_lyapunov(A, np.eye(4)) + 0.1 * np.eye(4)
chain = analysis.verify_poly_chain(small, P, C=1.0, z0=rng.standard_normal(4),
                                   t_grid=np.linspace(0.0, 8.0, 9))
print(f"\nchain inequalities on the linear flow: pass={chain.passed}")
print(f"  tail-bound margin     = {chain.details['tail_margin']:.3e}")
print(f"  doubling-bound margin = {chain.details['doubling_margin']:.3e}")
