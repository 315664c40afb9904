"""Decay-rate fits, certificate verification along trajectories, the
Gramian chain inequalities for linear flows, semi-global sweeps and the
two-phase (linear then exponential) envelope analysis.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientData, NoLinearPhase
from .linalg import matrix_exponential, solve_lyapunov
from .models import leading_eigvec
from .sim import integrate_batch

NOISE_FLOOR = 1e-8
DOMAIN_TOL = 1e-12      # relative slack of the launch's D(A) norm over the radius r
DECREASE_TOL = 1e-3     # slack of each step's dV/dt + C ||z||_H^2, relative to C ||z||_H^2
CHAIN_TOL = 1e-8        # absolute slack of the Gramian chain inequalities
SLOPE_TOL = 0.05        # relative slack of the linear-phase slope bound
TREND_SLACK = 0.2       # relative rise of mu(r) from one radius to the next
TAIL_WINDOW = (1e-3, 1e-7)      # fit window of a sweep run, relative to its launch norm
PROFILE_SAMPLES = 160   # envelope samples per phase of behavior_profile


@dataclass
class DecayEstimate:
    model: str                 # exponential | polynomial | linear_phase
    rate: float
    prefactor: float
    window: tuple
    r_squared: float
    slope_bound: float = None
    bound_ok: bool = None

    def row(self):
        return (self.model, self.rate, self.prefactor,
                self.window[0], self.window[1], self.r_squared)


@dataclass
class VerificationReport:
    check: str
    max_violation: float
    tolerance: float
    passed: bool
    samples: int
    details: dict = field(default_factory=dict)

    def row(self):
        return (self.check, self.max_violation, self.tolerance,
                self.passed, self.samples)


def _linear_fit(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    return float(coef[0]), float(coef[1]), r2


def _fit_window(traj, window):
    mask = traj.norm_H > NOISE_FLOOR
    idx = np.nonzero(mask)[0]
    if window is not None:
        t_lo, t_hi = window
        idx = idx[(traj.times[idx] >= t_lo) & (traj.times[idx] <= t_hi)]
    else:
        idx = idx[len(idx) // 2:]        # latter half of the usable samples
    if len(idx) < 10:
        raise InsufficientData(f"{len(idx)} usable samples (need >= 10)")
    return idx


def _log_fit(traj, window, model, x_of_t):
    """Least-squares fit of log ||z|| vs x_of_t(t); rate is the negated slope."""
    idx = _fit_window(traj, window)
    t = traj.times[idx]
    slope, intercept, r2 = _linear_fit(x_of_t(t), np.log(traj.norm_H[idx]))
    return DecayEstimate(model=model, rate=-slope, prefactor=float(np.exp(intercept)),
                         window=(float(t[0]), float(t[-1])), r_squared=r2)


def fit_exponential(traj, window=None):
    """Least-squares fit of log ||z|| vs t; rate is the negated slope."""
    return _log_fit(traj, window, "exponential", lambda t: t)


def fit_polynomial(traj, window=None):
    """Least-squares fit of log ||z|| vs log(1 + t); rate is the decay exponent."""
    return _log_fit(traj, window, "polynomial", np.log1p)


def verify_lyapunov_decrease(traj, cert):
    """Per-step check of dV/dt <= -C ||z||_H^2 along a recorded trajectory.

    Each step's violation dV/dt + C (||z_k||^2 + ||z_k+1||^2)/2 (the
    trapezoid, free of the left-point rule's O(dt) error) is taken relative to
    its own C (||z_k||^2 + ||z_k+1||^2)/2, floored at the smallest normal
    float, so the slack follows the state rather than the launch."""
    if traj.V_values is None:
        raise ValueError("trajectory has no recorded V values")
    V = traj.V_values
    if len(V) < 2:
        raise InsufficientData(f"{len(V)} samples (need >= 2 for the decrease check)")
    sq = traj.norm_H ** 2
    scale = 0.5 * cert.C * (sq[:-1] + sq[1:])
    viol = (np.diff(V) / np.diff(traj.times) + scale) / np.maximum(scale, np.finfo(float).tiny)
    max_violation = float(np.max(viol))
    return VerificationReport(check="lyapunov_decrease",
                              max_violation=max_violation, tolerance=DECREASE_TOL,
                              passed=max_violation <= DECREASE_TOL, samples=len(V) - 1)


def verify_validity_domain(traj, r):
    """Whether the launch lies in the domain ||z(0)||_{D(A)} <= r on which a
    semiglobal or poly certificate holds; the margin is ||z(0)||_{D(A)}/r - 1."""
    margin = float(traj.norm_DA[0] / r - 1.0)
    return VerificationReport(check="validity_domain", max_violation=margin,
                              tolerance=DOMAIN_TOL, passed=margin <= DOMAIN_TOL, samples=1)


def verify_poly_chain(system, P_theta, C, z0, t_grid):
    """Chain inequalities for the linear flow z(t) = exp(tA) z0.

    (a) <P z(t), z(t)>_H >= C * int_t^inf ||z(s)||_H^2 ds, with the tail taken
        exactly as z(t)^T X z(t) where A^T X + X A = -W (so A must be Hurwitz;
        NotHurwitz otherwise);
    (b) (1 + t) ||z(t)||_H^2 <= (4/C) <P z(t/2), z(t/2)>_H for grid points t >= 1.
    """
    z0 = np.asarray(z0, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    W = system.H_ip.weight
    Gform = W @ np.asarray(P_theta, dtype=float)
    Gform = 0.5 * (Gform + Gform.T)
    X = solve_lyapunov(system.A, W)

    def flow(t):
        return matrix_exponential(system.A, float(t)) @ z0

    worst_a = worst_b = np.inf
    used_b = 0
    for t in t_grid:
        zt = flow(t)
        worst_a = min(worst_a, float(zt @ Gform @ zt) - C * float(zt @ X @ zt))
        if t < 1.0:
            continue
        used_b += 1
        zh = flow(0.5 * t)
        worst_b = min(worst_b, (4.0 / C) * float(zh @ Gform @ zh)
                      - (1.0 + t) * system.norm_H(zt) ** 2)

    max_violation = float(max(-worst_a, -worst_b if used_b else -np.inf))
    return VerificationReport(check="poly_chain", max_violation=max_violation,
                              tolerance=CHAIN_TOL,
                              passed=max_violation <= CHAIN_TOL,
                              samples=len(t_grid),
                              details={"tail_margin": worst_a,
                                       "doubling_margin": worst_b if used_b else None})


def fit_linear_phase(traj, C_sigma, B_norm):
    """Linear fit of the norm on [0, t*]; slope compared against -2 C_sigma ||B||."""
    if traj.t_star is None or traj.norm_H[0] <= 1.0:
        raise NoLinearPhase("trajectory does not start outside the unit ball")
    mask = traj.times <= traj.t_star
    if int(np.sum(mask)) < 3:
        raise NoLinearPhase("fewer than 3 samples before unit-ball entry")
    t = traj.times[mask]
    slope, intercept, r2 = _linear_fit(t, traj.norm_H[mask])
    bound = -2.0 * C_sigma * B_norm
    return DecayEstimate(model="linear_phase", rate=slope, prefactor=intercept,
                         window=(float(t[0]), float(t[-1])), r_squared=r2,
                         slope_bound=bound,
                         bound_ok=bool(slope >= bound * (1.0 + SLOPE_TOL)))


@dataclass
class SweepResult:
    rows: list                      # (r, mu, prefactor, r_squared)
    mu_trend_ok: bool


def _relative_tail_window(traj):
    """Time window where the norm has decayed into TAIL_WINDOW of its start.

    Keyed to the launch level so runs that differ only by scale get the same
    trajectory section; for a linear flow this makes the fitted rate exactly
    scale-invariant.
    """
    rel_hi, rel_lo = TAIL_WINDOW
    n0 = traj.norm_H[0]
    below_hi = np.nonzero(traj.norm_H <= rel_hi * n0)[0]
    t_lo = traj.times[below_hi[0]] if len(below_hi) else traj.times[len(traj.times) // 2]
    below_lo = np.nonzero(traj.norm_H <= rel_lo * n0)[0]
    t_hi = traj.times[below_lo[0]] if len(below_lo) else traj.times[-1]
    return float(t_lo), float(t_hi)


def sweep_semiglobal(system, damping, radii, config):
    """Integrate from r * zhat for every radius (one block) and fit the
    exponential tail of each run.

    zhat is the closed-loop eigenvector of smallest eigenvalue modulus,
    normalized to unit D(A) norm.  The tail window is taken relative to each
    launch level; mu(r) is expected nonincreasing within TREND_SLACK.
    """
    radii = list(radii)
    if any(r <= 0 for r in radii) or any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and increasing")
    zhat = leading_eigvec(system.closed_loop())
    zhat = zhat / system.norm_DA(zhat)
    rows = []
    trajs = integrate_batch(system, damping, np.outer(radii, zhat), config)
    for r, traj in zip(radii, trajs):
        est = fit_exponential(traj, window=_relative_tail_window(traj))
        rows.append((float(r), est.rate, est.prefactor, est.r_squared))
    mus = [row[1] for row in rows]
    ok = all(m2 <= m1 * (1.0 + TREND_SLACK) for m1, m2 in zip(mus, mus[1:]))
    return SweepResult(rows=rows, mu_trend_ok=ok)


@dataclass
class BehaviorProfile:
    t_star: float
    C4: float
    C_V: float
    pre_ratio: float              # max observed / predicted on [0, t*]; <= 1 where it holds
    post_ratio: float             # max observed / predicted after t*
    pre_samples: np.ndarray       # (t, observed, predicted)
    post_samples: np.ndarray


def behavior_profile(traj, damping, B_norm, cert):
    """Two-phase envelope: comparison-function bound before unit-ball entry,
    exponential bound after, both from the certificate's constants alone.

    C4 rescales the certificate functional into the bracket
    F(X) = K(X) + lam_min X, so that V <= C4 F on ||z||_H >= 1.  With
    dV/dt <= -||z||_H^2 and F_lo <= V the norm envelope then holds as it is;
    the ratios report how close the run comes to it.  Weak damping (decreasing
    h) is rejected.  B_norm is unused: h = 1 makes K independent of ||B*||.
    """
    if damping.kind == "weak_damping":
        raise ValueError("weak damping has decreasing h; the envelope brackets do not apply")
    if traj.t_star is None:
        raise NoLinearPhase("trajectory never enters the unit ball")
    lam_min = cert.alpha
    M = cert.M
    P_norm = cert.P_norm_H

    def F(X):
        return damping.k_integral(X) + lam_min * X

    def F_up(X):
        return P_norm * X + M * X**1.5

    def F_lo(X):
        return lam_min * X + (2.0 * M / 3.0) * X**1.5

    n0 = traj.norm_H[0]
    X0 = n0 * n0
    # F_up/F = (P + M u)/((2/3) u + lam_min) with u = sqrt(X) is a Moebius
    # function of u, so monotone: its maximum over [1, X0] is at an end
    ends = np.array([1.0, max(X0, 1.0 + 1e-9)])
    C4 = float(np.max(F_up(ends) / F(ends)))

    V0 = float(traj.V_values[0]) if traj.V_values is not None else F_up(X0)
    v_hi = max(V0 / C4, 1.0 + 1e-9)

    # One table of F on a geometric X-grid serves every inversion: g = F^-1
    # is the grid itself, G(v) = int dv / g(v) a cumulative trapezoid of 1/X
    # over v = F(X), and F_lo^-1 a log-log lookup.  F and F_lo are both
    # >= lam_min X, so the grid reaches F^-1(v_hi) and F_lo^-1(C4 v_hi); it
    # starts where F is about 1e-6 or below.
    X_grid = np.geomspace(1e-6 / max(1.0, lam_min), max(1.0, C4) * v_hi / lam_min, 4096)
    v_grid = F(X_grid)
    inv_X = 1.0 / X_grid
    G_grid = np.concatenate([[0.0], np.cumsum(0.5 * (inv_X[1:] + inv_X[:-1])
                                              * np.diff(v_grid))])
    G_at_start = np.interp(v_hi, v_grid, G_grid)
    log_X, log_F_lo = np.log(X_grid), np.log(F_lo(X_grid))

    def norm_pred(t):
        v = C4 * np.interp(G_at_start - t / C4, G_grid, v_grid)
        return np.exp(0.5 * np.interp(np.log(v), log_F_lo, log_X))

    pre_samples, pre_ratio = _against(traj, traj.times <= traj.t_star, norm_pred)

    # post-entry: exponential envelope with the in-ball decrease constant
    C_V = 1.0 / (P_norm + M)
    amp = np.sqrt((P_norm + M) / lam_min)
    post_samples, post_ratio = _against(
        traj, traj.times >= traj.t_star,
        lambda t: amp * np.exp(-0.5 * C_V * (t - traj.t_star)))

    return BehaviorProfile(t_star=traj.t_star, C4=C4, C_V=C_V,
                           pre_ratio=pre_ratio, post_ratio=post_ratio,
                           pre_samples=pre_samples, post_samples=post_samples)


def _against(traj, mask, envelope):
    """(t, observed, predicted) at every stride-th recorded time in mask,
    about PROFILE_SAMPLES of them, and the largest observed/predicted."""
    t, obs = traj.times[mask], traj.norm_H[mask]
    stride = max(1, len(t) // PROFILE_SAMPLES)
    t, obs = t[::stride], obs[::stride]
    pred = envelope(t)
    return np.column_stack([t, obs, pred]), float(np.max(obs / np.maximum(pred, 1e-300)))
