"""Time integration of dz/dt = Az - sqrt(k) B sigma(sqrt(k) B* z).

The scheme splits additively: implicit trapezoidal on the (stiff, dissipative)
linear part, explicit midpoint on the globally Lipschitz damping term.  For
each distinct step dt, I - dt/2 A is factored once and two matrices are kept:
the Cayley propagator R = (I - dt/2 A)^{-1}(I + dt/2 A), a contraction in the
system's energy norm, and the input map -dt sqrt(k) (I - dt/2 A)^{-1} B, so a
step is R z plus that map applied to sigma at the midpoint.  The loop records
times, states, the energy norm and the damping power; the graph norm and the
certificate functional are evaluated once on the recorded states after the
loop.  The integrator aborts if the recorded norm ever grows beyond a tight
tolerance, since that signals a scheme or model inconsistency rather than a
property of the dynamics.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ContractionViolation, StepRejectionLimit

GROWTH_TOL = 1e-10      # per-step admissible relative growth of the state norm
MAX_HALVINGS = 45


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    error_control: str = "step-halving"       # "none" | "step-halving"
    local_error_target: float = 1e-8          # relative local-error target

    def __post_init__(self):
        if not (0 < self.dt < np.inf and 0 < self.t_end < np.inf):
            raise ValueError("dt and t_end must be positive and finite")
        if self.error_control not in ("none", "step-halving"):
            raise ValueError("error_control must be 'none' or 'step-halving'")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray                       # shape (len(times), n)
    norm_H: np.ndarray
    norm_DA: np.ndarray
    damping_power: np.ndarray
    V_values: np.ndarray = None
    t_star: float = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")

    @classmethod
    def from_norms(cls, times, norm_H, V_values=None):
        """Norm-only trajectory (fits and CSV round trips)."""
        times = np.asarray(times, dtype=float)
        norm_H = np.asarray(norm_H, dtype=float)
        n = len(times)
        traj = cls(times=times, states=np.zeros((n, 1)), norm_H=norm_H,
                   norm_DA=np.full(n, np.nan), damping_power=np.zeros(n),
                   V_values=None if V_values is None else np.asarray(V_values, float))
        traj.t_star = detect_unit_ball_entry(traj)
        return traj


def smooth_initial_state(system, z0, eps=1e-3):
    """One resolvent application (I - eps A)^{-1} z0; produces strong-solution data."""
    n = system.n
    return np.linalg.solve(np.eye(n) - eps * system.A, np.asarray(z0, dtype=float))


def integrate(system, damping, z0, config, cert=None):
    """Run the closed loop from z0, recording norms, damping power and V.

    Step-halving error control compares one dt step against two dt/2 steps
    (Richardson, second order) and accepts the finer result; dt never grows
    past the configured value and the step count of halvings is capped.
    """
    from .lyapunov import eval_V

    z = np.asarray(z0, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("initial state must be finite")
    n, A, w = system.n, system.A, system.U_weights
    to_control = np.sqrt(system.k) * system.Bstar       # z -> s = sqrt(k) B* z
    from_control = np.sqrt(system.k) * system.B
    propagators = {}                                    # dt -> (R, input map)

    def step(z, sig, dt):
        if dt not in propagators:
            lu = sla.lu_factor(np.eye(n) - 0.5 * dt * A)
            propagators[dt] = (sla.lu_solve(lu, np.eye(n) + 0.5 * dt * A),
                               sla.lu_solve(lu, -dt * from_control))
        R, inputs = propagators[dt]
        z_half = z + 0.5 * dt * (A @ z - from_control @ sig)
        return R @ z + inputs @ damping.apply(to_control @ z_half, w)

    # one row per recorded step: t, ||z||_H, damping power <sigma(s), s>_U, z;
    # sized for the fixed-step count (capped) and doubled when full
    rows = np.empty((int(min(np.ceil(config.t_end / config.dt), 1 << 16)) + 2, n + 3))
    k = 0
    t = 0.0
    norm = norm0 = system.norm_H(z)
    dt = min(config.dt, config.t_end)
    adaptive = config.error_control == "step-halving"
    while True:
        s = to_control @ z
        sig = damping.apply(s, w)          # used by the power and the next step
        if k == len(rows):
            grown = np.empty((2 * k, n + 3))
            grown[:k] = rows
            rows = grown
        rows[k, :3] = t, norm, np.sum(w * sig * s)
        rows[k, 3:] = z
        k += 1
        if t >= config.t_end - 1e-12 * config.t_end:
            break

        dt = min(dt, config.t_end - t)
        if adaptive:
            halvings = 0
            while True:
                z_big = step(z, sig, dt)
                z_mid = step(z, sig, 0.5 * dt)
                z_fine = step(z_mid, damping.apply(to_control @ z_mid, w), 0.5 * dt)
                err = system.norm_H(z_big - z_fine) / 3.0
                tol = config.local_error_target * max(norm, 1e-9 * norm0)
                if err <= tol:
                    z_new = z_fine
                    break
                dt *= 0.5
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise StepRejectionLimit(
                        f"local error {err:.3e} above target after {halvings} halvings")
            grow = err <= 0.125 * tol
        else:
            z_new = step(z, sig, dt)
            grow = False

        n_new = system.norm_H(z_new)
        if n_new > norm * (1.0 + GROWTH_TOL) + 1e-14 * norm0:
            raise ContractionViolation(
                f"norm grew from {norm!r} to {n_new!r} at t={t + dt!r}")

        t += dt
        z, norm = z_new, n_new
        if grow:
            dt = min(2.0 * dt, config.dt)

    rows = rows[:k]
    states = rows[:, 3:]
    traj = Trajectory(times=rows[:, 0], states=states, norm_H=rows[:, 1],
                      norm_DA=_by_chunks(system.norm_DA, states),
                      damping_power=rows[:, 2],
                      V_values=None if cert is None else
                      _by_chunks(lambda Z: eval_V(cert, Z), states))
    traj.t_star = detect_unit_ball_entry(traj)
    return traj


def _by_chunks(f, states, rows=1024):
    """f on consecutive row blocks of the recorded states; the blocks bound
    the size of the temporaries f makes."""
    return np.concatenate([f(states[i:i + rows]) for i in range(0, len(states), rows)])


def detect_unit_ball_entry(traj):
    """First time the state norm reaches 1, interpolated linearly in log-norm.

    Returns 0.0 when the trajectory starts inside the unit ball and None when
    it never enters.
    """
    norms = traj.norm_H
    if len(norms) == 0:
        raise ValueError("empty trajectory")
    if norms[0] <= 1.0:
        return 0.0
    below = np.nonzero(norms <= 1.0)[0]
    if len(below) == 0:
        return None
    k = int(below[0])
    n_prev, n_k = norms[k - 1], norms[k]
    if n_k <= 0.0:
        return float(traj.times[k])
    frac = np.log(n_prev) / (np.log(n_prev) - np.log(n_k))
    return float(traj.times[k - 1] + frac * (traj.times[k] - traj.times[k - 1]))
