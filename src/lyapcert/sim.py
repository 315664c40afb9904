"""Time integration of dz/dt = Az - sqrt(k) B sigma(sqrt(k) B* z).

Each step is one Strang splitting (Strang, SIAM J. Numer. Anal. 5, 1968):
half a Cayley step C = (I - dt/4 A)^{-1}(I + dt/4 A) for the linear part, the
damping subflow dz/dt = -sqrt(k) B sigma(sqrt(k) B* z) over the whole step,
and half a Cayley step again.  C contracts the energy norm because A is
dissipative, and the subflow of a monotone sigma is nonexpansive (Crandall &
Liggett, Amer. J. Math. 93, 1971), so every step contracts, Lipschitz sigma or
not; the scheme is second order.

In the control coordinates s = sqrt(k) B* z the subflow reads
ds/dt = -G sigma(s) with G = k B*B, and z moves only within range(B).  Where G
is diagonal (kdv, wave and every single-input system) the components
decouple and the subflow is exact: closed forms for linear, clamp, tanh and
weak damping, and for norm saturation with equal gains, a clamp on the norm.
The other cases (arctan, a non-diagonal G, norm saturation with unequal
gains) take one implicit-midpoint step, nonexpansive too, solved by
vectorized Newton; a solve that does not converge raises.

At a fixed step the loop carries a = C z and s = sqrt(k) B* a for a block of
initial states, and one stacked product per step gives the next state, the
next a, the next s and the Cholesky image of the next state for the energy
norm; a shortened last step is one unfused step.  Step halving (Richardson
error control) runs one state at a time with the three stages unfused
outside the linear regime below.
After the loop one pass over the recorded norms checks every step's growth:
growth beyond a tight tolerance signals an implementation or model
inconsistency and aborts, naming the earliest growing step.  The graph norm,
the damping power and the certificate functional are evaluated on the
recorded states after the loop too.

Since every stage is nonexpansive, ||z||_H never grows along a run, and the
subflow input a = C z has ||a||_H <= ||z||_H.  The damping acts linearly on
s = sqrt(k) B* a while kappa ||a||_H <= s0, with kappa = max_j ||sqrt(k) B*_j||
over the rows of B* as functionals on H for clamp damping, the norm of
sqrt(k) B* from H to U for norm saturation with equal gains, and s0 = inf
for linear damping.  So once the invariant kappa ||z_k||_H <= s0 holds for
every row, tested every CHECK_EVERY steps, every later step is the one linear
map M = C (I - k B diag(gain) B*) C.  The remaining steps at the configured
dt then go CHECK_EVERY at a time by products with the powers M, M^2, M^4,
..., M^CHECK_EVERY (7 products for 64 steps).

Step halving tests the invariant on every accepted state.  From then on
every trial is linear too, the coarse step and both half-steps: the fine
step is F = M_{dt/2}^2 and a trial's Richardson error is ||z E||_H / 3 with
E = M_dt - F.  One pass at the current dt forms the candidate states z F^j,
j <= CHECK_EVERY, by the same doubling products, limited to the full steps
before t_end, takes all their norms and errors with one product each, and
accepts the prefix the per-step rule would accept before it changes dt:
up to the first rejected trial, or up to and including the first trial with
error <= tol/8 while dt is below the configured dt, after which dt doubles.
A pass that accepts nothing hands over to the per-step trial, which halves
dt and takes a shortened last step.  The times stay the running sums
t + dt, so the grid, the accepted and rejected counts and the halvings are
those of the per-step rule.  Tanh, arctan and weak damping, a non-diagonal
G and norm saturation with unequal gains have no such regime and take the
step above throughout.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import ContractionViolation, StepRejectionLimit, SubflowNotConverged

GROWTH_TOL = 1e-10      # per-step admissible relative growth of the state norm
MAX_HALVINGS = 45
NEWTON_MAXITER = 50
NEWTON_RTOL = 1e-13     # Newton stops when every update is this small relative to its row
CHECK_EVERY = 64        # linear-regime entry is tested every this many fixed steps
TINY = np.finfo(float).tiny  # floor of the norm the saturation impulse divides by


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
    stats: dict = None                       # integrator record, see integrate

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if not np.all(np.diff(self.times) > 0):         # NaN fails too
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
    """Run the closed loop from the state z0, recording norms, damping power and V.

    Step-halving error control compares one dt step against two dt/2 steps
    (Richardson, second order) and accepts the finer result; dt never grows
    past the configured value and the halvings per step are capped.  In the
    linear regime (module docstring) it accepts up to CHECK_EVERY steps per
    pass from powers of the linear fine step, with the same rule and the
    same decisions.
    `Trajectory.stats` records the accepted steps, the rejected trial steps,
    the most halvings within one step, the distinct step sizes (one
    factorization each), the rows integrated together and the largest
    per-step growth of the energy norm against GROWTH_TOL.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim != 1:
        raise ValueError("z0 must be one state vector; integrate_batch takes a block")
    return _integrate(system, damping, z0[None], config, cert)[0]


def integrate_batch(system, damping, Z0, config, cert=None):
    """`integrate` for every row of the (rows, n) block Z0: one Trajectory per row.

    At a fixed step the rows advance together, one stacked product per step;
    with step halving they run one at a time, since each would need its own dt.
    """
    Z0 = np.asarray(Z0, dtype=float)
    if Z0.ndim != 2:
        raise ValueError("Z0 must be a (rows, n) block of initial states")
    return _integrate(system, damping, Z0, config, cert)


def _integrate(system, damping, Z0, config, cert):
    from .lyapunov import eval_V

    if Z0.shape[1] != system.n or len(Z0) == 0:
        raise ValueError(f"initial states must be rows of length {system.n}")
    if not np.all(np.isfinite(Z0)):
        raise ValueError("initial state must be finite")
    steps = _Steps(system, damping)
    if config.error_control == "none":
        blocks = [_fixed_step(steps, Z0, config)]
    else:
        blocks = [_step_halving(steps, z, config) for z in Z0]

    to_control, w = steps.to_control, system.U_weights

    def power(Z):
        S = Z @ to_control.T
        return np.sum(w * damping.apply(S, w) * S, axis=1)

    trajs = []
    for times, block, stats in blocks:
        # block: (rows, steps + 1, n + 2), columns energy norm, damping power, state
        growth = _check_growth(block[:, :, 0], times)
        for rec, max_growth in zip(block, growth):
            states = rec[:, 2:]
            rec[:, 1] = _by_chunks(power, states)
            traj = Trajectory(times=times, states=states, norm_H=rec[:, 0],
                              norm_DA=_by_chunks(system.norm_DA, states),
                              damping_power=rec[:, 1],
                              V_values=None if cert is None else
                              _by_chunks(lambda Z: eval_V(cert, Z), states),
                              stats={**stats, "rows": len(Z0), "distinct_dt": len(steps.cache),
                                     "max_growth": float(max_growth), "growth_tol": GROWTH_TOL})
            traj.t_star = detect_unit_ball_entry(traj)
            trajs.append(traj)
    return trajs


class _Steps:
    """The maps one step needs, per distinct dt: the Cayley half-step C, its
    square and the damping impulse.  Rows are states, so maps act from the
    right: z -> z @ C.T."""

    def __init__(self, system, damping):
        self.A = system.A
        self.to_control = np.sqrt(system.k) * system.Bstar       # T: z -> s = T z
        self.from_control = (np.sqrt(system.k) * system.B).T     # impulse -> z
        self.chol = system.H_ip.factor                           # ||z||_H = |z @ L|
        self.subflow, self.linear = _subflow(system, damping)
        self.cache = {}                                          # dt -> (C, C^2, impulse)
        self.trial_maps = {}                                     # dt -> linear_trial_maps(dt)

    def __call__(self, dt):
        if dt not in self.cache:
            eye = np.eye(len(self.A))
            lu = sla.lu_factor(eye - 0.25 * dt * self.A)
            C = sla.lu_solve(lu, eye + 0.25 * dt * self.A)
            self.cache[dt] = (C, C @ C, self.subflow(dt))
        return self.cache[dt]

    def step(self, Z, dt):
        """One unfused Strang step of the rows Z."""
        C, _, impulse = self(dt)
        a = Z @ C.T
        return (a - impulse(a @ self.to_control.T) @ self.from_control) @ C.T

    def two_steps(self, Z, dt):
        """Two Strang steps of length dt/2, the inner half-steps merged into C^2."""
        C, C2, impulse = self(0.5 * dt)
        T, P = self.to_control.T, self.from_control
        a = Z @ C.T
        a = (a - impulse(a @ T) @ P) @ C2.T
        return (a - impulse(a @ T) @ P) @ C.T

    def squared_norms(self, Z):
        Y = Z @ self.chol
        return np.einsum("ij,ij->i", Y, Y)

    def norms(self, Z):
        return np.sqrt(self.squared_norms(Z))

    def linear_step(self, dt):
        """The step z -> z @ M of length dt in the linear regime,
        M = C^T (I - T diag(gain) P) C^T."""
        C = self(dt)[0]
        T, P = self.to_control.T, self.from_control
        return C.T @ (np.eye(len(C)) - (T * self.linear[1](dt)) @ P) @ C.T

    def linear_trial_maps(self, dt):
        """The maps of a Richardson trial at dt in the linear regime, cached
        per dt: the squarings of the fine step F = M_{dt/2}^2 and [L | E L],
        where E = M_dt - F is the coarse step's departure from the fine one."""
        if dt not in self.trial_maps:
            half = self.linear_step(0.5 * dt)
            F = half @ half
            self.trial_maps[dt] = (_squarings(F), np.hstack(
                [self.chol, (self.linear_step(dt) - F) @ self.chol]))
        return self.trial_maps[dt]


def _squarings(M):
    """M, M^2, M^4, ..., M^CHECK_EVERY."""
    powers = [M]
    while 2 ** len(powers) <= CHECK_EVERY:
        powers.append(powers[-1] @ powers[-1])
    return powers


def _fixed_step(steps, Z0, config):
    """All rows at the configured dt; the last step is shortened to end at t_end.
    From the first multiple of CHECK_EVERY steps at which every row is in the
    linear regime the remaining steps at dt go by `_linear_steps`."""
    dt, t_end = config.dt, config.t_end
    count = max(1, int(np.ceil(t_end / dt * (1.0 - 1e-12))))
    last = t_end - (count - 1) * dt
    fused = count if abs(last - dt) <= 1e-12 * t_end else count - 1
    times = np.arange(count + 1) * dt
    times[-1] = t_end

    b, n = Z0.shape
    m = len(steps.to_control)
    T, P, L = steps.to_control.T, steps.from_control, steps.chol
    radius = steps.linear[0] if steps.linear else -np.inf
    rec = np.empty((b, count + 1, n + 2))
    rec[:, 0, 0], rec[:, 0, 2:] = steps.squared_norms(Z0), Z0   # norms squared until the end
    k = linear = 0
    if fused:
        C, C2, impulse = steps(dt)
        # z_next = b C^T, a_next = b (C^2)^T, s_next = a_next T, and z_next L
        stacked = np.hstack([C.T, C2.T, C2.T @ T, C.T @ L])
        a = Z0 @ C.T
        s = a @ T
        while k < fused:
            k += 1
            out = (a - impulse(s) @ P) @ stacked
            rec[:, k, 2:] = out[:, :n]
            a, s, Y = out[:, n:2 * n], out[:, 2 * n:2 * n + m], out[:, 2 * n + m:]
            np.einsum("ij,ij->i", Y, Y, out=rec[:, k, 0])
            if k % CHECK_EVERY == 0 and k < fused and np.sqrt(rec[:, k, 0].max()) <= radius:
                linear = fused - k
                _linear_steps(_squarings(steps.linear_step(dt)), L, rec[:, k:fused + 1])
                break
    if fused < count:
        rec[:, count, 2:] = Z = steps.step(rec[:, fused, 2:], last)
        rec[:, count, 0] = steps.squared_norms(Z)
    np.sqrt(rec[:, :, 0], out=rec[:, :, 0])
    stats = {"accepted_steps": count, "rejected_trials": 0, "max_halvings": 0,
             "linear_steps": linear}
    return times, rec, stats


def _linear_steps(powers, L, rec):
    """Fill the (rows, 1 + steps, n + 2) record from its first column by the
    linear step M, CHECK_EVERY steps per pass.  Norms are stored squared."""
    b, n = rec.shape[0], rec.shape[2] - 2
    Z = np.empty(((CHECK_EVERY + 1) * b, n))         # row j b + i: z_i M^j
    k, stop = 0, rec.shape[1] - 1
    while k < stop:
        j = min(CHECK_EVERY, stop - k)
        Z[:b] = rec[:, k, 2:]
        _powers_of(Z, b, powers, j)
        new = Z[b:(j + 1) * b]
        Y = new @ L
        rec[:, k + 1:k + j + 1, 0] = np.einsum("ij,ij->i", Y, Y).reshape(j, b).T
        rec[:, k + 1:k + j + 1, 2:] = new.reshape(j, b, n).transpose(1, 0, 2)
        k += j


def _powers_of(Z, b, powers, j):
    """Fill the row blocks Z[i b:(i + 1) b] = Z[:b] M^i, i = 1..j, from the
    squarings powers = [M, M^2, M^4, ...]: Z[s:2s] = Z[:s] @ M^s for
    s = 1, 2, 4, ... (log2 j + 1 products)."""
    s = 1
    for Ms in powers:
        if s > j:
            break
        hi = min(2 * s, j + 1)
        Z[s * b:hi * b] = Z[:(hi - s) * b] @ Ms
        s *= 2


def _check_growth(norms, times):
    """Each row's largest growth ratio between consecutive recorded norms of
    the (rows, 1 + steps) block.  Raises at the earliest step, across rows,
    that grows beyond GROWTH_TOL; NaN fails too, and the floor (1e-14 of each
    row's initial norm) lets rounding noise pass near zero."""
    prev, new = norms[:, :-1], norms[:, 1:]
    bad = ~(new <= prev * (1.0 + GROWTH_TOL) + 1e-14 * norms[:, :1])
    if bad.any():
        j = int(np.argmax(bad.any(axis=0)))
        i = int(np.argmax(bad[:, j]))
        raise ContractionViolation(
            f"norm grew from {float(prev[i, j])!r} to {float(new[i, j])!r} "
            f"at t={float(times[j + 1])!r}")
    growth = np.divide(new, prev, out=np.zeros_like(new), where=prev > 0)
    return growth.max(axis=1, initial=0.0)


def _step_halving(steps, z0, config):
    """One row under Richardson step-halving error control, as a block of one.
    While the accepted state is in the linear regime, `_linear_trials` takes
    the accepted steps at the current dt in runs of up to CHECK_EVERY."""
    t_end = config.t_end
    z, t = z0[None], 0.0
    norm = norm0 = steps.norms(z)[0]
    times, norms, states = [t], [norm], [z0]
    radius = steps.linear[0] if steps.linear else -np.inf
    dt = min(config.dt, t_end)
    rejected = most_halvings = linear = 0
    while t < t_end - 1e-12 * t_end:
        dt = min(dt, t_end - t)
        if norm <= radius:
            ts, ns, Z, grow = _linear_trials(steps, z, t, dt, norm, norm0, config)
            if len(ts):
                times.extend(ts)
                norms.extend(ns)
                states.extend(Z)
                t, z, norm = float(ts[-1]), Z[-1:], float(ns[-1])
                linear += len(ts)
                if grow:
                    dt = min(2.0 * dt, config.dt)
                continue
        halvings = 0
        while True:
            z_fine = steps.two_steps(z, dt)
            err = steps.norms(steps.step(z, dt) - z_fine)[0] / 3.0
            tol = config.local_error_target * max(norm, 1e-9 * norm0)
            if err <= tol:
                break
            dt *= 0.5
            halvings += 1
            if halvings > MAX_HALVINGS:
                raise StepRejectionLimit(
                    f"local error {err:.3e} above target after {halvings} halvings")
        rejected += halvings
        most_halvings = max(most_halvings, halvings)
        t, z, norm = t + dt, z_fine, steps.norms(z_fine)[0]
        times.append(t)
        norms.append(norm)
        states.append(z[0])
        if err <= 0.125 * tol:
            dt = min(2.0 * dt, config.dt)
    rec = np.empty((1, len(times), len(z0) + 2))    # ||z||_H, damping power (later), z
    rec[0, :, 0], rec[0, :, 2:] = norms, states
    stats = {"accepted_steps": len(times) - 1, "rejected_trials": rejected,
             "max_halvings": most_halvings, "linear_steps": linear}
    return np.array(times), rec, stats


def _linear_trials(steps, z, t, dt, norm, norm0, config):
    """The steps at dt from the state z (norm ||z||_H <= radius, time t) that
    the per-step Richardson rule accepts before it would change dt or shorten
    a step, up to CHECK_EVERY of them: (times, norms, states, grow).

    Every stage is nonexpansive, so every later trial is linear too: the
    accepted state is z F^j with F = M_{dt/2}^2, and its trial's error is
    ||z F^j E||_H / 3.  The run stops before the first rejected trial and
    after the first accepted one with error <= tol/8 while dt < config.dt,
    when grow is True and dt doubles.  The times are the running sums
    t + dt + dt + ..., as in the per-step loop."""
    t_end = config.t_end
    ts = np.cumsum(np.concatenate([[t], np.full(CHECK_EVERY, dt)]))
    full = (ts < t_end - 1e-12 * t_end) & ~(t_end - ts < dt)
    j = _leading(full[:CHECK_EVERY])                # full steps from z
    if j == 0:
        return (), (), (), False
    powers, norm_err = steps.linear_trial_maps(dt)
    Z = np.empty((j + 1, z.shape[1]))
    Z[0] = z[0]
    _powers_of(Z, 1, powers, j)
    Y = Z @ norm_err
    n = Z.shape[1]
    ns = np.sqrt(np.einsum("ij,ij->i", Y[:, :n], Y[:, :n]))
    ns[0] = norm                                    # z's recorded norm sets its tolerance
    err = np.sqrt(np.einsum("ij,ij->i", Y[:j, n:], Y[:j, n:])) / 3.0
    tol = config.local_error_target * np.maximum(ns[:j], 1e-9 * norm0)
    k = _leading(err <= tol)                        # up to the first rejection
    small = err[:k] <= 0.125 * tol[:k]
    grow = dt < config.dt and bool(small.any())
    if grow:
        k = int(np.argmax(small)) + 1
    return ts[1:k + 1], ns[1:k + 1], Z[1:k + 1], grow


def _leading(mask):
    """The length of the leading run of True in the 1-d mask."""
    return int(np.argmin(np.append(mask, False)))


# --- the damping subflow ------------------------------------------------------

def _subflow(system, damping):
    """dt -> the impulse map of the damping subflow over one step of length dt,
    and the linear regime: (radius, dt -> gain), or None where there is none.

    In s = sqrt(k) B* z the subflow reads ds/dt = -G sigma(s), G = k B*B, and
    z moves by -sqrt(k) B J, where J = int_0^dt sigma(s(t)) dt is the impulse,
    one row per row of s.  Where G = diag(g) the rows decouple and
    J = (s - s(dt)) / g from the exact flow, with the zero columns of B
    masked.  Otherwise J = dt sigma(x) at the implicit midpoint
    x = s - dt/2 G sigma(x).  For linear and clamp damping, and for norm
    saturation with equal gains, J = s * gain(dt) for every row of s = T a
    with ||a||_H <= radius = s0 / kappa, where kappa is the largest ratio of
    max_j |s_j| (|s|_U for norm saturation) to ||a||_H.
    """
    G = system.k * (system.Bstar @ system.B)
    g = np.diag(G).copy()
    ginv = np.divide(1.0, g, out=np.zeros_like(g), where=g > 0)
    active = g[g > 0]
    w = system.U_weights
    rule = damping.scalar_rule or damping.kind
    s0, q, c = damping.s0, damping.q, damping.c
    if active.size == 0 or (rule == "weak_damping" and c == 0.0):
        return (lambda dt: np.zeros_like), None         # sigma never moves z
    if not np.any(G - np.diag(g)):
        on_norm = rule == "norm_saturation" and np.all(active == active[0])
        if rule in ("linear", "clamp") or on_norm:
            if on_norm:
                # the rows of s keep their direction and |s|_U follows the
                # scalar clamp flow; the components with g = 0 vanish identically
                g = active[0]
                ginv = 1.0 / g

            def gain(dt):
                return -np.expm1(-g * dt) * ginv

            def saturating(dt):
                linear = gain(dt)

                def impulse(S):
                    a = np.sqrt((S * S) @ w)[:, None] if on_norm else np.abs(S)
                    if a.max() <= s0:                       # the linear flow
                        return S * linear
                    J = _clamp_impulse(a, g, ginv, s0, dt)
                    if on_norm:
                        return S * (J / np.maximum(a, TINY))
                    return np.copysign(J, S)
                return (lambda S: S * linear) if rule == "linear" else impulse
            # s_j = T_j z with T = sqrt(k) B*: ||T_j||_{H*}^2 = (T W^-1 T^T)_jj = g_j / w_j,
            # and for norm saturation ||T||_{H->U}^2 = ||T T*||_U = ||G||_U = g
            kappa = np.sqrt(g if on_norm else np.max(g / w))
            radius = np.inf if rule == "linear" else s0 / kappa
            return saturating, (radius, gain)
        drops = {
            "tanh": lambda a, dt: s0 * _tanh_drop(a / s0, g * dt),
            "weak_damping": lambda a, dt: a - np.maximum(
                a ** (1.0 - q) - (1.0 - q) * c * g * dt, 0.0) ** (1.0 / (1.0 - q)),
        }
        if rule in drops:
            drop = drops[rule]
            return (lambda dt: lambda S: np.copysign(drop(np.abs(S), dt) * ginv, S)), None
    return (lambda dt: lambda S: _implicit_midpoint(rule, damping, G, w, S, dt)), None


def _clamp_impulse(a, g, ginv, s0, dt):
    """int_0^dt min(|s(t)|, s0) dt under d|s|/dt = -g min(|s|, s0) from |s| = a:
    saturated until |s| falls to s0, exponential decay after; 0 where g = 0."""
    rest = np.minimum(np.maximum(dt - (a - s0) * (ginv / s0), 0.0), dt)   # time below s0
    return s0 * (dt - rest) - np.minimum(a, s0) * np.expm1(-g * rest) * ginv


def _tanh_drop(u, decay):
    """Decrease of u = |s|/s0 under du/dt = -g tanh(u), where sinh(u) falls as
    e^{-g t}; decay = g dt.  Past u = 20, log sinh(u) = u - log 2 to double
    precision and asinh(e^l) is evaluated without overflow."""
    low = np.arcsinh(np.sinh(np.minimum(u, 20.0)) * np.exp(-decay))
    ell = np.maximum(u, 20.0) - np.log(2.0) - decay     # log sinh(u(dt)) for u > 20
    e = np.exp(-np.abs(ell))
    high = np.where(ell > 0, ell + np.log1p(np.sqrt(1.0 + e * e)), np.arcsinh(e))
    return u - np.where(u > 20.0, high, low)


def _implicit_midpoint(rule, damping, G, w, S, dt):
    """dt sigma(x) at the implicit midpoint x = s - dt/2 G sigma(x), per row of
    S, by Newton.  Weak damping is not Lipschitz at 0, so there the unknown is
    u = sigma(x), whose inverse is C^1.  Raises SubflowNotConverged rather than
    return an iterate."""
    h = 0.5 * dt
    weak = rule == "weak_damping"
    decoupled = not np.any(G - np.diag(np.diag(G)))
    eye = np.eye(len(G))
    U = damping.apply(S, w) if weak else S.copy()
    for _ in range(NEWTON_MAXITER):
        if weak:                        # F(u) = sigma^{-1}(u) - s + h G u
            c, p = damping.c, 1.0 / damping.q
            F = np.sign(U) * (np.abs(U) / c) ** p - S + h * U @ G.T
            jac = eye * ((p / c) * (np.abs(U) / c) ** (p - 1.0))[..., None, :] + h * G
        else:                           # F(x) = x - s + h G sigma(x)
            F = U - S + h * damping.apply(U, w) @ G.T
            D = _sigma_derivative(rule, damping.s0, w, U)
            if D.ndim > U.ndim:
                jac = eye + h * G @ D
            elif decoupled:
                jac = 1.0 + h * np.diag(G) * D          # one scalar equation each
            else:
                jac = eye + h * G * D[..., None, :]
        update = (F / jac if jac.ndim == U.ndim
                  else np.linalg.solve(jac, F[..., None])[..., 0])
        U = U - update
        scale = np.max(np.abs(U), axis=-1, keepdims=True)
        if np.all(np.abs(update) <= NEWTON_RTOL * scale):
            return dt * (U if weak else damping.apply(U, w))
    raise SubflowNotConverged(
        f"implicit-midpoint damping step did not converge in {NEWTON_MAXITER} "
        f"Newton iterations (dt={dt!r}, last update {np.max(np.abs(update)):.3e})")


def _sigma_derivative(rule, s0, w, U):
    """d sigma / ds at each row of U: the diagonal for the componentwise
    rules, the full Jacobian matrix for norm saturation."""
    if rule == "norm_saturation":
        r = np.sqrt(np.sum(w * U * U, axis=-1))[..., None, None]
        outer = U[..., :, None] * (w * U)[..., None, :] / np.maximum(r, s0) ** 2
        return (s0 / np.maximum(r, s0)) * (np.eye(U.shape[-1]) - np.where(r > s0, outer, 0.0))
    if rule == "clamp":
        return (np.abs(U) < s0).astype(float)
    if rule == "tanh":
        return 1.0 - np.tanh(U / s0) ** 2
    if rule == "arctan":
        return 1.0 / (1.0 + (0.5 * np.pi * U / s0) ** 2)
    return np.ones_like(U)


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
