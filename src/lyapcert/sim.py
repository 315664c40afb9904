"""Time integration of dz/dt = Az - sqrt(k) B sigma(sqrt(k) B* z).

Each step is one Strang splitting (Strang, SIAM J. Numer. Anal. 5, 1968):
half a Cayley step C = (I - dt/4 A)^{-1}(I + dt/4 A) for the linear part, the
damping subflow dz/dt = -sqrt(k) B sigma(sqrt(k) B* z) over the whole step,
and half a Cayley step again.  C contracts the energy norm because A is
dissipative, and the subflow of a monotone sigma is nonexpansive (Crandall &
Liggett, Amer. J. Math. 93, 1971), so every step contracts, Lipschitz sigma or
not; the scheme is second order.

In the control coordinates s = sqrt(k) B* z the subflow reads
ds/dt = -G sigma(s) with G = k B*B.  Where G is diagonal it is exact (closed
forms for linear, clamp, tanh, weak damping and norm saturation with equal
gains); otherwise it is one implicit-midpoint step, nonexpansive too, by
vectorized Newton, which raises if it does not converge.

The loop runs in the energy coordinates y = z L (W = L L^T the energy weight),
so ||z||_H = |y|, with the maps conjugated once per dt (C as L^{-1} C^T L); V
is evaluated on y and the recorded norms, and a trajectory forms its states
z = y L^{-1} on first read.  Every Strang step outside an affine pass is one
stacked product (`_Steps.step`) from b = a - J P (a = y C, J the impulse) to
the next y, a and s = a T, the inner half-steps merged into C^2; at a fixed
step it advances a block of rows, step halving one state at a time.  After
the loop one pass over the recorded norms aborts at the earliest step that
grows beyond a tight tolerance.

For linear and clamp damping, and norm saturation with equal gains (a clamp at
s0 / sqrt(w) with one input; with more, only |s_j| <= s0 / sqrt(m w_j) counts
as linear), the subflow is affine over a step in which each input component
stays in one zone: linear, |s_j| <= s0, with J_j = gain_j s_j, or saturated,
|s_j| >= s0 (1 + g_j dt), with J_j = s0 dt sign(s_j).  For a zone pattern p in
{-1, 0, +1}^m the step is linear in (y, 1) (Van Loan, IEEE TAC 23, 1978); the
zone bounds and the parts of that augmented step are tables of each dt's _Maps
(`_Steps.zone_tables`), so a pattern's step costs one product.  An affine
pass forms its steps in the record itself by products with the
squarings K, K^2, K^4, ... of the augmented step (q products for 2^q steps),
tests every step's input with one product (none under linear damping) and
accepts the prefix that keeps p (where p is all linear, the leading steps
inside the ball |y| <= rho of `_Steps.ball` without the product); under a
saturating rule each row of a block runs alone.  Passes are run-sized: the
most steps one takes is CHECK_EVERY at first, doubles up to MAX_PASS after a
pass that accepts every step it formed, and falls back to CHECK_EVERY after
one that stops early.  A step that crosses a zone is a per-step step, and so
is every step up to the next multiple of CHECK_EVERY after a pass that stops
within CHECK_EVERY // 8.  Under step halving a trial is affine when its
coarse step and both half-steps keep p: the fine step is F = M_p(dt/2)^2 and
the error |(y, 1) E| / 3, E = M_p(dt) - F.  A pass accepts the prefix the
per-step rule accepts before it changes dt: up to the first trial that leaves
p or is rejected, or up to and including the first with error <= tol/8 while
dt is below the configured dt; the times stay the running sums t + dt.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.linalg as sla

from .errors import (ContractionViolation, StepRejectionLimit, SubflowNotConverged,
                     require_positive)
from .linalg import row_norms

GROWTH_TOL = 1e-10      # per-step admissible relative growth of the state norm
MAX_HALVINGS = 45
NEWTON_MAXITER = 50
NEWTON_RTOL = 1e-13     # Newton stops when every update is this small relative to its row
CHECK_EVERY = 64        # the most steps a pass takes after one that stops early
MAX_PASS = 512          # the most steps any affine pass takes; bounds its probe product
TINY = np.finfo(float).tiny  # floor of the norm the saturation impulse divides by

# one step's maps: stacked = [C | C^2 T | C^2] takes b to the next y, s and a, first y to s and a
# ball: the radius rho of `_Steps.ball`; sat, box, template, PC, lin, push: `_Steps.zone_tables`
_Maps = namedtuple("_Maps", "impulse stacked first CT ball sat box template PC lin push")


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    t_end: float
    error_control: str = "step-halving"       # "none" | "step-halving"
    local_error_target: float = 1e-8          # relative local-error target

    def __post_init__(self):
        require_positive(dt=self.dt, t_end=self.t_end, local_error_target=self.local_error_target)
        if self.error_control not in ("none", "step-halving"):
            raise ValueError("error_control must be 'none' or 'step-halving'")


@dataclass
class Trajectory:
    """A recorded run.  Where not given, the (len(times), n) states, norm_DA and
    damping_power are computed on first read by the `derive(traj, name)` that
    integrate attaches, from the energy coordinates y = z L it records, and
    kept; an error of `DampingSpec.apply` surfaces at the damping_power read.
    Without it (`from_norms`), reading a column not given raises AttributeError."""
    times: np.ndarray
    norm_H: np.ndarray
    states: np.ndarray = cached_property(lambda traj: traj.derive(traj, "states"))
    norm_DA: np.ndarray = cached_property(lambda traj: traj.derive(traj, "norm_DA"))
    damping_power: np.ndarray = cached_property(lambda traj: traj.derive(traj, "damping_power"))
    V_values: np.ndarray = None
    t_star: float = None
    stats: dict = None                       # integrator record, see integrate

    @staticmethod
    def derive(traj, name):                  # integrate attaches its own; not a field
        raise AttributeError(f"this trajectory recorded no {name} column")

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        if not np.all(np.diff(self.times) > 0):         # NaN fails too
            raise ValueError("times must be strictly increasing")
        for name in ("states", "norm_DA", "damping_power"):
            if self.__dict__[name] is vars(Trajectory)[name]:   # not given: read derives it
                del self.__dict__[name]

    @classmethod
    def from_norms(cls, times, norm_H, V_values=None, norm_DA=None):
        """Norm-only trajectory (fits and CSV round trips): no states or
        damping_power, and V_values and norm_DA only where given (else None)."""
        traj = cls(times=times, norm_H=np.asarray(norm_H, dtype=float),
                   norm_DA=None if norm_DA is None else np.asarray(norm_DA, float),
                   V_values=None if V_values is None else np.asarray(V_values, float))
        traj.t_star = detect_unit_ball_entry(traj)
        return traj


def integrate(system, damping, z0, config, cert=None):
    """Run the closed loop from the state z0, recording the energy norm and V;
    the states, their graph norm and their damping power are computed on first
    read (Trajectory), so a caller that reads only the norms never forms them.

    Step-halving error control compares one dt step against two dt/2 steps
    (Richardson, second order) and accepts the finer result; dt never grows
    past the configured value and the halvings per step are capped.
    `Trajectory.stats` records the accepted steps, the rejected trial steps,
    the most halvings within one step, the steps taken by affine passes
    (module docstring) and by the per-step loop, the passes, the pass maps
    built for them (`pattern_maps`, one per zone pattern and dt a run
    switches to), the distinct step sizes, the rows integrated together and
    the largest per-step growth of the energy norm against GROWTH_TOL.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim != 1:
        raise ValueError("z0 must be one state vector; integrate_batch takes a block")
    return _integrate(system, damping, z0[None], config, cert)[0]


def integrate_batch(system, damping, Z0, config, cert=None):
    """`integrate` for every row of the (rows, n) block Z0: one Trajectory per row.

    At a fixed step the rows advance together unless a saturating rule gives
    each its own affine passes; with step halving each needs its own dt.
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
    steps, Y0 = _Steps(system, damping), Z0 @ system.H_ip.factor
    if config.error_control == "none":
        blocks = [_fixed_step(steps, Y0, config)]
    else:
        blocks = [_step_halving(steps, y0, config) for y0 in Y0]
    to_z, T, AL, w = steps.to_z, steps.T, steps.AL, system.U_weights

    def power(Y):
        S = Y @ T
        return np.sum(w * damping.apply(S, w) * S, axis=1)

    def derive(Y, traj, name):              # Trajectory.states, .norm_DA and .damping_power
        if name == "states":
            return Y @ to_z
        if name == "norm_DA":
            return traj.norm_H + _by_chunks(lambda X: row_norms(X @ AL), Y)
        return _by_chunks(power, Y)

    trajs = []
    for times, block, row_counts in blocks:
        norms = np.array([row_norms(Y) for Y in block])    # block: (rows, steps + 1, n) of y
        growth = _check_growth(norms, times)
        for Y, norm_H, counts, max_growth in zip(block, norms, row_counts, growth):
            accepted, rejected, halvings, affine, passes, built = counts
            stats = {"accepted_steps": accepted, "rejected_trials": rejected,
                     "max_halvings": halvings, "affine_steps": affine,
                     "per_step_steps": accepted - affine, "affine_passes": passes,
                     "pattern_maps": built, "rows": len(Z0), "distinct_dt": len(steps.cache),
                     "max_growth": float(max_growth), "growth_tol": GROWTH_TOL}
            traj = Trajectory(times=times, norm_H=norm_H, stats=stats,
                              V_values=None if cert is None else _by_chunks(
                                  lambda X, nX: eval_V(cert, y=X, norm_H=nX), Y, norm_H))
            traj.t_star, traj.derive = detect_unit_ball_entry(traj), partial(derive, Y)
            trajs.append(traj)
    return trajs


class _Steps:
    """The maps one step needs in the energy coordinates y = z L (z = y to_z):
    the input map T (s = y T), the impulse map P (y -> y - J P) and, per distinct
    dt, the square of the conjugated Cayley half-step C, the damping impulse and
    the stacked maps of `step`.  Rows are states, so maps act from the right."""

    def __init__(self, system, damping):
        self.ip, L = system.H_ip, system.H_ip.factor
        self.A, self.to_z = system.A, sla.solve_triangular(L, np.eye(len(L)), lower=True)
        self.T = np.sqrt(system.k) * L.T @ system.B / system.U_weights  # L^{-1} sqrt(k) B*^T
        self.P = np.sqrt(system.k) * system.B.T @ L
        self.AL = self.ip.conjugate(self.A.T)                    # ||A z||_H = |y AL|
        self.subflow, self.zoned = _subflow(system, damping)
        self.cache = {}                                          # dt -> _Maps
        self.last_pass, self.builds = (None, None), 0            # (key, pass_maps(*key)), builds

    def __call__(self, dt):
        """The _Maps of a step of length dt, made once per dt."""
        if dt not in self.cache:
            eye = np.eye(len(self.A))
            lu = sla.lu_factor(eye - 0.25 * dt * self.A)
            C = self.ip.conjugate(sla.lu_solve(lu, eye + 0.25 * dt * self.A).T)
            C2, CT = C @ C, C @ self.T
            self.cache[dt] = _Maps(self.subflow(dt), np.hstack([C, C2 @ self.T, C2]),
                                   np.hstack([CT, C]), CT, self.ball(CT),
                                   *self.zone_tables(dt, C2, CT, self.P @ C))
        return self.cache[dt]

    def zone_tables(self, dt, C2, CT, PC):
        """The per-dt tables of `zones`, `box` and `affine` (None without zones):
        sat = level (1 + g dt); box[p + 1] = (lo, hi), the bounds of an input in zone
        p = -1, 0, +1 (None under linear damping); template = [[C^2, 0], [0, 1]] and
        PC = [P C | 0]; lin = (CT gain(dt), 0) and push = level dt (0 where level =
        inf), so that the impulse J = lin where p = 0 and the push row p elsewhere."""
        if self.zoned is None:
            return (None,) * 6
        (level, g, gain), (n, m) = self.zoned, CT.shape
        sat, lvl = np.broadcast_to(level * (1.0 + g * dt), m), np.broadcast_to(level, m)
        box = None if np.isinf(lvl).all() else np.array(
            [[np.full(m, -np.inf), -sat], [-lvl, lvl], [sat, np.full(m, np.inf)]])
        template, PC1, lin = np.eye(n + 1), np.zeros((m, n + 1)), np.zeros((n + 1, m))
        template[:-1, :-1], PC1[:, :-1], lin[:-1] = C2, PC, CT * gain(dt)
        return sat, box, template, PC1, lin, np.where(np.isinf(lvl), 0.0, lvl * dt)

    def ball(self, CT):
        """rho = (1 - 1e-12) min_j level_j / |CT_j| over the inputs with CT_j != 0,
        so that |s_j| = |y CT_j| <= |y| |CT_j| <= level_j (Cauchy-Schwarz) whenever
        |y| <= rho: every input of such a state is linear, rounding included
        (rho = inf where there are no zones)."""
        col, level = np.sqrt(np.einsum("ij,ij->j", CT, CT)), (self.zoned or [np.inf])[0]
        return (1.0 - 1e-12) * np.divide(level, col, out=np.full_like(col, np.inf),
                                         where=col > 0).min(initial=np.inf)

    def step(self, sa, dt):
        """The Strang step of length dt from [s | a] (a = y C, s = a T of the
        rows y): the next [y | s | a], by one product with `_Maps.stacked`."""
        maps, m = self(dt), self.T.shape[1]
        return (sa[:, m:] - maps.impulse(sa[:, :m]) @ self.P) @ maps.stacked

    def run(self, Y, dt, count=1):
        """The rows Y after count Strang steps of length dt."""
        n, sa = Y.shape[1], Y @ self(dt).first
        for _ in range(count):
            out = self.step(sa, dt)
            sa = out[:, n:]
        return out[:, :n]

    def zones(self, s, dt):
        """The zone of each input component over a step of length dt: 0
        linear, +-1 saturated (the sign of s_j), 2 crossing."""
        u = np.abs(s)
        return np.where(u <= self.zoned[0], 0, np.where(u >= self(dt).sat, np.sign(s), 2))

    def box(self, dt, p):
        """The (2, m) bounds lo <= s <= hi that keep the zones p over a step
        of length dt; None for every input (linear damping)."""
        return None if self(dt).box is None else np.choose(p.astype(int) + 1, self(dt).box)

    def affine(self, dt, p):
        """The Strang step of length dt in the zones p as an augmented map
        acting from the right: (y, 1) -> ((a - J P) C, 1), a = y C, with the
        impulse J = (a T) lin + push (`zone_tables`)."""
        maps = self(dt)
        J = maps.lin * (p == 0)
        J[-1] = maps.push * p
        return maps.template - J @ maps.PC

    def pass_maps(self, dt, p, trial):
        """The squarings of K so far, the probe and the box of an affine pass,
        kept for the last (dt, p, trial).  At a fixed step K is the step and the
        probe gives a state's input; under step halving K = F and the probe
        gives the three inputs of a trial and (y, 1) E."""
        if self.last_pass[0] != (dt, p.tobytes(), trial):
            K, probe, box = self.affine(dt, p), self(dt).CT, self.box(dt, p)
            if trial:
                HT, half = self(0.5 * dt).CT, self.affine(0.5 * dt, p)
                F = half @ half
                probe = np.vstack([np.hstack([probe, HT]), np.zeros(2 * len(p))])
                K, probe = F, np.hstack([probe, half[:, :-1] @ HT, (K - F)[:, :-1]])
                if box is not None:                 # the coarse step and both half-steps
                    box = np.hstack([box] + 2 * [self.box(0.5 * dt, p)])
            self.last_pass = (dt, p.tobytes(), trial), ([K], probe, box)
            self.builds += 1
        return self.last_pass[1]


def _affine_pass(steps, Z, dt, p, trial=False):
    """Fill the candidates Z[:, i] = Z[:, 0] K^i of an affine pass in the
    (rows, count, n + 1) block Z, whose last column is 1, by Z[:, s:2 s] =
    Z[:, :s] @ K^s, s = 1, 2, 4, ... (`_Steps.pass_maps`); the probe and the box."""
    powers, probe, box = steps.pass_maps(dt, p, trial)
    count = Z.shape[1]
    for i in range((count - 1).bit_length()):
        if i == len(powers):
            powers.append(powers[-1] @ powers[-1])
        s, hi = 2 ** i, min(2 ** (i + 1), count)
        np.matmul(Z[:, :hi - s], powers[i], out=Z[:, s:hi])
    return probe, box


def _inside(S, box):
    """Whether each input (the last axis of S) lies in the box (lo, hi)."""
    if box is None:
        return np.ones(S.shape[:-1], dtype=bool)
    return np.all((S >= box[0]) & (S <= box[1]), axis=-1)


def _fixed_step(steps, Y0, config):
    """All rows at the configured dt; the last step is shortened to end at t_end."""
    dt, t_end = config.dt, config.t_end
    count = max(1, int(np.ceil(t_end / dt * (1.0 - 1e-12))))
    last = t_end - (count - 1) * dt
    fused = count if abs(last - dt) <= 1e-12 * t_end else count - 1
    times = np.arange(count + 1) * dt
    times[-1] = t_end

    b, n = Y0.shape
    rec = np.empty((b, count + 1, n + 1))                    # y and a constant 1
    rec[:, 0, :n], rec[:, :, n] = Y0, 1.0
    # the rows of a block share each pass, so under a saturating rule each runs alone
    alone = steps.zoned is not None and np.isfinite(steps.zoned[0]).any()
    affine = np.zeros((b, 3), dtype=int)                     # affine steps, passes, pass maps
    for r in [slice(i, i + 1) for i in range(b)] if alone else [slice(None)]:
        affine[r] = _advance(steps, rec[r, :fused + 1], dt) if fused else 0
    if fused < count:
        rec[:, count, :n] = steps.run(rec[:, fused, :n], last)
    return times, rec[..., :n], [(count, 0, 0, *row) for row in affine.tolist()]


def _advance(steps, rec, dt):
    """Fill the states of the (rows, 1 + steps, n + 1) record from its first
    column by steps of dt.  A pass writes its candidate states into the
    record, and the per-step loop overwrites those it did not accept.
    Returns the steps that affine passes took, the passes and the pass maps built."""
    maps, builds = steps(dt), steps.builds
    last, n, m = rec.shape[1] - 1, rec.shape[2] - 1, steps.T.shape[1]
    k, affine, passes, limit = 0, 0, 0, CHECK_EVERY
    resume = 0 if steps.zoned is not None else last
    sa = rec[:, 0, :n] @ maps.first
    while k < last:
        p = steps.zones(sa[:, :m], dt) if k >= resume else None
        if p is not None and p.max() < 2 and np.all(p == p[0]):
            j = min(limit, last - k)
            probe, box = _affine_pass(steps, rec[:, k:k + j + 1], dt, p[0])
            # step k keeps p; steps k + 1 ... k + j - 1 keep it while their inputs
            # are in the box, which the leading ones within the ball are if p is linear
            i, later, ball = j, rec[:, k + 1:k + j, :n], maps.ball
            if box is not None:
                inner = _leading((row_norms(later) <= ball).all(axis=0)) if not p[0].any() else 0
                i = 1 + inner + _leading(_inside(later[:, inner:] @ probe, box).all(axis=0))
            sa = rec[:, k + i, :n] @ maps.first
            affine, passes, limit = affine + i, passes + 1, _next_limit(limit, i, j)
            if i < min(j, CHECK_EVERY // 8):        # little before the zones changed:
                # where they change every few dozen steps (wave64) per-step steps cost less
                resume = ((k + i) // CHECK_EVERY + 1) * CHECK_EVERY
        else:
            out, i = steps.step(sa, dt), 1
            rec[:, k + 1, :n], sa = out[:, :n], out[:, n:]
        k += i
    return affine, passes, steps.builds - builds


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


def _step_halving(steps, y0, config):
    """One row under Richardson step-halving error control, as a block of one.
    Where the damping has zones, `_affine_trials` takes the accepted steps at
    the current dt in passes of run-sized length (module docstring)."""
    t_end, builds = config.t_end, steps.builds
    y, t = y0[None], 0.0
    norm = norm0 = row_norms(y)[0]
    times, states = [t], [y]
    dt = min(config.dt, t_end)
    rejected, most_halvings, affine, passes, limit = 0, 0, 0, 0, CHECK_EVERY
    while t < t_end - 1e-12 * t_end:
        dt = min(dt, t_end - t)
        ts, ns, Y, grow, j = _affine_trials(steps, y, t, dt, norm, norm0, config, limit)
        affine, passes = affine + len(ts), passes + (j > 0)
        limit = _next_limit(limit, len(ts), j) if j else limit
        if not len(ts):                             # one step by the per-step trial
            halvings = 0
            while True:
                Y = steps.run(y, 0.5 * dt, 2)
                err = row_norms(steps.run(y, dt) - Y)[0] / 3.0
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
            ts, ns, grow = [t + dt], row_norms(Y), err <= 0.125 * tol
        times.extend(ts)
        states.append(Y)
        t, y, norm = float(ts[-1]), Y[-1:], float(ns[-1])
        if grow:
            dt = min(2.0 * dt, config.dt)
    counts = (len(times) - 1, rejected, most_halvings, affine, passes, steps.builds - builds)
    return np.array(times), np.concatenate(states)[None], [counts]


def _affine_trials(steps, y, t, dt, norm, norm0, config, limit):
    """(times, norms, states, grow, j) of the steps at dt from y (norm
    ||z||_H, time t) that the per-step rule accepts, of the j <= limit trials
    of one pass (j = 0: no pass), before it changes dt or shortens a step,
    while the trials keep the first one's zones: up to the first trial that
    leaves them or is rejected, or to the first with error <= tol/8 while
    dt < config.dt, when grow is True."""
    if steps.zoned is None:
        return (), (), (), False, 0
    t_end = config.t_end
    ts = np.cumsum(np.concatenate([[t], np.full(limit, dt)]))   # t + dt + dt ...
    full = (ts < t_end - 1e-12 * t_end) & ~(t_end - ts < dt)
    j = _leading(full[:limit])                      # full steps from y
    n, m = y.shape[1], steps.T.shape[1]
    p = steps.zones(y[0] @ steps(dt).CT, dt)
    if j == 0 or p.max() > 1:                       # no full step, or the coarse one crosses
        return (), (), (), False, 0
    Z = np.ones((j + 1, n + 1))
    Z[0, :n] = y[0]
    probe, box = _affine_pass(steps, Z[None], dt, p, trial=True)
    ns = row_norms(Z[:, :n])
    ns[0] = norm                                    # y's recorded norm sets its tolerance
    X = Z[:j] @ probe
    keep = _inside(X[:, :3 * m], box)               # the coarse and both half-steps
    err = row_norms(X[:, 3 * m:]) / 3.0
    tol = config.local_error_target * np.maximum(ns[:j], 1e-9 * norm0)
    k = _leading(keep & (err <= tol))               # up to the first rejection
    small = err[:k] <= 0.125 * tol[:k]
    grow = dt < config.dt and bool(small.any())
    if grow:
        k = int(np.argmax(small)) + 1
    return ts[1:k + 1], ns[1:k + 1], Z[1:k + 1, :n], grow, j


def _next_limit(limit, accepted, formed):     # run-sized passes, module docstring
    return min(2 * limit, MAX_PASS) if accepted == formed else CHECK_EVERY


def _leading(mask):
    """The length of the leading run of True in the 1-d mask."""
    return len(mask) if mask.all() else int(np.argmin(mask))


# --- the damping subflow ------------------------------------------------------

def _subflow(system, damping):
    """dt -> the impulse map of the damping subflow over one step of length dt,
    and its zones (`zoned`), or None where there are none.

    In s = sqrt(k) B* z the subflow reads ds/dt = -G sigma(s), G = k B*B, and
    z moves by -sqrt(k) B J, where J = int_0^dt sigma(s(t)) dt is the impulse,
    one row per row of s.  Where G = diag(g) the rows decouple and
    J = (s - s(dt)) / g from the exact flow, with the zero columns of B
    masked.  Otherwise J = dt sigma(x) at the implicit midpoint
    x = s - dt/2 G sigma(x).  Where the subflow has zones (module docstring)
    zoned = (level, g, gain): J_j = gain_j(dt) s_j while |s_j| <= level_j,
    and J_j = level_j dt sign(s_j) while |s_j| >= level_j (1 + g_j dt).
    """
    G = system.k * (system.Bstar @ system.B)
    g = np.diag(G).copy()
    ginv = np.divide(1.0, g, out=np.zeros_like(g), where=g > 0)
    active = g[g > 0]
    w = system.U_weights
    rule = damping.scalar_rule or damping.kind
    s0, q, c = damping.s0, damping.q, damping.c
    if active.size == 0:
        return (lambda dt: np.zeros_like), None         # sigma never moves z
    decoupled = not np.any(G - np.diag(g))
    if decoupled:
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
                linear, constants = gain(dt), (ginv, ginv / s0, -g)

                def impulse(S):
                    a = np.sqrt((S * S) @ w)[:, None] if on_norm else np.abs(S)
                    if a.max() <= s0:                       # the linear flow
                        return S * linear
                    J = _clamp_impulse(a, s0, dt, *constants)
                    if on_norm:
                        return S * (J / np.maximum(a, TINY))
                    return np.copysign(J, S)
                return (lambda S: S * linear) if rule == "linear" else impulse
            # the zones of a clamp at s0; for norm saturation the box of side
            # s0 / sqrt(m w) in the ball |s|_U <= s0, and no saturated zone if m > 1
            level = np.inf if rule == "linear" else s0 / np.sqrt(len(w) * w) if on_norm else s0
            return saturating, (level, np.inf if on_norm and len(w) > 1 else g, gain)
        drops = {
            "tanh": lambda a, dt: s0 * _tanh_drop(a / s0, g * dt),
            "weak_damping": lambda a, dt: a - np.maximum(
                a ** (1.0 - q) - (1.0 - q) * c * g * dt, 0.0) ** (1.0 / (1.0 - q)),
        }
        if rule in drops:
            drop = drops[rule]
            return (lambda dt: lambda S: np.copysign(drop(np.abs(S), dt) * ginv, S)), None
    return (lambda dt: lambda S: _implicit_midpoint(damping, G, w, S, dt, decoupled)), None


def _clamp_impulse(a, s0, dt, ginv, ginv_s0, neg_g):
    """int_0^dt min(|s(t)|, s0) dt under d|s|/dt = -g min(|s|, s0) from |s| = a:
    saturated until |s| falls to s0, exponential decay after; 0 where g = 0.
    The constants are ginv = 1/g (0 where g = 0), ginv / s0 and -g."""
    rest = np.minimum(np.maximum(dt - (a - s0) * ginv_s0, 0.0), dt)      # time below s0
    return s0 * (dt - rest) - np.minimum(a, s0) * np.expm1(neg_g * rest) * ginv


def _tanh_drop(u, decay):
    """Decrease of u = |s|/s0 under du/dt = -g tanh(u), where sinh(u) falls as
    e^{-g t}; decay = g dt.  Past u = 20, log sinh(u) = u - log 2 to double
    precision and asinh(e^l) is evaluated without overflow."""
    low = np.arcsinh(np.sinh(np.minimum(u, 20.0)) * np.exp(-decay))
    ell = np.maximum(u, 20.0) - np.log(2.0) - decay     # log sinh(u(dt)) for u > 20
    e = np.exp(-np.abs(ell))
    high = np.where(ell > 0, ell + np.log1p(np.sqrt(1.0 + e * e)), np.arcsinh(e))
    return u - np.where(u > 20.0, high, low)


def _implicit_midpoint(damping, G, w, S, dt, decoupled):
    """dt sigma(x) at the implicit midpoint x = s - dt/2 G sigma(x), per row of
    S, by Newton; decoupled says that G is diagonal.  Weak damping is not
    Lipschitz at 0, so there the unknown is u = sigma(x), whose inverse is C^1.
    Raises SubflowNotConverged rather than return an iterate."""
    h = 0.5 * dt
    weak = damping.kind == "weak_damping"
    eye = np.eye(len(G))
    U = damping.apply(S, w) if weak else S.copy()
    for _ in range(NEWTON_MAXITER):
        if weak:                        # F(u) = sigma^{-1}(u) - s + h G u
            c, p = damping.c, 1.0 / damping.q
            F = np.sign(U) * (np.abs(U) / c) ** p - S + h * U @ G.T
            jac = eye * ((p / c) * (np.abs(U) / c) ** (p - 1.0))[..., None, :] + h * G
        else:                           # F(x) = x - s + h G sigma(x)
            F = U - S + h * damping.apply(U, w) @ G.T
            D = damping.jacobian(U, w)
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


def _by_chunks(f, *columns, rows=1024):
    """f on consecutive row blocks of the recorded columns (states, norms); the
    blocks bound the size of the temporaries f makes."""
    return np.concatenate([f(*(c[i:i + rows] for c in columns))
                           for i in range(0, len(columns[0]), rows)])


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
