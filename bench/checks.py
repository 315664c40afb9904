"""Independent reference computations for the benchmark's correctness checks.

Nothing here imports lyapcert.  The system matrices are rebuilt from the grid
formulas, the outputs are parsed from the files the program wrote, and every
reference value comes from plain numpy/scipy (dense `eigh`, `expm`, the
Bartels-Stewart Lyapunov solve) or from a property the method must have.
"""

import csv

import numpy as np
import scipy.linalg as sla


# --- readers for the program's output files --------------------------------

def read_table(path):
    """CSV file -> (header, list of row lists of strings)."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], rows[1:]


def read_columns(path):
    """Numeric CSV file -> dict column -> float array."""
    header, rows = read_table(path)
    data = np.array([[float(x) for x in r] for r in rows], dtype=float)
    return {name: data[:, j] for j, name in enumerate(header)}


def read_scalars(path):
    """certificate.txt -> dict of the numeric `key = value` lines."""
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, val = line.partition(" = ")
            if not sep:
                continue
            try:
                out[key.strip()] = float(val)
            except ValueError:
                out[key.strip()] = val.strip()
    return out


def read_matrix(path):
    """Matrix file: header `rows cols`, then the entries in row-major order."""
    with open(path) as fh:
        tokens = fh.read().split()
    rows, cols = int(tokens[0]), int(tokens[1])
    vals = np.array([float(t) for t in tokens[2:]], dtype=float)
    if vals.size != rows * cols:
        raise ValueError(f"{path}: {vals.size} entries for a {rows}x{cols} matrix")
    return vals.reshape(rows, cols)


def write_matrix(path, M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    lines += [" ".join(repr(float(x)) for x in row) for row in M]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# --- systems rebuilt from their defining formulas --------------------------

class Plant:
    """A, the H weight W, B, the control weights U and the adjoint B*."""

    def __init__(self, A, W, B, U):
        self.A, self.W, self.B, self.U = A, W, B, np.asarray(U, dtype=float)
        self.Bstar = np.diag(1.0 / self.U) @ B.T @ W
        self.WG = W + A.T @ W @ A            # quadratic graph-norm weight

    def closed_loop(self, gain=1.0):
        return self.A - gain * self.B @ self.Bstar

    def norm_H(self, z):
        return float(np.sqrt(z @ self.W @ z))

    def norm_DA(self, z):
        return self.norm_H(z) + self.norm_H(self.A @ z)


def kdv_plant(N, L):
    h = L / (N + 1)
    e = np.ones(N)
    Dm = (np.diag(e) - np.diag(e[1:], -1)) / h
    Dp = (np.diag(e[1:], 1) - np.diag(e)) / h
    return Plant(-Dm - Dp @ Dp @ Dm, h * np.eye(N), np.eye(N), h * e)


def wave_plant(N, lo=None, hi=None):
    h = 1.0 / (N + 1)
    x = h * np.arange(1, N + 1)
    a = np.ones(N) if lo is None else np.where((x >= lo) & (x <= hi), 1.0, 0.0)
    lap = (np.diag(-2.0 * np.ones(N)) + np.diag(np.ones(N - 1), 1)
           + np.diag(np.ones(N - 1), -1)) / h**2
    Z = np.zeros((N, N))
    A = np.block([[Z, np.eye(N)], [lap, Z]])
    W = np.block([[-h * lap, Z], [Z, h * np.eye(N)]])
    B = np.vstack([Z, np.diag(np.sqrt(a))])
    return Plant(A, W, B, h * np.ones(N))


def oscillator_plant():
    return Plant(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2),
                 np.array([[1.0], [0.0]]), [1.0])


# --- reference quantities ---------------------------------------------------

def gen_max_eig(S, W):
    """Largest generalized eigenvalue of the symmetric pencil (S, W)."""
    return float(sla.eigh(0.5 * (S + S.T), W, eigvals_only=True)[-1])


def gen_min_eig(S, W):
    return float(sla.eigh(0.5 * (S + S.T), W, eigvals_only=True)[0])


def exact_norms(plant, P):
    """Exact ||P||_H, ||B*||_{H->U} and sqrt(2)*||P|| in the graph norm."""
    G = plant.W @ P
    P_norm_H = gen_max_eig(G, plant.W)
    B_norm = float(np.sqrt(gen_max_eig(plant.Bstar.T @ np.diag(plant.U) @ plant.Bstar,
                                       plant.W)))
    P_norm_DA = float(np.sqrt(2.0 * gen_max_eig(P.T @ plant.WG @ P, plant.WG)))
    return P_norm_H, B_norm, P_norm_DA


def lyapunov_backward_error(Acl, G, Q):
    """||Acl^T G + G Acl + Q||_F scaled by the size of the terms."""
    res = np.linalg.norm(Acl.T @ G + G @ Acl + Q)
    scale = 2.0 * np.linalg.norm(Acl) * np.linalg.norm(G) + np.linalg.norm(Q)
    return float(res / scale)


def rel(a, b):
    return float(abs(a - b) / max(abs(b), 1e-300))


def lstsq_slope(x, y):
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2


def slowest_mode(Acl):
    """Closed-loop eigenvector of smallest eigenvalue modulus, as a real vector."""
    vals, vecs = np.linalg.eig(Acl)
    order = np.lexsort((vals.imag, vals.real, np.abs(vals)))
    v = vecs[:, order[0]]
    return v.real if np.linalg.norm(v.real) > 1e-12 * np.linalg.norm(v) else v.imag


def exact_flow_rate(plant, z0, dt, t_end, rel_hi=1e-3, rel_lo=1e-7, floor=1e-8):
    """Log-linear decay rate of ||exp(t Acl) z0||_H on the sample grid t = j dt,
    fitted on the window where the norm lies in (rel_lo, rel_hi) of its start."""
    E = sla.expm(dt * plant.closed_loop())
    steps = int(round(t_end / dt))
    z = np.asarray(z0, dtype=float)
    norms = np.empty(steps + 1)
    norms[0] = plant.norm_H(z)
    for j in range(1, steps + 1):
        z = E @ z
        norms[j] = plant.norm_H(z)
    t = dt * np.arange(steps + 1)
    hi_idx = np.nonzero(norms <= rel_hi * norms[0])[0]
    lo_idx = np.nonzero(norms <= rel_lo * norms[0])[0]
    t_lo = t[hi_idx[0]] if len(hi_idx) else t[steps // 2]
    t_hi = t[lo_idx[0]] if len(lo_idx) else t[-1]
    keep = (t >= t_lo) & (t <= t_hi) & (norms > floor)
    slope, _ = lstsq_slope(t[keep], np.log(norms[keep]))
    return float(-slope)


def decrease_violation(times, V, norm_H, C):
    """max over steps of dV/dt + C ||z||_H^2 (<= 0 when V decreases as certified)."""
    rate = np.diff(V) / np.diff(times)
    return float(np.max(rate + C * norm_H[:-1] ** 2))


def unit_ball_entry(times, norm_H):
    below = np.nonzero(norm_H <= 1.0)[0]
    return float(times[below[0]]) if len(below) else None


# --- check bookkeeping ------------------------------------------------------

class Results:
    """Named pass/fail results of one round; the first failure of a name wins."""

    def __init__(self):
        self.items = {}

    def add(self, name, ok, detail):
        ok = bool(ok)
        prev = self.items.get(name)
        if prev is None or (prev[0] and not ok):
            self.items[name] = (ok, str(detail))

    def guard(self, name, fn):
        """Run fn(); an exception while checking counts as a failed check."""
        try:
            fn()
        except Exception as exc:  # a malformed output must fail the check, not crash the run
            self.add(name, False, f"{type(exc).__name__}: {exc}")

    @property
    def ok(self):
        return all(ok for ok, _ in self.items.values())

    def failed(self):
        return {k: v[1] for k, v in self.items.items() if not v[0]}

    def as_dict(self):
        return {k: {"ok": ok, "detail": d} for k, (ok, d) in self.items.items()}
