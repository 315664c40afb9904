"""The benchmark's three workloads.

Each workload writes its configs and input files once (set-up), then runs
whole rounds of the same program calls.  A round calls the library and
`lyapcert.cli.main` in-process, always through module attributes looked up
at call time, so the traced run sees every call.  The checks read what the
round wrote and compare it with `checks`, which does not import lyapcert.
"""

import contextlib
import dataclasses
import hashlib
import io
import os

import numpy as np
import scipy.linalg as sla

from lyapcert import analysis, cli, damping, lyapunov, models, sim
from lyapcert import io as lio

import checks as ck


class OpFailed(Exception):
    """A program call raised, or the CLI exited nonzero; the round stops."""


class Ops:
    """Counts the program calls of a round and captures the CLI's output."""

    def __init__(self):
        self.succeeded = 0
        self.errors = []

    def call(self, label, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # any program fault fails the operation, not the benchmark
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            raise OpFailed(label) from exc
        self.succeeded += 1
        return out

    def cli(self, *argv):
        """`lyapcert <argv>` in-process; returns what it printed."""
        label = f"cli {argv[0]}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main([str(a) for a in argv])
            except Exception as exc:  # the CLI should report errors as an ERROR line, not raise
                self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
                raise OpFailed(label) from exc
        if rc != 0:
            last = (buf.getvalue().strip().splitlines() or [""])[-1]
            self.errors.append(f"{label}: exit {rc}: {last}")
            raise OpFailed(label)
        self.succeeded += 1
        return buf.getvalue()


def digest_dir(path):
    """SHA-256 over every output file except the timestamped manifests."""
    h = hashlib.sha256()
    for dirpath, dirnames, files in sorted(os.walk(path)):
        dirnames.sort()
        for name in sorted(files):
            if name == "manifest.txt":
                continue
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode())
            with open(full, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


class Workload:
    name = ""
    ops = 0                 # program calls per round

    def __init__(self, base, seed):
        self.base = base     # set-up directory: configs and input files
        self.seed = seed

    def cfg(self, name):
        return os.path.join(self.base, name)

    def write(self, name, text):
        with open(self.cfg(name), "w") as fh:
            fh.write(text)

    def prepare(self):
        raise NotImplementedError

    def round(self, ops, out):
        raise NotImplementedError

    def check(self, outputs, res):
        raise NotImplementedError

    def digest(self, outputs):
        return digest_dir(outputs["dir"])


# --- kdv_sweep ----------------------------------------------------------------

KDV_N, KDV_L, KDV_DT, KDV_T_END = 64, 6.283185307179586, 2e-3, 16.0
KDV_RADII = (1, 5, 25)

KDV_CFG = """# docs/kdv_sweep.cfg with dt = {dt!r} and t_end = {t_end!r}
[system]
name = kdv
N = {N}
L = {L!r}
k = 1.0
a_profile = constant 1.0

[damping]
kind = {kind}
s0 = 1.0

[sim]
dt = {dt!r}
t_end = {t_end!r}
error_control = off
z0 = eigvec 0 5.0

[analysis]
certificate = semiglobal
r = {r}
c_S = auto
fits = exponential
radii = 1, 5, 25
"""


class KdvSweep(Workload):
    """certify at r = 1, 5, 25; sweep; simulate + verify at r = 5; linear sweep."""

    name = "kdv_sweep"
    ops = 7

    def prepare(self):
        self.plant = ck.kdv_plant(KDV_N, KDV_L)
        self._exact_rate = None
        for r in KDV_RADII:
            self.write(f"clamp_r{r}.cfg", KDV_CFG.format(
                N=KDV_N, L=KDV_L, dt=KDV_DT, t_end=KDV_T_END, kind="clamp", r=r))
        self.write("linear.cfg", KDV_CFG.format(
            N=KDV_N, L=KDV_L, dt=KDV_DT, t_end=KDV_T_END, kind="linear", r=5))

    def round(self, ops, out):
        s = self.seed
        for r in KDV_RADII:
            ops.cli("certify", "--config", self.cfg(f"clamp_r{r}.cfg"),
                    "--out", os.path.join(out, f"r{r}"), "--seed", s)
        sweep_log = ops.cli("sweep", "--config", self.cfg("clamp_r5.cfg"),
                            "--out", os.path.join(out, "sweep"), "--seed", s)
        ops.cli("simulate", "--config", self.cfg("clamp_r5.cfg"),
                "--out", os.path.join(out, "r5"), "--seed", s)
        ops.cli("verify", "--config", self.cfg("clamp_r5.cfg"),
                "--out", os.path.join(out, "r5"), "--seed", s)
        ops.cli("sweep", "--config", self.cfg("linear.cfg"),
                "--out", os.path.join(out, "linear"), "--seed", s)
        return {"dir": out, "sweep_log": sweep_log}

    def check(self, outputs, res):
        d = outputs["dir"]
        plant = self.plant
        Acl = plant.closed_loop()
        certs = {}

        def certificates():
            for r in KDV_RADII:
                sc = ck.read_scalars(os.path.join(d, f"r{r}", "certificate.txt"))
                P = ck.read_matrix(os.path.join(d, f"r{r}", "certificate_P.mat"))
                certs[r] = (sc, P)
                check_certificate_matrix(res, plant, Acl, sc, P, f"r={r}")
                check_semiglobal_constants(res, plant, sc, P, r, f"r={r}")
        res.guard("certificate_lyapunov_residual", certificates)

        def sweeps():
            rows = ck.read_columns(os.path.join(d, "sweep", "sweep.csv"))
            lin = ck.read_columns(os.path.join(d, "linear", "sweep.csv"))
            for r, mu in zip(rows["r"].tolist(), rows["mu"].tolist()):
                cert_mu = certs[int(r)][0]["mu"]
                res.add("mu_observed_ge_certified", mu >= cert_mu,
                        f"r={r:g}: observed {mu!r} vs certified {cert_mu!r}")
            r2 = np.concatenate([rows["r_squared"], lin["r_squared"]])
            res.add("sweep_r_squared", np.all(r2 >= 0.99), f"min R^2 {float(r2.min())!r}")
            mus = rows["mu"]
            # the sweep's documented criterion: mu(r) nonincreasing within 20% fit slack
            trend = bool(np.all(mus[1:] <= mus[:-1] * 1.2))
            said = "within slack: True" in outputs["sweep_log"]
            res.add("mu_trend", trend and said,
                    f"mu {mus.tolist()} recomputed {trend}, program says {said}")
            spread = float(np.max(np.abs(lin["mu"] / lin["mu"][0] - 1.0)))
            res.add("linear_scale_invariance", spread <= 1e-9,
                    f"linear mu {lin['mu'].tolist()}, relative spread {spread:.2e}")
            if self._exact_rate is None:
                zhat = ck.slowest_mode(Acl)
                self._exact_rate = ck.exact_flow_rate(plant, zhat / plant.norm_DA(zhat),
                                                      KDV_DT, KDV_T_END)
            ref = self._exact_rate
            err = ck.rel(lin["mu"][0], ref)
            res.add("linear_matches_exact_flow", err <= 1e-4,
                    f"program {float(lin['mu'][0])!r} vs exact flow {ref!r} (rel {err:.2e})")
        res.guard("mu_observed_ge_certified", sweeps)

        def trajectory():
            tr = ck.read_columns(os.path.join(d, "r5", "trajectory.csv"))
            n = tr["norm_H"]
            worst = float(np.max(n[1:] / n[:-1] - 1.0))
            res.add("trajectory_norm_nonincreasing", worst <= 1e-13,
                    f"largest step-to-step relative growth {worst:.3e}")
            sc, P = certs[5]
            check_verification(res, d, "r5", tr, sc)
            G = plant.W @ P
            lo = (ck.gen_min_eig(G, plant.W) + sc["M"]) * n**2
            hi = (ck.gen_max_eig(G, plant.W) + sc["M"]) * n**2
            check_sandwich(res, tr["V"], lo, hi)
        res.guard("trajectory_norm_nonincreasing", trajectory)


def check_certificate_matrix(res, plant, Acl, sc, P, where):
    """Exported P solves the closed-loop Lyapunov equation with right side -W,
    and its reported norms are the exact generalized eigenvalues."""
    err = ck.lyapunov_backward_error(Acl, plant.W @ P, plant.W)
    res.add("certificate_lyapunov_residual", err <= 1e-12,
            f"{where}: backward error {err:.2e}")
    PH, BN, PDA = ck.exact_norms(plant, P)
    worst = max(ck.rel(sc["P_norm_H"], PH), ck.rel(sc["B_norm"], BN))
    if "P_norm_DA" in sc:
        worst = max(worst, ck.rel(sc["P_norm_DA"], PDA))
    res.add("certificate_norms_exact", worst <= 1e-6,
            f"{where}: P_norm_H {sc['P_norm_H']!r} vs {PH!r}, B_norm {sc['B_norm']!r} "
            f"vs {BN!r}; worst rel {worst:.2e}")


def check_semiglobal_constants(res, plant, sc, P, r, where):
    """M = c_S C2 h(||B|| r) r ||P||_DA and mu = C / (2 max(||P||_H, M)), with
    the exact norms (h = 1 for componentwise saturations)."""
    PH, _, PDA = ck.exact_norms(plant, P)
    M = sc["c_S"] * sc["damping_C2"] * r * PDA
    mu = sc["C"] / (2.0 * max(PH, M))
    worst = max(ck.rel(sc["M"], M), ck.rel(sc["mu"], mu), abs(sc["r"] - r))
    res.add("certificate_mu_formula", worst <= 1e-6,
            f"{where}: mu {sc['mu']!r} vs {mu!r}, M {sc['M']!r} vs {M!r}")


def check_verification(res, d, sub, tr, sc):
    """verify's verdict, and the decrease dV/dt <= -C ||z||^2 recomputed from
    the trajectory with verify's tolerance 1e-4 V(0)."""
    header, rows = ck.read_table(os.path.join(d, sub, "verification.csv"))
    row = dict(zip(header, rows[0]))
    own = ck.decrease_violation(tr["t"], tr["V"], tr["norm_H"], sc["C"])
    tol = 1e-4 * float(tr["V"][0])
    ok = (row["pass"] == "True" and float(row["max_violation"]) <= float(row["tolerance"])
          and own <= tol)
    res.add("verify_pass", ok, f"program pass={row['pass']} max_violation="
            f"{row['max_violation']}; recomputed {own!r} vs tolerance {tol!r}")


def check_sandwich(res, V, lo, hi, rtol=1e-9):
    ok = np.all(V >= lo * (1 - rtol)) and np.all(V <= hi * (1 + rtol))
    res.add("V_sandwich", ok, f"worst lower ratio {float(np.min(V / lo))!r}, "
            f"worst upper ratio {float(np.max(V / hi))!r}")


# --- wave_certify -------------------------------------------------------------

WAVE_T_GRID = np.linspace(0.0, 20.0, 11)         # verify_poly_chain grid
CALIBRATION_T_GRID = np.linspace(0.0, 100.0, 41)  # calibrate_C_theta's default grid
GRAMIAN_SHIFT = 0.1                               # build_poly_certificate's default shift
WAVE_DT, WAVE_T_END = 1e-3, 1.0


def sine_state(plant, N, scale):
    """Displacement sin(pi x), zero velocity, scaled to D(A) norm `scale`."""
    x = np.arange(1, N + 1) / (N + 1)
    z = np.concatenate([np.sin(np.pi * x), np.zeros(N)])
    return scale * z / plant.norm_DA(z)


def in_window(lo, hi):
    return lambda x: 1.0 if lo <= x <= hi else 0.0


def uniform(x):
    return 1.0


class WaveCertify(Workload):
    """Semiglobal certificate on wave N=64 damped on [0.25, 0.75]; Gramian
    poly certificate on wave N=32; chain check; short damped run + decrease."""

    name = "wave_certify"
    ops = 10

    def prepare(self):
        self.p64 = ck.wave_plant(64, 0.25, 0.75)
        self.p32 = ck.wave_plant(32)
        self.z64 = sine_state(self.p64, 64, 5.0)
        self.z32 = sine_state(self.p32, 32, 1.0)
        self._X = None

    def export(self, cert, path):
        os.makedirs(path, exist_ok=True)
        with open(os.path.join(path, "certificate.txt"), "w") as fh:
            fh.write(lyapunov.export_text(cert))
        lio.save_matrix(os.path.join(path, "certificate_P.mat"), cert.P)

    def round(self, ops, out):
        s = self.seed
        sat = damping.clamp(1.0)
        w64 = ops.call("discretize_wave 64", models.discretize_wave, 64, in_window(0.25, 0.75))
        c_S = ops.call("estimate_cS", models.estimate_cS, w64, seed=s)
        sg = ops.call("semiglobal", lyapunov.build_semiglobal_certificate, w64, sat, 5.0, c_S=c_S)
        ops.call("export semiglobal", self.export, sg, os.path.join(out, "semiglobal"))
        w32 = ops.call("discretize_wave 32", models.discretize_wave, 32, uniform)
        poly = ops.call("poly", lyapunov.build_poly_certificate, w32,
                        damping.tanh_saturation(1.0), 2.0, 1.0, seed=s)
        ops.call("export poly", self.export, poly, os.path.join(out, "poly"))
        linear_flow = dataclasses.replace(w32, A=w32.closed_loop(poly.damping_ref.C1))
        chain = ops.call("verify_poly_chain", analysis.verify_poly_chain, linear_flow,
                         poly.P, poly.C, self.z32, WAVE_T_GRID)
        traj = ops.call("integrate", sim.integrate, w64, sat, self.z64,
                        sim.IntegratorConfig(dt=WAVE_DT, t_end=WAVE_T_END,
                                             error_control="none"), cert=sg)
        dec = ops.call("verify_lyapunov_decrease", analysis.verify_lyapunov_decrease, traj, sg)
        return {"dir": out, "chain": chain, "decrease": dec, "times": traj.times,
                "norm_H": traj.norm_H, "V": traj.V_values}

    def digest(self, outputs):
        h = hashlib.sha256(digest_dir(outputs["dir"]).encode())
        for key in ("times", "norm_H", "V"):
            h.update(np.ascontiguousarray(outputs[key]).tobytes())
        h.update(repr(outputs["chain"].row()).encode())
        return h.hexdigest()

    def check(self, outputs, res):
        d = outputs["dir"]
        p64, p32 = self.p64, self.p32
        A64 = p64.closed_loop()
        A32 = p32.closed_loop()

        def semiglobal():
            sc = ck.read_scalars(os.path.join(d, "semiglobal", "certificate.txt"))
            P = ck.read_matrix(os.path.join(d, "semiglobal", "certificate_P.mat"))
            check_certificate_matrix(res, p64, A64, sc, P, "wave64")
            check_semiglobal_constants(res, p64, sc, P, 5.0, "wave64")
            n = outputs["norm_H"]
            own = ck.decrease_violation(outputs["times"], outputs["V"], n, sc["C"])
            tol = 1e-4 * float(outputs["V"][0])
            dec = outputs["decrease"]
            res.add("decrease", dec.passed and own <= tol,
                    f"program pass={dec.passed} ({float(dec.max_violation)!r}); "
                    f"recomputed {own!r} vs tolerance {tol!r}")
            G = p64.W @ P
            check_sandwich(res, outputs["V"], (ck.gen_min_eig(G, p64.W) + sc["M"]) * n**2,
                           (ck.gen_max_eig(G, p64.W) + sc["M"]) * n**2)
        res.guard("certificate_lyapunov_residual", semiglobal)

        def poly():
            sc = ck.read_scalars(os.path.join(d, "poly", "certificate.txt"))
            P = ck.read_matrix(os.path.join(d, "poly", "certificate_P.mat"))
            G1 = p32.W @ P
            if self._X is None:             # int_0^inf exp(t Acl)^T W exp(t Acl) dt
                X = sla.solve_continuous_lyapunov(A32.T, -p32.W)
                self._X = 0.5 * (X + X.T)
            X = self._X
            gap = np.linalg.norm(G1 - GRAMIAN_SHIFT * p32.W - X) / np.linalg.norm(X)
            res.add("gramian_matches_lyapunov", gap <= 1e-8,
                    f"||G1 - shift W - X||_F / ||X||_F = {gap:.2e}")
            PH, BN, _ = ck.exact_norms(p32, P)
            worst = max(ck.rel(sc["P_norm_H"], PH), ck.rel(sc["B_norm"], BN))
            res.add("certificate_norms_exact", worst <= 1e-6,
                    f"poly: P_norm_H {sc['P_norm_H']!r} vs {PH!r}, worst rel {worst:.2e}")
            need = 0.0
            for t in CALIBRATION_T_GRID:
                E = sla.expm(t * A32)
                w = (1.0 + t) ** (2.0 * sc["gamma"] - 1.0)
                need = max(need, w * ck.gen_max_eig(E.T @ G1 @ E, p32.WG))
            res.add("C_theta_covers_exact", sc["C_theta"] >= need * (1 - 1e-12),
                    f"C_theta {sc['C_theta']!r} vs exact requirement {need!r}")
            # chain inequalities with the exact tail int_t^inf ||z||^2 = z(t)^T X z(t)
            C, tol = sc["C"], 1e-8
            worst_a = worst_b = float("inf")
            for t in WAVE_T_GRID:
                zt = sla.expm(t * A32) @ self.z32
                worst_a = min(worst_a, float(zt @ G1 @ zt - C * (zt @ X @ zt)))
                if t >= 1.0:
                    zh = sla.expm(0.5 * t * A32) @ self.z32
                    worst_b = min(worst_b, float((4.0 / C) * (zh @ G1 @ zh)
                                                 - (1.0 + t) * p32.norm_H(zt) ** 2))
            chain = outputs["chain"]
            res.add("poly_chain", chain.passed and min(worst_a, worst_b) >= -tol,
                    f"program pass={chain.passed}; exact tail margin {worst_a!r}, "
                    f"doubling margin {worst_b!r}")
        res.guard("gramian_matches_lyapunov", poly)


# --- osc_pipeline -------------------------------------------------------------

OSC_CFG = """# damped oscillator A = [[0, 1], [-1, 0]], B = [1; 0], saturated at s0 = 1
[system]
name = finite_dim
A_file = A.mat
B_file = B.mat
k = 1.0

[damping]
kind = norm_saturation
s0 = 1.0
verify_dim = 4
verify_trials = 2000

[sim]
dt = {dt!r}
t_end = 40.0
error_control = {ec}
z0 = eigvec 0 20.0
{analysis}"""

OSC_ANALYSIS = """
[analysis]
certificate = exp
fits = exponential
"""


class OscPipeline(Workload):
    """certify, simulate (fixed dt, V recorded), verify, fit-decay,
    check-damping, report; simulate with step halving; behavior_profile."""

    name = "osc_pipeline"
    ops = 12

    def prepare(self):
        self.plant = ck.oscillator_plant()
        ck.write_matrix(self.cfg("A.mat"), self.plant.A)
        ck.write_matrix(self.cfg("B.mat"), self.plant.B)
        self.write("fixed.cfg", OSC_CFG.format(dt=2e-3, ec="off", analysis=OSC_ANALYSIS))
        self.write("adaptive.cfg", OSC_CFG.format(dt=1e-2, ec="on", analysis=""))

    def round(self, ops, out):
        s = self.seed
        fixed, adaptive = os.path.join(out, "fixed"), os.path.join(out, "adaptive")
        for sub in ("certify", "simulate", "verify", "fit-decay", "check-damping", "report"):
            ops.cli(sub, "--config", self.cfg("fixed.cfg"), "--out", fixed, "--seed", s)
        ops.cli("simulate", "--config", self.cfg("adaptive.cfg"), "--out", adaptive, "--seed", s)
        header, rows = ops.call("read_csv", lio.read_csv, os.path.join(fixed, "trajectory.csv"))
        data = np.array([[float(x) for x in r] for r in rows])
        traj = ops.call("from_norms", sim.Trajectory.from_norms, data[:, 0], data[:, 1],
                        V_values=data[:, 3])
        system = ops.call("make_finite_dim", models.make_finite_dim,
                          self.plant.A, self.plant.B, 1.0)
        cert = ops.call("build_exp_certificate", lyapunov.build_exp_certificate,
                        system, damping.norm_saturation(1.0))
        prof = ops.call("behavior_profile", analysis.behavior_profile, traj,
                        cert.damping_ref, cert.B_norm, cert)
        return {"dir": out, "post_ratio": prof.post_ratio}

    def check(self, outputs, res):
        d = outputs["dir"]
        fixed = os.path.join(d, "fixed")
        plant = self.plant
        Acl = plant.closed_loop()

        def trajectories():
            f = ck.read_columns(os.path.join(fixed, "trajectory.csv"))
            a = ck.read_columns(os.path.join(d, "adaptive", "trajectory.csv"))
            t, n = f["t"], f["norm_H"]
            t_star = ck.unit_ball_entry(t, n)
            rate_ref = -float(np.max(np.linalg.eigvals(Acl).real))
            tail = (t >= t_star) & (n > 1e-8)
            rate = -ck.lstsq_slope(t[tail], np.log(n[tail]))[0]
            header, rows = ck.read_table(os.path.join(fixed, "decay_fit.csv"))
            fit_rate = float(dict(zip(header, rows[0]))["rate"])
            worst = max(ck.rel(rate, rate_ref), ck.rel(fit_rate, rate_ref))
            res.add("tail_rate", worst <= 0.01,
                    f"own fit after t*={t_star:g}: {rate!r}, fit-decay {fit_rate!r}, "
                    f"-Re lambda(A - BB^T) = {rate_ref!r}")
            pre = t <= t_star
            slope = ck.lstsq_slope(t[pre], n[pre])[0]
            bound = -2.0 * 1.0 * float(np.sqrt(ck.gen_max_eig(plant.B @ plant.B.T, plant.W)))
            res.add("linear_phase_slope", bound <= slope <= 0.0,
                    f"slope {slope!r} in [{bound!r}, 0]")
            # shared sample times of the fixed-step and the step-halving run
            j = np.clip(np.searchsorted(t, a["t"]), 1, len(t) - 1)
            j = np.where(np.abs(t[j - 1] - a["t"]) < np.abs(t[j] - a["t"]), j - 1, j)
            shared = np.abs(t[j] - a["t"]) <= 1e-9
            gap = float(np.max(np.abs(n[j[shared]] / a["norm_H"][shared] - 1.0)))
            res.add("adaptive_agrees_fixed", shared.sum() >= 100 and gap <= 1e-4,
                    f"{int(shared.sum())} shared times, worst relative gap {gap:.2e}")
            sc = ck.read_scalars(os.path.join(fixed, "certificate.txt"))
            P = ck.read_matrix(os.path.join(fixed, "certificate_P.mat"))
            check_certificate_matrix(res, plant, Acl, sc, P, "oscillator")
            check_verification(res, d, "fixed", f, sc)
            G = plant.W @ P
            K = sc["M"] * (2.0 / 3.0) * n**3    # M K(||z||^2) with constant h
            check_sandwich(res, f["V"], ck.gen_min_eig(G, plant.W) * n**2 + K,
                           ck.gen_max_eig(G, plant.W) * n**2 + K)
        res.guard("tail_rate", trajectories)

        res.add("post_ratio", 0.0 < outputs["post_ratio"] <= 1.0,
                f"behavior_profile post_ratio {outputs['post_ratio']!r}")

        def damping_report():
            header, rows = ck.read_table(os.path.join(fixed, "damping_report.csv"))
            items = {r[0]: (float(r[1]), r[2]) for r in rows}
            # norm saturation is a 1-Lipschitz monotone map in the sector [0, 1]
            ok = (all(p == "True" for _, p in items.values())
                  and items["lipschitz_max_ratio"][0] <= 1.0 + 1e-12
                  and items["monotonicity_min"][0] >= -1e-12
                  and items["sector_margin_min"][0] >= -1e-12)
            res.add("check_damping", ok, f"{items}")
        res.guard("check_damping", damping_report)

        def report():
            with open(os.path.join(fixed, "report.txt")) as fh:
                first = fh.readline().strip()
            listed = sorted(f for f in os.listdir(fixed)
                            if f.endswith(".csv") or f == "certificate.txt")
            ok = (first == f"run report ({len(listed)} artifacts)"
                  and os.path.exists(os.path.join(fixed, "plots.gp")))
            res.add("report", ok, f"{first!r} for {listed}")
        res.guard("report", report)


WORKLOADS = {w.name: w for w in (KdvSweep, WaveCertify, OscPipeline)}
