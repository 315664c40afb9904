"""Batch front-end: config in, CSVs + certificates + reports out.

    lyapcert <subcommand> --config <path> [--out <dir>] [--seed <int>]

Subcommands: simulate, certify, check-damping, fit-decay, sweep, verify,
report.  The output directory resolves --out, then LYAPCERT_OUT_DIR, then the
config's [output] directory.  Identical config + seed produce byte-identical
CSVs; failures print one machine-parsable "ERROR <Name>: ..." line last.
"""

import argparse
import hashlib
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, damping as dmp, lyapunov, models, sim
from .config import parse_config, serialize
from .errors import (LyapcertError, MissingInput, NotDissipative, ParseError,
                     StaleCertificate, ValidationError)
from .io import load_matrix, read_csv, save_matrix, write_csv
from .linalg import InnerProduct

TRAJECTORY_COLUMNS = ["t", "norm_H", "norm_DA", "V", "damping_power"]

EXIT_CODES = {"ParseError": 2, "ValidationError": 3, "MissingInput": 4}


# --- builders from config ---

def build_damping(cfg):
    kind = cfg.get("damping", "kind")
    kwargs = {}
    if kind in ("norm_saturation", "clamp", "tanh", "arctan"):
        kwargs["s0"] = float(cfg.get("damping", "s0"))
    if kind == "weak":
        kwargs = {"c": float(cfg.get("damping", "c")), "q": float(cfg.get("damping", "q"))}
    spec = dmp.from_name(kind, **kwargs)
    c1 = cfg.get("damping", "C1")
    c2 = cfg.get("damping", "C2")
    if c1 is not None or c2 is not None:
        from dataclasses import replace
        spec = replace(spec, C1=float(c1 if c1 is not None else spec.C1),
                       C2=float(c2 if c2 is not None else spec.C2))
    return spec


def _profile_from_config(cfg):
    prof = cfg.get("system", "a_profile", "constant 1.0")
    toks = str(prof).split()
    if toks[0] == "constant":
        c = float(toks[1])
        return lambda x: c
    lo, hi, amp = (float(t) for t in toks[1:])
    return lambda x: amp if lo <= x <= hi else 0.0


def _matrix_from_config(cfg, key):
    """The matrix `key` given inline or through `key_file`, and the key that gave it."""
    val = cfg.get("system", key)
    if val is not None:
        try:
            M = np.atleast_2d(np.asarray(val, dtype=float))
        except ValueError:
            raise ValidationError([f"[system] {key}: not a numeric matrix: {val!r}"]) from None
        if not np.all(np.isfinite(M)):
            raise ValidationError([f"[system] {key}: matrix has non-finite entries"])
        return M, key
    path = cfg.get("system", key + "_file")
    if path is None:
        raise ValidationError([f"[system] {key}: required for finite_dim"])
    return load_matrix(os.path.join(cfg.base_dir, str(path))), key + "_file"


def build_system(cfg):
    name = cfg.get("system", "name")
    k = float(cfg.get("system", "k", 1.0))
    if name == "finite_dim":
        (A, a_key), (B, b_key) = _matrix_from_config(cfg, "A"), _matrix_from_config(cfg, "B")
        if A.shape[0] != A.shape[1]:
            raise ValidationError([f"[system] {a_key}: A must be square, got shape {A.shape}"])
        if B.shape[0] != A.shape[0]:
            raise ValidationError([f"[system] {b_key}: B must have {A.shape[0]} rows "
                                   f"like A, got shape {B.shape}"])
        if not np.any(B):
            # uncontrolled decay runs (B = 0) skip the controllability gate only
            ip = InnerProduct.euclidean(A.shape[0])
            models.require_dissipative(A, ip, NotDissipative)
            return models.SemiDiscreteSystem(A=A, B=B, k=k, H_ip=ip,
                                             U_weights=np.ones(B.shape[1]))
        return models.make_finite_dim(A, B, k)
    if name == "kdv":
        L = float(cfg.get("system", "L", 2 * np.pi))
        return models.discretize_kdv(L, int(cfg.get("system", "N")),
                                     _profile_from_config(cfg), k)
    return models.discretize_wave(int(cfg.get("system", "N")),
                                  _profile_from_config(cfg), k)


def initial_state(cfg, system):
    spec = cfg.get("sim", "z0", "eigvec 0 1.0")
    toks = str(spec).split()
    if toks[:1] == ["file"] and len(toks) == 2:
        z0 = load_matrix(os.path.join(cfg.base_dir, toks[1])).ravel()
        if z0.size != system.n:
            raise ValidationError([f"[sim] z0: {toks[1]} holds {z0.size} entries, "
                                   f"the state has {system.n}"])
        return z0
    try:
        index, scale = int(toks[1]), float(toks[2])
    except (IndexError, ValueError):
        index, scale = -1, np.nan
    if (toks[:1] != ["eigvec"] or len(toks) != 3 or not 0 <= index < system.n
            or not np.isfinite(scale)):
        raise ValidationError([f"[sim] z0: expected 'eigvec index scale' with "
                               f"0 <= index < {system.n} and a finite scale, "
                               f"or 'file path', got {spec!r}"])
    zhat = models.leading_eigvec(system.closed_loop(), index)
    return (scale / system.norm_DA(zhat)) * zhat


def integrator_config(cfg):
    return sim.IntegratorConfig(
        dt=float(cfg.get("sim", "dt")),
        t_end=float(cfg.get("sim", "t_end")),
        error_control="step-halving" if cfg.get("sim", "error_control") == "on" else "none",
        local_error_target=float(cfg.get("sim", "local_error_target", 1e-8)),
    )


def build_certificate(cfg, system, damping, seed=0):
    kind = cfg.get("analysis", "certificate", "exp")
    if kind == "exp":
        return lyapunov.build_exp_certificate(system, damping)
    r = float(cfg.get("analysis", "r", 1.0))
    if kind == "semiglobal":
        c_S = cfg.get("analysis", "c_S", "auto")
        if c_S == "auto":
            c_S = models.estimate_cS(system, seed=seed)
        return lyapunov.build_semiglobal_certificate(system, damping, r, c_S=float(c_S))
    gamma = float(cfg.get("analysis", "gamma", 1.0))
    C_theta = cfg.get("analysis", "C_theta", "auto")
    return lyapunov.build_poly_certificate(
        system, damping, r, gamma,
        C_theta=None if C_theta == "auto" else float(C_theta), seed=seed)


# --- subcommands ---

def _trajectory_rows(traj):
    V = traj.V_values if traj.V_values is not None else np.full(len(traj.times), np.nan)
    for i in range(len(traj.times)):
        yield (traj.times[i], traj.norm_H[i], traj.norm_DA[i], V[i],
               traj.damping_power[i])


def cmd_simulate(cfg, out_dir, seed):
    system = build_system(cfg)
    damping = build_damping(cfg)
    z0 = initial_state(cfg, system)
    cert = None
    if cfg.get("analysis", "certificate") is not None:
        cert = build_certificate(cfg, system, damping, seed=seed)
    traj = sim.integrate(system, damping, z0, integrator_config(cfg), cert=cert)
    write_csv(os.path.join(out_dir, "trajectory.csv"), TRAJECTORY_COLUMNS,
              _trajectory_rows(traj))
    print(f"simulate: {len(traj.times)} samples, t_star={traj.t_star!r}")
    return ["trajectory.csv"]


def config_hash(cfg):
    """Hash of the parsed config in its serialized form, blind to comments and
    layout; certify records it and verify compares it.  The prefix keeps the
    certificate line non-numeric for readers of the scalars."""
    return "sha256:" + hashlib.sha256(serialize(cfg).encode()).hexdigest()


def cmd_certify(cfg, out_dir, seed):
    system = build_system(cfg)
    damping = build_damping(cfg)
    cert = build_certificate(cfg, system, damping, seed=seed)
    with open(os.path.join(out_dir, "certificate.txt"), "w") as fh:
        fh.write(lyapunov.export_text(cert))
        fh.write(f"config_hash = {config_hash(cfg)}\n")
    save_matrix(os.path.join(out_dir, "certificate_P.mat"), cert.P)
    save_matrix(os.path.join(out_dir, "system_A.mat"), system.A)
    save_matrix(os.path.join(out_dir, "system_B.mat"), system.B)
    print(f"certify: kind={cert.kind} C={cert.C!r} M={cert.M!r}")
    return ["certificate.txt", "certificate_P.mat", "system_A.mat", "system_B.mat"]


def cmd_check_damping(cfg, out_dir, seed):
    damping = build_damping(cfg)
    report = dmp.verify_definition(damping,
                                   dim=int(cfg.get("damping", "verify_dim")),
                                   trials=int(cfg.get("damping", "verify_trials")),
                                   seed=seed)
    write_csv(os.path.join(out_dir, "damping_report.csv"),
              ["item", "margin", "pass"], report.rows())
    print(report.text_block())
    return ["damping_report.csv"]


def _load_trajectory(out_dir):
    path = os.path.join(out_dir, "trajectory.csv")
    if not os.path.exists(path):
        raise MissingInput(f"{path} not found; run simulate first")
    header, rows = read_csv(path)
    if header != TRAJECTORY_COLUMNS:
        raise MissingInput(f"{path} has unexpected columns {header}")
    if not rows:
        raise MissingInput(f"{path} has a header but no samples")
    try:
        data = np.array([[float(x) for x in row] for row in rows]).reshape(len(rows), 5)
    except ValueError:
        raise MissingInput(f"{path} has rows that are not 5 numbers") from None
    V = data[:, 3]
    return sim.Trajectory.from_norms(data[:, 0], data[:, 1],
                                     V_values=None if np.all(np.isnan(V)) else V)


def cmd_fit_decay(cfg, out_dir, seed):
    traj = _load_trajectory(out_dir)
    window = None
    if cfg.get("analysis", "window_lo") is not None:
        window = (float(cfg.get("analysis", "window_lo")),
                  float(cfg.get("analysis", "window_hi", traj.times[-1])))
    rows = []
    for fit in cfg.get("analysis", "fits"):
        est = (analysis.fit_exponential(traj, window) if fit == "exponential"
               else analysis.fit_polynomial(traj, window))
        rows.append(est.row())
        print(f"fit-decay: {fit} rate={est.rate!r} r2={est.r_squared!r}")
    write_csv(os.path.join(out_dir, "decay_fit.csv"),
              ["model", "rate", "prefactor", "t_lo", "t_hi", "r_squared"], rows)
    return ["decay_fit.csv"]


def cmd_sweep(cfg, out_dir, seed):
    system = build_system(cfg)
    damping = build_damping(cfg)
    radii = cfg.get("analysis", "radii")
    if radii is None:
        raise ValidationError(["[analysis] radii: required for sweep"])
    result = analysis.sweep_semiglobal(system, damping, radii, integrator_config(cfg))
    write_csv(os.path.join(out_dir, "sweep.csv"),
              ["r", "mu", "K", "r_squared"], result.rows)
    print(f"sweep: mu trend nonincreasing within slack: {result.mu_trend_ok}")
    return ["sweep.csv"]


def _load_exported_certificate(out_dir):
    """Minimal certificate view from an exported certificate.txt, if present."""
    path = os.path.join(out_dir, "certificate.txt")
    if not os.path.exists(path):
        return None
    scalars, recorded = {}, None
    with open(path) as fh:
        for line in fh:
            key, _, val = line.partition(" = ")
            if key.strip() == "config_hash":
                recorded = val.strip()
            try:
                scalars[key.strip()] = float(val)
            except ValueError:
                continue
    if "C" not in scalars:
        raise MissingInput(f"{path} has no 'C' entry")
    from types import SimpleNamespace
    return SimpleNamespace(C=scalars["C"], config_hash=recorded)


def cmd_verify(cfg, out_dir, seed):
    traj = _load_trajectory(out_dir)
    if traj.V_values is None:
        raise MissingInput("trajectory.csv has no V column values; "
                           "simulate with a certificate configured")
    cert = _load_exported_certificate(out_dir)
    if cert is not None and cert.config_hash not in (None, config_hash(cfg)):
        raise StaleCertificate(
            f"{os.path.join(out_dir, 'certificate.txt')} was certified for config "
            f"{cert.config_hash}, not this config ({config_hash(cfg)}); run certify again")
    if cert is None:
        system = build_system(cfg)
        damping = build_damping(cfg)
        cert = build_certificate(cfg, system, damping, seed=seed)
    report = analysis.verify_lyapunov_decrease(traj, cert)
    write_csv(os.path.join(out_dir, "verification.csv"),
              ["check", "max_violation", "tolerance", "pass", "samples"],
              [report.row()])
    print(f"verify: {report.check} pass={report.passed} "
          f"max_violation={report.max_violation!r}")
    return ["verification.csv"]


PLOT_HINTS = {
    "trajectory.csv": ("t", [("norm_H", 2), ("norm_DA", 3), ("V", 4)], "logscale"),
    "sweep.csv": ("r", [("mu", 2)], "linear"),
    "decay_fit.csv": None,
    "verification.csv": None,
    "damping_report.csv": None,
}


def cmd_report(cfg, out_dir, seed):
    names = sorted(f for f in os.listdir(out_dir)
                   if f.endswith(".csv") or f == "certificate.txt")
    if not names:
        raise MissingInput(f"no outputs to collate in {out_dir}")
    lines = [f"run report ({len(names)} artifacts)", ""]
    for name in names:
        path = os.path.join(out_dir, name)
        lines.append(f"== {name}")
        if name.endswith(".csv"):
            header, rows = read_csv(path)
            lines.append("columns: " + ",".join(header))
            lines.append(f"rows: {len(rows)}")
            if rows:
                lines.append("first: " + ",".join(rows[0]))
                lines.append("last: " + ",".join(rows[-1]))
        else:
            with open(path) as fh:
                lines.extend(ln.rstrip("\n") for ln in fh)
        lines.append("")
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")

    plot = ["# line plots of the run CSVs; render with: gnuplot plots.gp",
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set term pngcairo size 900,600"]
    for name in names:
        hint = PLOT_HINTS.get(name)
        if hint is None:
            continue
        xlab, cols, scale = hint
        stem = name[:-4]
        plot.append(f"set output '{stem}.png'")
        plot.append("set logscale y" if scale == "logscale" else "unset logscale")
        parts = [f"'{name}' using 1:{idx} with lines title '{lab}'"
                 for lab, idx in cols]
        plot.append("plot " + ", ".join(parts))
    with open(os.path.join(out_dir, "plots.gp"), "w") as fh:
        fh.write("\n".join(plot) + "\n")
    print(f"report: collated {len(names)} artifacts")
    return ["report.txt", "plots.gp"]


SUBCOMMANDS = {
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "check-damping": cmd_check_damping,
    "fit-decay": cmd_fit_decay,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "report": cmd_report,
}


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


def write_manifest(out_dir, config_path, seed, produced):
    lines = [f"tool_version = {__version__}",
             f"config_hash = {_sha256(config_path)}",
             f"seed = {seed}",
             f"timestamp = {datetime.now(timezone.utc).isoformat()}"]
    for name in sorted(produced):
        path = os.path.join(out_dir, name)
        lines.append(f"file = {name} bytes={os.path.getsize(path)} sha256={_sha256(path)}")
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")


def run_subcommand(name, cfg, out_dir, seed, config_path=None):
    os.makedirs(out_dir, exist_ok=True)
    produced = SUBCOMMANDS[name](cfg, out_dir, seed)
    if config_path is not None:
        write_manifest(out_dir, config_path, seed, produced)
    return produced


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="lyapcert",
        description="Certificates and decay verification for damped dissipative systems")
    parser.add_argument("subcommand", choices=sorted(SUBCOMMANDS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        cfg.base_dir = os.path.dirname(os.path.abspath(args.config))
        out_dir = (args.out or os.environ.get("LYAPCERT_OUT_DIR")
                   or cfg.get("output", "directory"))
        run_subcommand(args.subcommand, cfg, out_dir, args.seed,
                       config_path=args.config)
        return 0
    except FileNotFoundError as exc:
        print(f"ERROR MissingInput: {exc}")
        return EXIT_CODES["MissingInput"]
    except (LyapcertError, ValueError, OSError) as exc:     # OSError: unreadable paths
        name = type(exc).__name__
        print(f"ERROR {name}: {exc}")
        return EXIT_CODES.get(name, 5)


if __name__ == "__main__":
    sys.exit(main())
