"""Batch front-end: config in, CSVs + certificates + reports out.

    lyapcert <subcommand> --config <path> [--out <dir>] [--seed <int>]

Subcommands: simulate, certify, check-damping, fit-decay, sweep, verify,
report.  The output directory resolves --out, then LYAPCERT_OUT_DIR, then the
config's [output] directory.  Identical config + seed produce byte-identical
CSVs; failures print one machine-parsable "ERROR <Name>: ..." line last.
"""

import argparse
import hashlib
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, damping as dmp, lyapunov, models, sim
from .config import SECTIONS, parse_config, parse_profile
from .errors import LyapcertError, MissingInput, NotDissipative, StaleCertificate, ValidationError
from .io import (load_float_copy, load_matrix, read_csv_floats, read_csv_lines,
                 save_float_copy, save_matrix, write_csv, write_text)
from .linalg import InnerProduct

TRAJECTORY_COLUMNS = ["t", "norm_H", "norm_DA", "V", "damping_power"]

EXIT_CODES = {"ParseError": 2, "ValidationError": 3, "MissingInput": 4}


# --- builders from config ---

def build_damping(cfg):
    """The catalogue damping of [damping], with the sector constants it sets."""
    make, keys = dmp.BY_NAME[cfg.get("damping", "kind")]
    spec = make(**{key: float(cfg.get("damping", key)) for key in keys})
    return replace(spec, **{key: float(cfg.damping[key]) for key in ("C1", "C2")
                            if key in cfg.damping})


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
    k = float(cfg.get("system", "k"))
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
    N = int(cfg.get("system", "N"))
    profile = parse_profile(cfg.get("system", "a_profile"))
    if name == "kdv":
        return models.discretize_kdv(float(cfg.get("system", "L")), N, profile, k)
    return models.discretize_wave(N, profile, k)


def initial_state(cfg, system):
    spec = cfg.get("sim", "z0")
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
        local_error_target=float(cfg.get("sim", "local_error_target")),
    )


def build_certificate(cfg, system, damping, seed=0):
    """The configured certificate; the sector gate runs before the c_S estimate."""
    lyapunov.require_sector(damping)
    kind = cfg.get("analysis", "certificate", "exp")
    if kind == "exp":
        return lyapunov.build_exp_certificate(system, damping)
    r = float(cfg.get("analysis", "r"))
    if kind == "semiglobal":
        c_S = cfg.get("analysis", "c_S")
        if c_S == "auto":
            c_S = models.estimate_cS(system, seed=seed)
        return lyapunov.build_semiglobal_certificate(system, damping, r, c_S=float(c_S))
    gamma = float(cfg.get("analysis", "gamma"))
    C_theta = cfg.get("analysis", "C_theta")
    return lyapunov.build_poly_certificate(
        system, damping, r, gamma,
        C_theta=None if C_theta == "auto" else float(C_theta), seed=seed)


# --- subcommands ---

def _trajectory_table(traj):
    """The TRAJECTORY_COLUMNS as one float array, a row per sample.  The
    columns are read here, before anything is written: norm_DA and
    damping_power are computed on first read."""
    V = traj.V_values if traj.V_values is not None else np.full(len(traj.times), np.nan)
    return np.column_stack((traj.times, traj.norm_H, traj.norm_DA, V, traj.damping_power))


def cmd_simulate(cfg, out_dir, seed):
    system, damping = build_system(cfg), build_damping(cfg)
    z0 = initial_state(cfg, system)
    cert = None
    if cfg.get("analysis", "certificate") is not None:
        cert = (_reusable_certificate(out_dir, cfg, system, damping, seed)
                or build_certificate(cfg, system, damping, seed=seed))
    traj = sim.integrate(system, damping, z0, integrator_config(cfg), cert=cert)
    table = _trajectory_table(traj)
    key = write_csv(os.path.join(out_dir, "trajectory.csv"), TRAJECTORY_COLUMNS, table)
    copy = save_float_copy(os.path.join(out_dir, "trajectory.f64"), key, table)
    print(f"simulate: {len(traj.times)} samples, t_star={traj.t_star!r}")
    return {"trajectory.csv": key, "trajectory.f64": copy}


def config_hash(cfg):
    """The identity of a certificate's closed loop: SHA-256 of sorted-key JSON of
    the parsed sections (every default, matrices as nested lists) and the SHA-256
    of each matrix file build_system reads; not comments, layout or [sim] z0's
    file.  Earlier versions hashed the config's text form: their certificates
    are stale.  The prefix keeps certify's line non-numeric for the scalar reader."""
    doc = {sect: cfg.section(sect) for sect in SECTIONS}
    doc["matrix_files"] = {}
    for key in ("A", "B") if cfg.get("system", "name") == "finite_dim" else ():
        path = cfg.get("system", key + "_file")
        if path is not None and cfg.get("system", key) is None:
            with open(os.path.join(cfg.base_dir, str(path)), "rb") as fh:
                doc["matrix_files"][key + "_file"] = hashlib.sha256(fh.read()).hexdigest()
    text = json.dumps(doc, sort_keys=True, default=np.ndarray.tolist)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def cmd_certify(cfg, out_dir, seed):
    system, damping = build_system(cfg), build_damping(cfg)
    cert = build_certificate(cfg, system, damping, seed=seed)
    text = (lyapunov.export_text(cert) + f"config_hash = {config_hash(cfg)}\n"
            f"seed = {seed}\ntool_version = {__version__}\n")
    produced = {"certificate.txt": write_text(os.path.join(out_dir, "certificate.txt"), text)}
    for name, M in (("certificate_P.mat", cert.P), ("system_A.mat", system.A),
                    ("system_B.mat", system.B)):
        produced[name] = save_matrix(os.path.join(out_dir, name), M)
    print(f"certify: kind={cert.kind} C={cert.C!r} M={cert.M!r}")
    return produced


def cmd_check_damping(cfg, out_dir, seed):
    report = dmp.verify_definition(build_damping(cfg))
    key = write_csv(os.path.join(out_dir, "damping_report.csv"),
                    ["item", "margin", "pass"], report.rows())
    print(report.text_block())
    return {"damping_report.csv": key}


def _load_trajectory(out_dir):
    """trajectory.csv's samples, read from simulate's trajectory.f64 where
    that is a copy of the CSV as it now is, else parsed; checked either way."""
    path = os.path.join(out_dir, "trajectory.csv")
    if not os.path.exists(path):
        raise MissingInput(f"{path} not found; run simulate first")
    data = load_float_copy(os.path.join(out_dir, "trajectory.f64"), path, TRAJECTORY_COLUMNS)
    if data is None:
        data = read_csv_floats(path, TRAJECTORY_COLUMNS)
    t, norm_H, norm_DA, V = data[:, :4].T
    if np.all(np.isnan(V)):
        V = None                            # written without a certificate
    for name, col in (("t", t), ("norm_H", norm_H), ("norm_DA", norm_DA), ("V", V)):
        if col is not None and not np.all(np.isfinite(col)):
            raise MissingInput(f"{path} has non-finite {name} values")
    if np.any(np.diff(t) <= 0):
        raise MissingInput(f"{path} has times that are not strictly increasing")
    return sim.Trajectory.from_norms(t, norm_H, V_values=V, norm_DA=norm_DA)


def cmd_fit_decay(cfg, out_dir, seed):
    traj = _load_trajectory(out_dir)
    # either bound sets a window; the other is then the run's first or last time
    window = None
    if {"window_lo", "window_hi"} & cfg.analysis.keys():
        window = (float(cfg.get("analysis", "window_lo", traj.times[0])),
                  float(cfg.get("analysis", "window_hi", traj.times[-1])))
    rows = []
    for fit in cfg.get("analysis", "fits"):
        est = (analysis.fit_exponential(traj, window) if fit == "exponential"
               else analysis.fit_polynomial(traj, window))
        rows.append(est.row())
        print(f"fit-decay: {fit} rate={est.rate!r} r2={est.r_squared!r}")
    key = write_csv(os.path.join(out_dir, "decay_fit.csv"),
                    ["model", "rate", "prefactor", "t_lo", "t_hi", "r_squared"], rows)
    return {"decay_fit.csv": key}


def cmd_sweep(cfg, out_dir, seed):
    system, damping = build_system(cfg), build_damping(cfg)
    radii = cfg.get("analysis", "radii")
    if radii is None:
        raise ValidationError(["[analysis] radii: required for sweep"])
    result = analysis.sweep_semiglobal(system, damping, radii, integrator_config(cfg))
    key = write_csv(os.path.join(out_dir, "sweep.csv"), ["r", "mu", "K", "r_squared"], result.rows)
    print(f"sweep: mu trend nonincreasing within slack: {result.mu_trend_ok}")
    return {"sweep.csv": key}


def load_certificate(out_dir, cfg):
    """The certificate that certify exported to out_dir, as lyapunov.read_text
    reads it, and its provenance lines (config_hash, seed, tool_version) as a
    dict; (None, {}) where there is no certificate.txt.  The configured damping
    passes `lyapunov.require_sector` first; StaleCertificate where the file
    records the config_hash of another config than cfg."""
    path = os.path.join(out_dir, "certificate.txt")
    if not os.path.exists(path):
        return None, {}
    lyapunov.require_sector(build_damping(cfg))
    with open(path) as fh:
        lines = fh.readlines()
    provenance = {key: val for key, _, val in (map(str.strip, ln.partition(" = ")) for ln in lines)
                  if key in ("config_hash", "seed", "tool_version")}
    recorded = provenance.get("config_hash")
    if recorded not in (None, config_hash(cfg)):
        raise StaleCertificate(f"{path} was certified for config {recorded}, not this "
                               f"config ({config_hash(cfg)}); run certify again")
    return lyapunov.read_text(lines, path), provenance


def _reusable_certificate(out_dir, cfg, system, damping, seed):
    """certify's certificate in out_dir, whole, where it was certified for this
    config and seed by this version and certificate_P.mat holds its P; else
    None.  The seed counts: c_S = auto and the poly calibration draw from it."""
    mat = os.path.join(out_dir, "certificate_P.mat")
    try:
        cert, provenance = load_certificate(out_dir, cfg)
        if (cert is None or not os.path.exists(mat) or provenance != {
                "config_hash": config_hash(cfg), "seed": str(seed),
                "tool_version": __version__}):
            return None
        P = load_matrix(mat)
    except (LyapcertError, ValueError):     # stale or malformed: build instead
        return None
    if P.shape != (system.n, system.n):
        return None
    return replace(cert, P=P, G=system.H_ip.weight @ P, system=system,
                   damping_ref=damping)


def cmd_verify(cfg, out_dir, seed):
    traj = _load_trajectory(out_dir)
    if traj.V_values is None:
        raise MissingInput("trajectory.csv has no V column values; "
                           "simulate with a certificate configured")
    cert, _ = load_certificate(out_dir, cfg)
    if cert is None:
        cert = build_certificate(cfg, build_system(cfg), build_damping(cfg), seed=seed)
    reports = [analysis.verify_lyapunov_decrease(traj, cert)]
    if cert.r is not None:                  # semiglobal and poly hold for ||z0||_{D(A)} <= r
        reports.append(analysis.verify_validity_domain(traj, cert.r))
    key = write_csv(os.path.join(out_dir, "verification.csv"),
                    ["check", "max_violation", "tolerance", "pass", "samples"],
                    [report.row() for report in reports])
    for report in reports:
        print(f"verify: {report.check} pass={report.passed} "
              f"max_violation={report.max_violation!r}")
    return {"verification.csv": key}


PLOT_HINTS = {
    "trajectory.csv": ("t", [("norm_H", 2), ("norm_DA", 3), ("V", 4)], "logscale"),
    "sweep.csv": ("r", [("mu", 2)], "linear"),
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
            header, *rows = read_csv_lines(path)
            lines.append("columns: " + header)
            lines.append(f"rows: {len(rows)}")
            if rows:
                lines.append("first: " + rows[0])
                lines.append("last: " + rows[-1])
        else:
            with open(path) as fh:
                lines.extend(ln.rstrip("\n") for ln in fh)
        lines.append("")
    produced = {"report.txt": write_text(os.path.join(out_dir, "report.txt"),
                                         "\n".join(lines) + "\n")}
    plot = ["# line plots of the run CSVs; render with: gnuplot plots.gp",
            "set datafile separator ','",
            "set key autotitle columnhead",
            "set term pngcairo size 900,600"]
    for name in sorted(PLOT_HINTS.keys() & names):
        _, cols, scale = PLOT_HINTS[name]
        plot.append(f"set output '{name[:-4]}.png'")
        plot.append("set logscale y" if scale == "logscale" else "unset logscale")
        parts = [f"'{name}' using 1:{idx} with lines title '{lab}'"
                 for lab, idx in cols]
        plot.append("plot " + ", ".join(parts))
    produced["plots.gp"] = write_text(os.path.join(out_dir, "plots.gp"), "\n".join(plot) + "\n")
    print(f"report: collated {len(names)} artifacts")
    return produced


SUBCOMMANDS = {
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "check-damping": cmd_check_damping,
    "fit-decay": cmd_fit_decay,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
    "report": cmd_report,
}


def write_manifest(out_dir, config_path, seed, produced):
    """manifest.txt for the files a subcommand produced: name -> the SHA-256
    digest of the bytes it wrote."""
    with open(config_path, "rb") as fh:
        config_digest = hashlib.sha256(fh.read()).hexdigest()
    lines = [f"tool_version = {__version__}", f"config_hash = {config_digest}",
             f"seed = {seed}", f"timestamp = {datetime.now(timezone.utc).isoformat()}"]
    for name, digest in sorted(produced.items()):
        size = os.path.getsize(os.path.join(out_dir, name))
        lines.append(f"file = {name} bytes={size} sha256={digest.hex()}")
    write_text(os.path.join(out_dir, "manifest.txt"), "\n".join(lines) + "\n")


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
        os.makedirs(out_dir, exist_ok=True)
        produced = SUBCOMMANDS[args.subcommand](cfg, out_dir, args.seed)
        write_manifest(out_dir, args.config, args.seed, produced)
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
