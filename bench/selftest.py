"""Shows that every correctness check of the benchmark can fail.

    python3 bench/selftest.py [--workload NAME]

Runs one round of each workload and confirms that all of its checks pass.
Then, for every check, it corrupts one output of a copy of that round (a
scaled certificate_P.mat, a perturbed mu in sweep.csv, one raised norm sample,
...) and confirms that the check fails.  Exits nonzero if a check passes on
a corrupted output, fails on the clean one, or has no corruption aimed at it.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import copy
import csv
import shutil
import sys
import tempfile

import numpy as np

import checks as ck
import run


def scale_matrix(rel, factor):
    def corrupt(out):
        path = os.path.join(out["dir"], rel)
        ck.write_matrix(path, factor * ck.read_matrix(path))
    return corrupt


def edit_csv(rel, column, fn, rows=None):
    """Apply fn to `column` in the given data rows (all rows when None)."""
    def corrupt(out):
        path = os.path.join(out["dir"], rel)
        header, body = ck.read_table(path)
        j = header.index(column)
        for i in (range(len(body)) if rows is None else rows):
            body[i][j] = fn(body[i][j])
        with open(path, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header] + body)
    return corrupt


def edit_scalar(rel, key, fn):
    def corrupt(out):
        path = os.path.join(out["dir"], rel)
        with open(path) as fh:
            lines = fh.read().splitlines()
        for i, line in enumerate(lines):
            k, sep, v = line.partition(" = ")
            if sep and k == key:
                lines[i] = f"{k} = {fn(float(v))!r}"
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return corrupt


def edit_output(key, fn):
    def corrupt(out):
        out[key] = fn(out[key])
    return corrupt


def overwrite(rel, text):
    def corrupt(out):
        with open(os.path.join(out["dir"], rel), "w") as fh:
            fh.write(text)
    return corrupt


def times(f):
    return lambda v: repr(float(v) * f)


def raise_sample(i, f):
    def fn(a):
        a = np.array(a, dtype=float)
        a[i] *= f
        return a
    return fn


CORRUPTIONS = {
    "kdv_sweep": {
        "certificate_lyapunov_residual": scale_matrix("r5/certificate_P.mat", 1.01),
        "certificate_norms_exact": edit_scalar("r1/certificate.txt", "P_norm_H", lambda v: v * 1.0001),
        "certificate_mu_formula": edit_scalar("r25/certificate.txt", "mu", lambda v: v * 1.01),
        "mu_observed_ge_certified": edit_csv("sweep/sweep.csv", "mu", lambda v: "0.001", [2]),
        "sweep_r_squared": edit_csv("sweep/sweep.csv", "r_squared", lambda v: "0.98", [1]),
        "mu_trend": edit_csv("sweep/sweep.csv", "mu", times(1.5), [2]),
        "linear_scale_invariance": edit_csv("linear/sweep.csv", "mu", times(1 + 1e-6), [1]),
        "linear_matches_exact_flow": edit_csv("linear/sweep.csv", "mu", times(1.001)),
        "trajectory_norm_nonincreasing": edit_csv("r5/trajectory.csv", "norm_H", times(1.01), [100]),
        "verify_pass": edit_csv("r5/verification.csv", "pass", lambda v: "False"),
        "V_sandwich": edit_csv("r5/trajectory.csv", "V", times(1.5)),
        "repeat_identical": edit_csv("r5/trajectory.csv", "t", times(1 + 1e-15), [7]),
    },
    "wave_certify": {
        "certificate_lyapunov_residual": scale_matrix("semiglobal/certificate_P.mat", 1.01),
        "certificate_norms_exact": edit_scalar("poly/certificate.txt", "B_norm", lambda v: v * 1.001),
        "certificate_mu_formula": edit_scalar("semiglobal/certificate.txt", "M", lambda v: v * 1.01),
        "decrease": edit_output("V", raise_sample(500, 1.5)),
        "V_sandwich": edit_output("V", lambda V: 1.3 * V),
        "gramian_matches_lyapunov": scale_matrix("poly/certificate_P.mat", 1 + 1e-6),
        "C_theta_covers_exact": edit_scalar("poly/certificate.txt", "C_theta", lambda v: 0.9 * v),
        "poly_chain": edit_scalar("poly/certificate.txt", "C", lambda v: 1.5 * v),
        "repeat_identical": edit_output("norm_H", raise_sample(3, 1 + 1e-15)),
    },
    "osc_pipeline": {
        "tail_rate": edit_csv("fixed/decay_fit.csv", "rate", times(1.05)),
        "linear_phase_slope": edit_csv("fixed/trajectory.csv", "t", times(0.25)),
        "adaptive_agrees_fixed": edit_csv("adaptive/trajectory.csv", "norm_H", times(1.001)),
        "certificate_lyapunov_residual": scale_matrix("fixed/certificate_P.mat", 1.01),
        "certificate_norms_exact": edit_scalar("fixed/certificate.txt", "P_norm_H", lambda v: v * 1.001),
        "verify_pass": edit_csv("fixed/verification.csv", "pass", lambda v: "False"),
        "V_sandwich": edit_csv("fixed/trajectory.csv", "V", times(1.1)),
        "post_ratio": edit_output("post_ratio", lambda v: 1.2),
        "check_damping": edit_csv("fixed/damping_report.csv", "margin", lambda v: "1.5", [0]),
        "report": overwrite("fixed/report.txt", "run report (4 artifacts)\n"),
        "repeat_identical": edit_csv("fixed/trajectory.csv", "t", times(1 + 1e-15), [7]),
    },
}


def selftest(name, work, workloads):
    base = os.path.join(work, name, "inputs")
    clean = os.path.join(work, name, "clean")
    os.makedirs(base)
    os.makedirs(clean)
    workload = workloads.WORKLOADS[name](base, seed=0)
    workload.prepare()
    outputs = workload.round(workloads.Ops(), clean)
    res = ck.Results()
    workload.check(outputs, res)
    bad = []
    for check, (ok, detail) in sorted(res.items.items()):
        if not ok:
            bad.append(f"{name}: {check} fails on the clean round: {detail}")
    names = set(res.items) | {"repeat_identical"}
    for check in sorted(names - set(CORRUPTIONS[name])):
        bad.append(f"{name}: no corruption aimed at {check}")
    for check, corrupt in sorted(CORRUPTIONS[name].items()):
        target = os.path.join(work, name, check)
        shutil.copytree(clean, target)
        out = copy.deepcopy({k: v for k, v in outputs.items() if k != "dir"})
        out["dir"] = target
        corrupt(out)
        if check == "repeat_identical":
            caught = workload.digest(out) != workload.digest(outputs)
            detail = "output digest changed" if caught else "output digest unchanged"
        else:
            r = ck.Results()
            workload.check(out, r)
            caught = check in r.failed()
            detail = r.items.get(check, (None, "check did not run"))[1]
        print(f"{'caught' if caught else 'MISSED'}  {name}/{check}: {detail[:160]}")
        if not caught:
            bad.append(f"{name}: {check} passes on a corrupted output")
    return bad


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=run.WORKLOAD_NAMES, action="append")
    args = p.parse_args(argv)
    workloads = run.load_program()[1]
    run.TMP_DIR.mkdir(parents=True, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.TMP_DIR)
    try:
        bad = []
        for name in args.workload or run.WORKLOAD_NAMES:
            bad += selftest(name, work, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for line in bad:
        print("FAIL", line)
    print("selftest:", "ok" if not bad else f"{len(bad)} problem(s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
