"""Benchmark of lyapcert's certify -> integrate -> verify pipeline.

    python3 bench/run.py --workload kdv_sweep --seed 1 --seconds 35 --trace 0

Runs whole rounds of one workload in this process for --seconds seconds,
checks every round's outputs, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics.  --trace 0 reports the
end-to-end metrics, measured on one CPU next to a co-runner that gauges the
CPU's speed (speed.py) and scaled to its reference speed; --trace 1
alternates untraced and traced rounds and reports the per-layer metrics.
Workloads: kdv_sweep, wave_certify, osc_pipeline.  bench/README.md describes
them and the metrics.
"""

import os

# One BLAS thread, fixed before numpy is imported by anything in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import gc
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP_DIR = BENCH / "tmp"       # workload run directories, removed at exit
OUT = BENCH / "out"           # per-run result files and traces
SETUP_PROBES = 5
MIN_ROUNDS = 2
WORKLOAD_NAMES = ("kdv_sweep", "wave_certify", "osc_pipeline")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="import and write the workload's inputs, print 'ready', exit")
    return p.parse_args(argv)


def load_program():
    """Import lyapcert from this checkout's src/ and the workload module."""
    if not (SRC / "lyapcert" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'lyapcert'} not found; run from a lyapcert checkout")
    sys.path.insert(0, str(SRC))
    import lyapcert
    if Path(lyapcert.__file__).resolve().parent != SRC / "lyapcert":
        raise SystemExit(f"error: imported lyapcert from {lyapcert.__file__}, not {SRC}")
    import workloads
    return lyapcert, workloads


def setup_probe(args):
    _, workloads = load_program()
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    base = tempfile.mkdtemp(prefix=f"setup-{args.workload}-", dir=TMP_DIR)
    try:
        workloads.WORKLOADS[args.workload](base, args.seed).prepare()
        print("ready", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    return 0


def time_setup(args, co):
    """Seconds from starting a fresh interpreter until lyapcert, numpy and
    scipy are imported and the workload's inputs are written, at the
    co-runner's reference speed; the raw seconds go into the record."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
    a = co.read()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        b = co.read()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        rc = proc.wait()
    if rc != 0 or line.strip() != "ready":
        raise SystemExit(f"error: set-up probe exited {rc} after {line.strip()!r}")
    ref_s, _, co_cpu, factor = co.scale(a, b, elapsed, 0.0)
    return {"setup_s": ref_s, "raw_s": elapsed, "co_cpu_s": co_cpu, "speed": factor}


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(lyapcert, cpu):
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "lyapcert": lyapcert.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "pinned_cpu": cpu,
        "co_runner": None if cpu is None else {"nice": speed.NICE,
                                               "reference_rate": speed.REFERENCE_RATE},
    }


def measure(workload, args, workloads, checks, tracer, co, setup):
    """Whole rounds for about --seconds; every round is checked.

    Without a tracer, every untraced round is timed next to the co-runner
    `co` and scaled to its reference speed, and the set-up probes are spread
    over the run, one before the first round and one after each round, so
    that their median samples the machine at several moments; their time
    does not count against --seconds.
    """
    res = checks.Results()
    rounds, traced, digests, errors = [], [], [], []
    attempted = failed = 0
    round_dir = os.path.join(os.path.dirname(workload.base), "round")
    deadline = time.perf_counter() + args.seconds

    def probe():
        nonlocal deadline
        t0 = time.perf_counter()
        setup.append(time_setup(args, co))
        deadline += time.perf_counter() - t0

    probes = 0 if tracer is not None else SETUP_PROBES
    if probes:
        probe()
    i = 0
    while True:
        trace_this = tracer is not None and i % 2 == 1
        shutil.rmtree(round_dir, ignore_errors=True)
        os.makedirs(round_dir)
        ops = workloads.Ops()
        gc.collect()
        if trace_this:
            tracer.begin()
        snap = co.read() if co is not None else None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs = workload.round(ops, round_dir)
        except workloads.OpFailed:
            outputs = None
        t1, c1 = time.perf_counter(), time.process_time()
        if co is not None:
            wall, cpu, co_cpu, factor = co.scale(snap, co.read(), t1 - t0, c1 - c0)
            rounds.append({"wall_s": wall, "cpu_s": cpu, "raw_wall_s": t1 - t0,
                           "raw_cpu_s": c1 - c0, "co_cpu_s": co_cpu, "speed": factor})
        elif trace_this:
            rec = tracer.end(t1 - t0)
            rec["csv_bytes"] = sum(os.path.getsize(p) for p in rec.pop("csv_paths")
                                   if os.path.exists(p))
            traced.append(rec)
        else:
            rounds.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "raw_wall_s": t1 - t0})
        if outputs is not None and ops.succeeded != workload.ops:
            raise RuntimeError(f"{workload.name}: {ops.succeeded} program calls, "
                               f"declared {workload.ops}")
        attempted += workload.ops
        failed += workload.ops - ops.succeeded
        errors.extend(ops.errors)
        if outputs is not None:
            workload.check(outputs, res)
            digests.append(workload.digest(outputs))
        if len(setup) < probes:
            probe()
        i += 1
        if i >= MIN_ROUNDS and (tracer is None or i % 2 == 0):
            # stop when one more round (or untraced + traced pair) would end
            # past --seconds by more than half its length
            step = statistics.median(r["raw_wall_s"] for r in rounds)
            if traced:
                step += statistics.median(r["wall_s"] for r in traced)
            if deadline - time.perf_counter() < 0.5 * step:
                break
    shutil.rmtree(round_dir, ignore_errors=True)
    while len(setup) < probes:
        probe()
    if len(digests) >= 2:
        res.add("repeat_identical", len(set(digests)) == 1,
                f"{len(set(digests))} distinct output digests over {len(digests)} rounds")
    return res, rounds, traced, attempted, failed, errors


def median_round(traced):
    """The traced round with the median wall time (lower middle for even counts)."""
    order = sorted(traced, key=lambda r: r["wall_s"])
    return order[(len(order) - 1) // 2]


def main(argv=None):
    # a SIGTERM unwinds like an exit, so the co-runner and the run directory go too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    lyapcert, workloads = load_program()
    import checks
    import tracer as tracing

    setup = []
    # End-to-end runs share one CPU with the co-runner; set-up probes inherit it.
    cpu = None if args.trace else min(os.sched_getaffinity(0))
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    env = environment(lyapcert, cpu)
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=TMP_DIR)
    co = None
    try:
        base = os.path.join(tmp, "inputs")
        os.makedirs(base)
        workload = workloads.WORKLOADS[args.workload](base, args.seed)
        workload.prepare()
        tracer = tracing.Tracer(lyapcert) if args.trace else None
        co = speed.CoRunner(tmp) if cpu is not None else None
        res, rounds, traced, attempted, failed, errors = measure(
            workload, args, workloads, checks, tracer, co, setup)
    finally:
        if co is not None:
            co.close()
        shutil.rmtree(tmp, ignore_errors=True)

    walls = [r["wall_s"] for r in rounds]
    if args.trace:
        rec = median_round(traced)
        acc = rec["bench_self_s"] + sum(v[2] for v in rec["stats"].values())
        res.add("trace_accounting", abs(acc - rec["wall_s"]) <= 1e-9 * rec["wall_s"],
                f"self times + benchmark time {acc!r} vs traced wall {rec['wall_s']!r}")
        layer = tracing.layer_metrics(rec)
        layer["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                     - statistics.median(walls), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setup), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MiB"},
        }
    correct = res.ok and (bool(res.items) or failed > 0)
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "setup_s": setup, "rounds": rounds,
              "checks": res.as_dict(), "errors": errors, "result": result}
    if args.trace:
        record["traced_rounds"] = traced
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for name, detail in res.failed().items():
        print(f"check failed: {name}: {detail}")
    for err in errors[:10]:
        print(f"operation failed: {err}")
    print("environment " + json.dumps(env))
    print(f"record {out_file.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
