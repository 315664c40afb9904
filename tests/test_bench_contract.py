"""The benchmark under bench/ times the library from outside.  Its tracer
wraps `DampingSpec.apply/h_eval/k_integral` and `InnerProduct.norm/inner` by
name, and its workloads call `estimate_cS` and `build_poly_certificate` with
`seed=`.  It takes the path of every CSV written from `io.write_csv`'s first
positional argument, and the osc_pipeline round reads trajectory.csv through
`io.read_csv`.  This test keeps those names, keywords and signatures working,
so that a change which breaks a traced benchmark run fails here first."""

import importlib.util
import os
from pathlib import Path

import numpy as np

import lyapcert
from lyapcert import analysis, cli, config, damping, io, lyapunov, models, sim  # noqa: F401

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_the_library_and_workload_calls_run():
    tracing = load_tracer()
    tracer = tracing.Tracer(lyapcert)
    wave = models.discretize_wave(32, lambda x: 1.0)
    tracer.begin()
    try:
        c_S = models.estimate_cS(wave, seed=0)
        poly = lyapunov.build_poly_certificate(wave, damping.tanh_saturation(1.0),
                                               2.0, 1.0, seed=0)
    finally:
        rec = tracer.end(1.0)
    assert c_S > 0.0 and poly.C > 0.0
    for name in ("models.estimate_cS", "lyapunov.build_poly_certificate"):
        assert rec["stats"][name][0] == 1
    # the tracer is uninstalled again
    assert not hasattr(models.estimate_cS, "__wrapped__")
    metrics = tracing.layer_metrics({**rec, "csv_bytes": 0})
    assert metrics["models.estimate_cS.calls"] == (1, "count")


def test_tracer_reads_the_integrator_results():
    """The tracer reads `times` and `states` from what `sim.integrate` returns
    and counts its steps; the sweep integrates its radii through
    `integrate_batch`, so the one `sim.integrate` call is the direct one."""
    tracing = load_tracer()
    tracer = tracing.Tracer(lyapcert)
    kdv16 = models.discretize_kdv(2 * np.pi, 16, lambda x: 1.0)
    zhat = models.leading_eigvec(kdv16.closed_loop())
    zhat /= kdv16.norm_DA(zhat)
    config = sim.IntegratorConfig(dt=1e-2, t_end=16.0, error_control="none")
    tracer.begin()
    try:
        traj = sim.integrate(kdv16, damping.clamp(1.0), 5.0 * zhat, config)
        sweep = analysis.sweep_semiglobal(kdv16, damping.clamp(1.0), [1.0, 5.0], config)
    finally:
        rec = tracer.end(1.0)
    assert len(sweep.rows) == 2
    assert rec["steps"] == len(traj.times) - 1 > 0
    assert rec["stats"]["sim.integrate"][0] == 1
    assert rec["stats"]["analysis.sweep_semiglobal"][0] == 1
    metrics = tracing.layer_metrics({**rec, "csv_bytes": 0})
    assert metrics["sim.integrate.calls"] == (1, "count")
    assert metrics["sim.steps"] == (rec["steps"], "count")
    assert metrics["sim.recorded_mb"][0] > 0


OSC_CFG = """
[system]
name = finite_dim
A = 0, 1; -1, 0
B = 1; 0

[damping]
kind = norm_saturation
s0 = 1.0

[sim]
dt = 1e-2
t_end = 2.0
error_control = off
z0 = eigvec 0 5.0
"""


def test_tracer_records_the_written_csv_and_read_csv_returns_strings(tmp_path):
    tracing = load_tracer()
    tracer = tracing.Tracer(lyapcert)
    cfgpath = tmp_path / "osc.cfg"
    cfgpath.write_text(OSC_CFG)
    trajectory = os.path.join(str(tmp_path), "trajectory.csv")
    tracer.begin()
    try:
        rc = cli.main(["simulate", "--config", str(cfgpath), "--out", str(tmp_path)])
        header, rows = io.read_csv(trajectory)
    finally:
        rec = tracer.end(1.0)
    assert rc == 0
    assert rec["csv_paths"] == [trajectory]
    assert rec["stats"]["io.write_csv"][0] == rec["stats"]["io.read_csv"][0] == 1
    assert header == cli.TRAJECTORY_COLUMNS
    assert type(rows) is list and len(rows) == 201
    assert all(type(row) is list and len(row) == 5 and all(type(c) is str for c in row)
               for row in rows)
    metrics = tracing.layer_metrics(
        {**rec, "csv_bytes": sum(os.path.getsize(p) for p in rec["csv_paths"])})
    assert metrics["io.write_csv.mb"][0] > 0
