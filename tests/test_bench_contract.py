"""The benchmark under bench/ times the library from outside.  Its tracer
wraps `DampingSpec.apply/h_eval/k_integral` and `InnerProduct.norm/inner` by
name, and its workloads call `estimate_cS` and `build_poly_certificate` with
`seed=`.  This test keeps those names and keywords working, so that a change
which breaks a traced benchmark run fails here first."""

import importlib.util
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
