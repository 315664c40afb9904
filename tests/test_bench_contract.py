"""The benchmark under bench/ times the library from outside.  Its tracer
wraps `DampingSpec.apply/h_eval/k_integral` and `InnerProduct.norm/inner` by
name, and its workloads call `estimate_cS` and `build_poly_certificate` with
`seed=`.  This test keeps those names and keywords working, so that a change
which breaks a traced benchmark run fails here first."""

import importlib.util
from pathlib import Path

import lyapcert
from lyapcert import cli, config, damping, io, lyapunov, models  # noqa: F401  (all traced)

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
