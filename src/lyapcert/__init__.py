"""Lyapunov certificates and decay-rate verification for linear dissipative
systems closed by a nonlinear damping feedback."""

__version__ = "0.1.0"

from .damping import (DampingSpec, arctan_saturation, clamp, linear,
                      norm_saturation, tanh_saturation, verify_definition,
                      weak_damping)
from .linalg import (InnerProduct, dissipativity_margin, matrix_exponential,
                     solve_lyapunov)
from .lyapunov import (LyapunovCertificate, build_exp_certificate,
                       build_poly_certificate, build_semiglobal_certificate,
                       eval_V, sandwich_bounds)
from .models import (SemiDiscreteSystem, discretize_kdv, discretize_wave,
                     estimate_cS, make_finite_dim)
from .sim import (IntegratorConfig, Trajectory, detect_unit_ball_entry, integrate,
                  integrate_batch)
from .analysis import (DecayEstimate, VerificationReport, behavior_profile,
                       fit_exponential, fit_linear_phase, fit_polynomial,
                       sweep_semiglobal, verify_lyapunov_decrease,
                       verify_poly_chain)

__all__ = [
    "__version__",
    "DampingSpec", "linear", "norm_saturation", "clamp", "tanh_saturation",
    "arctan_saturation", "weak_damping", "verify_definition",
    "InnerProduct", "solve_lyapunov", "matrix_exponential",
    "dissipativity_margin",
    "SemiDiscreteSystem", "make_finite_dim", "discretize_kdv",
    "discretize_wave", "estimate_cS",
    "LyapunovCertificate", "build_exp_certificate",
    "build_semiglobal_certificate", "build_poly_certificate", "eval_V",
    "sandwich_bounds",
    "IntegratorConfig", "Trajectory", "integrate", "integrate_batch",
    "detect_unit_ball_entry",
    "DecayEstimate", "VerificationReport", "fit_exponential",
    "fit_polynomial", "fit_linear_phase", "verify_lyapunov_decrease",
    "verify_poly_chain", "sweep_semiglobal", "behavior_profile",
]
