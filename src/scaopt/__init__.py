"""Nonconvex optimization via successive convex approximation, with saddle escape.

Solvers move toward the minimizer of a strongly convex local model each step;
the perturbed variant escapes strict saddle points with high probability and
certifies its output against first/second-order stationarity. Benchmarks,
contract validation, and a reproducible experiment harness round out the
toolkit.
"""

from scaopt.certify import Certificate, certify_run, classify, min_eigenvalue
from scaopt.drivers import (
    DiagnosticScales,
    IterateRecord,
    PerturbationState,
    PscaParams,
    RunResult,
    Trajectory,
    derive_params,
    derive_scales,
    run_batch,
    run_gd,
    run_pgd,
    run_psca,
    run_sca,
)
from scaopt.numerics import (
    RngStream,
    finite_diff_gradient,
    finite_diff_hvp,
    sample_uniform_ball,
)
from scaopt.problems import (
    Objective,
    ProblemInstance,
    Smoothness,
    get_problem,
    make_matrix_factorization,
    make_quadratic,
    make_rosenbrock,
    make_saddle_quartic,
    validate_contracts,
)
from scaopt.surrogates import SurrogateAt, SurrogateSpec, build_surrogate

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DiagnosticScales",
    "IterateRecord",
    "Objective",
    "PerturbationState",
    "ProblemInstance",
    "PscaParams",
    "RngStream",
    "RunResult",
    "Smoothness",
    "SurrogateAt",
    "SurrogateSpec",
    "Trajectory",
    "build_surrogate",
    "certify_run",
    "classify",
    "derive_params",
    "derive_scales",
    "finite_diff_gradient",
    "finite_diff_hvp",
    "get_problem",
    "make_matrix_factorization",
    "make_quadratic",
    "make_rosenbrock",
    "make_saddle_quartic",
    "min_eigenvalue",
    "run_batch",
    "run_gd",
    "run_pgd",
    "run_psca",
    "run_sca",
    "sample_uniform_ball",
    "validate_contracts",
]
