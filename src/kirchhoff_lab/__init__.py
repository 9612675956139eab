"""Finite-difference solvers and a verification harness for the Dirichlet
problem of a forced Kirchhoff-type equation

    -(1 + b |grad u|_2^{2 alpha}) lap u = (u_+)^p + lambda f

on intervals, rectangles and radially symmetric 3-d balls."""

from .continuation import estimate_Lambda_f, sweep_b_threshold, sweep_lambda
from .energy import energy_eval, energy_gradient
from .exceptions import (BarrierError, ConfigError, ConvergenceError,
                         KirchhoffLabError, MeshError, NonMemberError,
                         RegimeError)
from .forcing import make_forcing
from .mesh import (GridFunction, build_mesh, h1_seminorm, l2_inner,
                   laplacian_apply, lp_norm, poisson_solve,
                   principal_eigenpair, sup_norm)
from .problem import ProblemParams, compute_b0, membership_M, regime_letter
from .scalar_reduction import (kirchhoff_linear_solve, rescale_to_semilinear,
                               solve_h_root)
from .solvers import (SolverConfig, SolveOutcome, build_barrier,
                      descent_minimize, mountain_pass_search, multi_start,
                      newton_nonlocal, picard_iterate)
from .verify import (homogeneous_shooting, kirchhoff_shooting,
                     pohozaev_residual, residual_certificate, shooting_solve,
                     supnorm_decay_scan, uniqueness_probe)

__version__ = "0.1.0"

__all__ = [
    "BarrierError",
    "ConfigError",
    "ConvergenceError",
    "GridFunction",
    "KirchhoffLabError",
    "MeshError",
    "NonMemberError",
    "ProblemParams",
    "RegimeError",
    "SolveOutcome",
    "SolverConfig",
    "__version__",
    "build_barrier",
    "build_mesh",
    "compute_b0",
    "descent_minimize",
    "energy_eval",
    "energy_gradient",
    "estimate_Lambda_f",
    "h1_seminorm",
    "homogeneous_shooting",
    "kirchhoff_linear_solve",
    "kirchhoff_shooting",
    "l2_inner",
    "laplacian_apply",
    "lp_norm",
    "make_forcing",
    "membership_M",
    "mountain_pass_search",
    "multi_start",
    "newton_nonlocal",
    "picard_iterate",
    "pohozaev_residual",
    "poisson_solve",
    "principal_eigenpair",
    "regime_letter",
    "rescale_to_semilinear",
    "residual_certificate",
    "shooting_solve",
    "solve_h_root",
    "sup_norm",
    "supnorm_decay_scan",
    "sweep_b_threshold",
    "sweep_lambda",
    "uniqueness_probe",
]
