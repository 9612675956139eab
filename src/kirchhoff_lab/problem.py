"""Problem parameters, exponent regimes and forcing admissibility.

The equation under study is

    -(1 + b |grad u|_2^{2 alpha}) lap u = (u_+)^p + lambda f,   u = 0 on the boundary.

Three exponent windows behave qualitatively differently and the solvers
dispatch on them:

* regime A: 1 < p < 2 alpha + 1  (degree of the nonlocal term dominates;
  the energy is coercive and admits a global minimizer)
* regime B: 2 alpha + 1 < p < 2* (superlinear but subcritical; a small
  local minimizer and a mountain-pass solution coexist for small lambda)
* regime C: p > 2*               (supercritical; monotone iteration under
  a barrier is the only tool, and scaling identities rule out solutions
  of the unforced problem)

Here 2* = (N+2)/(N-2) for N >= 3 and +infinity below.  The boundary
exponents p = 2 alpha + 1 and p = 2* separate genuinely different
behaviours and are rejected rather than silently binned.
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import NonMemberError, RegimeError
from .mesh import DomainMesh, GridFunction, _values, poisson_solve, sup_norm

SIGN_TOL_FACTOR = 1e-10  # relative tolerance for nodal sign decisions


@dataclass(frozen=True)
class ProblemParams:
    """Coefficients of one problem instance.

    ``f`` is the forcing sampled on the mesh the solvers will run on; it
    may be ``None`` only when ``lam`` is zero (the unforced equation).
    """

    b: float
    alpha: float
    p: float
    lam: float
    f: GridFunction | None = None

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"nonlocal coefficient b must be positive, got {self.b}")
        if not self.alpha > 0:
            raise ValueError(f"exponent alpha must be positive, got {self.alpha}")
        if not self.p > 1:
            raise ValueError(f"growth exponent p must exceed 1, got {self.p}")
        if self.lam < 0:
            raise ValueError(f"forcing amplitude lambda must be >= 0, got {self.lam}")
        if self.lam > 0 and self.f is None:
            raise ValueError("positive lambda requires a forcing field f")


def forcing_values(mesh: DomainMesh, params: ProblemParams) -> np.ndarray:
    """Nodal lambda*f with mesh consistency enforced."""
    if params.lam == 0.0 or params.f is None:
        return np.zeros(mesh.shape)
    return params.lam * _values(mesh, params.f)


def two_star(dim: int) -> float:
    return (dim + 2.0) / (dim - 2.0) if dim >= 3 else math.inf


def regime_letter(params: ProblemParams, dim: int) -> str:
    """Regime of (p, alpha) in dimension dim, rejecting boundary exponents."""
    ts = two_star(dim)
    if dim >= 3 and not params.alpha < 2.0 / (dim - 2.0):
        raise RegimeError(
            f"alpha={params.alpha} too large for dimension {dim}: "
            f"need 2*alpha + 1 < {ts}"
        )
    crossover = 2.0 * params.alpha + 1.0
    if params.p == crossover:
        raise RegimeError(f"boundary exponent p = 2*alpha + 1 = {crossover} is excluded")
    if params.p == ts:
        raise RegimeError(f"boundary exponent p = {ts} (critical) is excluded")
    if params.p < crossover:
        return "A"
    return "B" if params.p < ts else "C"


def compute_b0(params: ProblemParams, S: float) -> float:
    """Coupling threshold for the unforced equation in regime A.

    For b above this value the unforced problem has no nontrivial
    solution; below it, scaled extremals of the embedding quotient solve
    it.  Formula:  b0 = (p-1) gamma^{gamma/(p-1)} (2 alpha l)^{-2 alpha/(p-1)}
    with gamma = 2 alpha + 1 - p and l = S^{(p+1)/2}.  Raises
    ``RegimeError`` when a power overflows a double (p just above 1).
    """
    p, alpha = params.p, params.alpha
    gamma = 2.0 * alpha + 1.0 - p
    if not gamma > 0:
        raise RegimeError(
            f"coupling threshold needs p < 2*alpha + 1 (gamma > 0), got gamma={gamma}"
        )
    try:
        l = S ** ((p + 1.0) / 2.0)
        return ((p - 1.0) * gamma ** (gamma / (p - 1.0))
                * (2.0 * alpha * l) ** (-2.0 * alpha / (p - 1.0)))
    except OverflowError:
        raise RegimeError(f"coupling threshold overflows a double at p = {p}") from None


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    witness: GridFunction
    violation_index: tuple | None


def membership_M(mesh: DomainMesh, f) -> MembershipReport:
    """Positive-witness admissibility of a forcing.

    f belongs to the admissible class when the solution w of
    -lap w = f with zero boundary data is nonnegative at every interior
    node, up to a sign tolerance of 1e-10 relative to sup|w| so that
    rounding near the boundary cannot flip the decision.  The witness
    doubles as a comparison function for positivity of solutions.
    """
    w = poisson_solve(mesh, f)
    tol = SIGN_TOL_FACTOR * sup_norm(mesh, w)
    idx = np.unravel_index(int(np.argmin(w.values)), w.values.shape)
    if w.values[idx] >= -tol:
        return MembershipReport(True, w, None)
    return MembershipReport(False, w, idx)


def require_member(mesh: DomainMesh, f) -> GridFunction:
    report = membership_M(mesh, f)
    if not report.member:
        raise NonMemberError(
            f"forcing fails the positive-witness test at node {report.violation_index}"
        )
    return report.witness
