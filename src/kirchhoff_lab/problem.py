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
from .mesh import DomainMesh, GridFunction, _values, lp_norm, poisson_solve, sup_norm

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


@dataclass(frozen=True)
class RegimeInfo:
    regime: str  # 'A' | 'B' | 'C'
    two_star: float
    gamma: float  # 2 alpha + 1 - p
    l: float  # S^{(p+1)/2}
    b0: float | None  # existence threshold for the unforced problem (A only)


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


def classify_regime(params: ProblemParams, dim: int, S: float) -> RegimeInfo:
    """Place (p, alpha) in a regime; boundary exponents are hard errors.

    ``S`` is the discrete embedding quotient for exponent p on the mesh
    at hand; it feeds the derived constants l and b0.
    """
    regime = regime_letter(params, dim)
    gamma = 2.0 * params.alpha + 1.0 - params.p
    l = S ** ((params.p + 1.0) / 2.0)
    b0 = compute_b0(params, S) if regime == "A" else None
    return RegimeInfo(regime, two_star(dim), gamma, l, b0)


def compute_b0(params: ProblemParams, S: float) -> float:
    """Coupling threshold for the unforced equation in regime A.

    For b above this value the unforced problem has no nontrivial
    solution; below it, scaled extremals of the embedding quotient solve
    it.  Formula:  b0 = (p-1) gamma^{gamma/(p-1)} (2 alpha l)^{-2 alpha/(p-1)}
    with gamma = 2 alpha + 1 - p and l = S^{(p+1)/2}.
    """
    p, alpha = params.p, params.alpha
    gamma = 2.0 * alpha + 1.0 - p
    if not gamma > 0:
        raise RegimeError(
            f"coupling threshold needs p < 2*alpha + 1 (gamma > 0), got gamma={gamma}"
        )
    l = S ** ((p + 1.0) / 2.0)
    return (p - 1.0) * gamma ** (gamma / (p - 1.0)) * (2.0 * alpha * l) ** (-2.0 * alpha / (p - 1.0))


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    witness: GridFunction | None
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


def boundary_distance(mesh: DomainMesh) -> np.ndarray:
    """Distance from each interior node to the domain boundary."""
    if mesh.kind == "interval":
        L = mesh.extents[0]
        x = mesh.coords[0]
        lo = -0.5 * L if mesh.centered else 0.0
        return np.minimum(x - lo, lo + L - x)
    if mesh.kind == "rectangle":
        Lx, Ly = mesh.extents
        x0 = -0.5 * Lx if mesh.centered else 0.0
        y0 = -0.5 * Ly if mesh.centered else 0.0
        x, y = np.meshgrid(mesh.coords[0], mesh.coords[1], indexing="ij")
        return np.minimum.reduce([x - x0, x0 + Lx - x, y - y0, y0 + Ly - y])
    R = mesh.extents[0]
    return R - mesh.coords[0]


def membership_Fplus(mesh: DomainMesh, f, layer: float) -> MembershipReport:
    """Check f >= 0 on the boundary layer of the given width.

    Sign-changing forcings remain usable by the comparison arguments as
    long as their negative part stays away from the boundary; this test
    certifies exactly that.
    """
    if layer < mesh.h:
        raise ValueError(f"layer {layer} is thinner than one node ring (h={mesh.h})")
    half_width = min(mesh.extents) / 2.0 if mesh.kind != "ball" else mesh.extents[0]
    if layer > half_width:
        raise ValueError(f"layer {layer} exceeds the domain inradius {half_width}")
    vals = _values(mesh, f)
    dist = boundary_distance(mesh)
    tol = SIGN_TOL_FACTOR * max(float(np.max(np.abs(vals))), 1e-300)
    in_layer = dist < layer
    bad = (vals < -tol) & in_layer
    if not bad.any():
        return MembershipReport(True, None, None)
    flat = int(np.argmax(bad))
    return MembershipReport(False, None, np.unravel_index(flat, vals.shape))


def energy_lower_bound(mesh: DomainMesh, params: ProblemParams, S: float,
                       lambda1: float) -> float:
    """Uniform floor of the energy functional in regime A.

    Derived from the embedding inequality |u|_{p+1}^{p+1} <= C |grad u|^{p+1}
    with C = S^{-(p+1)/2} and the Poincare inequality, both of which hold
    exactly for the discrete constants, so the floor is a true discrete
    bound and not just an asymptotic statement:

        I(u) >= -gamma / (2(alpha+1)(p+1)) * (C^{2(alpha+1)} / b^{p+1})^{1/gamma}
                - lambda^2 |f|_2^2 / lambda1
    """
    p, alpha, b = params.p, params.alpha, params.b
    gamma = 2.0 * alpha + 1.0 - p
    if not gamma > 0:
        raise RegimeError("energy floor requires regime A (gamma > 0)")
    C = S ** (-(p + 1.0) / 2.0)
    bulk = -gamma / (2.0 * (alpha + 1.0) * (p + 1.0)) * (
        C ** (2.0 * (alpha + 1.0)) / b ** (p + 1.0)
    ) ** (1.0 / gamma)
    if params.lam > 0 and params.f is not None:
        fnorm = lp_norm(mesh, params.f, 2.0)
        bulk -= params.lam**2 * fnorm**2 / lambda1
    return bulk
