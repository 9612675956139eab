"""Independent checks for computed solutions.

Everything here deliberately avoids the solver machinery it certifies:

* ``pohozaev_residual``  -- the star-shaped integral identity, boundary
  flux against volume terms, with one-sided second-order normal
  derivatives.  For supercritical exponents its sign structure is what
  rules solutions out, so the residual doubles as a correctness gauge.
* ``shooting_solve``     -- RK4 marching of the radial/mirrored ODE plus
  a root search on the center value (a geometric ladder for the first
  sign change, then Brent's method inside it); a discretization fully
  independent of the grid stencils.  The ladder starts at a proven floor
  a_lo below which the endpoint u_a(R) cannot change sign, with rungs
  a_lo 2^k: a_lo = -c_f L forced, from the endpoint L = -w(center) of
  one linear shot, for every f whose Poisson witness w is positive at the
  center, sign-changing f included, and a_lo = (2 dim / (c_pow R^2))^(1/(p-1))
  unforced; without a floor it climbs 2^k from a = 0.
  ``homogeneous_shooting`` adds the scalar consistency analysis for the
  unforced problem, ``kirchhoff_shooting`` a secant outer loop on the
  nonlocal coefficient for the forced one.  That loop starts from the
  linear shot: T(0) of the linear profile and the root of a
  linear-response model, so it never solves the semilinear problem at
  t = 0; its inner solves after the first bracket the root next to the
  last one, scaled by c_f.
* ``uniqueness_probe``   -- multi-start counting plus the contraction
  quantity whose smallness certifies at-most-one.
* ``supnorm_decay_scan`` -- the small-lambda vanishing law and the
  u/lambda limit profile.
* ``residual_certificate`` -- sup norm of the strong-form defect.  The
  one exception to the rule above: it is the solvers' own residual,
  recomputed from the field.
"""

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from . import constants
from ._kernels import rk4_radial
from .energy import energy_gradient
from .exceptions import ConvergenceError, MeshError, RegimeError
from .mesh import (
    DomainMesh,
    GridFunction,
    _values,
    poisson_solve,
    sup_norm,
)
from .problem import ProblemParams, regime_letter
from .scalar_reduction import _brent, consistency_root, kirchhoff_linear_solve
from .solvers import (SolverConfig, SolveOutcome, battery, descent_minimize,
                      multi_start, newton_nonlocal)


# ---------------------------------------------------------------------------
# integral identity


@dataclass(frozen=True)
class PohozaevReport:
    boundary: float  # int_{dOmega} (x . nu) (dw/dnu)^2 dS
    volume: float  # 2N int G + 2 int x.grad_x G - (N-2) int g w
    residual: float
    rel_residual: float
    eta: float  # N - 2 - 2N/(p+1); positive exactly above the critical exponent


def _boundary_flux(mesh: DomainMesh, v: np.ndarray) -> float:
    """int over the boundary of (x . nu) (dw/dnu)^2, one-sided 2nd order."""
    if mesh.kind == "ball":
        R = mesh.extents[0]
        dn = (-4.0 * v[-1] + v[-2]) / (2.0 * mesh.h)
        return 4.0 * np.pi * R**3 * dn**2
    # box faces at x_i = o_i (x . nu = -o_i) and x_i = o_i + L_i; the
    # integrand vanishes at corners (w = 0 along each edge), so the
    # interior-node sums are exact trapezoid rules over each face
    total = 0.0
    for axis, (o, L, h) in enumerate(zip(mesh.origin, mesh.extents, mesh.spacing)):
        face = math.prod(s for k, s in enumerate(mesh.spacing) if k != axis)
        w = np.moveaxis(v, axis, 0)
        dn = (4.0 * w[0] - w[1]) / (2.0 * h)
        total += (-o) * float(np.sum(dn**2)) * face
        dn = (-4.0 * w[-1] + w[-2]) / (2.0 * h)
        total += (o + L) * float(np.sum(dn**2)) * face
    return total


def pohozaev_residual(mesh: DomainMesh, w, p: float, c_pow: float = 1.0,
                      forcing=None, forcing_xdot=None) -> PohozaevReport:
    """Identity residual for a solution of Delta w + c_pow (w+)^p + forcing = 0.

    ``forcing`` holds the full nodal inhomogeneity (already scaled),
    ``forcing_xdot`` the nodal values of x . grad(forcing); both None for
    the unforced problem.  The report's residual shrinks O(h) in general
    (one-sided flux), O(h^2) on smooth profiles.
    """
    v = _values(mesh, w)
    N = mesh.dim
    if forcing is None:
        fvals = np.zeros(mesh.shape)
        fdot = np.zeros(mesh.shape)
    else:
        fvals = _values(mesh, forcing)
        if forcing_xdot is None:
            raise ValueError("forcing_xdot (nodal x . grad forcing) is required "
                             "alongside a forcing term")
        fdot = _values(mesh, forcing_xdot)
    wp = np.maximum(v, 0.0)
    G = c_pow * wp ** (p + 1.0) / (p + 1.0) + fvals * v
    g = c_pow * wp**p + fvals
    weights = mesh.weights
    volume = (2.0 * N * float(np.sum(weights * G))
              + 2.0 * float(np.sum(weights * fdot * v))
              - (N - 2.0) * float(np.sum(weights * g * v)))
    boundary = _boundary_flux(mesh, v)
    residual = boundary - volume
    scale = max(abs(boundary), abs(volume))
    rel = 0.0 if scale == 0.0 else abs(residual) / scale
    eta = N - 2.0 - 2.0 * N / (p + 1.0)
    return PohozaevReport(boundary, volume, residual, rel, eta)


def xdot_grad_values(mesh: DomainMesh, forcing) -> np.ndarray:
    """Nodal x . grad(f) as d/dt f(t x) at t = 1, by a complex step.

    With t = 1 + i eps, Im f(t x) / eps = x . grad f(x) + O(eps^2), and
    no difference is taken, so eps = 1e-30 gives it to rounding (Squire
    and Trapp, SIAM Review 40, 1998).  The forcing's callable must accept
    complex coordinates; file forcings have none and raise ValueError.
    """
    if forcing.fn is None:
        raise ValueError(f"forcing {forcing.name!r} has no callable to differentiate")
    eps = 1e-30
    return np.imag(forcing.fn(*(x * complex(1.0, eps) for x in mesh.nodes))) / eps


# ---------------------------------------------------------------------------
# shooting oracle


def _simpson(y: np.ndarray, h: float) -> float:
    n = len(y) - 1
    if n % 2:
        raise ValueError("Simpson rule needs an even interval count")
    return (h / 3.0) * float(y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2])
                             + 2.0 * np.sum(y[2:-1:2]))


# RK4 steps per grid spacing (per half spacing on the mirrored interval)
REFINE = 8
MAX_OUTER = 300  # inner solves before kirchhoff_shooting gives up
TRACK_MARGIN = 1e-9  # relative step above the scaled last root


class _ShootingSetup:
    """Geometry bookkeeping shared by the oracle entry points, plus the
    profile of the one linear shot, which gives the forced floor and
    ``kirchhoff_shooting``'s first outer iterate."""

    def __init__(self, mesh: DomainMesh, f_fn):
        if mesh.kind == "ball":
            self.dim = 3
            self.R = mesh.extents[0]
            n_axis = round(self.R / mesh.h)
            self.nsteps = REFINE * n_axis
            self.h_s = mesh.h / REFINE
            self.node_index = np.arange(mesh.shape[0]) * REFINE
            center = 0.0
        elif mesh.kind == "interval":
            # mirror about the midpoint: symmetric data assumed
            self.dim = 1
            self.R = 0.5 * mesh.extents[0]
            n_axis = round(mesh.extents[0] / mesh.h)
            self.nsteps = REFINE * n_axis
            self.h_s = mesh.h / (2 * REFINE)
            center = mesh.origin[0] + 0.5 * mesh.extents[0]
            off = np.abs(mesh.coords[0] - center) / self.h_s
            self.node_index = np.rint(off).astype(int)
        else:
            raise MeshError("shooting needs an interval or radial-ball mesh")
        rq = 0.5 * self.h_s * np.arange(2 * self.nsteps + 1)
        if f_fn is None:
            self.f_half = np.zeros(2 * self.nsteps + 1)
        else:
            self.f_half = np.asarray(f_fn(center + rq), dtype=float)
        self.mesh = mesh
        self._linear = None  # the linear shot's profile, see ``linear``
        # (c_f, root) of the last forced solve with a floor
        self.track = None

    def shoot(self, a, p, c_pow, c_f):
        u = np.empty(self.nsteps + 1)
        du = np.empty(self.nsteps + 1)
        rk4_radial(float(a), self.h_s, self.nsteps, self.dim, float(p),
                   float(c_pow), float(c_f), self.f_half, u, du)
        return u, du

    def linear(self):
        """Profile ``(u, du)`` of the linear shot (a = 0, c_pow = 0,
        c_f = 1), shot once per setup: u = w - w(center) for the Poisson
        witness w of f, so du = dw and the endpoint is L = -w(center)."""
        if self._linear is None:
            self._linear = self.shoot(0.0, 1.0, 0.0, 1.0)
        return self._linear

    def to_grid(self, prof: np.ndarray) -> GridFunction:
        return GridFunction(self.mesh, prof[self.node_index])

    def gradient_sq(self, du: np.ndarray) -> float:
        r = self.h_s * np.arange(self.nsteps + 1)
        if self.dim == 3:
            integrand = 4.0 * np.pi * r**2 * du**2
        else:
            integrand = 2.0 * du**2  # both mirror halves
        return _simpson(integrand, self.h_s)


# the ladder from a = 0, used where no floor is proven: rungs 2^-30 ... 2^61
LADDER_BOTTOM, LADDER_TOP = 2.0**-30, 2.0**61


def _floor(setup: _ShootingSetup, p, c_pow, c_f) -> float | None:
    """Center value a_lo > 0 below which a comparison bound proves that the
    endpoint E(a) = u_a(R) keeps one sign, or None without such a bound.

    See ``_center_value`` for the bounds.
    """
    if c_f == 0.0:
        if c_pow > 0.0 and p > 1.0:
            return (2.0 * setup.dim / (c_pow * setup.R**2)) ** (1.0 / (p - 1.0))
        return None
    if c_pow < 0.0:
        return None
    a_lo = -c_f * float(setup.linear()[0][-1])
    return a_lo if a_lo > 0.0 else None


def _center_value(setup: _ShootingSetup, p, c_pow, c_f) -> tuple:
    """Profile ``(u, du)`` shot from the center value a = u[0] whose
    profile hits zero at the boundary radius.

    A geometric ladder finds the first sign change of the endpoint map
    E(a) = u_a(R), so the smallest crossing (the minimal branch) is kept;
    Brent's method then pins the root inside that rung.  Where a
    comparison bound proves that E(a) keeps one sign for a < a_lo, the
    ladder starts at that floor, with rungs a_lo 2^k:

    * forced, with c_pow >= 0: g(u) >= c_f f whatever the sign of f, so
      E(a) <= a + c_f L and a_lo = -c_f L, E < 0 below it.  L is the
      endpoint of the linear shot (a = 0, c_pow = 0, c_f = 1), and
      L = -w(center) for the Poisson witness w of f;
    * unforced, with c_f = 0, c_pow > 0 and p > 1: u decreases from a, so
      E(a) >= a - c_pow a^p R^2 / (2 dim) and
      a_lo = (2 dim / (c_pow R^2))^(1/(p-1)), E > 0 below it.

    The forced bound is tight when c_pow a^p is below round-off, so
    E(a_lo) >= 0 is rounding on a crossing at the floor, and that shot is
    the root.  The unforced bound is strict at a_lo (u < a for r > 0), so
    E(a_lo) < 0 can only be RK4 error: Brent then searches [a_lo/2, a_lo],
    and E(a_lo/2) <= 0 raises ``ConvergenceError``.  Without a floor
    (c_pow < 0, c_f L >= 0, or unforced with c_pow <= 0 or p <= 1) the
    ladder climbs the rungs 2^k from a = 0, which it shoots when forced.

    The setup keeps the linear shot and the root of the last solve with a
    floor.  A later solve with c_f of the same sign shoots a_lo, then a
    point just above the last root scaled by c_f, and climbs rungs from
    there; in the usual case those two shots are the bracket Brent starts
    from.
    The profiles kept are those of the last two rungs and of Brent's
    shots, the only points that can be returned.
    """
    shots = {}

    def endpoint(a):
        shots[a] = setup.shoot(a, p, c_pow, c_f)
        return float(shots[a][0][-1])

    def root(a):
        setup.track = (c_f, a) if a_lo is not None and c_f != 0.0 else None
        return shots[a]

    a_lo = _floor(setup, p, c_pow, c_f)
    if a_lo is None:
        prev_a, prev_val, a = 0.0, 0.0, LADDER_BOTTOM
        if c_f != 0.0:
            prev_val = endpoint(0.0)
            if prev_val == 0.0:
                return shots[0.0]
    else:
        prev_a, prev_val = a_lo, endpoint(a_lo)
        if c_f == 0.0 and prev_val < 0.0:
            # the unforced bound is strict at a_lo: RK4 error, not a crossing
            half = 0.5 * a_lo
            val = endpoint(half)
            if not val > 0.0:
                raise ConvergenceError("shooting map not positive below the floor")
            return shots[_brent(endpoint, half, a_lo, val, prev_val,
                                1e-15 * max(1.0, a_lo))]
        below = 1.0 if c_f == 0.0 else -1.0  # the sign of E below a_lo
        if prev_val * below <= 0.0 and math.isfinite(prev_val):
            return root(a_lo)
        track = setup.track
        if track is not None and track[0] * c_f > 0.0:
            a = track[1] * (c_f / track[0]) * (1.0 + TRACK_MARGIN)
        else:
            a = 2.0 * a_lo
    while a <= LADDER_TOP:
        val = endpoint(a)
        if not math.isfinite(val):
            break
        if val == 0.0:
            return root(a)
        if prev_val != 0.0 and np.sign(val) != np.sign(prev_val):
            return root(_brent(endpoint, prev_a, a, prev_val, val,
                               1e-15 * max(1.0, a)))
        shots.pop(prev_a, None)
        prev_a, prev_val = a, val
        a *= 2.0
    raise ConvergenceError("no sign change in the shooting map over the bracket")


def shooting_solve(mesh: DomainMesh, p: float, c_pow: float = 1.0,
                   c_f: float = 0.0, f_fn=None) -> GridFunction:
    """Oracle for Delta u + c_pow (u+)^p + c_f f = 0, radial or mirrored 1-D.

    Integrates outward with u'(0) = 0 and solves for u(0) so that the
    profile vanishes at the boundary; the bracket scan picks the smallest
    positive crossing, i.e. the minimal solution branch.  Interval meshes
    are solved on the half domain, so f must be symmetric about the
    midpoint.
    """
    setup = _ShootingSetup(mesh, f_fn)
    prof, _ = _center_value(setup, p, c_pow, c_f)
    return setup.to_grid(prof)


@dataclass(frozen=True)
class HomogeneousProbe:
    found: bool
    t: float | None  # consistency root |grad u|^{2 alpha}
    solution: GridFunction | None
    boundary_defect: float  # |u(R)| of the underlying profile
    consistency_defect: float  # |zeta(t)| at the root


def _homogeneous_probes(mesh: DomainMesh, p: float, alpha: float, bs) -> list:
    """homogeneous_shooting at each b in bs, from one shot of the base profile."""
    setup = _ShootingSetup(mesh, None)
    prof, dprof = _center_value(setup, p, 1.0, 0.0)
    boundary_defect = abs(float(prof[-1]))
    G = setup.gradient_sq(dprof) ** alpha
    beta = 2.0 * alpha / (p - 1.0)

    def probe(b: float) -> HomogeneousProbe:
        t = consistency_root(G, beta, b)
        if t is None:
            return HomogeneousProbe(False, None, None, boundary_defect, math.inf)
        scale = (1.0 + b * t) ** (1.0 / (p - 1.0))
        u = GridFunction(mesh, scale * prof[setup.node_index])
        return HomogeneousProbe(True, t, u, boundary_defect,
                                abs((1.0 + b * t) ** beta * G - t))

    return [probe(b) for b in bs]


def homogeneous_shooting(mesh: DomainMesh, p: float, alpha: float,
                         b: float) -> HomogeneousProbe:
    """Existence probe for the unforced problem via scalar consistency.

    The unforced semilinear profile scales exactly, so the nonlocal
    problem reduces to zeta(t) = (1+bt)^{2 alpha/(p-1)} G - t with
    G = |grad w|^{2 alpha} of the base profile.  Above the threshold the
    map stays above the diagonal and no solution exists; below it the
    smallest root is returned along with the scaled profile.
    """
    return _homogeneous_probes(mesh, p, alpha, [b])[0]


def kirchhoff_shooting(mesh: DomainMesh, params: ProblemParams,
                       f_fn=None) -> GridFunction:
    """Shooting oracle for the full forced nonlocal problem.

    ``f_fn`` is the coordinate callable for the forcing (the nodal field
    in ``params.f`` is never touched; the oracle stays off the grid).
    Inner loop: semilinear shooting with the coefficient frozen at
    (1+b t).  Outer loop: secant iteration on F(t) = T(t) - t, where
    T(t) = |grad u|^{2 alpha} of the inner profile, taken from the fine
    profile by Simpson quadrature.  For lambda > 0 no inner solve runs at
    t = 0: the linear shot (``_ShootingSetup.linear``) gives
    T_lin(0) = (lambda^2 |grad w|^2)^alpha for the Poisson witness w of
    f, which is T(0) exactly when the inner profile is linear in
    c_f = lambda/(1+bt).  The first inner solve is at the root t1 of the
    linear-response model t = T_lin(0) (1 + b t)^(-2 alpha), and the
    secant runs from (0, T_lin(0)) and (t1, F(t1)).  Past the semilinear
    fold the problem at t = 0 has no positive solution, so this start
    also reaches solutions that a solve at t = 0 cannot.  For lambda = 0
    the loop starts at t = 0, and its second iterate is the root of the
    same model with T(0) from that first inner solve.  It falls back to
    the damped step t + F(t)/2 when a secant step is not finite or would
    make t negative, and stops once |F(t)| <= 1e-10 max(1, t), returning
    the profile shot at that t.  Where the witness w of f is positive at
    the center, sign-changing f included, every inner solve starts from
    the floor -c_f L, L = -w(center) from the same linear shot, and after
    the first brackets next to the last root (see ``_center_value``).
    ``MAX_OUTER`` caps the number of inner solves.
    """
    if params.lam > 0.0 and f_fn is None:
        raise ValueError("a forced problem needs the forcing callable f_fn")
    setup = _ShootingSetup(mesh, f_fn)
    t = 0.0
    t_prev = F_prev = None
    if params.lam > 0.0:
        # T(0) of the linear profile lam w, then the root t1 of the
        # linear-response model t = T(0) (1 + b t)^(-2 alpha)
        T0 = (params.lam**2 * setup.gradient_sq(setup.linear()[1])) ** params.alpha
        t_prev, F_prev = 0.0, T0
        t = consistency_root(T0, -2.0 * params.alpha, params.b)
    for _ in range(MAX_OUTER):
        coeff = 1.0 + params.b * t
        c_pow, c_f = 1.0 / coeff, params.lam / coeff
        prof, dprof = _center_value(setup, params.p, c_pow, c_f)
        F = setup.gradient_sq(dprof) ** params.alpha - t
        if abs(F) <= 1e-10 * max(1.0, t):
            return setup.to_grid(prof)
        if t_prev is None:
            # from t = 0 to the root t1 of t = T(0) (1 + b t)^(-2 alpha)
            step = consistency_root(F, -2.0 * params.alpha, params.b)
        else:
            dF = F - F_prev
            step = -F * (t - t_prev) / dF if dF != 0.0 else math.inf
            if not math.isfinite(step) or t + step < 0.0:
                step = 0.5 * F
        t_prev, F_prev = t, F
        t += step
    raise ConvergenceError("outer consistency loop did not settle")


# ---------------------------------------------------------------------------
# probes built on the solvers


@dataclass(frozen=True)
class UniquenessRecord:
    lam: float
    count: int
    contraction: float  # C2 + |grad v| C1, nan when nothing was found
    certified: bool  # count <= 1 and contraction < 1


def uniqueness_probe(mesh: DomainMesh, params: ProblemParams,
                     config: SolverConfig, descent: SolveOutcome) -> UniquenessRecord:
    """Distinct-solution count at params.lam plus the contraction quantity.

    Counts come from ``multi_start`` seeded with the ``battery`` outputs;
    ``descent`` is the caller's ``descent_minimize`` outcome for the same
    arguments, so the battery runs only Picard.
    The quantity C2 + |grad v| C1 with C1 = 2 alpha b (2|grad v|)^{2a-1},
    C2 = (p/lambda_1)(2 sup v)^{p-1} bounds the energy-difference of two
    hypothetical solutions; below 1 it certifies at-most-one.  The count is
    recorded either way (exploratory at large lambda).
    """
    if regime_letter(params, mesh.dim) != "A":
        raise RegimeError("the uniqueness probe runs in regime A only")
    lam1, _ = constants.eigenpair(mesh)
    sols = multi_start(mesh, params, config,
                       [o.solution for o in battery(mesh, params, config, descent)])
    if sols:
        u = sols[0]
        sem = u.seminorm
        c1 = 2.0 * params.alpha * params.b * (2.0 * sem) ** (2.0 * params.alpha - 1.0)
        c2 = (params.p / lam1) * (2.0 * sup_norm(mesh, u.solution)) ** (params.p - 1.0)
        q = c2 + sem * c1
    else:
        q = float("nan")
    return UniquenessRecord(float(params.lam), len(sols), q,
                            len(sols) <= 1 and q < 1.0)


@dataclass(frozen=True)
class DecayReport:
    lams: tuple
    sup_norms: tuple
    completed: bool
    final_over_first: float
    monotone_ok: bool  # nonincreasing up to the slack factor
    limit_gap: float  # sup|u/lambda - poisson witness| / sup|witness|
    decay_threshold: ClassVar[float] = 0.05  # calibration constants
    monotone_slack: ClassVar[float] = 0.10

    @property
    def decay_ok(self) -> bool:
        return self.completed and self.final_over_first <= self.decay_threshold


def supnorm_decay_scan(mesh: DomainMesh, params: ProblemParams, lams,
                       config: SolverConfig | None = None) -> DecayReport:
    """Sup-norm table over a decreasing lambda ladder, warm-started downward.

    Also evaluates the limit profile: u/lambda must approach the plain
    Poisson solution of f as lambda vanishes.  Solver failure aborts the
    scan and returns the partial table with completed=False.
    """
    if regime_letter(params, mesh.dim) != "A":
        raise RegimeError("the decay scan runs in regime A only")
    config = config or SolverConfig()
    lams = [float(l) for l in lams]
    sups = []
    prev = None
    prev_lam = None
    last_solution = None
    completed = True
    for lam in lams:
        if lam == 0.0:
            sups.append(0.0)
            prev, prev_lam = None, None
            continue
        p_lam = replace(params, lam=lam)
        if prev is None:
            start = kirchhoff_linear_solve(mesh, p_lam)
        else:
            start = GridFunction(mesh, prev.values * (lam / prev_lam))
        out = newton_nonlocal(mesh, p_lam, config, start)
        if not out.converged:
            out = descent_minimize(mesh, p_lam, config)
        if not out.converged:
            completed = False
            break
        sups.append(sup_norm(mesh, out.solution))
        prev, prev_lam = out.solution, lam
        last_solution = (out.solution, lam)
    ratio = sups[-1] / sups[0] if len(sups) >= 2 and sups[0] > 0 else float("nan")
    slack = 1.0 + DecayReport.monotone_slack
    monotone = all(b <= slack * a for a, b in zip(sups, sups[1:]))
    gap = float("nan")
    if last_solution is not None and params.f is not None:
        w = poisson_solve(mesh, params.f.values)
        u, lam = last_solution
        gap = sup_norm(mesh, GridFunction(mesh, u.values / lam - w.values))
        gap /= sup_norm(mesh, w)
    return DecayReport(tuple(lams[:len(sups)]), tuple(sups), completed,
                       ratio, monotone, gap)


def residual_certificate(mesh: DomainMesh, params: ProblemParams, u) -> float:
    """Sup norm of the strong-form defect; the universal acceptance gate.

    This is ``sup_norm(energy_gradient(...))``, the quantity every solver
    stores as ``SolveOutcome.residual``: it re-checks a field, not the
    solver, and on a solver's own output it repeats that residual exactly.
    """
    if not isinstance(u, GridFunction):
        u = GridFunction(mesh, np.asarray(u, dtype=float))
    return sup_norm(mesh, energy_gradient(mesh, params, u))
