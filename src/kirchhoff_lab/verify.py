"""Independent checks for computed solutions.

Everything here deliberately avoids the solver machinery it certifies:

* ``pohozaev_residual``  -- the star-shaped integral identity, boundary
  flux against volume terms, with one-sided second-order normal
  derivatives.  For supercritical exponents its sign structure is what
  rules solutions out, so the residual doubles as a correctness gauge.
* ``shooting_solve``     -- RK4 marching of the radial/mirrored ODE plus
  a root search on the center value, a discretization fully independent
  of the grid stencils.  Each search predicts the root (Picard sweeps of
  the Volterra form from the one linear shot, or exact scaling when
  unforced), checks it with one shot against comparison bounds on the
  endpoint map, and falls back to a ladder from a proven floor and
  Brent's method; data with no floor raise at once.  No search reads
  what an earlier one found.
  ``homogeneous_shooting`` solves the unforced problem by exact scaling,
  and ``kirchhoff_shooting`` uses it at lambda = 0; forced, it runs a
  secant outer loop on the nonlocal coefficient from the linear shot.
  On a ball with p >= 2* both refuse the unforced problem, which has no
  positive solution there.
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
from .problem import ProblemParams, regime_letter, two_star
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
    # the box [0, L] is star-shaped about its corner: x . nu = 0 on the
    # faces x_i = 0 and L_i on x_i = L_i.  The integrand vanishes at
    # corners (w = 0 along each edge), so the interior-node sums are
    # exact trapezoid rules over each face
    total = 0.0
    for axis, (L, h) in enumerate(zip(mesh.extents, mesh.spacing)):
        face = math.prod(s for k, s in enumerate(mesh.spacing) if k != axis)
        w = np.moveaxis(v, axis, 0)
        dn = (-4.0 * w[-1] + w[-2]) / (2.0 * h)
        total += L * float(np.sum(dn**2)) * face
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
PICARD_SWEEPS = 3  # sweeps of the Volterra form behind a predicted root
LADDER_TOP = 2.0**61  # the ladder's last rung


class _ShootingSetup:
    """Geometry bookkeeping shared by the oracle entry points, plus
    ``linear``, the profile ``(u, du)`` of the linear shot (a = 0,
    c_pow = 0, c_f = 1), shot once when a forcing is given (else None):
    u = w - w(center) for the Poisson witness w of f, so du = dw and the
    endpoint is L = -w(center).  Nothing is kept between solves."""

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
            center = 0.5 * mesh.extents[0]
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
        self.linear = None if f_fn is None else self.shoot(0.0, 1.0, 0.0, 1.0)

    def shoot(self, a, p, c_pow, c_f):
        u = np.empty(self.nsteps + 1)
        du = np.empty(self.nsteps + 1)
        rk4_radial(float(a), self.h_s, self.nsteps, self.dim, float(p),
                   float(c_pow), float(c_f), self.f_half, u, du)
        return u, du

    def to_grid(self, prof: np.ndarray) -> GridFunction:
        return GridFunction(self.mesh, prof[self.node_index])

    def gradient_sq(self, du: np.ndarray) -> float:
        r = self.h_s * np.arange(self.nsteps + 1)
        if self.dim == 3:
            integrand = 4.0 * np.pi * r**2 * du**2
        else:
            integrand = 2.0 * du**2  # both mirror halves
        return _simpson(integrand, self.h_s)


def _floor(setup: _ShootingSetup, p, c_pow, c_f) -> float | None:
    """Center value a_lo > 0 below which a comparison bound proves that the
    endpoint E(a) = u_a(R) keeps one sign, or None without such a bound
    (as for c_f != 0 with no forcing callable) or when a_lo overflows a
    double.  See ``_center_value`` for the bounds.
    """
    if c_f == 0.0:
        if c_pow > 0.0 and p > 1.0:
            try:
                return (2.0 * setup.dim / (c_pow * setup.R**2)) ** (1.0 / (p - 1.0))
            except OverflowError:
                pass
        return None
    if c_pow < 0.0 or setup.linear is None:
        return None
    a_lo = -c_f * float(setup.linear[0][-1])
    return a_lo if a_lo > 0.0 else None


def _gap(setup: _ShootingSetup, u, p, c_pow, pad) -> float:
    """g = c_pow p (sup u_+ + pad)^(p-1) R^2 / (2 dim): 1 - g <= E'(a) <= 1
    wherever the profile stays below sup u_+ + pad (nan if u is not finite)."""
    top = max(float(np.max(u)), 0.0) + pad
    return c_pow * p * top ** (p - 1.0) * setup.R**2 / (2.0 * setup.dim)


def _predict(setup: _ShootingSetup, p, c_pow, c_f, a_lo) -> float | None:
    """Center value predicted by Picard sweeps of the Volterra form
    u(r) = a + c_f l(r) - D(r), D(r) = int_0^r K(r, s) c_pow u_+^p(s) ds,
    with l the linear shot, K = r - s mirrored and s (1 - s/r) on the
    ball, and a = a_lo + D(R) so that u(R) = 0.  The integrals are
    cumulative trapezoid sums with the endpoint-derivative correction,
    exact for cubics, since each sweep also carries u'.  None unless
    g < 1/2 (``_gap``) on every sweep and every value is finite."""
    h = setup.h_s
    r = h * np.arange(setup.nsteps + 1)

    def cumulative(y, dy):
        out = np.zeros_like(y)
        np.cumsum(0.5 * h * (y[1:] + y[:-1]) + (h * h / 12.0) * (dy[:-1] - dy[1:]),
                  out=out[1:])
        return out

    lin, dlin = setup.linear
    u, du = a_lo + c_f * lin, c_f * dlin
    for _ in range(PICARD_SWEEPS):
        if not _gap(setup, u, p, c_pow, 0.0) < 0.5:
            return None
        up = np.maximum(u, 0.0)
        q = c_pow * up**p
        dq = np.where(u > 0.0, c_pow * p * up ** (p - 1.0) * du, 0.0)
        I1 = cumulative(r * q, q + r * dq)
        if setup.dim == 1:
            I0 = cumulative(q, dq)
            D, dD = r * I0 - I1, I0
        else:
            I2 = cumulative(r * r * q, r * (2.0 * q + r * dq))
            rr = np.maximum(r, h)  # r, except at r = 0 where I2 = 0
            D, dD = I1 - I2 / rr, I2 / rr**2
        u, du = a_lo + D[-1] + c_f * lin - D, c_f * dlin - dD
    return float(u[0]) if np.all(np.isfinite(u)) else None


def _scaled_root(setup: _ShootingSetup, prof, p, a) -> float | None:
    """Unforced center value predicted from the profile of a shot at a
    that crosses zero: u_a(r) = a w(a^((p-1)/2) r) exactly, so the root is
    a (r0/R)^(2/(p-1)) for the zero r0 of u_a, a root of the cubic Hermite
    interpolant of (u, u') on the crossing step."""
    k = int(np.argmax(prof[0] <= 0.0)) - 1  # u[k] > 0 >= u[k+1]
    if k < 0:
        return None
    (y0, y1), (d0, d1) = prof[0][k:k + 2], setup.h_s * prof[1][k:k + 2]
    t = y0 / (y0 - y1)
    for _ in range(3):  # Newton on the Hermite cubic, from the secant root
        H = ((2 * t - 3) * t * t + 1) * y0 + ((t - 2) * t + 1) * t * d0 \
            + (3 - 2 * t) * t * t * y1 + (t - 1) * t * t * d1
        dH = 6 * (t - 1) * t * (y0 - y1) + ((3 * t - 4) * t + 1) * d0 + (3 * t - 2) * t * d1
        t -= H / dH
    return a * float((k + t) * setup.h_s / setup.R) ** (2.0 / (p - 1.0))


def _center_value(setup: _ShootingSetup, p, c_pow, c_f) -> tuple:
    """Profile ``(u, du)`` shot from the smallest center value a = u[0]
    whose profile hits zero at the boundary radius: predict, check, fall
    back.  A comparison bound gives a floor a_lo below which the endpoint
    map E(a) = u_a(R) keeps one sign:

    * forced, with c_pow >= 0: c_pow u_+^p + c_f f >= c_f f whatever the
      sign of f, so E(a) <= a + c_f L and a_lo = -c_f L, E < 0 below it;
      L = -w(center) is the endpoint of the linear shot;
    * unforced, with c_f = 0, c_pow > 0 and p > 1: u decreases from a, so
      E(a) >= a - c_pow a^p R^2 / (2 dim) and
      a_lo = (2 dim / (c_pow R^2))^(1/(p-1)), E > 0 below it.

    Without a floor (data outside the witness-positive class, or a_lo
    too large for a double) it raises ``ConvergenceError`` at once.

    Forced, one shot checks the root ``_predict`` gives.  With g from
    ``_gap`` on its profile, padded by 2|E|, 1 - g <= E' <= 1 puts the
    root between a - E and a - E/(1 - g), and E' > 0 below a makes it the
    smallest.  For g < 1/2 the shot is the root when |E|/(1 - g) <= xtol
    = 1e-15 max(1, a), and a - E is when |E| g/(1 - g) <= xtol.  Picard
    sweeps from below are monotone, so the prediction undershoots the root
    up to a quadrature error that this test absorbs.  With E < 0 the
    ladder continues from a, and its next rung a - E/(1 - g), across the
    root, closes the bracket Brent pins.  Any other outcome (E > 0,
    g >= 1/2, or a non-finite value) runs the fallback.

    Fallback: from a_lo, a geometric ladder of rungs a_lo 2^k finds the
    first sign change of E, and Brent's method pins the root inside that
    rung; unforced, the crossing rung's profile predicts the root
    (``_scaled_root``), and a shot there narrows the rung first.  The
    forced bound is tight when c_pow a^p is below round-off, so
    E(a_lo) >= 0 is rounding on a crossing at the floor, and that shot is
    the root.  Unforced, E(a_lo) >= cos(sqrt 2) a_lo (the p -> 1 limit in
    dim 1), so an E(a_lo) that is not positive and finite raises.  A
    non-finite endpoint is never a sign change.  Nothing carries over from
    an earlier solve.
    """
    a_lo = _floor(setup, p, c_pow, c_f)
    if a_lo is None:
        raise ConvergenceError("no comparison floor: data outside the witness-"
                               "positive class, or a floor too large for a double")
    shots = {}

    def endpoint(a):
        if a not in shots:
            shots[a] = setup.shoot(a, p, c_pow, c_f)
        return float(shots[a][0][-1])

    prev_a = None
    if c_f != 0.0:
        a = _predict(setup, p, c_pow, c_f, a_lo)
        val = math.nan if a is None else endpoint(a)
        g = _gap(setup, shots[a][0], p, c_pow, 2.0 * abs(val)) if math.isfinite(val) else 1.0
        if g < 0.5:
            # 1 - g <= E' <= 1: the root lies between a - val and a - val/(1 - g)
            xtol = (1.0 - g) * 1e-15 * max(1.0, a)
            if abs(val) * g <= xtol:
                a = a if abs(val) <= xtol else a - val
                endpoint(a)
                return shots[a]
            if val < 0.0:
                prev_a, prev_val, a = a, val, a - val / (1.0 - g)
    if prev_a is None:
        prev_a, prev_val = a_lo, endpoint(a_lo)
        if c_f == 0.0 and not 0.0 < prev_val < math.inf:
            raise ConvergenceError("unforced shooting map not positive at its floor")
        if c_f != 0.0 and 0.0 <= prev_val < math.inf:
            return shots[a_lo]
        a = 2.0 * a_lo
    while a <= LADDER_TOP:
        val = endpoint(a)
        if not math.isfinite(val):
            break
        if val == 0.0:
            return shots[a]
        if val * prev_val < 0.0:
            mid = _scaled_root(setup, shots[a], p, a) if c_f == 0.0 else None
            if mid is not None and prev_a < mid < a:
                e = endpoint(mid)
                if e == 0.0:
                    return shots[mid]
                if e * val < 0.0:
                    prev_a, prev_val = mid, e
                elif e * prev_val < 0.0:
                    a, val = mid, e
            return shots[_brent(endpoint, prev_a, a, prev_val, val,
                                1e-15 * max(1.0, a))]
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
    """homogeneous_shooting at each b in bs, from one shot of the base profile.

    Raises ``ConvergenceError`` without a shot in dimension >= 3 when
    p >= 2*: the Pohozaev identity rules out any positive solution of the
    unforced problem on a ball (Pohozaev, Soviet Math. Dokl. 6, 1965), and
    the unforced equation reduces to the semilinear one by scaling.  A
    root found there would be a grid artefact, whose center value grows
    without bound as h -> 0.
    """
    if mesh.dim >= 3 and p >= two_star(mesh.dim):
        raise ConvergenceError(
            f"no positive unforced solution for p = {p:g} >= 2* = "
            f"{two_star(mesh.dim):g} on a ball (Pohozaev nonexistence theorem)")
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
    smallest root is returned along with the scaled profile.  A floor
    that overflows a double (p just above 1) raises ``ConvergenceError``,
    and so does a ball with p >= 2*, where no positive solution exists.
    """
    return _homogeneous_probes(mesh, p, alpha, [b])[0]


def kirchhoff_shooting(mesh: DomainMesh, params: ProblemParams,
                       f_fn=None) -> GridFunction:
    """Shooting oracle for the full nonlocal problem.

    For lambda = 0 the unforced profile scales exactly: the profile of
    ``homogeneous_shooting``, or ``ConvergenceError`` without a root or,
    on a ball with p >= 2*, at once by the Pohozaev nonexistence theorem.
    Forced, ``f_fn`` is the coordinate callable for the forcing (the nodal
    field in ``params.f`` is never touched).  Inner loop: semilinear
    shooting with the coefficient frozen at (1+b t).  Outer loop: secant
    iteration on F(t) = T(t) - t, where T(t) = |grad u|^{2 alpha} of the
    inner profile, taken from the fine profile by Simpson quadrature.  No
    inner solve runs at t = 0: the linear shot (``_ShootingSetup.linear``)
    gives T_lin(0) = (lambda^2 |grad w|^2)^alpha for the Poisson witness w
    of f, which is T(0) exactly when the inner profile is linear in
    c_f = lambda/(1+bt).  The first inner solve is at the root t1 of the
    linear-response model t = T_lin(0) (1 + b t)^(-2 alpha), and the
    secant runs from (0, T_lin(0)) and (t1, F(t1)).  Past the semilinear
    fold the problem at t = 0 has no positive solution, so this start also
    reaches solutions that a solve at t = 0 cannot.  It falls back to the
    damped step t + F(t)/2 when a secant step is not finite or would make
    t negative, and stops once |F(t)| <= 1e-10 max(1, t), returning the
    profile shot at that t.  Each inner solve, with no tracking of the
    last root, returns the predicted root, Brent's root in the bracket the
    prediction closes, or the root of the ladder from the floor
    (``_center_value``); it raises without a floor.  ``MAX_OUTER`` caps
    the number of inner solves.
    """
    if params.lam == 0.0:
        probe = homogeneous_shooting(mesh, params.p, params.alpha, params.b)
        if not probe.found:
            raise ConvergenceError("no consistency root: no unforced solution "
                                   "at this b")
        return probe.solution
    if f_fn is None:
        raise ValueError("a forced problem needs the forcing callable f_fn")
    setup = _ShootingSetup(mesh, f_fn)
    # T(0) of the linear profile lam w, then the root t1 of the
    # linear-response model t = T(0) (1 + b t)^(-2 alpha)
    T0 = (params.lam**2 * setup.gradient_sq(setup.linear[1])) ** params.alpha
    t_prev, F_prev = 0.0, T0
    t = consistency_root(T0, -2.0 * params.alpha, params.b)
    for _ in range(MAX_OUTER):
        coeff = 1.0 + params.b * t
        c_pow, c_f = 1.0 / coeff, params.lam / coeff
        prof, dprof = _center_value(setup, params.p, c_pow, c_f)
        F = setup.gradient_sq(dprof) ** params.alpha - t
        if abs(F) <= 1e-10 * max(1.0, t):
            return setup.to_grid(prof)
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
