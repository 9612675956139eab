"""Scalar reductions of the nonlocal coefficient.

Because the Kirchhoff coefficient depends on u only through the single
number |grad u|_2, several subproblems collapse to one strictly
increasing scalar equation

    h(y) = b y^{alpha + 1/2} + y^{1/2} - c = 0,   y >= 0,

whose unique root recovers the seminorm of the unknown.  The routines
here solve that equation and apply the three exact change-of-variables
tricks built on it: the linear comparison solve, the per-step rescaling
of the monotone iteration, and the reduction to a semilinear problem.
For the unforced problem the same reduction gives the consistency
equation (1 + b t)^beta G = t, solved by ``consistency_root`` with
``_brent``, the package's one bracketed root finder.
"""

import math

import numpy as np

from .exceptions import ConvergenceError
from .mesh import DomainMesh, GridFunction, h1_seminorm
from .problem import ProblemParams, require_member


def solve_h_root(b: float, alpha: float, c: float) -> float:
    """Unique nonnegative root of b y^{alpha+1/2} + y^{1/2} = c.

    h is strictly increasing with h(0) = -c <= 0 and h -> +inf, so a
    bracketed bisection/Newton hybrid cannot miss.  Residual target
    |h(y)| <= 1e-13 * max(1, c).
    """
    if not b > 0 or not alpha > 0:
        raise ValueError("root problem needs b > 0 and alpha > 0")
    if c < 0:
        raise ValueError(f"right-hand side c must be >= 0, got {c}")
    if c == 0.0:
        return 0.0

    def h(y):
        return b * y ** (alpha + 0.5) + np.sqrt(y) - c

    tol = 1e-13 * max(1.0, c)
    # bracket: y^{1/2} >= c or b y^{alpha+1/2} >= c each force h >= 0
    hi = max(c * c, (c / b) ** (1.0 / (alpha + 0.5)))
    while h(hi) < 0.0:  # guard against rounding at the corner
        hi *= 2.0
    lo = 0.0
    y = hi
    for _ in range(200):
        val = h(y)
        if abs(val) <= tol:
            return float(y)
        if val > 0.0:
            hi = y
        else:
            lo = y
        dval = b * (alpha + 0.5) * y ** (alpha - 0.5) + 0.5 / np.sqrt(y)
        step = y - val / dval
        y = step if lo < step < hi else 0.5 * (lo + hi)
    raise ConvergenceError(f"scalar root stalled at residual {val:.3e}")


def kirchhoff_linear_solve(mesh: DomainMesh, params: ProblemParams) -> GridFunction:
    """Exact solution of the linear comparison problem

        -(1 + b |grad u|^{2 alpha}) lap u = lambda f.

    Requires lambda > 0 and a witness-positive forcing.  With v the
    Poisson witness of f, every solution is u = lambda v / (1 + b y^alpha)
    where y solves h(y) = lambda |grad v|; then |grad u|_2^2 = y exactly.
    The output is the strictly positive comparison function the
    positivity arguments lean on.
    """
    if not params.lam > 0:
        raise ValueError("linear comparison solve needs lambda > 0")
    v = require_member(mesh, params.f)
    c = params.lam * h1_seminorm(mesh, v)
    y = solve_h_root(params.b, params.alpha, c)
    scale = params.lam / (1.0 + params.b * y**params.alpha)
    return scale * v


def rescale_to_semilinear(mesh: DomainMesh, params: ProblemParams, u: GridFunction):
    """Freeze the nonlocal coefficient of u and divide it out.

    Returns (v, effective_lambda) with

        v = u / (1 + b t)^{1/(p-1)},      t = |grad u|^{2 alpha},
        effective_lambda = lambda / (1 + b t)^{p/(p-1)}.

    If u solves the nonlocal equation then v solves the semilinear one
        -lap v = (v_+)^p + effective_lambda f
    with the same f, exactly (the substitution is algebraic).
    """
    t = h1_seminorm(mesh, u) ** (2.0 * params.alpha)
    denom = 1.0 + params.b * t
    v = denom ** (-1.0 / (params.p - 1.0)) * u
    eff_lam = params.lam * denom ** (-params.p / (params.p - 1.0))
    return v, float(eff_lam)


def picard_rescale(mesh: DomainMesh, params: ProblemParams, w: GridFunction) -> GridFunction:
    """Rescale a Poisson solve so the nonlocal equation holds exactly.

    Given w with -lap w = rhs, the field u = w / (1 + b y^alpha), with y
    the root of h(y) = |grad w|, satisfies

        (1 + b |grad u|^{2 alpha}) (-lap u) = rhs   and   |grad u|_2^2 = y.
    """
    c = h1_seminorm(mesh, w)
    y = solve_h_root(params.b, params.alpha, c)
    return (1.0 / (1.0 + params.b * y**params.alpha)) * w


def _brent(f, a, b, fa, fb, xtol) -> float:
    """Zero of f in the sign-change bracket [a, b], to a bracket of width xtol.

    Brent's method (Algorithms for Minimization without Derivatives,
    1973, ch. 4): inverse quadratic or secant steps while they stay inside
    the bracket and shrink it fast enough, bisection otherwise.
    """
    tol = 0.5 * xtol
    c, fc = a, fa
    d = e = b - a
    for _ in range(120):
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b
        if abs(e) < tol or abs(fa) <= abs(fb):
            d = e = m
        else:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and p < abs(0.5 * e * q):
                e, d = d, p / q
            else:
                d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
    raise ConvergenceError("Brent's method did not settle in 120 steps")


def consistency_root(G: float, beta: float, b: float) -> float | None:
    """Smallest positive root of zeta(t) = (1 + b t)^beta G - t, or None.

    An unforced semilinear solution w with G = |grad w|^{2 alpha} scales
    to a nonlocal one exactly when t = |grad u|^{2 alpha} solves the
    equation, with beta = 2 alpha / (p - 1).  For beta > 1 zeta is convex
    with its minimum at t*, so a root exists iff zeta'(0) < 1 and
    zeta(t*) <= 0; otherwise zeta is bracketed by doubling.

    The shooting oracle's outer step calls it with beta = -2 alpha < 0,
    the linear-response model t = G (1 + b t)^(-2 alpha): zeta then falls
    from zeta(0) = G, so for G > 0 the one root lies in (0, G].
    """
    def zeta(t):
        return (1.0 + b * t) ** beta * G - t

    if beta > 1.0:
        slope0 = beta * b * G
        if slope0 >= 1.0:
            return None
        t_star = (slope0 ** (-1.0 / (beta - 1.0)) - 1.0) / b
        if zeta(t_star) > 0.0:
            return None
        hi = t_star
    else:
        hi = max(1.0, G)
        for _ in range(200):
            if zeta(hi) < 0.0:
                break
            hi *= 2.0
        else:
            return None
    return _brent(zeta, 0.0, hi, G, zeta(hi), 1e-15 * max(1.0, hi))
