"""Hot numerical kernels: the tridiagonal apply and solve, the 2-D
5-point stencil, its eigenbasis and fast Poisson solve by double sine
transform (``SineSolver``), the MINRES solve of the stencil shifted by a
variable potential and a symmetric rank-one term (``local_minres``, run
on sine coefficients, where the stencil and its preconditioner are
diagonal), and the radial RK4 shot, in numpy and plain Python.  The 2-D
kernels take one (mx, my) field; no rectangle matrix is assembled or
factored.

The two scalar loops, ``thomas_solve`` and ``rk4_radial``, run on Python
floats rather than numpy scalars: the doubles and the expression order
are the same, so their results are bit-identical, at 2-4x less cost per
step.  One behaviour differs: a float power that overflows raises
OverflowError where numpy returned inf, so ``rk4_radial`` stops the shot
there and fills the rest of the profile with nan.  A linear shot
(c_pow = 0) in dim 1 needs no loop: its RK4 steps are running sums.
"""

import math

import numpy as np


def tridiag_apply(sub, diag, sup, u, out):
    # out_i = sub_i*u_{i-1} + diag_i*u_i + sup_i*u_{i+1}, zero beyond the ends
    out[:] = diag * u
    out[1:] += sub[1:] * u[:-1]
    out[:-1] += sup[:-1] * u[1:]
    return out


def thomas_solve(sub, diag, sup, rhs, x):
    # Forward elimination / back substitution without pivoting.  Valid for
    # the diagonally dominant operators built in mesh.py, which never
    # produce a zero pivot; one would raise ZeroDivisionError.  The Newton
    # polish of constants.sobolev_minimizer also calls it on an indefinite
    # Jacobian, where it treats that ZeroDivisionError as a failed polish
    # and an inaccurate solve as a step its acceptance tests reject.  The loop
    # runs on Python floats, 3-4x cheaper than numpy scalars; the doubles
    # and the expression order are the same, so the result is bit-identical.
    a, b, c, d = sub.tolist(), diag.tolist(), sup.tolist(), rhs.tolist()
    n = len(b)
    cp = [0.0] * n
    dp = [0.0] * n
    cp[0] = c[0] / b[0]
    dp[0] = d[0] / b[0]
    for i in range(1, n):
        denom = b[i] - a[i] * cp[i - 1]
        cp[i] = c[i] / denom
        dp[i] = (d[i] - a[i] * dp[i - 1]) / denom
    for i in range(n - 2, -1, -1):
        dp[i] = dp[i] - cp[i] * dp[i + 1]
    x[:] = dp
    return x


def _sine_basis(m, h):
    # The m-point second difference (-1, 2, -1)/h^2 has the orthonormal
    # eigenvectors q_k(j) = sqrt(2/(m+1)) sin(jk pi/(m+1)), so Q is
    # symmetric and its own inverse, with eigenvalues
    # (4/h^2) sin^2(k pi/(2(m+1))), written with sin^2 so that small k do
    # not cancel; jk mod 2(m+1) keeps the sine argument in [0, 2 pi).
    n = m + 1
    j = np.arange(1, n)
    Q = np.sqrt(2.0 / n) * np.sin((np.pi / n) * (np.outer(j, j) % (2 * n)))
    return Q, (4.0 / h**2) * np.sin((0.5 * np.pi / n) * j) ** 2


class SineSolver:
    """The 5-point minus-Laplacian on an (mx, my) interior grid with zero
    Dirichlet data and spacings hx, hy, in its eigenbasis; calling it maps
    a right-hand side R to the solution U.

    The operator is a Kronecker sum of two second differences, so the
    orthonormal sine matrices Qx and Qy diagonalise it with eigenvalues
    lam[i, j] = mu_x[i] + mu_y[j] (Buzbee, Golub & Nielson, SIAM J. Numer.
    Anal. 7, 1970).  ``transform`` is R -> Qx R Qy, orthonormal and its
    own inverse, so it carries a field into sine coefficients and back;
    U = transform(transform(R) / lam) is four matmuls and
    O(mx my (mx + my)) work.  The sine matrices are built once per solver,
    so repeated solves share them.
    """

    __slots__ = ("Qx", "Qy", "lam")

    def __init__(self, mx, my, hx, hy):
        self.Qx, mu_x = _sine_basis(mx, hx)
        self.Qy, mu_y = _sine_basis(my, hy)
        self.lam = mu_x[:, None] + mu_y

    def transform(self, R):
        return self.Qx @ R @ self.Qy

    def __call__(self, R):
        return self.transform(self.transform(R) / self.lam)


def lap2d_apply(u, out, inv_hx2, inv_hy2):
    # 5-point minus-Laplacian of an (mx, my) field: one copy framed by the
    # zero boundary values, then one expression over its shifted views
    g = np.zeros((u.shape[0] + 2, u.shape[1] + 2))
    g[1:-1, 1:-1] = u
    out[:] = ((2.0 * inv_hx2 + 2.0 * inv_hy2) * u
              - inv_hx2 * (g[:-2, 1:-1] + g[2:, 1:-1])
              - inv_hy2 * (g[1:-1, :-2] + g[1:-1, 2:]))
    return out


MINRES_RTOL = 1e-14  # preconditioned residual target, relative to the right-hand side
LOCAL_RESIDUAL_TOL = 1e-10  # accepted true residual |r - A x|, relative to |r|


def local_minres(r, P, coeff, hx, hy, v, kappa, poisson):
    """Solve coeff*(-lap) x - P*x + kappa*v*<v, x> = r for one field x on
    an (mx, my) interior grid with zero Dirichlet data; r, P and v are
    (mx, my) arrays and <v, x> is the plain sum of v*x.

    The operator is symmetric but indefinite once P exceeds the low modes
    of coeff*(-lap), so the solver is MINRES (Paige & Saunders, SIAM J.
    Numer. Anal. 12, 1975; Elman, Silvester & Wathen, *Finite Elements and
    Fast Iterative Solvers*, ch. 2) preconditioned by the SPD coeff*(-lap).
    It runs on sine coefficients, in the eigenbasis of ``poisson`` (the
    grid's ``SineSolver``), where coeff*(-lap) is the diagonal D^2 =
    coeff*lam: MINRES solves D^-1 S A S D^-1 z = D^-1 S r, x = S D^-1 z,
    with S the orthonormal sine transform.  That operator is the identity
    minus D^-1 S P S D^-1 plus a rank-one term, so an iteration costs two
    transforms and one dot product for the rank-one term, with no stencil
    or Poisson solve, and the iteration count does not grow with the
    grid.  It stops once the preconditioned residual falls below
    MINRES_RTOL times its start.

    The iteration is capped at 2*mx*my: exact arithmetic needs at most
    mx*my, but round-off can delay tiny indefinite grids a few steps past
    it.  An exact breakdown (a zero Givens gamma), a true residual
    |r - A x| above LOCAL_RESIDUAL_TOL |r| or a non-finite x raises
    np.linalg.LinAlgError: the operator is singular or too close to it.
    The true residual applies A with the physical stencil
    (``lap2d_apply``), so it does not rest on the basis.
    """
    mx, my = r.shape
    S = poisson.transform
    d = 1.0 / np.sqrt(coeff * poisson.lam)
    vs = d * S(v)

    def apply(z):
        return z - d * S(P * S(d * z)) + (kappa * np.vdot(vs, z)) * vs

    b = d * S(r)
    z = np.zeros_like(b)
    r1 = r2 = b
    beta1 = beta = math.sqrt(np.vdot(b, b))
    oldb = dbar = epsln = sn = 0.0
    cs = -1.0
    phibar = beta1
    w = w2 = np.zeros_like(b)
    for it in range(2 * mx * my):
        if phibar <= MINRES_RTOL * beta1:
            break
        q = r2 / beta
        y = apply(q)
        if it > 0:
            y -= (beta / oldb) * r1
        alfa = float(np.vdot(q, y))
        y -= (alfa / beta) * r2
        r1, r2 = r2, y
        oldb, beta = beta, math.sqrt(np.vdot(y, y))
        # QR of the Lanczos tridiagonal by one more Givens rotation
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        gamma = math.hypot(gbar, beta)
        if not 0.0 < gamma < math.inf:
            raise np.linalg.LinAlgError("local operator is singular to working precision")
        cs, sn = gbar / gamma, beta / gamma
        phi = cs * phibar
        phibar = sn * phibar
        w1, w2 = w2, w
        w = (q - oldeps * w1 - delta * w2) / gamma
        z += phi * w
    x = S(d * z)
    Ax = lap2d_apply(x, np.empty_like(x), 1.0 / hx**2, 1.0 / hy**2)
    res = r - (coeff * Ax - P * x + (kappa * np.vdot(v, x)) * v)
    if not (np.all(np.isfinite(x))
            and np.vdot(res, res) <= LOCAL_RESIDUAL_TOL**2 * np.vdot(r, r)):
        raise np.linalg.LinAlgError("local operator is singular to working precision")
    return x


def rk4_radial(u0, h, nsteps, dim, p, c_pow, c_f, f_half, u, du):
    # Integrate u'' + ((dim-1)/r) u' = -(c_pow*max(u,0)^p + c_f*f(r))
    # outward from r=0 with u(0)=u0, u'(0)=0.  f_half holds the forcing
    # sampled at r = k*h/2 (2*nsteps+1 values) so every RK4 stage sees an
    # exact sample; it is scaled by c_f once per shot.  At r=0 the
    # symmetric limit u''(0) = -g(0)/dim applies.
    # The loop runs on Python floats, bit-identical to numpy scalars and
    # about 3x cheaper per step; memoryviews read and write the arrays'
    # doubles as Python floats without a list copy.  A power that
    # overflows raises OverflowError (numpy gave inf): the shot stops there
    # and the rest of the profile is nan, so a blow-up still ends in a
    # non-finite endpoint.
    h = float(h)
    hh = 0.5 * h
    h6 = h / 6.0
    nu = dim - 1.0
    if c_pow == 0.0 and nu == 0.0:
        # u'' = -c_f f: every stage slope is a forcing sample, so the loop
        # is two running sums, of the same doubles in the same order
        # (cumsum adds left to right); a stage whose power would overflow
        # ends the shot as in the loop
        f = -(c_f * f_half)
        du[0] = 0.0
        np.cumsum(h6 * (f[:-1:2] + 2.0 * f[1::2] + 2.0 * f[1::2] + f[2::2]), out=du[1:])
        v = du[:-1]
        k2y, k3y = v + hh * f[:-1:2], v + hh * f[1::2]
        u[0] = u0
        u[1:] = h6 * (v + 2.0 * k2y + 2.0 * k3y + (v + h * f[1::2]))
        np.cumsum(u, out=u)
        y = u[:-1]
        stages = np.stack((y, y + hh * v, y + hh * k2y, y + h * k3y))
        with np.errstate(over="ignore"):
            over = np.flatnonzero(np.isinf(np.maximum(stages, 0.0) ** p).any(axis=0))
        if over.size:
            u[over[0] + 1:] = du[over[0] + 1:] = np.nan
        return u, du
    fh = memoryview(c_f * f_half)
    uv = memoryview(u)
    dv = memoryview(du)
    tiny = 1e-300
    y = uv[0] = float(u0)
    v = dv[0] = 0.0
    try:
        for k in range(nsteps):
            r = k * h

            up = y if y > 0.0 else 0.0
            g = c_pow * up**p + fh[2 * k]
            if r < tiny:
                k1v = -g / dim
            else:
                k1v = -g - nu * v / r
            k1y = v

            rm = r + hh
            y2 = y + hh * k1y
            v2 = v + hh * k1v
            up = y2 if y2 > 0.0 else 0.0
            g = c_pow * up**p + fh[2 * k + 1]
            k2v = -g - nu * v2 / rm
            k2y = v2

            y3 = y + hh * k2y
            v3 = v + hh * k2v
            up = y3 if y3 > 0.0 else 0.0
            g = c_pow * up**p + fh[2 * k + 1]
            k3v = -g - nu * v3 / rm
            k3y = v3

            rp = r + h
            y4 = y + h * k3y
            v4 = v + h * k3v
            up = y4 if y4 > 0.0 else 0.0
            g = c_pow * up**p + fh[2 * k + 2]
            k4v = -g - nu * v4 / rp
            k4y = v4

            y = uv[k + 1] = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v = dv[k + 1] = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    except OverflowError:
        u[k + 1:] = np.nan
        du[k + 1:] = np.nan
    return u, du
