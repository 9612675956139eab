"""Hot numerical kernels: the tridiagonal apply and solve, the 2-D
5-point stencil, its fast Poisson solve by sine transform
(``sine_poisson``) and its block-tridiagonal solve for variable
potentials, and the radial RK4 shot, in numpy and plain Python.

The two scalar loops, ``thomas_solve`` and ``rk4_radial``, run on Python
floats rather than numpy scalars: the doubles and the expression order
are the same, so their results are bit-identical, at 2-4x less cost per
step.  One behaviour differs: a float power that overflows raises
OverflowError where numpy returned inf, so ``rk4_radial`` stops the shot
there and fills the rest of the profile with nan.

``BACKEND`` names the one implementation, for reports that print it.
"""

import numpy as np

BACKEND = "numpy"


def tridiag_apply(sub, diag, sup, u, out):
    # out_i = sub_i*u_{i-1} + diag_i*u_i + sup_i*u_{i+1}, zero beyond the ends
    out[:] = diag * u
    out[1:] += sub[1:] * u[:-1]
    out[:-1] += sup[:-1] * u[1:]
    return out


def thomas_solve(sub, diag, sup, rhs, x):
    # Forward elimination / back substitution without pivoting.  Valid for
    # the diagonally dominant operators built in mesh.py, which never
    # produce a zero pivot; one would raise ZeroDivisionError.  The loop
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


def block_tridiag_solve(T, c, P, R):
    """Solve the block-tridiagonal system with diagonal blocks
    D_i = T - diag(P[i]) and off-diagonal blocks c*I.

    T is (my, my), P is (mx, my) and R is (mx, my, k): k right-hand
    sides, block i of each in R[i].  Returns X shaped like R.  Block LU
    (Golub & Van Loan, Matrix Computations, section 4.5): the Schur
    blocks are S_0 = D_0 and S_i = D_i - c^2 S_{i-1}^{-1}, each handled by
    one np.linalg.solve, so partial pivoting acts inside a block and not
    across blocks.  A singular Schur block raises np.linalg.LinAlgError.
    """
    mx, my = P.shape
    k = R.shape[2]
    G = np.empty((mx, my, my))  # c * S_i^{-1}
    Y = np.empty((mx, my, k))
    rhs = np.empty((my, my + k))
    rhs[:, :my] = c * np.eye(my)
    diag = np.diag_indices(my)
    for i in range(mx):
        S = T.copy()
        S[diag] -= P[i]
        if i == 0:
            rhs[:, my:] = R[0]
        else:
            S -= c * G[i - 1]
            rhs[:, my:] = R[i] - c * Y[i - 1]
        Z = np.linalg.solve(S, rhs)
        G[i] = Z[:, :my]
        Y[i] = Z[:, my:]
    for i in range(mx - 2, -1, -1):
        Y[i] -= G[i] @ Y[i + 1]
    return Y


def sine_poisson(R, hx, hy):
    """Solve the 5-point minus-Laplacian system on an (mx, my) interior
    grid with zero Dirichlet data: right-hand side R, spacings hx, hy.

    Matrix decomposition (Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7,
    1970).  The row block of the operator along y has the orthonormal
    eigenvectors q_k(j) = sqrt(2/(my+1)) sin(jk pi/(my+1)), so Q is
    symmetric and its own inverse, with eigenvalues
    mu_k = 2/hx^2 + (4/hy^2) sin^2(k pi/(2(my+1))), written with sin^2 so
    that small k do not cancel.  Transform R in y, solve the my decoupled
    tridiagonal systems (-1/hx^2, mu_k, -1/hx^2) in x with one Thomas sweep
    vectorised across k (diagonally dominant, so no pivoting), and
    transform back: O(mx my^2), against O(mx my^3) for the block LU.
    """
    mx, my = R.shape
    n = my + 1
    j = np.arange(1, n)
    # jk mod 2n keeps the sine argument in [0, 2 pi) on large grids
    Q = np.sqrt(2.0 / n) * np.sin((np.pi / n) * (np.outer(j, j) % (2 * n)))
    mu = 2.0 / hx**2 + (4.0 / hy**2) * np.sin((0.5 * np.pi / n) * j) ** 2
    c = 1.0 / hx**2
    D = R @ Q
    # G[i] holds the reciprocal pivot of row i
    G = np.empty_like(D)
    G[0] = 1.0 / mu
    D[0] *= G[0]
    for i in range(1, mx):
        G[i] = 1.0 / (mu - c * c * G[i - 1])
        D[i] = (D[i] + c * D[i - 1]) * G[i]
    for i in range(mx - 2, -1, -1):
        D[i] += c * G[i] * D[i + 1]
    return D @ Q


def lap2d_apply(u, out, inv_hx2, inv_hy2):
    # 5-point minus-Laplacian on the interior block, implicit zero boundary.
    out[:] = (2.0 * inv_hx2 + 2.0 * inv_hy2) * u
    out[1:, :] -= inv_hx2 * u[:-1, :]
    out[:-1, :] -= inv_hx2 * u[1:, :]
    out[:, 1:] -= inv_hy2 * u[:, :-1]
    out[:, :-1] -= inv_hy2 * u[:, 1:]
    return out


def rk4_radial(u0, h, nsteps, dim, p, c_pow, c_f, f_half, u, du):
    # Integrate u'' + ((dim-1)/r) u' = -(c_pow*max(u,0)^p + c_f*f(r))
    # outward from r=0 with u(0)=u0, u'(0)=0.  f_half holds the forcing
    # sampled at r = k*h/2 (2*nsteps+1 values) so every RK4 stage sees an
    # exact sample.  At r=0 the symmetric limit u''(0) = -g(0)/dim applies.
    # The loop runs on Python floats, bit-identical to numpy scalars and
    # about 3x cheaper per step; memoryviews read and write the arrays'
    # doubles as Python floats without a list copy.  A power that
    # overflows raises OverflowError (numpy gave inf): the shot stops there
    # and the rest of the profile is nan, so a blow-up still ends in a
    # non-finite endpoint.
    fh = memoryview(f_half)
    uv = memoryview(u)
    dv = memoryview(du)
    h = float(h)
    hh = 0.5 * h
    h6 = h / 6.0
    nu = dim - 1.0
    tiny = 1e-300
    y = uv[0] = float(u0)
    v = dv[0] = 0.0
    try:
        for k in range(nsteps):
            r = k * h

            up = y if y > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k]
            if r < tiny:
                k1v = -g / dim
            else:
                k1v = -g - nu * v / r
            k1y = v

            rm = r + hh
            y2 = y + hh * k1y
            v2 = v + hh * k1v
            up = y2 if y2 > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k + 1]
            k2v = -g - nu * v2 / rm
            k2y = v2

            y3 = y + hh * k2y
            v3 = v + hh * k2v
            up = y3 if y3 > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k + 1]
            k3v = -g - nu * v3 / rm
            k3y = v3

            rp = r + h
            y4 = y + h * k3y
            v4 = v + h * k3v
            up = y4 if y4 > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k + 2]
            k4v = -g - nu * v4 / rp
            k4y = v4

            y = uv[k + 1] = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v = dv[k + 1] = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    except OverflowError:
        u[k + 1:] = np.nan
        du[k + 1:] = np.nan
    return u, du
