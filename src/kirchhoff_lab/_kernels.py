"""Hot numerical kernels: the tridiagonal apply and solve, the 2-D
5-point stencil and the radial RK4 shot, in numpy and plain Python.

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
    # the diagonally dominant operators built in mesh.py.
    n = diag.shape[0]
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = sup[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / denom
        dp[i] = (rhs[i] - sub[i] * dp[i - 1]) / denom
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


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
    nu = dim - 1.0
    tiny = 1e-300
    u[0] = u0
    du[0] = 0.0
    for k in range(nsteps):
        r = k * h
        y = u[k]
        v = du[k]

        up = y if y > 0.0 else 0.0
        g = c_pow * up**p + c_f * f_half[2 * k]
        if r < tiny:
            a1 = -g / dim
        else:
            a1 = -g - nu * v / r
        k1y = v
        k1v = a1

        rm = r + 0.5 * h
        y2 = y + 0.5 * h * k1y
        v2 = v + 0.5 * h * k1v
        up = y2 if y2 > 0.0 else 0.0
        g = c_pow * up**p + c_f * f_half[2 * k + 1]
        a2 = -g - nu * v2 / rm
        k2y = v2
        k2v = a2

        y3 = y + 0.5 * h * k2y
        v3 = v + 0.5 * h * k2v
        up = y3 if y3 > 0.0 else 0.0
        g = c_pow * up**p + c_f * f_half[2 * k + 1]
        a3 = -g - nu * v3 / rm
        k3y = v3
        k3v = a3

        rp = r + h
        y4 = y + h * k3y
        v4 = v + h * k3v
        up = y4 if y4 > 0.0 else 0.0
        g = c_pow * up**p + c_f * f_half[2 * k + 2]
        a4 = -g - nu * v4 / rp
        k4y = v4
        k4v = a4

        u[k + 1] = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        du[k + 1] = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return u, du
