"""Per-mesh cache for spectral constants and assembled operators.

Eigenpairs, embedding quotients, torsion functions and the dense 1-D
operator matrices are pure functions of the mesh (and exponent), and several
solver layers keep asking for them.  One cache, ``DomainMesh.cache``, keeps
sweeps from recomputing them at every lambda and is freed with its mesh;
only the dense operator is ever written to, and restored (``dense_op``).
"""

import numpy as np

from ._kernels import thomas_solve
from .exceptions import ConvergenceError
from .mesh import (
    DomainMesh,
    GridFunction,
    dense_operator,
    l2_inner,
    laplacian_apply,
    lp_norm,
    poisson_solve,
    principal_eigenpair,
)

SOBOLEV_TOL = 1e-8  # sobolev_minimizer's weighted-l2 gradient norm target
SOBOLEV_MAX_ITER = 200000
# sobolev_minimizer hands its iterate to Newton once the gradient norm is at
# most this times max(1, S); the polish takes at most SOBOLEV_POLISH_STEPS steps
SOBOLEV_POLISH_GNORM = 0.5
SOBOLEV_POLISH_STEPS = 10


def _cached(mesh: DomainMesh, key, build):
    if key not in mesh.cache:
        mesh.cache[key] = build()
    return mesh.cache[key]


def eigenpair(mesh: DomainMesh):
    """(lambda1, phi1) with phi1 positive and sup-normalized."""
    return _cached(mesh, "eigenpair", lambda: principal_eigenpair(mesh))


def sobolev(mesh: DomainMesh, p: float):
    """(S, minimizer) of the embedding quotient for exponent p."""
    p = float(p)
    return _cached(mesh, ("sobolev", p), lambda: sobolev_minimizer(mesh, p))


def dense_op(mesh: DomainMesh):
    """Dense minus-Laplacian of an interval or ball (1-D Newton only).  A
    Newton step borrows it for its Jacobian for one np.linalg.solve and
    restores it in a finally; the package is single-threaded, and nothing
    may hold it across that call."""
    return _cached(mesh, "dense_op", lambda: dense_operator(mesh))


def torsion(mesh: DomainMesh) -> GridFunction:
    """Solution of -lap psi = 1, the universal comparison bump."""
    return _cached(mesh, "torsion", lambda: poisson_solve(mesh, np.ones(mesh.shape)))


def sobolev_minimizer(mesh: DomainMesh, p: float):
    """Minimize the embedding quotient |grad u|_2^2 / |u|_{p+1}^2.

    Returns ``(S, u)`` with u normalized to unit L^{p+1} norm, satisfying
    the stationarity equation (-lap u) = S |u|^{p-1} u to a weighted-l2
    gradient norm of 1e-8 * max(1, S), within 200000 sweeps.  Normalized
    inverse iteration from the cached phi1 of ``eigenpair``: each sweep
    solves the Poisson problem with |u|^{p-1} u on the right and rescales.
    The sweeps converge only linearly, so on intervals and balls with
    p > 1 the first sweep whose gradient norm is at most
    SOBOLEV_POLISH_GNORM * max(1, S) hands its iterate to ``_newton_polish``
    once; if the polish fails, the sweeps resume from that iterate.  The
    discrete quotient is mesh-dependent; downstream constants use the mesh
    value everywhere.
    """
    if not p >= 1:
        raise ValueError(f"embedding exponent must satisfy p >= 1, got {p}")
    phi = eigenpair(mesh)[1]
    u = phi.values / lp_norm(mesh, phi, p + 1.0)
    S = float(l2_inner(mesh, u, laplacian_apply(mesh, GridFunction(mesh, u))))
    polish = mesh.kind != "rectangle" and p > 1.0
    for sweep in range(1, SOBOLEV_MAX_ITER + 1):
        rhs = np.abs(u) ** (p - 1.0) * u
        w = poisson_solve(mesh, rhs).values
        # a runaway iterate overflows |w|^{p+1} inside the norm first; the
        # non-finite norm is the blow-up signal, so numpy need not warn
        with np.errstate(over="ignore", invalid="ignore"):
            norm = lp_norm(mesh, w, p + 1.0)
        if not np.isfinite(norm):
            raise ConvergenceError(
                f"embedding-quotient iteration blew up at sweep {sweep}")
        u = w / norm
        S, gnorm = _quotient(mesh, u, p)
        if gnorm <= SOBOLEV_TOL * max(1.0, S):
            return S, GridFunction(mesh, u)
        if polish and gnorm <= SOBOLEV_POLISH_GNORM * max(1.0, S):
            polish = False
            found = _newton_polish(mesh, u, S, p)
            if found is not None:
                return found
    raise ConvergenceError(
        f"embedding-quotient iteration stalled (gradient norm {gnorm:.3e})"
    )


def _quotient(mesh: DomainMesh, u: np.ndarray, p: float):
    # (S, weighted-l2 norm of the quotient's gradient) at a unit-norm u
    Lu = laplacian_apply(mesh, GridFunction(mesh, u)).values
    S = float(np.sum(mesh.weights * u * Lu))
    grad = 2.0 * (Lu - S * np.abs(u) ** (p - 1.0) * u)
    return S, np.sqrt(np.sum(mesh.weights * grad * grad))


def _newton_polish(mesh: DomainMesh, u: np.ndarray, S: float, p: float):
    """Newton's method on F(w) = (-lap) w - |w|^{p-1} w from
    w = S^{1/(p-1)} u, whose roots are the critical points of the quotient
    scaled so that S = |w|_{p+1}^{p-1}.  It converges quadratically where
    the sweeps converge linearly (Deuflhard, *Newton Methods for Nonlinear
    Problems*, 2004, ch. 1-3).  The Jacobian is the stencil shifted by
    -p |w|^{p-1} on its diagonal: tridiagonal, solved in O(n) by
    ``thomas_solve``.  It has one negative eigenvalue at the ground state,
    so a zero pivot is possible and counts as a failure.

    Returns ``(S, u)`` for the first w that is finite, strictly positive
    (the ground state, not another critical point), meets the sweeps'
    gradient test, and whose last correction is at most SOBOLEV_TOL sup w;
    the ball's origin node has weight 0, so only that last test converges
    its row.  Returns None after SOBOLEV_POLISH_STEPS steps without one,
    on a zero pivot, on a non-finite step or when the start overflows.
    """
    sub, diag, sup = mesh.stencil
    try:
        w = S ** (1.0 / (p - 1.0)) * u
    except OverflowError:
        return None
    delta = np.empty_like(w)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(SOBOLEV_POLISH_STEPS):
            power = np.abs(w) ** (p - 1.0)
            F = laplacian_apply(mesh, GridFunction(mesh, w)).values - power * w
            try:
                thomas_solve(sub, diag - p * power, sup, -F, delta)
            except ZeroDivisionError:
                return None
            w = w + delta
            if not np.all(np.isfinite(w)):
                return None
            if not np.all(w > 0.0):
                continue
            u = w / lp_norm(mesh, w, p + 1.0)
            S, gnorm = _quotient(mesh, u, p)
            if (gnorm <= SOBOLEV_TOL * max(1.0, S)
                    and np.max(np.abs(delta)) <= SOBOLEV_TOL * np.max(w)):
                return S, GridFunction(mesh, u)
    return None
