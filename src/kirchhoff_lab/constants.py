"""Per-mesh cache for spectral constants and assembled operators.

Eigenpairs, embedding quotients, torsion functions and the dense 1-D
operator matrices are pure functions of the mesh (and exponent), and several
solver layers keep asking for them.  One cache, ``DomainMesh.cache``, keeps
sweeps from recomputing them at every lambda and is freed with its mesh.
"""

import numpy as np

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
    """Dense minus-Laplacian of an interval or ball (1-D Newton only)."""
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
    The discrete quotient is mesh-dependent; downstream constants use the
    mesh value everywhere.
    """
    if not p >= 1:
        raise ValueError(f"embedding exponent must satisfy p >= 1, got {p}")
    phi = eigenpair(mesh)[1]
    u = phi.values / lp_norm(mesh, phi, p + 1.0)
    S = float(l2_inner(mesh, u, laplacian_apply(mesh, GridFunction(mesh, u))))
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
        Lu = laplacian_apply(mesh, GridFunction(mesh, u)).values
        S = float(np.sum(mesh.weights * u * Lu))
        grad = 2.0 * (Lu - S * np.abs(u) ** (p - 1.0) * u)
        gnorm = np.sqrt(np.sum(mesh.weights * grad * grad))
        if gnorm <= SOBOLEV_TOL * max(1.0, S):
            return S, GridFunction(mesh, u)
    raise ConvergenceError(
        f"embedding-quotient iteration stalled (gradient norm {gnorm:.3e})"
    )
