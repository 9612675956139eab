"""Per-mesh cache for spectral constants and assembled operators.

Eigenpairs, embedding quotients, torsion functions and the dense 1-D
operator matrices are pure functions of the mesh (and exponent), and several
solver layers keep asking for them.  One cache, ``DomainMesh.cache``, keeps
sweeps from recomputing them at every lambda and is freed with its mesh.
"""

import numpy as np

from .mesh import (
    DomainMesh,
    GridFunction,
    dense_operator,
    poisson_solve,
    principal_eigenpair,
    sobolev_minimizer,
)


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
