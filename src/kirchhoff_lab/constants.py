"""Per-mesh caches for spectral constants and assembled operators.

Eigenpairs, embedding quotients, torsion functions and the dense 1-D
operator matrices are pure functions of the mesh (and exponent), and several
solver layers keep asking for them; caching keyed on mesh identity keeps
sweeps from recomputing them at every lambda.
"""

from weakref import WeakKeyDictionary

import numpy as np

from .mesh import (
    DomainMesh,
    GridFunction,
    dense_operator,
    poisson_solve,
    principal_eigenpair,
    sobolev_minimizer,
)

_eigen: WeakKeyDictionary = WeakKeyDictionary()
_sobolev: WeakKeyDictionary = WeakKeyDictionary()
_dense: WeakKeyDictionary = WeakKeyDictionary()
_torsion: WeakKeyDictionary = WeakKeyDictionary()


def eigenpair(mesh: DomainMesh):
    """(lambda1, phi1) with phi1 positive and sup-normalized."""
    if mesh not in _eigen:
        _eigen[mesh] = principal_eigenpair(mesh)
    return _eigen[mesh]


def sobolev(mesh: DomainMesh, p: float):
    """(S, minimizer) of the embedding quotient for exponent p."""
    per_mesh = _sobolev.setdefault(mesh, {})
    key = float(p)
    if key not in per_mesh:
        per_mesh[key] = sobolev_minimizer(mesh, key)
    return per_mesh[key]


def dense_op(mesh: DomainMesh):
    """Dense minus-Laplacian of an interval or ball (1-D Newton only)."""
    if mesh not in _dense:
        _dense[mesh] = dense_operator(mesh)
    return _dense[mesh]


def torsion(mesh: DomainMesh) -> GridFunction:
    """Solution of -lap psi = 1, the universal comparison bump."""
    if mesh not in _torsion:
        _torsion[mesh] = poisson_solve(mesh, np.ones(mesh.shape))
    return _torsion[mesh]
