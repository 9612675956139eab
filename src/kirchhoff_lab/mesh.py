"""Uniform Dirichlet grids and the discrete operators living on them.

Supported geometries:

* ``interval``  -- (0, L)
* ``rectangle`` -- (0, Lx) x (0, Ly)
* ``ball``      -- radial profiles on the 3-d ball of radius R; nodes sit
  at r_j = j*h including the origin, with the symmetry condition u'(0)=0
  folded into the origin row of the operator.

Outside the stencils the interval and the rectangle are one box
geometry: the box [0, extents].  With zero boundary data nothing depends
on where the origin sits, so the box is never shifted.  ``nodes`` gives
the interior coordinates as one array per axis, broadcast to the field
shape (the radius r for a ball).

Grid functions store interior nodal values only; the zero boundary value
is implicit.  The minus-Laplacian uses second-order central differences.
In the radial case the operator is u'' + ((N-1)/r) u' with the origin row
replaced by its symmetric limit N*u''(0) (ghost node u(-h)=u(h)).  With
the node weights w_j = omega_N r_j^{N-1} h this discretization is exactly
self-adjoint and its Dirichlet form matches ``h1_seminorm`` to rounding,
which the solvers rely on when they differentiate the energy.

Linear solves are direct: Thomas elimination on the tridiagonal 1-D
operators; on rectangles a sine transform in both x and y
(``_kernels.SineSolver``), so no rectangle matrix is ever assembled or
factored.  That transform is the eigenbasis of the rectangle's stencil,
built once per mesh (``sine_poisson``): Newton's MINRES runs on its
coefficients, and it gives the exact discrete first mode.

Quadrature is the nodal rectangle rule, which coincides with the
trapezoid rule here because boundary values vanish.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .exceptions import ConvergenceError, MeshError, MeshMismatchError

_OMEGA3 = 4.0 * np.pi  # surface measure of the unit 2-sphere


@dataclass(frozen=True, eq=False)
class DomainMesh:
    """Immutable mesh descriptor plus precomputed stencil data.

    Identity semantics: two meshes are interchangeable only if they are
    the same object, which keeps grid functions unambiguous.  The one
    mutable part is ``cache``, where ``constants`` keeps what it derives
    from the mesh; it is freed with the mesh.

    An interval or rectangle is the box ``[0, extents]``; a ball has
    radius ``extents[0]`` and its center at r = 0.  ``nodes`` holds the
    interior coordinates per axis at full field shape, the arguments a
    coordinate callable ``fn(*nodes)`` receives.
    """

    kind: str
    dim: int
    h: float
    spacing: tuple  # per axis: (hx, hy) for a rectangle, (h,) otherwise
    extents: tuple
    shape: tuple  # interior node count per axis
    coords: tuple  # interior coordinate arrays, one per axis (r for ball)
    weights: np.ndarray  # quadrature weights, same shape as nodal values
    # tridiagonal minus-Laplacian rows (interval/ball), None for rectangle
    stencil: tuple | None = field(default=None, repr=False)
    face_weights: tuple | None = field(default=None, repr=False)
    # derived constants, filled by constants.py; cached fields refer back to
    # the mesh, so a cache keyed on the mesh elsewhere would never free it
    cache: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def ndof(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n

    def zeros(self) -> "GridFunction":
        return GridFunction(self, np.zeros(self.shape))

    @property
    def nodes(self) -> tuple:
        """Interior coordinates per axis, each of the field's shape."""
        return tuple(np.meshgrid(*self.coords, indexing="ij"))

    def field_from_callable(self, fn) -> "GridFunction":
        """Sample a coordinate callable ``fn(*nodes)`` at the interior nodes."""
        vals = np.asarray(fn(*self.nodes), dtype=float)
        return GridFunction(self, np.broadcast_to(vals, self.shape).copy())


class GridFunction:
    """Interior nodal values of a zero-Dirichlet field on a mesh."""

    __slots__ = ("mesh", "values")

    def __init__(self, mesh: DomainMesh, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        if values.shape != mesh.shape:
            raise MeshMismatchError(
                f"values shape {values.shape} does not match mesh shape {mesh.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("grid function values must be finite")
        self.mesh = mesh
        self.values = values

    def __add__(self, other):
        _same_mesh(self, other)
        return GridFunction(self.mesh, self.values + other.values)

    def __sub__(self, other):
        _same_mesh(self, other)
        return GridFunction(self.mesh, self.values - other.values)

    def __mul__(self, scalar):
        return GridFunction(self.mesh, self.values * float(scalar))

    __rmul__ = __mul__


def _same_mesh(u: GridFunction, v: GridFunction):
    if u.mesh is not v.mesh:
        raise MeshMismatchError("grid functions live on different meshes")


def _values(mesh: DomainMesh, u) -> np.ndarray:
    if isinstance(u, GridFunction):
        if u.mesh is not mesh:
            raise MeshMismatchError("grid function attached to a different mesh")
        return u.values
    arr = np.asarray(u, dtype=float)
    if arr.shape != mesh.shape:
        raise MeshMismatchError(f"array shape {arr.shape} does not match mesh {mesh.shape}")
    return arr


def build_mesh(kind: str, extents, resolution) -> DomainMesh:
    """Construct a uniform mesh.

    Parameters
    ----------
    kind : 'interval' | 'rectangle' | 'ball'
    extents : length L, pair (Lx, Ly), or ball radius R
    resolution : total node count per axis, boundary nodes included
    """
    if kind == "interval":
        L = float(extents if np.isscalar(extents) else extents[0])
        n = int(resolution if np.isscalar(resolution) else resolution[0])
        _check_axis(L, n)
        h = L / (n - 1)
        xs = h * np.arange(1, n - 1)
        m = n - 2
        weights = np.full(m, h)
        inv_h2 = 1.0 / (h * h)
        sub = np.full(m, -inv_h2)
        diag = np.full(m, 2.0 * inv_h2)
        sup = np.full(m, -inv_h2)
        face_w = np.full(m + 1, 1.0 / h)
        return DomainMesh(
            kind, 1, h, (h,), (L,), (m,), (xs,), weights,
            stencil=(sub, diag, sup), face_weights=(face_w,),
        )

    if kind == "rectangle":
        if np.isscalar(extents):
            Lx = Ly = float(extents)
        else:
            Lx, Ly = (float(e) for e in extents)
        if np.isscalar(resolution):
            nx = ny = int(resolution)
        else:
            nx, ny = (int(r) for r in resolution)
        _check_axis(Lx, nx)
        _check_axis(Ly, ny)
        hx = Lx / (nx - 1)
        hy = Ly / (ny - 1)
        xs = hx * np.arange(1, nx - 1)
        ys = hy * np.arange(1, ny - 1)
        shape = (nx - 2, ny - 2)
        weights = np.full(shape, hx * hy)
        return DomainMesh(
            kind, 2, max(hx, hy), (hx, hy), (Lx, Ly), shape, (xs, ys), weights,
        )

    if kind == "ball":
        R = float(extents if np.isscalar(extents) else extents[0])
        n = int(resolution if np.isscalar(resolution) else resolution[0])
        _check_axis(R, n)
        h = R / (n - 1)
        m = n - 1  # interior nodes r_0=0 .. r_{m-1}, boundary at r_m=R
        r = h * np.arange(m)
        weights = _OMEGA3 * r**2 * h
        inv_h2 = 1.0 / (h * h)
        sub = np.empty(m)
        diag = np.full(m, 2.0 * inv_h2)
        sup = np.empty(m)
        sub[0] = 0.0
        diag[0] = 6.0 * inv_h2
        sup[0] = -6.0 * inv_h2
        rj = r[1:]
        sub[1:] = -inv_h2 + 1.0 / (rj * h)
        sup[1:] = -inv_h2 - 1.0 / (rj * h)
        r_faces = h * np.arange(m + 1)  # r at nodes 0..m, r_m = R
        face_w = (_OMEGA3 / h) * r_faces[:-1] * r_faces[1:]
        return DomainMesh(
            kind, 3, h, (h,), (R,), (m,), (r,), weights,
            stencil=(sub, diag, sup), face_weights=(face_w,),
        )

    raise MeshError(f"unsupported mesh kind {kind!r}")


def _check_axis(L: float, n: int):
    if not L > 0:
        raise MeshError(f"domain extent must be positive, got {L}")
    if n < 4:
        raise MeshError(f"need at least 4 nodes per axis, got {n}")
    h2 = (L / (n - 1)) * (L / (n - 1))  # the stencils scale by 1/h^2
    if not (0.0 < h2 < np.inf and 1.0 / h2 < np.inf):
        raise MeshError(f"extent {L:g} over {n} nodes: h^2 or 1/h^2 is not "
                        f"a positive finite double")


# ---------------------------------------------------------------------------
# operators


def laplacian_apply(mesh: DomainMesh, u) -> GridFunction:
    """Apply the discrete minus-Laplacian (zero Dirichlet data implied)."""
    vals = _values(mesh, u)
    out = np.empty_like(vals)
    if mesh.kind == "rectangle":
        hx, hy = mesh.spacing
        _kernels.lap2d_apply(vals, out, 1.0 / hx**2, 1.0 / hy**2)
    else:
        sub, diag, sup = mesh.stencil
        _kernels.tridiag_apply(sub, diag, sup, vals, out)
    return GridFunction(mesh, out)


def sine_poisson(mesh: DomainMesh) -> _kernels.SineSolver:
    """The rectangle's stencil eigenbasis and sine-transform Poisson solver
    (``_kernels.SineSolver``), built once per mesh and kept in ``mesh.cache``."""
    if "sine_poisson" not in mesh.cache:
        mesh.cache["sine_poisson"] = _kernels.SineSolver(*mesh.shape, *mesh.spacing)
    return mesh.cache["sine_poisson"]


def poisson_solve(mesh: DomainMesh, rhs) -> GridFunction:
    """Solve minus-Laplacian u = rhs exactly (up to round-off).

    Tridiagonal elimination for interval/ball meshes; on rectangles a sine
    transform in x and in y (``_kernels.SineSolver``).
    """
    vals = _values(mesh, rhs)
    if mesh.kind == "rectangle":
        return GridFunction(mesh, sine_poisson(mesh)(vals))
    sub, diag, sup = mesh.stencil
    x = np.empty_like(vals)
    _kernels.thomas_solve(sub, diag, sup, vals, x)
    return GridFunction(mesh, x)


def write_tridiagonal(M: np.ndarray, sub, diag, sup):
    """Write three diagonals, laid out as ``mesh.stencil`` (sub[0] and
    sup[-1] unused), into the square array M in place."""
    n = diag.size
    M.flat[::n + 1] = diag
    M.flat[n::n + 1] = sub[1:]
    M.flat[1::n + 1] = sup[:-1]


def dense_operator(mesh: DomainMesh) -> np.ndarray:
    """Assemble the tridiagonal minus-Laplacian of an interval or ball as a
    dense matrix.  Rectangles have no dense form here: their Poisson solves
    go through the sine transform, their whole Newton Jacobian through
    MINRES on its coefficients (``_kernels.local_minres``).  The three
    diagonals are written into one zeroed matrix, with no temporaries."""
    if mesh.kind == "rectangle":
        raise MeshError("dense_operator covers interval and ball meshes only")
    n = mesh.stencil[1].size
    A = np.zeros((n, n))
    write_tridiagonal(A, *mesh.stencil)
    return A


# ---------------------------------------------------------------------------
# norms and inner products


def h1_seminorm(mesh: DomainMesh, u) -> float:
    """Discrete H1 seminorm, i.e. the square root of the Dirichlet form.

    Face-based: squared differences across every interior and
    boundary-adjacent face.  For the ball the face weight is
    omega_3 * r_j * r_{j+1} / h, the discrete surface factor that makes
    the seminorm agree with <u, -lap u> exactly.
    """
    vals = _values(mesh, u)
    if mesh.kind == "rectangle":
        # interior faces, then the boundary-adjacent ones, whose outer
        # neighbour is the zero boundary value
        hx, hy = mesh.spacing
        dx = vals[1:] - vals[:-1]
        dy = vals[:, 1:] - vals[:, :-1]
        qx = np.vdot(dx, dx) + np.vdot(vals[0], vals[0]) + np.vdot(vals[-1], vals[-1])
        qy = (np.vdot(dy, dy) + np.vdot(vals[:, 0], vals[:, 0])
              + np.vdot(vals[:, -1], vals[:, -1]))
        return float(np.sqrt(qx * hy / hx + qy * hx / hy))
    if mesh.kind == "ball":
        # origin node is interior; only the outer boundary pads with zero
        ext = np.empty(mesh.shape[0] + 1)
        ext[:-1] = vals
        ext[-1] = 0.0
    else:
        ext = np.zeros(mesh.shape[0] + 2)
        ext[1:-1] = vals
    d = np.diff(ext)
    q = np.sum(mesh.face_weights[0] * d * d)
    return float(np.sqrt(q))


def lp_norm(mesh: DomainMesh, u, q: float) -> float:
    """Quadrature L^q norm over the domain, q in [1, inf)."""
    if not q >= 1:
        raise ValueError(f"lp_norm exponent must satisfy q >= 1, got {q}")
    vals = _values(mesh, u)
    return float(np.sum(mesh.weights * np.abs(vals) ** q) ** (1.0 / q))


def sup_norm(mesh: DomainMesh, u) -> float:
    vals = _values(mesh, u)
    return float(np.max(np.abs(vals)))


def l2_inner(mesh: DomainMesh, u, v) -> float:
    """Quadrature L^2 inner product."""
    return float(np.sum(mesh.weights * _values(mesh, u) * _values(mesh, v)))


# ---------------------------------------------------------------------------
# spectral constants


# principal_eigenpair's inverse iteration (interval and ball) stops at
# 0.01 * EIGEN_TOL relative change of the Rayleigh quotient; phi1 is then
# only accurate to about the square root of that test, ~1e-7 in sup norm
EIGEN_TOL = 1e-10
EIGEN_MAX_ITER = 400


def principal_eigenpair(mesh: DomainMesh):
    """First Dirichlet eigenvalue and a positive eigenfunction, sup norm 1.

    On a rectangle both are exact to round-off: the first columns of the
    cached sine basis (``sine_poisson``) give the discrete mode
    sin(pi x/Lx) sin(pi y/Ly) at the nodes, with eigenvalue
    mu_x[0] + mu_y[0].

    Intervals and balls use inverse power iteration with Rayleigh-quotient
    estimates; the eigenvalue converges at the square of the eigenvector
    rate.  Fixed tolerance: successive estimates agree to 1e-12 relative,
    within 400 sweeps.  So the eigenvalue is accurate to about 1e-12 but
    phi1 only to about the square root of that test, ~1e-7 in sup norm.
    phi1 only seeds iterates, where that does no harm.
    """
    if mesh.kind == "rectangle":
        basis = sine_poisson(mesh)
        phi = np.outer(basis.Qx[:, 0], basis.Qy[:, 0])
        return float(basis.lam[0, 0]), GridFunction(mesh, phi / np.max(phi))
    v = np.ones(mesh.shape)
    lam = 0.0
    for _ in range(EIGEN_MAX_ITER):
        w = poisson_solve(mesh, v).values
        w /= np.max(np.abs(w))
        Lw = laplacian_apply(mesh, GridFunction(mesh, w)).values
        num = np.sum(mesh.weights * w * Lw)
        den = np.sum(mesh.weights * w * w)
        lam_new = num / den
        settled = lam > 0.0 and abs(lam_new - lam) <= 0.01 * EIGEN_TOL * lam_new
        lam, v = lam_new, w
        if settled:
            break
    else:
        raise ConvergenceError("inverse power iteration did not settle")
    phi = v if v.flat[np.argmax(np.abs(v))] > 0 else -v
    phi = phi / np.max(np.abs(phi))
    return float(lam), GridFunction(mesh, phi)
