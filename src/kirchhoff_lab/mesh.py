"""Uniform Dirichlet grids and the discrete operators living on them.

Supported geometries:

* ``interval``  -- (0, L) or, with ``centered=True``, (-L/2, L/2)
* ``rectangle`` -- (0, Lx) x (0, Ly), optionally centered the same way
* ``ball``      -- radial profiles on the 3-d ball of radius R; nodes sit
  at r_j = j*h including the origin, with the symmetry condition u'(0)=0
  folded into the origin row of the operator.

Outside the stencils the interval and the rectangle are one box
geometry: the box with lower corner ``origin`` and side lengths
``extents``.  ``nodes`` gives the interior coordinates as one array per
axis, broadcast to the field shape (the radius r for a ball).

Grid functions store interior nodal values only; the zero boundary value
is implicit.  The minus-Laplacian uses second-order central differences.
In the radial case the operator is u'' + ((N-1)/r) u' with the origin row
replaced by its symmetric limit N*u''(0) (ghost node u(-h)=u(h)).  With
the node weights w_j = omega_N r_j^{N-1} h this discretization is exactly
self-adjoint and its Dirichlet form matches ``h1_seminorm`` to rounding,
which the solvers rely on when they differentiate the energy.

Linear solves are direct: Thomas elimination on the tridiagonal 1-D
operators, block-tridiagonal LU over the x-rows on rectangles
(``rectangle_blocks``), so no rectangle matrix is ever assembled.

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
    the same object, which keeps grid functions unambiguous and lets
    downstream caches key on the mesh itself.

    An interval or rectangle is the box ``origin + [0, extents]``; a ball
    has radius ``extents[0]`` and origin (0.0,).  ``nodes`` holds the
    interior coordinates per axis at full field shape, the arguments a
    coordinate callable ``fn(*nodes)`` receives.
    """

    kind: str
    dim: int
    h: float
    spacing: tuple  # per axis: (hx, hy) for a rectangle, (h,) otherwise
    extents: tuple
    origin: tuple  # lower box corner, (x0,) or (x0, y0); (0.0,) for a ball
    shape: tuple  # interior node count per axis
    coords: tuple  # interior coordinate arrays, one per axis (r for ball)
    weights: np.ndarray  # quadrature weights, same shape as nodal values
    # tridiagonal minus-Laplacian rows (interval/ball), None for rectangle
    stencil: tuple | None = field(default=None, repr=False)
    face_weights: tuple | None = field(default=None, repr=False)

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


def build_mesh(kind: str, extents, resolution, centered: bool = False) -> DomainMesh:
    """Construct a uniform mesh.

    Parameters
    ----------
    kind : 'interval' | 'rectangle' | 'ball'
    extents : length L, pair (Lx, Ly), or ball radius R
    resolution : total node count per axis, boundary nodes included
    centered : place the interval/rectangle symmetrically about the origin
    """
    if kind == "interval":
        L = float(extents if np.isscalar(extents) else extents[0])
        n = int(resolution if np.isscalar(resolution) else resolution[0])
        _check_axis(L, n)
        h = L / (n - 1)
        x0 = -0.5 * L if centered else 0.0
        xs = x0 + h * np.arange(1, n - 1)
        m = n - 2
        weights = np.full(m, h)
        inv_h2 = 1.0 / (h * h)
        sub = np.full(m, -inv_h2)
        diag = np.full(m, 2.0 * inv_h2)
        sup = np.full(m, -inv_h2)
        face_w = np.full(m + 1, 1.0 / h)
        return DomainMesh(
            kind, 1, h, (h,), (L,), (x0,), (m,), (xs,), weights,
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
        x0 = -0.5 * Lx if centered else 0.0
        y0 = -0.5 * Ly if centered else 0.0
        xs = x0 + hx * np.arange(1, nx - 1)
        ys = y0 + hy * np.arange(1, ny - 1)
        shape = (nx - 2, ny - 2)
        weights = np.full(shape, hx * hy)
        return DomainMesh(
            kind, 2, max(hx, hy), (hx, hy), (Lx, Ly), (x0, y0), shape, (xs, ys),
            weights,
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
            kind, 3, h, (h,), (R,), (0.0,), (m,), (r,), weights,
            stencil=(sub, diag, sup), face_weights=(face_w,),
        )

    raise MeshError(f"unsupported mesh kind {kind!r}")


def _check_axis(L: float, n: int):
    if not L > 0:
        raise MeshError(f"domain extent must be positive, got {L}")
    if n < 4:
        raise MeshError(f"need at least 4 nodes per axis, got {n}")


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


def poisson_solve(mesh: DomainMesh, rhs) -> GridFunction:
    """Solve minus-Laplacian u = rhs exactly (up to round-off).

    Tridiagonal elimination for interval/ball meshes; block-tridiagonal
    LU over the x-rows (``rectangle_blocks``) for rectangles.
    """
    vals = _values(mesh, rhs)
    if mesh.kind == "rectangle":
        T, c = rectangle_blocks(mesh)
        x = _kernels.block_tridiag_solve(T, c, np.zeros(mesh.shape), vals[..., None])
        return GridFunction(mesh, x[..., 0])
    sub, diag, sup = mesh.stencil
    x = np.empty_like(vals)
    _kernels.thomas_solve(sub, diag, sup, vals, x)
    return GridFunction(mesh, x)


def rectangle_blocks(mesh: DomainMesh):
    """The rectangle's 5-point minus-Laplacian in block-tridiagonal form.

    Returns ``(T, c)``.  With the unknowns ordered like ``values.ravel()``,
    block i is the x-row i, whose my nodes couple along y through the
    (my, my) tridiagonal block T; neighbouring rows couple through c*I.
    """
    hx, hy = mesh.spacing
    ihx2, ihy2 = 1.0 / hx**2, 1.0 / hy**2
    my = mesh.shape[1]
    T = ((2.0 * ihx2 + 2.0 * ihy2) * np.eye(my)
         - ihy2 * (np.eye(my, k=1) + np.eye(my, k=-1)))
    return T, -ihx2


def dense_operator(mesh: DomainMesh) -> np.ndarray:
    """Assemble the tridiagonal minus-Laplacian of an interval or ball as a
    dense matrix.  Rectangles have no dense form here: their solves go
    through ``rectangle_blocks``."""
    if mesh.kind == "rectangle":
        raise MeshError("dense_operator covers interval and ball meshes only")
    sub, diag, sup = mesh.stencil
    return np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)


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
        mx, my = mesh.shape
        hx, hy = mesh.spacing
        px = np.zeros((mx + 2, my))
        px[1:-1, :] = vals
        py = np.zeros((mx, my + 2))
        py[:, 1:-1] = vals
        dx = np.diff(px, axis=0)
        dy = np.diff(py, axis=1)
        q = np.sum(dx * dx) * hy / hx + np.sum(dy * dy) * hx / hy
        return float(np.sqrt(q))
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


EIGEN_TOL = 1e-10  # principal_eigenpair stops at 0.01 * EIGEN_TOL relative change
EIGEN_MAX_ITER = 400
SOBOLEV_TOL = 1e-8  # sobolev_minimizer's weighted-l2 gradient norm target
SOBOLEV_MAX_ITER = 200000


def principal_eigenpair(mesh: DomainMesh):
    """First Dirichlet eigenvalue and a positive eigenfunction, sup norm 1.

    Inverse power iteration with Rayleigh-quotient estimates; the
    eigenvalue converges at the square of the eigenvector rate.  Fixed
    tolerance: successive estimates agree to 1e-12 relative, within 400 sweeps.
    """
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


def sobolev_minimizer(mesh: DomainMesh, p: float):
    """Minimize the embedding quotient |grad u|_2^2 / |u|_{p+1}^2.

    Returns ``(S, u)`` with u normalized to unit L^{p+1} norm, satisfying
    the stationarity equation (-lap u) = S |u|^{p-1} u to a weighted-l2
    gradient norm of 1e-8 * max(1, S), within 200000 sweeps.  Normalized
    inverse iteration from phi1: each sweep solves the Poisson problem
    with |u|^{p-1} u on the right and rescales.
    The discrete quotient is mesh-dependent; downstream constants use the
    mesh value everywhere.
    """
    if not p >= 1:
        raise ValueError(f"embedding exponent must satisfy p >= 1, got {p}")
    _, phi = principal_eigenpair(mesh)
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


def sobolev_constant(mesh: DomainMesh, p: float) -> float:
    """Discrete best constant of the H1_0 -> L^{p+1} embedding quotient."""
    S, _ = sobolev_minimizer(mesh, p)
    return S
