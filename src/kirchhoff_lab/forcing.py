"""Builtin forcing profiles.

Each builder returns a :class:`Forcing` bundling the nodal field with the
underlying coordinate callable and its spatial derivative.  The callable
form is what the shooting integrator samples between nodes, and the
derivative feeds the x.grad(f) term of the scaling identity check.

Builtins:

* ``constant c``
* ``eigenmode [amp]``        -- first Dirichlet mode shape
* ``quartic-signchanging``   -- forcing whose Poisson witness is the
  quartic bump (x(L-x))^2 (tensorized analog in 2-d, (R^2-r^2)^2 in the
  ball); negative near the boundary yet still witness-positive
* ``file PATH``              -- whitespace-separated nodal values
"""

from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .mesh import DomainMesh, GridFunction


@dataclass(frozen=True)
class Forcing:
    name: str
    field: GridFunction
    fn: object | None = None  # callable in mesh coordinates, None for file data
    grad: object | None = None  # f'(x) / (f_x, f_y) / f'(r) as matching callable


def _origin(mesh: DomainMesh):
    if mesh.kind == "interval":
        return (-0.5 * mesh.extents[0],) if mesh.centered else (0.0,)
    if mesh.kind == "rectangle":
        if mesh.centered:
            return (-0.5 * mesh.extents[0], -0.5 * mesh.extents[1])
        return (0.0, 0.0)
    return (0.0,)


def constant_forcing(mesh: DomainMesh, value: float = 1.0) -> Forcing:
    value = float(value)
    if mesh.kind == "rectangle":
        fn = lambda x, y: np.full_like(np.asarray(x, dtype=float), value)
        grad = lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),) * 2
    else:
        fn = lambda x: np.full_like(np.asarray(x, dtype=float), value)
        grad = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return Forcing(f"constant {value:g}", mesh.field_from_callable(fn), fn, grad)


def _mode_profile(x, a):
    """sin(a x)/(a x) with the removable singularity filled in."""
    x = np.asarray(x, dtype=float)
    ax = a * x
    out = np.empty_like(ax)
    small = np.abs(ax) < 1e-6
    out[~small] = np.sin(ax[~small]) / ax[~small]
    out[small] = 1.0 - ax[small] ** 2 / 6.0
    return out


def _mode_profile_deriv(r, a):
    r = np.asarray(r, dtype=float)
    ar = a * r
    out = np.empty_like(ar)
    small = np.abs(ar) < 1e-6
    rs = r[~small]
    out[~small] = (ar[~small] * np.cos(ar[~small]) - np.sin(ar[~small])) / (a * rs**2)
    out[small] = -(a**2) * r[small] / 3.0
    return out


def eigenmode_forcing(mesh: DomainMesh, amp: float = 1.0) -> Forcing:
    amp = float(amp)
    if mesh.kind == "interval":
        L = mesh.extents[0]
        (x0,) = _origin(mesh)
        k = np.pi / L
        fn = lambda x: amp * np.sin(k * (x - x0))
        grad = lambda x: amp * k * np.cos(k * (x - x0))
    elif mesh.kind == "rectangle":
        Lx, Ly = mesh.extents
        x0, y0 = _origin(mesh)
        kx, ky = np.pi / Lx, np.pi / Ly
        fn = lambda x, y: amp * np.sin(kx * (x - x0)) * np.sin(ky * (y - y0))
        grad = lambda x, y: (
            amp * kx * np.cos(kx * (x - x0)) * np.sin(ky * (y - y0)),
            amp * ky * np.sin(kx * (x - x0)) * np.cos(ky * (y - y0)),
        )
    else:
        R = mesh.extents[0]
        a = np.pi / R
        fn = lambda r: amp * _mode_profile(r, a)
        grad = lambda r: amp * _mode_profile_deriv(r, a)
    return Forcing("eigenmode", mesh.field_from_callable(fn), fn, grad)


def quartic_forcing(mesh: DomainMesh) -> Forcing:
    """Sign-changing forcing with the quartic bump as Poisson witness."""
    if mesh.kind == "interval":
        L = mesh.extents[0]
        (x0,) = _origin(mesh)
        fn = lambda x: -2.0 * L**2 + 12.0 * L * (x - x0) - 12.0 * (x - x0) ** 2
        grad = lambda x: 12.0 * L - 24.0 * (x - x0)
    elif mesh.kind == "rectangle":
        Lx, Ly = mesh.extents
        x0, y0 = _origin(mesh)

        def w(s, L):
            return (s * (L - s)) ** 2

        def wp(s, L):
            return 2.0 * s * (L - s) * (L - 2.0 * s)

        def q(s, L):
            return -2.0 * L**2 + 12.0 * L * s - 12.0 * s**2

        def qp(s, L):
            return 12.0 * L - 24.0 * s

        fn = lambda x, y: q(x - x0, Lx) * w(y - y0, Ly) + w(x - x0, Lx) * q(y - y0, Ly)
        grad = lambda x, y: (
            qp(x - x0, Lx) * w(y - y0, Ly) + wp(x - x0, Lx) * q(y - y0, Ly),
            q(x - x0, Lx) * wp(y - y0, Ly) + w(x - x0, Lx) * qp(y - y0, Ly),
        )
    else:
        R = mesh.extents[0]
        fn = lambda r: 12.0 * R**2 - 20.0 * r**2
        grad = lambda r: -40.0 * r
    return Forcing("quartic-signchanging", mesh.field_from_callable(fn), fn, grad)


def file_forcing(mesh: DomainMesh, path: str) -> Forcing:
    try:
        raw = np.loadtxt(path, dtype=float).ravel()
    except OSError as exc:
        raise ConfigError(f"cannot read forcing file {path}: {exc}") from None
    if raw.size != mesh.ndof:
        raise ConfigError(
            f"forcing file {path} holds {raw.size} values, mesh needs {mesh.ndof}"
        )
    return Forcing(f"file {path}", GridFunction(mesh, raw.reshape(mesh.shape)))


# builtin name -> how many arguments its spec may carry
_MAX_ARGS = {"constant": 1, "eigenmode": 1, "quartic-signchanging": 0, "file": 1}


def make_forcing(mesh: DomainMesh, spec: str) -> Forcing:
    """Parse a forcing spec string: builtin name plus optional arguments."""
    parts = spec.split()
    if not parts:
        raise ConfigError("empty forcing spec")
    name, args = parts[0], parts[1:]
    if name not in _MAX_ARGS:
        raise ConfigError(f"unknown forcing {name!r}")
    if len(args) > _MAX_ARGS[name]:
        raise ConfigError(f"forcing {spec!r}: {name} takes at most "
                          f"{_MAX_ARGS[name]} argument(s), got {len(args)}")
    if name == "constant":
        return constant_forcing(mesh, float(args[0]) if args else 1.0)
    if name == "eigenmode":
        return eigenmode_forcing(mesh, float(args[0]) if args else 1.0)
    if name == "quartic-signchanging":
        return quartic_forcing(mesh)
    if not args:
        raise ConfigError("file forcing needs a path")
    return file_forcing(mesh, args[0])
