"""Builtin forcing profiles.

Each builder returns a :class:`Forcing` bundling the nodal field with the
underlying coordinate callable: ``fn(x)`` on an interval, ``fn(x, y)`` on
a rectangle, ``fn(r)`` on a ball.  The callable form is what the shooting
integrator samples between nodes, and the x.grad(f) term of the scaling
identity check is derived from it by a complex step
(``verify.xdot_grad_values``), so every callable must accept complex
coordinates and keep their imaginary part.

Builtins:

* ``constant c``
* ``eigenmode [amp]``        -- first Dirichlet mode shape
* ``quartic-signchanging``   -- forcing whose Poisson witness is the
  quartic bump (x(L-x))^2 (tensorized analog in 2-d, (R^2-r^2)^2 in the
  ball); negative near the boundary yet still witness-positive
* ``file PATH``              -- whitespace-separated nodal values
"""

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ConfigError
from .mesh import DomainMesh, GridFunction


@dataclass(frozen=True)
class Forcing:
    name: str
    field: GridFunction
    fn: object | None = None  # callable in mesh coordinates, None for file data


def constant_forcing(mesh: DomainMesh, value: float = 1.0) -> Forcing:
    value = float(value)
    fn = lambda *xs: value + 0.0 * xs[0]
    return Forcing(f"constant {value:g}", mesh.field_from_callable(fn), fn)


def _mode_profile(x, a):
    """sin(a x)/(a x) with the removable singularity filled in."""
    ax = a * np.asarray(x)
    out = np.empty_like(ax)
    small = np.abs(ax) < 1e-6
    out[~small] = np.sin(ax[~small]) / ax[~small]
    out[small] = 1.0 - ax[small] ** 2 / 6.0
    return out


def eigenmode_forcing(mesh: DomainMesh, amp: float = 1.0) -> Forcing:
    amp = float(amp)
    if mesh.kind == "ball":
        a = np.pi / mesh.extents[0]
        fn = lambda r: amp * _mode_profile(r, a)
    else:
        fn = lambda *xs: math.prod(
            (np.sin(np.pi / L * x) for x, L in zip(xs, mesh.extents)), start=amp)
    return Forcing("eigenmode", mesh.field_from_callable(fn), fn)


def quartic_forcing(mesh: DomainMesh) -> Forcing:
    """Sign-changing forcing with the quartic bump as Poisson witness."""
    if mesh.kind == "ball":
        R = mesh.extents[0]
        fn = lambda r: 12.0 * R**2 - 20.0 * r**2
        return Forcing("quartic-signchanging", mesh.field_from_callable(fn), fn)

    def w(s, L):
        return (s * (L - s)) ** 2

    def q(s, L):  # -w''
        return -2.0 * L**2 + 12.0 * L * s - 12.0 * s**2

    def fn(*xs):  # sum over axes i of q(x_i) * prod_{j != i} w(x_j)
        return sum(math.prod((q if j == i else w)(xj, L)
                             for j, (xj, L) in enumerate(zip(xs, mesh.extents)))
                   for i in range(len(xs)))
    return Forcing("quartic-signchanging", mesh.field_from_callable(fn), fn)


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
