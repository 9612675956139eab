"""Builtin forcings against the equations they are built to satisfy.

Oracles used here:
* the ball eigenmode sin(pi r)/(pi r) is the first Dirichlet eigenfunction
  of the unit 3-ball, -lap f = pi^2 f, so the discrete defect must fall
  at the stencil's O(h^2),
* the rectangle quartic forcing is -lap of the tensor bump
  w = (x(Lx - x))^2 (y(Ly - y))^2, so the discrete -lap w - f must fall
  at O(h^2) too.
"""

import numpy as np

from kirchhoff_lab.forcing import make_forcing
from kirchhoff_lab.mesh import build_mesh, laplacian_apply


def _assert_second_order(defects):
    # halving h divides an O(h^2) defect by about 4
    for coarse, fine in zip(defects, defects[1:]):
        assert 3.5 <= coarse / fine <= 5.5, defects


def test_ball_eigenmode_is_the_first_eigenfunction():
    defects = []
    for n in (33, 65, 129):
        mesh = build_mesh("ball", 1.0, n)
        f = make_forcing(mesh, "eigenmode").field
        lap = laplacian_apply(mesh, f).values
        defects.append(float(np.max(np.abs(lap - np.pi**2 * f.values))))
    assert defects[0] < 1e-2
    _assert_second_order(defects)


def test_rectangle_quartic_is_minus_laplacian_of_the_bump():
    defects = []
    for res in ((17, 33), (33, 65), (65, 129)):
        mesh = build_mesh("rectangle", (1.0, 2.0), res)
        f = make_forcing(mesh, "quartic-signchanging").field.values
        x, y = mesh.nodes
        w = (x * (1.0 - x)) ** 2 * (y * (2.0 - y)) ** 2
        lap = laplacian_apply(mesh, w).values
        defects.append(float(np.max(np.abs(lap - f)) / np.max(np.abs(f))))
    assert defects[0] < 1e-2
    _assert_second_order(defects)
