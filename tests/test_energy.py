"""Energy breakdown, gradient fidelity against finite differences, floor."""

import numpy as np
import pytest

from kirchhoff_lab.constants import sobolev_minimizer
from kirchhoff_lab.energy import energy_eval, energy_gradient
from kirchhoff_lab.forcing import constant_forcing, quartic_forcing
from kirchhoff_lab.mesh import (
    GridFunction,
    build_mesh,
    h1_seminorm,
    l2_inner,
    lp_norm,
    principal_eigenpair,
)
from kirchhoff_lab.problem import ProblemParams
from kirchhoff_lab.scalar_reduction import kirchhoff_linear_solve
from kirchhoff_lab.solvers import SolverConfig, descent_minimize


@pytest.fixture(scope="module")
def interval():
    return build_mesh("interval", 1.0, 65)


def test_energy_zero_field(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=constant_forcing(interval).field)
    e = energy_eval(interval, params, interval.zeros())
    assert e.total == 0.0
    assert e.dirichlet == e.nonlocal_term == e.potential == e.forcing == 0.0


def test_energy_negative_part_ignored(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    u = GridFunction(interval, -np.abs(np.sin(3 * interval.coords[0])) - 0.1)
    e = energy_eval(interval, params, u)
    assert e.potential == 0.0
    assert e.total > 0.0


def test_energy_of_comparison_witness_matches_identity(interval):
    # if phi solves the linear comparison problem, the forcing pairing can
    # be eliminated: total = -1/2 K - b(2a+1)/(2a+2) K^{a+1} - |phi|^{p+1}/(p+1)
    f = quartic_forcing(interval).field
    params = ProblemParams(b=1.5, alpha=1.0, p=2.0, lam=4.0, f=f)
    phi = kirchhoff_linear_solve(interval, params)
    e = energy_eval(interval, params, phi)
    K = h1_seminorm(interval, phi) ** 2
    a = params.alpha
    expect = (
        -0.5 * K
        - params.b * (2 * a + 1) / (2 * a + 2) * K ** (a + 1)
        - e.potential
    )
    assert e.total == pytest.approx(expect, rel=1e-10)
    assert e.total < 0


def _fd_directional(mesh, params, u, v, eps=1e-5):
    ep = energy_eval(mesh, params, GridFunction(mesh, u.values + eps * v.values)).total
    em = energy_eval(mesh, params, GridFunction(mesh, u.values - eps * v.values)).total
    return (ep - em) / (2 * eps)


@pytest.mark.parametrize("mesh_kind", ["interval", "rectangle", "ball"])
def test_gradient_matches_finite_differences(mesh_kind):
    if mesh_kind == "interval":
        mesh = build_mesh("interval", 1.0, 65)
    elif mesh_kind == "rectangle":
        mesh = build_mesh("rectangle", (1.0, 1.0), (13, 13))
    else:
        mesh = build_mesh("ball", 1.0, 33)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=constant_forcing(mesh).field)
    rng = np.random.default_rng(17)
    for _ in range(5):
        # keep nodal values away from the u_+ kink
        raw = rng.standard_normal(mesh.shape)
        u = GridFunction(mesh, np.sign(raw) * (np.abs(raw) + 0.05))
        v = GridFunction(mesh, rng.standard_normal(mesh.shape))
        fd = _fd_directional(mesh, params, u, v)
        gv = l2_inner(mesh, energy_gradient(mesh, params, u), v)
        assert abs(fd - gv) <= 1e-6 * max(abs(fd), abs(gv), 1e-12)


def _energy_floor(mesh, params):
    # regime A's uniform floor, from the embedding inequality
    # |u|_{p+1}^{p+1} <= C |grad u|^{p+1} with C = S^{-(p+1)/2} and the
    # Poincare inequality; both hold exactly for the discrete constants:
    #   I(u) >= -gamma / (2(alpha+1)(p+1)) (C^{2(alpha+1)} / b^{p+1})^{1/gamma}
    #           - lambda^2 |f|_2^2 / lambda1
    p, alpha, b = params.p, params.alpha, params.b
    gamma = 2.0 * alpha + 1.0 - p
    assert gamma > 0
    S, _ = sobolev_minimizer(mesh, p)
    lam1, _ = principal_eigenpair(mesh)
    C = S ** (-(p + 1.0) / 2.0)
    bulk = -gamma / (2.0 * (alpha + 1.0) * (p + 1.0)) * (
        C ** (2.0 * (alpha + 1.0)) / b ** (p + 1.0)) ** (1.0 / gamma)
    return bulk - params.lam**2 * lp_norm(mesh, params.f, 2.0) ** 2 / lam1


def test_energy_floor_over_random_fields(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=2.0,
                           f=constant_forcing(interval).field)
    floor = _energy_floor(interval, params)
    assert floor < 0
    out = descent_minimize(interval, params, SolverConfig())
    assert out.converged
    assert out.energy.total >= floor
    rng = np.random.default_rng(4)
    for _ in range(200):
        vals = rng.standard_normal(interval.shape) * rng.uniform(0.1, 3.0)
        u = GridFunction(interval, vals)
        s = h1_seminorm(interval, u)
        if s > 10.0:
            u = (10.0 / s * rng.uniform(0.2, 1.0)) * u
        assert energy_eval(interval, params, u).total >= floor - 1e-12


def test_energy_coercive_along_eigen_ray(interval):
    # regime A: the nonlocal term dominates the potential, so the energy
    # blows up along every ray; checked on t*phi1 for large t
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=constant_forcing(interval).field)
    _, phi = principal_eigenpair(interval)
    ts = np.linspace(50.0, 100.0, 11)
    vals = [energy_eval(interval, params, float(t) * phi).total for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e4
