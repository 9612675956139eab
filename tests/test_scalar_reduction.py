"""Scalar root equation and the exact change-of-variables reductions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhoff_lab.exceptions import NonMemberError
from kirchhoff_lab.forcing import constant_forcing, quartic_forcing
from kirchhoff_lab.mesh import (
    build_mesh,
    h1_seminorm,
    laplacian_apply,
    poisson_solve,
    sup_norm,
)
from kirchhoff_lab.problem import ProblemParams
from kirchhoff_lab.scalar_reduction import (
    consistency_root,
    kirchhoff_linear_solve,
    picard_rescale,
    rescale_to_semilinear,
    solve_h_root,
)


def test_h_root_hand_values():
    # b=1, alpha=1/2: y + sqrt(y) = 2 at y = 1
    assert solve_h_root(1.0, 0.5, 2.0) == pytest.approx(1.0, abs=1e-12)
    # b=2, alpha=1/2: 2y + sqrt(y) = 6 at y = 9/4
    assert solve_h_root(2.0, 0.5, 6.0) == pytest.approx(2.25, abs=1e-12)


def test_h_root_zero_rhs():
    assert solve_h_root(3.0, 1.0, 0.0) == 0.0


def test_h_root_rejects_negative_rhs():
    with pytest.raises(ValueError):
        solve_h_root(1.0, 1.0, -1.0)


@given(
    b=st.floats(1e-6, 1e6),
    alpha=st.floats(0.05, 3.0),
    c=st.floats(1e-12, 1e9),
)
@settings(max_examples=200, deadline=None)
def test_h_root_residual_and_uniqueness(b, alpha, c):
    y = solve_h_root(b, alpha, c)
    assert y >= 0.0
    res = b * y ** (alpha + 0.5) + np.sqrt(y) - c
    assert abs(res) <= 1e-13 * max(1.0, c)


@given(
    b=st.floats(1e-3, 1e3),
    alpha=st.floats(0.1, 2.0),
    c1=st.floats(1e-6, 1e6),
    factor=st.floats(1.5, 100.0),
)
@settings(max_examples=100, deadline=None)
def test_h_root_monotone_in_c(b, alpha, c1, factor):
    y1 = solve_h_root(b, alpha, c1)
    y2 = solve_h_root(b, alpha, c1 * factor)
    assert y2 > y1


# ---------------------------------------------------------------------------
# linear comparison solve


@pytest.fixture(scope="module")
def interval():
    return build_mesh("interval", 1.0, 129)


def _residual(mesh, params, u):
    K = h1_seminorm(mesh, u) ** 2
    coeff = 1.0 + params.b * K**params.alpha
    res = coeff * laplacian_apply(mesh, u).values - params.lam * params.f.values
    return np.max(np.abs(res))


def test_linear_solve_residual_and_seminorm(interval):
    f = constant_forcing(interval).field
    params = ProblemParams(b=2.0, alpha=1.0, p=2.0, lam=3.0, f=f)
    u = kirchhoff_linear_solve(interval, params)
    assert np.min(u.values) > 0
    scale = max(1.0, params.lam * sup_norm(interval, f))
    assert _residual(interval, params, u) <= 1e-10 * scale
    # the seminorm equals the scalar root by construction
    y = h1_seminorm(interval, u) ** 2
    c = params.lam * h1_seminorm(interval, poisson_solve(interval, f))
    assert params.b * y ** (params.alpha + 0.5) + np.sqrt(y) == pytest.approx(c, rel=1e-12)


def test_linear_solve_inverse_map(interval):
    # (1 + b |grad u|^{2 alpha}) u / lambda must hand back the Poisson witness
    f = quartic_forcing(interval).field
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=2.0, f=f)
    u = kirchhoff_linear_solve(interval, params)
    t = h1_seminorm(interval, u) ** (2 * params.alpha)
    v = ((1.0 + params.b * t) / params.lam) * u
    res = laplacian_apply(interval, v) - f
    assert sup_norm(interval, res) <= 1e-9 * max(1.0, sup_norm(interval, f))


def test_linear_solve_refuses_nonmember(interval):
    f = constant_forcing(interval, -1.0).field
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=f)
    with pytest.raises(NonMemberError):
        kirchhoff_linear_solve(interval, params)


def test_linear_solve_needs_positive_lambda(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0,
                           f=constant_forcing(interval).field)
    with pytest.raises(ValueError):
        kirchhoff_linear_solve(interval, params)


# ---------------------------------------------------------------------------
# rescalings


def test_picard_rescale_exactness(interval):
    rng = np.random.default_rng(5)
    params = ProblemParams(b=0.7, alpha=1.3, p=2.0, lam=0.0)
    rhs = np.abs(rng.standard_normal(interval.shape)) + 0.1
    w = poisson_solve(interval, rhs)
    u = picard_rescale(interval, params, w)
    K = h1_seminorm(interval, u) ** 2
    coeff = 1.0 + params.b * K**params.alpha
    res = coeff * laplacian_apply(interval, u).values - rhs
    assert np.max(np.abs(res)) <= 1e-10 * np.max(rhs)


def test_rescale_to_semilinear_on_solution(interval):
    # manufactured: pick u, define f so u solves the nonlocal equation with
    # lam=1, then check v solves the semilinear one with the effective lambda
    x = interval.coords[0]
    from kirchhoff_lab.mesh import GridFunction

    u = GridFunction(interval, np.sin(np.pi * x) * 0.8)
    p_exp = 2.5
    K = h1_seminorm(interval, u) ** 2
    b, alpha = 1.4, 0.8
    coeff = 1.0 + b * K**alpha
    fvals = coeff * laplacian_apply(interval, u).values - np.maximum(u.values, 0) ** p_exp
    params = ProblemParams(b=b, alpha=alpha, p=p_exp, lam=1.0,
                           f=GridFunction(interval, fvals))
    v, eff_lam = rescale_to_semilinear(interval, params, u)
    res = (
        laplacian_apply(interval, v).values
        - np.maximum(v.values, 0.0) ** p_exp
        - eff_lam * fvals
    )
    assert np.max(np.abs(res)) <= 1e-10 * max(1.0, np.max(np.abs(fvals)))
    # scaling direction: the effective amplitude never exceeds the original
    assert 0 < eff_lam <= params.lam


@pytest.mark.parametrize("G, alpha, p, b, exists", [
    (1.0, 1.0, 2.0, 0.2, True),    # beta = 2, root below t*
    (1.0, 1.0, 2.0, 0.6, False),   # beta = 2, slope0 = beta b G >= 1
    (1.0, 1.0, 2.0, 0.3, False),   # beta = 2, slope0 < 1 but zeta(t*) > 0
    (1.0, 1.0, 4.0, 1.0, True),    # beta = 2/3: zeta eventually negative
])
def test_consistency_root_matches_scan(G, alpha, p, b, exists):
    beta = 2.0 * alpha / (p - 1.0)
    t = np.linspace(0.0, 100.0, 1_000_001)
    zeta = (1.0 + b * t) ** beta * G - t
    root = consistency_root(G, beta, b)
    if not exists:
        assert root is None
        assert np.all(zeta > 0.0)
        return
    i = int(np.argmax(zeta <= 0.0))  # first scan node at or past the root
    assert i > 0 and t[i - 1] <= root <= t[i]
    assert abs((1.0 + b * root) ** beta * G - root) <= 1e-12 * max(1.0, root)


@pytest.mark.parametrize("G, beta, b, expect", [
    (1.0, -2.0, 1.0, 0.465571231876768),  # t (1 + t)^2 = 1: t^3 + 2t^2 + t - 1
    (2.0, -1.0, 0.5, math.sqrt(5.0) - 1.0),  # t (1 + t/2) = 2: t^2 + 2t - 4
])
def test_consistency_root_negative_beta_known_answers(G, beta, b, expect):
    # beta < 0 is the shooting oracle's linear-response outer step; zeta
    # falls from G > 0, so its one root lies in (0, G]
    assert consistency_root(G, beta, b) == pytest.approx(expect, abs=1e-14)
