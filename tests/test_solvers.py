"""Solver suite tests: barrier, Picard, Newton, descent, mountain pass.

Oracles used here:
* the torsion manufactured solution (exact discrete fixed point of Newton),
* closed-form barrier ladder values on intervals of length 1 and 4,
* the small-sphere energy floor E0, checked against random fields on the
  rho0 sphere,
* the linear comparison witness, which bounds descent energies from above,
* the RK4 unforced shooting profile, against which the scaled embedding
  minimizer that starts the mountain-pass search is checked.
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from kirchhoff_lab import constants, solvers
from kirchhoff_lab.energy import energy_eval, energy_gradient
from kirchhoff_lab.exceptions import (
    BarrierError,
    ConvergenceError,
    MeshMismatchError,
    NonMemberError,
    RegimeError,
)
from kirchhoff_lab.forcing import make_forcing
from kirchhoff_lab.mesh import (
    GridFunction,
    build_mesh,
    h1_seminorm,
    laplacian_apply,
    lp_norm,
    sup_norm,
)
from kirchhoff_lab.problem import ProblemParams, compute_b0, forcing_values
from kirchhoff_lab.scalar_reduction import kirchhoff_linear_solve
from kirchhoff_lab.solvers import (
    SolverConfig,
    battery,
    build_barrier,
    classify_positivity,
    descent_minimize,
    distinct_positive,
    mountain_pass_geometry,
    mountain_pass_search,
    multi_start,
    newton_nonlocal,
    picard_iterate,
)
from kirchhoff_lab.verify import homogeneous_shooting


@pytest.fixture(scope="module")
def interval():
    return build_mesh("interval", (1.0,), 65)


@pytest.fixture(scope="module")
def ball():
    return build_mesh("ball", (1.0,), 65)


def const_one(mesh):
    return make_forcing(mesh, "constant 1").field


def assert_comparison_floor(mesh, params, u, tol):
    # every converged solution with f in M dominates the scaled witness
    w = kirchhoff_linear_solve(mesh, params)
    num = 1.0 + params.b * h1_seminorm(mesh, w) ** (2.0 * params.alpha)
    den = 1.0 + params.b * h1_seminorm(mesh, u) ** (2.0 * params.alpha)
    floor = (num / den) * w.values - 10.0 * tol
    assert np.all(u.values >= floor)


# ---------------------------------------------------------------------------
# barrier


def test_barrier_unit_interval_p6(interval):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(interval))
    bar = build_barrier(interval, params)
    assert bar.M0 == 1.0
    assert params.lam < bar.M0**params.p
    assert abs(sup_norm(interval, bar.psi0) - 0.125) < 1e-14


def test_barrier_admissibility_edge(interval):
    # M0=1 needs 1 >= 0.125^6 + lambda, i.e. lambda <= 1 - 3.815e-6
    f = const_one(interval)
    ok = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.999996, f=f)
    assert build_barrier(interval, ok).M0 == 1.0
    bad = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.999997, f=f)
    with pytest.raises(BarrierError):
        build_barrier(interval, bad)


def test_barrier_ladder_descends_on_long_interval():
    # length-4 interval: sup(torsion) = 2, so M0 must shrink until the
    # quadratic term fits: first admissible rung is 0.125
    mesh = build_mesh("interval", (4.0,), 65)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.01, f=const_one(mesh))
    bar = build_barrier(mesh, params)
    assert bar.M0 == 0.125
    assert params.lam < bar.M0**params.p == 0.015625


def test_barrier_cap_semantics(interval):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=2.0, f=const_one(interval))
    with pytest.raises(BarrierError):
        build_barrier(interval, params)


def test_barrier_nodewise_domination_signchanging(interval):
    f = make_forcing(interval, "quartic-signchanging").field
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=f)
    bar = build_barrier(interval, params)
    lhs = bar.M0
    rhs = bar.psi0.values**params.p + params.lam * f.values
    assert np.all(lhs >= rhs)


# ---------------------------------------------------------------------------
# Picard


def test_picard_lambda_zero_one_step(ball):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.0)
    out = picard_iterate(ball, params, SolverConfig())
    assert out.converged
    assert out.iterations == 1
    assert out.residual == 0.0
    assert np.all(out.solution.values == 0.0)


def test_picard_regime_c_sandwich(ball):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    cfg = SolverConfig()
    out = picard_iterate(ball, params, cfg)
    assert out.converged
    assert out.positivity == "strictly-positive"
    assert out.residual <= cfg.tol
    bar = build_barrier(ball, params)
    assert np.all(out.solution.values >= 0.0)
    assert np.all(out.solution.values <= bar.psi0.values + 1e-12)
    assert_comparison_floor(ball, params, out.solution, cfg.tol)


def test_picard_regime_a_strong_damping(interval):
    # large b makes the fixed point strongly contractive at any tested lambda
    for lam in (0.5, 5.0):
        params = ProblemParams(b=50.0, alpha=1.0, p=2.0, lam=lam,
                               f=const_one(interval))
        out = picard_iterate(interval, params, SolverConfig())
        assert out.converged
        assert out.positivity == "strictly-positive"


def test_picard_stops_at_iteration_budget(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(interval))
    out = picard_iterate(interval, params, SolverConfig(max_iter=2, tol=1e-12))
    assert not out.converged
    assert out.message == "max iterations reached"
    assert out.iterations == 2


def test_picard_nonmember_forcing_raises(interval):
    f = make_forcing(interval, "constant -1").field
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=f)
    with pytest.raises(NonMemberError):
        picard_iterate(interval, params, SolverConfig())


def test_picard_above_barrier_cap_is_no_answer(ball):
    # regime C needs the barrier, and no rung M0 = 2^-k <= 1 of its ladder
    # has lambda < M0^p: Picard stops before its first sweep
    for mesh, lam in ((ball, 2.0), (build_mesh("ball", (1.0,), 33), 1e3)):
        params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=lam, f=const_one(mesh))
        out = picard_iterate(mesh, params, SolverConfig())
        assert not out.converged
        assert out.iterations == 0
        assert out.message == (f"no admissible supersolution cap for lambda={lam} "
                               "(lambda too large)")
        assert np.all(out.solution.values == 0.0)


def test_picard_reports_blow_up():
    # regime B (no barrier) at a huge forcing: the u^8 term overruns the
    # rescaling, and the third sweep passes the blow-up bound 2e10
    mesh = build_mesh("interval", (1.0,), 33)
    params = ProblemParams(b=1.0, alpha=1.0, p=8.0, lam=1e6, f=const_one(mesh))
    out = picard_iterate(mesh, params, SolverConfig())
    assert not out.converged
    assert out.message == "iterates blew up"
    assert out.iterations == 3
    assert np.all(out.solution.values == 0.0)


def test_picard_reports_escape_from_barrier_sandwich(monkeypatch):
    # regime C with the real barrier shrunk 1000-fold: the linear comparison
    # start is no longer below psi0, so the first sandwich check fails
    mesh = build_mesh("ball", (1.0,), 33)
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(mesh))
    real = solvers.build_barrier

    def shrunk(mesh, params):
        bar = real(mesh, params)
        return replace(bar, psi0=1e-3 * bar.psi0)

    monkeypatch.setattr(solvers, "build_barrier", shrunk)
    out = picard_iterate(mesh, params, SolverConfig())
    assert not out.converged
    assert out.message == "iterate escaped the barrier sandwich"
    assert out.iterations == 1


# ---------------------------------------------------------------------------
# Newton


def manufactured(mesh, b=1.0, alpha=1.0, p=2.0):
    """Forcing chosen so the torsion function is the exact discrete solution."""
    psi = constants.torsion(mesh)
    K = h1_seminorm(mesh, psi) ** 2
    coeff = 1.0 + b * K**alpha
    f = GridFunction(mesh, coeff - psi.values**p)
    return ProblemParams(b=b, alpha=alpha, p=p, lam=1.0, f=f), psi


def test_newton_zero_fixed_point(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    out = newton_nonlocal(interval, params, SolverConfig(),
                          GridFunction(interval, np.zeros(interval.shape)))
    assert out.converged
    assert out.iterations == 0
    assert np.all(out.solution.values == 0.0)


def test_newton_exact_start_keeps_solution(interval):
    params, psi = manufactured(interval)
    out = newton_nonlocal(interval, params, SolverConfig(), psi)
    assert out.converged
    assert out.iterations == 0
    assert sup_norm(interval, out.solution - psi) <= 1e-12


def test_newton_recovers_manufactured_solution(interval):
    params, psi = manufactured(interval)
    start = GridFunction(interval, 1.3 * psi.values)
    out = newton_nonlocal(interval, params, SolverConfig(tol=1e-11), start)
    assert out.converged
    assert sup_norm(interval, out.solution - psi) <= 1e-8
    assert out.positivity == "strictly-positive"


def test_newton_quadratic_tail(ball):
    # regime B: start close enough that damping never activates, then the
    # residual sequence must contract faster than a 1.5-order method
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    base = picard_iterate(ball, params, SolverConfig())
    assert base.converged
    start = GridFunction(ball, 20.0 * base.solution.values)
    out = newton_nonlocal(ball, params, SolverConfig(tol=1e-12), start)
    assert out.converged
    hist = [r for r in out.residual_history if 1e-13 < r < 1.0]
    assert len(hist) >= 3
    for rk, rnext in zip(hist, hist[1:]):
        assert rnext <= rk**1.5
        assert rnext / rk**2 <= 1.0


def test_newton_negative_start_lambda_zero(ball):
    # with u <= 0 the truncation makes the equation linear; the run must
    # land on the trivial root and be excluded from positive counts
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0)
    start = GridFunction(ball, np.full(ball.shape, -5.0))
    out = newton_nonlocal(ball, params, SolverConfig(), start)
    assert out.converged
    assert out.positivity == "zero"
    assert sup_norm(ball, out.solution) <= 1e-8


ZERO_MESHES = {"interval": ("interval", (1.0,), 65), "ball": ("ball", (1.0,), 65),
               "rectangle": ("rectangle", (1.0, 1.5), (17, 13))}


@pytest.mark.parametrize("kind", list(ZERO_MESHES))
def test_trivial_root_is_zero_whatever_its_signs(kind):
    # Newton from u = -5 at lambda = 0 lands on the trivial root; its sup
    # is far below tol sup(torsion), the smallest sup a residual tol can
    # tell from zero, so its round-off signs do not decide the label, and
    # no positive count accepts it
    mesh = build_mesh(*ZERO_MESHES[kind])
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0)
    config = SolverConfig()
    out = newton_nonlocal(mesh, params, config,
                          GridFunction(mesh, np.full(mesh.shape, -5.0)))
    assert out.converged and out.positivity == "zero"
    assert distinct_positive([out], config.tol) == []
    psi = constants.torsion(mesh).values
    scale = config.tol * float(np.max(psi))
    tiny = 1e-17 * psi + np.abs(out.solution.values)  # every round-off sign flipped up
    flipped = np.where(np.arange(psi.size).reshape(psi.shape) % 2, -tiny, tiny)
    for field in (tiny, flipped, 0.9 * scale * psi / np.max(psi)):
        assert classify_positivity(mesh, field, config.tol) == "zero"
    # unconverged (tol 0), by its own sup, and just above the scale: signs
    assert classify_positivity(mesh, tiny) == "strictly-positive"
    assert classify_positivity(mesh, flipped) == "sign-changing"
    assert classify_positivity(mesh, 1.1 * scale * psi / np.max(psi),
                               config.tol) == "strictly-positive"


def test_newton_iteration_budget_respected(interval):
    params, psi = manufactured(interval)
    start = GridFunction(interval, 3.0 * psi.values)
    out = newton_nonlocal(interval, params, SolverConfig(max_iter=1), start)
    assert not out.converged
    assert out.iterations == 1
    assert "max iterations" in out.message


def _count_residuals(monkeypatch):
    """Sup residual of every Newton residual evaluation, in call order."""
    calls = []
    pieces = solvers._newton_pieces

    def counting(mesh, params, lam_f, u):
        out = pieces(mesh, params, lam_f, u)
        calls.append(float(np.max(np.abs(out[-1]))))
        return out

    monkeypatch.setattr(solvers, "_newton_pieces", counting)
    return calls


def _trials_per_step(calls):
    # the accepted trial and the next iterate are the same field, so every
    # iterate after the first repeats the residual just before it
    starts = [0] + [i for i in range(1, len(calls)) if calls[i] == calls[i - 1]]
    return [b - a - 1 for a, b in zip(starts, starts[1:])]


def test_newton_hopeless_step_stops_at_damping_floor(monkeypatch):
    # far above the threshold no positive solution exists; the first step
    # fails every trial down to the floor 1/8, so the run ends after 1 + 4
    # residuals instead of accepting a tiny step and wandering on
    ball = build_mesh("ball", (1.0,), 17)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=1.4e7, f=const_one(ball))
    _, phi1 = constants.eigenpair(ball)
    calls = _count_residuals(monkeypatch)
    out = newton_nonlocal(ball, params, SolverConfig(tol=1e-4), phi1)
    assert not out.converged
    assert out.message.startswith("damping below floor")
    assert len(calls) <= 5


def test_newton_walks_then_stops_at_damping_floor(monkeypatch):
    # the first failed vote of the seed-42 threshold scenario: from a large
    # torsion start Newton takes a few steps above the fold, then no
    # fraction down to 1/8 helps; with a floor of 2^-10 it would creep on
    # for 7 steps and 68 residuals
    ball = build_mesh("ball", (1.0,), 65)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=13421772.8, f=const_one(ball))
    start = GridFunction(ball, 100.0 * constants.torsion(ball).values)
    calls = _count_residuals(monkeypatch)
    out = newton_nonlocal(ball, params, SolverConfig(tol=1e-4), start)
    assert not out.converged
    assert out.message.startswith("damping below floor")
    assert len(calls) <= 20


def test_newton_converges_through_damped_steps(interval, monkeypatch):
    # from -3 phi1 one step passes only at s = 1/4 (residual 12, trials
    # 216, 19.5, 6.19); the floor must leave such damped steps alone
    params = ProblemParams(b=10.0, alpha=1.0, p=2.0, lam=10.0, f=const_one(interval))
    _, phi1 = constants.eigenpair(interval)
    calls = _count_residuals(monkeypatch)
    out = newton_nonlocal(interval, params, SolverConfig(), -3.0 * phi1)
    assert out.converged
    assert out.positivity == "strictly-positive"
    trials = _trials_per_step(calls)
    assert len(trials) == out.iterations
    assert 3 in trials


def test_newton_reports_rank_one_update_degenerate(interval, monkeypatch):
    # the 1-D direct path adds the rank-one term q Lu^T, q = kappa W Lu, by
    # Sherman-Morrison; a stubbed local solve whose second column is
    # x2 = -Lu / <q, Lu> makes its denominator 1 + <q, x2> vanish
    params, psi = manufactured(interval)
    kappa = 2.0 * params.alpha * params.b  # alpha = 1: independent of K
    w = interval.weights
    solve = np.linalg.solve

    def stub(M, rhs):
        X = solve(M, rhs)
        Lu = rhs[:, 1]
        X[:, 1] = -Lu / (kappa * float(np.sum(w * Lu * Lu)))
        return X

    monkeypatch.setattr(np.linalg, "solve", stub)
    out = newton_nonlocal(interval, params, SolverConfig(),
                          GridFunction(interval, 1.3 * psi.values))
    assert not out.converged
    assert out.message == "rank-one update degenerate"
    assert out.iterations == 0


def test_newton_reports_iterates_blew_up():
    # a start of 1e14 phi1 already lies past the blow-up bound 1e12 (1 + sup
    # lambda f): the first accepted step ends the solve with the zero field
    mesh = build_mesh("interval", (1.0,), 129)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(mesh))
    _, phi1 = constants.eigenpair(mesh)
    out = newton_nonlocal(mesh, params, SolverConfig(), 1e14 * phi1)
    assert not out.converged
    assert out.message == "iterates blew up"
    assert out.iterations == 0
    assert np.all(out.solution.values == 0.0)
    assert len(out.residual_history) == 1


def test_newton_recovers_manufactured_solution_on_rectangle():
    # discrete manufactured solution on 63x63 interior nodes (3969 unknowns,
    # whose dense Jacobian alone would take 126 MB): lam f is set so that
    # coeff(u*) (-lap_h u*) - u*^p - lam f = 0 holds exactly on the grid
    mesh = build_mesh("rectangle", (1.0, 1.0), (65, 65))
    b, alpha, p = 1.0, 1.0, 2.0
    exact = mesh.field_from_callable(
        lambda x, y: 1.5 * np.sin(np.pi * x) * np.sin(np.pi * y))
    coeff = 1.0 + b * h1_seminorm(mesh, exact) ** (2.0 * alpha)
    lam_f = coeff * laplacian_apply(mesh, exact).values - exact.values**p
    params = ProblemParams(b=b, alpha=alpha, p=p, lam=1.0, f=GridFunction(mesh, lam_f))
    bump = mesh.field_from_callable(
        lambda x, y: 0.3 * np.sin(2 * np.pi * x) * np.sin(3 * np.pi * y))
    start = 0.6 * exact + bump
    out = newton_nonlocal(mesh, params, SolverConfig(tol=1e-9), start)
    assert out.converged
    assert out.iterations <= 10
    assert sup_norm(mesh, out.solution - exact) <= 1e-9
    assert out.positivity == "strictly-positive"


def test_newton_reports_singular_local_operator_on_rectangle():
    # u = c at every interior node with p = 3, alpha = 1: the potential is
    # 3c^2 everywhere and coeff = 1 + b c^2 K1, so choosing
    # c^2 = lam21 / (3 - b K1 lam21) makes the local part coeff*(-lap - lam21),
    # singular along the discrete mode phi21, odd in x.  -lap u is even in
    # x, so the rank-one term cannot reach phi21 and the whole Jacobian
    # stays singular; the forcing lam*phi21 puts -F outside its range.
    mesh = build_mesh("rectangle", (1.0, 2.0), (9, 13))
    (mx, my), (hx, hy) = mesh.shape, mesh.spacing
    lam21 = ((4.0 / hx**2) * np.sin(np.pi / (mx + 1)) ** 2
             + (4.0 / hy**2) * np.sin(0.5 * np.pi / (my + 1)) ** 2)
    phi21 = np.outer(np.sin(2.0 * np.pi * np.arange(1, mx + 1) / (mx + 1)),
                     np.sin(np.pi * np.arange(1, my + 1) / (my + 1)))
    one = np.ones(mesh.shape)
    K1 = float(np.sum(mesh.weights * laplacian_apply(mesh, one).values))
    b = 0.5 / (K1 * lam21)
    c = np.sqrt(lam21 / (3.0 - b * K1 * lam21))
    params = ProblemParams(b=b, alpha=1.0, p=3.0, lam=1.0,
                           f=GridFunction(mesh, phi21))
    out = newton_nonlocal(mesh, params, SolverConfig(), GridFunction(mesh, c * one))
    assert not out.converged
    assert out.message == "singular local operator"
    assert out.iterations == 0


def test_newton_residual_matches_gradient_supnorm(interval):
    params, psi = manufactured(interval)
    out = newton_nonlocal(interval, params, SolverConfig(),
                          GridFunction(interval, 1.1 * psi.values))
    recomputed = sup_norm(interval, energy_gradient(interval, params, out.solution))
    assert out.residual == recomputed


# ---------------------------------------------------------------------------
# mountain-pass geometry


def test_pass_geometry_consistency(ball):
    p = 4.0
    params = ProblemParams(b=1.0, alpha=1.0, p=p, lam=0.02, f=const_one(ball))
    geom = mountain_pass_geometry(ball, params)
    S, _ = constants.sobolev(ball, p)
    C = S ** (-(p + 1) / 2)
    assert geom.rho0 == pytest.approx((2 * C) ** (-1 / (p - 1)), rel=1e-12)
    assert geom.E1 == pytest.approx(geom.rho0**2 * (p - 1) / (4 * (p + 1)), rel=1e-12)
    assert geom.E0 == pytest.approx(geom.E1 / 4, rel=1e-15)
    assert 0 < geom.E0 < geom.E1
    assert geom.beta_f > 0


def test_sphere_energy_floor_random_fields(ball):
    # on the rho0 sphere the energy stays above E0 for lambda under the gate
    params0 = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0, f=None)
    geom = mountain_pass_geometry(ball, params0)
    f = const_one(ball)
    lam = 0.5 * mountain_pass_geometry(
        ball, ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0, f=f)
    ).beta_f
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=lam, f=f)
    rng = np.random.default_rng(7)
    for _ in range(40):
        v = rng.standard_normal(ball.shape)
        v *= geom.rho0 / h1_seminorm(ball, v)
        total = energy_eval(ball, params, GridFunction(ball, v)).total
        assert total >= geom.E0 * (1 - 1e-12)


def test_witness_stays_in_half_ball_below_lambda_star(ball):
    f = const_one(ball)
    probe = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=1.0, f=f)
    geom = mountain_pass_geometry(ball, probe)
    # |grad w| <= lambda |grad v| <= lambda |f|_2 / sqrt(lambda1), so the
    # witness w stays in the half ball |grad w| <= rho0/2 below lambda_star
    lam1, _ = constants.eigenpair(ball)
    lambda_star = np.sqrt(lam1) * geom.rho0 / (2.0 * lp_norm(ball, f, 2.0))
    lam = 0.99 * lambda_star
    w = kirchhoff_linear_solve(ball, ProblemParams(b=1.0, alpha=1.0, p=4.0,
                                                   lam=lam, f=f))
    assert h1_seminorm(ball, w) <= 0.5 * geom.rho0 * (1 + 1e-10)


# ---------------------------------------------------------------------------
# descent


def test_descent_lambda_zero_stays_at_zero(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    out = descent_minimize(interval, params, SolverConfig())
    assert out.converged
    assert out.energy.total == 0.0
    assert np.all(out.solution.values == 0.0)


def test_descent_regime_a_beats_witness_energy(interval):
    cfg = SolverConfig()
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(interval))
    witness = kirchhoff_linear_solve(interval, params)
    I_w = energy_eval(interval, params, witness).total
    out = descent_minimize(interval, params, cfg)
    assert out.converged
    assert out.residual <= cfg.tol
    assert I_w < 0
    assert out.energy.total <= I_w + 1e-12
    assert out.positivity == "strictly-positive"
    assert_comparison_floor(interval, params, out.solution, cfg.tol)


def test_descent_regime_b_interior_minimizer(ball):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    out = descent_minimize(ball, params, SolverConfig())
    geom = mountain_pass_geometry(ball, params)
    assert out.converged
    assert out.energy.total < 0
    assert out.positivity == "strictly-positive"
    assert h1_seminorm(ball, out.solution) < 0.999 * geom.rho0


def test_descent_regime_c_refused(ball):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    with pytest.raises(RegimeError):
        descent_minimize(ball, params, SolverConfig())


@pytest.mark.parametrize("lam, tol", [(1e4, 1e-8), (204.8, 1e-4), (1638.4, 1e-4)])
def test_descent_tiny_trust_ball_reports_pinning(ball, lam, tol):
    # the forcing pushes the minimizer out of the trust ball of radius
    # rho0, so the iterate sticks to the sphere; once no step lowers the
    # energy beyond round-off the line search fails and descent stops at
    # a boundary KKT point instead of running to max_iter (204.8 and
    # 1638.4 are threshold-scenario probes whose iterate stops moving on
    # the sphere long before max_iter)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=lam, f=const_one(ball))
    rho0 = mountain_pass_geometry(ball, params).rho0
    out = descent_minimize(ball, params, SolverConfig(tol=tol))
    assert not out.converged
    assert out.message == "minimizer pinned to the trust-ball boundary"
    assert out.iterations < 100
    assert h1_seminorm(ball, out.solution) == pytest.approx(rho0, rel=1e-8)
    g = energy_gradient(ball, params, out.solution).values
    assert float(np.sum(ball.weights * g * out.solution.values)) < 0.0


def test_descent_below_round_off_floor_stalls():
    # regime A: a tolerance below the round-off floor of the energy cannot
    # be reached by descent, so the line search stalls early, at residual
    # 2.8e-8; the unconverged Newton handoff stopped at 6e-13 and is kept.
    # A reachable tolerance still converges through the Newton handoff
    mesh = build_mesh("interval", (1.0,), 129)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(mesh))
    out = descent_minimize(mesh, params, SolverConfig(tol=1e-14))
    assert not out.converged
    assert out.solver == "descent"
    assert out.iterations < 50
    assert out.message.startswith("line search stalled at residual 2.8")
    assert out.message.endswith(f"; kept newton handoff at residual {out.residual:.3e}")
    assert 1e-13 < out.residual < 1e-12
    assert out.positivity == "strictly-positive"
    out = descent_minimize(mesh, params, SolverConfig(tol=1e-8))
    assert out.converged
    assert out.message == "newton handoff"
    assert out.iterations == 5


# ---------------------------------------------------------------------------
# mountain pass


def test_mountain_pass_two_distinct_solutions(ball):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    low = descent_minimize(ball, params, SolverConfig())
    # the saddle lives at amplitude ~2e2 where sup|F| carries ~4e9-sized
    # terms; 1e-4 is ~2.5e-14 relative there (see worked scales in docs)
    high = mountain_pass_search(ball, params, SolverConfig(tol=1e-4))
    geom = mountain_pass_geometry(ball, params)
    assert low.converged and high.converged
    assert low.energy.total < 0 < high.energy.total
    assert high.energy.total >= geom.E0 * (1 - 1e-9)
    assert low.positivity == high.positivity == "strictly-positive"
    assert sup_norm(ball, high.solution - low.solution) >= 1e-3


def test_mountain_pass_saddle_known_answer(ball):
    # pinned to the saddle the string relaxation this search replaced found
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    out = mountain_pass_search(ball, params, SolverConfig(tol=1e-4))
    assert out.converged and out.solver == "mountain-pass"
    assert out.energy.total == pytest.approx(6.832768e7, rel=1e-6)
    assert sup_norm(ball, out.solution) == pytest.approx(204.86, abs=0.01)
    assert out.message.startswith(f"pass level {out.energy.total:.6g}")


def test_unforced_solution_matches_shooting(interval):
    # the scaled embedding minimizer against the independent RK4 profile
    params = ProblemParams(b=1.0, alpha=0.5, p=3.0, lam=0.0)
    u0 = solvers.unforced_solution(interval, params)
    w = homogeneous_shooting(interval, 3.0, 0.5, 1.0).solution
    assert sup_norm(interval, u0 - w) <= 0.01 * sup_norm(interval, w)
    out = newton_nonlocal(interval, params, SolverConfig(tol=1e-8), u0)
    assert out.converged and out.iterations <= 2


def test_mountain_pass_keeps_newton_failure(ball, monkeypatch):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    config = SolverConfig(tol=1e-4)

    def no_polish(mesh, params, config, initial):
        return solvers._outcome(mesh, params, initial.values, "newton", 3,
                                config, False, message="stub", history=(1.0,) * 3)

    monkeypatch.setattr(solvers, "newton_nonlocal", no_polish)
    out = mountain_pass_search(ball, params, config)
    assert not out.converged and out.solver == "mountain-pass"
    assert out.message == "stub"
    assert out.iterations == 3 == len(out.residual_history)


def test_mountain_pass_rejects_landing_below_floor(ball, monkeypatch):
    # a Newton solve that lands on the local minimizer converges, but its
    # negative energy is below the floor E0 every pass level clears
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    config = SolverConfig(tol=1e-4)
    low = descent_minimize(ball, params, config)
    assert low.converged and low.energy.total < 0.0
    monkeypatch.setattr(solvers, "newton_nonlocal", lambda *args: low)
    out = mountain_pass_search(ball, params, config)
    assert not out.converged and out.solver == "mountain-pass"
    E0 = mountain_pass_geometry(ball, params).E0
    assert out.message == (f"landed at level {low.energy.total:.6g} below "
                           f"the floor E0={E0:.6g}")


def test_mountain_pass_rejects_sign_changing_landing(ball, monkeypatch):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    config = SolverConfig(tol=1e-4)
    saddle = mountain_pass_search(ball, params, config)
    flipped = replace(saddle, positivity="sign-changing")
    monkeypatch.setattr(solvers, "newton_nonlocal", lambda *args: flipped)
    out = mountain_pass_search(ball, params, config)
    assert not out.converged
    assert out.message == "landed on a sign-changing critical point"


def test_mountain_pass_without_unforced_start_raises(ball):
    # p just above 2 alpha + 1 puts the consistency root past the range
    # consistency_root searches, so there is no start and the search says so
    params = ProblemParams(b=10.0, alpha=1.0, p=3.02, lam=0.0)
    assert solvers.unforced_solution(ball, params) is None
    with pytest.raises(ConvergenceError, match="no consistency root"):
        mountain_pass_search(ball, params, SolverConfig())


def test_mountain_pass_requires_regime_b(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.1, f=const_one(interval))
    with pytest.raises(RegimeError):
        mountain_pass_search(interval, params, SolverConfig())


def test_mountain_pass_gate_rejects_large_lambda(ball):
    f = const_one(ball)
    probe = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=1.0, f=f)
    beta = mountain_pass_geometry(ball, probe).beta_f
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=2.0 * beta, f=f)
    with pytest.raises(RegimeError):
        mountain_pass_search(ball, params, SolverConfig())


# ---------------------------------------------------------------------------
# multi-start


def test_multi_start_unique_at_small_lambda_above_b0(interval):
    S, _ = constants.sobolev(interval, 2.0)
    b0 = compute_b0(ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0), S)
    params = ProblemParams(b=2.0 * b0, alpha=1.0, p=2.0, lam=1e-3,
                           f=const_one(interval))
    cfg = SolverConfig()
    priors = [o.solution for o in battery(interval, params, cfg)]
    sols = multi_start(interval, params, cfg, priors)
    assert len(sols) == 1
    assert sols[0].converged
    assert sols[0].positivity == "strictly-positive"


def test_multi_start_list_contract(interval):
    cfg = SolverConfig()
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(interval))
    priors = [o.solution for o in battery(interval, params, cfg)]
    sols = multi_start(interval, params, cfg, priors)
    assert len(sols) >= 1
    energies = [s.energy.total for s in sols]
    assert energies == sorted(energies)
    for s in sols:
        assert s.converged and s.positivity == "strictly-positive"
    for i, a in enumerate(sols):
        for b in sols[i + 1:]:
            assert sup_norm(interval, a.solution - b.solution) > 10.0 * cfg.tol


def _ray(mesh, params, c1=0.3, c2=0.7):
    """A seeded direction v = c1*phi1 + c2*torsion and its K, P and F."""
    _, phi1 = constants.eigenpair(mesh)
    v = c1 * phi1.values + c2 * constants.torsion(mesh).values
    K = h1_seminorm(mesh, v) ** 2
    P = float(np.sum(mesh.weights * v ** (params.p + 1.0)))
    F = float(np.sum(mesh.weights * forcing_values(mesh, params) * v))
    return v, K, P, F


def _ray_slope(params, K, P, F, t):
    """g(t) = dI(t v)/dt and the sum of its terms' magnitudes."""
    a = params.alpha
    terms = (K * t, params.b * K ** (a + 1.0) * t ** (2.0 * a + 1.0), -P * t**params.p, -F)
    return sum(terms), sum(abs(x) for x in terms)


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("K, P", [(9.87, 0.05), (0.2, 30.0), (1.0, 1.0)])
def test_ray_scale_unforced_semilinear_known_answer(p, K, P):
    # at lambda = 0 and b = 0, g(t) = K t - P t^p changes sign only at
    # t* = (K/P)^{1/(p-1)}, reached by doubling (K > P) or halving (K < P);
    # b = 0 is no valid problem, but it is a valid ray
    flat = SimpleNamespace(b=0.0, alpha=1.0, p=p)
    t = solvers._ray_scale(flat, K, P, 0.0)
    assert t == pytest.approx((K / P) ** (1.0 / (p - 1.0)), rel=1e-14)


@pytest.mark.parametrize("kind, p, lam", [
    ("interval", 2.0, 1e-3),  # regime A, the uniqueness data
    ("interval", 2.0, 1e3),  # regime A, far from the origin
    ("ball", 4.0, 0.05),  # regime B: g rises through 0, then falls
    ("ball", 4.0, 1.342e7),  # regime B above the threshold
    ("ball", 4.0, 0.0),  # unforced: the Nehari point of the ray
])
def test_ray_scale_is_the_first_sign_change(interval, ball, kind, p, lam):
    mesh = interval if kind == "interval" else ball
    params = ProblemParams(b=1.0, alpha=1.0, p=p, lam=lam, f=const_one(mesh))
    _, K, P, F = _ray(mesh, params)
    t = solvers._ray_scale(params, K, P, F)
    g, size = _ray_slope(params, K, P, F, t)
    assert abs(g) <= 1e-13 * size
    # below t* the slope keeps the sign it has just above t = 0
    for s in np.geomspace(1e-6 * t, (1.0 - 1e-9) * t, 200):
        below, _ = _ray_slope(params, K, P, F, s)
        assert (below < 0.0) == (F > 0.0)


@pytest.mark.parametrize("kind, p, lam", [("interval", 2.0, 1e-3),
                                          ("ball", 4.0, 0.05)])
@pytest.mark.parametrize("c", [1e-3, 0.37, 3.0, 250.0])
def test_ray_scale_start_is_invariant_under_scaling(interval, ball, kind, p, lam, c):
    mesh = interval if kind == "interval" else ball
    params = ProblemParams(b=1.0, alpha=1.0, p=p, lam=lam, f=const_one(mesh))
    v, K, P, F = _ray(mesh, params)
    t = solvers._ray_scale(params, K, P, F)
    tc = solvers._ray_scale(params, c * c * K, c ** (p + 1.0) * P, c * F)
    np.testing.assert_allclose(tc * (c * v), t * v, rtol=1e-13)


def test_ray_scale_without_root_falls_back_to_smallest_slope():
    # regime A with a negative forcing term: g(t) = 1e-3 t + t^3 - 10 t^2 + 200
    # dips near t = 20/3 but stays positive, so the doubling scan from
    # t = 1 finds no sign change and returns its t of smallest |g|, t = 8
    params = SimpleNamespace(b=1e6, alpha=1.0, p=2.0)
    first = solvers._ray_scale(params, 1e-3, 10.0, -200.0)
    assert first == 8.0
    assert solvers._ray_scale(params, 1e-3, 10.0, -200.0) == first


@pytest.fixture
def newton_starts(monkeypatch):
    """(start, outcome) of every Newton solve, in order."""
    calls = []
    newton = solvers.newton_nonlocal

    def recorded(mesh, params, config, initial):
        out = newton(mesh, params, config, initial)
        calls.append((np.array(initial.values), out))
        return out

    monkeypatch.setattr(solvers, "newton_nonlocal", recorded)
    return calls


@pytest.mark.parametrize("seed", [0, 42])
def test_multi_start_rays_keep_the_seeded_directions(ball, newton_starts, seed):
    # the seed draws the same (c1, c2) as before the ray scaling, from
    # (0, 1) instead of (0, cap): each start is a positive multiple of
    # c1*phi1 + c2*torsion
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05, f=const_one(ball))
    multi_start(ball, params, SolverConfig(seed=seed), ())
    _, phi1 = constants.eigenpair(ball)
    psi = constants.torsion(ball).values
    coeffs = np.random.default_rng(seed).uniform(size=(solvers.MULTI_STARTS, 2))
    assert len(newton_starts) == len(coeffs)
    for (start, _), (c1, c2) in zip(newton_starts, coeffs):
        v = c1 * phi1.values + c2 * psi
        t = float(start.ravel() @ v.ravel()) / float(v.ravel() @ v.ravel())
        assert t > 0.0
        np.testing.assert_allclose(start, t * v, rtol=1e-13, atol=0.0)


def test_multi_start_step_budget_uniqueness_data(newton_starts):
    # the uniqueness scenario's data: the 8 scaled starts sit next to the
    # solution (sup 1.25e-4) and converge in one Newton step each, where
    # starts of sup 0.05-0.24 took three (24 steps in all)
    mesh = build_mesh("interval", 1.0, 513)
    S, _ = constants.sobolev(mesh, 2.0)
    b0 = compute_b0(ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0), S)
    params = ProblemParams(b=2.0 * b0, alpha=1.0, p=2.0, lam=1e-3, f=const_one(mesh))
    cfg = SolverConfig()
    priors = [o.solution for o in battery(mesh, params, cfg)]
    newton_starts.clear()
    sols = multi_start(mesh, params, cfg, priors)
    assert len(sols) == 1
    assert sum(out.iterations for _, out in newton_starts) <= 8


def test_multi_start_step_budget_failing_threshold_vote(newton_starts):
    # the first failing vote of the threshold scenario: both multi-starts
    # find nothing, as the vote expects, after at most 8 Newton steps each
    # (176 and 101 from the unscaled starts of sup 4e5-5e6 against ~200)
    mesh = build_mesh("ball", 1.0, 65)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=13421772.8, f=const_one(mesh))
    cfg = SolverConfig(tol=1e-4)
    priors = [o.solution for o in battery(mesh, params, cfg)]
    for seed, given in ((42, priors), (43, ())):
        newton_starts.clear()
        assert multi_start(mesh, params, replace(cfg, seed=seed), given) == []
        assert sum(out.iterations for _, out in newton_starts) <= 8


def test_newton_rejects_transposed_start():
    # interior 7x11; an (11, 7) start has the right size but not the shape
    rect = build_mesh("rectangle", (1.0, 1.0), (9, 13))
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(rect))
    with pytest.raises(MeshMismatchError):
        newton_nonlocal(rect, params, SolverConfig(), np.ones((11, 7)))
