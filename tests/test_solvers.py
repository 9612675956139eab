"""Solver suite tests: barrier, Picard, Newton, descent, mountain pass.

Oracles used here:
* the torsion manufactured solution (exact discrete fixed point of Newton),
* closed-form barrier ladder values on intervals of length 1 and 4,
* the small-sphere energy floor E0, checked against random fields on the
  rho0 sphere,
* the linear comparison witness, which bounds descent energies from above.
"""

import numpy as np
import pytest

from kirchhoff_lab import constants, solvers
from kirchhoff_lab.energy import energy_eval, energy_gradient
from kirchhoff_lab.exceptions import (
    BarrierError,
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
    sup_norm,
)
from kirchhoff_lab.problem import ProblemParams, classify_regime, energy_lower_bound
from kirchhoff_lab.scalar_reduction import kirchhoff_linear_solve
from kirchhoff_lab.solvers import (
    SolverConfig,
    battery,
    build_barrier,
    descent_minimize,
    mountain_pass_geometry,
    mountain_pass_search,
    multi_start,
    newton_nonlocal,
    picard_iterate,
)


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
    assert bar.lambda_cap == 1.0
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
    assert bar.lambda_cap == 0.015625


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
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=2.0, f=const_one(ball))
    out = picard_iterate(ball, params, SolverConfig())
    assert not out.converged
    assert "lambda" in out.message


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
    assert out.positivity != "strictly-positive"
    assert sup_norm(ball, out.solution) <= 1e-8


def test_newton_iteration_budget_respected(interval):
    params, psi = manufactured(interval)
    start = GridFunction(interval, 3.0 * psi.values)
    out = newton_nonlocal(interval, params, SolverConfig(max_iter=1), start)
    assert not out.converged
    assert out.iterations == 1
    assert "max iterations" in out.message


def _count_residuals(monkeypatch):
    calls = []
    pieces = solvers._newton_pieces

    def counting(mesh, params, lam_f, u):
        calls.append(1)
        return pieces(mesh, params, lam_f, u)

    monkeypatch.setattr(solvers, "_newton_pieces", counting)
    return calls


def test_newton_hopeless_step_stops_at_damping_floor(monkeypatch):
    # far above the threshold no positive solution exists; the first step
    # fails every trial down to the floor, so the run ends after 1 + 11
    # residuals instead of accepting a 2^-16 step and wandering on
    ball = build_mesh("ball", (1.0,), 17)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=1.4e7, f=const_one(ball))
    _, phi1 = constants.eigenpair(ball)
    calls = _count_residuals(monkeypatch)
    out = newton_nonlocal(ball, params, SolverConfig(tol=1e-4), phi1)
    assert not out.converged
    assert out.message.startswith("damping below floor")
    assert len(calls) <= 12


def test_newton_converges_through_damped_steps(interval, monkeypatch):
    # from -3 phi1 some steps pass only after halving; the floor must
    # leave such damped steps alone
    params = ProblemParams(b=10.0, alpha=1.0, p=2.0, lam=10.0, f=const_one(interval))
    _, phi1 = constants.eigenpair(interval)
    calls = _count_residuals(monkeypatch)
    out = newton_nonlocal(interval, params, SolverConfig(), -3.0 * phi1)
    assert out.converged
    assert out.positivity == "strictly-positive"
    # one residual per iterate plus one per trial: any extra trial means
    # some step was accepted only after halving
    assert len(calls) > 2 * out.iterations + 1


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
    assert geom.C_emb == pytest.approx(S ** (-(p + 1) / 2), rel=1e-12)
    assert geom.rho0 == pytest.approx((2 * geom.C_emb) ** (-1 / (p - 1)), rel=1e-12)
    assert geom.E1 == pytest.approx(geom.rho0**2 * (p - 1) / (4 * (p + 1)), rel=1e-12)
    assert geom.E0 == pytest.approx(geom.E1 / 4, rel=1e-15)
    assert 0 < geom.E0 < geom.E1
    assert geom.beta_f > 0 and geom.lambda_star > 0


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
    lam = 0.99 * geom.lambda_star
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
    S, _ = constants.sobolev(interval, params.p)
    lam1, _ = constants.eigenpair(interval)
    assert out.energy.total >= energy_lower_bound(interval, params, S, lam1)
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


def test_descent_tiny_trust_ball_reports_pinning(ball):
    # the true local minimizer has seminorm ~1.1e-2; a much smaller ball
    # forces a boundary-constrained iterate, which must be flagged
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    out = descent_minimize(ball, params, SolverConfig(rho0=0.008, max_iter=120))
    assert not out.converged
    assert "pinned" in out.message
    assert h1_seminorm(ball, out.solution) <= 0.008 * (1 + 1e-9)


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


def test_mountain_pass_fallback_returns_top_path_node(ball, monkeypatch):
    # a polish that never converges runs the search into its sweep cap;
    # the fallback is then the path's top node, not the last polish
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.02, f=const_one(ball))
    config = SolverConfig(tol=1e-4)

    def no_polish(mesh, params, config, initial):
        return solvers._outcome(mesh, params, 2.0 * initial.values, "newton", 1,
                                config, False, message="stub")

    monkeypatch.setattr(solvers, "newton_nonlocal", no_polish)
    monkeypatch.setattr(solvers, "SWEEP_CAP", 30)
    out = mountain_pass_search(ball, params, config)
    assert not out.converged and out.solver == "mountain-pass"
    assert out.iterations == 30 == len(out.residual_history)
    assert "sweep cap 30 reached" in out.message
    assert f"level {out.energy.total:.6g}" in out.message
    assert out.energy.total > 0.0


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
    info = classify_regime(ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0), 1, S)
    params = ProblemParams(b=2.0 * info.b0, alpha=1.0, p=2.0, lam=1e-3,
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


def test_newton_rejects_transposed_start():
    # interior 7x11; an (11, 7) start has the right size but not the shape
    rect = build_mesh("rectangle", (1.0, 1.0), (9, 13))
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(rect))
    with pytest.raises(MeshMismatchError):
        newton_nonlocal(rect, params, SolverConfig(), np.ones((11, 7)))
