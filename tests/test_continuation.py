"""Continuation tests: lambda sweeps, solvability bracket, b threshold."""

import math

import numpy as np
import pytest

from kirchhoff_lab import constants, continuation, solvers
from kirchhoff_lab.exceptions import RegimeError
from kirchhoff_lab.forcing import make_forcing
from kirchhoff_lab.mesh import build_mesh
from kirchhoff_lab.problem import ProblemParams, compute_b0
from kirchhoff_lab.solvers import SolverConfig
from kirchhoff_lab.continuation import (
    estimate_Lambda_f,
    sweep_b_threshold,
    sweep_lambda,
)


@pytest.fixture(scope="module")
def interval():
    return build_mesh("interval", (1.0,), 65)


@pytest.fixture(scope="module")
def ball():
    return build_mesh("ball", (1.0,), 65)


def const_one(mesh):
    return make_forcing(mesh, "constant 1").field


def test_sweep_lambda_empty(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.1, f=const_one(interval))
    assert sweep_lambda(interval, params, [], SolverConfig()) == []


def test_sweep_lambda_requires_ascending(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.1, f=const_one(interval))
    with pytest.raises(ValueError):
        sweep_lambda(interval, params, [1.0, 0.5], SolverConfig())


def test_sweep_lambda_coercive_never_fails(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.1, f=const_one(interval))
    grid = [0.1, 1.0, 10.0, 100.0]
    pts = sweep_lambda(interval, params, grid, SolverConfig())
    for lam in grid:
        rows = [pt for pt in pts if pt.lam == lam]
        assert any(pt.converged and pt.positivity == "strictly-positive"
                   for pt in rows)
    # warm-started branch moves continuously: finite slope sup/lambda
    prim = [min((pt for pt in pts if pt.lam == lam and pt.converged),
                key=lambda q: q.energy_total) for lam in grid]
    for a, b in zip(prim, prim[1:]):
        slope = abs(b.sup_norm - a.sup_norm) / (b.lam - a.lam)
        assert math.isfinite(slope)
        assert b.sup_norm > a.sup_norm  # forcing grows the minimal branch


def test_sweep_lambda_two_branches(ball):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05, f=const_one(ball))
    pts = sweep_lambda(ball, params, [0.02, 0.05], SolverConfig(tol=1e-4))
    for lam in (0.02, 0.05):
        rows = [pt for pt in pts
                if pt.lam == lam and pt.converged
                and pt.positivity == "strictly-positive"]
        assert len(rows) >= 2
        energies = sorted(pt.energy_total for pt in rows)
        assert energies[0] < 0.0 < energies[-1]


def test_sweep_lambda_keeps_best_failed_attempt():
    # far above the solvability threshold every solver fails; the point
    # still gets one row, the attempt with the smallest residual
    mesh = build_mesh("ball", 1.0, 33)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=1.0, f=const_one(mesh))
    pts = sweep_lambda(mesh, params, [1e8], SolverConfig(tol=1e-4))
    assert len(pts) == 1
    assert pts[0].lam == 1e8
    assert not pts[0].converged
    assert pts[0].solver == "descent"


def test_estimate_refuses_coercive_regime(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.1, f=const_one(interval))
    with pytest.raises(RegimeError):
        estimate_Lambda_f(interval, params, SolverConfig())


def test_estimate_needs_forcing(ball):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0)
    with pytest.raises(ValueError, match="forcing"):
        estimate_Lambda_f(ball, params, SolverConfig(tol=1e-4))


def test_failing_vote_runs_each_solver_once(monkeypatch):
    # far above the bracket every start fails; Picard and descent are
    # deterministic, so one run each is all the vote may spend
    mesh = build_mesh("ball", 1.0, 33)
    calls = {"picard": 0, "descent": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    picard = counted("picard", solvers.picard_iterate)
    descent = counted("descent", solvers.descent_minimize)
    for module in (solvers, continuation):
        monkeypatch.setattr(module, "picard_iterate", picard)
        monkeypatch.setattr(module, "descent_minimize", descent)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=1e8, f=const_one(mesh))
    assert continuation._vote(mesh, params, SolverConfig(tol=1e-4), None) is None
    assert calls == {"picard": 1, "descent": 1}


def test_estimate_lambda_bracket(ball):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05, f=const_one(ball))
    est = estimate_Lambda_f(ball, params, SolverConfig(tol=1e-4))
    assert est.lower < est.upper < math.inf
    assert est.ratio <= 1.1
    assert est.max_seminorm > 0.0
    assert est.kirchhoff_multiplier >= 1.0
    solvable = {lam for lam, ok, _ in est.votes if ok}
    failed = {lam for lam, ok, _ in est.votes if not ok}
    assert est.lower in solvable
    assert est.upper in failed


def test_estimate_lambda_open_bracket(ball):
    # the first doubling already passes lam_max: no failure was seen, so
    # the upper end stays open instead of being invented
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05, f=const_one(ball))
    est = estimate_Lambda_f(ball, params, SolverConfig(tol=1e-4), lam_max=0.06)
    assert (est.lower, est.upper) == (0.05, math.inf)
    assert [lam for lam, _, _ in est.votes] == [0.05]
    assert est.kirchhoff_multiplier >= 1.0


def test_b_threshold_two_routes(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    S, _ = constants.sobolev(interval, 2.0)
    b0 = compute_b0(params, S)
    rep = sweep_b_threshold(interval, params,
                            [0.01 * b0, 0.5 * b0, 10.0 * b0])
    assert rep.b0 == pytest.approx(b0)
    flags = [(pt.oracle_found, pt.grid_found) for pt in rep.points]
    assert flags == [(True, True), (True, True), (False, False)]
    assert all(pt.agree for pt in rep.points)
    for pt in rep.points[:2]:
        assert pt.oracle_defect <= 1e-8
    assert rep.bracket_lo == pytest.approx(0.5 * b0)
    assert rep.bracket_hi == pytest.approx(10.0 * b0)
    assert rep.consistent


def test_b_threshold_empty(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    rep = sweep_b_threshold(interval, params, [])
    assert rep.points == ()
    assert rep.consistent


def test_b_threshold_gates(interval, ball):
    sup = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0)
    with pytest.raises(RegimeError):
        sweep_b_threshold(ball, sup, [1.0])
    forced = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.5,
                           f=const_one(interval))
    with pytest.raises(ValueError):
        sweep_b_threshold(interval, forced, [1.0])
