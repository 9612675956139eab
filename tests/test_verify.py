"""Verification-layer tests: integral identity, shooting oracle, probes.

Oracles used here:
* the quadratic torsion profiles, on which the one-sided boundary
  quotients are exact, so the interval identity residual equals the
  trapezoid defect h^2/4 in closed form,
* RK4 exactness on quadratics for the forced linear shooting runs,
* cross-solver agreement (shooting vs mountain pass, shooting vs Picard),
* the scalar consistency equation for the unforced problem, whose root
  structure is decided analytically inside the probe and re-checked here
  on both sides of the threshold.
"""

import math

import numpy as np
import pytest

from kirchhoff_lab import _kernels, constants, verify
from kirchhoff_lab.energy import energy_eval
from kirchhoff_lab.exceptions import ConvergenceError, MeshError, RegimeError
from kirchhoff_lab.forcing import file_forcing, make_forcing, quartic_forcing
from kirchhoff_lab.mesh import (
    GridFunction,
    build_mesh,
    h1_seminorm,
    poisson_solve,
    sup_norm,
)
from kirchhoff_lab.problem import ProblemParams, compute_b0
from kirchhoff_lab.scalar_reduction import rescale_to_semilinear
from kirchhoff_lab.solvers import (
    SolverConfig,
    descent_minimize,
    mountain_pass_search,
    newton_nonlocal,
    picard_iterate,
)
from kirchhoff_lab.verify import (
    _brent,
    _ShootingSetup,
    homogeneous_shooting,
    kirchhoff_shooting,
    pohozaev_residual,
    residual_certificate,
    shooting_solve,
    supnorm_decay_scan,
    uniqueness_probe,
    xdot_grad_values,
)


@pytest.fixture(scope="module")
def interval():
    return build_mesh("interval", (1.0,), 65)


@pytest.fixture(scope="module")
def ball():
    return build_mesh("ball", (1.0,), 65)


def const_one(mesh):
    return make_forcing(mesh, "constant 1").field


def b0_for(mesh, p=2.0, alpha=1.0):
    S, _ = constants.sobolev(mesh, p)
    return compute_b0(ProblemParams(b=1.0, alpha=alpha, p=p, lam=0.0), S)


# ---------------------------------------------------------------------------
# integral identity


def test_pohozaev_zero_field(interval):
    rep = pohozaev_residual(interval, np.zeros(interval.shape), p=2.0)
    assert rep.boundary == 0.0
    assert rep.volume == 0.0
    assert rep.residual == 0.0
    assert rep.rel_residual == 0.0


def test_pohozaev_interval_torsion_closed_form(interval):
    # quadratic profile on [0, 1], star-shaped about its left end: the
    # boundary flux, all from x = 1, is exact, and the volume side carries
    # only the trapezoid defect, so residual = h^2/4 on the nose
    h = interval.h
    psi = constants.torsion(interval)
    rep = pohozaev_residual(interval, psi, p=2.0, c_pow=0.0,
                            forcing=np.ones(interval.shape),
                            forcing_xdot=np.zeros(interval.shape))
    assert abs(rep.boundary - 0.25) < 1e-13
    assert abs(rep.volume - (0.25 - h * h / 4.0)) < 1e-13
    assert abs(rep.residual - h * h / 4.0) < 1e-13
    assert rep.rel_residual <= 5.0 * h


def test_pohozaev_uncentered_interval_matches():
    # star-shaped about the left endpoint of [0, L]: only the face x = L
    # contributes, with flux L * (L/2)^2, and the defect is L h^2 / 4
    for length in (1.0, 2.0):
        mesh = build_mesh("interval", (length,), 65)
        h = mesh.h
        psi = constants.torsion(mesh)
        rep = pohozaev_residual(mesh, psi, p=2.0, c_pow=0.0,
                                forcing=np.ones(mesh.shape),
                                forcing_xdot=np.zeros(mesh.shape))
        tol = 1e-13 * length**3
        assert abs(rep.boundary - length**3 / 4.0) < tol
        assert abs(rep.residual - length * h * h / 4.0) < tol


def test_pohozaev_ball_torsion():
    reps = []
    for n in (33, 65):
        mesh = build_mesh("ball", (1.0,), n)
        psi = constants.torsion(mesh)
        rep = pohozaev_residual(mesh, psi, p=2.0, c_pow=0.0,
                                forcing=np.ones(mesh.shape),
                                forcing_xdot=np.zeros(mesh.shape))
        # flux of the exact quadratic: 4 pi R^3 (R/3)^2 = 4 pi / 9
        assert abs(rep.boundary - 4.0 * np.pi / 9.0) < 1e-12
        assert rep.rel_residual <= 5.0 * mesh.h
        reps.append(rep.rel_residual)
    assert reps[1] <= 0.6 * reps[0]  # shrinks at least linearly under refinement


def test_pohozaev_rectangle_torsion():
    square = build_mesh("rectangle", (1.0, 1.0), 33)
    # hx = 1/32, hy = 1/24: a face measure taken from the wrong axis
    # leaves a relative residual of about 0.045 here, correct ones 0.005
    skewed = build_mesh("rectangle", (1.0, 2.0), (33, 49))
    for mesh, bound in ((square, 5.0 * square.h), (skewed, 0.5 * skewed.h)):
        psi = poisson_solve(mesh, np.ones(mesh.shape))
        rep = pohozaev_residual(mesh, psi, p=2.0, c_pow=0.0,
                                forcing=np.ones(mesh.shape),
                                forcing_xdot=np.zeros(mesh.shape))
        assert rep.boundary > 0.0
        assert rep.rel_residual <= bound


def test_pohozaev_eta_sign(ball):
    z = np.zeros(ball.shape)
    assert pohozaev_residual(ball, z, p=6.0).eta == pytest.approx(1.0 / 7.0)
    assert pohozaev_residual(ball, z, p=4.0).eta < 0.0
    assert pohozaev_residual(ball, z, p=5.0).eta == pytest.approx(0.0, abs=1e-15)


def test_pohozaev_argument_checks(interval, ball):
    with pytest.raises(ValueError):
        pohozaev_residual(interval, np.zeros(interval.shape), p=2.0,
                          forcing=np.ones(interval.shape))
    with pytest.raises(MeshError):
        pohozaev_residual(interval, np.zeros(ball.shape), p=2.0)
    other = build_mesh("interval", (1.0,), 65)
    u = GridFunction(other, np.zeros(other.shape))
    with pytest.raises(MeshError):
        pohozaev_residual(interval, u, p=2.0)


def test_pohozaev_transformed_supercritical(ball):
    # the rescaled Picard solution solves the semilinear equation exactly,
    # so the identity holds to discretization accuracy
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    out = picard_iterate(ball, params, SolverConfig())
    assert out.converged
    v, eff_lam = rescale_to_semilinear(ball, params, out.solution)
    rep = pohozaev_residual(ball, v, p=6.0, c_pow=1.0,
                            forcing=np.full(ball.shape, eff_lam),
                            forcing_xdot=np.zeros(ball.shape))
    assert rep.eta > 0.0
    assert rep.rel_residual <= 5.0 * ball.h


def test_xdot_grad_values_quartic(interval, ball):
    fq = quartic_forcing(interval)
    xs = interval.coords[0]
    expect = xs * (12.0 - 24.0 * xs)
    assert np.allclose(xdot_grad_values(interval, fq), expect, atol=1e-14)
    fb = quartic_forcing(ball)
    r = ball.coords[0]
    assert np.allclose(xdot_grad_values(ball, fb), -40.0 * r**2, atol=1e-14)


XDOT_MESHES = {
    "interval": ("interval", (1.0,), 65),
    "rectangle": ("rectangle", (1.0, 2.0), (17, 33)),
    "ball": ("ball", (1.0,), 65),
}


def _xdot_by_hand(mesh, spec):
    """x . grad f of the builtins, differentiated by hand (amp 1.3, R = 1)."""
    if spec.startswith("constant"):
        return np.zeros(mesh.shape)
    if mesh.kind == "ball":
        r = mesh.coords[0]
        if spec.startswith("eigenmode"):
            # r d/dr [sin(pi r)/(pi r)] = cos(pi r) - sin(pi r)/(pi r), 0 at r = 0
            ar = np.pi * np.where(r > 0.0, r, 1.0)
            return np.where(r > 0.0, 1.3 * (np.cos(ar) - np.sin(ar) / ar), 0.0)
        return -40.0 * r**2
    x = mesh.nodes
    ax = range(len(x))
    if spec.startswith("eigenmode"):
        k = [np.pi / L for L in mesh.extents]
        return 1.3 * sum(
            x[i] * k[i] * math.prod(np.cos(k[j] * x[j]) if j == i
                                    else np.sin(k[j] * x[j]) for j in ax)
            for i in ax)
    # f = sum_i q_i prod_{j != i} w_j with w = (x(L - x))^2, q = -w''
    L = mesh.extents
    w = [(x[j] * (L[j] - x[j])) ** 2 for j in ax]
    dw = [2.0 * x[j] * (L[j] - x[j]) * (L[j] - 2.0 * x[j]) for j in ax]
    q = [-2.0 * L[j] ** 2 + 12.0 * L[j] * x[j] - 12.0 * x[j] ** 2 for j in ax]
    dq = [12.0 * L[j] - 24.0 * x[j] for j in ax]

    def factor(i, j, k):  # d/dx_k of the j-th factor of term i
        if j == i:
            return dq[j] if j == k else q[j]
        return dw[j] if j == k else w[j]
    return sum(x[k] * sum(math.prod(factor(i, j, k) for j in ax) for i in ax)
               for k in ax)


@pytest.mark.parametrize("spec", ["constant 1.0", "eigenmode 1.3",
                                  "quartic-signchanging"])
@pytest.mark.parametrize("name", list(XDOT_MESHES))
def test_xdot_grad_values_match_hand_derivatives(name, spec):
    mesh = build_mesh(*XDOT_MESHES[name])
    got = xdot_grad_values(mesh, make_forcing(mesh, spec))
    expect = _xdot_by_hand(mesh, spec)
    assert got.shape == mesh.shape
    assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))


def test_xdot_grad_requires_derivative(tmp_path, interval):
    path = tmp_path / "f.txt"
    np.savetxt(path, np.ones(interval.shape[0]))
    f = file_forcing(interval, str(path))
    with pytest.raises(ValueError):
        xdot_grad_values(interval, f)


# ---------------------------------------------------------------------------
# shooting oracle


def test_shooting_interval_torsion(interval):
    u = shooting_solve(interval, p=2.0, c_pow=0.0, c_f=1.0,
                       f_fn=lambda x: np.ones_like(x))
    xs = interval.coords[0]
    exact = 0.5 * xs * (1.0 - xs)
    assert sup_norm(interval, GridFunction(interval, u.values - exact)) < 1e-12
    mid = interval.shape[0] // 2
    assert xs[mid] == pytest.approx(0.5)
    assert u.values[mid] == pytest.approx(0.125, abs=1e-13)


def test_shooting_ball_torsion(ball):
    u = shooting_solve(ball, p=2.0, c_pow=0.0, c_f=1.0,
                       f_fn=lambda r: np.ones_like(r))
    exact = (1.0 - ball.coords[0] ** 2) / 6.0
    assert float(np.max(np.abs(u.values - exact))) < 1e-12


def test_shooting_no_sign_change(interval):
    with pytest.raises(ConvergenceError):
        shooting_solve(interval, p=2.0, c_pow=0.0, c_f=1.0,
                       f_fn=lambda x: -np.ones_like(x))


def test_shooting_overflow_is_no_sign_change(shots):
    # floored data whose endpoint stays negative from the floor up, until
    # (u+)^20 overflows a double on the upper rungs: the overflowing shot
    # reads as a non-finite endpoint, which ends the ladder, not as an
    # OverflowError
    mesh = build_mesh("interval", (1.0,), 129)
    with pytest.raises(ConvergenceError, match="no sign change"):
        shooting_solve(mesh, p=20.0, c_pow=1.0, c_f=10.0,
                       f_fn=lambda x: np.ones_like(x))
    before_last, last = shots[-2:]
    setup = _ShootingSetup(mesh, lambda x: np.ones_like(x))
    assert shot_end(setup, before_last, 20.0, 1.0, 10.0) < 0.0
    assert math.isnan(shot_end(setup, last, 20.0, 1.0, 10.0))


def test_shooting_rejects_rectangle():
    mesh = build_mesh("rectangle", (1.0, 1.0), 17)
    with pytest.raises(MeshError):
        shooting_solve(mesh, p=2.0)


def test_shooting_matches_mountain_pass(interval):
    # semilinear cubic ground state: two unrelated discretizations agree
    w = shooting_solve(interval, p=3.0, c_pow=1.0)
    params = ProblemParams(b=1e-10, alpha=0.5, p=3.0, lam=0.0)
    out = mountain_pass_search(interval, params, SolverConfig(tol=1e-8))
    assert out.converged
    scale = sup_norm(interval, w)
    dist = float(np.max(np.abs(out.solution.values - w.values)))
    assert dist <= 0.01 * scale
    level = energy_eval(interval, params, w).total
    assert out.energy.total == pytest.approx(level, rel=0.02)


def test_homogeneous_shooting_threshold(interval):
    b0 = b0_for(interval)
    high = homogeneous_shooting(interval, p=2.0, alpha=1.0, b=10.0 * b0)
    assert not high.found
    assert high.solution is None
    low = homogeneous_shooting(interval, p=2.0, alpha=1.0, b=0.01 * b0)
    assert low.found
    assert low.boundary_defect <= 1e-8
    assert low.consistency_defect <= 1e-8
    assert low.t > 0.0
    assert np.all(low.solution.values > 0.0)


def test_homogeneous_shooting_grid_crosscheck(interval):
    # polish the oracle profile with the grid Newton: same solution to 1%
    b0 = b0_for(interval)
    probe = homogeneous_shooting(interval, p=2.0, alpha=1.0, b=0.01 * b0)
    params = ProblemParams(b=0.01 * b0, alpha=1.0, p=2.0, lam=0.0)
    out = newton_nonlocal(interval, params, SolverConfig(), probe.solution)
    assert out.converged
    scale = sup_norm(interval, probe.solution)
    assert sup_norm(interval, out.solution - probe.solution) <= 0.01 * scale


def test_homogeneous_shooting_sublinear_exponent(interval):
    # 2 alpha / (p-1) < 1: a consistency root always exists
    probe = homogeneous_shooting(interval, p=3.0, alpha=0.5, b=5.0)
    assert probe.found
    assert probe.consistency_defect <= 1e-8


def test_kirchhoff_shooting_matches_picard(ball):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    out = picard_iterate(ball, params, SolverConfig())
    assert out.converged
    oracle = kirchhoff_shooting(ball, params, f_fn=lambda r: np.ones_like(r))
    scale = sup_norm(ball, out.solution)
    assert sup_norm(ball, out.solution - oracle) <= 0.01 * scale


def test_brent_smooth_bracket():
    # bisection would need 50 halvings of [0, 1] to reach width 1e-15
    calls = []

    def f(x):
        calls.append(x)
        return math.cos(x) - x

    root = _brent(f, 0.0, 1.0, 1.0, math.cos(1.0) - 1.0, 1e-15)
    assert root == pytest.approx(0.7390851332151607, abs=1e-15)
    assert len(calls) <= 10


def shot_end(setup, a, p, c_pow, c_f):
    """The endpoint map E(a) = u_a(R) of one shot."""
    return float(setup.shoot(a, p, c_pow, c_f)[0][-1])


def test_brent_linear_torsion_map(ball):
    # the c_pow = 0 endpoint map is affine in the center value: the first
    # secant step lands on the root, within the ladder rung [1/8, 1/4]
    setup = _ShootingSetup(ball, lambda r: np.ones_like(r))
    shots = []

    def endpoint(a):
        shots.append(a)
        return shot_end(setup, a, 2.0, 0.0, 1.0)

    lo, hi = 0.125, 0.25
    root = _brent(endpoint, lo, hi, shot_end(setup, lo, 2.0, 0.0, 1.0),
                  shot_end(setup, hi, 2.0, 0.0, 1.0), 1e-15)
    assert root == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert len(shots) <= 4


@pytest.fixture
def shots(monkeypatch):
    """Center values of the RK4 shots the oracle takes, in order."""
    centers = []
    rk4 = verify.rk4_radial

    def counted(*args):
        centers.append(args[0])
        return rk4(*args)

    monkeypatch.setattr(verify, "rk4_radial", counted)
    return centers


def test_kirchhoff_shooting_shot_budget(ball, shots):
    # the linear shot gives T(0) and the floor; the first outer iterate,
    # the root of the linear-response model, is within the outer tolerance,
    # so one inner solve suffices, and the one shot at its predicted root
    # is within xtol of the root by the comparison bounds
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    oracle = kirchhoff_shooting(ball, params, f_fn=lambda r: np.ones_like(r))
    assert 0 < len(shots) <= 2
    assert sup_norm(ball, oracle) > 0.0


def test_kirchhoff_shooting_mountain_pass_shot_budget(ball, shots):
    # the mountain-pass verify config: the outer loop starts at the root
    # of the linear-response model, which lands within the outer
    # tolerance, so the linear shot and one checked prediction suffice
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05, f=const_one(ball))
    kirchhoff_shooting(ball, params, f_fn=lambda r: np.ones_like(r))
    assert 0 < len(shots) <= 2


@pytest.mark.parametrize("p, lam, budget, center", [
    (2.0, 1.0, 23, 0.47355337475780046), (4.0, 0.05, 3, 0.049385203292396415)],
    ids=["p2", "p4"])
def test_kirchhoff_shooting_signchanging_shot_budget(ball, shots, p, lam,
                                                     budget, center):
    # the paper's indefinite data: the quartic forcing changes sign, but its
    # witness is positive, so every inner solve is predicted from the linear
    # shot, the only a = 0 shot
    forcing = make_forcing(ball, "quartic-signchanging")
    params = ProblemParams(b=1.0, alpha=1.0, p=p, lam=lam, f=forcing.field)
    oracle = kirchhoff_shooting(ball, params, f_fn=forcing.fn)
    assert 0 < len(shots) <= budget
    assert shots.count(0.0) == 1
    assert oracle.values[0] == pytest.approx(center, rel=1e-9, abs=0.0)
    if p == 4.0:
        # the mountain-pass verify config with the paper's data: the oracle
        # still passes the verify check against the grid solution
        out = picard_iterate(ball, params, SolverConfig())
        assert out.converged
        scale = sup_norm(ball, out.solution)
        bound = max(0.01 * scale, 10.0 * ball.h**2 * scale)
        assert sup_norm(ball, out.solution - oracle) <= bound


@pytest.mark.parametrize("f, lam, p", [("constant 1.0", 20.0, 4.0),
                                       ("quartic-signchanging", 2.0, 4.0),
                                       ("quartic-signchanging", 5.0, 2.0)])
def test_kirchhoff_shooting_past_the_semilinear_fold(ball, f, lam, p):
    # at these lambda the semilinear problem at mu = lambda (t = 0) has no
    # positive solution, so an outer loop that solved at t = 0 raised "no
    # sign change"; started at the linear-response root, the oracle agrees
    # with the grid solution within a tenth of the verify check's bound
    forcing = make_forcing(ball, f)
    params = ProblemParams(b=1.0, alpha=1.0, p=p, lam=lam, f=forcing.field)
    out = descent_minimize(ball, params, SolverConfig())
    assert out.converged
    oracle = kirchhoff_shooting(ball, params, f_fn=forcing.fn)
    scale = sup_norm(ball, out.solution)
    bound = max(0.01 * scale, 10.0 * ball.h**2 * scale)
    assert sup_norm(ball, out.solution - oracle) <= 0.1 * bound


def test_homogeneous_shooting_shot_budget(shots):
    # no a = 0 shot (its endpoint is exactly 0): the ladder starts at the
    # floor (2 dim / R^2)^(1/(p-1)) = 8; the profile at 16 crosses zero and
    # predicts the root by exact scaling, then Brent runs inside [8, 16]
    probe = homogeneous_shooting(build_mesh("interval", (1.0,), 129),
                                 p=2.0, alpha=1.0, b=0.1)
    assert probe.boundary_defect <= 1e-8
    assert shots[:2] == [8.0, 16.0]
    assert 8.0 < shots[2] < 16.0
    assert len(shots) <= 6


def oracle_run(mesh, spec, p, alpha, lam, shots):
    """(center value or exception type, shot count) of kirchhoff_shooting."""
    forcing = make_forcing(mesh, spec)
    params = ProblemParams(b=1.0, alpha=alpha, p=p, lam=lam, f=forcing.field)
    shots.clear()
    try:
        u = kirchhoff_shooting(mesh, params, f_fn=forcing.fn)
    except ConvergenceError as exc:
        return type(exc), len(shots)
    return float(u.values[0 if mesh.kind == "ball" else u.values.size // 2]), len(shots)


def fallback_only(monkeypatch):
    """Switch off both predictions: the floor-ladder-Brent path."""
    monkeypatch.setattr(verify, "_predict", lambda *args: None)
    monkeypatch.setattr(verify, "_scaled_root", lambda *args: None)


@pytest.mark.parametrize("kind", ["ball", "interval"])
@pytest.mark.parametrize("spec", ["constant 1.0", "quartic-signchanging"])
@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_predicted_roots_agree_with_the_ladder(monkeypatch, shots, kind, spec, p):
    # predict-check-fall back returns the root the floor-ladder-Brent path
    # returns, or raises where it raises, and never takes more shots; the
    # rows include the inputs where an unguarded prediction (no g < 1/2
    # gate) handed Newton sign-changing starts
    mesh = build_mesh(kind, (1.0,), 33 if kind == "ball" else 129)
    alpha = 0.5 if p == 6.0 else 1.0
    lams = [1e-3, 1e-2, 0.1, 1.0, 5.0, 20.0, 100.0]
    got = [oracle_run(mesh, spec, p, alpha, lam, shots) for lam in lams]
    fallback_only(monkeypatch)
    for lam, (center, n) in zip(lams, got):
        ref, n_ref = oracle_run(mesh, spec, p, alpha, lam, shots)
        assert n <= n_ref, lam
        if isinstance(ref, float):
            assert center == pytest.approx(ref, rel=1e-12, abs=0.0), lam
        else:
            assert center is ref, lam


@pytest.mark.parametrize("kind, n, spec, lam", [
    ("ball", 33, "quartic-signchanging", 20.0), ("ball", 65, "quartic-signchanging", 20.0),
    ("ball", 65, "constant 1.0", 100.0), ("interval", 129, "quartic-signchanging", 100.0)])
def test_oracle_traps_still_raise(shots, kind, n, spec, lam):
    # supercritical data far past the fold: the predictor's g < 1/2 gate
    # refuses these inputs, where an ungated prediction returned profiles
    # with min down to -0.67 instead of raising
    center, _ = oracle_run(build_mesh(kind, (1.0,), n), spec, 6.0, 0.5, lam, shots)
    assert center is ConvergenceError


def test_prediction_finds_the_root_the_ladder_skips(monkeypatch, shots):
    # interval 129, p = 6, alpha = 1, lambda = 100: at the first inner solve
    # E(a) rises from the floor, crosses zero twice and falls again between
    # the rungs a_lo and 2 a_lo, so the ladder sees no sign change and
    # raises; the predicted root, with E' >= 1 - g > 0 below it, is the
    # smallest, and the oracle agrees with the grid solution
    mesh = build_mesh("interval", (1.0,), 129)
    forcing = make_forcing(mesh, "constant 1.0")
    params = ProblemParams(b=1.0, alpha=1.0, p=6.0, lam=100.0, f=forcing.field)
    oracle = kirchhoff_shooting(mesh, params, f_fn=forcing.fn)
    out = descent_minimize(mesh, params, SolverConfig())
    assert out.converged
    scale = sup_norm(mesh, out.solution)
    assert sup_norm(mesh, out.solution - oracle) <= 1e-4 * scale
    fallback_only(monkeypatch)
    with pytest.raises(ConvergenceError, match="no sign change"):
        kirchhoff_shooting(mesh, params, f_fn=forcing.fn)


def test_non_finite_prediction_leaves_the_fallback(monkeypatch, ball, shots):
    # a predicted root whose shot overflows is not a sign change: the
    # fallback then runs as if nothing had been predicted
    setup = _ShootingSetup(ball, lambda r: np.ones_like(r))
    monkeypatch.setattr(verify, "_predict", lambda *args: None)
    shots.clear()
    ref = verify._center_value(setup, 20.0, 1.0, 1.0)[0]
    n_ref = len(shots)
    monkeypatch.setattr(verify, "_predict", lambda *args: 1e100)
    shots.clear()
    got = verify._center_value(setup, 20.0, 1.0, 1.0)[0]
    assert shots[0] == 1e100 and len(shots) == n_ref + 1
    assert np.array_equal(got, ref)


def test_inner_solve_does_not_depend_on_earlier_solves(monkeypatch, shots):
    # ball 65, constant f, p = 3.5, alpha = 0.5, b = 1, lambda = 100: the
    # predictor refuses these inner solves, so each climbs the ladder from
    # its floor.  The second inner solve takes the same shots and returns
    # the same profile on a fresh setup as after the first solve, whose
    # c_f has the same sign
    mesh = build_mesh("ball", (1.0,), 65)
    forcing = make_forcing(mesh, "constant 1.0")
    params = ProblemParams(b=1.0, alpha=0.5, p=3.5, lam=100.0, f=forcing.field)
    center_value = verify._center_value
    inner = []

    def recorded(setup, *args):
        inner.append(args)
        return center_value(setup, *args)

    monkeypatch.setattr(verify, "_center_value", recorded)
    kirchhoff_shooting(mesh, params, f_fn=forcing.fn)
    first, second = inner[:2]
    runs = []
    for earlier in ([], [first]):
        setup = _ShootingSetup(mesh, forcing.fn)
        for args in earlier:
            center_value(setup, *args)
        shots.clear()
        runs.append((center_value(setup, *second), list(shots)))
    (fresh, fresh_shots), (after, after_shots) = runs
    assert fresh_shots[0] == verify._floor(setup, *second)
    assert after_shots == fresh_shots
    assert np.array_equal(after[0], fresh[0]) and np.array_equal(after[1], fresh[1])


@pytest.mark.parametrize("kind", ["interval", "ball"])
def test_ladder_floor_skips_only_same_sign_rungs(kind):
    # the comparison bounds behind the floor: everything the ladder skips,
    # from far below up to just below the floor a_lo it starts from, has
    # the floor's sign; the unforced bound is strict at a_lo itself.  The
    # forced bound needs only a witness positive at the center, so the
    # sign-changing quartic forcing has a floor too
    mesh = build_mesh(kind, (1.0,), 129 if kind == "interval" else 65)
    forced = [(verify._ShootingSetup(mesh, make_forcing(mesh, name).fn), c_f)
              for name in ("constant 1", "eigenmode", "quartic-signchanging")
              for c_f in (1e-6, 1e-3, 10.0)]
    unforced = [(verify._ShootingSetup(mesh, None), 0.0)]
    # the c_pow = 0 shot does not depend on p, and unforced it has no floor
    assert verify._floor(unforced[0][0], 2.0, 0.0, 0.0) is None
    cases = [(p, c_pow, forced + unforced) for p in (1.5, 2.0, 4.0, 6.0)
             for c_pow in (1.0, 1e-3)]
    for p, c_pow, setups in cases + [(2.0, 0.0, forced)]:
        for setup, c_f in setups:
            a_lo = verify._floor(setup, p, c_pow, c_f)
            assert a_lo is not None and a_lo > 0.0
            sign = -1.0 if c_f > 0.0 else 1.0
            skipped = [a_lo * 2.0**-k for k in range(1, 31)]
            skipped += [a_lo * (1.0 - 2.0**-k) for k in range(1, 21)]
            if c_f == 0.0:
                skipped.append(a_lo)
            for a in skipped:
                assert np.sign(shot_end(setup, a, p, c_pow, c_f)) == sign, (
                    p, c_pow, c_f, a / a_lo)


def test_unforced_floor_past_the_root_raises(monkeypatch):
    # the unforced bound gives E(a_lo) >= cos(sqrt 2) a_lo > 0, so a floor
    # shot that is not positive is never a crossing: a floor placed past
    # the first crossing raises instead of searching below it
    setup = verify._ShootingSetup(build_mesh("interval", (1.0,), 129), None)
    root = verify._center_value(setup, 2.0, 1.0, 0.0)[0][0]
    for factor in (1.5, 3.0):
        assert shot_end(setup, factor * root, 2.0, 1.0, 0.0) < 0.0
        monkeypatch.setattr(verify, "_floor", lambda *args: factor * root)
        with pytest.raises(ConvergenceError, match="not positive at its floor"):
            verify._center_value(setup, 2.0, 1.0, 0.0)


def test_no_floor_refuses_at_once(shots):
    # c_f f < 0: the witness of c_f f is negative at the center, so no floor
    # is proven, and the solve raises after the one linear shot that shows it
    for kind in ("interval", "ball"):
        mesh = build_mesh(kind, (1.0,), 129 if kind == "interval" else 65)
        shots.clear()
        with pytest.raises(ConvergenceError, match="no comparison floor"):
            shooting_solve(mesh, 2.0, c_pow=1.0, c_f=-1.0,
                           f_fn=lambda x: np.ones_like(x))
        assert shots == [0.0], kind
        forcing = make_forcing(mesh, "constant -1.0")
        params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=forcing.field)
        shots.clear()
        with pytest.raises(ConvergenceError, match="no comparison floor"):
            kirchhoff_shooting(mesh, params, f_fn=forcing.fn)
        assert shots == [0.0], kind


def test_unforced_floor_overflow_refuses(shots):
    # p just above 1: the unforced floor (2 dim / R^2)^(1/(p-1)) overflows a
    # double, which is no floor, not an OverflowError
    mesh = build_mesh("ball", (1.0,), 65)
    assert verify._floor(verify._ShootingSetup(mesh, None), 1.001, 1.0, 0.0) is None
    with pytest.raises(ConvergenceError, match="no comparison floor"):
        homogeneous_shooting(mesh, p=1.001, alpha=1.0, b=1.0)
    assert shots == []


@pytest.mark.parametrize("kind, n", [("ball", 65), ("interval", 129)])
def test_prediction_above_the_root(monkeypatch, shots, kind, n):
    # a predicted root above the true one (E > 0), which monotone Picard
    # sweeps never give beyond quadrature error: the ladder from the floor
    # takes over, and its root is the unpatched one
    mesh = build_mesh(kind, (1.0,), n)
    setup = _ShootingSetup(mesh, lambda x: np.ones_like(x))
    root = verify._center_value(setup, 4.0, 1.0, 1.0)[0][0]
    a_lo = verify._floor(setup, 4.0, 1.0, 1.0)
    for above in (1e-4, 1e-2):
        monkeypatch.setattr(verify, "_predict", lambda *args: root * (1.0 + above))
        shots.clear()
        got = verify._center_value(setup, 4.0, 1.0, 1.0)[0][0]
        assert shots[:3] == [root * (1.0 + above), a_lo, 2.0 * a_lo]
        assert got == pytest.approx(root, rel=1e-15, abs=0.0)


# center values of the benchmark's oracle cases, as computed by the oracle
# that restarted every inner solve from a = 0 with t1 = T(0)
ORACLE_CENTERS = {
    "uniqueness": 0.00012499952493708635,
    "supercritical": 0.0016579511450665948,
    "mountain-pass": 0.008327528022736829,
    "b0-scan": 11.822075713446333,
}


def test_oracle_center_values_unchanged(ball):
    one = lambda x: np.ones_like(x)  # noqa: E731
    fine = build_mesh("interval", (1.0,), 513)
    coarse = build_mesh("interval", (1.0,), 129)
    uniq = ProblemParams(b=2.0 * b0_for(fine), alpha=1.0, p=2.0, lam=1e-3,
                         f=const_one(fine))
    got = {
        "uniqueness": kirchhoff_shooting(fine, uniq, f_fn=one).values[256],
        "supercritical": kirchhoff_shooting(
            ball, ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01,
                                f=const_one(ball)), f_fn=one).values[0],
        "mountain-pass": kirchhoff_shooting(
            ball, ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05,
                                f=const_one(ball)), f_fn=one).values[0],
        "b0-scan": homogeneous_shooting(
            coarse, 2.0, 1.0, 0.01 * b0_for(coarse)).solution.values[64],
    }
    for name, center in ORACLE_CENTERS.items():
        assert got[name] == pytest.approx(center, rel=1e-9, abs=0.0), name


def _rk4_reference(u0, h, nsteps, dim, p, c_pow, c_f, f_half, u, du):
    # the RK4 shot as first written, with the forcing scaled by c_f at
    # every stage instead of once per shot
    fh = memoryview(f_half)
    uv = memoryview(u)
    dv = memoryview(du)
    h = float(h)
    hh = 0.5 * h
    h6 = h / 6.0
    nu = dim - 1.0
    tiny = 1e-300
    y = uv[0] = float(u0)
    v = dv[0] = 0.0
    try:
        for k in range(nsteps):
            r = k * h

            up = y if y > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k]
            if r < tiny:
                k1v = -g / dim
            else:
                k1v = -g - nu * v / r
            k1y = v

            rm = r + hh
            y2 = y + hh * k1y
            v2 = v + hh * k1v
            up = y2 if y2 > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k + 1]
            k2v = -g - nu * v2 / rm
            k2y = v2

            y3 = y + hh * k2y
            v3 = v + hh * k2v
            up = y3 if y3 > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k + 1]
            k3v = -g - nu * v3 / rm
            k3y = v3

            rp = r + h
            y4 = y + h * k3y
            v4 = v + h * k3v
            up = y4 if y4 > 0.0 else 0.0
            g = c_pow * up**p + c_f * fh[2 * k + 2]
            k4v = -g - nu * v4 / rp
            k4y = v4

            y = uv[k + 1] = y + h6 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            v = dv[k + 1] = v + h6 * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    except OverflowError:
        u[k + 1:] = np.nan
        du[k + 1:] = np.nan
    return u, du


@pytest.mark.parametrize("kind", ["interval", "ball"])
@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
@pytest.mark.parametrize("a, c_pow, c_f", [(0.3, 1.0, 0.0), (0.3, 1.0, 2.5),
                                           (0.0, 1.0, 0.7), (1e100, 1.0, 0.0),
                                           (3.0, -1.0, 0.0), (0.0, 0.0, 1.0),
                                           (1e100, 0.0, 0.5), (1e50, 0.0, -1e53)])
def test_rk4_matches_reference_bit_for_bit(kind, p, a, c_pow, c_f):
    # forced and unforced shots in dim 1 and 3, and linear ones (c_pow = 0,
    # running sums in dim 1); a = 1e100 overflows the power in the first
    # step, and c_pow = -1 (and a = 1e50 at p = 6) blows up partway out:
    # the profile is nan from the same index on
    mesh = build_mesh(kind, (1.0,), 65)
    setup = _ShootingSetup(mesh, lambda r: 1.0 + np.cos(3.0 * r))
    n = setup.nsteps
    args = (a, setup.h_s, n, setup.dim, p, c_pow, c_f, setup.f_half)
    got = _kernels.rk4_radial(*args, np.empty(n + 1), np.empty(n + 1))
    want = _rk4_reference(*args, np.empty(n + 1), np.empty(n + 1))
    for x, y in zip(got, want):
        assert np.array_equal(x, y, equal_nan=True)
    if p == 6.0 and a == 1e100:
        assert np.isnan(got[0][1:]).all() and np.isfinite(got[0][0])
    if (c_pow < 0.0 or a == 1e50) and p == 6.0:
        first_nan = int(np.argmax(np.isnan(got[0])))
        assert 1 < first_nan < n


def test_kirchhoff_shooting_outer_cap(ball, monkeypatch):
    # at lambda = 1 the outer loop needs three inner solves; at lambda =
    # 0.01 its first iterate already settles, so no cap could be hit
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=1.0, f=const_one(ball))
    monkeypatch.setattr(verify, "MAX_OUTER", 1)
    with pytest.raises(ConvergenceError):
        kirchhoff_shooting(ball, params, f_fn=lambda r: np.ones_like(r))


# center values at lambda = 0 from the secant outer loop over unforced
# inner solves, which exact scaling replaced
UNFORCED_CENTERS = [
    ("interval", 129, 4.0, 1.0, 1.0, 70.56023017013466),
    ("interval", 513, 4.0, 1.0, 1.0, 70.59196605260362),
    ("ball", 65, 4.0, 1.0, 1.0, 202.95455117102273),
    ("ball", 65, 3.5, 0.5, 2.0, 36.866879952639145),
]


@pytest.mark.parametrize("kind, n, p, alpha, b, center", UNFORCED_CENTERS,
                         ids=[f"{k}{n}-p{p:g}-a{a:g}-b{b:g}"
                              for k, n, p, a, b, _ in UNFORCED_CENTERS])
def test_kirchhoff_shooting_unforced_by_scaling(kind, n, p, alpha, b, center):
    mesh = build_mesh(kind, (1.0,), n)
    params = ProblemParams(b=b, alpha=alpha, p=p, lam=0.0)
    u = kirchhoff_shooting(mesh, params)
    assert u.values[0 if kind == "ball" else n // 2] == pytest.approx(
        center, rel=1e-10, abs=0.0)
    probe = homogeneous_shooting(mesh, p, alpha, b)
    assert np.array_equal(u.values, probe.solution.values)


@pytest.mark.parametrize("kind, n", [("interval", 513), ("ball", 65)])
def test_kirchhoff_shooting_unforced_without_root_raises(shots, kind, n):
    # p = 2, alpha = 1, b = 1 is above the b threshold: the consistency map
    # has no root, which the one base profile settles
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    with pytest.raises(ConvergenceError, match="no consistency root"):
        kirchhoff_shooting(build_mesh(kind, (1.0,), n), params)
    assert 0 < len(shots) <= 10


@pytest.mark.parametrize("p", [5.5, 6.0, 7.0])
@pytest.mark.parametrize("n", [33, 65, 129])
def test_unforced_supercritical_ball_refused(shots, n, p):
    # above 2* = 5 the Pohozaev identity leaves the unforced problem on a
    # ball no positive solution; a shot would return a grid artefact whose
    # center value grows like h^(-2/(p-1)), so both oracles refuse at once
    mesh = build_mesh("ball", (1.0,), n)
    with pytest.raises(ConvergenceError, match="Pohozaev"):
        homogeneous_shooting(mesh, p, 0.5, 1.0)
    with pytest.raises(ConvergenceError, match="Pohozaev"):
        kirchhoff_shooting(mesh, ProblemParams(b=1.0, alpha=0.5, p=p, lam=0.0))
    assert shots == []


def test_kirchhoff_shooting_needs_callable(ball):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    with pytest.raises(ValueError):
        kirchhoff_shooting(ball, params)


# ---------------------------------------------------------------------------
# uniqueness / decay probes


def test_uniqueness_probe_small_lambda(interval):
    b0 = b0_for(interval)
    params = ProblemParams(b=2.0 * b0, alpha=1.0, p=2.0, lam=1e-3,
                           f=const_one(interval))
    cfg = SolverConfig()
    rec = uniqueness_probe(interval, params, cfg,
                           descent_minimize(interval, params, cfg))
    assert rec.lam == 1e-3
    assert rec.count == 1
    assert rec.contraction < 1.0
    assert rec.certified


def test_uniqueness_probe_regime_gate(interval):
    params = ProblemParams(b=1.0, alpha=0.5, p=3.0, lam=0.1, f=const_one(interval))
    with pytest.raises(RegimeError):
        uniqueness_probe(interval, params, SolverConfig(),
                         descent_minimize(interval, params, SolverConfig()))


def test_supnorm_decay_scan(interval):
    b0 = b0_for(interval)
    params = ProblemParams(b=2.0 * b0, alpha=1.0, p=2.0, lam=1.0,
                           f=const_one(interval))
    lams = [2.0 ** (-k) for k in range(11)]
    rep = supnorm_decay_scan(interval, params, lams)
    assert rep.completed
    assert len(rep.sup_norms) == 11
    assert rep.final_over_first <= 0.05
    assert rep.monotone_ok
    assert rep.decay_ok
    assert rep.limit_gap <= 0.05


def test_supnorm_decay_zero_endpoint(interval):
    b0 = b0_for(interval)
    params = ProblemParams(b=2.0 * b0, alpha=1.0, p=2.0, lam=1.0,
                           f=const_one(interval))
    rep = supnorm_decay_scan(interval, params, [1.0, 0.5, 0.0])
    assert rep.sup_norms[-1] == 0.0
    assert rep.completed


def test_supnorm_decay_regime_gate(interval):
    params = ProblemParams(b=1.0, alpha=0.5, p=3.0, lam=1.0, f=const_one(interval))
    with pytest.raises(RegimeError):
        supnorm_decay_scan(interval, params, [1.0, 0.5])


def test_transformed_gradient_bound(ball):
    # testing the rescaled equation with its own solution and dropping the
    # nonnegative boundary flux of the integral identity gives
    #   |grad v|^2 <= eff_lam [(2/eta) int (x.grad f) v + (1 + (N+2)/eta) int f v],
    # eta = N - 2 - 2N/(p+1) > 0 above the critical exponent; x.grad f = 0
    # for the constant forcing
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    out = picard_iterate(ball, params, SolverConfig())
    assert out.converged
    v, eff_lam = rescale_to_semilinear(ball, params, out.solution)
    N = ball.dim
    eta = N - 2.0 - 2.0 * N / (params.p + 1.0)
    assert eta > 0.0
    rhs = eff_lam * (1.0 + (N + 2.0) / eta) * float(
        np.sum(ball.weights * params.f.values * v.values))
    assert rhs > 0.0
    assert h1_seminorm(ball, v) ** 2 <= 1.2 * rhs


# ---------------------------------------------------------------------------
# residual certificate


def test_certificate_zero_field(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=const_one(interval))
    assert residual_certificate(interval, params, np.zeros(interval.shape)) == 1.0


def test_certificate_linear_growth(interval):
    # manufactured exact solution, then a small eigenmode perturbation
    psi = constants.torsion(interval)
    coeff = 1.0 + h1_seminorm(interval, psi) ** 2
    fvals = coeff - np.maximum(psi.values, 0.0) ** 2
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=GridFunction(interval, fvals))
    base = residual_certificate(interval, params, psi)
    assert base <= 1e-10
    _, phi1 = constants.eigenpair(interval)
    certs = []
    for eps in (1e-3, 2e-3):
        u = GridFunction(interval, psi.values + eps * phi1.values)
        certs.append(residual_certificate(interval, params, u))
    assert certs[0] > 1e-5
    assert certs[1] / certs[0] == pytest.approx(2.0, rel=0.2)
