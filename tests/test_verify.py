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

from kirchhoff_lab import constants, verify
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
    transformed_gradient_bound,
    uniqueness_probe,
    xdot_grad_values,
)


@pytest.fixture(scope="module")
def interval():
    return build_mesh("interval", (1.0,), 65)


@pytest.fixture(scope="module")
def cinterval():
    return build_mesh("interval", (1.0,), 65, centered=True)


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


def test_pohozaev_interval_torsion_closed_form(cinterval):
    # quadratic profile: boundary flux is exact, the volume side carries
    # only the trapezoid defect, so residual = h^2/4 on the nose
    h = cinterval.h
    psi = constants.torsion(cinterval)
    ones = np.ones(cinterval.shape)
    rep = pohozaev_residual(cinterval, psi, p=2.0, c_pow=0.0,
                            forcing=ones, forcing_xdot=np.zeros(cinterval.shape))
    assert abs(rep.boundary - 0.25) < 1e-13
    assert abs(rep.volume - (0.25 - h * h / 4.0)) < 1e-13
    assert abs(rep.residual - h * h / 4.0) < 1e-13
    assert rep.rel_residual <= 5.0 * h


def test_pohozaev_uncentered_interval_matches(interval):
    # star-shaped about the left endpoint: one face drops out, same identity
    h = interval.h
    psi = constants.torsion(interval)
    rep = pohozaev_residual(interval, psi, p=2.0, c_pow=0.0,
                            forcing=np.ones(interval.shape),
                            forcing_xdot=np.zeros(interval.shape))
    assert abs(rep.boundary - 0.25) < 1e-13
    assert abs(rep.residual - h * h / 4.0) < 1e-13


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
    skewed = build_mesh("rectangle", (1.0, 2.0), (33, 49), centered=True)
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
    "interval": ("interval", (1.0,), 65, False),
    "centered-interval": ("interval", (1.0,), 65, True),
    "rectangle": ("rectangle", (1.0, 2.0), (17, 33), False),
    "centered-rectangle": ("rectangle", (1.0, 2.0), (17, 33), True),
    "ball": ("ball", (1.0,), 65, False),
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
    xs = mesh.nodes
    s = [x - o for x, o in zip(xs, mesh.origin)]
    ax = range(len(s))
    if spec.startswith("eigenmode"):
        k = [np.pi / L for L in mesh.extents]
        return 1.3 * sum(
            xs[i] * k[i] * math.prod(np.cos(k[j] * s[j]) if j == i
                                     else np.sin(k[j] * s[j]) for j in ax)
            for i in ax)
    # f = sum_i q_i prod_{j != i} w_j with w = (s(L - s))^2, q = -w''
    L = mesh.extents
    w = [(s[j] * (L[j] - s[j])) ** 2 for j in ax]
    dw = [2.0 * s[j] * (L[j] - s[j]) * (L[j] - 2.0 * s[j]) for j in ax]
    q = [-2.0 * L[j] ** 2 + 12.0 * L[j] * s[j] - 12.0 * s[j] ** 2 for j in ax]
    dq = [12.0 * L[j] - 24.0 * s[j] for j in ax]

    def factor(i, j, k):  # d/dx_k of the j-th factor of term i
        if j == i:
            return dq[j] if j == k else q[j]
        return dw[j] if j == k else w[j]
    return sum(xs[k] * sum(math.prod(factor(i, j, k) for j in ax) for i in ax)
               for k in ax)


@pytest.mark.parametrize("spec", ["constant 1.0", "eigenmode 1.3",
                                  "quartic-signchanging"])
@pytest.mark.parametrize("name", list(XDOT_MESHES))
def test_xdot_grad_values_match_hand_derivatives(name, spec):
    mesh = build_mesh(*XDOT_MESHES[name][:3], centered=XDOT_MESHES[name][3])
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


def test_shooting_overflow_is_no_sign_change(interval):
    # the endpoint grows without bound and (u+)^20 overflows a double on
    # the upper rungs: the overflowing shot reads as a non-finite endpoint,
    # which ends the ladder, not as an OverflowError
    with pytest.raises(ConvergenceError, match="no sign change"):
        shooting_solve(interval, p=20.0, c_pow=0.0, c_f=1.0,
                       f_fn=lambda x: -np.ones_like(x))


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


def test_brent_linear_torsion_map(ball):
    # the c_pow = 0 endpoint map is affine in the center value: the first
    # secant step lands on the root, within the ladder rung [1/8, 1/4]
    setup = _ShootingSetup(ball, lambda r: np.ones_like(r))
    shots = []

    def endpoint(a):
        shots.append(a)
        return setup.endpoint(a, 2.0, 0.0, 1.0)

    lo, hi = 0.125, 0.25
    root = _brent(endpoint, lo, hi, setup.endpoint(lo, 2.0, 0.0, 1.0),
                  setup.endpoint(hi, 2.0, 0.0, 1.0), 1e-15)
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
    # four inner solves of about 6 shots each: a = 0, the floor rung, the
    # ladder above it and Brent; the root's profile is kept, not shot again
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    oracle = kirchhoff_shooting(ball, params, f_fn=lambda r: np.ones_like(r))
    assert 0 < len(shots) <= 24
    assert sup_norm(ball, oracle) > 0.0


def test_homogeneous_shooting_shot_budget(shots):
    # a = 0, the floor rung 4, rungs 8 and 16, then Brent inside [8, 16]
    probe = homogeneous_shooting(build_mesh("interval", (1.0,), 129),
                                 p=2.0, alpha=1.0, b=0.1)
    assert probe.boundary_defect <= 1e-8
    assert shots[:2] == [0.0, 4.0]
    assert len(shots) <= 11


@pytest.mark.parametrize("kind", ["interval", "ball"])
def test_ladder_floor_skips_only_same_sign_rungs(kind):
    # the comparison bounds behind the floor, checked rung by rung: every
    # skipped rung has the sign of the floor rung the ladder starts from
    mesh = build_mesh(kind, (1.0,), 129 if kind == "interval" else 65)
    forced = verify._ShootingSetup(mesh, lambda x: np.ones_like(x))
    unforced = verify._ShootingSetup(mesh, None)
    for p in (1.5, 2.0, 4.0, 6.0):
        for c_pow in (1.0, 1e-3):
            for setup, c_f in ((forced, 1e-6), (forced, 1e-3), (forced, 10.0),
                               (unforced, 0.0)):
                e0 = setup.endpoint(0.0, p, c_pow, c_f)
                k = verify._floor_rung(setup, p, c_pow, c_f, e0)
                assert k >= 0
                sign = np.sign(setup.endpoint(verify.LADDER[k], p, c_pow, c_f))
                assert sign == (-1.0 if c_f > 0.0 else 1.0)
                for a in verify.LADDER[:k]:
                    assert np.sign(setup.endpoint(a, p, c_pow, c_f)) == sign, (
                        p, c_pow, c_f, a)


def test_kirchhoff_shooting_outer_cap(ball):
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    with pytest.raises(ConvergenceError):
        kirchhoff_shooting(ball, params, f_fn=lambda r: np.ones_like(r),
                           max_outer=1)


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
    recs = uniqueness_probe(interval, params, [1e-3], SolverConfig())
    assert len(recs) == 1
    assert recs[0].count == 1
    assert recs[0].contraction < 1.0
    assert recs[0].certified


def test_uniqueness_probe_empty(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.1, f=const_one(interval))
    assert uniqueness_probe(interval, params, [], SolverConfig()) == []


def test_uniqueness_probe_regime_gate(interval):
    params = ProblemParams(b=1.0, alpha=0.5, p=3.0, lam=0.1, f=const_one(interval))
    with pytest.raises(RegimeError):
        uniqueness_probe(interval, params, [0.1], SolverConfig())


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
    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=const_one(ball))
    out = picard_iterate(ball, params, SolverConfig())
    assert out.converged
    lhs, rhs = transformed_gradient_bound(ball, params, out.solution,
                                          np.zeros(ball.shape))
    assert rhs > 0.0
    assert lhs <= 1.2 * rhs


def test_transformed_gradient_bound_needs_supercritical(ball):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05, f=const_one(ball))
    u = GridFunction(ball, np.zeros(ball.shape))
    with pytest.raises(RegimeError):
        transformed_gradient_bound(ball, params, u, np.zeros(ball.shape))


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
