"""Mesh construction, discrete operators, norms and spectral constants."""

import gc
import os
import pathlib
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kirchhoff_lab
from kirchhoff_lab import _kernels, constants
from kirchhoff_lab.constants import sobolev_minimizer
from kirchhoff_lab.exceptions import ConvergenceError, MeshError, MeshMismatchError
from kirchhoff_lab.mesh import (
    GridFunction,
    build_mesh,
    dense_operator,
    h1_seminorm,
    l2_inner,
    laplacian_apply,
    lp_norm,
    poisson_solve,
    principal_eigenpair,
    sine_poisson,
    sup_norm,
)
from kirchhoff_lab.problem import ProblemParams
from kirchhoff_lab.solvers import SolverConfig, newton_nonlocal


def random_field(mesh, rng, nonneg=False):
    vals = rng.standard_normal(mesh.shape)
    if nonneg:
        vals = np.abs(vals)
    return GridFunction(mesh, vals)


def test_interval_mesh_basic():
    mesh = build_mesh("interval", 1.0, 5)
    assert mesh.h == 0.25
    assert mesh.shape == (3,)
    np.testing.assert_allclose(mesh.coords[0], [0.25, 0.5, 0.75])


def test_ball_mesh_basic():
    mesh = build_mesh("ball", 1.0, 101)
    assert mesh.dim == 3
    assert mesh.h == pytest.approx(0.01)
    assert mesh.shape == (100,)
    assert mesh.coords[0][0] == 0.0
    # origin carries zero quadrature weight; that is what makes the
    # ghost-node origin row exactly self-adjoint
    assert mesh.weights[0] == 0.0


def test_mesh_rejects_bad_arguments():
    with pytest.raises(MeshError):
        build_mesh("interval", 1.0, 3)
    with pytest.raises(MeshError):
        build_mesh("interval", -1.0, 9)
    with pytest.raises(MeshError):
        build_mesh("hexagon", 1.0, 9)
    # h^2 underflows to 0, or overflows so that 1/h^2 does: checked per axis
    for kind, extents in (("interval", 1e-200), ("interval", 1e200),
                          ("ball", 1e-200), ("rectangle", (1.0, 1e-200)),
                          ("rectangle", (1e200, 1.0))):
        with pytest.raises(MeshError, match=r"h\^2 or 1/h\^2"):
            build_mesh(kind, extents, 17)


def test_mesh_mismatch_detected():
    m1 = build_mesh("interval", 1.0, 9)
    m2 = build_mesh("interval", 1.0, 9)
    u = m1.zeros()
    v = m2.zeros()
    with pytest.raises(MeshMismatchError):
        _ = u + v
    with pytest.raises(MeshMismatchError):
        laplacian_apply(m1, v)


# ---------------------------------------------------------------------------
# hand-checked values on the coarse unit interval


def test_torsion_interval_nodal_values():
    # -u'' = 1 on (0,1): u = x(1-x)/2; the 3-point stencil is exact on
    # quadratics so the nodal values at h = 1/4 come out exactly
    mesh = build_mesh("interval", 1.0, 5)
    u = poisson_solve(mesh, np.ones(mesh.shape))
    np.testing.assert_allclose(u.values, [0.09375, 0.125, 0.09375], atol=1e-14)


def test_torsion_interval_seminorm_squared():
    mesh = build_mesh("interval", 1.0, 5)
    u = poisson_solve(mesh, np.ones(mesh.shape))
    assert h1_seminorm(mesh, u) ** 2 == pytest.approx(0.078125, abs=1e-15)


def test_constant_l2_norm_within_quadrature_error():
    mesh = build_mesh("interval", 1.0, 5)
    one = GridFunction(mesh, np.ones(mesh.shape))
    assert abs(lp_norm(mesh, one, 2.0) - 1.0) <= mesh.h


def test_torsion_ball_nodal_values_exact():
    # u = (R^2 - r^2)/6 solves -lap u = 1 on the unit ball; quadratic, so
    # both the generic rows and the ghost-node origin row are exact
    mesh = build_mesh("ball", 1.0, 41)
    u = poisson_solve(mesh, np.ones(mesh.shape))
    r = mesh.coords[0]
    np.testing.assert_allclose(u.values, (1.0 - r**2) / 6.0, atol=1e-13)


# ---------------------------------------------------------------------------
# operator identities


@pytest.mark.parametrize(
    "mesh",
    [
        build_mesh("interval", 1.0, 33),
        build_mesh("rectangle", (1.0, 1.5), (17, 13)),
        build_mesh("ball", 1.0, 33),
    ],
    ids=["interval", "rectangle", "ball"],
)
def test_laplacian_symmetry_and_dirichlet_form(mesh):
    rng = np.random.default_rng(7)
    for _ in range(5):
        u = random_field(mesh, rng)
        v = random_field(mesh, rng)
        Lu = laplacian_apply(mesh, u)
        Lv = laplacian_apply(mesh, v)
        a = l2_inner(mesh, Lu, v)
        b = l2_inner(mesh, u, Lv)
        scale = max(abs(a), abs(b), 1.0)
        assert abs(a - b) <= 1e-12 * scale
        q = l2_inner(mesh, u, Lu)
        s2 = h1_seminorm(mesh, u) ** 2
        assert abs(q - s2) <= 1e-12 * max(s2, 1.0)


@given(
    mx=st.integers(2, 30),
    my=st.integers(2, 30),
    Lx=st.floats(0.1, 10.0),
    Ly=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_rectangle_seminorm_is_dirichlet_form(mx, my, Lx, Ly, seed):
    # the face sums of h1_seminorm against <u, -lap_h u>_W by the stencil:
    # the same quadratic form, summed in another order
    mesh = build_mesh("rectangle", (Lx, Ly), (mx + 2, my + 2))
    u = random_field(mesh, np.random.default_rng(seed))
    s2 = h1_seminorm(mesh, u) ** 2
    q = l2_inner(mesh, u, laplacian_apply(mesh, u))
    assert abs(s2 - q) <= 1e-13 * s2


@pytest.mark.parametrize(
    "mesh",
    [
        build_mesh("interval", 1.0, 33),
        build_mesh("rectangle", (1.0, 1.0), (13, 13)),
        build_mesh("ball", 1.0, 33),
    ],
    ids=["interval", "rectangle", "ball"],
)
def test_poisson_inverts_laplacian(mesh):
    rng = np.random.default_rng(11)
    f = random_field(mesh, rng)
    u = poisson_solve(mesh, f)
    res = laplacian_apply(mesh, u) - f
    assert sup_norm(mesh, res) <= 1e-9 * max(1.0, sup_norm(mesh, f))


@pytest.mark.parametrize(
    "mesh",
    [
        build_mesh("interval", 1.0, 33),
        build_mesh("rectangle", (1.0, 1.0), (13, 13)),
        build_mesh("ball", 1.0, 33),
    ],
    ids=["interval", "rectangle", "ball"],
)
def test_discrete_strong_maximum_principle(mesh):
    rng = np.random.default_rng(23)
    for _ in range(5):
        vals = np.abs(rng.standard_normal(mesh.shape)) + 1e-3
        u = poisson_solve(mesh, vals)
        assert np.min(u.values) > 0.0


def second_difference(n, h):
    return (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2


def assembled_rectangle(mesh):
    """The 5-point minus-Laplacian as a dense matrix, unknowns ordered like
    ``values.ravel()`` (x-row major)."""
    (mx, my), (hx, hy) = mesh.shape, mesh.spacing
    return (np.kron(second_difference(mx, hx), np.eye(my))
            + np.kron(np.eye(mx), second_difference(my, hy)))


def test_dense_operator_matches_apply():
    rect = build_mesh("rectangle", (1.0, 2.0), (7, 9))
    for mesh, A in (
        (build_mesh("interval", 1.0, 9), None),
        (rect, assembled_rectangle(rect)),
        (build_mesh("ball", 1.0, 9), None),
    ):
        if A is None:
            A = dense_operator(mesh)
        rng = np.random.default_rng(3)
        u = rng.standard_normal(mesh.shape)
        direct = A @ u.ravel()
        via_apply = laplacian_apply(mesh, GridFunction(mesh, u)).values.ravel()
        np.testing.assert_allclose(direct, via_apply, rtol=1e-13, atol=1e-13)
    with pytest.raises(MeshError):
        dense_operator(rect)


@pytest.mark.parametrize("kind", ["interval", "ball"])
@pytest.mark.parametrize("n", [5, 65, 513])
def test_dense_operator_is_sum_of_diagonal_matrices(kind, n):
    # written into one zeroed matrix, bit for bit the sum of three np.diag
    sub, diag, sup = build_mesh(kind, 1.0, n).stencil
    summed = np.diag(diag) + np.diag(sub[1:], -1) + np.diag(sup[:-1], 1)
    assert dense_operator(build_mesh(kind, 1.0, n)).tobytes() == summed.tobytes()


def negative_eigenvalue_count(M, my):
    """Negative eigenvalues of a symmetric block-tridiagonal M with (my, my)
    blocks: by Haynsworth's inertia additivity they are those of its Schur
    blocks S_0 = D_0, S_i = D_i - C_i S_{i-1}^{-1} C_i^T.  Seconds cheaper
    than eigvalsh of the whole matrix at 63x63."""
    count = 0
    S = None
    for i in range(0, M.shape[0], my):
        D = M[i:i + my, i:i + my]
        S = D if S is None else D - M[i:i + my, i - my:i] @ np.linalg.solve(
            S, M[i - my:i, i:i + my])
        count += int(np.sum(np.linalg.eigvalsh(S) < 0.0))
    return count


def dense_local(mesh, P, coeff, v, kappa):
    """coeff*(-lap) - diag(P) + kappa v v^T as a dense matrix."""
    v = v.ravel()
    return (coeff * assembled_rectangle(mesh) - np.diag(P.ravel())
            + kappa * np.outer(v, v))


@pytest.mark.parametrize("definite", [True, False], ids=["definite", "indefinite"])
@pytest.mark.parametrize("kappa", [0.0, 3.0])
def test_local_minres_matches_dense(definite, kappa):
    # 7x11 interior nodes, hx = 1/8 != hy = 1/6; the Newton Jacobian on a
    # rectangle, coeff*(-lap) - diag(P) + kappa v v^T, definite or with
    # negative eigenvalues, with and without its rank-one term
    mesh = build_mesh("rectangle", (1.0, 2.0), (9, 13))
    rng = np.random.default_rng(5)
    coeff = 2.5
    if definite:
        P = -rng.uniform(0.0, 50.0, mesh.shape)
    else:
        P = rng.uniform(0.0, 4.0 * coeff * principal_eigenpair(mesh)[0], mesh.shape)
    v = rng.standard_normal(mesh.shape)
    M = dense_local(mesh, P, coeff, v, kappa)
    eigs = np.linalg.eigvalsh(M)
    assert (eigs.min() > 0.0) == definite
    r = rng.standard_normal(mesh.shape)
    x = _kernels.local_minres(r, P, coeff, *mesh.spacing, v, kappa, sine_poisson(mesh))
    ref = np.linalg.solve(M, r.ravel()).reshape(mesh.shape)
    assert x.shape == r.shape
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def test_local_minres_matches_dense_many_negative_eigenvalues():
    # 63x63 interior nodes, P ~ U(0, 21 coeff lam1): about as many negative
    # eigenvalues as modes with lam_ij < 10.5 lam1, 13 on the unit square
    # (13 for this draw)
    mesh = build_mesh("rectangle", (1.0, 1.0), (65, 65))
    my = mesh.shape[1]
    rng = np.random.default_rng(63)
    coeff = 1.7
    P = rng.uniform(0.0, 21.0 * coeff * principal_eigenpair(mesh)[0], mesh.shape)
    M = coeff * assembled_rectangle(mesh) - np.diag(P.ravel())
    assert 10 <= negative_eigenvalue_count(M, my) <= 16
    r = rng.standard_normal(mesh.shape)
    x = _kernels.local_minres(r, P, coeff, *mesh.spacing, np.zeros(mesh.shape), 0.0,
                              sine_poisson(mesh))
    ref = np.linalg.solve(M, r.ravel()).reshape(mesh.shape)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


def discrete_lam1(mesh):
    """Exact first eigenvalue of the rectangle's 5-point minus-Laplacian."""
    (mx, my), (hx, hy) = mesh.shape, mesh.spacing
    return ((4.0 / hx**2) * np.sin(0.5 * np.pi / (mx + 1)) ** 2
            + (4.0 / hy**2) * np.sin(0.5 * np.pi / (my + 1)) ** 2)


def test_local_minres_singular_reports_failure():
    # P = coeff * lam1 at the exact discrete lam1 leaves the operator with
    # the null vector sin(pi x) sin(pi y); a random R is not in its range
    mesh = build_mesh("rectangle", (1.0, 2.0), (9, 13))
    coeff = 2.5
    P = np.full(mesh.shape, coeff * discrete_lam1(mesh))
    r = np.random.default_rng(11).standard_normal(mesh.shape)
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.local_minres(r, P, coeff, *mesh.spacing, np.ones(mesh.shape), 0.0,
                              sine_poisson(mesh))


@pytest.mark.parametrize("perturb", ["eigenvalues", "basis"])
def test_local_minres_perturbed_basis_trips_residual_check(perturb):
    # MINRES runs on sine coefficients, but its final residual is taken
    # with the physical stencil: a basis that no longer diagonalises the
    # stencil solves another operator, and that check must catch it
    mesh = build_mesh("rectangle", (1.0, 2.0), (9, 13))
    rng = np.random.default_rng(17)
    coeff = 2.5
    P = rng.uniform(0.0, 4.0 * coeff * discrete_lam1(mesh), mesh.shape)
    v = rng.standard_normal(mesh.shape)
    r = rng.standard_normal(mesh.shape)
    x = _kernels.local_minres(r, P, coeff, *mesh.spacing, v, 3.0, sine_poisson(mesh))
    assert np.all(np.isfinite(x))
    basis = _kernels.SineSolver(*mesh.shape, *mesh.spacing)
    if perturb == "eigenvalues":
        basis.lam = basis.lam * (1.0 + 1e-6)
    else:
        basis.Qx = basis.Qx + 1e-6 * rng.standard_normal(basis.Qx.shape)
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.local_minres(r, P, coeff, *mesh.spacing, v, 3.0, basis)


def test_local_minres_zero_gamma_raises():
    # with the identity for transform, unit eigenvalues and P = coeff = 1
    # the preconditioned operator is exactly zero: the first Lanczos step
    # breaks down with alfa = beta = 0, so the Givens gamma is exactly zero,
    # which must raise LinAlgError, not ZeroDivisionError or a warning
    mesh = build_mesh("rectangle", (1.0, 2.0), (9, 13))
    basis = SimpleNamespace(transform=lambda R: R, lam=np.ones(mesh.shape))
    r = np.random.default_rng(19).standard_normal(mesh.shape)
    with pytest.raises(np.linalg.LinAlgError):
        _kernels.local_minres(r, np.ones(mesh.shape), 1.0, *mesh.spacing,
                              np.zeros(mesh.shape), 0.0, basis)


@given(
    mx=st.integers(2, 40),
    my=st.integers(2, 40),
    Lx=st.floats(0.5, 2.0),
    Ly=st.floats(0.5, 2.0),
    coeff=st.floats(0.5, 3.0),
    shift=st.floats(-4.0, 8.0),
    kappa=st.floats(0.0, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_local_minres_and_sine_poisson_on_random_rectangles(mx, my, Lx, Ly, coeff,
                                                            shift, kappa, seed):
    # shift < 0 gives a definite local part; up to 8 coeff*lam1 it has
    # several negative eigenvalues, and kappa >= 0 adds the rank-one term;
    # the sine transform of _kernels.sine_solver is the preconditioner
    mesh = build_mesh("rectangle", (Lx, Ly), (mx + 2, my + 2))
    hx, hy = mesh.spacing
    assume(abs(hx - hy) > 1e-3 * max(hx, hy))
    rng = np.random.default_rng(seed)
    lam1 = discrete_lam1(mesh)
    P = shift * coeff * lam1 * rng.uniform(0.0, 1.0, mesh.shape)
    v = rng.standard_normal(mesh.shape) * np.sqrt(coeff * lam1 / mesh.weights.size)
    M = dense_local(mesh, P, coeff, v, kappa)
    # an eigenvalue within round-off of zero makes the comparison meaningless
    assume(np.min(np.abs(np.linalg.eigvalsh(M))) >= 1e-3 * coeff * lam1)
    r = rng.standard_normal(mesh.shape)
    x = _kernels.local_minres(r, P, coeff, hx, hy, v, kappa, sine_poisson(mesh))
    ref = np.linalg.solve(M, r.ravel()).reshape(mesh.shape)
    assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize(
    "extents, resolution",
    [
        ((1.0, 2.0), (9, 13)),   # 7 x 11, my odd, hx = 1/8 != hy = 1/6
        ((2.0, 1.0), (11, 8)),   # 9 x 6, my even
        ((0.7, 1.3), (10, 24)),  # 8 x 22, mx < my
        ((1.0, 0.5), (7, 4)),    # 5 x 2, the smallest my
        ((1.0, 1.0), (4, 4)),    # 2 x 2, the smallest grid
    ],
)
def test_rectangle_poisson_matches_assembled(extents, resolution):
    mesh = build_mesh("rectangle", extents, resolution)
    rng = np.random.default_rng(sum(resolution))
    f = rng.standard_normal(mesh.shape)
    ref = np.linalg.solve(assembled_rectangle(mesh), f.ravel()).reshape(mesh.shape)
    u = poisson_solve(mesh, f).values
    assert np.linalg.norm(u - ref) <= 1e-12 * np.linalg.norm(ref)


def test_rectangle_poisson_factors_nothing(monkeypatch):
    # the sine transform needs no LU: the Poisson solve, the per-mesh
    # constants built on it and Newton's local solves must not fall back to
    # a factorization
    def boom(*args, **kwargs):
        raise AssertionError("rectangle solve factored a matrix")

    for name in ("solve", "inv", "cholesky"):
        monkeypatch.setattr(np.linalg, name, boom)
    mesh = build_mesh("rectangle", (1.0, 1.5), (17, 13))
    poisson_solve(mesh, np.ones(mesh.shape))
    assert np.min(kirchhoff_lab.constants.torsion(mesh).values) > 0.0
    principal_eigenpair(mesh)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=GridFunction(mesh, np.ones(mesh.shape)))
    out = newton_nonlocal(mesh, params, SolverConfig(tol=1e-9), mesh.zeros())
    assert out.converged and out.iterations >= 2


def test_rectangle_sine_basis_built_once_per_mesh(monkeypatch):
    # Poisson solves, the torsion and every MINRES solve of a Newton run
    # share one pair of sine matrices per mesh
    built = []
    basis = _kernels._sine_basis

    def counted(m, h):
        built.append(m)
        return basis(m, h)

    monkeypatch.setattr(_kernels, "_sine_basis", counted)
    mesh = build_mesh("rectangle", (1.0, 1.5), (17, 13))
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=GridFunction(mesh, np.ones(mesh.shape)))
    poisson_solve(mesh, np.ones(mesh.shape))
    out = newton_nonlocal(mesh, params, SolverConfig(tol=1e-9), mesh.zeros())
    assert out.converged and out.iterations >= 2
    assert sorted(built) == [11, 15]
    assert sine_poisson(mesh) is sine_poisson(mesh)


def test_rectangle_eigenfunction_consistency():
    # lap(sin(pi x) sin(pi y)) = 2 pi^2 sin sin; leading truncation error of
    # the 5-point stencil is (h^2/12)(u_xxxx + u_yyyy) = (pi^4 h^2 / 6) u
    errs = {}
    for n in (17, 33):
        mesh = build_mesh("rectangle", (1.0, 1.0), (n, n))
        u = mesh.field_from_callable(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        Lu = laplacian_apply(mesh, u)
        err = sup_norm(mesh, Lu - 2.0 * np.pi**2 * u)
        h = 1.0 / (n - 1)
        assert err <= 1.05 * (np.pi**4 / 6.0) * h**2
        errs[n] = err
    assert 3.5 <= errs[17] / errs[33] <= 4.5


# ---------------------------------------------------------------------------
# spectral constants


def test_constants_cache_builds_each_key_once_per_mesh(monkeypatch):
    builds = []
    depth = [0]  # builds open around the current call

    def counted(name, fn):
        def build(mesh, *args):
            # Poisson solves inside another build (the embedding
            # minimizer's sweeps) are that build's work, not cache builds
            if name == "poisson_solve" and depth[0]:
                return fn(mesh, *args)
            p = args if name == "sobolev_minimizer" else ()
            builds.append((name, id(mesh), *p))
            depth[0] += 1
            try:
                return fn(mesh, *args)
            finally:
                depth[0] -= 1
        return build

    for name in ("principal_eigenpair", "sobolev_minimizer", "dense_operator",
                 "poisson_solve"):
        monkeypatch.setattr(constants, name, counted(name, getattr(constants, name)))
    meshes = [build_mesh("interval", 1.0, 17), build_mesh("ball", 1.0, 33)]
    for mesh in meshes:
        for _ in range(2):
            phi = constants.eigenpair(mesh)[1]
            assert constants.sobolev(mesh, 4) is constants.sobolev(mesh, 4.0)
            constants.sobolev(mesh, 2)
            constants.dense_op(mesh)
            constants.torsion(mesh)
    assert sorted(builds) == sorted(
        (name, id(mesh), *p) for mesh in meshes for name, p in (
            ("principal_eigenpair", ()), ("sobolev_minimizer", (4.0,)),
            ("sobolev_minimizer", (2.0,)), ("dense_operator", ()),
            ("poisson_solve", ())))
    # the cached fields refer back to their mesh; the cache must free both
    mesh_ref, values_ref = weakref.ref(meshes[-1]), weakref.ref(phi.values)
    del meshes, mesh, phi
    gc.collect()
    assert mesh_ref() is None and values_ref() is None


def test_interval_principal_eigenvalue_closed_form():
    mesh = build_mesh("interval", 1.0, 129)
    lam, phi = principal_eigenpair(mesh)
    h = mesh.h
    exact = (2.0 - 2.0 * np.cos(np.pi * h)) / h**2
    assert abs(lam - exact) <= 1e-10 * exact
    assert np.min(phi.values) > 0.0
    assert sup_norm(mesh, phi) == pytest.approx(1.0)


def test_rectangle_principal_eigenpair_closed_form():
    # the discrete eigenvector is sin(pi x/Lx) sin(pi y/Ly) sampled at the
    # nodes, with the sum of the two 1-D eigenvalues as eigenvalue
    mesh = build_mesh("rectangle", (1.0, 1.5), (17, 13))
    (hx, hy), (Lx, Ly) = mesh.spacing, mesh.extents
    lam, phi = principal_eigenpair(mesh)
    exact = ((4.0 / hx**2) * np.sin(np.pi * hx / (2.0 * Lx)) ** 2
             + (4.0 / hy**2) * np.sin(np.pi * hy / (2.0 * Ly)) ** 2)
    assert abs(lam - exact) <= 1e-12 * exact
    x, y = mesh.nodes
    mode = np.sin(np.pi * x / Lx) * np.sin(np.pi * y / Ly)
    # the first columns of the sine basis: exact up to round-off
    assert np.max(np.abs(phi.values - mode / np.max(mode))) <= 1e-14


@pytest.mark.parametrize("extents, resolution", [
    ((2.0, 0.5), (50, 9)),   # 48 x 7, even and odd node counts
    ((1.0, 1.0), (4, 4)),    # 2 x 2, the smallest grid
    ((3.0, 1.0), (49, 49)),
])
def test_rectangle_principal_eigenpair_is_the_discrete_mode(extents, resolution):
    # the discrete sin*sin mode, sup norm 1, and mu_x[0] + mu_y[0], to
    # round-off; the stencil maps phi to lam*phi
    mesh = build_mesh("rectangle", extents, resolution)
    lam, phi = principal_eigenpair(mesh)
    (hx, hy), (Lx, Ly) = mesh.spacing, mesh.extents
    mu_x = (4.0 / hx**2) * np.sin(np.pi * hx / (2.0 * Lx)) ** 2
    mu_y = (4.0 / hy**2) * np.sin(np.pi * hy / (2.0 * Ly)) ** 2
    assert lam == pytest.approx(mu_x + mu_y, rel=1e-14)
    x, y = mesh.nodes
    mode = np.sin(np.pi * x / Lx) * np.sin(np.pi * y / Ly)
    assert np.max(np.abs(phi.values - mode / np.max(mode))) <= 1e-14
    assert np.min(phi.values) > 0.0 and np.max(phi.values) == 1.0
    Lphi = laplacian_apply(mesh, phi).values
    assert np.max(np.abs(Lphi - lam * phi.values)) <= 1e-12 * lam


def test_ball_principal_eigenvalue_near_pi_squared():
    # continuum value for the unit 3-ball is pi^2
    errs = {}
    for n in (33, 65):
        mesh = build_mesh("ball", 1.0, n)
        lam, phi = principal_eigenpair(mesh)
        errs[n] = abs(lam - np.pi**2)
        assert np.min(phi.values) > 0.0
    assert errs[33] <= 5.0 * (1.0 / 32) ** 2 * np.pi**2
    assert 3.0 <= errs[33] / errs[65] <= 5.0


def test_sobolev_constant_p1_reduces_to_eigenvalue():
    mesh = build_mesh("interval", 1.0, 65)
    lam, _ = principal_eigenpair(mesh)
    S = sobolev_minimizer(mesh, 1.0)[0]
    assert abs(S - lam) <= 1e-6 * lam


def test_sobolev_constant_low_mode_oracle():
    # brute-force the quotient over the span of the first eigenvectors; the
    # quotient is scale-invariant so sweeping directions suffices.  The
    # minimizer is even about the midpoint, so the odd second mode buys
    # nothing (the two-mode minimum sits ~1.5% above S); the three-mode
    # subspace captures the even correction and lands within 1%.
    mesh = build_mesh("interval", 1.0, 65)
    p = 3.0
    A = dense_operator(mesh)
    _, V = np.linalg.eigh(A)

    def quotient(u):
        gf = GridFunction(mesh, u)
        denom = lp_norm(mesh, gf, p + 1.0) ** 2
        return l2_inner(mesh, gf, laplacian_apply(mesh, gf)) / denom

    two_mode = min(
        quotient(np.cos(t) * V[:, 0] + np.sin(t) * V[:, 1])
        for t in np.linspace(0.0, np.pi, 721, endpoint=False)
    )
    three_mode = min(
        quotient(
            np.cos(t1) * V[:, 0]
            + np.sin(t1) * np.cos(t2) * V[:, 1]
            + np.sin(t1) * np.sin(t2) * V[:, 2]
        )
        for t1 in np.linspace(0.0, np.pi, 90, endpoint=False)
        for t2 in np.linspace(0.0, np.pi, 90, endpoint=False)
    )
    S = sobolev_minimizer(mesh, p)[0]
    assert S <= two_mode + 1e-10
    assert S <= three_mode + 1e-10
    assert abs(S - three_mode) <= 0.01 * three_mode


def test_sobolev_constant_blowup_raises_convergence_error():
    # on ball 17 at p = 4 the zero-weight origin node runs away within a
    # few dozen sweeps; that is a solver failure, not a bad grid function
    mesh = build_mesh("ball", 1.0, 17)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ConvergenceError, match="blew up at sweep"):
            sobolev_minimizer(mesh, 4.0)


@pytest.fixture
def poisson_solves(monkeypatch):
    """Poisson solves of the embedding minimizer, counted."""
    calls = []
    solve = constants.poisson_solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(constants, "poisson_solve", counted)
    return calls


@pytest.mark.parametrize("n, p, budget, S_sweeps", [
    (65, 4.0, 10, 8.195036968828775), (129, 4.5, 20, 7.031804192519161)])
def test_sobolev_newton_polish_known_answer(poisson_solves, n, p, budget, S_sweeps):
    # the sweeps alone took 87 (ball 65) and 184 (ball 129) Poisson solves
    # to reach the same quotient; the polish reaches it in a few
    # tridiagonal solves and returns a strictly positive minimizer
    mesh = build_mesh("ball", 1.0, n)
    constants.eigenpair(mesh)
    S, u = sobolev_minimizer(mesh, p)
    assert len(poisson_solves) <= budget
    assert S == pytest.approx(S_sweeps, rel=1e-12, abs=0.0)
    assert np.min(u.values) > 0.0
    assert lp_norm(mesh, u, p + 1.0) == pytest.approx(1.0, rel=1e-14)


def test_sobolev_failed_polish_falls_back_to_sweeps(poisson_solves, monkeypatch):
    # a zero pivot in the polish leaves the sweeps to finish from their own
    # iterate, exactly as without a polish: 87 sweeps to the sweeps' S
    def zero_pivot(*args):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(constants, "thomas_solve", zero_pivot)
    mesh = build_mesh("ball", 1.0, 65)
    constants.eigenpair(mesh)
    S, u = sobolev_minimizer(mesh, 4.0)
    assert len(poisson_solves) == 87
    assert S == pytest.approx(8.195036968828775, rel=1e-15, abs=0.0)
    assert np.min(u.values) > 0.0


def test_lp_norm_rejects_bad_exponent():
    mesh = build_mesh("interval", 1.0, 9)
    with pytest.raises(ValueError):
        lp_norm(mesh, mesh.zeros(), 0.5)


def test_import_ignores_backend_variable():
    # there is one kernel implementation; a backend request in the
    # environment must not stop the package from importing
    src = str(pathlib.Path(kirchhoff_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, KIRCHHOFF_LAB_BACKEND="numba", PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", "import kirchhoff_lab"],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
