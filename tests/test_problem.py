"""Parameter validation, regime classification, membership, energy floor."""

import math

import mpmath
import numpy as np
import pytest

from kirchhoff_lab.exceptions import MeshMismatchError, RegimeError
from kirchhoff_lab.forcing import constant_forcing, eigenmode_forcing, quartic_forcing
from kirchhoff_lab.mesh import GridFunction, build_mesh, h1_seminorm, sup_norm
from kirchhoff_lab.problem import (
    MembershipReport,
    boundary_distance,
    ProblemParams,
    classify_regime,
    compute_b0,
    energy_lower_bound,
    forcing_values,
    membership_Fplus,
    membership_M,
    two_star,
)


@pytest.fixture(scope="module")
def interval():
    return build_mesh("interval", 1.0, 65)


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(b=0.0, alpha=1.0, p=2.0, lam=0.0)
    with pytest.raises(ValueError):
        ProblemParams(b=1.0, alpha=-1.0, p=2.0, lam=0.0)
    with pytest.raises(ValueError):
        ProblemParams(b=1.0, alpha=1.0, p=1.0, lam=0.0)
    with pytest.raises(ValueError):
        ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=-0.1)
    with pytest.raises(ValueError):
        ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=None)


def test_two_star_sentinel():
    assert two_star(1) == math.inf
    assert two_star(2) == math.inf
    assert two_star(3) == 5.0


def test_regime_classification():
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    info = classify_regime(params, dim=1, S=4.0)
    assert info.regime == "A"
    assert info.gamma == pytest.approx(1.0)
    assert info.l == pytest.approx(4.0**1.5)
    assert info.b0 is not None

    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0)
    info = classify_regime(params, dim=3, S=4.0)
    assert info.regime == "B"
    assert info.b0 is None

    params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.0)
    info = classify_regime(params, dim=3, S=4.0)
    assert info.regime == "C"


def test_boundary_exponents_rejected():
    with pytest.raises(RegimeError, match="boundary exponent"):
        classify_regime(ProblemParams(b=1.0, alpha=1.0, p=3.0, lam=0.0), dim=1, S=4.0)
    with pytest.raises(RegimeError, match="boundary exponent"):
        classify_regime(ProblemParams(b=1.0, alpha=0.5, p=5.0, lam=0.0), dim=3, S=4.0)


def test_alpha_window_enforced_in_3d():
    # need 2 alpha + 1 < 2* = 5, i.e. alpha < 2
    with pytest.raises(RegimeError):
        classify_regime(ProblemParams(b=1.0, alpha=2.0, p=4.0, lam=0.0), dim=3, S=4.0)
    classify_regime(ProblemParams(b=1.0, alpha=1.9, p=4.0, lam=0.0), dim=3, S=4.0)


def test_b0_against_arbitrary_precision():
    # recompute (p-1) g^{g/(p-1)} (2 a l)^{-2a/(p-1)} with mpmath at 50 digits
    cases = [(2.0, 1.0, 7.3), (1.5, 0.75, 2.2), (2.5, 1.2, 11.0)]
    for p, alpha, S in cases:
        params = ProblemParams(b=1.0, alpha=alpha, p=p, lam=0.0)
        got = compute_b0(params, S)
        with mpmath.workdps(50):
            mp, ma, mS = mpmath.mpf(p), mpmath.mpf(alpha), mpmath.mpf(S)
            g = 2 * ma + 1 - mp
            ml = mS ** ((mp + 1) / 2)
            ref = (mp - 1) * g ** (g / (mp - 1)) * (2 * ma * ml) ** (-2 * ma / (mp - 1))
            ref = float(ref)
        assert abs(got - ref) <= 1e-12 * ref


def test_b0_closed_form_special_case():
    # p=2, alpha=1: gamma=1 and the threshold collapses to 1/(4 S^3)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    S = 8.7
    assert compute_b0(params, S) == pytest.approx(1.0 / (4.0 * S**3), rel=1e-14)


def test_b0_outside_regime_a_rejected():
    with pytest.raises(RegimeError):
        compute_b0(ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0), 4.0)


# ---------------------------------------------------------------------------
# membership


def test_membership_constant_forcing(interval):
    f = constant_forcing(interval).field
    report = membership_M(interval, f)
    assert report.member
    # witness is the torsion function
    x = interval.coords[0]
    np.testing.assert_allclose(report.witness.values, x * (1 - x) / 2, atol=1e-12)


def test_membership_quartic_signchanging(interval):
    f = quartic_forcing(interval).field
    assert np.min(f.values) < 0 < np.max(f.values)
    report = membership_M(interval, f)
    assert report.member
    # the continuum witness is x^2(1-x)^2; the stencil's truncation on a
    # quartic is the constant 2h^2, so the discrete witness is exactly
    # the quartic plus 2h^2 times the torsion function
    x = interval.coords[0]
    h = interval.h
    expect = (x * (1 - x)) ** 2 + h**2 * x * (1 - x)
    np.testing.assert_allclose(report.witness.values, expect, atol=1e-14)


def test_membership_negative_constant(interval):
    f = constant_forcing(interval, -1.0).field
    report = membership_M(interval, f)
    assert not report.member
    assert report.violation_index is not None
    assert np.min(report.witness.values) < 0


def test_membership_scale_invariant(interval):
    f = quartic_forcing(interval).field
    for c in (0.01, 1.0, 250.0):
        assert membership_M(interval, c * f).member


def test_membership_witness_residual(interval):
    from kirchhoff_lab.mesh import laplacian_apply

    f = eigenmode_forcing(interval).field
    report = membership_M(interval, f)
    assert report.member
    res = laplacian_apply(interval, report.witness) - f
    assert sup_norm(interval, res) <= 1e-9 * sup_norm(interval, f)


def test_fplus_layer_checks(interval):
    one = constant_forcing(interval).field
    assert membership_Fplus(interval, one, 0.1).member

    neg_mode = -1.0 * eigenmode_forcing(interval).field
    assert not membership_Fplus(interval, neg_mode, 0.1).member

    # compactly supported negative bump at the center: outside the witness
    # class, but fine for the boundary-layer class
    x = interval.coords[0]
    bump = np.where(np.abs(x - 0.5) < 0.2, -np.cos((x - 0.5) * np.pi / 0.4) ** 2, 0.0)
    f = GridFunction(interval, bump)
    assert membership_Fplus(interval, f, 0.1).member
    assert not membership_M(interval, f).member


@pytest.mark.parametrize("mesh", [build_mesh("rectangle", (1.0, 2.0), (33, 65)),
                                  build_mesh("ball", 1.0, 65)],
                         ids=["rectangle", "ball"])
def test_fplus_layer_on_rectangle_and_ball(mesh):
    assert membership_Fplus(mesh, constant_forcing(mesh).field, 0.1).member
    # the quartic forcing is -2 L^2 < 0 along the box edges and
    # 12 R^2 - 20 R^2 < 0 on the sphere
    rep = membership_Fplus(mesh, quartic_forcing(mesh).field, 0.1)
    assert not rep.member
    assert boundary_distance(mesh)[rep.violation_index] < 0.1
    assert quartic_forcing(mesh).field.values[rep.violation_index] < 0.0


def test_fplus_rejects_forcing_from_another_mesh(interval):
    # same node count, twice the length: the nodes sit elsewhere
    wide = build_mesh("interval", 2.0, 65)
    with pytest.raises(MeshMismatchError):
        membership_Fplus(interval, quartic_forcing(wide).field, 0.1)


def test_fplus_rejects_wrong_shape_array(interval):
    with pytest.raises(MeshMismatchError):
        membership_Fplus(interval, np.ones(interval.shape[0] + 1), 0.1)


def test_forcing_values_rejects_forcing_from_another_mesh(interval):
    other = build_mesh("interval", 1.0, 65)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=constant_forcing(other).field)
    with pytest.raises(MeshMismatchError):
        forcing_values(interval, params)


def test_fplus_layer_validation(interval):
    one = constant_forcing(interval).field
    with pytest.raises(ValueError):
        membership_Fplus(interval, one, interval.h / 2)
    with pytest.raises(ValueError):
        membership_Fplus(interval, one, 10.0)


# ---------------------------------------------------------------------------
# energy floor


def test_energy_lower_bound_value(interval):
    from kirchhoff_lab.mesh import lp_norm, principal_eigenpair, sobolev_constant

    f = constant_forcing(interval).field
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=2.0, f=f)
    S = sobolev_constant(interval, params.p)
    lam1, _ = principal_eigenpair(interval)
    bound = energy_lower_bound(interval, params, S, lam1)
    # independent recomputation straight from the two-term minimization
    C = S ** (-1.5)
    gamma = 1.0
    expect = -gamma / (2.0 * 2.0 * 3.0) * (C**4 / params.b**3) ** (1.0 / gamma)
    expect -= params.lam**2 * lp_norm(interval, f, 2.0) ** 2 / lam1
    assert bound == pytest.approx(expect, rel=1e-12)
    assert bound < 0


def test_energy_lower_bound_regime_gate(interval):
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.0)
    with pytest.raises(RegimeError):
        energy_lower_bound(interval, params, 4.0, 9.8)
