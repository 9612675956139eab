"""End-to-end acceptance gates, one per advertised guarantee.

Each test prints a single [acceptance] PASS/FAIL line with the measured
numbers so the suite output doubles as a scorecard.  Tolerances and time
budgets are asserted, not just reported.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from kirchhoff_lab import constants
from kirchhoff_lab.cli import parse_config, run_experiment
from kirchhoff_lab.continuation import estimate_Lambda_f, sweep_b_threshold
from kirchhoff_lab.energy import energy_eval, energy_gradient
from kirchhoff_lab.exceptions import NonMemberError
from kirchhoff_lab.forcing import constant_forcing, make_forcing
from kirchhoff_lab.mesh import (GridFunction, build_mesh, h1_seminorm,
                                l2_inner, laplacian_apply, poisson_solve,
                                principal_eigenpair, sup_norm)
from kirchhoff_lab.problem import ProblemParams, compute_b0
from kirchhoff_lab.scalar_reduction import (kirchhoff_linear_solve,
                                            rescale_to_semilinear)
from kirchhoff_lab.solvers import (SolverConfig, battery, build_barrier,
                                   descent_minimize, mountain_pass_search,
                                   multi_start, picard_iterate)
from kirchhoff_lab.verify import (kirchhoff_shooting, pohozaev_residual,
                                  supnorm_decay_scan, uniqueness_probe,
                                  xdot_grad_values)


def _gate(name: str, ok: bool, detail: str):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _fine_interval():
    return build_mesh("interval", 1.0, 513)


def _coercive(mesh, b: float, lam: float, spec="constant 1.0") -> ProblemParams:
    f = make_forcing(mesh, spec)
    return ProblemParams(b=b, alpha=1.0, p=2.0, lam=lam, f=f.field)


def _b0_of(mesh) -> float:
    S, _ = constants.sobolev(mesh, 2.0)
    return compute_b0(ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0), S)


def test_mechanics_floor():
    t0 = time.perf_counter()
    mesh = build_mesh("interval", 1.0, 5)
    u = poisson_solve(mesh, np.ones(mesh.shape))
    nodes_ok = np.allclose(u.values, [0.09375, 0.125, 0.09375], atol=1e-14)
    sem_err = abs(h1_seminorm(mesh, u) ** 2 - 0.078125)
    lam1, phi1 = principal_eigenpair(mesh)
    exact = (2.0 - 2.0 * np.cos(np.pi * mesh.h)) / mesh.h**2
    eig_err = abs(lam1 - exact) / exact
    elapsed = time.perf_counter() - t0
    ok = nodes_ok and sem_err <= 1e-14 and eig_err <= 1e-10 and elapsed < 1.0
    _gate("mechanics-floor", ok,
          f"torsion exact: {nodes_ok}, seminorm2 err: {sem_err:.1e}, "
          f"eigenvalue rel err: {eig_err:.1e}, {elapsed:.2f}s")


def test_linear_comparison_solve():
    t0 = time.perf_counter()
    mesh = build_mesh("interval", 1.0, 129)
    worst_res, worst_inv = 0.0, 0.0
    for spec in ("constant 1.0", "quartic-signchanging"):
        f = make_forcing(mesh, spec)
        params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0, f=f.field)
        u = kirchhoff_linear_solve(mesh, params)
        t = h1_seminorm(mesh, u) ** 2
        res = sup_norm(mesh, (1.0 + t) * laplacian_apply(mesh, u).values
                       - f.field.values)
        # the inverse change of variables must land back on the Poisson problem
        v = (1.0 + t) * u.values / params.lam
        inv = sup_norm(mesh, laplacian_apply(mesh, v).values - f.field.values)
        worst_res, worst_inv = max(worst_res, res), max(worst_inv, inv)
    f_neg = make_forcing(mesh, "constant -1.0")
    with pytest.raises(NonMemberError):
        kirchhoff_linear_solve(mesh, ProblemParams(b=1.0, alpha=1.0, p=2.0,
                                                   lam=1.0, f=f_neg.field))
    elapsed = time.perf_counter() - t0
    ok = worst_res <= 1e-10 and worst_inv <= 1e-9 and elapsed < 1.0
    _gate("linear-comparison", ok,
          f"nonlocal residual: {worst_res:.1e}, inverse-map defect: "
          f"{worst_inv:.1e}, refusal raised, {elapsed:.2f}s")


def test_coercive_minimization_grid():
    t0 = time.perf_counter()
    mesh = _fine_interval()
    cfg = SolverConfig(tol=1e-8, max_iter=4000)
    rows = []
    for spec in ("constant 1.0", "quartic-signchanging"):
        for lam in (0.1, 1.0, 10.0, 100.0):
            out = descent_minimize(mesh, _coercive(mesh, 1.0, lam, spec), cfg)
            rows.append(out.converged
                        and out.positivity == "strictly-positive"
                        and out.energy.total < 0.0
                        and out.residual <= 1e-8)
    elapsed = time.perf_counter() - t0
    ok = all(rows) and elapsed < 30.0
    _gate("coercive-grid", ok,
          f"{sum(rows)}/8 solves strictly positive with negative energy "
          f"and residual <= 1e-8, {elapsed:.1f}s")


def test_uniqueness_window():
    t0 = time.perf_counter()
    mesh = _fine_interval()
    params = _coercive(mesh, 2.0 * _b0_of(mesh), 1e-3)
    cfg = SolverConfig(tol=1e-8)
    rec = uniqueness_probe(mesh, params, cfg, descent_minimize(mesh, params, cfg))
    elapsed = time.perf_counter() - t0
    ok = (rec.count == 1 and rec.contraction < 1.0 and rec.certified
          and elapsed < 60.0)
    _gate("uniqueness-window", ok,
          f"distinct solutions: {rec.count}, contraction: "
          f"{rec.contraction:.2e}, {elapsed:.1f}s")


def test_small_lambda_decay():
    t0 = time.perf_counter()
    mesh = _fine_interval()
    params = _coercive(mesh, 2.0 * _b0_of(mesh), 1.0)
    rep = supnorm_decay_scan(mesh, params, [2.0**-k for k in range(11)],
                             SolverConfig(tol=1e-8))
    elapsed = time.perf_counter() - t0
    ok = (rep.completed and rep.monotone_ok
          and rep.final_over_first <= rep.decay_threshold
          and rep.limit_gap <= 0.05 and elapsed < 60.0)
    _gate("decay-ladder", ok,
          f"final/first: {rep.final_over_first:.2e}, monotone: "
          f"{rep.monotone_ok}, limit gap: {rep.limit_gap:.2e}, {elapsed:.1f}s")


def test_multiplicity_and_solvability_bracket():
    t0 = time.perf_counter()
    mesh = build_mesh("ball", 1.0, 65)
    params = ProblemParams(b=1.0, alpha=1.0, p=4.0, lam=0.05,
                           f=constant_forcing(mesh).field)
    low = descent_minimize(mesh, params, SolverConfig(tol=1e-8))
    # saddle amplitude ~2e2 puts terms near 4e9; 1e-4 is the attainable floor
    high = mountain_pass_search(mesh, params, SolverConfig(tol=1e-4))
    dist = sup_norm(mesh, low.solution - high.solution)
    pair_ok = (low.converged and high.converged
               and low.positivity == "strictly-positive"
               and high.positivity == "strictly-positive"
               and low.energy.total < 0.0 < high.energy.total
               and dist >= 1e-3)
    est = estimate_Lambda_f(mesh, params, SolverConfig(tol=1e-4))
    bracket_ok = math.isfinite(est.upper) and est.ratio <= 1.1
    leftovers = 0
    for seed in (42, 43):
        above = replace(params, lam=1.05 * est.upper)
        cfg = SolverConfig(tol=1e-4, seed=seed)
        priors = [o.solution for o in battery(mesh, above, cfg)]
        leftovers += len(multi_start(mesh, above, cfg, priors))
    elapsed = time.perf_counter() - t0
    ok = pair_ok and bracket_ok and leftovers == 0 and elapsed < 600.0
    _gate("multiplicity-bracket", ok,
          f"energies: ({low.energy.total:.2e}, {high.energy.total:.2e}), "
          f"sup distance: {dist:.3g}, bracket ratio: {est.ratio:.4f}, "
          f"solutions above bracket: {leftovers}, {elapsed:.1f}s")


def test_supercritical_sandwich_and_identity():
    t0 = time.perf_counter()
    rels = {}
    agree = inside = converged = True
    for n in (65, 129):
        mesh = build_mesh("ball", 1.0, n)
        f = constant_forcing(mesh)
        params = ProblemParams(b=1.0, alpha=0.5, p=6.0, lam=0.01, f=f.field)
        out = picard_iterate(mesh, params, SolverConfig(tol=1e-8, max_iter=800))
        # picard aborts non-converged the moment an iterate leaves [0, psi0],
        # so a converged outcome certifies the whole sandwich; re-check the
        # final field against the barrier anyway
        converged &= out.converged and out.solver == "picard"
        bar = build_barrier(mesh, params)
        inside &= bool(np.all(out.solution.values >= -1e-14)
                       and np.all(out.solution.values
                                  <= bar.psi0.values + 1e-12))
        if n == 65:
            oracle = kirchhoff_shooting(mesh, params,
                                        f_fn=lambda r: np.ones_like(r))
            gap = sup_norm(mesh, out.solution - oracle)
            agree = gap <= 0.01 * sup_norm(mesh, oracle)
        v, eff = rescale_to_semilinear(mesh, params, out.solution)
        rep = pohozaev_residual(mesh, v, params.p, 1.0,
                                forcing=eff * f.field.values,
                                forcing_xdot=eff * xdot_grad_values(mesh, f))
        rels[n] = (rep.rel_residual, 5.0 * mesh.h)
    small = all(rel <= cap for rel, cap in rels.values())
    ratio = rels[129][0] / rels[65][0]
    # one-sided flux quotients are second order here, so halving h at least
    # halves the defect; 0.6 leaves room without accepting stagnation
    halving = ratio <= 0.6
    elapsed = time.perf_counter() - t0
    ok = converged and inside and agree and small and halving and elapsed < 300.0
    _gate("supercritical-chain", ok,
          f"sandwich held: {inside}, shooting agreement: {agree}, "
          f"identity residuals: {rels[65][0]:.2e}/{rels[129][0]:.2e} "
          f"(ratio {ratio:.2f}), {elapsed:.1f}s")


def test_homogeneous_threshold_routes():
    t0 = time.perf_counter()
    mesh = build_mesh("interval", 1.0, 129)
    b0 = _b0_of(mesh)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0)
    rep = sweep_b_threshold(mesh, params, [0.01 * b0, 10.0 * b0])
    lo, hi = rep.points
    found_ok = lo.grid_found and lo.oracle_found and lo.oracle_defect <= 1e-8
    absent_ok = not hi.grid_found and not hi.oracle_found
    elapsed = time.perf_counter() - t0
    ok = (found_ok and absent_ok and lo.agree and hi.agree
          and rep.consistent and elapsed < 120.0)
    _gate("b-threshold", ok,
          f"below: found with oracle defect {lo.oracle_defect:.1e}, "
          f"above: both routes empty, {elapsed:.1f}s")


def test_gradient_fidelity():
    t0 = time.perf_counter()
    cases = [
        (build_mesh("interval", 1.0, 65), dict(b=1.0, alpha=1.0, p=2.0), 8),
        (build_mesh("ball", 1.0, 33), dict(b=1.0, alpha=1.0, p=4.0), 6),
        (build_mesh("ball", 1.0, 33), dict(b=1.0, alpha=0.5, p=6.0), 6),
    ]
    rng = np.random.default_rng(7)
    eps, worst, fields = 1e-5, 0.0, 0
    for mesh, kw, reps in cases:
        params = ProblemParams(lam=0.5, f=constant_forcing(mesh).field, **kw)
        for _ in range(reps):
            raw = rng.standard_normal(mesh.shape)
            u = GridFunction(mesh, np.sign(raw) * (np.abs(raw) + 0.05))
            v = GridFunction(mesh, rng.standard_normal(mesh.shape))
            up = energy_eval(mesh, params, GridFunction(mesh, u.values + eps * v.values))
            dn = energy_eval(mesh, params, GridFunction(mesh, u.values - eps * v.values))
            fd = (up.total - dn.total) / (2.0 * eps)
            gv = l2_inner(mesh, energy_gradient(mesh, params, u), v)
            worst = max(worst, abs(fd - gv) / max(abs(fd), abs(gv), 1e-12))
            fields += 1
    elapsed = time.perf_counter() - t0
    ok = fields == 20 and worst <= 1e-6 and elapsed < 10.0
    _gate("gradient-fidelity", ok,
          f"{fields} fields, worst relative gap: {worst:.1e}, {elapsed:.1f}s")


def _scenario_configs():
    fine = _fine_interval()
    b0_fine = 2.0 * _b0_of(fine)
    b0_coarse = _b0_of(build_mesh("interval", 1.0, 129))
    ladder = " ".join(f"{2.0**-k:.17g}" for k in range(10, -1, -1))
    head = "p = 2\nalpha = 1\ndomain = interval 1.0 513\nf = constant 1.0\n"
    return {
        "coercive-sweep": ("kind = sweep\nb = 1\nlambda-grid = 0.1 1 10 100\n"
                           "domain = interval 1.0 513\np = 2\nalpha = 1\n"
                           "f = quartic-signchanging\n"),
        "uniqueness": (f"kind = verify\nb = {b0_fine:.17g}\nlambda = 1e-3\n"
                       + head),
        "decay": (f"kind = sweep\nb = {b0_fine:.17g}\n"
                  f"lambda-grid = {ladder}\n" + head),
        "threshold": ("kind = threshold\np = 4\nalpha = 1\nb = 1\n"
                      "lambda = 0.05\ndomain = ball 1.0 65\n"
                      "f = constant 1.0\ntol = 1e-4\n"),
        "supercritical": ("kind = verify\np = 6\nalpha = 0.5\nb = 1\n"
                          "lambda = 0.01\ndomain = ball 1.0 65\n"
                          "f = constant 1.0\n"),
        "b0-scan": (f"kind = b0-scan\np = 2\nalpha = 1\n"
                    f"b-grid = {0.01 * b0_coarse:.17g} {10.0 * b0_coarse:.17g}\n"
                    f"domain = interval 1.0 129\n"),
    }


def test_repeat_runs_byte_identical(tmp_path):
    t0 = time.perf_counter()
    mismatches = []
    for name, text in _scenario_configs().items():
        cfg = parse_config(text)
        outs, codes = [], []
        for tag in ("first", "second"):
            out_dir = tmp_path / f"{name}-{tag}"
            codes.append(run_experiment(replace(cfg, out=str(out_dir))))
            outs.append(out_dir)
        if codes[0] != codes[1]:
            mismatches.append(f"{name}: exit codes {codes}")
        a = sorted(f.name for f in outs[0].glob("*.csv"))
        b = sorted(f.name for f in outs[1].glob("*.csv"))
        if a != b:
            mismatches.append(f"{name}: file sets differ")
            continue
        if not a:
            mismatches.append(f"{name}: produced no CSV output")
        for fname in a:
            if (outs[0] / fname).read_bytes() != (outs[1] / fname).read_bytes():
                mismatches.append(f"{name}: {fname} differs between runs")
    elapsed = time.perf_counter() - t0
    _gate("determinism", mismatches == [],
          f"6 scenarios rerun, mismatches: {mismatches or 'none'}, "
          f"{elapsed:.1f}s")
