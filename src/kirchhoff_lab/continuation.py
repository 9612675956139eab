"""Parameter sweeps and empirical thresholds.

Three drivers:

* ``sweep_lambda``      -- warm-started continuation in lambda, recording
  every distinct converged solution per grid point (plus one honest
  non-converged row when everything fails).
* ``estimate_Lambda_f`` -- geometric bisection for the solvability
  threshold in lambda.  "Solvable" is a vote (any solver battery member
  converges to a strictly positive solution); "unsolvable" means the full
  battery failed twice.  Nonexistence is never certified, only reported.
* ``sweep_b_threshold`` -- the unforced problem over a b grid, decided
  twice per point: a grid search (semilinear base solution, scalar
  consistency root, Newton polish) and the independent shooting oracle.
  The two routes are recorded separately and compared with the closed
  form threshold.
"""

import math
from dataclasses import dataclass, replace

from . import constants
from .exceptions import ConvergenceError, KirchhoffLabError, RegimeError
from .mesh import DomainMesh, GridFunction, h1_seminorm, sup_norm
from .problem import ProblemParams, compute_b0, regime_letter, require_member
from .scalar_reduction import consistency_root
from .solvers import (
    SolveOutcome,
    SolverConfig,
    descent_minimize,
    distinct_positive,
    mountain_pass_search,
    multi_start,
    newton_nonlocal,
    picard_iterate,
)
from .verify import _homogeneous_probes


@dataclass(frozen=True)
class BranchPoint:
    lam: float
    solver: str
    converged: bool
    positivity: str
    seminorm: float
    sup_norm: float
    energy_total: float
    residual: float


def _point(lam: float, out: SolveOutcome, mesh: DomainMesh) -> BranchPoint:
    return BranchPoint(
        lam=lam,
        solver=out.solver,
        converged=out.converged,
        positivity=out.positivity,
        seminorm=out.seminorm,
        sup_norm=sup_norm(mesh, out.solution),
        energy_total=out.energy.total,
        residual=out.residual,
    )


def sweep_lambda(mesh: DomainMesh, params: ProblemParams, lam_grid,
                 config: SolverConfig) -> list:
    """Natural continuation over an ascending lambda grid.

    Each grid point runs warm-started Newton from every distinct solution
    of the previous point, plus cold descent, Picard and (where the pass
    geometry exists) the mountain-pass search.  All distinct converged
    strictly positive outcomes become rows; a point where everything
    failed contributes its best non-converged attempt instead.  Warm
    starting makes the scan sequential by definition.
    """
    lam_grid = [float(l) for l in lam_grid]
    if any(b <= a for a, b in zip(lam_grid, lam_grid[1:])):
        raise ValueError("lambda grid must be strictly ascending")
    points: list[BranchPoint] = []
    prev: list[GridFunction] = []
    for lam in lam_grid:
        p_lam = replace(params, lam=lam)
        outcomes = [newton_nonlocal(mesh, p_lam, config, u0) for u0 in prev]
        for solver in (descent_minimize, picard_iterate):
            try:
                outcomes.append(solver(mesh, p_lam, config))
            except KirchhoffLabError:
                pass
        try:
            outcomes.append(mountain_pass_search(mesh, p_lam, config))
        except KirchhoffLabError:
            pass
        kept = distinct_positive(outcomes, config.tol)
        if kept:
            points.extend(_point(lam, o, mesh) for o in kept)
            prev = [o.solution for o in kept]
        elif outcomes:
            best = min(outcomes, key=lambda o: o.residual)
            points.append(_point(lam, best, mesh))
        else:
            points.append(BranchPoint(lam, "none", False, "sign-changing",
                                      0.0, 0.0, 0.0, math.inf))
    return points


# ---------------------------------------------------------------------------
# solvability threshold in lambda


# estimate_Lambda_f shrinks its bracket to this upper/lower ratio
TARGET_RATIO = 1.1


@dataclass(frozen=True)
class ThresholdEstimate:
    lower: float  # largest lambda where a positive solution was found
    upper: float  # smallest lambda where the battery failed twice (inf = open)
    votes: tuple  # (lambda, solvable, detail) in probe order
    max_seminorm: float  # largest |grad u| seen among found solutions
    kirchhoff_multiplier: float  # (1 + b C^{2 alpha})^{p/(p-1)} at that C

    @property
    def ratio(self) -> float:
        return self.upper / self.lower if math.isfinite(self.upper) else math.inf


def _vote(mesh, params, config, warm):
    """Best strictly positive converged outcome, or None after two sweeps."""
    for attempt in range(2):
        outcomes = []
        if warm is not None and attempt == 0:
            outcomes.append(newton_nonlocal(mesh, params, config, warm))
        for solver in (picard_iterate, descent_minimize):
            try:
                outcomes.append(solver(mesh, params, config))
            except KirchhoffLabError:
                pass
        kept = distinct_positive(outcomes, config.tol)
        if kept:
            return kept[0]
        cfg = config if attempt == 0 else replace(config, seed=config.seed + 1)
        sols = multi_start(mesh, params, cfg, 8)
        if sols:
            return sols[0]
    return None


def estimate_Lambda_f(mesh: DomainMesh, params: ProblemParams,
                      config: SolverConfig, lam_max: float = 1e9) -> ThresholdEstimate:
    """Bracket the largest solvable lambda by geometric bisection.

    Starts from params.lam (halving until a solvable point is found),
    doubles until a point fails twice, then shrinks the bracket to
    ``TARGET_RATIO``.  If nothing fails below ``lam_max`` the upper
    bracket is reported open (inf) rather than invented.
    """
    letter = regime_letter(params, mesh.dim)
    if letter == "A":
        raise RegimeError("the threshold estimate applies above the coercive "
                          "regime; below it every lambda is solvable")
    require_member(mesh, params.f)
    votes = []
    best_sem = 0.0
    warm = None

    def probe(lam: float):
        nonlocal best_sem, warm
        out = _vote(mesh, replace(params, lam=lam), config, warm)
        if out is not None:
            best_sem = max(best_sem, out.seminorm)
            warm = out.solution
            votes.append((lam, True, out.solver))
            return True
        votes.append((lam, False, "all-failed-twice"))
        return False

    lo = params.lam if params.lam > 0 else 1.0
    for _ in range(60):
        if probe(lo):
            break
        lo *= 0.5
    else:
        raise ConvergenceError("no solvable lambda found while halving")
    hi = lo * 2.0
    while hi <= lam_max and probe(hi):
        lo, hi = hi, hi * 2.0
    if hi > lam_max:
        hi = math.inf  # nothing failed below lam_max: the bracket stays open
    while math.isfinite(hi) and hi / lo > TARGET_RATIO:
        mid = math.sqrt(lo * hi)
        if probe(mid):
            lo = mid
        else:
            hi = mid
    mult = (1.0 + params.b * best_sem ** (2.0 * params.alpha)) \
        ** (params.p / (params.p - 1.0))
    return ThresholdEstimate(lo, hi, tuple(votes), best_sem, mult)


# ---------------------------------------------------------------------------
# threshold in b for the unforced problem


@dataclass(frozen=True)
class BThresholdPoint:
    b: float
    grid_found: bool
    oracle_found: bool
    oracle_defect: float  # max of boundary/consistency defects (inf if none)
    agree: bool


@dataclass(frozen=True)
class BThresholdReport:
    points: tuple
    b0: float
    bracket_lo: float  # largest b with a solution (0 when none found)
    bracket_hi: float  # smallest b without one (inf when all succeed)
    consistent: bool  # the closed-form threshold falls inside the bracket


def _semilinear_base(mesh: DomainMesh, p: float, config: SolverConfig):
    """Positive solution of the unit-coefficient power problem on the grid."""
    tiny = ProblemParams(b=1e-300, alpha=1.0, p=p, lam=0.0)
    probe_cfg = replace(config, max_iter=min(config.max_iter, 80))
    _, phi1 = constants.eigenpair(mesh)
    phi1 = (1.0 / sup_norm(mesh, phi1)) * phi1
    for k in range(-2, 24):
        start = float(2.0**k) * phi1
        out = newton_nonlocal(mesh, tiny, probe_cfg, start)
        if (out.converged and out.positivity == "strictly-positive"
                and sup_norm(mesh, out.solution) > 10.0 * config.tol):
            return out.solution
    raise ConvergenceError("no positive base solution for the power problem")


def sweep_b_threshold(mesh: DomainMesh, params: ProblemParams,
                      b_grid, config: SolverConfig | None = None) -> BThresholdReport:
    """Existence of the unforced problem across a b grid, decided two ways.

    Grid route: rescale the semilinear base solution through the scalar
    consistency root and polish with Newton.  Oracle route: shooting plus
    the same scalar analysis on the fine profile.  The routes stay
    independent; the report records where they disagree and whether the
    closed-form threshold lands inside the observed transition bracket.
    """
    if regime_letter(replace(params, lam=0.0), mesh.dim) != "A":
        raise RegimeError("the b threshold exists for coercive exponents only")
    if params.lam != 0.0:
        raise ValueError("the unforced probe needs lambda = 0")
    config = config or SolverConfig()
    b_grid = [float(b) for b in b_grid]
    S, _ = constants.sobolev(mesh, params.p)
    b0 = compute_b0(params, S)
    if not b_grid:
        return BThresholdReport((), b0, 0.0, math.inf, True)
    base = _semilinear_base(mesh, params.p, config)
    G_grid = h1_seminorm(mesh, base) ** (2.0 * params.alpha)
    beta = 2.0 * params.alpha / (params.p - 1.0)
    oracle = _homogeneous_probes(mesh, params.p, params.alpha, b_grid)

    def probe(b, pr) -> BThresholdPoint:
        t = consistency_root(G_grid, beta, b)
        grid_found = False
        if t is not None:
            cand = (1.0 + b * t) ** (1.0 / (params.p - 1.0)) * base
            out = newton_nonlocal(mesh, replace(params, b=b, lam=0.0),
                                  config, cand)
            grid_found = (out.converged
                          and out.positivity == "strictly-positive"
                          and sup_norm(mesh, out.solution) > 10.0 * config.tol)
        defect = max(pr.boundary_defect, pr.consistency_defect)
        return BThresholdPoint(b, grid_found, pr.found, defect,
                               grid_found == pr.found)

    pts = [probe(b, pr) for b, pr in zip(b_grid, oracle)]
    found_bs = [pt.b for pt in pts if pt.oracle_found]
    missing_bs = [pt.b for pt in pts if not pt.oracle_found]
    lo = max(found_bs) if found_bs else 0.0
    hi = min(missing_bs) if missing_bs else math.inf
    # 5% slack absorbs the O(h) shift between discrete and closed-form S
    consistent = (lo < hi
                  and (not found_bs or lo <= 1.05 * b0)
                  and (not missing_bs or hi >= 0.95 * b0))
    return BThresholdReport(tuple(pts), b0, lo, hi, bool(consistent))
