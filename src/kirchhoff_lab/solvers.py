"""Nonlinear solvers for the nonlocal equation.

Four procedures, matched to the exponent regimes:

* ``picard_iterate``      -- monotone-style fixed point: solve the Poisson
  problem with the previous nonlinearity, then rescale so the nonlocal
  coefficient is consistent.  With a barrier it certifies the sandwich
  0 <= u_n <= psi0 at every step; the only tool that survives regime C.
* ``newton_nonlocal``     -- damped Newton on the strong-form residual.
  The Jacobian is a local operator plus the rank-one term coming from
  differentiating |grad u|^{2 alpha}; one MINRES solve on sine
  coefficients takes it whole on rectangles, dense LU plus
  Sherman-Morrison on the 1-D meshes.  It stops converged, or with one
  of "singular local operator", "rank-one update degenerate" (1-D
  only), "damping below floor at residual ..." (no step fraction down
  to 1/8 lowers the residual), "iterates blew up" or "max iterations
  reached" in ``message``.
* ``descent_minimize``    -- Armijo backtracking on the energy with the
  Poisson-preconditioned gradient, optionally confined to the trust ball
  |grad u| <= rho0 (regime B's local minimizer), with a guarded Newton
  handoff once the gradient is small.  A trial counts only if it lowers
  the energy by more than the round-off of its terms.  It stops
  converged, by "newton handoff", or with one of "minimizer pinned to
  the trust-ball boundary", "line search stalled at residual ..." or
  "max iterations reached[; iterate pinned ...]" in ``message``.
* ``mountain_pass_search``-- Newton at lambda started from the exact
  unforced solution ``unforced_solution`` (the scaled embedding
  minimizer), which is the mountain-pass solution at lambda = 0.  A
  failed Newton solve keeps Newton's message; a converged landing below
  the energy floor E0, or not strictly positive, is reported unconverged
  with the reason.

``battery`` runs Picard and descent; ``multi_start`` drives Newton from
the fields its caller passes plus seeded positive rays, each scaled to
the energy's first critical point along it, and deduplicates, which is
how uniqueness and nonexistence get probed.
"""

import operator
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, constants
from .energy import EnergyBreakdown, energy_eval, energy_gradient
from .exceptions import (BarrierError, ConvergenceError, KirchhoffLabError,
                         NonMemberError, RegimeError)
from .mesh import (
    DomainMesh,
    GridFunction,
    _values,
    h1_seminorm,
    laplacian_apply,
    lp_norm,
    poisson_solve,
    sine_poisson,
    sup_norm,
    write_tridiagonal,
)
from .problem import (
    SIGN_TOL_FACTOR,
    ProblemParams,
    forcing_values,
    regime_letter,
)
from .scalar_reduction import (_brent, consistency_root, kirchhoff_linear_solve,
                               picard_rescale)

DAMPING_FLOOR = 2.0**-3  # smallest Newton step fraction tried (4 trials)
MULTI_STARTS = 8  # seeded random Newton starts per multi_start call
RAY_SCAN = 64  # doublings or halvings of a start's length before the fallback


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 42

    def __post_init__(self):
        # an infinite tol would pass every residual check
        if not (self.tol > 0 and np.isfinite(self.tol)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tol!r}")
        # Python ints for the solvers' loops and ``_uniform_draws``; numpy
        # integers are accepted
        for name, least, bound in (("max_iter", 1, "at least 1"),
                                   ("seed", 0, "nonnegative")):
            value = getattr(self, name)
            try:
                value = operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
            if value < least:
                raise ValueError(f"{name} must be {bound}, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class SolveOutcome:
    solution: GridFunction
    solver: str
    iterations: int
    residual: float  # sup norm of the energy gradient
    energy: EnergyBreakdown
    converged: bool
    positivity: str  # 'strictly-positive' | 'nonnegative' | 'sign-changing' | 'zero'
    seminorm: float
    message: str = ""
    residual_history: tuple = ()


def classify_positivity(mesh: DomainMesh, values: np.ndarray, tol: float = 0.0) -> str:
    """Sign pattern of a field, judged against SIGN_TOL_FACTOR times its
    own sup, or "zero" when its sup is below tol sup(torsion) = tol
    |A^-1|_inf, what a residual tol can resolve; no positive count accepts
    "zero".  sup(torsion) <= max(extents)^2 on every mesh kind, so the
    torsion is built only for fields that may be numerically zero."""
    sup = float(np.max(np.abs(values)))
    if sup < tol * max(mesh.extents) ** 2 and sup < tol * sup_norm(mesh, constants.torsion(mesh)):
        return "zero"
    lo = float(np.min(values))
    if lo > 0.0:
        return "strictly-positive"
    return "nonnegative" if lo >= -SIGN_TOL_FACTOR * sup else "sign-changing"


def _outcome(mesh, params, values, solver, iterations, config, wants_converged,
             message="", history=()):
    u = GridFunction(mesh, np.asarray(values, dtype=float))
    res = sup_norm(mesh, energy_gradient(mesh, params, u))
    converged = bool(wants_converged and res <= config.tol)
    return SolveOutcome(
        solution=u,
        solver=solver,
        iterations=iterations,
        residual=res,
        energy=energy_eval(mesh, params, u),
        converged=converged,
        positivity=classify_positivity(mesh, u.values, config.tol if converged else 0.0),
        seminorm=h1_seminorm(mesh, u),
        message=message,
        residual_history=tuple(history),
    )


# ---------------------------------------------------------------------------
# barrier


@dataclass(frozen=True)
class Barrier:
    M0: float
    psi0: GridFunction


def build_barrier(mesh: DomainMesh, params: ProblemParams) -> Barrier:
    """Supersolution psi0 = M0 * torsion for the ladder M0 = 2^{-k}.

    Admissible once M0 >= sup(psi0)^p + lambda*sup|f| and lambda < M0^p;
    the largest ladder value wins.  After construction the nodewise
    domination -lap psi0 = M0 >= psi0^p + lambda f is re-checked.
    """
    psi = constants.torsion(mesh)
    sup_psi = sup_norm(mesh, psi)
    lam = params.lam
    sup_f = sup_norm(mesh, params.f) if (lam > 0 and params.f is not None) else 0.0
    lam_f = forcing_values(mesh, params)
    for k in range(61):
        M0 = 2.0**-k
        if lam >= M0**params.p:
            continue
        if M0 < (M0 * sup_psi) ** params.p + lam * sup_f:
            continue
        psi0 = M0 * psi
        if not np.all(M0 >= psi0.values**params.p + lam_f - 1e-15 * M0):
            continue
        return Barrier(M0, psi0)
    raise BarrierError(
        f"no admissible supersolution cap for lambda={lam} (lambda too large)"
    )


# ---------------------------------------------------------------------------
# Picard iteration


def picard_iterate(mesh: DomainMesh, params: ProblemParams,
                   config: SolverConfig) -> SolveOutcome:
    """Fixed-point iteration u_{n+1} = rescale(poisson_solve((u_n)_+^p + lam f)).

    Starts from the linear comparison solution.  In regime C a barrier is
    required and every iterate is certified to stay in [0, psi0]; leaving
    the sandwich, blowing up, or exhausting max_iter yields a
    non-converged outcome (a "no answer" vote, never a proof).
    """
    bar = None
    if regime_letter(params, mesh.dim) == "C":
        try:
            bar = build_barrier(mesh, params)
        except BarrierError as exc:
            return _outcome(mesh, params, np.zeros(mesh.shape), "picard", 0, config,
                            False, message=str(exc))
    lam_f = forcing_values(mesh, params)
    if params.lam > 0:
        u = kirchhoff_linear_solve(mesh, params).values  # raises for nonmember f
    else:
        u = np.zeros(mesh.shape)
    blowup = 1e10 * (1.0 + (bar.M0 if bar else 1.0))
    increments = []
    for n in range(1, config.max_iter + 1):
        if bar is not None:
            slack = 1e-12 * max(bar.M0, 1.0)
            if np.min(u) < -slack or np.any(u > bar.psi0.values + slack):
                return _outcome(mesh, params, u, "picard", n, config, False,
                                message="iterate escaped the barrier sandwich")
        rhs = np.maximum(u, 0.0) ** params.p + lam_f
        w = poisson_solve(mesh, rhs)
        u_next = picard_rescale(mesh, params, w).values
        inc = float(np.max(np.abs(u_next - u)))
        increments.append(inc)
        u = u_next
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > blowup:
            return _outcome(mesh, params, np.zeros(mesh.shape), "picard", n, config,
                            False, message="iterates blew up")
        if inc <= config.tol:
            out = _outcome(mesh, params, u, "picard", n, config, True,
                           history=increments)
            if out.converged:
                return out
            # increments are small but the residual is not there yet;
            # keep polishing with further sweeps
    tail = increments[-20:]
    oscillating = len(tail) == 20 and tail[-1] > 0.5 * max(tail)
    msg = "max iterations reached"
    if oscillating:
        msg += "; tail increments oscillate (no Cauchy certificate)"
    return _outcome(mesh, params, u, "picard", config.max_iter, config, False,
                    message=msg, history=increments)


# ---------------------------------------------------------------------------
# Newton


def _newton_pieces(mesh, params, lam_f, u):
    # A is the cached dense 1-D operator (a Newton step borrows it for one
    # np.linalg.solve and restores it), or None on rectangles, whose -lap u
    # is the O(n) stencil
    if mesh.kind == "rectangle":
        A = None
        Lu = laplacian_apply(mesh, u.reshape(mesh.shape)).values.ravel()
    else:
        A = constants.dense_op(mesh)
        Lu = A @ u
    w = mesh.weights.ravel()
    K = float(u @ (w * Lu))
    K = max(K, 0.0)
    coeff = 1.0 + params.b * K**params.alpha
    up = np.maximum(u, 0.0)
    F = coeff * Lu - up**params.p - lam_f
    return A, w, Lu, K, coeff, up, F


def newton_nonlocal(mesh: DomainMesh, params: ProblemParams, config: SolverConfig,
                    initial: GridFunction) -> SolveOutcome:
    """Damped Newton on F(u) = (1 + b K^alpha)(-lap u) - (u_+)^p - lam f.

    K = <u, -lap u> is the squared seminorm, so dK = 2 W(-lap u) and the
    Jacobian is the local part coeff*(-lap) - diag(p u_+^{p-1}) plus the
    rank-one term kappa (-lap u) <W(-lap u), .>, kappa = 2 alpha b
    K^{alpha-1}.  Nodes with u <= 0 carry zero potential derivative.

    On rectangles W = hx*hy, so the whole Jacobian is symmetric and one
    MINRES run (``_kernels.local_minres``) solves it on sine coefficients,
    in the mesh's cached stencil eigenbasis (``sine_poisson``), where
    coeff*(-lap) and its preconditioner are diagonal: potential and
    rank-one term are a compact perturbation of coeff*(-lap), so a handful
    of iterations reach round-off, each with two transforms and no
    stencil, and nothing is assembled or factored.  Interval and ball
    meshes keep the dense matvec and a dense LU of the local part for
    (-F, -lap u), combined by Sherman-Morrison.  Each step writes
    coeff*A - diag(pot) into the diagonals of the cached A itself for its
    one np.linalg.solve and writes A back in a finally, so LAPACK's private
    copy is the solve's only n x n array; the package is single-threaded,
    and nothing may hold A across that call.  The tridiagonal kernels would
    change the round-off, and the energies of duplicate solutions in
    ``distinct_positive`` tie to every printed digit, so which duplicate
    is kept would change with it.

    Each step backtracks from the full step, halving the fraction s while
    s >= DAMPING_FLOOR (Deuflhard's damping floor, *Newton Methods for
    Nonlinear Problems*, ch. 3), so a hopeless step costs 4 residuals.
    The accepted trial's residual pieces serve the next step, so a solve
    evaluates the residual once at its start and once per trial.  The
    floor is 1/8 because no converged solve of the benchmark scenarios
    (25 seeds) takes a step below 1/4, while a solve above the fold
    creeps on by steps below 1/8 that mostly lower the residual by under
    3%.
    Stop reasons other than residual <= tol, in ``message``:

    * "singular local operator" -- the solve failed (a singular LU, or
      MINRES short of its true-residual check) or was not finite;
    * "rank-one update degenerate" -- the 1-D Sherman-Morrison denominator
      vanished;
    * "damping below floor at residual R" -- no trial step down to the
      floor reduced the residual;
    * "iterates blew up" -- the accepted iterate left 1e12 times the
      forcing scale (the zero field is returned);
    * "max iterations reached".
    """
    lam_f = forcing_values(mesh, params).ravel()
    u = _values(mesh, initial).ravel().copy()
    scale = 1.0 + float(np.max(np.abs(lam_f)))
    history = []
    pieces = _newton_pieces(mesh, params, lam_f, u)
    for it in range(config.max_iter):
        A, w, Lu, K, coeff, up, F = pieces
        res = float(np.max(np.abs(F)))
        history.append(res)
        if res <= config.tol:
            return _outcome(mesh, params, u.reshape(mesh.shape), "newton", it,
                            config, True, history=history)
        pot = np.where(u > 0.0, params.p * up ** (params.p - 1.0), 0.0)
        kappa = (2.0 * params.alpha * params.b * K ** (params.alpha - 1.0)
                 if K > 0.0 else 0.0)
        try:
            if A is None:
                hx, hy = mesh.spacing
                X = _kernels.local_minres(
                    -F.reshape(mesh.shape), pot.reshape(mesh.shape), coeff, hx, hy,
                    Lu.reshape(mesh.shape), kappa * hx * hy, sine_poisson(mesh))
            else:
                sub, diag, sup = mesh.stencil
                write_tridiagonal(A, coeff * sub, coeff * diag - pot, coeff * sup)
                try:
                    X = np.linalg.solve(A, np.column_stack((-F, Lu)))
                finally:
                    write_tridiagonal(A, sub, diag, sup)
        except np.linalg.LinAlgError:
            X = None
        if X is None or not np.all(np.isfinite(X)):
            return _outcome(mesh, params, u.reshape(mesh.shape), "newton", it,
                            config, False, message="singular local operator",
                            history=history)
        if A is None:
            delta = X.ravel()
        else:
            x1, x2 = X.T
            q = kappa * (w * Lu)
            denom = 1.0 + float(q @ x2)
            if abs(denom) < 1e-14:
                return _outcome(mesh, params, u.reshape(mesh.shape), "newton", it,
                                config, False, message="rank-one update degenerate",
                                history=history)
            delta = x1 - x2 * (float(q @ x1) / denom)
        s = 1.0
        while s >= DAMPING_FLOOR:
            trial = u + s * delta
            trial_pieces = _newton_pieces(mesh, params, lam_f, trial)
            Ft = trial_pieces[-1]
            if np.all(np.isfinite(Ft)) and np.max(np.abs(Ft)) <= (1.0 - 1e-4 * s) * res:
                u, pieces = trial, trial_pieces
                break
            s *= 0.5
        else:
            return _outcome(mesh, params, u.reshape(mesh.shape), "newton", it,
                            config, False,
                            message=f"damping below floor at residual {res:.3e}",
                            history=history)
        if not np.all(np.isfinite(u)) or np.max(np.abs(u)) > 1e12 * scale:
            return _outcome(mesh, params, np.zeros(mesh.shape), "newton", it,
                            config, False, message="iterates blew up",
                            history=history)
    return _outcome(mesh, params, u.reshape(mesh.shape), "newton", config.max_iter,
                    config, False, message="max iterations reached", history=history)


# ---------------------------------------------------------------------------
# mountain-pass geometry constants


@dataclass(frozen=True)
class PassGeometry:
    rho0: float  # radius of the energy bump
    E1: float  # unforced floor value on the sphere
    E0: float  # forced floor (= E1/4 at the gate amplitude)
    beta_f: float  # largest lambda with J >= E0 on the sphere


def mountain_pass_geometry(mesh: DomainMesh, params: ProblemParams) -> PassGeometry:
    """Recompute the small-sphere energy geometry from discrete constants.

    Maximizing rho^2/4 - C rho^{p+1}/(p+1), C = S^{-(p+1)/2}, gives the bump
    radius; the floor at the gate amplitude is a quarter of the unforced
    maximum.  All constants are the mesh's own, so the resulting bounds hold
    discretely, not just asymptotically.
    """
    p = params.p
    S, _ = constants.sobolev(mesh, p)
    lam1, _ = constants.eigenpair(mesh)
    C = S ** (-(p + 1.0) / 2.0)
    rho0 = (2.0 * C) ** (-1.0 / (p - 1.0))
    E1 = rho0**2 * (p - 1.0) / (4.0 * (p + 1.0))
    E0 = 0.25 * E1
    beta_f = (np.sqrt(3.0 * E1 * lam1) / (2.0 * lp_norm(mesh, params.f, 2.0))
              if params.f is not None else np.inf)
    return PassGeometry(rho0, E1, E0, float(beta_f))


# ---------------------------------------------------------------------------
# energy descent


def descent_minimize(mesh: DomainMesh, params: ProblemParams,
                     config: SolverConfig) -> SolveOutcome:
    """Preconditioned Armijo descent on the energy.

    Regime A runs unconstrained (the energy is coercive); regime B runs in
    ball mode, projecting iterates onto |grad u| <= rho0 by radial scaling
    so the search stays inside the small-sphere bump.  Once the gradient
    is small the iterate is handed to Newton, and the Newton result is
    accepted only if it does not raise the energy or leave the ball.

    A line-search trial is accepted only when its energy drop exceeds
    8 eps (dirichlet + nonlocal + potential + |forcing|), the round-off of
    evaluating the trial's energy (Hager & Zhang, SIAM J. Optim. 16, 2005,
    sec. 4), and either passes the Armijo test or was projected onto the
    sphere.  Smaller drops are round-off, so an iterate that no longer
    moves fails the search at once instead of taking null steps until
    max_iter.  Stop reasons, in ``message``:

    * "" -- converged, gradient residual <= tol;
    * "newton handoff" -- converged through the guarded Newton handoff;
    * "minimizer pinned to the trust-ball boundary" -- no trial was
      accepted and the iterate lies on the sphere |grad u| = rho0;
    * "line search stalled at residual R" -- no trial was accepted inside
      the ball (or in regime A), e.g. when tol is below round-off;
    * "max iterations reached", with "; iterate pinned to the trust-ball
      boundary" appended when the last iterate lies on the sphere.

    At these exits a better Newton handoff (unconverged, strictly positive,
    inside the ball, smaller residual) replaces the iterate, relabelled,
    with "; kept newton handoff at residual R" appended.
    """
    regime = regime_letter(params, mesh.dim)
    if regime == "C":
        raise RegimeError("energy descent needs regime A or B (coercive or ball mode)")
    ball = regime == "B"
    rho0 = mountain_pass_geometry(mesh, params).rho0 if ball else None

    u = np.zeros(mesh.shape)
    if params.lam > 0:
        try:
            u = kirchhoff_linear_solve(mesh, params).values
        except NonMemberError:
            pass
        if ball:
            sem = h1_seminorm(mesh, u)
            if sem > 0.5 * rho0:
                u = u * (0.5 * rho0 / sem)

    lam_f = forcing_values(mesh, params)
    scale = 1.0 + float(np.max(np.abs(lam_f)))
    I_cur = energy_eval(mesh, params, GridFunction(mesh, u)).total
    step = 1.0
    history = []
    newton_after = 0
    kept = None  # best unconverged, strictly positive handoff inside the ball
    for it in range(1, config.max_iter + 1):
        g = energy_gradient(mesh, params, GridFunction(mesh, u))
        res = sup_norm(mesh, g)
        history.append(res)
        if res <= config.tol:
            return _outcome(mesh, params, u, "descent", it, config, True,
                            history=history)
        if res <= 1e-3 * scale and it >= newton_after:
            cand = newton_nonlocal(mesh, params, config, GridFunction(mesh, u))
            inside = not (ball and cand.seminorm > rho0 * (1 + 1e-12))
            if (inside and cand.converged
                    and cand.energy.total <= I_cur + 1e-9 * (1 + abs(I_cur))):
                return replace(
                    cand, solver="descent", iterations=it + cand.iterations,
                    message="newton handoff",
                    residual_history=tuple(history) + cand.residual_history,
                )
            if (inside and not cand.converged and cand.positivity == "strictly-positive"
                    and (kept is None or cand.residual < kept.residual)):
                kept = cand
            newton_after = it + 50
        d = poisson_solve(mesh, g).values
        gd = float(np.sum(mesh.weights * g.values * d))
        s = step
        accepted = False
        for _ in range(60):
            trial = u - s * d
            projected = False
            if ball:
                sem = h1_seminorm(mesh, trial)
                if sem > rho0:
                    trial = trial * (rho0 / sem)
                    projected = True
            e = energy_eval(mesh, params, GridFunction(mesh, trial))
            drop = I_cur - e.total
            noise = 8.0 * np.finfo(float).eps * (
                e.dirichlet + e.nonlocal_term + e.potential + abs(e.forcing))
            if drop > noise and (projected or drop >= 1e-4 * s * gd):
                u = trial
                I_cur = e.total
                accepted = True
                break
            s *= 0.5
        if not accepted:
            break
        step = min(s * 2.0, 1e3)
    pinned = ball and h1_seminorm(mesh, u) >= rho0 * (1 - 1e-8)
    if not accepted:
        msg = ("minimizer pinned to the trust-ball boundary" if pinned
               else f"line search stalled at residual {res:.3e}")
    else:
        msg = "max iterations reached"
        if pinned:
            msg += "; iterate pinned to the trust-ball boundary"
    out = _outcome(mesh, params, u, "descent", it, config, False, message=msg,
                   history=history)
    if kept is not None and kept.residual < out.residual:
        msg += f"; kept newton handoff at residual {kept.residual:.3e}"
        out = replace(kept, solver="descent", iterations=it, message=msg,
                      residual_history=out.residual_history)
    return out


# ---------------------------------------------------------------------------
# mountain pass


def unforced_solution(mesh: DomainMesh, params: ProblemParams) -> GridFunction | None:
    """Positive solution of the unforced problem, exact up to the embedding
    minimizer's accuracy, or None when ``consistency_root`` finds no root.

    The minimizer u_S of the embedding quotient solves -lap u_S = S u_S^p,
    so w0 = S^{1/(p-1)} u_S solves -lap w0 = w0^p; with
    t = ``consistency_root``(|grad w0|^{2 alpha}, 2 alpha/(p-1), b),
    U0 = (1 + b t)^{1/(p-1)} w0 solves the nonlocal equation at lambda = 0.
    """
    p = params.p
    S, u_S = constants.sobolev(mesh, p)
    w0 = S ** (1.0 / (p - 1.0)) * u_S
    G = h1_seminorm(mesh, w0) ** (2.0 * params.alpha)
    t = consistency_root(G, 2.0 * params.alpha / (p - 1.0), params.b)
    if t is None:
        return None
    return (1.0 + params.b * t) ** (1.0 / (p - 1.0)) * w0


def mountain_pass_search(mesh: DomainMesh, params: ProblemParams,
                         config: SolverConfig) -> SolveOutcome:
    """Mountain-pass solution: Newton at lambda from the unforced solution.

    Requires regime B and lambda below the sphere-floor gate beta_f.  At
    lambda = 0 ``unforced_solution`` is the mountain-pass solution itself;
    for small lambda one Newton solve carries it to the forced saddle.
    ``iterations``, ``residual_history`` and a failed solve's ``message``
    are Newton's.  A converged landing is still rejected (converged=False,
    reason in ``message``) when its energy is below the floor E0, which
    every 0 -> negative path must cross on the rho0 sphere, or when it is
    not strictly positive.
    """
    regime = regime_letter(params, mesh.dim)
    if regime != "B":
        raise RegimeError("mountain-pass search needs regime B")
    geom = mountain_pass_geometry(mesh, params)
    if params.lam >= geom.beta_f:
        raise RegimeError(
            f"lambda={params.lam} is not below the mountain-pass gate "
            f"beta_f={geom.beta_f:.6g}"
        )
    start = unforced_solution(mesh, params)
    if start is None:
        raise ConvergenceError("no consistency root for the unforced start")
    out = replace(newton_nonlocal(mesh, params, config, start), solver="mountain-pass")
    if not out.converged:
        return out
    level = out.energy.total
    if level < geom.E0 * (1 - 1e-9):
        reason = f"landed at level {level:.6g} below the floor E0={geom.E0:.6g}"
    elif out.positivity != "strictly-positive":
        reason = f"landed on a {out.positivity} critical point"
    else:
        return replace(out, message=f"pass level {level:.6g} (floor E0={geom.E0:.6g})")
    return replace(out, converged=False, message=reason)


# ---------------------------------------------------------------------------
# multi-start driver


def distinct_positive(outcomes, tol: float) -> list[SolveOutcome]:
    """Converged strictly positive outcomes, sorted by energy; of two
    within sup distance 10*tol only the lower-energy one is kept."""
    good = [o for o in outcomes
            if o.converged and o.positivity == "strictly-positive"]
    good.sort(key=lambda o: o.energy.total)
    kept: list[SolveOutcome] = []
    for o in good:
        if all(float(np.max(np.abs(o.solution.values - k.solution.values)))
               > 10.0 * tol for k in kept):
            kept.append(o)
    return kept


def battery(mesh: DomainMesh, params: ProblemParams, config: SolverConfig,
            descent: SolveOutcome | None = None) -> list[SolveOutcome]:
    """Outcomes of ``picard_iterate`` and ``descent_minimize``, in that
    order; a solver that raises ``KirchhoffLabError`` is skipped.  A
    ``descent`` outcome the caller already has from the same arguments
    takes the place of the second run."""
    outcomes = []
    for solver_fn in (picard_iterate, descent_minimize):
        if solver_fn is descent_minimize and descent is not None:
            outcomes.append(descent)
            continue
        try:
            outcomes.append(solver_fn(mesh, params, config))
        except KirchhoffLabError:
            pass
    return outcomes


def _ray_scale(params: ProblemParams, K: float, P: float, F: float) -> float:
    """Length t* of the start t* v on the ray of v > 0.

    Along the ray the energy has the derivative

        g(t) = dI(t v)/dt = K t + b K^{alpha+1} t^{2 alpha+1} - P t^p - F,

    K = |grad v|^2, P = |v|_{p+1}^{p+1}, F = lambda <f, v>, and t* is its
    first sign change as t grows from 0 (the fibering method of Drabek &
    Pohozaev, *Proc. Roy. Soc. Edinburgh* 127A, 1997).  The scan starts at
    t = 1, halves t while g has left its sign just above 0 (that of -F, or
    + when F = 0) and doubles it otherwise; ``_brent`` settles the first
    bracket.  Without a sign change in RAY_SCAN steps, or before g
    overflows, the scanned t of smallest |g| is returned.
    """
    a, p = params.alpha, params.p
    B = params.b * K ** (a + 1.0)

    def g(t):
        return K * t + B * t ** (2.0 * a + 1.0) - P * t**p - F

    def crossed(gt):
        return (gt < 0.0) != (F > 0.0)

    t, gt = 1.0, g(1.0)
    down = crossed(gt)
    best_g, best_t = abs(gt), t
    for _ in range(RAY_SCAN):
        s = 0.5 * t if down else 2.0 * t
        try:
            gs = g(s)
        except OverflowError:
            break
        if crossed(gs) != down:
            lo, hi, glo, ghi = (s, t, gs, gt) if down else (t, s, gt, gs)
            return _brent(g, lo, hi, glo, ghi, 1e-15 * hi)
        if abs(gs) < best_g:
            best_g, best_t = abs(gs), s
        t, gt = s, gs
    return best_t


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier


def _uniform_draws(seed: int, n: int) -> list[float]:
    """The first n doubles of ``np.random.default_rng(seed).uniform()``.

    numpy's ``SeedSequence(seed)`` hashes the seed's 32-bit words into a
    pool of four (words past the fourth are mixed in afterwards) and
    expands the pool into four 64-bit words; PCG64 takes them as its
    initial state and stream (state 0, one step, add the initial state,
    one step), and each draw is one 128-bit LCG step, the XSL-RR output
    (O'Neill, *PCG*, HMC-CS-2014-0905) and its top 53 bits times 2^-53.
    Python ints keep numpy.random unimported, and NEP 19 freezes the
    stream, not ``Generator``'s methods.
    """
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    h = 0x43B0D7E5

    def hashmix(v):
        nonlocal h
        v = (v ^ h) * (h := h * 0x931E8875 & _M32) & _M32
        return v ^ v >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for i in range(4):
        for j in range(4):
            if i != j:
                pool[j] = mix(pool[j], hashmix(pool[i]))
    for word in words[4:]:
        pool = [mix(x, hashmix(word)) for x in pool]
    h, out = 0x8B51F9DD, []
    for i in range(8):
        v = (pool[i % 4] ^ h) * (h := h * 0x58F38DED & _M32) & _M32
        out.append(v ^ v >> 16)
    # generate_state(4, uint64), low word first; PCG64 reads it as the
    # 128-bit initial state s[0]:s[1] and stream s[2]:s[3]
    s = [out[2 * k] | out[2 * k + 1] << 32 for k in range(4)]
    inc = (s[2] << 65 | s[3] << 1 | 1) & _M128
    x = ((inc + (s[0] << 64 | s[1])) * _PCG_MULT + inc) & _M128
    draws = []
    for _ in range(n):
        x = (x * _PCG_MULT + inc) & _M128
        r, y = x >> 122, (x >> 64 ^ x) & _M64
        y = (y >> r | y << (64 - r)) & _M64
        draws.append((y >> 11) * 2.0**-53)
    return draws


def multi_start(mesh: DomainMesh, params: ProblemParams, config: SolverConfig,
                priors) -> list[SolveOutcome]:
    """Distinct converged positive solutions from seeded Newton starts.

    Newton starts from each field in ``priors``, in order, then from
    ``MULTI_STARTS`` seeded rays v = c1*phi1 + c2*torsion, with c1, c2 in
    [0, 1) the first 2*MULTI_STARTS uniforms of numpy's PCG64 stream for
    ``config.seed``, read row by row (``_uniform_draws``), computed
    without numpy's ``Generator``: the seed picks the direction of each
    start, ``_ray_scale`` its length, so each start is the energy's
    critical point t* v on its ray and not an arbitrarily large field
    that Newton's first steps only shrink.  Nothing caps the amplitude.
    Deduplication is by sup distance at 10*tol, keeping the lower-energy
    representative; the result is sorted by energy.
    """
    _, phi1 = constants.eigenpair(mesh)
    psi = constants.torsion(mesh).values
    lam_f = forcing_values(mesh, params)
    initials = list(priors)
    draws = _uniform_draws(config.seed, 2 * MULTI_STARTS)
    for c1, c2 in zip(draws[::2], draws[1::2]):
        v = c1 * phi1.values + c2 * psi
        K = h1_seminorm(mesh, v) ** 2
        P = float(np.sum(mesh.weights * v ** (params.p + 1.0)))
        F = float(np.sum(mesh.weights * lam_f * v))
        initials.append(GridFunction(mesh, _ray_scale(params, K, P, F) * v))
    outcomes = [newton_nonlocal(mesh, params, config, init) for init in initials]
    return distinct_positive(outcomes, config.tol)
