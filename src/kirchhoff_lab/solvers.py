"""Nonlinear solvers for the nonlocal equation.

Four procedures, matched to the exponent regimes:

* ``picard_iterate``      -- monotone-style fixed point: solve the Poisson
  problem with the previous nonlinearity, then rescale so the nonlocal
  coefficient is consistent.  With a barrier it certifies the sandwich
  0 <= u_n <= psi0 at every step; the only tool that survives regime C.
* ``newton_nonlocal``     -- damped Newton on the strong-form residual.
  The Jacobian is a local operator plus the rank-one term coming from
  differentiating |grad u|^{2 alpha}; solved with the rank-one update
  formula around two local-operator solves, block-tridiagonal on
  rectangles and dense on the 1-D meshes.  It stops converged, or with
  one of "singular local operator", "rank-one update degenerate",
  "damping below floor at residual ...", "iterates blew up" or
  "max iterations reached" in ``message``.
* ``descent_minimize``    -- Armijo backtracking on the energy with the
  Poisson-preconditioned gradient, optionally confined to the trust ball
  |grad u| <= rho0 (regime B's local minimizer), with a guarded Newton
  handoff once the gradient is small.
* ``mountain_pass_search``-- discretized path relaxation between 0 and a
  negative-energy endpoint t0*phi1: repeatedly pull the highest node
  downhill and re-spline, then polish the saddle candidate with Newton.

``multi_start`` drives Newton from seeded random positive fields plus the
Picard/descent outputs and deduplicates, which is how uniqueness and
nonexistence get probed.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, constants
from .energy import EnergyBreakdown, energy_eval, energy_gradient
from .exceptions import BarrierError, KirchhoffLabError, RegimeError
from .mesh import (
    DomainMesh,
    GridFunction,
    _values,
    h1_seminorm,
    laplacian_apply,
    lp_norm,
    poisson_solve,
    rectangle_blocks,
    sup_norm,
)
from .problem import (
    SIGN_TOL_FACTOR,
    ProblemParams,
    forcing_values,
    membership_M,
    regime_letter,
)
from .scalar_reduction import kirchhoff_linear_solve, picard_rescale

PATH_NODES = 17  # mountain-pass path resolution
SWEEP_CAP = 6000  # relaxation sweeps before the top node is returned
DAMPING_FLOOR = 2.0**-10  # smallest Newton step fraction tried (11 trials)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 42
    rho0: float | None = None  # trust ball radius for regime-B descent

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class SolveOutcome:
    solution: GridFunction
    solver: str
    iterations: int
    residual: float  # sup norm of the energy gradient
    energy: EnergyBreakdown
    converged: bool
    positivity: str  # 'strictly-positive' | 'nonnegative' | 'sign-changing'
    seminorm: float
    message: str = ""
    residual_history: tuple = ()


def classify_positivity(values: np.ndarray) -> str:
    lo = float(np.min(values))
    if lo > 0.0:
        return "strictly-positive"
    tol = SIGN_TOL_FACTOR * float(np.max(np.abs(values)))
    return "nonnegative" if lo >= -tol else "sign-changing"


def _outcome(mesh, params, values, solver, iterations, config, wants_converged,
             message="", history=()):
    u = GridFunction(mesh, np.asarray(values, dtype=float))
    res = sup_norm(mesh, energy_gradient(mesh, params, u))
    return SolveOutcome(
        solution=u,
        solver=solver,
        iterations=iterations,
        residual=res,
        energy=energy_eval(mesh, params, u),
        converged=bool(wants_converged and res <= config.tol),
        positivity=classify_positivity(u.values),
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
    lambda_cap: float  # M0^p


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
        return Barrier(M0, psi0, M0**params.p)
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
    # A is the dense 1-D operator, or None on rectangles, whose -lap u is
    # the O(n) stencil
    if mesh.kind == "rectangle":
        A = None
        hx, hy = mesh.spacing
        Lu = np.empty(mesh.shape)
        _kernels.lap2d_apply(u.reshape(mesh.shape), Lu, 1.0 / hx**2, 1.0 / hy**2)
        Lu = Lu.ravel()
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
    Jacobian is (local part) + rank-one; the step solves the local part
    coeff*(-lap) - diag(p u_+^{p-1}) against both right-hand sides and
    combines them with the rank-one update formula.  Nodes with u <= 0
    carry zero potential derivative.

    On rectangles the local part is 5-point, hence block tridiagonal, and
    ``_kernels.block_tridiag_solve`` factors it in O(mx my^3) without
    assembling it.  Interval and ball meshes keep the dense matvec and the
    dense LU: the tridiagonal kernels would change the round-off, and the
    energies of duplicate solutions in ``distinct_positive`` tie to every
    printed digit, so which duplicate is kept would change with it.

    Each step backtracks from the full step, halving the fraction s while
    s >= DAMPING_FLOOR (Deuflhard's damping floor, *Newton Methods for
    Nonlinear Problems*, ch. 3), so a hopeless step costs 11 residuals.
    Stop reasons other than residual <= tol, in ``message``:

    * "singular local operator" -- the local solve failed or was not finite;
    * "rank-one update degenerate" -- the rank-one denominator vanished;
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
    for it in range(config.max_iter):
        A, w, Lu, K, coeff, up, F = _newton_pieces(mesh, params, lam_f, u)
        res = float(np.max(np.abs(F)))
        history.append(res)
        if res <= config.tol:
            return _outcome(mesh, params, u.reshape(mesh.shape), "newton", it,
                            config, True, history=history)
        pot = np.where(u > 0.0, params.p * up ** (params.p - 1.0), 0.0)
        if K > 0.0:
            q = (2.0 * params.alpha * params.b * K ** (params.alpha - 1.0)) * (w * Lu)
        else:
            q = np.zeros_like(u)
        rhs = np.column_stack((-F, Lu))
        try:
            if A is None:
                T, c = rectangle_blocks(mesh)
                X = _kernels.block_tridiag_solve(
                    coeff * T, coeff * c, pot.reshape(mesh.shape),
                    rhs.reshape(*mesh.shape, 2)).reshape(-1, 2)
            else:
                X = np.linalg.solve(coeff * A - np.diag(pot), rhs)
        except np.linalg.LinAlgError:
            X = None
        if X is None or not np.all(np.isfinite(X)):
            return _outcome(mesh, params, u.reshape(mesh.shape), "newton", it,
                            config, False, message="singular local operator",
                            history=history)
        x1, x2 = X[:, 0], X[:, 1]
        denom = 1.0 + float(q @ x2)
        if abs(denom) < 1e-14:
            return _outcome(mesh, params, u.reshape(mesh.shape), "newton", it,
                            config, False, message="rank-one update degenerate",
                            history=history)
        delta = x1 - x2 * (float(q @ x1) / denom)
        s = 1.0
        while s >= DAMPING_FLOOR:
            trial = u + s * delta
            _, _, _, _, _, _, Ft = _newton_pieces(mesh, params, lam_f, trial)
            if np.all(np.isfinite(Ft)) and np.max(np.abs(Ft)) <= (1.0 - 1e-4 * s) * res:
                u = trial
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
    lambda_star: float  # witness stays in the half ball below this
    C_emb: float


def mountain_pass_geometry(mesh: DomainMesh, params: ProblemParams) -> PassGeometry:
    """Recompute the small-sphere energy geometry from discrete constants.

    Maximizing rho^2/4 - C_emb rho^{p+1}/(p+1) gives the bump radius; the
    floor at the gate amplitude is a quarter of the unforced maximum.
    All constants are the mesh's own, so the resulting bounds hold
    discretely, not just asymptotically.
    """
    p = params.p
    S, _ = constants.sobolev(mesh, p)
    lam1, _ = constants.eigenpair(mesh)
    C = S ** (-(p + 1.0) / 2.0)
    rho0 = (2.0 * C) ** (-1.0 / (p - 1.0))
    E1 = rho0**2 * (p - 1.0) / (4.0 * (p + 1.0))
    E0 = 0.25 * E1
    if params.f is not None:
        fnorm = lp_norm(mesh, params.f, 2.0)
        beta_f = np.sqrt(3.0 * E1 * lam1) / (2.0 * fnorm)
        lambda_star = np.sqrt(lam1) * rho0 / (2.0 * fnorm)
    else:
        beta_f = np.inf
        lambda_star = np.inf
    return PassGeometry(rho0, E1, E0, float(beta_f), float(lambda_star), C)


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
    """
    regime = regime_letter(params, mesh.dim)
    if regime == "C":
        raise RegimeError("energy descent needs regime A or B (coercive or ball mode)")
    ball = regime == "B"
    rho0 = config.rho0
    if ball and rho0 is None:
        rho0 = mountain_pass_geometry(mesh, params).rho0

    u = np.zeros(mesh.shape)
    if params.lam > 0 and membership_M(mesh, params.f).member:
        u = kirchhoff_linear_solve(mesh, params).values
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
    for it in range(1, config.max_iter + 1):
        g = energy_gradient(mesh, params, GridFunction(mesh, u))
        res = sup_norm(mesh, g)
        history.append(res)
        if res <= config.tol:
            return _outcome(mesh, params, u, "descent", it, config, True,
                            history=history)
        if res <= 1e-3 * scale and it >= newton_after:
            cand = newton_nonlocal(mesh, params, config, GridFunction(mesh, u))
            ok = cand.converged and cand.energy.total <= I_cur + 1e-9 * (1 + abs(I_cur))
            if ok and ball and cand.seminorm > rho0 * (1 + 1e-12):
                ok = False
            if ok:
                return replace(
                    cand, solver="descent", iterations=it + cand.iterations,
                    message="newton handoff",
                    residual_history=tuple(history) + cand.residual_history,
                )
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
            I_try = energy_eval(mesh, params, GridFunction(mesh, trial)).total
            if I_try <= I_cur - 1e-4 * s * gd or (projected and I_try < I_cur):
                u = trial
                I_cur = I_try
                accepted = True
                break
            s *= 0.5
        if not accepted:
            pinned = ball and h1_seminorm(mesh, u) >= rho0 * (1 - 1e-8)
            msg = ("minimizer pinned to the trust-ball boundary" if pinned
                   else f"line search stalled at residual {res:.3e}")
            return _outcome(mesh, params, u, "descent", it, config, False,
                            message=msg, history=history)
        step = min(s * 2.0, 1e3)
    pinned = ball and h1_seminorm(mesh, u) >= rho0 * (1 - 1e-8)
    msg = "max iterations reached"
    if pinned:
        msg += "; iterate pinned to the trust-ball boundary"
    return _outcome(mesh, params, u, "descent", config.max_iter, config, False,
                    message=msg, history=history)


# ---------------------------------------------------------------------------
# mountain pass


def _respline(path: list[np.ndarray], mesh: DomainMesh) -> list[np.ndarray]:
    """Redistribute path nodes to equal spacing in the seminorm metric."""
    K = len(path)
    seg = np.array([
        h1_seminorm(mesh, path[i + 1] - path[i]) for i in range(K - 1)
    ])
    total = float(np.sum(seg))
    if total <= 0.0:
        return path
    cum = np.concatenate(([0.0], np.cumsum(seg)))
    targets = np.linspace(0.0, total, K)
    out = [path[0]]
    j = 0
    for t in targets[1:-1]:
        while j < K - 2 and cum[j + 1] < t:
            j += 1
        width = cum[j + 1] - cum[j]
        frac = 0.0 if width == 0.0 else (t - cum[j]) / width
        out.append((1.0 - frac) * path[j] + frac * path[j + 1])
    out.append(path[-1])
    return out


def mountain_pass_search(mesh: DomainMesh, params: ProblemParams,
                         config: SolverConfig) -> SolveOutcome:
    """Discretized mountain-pass relaxation polished by Newton.

    Requires regime B and lambda below the sphere-floor gate beta_f.  The
    path runs from 0 to t0*phi1 with t0 doubled until the endpoint energy
    is negative; the highest interior node is pulled downhill with a
    preconditioned Armijo step and the path is re-splined each sweep.
    When no polish certifies a saddle, the path's top node comes back
    unconverged, with the reason in ``message``.
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
    _, phi1 = constants.eigenpair(mesh)
    sem_phi = h1_seminorm(mesh, phi1)

    def ray_energy(t):
        return energy_eval(mesh, params, t * phi1).total

    t0 = max(2.0 * geom.rho0 / sem_phi, 1.0)
    for _ in range(200):
        if ray_energy(t0) < 0.0:
            break
        t0 *= 2.0
    else:
        raise RegimeError("could not drive the endpoint energy negative")

    path = [(i / (PATH_NODES - 1)) * t0 * phi1.values for i in range(PATH_NODES)]
    lam_f = forcing_values(mesh, params)
    scale = 1.0 + float(np.max(np.abs(lam_f)))
    gate = max(1e-3 * scale, 10.0 * config.tol)
    polish_every = 25
    history = []
    reason = f"sweep cap {SWEEP_CAP} reached"

    def dirichlet_inner(a, b):
        return float(np.sum(mesh.weights * laplacian_apply(mesh, a).values * b))

    def top_node():
        energies = [energy_eval(mesh, params, GridFunction(mesh, v)).total
                    for v in path]
        return 1 + int(np.argmax(energies[1:-1])), energies

    for sweep in range(SWEEP_CAP):
        j, energies = top_node()
        if energies[j] <= max(0.0, energies[-1]) + 1e-14:
            return _outcome(mesh, params, path[j], "mountain-pass", sweep, config,
                            False, message="path collapsed (no positive pass level)")
        node = GridFunction(mesh, path[j])
        g = energy_gradient(mesh, params, node)
        res = sup_norm(mesh, g)
        history.append(res)
        if res <= gate or sweep % polish_every == 0:
            cand = newton_nonlocal(mesh, params, config, node)
            # every 0 -> negative path crosses the rho0 sphere, where the
            # energy exceeds E0 for lambda under the gate; a polished
            # critical point below that floor is a spurious landing
            good = (cand.converged and cand.energy.total >= geom.E0 * (1 - 1e-9)
                    and cand.positivity == "strictly-positive"
                    and sup_norm(mesh, cand.solution) > 10.0 * config.tol)
            if good:
                return replace(
                    cand, solver="mountain-pass",
                    iterations=sweep + cand.iterations,
                    message=f"pass level {energies[j]:.6g} (floor E0={geom.E0:.6g})",
                    residual_history=tuple(history),
                )
            if res <= gate:
                gate *= 0.25
                if gate < config.tol:
                    reason = "Newton gate fell below tol"
                    break
        # descend perpendicular to the path so the node lowers the pass
        # instead of sliding along the string into a valley
        d = poisson_solve(mesh, g).values
        tau = path[j + 1] - path[j - 1]
        tau_sq = dirichlet_inner(tau, tau)
        if tau_sq > 0.0:
            d_perp = d - (dirichlet_inner(d, tau) / tau_sq) * tau
            if h1_seminorm(mesh, d_perp) > 1e-12 * h1_seminorm(mesh, d):
                d = d_perp
        gd = float(np.sum(mesh.weights * g.values * d))
        dn = h1_seminorm(mesh, d)
        seg = max(h1_seminorm(mesh, path[j] - path[j - 1]),
                  h1_seminorm(mesh, path[j + 1] - path[j]))
        # step cap: a node may not jump further than its neighbor spacing,
        # which is what keeps it from overshooting the saddle ridge
        s = min(1.0, 0.5 * seg / dn) if dn > 0.0 else 0.0
        for _ in range(50):
            trial = path[j] - s * d
            I_try = energy_eval(mesh, params, GridFunction(mesh, trial)).total
            if I_try <= energies[j] - 1e-4 * s * gd:
                path[j] = trial
                break
            s *= 0.5
        path = _respline(path, mesh)
    j, energies = top_node()
    return _outcome(mesh, params, path[j], "mountain-pass", len(history), config,
                    False, history=history,
                    message=f"no polish certified a saddle ({reason}); top path "
                            f"node returned at level {energies[j]:.6g}")


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


def multi_start(mesh: DomainMesh, params: ProblemParams, config: SolverConfig,
                n_starts: int) -> list[SolveOutcome]:
    """Distinct converged positive solutions from seeded Newton starts.

    Initial fields are c1*phi1 + c2*torsion with both coefficients drawn
    from (0, 2 sup psi0] (barrier scale when available, torsion scale
    grown with lambda otherwise), plus the Picard and descent outputs.
    Deduplication is by sup distance at 10*tol, keeping the lower-energy
    representative; the result is sorted by energy.
    """
    if n_starts < 2:
        raise ValueError("multi_start needs at least 2 starts")
    rng = np.random.default_rng(config.seed)
    _, phi1 = constants.eigenpair(mesh)
    psi = constants.torsion(mesh)
    try:
        cap = 2.0 * sup_norm(mesh, build_barrier(mesh, params).psi0)
    except BarrierError:
        cap = 2.0 * sup_norm(mesh, psi) * (1.0 + params.lam)
    coeffs = rng.uniform(0.0, cap, size=(n_starts, 2))

    initials = []
    for solver_fn in (picard_iterate, descent_minimize):
        try:
            prior = solver_fn(mesh, params, config)
            initials.append(prior.solution)
        except KirchhoffLabError:
            pass
    initials.extend(
        GridFunction(mesh, c1 * phi1.values + c2 * psi.values) for c1, c2 in coeffs
    )

    outcomes = [newton_nonlocal(mesh, params, config, init) for init in initials]
    return distinct_positive(outcomes, config.tol)
