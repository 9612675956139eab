"""Command-line front end: config parsing, experiment dispatch, reports.

Config files are line-oriented "key = value" text with '#' comments.
Recognized keys:

    kind         solve | sweep | threshold | verify | membership | b0-scan
    domain       interval L n | rectangle Lx Ly nx ny | ball R n
    f            constant [v] | eigenmode [amp] | quartic-signchanging | file P
    b alpha p    problem coefficients
    lambda       forcing amplitude (scalar)                 } mutually
    lambda-grid  space-separated ascending amplitudes (sweep) } exclusive
    b-grid       space-separated b values (b0-scan)
    tol max_iter seed                                solver knobs
    out          output directory

Every real number, domain extents included, must be finite.

Outputs land in the output directory: report.txt always (line format
"CHECK <name>: PASS|FAIL (detail)"), branch.csv for solution tables,
votes.csv / bscan.csv for the threshold kinds.  Exit status: 0 all
checks passed, 1 some check failed, 2 configuration error.  Identical
(config, seed) pairs produce byte-identical files.
"""

import argparse
import csv
import math
import pathlib
import sys
from dataclasses import dataclass, replace

from . import constants
from .continuation import (
    BranchPoint,
    _point,
    estimate_Lambda_f,
    sweep_b_threshold,
    sweep_lambda,
)
from .exceptions import ConfigError, KirchhoffLabError, RegimeError
from .forcing import make_forcing
from .mesh import build_mesh, sup_norm
from .problem import ProblemParams, compute_b0, membership_M, regime_letter
from .scalar_reduction import rescale_to_semilinear
from .solvers import (
    SolverConfig,
    descent_minimize,
    mountain_pass_search,
    picard_iterate,
)
from .verify import (
    kirchhoff_shooting,
    pohozaev_residual,
    residual_certificate,
    uniqueness_probe,
    xdot_grad_values,
)

_KINDS = ("solve", "sweep", "threshold", "verify", "membership", "b0-scan")


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    domain: tuple  # (mesh kind, extents, resolution)
    forcing: str | None = None
    b: float | None = None
    alpha: float | None = None
    p: float | None = None
    lam: float = 0.0
    lam_grid: tuple = ()
    b_grid: tuple = ()
    tol: float = 1e-8
    max_iter: int = 500
    seed: int = 42
    out: str = "out"


def _finite(token: str) -> float:
    """Read a config's real number; inf and nan raise ValueError."""
    x = float(token)
    if not math.isfinite(x):
        raise ValueError(f"not a finite number: {token!r}")
    return x


def _parse_domain(value: str):
    kind, *args = value.split()
    if kind in ("interval", "ball"):
        if len(args) != 2:
            raise ConfigError(f"domain {kind} needs: extent, resolution")
        return (kind, (_finite(args[0]),), int(args[1]))
    if kind == "rectangle":
        if len(args) != 4:
            raise ConfigError("domain rectangle needs: Lx Ly nx ny")
        return (kind, (_finite(args[0]), _finite(args[1])),
                (int(args[2]), int(args[3])))
    raise ConfigError(f"unknown domain kind {kind!r}")


def _floats(value: str) -> tuple:
    vals = tuple(_finite(t) for t in value.split())
    if not vals:
        raise ValueError("empty grid")
    return vals


_PARSERS = {
    "kind": str,
    "domain": _parse_domain,
    "f": str,
    "b": _finite,
    "alpha": _finite,
    "p": _finite,
    "lambda": _finite,
    "lambda-grid": _floats,
    "b-grid": _floats,
    "tol": _finite,
    "max_iter": int,
    "seed": int,
    "out": str,
}

# config keys whose ExperimentConfig field is named differently
_FIELDS = {"f": "forcing", "lambda": "lam", "lambda-grid": "lam_grid",
           "b-grid": "b_grid"}

_NEED_EXPONENTS = ("solve", "sweep", "threshold", "verify", "b0-scan")


def parse_config(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys, bad values and boundary exponents
    are hard errors."""
    seen = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not eq:
            raise ConfigError(f"line {ln}: expected 'key = value', got {raw.strip()!r}")
        if key not in _PARSERS:
            raise ConfigError(f"unknown key: {key}")
        if key in seen:
            raise ConfigError(f"duplicate key: {key}")
        if not value:
            raise ConfigError(f"line {ln}: empty value for {key}")
        try:
            seen[key] = _PARSERS[key](value)
        except ConfigError:
            raise
        except ValueError:
            raise ConfigError(f"malformed value for {key}: {value!r}") from None

    if "kind" not in seen:
        raise ConfigError("missing required key: kind")
    kind = seen.pop("kind")
    if kind not in _KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if "domain" not in seen:
        raise ConfigError("missing required key: domain")
    if "lambda" in seen and "lambda-grid" in seen:
        raise ConfigError("give either lambda or lambda-grid, not both")
    for key, reader in (("lambda-grid", "sweep"), ("b-grid", "b0-scan")):
        if key in seen and kind != reader:
            raise ConfigError(f"{key} is read by kind {reader} only, not by kind {kind}")
    if kind in _NEED_EXPONENTS:
        for key in ("p", "alpha"):
            if key not in seen:
                raise ConfigError(f"missing required key: {key}")
        if kind != "b0-scan" and "b" not in seen:
            raise ConfigError("missing required key: b")
    if kind in ("membership", "threshold") and "f" not in seen:
        raise ConfigError("missing required key: f")
    if kind == "sweep" and "lambda-grid" not in seen:
        raise ConfigError("missing required key: lambda-grid")

    cfg = ExperimentConfig(kind=kind,
                           **{_FIELDS.get(k, k): v for k, v in seen.items()})
    if cfg.p is not None and cfg.alpha is not None:
        dim = {"interval": 1, "rectangle": 2, "ball": 3}[cfg.domain[0]]
        try:
            probe = ProblemParams(b=cfg.b if cfg.b is not None else 1.0,
                                  alpha=cfg.alpha, p=cfg.p, lam=0.0)
            regime_letter(probe, dim)
        except (RegimeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None
    amp = max([cfg.lam, *cfg.lam_grid], default=0.0)
    if amp > 0.0 and cfg.forcing is None and kind != "membership":
        raise ConfigError("positive lambda requires a forcing spec f")
    return cfg


# ---------------------------------------------------------------------------
# experiment plumbing


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _params_of(config: ExperimentConfig, forcing, lam: float) -> ProblemParams:
    f = forcing.field if (forcing is not None and lam > 0.0) else None
    return ProblemParams(b=config.b, alpha=config.alpha, p=config.p,
                         lam=lam, f=f)


def _check(lines, name: str, ok: bool, detail: str) -> bool:
    lines.append(f"CHECK {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _solve_checks(lines, mesh, params, config, regime):
    """Primary solve plus its battery of report lines; returns outcomes."""
    try:
        solve = picard_iterate if regime == "C" else descent_minimize
        out = solve(mesh, params, config)
    except KirchhoffLabError as exc:
        _check(lines, "converged", False, str(exc))
        return []
    _check(lines, "converged", out.converged,
           f"solver={out.solver}, iterations={out.iterations}"
           + ("" if out.converged or not out.message else f", {out.message}"))
    _check(lines, "positivity", out.positivity == "strictly-positive",
           f"positivity: {out.positivity}")
    _check(lines, "residual", out.residual <= config.tol,
           f"residual: {out.residual:.3e} <= {config.tol:.0e}"
           if out.residual <= config.tol else
           f"residual: {out.residual:.3e} exceeds {config.tol:.0e}")
    if regime in ("A", "B") and out.converged:
        _check(lines, "energy-negative", out.energy.total < 0.0,
               f"energy: {out.energy.total:.6e}")
    return [out]


def _verify_checks(lines, mesh, params, config, regime, forcing, outs):
    """Independent checks layered on the primary solution."""
    if not outs or not outs[0].converged:
        return outs
    u = outs[0].solution
    if params.lam > 0.0:
        rep = membership_M(mesh, params.f)
        _check(lines, "membership", rep.member,
               f"member: {'yes' if rep.member else 'no'}")
    if regime == "B":
        try:
            mp = mountain_pass_search(mesh, params, config)
            outs.append(mp)
            _check(lines, "mountain-pass", mp.converged and
                   mp.positivity == "strictly-positive",
                   f"energy: {mp.energy.total:.6e}, residual: {mp.residual:.3e}, "
                   f"{mp.message}")
            if mp.converged:
                dist = sup_norm(mesh, mp.solution - u)
                _check(lines, "distinct-solutions", dist >= 10.0 * config.tol,
                       f"sup distance: {dist:.6e}")
                _check(lines, "energy-signs",
                       outs[0].energy.total < 0.0 < mp.energy.total,
                       f"{outs[0].energy.total:.3e} / {mp.energy.total:.3e}")
        except KirchhoffLabError as exc:
            _check(lines, "mountain-pass", False, str(exc))
    # the Pohozaev and shooting checks evaluate the forcing's callable
    has_fn = params.lam == 0.0 or (forcing is not None and forcing.fn is not None)
    if has_fn:
        v, eff_lam = rescale_to_semilinear(mesh, params, u)
        if params.lam > 0.0:
            fvals = eff_lam * params.f.values
            fdot = eff_lam * xdot_grad_values(mesh, forcing)
        else:
            fvals = fdot = None
        rep = pohozaev_residual(mesh, v, params.p, c_pow=1.0,
                                forcing=fvals, forcing_xdot=fdot)
        _check(lines, "pohozaev", rep.rel_residual <= 5.0 * mesh.h,
               f"relative residual: {rep.rel_residual:.3e}, "
               f"bound: {5.0 * mesh.h:.3e}")
    if has_fn and mesh.kind in ("interval", "ball"):
        try:
            fn = forcing.fn if params.lam > 0.0 else None
            oracle = kirchhoff_shooting(mesh, params, f_fn=fn)
            scale = sup_norm(mesh, u)
            dist = sup_norm(mesh, u - oracle)
            bound = max(0.01 * scale, 10.0 * mesh.h**2 * scale)
            _check(lines, "shooting-agreement", dist <= bound,
                   f"sup distance: {dist:.3e}, bound: {bound:.3e}")
        except KirchhoffLabError as exc:
            _check(lines, "shooting-agreement", False, str(exc))
    if regime == "A" and params.lam > 0.0:
        rec = uniqueness_probe(mesh, params, config, descent=outs[0])
        _check(lines, "solutions-found", rec.count >= 1,
               f"count: {rec.count}, contraction: {rec.contraction:.4f}")
    cert = residual_certificate(mesh, params, u)
    _check(lines, "certificate", cert <= config.tol,
           f"strong-form defect: {cert:.3e}")
    return outs


def run_experiment(config: ExperimentConfig) -> int:
    """Execute one experiment; write report.txt (+ CSVs); return exit code."""
    try:
        mesh = build_mesh(*config.domain)
        forcing = make_forcing(mesh, config.forcing) if config.forcing else None
        solver_cfg = SolverConfig(tol=config.tol, max_iter=config.max_iter,
                                  seed=config.seed)
        lines: list[str] = []
        rows: list[BranchPoint] = []
        extra_files: dict[str, list[list[str]]] = {}

        if config.kind in ("solve", "verify"):
            params = _params_of(config, forcing, config.lam)
            regime = regime_letter(params, mesh.dim)
            outs = _solve_checks(lines, mesh, params, solver_cfg, regime)
            if config.kind == "verify":
                outs = _verify_checks(lines, mesh, params, solver_cfg,
                                      regime, forcing, outs)
            rows = [_point(config.lam, o, mesh) for o in outs]

        elif config.kind == "sweep":
            params = _params_of(config, forcing, max(config.lam_grid))
            pts = sweep_lambda(mesh, params, list(config.lam_grid), solver_cfg)
            rows = pts
            for lam in config.lam_grid:
                n_ok = sum(1 for pt in pts if pt.lam == lam and pt.converged
                           and pt.positivity == "strictly-positive")
                _check(lines, f"coverage[{lam:g}]", n_ok >= 1,
                       f"{n_ok} converged positive rows")

        elif config.kind == "threshold":
            # every vote runs at a positive lambda, even with lambda unset
            params = replace(_params_of(config, forcing, config.lam),
                             f=forcing.field)
            est = estimate_Lambda_f(mesh, params, solver_cfg)
            ok = math.isfinite(est.upper)
            detail = (f"[{_fmt(est.lower)}, {_fmt(est.upper)}], "
                      f"ratio: {est.ratio:.4f}" if ok
                      else f"open upper bracket above {_fmt(est.lower)}")
            _check(lines, "threshold-bracket", ok, detail)
            votes = [["lambda", "solvable", "detail"]]
            votes += [[_fmt(lam), "true" if s else "false", det]
                      for lam, s, det in est.votes]
            extra_files["votes.csv"] = votes

        elif config.kind == "membership":
            rep = membership_M(mesh, forcing.field)
            _check(lines, "membership", rep.member,
                   f"member: {'yes' if rep.member else 'no'}")

        elif config.kind == "b0-scan":
            params = ProblemParams(b=config.b if config.b is not None else 1.0,
                                   alpha=config.alpha, p=config.p, lam=0.0)
            S, _ = constants.sobolev(mesh, config.p)
            b0 = compute_b0(params, S)
            grid = config.b_grid or tuple(m * b0 for m in
                                          (0.01, 0.1, 0.5, 2.0, 10.0))
            rep = sweep_b_threshold(mesh, params, grid, solver_cfg)
            scan = [["b", "grid_found", "oracle_found", "oracle_defect", "agree"]]
            for pt in rep.points:
                _check(lines, f"b[{pt.b:.6g}]", pt.agree,
                       f"grid={'found' if pt.grid_found else 'none'}, "
                       f"oracle={'found' if pt.oracle_found else 'none'}, "
                       f"defect={pt.oracle_defect:.3e}")
                scan.append([_fmt(pt.b),
                             "true" if pt.grid_found else "false",
                             "true" if pt.oracle_found else "false",
                             _fmt(pt.oracle_defect),
                             "true" if pt.agree else "false"])
            _check(lines, "b0-consistency", rep.consistent,
                   f"b0: {_fmt(rep.b0)}, bracket: "
                   f"[{_fmt(rep.bracket_lo)}, {_fmt(rep.bracket_hi)}]")
            extra_files["bscan.csv"] = scan

    except (ValueError, KirchhoffLabError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    out_dir = pathlib.Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n",
                                        encoding="utf-8")
    if rows:
        extra_files = {"branch.csv": [
            ["lambda", "solver", "converged", "positivity", "seminorm",
             "sup_norm", "energy_total", "residual"],
            *([_fmt(pt.lam), pt.solver, "true" if pt.converged else "false",
               pt.positivity, _fmt(pt.seminorm), _fmt(pt.sup_norm),
               _fmt(pt.energy_total), _fmt(pt.residual)] for pt in rows),
        ], **extra_files}
    for name, table in extra_files.items():
        with open(out_dir / name, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(table)
    return 1 if any(": FAIL (" in ln for ln in lines) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kirchhoff-lab",
        description="Finite-difference lab for a forced nonlocal "
                    "Kirchhoff equation with zero boundary data.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (("run", "run the experiment named in the config"),
                        ("verify", "run the verification battery")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("config", help="path to a 'key = value' config file")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        text = pathlib.Path(args.config).read_text(encoding="utf-8")
        config = parse_config(text)
    except (OSError, ConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.command == "verify":
        config = replace(config, kind="verify")
    if args.out is not None:
        config = replace(config, out=args.out)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return run_experiment(config)


if __name__ == "__main__":
    sys.exit(main())
