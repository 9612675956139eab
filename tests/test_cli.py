"""Config parsing and end-to-end CLI runs against temp directories."""

import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from kirchhoff_lab import cli, constants, solvers
from kirchhoff_lab.cli import main, parse_config, run_experiment
from kirchhoff_lab.continuation import ThresholdEstimate
from kirchhoff_lab.exceptions import ConfigError
from kirchhoff_lab.mesh import GridFunction, build_mesh, h1_seminorm
from kirchhoff_lab.problem import ProblemParams, compute_b0
from kirchhoff_lab.scalar_reduction import _brent

SOLVE_A = """\
kind = solve
p = 2
alpha = 1
b = 1
lambda = 0.5
domain = interval 1.0 65
f = constant 1.0
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_spec_example():
    cfg = parse_config(SOLVE_A.replace("65", "129"))
    assert cfg.kind == "solve"
    assert cfg.domain == ("interval", (1.0,), 129)
    assert cfg.p == 2.0 and cfg.alpha == 1.0 and cfg.b == 1.0
    assert cfg.lam == 0.5
    assert cfg.forcing == "constant 1.0"
    assert cfg.tol == 1e-8 and cfg.max_iter == 500 and cfg.seed == 42


def test_parse_boundary_exponent():
    bad = SOLVE_A.replace("p = 2", "p = 3")
    with pytest.raises(ConfigError, match="boundary exponent"):
        parse_config(bad)


def test_parse_critical_exponent_ball():
    bad = SOLVE_A.replace("p = 2", "p = 5").replace(
        "domain = interval 1.0 65", "domain = ball 1.0 65").replace(
        "alpha = 1", "alpha = 0.5")
    with pytest.raises(ConfigError, match="boundary exponent"):
        parse_config(bad)


def test_parse_missing_kind():
    with pytest.raises(ConfigError, match="missing required key: kind"):
        parse_config("")


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match="unknown key: colour"):
        parse_config(SOLVE_A + "colour = red\n")


def test_parse_malformed_value():
    with pytest.raises(ConfigError, match="malformed value for b"):
        parse_config(SOLVE_A.replace("b = 1", "b = one"))


def test_parse_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate key: p"):
        parse_config(SOLVE_A + "p = 2\n")


def test_parse_lambda_conflict():
    with pytest.raises(ConfigError, match="either lambda or lambda-grid"):
        parse_config(SOLVE_A + "lambda-grid = 0.1 0.2\n")


def test_parse_lambda_grid_outside_sweep():
    # solve never reads the grid: it would run at lambda = 0
    text = SOLVE_A.replace("lambda = 0.5\n", "lambda-grid = 0.5 1\n")
    with pytest.raises(ConfigError, match="lambda-grid .* not by kind solve"):
        parse_config(text)


def test_parse_b_grid_outside_b0_scan():
    # verify never reads the grid: it would run at the scalar b alone
    text = SOLVE_A.replace("kind = solve", "kind = verify") + "b-grid = 1 2\n"
    with pytest.raises(ConfigError, match="b-grid .* not by kind verify"):
        parse_config(text)


def test_parse_missing_line_shape():
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("kind solve\n")


def test_parse_comments_and_centered():
    # the box is always [0, L]: a trailing "centered" is one token too many
    text = """\
# an experiment
kind = membership
domain = interval 2.0 33  # the box [0, 2]
f = quartic-signchanging
"""
    cfg = parse_config(text)
    assert cfg.domain == ("interval", (2.0,), 33)
    assert cfg.forcing == "quartic-signchanging"
    for domain in ("interval 2.0 33", "ball 1.0 17"):
        with pytest.raises(ConfigError, match="needs: extent, resolution"):
            parse_config(text.replace("interval 2.0 33", domain + " centered"))


def test_parse_rectangle_domain():
    text = "kind = membership\ndomain = rectangle 1.0 2.0 17 33\nf = constant 1\n"
    cfg = parse_config(text)
    assert cfg.domain == ("rectangle", (1.0, 2.0), (17, 33))


def test_parse_forcing_required_with_lambda():
    text = "kind = solve\np = 2\nalpha = 1\nb = 1\nlambda = 1\ndomain = interval 1 33\n"
    with pytest.raises(ConfigError, match="requires a forcing spec"):
        parse_config(text)


def test_parse_sweep_needs_grid():
    text = SOLVE_A.replace("kind = solve", "kind = sweep")
    with pytest.raises(ConfigError, match="lambda-grid"):
        parse_config(text)


def test_parse_unknown_kind():
    with pytest.raises(ConfigError, match="unknown experiment kind"):
        parse_config(SOLVE_A.replace("kind = solve", "kind = dance"))


# ---------------------------------------------------------------------------
# end-to-end runs


def run_cfg(tmp_path, text, name="exp.cfg", command="run", extra=()):
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / ("out-" + name)
    return main([command, str(cfg), "--out", str(out), *extra]), out


def test_run_solve_regime_a(tmp_path):
    code, out = run_cfg(tmp_path, SOLVE_A)
    assert code == 0
    report = (out / "report.txt").read_text()
    assert "positivity: strictly-positive" in report
    assert "CHECK residual: PASS" in report
    lines = (out / "branch.csv").read_text().splitlines()
    assert lines[0] == ("lambda,solver,converged,positivity,seminorm,"
                       "sup_norm,energy_total,residual")
    assert len(lines) == 2
    assert lines[1].split(",")[2] == "true"


def test_run_membership_quartic(tmp_path):
    text = "kind = membership\ndomain = interval 1.0 65\nf = quartic-signchanging\n"
    code, out = run_cfg(tmp_path, text)
    assert code == 0
    assert "member: yes" in (out / "report.txt").read_text()


def test_run_membership_negative_fails(tmp_path):
    text = "kind = membership\ndomain = interval 1.0 65\nf = constant -1\n"
    code, out = run_cfg(tmp_path, text)
    assert code == 1
    assert "member: no" in (out / "report.txt").read_text()


def test_run_verify_supercritical(tmp_path):
    text = """\
kind = verify
p = 6
alpha = 0.5
b = 1
lambda = 0.01
domain = ball 1.0 65
f = constant 1.0
"""
    code, out = run_cfg(tmp_path, text)
    report = (out / "report.txt").read_text()
    assert code == 0, report
    for name in ("converged", "pohozaev", "shooting-agreement", "certificate"):
        assert f"CHECK {name}: PASS" in report


def test_run_sweep(tmp_path):
    text = """\
kind = sweep
p = 2
alpha = 1
b = 1
lambda-grid = 0.1 1.0 10.0
domain = interval 1.0 65
f = constant 1.0
"""
    code, out = run_cfg(tmp_path, text)
    assert code == 0
    lines = (out / "branch.csv").read_text().splitlines()
    assert len(lines) >= 4
    report = (out / "report.txt").read_text()
    assert report.count("PASS") == 3


def test_run_b0_scan(tmp_path):
    mesh = build_mesh("interval", (1.0,), 65)
    S, _ = constants.sobolev(mesh, 2.0)
    b0 = compute_b0(ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0), S)
    text = (f"kind = b0-scan\np = 2\nalpha = 1\n"
            f"b-grid = {0.01 * b0:.17g} {10.0 * b0:.17g}\n"
            f"domain = interval 1.0 65\n")
    code, out = run_cfg(tmp_path, text)
    report = (out / "report.txt").read_text()
    assert code == 0, report
    assert "CHECK b0-consistency: PASS" in report
    scan = (out / "bscan.csv").read_text().splitlines()
    assert scan[0] == "b,grid_found,oracle_found,oracle_defect,agree"
    assert len(scan) == 3


def test_run_threshold_refuses_regime_a(tmp_path, capsys):
    text = SOLVE_A.replace("kind = solve", "kind = threshold")
    code, _ = run_cfg(tmp_path, text)
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


THRESHOLD_B = ("kind = threshold\np = 4\nalpha = 1\nb = 1\ntol = 1e-4\n"
               "domain = ball 1.0 33\n")


def test_run_threshold_without_lambda_keeps_forcing(tmp_path, monkeypatch):
    # no lambda: the bracket starts at 1, which needs the forcing
    seen = []

    def fake(mesh, params, config):
        seen.append(params)
        return ThresholdEstimate(1.0, 1.05, ((1.0, True, "picard"),))

    monkeypatch.setattr(cli, "estimate_Lambda_f", fake)
    code, out = run_cfg(tmp_path, THRESHOLD_B + "f = constant 1.0\n")
    assert code == 0
    params, = seen
    assert params.lam == 0.0 and params.f is not None
    assert (out / "votes.csv").read_text().splitlines()[1] == "1,true,picard"


def test_run_threshold_needs_forcing(tmp_path, capsys):
    code, _ = run_cfg(tmp_path, THRESHOLD_B)
    assert code == 2
    assert "missing required key: f" in capsys.readouterr().err


def test_negative_seed_exits_2_before_solving(tmp_path, capsys, monkeypatch):
    def no_solve(*args):
        raise AssertionError("solver ran before the seed was checked")

    monkeypatch.setattr(cli, "descent_minimize", no_solve)
    text = (SOLVE_A.replace("kind = solve", "kind = verify")
            .replace("lambda = 0.5", "lambda = 1")
            .replace("interval 1.0 65", "interval 1.0 129") + "seed = -1\n")
    code, _ = run_cfg(tmp_path, text)
    assert code == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


def test_seed_option_overrides_config(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_experiment", lambda config: seen.append(config) or 0)
    code, _ = run_cfg(tmp_path, SOLVE_A + "seed = 3\n", extra=("--seed", "7"))
    assert code == 0
    config, = seen
    assert config.seed == 7 and config.kind == "solve"


@pytest.mark.parametrize("text, code, message", [
    ("kind = b0-scan\np = 1.001\nalpha = 1\ndomain = interval 1.0 129\n", 2,
     "coupling threshold overflows a double"),
    ("kind = verify\np = 1.001\nalpha = 1\nb = 1\ndomain = ball 1.0 65\n", 1,
     "CHECK shooting-agreement: FAIL (no comparison floor"),
], ids=["b0-scan", "verify"])
def test_p_just_above_one_reports_overflow(tmp_path, capsys, text, code, message):
    # (...)^(1/(p-1)) overflows a double at p = 1.001: the run says so
    # instead of ending in an OverflowError traceback
    got, out = run_cfg(tmp_path, text)
    err = capsys.readouterr().err
    assert got == code
    assert "Traceback" not in err
    report = out / "report.txt"
    assert message in (report.read_text() if report.exists() else err)


B0_SCAN = "kind = b0-scan\np = 2\nalpha = 1\ndomain = interval 1.0 33\n"


@pytest.mark.parametrize("text, message", [
    (SOLVE_A.replace("1.0 65", "1e-200 33"), "h^2 or 1/h^2"),
    (SOLVE_A.replace("1.0 65", "1e200 33"), "h^2 or 1/h^2"),
    (SOLVE_A.replace("1.0 65", "inf 33"), "malformed value for domain"),
    (SOLVE_A.replace("lambda = 0.5", "lambda = inf"), "malformed value for lambda"),
    (SOLVE_A.replace("lambda = 0.5", "lambda = nan"), "malformed value for lambda"),
    (B0_SCAN + "b-grid = nan 1\n", "malformed value for b-grid"),
    (SOLVE_A.replace("1.0 65", "1.0 33 centered"), "needs: extent, resolution"),
    (B0_SCAN.replace("interval 1.0 33", "ball 1.0 17 centered"),
     "needs: extent, resolution"),
], ids=["tiny-extent", "huge-extent", "inf-extent", "inf-lambda", "nan-lambda",
        "nan-b-grid", "centered-interval", "centered-ball"])
def test_unusable_numbers_exit_2(tmp_path, capsys, text, message):
    # a number that no grid of doubles can use is a configuration error,
    # reported before any solve
    code, out = run_cfg(tmp_path, text)
    err = capsys.readouterr().err
    assert code == 2
    assert "configuration error" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_verify_subcommand_overrides_kind(tmp_path):
    code, out = run_cfg(tmp_path, SOLVE_A, command="verify")
    assert code == 0
    assert "CHECK certificate: PASS" in (out / "report.txt").read_text()


def test_regime_a_verify_runs_descent_once(tmp_path, monkeypatch):
    # the uniqueness probe reuses the primary descent outcome, and its
    # report is the one the probe's own descent run gives
    calls = []
    descent = solvers.descent_minimize

    def counted(*args):
        calls.append(args)
        return descent(*args)

    monkeypatch.setattr(cli, "descent_minimize", counted)
    monkeypatch.setattr(solvers, "descent_minimize", counted)
    code, out = run_cfg(tmp_path, SOLVE_A, name="reuse.cfg", command="verify")
    assert code == 0
    assert len(calls) == 1
    report = (out / "report.txt").read_text()
    assert "CHECK solutions-found: PASS" in report

    probe = cli.uniqueness_probe
    monkeypatch.setattr(cli, "uniqueness_probe",
                        lambda mesh, params, config, descent: probe(
                            mesh, params, config, counted(mesh, params, config)))
    code, out = run_cfg(tmp_path, SOLVE_A, name="rerun.cfg", command="verify")
    assert code == 0
    assert len(calls) == 3
    assert (out / "report.txt").read_text() == report


def test_missing_config_file(tmp_path, capsys):
    code = main(["run", str(tmp_path / "absent.cfg")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path, capsys):
    code, _ = run_cfg(tmp_path, SOLVE_A.replace("p = 2", "p = 3"))
    assert code == 2
    assert "boundary exponent" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["constant 1 2 3", "eigenmode 1 2",
                                  "quartic-signchanging 1",
                                  "file a.txt b.txt"])
def test_extra_forcing_arguments_exit_2(tmp_path, capsys, spec):
    cfg = parse_config(SOLVE_A.replace("f = constant 1.0", f"f = {spec}"))
    code = run_experiment(replace(cfg, out=str(tmp_path / "out")))
    assert code == 2
    assert repr(spec) in capsys.readouterr().err


@pytest.mark.parametrize("line", ["damping = 0.5", "path_nodes = 9"])
def test_removed_solver_knobs_exit_2(tmp_path, capsys, line):
    code, out = run_cfg(tmp_path, SOLVE_A + line + "\n")
    assert code == 2
    assert f"unknown key: {line.split()[0]}" in capsys.readouterr().err
    assert not out.exists()


def test_coarse_ball_embedding_blowup_fails_check(tmp_path, capsys):
    # on ball 17 at p = 4 the embedding-quotient iteration diverges; the
    # run reports it as a failed check, not as a configuration error, and
    # numpy raises no overflow warning on the way
    text = ("kind = verify\np = 4\nalpha = 1\nb = 1\nlambda = 0.05\n"
            "f = constant 1.0\ndomain = ball 1.0 17\n")
    code, out = run_cfg(tmp_path, text)
    assert code == 1
    report = (out / "report.txt").read_text(encoding="utf-8")
    assert report.startswith("CHECK converged: FAIL (embedding-quotient "
                             "iteration blew up at sweep ")
    assert "configuration error" not in capsys.readouterr().err


def test_mountain_pass_check_says_why_it_stopped(tmp_path):
    # at the default tol the saddle's residual stalls at its round-off
    # floor; Newton's stop reason rides on the CHECK line
    text = ("kind = verify\np = 4\nalpha = 1\nb = 1\nlambda = 0.05\n"
            "f = constant 1.0\ndomain = ball 1.0 65\n")
    code, out = run_cfg(tmp_path, text)
    assert code == 1
    line, = [ln for ln in (out / "report.txt").read_text().splitlines()
             if ln.startswith("CHECK mountain-pass")]
    assert line.startswith("CHECK mountain-pass: FAIL (energy: ")
    assert "damping below floor at residual" in line


def test_failed_primary_solve_check_says_why_it_stopped(tmp_path):
    # the threshold scenario's data at lambda = 1e3: descent stops pinned to
    # its trust ball, and the converged line carries that stop message
    text = ("kind = verify\np = 4\nalpha = 1\nb = 1\nlambda = 1e3\n"
            "f = constant 1.0\ndomain = ball 1.0 65\ntol = 1e-4\n")
    code, out = run_cfg(tmp_path, text)
    assert code == 1
    line = (out / "report.txt").read_text().splitlines()[0]
    assert line == ("CHECK converged: FAIL (solver=descent, iterations=9, "
                    "minimizer pinned to the trust-ball boundary)")


def test_run_verify_regime_b_certifies_two_solutions(tmp_path):
    # small lambda: the saddle search certifies, so the two-solution
    # checks that follow it run and pass
    text = ("kind = verify\np = 4\nalpha = 1\nb = 1\nlambda = 0.02\n"
            "f = constant 1.0\ndomain = ball 1.0 65\ntol = 1e-4\n")
    code, out = run_cfg(tmp_path, text)
    report = (out / "report.txt").read_text()
    assert code == 0, report
    for name in ("mountain-pass", "distinct-solutions", "energy-signs"):
        assert f"CHECK {name}: PASS" in report


def test_byte_identical_reruns(tmp_path):
    cfg = tmp_path / "det.cfg"
    cfg.write_text(SOLVE_A.replace("kind = solve", "kind = verify"),
                   encoding="utf-8")
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("branch.csv", "report.txt"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_regime_a_verify_leaves_numpy_random_unimported(tmp_path):
    # the uniqueness probe's multi-start rays come from
    # solvers._uniform_draws, so a fresh verify run never loads numpy.random
    cfg = tmp_path / "a.cfg"
    cfg.write_text(SOLVE_A.replace("kind = solve", "kind = verify"), encoding="utf-8")
    out = tmp_path / "out"
    script = ("import sys\nfrom kirchhoff_lab.cli import main\n"
              f"code = main(['run', {str(cfg)!r}, '--out', {str(out)!r}])\n"
              "print(code, 'numpy.random' in sys.modules)\n")
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["0", "False"]
    assert "CHECK solutions-found: PASS" in (out / "report.txt").read_text()


# the mountain-pass scenario's data (regime B, descent) and the
# supercritical scenario's (regime C, Picard), each with its primary solver
TWIN_DATA = {
    "mountain-pass": ("p = 4\nalpha = 1\nlambda = 0.05\n", "descent_minimize"),
    "supercritical": ("p = 6\nalpha = 0.5\nlambda = 0.01\n", "picard_iterate"),
}


def _centre_twin(mesh, params, u):
    """u with u_0 moved to the larger positive root of its centre equation.

    The ball's origin node has zero weight and couples only to its own row
    (sub[1] = 0), so K and every other row of the residual ignore u_0.  With
    coeff fixed, g(t) = coeff (diag_0 t + sup_0 u_1) - t^p - lam f_0 is
    concave in t > 0 with g(0) < 0: two positive roots, and u_0 is the
    smaller one."""
    _, diag, sup = mesh.stencil
    K = h1_seminorm(mesh, u) ** 2
    coeff = 1.0 + params.b * K**params.alpha
    p, lam_f0 = params.p, params.lam * float(params.f.values[0])

    def g(t):
        return coeff * (diag[0] * t + sup[0] * u.values[1]) - t**p - lam_f0

    top = (coeff * diag[0] / p) ** (1.0 / (p - 1.0))  # where g' = 0
    hi = 2.0 * top
    while g(hi) > 0.0:
        hi *= 2.0
    twin = u.values.copy()
    twin[0] = _brent(g, top, hi, g(top), g(hi), 1e-15 * hi)
    return GridFunction(mesh, twin)


def _check_status(out):
    return dict(ln[len("CHECK "):].split(" (")[0].split(": ")
                for ln in (out / "report.txt").read_text().splitlines()
                if ln.startswith("CHECK "))


@pytest.mark.parametrize("data", list(TWIN_DATA))
def test_ball_centre_twin_fails_only_shooting_agreement(tmp_path, monkeypatch, data):
    """ROADMAP item 20's centre-spike twin on ball 65.

    The twin differs from the verified solution only at node 0, where it
    sits on the other root of the centre equation.  Newton converges from
    it without leaving it, and of verify's checks only shooting-agreement
    tells it from the solution: energy, residual, Pohozaev residual and
    certificate ignore the zero-weight origin.  Once item 10 gives the
    origin a weight the energy sees, the twin is no longer a solution, and
    this test becomes "Newton no longer converges to the twin".
    """
    body, primary = TWIN_DATA[data]
    text = "kind = verify\nb = 1\nf = constant 1.0\ndomain = ball 1.0 65\n" + body
    solve, runs = getattr(solvers, primary), []

    def newton_from_twin(mesh, params, config):
        u = solve(mesh, params, config)
        twin = solvers.newton_nonlocal(mesh, params, config,
                                       _centre_twin(mesh, params, u.solution))
        runs.append((u, twin))
        return twin

    _, out = run_cfg(tmp_path, text, name="solution.cfg")
    monkeypatch.setattr(cli, primary, newton_from_twin)
    _, twin_out = run_cfg(tmp_path, text, name="twin.cfg")
    (u, twin), = runs
    assert u.converged and twin.converged
    assert twin.solution.values[0] > 1e3 * u.solution.values[0]
    assert np.array_equal(twin.solution.values[1:], u.solution.values[1:])
    status, twin_status = _check_status(out), _check_status(twin_out)
    assert status.keys() == twin_status.keys()
    assert status["shooting-agreement"] == "PASS"
    assert {name for name in status if status[name] != twin_status[name]} == {
        "shooting-agreement"}
