"""Check the last line of a traced all-workload benchmark run against its gates.

    python3 perfbench/run.py --workload all --seed 42 --seconds 1 --trace 1 \
        | tail -n 1 | python3 .github/bench_gates.py

The run must be ``correct`` with no failed experiment, and every gated
metric, keyed ``{workload}.{metric}``, must be present and within its
bound.  The counts do not depend on the machine; the one self time
(newton-2d Poisson solves) has a bound far above its measured value.
Exits 1 when any check fails.
"""

import json
import sys

# metric -> largest accepted value
GATES = {
    # shooting-oracle shots: the outer loop starts from the linear shot,
    # and each inner solve shoots the root predicted from it, which the
    # comparison bounds accept, so the mountain-pass oracle takes the
    # linear shot and one more; unforced (b0-scan), the first rung that
    # crosses zero predicts the root by exact scaling
    "radial-oracle.kernels.rk4.calls": 10,
    "mountain-pass.kernels.rk4.calls": 2,
    # Picard and descent run once per vote; energy evaluations of the
    # round-off-aware descent line search
    "newton-1d.solvers.picard.calls": 47,
    "newton-1d.solvers.descent.calls": 47,
    "newton-1d.energy.eval.calls": 2000,
    # Newton steps and residual evaluations: a step that no fraction down
    # to the damping floor 1/8 improves ends its solve after 4 trials, and
    # each multi-start begins at the energy's critical point on its ray;
    # a solve evaluates its start once and each line-search trial once,
    # the accepted trial's residual serving the next step (1218 when that
    # residual was recomputed)
    "newton-1d.solvers.newton.steps": 440,
    "newton-1d.solvers.newton.residual_evals": 917,
    "radial-oracle.solvers.newton.steps": 21,
    # Poisson solves: descent's start takes one membership witness, not
    # two, and the embedding minimizer starts from the cached eigenpair
    # and finishes with Newton's tridiagonal solves
    "newton-1d.mesh.poisson_solve.calls": 929,
    "mountain-pass.mesh.poisson_solve.calls": 20,
    # the saddle search is one Newton solve
    "mountain-pass.energy.eval.calls": 3,
    # rectangle Poisson solves by sine transform: membership witnesses,
    # Picard, descent and the torsion (the first eigenpair is read off the
    # cached sine basis); Newton steps; stencil applications: Newton's
    # residuals, one per solve's start and one per line-search trial (101
    # when each accepted trial was evaluated again), plus one true-residual
    # check per MINRES solve, whose iterations run on sine coefficients
    # without the stencil.  The uniqueness probe reuses the verify run's
    # descent
    "newton-2d.mesh.poisson_solve.self_s": 0.03,
    "newton-2d.mesh.poisson_solve.calls": 8,
    "newton-2d.solvers.newton.steps": 36,
    "newton-2d.kernels.lap2d.calls": 76,
}


def failures(run: dict) -> list[str]:
    bad = []
    if run.get("correct") is not True or run.get("failed") != 0:
        bad.append(f"correct={run.get('correct')} failed={run.get('failed')}")
    metrics = run.get("metrics", {})
    for name, bound in GATES.items():
        value = metrics.get(name, {}).get("value")
        ok = value is not None and value <= bound
        print(f"{name} = {value} (<= {bound}): {'PASS' if ok else 'FAIL'}")
        if not ok:
            bad.append(name)
    return bad


def main() -> int:
    bad = failures(json.loads(sys.stdin.read().strip().splitlines()[-1]))
    print("gates:", "FAIL " + ", ".join(bad) if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
