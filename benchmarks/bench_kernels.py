"""Compare the numba kernels against the pure-numpy fallback.

The backend is chosen at import time from KIRCHHOFF_LAB_BACKEND, so the
parent process forks one worker per backend and tabulates the timings.
Where numba is not importable only the numpy worker runs, and the script
prints "numba unavailable" before its timings.

    python3 benchmarks/bench_kernels.py [--repeats N]
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import time


def _workloads():
    import numpy as np

    from kirchhoff_lab.mesh import build_mesh, poisson_solve
    from kirchhoff_lab.problem import ProblemParams
    from kirchhoff_lab.forcing import constant_forcing
    from kirchhoff_lab.solvers import SolverConfig, descent_minimize
    from kirchhoff_lab.verify import shooting_solve

    line = build_mesh("interval", 1.0, 4097)
    rect = build_mesh("rectangle", (1.0, 1.0), (129, 129))
    ball = build_mesh("ball", 1.0, 257)
    rhs1 = np.ones(line.shape)
    rhs2 = np.ones(rect.shape)
    params = ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=1.0,
                           f=constant_forcing(line).field)

    return {
        "tridiagonal-solve-4097 x100": lambda: [
            poisson_solve(line, rhs1) for _ in range(100)],
        "poisson-2d-129x129": lambda: poisson_solve(rect, rhs2),
        "radial-shooting-257": lambda: shooting_solve(ball, 3.0, refine=8),
        "descent-interval-4097": lambda: descent_minimize(
            line, params, SolverConfig(tol=1e-8, max_iter=2000)),
    }


def worker(repeats: int) -> None:
    from kirchhoff_lab import BACKEND

    loads = _workloads()
    for fn in loads.values():  # warm-up pass also triggers jit compilation
        fn()
    out = {"backend": BACKEND, "timings": {}}
    for name, fn in loads.items():
        best = min(_timed(fn) for _ in range(repeats))
        out["timings"][name] = best
    print(json.dumps(out))


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed repeats per workload, best is kept")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.worker:
        worker(args.repeats)
        return 0

    have_numba = importlib.util.find_spec("numba") is not None
    results = {}
    for backend in ("numba", "numpy") if have_numba else ("numpy",):
        env = dict(os.environ, KIRCHHOFF_LAB_BACKEND=backend)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--worker",
             "--repeats", str(args.repeats)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{backend} worker failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        data = json.loads(proc.stdout.splitlines()[-1])
        assert data["backend"] == backend, "backend selection did not stick"
        results[backend] = data["timings"]

    if not have_numba:
        print("numba unavailable")
        width = max(map(len, results["numpy"]))
        print(f"{'workload':<{width}}  {'numpy':>10}")
        for name, tp in results["numpy"].items():
            print(f"{name:<{width}}  {tp:>9.4f}s")
        return 0
    width = max(map(len, results["numba"]))
    print(f"{'workload':<{width}}  {'numba':>10}  {'numpy':>10}  speedup")
    for name in results["numba"]:
        tb, tp = results["numba"][name], results["numpy"][name]
        print(f"{name:<{width}}  {tb:>9.4f}s  {tp:>9.4f}s  {tp / tb:>6.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
