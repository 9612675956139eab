"""Scenario benchmark of kirchhoff-lab: CLI workloads timed end to end.

    python3 perfbench/run.py --workload radial-oracle --seed 42 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 42 --seconds 10 --trace 0

Run from the repository root.  A closed loop with one client: each
workload's experiments (``scenarios.WORKLOADS``) run one after another
through ``cli.run_experiment`` in a single worker process, with
``KIRCHHOFF_LAB_BACKEND=numpy``, ``KIRCHHOFF_LAB_THREADS`` unset and BLAS
limited to one thread.  The seed goes into every config's ``seed`` key,
shifted per pass (``scenarios.pass_seed``).  Every experiment's CSVs are
checked against ``reference/``.

End-to-end metrics (``--trace 0``):
  wall_s           median over passes of one untraced pass, in seconds
  setup_s          median over fresh interpreters of ``import kirchhoff_lab``
                   plus ``parse_config`` of the workload's configs
  check_pass_frac  CHECK lines that PASS over all CHECK lines; an
                   experiment that raises or exits 2 counts as one failed
                   check
  peak_rss_mb      ru_maxrss of the worker, which runs this workload alone,
                   read after its first pass
With ``--trace 1`` one untraced and one traced pass give the per-layer
metrics of ``tracer.Tracer.layer_metrics`` plus ``cli.trace_overhead_s``.

The lines before the last give the environment and a readable summary,
including ``fail_frac``: experiments that raise, exit 2, report a CHECK
FAIL or deviate from the reference, over experiments run.  The last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts the runs that raise, exit 2 or deviate
from the reference; a CHECK FAIL that the reference reproduces (the
mountain-pass saddle) lowers ``check_pass_frac`` instead.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("radial-oracle", "newton-1d", "newton-2d", "mountain-pass")
SETUP_PROBES = 5
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("KIRCHHOFF_LAB_THREADS", None)
    env["KIRCHHOFF_LAB_BACKEND"] = "numpy"
    # one BLAS thread: a second one would contend with whatever shares the
    # machine, and its waits would show as spread, not as program time
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def call_worker(args: list, deadline: float) -> dict:
    """Run the worker to completion (killed at the deadline); its JSON."""
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> tuple[dict, dict]:
    """(result object, summary) of one workload."""
    setups = [call_worker(["setup", workload, seed], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    tmp = tempfile.mkdtemp(prefix=".perfbench_tmp-", dir=ROOT)
    try:
        out = call_worker(["run", workload, seed, seconds, int(trace), tmp],
                          deadline)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    untraced = out["records"]
    records = untraced + out.get("traced_records", [])
    failed = sum(r["failed"] for r in records)
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in out["layers"].items()}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(out["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "check_pass_frac": {
                "value": sum(r["passed"] for r in untraced)
                / sum(r["checks"] for r in untraced), "unit": "frac"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    summary = {
        "workload": workload,
        "passes": len(out["walls"]),
        "pass_walls_s": out["walls"],
        "setup_probes_s": setups,
        "fail_frac": sum(r["failed"] or r["passed"] < r["checks"]
                         for r in untraced) / len(untraced),
        "experiments": {r["experiment"]: r["code"] for r in untraced},
        "mismatches": [m for r in records for m in r["mismatches"]],
        "environment": out["environment"],
    }
    result = {"correct": failed == 0, "attempted": len(records),
              "failed": failed, "metrics": metrics}
    return result, summary


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so subprocess.run kills and reaps the
    # worker and the temporary directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    if not (ROOT / "src" / "kirchhoff_lab" / "__init__.py").is_file():
        print(f"no kirchhoff_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    start = time.monotonic()
    results = {}
    for name in names:
        # each workload gets the whole per-run deadline of the contract
        deadline = time.monotonic() + DEADLINE_S
        try:
            result, summary = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: benchmark failed: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(summary))
        print(f"{name}: " + ", ".join(
            f"{k}={m['value']:.6g} {m['unit']}"
            for k, m in result["metrics"].items()
            if not args.trace or k.startswith("cli.")) +
            f", fail_frac={summary['fail_frac']:.6g} frac")
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(f"total {time.monotonic() - start:.1f} s", file=sys.stderr)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
