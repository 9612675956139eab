"""Worker process of the scenario benchmark; ``run.py`` starts it.

    python3 perfbench/worker.py setup WORKLOAD SEED
    python3 perfbench/worker.py run WORKLOAD SEED SECONDS TRACE TMPDIR

``setup`` times ``import kirchhoff_lab`` plus ``parse_config`` of the
workload's configs, in a fresh interpreter.  ``run`` makes untraced
passes over the workload's experiments while another pass fits in
SECONDS (at least one), pass k with config seed ``pass_seed(SEED, k)``.
With TRACE=1 it makes exactly one untraced pass, then one traced pass,
both on SEED.  Every experiment's outputs are checked after it is timed.
Each mode prints one JSON object on stdout.
"""

import ctypes
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from dataclasses import replace

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
# leave room for the traced pass and the checks inside run.py's deadline
PASS_BUDGET_S = 100.0

sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def setup(workload: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import kirchhoff_lab
    t1 = time.perf_counter()
    from kirchhoff_lab.cli import parse_config
    from scenarios import seeded, workload_configs

    texts = workload_configs(workload)  # computes 2*b0: not set-up
    t2 = time.perf_counter()
    for text in texts.values():
        parse_config(seeded(text, seed))
    t3 = time.perf_counter()
    if pathlib.Path(kirchhoff_lab.__file__).resolve().parent != ROOT / "src" / "kirchhoff_lab":
        raise RuntimeError(f"imported kirchhoff_lab from {kirchhoff_lab.__file__}")
    return {"setup_s": (t1 - t0) + (t3 - t2)}


def _checks(report: pathlib.Path) -> tuple[int, int]:
    """(passed, total) CHECK lines of a report."""
    lines = [ln for ln in report.read_text(encoding="utf-8").splitlines()
             if ln.startswith("CHECK ")]
    return sum(": PASS (" in ln for ln in lines), len(lines)


def _one_pass(cli, configs: dict, out_root: pathlib.Path, tracer=None):
    """Run every experiment once; returns (timed seconds, records)."""
    from compare import compare_dirs

    wall, records = 0.0, []
    for name, cfg in configs.items():
        out = out_root / name
        cfg = replace(cfg, out=str(out))
        if tracer is not None:
            tracer.enter(f"cli.run_experiment.{name}")
        t0 = time.perf_counter()
        try:
            code = cli.run_experiment(cfg)
        except Exception:
            traceback.print_exc()
            code = None
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit()
        wall += dt
        rec = {"experiment": name, "s": dt, "code": code, "passed": 0,
               "checks": 1, "mismatches": []}
        if code in (0, 1):
            rec["passed"], rec["checks"] = _checks(out / "report.txt")
            rec["mismatches"] = compare_dirs(REFERENCE / name, out, cfg.tol)
        rec["failed"] = code not in (0, 1) or bool(rec["mismatches"])
        records.append(rec)
    shutil.rmtree(out_root, ignore_errors=True)
    return wall, records


def environment(seed: int) -> dict:
    import numpy

    import kirchhoff_lab

    return {
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "blas": _blas_name(numpy),
        "blas_threads": _blas_threads(),
        "backend": getattr(kirchhoff_lab, "BACKEND", "unknown"),
        "seed": seed,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "not installed"


def _blas_name(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def _blas_threads() -> str:
    """OpenBLAS's own thread count, read from the loaded library."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')} (from env)"


def run(workload: str, seed: int, seconds: float, trace: bool,
        tmp: pathlib.Path) -> dict:
    from kirchhoff_lab import cli
    from scenarios import EXPERIMENTS, pass_seed, seeded, workload_configs
    from tracer import Tracer

    texts = workload_configs(workload)

    def configs(k):
        return {name: cli.parse_config(seeded(text, pass_seed(seed, k)))
                for name, text in texts.items()}

    walls, records = [], []
    start = time.perf_counter()
    while True:
        wall, recs = _one_pass(cli, configs(len(walls)), tmp / f"pass{len(walls)}")
        if not walls:
            # the peak of one pass, as a CLI user sees it; later passes
            # would add allocator fragmentation that depends on their count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        walls.append(wall)
        records += recs
        elapsed = time.perf_counter() - start
        # a pass like the last one would end after SECONDS
        if trace or elapsed + wall > min(seconds, PASS_BUDGET_S):
            break
    result = {"walls": walls, "records": records,
              "peak_rss_mb": peak_rss_mb,
              "environment": environment(seed)}
    if trace:
        tracer = Tracer()
        with tracer:
            traced, recs = _one_pass(cli, configs(0), tmp / "traced", tracer)
        result["traced_records"] = recs
        layers = tracer.layer_metrics(EXPERIMENTS)
        layers["cli.trace_overhead_s"] = (traced - walls[0], "s")
        result["layers"] = layers
    return result


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        out = setup(workload, seed)
    else:
        if os.environ.get("KIRCHHOFF_LAB_THREADS"):
            raise RuntimeError("the benchmark is single-threaded: unset "
                               "KIRCHHOFF_LAB_THREADS")
        out = run(workload, seed, float(argv[3]), argv[4] == "1",
                  pathlib.Path(argv[5]))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
