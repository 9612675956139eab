"""Experiment configs of the benchmark's four workloads.

``scenario_configs`` rebuilds the six acceptance scenarios; its text must
stay equal to ``tests/test_acceptance.py::_scenario_configs()``, which
``test_perfbench.py`` asserts.  The b values come from ``2 b0`` via
``constants.sobolev``, so building the configs imports the package and
is done before any timing starts.  ``seeded`` appends a seed to a
config; the program sees only that text.
"""

from kirchhoff_lab import constants
from kirchhoff_lab.mesh import build_mesh
from kirchhoff_lab.problem import ProblemParams, compute_b0

# workload -> experiments, in run order
WORKLOADS = {
    "radial-oracle": ("uniqueness", "supercritical", "b0-scan"),
    "newton-1d": ("threshold", "decay", "coercive-sweep"),
    "newton-2d": ("newton-2d",),
    "mountain-pass": ("mountain-pass",),
}

EXPERIMENTS = tuple(e for names in WORKLOADS.values() for e in names)

# the only workloads that reach the 2-D stencil and the saddle search
EXTRA_CONFIGS = {
    "newton-2d": ("kind = verify\np = 2\nalpha = 1\nb = 1\nlambda = 1\n"
                  "f = constant 1.0\ndomain = rectangle 1.0 1.0 49 49\n"),
    "mountain-pass": ("kind = verify\np = 4\nalpha = 1\nb = 1\n"
                      "lambda = 0.05\nf = constant 1.0\n"
                      "domain = ball 1.0 65\n"),
}


def _b0_of(mesh) -> float:
    S, _ = constants.sobolev(mesh, 2.0)
    return compute_b0(ProblemParams(b=1.0, alpha=1.0, p=2.0, lam=0.0), S)


def scenario_configs() -> dict:
    fine = build_mesh("interval", 1.0, 513)
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


def workload_configs(workload: str) -> dict:
    """Experiment name -> unseeded config text of one workload."""
    texts = {**scenario_configs(), **EXTRA_CONFIGS}
    return {name: texts[name] for name in WORKLOADS[workload]}


def pass_seed(seed: int, k: int) -> int:
    """Config seed of pass k of a run: the run seed itself for pass 0.

    Each pass draws fresh multi-start fields, so a run's median pass
    covers several seeds instead of resting on one draw."""
    return seed + 1_000_000 * k


def seeded(text: str, seed: int) -> str:
    return text + f"seed = {seed}\n"
