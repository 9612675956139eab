"""Outside-in per-layer tracer for kirchhoff_lab.

Nothing inside the package changes.  ``Tracer.install`` wraps each
layer's public functions and rebinds every name that a caller resolves:
modules that did ``from .x import f`` hold their own reference, so the
wrapper replaces the original in every ``kirchhoff_lab`` module (and in
module-level tuples, lists and dicts), not only in the defining module.
``leftovers`` reports any binding that still holds an original.

Spans are aggregated as they close, so memory stays flat over the
hundreds of thousands of calls of one pass.  A span's self time is its
duration minus the durations of its direct child spans.  The tracer is
single-threaded: run it with ``KIRCHHOFF_LAB_THREADS`` unset.
"""

import importlib
import sys
import time
from collections import Counter

# (module, attribute) -> span name
TARGETS = {
    ("_kernels", "rk4_radial"): "kernels.rk4",
    ("_kernels", "thomas_solve"): "kernels.thomas",
    ("_kernels", "tridiag_apply"): "kernels.tridiag_apply",
    ("_kernels", "lap2d_apply"): "kernels.lap2d",
    ("mesh", "poisson_solve"): "mesh.poisson_solve",
    ("constants", "eigenpair"): "constants.eigenpair",
    ("constants", "sobolev"): "constants.sobolev",
    ("constants", "torsion"): "constants.torsion",
    ("constants", "dense_op"): "constants.dense_op",
    ("energy", "energy_eval"): "energy.eval",
    ("energy", "energy_gradient"): "energy.gradient",
    ("solvers", "picard_iterate"): "solvers.picard",
    ("solvers", "newton_nonlocal"): "solvers.newton",
    ("solvers", "descent_minimize"): "solvers.descent",
    ("solvers", "mountain_pass_search"): "solvers.mountain_pass",
    ("solvers", "multi_start"): "solvers.multi_start",
    ("verify", "kirchhoff_shooting"): "verify.kirchhoff_shooting",
    ("verify", "homogeneous_shooting"): "verify.homogeneous_shooting",
    ("verify", "uniqueness_probe"): "verify.uniqueness_probe",
    ("verify", "supnorm_decay_scan"): "verify.supnorm_decay_scan",
    ("verify", "pohozaev_residual"): "verify.pohozaev_residual",
    ("verify", "residual_certificate"): "verify.residual_certificate",
    ("continuation", "sweep_lambda"): "continuation.sweep_lambda",
    ("continuation", "estimate_Lambda_f"): "continuation.estimate_Lambda_f",
    ("continuation", "sweep_b_threshold"): "continuation.sweep_b_threshold",
    ("cli", "run_experiment"): "cli.run_experiment",
}

SOLVERS = ("picard", "newton", "descent", "mountain_pass", "multi_start")
ORACLES = ("verify.kirchhoff_shooting", "verify.homogeneous_shooting")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [name, start, child seconds]
        self.stats = {}  # name -> [calls, total seconds, self seconds]
        self.open = Counter()  # name -> number of open spans
        self.counts = Counter()
        self._patched = []  # (namespace, key, original)
        self._originals = {}  # id(original) -> original

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])
        self.open[name] += 1

    def exit(self) -> float:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        self.open[name] -= 1
        if self.stack:
            self.stack[-1][2] += dur
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        return dur

    def parent(self) -> str | None:
        """Name of the span that encloses the innermost open one."""
        return self.stack[-2][0] if len(self.stack) > 1 else None

    def wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        enter, exit_ = self.enter, self.exit

        def traced(*args, **kwargs):
            enter(name)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, args, result)
                return result
            finally:
                exit_()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        replace = {}
        for (mod, attr), name in TARGETS.items():
            original = getattr(importlib.import_module(f"kirchhoff_lab.{mod}"), attr)
            replace[id(original)] = self.wrap(name, original)
            self._originals[id(original)] = original
        for ns, key, value, _ in _bindings():
            if (ns is not None and id(value) in replace
                    and value is self._originals[id(value)]):
                self._patched.append((ns, key, value))
                ns[key] = replace[id(value)]
        left = self.leftovers()
        if left:
            self.uninstall()
            raise RuntimeError(f"originals still bound after patching: {left}")

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._patched):
            ns[key] = original
        self._patched.clear()

    def leftovers(self) -> list[str]:
        """Bindings in kirchhoff_lab that still hold an original function."""
        return [where for _, _, value, where in _bindings()
                if id(value) in self._originals
                and self._originals[id(value)] is value]

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- per-layer metrics -------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_metrics(self, experiments) -> dict:
        """Per-layer metric name -> (value, unit)."""
        m = {}

        def calls_self(key, span):
            m[f"{key}.calls"] = (self.calls(span), "count")
            m[f"{key}.self_s"] = (self.self_s(span), "s")

        calls_self("kernels.rk4", "kernels.rk4")
        m["kernels.rk4.steps"] = (self.counts["kernels.rk4.steps"], "count")
        for key in ("kernels.thomas", "kernels.tridiag_apply", "kernels.lap2d",
                    "mesh.poisson_solve"):
            calls_self(key, key)
        m["mesh.cg_iters"] = (self.counts["mesh.cg_iters"], "count")
        for key in ("eigenpair", "sobolev", "torsion"):
            m[f"constants.{key}.total_s"] = (self.total_s(f"constants.{key}"), "s")
        calls_self("constants.dense_op", "constants.dense_op")
        calls_self("energy.eval", "energy.eval")
        calls_self("energy.gradient", "energy.gradient")
        for key in SOLVERS:
            span = f"solvers.{key}"
            calls_self(span, span)
            n = self.calls(span)
            m[f"{span}.total_s"] = (self.total_s(span), "s")
            m[f"{span}.converged_frac"] = (
                self.counts[f"{span}.converged"] / n if n else 0.0, "frac")
        evals = self.counts["solvers.newton.residual_evals"]
        steps = self.counts["solvers.newton.steps"]
        m["solvers.newton.steps"] = (steps, "count")
        m["solvers.newton.residual_evals"] = (evals, "count")
        m["solvers.newton.linesearch_trials"] = (evals - steps, "count")
        m["solvers.mountain_pass.sweeps"] = (
            self.counts["solvers.mountain_pass.sweeps"], "count")
        m["solvers.multi_start.starts"] = (
            self.counts["solvers.multi_start.starts"], "count")
        m["solvers.multi_start.kept"] = (
            self.counts["solvers.multi_start.kept"], "count")
        for key in ("kirchhoff_shooting", "homogeneous_shooting",
                    "uniqueness_probe", "supnorm_decay_scan",
                    "pohozaev_residual", "residual_certificate"):
            m[f"verify.{key}.calls"] = (self.calls(f"verify.{key}"), "count")
            m[f"verify.{key}.total_s"] = (self.total_s(f"verify.{key}"), "s")
        oracles = sum(self.calls(o) for o in ORACLES)
        m["verify.shots_per_oracle"] = (
            self.counts["verify.oracle_shots"] / oracles if oracles else 0.0,
            "shots")
        for key in ("sweep_lambda", "estimate_Lambda_f", "sweep_b_threshold"):
            m[f"continuation.{key}.total_s"] = (
                self.total_s(f"continuation.{key}"), "s")
        m["continuation.votes"] = (self.counts["continuation.votes"], "count")
        for exp in experiments:
            m[f"cli.run_experiment.{exp}.s"] = (
                self.total_s(f"cli.run_experiment.{exp}"), "s")
        return m


def _bindings():
    """(namespace, key, value, where) of every kirchhoff_lab module global;
    items of module-level tuples, lists and dicts come with namespace None."""
    for modname, mod in list(sys.modules.items()):
        if modname != "kirchhoff_lab" and not modname.startswith("kirchhoff_lab."):
            continue
        ns = vars(mod)
        for key, value in list(ns.items()):
            if isinstance(value, (tuple, list, dict)):
                items = value.values() if isinstance(value, dict) else value
                for item in items:
                    yield None, None, item, f"{modname}.{key}[...]"
            else:
                yield ns, key, value, f"{modname}.{key}"


# -- counters read at span boundaries ----------------------------------------


def _rk4(tr, args, result):
    tr.counts["kernels.rk4.steps"] += int(args[2])
    if any(tr.open[o] for o in ORACLES):
        tr.counts["verify.oracle_shots"] += 1


def _lap2d(tr, args, result):
    if tr.open["mesh.poisson_solve"]:
        tr.counts["mesh.cg_iters"] += 1


def _dense_op(tr, args, result):
    # one call per _newton_pieces: a Newton residual evaluation
    if tr.open["solvers.newton"]:
        tr.counts["solvers.newton.residual_evals"] += 1


def _outcome(span):
    def hook(tr, args, result):
        tr.counts[f"{span}.converged"] += bool(result.converged)
    return hook


def _newton(tr, args, result):
    tr.counts["solvers.newton.converged"] += bool(result.converged)
    # one history entry per outer residual evaluation; every other
    # evaluation inside the call is a line-search trial
    tr.counts["solvers.newton.steps"] += len(result.residual_history)
    if tr.parent() == "solvers.multi_start":
        tr.counts["solvers.multi_start.starts"] += 1


def _mountain_pass(tr, args, result):
    tr.counts["solvers.mountain_pass.converged"] += bool(result.converged)
    tr.counts["solvers.mountain_pass.sweeps"] += len(result.residual_history)


def _multi_start(tr, args, result):
    tr.counts["solvers.multi_start.converged"] += bool(result)
    tr.counts["solvers.multi_start.kept"] += len(result)


def _votes(tr, args, result):
    tr.counts["continuation.votes"] += len(result.votes)


_HOOKS = {
    "kernels.rk4": _rk4,
    "kernels.lap2d": _lap2d,
    "constants.dense_op": _dense_op,
    "solvers.picard": _outcome("solvers.picard"),
    "solvers.descent": _outcome("solvers.descent"),
    "solvers.newton": _newton,
    "solvers.mountain_pass": _mountain_pass,
    "solvers.multi_start": _multi_start,
    "continuation.estimate_Lambda_f": _votes,
}
