"""Tests of the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import importlib.util
import json
import pathlib
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from compare import close, compare_tables  # noqa: E402
from scenarios import EXPERIMENTS, WORKLOADS, scenario_configs  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402


def _acceptance_module():
    spec = importlib.util.spec_from_file_location(
        "acceptance_scenarios", ROOT / "tests" / "test_acceptance.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_scenarios_match_acceptance_text_for_text():
    assert scenario_configs() == _acceptance_module()._scenario_configs()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("outer")           # t=0
    clock.now = 1.0
    tr.enter("mid")             # t=1
    clock.now = 2.0
    tr.enter("leaf")            # t=2
    clock.now = 5.0
    assert tr.exit() == 3.0     # leaf 2..5
    clock.now = 6.0
    tr.enter("leaf")            # t=6
    clock.now = 7.0
    tr.exit()                   # leaf 6..7
    clock.now = 10.0
    assert tr.exit() == 9.0     # mid 1..10
    clock.now = 12.0
    tr.enter("leaf")            # t=12, direct child of outer
    clock.now = 13.0
    tr.exit()
    clock.now = 20.0
    tr.exit()                   # outer 0..20
    assert tr.stats["leaf"] == [3, 5.0, 5.0]
    assert tr.stats["mid"] == [1, 9.0, 5.0]        # 9 - (3 + 1)
    assert tr.stats["outer"] == [1, 20.0, 10.0]    # 20 - (9 + 1)
    total_self = sum(st[2] for st in tr.stats.values())
    assert total_self == tr.stats["outer"][1]
    assert not tr.stack and not +tr.open


def test_wrapped_call_records_span_even_when_it_raises():
    tr = Tracer(FakeClock())

    def boom():
        raise ValueError("x")

    wrapped = tr.wrap("boom", boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.stats["boom"][0] == 1 and not tr.stack


def test_install_rebinds_every_caller_and_restores():
    import kirchhoff_lab
    from kirchhoff_lab import _kernels, cli, constants, mesh, solvers, verify

    originals = {key: getattr(sys.modules[f"kirchhoff_lab.{key[0]}"], key[1])
                 for key in TARGETS}
    tr = Tracer()
    with tr:
        assert tr.leftovers() == []
        # names bound at import in the calling modules
        assert verify.rk4_radial is not originals[("_kernels", "rk4_radial")]
        assert verify.rk4_radial.__wrapped__ is originals[("_kernels", "rk4_radial")]
        assert cli.mountain_pass_search is solvers.mountain_pass_search
        assert verify.poisson_solve is mesh.poisson_solve
        assert kirchhoff_lab.newton_nonlocal is solvers.newton_nonlocal
        assert constants.poisson_solve is mesh.poisson_solve
        assert _kernels.thomas_solve.__wrapped__ is originals[("_kernels", "thomas_solve")]
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[f"kirchhoff_lab.{mod}"], attr) is fn
    assert len(tr.leftovers()) >= len(TARGETS)


def test_traced_oracle_counts_shots():
    from kirchhoff_lab.mesh import build_mesh
    from kirchhoff_lab.verify import homogeneous_shooting

    tr = Tracer()
    mesh = build_mesh("ball", 1.0, 17)
    with tr:
        from kirchhoff_lab import verify
        verify.homogeneous_shooting(mesh, 4.0, 1.0, 1.0)
    m = tr.layer_metrics(EXPERIMENTS)
    shots = m["kernels.rk4.calls"][0]
    assert shots > 0 and m["verify.homogeneous_shooting.calls"][0] == 1
    assert m["verify.shots_per_oracle"][0] == shots
    assert m["kernels.rk4.steps"][0] == shots * 8 * 16
    # an untraced call afterwards adds nothing
    homogeneous_shooting(mesh, 4.0, 1.0, 1.0)
    assert tr.calls("kernels.rk4") == shots


def test_workload_names_agree():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(WORKLOADS)


def test_per_layer_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: u for k, (_, u) in Tracer().layer_metrics(EXPERIMENTS).items()}
    emitted["cli.trace_overhead_s"] = "s"
    assert declared == emitted


def test_comparator_rules():
    head = ["lambda", "solver", "converged", "residual", "seminorm"]
    ref = [head, ["0.5", "newton", "true", "1e-10", "2.0"],
           ["0.5", "mountain-pass", "false", "1e9", "455.1"]]
    got = [head, ["0.5", "newton", "true", "4e-9", "2.0000001"],
           ["0.5", "mountain-pass", "true", "1e-9", "3.0"]]
    assert compare_tables("b.csv", ref, got, 1e-8) == []
    bad = [head, ["0.5", "picard", "true", "1e-10", "2.1"], ref[2]]
    msgs = compare_tables("b.csv", ref, bad, 1e-8)
    assert len(msgs) == 2 and "solver" in msgs[0] and "seminorm" in msgs[1]
    assert compare_tables("b.csv", ref, ref[:2], 1e-8) != []
    assert close("inf", "inf", 1e-8) and not close("inf", "1.0", 1e-8)
