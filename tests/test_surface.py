"""Every top-level function and class in the package has a caller in it,
and every name the benchmark tracer binds exists."""

import ast
import pathlib

import kirchhoff_lab

PACKAGE = pathlib.Path(kirchhoff_lab.__file__).resolve().parent
TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# Reached only from outside the package, on purpose:
# * supnorm_decay_scan is bound by name by the benchmark tracer
#   (perfbench/tracer.py); without it ``--trace 1`` fails;
# * shooting_solve is the oracle entry that the shooting tests check
#   against exact solutions.
TRACED_ONLY = {"supnorm_decay_scan"}
TEST_ONLY = TRACED_ONLY | {"shooting_solve"}


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _top_level_names(tree):
    """Names a module defines, assigns or imports at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def _tracer_targets():
    # read, not imported: the tracer rebinds names inside the package
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGETS"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py has no TARGETS")


def test_every_definition_has_a_caller_in_the_package():
    defined, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined[node.name] = path.name
        if path.name != "__init__.py":
            used.update(_used_names(tree))
    unused = sorted(f"{defined[name]}:{name}" for name in defined.keys() - used - TEST_ONLY)
    assert not unused, f"reached from no other code in the package: {unused}"
    stale = sorted(TEST_ONLY - (defined.keys() - used))
    assert not stale, f"TEST_ONLY names a definition that is gone or has a caller: {stale}"


def test_every_tracer_target_is_bound_in_its_module():
    targets = _tracer_targets()
    missing = []
    for module, attr in sorted(targets):
        path = PACKAGE / f"{module}.py"
        tree = ast.parse(path.read_text(), filename=str(path))
        if attr not in set(_top_level_names(tree)):
            missing.append(f"{module}.{attr}")
    assert not missing, f"perfbench/tracer.py binds names that are gone: {missing}"
    untraced = sorted(TRACED_ONLY - {attr for _, attr in targets})
    assert not untraced, f"TRACED_ONLY names a function the tracer no longer binds: {untraced}"
