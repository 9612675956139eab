"""Every top-level function and class in the package has a caller in it."""

import ast
import pathlib

import kirchhoff_lab

PACKAGE = pathlib.Path(kirchhoff_lab.__file__).resolve().parent

# Reached only from outside the package, on purpose:
# * supnorm_decay_scan and homogeneous_shooting are bound by name by the
#   benchmark tracer (perfbench/tracer.py); without them ``--trace 1`` fails;
# * shooting_solve is the oracle entry that the shooting tests check
#   against exact solutions.
TEST_ONLY = {"supnorm_decay_scan", "homogeneous_shooting", "shooting_solve"}


def _used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


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
