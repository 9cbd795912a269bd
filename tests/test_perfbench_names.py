"""The benchmark under perfbench/ reaches into the package by name.

Its tracer wraps the functions listed in `tracer.FUNCTIONS` and its input
writer calls package functions directly; a rename in the package would
break the benchmark without failing any other test.  These tests read the
benchmark's sources as text and never import or write anything there.
"""

import ast
import importlib
from pathlib import Path

import occupancy

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _module_constant(path: Path, name: str):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {path.name}")


def test_traced_functions_resolve():
    functions = _module_constant(PERFBENCH / "tracer.py", "FUNCTIONS")
    assert functions
    for entry in functions:
        module, *owner, attr = entry.split(".")
        target = importlib.import_module(f"occupancy.{module}")
        if owner:
            target = getattr(target, owner[0])
        # the tracer rebinds the name where it is defined
        assert callable(vars(target).get(attr)), entry
    spans = {f"{e.split('.')[0]}.{e.split('.')[-1]}" for e in functions}
    assert set(_module_constant(PERFBENCH / "tracer.py", "BYTE_SPANS")) <= spans


def test_input_writer_names_resolve():
    tree = ast.parse((PERFBENCH / "inputs.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "occupancy"
                for alias in node.names}
    assert imported
    for name in imported:
        assert hasattr(occupancy, name), name
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in imported}
    assert ("exact", "marginal_trajectory") in used
    for module, attr in used:
        assert callable(getattr(getattr(occupancy, module), attr)), f"{module}.{attr}"
