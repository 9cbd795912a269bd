"""One capacity rule: every capacity error comes from `lattice.check_bytes`.

Each route counts the bytes of its own arrays and hands them to
`check_bytes`; a second rule, such as a cap on n, would raise
`CapacityError` somewhere else.
"""

import ast
from pathlib import Path

import occupancy

SRC = Path(occupancy.__file__).parent


def _raises_of_capacity_error(tree: ast.AST):
    """(enclosing function name, line) of every raise naming CapacityError."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Raise) and node.exc is not None and any(
                isinstance(sub, ast.Name) and sub.id == "CapacityError"
                or isinstance(sub, ast.Attribute) and sub.attr == "CapacityError"
                for sub in ast.walk(node.exc)):
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_capacity_error_is_raised_only_in_check_bytes():
    raises = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, line in _raises_of_capacity_error(tree):
            raises[f"{path.name}:{line}"] = function
    assert list(raises.values()) == ["check_bytes"]
    assert next(iter(raises)).startswith("lattice.py:")
