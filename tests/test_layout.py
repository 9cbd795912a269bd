"""`src/` holds product code: every top-level name there has a user outside tests.

A function or class defined at the top of a module under `src/occupancy`
must be referenced by name from `src/` outside its own definition, be
exported in `occupancy.__all__`, or be named in the benchmark tracer's
`FUNCTIONS`.  Helpers that only tests or scripts run belong in `tests/` or
`scripts/`.  `zoo` is exempt: the benchmark, the tests and the docs read
its models.  Sources are read as text; nothing is imported from the bench.
No module keeps a process-wide `functools` cache.
"""

import ast
from collections import Counter
from pathlib import Path

import occupancy

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "occupancy"
EXEMPT = {"zoo"}


def _traced_names() -> set[tuple[str, str]]:
    """(module, top-level name) of every entry of the tracer's FUNCTIONS."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return {tuple(entry.split(".")[:2]) for entry in ast.literal_eval(node.value)}
    raise AssertionError("FUNCTIONS not found in tracer.py")


def _references(node: ast.AST) -> Counter:
    """How often each name is read, taken as an attribute or imported under `node`."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_every_top_level_name_in_src_has_a_product_user():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    traced = _traced_names()
    everywhere = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        if module in EXEMPT:
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name in occupancy.__all__ or (module, name) in traced:
                continue
            # a reference inside its own definition, as in recursion, is no user
            if everywhere[name] == _references(node)[name]:
                unused.append(f"{module}.{name}")
    assert unused == [], f"defined in src/ but used only outside it: {unused}"


def test_only_the_run_route_holds_an_ode_trajectory():
    # every other ODE route reads only the end state, `meanfield.flow`
    callers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, ast.FunctionDef):
                callers += [f"{path.stem}.{function.name}" for node in ast.walk(function)
                            if isinstance(node, ast.Call)
                            and "integrate_ode" in (getattr(node.func, "id", None),
                                                    getattr(node.func, "attr", None))]
    assert callers == ["cli._cmd_run"]


def test_no_process_wide_cache_in_src():
    # a functools cache keeps what it returns for the life of the process,
    # outside every route's byte count; per-object caches are allowed
    banned = {"lru_cache", "cache"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [f"{path.stem}: from functools import {alias.name}"
                          for alias in node.names if alias.name in banned]
            elif (isinstance(node, ast.Attribute) and node.attr in banned
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                found.append(f"{path.stem}: functools.{node.attr}")
    assert found == [], f"process-wide caches in src/: {found}"


def _owners(match, paths) -> list[str]:
    """module.function enclosing each node, under `paths`, for which match(node) holds.

    A node outside every function is owned by module.<module>.
    """
    found = []
    for path in paths:
        def visit(node, owner):
            if isinstance(node, ast.FunctionDef):
                owner = f"{path.stem}.{node.name}"
            if match(node):
                found.append(owner)
            for child in ast.iter_child_nodes(node):
                visit(child, owner)

        visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.<module>")
    return sorted(found)


def test_one_rule_gives_the_informative_verdict():
    # `OrderReport.__post_init__` gives it, to every report, and
    # `cli._report_exit` reads it
    owners = _owners(lambda node: isinstance(node, ast.Constant) and node.value == "informative",
                     PACKAGE.glob("*.py"))
    assert owners == ["cli._report_exit", "order.__post_init__"]


def test_one_rule_sizes_the_row_blocks():
    # only `lattice` reads BLOCK_ENTRIES: every route takes its row blocks
    # from `lattice.row_blocks`, and every plan counts them by `block_count`
    owners = _owners(lambda node: "BLOCK_ENTRIES" in (getattr(node, "id", None),
                                                      getattr(node, "attr", None)),
                     PACKAGE.glob("*.py"))
    assert sorted(set(owners)) == ["lattice.<module>", "lattice.block_rows"]


def test_one_csv_writer():
    # every CSV the CLI's routes and the scripts write is `cli._csv_text`'s
    owners = _owners(lambda node: isinstance(node, ast.Attribute) and node.attr == "writer"
                     and getattr(node.value, "id", None) == "csv",
                     [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")])
    assert owners == ["cli._csv_text"]
