"""The library exports only what the library or the benchmark calls.

Every top-level undecorated function or class of ``bureslab``, and every
name in a module's ``__all__``, must be referenced by code in
``src/bureslab`` outside its own definition, or by ``perfbench/*.py``.
A reference is a name or an attribute in the code; docstrings and the
``__all__`` lists do not count.  The benchmark patches functions by
name, so its string constants count as references too.  Closed forms
that only tests use live in ``tests/oracles``.
"""

import ast
from pathlib import Path

import bureslab

PACKAGE = Path(bureslab.__file__).parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"

#: kept without a caller, each for the change that wires it in
ALLOWED = {
    # public entry points are to reject non-states with it
    ("linalg", "require_density"),
    # per-trial traces are to log the predicted error terms
    ("pipeline", "chi2_error_terms"),
}


def _docstring_nodes(tree) -> set:
    nodes = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant):
                nodes.add(id(first.value))
    return nodes


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references(tree, strings: bool) -> set:
    """(top-level definition the reference sits in, or None; name)."""
    skip = _docstring_nodes(tree)
    refs = set()
    for top in tree.body:
        if _is_all(top):
            continue
        owner = top.name if isinstance(
            top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
            else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                refs.add((owner, node.id))
            elif isinstance(node, ast.Attribute):
                refs.add((owner, node.attr))
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in skip):
                refs.update((owner, part) for part in node.value.split("."))
    return refs


def _exports(tree) -> set:
    names = {node.name for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
             and not node.decorator_list}
    for node in tree.body:
        if _is_all(node):
            names.update(elt.value for elt in node.value.elts)
    return names


def unreferenced() -> list:
    modules = {path.stem: ast.parse(path.read_text(), str(path))
               for path in sorted(PACKAGE.glob("*.py"))}
    refs = {stem: _references(tree, strings=False)
            for stem, tree in modules.items()}
    outside = set()
    for path in sorted(BENCHMARK.glob("*.py")):
        outside |= {name for _, name in _references(
            ast.parse(path.read_text(), str(path)), strings=True)}
    missing = []
    for stem, tree in modules.items():
        for name in sorted(_exports(tree)):
            used = name in outside or any(
                ref == name and not (other == stem and owner == name)
                for other, module_refs in refs.items()
                for owner, ref in module_refs)
            if not used:
                missing.append((stem, name))
    return missing


def test_every_export_has_a_caller():
    assert len(list(PACKAGE.glob("*.py"))) > 10 and BENCHMARK.is_dir()
    missing = set(unreferenced())
    assert sorted(missing - ALLOWED) == []
    # an allowed name that gains a caller leaves the allowlist
    assert sorted(ALLOWED - missing) == []
