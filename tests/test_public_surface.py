"""The library exports only what a run reaches.

Every top-level undecorated function or class of ``bureslab``, and every
name in a module's ``__all__``, must be reached from ``perfbench/*.py``
or from the package's module-level code, which holds the command-line
entry point.  A reference is a name or an attribute the code loads;
docstrings, the ``__all__`` lists and assignment targets do not count,
and neither does a name read in a top-level definition that binds it
there (as a parameter or an assignment target anywhere inside): that
name is a local.
The benchmark's tracer patches functions by name, so the string
constants of ``perfbench/tracing.py``, which holds those names, count as
references too; the other benchmark files' strings are data (chain keys,
labels) and do not.  A reference inside a top-level definition counts
once that definition is itself reached, and the reached set grows to a
fixed point.  References from ``accept`` reach only the names ``accept``
defines: code that only the acceptance suite calls, to check that same
code, is not library code.  Closed forms that only tests use live in
``tests/oracles``.

Likewise every defaulted parameter of a public function or method must
be passed, by keyword or by position, at some call in ``src/bureslab``
or ``perfbench/*.py``; an option that no caller sets is a constant.

And every module of the package but ``__init__`` must be imported by
another package module or named in ``perfbench/*.py``, its string
constants included; a module nothing imports is code no run executes.

And ``pipeline`` keeps its own relative-entropy certificate: it imports
nothing from ``divergences``, at module level or inside a function.

And there is one trial path: no top-level definition in ``cli`` or
``accept`` names ``quantum_mi_test``, ``classical_mi_test``,
``staged_learn`` or an estimator's ``.run``, and neither module imports
``mitest``, so trials of the learner, the estimators and both testers
reach them only through ``harness.run_targets`` (``run_scenario`` is its
one-target case).  In the harness those names sit only in the targets'
trials, which ``_run_trial`` alone calls, and ``run_targets`` alone
calls it.

And two definitions run the staged learner: ``harness._staged_trial``,
the staged targets' trial, and ``mitest.learn_product_quantum``, which
learns both marginals of the quantum tester.  No per-marginal learner
or other caller of ``staged_learn`` grows beside them.

And every record is built once: each dataclass the package defines is
frozen.  No mutable copy counter sits beside them; a staged run's plan
and stage records state its copies.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import bureslab
from bureslab import harness

PACKAGE = Path(bureslab.__file__).parent
BENCHMARK = PACKAGE.parents[1] / "perfbench"

#: kept without a caller, each for the change that wires it in
ALLOWED = {
    # per-trial traces are to log the predicted error terms
    ("pipeline", "chi2_error_terms"),
    # the divergence chain is to gain D_2 = renyi_divergence_q(rho,
    # sigma, 2) between KL and the Petz chi-square; renyi_divergence is
    # its classical core
    ("divergences", "renyi_divergence"),
    ("divergences", "renyi_divergence_q"),
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


def _bound(top) -> set:
    """Names a top-level statement binds inside: the parameters of every
    function or lambda in it and every assignment target."""
    names = set()
    for node in ast.walk(top):
        if isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


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
        local = _bound(top)
        for node in ast.walk(top):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            if isinstance(node, ast.Name):
                if node.id not in local:
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


def _parse(directory) -> dict:
    return {path.stem: ast.parse(path.read_text(), str(path))
            for path in sorted(directory.glob("*.py"))}


def unreferenced() -> list:
    """(module, export) pairs that no run reaches."""
    modules = _parse(PACKAGE)
    refs = {stem: _references(tree, strings=False)
            for stem, tree in modules.items()}
    reached = set()
    for stem, tree in _parse(BENCHMARK).items():
        reached |= {name for _, name in _references(
            tree, strings=stem == "tracing")}
    while True:
        grown = reached | {ref for stem, module_refs in refs.items()
                           if stem != "accept"
                           for owner, ref in module_refs
                           if owner is None or owner in reached}
        if grown == reached:
            break
        reached = grown
    missing = []
    for stem, tree in modules.items():
        for name in sorted(_exports(tree)):
            used = name in reached or stem == "accept" and any(
                ref == name and owner != name for owner, ref in refs[stem])
            if not used:
                missing.append((stem, name))
    return missing


def _imports(tree) -> set:
    """Stems of the package modules a module imports, in any form."""
    stems = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            stems.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("bureslab."))
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("bureslab")):
            parts = (node.module or "").split(".")
            if parts[-1] in ("", "bureslab"):  # from . / bureslab import x
                stems.update(alias.name for alias in node.names)
            else:                              # from .x / bureslab.x import y
                stems.add(parts[-1])
    return stems


def unimported() -> list:
    modules = _parse(PACKAGE)
    imported = set()
    for stem, tree in modules.items():
        imported |= _imports(tree) - {stem}
    for tree in _parse(BENCHMARK).values():
        imported |= {name for _, name in _references(tree, strings=True)}
    return sorted(set(modules) - imported - {"__init__"})


#: defaulted parameters no caller sets, each kept for its reason
ALLOWED_OPTIONS = {
    # tests drive the command line through it
    ("cli", "main", "argv"),
    # the Monte Carlo null is the tests' reference; the benchmark reads
    # the default
    ("mitest", "pearson_identity_test", "sims"),
    # goes with its function, which is allowed above
    ("pipeline", "chi2_error_terms", "eta"),
}


def _options(tree):
    """(function name, parameter, positional index or None) per default.

    Methods count their positions after ``self`` or ``cls``.
    """
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defs = [(node, False) for node in tree.body
            if isinstance(node, functions)]
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_"):
            defs += [(node, True) for node in cls.body
                     if isinstance(node, functions)]
    for node, method in defs:
        if node.name.startswith("_"):
            continue
        args = node.args
        positional = (args.posonlyargs + args.args)[int(method):]
        for k, arg in enumerate(positional):
            if k >= len(positional) - len(args.defaults):
                yield node.name, arg.arg, k
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _passed(trees) -> set:
    """(called name, parameter name or positional index) at every call;
    a starred argument passes every position, ``**`` every keyword."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in node.args):
                passed.add((name, "*"))
            passed.update((name, k) for k in range(len(node.args)))
            passed.update((name, kw.arg or "**") for kw in node.keywords)
    return passed


def unset_options() -> list:
    modules = _parse(PACKAGE)
    passed = _passed([*modules.values(), *_parse(BENCHMARK).values()])
    return [(stem, name, param)
            for stem, tree in modules.items()
            for name, param, k in _options(tree)
            if not passed & {(name, param), (name, "**"), (name, "*"),
                             (name, k)}]


def imported_by(stem: str) -> set:
    """Stems of the package modules a module imports anywhere in its
    body, function bodies included."""
    return _imports(_parse(PACKAGE)[stem])


def trial_bodies(stem: str) -> list:
    """(top-level definition, name) of each reference in a module to a
    trial body the harness runs: the learner, either tester, or an
    attribute ``run``, as on an estimator spec."""
    found = []
    for top in _parse(PACKAGE)[stem].body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name) and node.id != "run":
                name = node.id  # a bare "run" is a local, not a spec's
            else:
                continue
            if name in ("quantum_mi_test", "classical_mi_test",
                        "staged_learn", "run"):
                found.append((getattr(top, "name", None), name))
    return found


def staged_learners() -> set:
    """(module, top-level definition) of each reference in the package
    to ``staged_learn``, None for module level."""
    return {(stem, owner) for stem, tree in _parse(PACKAGE).items()
            for owner, name in _references(tree, strings=False)
            if name == "staged_learn"}


def test_every_export_has_a_caller():
    assert len(list(PACKAGE.glob("*.py"))) > 10 and BENCHMARK.is_dir()
    missing = set(unreferenced())
    assert sorted(missing - ALLOWED) == []
    # an allowed name that gains a caller leaves the allowlist
    assert sorted(ALLOWED - missing) == []


def test_every_option_has_a_setter():
    unset = set(unset_options())
    assert sorted(unset - ALLOWED_OPTIONS) == []
    # an allowed option that gains a setter leaves the allowlist
    assert sorted(ALLOWED_OPTIONS - unset) == []


def test_every_module_is_imported():
    assert unimported() == []


def test_the_pipeline_imports_no_divergences():
    assert "linalg" in imported_by("pipeline")
    assert "divergences" not in imported_by("pipeline")


def test_cli_and_accept_run_trials_through_the_harness():
    assert trial_bodies("cli") == [] and trial_bodies("accept") == []
    assert "mitest" not in imported_by("cli") | imported_by("accept")
    # the guard sees the harness's calls, both testers' included, and
    # each sits in a target's trial
    found = trial_bodies("harness")
    assert {name for _, name in found} >= {
        "quantum_mi_test", "classical_mi_test", "staged_learn"}
    assert {owner for owner, _ in found} == {
        target.trial.__name__ for target in harness.TARGETS.values()}
    # the trials run in _run_trial alone, and it in run_targets alone;
    # the top-level definitions that name each, None for module level
    refs = _references(_parse(PACKAGE)["harness"], strings=False)

    def referrers(name):
        return {owner for owner, ref in refs if ref == name}

    for target in harness.TARGETS.values():
        assert referrers(target.trial.__name__) == {None}
    assert referrers("_run_trial") == {"run_targets"}
    assert referrers("run_targets") == {"run_scenario"}


def test_two_definitions_run_the_staged_learner():
    assert staged_learners() == {("harness", "_staged_trial"),
                                 ("mitest", "learn_product_quantum")}


def mutable_dataclasses() -> list:
    """(module, class) of each dataclass the package defines that is not
    frozen."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        module = importlib.import_module(f"bureslab.{path.stem}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)
                    and not obj.__dataclass_params__.frozen):
                found.append((path.stem, name))
    return found


def test_every_record_but_the_copy_ledger_is_frozen():
    assert mutable_dataclasses() == []
