"""The library surface that the benchmark in ``perfbench/`` relies on.

The benchmark's tracer patches the library from outside: it reads the
default of ``pearson_identity_test``'s ``sims`` argument (its sixth) to
count null draws, reads the copy count ``k`` by keyword or else by
position, and rebinds ``Povm.from_basis`` as a classmethod.  Its
positions are the third argument of ``sample_povm`` and the second of
``sample_basis``, where those functions take ``k``; for
``filter_subset`` it reads the third, ``rng``, so the library passes
that ``k`` by keyword.  A
traced run of each workload must count exactly and fail no op, and the
classical MI tester's calls through patched names keep their counts.
"""

import ast
import inspect
import sys
from pathlib import Path

import pytest

from bureslab import measurement as ms
from bureslab import mitest as mt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(ms.__file__).resolve().parent
WORKLOADS = ("tomo-measured", "tomo-oracle", "divergence-chain",
             "mi-testers")
#: per-op calls of patched names that the classical MI tester reaches
#: by module attribute; a path that bypassed them would count fewer
REACHED = {"mi-testers": {"mitest.pearson_identity_test.calls": 0.75,
                          "classical.add_one_hybrid.calls": 2.0}}


def test_patched_names_keep_their_shape():
    params = inspect.signature(mt.pearson_identity_test).parameters
    assert list(params).index("sims") == 5
    assert params["sims"].default == 0
    for fn, at in ((ms.sample_povm, 2), (ms.sample_basis, 1),
                   (ms.filter_subset, 1)):
        assert list(inspect.signature(fn).parameters).index("k") == at, fn
    assert isinstance(ms.Povm.__dict__["from_basis"], classmethod)


def test_filter_subset_gets_its_copy_count_by_keyword():
    """The tracer's positional read for ``filter_subset`` is its third
    argument, not ``k``; every library call passes ``k=`` instead."""
    calls = [node for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None))
             == "filter_subset"]
    assert calls
    for call in calls:
        assert len(call.args) <= 1
        assert any(kw.arg == "k" for kw in call.keywords)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_counts_exactly(name):
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    import run
    out = run.run_traced(name, 3, 0.0, write_spans=False)
    assert out["mismatched"] == [] and out["failures"] == []
    metrics = out["metrics"]
    assert metrics["mitest.pearson_null_draws"]["value"] == 0.0
    for key, calls in REACHED.get(name, {}).items():
        assert metrics[key]["value"] == calls, key
