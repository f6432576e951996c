"""Smoke tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SEED = 3

#: functions each workload never reaches, by the interaction table
BYPASSED = {
    "tomo-measured": ("frobenius.oracle_estimate",
                      "mitest.pearson_identity_test",
                      "divergences.quantum_chain"),
    "tomo-oracle": ("measurement.matching_povms",
                    "frobenius.simple_frobenius",
                    "mitest.pearson_identity_test",
                    "divergences.classical_chain"),
    "divergence-chain": ("harness.run_scenario", "pipeline.plan_budget",
                         "measurement.sample_povm",
                         "measurement.Povm.from_basis",
                         "mitest.classical_mi_test"),
    "mi-testers": ("measurement.matching_povms", "pipeline.plan_budget",
                   "divergences.quantum_chain"),
}


def _cycle(name):
    return len(workloads.make(name, SEED, run.load_library()).cycle)


@pytest.fixture(scope="module", params=workloads.NAMES)
def traced(request):
    return request.param, run.run_traced(request.param, SEED, 0.0,
                                         write_spans=False)


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_end_to_end_metrics_and_units(name):
    out = run.run_untraced(name, SEED, 0.0, min_ops=_cycle(name),
                           setup_repeats=1)
    assert out["failures"] == []
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_per_layer_metrics_and_units(traced):
    name, out = traced
    assert out["mismatched"] == [] and out["failures"] == []
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def test_bypassed_functions_read_zero_calls(traced):
    name, out = traced
    for fn in BYPASSED[name]:
        assert out["metrics"][f"{fn}.calls"]["value"] == 0.0, fn
    assert out["metrics"]["harness.run_scenario.calls"]["value"] == (
        0.0 if name == "divergence-chain" else pytest.approx(
            1.0 if name.startswith("tomo") else 0.25))


def test_counts_repeat_exactly(traced):
    name, first = traced
    second = run.run_traced(name, SEED, 0.0, write_spans=False)
    for key, metric in first["metrics"].items():
        if not key.endswith(("_ms", ".ms")) and key != "trace.overhead_share":
            assert second["metrics"][key]["value"] == metric["value"], key


def test_tracer_restores_the_library():
    lib = run.load_library()

    def patched_points():
        return (lib.measurement.Povm.__dict__["from_basis"], np.linalg.eigh,
                lib.harness.run_scenario,
                lib.mitest.classical_mi_test.__defaults__)

    before = patched_points()
    run.run_traced("mi-testers", SEED, 0.0, write_spans=False)
    assert patched_points() == before


def test_csv_digest_is_stable_under_the_seed():
    lib = run.load_library()

    def digest(seed):
        wl = workloads.make("mi-testers", seed, lib)
        return run._summary(run.drive(wl, 0.0, len(wl.cycle)))[
            "csv_digest_first_cycle"]

    assert digest(SEED) == digest(SEED) != digest(SEED + 1)


def test_chain_check_rejects_a_wrong_value():
    wl = workloads.make("divergence-chain", SEED, run.load_library())
    op = wl.prepare(0)
    quantum, classical = op.call()
    assert wl.judge(op, (quantum, classical), None).failure == ""
    quantum["kl"] *= 1.0 + 1e-4
    assert "kl" in wl.judge(op, (quantum, classical), None).failure


def test_known_defects_show():
    lib = run.load_library()
    chain = workloads.make("divergence-chain", SEED, lib)
    outcomes = run.drive(chain, 0.0, 200)["outcomes"]
    assert not all(o.held for o in outcomes)
    assert all(o.failure == "" for o in outcomes)

    tomo = workloads.make("tomo-measured", SEED, lib)
    pure = [i for i in range(36) if tomo.kind(i).endswith("/pure")]
    refusals = []
    for i in pure:
        op = tomo.prepare(i)
        try:
            op.call()
        except lib.measurement.BudgetExhausted as exc:
            refusals.append(tomo.judge(op, None, exc).refusal)
    assert any("BudgetExhausted" in r for r in refusals)


def test_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "mi-testers",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
