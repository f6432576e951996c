"""One test per acceptance criterion.

The suite runs once per pytest process (criteria 7-9 share one staged
run per rank inside it anyway) and each test prints the criterion's pass/fail
line before asserting it.  Key tolerances are re-asserted
from the measured values so a bookkeeping bug in the suite's own
``passed`` flag cannot slip through.
"""

import json

import numpy as np
import pytest

from bureslab import accept, linalg
from bureslab import mitest as mt


@pytest.fixture(scope="module")
def suite():
    results = accept.acceptance_suite()
    return {res.number: res for res in results}


NUMBERS = sorted(number for number, _, _ in accept.CRITERIA)


@pytest.mark.parametrize("number", NUMBERS)
def test_criterion(number, suite):
    res = suite[number]
    print(res.line())
    assert res.passed, res.line()


def test_all_fourteen_present(suite):
    # numbers run to 14; 6 and 11 are retired, the rest keep theirs
    assert NUMBERS == [1, 2, 3, 4, 5, 7, 8, 9, 10, 12, 13, 14]
    assert set(suite) == set(NUMBERS)


def test_measured_tolerances(suite):
    m = {n: suite[n].measured for n in NUMBERS}
    assert m[1]["max_slack"] <= 1e-9
    # the closest link keeps head-room, reported unfloored
    assert m[1]["max_slack"] < 0.0
    assert m[1]["elapsed_s"] < 120.0
    assert m[2]["max_rel_err"] <= 1e-8
    assert m[3]["max_gap"] <= 0.0
    assert m[4]["mean_chi2"] <= m[4]["bound"] + 3.0 * m[4]["se"]
    assert abs(m[5]["slope"] + 1.0) <= 0.15 and m[5]["level_ok"]
    for r in (1, 2, 8):
        assert m[7][f"rate_r{r}_eps0.2"] >= 0.9
        assert m[7][f"rate_r{r}_eps0.1"] >= 0.9
        assert m[7][f"copies_ratio_r{r}"] <= 2.5
    assert m[8]["fail_rate"] <= 0.10
    assert m[9]["violations"] == 0 and m[9]["certified"] > 0
    assert m[10]["max_abs_err"] <= 1e-9
    assert m[12]["accept_rate"] >= 0.9 and m[12]["reject_rate"] >= 0.9
    assert m[12]["correlated_mi"] >= 0.5
    assert m[13]["accept_rate"] >= 0.9 and m[13]["reject_rate"] >= 0.9
    assert m[13]["product_chi2_rate"] >= 0.9
    assert m[14]["rerun_identical"] and m[14]["parallel_identical"]


def test_report_is_json_serializable(suite):
    report = [{"criterion": res.number, "name": res.name,
               "passed": res.passed, "measured": res.measured}
              for res in suite.values()]
    parsed = json.loads(json.dumps(report))
    assert len(parsed) == len(NUMBERS)


@pytest.mark.parametrize("d", [1, 2, 8])
def test_density_stack_is_the_loop_bit_for_bit(d):
    """Criterion 1's batched draw builds the states a loop of
    ``random_density(d, d)`` builds, bit for bit, and leaves the
    generator at the loop's next draw."""
    rng, ref_rng = np.random.default_rng([31, d]), \
        np.random.default_rng([31, d])
    stack = accept._density_stack(7, d, rng)
    loop = np.array([linalg.random_density(d, d, ref_rng)
                     for _ in range(7)])
    assert stack.shape == (7, d, d)
    assert np.array_equal(stack.view(float), loop.view(float))
    assert rng.standard_normal() == ref_rng.standard_normal()


def test_line_format():
    res = accept.CriterionResult(number=3, name="demo", passed=True,
                                 measured={"x": 1.25, "ok": True, "n": 7})
    assert res.line() == "PASS criterion  3 [demo] x=1.25, ok=yes, n=7"
    res = accept.CriterionResult(number=12, name="demo", passed=False)
    assert res.line().startswith("FAIL criterion 12")


def test_only_filter_and_unknown_number():
    results = accept.acceptance_suite(only=[3])
    assert [r.number for r in results] == [3]
    with pytest.raises(ValueError, match="unknown criterion"):
        accept.acceptance_suite(only=[3, 99])


def test_staged_criteria_learn_each_state_once(monkeypatch):
    """Criteria 7-9 read one harness run per rank, which learns each
    state once and scores it as chi2 and as kl: the three together make
    three runs, and criterion 9 measures the same alone as after 7 and
    8.  Every harness run, run_scenario's included, is a run_targets
    call."""
    runs = []
    real = accept.hz.run_targets

    def counted(s, targets, *args, **kwargs):
        runs.append((s.sid, tuple(targets)))
        return real(s, targets, *args, **kwargs)

    monkeypatch.setattr(accept.hz, "run_targets", counted)
    accept._staged.cache_clear()
    (alone,) = accept.acceptance_suite(only=[9])
    accept._staged.cache_clear()
    runs.clear()
    every = accept.acceptance_suite(only=[7, 8, 9])
    assert [r.number for r in every] == [7, 8, 9]
    assert every[2].measured == alone.measured
    assert len(runs) == 3 and len(set(runs)) == 3
    assert {targets for _, targets in runs} == {("chi2", "kl")}


@pytest.mark.parametrize("verdict", [True, False],
                         ids=["always-accept", "always-reject"])
def test_classical_tester_criterion_has_power(verdict, monkeypatch):
    """Criterion 12 fails on a classical tester that ignores its samples,
    whichever verdict it gives."""
    def fixed(joint, eps, rng):
        return mt.TesterVerdict(accept=verdict, stats={"n_total": 0})

    monkeypatch.setattr(mt, "classical_mi_test", fixed)
    (res,) = accept.acceptance_suite(only=[12])
    assert not res.passed
    missed = "reject_rate" if verdict else "accept_rate"
    assert res.measured[missed] == 0.0
