"""One test per acceptance criterion.

The suite runs once per pytest process (the pipeline ensemble inside it
is shared between criteria anyway) and each test prints the criterion's
pass/fail line before asserting it.  Key tolerances are re-asserted
from the measured values so a bookkeeping bug in the suite's own
``passed`` flag cannot slip through.
"""

import json

import numpy as np
import pytest

from bureslab import accept


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


def test_indexed_tail_matches_sorted_route():
    # on an ascending q the index-based tail equals the sorted-route tail
    from oracles import analysis
    rng = np.random.default_rng(7)
    q = np.sort(rng.dirichlet(np.ones(6)))
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho_t = 0.5 * (h + h.conj().T) * 0.01 + np.diag(q)
    for ell in (0, 2, 6):
        assert accept._indexed_tail(rho_t, q, ell) == pytest.approx(
            analysis.bures_chi2_tail(rho_t, q, ell), rel=1e-12)
