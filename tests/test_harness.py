"""Scenario plumbing: validation, determinism, fits, emission."""

import csv
import hashlib
import io

import numpy as np
import pytest

from bureslab import divergences as dv
from bureslab import frobenius as fb
from bureslab import harness as hz
from bureslab import linalg
from bureslab import pipeline as pl


def small(target="frobenius", **kw):
    base = dict(sid="t", target=target, d=3, r=3, family="rank_r_random",
                estimator="oracle:f=d", n_grid=(200, 400), eps_grid=(0.25,),
                trials=3, master_seed=99)
    base.update(kw)
    return hz.Scenario(**base)


class TestScenarioConfig:
    def test_roundtrip_from_dict(self):
        s = hz.scenario_from_dict({
            "id": "demo", "target": "chi2", "d": 4, "r": 2,
            "family": "geometric_spectrum", "eps_grid": [0.2, 0.1],
            "trials": 2})
        assert s.sid == "demo"
        assert s.eps_grid == (0.2, 0.1)

    def test_unknown_field_is_named(self):
        with pytest.raises(hz.ScenarioError, match="banana"):
            hz.scenario_from_dict({"id": "x", "target": "chi2", "d": 4,
                                   "banana": 1})

    def test_delta_is_not_a_field(self):
        # staged runs take their failure parameter from the planner, and
        # there is one staged learner
        for key, value in (("delta", 0.05), ("variant", 2)):
            with pytest.raises(hz.ScenarioError,
                               match=f"unknown field '{key}'"):
                hz.scenario_from_dict({"id": "x", "target": "chi2", "d": 4,
                                       key: value})

    def test_required_fields(self):
        with pytest.raises(hz.ScenarioError, match="'id'"):
            hz.scenario_from_dict({"target": "chi2", "d": 4})
        with pytest.raises(hz.ScenarioError, match="'d'"):
            hz.scenario_from_dict({"id": "x", "target": "chi2"})

    def test_mi_family_pairing(self):
        with pytest.raises(hz.ScenarioError, match="family"):
            hz.validate_scenario(small(target="mi"))
        with pytest.raises(hz.ScenarioError, match="family"):
            hz.validate_scenario(small(family="bipartite:product"))

    def test_bounds(self):
        with pytest.raises(hz.ScenarioError, match="master_seed"):
            hz.validate_scenario(small(master_seed=2 ** 64))
        with pytest.raises(hz.ScenarioError, match="eps_grid"):
            hz.validate_scenario(small(eps_grid=(1.5,)))
        with pytest.raises(hz.ScenarioError, match="estimator"):
            hz.validate_scenario(small(estimator="oracle:f=bogus"))
        with pytest.raises(hz.ScenarioError, match="'r'"):
            hz.validate_scenario(small(r=9))

    def test_family_states(self):
        rng = np.random.default_rng(0)
        for family in hz.FAMILIES:
            target = "mi" if family.startswith("bipartite:") else "chi2"
            s = small(target=target, family=family, d=3)
            rho = hz.make_state(s, rng)
            dim = 9 if family.startswith("bipartite:") else 3
            assert rho.shape == (dim, dim)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


class TestRunScenario:
    def test_zero_trials_empty(self):
        # a run of no trials would pass every guarantee vacuously
        with pytest.raises(hz.ScenarioError, match="'trials'"):
            hz.run_scenario(small(trials=0))

    def test_same_seed_identical_bytes(self):
        a = hz.csv_rows(hz.run_scenario(small()))
        b = hz.csv_rows(hz.run_scenario(small()))
        assert a == b

    def test_different_seed_differs(self):
        a = hz.run_scenario(small())
        b = hz.run_scenario(small(master_seed=100))
        assert any(x.losses != y.losses for x, y in zip(a, b))

    def test_workers_match_serial(self):
        s = small()
        serial = hz.run_scenario(s, workers=1)
        parallel = hz.run_scenario(s, workers=2)
        assert hz.csv_rows(serial) == hz.csv_rows(parallel)

    def test_frobenius_budget_crosscheck(self):
        for rec in hz.run_scenario(small()):
            assert rec.n_used == int(rec.point)
            assert set(rec.losses) == {"frob_sq"}
            assert "within_rate" in rec.flags

    def test_chi2_records(self):
        s = small(target="chi2", d=3, r=1, family="pure", eps_grid=(0.25,),
                  n_grid=(1,), trials=3)
        recs = hz.run_scenario(s)
        assert len(recs) == 3
        for rec in recs:
            assert rec.losses["bures_chi2"] >= 0.0
            assert rec.n_used > 0
            assert rec.flags["converged"]

    def test_kl_records_respect_bound(self):
        s = small(target="kl", d=3, r=3, family="geometric_spectrum",
                  eps_grid=(0.25,), trials=2)
        for rec in hz.run_scenario(s):
            assert rec.flags["kl_within_bound"]
            assert rec.losses["kl"] <= rec.losses["kl_bound"]

    def test_mi_records_both_arms(self):
        s = small(target="mi", d=3, family="bipartite:product",
                  eps_grid=(0.5,), trials=2)
        for rec in hz.run_scenario(s):
            assert rec.flags["accept"] and rec.flags["correct"]
        s = small(target="mi", d=3, family="bipartite:correlated", lam=0.6,
                  eps_grid=(0.5,), trials=2)
        for rec in hz.run_scenario(s):
            assert not rec.flags["accept"] and rec.flags["correct"]


class TestBudgetDrain:
    """A trial that leaves planned copies unspent raises, also under -O."""

    def test_estimator_leaving_copies(self, monkeypatch):
        def lazy(rho, budget, rng):
            budget.take(budget.total - 1)
            return rho
        spec = fb.EstimatorSpec(name="lazy", rate=lambda d, r: 1.0,
                                run=lazy)
        monkeypatch.setattr(hz.fb, "parse_estimator", lambda name, r: spec)
        with pytest.raises(RuntimeError, match="consumed 199 of 200 planned"):
            hz.run_scenario(small(n_grid=(200,), trials=1), workers=1)

    def test_staged_run_leaving_copies(self, monkeypatch):
        s = small(target="chi2", d=3, r=1, family="pure", trials=1)
        spec = fb.parse_estimator(s.estimator, s.r)
        total = pl.plan_budget(s.d, s.r, spec.rate(s.d, s.r),
                               s.eps_grid[0]).total
        real = pl.staged_learn

        def short(*args, **kwargs):
            out = real(*args, **kwargs)
            out.consumed -= 1
            return out
        monkeypatch.setattr(hz.pl, "staged_learn", short)
        with pytest.raises(RuntimeError,
                           match=f"consumed {total - 1} of {total} planned"):
            hz.run_scenario(s, workers=1)


class TestLossKernels:
    """Each trial decomposes each state once when it scores its losses."""

    def _scored(self, monkeypatch, target, last_step):
        """Run one trial; count eigh calls after ``last_step`` returns."""
        seen, calls = {}, []
        make, step, eigh = hz.make_state, getattr(hz.pl, last_step), \
            np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        def made(s, rng):
            seen["rho"] = make(s, rng)
            return seen["rho"]

        def stepped(*args, **kwargs):
            seen["est"] = step(*args, **kwargs)
            monkeypatch.setattr(np.linalg, "eigh", counted)
            return seen["est"]

        monkeypatch.setattr(hz, "make_state", made)
        monkeypatch.setattr(hz.pl, last_step, stepped)
        s = small(target=target, d=4, r=2, family="rank_r_random",
                  trials=1)
        rec = hz._run_trial(s, 0, 0)
        monkeypatch.undo()
        return rec, seen["rho"], seen["est"], len(calls)

    def test_chi2_branch(self, monkeypatch):
        rec, rho, est, calls = self._scored(monkeypatch, "chi2", "to_chi2")
        assert calls == 2
        assert rec.losses["bures_chi2"] == dv.bures_chi2(rho, est)
        assert rec.losses["hellinger_sq"] == dv.hellinger_sq_q(rho, est)

    def test_kl_branch(self, monkeypatch):
        rec, rho, est, calls = self._scored(monkeypatch, "kl",
                                            "to_infidelity")
        assert calls == 3
        s = small(target="kl", d=4, r=2)
        spec = fb.parse_estimator(s.estimator, s.r)
        eps = pl.plan_budget(s.d, s.r, spec.rate(s.d, s.r),
                             s.eps_grid[0]).eps
        smoothed, bound = pl.to_kl(est, eps)
        assert rec.losses["kl_bound"] == bound
        assert rec.losses["infidelity"] == dv.infidelity(rho, est)
        assert rec.losses["kl"] == dv.relative_entropy(rho, smoothed)


class TestFit:
    def _records(self, pairs, key="frob_sq"):
        return [hz.TrialRecord(scenario="s", trial=i, point=float(n),
                               n_used=int(n), losses={key: y}, flags={},
                               wall_time=0.0)
                for i, (n, y) in enumerate(pairs)]

    def test_exact_inverse_law(self):
        recs = self._records([(n, 5.0 / n) for n in (10, 100, 1000, 10000)])
        slope, intercept, r2 = hz.fit_scaling(recs, y="frob_sq")
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(5.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        recs = self._records([(n, 2.0) for n in (10, 100, 1000)])
        slope, _, r2 = hz.fit_scaling(recs, y="frob_sq")
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_needs_two_points(self):
        recs = self._records([(10, 1.0), (10, 2.0)])
        with pytest.raises(ValueError):
            hz.fit_scaling(recs, y="frob_sq")


class TestEmission:
    def test_csv_excludes_wall_time(self):
        recs = hz.run_scenario(small(trials=2))
        rows = hz.csv_rows(recs)
        assert rows[0][:4] == ("scenario", "trial", "point", "n_used")
        assert not any("wall" in col for col in rows[0])
        assert len(rows) == 1 + len(recs)

    def test_files(self, tmp_path):
        recs = hz.run_scenario(small(trials=2))
        out = tmp_path / "r.csv"
        hz.write_csv(recs, str(out))
        assert out.read_text().startswith("scenario,trial,point,n_used")
        summ = tmp_path / "s.csv"
        hz.write_summary_csv(recs, "frob_sq", str(summ))
        assert summ.read_text().count("\n") == 3  # header + two points
        stub = tmp_path / "plot.py"
        hz.write_plot_stub(str(stub))
        assert "matplotlib" in stub.read_text()

    def test_summary_and_guarantees(self):
        s = small(trials=4)
        recs = hz.run_scenario(s)
        rows = hz.summarize(recs, "frob_sq")
        assert [row["point"] for row in rows] == [200.0, 400.0]
        assert all(row["trials"] == 4 for row in rows)
        verdicts = hz.evaluate_guarantees(s, recs)
        assert len(verdicts) == 2
        for name, passed, measured, threshold in verdicts:
            assert passed
            assert measured <= threshold + 2 * rows[0]["ci95"]


#: sha256 of the CSV bytes of one small fixed-seed scenario per target;
#: a change to any trial's random stream or loss arithmetic moves one
GOLDEN = [
    (dict(sid="g-frob", target="frobenius", d=3, r=2, n_grid=(200, 2000),
          trials=3, master_seed=11),
     "b7189299434432683683589d742743bb67c644d1442252c61ab6d9ce03994f49"),
    (dict(sid="g-infid", target="infidelity", d=3, r=2,
          family="geometric_spectrum", trials=2, master_seed=12),
     "3861355346e75abfefe4444b1923b3890d70408524d4c2e530d68ed293634252"),
    (dict(sid="g-chi2", target="chi2", d=4, r=2, trials=2, master_seed=13),
     "ff8e54da95c1dd1a07d635adf9faf0333452f2538a64bbd8fc89f4cf9d8b762d"),
    (dict(sid="g-kl", target="kl", d=3, r=3, family="geometric_spectrum",
          trials=2, master_seed=14),
     "32f7ce21bc7049ed86e2de5a8a12cae285319b60128ec8b76362906eb2e5b301"),
    (dict(sid="g-mi-prod", target="mi", d=2, family="bipartite:product",
          eps_grid=(0.5,), trials=2, master_seed=15),
     "826ab89d581d5eeaa700a99841e3b91e4d24abdc57e78fdfab7ff11c4c3e25dc"),
    (dict(sid="g-mi-corr", target="mi", d=2, family="bipartite:correlated",
          lam=0.6, eps_grid=(0.5,), trials=2, master_seed=16),
     "1e2ae19e361febca066711158fe494a81be19f7d3773b328f2b3224e6e60f76b"),
    (dict(sid="g-chi2-simple", target="chi2", d=4, r=2, estimator="simple",
          trials=2, master_seed=17),
     "402f3123053b1d66839533a479d3b46466d6d0844b9af62bb126836590ab8ccb"),
]


@pytest.mark.parametrize("fields, digest", GOLDEN,
                         ids=[f["sid"] for f, _ in GOLDEN])
def test_golden_csv_digest(fields, digest):
    base = dict(family="rank_r_random", estimator="oracle:f=d",
                eps_grid=(0.25,))
    s = hz.Scenario(**{**base, **fields})
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(hz.csv_rows(hz.run_scenario(s, workers=1)))
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest
