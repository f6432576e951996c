"""Scenario plumbing: validation, determinism, fits, emission."""

import csv
import dataclasses
import hashlib
import inspect
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from bureslab import config
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

    @pytest.mark.parametrize("key, value", [
        ("d", 4.9), ("trials", 2.5), ("r", True), ("n_grid", [1000.7, 2000]),
        ("master_seed", 7.5), ("d", float("inf"))])
    def test_integer_fields_refuse_fractions_and_booleans(self, key, value):
        with pytest.raises(hz.ScenarioError,
                           match=f"field '{key}': expected an integer"):
            hz.scenario_from_dict({"id": "x", "target": "frobenius",
                                   "d": 4, key: value})

    @pytest.mark.parametrize("key, value", [
        ("eps_grid", [True]), ("eps_grid", [0.2, False]), ("lam", True)])
    def test_float_fields_refuse_booleans(self, key, value):
        with pytest.raises(hz.ScenarioError,
                           match=f"field '{key}': expected a number"):
            hz.scenario_from_dict({"id": "x", "target": "chi2", "d": 4,
                                   key: value})

    @pytest.mark.parametrize("target, family, unread", [
        ("chi2", "pure", "n_grid"), ("mi", "bipartite:product", "n_grid"),
        ("frobenius", "pure", "eps_grid")])
    def test_unread_grid_is_refused(self, target, family, unread):
        """A grid the target does not read is refused, not ignored; the
        one it reads passes."""
        read = hz.TARGETS[target].grid
        data = {"id": "x", "target": target, "d": 4, "family": family}
        grids = {"n_grid": [1000], "eps_grid": [0.5]}
        hz.scenario_from_dict({**data, read: grids[read]})
        with pytest.raises(hz.ScenarioError, match=f"field '{unread}': "
                           f"target '{target}' reads {read}"):
            hz.scenario_from_dict({**data, unread: grids[unread]})

    def test_whole_floats_are_integers(self):
        s = hz.scenario_from_dict({"id": "x", "target": "frobenius",
                                   "d": 8.0, "n_grid": [1e5, 2000],
                                   "trials": 3.0})
        assert (s.d, s.n_grid, s.trials) == (8, (100_000, 2000), 3)
        assert type(s.d) is int and type(s.n_grid[0]) is int

    def test_mi_family_pairing(self):
        with pytest.raises(hz.ScenarioError, match="family"):
            hz.validate_scenario(small(target="mi"))
        with pytest.raises(hz.ScenarioError, match="family"):
            hz.validate_scenario(small(family="bipartite:product"))
        with pytest.raises(hz.ScenarioError, match="family"):
            hz.validate_scenario(small(target="classical_mi"))

    def test_bounds(self):
        with pytest.raises(hz.ScenarioError,
                           match="'master_seed': must fit in 64 bits"):
            hz.validate_scenario(small(master_seed=2 ** 64))
        with pytest.raises(hz.ScenarioError,
                           match="'master_seed': must be nonnegative"):
            hz.validate_scenario(small(master_seed=-1))
        hz.validate_scenario(small(master_seed=2 ** 64 - 1))
        with pytest.raises(hz.ScenarioError, match="eps_grid"):
            hz.validate_scenario(small(eps_grid=(1.5,)))
        with pytest.raises(hz.ScenarioError, match="estimator"):
            hz.validate_scenario(small(estimator="oracle:f=bogus"))
        with pytest.raises(hz.ScenarioError, match="'r'"):
            hz.validate_scenario(small(r=9))
        # at lam 0 the correlated family is Id/d^2, a product state its
        # product flag says it is not; bipartite:product names it
        with pytest.raises(hz.ScenarioError, match="field 'lam'"):
            hz.validate_scenario(small(
                target="classical_mi", family="bipartite:correlated",
                lam=0.0))
        hz.validate_scenario(small(target="classical_mi",
                                   family="bipartite:product", lam=0.0))

    def test_family_states(self):
        rng = np.random.default_rng(0)
        for family in hz.FAMILIES:
            target = "mi" if family.startswith("bipartite:") else "chi2"
            s = small(target=target, family=family, d=3)
            rho, rho_dec = hz.make_state(s, rng)
            dim = 9 if family.startswith("bipartite:") else 3
            assert rho.shape == (dim, dim)
            assert rho_dec.vectors.shape == (dim, dim)
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def _geometric_reference(d, rng):
    """The matrix-only geometric constructor the family table replaced."""
    w = 0.5 ** np.arange(d)
    w /= w.sum()
    u = linalg.haar_unitary(d, rng)
    return (u * w) @ u.conj().T


#: family -> (the matrix constructor it must match byte for byte,
#: the number of exact zeros it has at marginal dimension d and rank r)
FAMILY_REFERENCES = {
    "pure": (lambda d, r, lam, rng: linalg.random_pure(d, rng),
             lambda d, r: d - 1),
    "rank_r_random": (lambda d, r, lam, rng: linalg.random_density(d, r, rng),
                      lambda d, r: d - r),
    "maximally_mixed": (lambda d, r, lam, rng: linalg.maximally_mixed(d),
                        lambda d, r: 0),
    "geometric_spectrum": (lambda d, r, lam, rng: _geometric_reference(d, rng),
                           lambda d, r: 0),
    "bipartite:product": (
        lambda d, r, lam, rng: linalg.correlated_pair_state(d, 0.0),
        lambda d, r: 0),
    "bipartite:random_product": (
        lambda d, r, lam, rng: np.kron(linalg.random_density(d, d, rng),
                                       linalg.random_density(d, d, rng)),
        lambda d, r: 0),
    "bipartite:correlated": (
        lambda d, r, lam, rng: linalg.correlated_pair_state(d, lam),
        lambda d, r: 0),
    # the product tables criterion 12 drew before it ran on the harness
    "bipartite:dirichlet_product": (
        lambda d, r, lam, rng: np.diag(np.outer(
            rng.dirichlet(np.ones(d)),
            rng.dirichlet(np.ones(d))).ravel().astype(complex)),
        lambda d, r: 0),
}


@pytest.mark.parametrize("family", list(hz.FAMILIES))
def test_family_eigensystems(family):
    """Each family's matrix is the old constructor's, bytes and stream
    alike, and its eigensystem from the draw is exact: unitary vectors,
    ascending values that sum to 1 and are exactly 0 past the rank."""
    assert FAMILY_REFERENCES.keys() == hz.FAMILIES.keys()
    reference, zeros = FAMILY_REFERENCES[family]
    for d in (2, 3, 7, 16):
        for r in sorted({1, 2, d}):
            seed = [401, d, r]
            rng_new = np.random.default_rng(seed)
            rng_old = np.random.default_rng(seed)
            rho, dec = hz.FAMILIES[family].make(d, r, 0.5, rng_new)
            old = reference(d, r, 0.5, rng_old)
            assert rho.tobytes() == old.tobytes(), (d, r)
            assert rng_new.random() == rng_old.random()
            dim = rho.shape[0]
            v = dec.vectors
            assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) \
                <= config.UNITARY_TOL
            assert np.max(np.abs(dec.matrix() - rho)) <= 1e-12, (d, r)
            assert np.all(np.diff(dec.values) >= 0.0)
            assert abs(np.sum(dec.values) - 1.0) <= 1e-12
            k = zeros(d, r)
            assert np.all(dec.values[:k] == 0.0)
            assert np.all(dec.values[k:] > 0.0)


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

    def test_classical_mi_records_both_arms(self):
        s = small(target="classical_mi", d=4, family="bipartite:product",
                  eps_grid=(0.5,), trials=2)
        plan = hz.mt.classical_mi_plan(4, 0.5)
        for rec in hz.run_scenario(s):
            assert rec.flags == {"accept": True, "correct": True}
            assert rec.n_used == plan["n_learn"] + plan["n_test"]
            assert rec.losses == {"mi": 0.0}
        s = small(target="classical_mi", d=4, family="bipartite:correlated",
                  lam=1.0, eps_grid=(0.5,), trials=2)
        for rec in hz.run_scenario(s):
            assert rec.flags == {"accept": False, "correct": True}
            assert rec.losses["mi"] == pytest.approx(np.log(4), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_classical_mi_reads_the_classical_tables(d):
    """The classical_mi target's joint, the diagonal of a family's state,
    is the table the family stands for: the uniform one for
    bipartite:product, exactly, and correlated_joint(d, lam) for
    bipartite:correlated, to two ulps."""
    def joint(family, lam):
        rho, _ = hz.FAMILIES[family].make(d, d, lam, None)
        return np.diag(rho).real.reshape(d, d)

    assert np.array_equal(joint("bipartite:product", 0.5),
                          hz.mt.correlated_joint(d, 0.0))
    for lam in (0.05, 0.4, 0.5, 1.0):
        np.testing.assert_array_max_ulp(
            joint("bipartite:correlated", lam),
            hz.mt.correlated_joint(d, lam), maxulp=2)


class TestBudgetDrain:
    """A staged trial that leaves planned copies unspent raises, also
    under -O."""

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
    """A trial scores its losses from the eigensystems it already holds:
    the truth's from its draw, the estimate's from the learner."""

    def _scored(self, monkeypatch, target, last_step):
        """Run one trial; count eigh calls after ``last_step`` returns.

        Returns the record, the truth as (rho, rho_dec), the estimate
        and the count."""
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
        (rec,) = hz._run_trial(s, (s.target,), 0, 0)
        monkeypatch.undo()
        return rec, seen["rho"], seen["est"], len(calls)

    def test_chi2_branch(self, monkeypatch):
        rec, (rho, rho_dec), est, calls = self._scored(monkeypatch, "chi2",
                                                       "to_chi2")
        assert calls == 0
        assert rec.losses["bures_chi2"] == dv.bures_chi2(rho, est)
        assert rec.losses["hellinger_sq"] == dv.hellinger_sq_q(rho_dec, est)

    def test_kl_branch(self, monkeypatch):
        rec, (rho, rho_dec), est, calls = self._scored(monkeypatch, "kl",
                                                       "to_infidelity")
        assert calls == 0
        s = small(target="kl", d=4, r=2)
        spec = fb.parse_estimator(s.estimator, s.r)
        eps = pl.plan_budget(s.d, s.r, spec.rate(s.d, s.r),
                             s.eps_grid[0]).eps
        smoothed, bound = pl.to_kl(est, eps)
        assert rec.losses["kl_bound"] == bound
        assert rec.losses["infidelity"] == dv.infidelity(rho_dec, est)
        assert rec.losses["kl"] == dv.relative_entropy(rho_dec, smoothed)

    def test_infidelity_branch(self, monkeypatch):
        rec, (rho, rho_dec), est, calls = self._scored(
            monkeypatch, "infidelity", "to_infidelity")
        assert calls == 0
        assert rec.losses["infidelity"] == dv.infidelity(rho_dec, est)


class TestStructureFlags:
    """The chi2 target's structure flags and the mi target's product flag
    hold on a real run, and each one fails on an output altered to break
    it."""

    @pytest.fixture(scope="class")
    def run(self):
        s = small(target="chi2", d=8, r=1, eps_grid=(0.2,), trials=1)
        rng = np.random.default_rng([s.master_seed, 0, 0])
        rho, rho_dec = hz.make_state(s, rng)
        spec = fb.parse_estimator(s.estimator, s.r)
        params = pl.plan_budget(s.d, s.r, spec.rate(s.d, s.r), 0.2)
        out = pl.staged_learn(rho, spec, params, rng)
        assert 0 < out.prefix < s.d
        return rho_dec, out

    def test_real_run_holds(self, run):
        assert hz._structure_flags(*run) == dict.fromkeys(
            ("cardinality", "masses", "block", "tail"), True)

    @pytest.mark.parametrize("flag", ["cardinality", "masses", "block",
                                      "tail"])
    def test_each_flag_has_power(self, run, flag):
        rho_dec, out = run
        p, ell, q = out.params, out.prefix, out.q.copy()
        if flag == "cardinality":
            out = dataclasses.replace(
                out, params=dataclasses.replace(p, l_max=0))
        elif flag == "masses":
            out = dataclasses.replace(
                out, eps_prime=2.0 * config.K_ACC * p.eps_tilde)
        elif flag == "block":
            q[:ell] += 0.1
            out = dataclasses.replace(out, q=q)
        else:
            q[ell:] *= 1e-6
            out = dataclasses.replace(out, q=q)
        flags = hz._structure_flags(rho_dec, out)
        assert flags == {**dict.fromkeys(flags, True), flag: False}

    def test_product_flag_has_power(self, monkeypatch):
        s = small(target="mi", d=3, family="bipartite:random_product",
                  eps_grid=(0.5,), trials=1)
        (rec,) = hz._run_trial(s, (s.target,), 0, 0)
        assert rec.flags["product_within_eps_prime"]
        real = hz.mt.quantum_mi_test

        def far(*args, **kwargs):
            v = real(*args, **kwargs)
            _, pure = linalg.random_pure_eig(9, np.random.default_rng(3))
            v.stats["product"] = pure
            return v

        monkeypatch.setattr(hz.mt, "quantum_mi_test", far)
        (rec,) = hz._run_trial(s, (s.target,), 0, 0)
        assert not rec.flags["product_within_eps_prime"]


def test_mi_trial_scores_against_the_truth(monkeypatch):
    """After the tester learns, the trial traces the true marginals once
    and solves two d x d eigensystems, those of the true product; the
    joint's is the draw's.  Its losses are the same calls on the same
    inputs as scoring the learned product by hand."""
    s = small(target="mi", d=3, family="bipartite:correlated", lam=0.6,
              eps_grid=(0.5,), trials=1)
    seen, traces, solves = {}, [], []
    make, test, trace, eigh = hz.make_state, hz.mt.quantum_mi_test, \
        linalg.marginals, np.linalg.eigh
    learn = hz.mt.learn_product_quantum

    def made(s, rng):
        seen["truth"] = make(s, rng)
        return seen["truth"]

    def traced(*args, **kwargs):
        traces.append(1)
        return trace(*args, **kwargs)

    def solved(a, *args, **kwargs):
        solves.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def learned(*args, **kwargs):
        out = learn(*args, **kwargs)
        monkeypatch.setattr(linalg, "marginals", traced)
        monkeypatch.setattr(np.linalg, "eigh", solved)
        return out

    def tested(*args, **kwargs):
        seen["verdict"] = test(*args, **kwargs)
        return seen["verdict"]

    monkeypatch.setattr(hz, "make_state", made)
    monkeypatch.setattr(hz.mt, "learn_product_quantum", learned)
    monkeypatch.setattr(hz.mt, "quantum_mi_test", tested)
    (rec,) = hz._run_trial(s, (s.target,), 0, 0)
    monkeypatch.undo()
    assert len(traces) == 1
    assert solves == [(3, 3), (3, 3)]
    (rho, rho_dec), product = seen["truth"], seen["verdict"].stats["product"]
    marginals = linalg.marginals(rho, 3)
    assert rec.losses["bures_chi2"] == dv.bures_chi2(rho, product)
    assert rec.losses["mi"] == dv.relative_entropy(
        rho_dec, linalg.product_of_marginals(marginals))
    assert rec.losses["hellinger_sq"] == dv.hellinger_sq_q(rho_dec, product)
    assert rec.flags["product_within_eps_prime"] == (
        hz._product_chi2(marginals, product)
        <= seen["verdict"].stats["eps_prime"])


@pytest.mark.parametrize("d", [2, 3, 5])
def test_product_chi2_matches_the_dense_route(d):
    # any joint and any full-rank reference: (a (x) b) W taken factor by
    # factor equals the rotation of the formed Kronecker product
    rng = np.random.default_rng([d, 17])
    rho = linalg.random_density(d * d, d * d, rng)
    _, ref = linalg.random_density_eig(d * d, d * d, rng)
    marginals = linalg.marginals(rho, d)
    dense = dv.bures_chi2(np.kron(*marginals), ref)
    assert hz._product_chi2(marginals, ref) == pytest.approx(dense, rel=1e-12)


def test_indexed_tail_matches_sorted_route():
    # on an ascending q the index-based tail equals the sorted-route tail
    from oracles import analysis
    rng = np.random.default_rng(7)
    q = np.sort(rng.dirichlet(np.ones(6)))
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho_t = 0.5 * (h + h.conj().T) * 0.01 + np.diag(q)
    num = np.abs(rho_t - np.diag(q)) ** 2
    for ell in (0, 2, 6):
        assert hz._indexed_tail(num, q, ell) == pytest.approx(
            analysis.bures_chi2_tail(rho_t, q, ell), rel=1e-12)


class TestFit:
    def _records(self, pairs, key="frob_sq"):
        return [hz.TrialRecord(scenario="s", trial=i, point=float(n),
                               n_used=int(n), losses={key: y}, flags={},
                               wall_time=0.0)
                for i, (n, y) in enumerate(pairs)]

    def test_exact_inverse_law(self):
        recs = self._records([(n, 5.0 / n) for n in (10, 100, 1000, 10000)])
        slope, intercept, r2 = hz.fit_scaling(recs)
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert np.exp(intercept) == pytest.approx(5.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        recs = self._records([(n, 2.0) for n in (10, 100, 1000)])
        slope, _, r2 = hz.fit_scaling(recs)
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_needs_two_points(self):
        recs = self._records([(10, 1.0), (10, 2.0)])
        with pytest.raises(ValueError):
            hz.fit_scaling(recs)


class TestEmission:
    def test_csv_excludes_wall_time(self):
        recs = hz.run_scenario(small(trials=2))
        rows = hz.csv_rows(recs)
        assert rows[0][:4] == ("scenario", "trial", "point", "n_used")
        assert not any("wall" in col for col in rows[0])
        assert len(rows) == 1 + len(recs)

    def test_repeated_cells_are_shared(self):
        """Rows kept from many calls share one string per repeated cell."""
        def records():
            return [hz.TrialRecord(scenario="s", trial=12345, point=1e3,
                                   n_used=1000, losses={"frob_sq": 0.5},
                                   flags={"converged": 1, "within_rate": 0},
                                   wall_time=0.0)]

        (_, a), (_, b) = hz.csv_rows(records()), hz.csv_rows(records())
        assert a == b
        for col in (1, 5, 6):  # trial and both flags
            assert a[col] is b[col]

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
#: a change to any trial's random stream or loss arithmetic moves one.
#: The bytes themselves are committed as ``goldens/<sid>.csv``, so a
#: mismatch names the cells that moved.
GOLDEN = [
    (dict(sid="g-frob", target="frobenius", d=3, r=2, n_grid=(200, 2000),
          trials=3, master_seed=11),
     "b7189299434432683683589d742743bb67c644d1442252c61ab6d9ce03994f49"),
    (dict(sid="g-infid", target="infidelity", d=3, r=2,
          family="geometric_spectrum", trials=2, master_seed=12),
     "98f874fb02eefd36511780dbe4c42784ad9b41047e30b8f64fd167454c4c8209"),
    (dict(sid="g-chi2", target="chi2", d=4, r=2, trials=2, master_seed=13),
     "83239f5735fafb0a382fa860d660d07920c1aac4fcd9c063a61ef8d39b4bbbb5"),
    (dict(sid="g-kl", target="kl", d=3, r=3, family="geometric_spectrum",
          trials=2, master_seed=14),
     "0de90c321817a44d799d492f7e5048be3f66b3c261c88b8e74dbf25641b35faa"),
    (dict(sid="g-mi-prod", target="mi", d=2, family="bipartite:product",
          eps_grid=(0.5,), trials=2, master_seed=15),
     "158a86b43e717dd6b96c8a6dc605ec717cfdcc2f7d899c188466d930b6626383"),
    (dict(sid="g-mi-corr", target="mi", d=2, family="bipartite:correlated",
          lam=0.6, eps_grid=(0.5,), trials=2, master_seed=16),
     "68f701ca3d8aed100151af3e5b5984182239b3a5ee3668b8a5e0f8ff4742e8ce"),
    (dict(sid="g-chi2-simple", target="chi2", d=4, r=2, estimator="simple",
          trials=2, master_seed=17),
     "3cd131666632576421eafc3fce1ab22244e97b79b31236f0deedb9f5e0b9bf93"),
    # five shrinking stages per staged run (prefixes 5, 4, 3, 2, 1), so
    # the stage loop's block products at d_t < d reach the CSV
    (dict(sid="g-chi2-stages", target="chi2", d=5, r=1,
          family="geometric_spectrum", trials=2, master_seed=18),
     "4a75343e4b9373c6dda310fd9858581d4b3c5e24c85826ec306c918fbde5ca36"),
    (dict(sid="g-mi-stages", target="mi", d=5, family="bipartite:product",
          eps_grid=(0.5,), trials=2, master_seed=19),
     "e89e03631c982fc5a883505de507f8dfcbbe523c397fbac6a1820b3f4803edd7"),
    # the benchmark's shapes: stage 1 peels the top directions and stage
    # 2 spreads the sub-floor prefix uniformly, so the uniform-spread
    # branch of final_upgrade reaches the CSV at d = 64 and d = 16
    (dict(sid="g-chi2-pure64", target="chi2", d=64, r=1, family="pure",
          trials=2, master_seed=20),
     "e55a4989dd79df185277ffa58d2b2fd6658301714a1e808183d2097ab6ddcead"),
    (dict(sid="g-chi2-simple16", target="chi2", d=16, r=2,
          estimator="simple", trials=2, master_seed=21),
     "2dd214ccd0bb693b7dde425939466df4496590d634b00b0405168672c20d96a8"),
    (dict(sid="g-classical-mi", target="classical_mi", d=3,
          family="bipartite:dirichlet_product", eps_grid=(0.5, 0.3),
          trials=2, master_seed=22),
     "091085c54428868d2371e3341373b1b0834d72e6f01e47d1930892cbf29dd69f"),
]


GOLDENS = Path(__file__).resolve().parent / "goldens"


def golden_scenario(fields) -> hz.Scenario:
    base = dict(family="rank_r_random", estimator="oracle:f=d",
                eps_grid=(0.25,))
    return hz.Scenario(**{**base, **fields})


def csv_text(records) -> str:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(hz.csv_rows(records))
    return buf.getvalue()


def golden_csv(fields) -> str:
    """The CSV text of one ``GOLDEN`` scenario, run on one worker."""
    return csv_text(hz.run_scenario(golden_scenario(fields), workers=1))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _moved_cells(want: str, got: str, limit: int = 20) -> str:
    """The cells where ``got`` differs from ``want``, with numpy's BLAS
    build: some cells depend on the last bits of a LAPACK solve."""
    rows_w = list(csv.reader(io.StringIO(want, newline="")))
    rows_g = list(csv.reader(io.StringIO(got, newline="")))
    header = rows_w[0]
    moved = [f"row {i} {header[j] if j < len(header) else j}: {a} -> {b}"
             for i, (rw, rg) in enumerate(zip(rows_w, rows_g))
             for j, (a, b) in enumerate(itertools.zip_longest(rw, rg))
             if a != b]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "\n".join([
        f"{len(rows_w)} rows stored, {len(rows_g)} produced; "
        f"{len(moved)} cells moved", *moved[:limit],
        f"numpy {np.__version__}, BLAS {blas.get('name')} "
        f"{blas.get('version')}"])


@pytest.mark.parametrize("fields, digest", GOLDEN,
                         ids=[f["sid"] for f, _ in GOLDEN])
def test_golden_csv_digest(fields, digest):
    with open(GOLDENS / f"{fields['sid']}.csv", newline="") as fh:
        stored = fh.read()
    assert _sha256(stored) == digest, "stored CSV disagrees with its digest"
    got = golden_csv(fields)
    assert _sha256(got) == digest, _moved_cells(stored, got)


STAGED = ("infidelity", "chi2", "kl")


@pytest.mark.parametrize(
    "fields", [f for f, _ in GOLDEN if f["target"] in STAGED],
    ids=[f["sid"] for f, _ in GOLDEN if f["target"] in STAGED])
def test_one_learn_scores_every_staged_target(fields):
    """One run of the shared staged trial, scored for every staged
    target, gives each target the CSV bytes of its own run."""
    s = golden_scenario(fields)
    shared = hz.run_targets(s, STAGED)
    assert list(shared) == list(STAGED)
    for target in STAGED:
        alone = hz.run_scenario(dataclasses.replace(s, target=target))
        assert csv_text(shared[target]) == csv_text(alone), target


def test_shared_run_is_worker_independent():
    s = small(target="kl", d=4, r=2, eps_grid=(0.25, 0.2), trials=2)
    serial = hz.run_targets(s, STAGED)
    parallel = hz.run_targets(s, STAGED, workers=2)
    assert {t: csv_text(r) for t, r in serial.items()} == {
        t: csv_text(r) for t, r in parallel.items()}


@pytest.mark.parametrize("targets", [("chi2", "mi"), ("chi2", "frobenius"),
                                     ("chi2", "banana")])
def test_shared_run_refuses_a_target_with_another_trial(targets):
    s = small(target="chi2", d=4, r=2)
    with pytest.raises(hz.ScenarioError, match="does not share the trial"):
        hz.run_targets(s, targets)


def test_target_contract():
    """A trial takes the stream; a score takes the truth and the trial's
    result, named for what it holds, and no stream.  The staged targets
    share one trial object, so one run serves them all."""
    for name, target in hz.TARGETS.items():
        assert tuple(inspect.signature(target.trial).parameters) == (
            "s", "rho", "rho_dec", "point", "rng"), name
        s, rho, rho_dec, result, point = inspect.signature(
            target.score).parameters
        assert (s, rho, rho_dec, point) == ("s", "rho", "rho_dec", "point")
        assert result != "rng", name
    assert {hz.TARGETS[t].trial for t in STAGED} == {hz._staged_trial}
