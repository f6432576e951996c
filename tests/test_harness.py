"""Scenario plumbing: validation, determinism, fits, emission."""

import csv
import dataclasses
import functools
import hashlib
import inspect
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from bureslab import config
from bureslab import divergences as dv
from bureslab import frobenius as fb
from bureslab import harness as hz
from bureslab import linalg
from bureslab import pipeline as pl
from oracles import analysis


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
        """A family from another space is refused by one message that
        names the families the target pairs with."""
        pairs = {"frobenius": ("pure", "rank_r_random", "maximally_mixed",
                               "geometric_spectrum"),
                 "mi": ("bipartite:product", "bipartite:random_product",
                        "bipartite:correlated"),
                 "classical_mi": ("classical:product",
                                  "classical:dirichlet_product",
                                  "classical:correlated")}
        for target, own in pairs.items():
            for family in hz.FAMILIES:
                s = small(target=target, family=family)
                if family in own:
                    hz.validate_scenario(s)
                    continue
                with pytest.raises(hz.ScenarioError) as info:
                    hz.validate_scenario(s)
                assert str(info.value) == (f"field 'family': target "
                                           f"{target!r} pairs with {own}")

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
        # at lam 0 a correlated family is Id/d^2 or the uniform table, a
        # product its product flag says it is not; the product family of
        # its space names it
        for target, space in (("mi", "bipartite"),
                              ("classical_mi", "classical")):
            with pytest.raises(
                    hz.ScenarioError,
                    match=f"field 'lam': {space}:correlated at lam 0 is a "
                    f"product; name {space}:product"):
                hz.validate_scenario(small(
                    target=target, family=f"{space}:correlated", lam=0.0))
            hz.validate_scenario(small(target=target,
                                       family=f"{space}:product", lam=0.0))

    def test_family_states(self):
        rng = np.random.default_rng(0)
        target = {"state": "chi2", "pair": "mi", "table": "classical_mi"}
        for family, row in hz.FAMILIES.items():
            s = small(target=target[row.space], family=family, d=3)
            truth, dec = hz.make_state(s, rng)
            dim = 9 if row.space == "pair" else 3
            assert truth.shape == (dim, dim)
            if row.space == "table":
                assert dec is None and truth.sum() == pytest.approx(1.0)
                continue
            assert dec.vectors.shape == (dim, dim)
            assert np.trace(truth).real == pytest.approx(1.0, abs=1e-9)


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
    "maximally_mixed": (lambda d, r, lam, rng: np.eye(d, dtype=complex) / d,
                        lambda d, r: 0),
    "geometric_spectrum": (lambda d, r, lam, rng: _geometric_reference(d, rng),
                           lambda d, r: 0),
    "bipartite:product": (
        lambda d, r, lam, rng: analysis.correlated_pair_state(d, 0.0),
        lambda d, r: 0),
    "bipartite:random_product": (
        lambda d, r, lam, rng: np.kron(linalg.random_density(d, d, rng),
                                       linalg.random_density(d, d, rng)),
        lambda d, r: 0),
    "bipartite:correlated": (
        lambda d, r, lam, rng: analysis.correlated_pair_state(d, lam),
        lambda d, r: 0),
}

STATE_FAMILIES = [name for name, row in hz.FAMILIES.items()
                  if row.space != "table"]
TABLE_FAMILIES = [name for name, row in hz.FAMILIES.items()
                  if row.space == "table"]


@pytest.mark.parametrize("family", STATE_FAMILIES)
def test_family_eigensystems(family):
    """Each state family's matrix is the old constructor's, bytes and
    stream alike, and its eigensystem from the draw is exact: unitary
    vectors, ascending values that sum to 1 and are exactly 0 past the
    rank."""
    assert list(FAMILY_REFERENCES) == STATE_FAMILIES
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


def _rank_cases():
    """(family, d) for every state and pair family: state families at
    d in {2, 3, 5, 41, 64, 128}, pair families at marginal d in
    {2, 3, 4, 8}.  ``geometric_spectrum`` is not full rank from d = 40,
    so those cases are strict xfails."""
    dims = {"state": (2, 3, 5, 41, 64, 128), "pair": (2, 3, 4, 8)}
    for family in STATE_FAMILIES:
        for d in dims[hz.FAMILIES[family].space]:
            marks = ()
            if family == "geometric_spectrum" and d >= 40:
                marks = pytest.mark.xfail(strict=True, reason=(
                    "ROADMAP item 17: from d = 40 its least values fall "
                    "below SPECTRAL_CUTOFF, so it has rank 39"))
            yield pytest.param(family, d, marks=marks, id=f"{family}-{d}")


@pytest.mark.parametrize("family, d", list(_rank_cases()))
def test_family_rank_clears_the_cutoff(family, d):
    """Each state family has as many eigenvalues above SPECTRAL_CUTOFF
    as the rank it claims (its dimension less the exact zeros of
    FAMILY_REFERENCES), at every rank cap r in {1, ceil(d/2), d}, and
    its least claimed nonzero value is at least 10 SPECTRAL_CUTOFF, so
    the rank does not rest on round-off near the cutoff.  The least
    over these cases is bipartite:random_product's at d = 8, near
    8.4e-7, and among the families on C^d rank_r_random's at d = 128,
    near 1.4e-6."""
    _, zeros = FAMILY_REFERENCES[family]
    for r in sorted({1, (d + 1) // 2, d}):
        rho, dec = hz.FAMILIES[family].make(
            d, r, 0.5, np.random.default_rng([403, d, r]))
        claimed = rho.shape[0] - zeros(d, r)
        assert np.count_nonzero(linalg.spectral_cutoff(dec.values)) \
            == claimed, (d, r)
        assert dec.values[zeros(d, r)] >= 10 * config.SPECTRAL_CUTOFF, \
            (d, r)


#: table family -> the table it must match byte for byte, drawing what
#: the constructor it replaced drew
TABLE_REFERENCES = {
    "classical:product": lambda d, lam, rng: hz.mt.correlated_joint(d, 0.0),
    # the diagonal of diag(a (x) b), the state this family once drew
    "classical:dirichlet_product": lambda d, lam, rng: np.diag(np.diag(
        np.kron(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)))
        .astype(complex))).real.reshape(d, d),
    "classical:correlated":
        lambda d, lam, rng: hz.mt.correlated_joint(d, lam),
}


@pytest.mark.parametrize("family", TABLE_FAMILIES)
def test_table_families(family):
    """Each table family returns a (d, d) nonnegative table that sums to
    1, paired with None: the reference's bytes, leaving the stream where
    the reference leaves it."""
    assert list(TABLE_REFERENCES) == TABLE_FAMILIES
    for d in (2, 3, 7, 16):
        for lam in (0.05, 0.5, 1.0):
            seed = [402, d, round(100 * lam)]
            rng_new = np.random.default_rng(seed)
            rng_old = np.random.default_rng(seed)
            joint, dec = hz.FAMILIES[family].make(d, d, lam, rng_new)
            assert dec is None
            assert joint.shape == (d, d) and joint.dtype == np.float64
            assert np.all(joint >= 0.0)
            assert abs(joint.sum() - 1.0) <= 1e-12
            old = TABLE_REFERENCES[family](d, lam, rng_old)
            assert joint.tobytes() == old.tobytes(), (d, lam)
            assert rng_new.random() == rng_old.random()


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

    def test_chi2_record_of_a_budget_reserve_stop(self):
        """A run the budget reserve stopped has not converged, and its
        CSV row says so."""
        s = small(target="chi2", d=16, r=1, family="maximally_mixed",
                  eps_grid=(0.2,), trials=1)
        rows = list(csv.DictReader(io.StringIO(
            csv_text(hz.run_scenario(s)))))
        assert [row["flag:converged"] for row in rows] == ["0"]

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
        s = small(target="classical_mi", d=4, family="classical:product",
                  eps_grid=(0.5,), trials=2)
        plan = hz.mt.classical_mi_plan(4, 0.5)
        for rec in hz.run_scenario(s):
            assert rec.flags == {"accept": True, "correct": True}
            assert rec.n_used == plan["n_learn"] + plan["n_test"]
            assert rec.losses == {"mi": 0.0}
        s = small(target="classical_mi", d=4, family="classical:correlated",
                  lam=1.0, eps_grid=(0.5,), trials=2)
        for rec in hz.run_scenario(s):
            assert rec.flags == {"accept": False, "correct": True}
            assert rec.losses["mi"] == pytest.approx(np.log(4), rel=1e-12)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_classical_mi_reads_the_classical_tables(d):
    """Each classical family's table is the computational-basis diagonal
    of its quantum namesake's state: classical:product that of
    bipartite:product, exactly, and classical:correlated that of
    bipartite:correlated, to two ulps."""
    def tables(name, lam):
        joint, _ = hz.FAMILIES[f"classical:{name}"].make(d, d, lam, None)
        rho, _ = hz.FAMILIES[f"bipartite:{name}"].make(d, d, lam, None)
        return joint, np.diag(rho).real.reshape(d, d)

    assert np.array_equal(*tables("product", 0.5))
    for lam in (0.05, 0.4, 0.5, 1.0):
        np.testing.assert_array_max_ulp(*tables("correlated", lam),
                                        maxulp=2)


def test_classical_trial_holds_tables_only():
    """A classical_mi trial allocates O(d^2): one trial on a d = 64
    Dirichlet product table peaks below 16 MB (a d^2 x d^2 state and
    eigensystem would take 512 MB), and a d = 200 run returns its
    record."""
    import tracemalloc
    s = small(target="classical_mi", d=64, r=1,
              family="classical:dirichlet_product", eps_grid=(0.5,),
              trials=1)
    tracemalloc.start()
    try:
        (rec,) = hz._run_trial(s, (s.target,), 0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rec.flags["correct"]
    assert peak < 16 * 2 ** 20, peak
    s = small(target="classical_mi", d=200, r=1,
              family="classical:correlated", eps_grid=(0.5,), trials=1)
    (rec,) = hz.run_scenario(s)
    assert rec.losses["mi"] > 0.0 and "accept" in rec.flags


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
    def test_each_flag_has_power(self, run, flag, monkeypatch):
        rho_dec, out = run
        p, ell, q = out.params, out.prefix, out.q.copy()
        if flag == "cardinality":
            out = dataclasses.replace(
                out, params=dataclasses.replace(p, l_max=0))
        elif flag == "masses":
            # eps_prime is read off q, whose prefix entries the block
            # flag also reads, so the estimate alone is raised
            monkeypatch.setattr(pl.CentralOutput, "eps_prime",
                                2.0 * config.K_STRUCT * p.eps_tilde)
        elif flag == "block":
            # a zero-sum error, so the prefix's estimated mass stays put
            assert ell >= 2
            q[:2] += (0.1, -0.1)
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
    """The truth of a fixed state is derived once per (d, lam), when the
    state is built: the first trial's ``make_state`` traces the true
    marginals once and solves two d x d eigensystems, those of the true
    product (the joint's is the build's), and no score traces or solves
    anything after the tester learns, nor does the second trial build
    anything.  Each trial's losses are the same calls on the same inputs
    as scoring its learned product by hand."""
    s = small(target="mi", d=3, family="bipartite:correlated", lam=0.6,
              eps_grid=(0.5,), trials=2)
    monkeypatch.setattr(hz, "_fixed_draw",
                        functools.lru_cache(hz._fixed_draw.__wrapped__))
    seen, counts = [], []
    make, test, trace, eigh = hz.make_state, hz.mt.quantum_mi_test, \
        linalg.marginals, np.linalg.eigh
    learn = hz.mt.learn_product_quantum
    phase = [None]  # counted: while the truth is built, and once learned

    def made(s, rng):
        counts.append({p: {"traces": 0, "solves": []}
                       for p in ("make", "score")})
        phase[0] = "make"
        seen.append({"truth": make(s, rng)})
        phase[0] = None
        return seen[-1]["truth"]

    def traced(*args, **kwargs):
        if phase[0]:
            counts[-1][phase[0]]["traces"] += 1
        return trace(*args, **kwargs)

    def solved(a, *args, **kwargs):
        if phase[0]:
            counts[-1][phase[0]]["solves"].append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def learned(*args, **kwargs):
        out = learn(*args, **kwargs)
        phase[0] = "score"
        return out

    def tested(*args, **kwargs):
        seen[-1]["verdict"] = test(*args, **kwargs)
        return seen[-1]["verdict"]

    monkeypatch.setattr(hz, "make_state", made)
    monkeypatch.setattr(linalg, "marginals", traced)
    monkeypatch.setattr(np.linalg, "eigh", solved)
    monkeypatch.setattr(hz.mt, "learn_product_quantum", learned)
    monkeypatch.setattr(hz.mt, "quantum_mi_test", tested)
    recs = [hz._run_trial(s, (s.target,), 0, t)[0] for t in range(2)]
    monkeypatch.undo()
    nothing = {"traces": 0, "solves": []}
    assert counts == [
        {"make": {"traces": 1, "solves": [(3, 3), (3, 3)]},
         "score": nothing},
        {"make": nothing, "score": nothing}]
    assert all(a is b for a, b in zip(seen[0]["truth"], seen[1]["truth"]))
    for rec, trial in zip(recs, seen):
        (rho, rho_dec), verdict = trial["truth"], trial["verdict"]
        product = verdict.stats["product"]
        marginals = linalg.marginals(rho, 3)
        assert rec.losses["bures_chi2"] == dv.bures_chi2(rho, product)
        assert rec.losses["mi"] == dv.relative_entropy(
            rho_dec, linalg.product_of_marginals(marginals))
        assert rec.losses["hellinger_sq"] == dv.hellinger_sq_q(rho_dec,
                                                               product)
        assert rec.flags["product_within_eps_prime"] == (
            dv.bures_chi2(np.kron(*marginals), product)
            <= verdict.stats["eps_prime"])


#: the families that draw nothing, in each space
FIXED_FAMILIES = [name for name, row in hz.FAMILIES.items() if row.fixed]


def test_a_family_is_fixed_exactly_when_it_draws_nothing():
    """The ``fixed`` column names the families whose ``make`` leaves the
    stream where it was, and there is one in every space."""
    for family, row in hz.FAMILIES.items():
        rng_new, rng_old = np.random.default_rng(7), \
            np.random.default_rng(7)
        row.make(3, 2, 0.5, rng_new)
        assert (rng_new.random() == rng_old.random()) == row.fixed, family
    assert {hz.FAMILIES[f].space for f in FIXED_FAMILIES} \
        == {"state", "pair", "table"}


@pytest.mark.parametrize("family", FIXED_FAMILIES)
def test_fixed_family_is_one_read_only_build(family):
    """``make_state`` hands a fixed family's one build, read-only, to
    every trial of every scenario that names it at one (d, lam): other
    ids, targets' seeds, ranks and estimators share it, it draws
    nothing, and it equals a fresh build byte for byte.  Another lam
    is another build."""
    target = {"state": "chi2", "pair": "mi", "table": "classical_mi"}[
        hz.FAMILIES[family].space]
    scenarios = [small(target=target, family=family, d=3, r=r, lam=0.4,
                       sid=sid, master_seed=seed, estimator=estimator)
                 for sid, r, seed, estimator in (
                     ("a", 1, 1, "oracle:f=d"), ("b", 3, 2, "simple"))]
    draws = []
    for s in scenarios:
        hz.validate_scenario(s)
        for trial in range(3):
            rng = np.random.default_rng([s.master_seed, 0, trial])
            draws.append(hz.make_state(s, rng))
            assert rng.random() == np.random.default_rng(
                [s.master_seed, 0, trial]).random()
    state, dec = draws[0]
    arrays = (state,) if dec is None else (state, dec.values, dec.vectors)
    for other, other_dec in draws[1:]:
        assert other is state and other_dec is dec
    fresh, fresh_dec = hz.FAMILIES[family].make(3, 3, 0.4, None)
    fresh_arrays = ((fresh,) if dec is None
                    else (fresh, fresh_dec.values, fresh_dec.vectors))
    for a, b in zip(arrays, fresh_arrays):
        assert a.tobytes() == b.tobytes() and b.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0
    other, _ = hz.make_state(dataclasses.replace(scenarios[0], lam=0.7),
                             np.random.default_rng(0))
    assert other is not state


class TestFixedPairTruth:
    """A fixed pair state's truth is derived once per (d, lam) for the
    life of the process, in every scenario that names it, and a drawn
    state's on every trial.  The tester is replaced by one canned
    verdict, so every trace of the marginals counted here is the
    score's or the build's."""

    def _run(self, monkeypatch, family, trials=2):
        base = small(target="mi", d=3, family=family, lam=0.6,
                     eps_grid=(0.5,), trials=trials)
        rho, rho_dec = hz.make_state(base, np.random.default_rng(4))
        verdict = hz.mt.quantum_mi_test(
            rho, rho_dec, 3, 0.5, np.random.default_rng(5), r=base.r,
            spec=hz.fb.parse_estimator(base.estimator, base.r))
        states, traces = [], []
        make, trace = hz.make_state, linalg.marginals

        def made(s, rng):
            states.append(make(s, rng))
            return states[-1]

        def traced(*args, **kwargs):
            traces.append(1)
            return trace(*args, **kwargs)

        monkeypatch.setattr(
            hz, "_fixed_draw",
            functools.lru_cache(hz._fixed_draw.__wrapped__))
        monkeypatch.setattr(hz, "make_state", made)
        monkeypatch.setattr(hz.mt, "quantum_mi_test",
                            lambda *args, **kwargs: verdict)
        monkeypatch.setattr(linalg, "marginals", traced)
        # two scenarios: another id, seed, rank cap and estimator
        recs = hz.run_scenario(base) + hz.run_scenario(dataclasses.replace(
            base, sid="other", master_seed=7, r=2, estimator="simple"))
        monkeypatch.setattr(linalg, "marginals", trace)
        assert len(recs) == len(states) == 2 * trials
        for rec, (rho, rho_dec) in zip(recs, states):
            marginals = linalg.marginals(rho, 3)
            assert rec.losses["mi"] == dv.relative_entropy(
                rho_dec, linalg.product_of_marginals(marginals))
            assert rec.flags["product_within_eps_prime"] == (
                dv.bures_chi2(np.kron(*marginals), verdict.stats["product"])
                <= verdict.stats["eps_prime"])
        return states, len(traces)

    def test_read_only_state_is_traced_once(self, monkeypatch):
        states, traces = self._run(monkeypatch, "bipartite:correlated")
        assert traces == 1
        rho, rho_dec = states[0]
        assert all(a is rho and b is rho_dec for a, b in states)
        mi, product = hz._fixed_draw("bipartite:correlated", 3, 0.6)[2]
        assert not rho.flags.writeable and not product.flags.writeable
        assert (mi, product.tobytes()) == (
            hz._mi_truth(rho, rho_dec, 3)[0],
            hz._mi_truth(rho, rho_dec, 3)[1].tobytes())

    def test_writable_draw_is_traced_every_trial(self, monkeypatch):
        states, traces = self._run(monkeypatch, "bipartite:random_product",
                                   trials=3)
        assert traces == 6
        assert all(rho.flags.writeable for rho, _ in states)
        assert hz._fixed_draw.cache_info().currsize == 0


def test_indexed_tail_matches_sorted_route():
    # on an ascending q the index-based tail equals the sorted-route tail
    rng = np.random.default_rng(7)
    q = np.sort(rng.dirichlet(np.ones(6)))
    h = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho_t = 0.5 * (h + h.conj().T) * 0.01 + np.diag(q)
    num = np.abs(rho_t - np.diag(q)) ** 2
    for ell in (0, 2, 6):
        assert hz._indexed_tail(num, q, ell) == pytest.approx(
            analysis.bures_chi2_tail(rho_t, q, ell), rel=1e-12)


class TestFit:
    def _rows(self, pairs):
        """The summary rows of one trial record per (n, loss) pair."""
        recs = [hz.TrialRecord(scenario="s", trial=i, point=float(n),
                               n_used=int(n), losses={"frob_sq": y},
                               flags={}, wall_time=0.0)
                for i, (n, y) in enumerate(pairs)]
        return hz.summarize(recs, "frob_sq")

    def test_exact_inverse_law(self):
        rows = self._rows([(n, 5.0 / n) for n in (10, 100, 1000, 10000)])
        passed, slope, level, r2 = hz.scaling_verdict(rows)
        assert passed
        assert slope == pytest.approx(-1.0, abs=1e-12)
        assert level == pytest.approx(5.0, rel=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        rows = self._rows([(n, 2.0) for n in (10, 100, 1000)])
        passed, slope, _, r2 = hz.scaling_verdict(rows)
        assert not passed
        assert slope == pytest.approx(0.0, abs=1e-12)
        assert r2 == 1.0

    def test_needs_two_points(self):
        rows = self._rows([(10, 1.0), (10, 2.0)])
        with pytest.raises(ValueError):
            hz.scaling_verdict(rows)

    @pytest.mark.parametrize("side", [-1.0, 1.0])
    def test_slope_bar_edges(self, side):
        """A slope just inside SLOPE_TOL of -1 passes the bar and one
        just outside fails it, on either side of -1."""
        for scale, passes in ((1.0 - 1e-6, True), (1.0 + 1e-6, False)):
            slope = -1.0 + side * scale * hz.SLOPE_TOL
            rows = self._rows([(n, 3.0 * n ** slope) for n in (100, 10000)])
            passed, fitted, _, _ = hz.scaling_verdict(rows)
            assert fitted == pytest.approx(slope, abs=1e-12)
            assert passed == passes, (side, scale)


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
        hz.write_summary_csv(hz.summarize(recs, "frob_sq"), str(summ))
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
            assert measured <= threshold


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
          family="classical:dirichlet_product", eps_grid=(0.5, 0.3),
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
        # a table target's truth is a joint table, with None for its
        # eigensystem
        truth = ("joint", "_") if target.space == "table" \
            else ("rho", "rho_dec")
        assert tuple(inspect.signature(target.trial).parameters) == (
            "s", *truth, "point", "rng"), name
        s, rho, rho_dec, result, point = inspect.signature(
            target.score).parameters
        assert (s, rho, rho_dec, point) == ("s", *truth, "point")
        assert result != "rng", name
    assert {hz.TARGETS[t].trial for t in STAGED} == {hz._staged_trial}


# ---------------------------------------------------------------------------
# the stated levels of the verdict bars, and what each verdict reports
# ---------------------------------------------------------------------------

#: how often a true hold rate of 0.999 fails a 1.0 level, per trial count
FAILS_AT_999 = {20: "0.0198", 100: "0.0952", 200: "0.181"}


@pytest.mark.parametrize("trials, fails_at_95, passes_at_80", [
    (20, "0.0755", "0.206"), (100, "0.0115", "0.0057"),
    (200, "0.00116", "0.000106")])
def test_pass_rate_levels(trials, fails_at_95, passes_at_80):
    """The binomial levels ``_pass_rate``'s docstring states, to three
    figures: how often a true hold rate of 0.95 fails a 0.9 level, and
    0.8 passes it, and how often 0.999 fails a 1.0 level, each summed
    over the hold counts the bar itself passes."""
    def pass_probability(p, level):
        bar = hz._pass_rate(held=level)
        return sum(math.comb(trials, k) * p ** k * (1 - p) ** (trials - k)
                   for k in range(trials + 1)
                   if bar(None, {"flag_rates": {"held": k / trials}})[0])

    assert f"{1.0 - pass_probability(0.95, 0.9):.3g}" == fails_at_95
    assert f"{pass_probability(0.8, 0.9):.3g}" == passes_at_80
    assert f"{1.0 - pass_probability(0.999, 1.0):.3g}" \
        == FAILS_AT_999[trials]
    for figure in (fails_at_95, passes_at_80, FAILS_AT_999[trials]):
        assert figure in hz._pass_rate.__doc__


def test_slope_bar_level_and_power(monkeypatch):
    """The counts ``scaling_verdict``'s docstring states for its first
    setting (``oracle:f=d``, d = r = 2, n in {2000, 20000}, 5 trials,
    master seeds 0-199): the seeds at which a correct oracle fails the
    slope bar, and those at which one whose loss falls as f/sqrt(n)
    passes it."""
    def fails():
        return sum(not hz.scaling_verdict(hz.summarize(hz.run_scenario(
            small(d=2, r=2, n_grid=(2_000, 20_000), trials=5,
                  master_seed=seed)), "frob_sq"))[0] for seed in range(200))

    oracle = fb.oracle_estimate
    correct = fails()
    monkeypatch.setattr(fb, "oracle_estimate", lambda rho, f, m, rng:
                        oracle(rho, f * math.sqrt(m), m, rng))
    assert (correct, 200 - fails()) == (81, 6)
    doc = " ".join(hz.scaling_verdict.__doc__.split())
    assert "fails the bar at 81 of 200 seeds" in doc
    assert "passes at 6 of 200 seeds" in doc


#: per target, summarize rows' means and flag rates on both sides of its
#: bar; the kl rows miss only within_eps, only kl_within_bound, or none
VERDICT_ROWS = {
    "frobenius": [(0.0021, {}), (0.0025, {})],
    "infidelity": [(0.0, {"within_eps": 0.85}), (0.0, {"within_eps": 0.9})],
    "chi2": [(0.0, {"within_eps": 0.85}), (0.0, {"within_eps": 1.0})],
    "kl": [(0.0, {"within_eps": 0.85, "kl_within_bound": 1.0}),
           (0.0, {"within_eps": 1.0, "kl_within_bound": 0.99}),
           (0.0, {"within_eps": 0.9, "kl_within_bound": 1.0})],
    "mi": [(0.0, {"correct": 0.85}), (0.0, {"correct": 0.95})],
    "classical_mi": [(0.0, {"correct": 0.8}), (0.0, {"correct": 1.0})],
}


def test_verdicts_report_the_bar_they_apply():
    """Every verdict passes exactly when the measured value it reports
    is on the passing side of the threshold it reports: at least it for
    a rate, at most it for the frobenius mean.  On d = 2, f/n is 0.002
    at n = 1000, and a ci95 of 0.000392 adds 2 standard errors of 0.0004
    to it."""
    assert set(VERDICT_ROWS) == set(hz.TARGETS)
    s = small(d=2, r=2)
    for target, cases in VERDICT_ROWS.items():
        verdict = hz.TARGETS[target].verdict
        seen = set()
        for mean, rates in cases:
            row = {"point": 1000.0, "trials": 20, "n_mean": 1000.0,
                   "mean": mean, "ci95": 0.000392, "flag_rates": rates}
            passed, measured, threshold = verdict(s, row)
            side = measured <= threshold if target == "frobenius" \
                else measured >= threshold
            assert passed == side, (target, rates)
            seen.add(passed)
        assert seen == {True, False}, target
    kl = hz.TARGETS["kl"].verdict
    failing, _, passing = (rates for _, rates in VERDICT_ROWS["kl"])
    assert kl(s, {"flag_rates": failing}) == (False, 0.85, 0.9)
    assert kl(s, {"flag_rates": passing}) == (True, 1.0, 1.0)
    row = {"point": 1000.0, "mean": 0.0021, "ci95": 0.000392}
    assert hz.TARGETS["frobenius"].verdict(s, row) == (
        True, 0.0021, pytest.approx(0.0024))


def test_frobenius_verdict_level_and_power(monkeypatch):
    """The counts ``_frobenius_verdict``'s docstring states: over d = 2,
    ``oracle:f=d``, n in {1e3, 1e5} and master seeds 0-199, the points
    that fail the bar at 3 and at 10 trials, for a correct oracle and
    for one drawn at twice its promised loss.  A trial's stream depends
    only on its seed, point and index, so the first 3 trials of each
    point of a 10-trial run are the 3-trial run's."""
    oracle = fb.oracle_estimate
    counts = []
    for scale in (1.0, 2.0):
        monkeypatch.setattr(fb, "oracle_estimate",
                            lambda rho, f, m, rng, k=scale:
                            oracle(rho, k * f, m, rng))
        fails = {3: 0, 10: 0}
        for seed in range(200):
            s = small(d=2, r=2, n_grid=(1_000, 100_000), trials=10,
                      master_seed=seed)
            records = hz.run_scenario(s)
            for trials in fails:
                kept = [rec for rec in records if rec.trial < trials]
                fails[trials] += sum(not passed for _, passed, _, _
                                     in hz.evaluate_guarantees(s, kept))
        counts.append((fails[3], fails[10]))
    assert counts == [(16, 10), (94, 249)]
    assert all(str(n) in hz._frobenius_verdict.__doc__
               for pair in counts for n in pair)
