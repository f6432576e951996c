"""Product testing: bounds, decomposition identities, both testers."""

import math

import numpy as np
import pytest

from bureslab import accept, config
from bureslab import divergences as dv
from bureslab import linalg
from bureslab import mitest as mt
from bureslab import pipeline as pl
from oracles import analysis


# ---------------------------------------------------------------------------
# bound functions
# ---------------------------------------------------------------------------

class TestBounds:
    def test_frozen_values(self):
        assert analysis.depol_hellinger_shift(0.04) == pytest.approx(
            1.931370849898476, abs=1e-14)
        assert analysis.mi_continuity_bound(0.01, 8) == pytest.approx(
            0.16141812177575637, abs=1e-14)
        assert analysis.hellinger_mi_bound(0.1, 4) == pytest.approx(
            15.04895891196916, abs=1e-12)

    def test_zero_and_domain(self):
        assert analysis.hellinger_mi_bound(0.0, 5) == 0.0
        assert analysis.mi_continuity_bound(0.0, 5) == 0.0
        with pytest.raises(ValueError):
            analysis.hellinger_mi_bound(-0.1, 4)
        with pytest.raises(ValueError):
            analysis.mi_continuity_bound(-0.1, 4)
        with pytest.raises(ValueError):
            analysis.depol_hellinger_shift(-1.0)

    def test_mi_bound_monotone_in_eta(self):
        grid = [analysis.hellinger_mi_bound(e, 6)
                for e in np.linspace(0.01, 1.5, 40)]
        assert all(b2 > b1 for b1, b2 in zip(grid, grid[1:]))

    def test_mi_bound_dominates_random_quantum_joints(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(10):
                rho = linalg.random_density(d * d, d * d, rng)
                mi = dv.quantum_mutual_information(rho, d, d)
                prod = np.kron(
                    linalg.partial_trace(rho, d, d, "A"),
                    linalg.partial_trace(rho, d, d, "B"))
                eta = math.sqrt(dv.hellinger_sq_q(rho, prod))
                assert mi <= analysis.hellinger_mi_bound(eta, d)

    def test_mi_bound_dominates_classical_joints(self):
        # classical tables embed as commuting states, same bound applies
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(d * d)).reshape(d, d)
            mi = dv.classical_mutual_information(p)
            prod = np.outer(p.sum(axis=1), p.sum(axis=0))
            eta = math.sqrt(dv.hellinger_sq(p.ravel(), prod.ravel()))
            assert mi <= analysis.hellinger_mi_bound(eta, d)

    def test_continuity_holds_on_mixtures(self):
        # q = (1-eps) p + eps r has TV(p, q) <= eps
        rng = np.random.default_rng(13)
        d = 5
        for eps in (0.02, 0.1):
            for _ in range(10):
                p = rng.dirichlet(np.ones(d * d)).reshape(d, d)
                r = rng.dirichlet(np.ones(d * d)).reshape(d, d)
                q = (1.0 - eps) * p + eps * r
                gap = abs(dv.classical_mutual_information(p)
                          - dv.classical_mutual_information(q))
                assert gap <= analysis.mi_continuity_bound(eps, d)

    def test_bounds_hold_on_depolarized_joints(self):
        # 1,000 random joints at d = 2 and 3, each smoothed over an eps
        # grid: continuity, the depolarizing shift, the bound assembled
        # at each eps, and the optimized bound itself
        rng = np.random.default_rng([accept._SEED, 11])
        eps_grid = np.geomspace(1e-3, 0.5, 7)
        v_cont = v_shift = v_assembled = v_direct = 0
        for k in range(1_000):
            d = 2 + (k % 2)
            rho = linalg.random_density(d * d, d * d, rng)
            ra = linalg.partial_trace(rho, d, d, "A")
            rb = linalg.partial_trace(rho, d, d, "B")
            eta = dv.hellinger_sq_q(rho, np.kron(ra, rb))
            mi = dv.quantum_mutual_information(rho, d, d)
            v_direct += mi > analysis.hellinger_mi_bound(eta, d)
            for eps in map(float, eps_grid):
                sig = linalg.depolarize(rho, eps)
                sa = linalg.partial_trace(sig, d, d, "A")
                sb = linalg.partial_trace(sig, d, d, "B")
                mi_s = dv.quantum_mutual_information(sig, d, d)
                eps_tr = dv.trace_distance(rho, sig)
                v_cont += (abs(mi - mi_s)
                           > analysis.mi_continuity_bound(eps_tr, d))
                h_s = dv.hellinger_sq_q(sig, np.kron(sa, sb))
                v_shift += h_s > analysis.depol_hellinger_shift(eps) + eta
                # the pre-optimization form: smooth by eps, pay
                # continuity, bound the max log-ratio through the floor
                assembled = ((2.0 + math.log(d * d / eps ** 2))
                             * (analysis.depol_hellinger_shift(eps) + eta)
                             + analysis.mi_continuity_bound(eps, d))
                v_assembled += mi > assembled
        assert v_cont == 0
        assert v_shift == 0
        assert v_assembled == 0
        assert v_direct == 0


# ---------------------------------------------------------------------------
# classical families and tester
# ---------------------------------------------------------------------------

class TestClassicalFamilies:
    def test_marginals_stay_uniform(self):
        for lam in (0.0, 0.3, 1.0):
            j = mt.correlated_joint(6, lam)
            assert j.sum() == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(j.sum(axis=1), np.full(6, 1 / 6),
                                       atol=1e-12)
            np.testing.assert_allclose(j.sum(axis=0), np.full(6, 1 / 6),
                                       atol=1e-12)

    def test_endpoints_and_monotone_mi(self):
        np.testing.assert_allclose(mt.correlated_joint(4, 0.0),
                                   np.full((4, 4), 1 / 16), atol=1e-15)
        mis = [dv.classical_mutual_information(mt.correlated_joint(4, lam))
               for lam in np.linspace(0.0, 1.0, 9)]
        assert mis[0] == pytest.approx(0.0, abs=1e-12)
        assert mis[-1] == pytest.approx(math.log(4), abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(mis, mis[1:]))

    def test_lam_domain(self):
        with pytest.raises(ValueError):
            mt.correlated_joint(4, 1.2)


class TestPearson:
    def test_null_accepts(self):
        rng = np.random.default_rng(21)
        q = np.full(16, 1 / 16)
        n, eps_t = 40_000, 0.005
        accepts = 0
        for _ in range(20):
            counts = rng.multinomial(n, q)
            accepts += mt.pearson_identity_test(q, counts, n, eps_t,
                                                rng).accept
        assert accepts >= 18

    def test_far_alternative_rejects(self):
        rng = np.random.default_rng(22)
        q = np.full(16, 1 / 16)
        n, eps_t = 40_000, 0.005
        p = q.copy()
        shift = math.sqrt(4.0 * eps_t / 256)  # chi2(p, q) = 256 shift^2
        p[:8] += shift
        p[8:] -= shift
        assert dv.chi_sq_divergence(p, q) == pytest.approx(4.0 * eps_t)
        for _ in range(20):
            counts = rng.multinomial(n, p)
            v = mt.pearson_identity_test(q, counts, n, eps_t, rng)
            assert not v.accept

    def test_out_of_support_rejects(self):
        rng = np.random.default_rng(23)
        q = np.array([0.5, 0.5, 0.0])
        counts = np.array([40, 50, 10])
        v = mt.pearson_identity_test(q, counts, 100, 0.1, rng, sims=200)
        assert not v.accept
        assert v.stats["escaped"] == 10
        assert math.isinf(v.stats["statistic"])

    def test_closed_form_draws_nothing(self):
        rng = np.random.default_rng(25)
        q = np.full(16, 1 / 16)
        counts = rng.multinomial(1000, q)
        state = rng.bit_generator.state
        v = mt.pearson_identity_test(q, counts, 1000, 0.1, rng)
        assert rng.bit_generator.state == state
        assert v.stats["null_quantile"] == mt.pearson_null_quantile(q, 1000)
        assert v.stats["null_variance"] == mt.pearson_null_variance(q, 1000)
        # one bin: the statistic is identically zero, and so is the quantile
        assert mt.pearson_null_quantile(np.ones(1), 10) == 0.0

    @pytest.mark.parametrize("dof", [1, 3, 7, 15, 63, 255])
    def test_uniform_quantile_matches_chi2(self, dof):
        stats = pytest.importorskip("scipy.stats")
        q = np.full(dof + 1, 1.0 / (dof + 1))
        got = mt.pearson_null_quantile(q, 10_000)
        want = stats.chi2.ppf(config.PEARSON_NULL_LEVEL, dof)
        assert abs(got / want - 1.0) < 0.01

    def test_matches_monte_carlo_on_criterion_12_inputs(self):
        """The moment-matched quantile and the exact variance against a
        20,000-draw Monte Carlo null, on the learned products that
        criterion 12's product arm tests against.  Some of their bins
        expect well under one count, where plain chi2(k - 1) is too low."""
        stats = pytest.importorskip("scipy.stats")
        plain_ratio = []
        for t in range(20):
            q, n, eps_t, _ = _criterion_12_product_input(t)
            counts = np.random.default_rng(t).multinomial(n, q)
            closed = mt.pearson_identity_test(q, counts, n, eps_t, None)
            mc = mt.pearson_identity_test(q, counts, n, eps_t,
                                          np.random.default_rng(t),
                                          sims=20_000)
            for key in ("null_quantile", "null_variance"):
                assert abs(closed.stats[key] / mc.stats[key] - 1.0) < 0.05, \
                    (t, key)
            plain_ratio.append(stats.chi2.ppf(config.PEARSON_NULL_LEVEL,
                                              q.size - 1)
                               / mc.stats["null_quantile"])
        # the check has power: plain chi2(k - 1) misses it on some input
        assert min(plain_ratio) < 0.95

    def test_sparsest_criterion_12_input_keeps_its_level(self):
        """Trial 166 expects 0.0067 counts in its emptiest bin.  There the
        closed-form quantile sits well below the Monte Carlo one, and
        the margin must keep false rejections of the true product (the
        joint the counts come from) below the nominal level."""
        q, n, eps_t, joint = _criterion_12_product_input(166)
        assert (n * q).min() < 0.01
        rng = np.random.default_rng(166)
        closed = mt.pearson_identity_test(q, rng.multinomial(n, joint), n,
                                          eps_t, rng)
        mc = mt.pearson_identity_test(q, rng.multinomial(n, joint), n,
                                      eps_t, rng, sims=20_000)
        assert closed.stats["null_quantile"] < mc.stats["null_quantile"]
        draws = rng.multinomial(n, joint, size=20_000)
        statistic = np.sum((draws - n * q) ** 2 / (n * q), axis=1)
        false_rejections = np.mean(statistic > closed.stats["threshold"])
        assert false_rejections <= 1.0 - config.PEARSON_NULL_LEVEL

    def test_domain(self):
        rng = np.random.default_rng(24)
        with pytest.raises(pl.ParameterError):
            mt.pearson_identity_test(np.full(4, 0.25), np.zeros(4), 10, 0.7,
                                     rng)
        with pytest.raises(ValueError):
            mt.pearson_identity_test(np.full(4, 0.25), np.zeros(5), 10, 0.1,
                                     rng)
        with pytest.raises(ValueError, match="sims"):
            mt.pearson_identity_test(np.full(4, 0.25), np.zeros(4), 10, 0.1,
                                     rng, sims=-1)


def _criterion_12_product_input(t):
    """Trial t of criterion 12's product arm, up to the identity test:
    the learned product q, the test size n, the gap eps_t and the true
    joint, drawn exactly as classical_mi_test draws them."""
    d, eps = 8, 0.5
    rng = np.random.default_rng([accept._SEED, 12, 0, t])
    joint = np.outer(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)))
    plan = mt.classical_mi_plan(d, eps)
    counts = rng.multinomial(plan["n_learn"], joint.ravel())
    qa, qb = mt.learn_marginals(counts.reshape(d, d), plan["n_learn"])
    return (np.outer(qa, qb).ravel(), plan["n_test"], plan["eps_t"],
            joint.ravel())


class TestClassicalMITest:
    def test_plan_frozen(self):
        plan = mt.classical_mi_plan(8, 0.5)
        assert plan["eps_dd"] == pytest.approx(0.0028177637517362566,
                                               abs=1e-16)
        assert plan["eps_t"] == pytest.approx(0.005635527503472513, abs=1e-16)
        assert plan["n_learn"] == 3406958
        assert plan["n_test"] == 22714

    def test_gap_domain(self):
        with pytest.raises(pl.ParameterError):
            mt.classical_mi_plan(8, 0.6)
        with pytest.raises(pl.ParameterError):
            mt.classical_mi_plan(8, 0.0)
        with pytest.raises(pl.ParameterError):
            mt.classical_mi_plan(1, 0.2)

    def test_product_arm_accepts(self):
        rng = np.random.default_rng(31)
        accepts = sum(mt.classical_mi_test(np.full((8, 8), 1 / 64), 0.5,
                                           rng).accept for _ in range(10))
        assert accepts >= 9

    def test_correlated_arm_rejects(self):
        rng = np.random.default_rng(32)
        joint = mt.correlated_joint(8, 0.5)
        assert dv.classical_mutual_information(joint) >= 0.5
        for _ in range(10):
            assert not mt.classical_mi_test(joint, 0.5, rng).accept

    def test_stats_carry_truth(self):
        rng = np.random.default_rng(33)
        joint = mt.correlated_joint(8, 0.2)
        v = mt.classical_mi_test(joint, 0.5, rng)
        assert v.stats["mi"] == pytest.approx(
            dv.classical_mutual_information(joint), abs=1e-12)
        assert v.stats["n_total"] == v.stats["n_learn"] + v.stats["n_test"]
        assert v.stats["chi2_product"] >= v.stats["hellinger_sq_product"]

    def test_rejects_bad_tables(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValueError):
            mt.classical_mi_test(np.ones(4) / 4, 0.3, rng)
        with pytest.raises(ValueError):
            mt.classical_mi_test(np.full((2, 2), 0.3), 0.3, rng)


# ---------------------------------------------------------------------------
# product decomposition
# ---------------------------------------------------------------------------

class TestProductDecomposition:
    def _random_case(self, rng, da, db):
        xi = linalg.random_density(da, da, rng)
        rho = linalg.random_density(db, db, rng)
        sg = linalg.depolarize(linalg.random_density(da, da, rng), 0.2)
        tu = linalg.depolarize(linalg.random_density(db, db, rng), 0.2)
        return xi, rho, sg, tu

    def test_total_matches_kron_route(self):
        # independent route: eigendecompose the joint reference directly
        rng = np.random.default_rng(41)
        for da, db in [(2, 2), (3, 3), (4, 2), (2, 5)]:
            xi, rho, sg, tu = self._random_case(rng, da, db)
            dec = analysis.product_chi2_decomposition(xi, rho, sg, tu)
            direct = dv.bures_chi2(np.kron(xi, rho), np.kron(sg, tu))
            assert dec["total"] == pytest.approx(direct, rel=1e-10)
            assert dec["total"] == pytest.approx(
                dec["on_on"] + dec["on_off"] + dec["off_off"], rel=1e-12)

    def test_block_identities_and_floor_bound(self):
        rng = np.random.default_rng(42)
        for da, db in [(3, 3), (4, 4), (2, 4)]:
            xi, rho, sg, tu = self._random_case(rng, da, db)
            dec = analysis.product_chi2_decomposition(xi, rho, sg, tu)
            ctl = analysis.product_chi2_controls(xi, rho, sg, tu)
            assert dec["on_on"] == pytest.approx(ctl["on_on"], rel=1e-10)
            assert dec["on_off"] == pytest.approx(ctl["on_off"], rel=1e-10)
            assert dec["off_off"] <= ctl["off_off_bound"] * (1 + 1e-12)
            assert ctl["floor_eps"] > 0.0

    def test_on_on_is_diagonal_chi_square_product(self):
        # commuting diagonal inputs: only the on_on block is populated
        rng = np.random.default_rng(43)
        p = rng.dirichlet(np.ones(4))
        q = rng.dirichlet(np.ones(4)) * 0.5 + 0.125
        s = rng.dirichlet(np.ones(4)) * 0.5 + 0.125
        t = rng.dirichlet(np.ones(4)) * 0.5 + 0.125
        dec = analysis.product_chi2_decomposition(
            *(np.diag(v).astype(complex) for v in (p, q, s, t)))
        expect = (1 + dv.chi_sq_divergence(p, s)) \
            * (1 + dv.chi_sq_divergence(q, t)) - 1
        assert dec["on_off"] == pytest.approx(0.0, abs=1e-12)
        assert dec["off_off"] == pytest.approx(0.0, abs=1e-12)
        assert dec["total"] == pytest.approx(expect, rel=1e-10)

    def test_rank_deficient_reference_rejected(self):
        rng = np.random.default_rng(44)
        xi = linalg.random_density(3, 3, rng)
        rho = linalg.random_density(3, 3, rng)
        sg = linalg.random_density(3, 1, rng)  # zero eigenvalues
        tu = linalg.maximally_mixed(3)
        with pytest.raises(pl.ParameterError):
            analysis.product_chi2_decomposition(xi, rho, sg, tu)


# ---------------------------------------------------------------------------
# quantum marginal learning and tester
# ---------------------------------------------------------------------------

class TestQuantumLearning:
    def test_mixed_marginal_floored(self):
        rng = np.random.default_rng(51)
        rho = linalg.maximally_mixed(4)
        est, rec = mt.learn_marginal_floored(rho, 0.004, rng)
        assert rec["floor_ok"]
        assert rec["min_eigenvalue"] >= 0.004 / 4 - 1e-10
        assert dv.bures_chi2(rho, est) <= 0.004
        assert rec["consumed"] > 0

    def test_rank_one_marginal_close(self):
        rng = np.random.default_rng(52)
        rho = linalg.random_density(4, 1, rng)
        est, rec = mt.learn_marginal_floored(rho, 0.01, rng)
        assert np.trace(est).real == pytest.approx(1.0, abs=1e-9)
        assert dv.bures_chi2(rho, est) <= 5 * 0.01

    def test_resolved_small_eigenvalue_flags_floor(self):
        # fully resolved spectrum with an entry under eps/d: flag, not fail
        rng = np.random.default_rng(53)
        rho = np.diag([1e-4, 0.0099, 0.02, 0.9700 + 1e-4]).astype(complex)
        rho /= np.trace(rho).real
        est, rec = mt.learn_marginal_floored(rho, 0.01, rng)
        if rec["prefix"] == 0:
            assert not rec["floor_ok"]

    def test_product_learning_shares_copies(self):
        rng = np.random.default_rng(54)
        joint = linalg.correlated_pair_state(3, 0.5)
        sg, tu, rec = mt.learn_product_quantum(joint, 3, 3, 0.005, rng)
        assert rec["joint_copies"] == max(rec["a"]["consumed"],
                                          rec["b"]["consumed"])
        assert rec["floor_ok"]
        third = linalg.maximally_mixed(3)
        assert dv.bures_chi2(third, sg) <= 0.005
        assert dv.bures_chi2(third, tu) <= 0.005

    def test_eps_learn_domain(self):
        rng = np.random.default_rng(55)
        with pytest.raises(pl.ParameterError):
            mt.learn_marginal_floored(linalg.maximally_mixed(2), 0.7, rng)


class TestQuantumMITest:
    def test_plan_frozen(self):
        plan = mt.quantum_mi_plan(4, 0.5)
        assert plan["eps_prime"] == pytest.approx(0.0037570183356483424,
                                                  abs=1e-16)
        assert plan["eps_t"] == pytest.approx(0.007514036671296685, abs=1e-16)
        assert plan["eps_learn"] == pytest.approx(0.49 * plan["eps_t"],
                                                  abs=1e-16)

    def test_product_arm_accepts(self):
        rng = np.random.default_rng(61)
        joint = linalg.correlated_pair_state(3, 0.0)
        for _ in range(3):
            v = mt.quantum_mi_test(joint, 3, 3, 0.5, rng)
            assert v.accept
            assert v.stats["bures_chi2_product"] <= v.stats["eps_prime"]
            assert v.stats["mi"] == pytest.approx(0.0, abs=1e-10)

    def test_correlated_arm_rejects(self):
        rng = np.random.default_rng(62)
        joint = linalg.correlated_pair_state(3, 0.5)
        assert dv.quantum_mutual_information(joint, 3, 3) >= 0.5
        for _ in range(3):
            v = mt.quantum_mi_test(joint, 3, 3, 0.5, rng)
            assert not v.accept
            assert v.stats["hellinger_sq"] >= 2 * v.stats["eps_t"]
            assert v.stats["mi"] == dv.quantum_mutual_information(joint, 3, 3)

    def test_verdict_reads_the_stats(self, monkeypatch):
        """After learning: one eigh each for the joint, the learned
        product and the product of the joint's marginals."""
        calls, eigh, learn = [], np.linalg.eigh, mt.learn_product_quantum

        def counted(*args, **kwargs):
            calls.append(1)
            return eigh(*args, **kwargs)

        def learned(*args, **kwargs):
            out = learn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, "eigh", counted)
            return out
        monkeypatch.setattr(mt, "learn_product_quantum", learned)
        rng = np.random.default_rng(63)
        v = mt.quantum_mi_test(linalg.correlated_pair_state(3, 0.5), 3, 3,
                               0.5, rng)
        monkeypatch.undo()
        assert len(calls) == 3
        assert v.accept == mt.hellinger_gap_verdict(v.stats["hellinger_sq"],
                                                    v.stats["eps_t"])

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(64)
        with pytest.raises(ValueError):
            mt.quantum_mi_test(linalg.maximally_mixed(6), 2, 2, 0.5, rng)
