"""Product testing: bounds, decomposition identities, both testers."""

import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from bureslab import accept, classical, config
from bureslab import divergences as dv
from bureslab import frobenius as fb
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
                mi = dv.quantum_mutual_information(rho, d)
                prod = np.kron(*linalg.marginals(rho, d))
                eta = math.sqrt(dv.hellinger_sq_q(rho, prod))
                assert mi <= analysis.hellinger_mi_bound(eta, d)

    def test_mi_bound_dominates_classical_joints(self):
        # classical tables embed as commuting states, same bound applies
        rng = np.random.default_rng(9)
        for _ in range(20):
            d = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(d * d)).reshape(d, d)
            mi = analysis.classical_mutual_information(p)
            prod = np.outer(p.sum(axis=1), p.sum(axis=0))
            eta = math.sqrt(dv.classical_chain(p.ravel(),
                                               prod.ravel())["hellinger_sq"])
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
                gap = abs(analysis.classical_mutual_information(p)
                          - analysis.classical_mutual_information(q))
                assert gap <= analysis.mi_continuity_bound(eps, d)

    def test_bounds_hold_on_depolarized_joints(self):
        # 1,000 random joints at d = 2 and 3, each smoothed over an eps
        # grid: continuity, the depolarizing shift, the bound assembled
        # at each eps, and the optimized bound itself.  The joints are
        # drawn in turn (d = 2, 3, 2, ...) and scored as one stack per d.
        rng = np.random.default_rng([accept._SEED, 11])
        eps_grid = np.geomspace(1e-3, 0.5, 7)
        joints = [linalg.random_density(d * d, d * d, rng)
                  for d in (2 + k % 2 for k in range(1_000))]
        v_cont = v_shift = v_assembled = v_direct = 0
        for d in (2, 3):
            rho = np.stack(joints[d - 2::2])
            eta = dv.hellinger_sq_q(rho, _product_of_marginals(rho, d))
            mi = dv.relative_entropy(rho, _product_of_marginals(rho, d))
            v_direct += sum(m > analysis.hellinger_mi_bound(e, d)
                            for m, e in zip(mi, eta))
            for eps in map(float, eps_grid):
                # analysis.depolarize, member by member
                sig = (1.0 - eps) * rho \
                    + eps * np.eye(d * d, dtype=complex) / (d * d)
                prod_s = _product_of_marginals(sig, d)
                mi_s = dv.relative_entropy(sig, prod_s)
                eps_tr = dv.trace_distance(rho, sig)
                v_cont += sum(abs(m - m_s)
                              > analysis.mi_continuity_bound(float(e), d)
                              for m, m_s, e in zip(mi, mi_s, eps_tr))
                h_s = dv.hellinger_sq_q(sig, prod_s)
                shift = analysis.depol_hellinger_shift(eps)
                v_shift += int(np.sum(h_s > shift + eta))
                # the pre-optimization form: smooth by eps, pay
                # continuity, bound the max log-ratio through the floor
                assembled = ((2.0 + math.log(d * d / eps ** 2))
                             * (shift + eta)
                             + analysis.mi_continuity_bound(eps, d))
                v_assembled += int(np.sum(mi > assembled))
        assert v_cont == 0
        assert v_shift == 0
        assert v_assembled == 0
        assert v_direct == 0


def _refuse_divergences(monkeypatch):
    """Make every public function of ``divergences`` raise when called."""
    def refused(*args, **kwargs):
        raise AssertionError("a divergence was computed")
    for name in dv.__all__:
        monkeypatch.setattr(dv, name, refused)


def _product_of_marginals(rho, d):
    """rho_A (x) rho_B for each member of an (n, d^2, d^2) stack."""
    t = rho.reshape(-1, d, d, d, d)
    ra = np.trace(t, axis1=2, axis2=4)
    rb = np.trace(t, axis1=1, axis2=3)
    return np.einsum("nij,nkl->nikjl", ra, rb).reshape(rho.shape)


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
        mis = [analysis.classical_mutual_information(
                   mt.correlated_joint(4, lam))
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
        assert dv.classical_chain(p, q)["chi2"] == pytest.approx(4.0 * eps_t)
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
        variance = mt.pearson_null_variance(q, 1000)
        assert v.stats["null_variance"] == variance
        assert v.stats["null_quantile"] == mt.pearson_null_quantile(16,
                                                                   variance)
        # one bin: the statistic is identically zero, and so is the quantile
        assert mt.pearson_null_quantile(1, 2.0) == 0.0

    @pytest.mark.parametrize("dof", [1, 3, 7, 15, 63, 255])
    def test_uniform_quantile_matches_chi2(self, dof):
        stats = pytest.importorskip("scipy.stats")
        q = np.full(dof + 1, 1.0 / (dof + 1))
        got = mt.pearson_null_quantile(q.size,
                                       mt.pearson_null_variance(q, 10_000))
        want = stats.chi2.ppf(config.PEARSON_NULL_LEVEL, dof)
        assert abs(got / want - 1.0) < 0.01

    def test_matches_monte_carlo_on_criterion_12_inputs(self):
        """The moment-matched quantile and the exact variance against a
        20,000-draw Monte Carlo null, on the learned products of
        Dirichlet(1) tables at criterion 12's d and eps
        (:func:`_criterion_12_product_input`).  Some of their bins
        expect well under one count, where plain chi2(k - 1) is too
        low."""
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
    """A Dirichlet(1) product table at criterion 12's d and eps, up to the
    identity test: the learned product q, the test size n, the gap eps_t
    and the true joint, drawn exactly as classical_mi_test draws them.
    The stream is ``[_SEED, 12, 0, t]``, trial t of criterion 12's
    product arm before that arm ran as a harness scenario; the inputs
    are kept, so trial 166 stays the sparsest."""
    d, eps = 8, 0.5
    rng = np.random.default_rng([accept._SEED, 12, 0, t])
    joint = np.outer(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)))
    plan = mt.classical_mi_plan(d, eps)
    counts = rng.multinomial(plan["n_learn"], joint.ravel()).reshape(d, d)
    qa = classical.add_one_hybrid(counts.sum(axis=1), plan["n_learn"], 0)
    qb = classical.add_one_hybrid(counts.sum(axis=0), plan["n_learn"], 0)
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
        """A refused gap is not cached: the second call raises too."""
        for _ in range(2):
            with pytest.raises(pl.ParameterError):
                mt.classical_mi_plan(8, 0.6)
            with pytest.raises(pl.ParameterError):
                mt.classical_mi_plan(8, 0.0)
            with pytest.raises(pl.ParameterError):
                mt.classical_mi_plan(1, 0.2)

    def test_plan_cached_and_handed_out_fresh(self):
        solve = mt._solve_classical_plan.__wrapped__
        for d, eps in ((2, 0.3), (8, 0.5), (5, 0.1)):
            plan = mt.classical_mi_plan(d, eps)
            assert plan == dict(solve(d, eps))
            plan["n_test"] = 1
            del plan["eps_t"]
            assert mt.classical_mi_plan(d, eps) == dict(solve(d, eps))

    def test_product_arm_accepts(self):
        rng = np.random.default_rng(31)
        accepts = sum(mt.classical_mi_test(np.full((8, 8), 1 / 64), 0.5,
                                           rng).accept for _ in range(10))
        assert accepts >= 9

    def test_correlated_arm_rejects(self):
        rng = np.random.default_rng(32)
        joint = mt.correlated_joint(8, 0.5)
        assert analysis.classical_mutual_information(joint) >= 0.5
        for _ in range(10):
            assert not mt.classical_mi_test(joint, 0.5, rng).accept

    def test_reads_no_divergence(self, monkeypatch):
        """The tester only draws, learns and tests: every public divergence
        may raise, and the stats hold the plan, the identity test's and
        the total sample count."""
        _refuse_divergences(monkeypatch)
        rng = np.random.default_rng(33)
        v = mt.classical_mi_test(mt.correlated_joint(8, 0.2), 0.5, rng)
        assert v.stats["n_total"] == v.stats["n_learn"] + v.stats["n_test"]
        assert set(v.stats) == {
            "n", "bins", "eps_t", "escaped", "statistic", "threshold",
            "null_quantile", "null_variance", "eps_dd", "n_learn", "n_test",
            "n_total"}

    def test_rejects_bad_tables(self):
        rng = np.random.default_rng(34)
        with pytest.raises(ValueError):
            mt.classical_mi_test(np.ones(4) / 4, 0.3, rng)
        with pytest.raises(ValueError):
            mt.classical_mi_test(np.full((2, 2), 0.3), 0.3, rng)

    def test_refuses_non_square_tables(self):
        """A 2 x 8 table would be planned as an 8 x 8 one; it is refused
        before any draw."""
        rng = np.random.default_rng(35)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="d x d"):
            mt.classical_mi_test(np.full((2, 8), 1 / 16), 0.5, rng)
        assert rng.bit_generator.state == state


#: sha256 of ``goldens/classical_mi.txt``, the text of
#: :func:`classical_golden`; any change to a verdict, to a stat's last
#: bit or to the tester's draws moves it
CLASSICAL_GOLDEN = (
    "77b52400d7583f901c4ceff9d14f69c6442223c7f344af7d597772a70be3a4f4")
GOLDENS = Path(__file__).resolve().parent / "goldens"


def classical_golden() -> str:
    """One line per seeded classical_mi_test call: its case, then
    ``repr((accept, sorted(stats.items())))``.

    The joints are the uniform product, two Dirichlet products and
    correlated_joint at lam 0.2, 0.5 and 1.0, at d in {2, 3, 8} and eps
    in {0.3, 0.5}.  At lam = 1 the off-diagonal cells are zero, so no
    sample lands there; the add-one product the counts are tested
    against stays positive, and the identity test reads it whole.  The
    stats carry no divergence of the joint, so the masked branch of the
    log-ratios is left to ``test_divergences``.
    """
    lines = []
    for d in (2, 3, 8):
        pick = np.random.default_rng([41, d])
        joints = {"uniform": np.full((d, d), 1.0 / (d * d))}
        for k in range(2):
            joints[f"dirichlet{k}"] = np.outer(pick.dirichlet(np.ones(d)),
                                               pick.dirichlet(np.ones(d)))
        for lam in (0.2, 0.5, 1.0):
            joints[f"lam={lam}"] = mt.correlated_joint(d, lam)
        for eps in (0.3, 0.5):
            rng = np.random.default_rng([42, d, round(10 * eps)])
            for name, joint in joints.items():
                v = mt.classical_mi_test(joint, eps, rng)
                lines.append(f"d={d} eps={eps} {name} "
                             + repr((v.accept, sorted(v.stats.items()))))
    return "\n".join(lines) + "\n"


def test_classical_golden():
    stored = (GOLDENS / "classical_mi.txt").read_text()
    assert hashlib.sha256(stored.encode()).hexdigest() == CLASSICAL_GOLDEN
    got = classical_golden()
    moved = [f"- {w}\n+ {g}" for w, g in
             zip(stored.splitlines(), got.splitlines()) if w != g]
    assert got == stored, "\n".join(moved)


# ---------------------------------------------------------------------------
# product decomposition
# ---------------------------------------------------------------------------

class TestProductDecomposition:
    def _random_case(self, rng, da, db):
        xi = linalg.random_density(da, da, rng)
        rho = linalg.random_density(db, db, rng)
        sg = analysis.depolarize(linalg.random_density(da, da, rng), 0.2)
        tu = analysis.depolarize(linalg.random_density(db, db, rng), 0.2)
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
        expect = (1 + dv.classical_chain(p, s)["chi2"]) \
            * (1 + dv.classical_chain(q, t)["chi2"]) - 1
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

#: the base estimator a Scenario names by default; f = d reads no rank
#: cap, so one spec serves every r
ORACLE = fb.parse_estimator("oracle:f=d", 1)


class TestQuantumLearning:
    def test_mixed_marginal_floored(self):
        rng = np.random.default_rng(51)
        third = linalg.maximally_mixed(4)
        ests, learning = mt.learn_product_quantum(
            linalg.maximally_mixed(16), 4, 0.004, rng, 4, ORACLE)
        assert learning["floor_ok"]
        for est, out in zip(ests, learning["runs"]):
            assert est.values[0] >= 0.004 / 4 - 1e-10
            assert dv.bures_chi2(third, est) <= 0.004
            assert out.consumed > 0

    def test_rank_one_marginal_close(self):
        rng = np.random.default_rng(52)
        joint = np.kron(linalg.random_density(4, 1, rng),
                        linalg.random_density(4, 1, rng))
        ests, _ = mt.learn_product_quantum(joint, 4, 0.01, rng, 4, ORACLE)
        for rho, est in zip(linalg.marginals(joint, 4), ests):
            assert np.trace(est.matrix()).real == pytest.approx(1.0,
                                                                abs=1e-9)
            assert dv.bures_chi2(rho, est) <= 5 * 0.01

    def test_resolved_small_eigenvalue_flags_floor(self):
        # a fully resolved spectrum with an entry under eps/d: flag, not
        # fail; the other marginal, Id/4, clears the floor
        rng = np.random.default_rng(53)
        rho = np.diag([0.004, 0.1, 0.3, 0.596]).astype(complex)
        (est, _), learning = mt.learn_product_quantum(
            np.kron(rho, linalg.maximally_mixed(4)), 4, 0.02, rng, 4,
            ORACLE)
        assert [out.prefix for out in learning["runs"]] == [0, 0]
        assert est.values[0] < 0.02 / 4
        assert not learning["floor_ok"]

    def test_product_learning_shares_copies(self):
        rng = np.random.default_rng(54)
        joint = linalg.correlated_pair_state(3, 0.5)
        (sg, tu), learning = mt.learn_product_quantum(
            joint, 3, 0.005, rng, 3, ORACLE)
        runs = learning["runs"]
        assert learning["joint_copies"] == max(out.consumed for out in runs)
        assert learning["floor_ok"]
        third = linalg.maximally_mixed(3)
        assert dv.bures_chi2(third, sg) <= 0.005
        assert dv.bures_chi2(third, tu) <= 0.005

    def test_learning_keeps_both_staged_runs(self):
        """The record is the two staged runs themselves, one per marginal
        on one shared plan, each drained by its relearn pass."""
        rng = np.random.default_rng(56)
        _, learning = mt.learn_product_quantum(
            linalg.correlated_pair_state(3, 0.5), 3, 0.005, rng, 2, ORACLE)
        runs = learning["runs"]
        assert len(runs) == 2
        assert all(isinstance(out, pl.CentralOutput) for out in runs)
        assert runs[0].params is runs[1].params
        assert [out.consumed for out in runs] == [runs[0].params.total] * 2
        assert learning["joint_copies"] == max(out.consumed for out in runs)
        assert set(learning) == {"runs", "joint_copies", "floor_ok"}

    def test_eps_learn_domain(self):
        rng = np.random.default_rng(55)
        for eps_learn in (0.7, 0.5, 0.0):
            with pytest.raises(pl.ParameterError, match="eps_learn"):
                mt.learn_product_quantum(linalg.maximally_mixed(4), 2,
                                         eps_learn, rng, 2, ORACLE)


class TestQuantumMITest:
    def test_plan_frozen(self):
        v = mt.quantum_mi_test(*linalg.maximally_mixed_eig(16), 4, 0.5,
                               np.random.default_rng(60), r=4, spec=ORACLE)
        assert v.stats["eps_prime"] == pytest.approx(0.0037570183356483424,
                                                     abs=1e-16)
        assert v.stats["eps_t"] == pytest.approx(0.007514036671296685,
                                                 abs=1e-16)
        assert v.stats["eps_learn"] == pytest.approx(
            0.49 * v.stats["eps_t"], abs=1e-16)

    @pytest.mark.parametrize("d, eps", [(2, 0.3), (3, 0.5), (4, 0.1)])
    def test_one_gap_law(self, d, eps):
        """Both testers turn an MI gap into the same working accuracy
        and testing gap."""
        plan = mt.classical_mi_plan(d, eps)
        v = mt.quantum_mi_test(*linalg.maximally_mixed_eig(d * d), d, eps,
                               np.random.default_rng(66), r=d, spec=ORACLE)
        assert (plan["eps_dd"], plan["eps_t"]) == (v.stats["eps_prime"],
                                                   v.stats["eps_t"])

    def test_product_arm_accepts(self):
        rng = np.random.default_rng(61)
        joint, joint_dec = linalg.correlated_pair_eig(3, 0.0)
        for _ in range(3):
            v = mt.quantum_mi_test(joint, joint_dec, 3, 0.5, rng,
                                   r=3, spec=ORACLE)
            assert v.accept
            assert dv.bures_chi2(joint, v.stats["product"]) \
                <= v.stats["eps_prime"]

    def test_correlated_arm_rejects(self):
        rng = np.random.default_rng(62)
        joint, joint_dec = linalg.correlated_pair_eig(3, 0.5)
        assert dv.quantum_mutual_information(joint, 3) >= 0.5
        for _ in range(3):
            v = mt.quantum_mi_test(joint, joint_dec, 3, 0.5, rng,
                                   r=3, spec=ORACLE)
            assert not v.accept
            assert v.stats["hellinger_sq"] >= 2 * v.stats["eps_t"]

    def test_verdict_reads_the_stats(self, monkeypatch):
        """The one divergence the tester computes is its verdict's input,
        the squared Hellinger distance of the joint from the learned
        product: every other public divergence may raise."""
        calls, hellinger = [], dv.hellinger_sq_q

        def counted(*args, **kwargs):
            calls.append(1)
            return hellinger(*args, **kwargs)
        _refuse_divergences(monkeypatch)
        monkeypatch.setattr(dv, "hellinger_sq_q", counted)
        rng = np.random.default_rng(63)
        v = mt.quantum_mi_test(*linalg.correlated_pair_eig(3, 0.5), 3, 0.5,
                               rng, r=3, spec=ORACLE)
        monkeypatch.undo()
        assert len(calls) == 1
        assert v.accept == (v.stats["hellinger_sq"]
                            < 2.0 * v.stats["eps_t"])

    def test_traces_each_marginal_once(self, monkeypatch):
        """One call traces out both marginals, for the learner alone, and
        the verdict carries the learned product and nothing scored
        against the true marginals."""
        calls, trace = [], linalg.marginals

        def counted(*args, **kwargs):
            calls.append(args)
            return trace(*args, **kwargs)
        monkeypatch.setattr(linalg, "marginals", counted)
        joint, joint_dec = linalg.correlated_pair_eig(3, 0.5)
        v = mt.quantum_mi_test(joint, joint_dec, 3, 0.5,
                               np.random.default_rng(65), r=3, spec=ORACLE)
        monkeypatch.undo()
        assert len(calls) == 1
        assert v.stats["hellinger_sq"] == dv.hellinger_sq_q(
            joint_dec, v.stats["product"])
        assert set(v.stats) == {"eps_prime", "eps_t", "eps_learn", "learning",
                                "joint_copies", "product", "hellinger_sq"}

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(64)
        with pytest.raises(ValueError):
            mt.quantum_mi_test(*linalg.maximally_mixed_eig(6), 2, 0.5, rng,
                               r=2, spec=ORACLE)
