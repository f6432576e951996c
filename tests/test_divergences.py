import numpy as np
import pytest
from scipy.linalg import solve_sylvester

from bureslab import cli, config
from bureslab import divergences as dv
from bureslab import linalg
from oracles import analysis


def overlap(p, q):
    """Bhattacharyya coefficient sum_i sqrt(p_i q_i)."""
    return float(np.sum(np.sqrt(np.multiply(p, q))))


def conjugate(u, a):
    """u a u^dagger."""
    return u @ a @ u.conj().T


def bures_sq(rho, sigma):
    """Squared Bures distance 2 (1 - fidelity), the chain's entry."""
    return 2.0 * (1.0 - dv.fidelity(rho, sigma))


def random_pair(d, rng, ranks=(None, None)):
    ra = ranks[0] or d
    rb = ranks[1] or d
    return linalg.random_density(d, ra, rng), linalg.random_density(d, rb, rng)


def chain_pairs(rng):
    """Full rank, odd-d rank deficiency, d=2 pure vs dephased, pure vs rank 2."""
    for _ in range(5):
        yield random_pair(8, rng)
        yield random_pair(7, rng, ranks=(3, 5))
        pure = linalg.random_pure(2, rng)
        yield pure, np.diag(np.diag(pure))
        yield linalg.random_pure(5, rng), linalg.random_density(5, 2, rng)


class TestClassical:
    def test_disjoint_supports(self):
        p, q = [1.0, 0.0], [0.0, 1.0]
        c = dv.classical_chain(p, q)
        assert c["tv"] == 1.0
        assert c["hellinger_sq"] == 2.0
        assert overlap(p, q) == 0.0
        assert c["kl"] == np.inf
        assert c["chi2"] == np.inf
        assert c["max_log_ratio"] == np.inf

    def test_zero_conventions(self):
        # shared zeros are ignored, not fatal
        p = [0.5, 0.5, 0.0]
        q = [0.25, 0.75, 0.0]
        assert np.isfinite(dv.classical_chain(p, q)["kl"])
        assert np.isfinite(dv.classical_chain(p, q)["chi2"])
        # q-only zero under positive p mass blows up
        assert dv.classical_chain([0.5, 0.5], [1.0, 0.0])["chi2"] == np.inf
        # p-only zero is fine
        assert np.isfinite(dv.classical_chain([1.0, 0.0], [0.5, 0.5])["kl"])

    def test_identical(self):
        p = [0.2, 0.3, 0.5]
        c = dv.classical_chain(p, p)
        assert c["kl"] == 0.0
        assert c["chi2"] == 0.0
        assert c["hellinger_sq"] == 0.0

    def test_hellinger_vs_bhattacharyya(self):
        rng = np.random.default_rng(5)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        assert abs(dv.classical_chain(p, q)["hellinger_sq"]
                   - 2 * (1 - overlap(p, q))) < 1e-12

    def test_renyi_special_orders(self):
        rng = np.random.default_rng(9)
        p = rng.dirichlet(np.ones(5))
        q = rng.dirichlet(np.ones(5))
        # order 2 against chi-square, order 1/2 against the overlap
        assert abs(dv.renyi_divergence(p, q, 2.0)
                   - np.log(1.0 + dv.classical_chain(p, q)["chi2"])) < 1e-12
        assert abs(dv.renyi_divergence(p, q, 0.5)
                   + 2.0 * np.log(overlap(p, q))) < 1e-12
        with pytest.raises(ValueError):
            dv.renyi_divergence(p, q, 1.0)

    def test_bhattacharyya_tensorizes(self):
        rng = np.random.default_rng(15)
        p1, q1 = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        p2, q2 = rng.dirichlet(np.ones(4)), rng.dirichlet(np.ones(4))
        joint = overlap(np.outer(p1, p2).ravel(), np.outer(q1, q2).ravel())
        assert abs(joint - overlap(p1, q1) * overlap(p2, q2)) < 1e-12

    def test_chain_on_random_pairs(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            p = rng.dirichlet(np.ones(7))
            q = rng.dirichlet(np.ones(7))
            c = dv.classical_chain(p, q)
            h = np.sqrt(c["hellinger_sq"])
            assert 0.5 * c["hellinger_sq"] <= c["tv"] + 1e-12
            assert c["tv"] <= h + 1e-12
            assert h <= np.sqrt(c["kl"]) + 1e-12
            assert c["kl"] <= c["chi2"] + 1e-12
            assert c["kl"] <= c["reverse_bound"] + 1e-12

    def test_subnormalized_inputs_accepted(self):
        p = [0.1, 0.2]
        q = [0.15, 0.15]
        assert dv.classical_chain(p, q)["chi2"] == pytest.approx(
            (0.1 - 0.15) ** 2 / 0.15 + (0.2 - 0.15) ** 2 / 0.15)

    def test_classical_mutual_information(self):
        # the chain's KL against the product of the marginals; the
        # perfectly correlated table's zeros take its masked branch
        mi = analysis.classical_mutual_information
        pa = np.array([0.3, 0.7])
        pb = np.array([0.6, 0.4])
        assert mi(np.outer(pa, pb)) == pytest.approx(0.0, abs=1e-12)
        perfect = np.diag([0.5, 0.5])
        assert mi(perfect) == pytest.approx(np.log(2))


class TestWeights:
    """``_weights`` hands a positive vector back uncopied, so no classical
    function may write to its clipped inputs."""

    def _inputs(self):
        rng = np.random.default_rng(71)
        positive = rng.dirichlet(np.ones(6), size=2)
        edged = positive.copy()
        edged[:, 0] = -0.0
        edged[:, 1] = -0.5 * config.PSD_TOL
        edged[1, 2] = 0.0
        return positive, edged

    def test_inputs_left_unchanged(self):
        for p, q in self._inputs():
            for args in ((p[0], q[0]), (p, q), (p[0], p[1])):
                kept = [a.copy() for a in args]
                dv.classical_chain(*args)
                if args[0].ndim == 1:
                    dv.renyi_divergence(*args, 2.0)
                    dv.renyi_divergence(*args, 0.5)
                    # the chain on views of the input
                    analysis.classical_mutual_information(
                        args[0].reshape(2, 3))
                for a, k in zip(args, kept):
                    assert np.array_equal(np.signbit(a), np.signbit(k))
                    assert np.array_equal(a, k)

    def test_positive_vector_is_not_copied(self):
        p = self._inputs()[0]
        assert dv._weights(p) is p

    @pytest.mark.parametrize("row", [0, 1])
    def test_clipped_like_maximum(self, row):
        """-0.0 and entries in (-PSD_TOL, 0) come back as +0.0, exactly as
        np.maximum(p, 0.0) gives them; row 0 holds a -0.0 with no other
        zero, row 1 also a +0.0."""
        p = self._inputs()[1][row]
        want = np.maximum(p, 0.0)
        got = dv._weights(p)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))
        assert not np.signbit(got).any()
        only_negative_zero = np.array([0.25, -0.0, 0.75])
        assert not np.signbit(dv._weights(only_negative_zero)).any()

    def test_below_tolerance_raises(self):
        p = np.array([0.5, -2.0 * config.PSD_TOL, 0.5])
        with pytest.raises(ValueError, match="negative weight"):
            dv._weights(p)
        with pytest.raises(ValueError, match="negative weight"):
            dv.classical_chain(p, np.full(3, 1 / 3))


class TestQuantum:
    def test_overlap_pair_marginals(self):
        rng = np.random.default_rng(25)
        rho, sigma = random_pair(5, rng)
        pp, qq = dv.overlap_pair(rho, sigma)
        p = np.sort(np.linalg.eigvalsh(rho))
        q = np.sort(np.linalg.eigvalsh(sigma))
        assert np.max(np.abs(np.sort(pp.sum(axis=1)) - np.clip(p, 0, None))) < 1e-10
        assert np.max(np.abs(np.sort(qq.sum(axis=0)) - np.clip(q, 0, None))) < 1e-10

    def test_commuting_reduces_to_classical(self):
        p = np.array([0.5, 0.3, 0.2])
        q = np.array([0.25, 0.25, 0.5])
        rho, sigma = np.diag(p).astype(complex), np.diag(q).astype(complex)
        c = dv.classical_chain(p, q)
        assert dv.relative_entropy(rho, sigma) == pytest.approx(c["kl"])
        assert dv.trace_distance(rho, sigma) == pytest.approx(c["tv"])
        assert dv.hellinger_sq_q(rho, sigma) == pytest.approx(
            c["hellinger_sq"])
        assert dv.bures_chi2(rho, sigma) == pytest.approx(c["chi2"])

    def test_trace_distance_refuses_a_non_hermitian_input(self):
        rho = linalg.random_density(3, 3, np.random.default_rng(27))
        skew = rho + 1e-3j * np.triu(np.ones((3, 3)), 1)
        with pytest.raises(ValueError, match="not Hermitian"):
            dv.trace_distance(skew, rho)

    def test_fidelity_pure_and_self(self):
        rng = np.random.default_rng(33)
        rho = linalg.random_density(4, 4, rng)
        assert dv.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
        v = np.array([1, 0, 0, 0.0], dtype=complex)
        w = np.array([1, 1, 0, 0.0], dtype=complex) / np.sqrt(2)
        f = dv.fidelity(np.outer(v, v.conj()), np.outer(w, w.conj()))
        assert f == pytest.approx(abs(np.vdot(v, w)), abs=1e-9)

    def test_bures_hellinger_sandwich(self):
        rng = np.random.default_rng(39)
        for _ in range(25):
            rho, sigma = random_pair(4, rng)
            db2 = bures_sq(rho, sigma)
            dh2 = dv.hellinger_sq_q(rho, sigma)
            assert db2 <= dh2 + 1e-9
            assert dh2 <= 2 * db2 + 1e-9

    def test_quantum_chain(self):
        """Every link ``bureslab divergence`` checks holds at its slack, on
        full-rank d = 4 pairs and, in both orders, on the pure,
        rank-deficient, degenerate, near-cutoff and orthogonal pairs at
        d in {2, 3, 7}."""
        rng = np.random.default_rng(45)
        pairs = [("full-rank", *random_pair(4, rng)) for _ in range(25)]
        for name, rho, sigma in root_route_pairs(np.random.default_rng(83)):
            pairs += [(name, rho, sigma), (name + " reversed", sigma, rho)]
        for name, rho, sigma in pairs:
            links = cli._chain_verdicts(dv.quantum_chain(rho, sigma),
                                        quantum=True)
            assert len(links) == 6
            for link, lhs, rhs in links:
                assert lhs <= rhs + cli.SLACK, (name, link)

    def test_kl_can_exceed_bures_chi2(self):
        """The pure state (sqrt p, sqrt(1-p)) against its dephasing: KL is
        the binary entropy H(p), Bures chi2 is 4p(1-p), and at p = 0.01
        the first is larger.  The Petz chi2 tr(rho^2 sigma^-1) - 1 = 1
        still bounds KL."""
        p = 0.01
        psi = np.array([np.sqrt(p), np.sqrt(1 - p)], dtype=complex)
        rho = np.outer(psi, psi.conj())
        sigma = np.diag([p, 1 - p]).astype(complex)
        c = dv.quantum_chain(rho, sigma)
        entropy = -p * np.log(p) - (1 - p) * np.log(1 - p)
        assert c["kl"] == pytest.approx(entropy, rel=1e-9)
        assert c["bures_chi2"] == pytest.approx(4 * p * (1 - p), rel=1e-9)
        assert round(c["kl"], 4) == 0.0560
        assert round(c["bures_chi2"], 4) == 0.0396
        petz = np.trace(rho @ rho @ np.linalg.inv(sigma)).real - 1.0
        assert c["kl"] <= petz

    def test_quantum_chain_diagonalizes_each_state_once(self, monkeypatch):
        rho, sigma = random_pair(8, np.random.default_rng(71))
        calls = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)
        for name in calls:
            def counted(*args, _name=name, _kernel=getattr(np.linalg, name),
                        **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        dv.quantum_chain(rho, sigma)
        assert calls == {"eigh": 2, "eigvalsh": 1, "svd": 1}

    def test_quantum_chain_equals_public_functions(self):
        public = {
            "trace_distance": dv.trace_distance, "bures_sq": bures_sq,
            "hellinger_sq": dv.hellinger_sq_q, "kl": dv.relative_entropy,
            "bures_chi2": dv.bures_chi2,
            "max_log_ratio": analysis.max_log_ratio_q,
            "reverse_bound": analysis.reverse_pinsker_bound,
        }
        either_form = (dv.fidelity, dv.hellinger_sq_q,
                       dv.relative_entropy, analysis.max_log_ratio_q,
                       analysis.reverse_pinsker_bound,
                       lambda a, b: dv.renyi_divergence_q(a, b, 0.5),
                       lambda a, b: dv.renyi_divergence_q(a, b, 2.0))
        for rho, sigma in chain_pairs(np.random.default_rng(73)):
            chain = dv.quantum_chain(rho, sigma)
            assert chain.keys() == public.keys()
            for key, fn in public.items():
                assert chain[key] == fn(rho, sigma), key
            dr, ds = linalg.decompose(rho), linalg.decompose(sigma)
            for fn in either_form:
                assert fn(dr, ds) == fn(rho, sigma)
            assert dv.bures_chi2(rho, ds) == dv.bures_chi2(rho, sigma)
            for got, want in zip(dv.overlap_pair(dr, ds),
                                 dv.overlap_pair(rho, sigma)):
                assert np.array_equal(got, want)

    def test_max_log_ratio_bounded_by_reference_spectrum(self):
        rng = np.random.default_rng(49)
        rho, sigma = random_pair(5, rng)
        bound = np.log(1.0 / np.min(np.linalg.eigvalsh(sigma)))
        assert dv.quantum_chain(rho, sigma)["max_log_ratio"] <= bound + 1e-9

    def test_quantum_mi_product_is_zero(self):
        rng = np.random.default_rng(51)
        a = linalg.random_density(3, 2, rng)
        b = linalg.random_density(3, 3, rng)
        mi = dv.quantum_mutual_information(np.kron(a, b), 3)
        assert abs(mi) < 1e-8

    def test_quantum_mi_correlated_family(self):
        # I = 2 ln d - S(rho_lam), from the known spectrum of the family
        d, lam = 3, 0.4
        rho = linalg.correlated_pair_eig(d, lam)[0]
        base = (1 - lam) / d ** 2
        w = np.full(d * d, base)
        w[0] += lam
        entropy = -np.sum(w * np.log(w))
        want = 2 * np.log(d) - entropy
        got = dv.quantum_mutual_information(rho, d)
        assert got == pytest.approx(want, abs=1e-9)


def root_route_pairs(rng):
    """Pure, rank-deficient, degenerate and near-cutoff pairs, at d = 2
    and odd d among others."""
    def in_basis(u, values):
        return (u * values) @ u.conj().T

    for d in (2, 3, 7):
        u = linalg.haar_unitary(d, rng)
        yield "pure-pure", linalg.random_pure(d, rng), linalg.random_pure(d, rng)
        yield "pure-full", linalg.random_pure(d, rng), \
            linalg.random_density(d, d, rng)
        yield "pure-itself", *(linalg.random_pure(d, rng),) * 2
        r = max(1, d // 2)
        yield "rank-deficient", linalg.random_density(d, r, rng), \
            linalg.random_density(d, d - r, rng)
        yield "degenerate", linalg.maximally_mixed_eig(d)[0], \
            in_basis(u, np.r_[np.full(d - 1, 0.5 / (d - 1)), 0.5])
        near = np.ones(d)  # one value under the cutoff, the rest just over
        near[0], near[1:-1] = 0.5e-12, 2e-12
        yield "near-cutoff", in_basis(u, near / near.sum()), \
            linalg.random_density(d, d, rng)
        yield "near-cutoff-both", in_basis(u, near / near.sum()), \
            in_basis(linalg.haar_unitary(d, rng), near[::-1] / near.sum())
        yield "orthogonal", in_basis(u, np.eye(d)[0]), \
            in_basis(u, np.eye(d)[-1])


class TestRootRoute:
    """Fidelity and Hellinger read off the eigenbasis overlap equal the
    matrix-square-root formulas (``oracles.analysis``)."""

    ROUTES = ((dv.fidelity, analysis.fidelity_by_roots),
              (dv.hellinger_sq_q, analysis.hellinger_sq_q_by_roots),
              (bures_sq, analysis.bures_sq_by_roots))

    def test_matches_the_matrix_roots(self):
        for name, rho, sigma in root_route_pairs(np.random.default_rng(83)):
            dr, ds = linalg.decompose(rho), linalg.decompose(sigma)
            for new, old in self.ROUTES:
                want = old(rho, sigma)
                for a, b in ((rho, sigma), (dr, ds), (sigma, rho)):
                    assert abs(new(a, b) - want) <= 1e-12, \
                        (name, new.__name__)

    def test_refuses_a_negative_value(self):
        bad = np.diag([1.0 + 2e-10, -2e-10])
        for new, _ in self.ROUTES:
            with pytest.raises(ValueError, match="not PSD"):
                new(bad, np.eye(2) / 2)
            with pytest.raises(ValueError, match="not PSD"):
                new(np.eye(2) / 2, bad)

    def test_empty_support_gives_zero(self):
        rho = linalg.random_density(3, 2, np.random.default_rng(89))
        zero = np.zeros((3, 3))
        for a, b in ((zero, rho), (rho, zero), (zero, zero)):
            assert dv.fidelity(a, b) == 0.0
            assert dv.hellinger_sq_q(a, b) == 2.0

    def test_rank_r_truth_takes_an_r_by_k_solve(self, monkeypatch):
        rng = np.random.default_rng(97)
        _, truth = linalg.random_density_eig(16, 2, rng)
        est = linalg.decompose(linalg.random_density(16, 16, rng))
        shapes, svd = [], np.linalg.svd

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "svd", counted)
        dv.fidelity(truth, est)
        assert shapes == [(2, 16)]


class TestBuresChi2:
    def test_frozen_qubit_example(self):
        # frozen from tests/oracles/bures_chi2_oracle.py
        sigma = np.eye(2, dtype=complex) / 2
        rho = np.array([[0.5, 0.25], [0.25, 0.5]], dtype=complex)
        assert dv.bures_chi2(rho, sigma) == pytest.approx(0.25, abs=1e-12)

    def test_frozen_random_pair(self):
        # frozen from tests/oracles/bures_chi2_oracle.py, seed 20260816
        rng = np.random.default_rng(20260816)
        g1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        g2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g1 @ g1.conj().T
        rho /= np.trace(rho).real
        sigma = g2 @ g2.conj().T
        sigma /= np.trace(sigma).real
        assert dv.bures_chi2(rho, sigma) == pytest.approx(32.230002557600, rel=1e-9)

    def test_frozen_diagonal_pair(self):
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        sigma = np.diag([0.4, 0.35, 0.25]).astype(complex)
        assert dv.bures_chi2(rho, sigma) == pytest.approx(0.042142857143, abs=1e-10)

    def test_sylvester_dual_route(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            rho, sigma = random_pair(4, rng)
            tau = rho - sigma
            omega = solve_sylvester(sigma, sigma, tau)
            want = 2.0 * np.trace(tau.conj().T @ omega).real
            assert dv.bures_chi2(rho, sigma) == pytest.approx(want, rel=1e-8)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(57)
        rho, sigma = random_pair(4, rng)
        u = linalg.haar_unitary(4, rng)
        a = dv.bures_chi2(rho, sigma)
        b = dv.bures_chi2(conjugate(u, rho), conjugate(u, sigma))
        assert a == pytest.approx(b, rel=1e-8)

    def test_rank_deficient_reference(self):
        rng = np.random.default_rng(59)
        # support of rho inside support of sigma: finite answer
        sigma = np.diag([0.0, 0.5, 0.5]).astype(complex)
        rho_in = np.diag([0.0, 0.7, 0.3]).astype(complex)
        assert np.isfinite(dv.bures_chi2(rho_in, sigma))
        # mass sticking outside: infinite
        rho_out = np.diag([0.2, 0.4, 0.4]).astype(complex)
        assert dv.bures_chi2(rho_out, sigma) == np.inf
        # same thing in a random basis
        u = linalg.haar_unitary(3, rng)
        assert np.isfinite(dv.bures_chi2(
            conjugate(u, rho_in), conjugate(u, sigma)))

    def test_hat_dominates_and_tail_splits(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            q = np.sort(rng.dirichlet(np.ones(5)))
            rho = linalg.random_density(5, 5, rng)
            full = dv.bures_chi2_in_basis(rho, q)
            hat = analysis.bures_chi2_tail(rho, q, 0)
            assert hat >= full - 1e-12
            for ell in (0, 2, 5):
                tail = analysis.bures_chi2_tail(rho, q, ell)
                blk = dv.bures_chi2_in_basis(rho[:ell, :ell], q[:ell]) if ell else 0.0
                assert full <= blk + tail + 1e-9

    def test_tail_requires_sorted_reference(self):
        with pytest.raises(ValueError):
            analysis.bures_chi2_tail(np.eye(3) / 3, [0.5, 0.3, 0.2], 1)
