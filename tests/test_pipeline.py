import math

import numpy as np
import pytest

from bureslab import config, divergences as dv, frobenius as fb, linalg
from bureslab import measurement as ms, pipeline as pl


ORACLE = fb.parse_estimator("oracle:f=d2")


def test_hermitianize_and_diagonalize_identity():
    rng = np.random.default_rng(201)
    rho = linalg.random_density(5, 5, rng)
    raw = rho + 0.1 * (rng.standard_normal((5, 5))
                       + 1j * rng.standard_normal((5, 5)))
    herm = linalg.hermitian_part(raw)
    dig = pl.diagonalize_estimate(raw)
    lhs = linalg.frob_sq(dig.vectors.conj().T @ rho @ dig.vectors
                         - np.diag(dig.values))
    rhs = linalg.frob_sq(rho - herm)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_diagonal_estimate_invariants():
    with pytest.raises(ValueError):
        linalg.SpectralDecomposition(np.array([0.7, 0.3]), np.eye(2))
    de = linalg.SpectralDecomposition(np.array([-0.1, 1.1]), np.eye(2))
    assert np.allclose(de.matrix(), np.diag([-0.1, 1.1]))


def test_make_state_diagonal_output_shape():
    rng = np.random.default_rng(203)
    rho = linalg.random_density(4, 2, rng)
    dig = pl.make_state_diagonal(ORACLE, rho, 10_000, rng)
    assert dig.values.sum() == pytest.approx(1.0)
    assert np.all(dig.values >= 0)
    assert np.all(np.diff(dig.values) >= 0)
    u = dig.vectors
    assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-10
    with pytest.raises(pl.ParameterError):
        pl.make_state_diagonal(ORACLE, rho, 1, rng)


def test_make_state_diagonal_error_rate():
    rng = np.random.default_rng(207)
    d, m, trials = 4, 20_000, 200
    rho = linalg.random_density(d, d, rng)
    f = ORACLE.rate(d, d)
    errs = np.empty(trials)
    for t in range(trials):
        dig = pl.make_state_diagonal(ORACLE, rho, m, rng)
        errs[t] = linalg.frob_sq(dig.vectors.conj().T @ rho @ dig.vectors
                                 - np.diag(dig.values))
    bound = 2 * f / m + 2 / m
    se = errs.std() / np.sqrt(trials)
    assert errs.mean() <= bound + 4 * se


def test_final_upgrade_accounting():
    rng = np.random.default_rng(217)
    rho = linalg.random_density(5, 3, rng)
    budget = ms.CopyBudget(total=100_000)
    res = pl.final_upgrade(ORACLE, rho, np.arange(3), r=3, delta=0.01,
                           m_phase=20_000, rng=rng, budget=budget)
    assert res.consumed == 40_000
    assert budget.consumed == 40_000
    # exact trace identity: values sum to the observed phase-two pass rate
    assert res.values.sum() == pytest.approx(res.kept_second / 20_000, abs=1e-12)
    tau = linalg.mass_on(rho, [0, 1, 2])
    assert abs(res.tau_hat - tau) < 0.02
    want_theta = max(res.tau_hat / 300.0,
                     1.0 / (20_000 / (config.CONF_SCALE * math.log(5 / 0.01))))
    assert res.theta_hat == pytest.approx(want_theta)


def test_final_upgrade_starved_filter():
    rng = np.random.default_rng(219)
    rho = np.diag([0.999999, 1e-6, 0.0]).astype(complex) \
        + np.zeros((3, 3), dtype=complex)
    rho /= np.trace(rho).real
    res = pl.final_upgrade(ORACLE, rho, [1, 2], r=1, delta=0.1,
                           m_phase=50, rng=rng)
    # almost surely zero or one survivor: uniform fallback keeps the trace
    assert res.values.sum() == pytest.approx(res.kept_second / 50, abs=1e-12)


def test_final_upgrade_starved_base_estimator():
    """Phase two keeps a few survivors, fewer than twice what the simple
    estimator needs on the block: the uniform spread takes over instead
    of the estimator refusing its budget."""
    rng = np.random.default_rng(221)
    rho = linalg.random_density(6, 6, rng)
    prefix = np.arange(4)
    simple = fb.parse_estimator("simple")
    res = pl.final_upgrade(simple, rho, prefix, r=2, delta=0.1,
                           m_phase=12, rng=rng)
    assert 2 <= res.kept_second < 2 * simple.min_copies(prefix.size)
    assert np.array_equal(res.basis, np.eye(prefix.size))
    assert np.all(res.values == res.values[0])
    assert res.values.sum() == pytest.approx(res.kept_second / 12, abs=1e-12)


def test_final_upgrade_spreads_sub_floor_mass_uniformly():
    """A prefix of mass 1e-11 in a rotated frame, below PASS_MASS_FLOOR.
    Normalized by hand, the block's Born probabilities dip ~1e-6 below
    zero: round-off of the parent state amplified by 1/mass, which the
    sampler refuses.  final_upgrade never forms that matrix: with plenty
    of survivors it still takes the uniform branch."""
    rng = np.random.default_rng(223)
    d, tau = 16, 1e-11
    q = linalg.haar_unitary(d, rng)
    v, u = q[:, :1], q[:, 1:2]
    rho = (1 - tau) * (v @ v.conj().T) + tau * (u @ u.conj().T)
    w = np.roll(q, -1, axis=1)  # the dominant direction goes last
    rho_cur = w.conj().T @ rho @ w
    prefix = np.arange(d - 1)
    blk = linalg.submatrix(rho_cur, prefix)
    cond = blk / np.trace(blk).real
    with pytest.raises(ValueError, match="not a state"):
        for _, real_round, imag_round in ms.matching_povms(d - 1):
            ms.sample_povm(real_round, cond, 10, rng)
            ms.sample_povm(imag_round, cond, 10, rng)
    assert linalg.restrict(rho_cur, prefix) is None
    simple = fb.parse_estimator("simple")
    m_phase = 10 ** 13
    res = pl.final_upgrade(simple, rho_cur, prefix, r=1, delta=0.1,
                           m_phase=m_phase, rng=rng)
    # enough survivors for the base estimator: the floor chose the branch
    assert res.kept_second // 2 >= simple.min_copies(prefix.size)
    assert np.array_equal(res.basis, np.eye(prefix.size))
    assert np.all(res.values == res.values[0])
    assert res.values.sum() == pytest.approx(res.kept_second / m_phase,
                                              abs=1e-12)


class TestCentralParams:
    def test_derivations(self):
        d, r, f, m = 8, 2, 64.0, 10 ** 12
        p = pl.central_params(d, r, f, m)
        assert p.m % 2 == 0
        ratio = p.m / (r * f)
        assert p.delta == pytest.approx(config.DELTA_FLOOR / math.log2(ratio))
        m_delta = p.m / (config.CONF_SCALE * math.log(1 / p.delta))
        assert p.eps_tilde == pytest.approx(config.C_STAGE * r * f / m_delta)
        assert p.l_max == math.ceil(math.log2(1 / p.eps_tilde))
        assert p.eps == pytest.approx(p.eps_tilde * p.l_max)
        assert p.total == 2 * p.m * p.l_max

    def test_rejects_small_budget(self):
        with pytest.raises(pl.ParameterError):
            pl.central_params(4, 2, 16.0, 10_000)

    def test_rejects_eps_tilde_at_pass_mass_floor(self):
        d, r, f = 4, 1, 4.0
        assert pl.central_params(d, r, f, 10 ** 14).eps_tilde \
            > config.PASS_MASS_FLOOR
        with pytest.raises(pl.ParameterError, match="pass-mass floor"):
            pl.central_params(d, r, f, 10 ** 15)

    def test_rejects_bad_rank(self):
        with pytest.raises(pl.ParameterError):
            pl.central_params(4, 5, 16.0, 10 ** 12)


def test_plan_budget_meets_target_and_halving():
    for (d, r) in [(8, 1), (8, 8), (4, 2)]:
        p2 = pl.plan_budget(d, r, r * d, 0.2)
        p1 = pl.plan_budget(d, r, r * d, 0.1)
        assert p2.eps <= 0.2
        assert p1.eps <= 0.1
        assert p1.total / p2.total <= 2.5


def test_tail_rules():
    vals = np.array([0.001, 0.002, 0.05, 0.3, 0.5])
    # floor rule: beta = 1.21 * 0.853 / 100 ~ 0.0103: suffix above it has 3
    assert pl._tail_rule_floor(vals, r=1) == 3


def run_staged(d, r, rng, eps_final=0.2, family="rank"):
    if family == "rank":
        rho = linalg.random_density(d, r, rng)
    else:
        rho = linalg.geometric_spectrum_state(d, rng)
    spec = fb.parse_estimator("oracle:f=d2")
    params = pl.plan_budget(d, r, spec.rate(d, r), eps_final)
    out = pl.staged_learn(rho, spec, params, rng)
    return rho, out


class TestStagedLearn:
    def test_output_invariants(self):
        rng = np.random.default_rng(223)
        rho, out = run_staged(4, 1, rng)
        assert out.q.sum() == pytest.approx(1.0)
        assert np.all(out.q >= 0)
        v = out.frame
        assert np.max(np.abs(v.conj().T @ v - np.eye(4))) < 1e-9
        assert out.consumed == out.params.total
        assert 1 <= len(out.stages) <= out.params.l_max
        assert out.stop_reason
        assert 0.0 <= out.eps_prime <= 1.0

    def test_converged_run_leaves_little_true_mass(self):
        rng = np.random.default_rng(227)
        for _ in range(10):
            rho, out = run_staged(4, 1, rng)
            if out.stop_reason != "mass converged":
                continue
            frame_state = out.frame.conj().T @ rho @ out.frame
            tau_true = linalg.mass_on(frame_state, np.arange(out.prefix)) \
                if out.prefix else 0.0
            assert tau_true <= 3.0 * out.params.eps_tilde

    def test_chi2_estimate_quality(self):
        rng = np.random.default_rng(229)
        worst = 0.0
        for _ in range(10):
            rho, out = run_staged(4, 1, rng)
            est = pl.to_chi2(out)
            linalg.require_density(est)
            worst = max(worst, dv.bures_chi2(rho, est))
        assert worst <= 0.2

    def test_full_rank_state(self):
        rng = np.random.default_rng(239)
        rho, out = run_staged(4, 4, rng, family="geo")
        est = pl.to_chi2(out)
        linalg.require_density(est)
        assert dv.bures_chi2(rho, est) <= 0.2


def test_to_infidelity_zeroes_prefix():
    rng = np.random.default_rng(241)
    rho, out = run_staged(4, 2, rng)
    est = pl.to_infidelity(out)
    linalg.require_density(est)
    if out.prefix:
        blk = linalg.submatrix(out.frame.conj().T @ est @ out.frame,
                               np.arange(out.prefix))
        assert np.max(np.abs(blk)) < 1e-12
    assert dv.infidelity(rho, est) <= 0.2


def test_to_kl_depolarizes():
    rng = np.random.default_rng(251)
    rho, out = run_staged(4, 2, rng)
    base = pl.to_infidelity(out)
    est, bound = pl.to_kl(base, 0.05)
    linalg.require_density(est)
    assert np.min(np.linalg.eigvalsh(est)) >= 0.1 / 4 - 1e-12
    assert bound == pytest.approx(dv.kl_from_infidelity_bound(4, 0.05))
    assert dv.relative_entropy(rho, est) <= bound


def test_chi2_error_terms_keys():
    rng = np.random.default_rng(257)
    _, out = run_staged(4, 2, rng)
    terms = pl.chi2_error_terms(out)
    assert set(terms) == {"eta", "block_off", "block_on", "tail_off", "tail_on"}


def test_to_chi2_rejects_bad_eta():
    rng = np.random.default_rng(263)
    _, out = run_staged(4, 2, rng)
    if out.prefix:
        with pytest.raises(pl.ParameterError):
            pl.to_chi2(out, eta=0.7)
