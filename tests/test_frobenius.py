import numpy as np
import pytest

from bureslab import config, frobenius as fb, linalg, measurement as ms


def test_simple_frobenius_unbiased_and_hermitian():
    rng = np.random.default_rng(71)
    rho = linalg.random_density(4, 4, rng)
    acc = np.zeros((4, 4), dtype=complex)
    trials = 300
    for _ in range(trials):
        est = fb.simple_frobenius(rho, 400, rng)
        assert np.max(np.abs(est - est.conj().T)) < 1e-12
        assert np.trace(est).real == pytest.approx(1.0)
        acc += est
    assert np.max(np.abs(acc / trials - rho)) < 0.01


def _simple_errors(rho, shots, trials, rng):
    """Squared Frobenius errors of ``trials`` simple estimates, and the
    standard error of their mean."""
    errs = np.array([linalg.frob_sq(fb.simple_frobenius(rho, shots, rng) - rho)
                     for _ in range(trials)])
    return errs, errs.std() / np.sqrt(trials)


def _check_worst_case(d, seed):
    """At the maximally mixed state the error is exactly (d - 1/d)/shots,
    inside the K_ACC rate promise at odd d too."""
    rng = np.random.default_rng(seed)
    shots, trials = 2000, 1000
    errs, se = _simple_errors(linalg.maximally_mixed(d), shots, trials, rng)
    assert abs(errs.mean() - (d - 1 / d) / shots) <= 4 * se
    m_total = (2 * ms.matching_round_count(d) + 1) * shots
    assert errs.mean() <= config.K_ACC * d ** 2 / m_total + 4 * se


def test_simple_frobenius_error_rate():
    rng = np.random.default_rng(73)
    d, shots, trials = 4, 2000, 300
    rho = linalg.random_density(d, d, rng)
    errs, se = _simple_errors(rho, shots, trials, rng)
    # a loose per-shot bound (the worst case is (d - 1/d)/shots), and the
    # d^2-rate claim
    assert errs.mean() <= (2 * d - 1) / shots + 4 * se
    m_total = (2 * (d - 1) + 1) * shots
    assert errs.mean() <= config.K_ACC * d ** 2 / m_total + 4 * se
    _check_worst_case(4, 74)


def test_simple_frobenius_odd_dimension():
    rng = np.random.default_rng(79)
    d = 3
    rho = linalg.random_density(d, d, rng)
    errs = [linalg.frob_sq(fb.simple_frobenius(rho, 2000, rng) - rho)
            for _ in range(200)]
    assert np.mean(errs) <= (2 * d + 1) / 2000 * 1.3
    _check_worst_case(5, 80)


def test_oracle_estimate_rate_is_exact():
    rng = np.random.default_rng(83)
    d, f, m, trials = 5, 25.0, 400, 2000
    rho = linalg.random_density(d, d, rng)
    errs = np.empty(trials)
    for t in range(trials):
        est = fb.oracle_estimate(rho, f, m, rng)
        assert np.max(np.abs(est - est.conj().T)) < 1e-12
        errs[t] = linalg.frob_sq(est - rho)
    se = errs.std() / np.sqrt(trials)
    assert abs(errs.mean() - f / m) < 4 * se
    with pytest.raises(ValueError):
        fb.oracle_estimate(rho, f, 0, rng)


def _oracle_estimate_per_call(rho, f, m, rng):
    """The noise oracle with its index tables built on every call."""
    d = rho.shape[0]
    s = np.sqrt((f / m) / d ** 2)
    g = np.zeros((d, d), dtype=complex)
    iu = np.triu_indices(d, k=1)
    n_off = iu[0].size
    re = rng.standard_normal(n_off) * (s / np.sqrt(2.0))
    im = rng.standard_normal(n_off) * (s / np.sqrt(2.0))
    g[iu] = re + 1j * im
    g = g + g.conj().T
    g[np.diag_indices(d)] = rng.standard_normal(d) * s
    return np.asarray(rho, dtype=complex) + g


@pytest.mark.parametrize("d", [1, 2, 7, 64])
def test_oracle_estimate_equals_the_per_call_reference(d):
    """Cached index tables draw the same normals in the same order
    (real parts, imaginary parts, diagonal): the same estimate bit for
    bit, and the generator left at the same next draw."""
    rho = linalg.random_density(d, d, np.random.default_rng([89, d]))
    rng, ref_rng = np.random.default_rng(97), np.random.default_rng(97)
    for m in (3, 1000):  # the second call reads the cached tables
        est = fb.oracle_estimate(rho, float(d), m, rng)
        ref = _oracle_estimate_per_call(rho, float(d), m, ref_rng)
        assert np.array_equal(est, ref)
    assert rng.standard_normal() == ref_rng.standard_normal()
    for table in fb._upper_triangle(d):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[...] = 0


def test_parse_estimator_rates():
    assert fb.parse_estimator("simple", 2).rate(4, 2) == config.K_ACC * 16
    assert fb.parse_estimator("oracle:f=d", 2).rate(6, 2) == 6.0
    assert fb.parse_estimator("oracle:f=rd", 2).rate(6, 2) == 12.0
    assert fb.parse_estimator("oracle:f=d2", 2).rate(6, 2) == 36.0
    with pytest.raises(ValueError):
        fb.parse_estimator("oracle:f=bogus", 2)
    with pytest.raises(ValueError):
        fb.parse_estimator("fancy", 2)


def test_runners_consume_whole_budget():
    """A runner handed n copies spends all n: the simple one as
    n // (2R + 1) shots per POVM, the oracle at m = n."""
    rho = linalg.random_density(4, 2, np.random.default_rng(89))
    direct = {
        "simple": lambda rng: fb.simple_frobenius(rho, 7000 // 7, rng),
        "oracle:f=rd": lambda rng: fb.oracle_estimate(rho, 8.0, 7000, rng),
    }
    for name, reference in direct.items():
        est = fb.parse_estimator(name, r=2).run(
            rho, 7000, np.random.default_rng(1))
        assert est.shape == (4, 4)
        assert np.array_equal(est, reference(np.random.default_rng(1)))


def test_simple_runner_needs_minimum_budget():
    rng = np.random.default_rng(97)
    rho = linalg.random_density(4, 2, rng)
    spec = fb.parse_estimator("simple", 2)
    with pytest.raises(ms.BudgetExhausted,
                       match="need at least 7 copies at dimension 4"):
        spec.run(rho, 6, rng)
    odd = linalg.random_density(5, 2, rng)
    with pytest.raises(ms.BudgetExhausted,
                       match="need at least 11 copies at dimension 5"):
        spec.run(odd, 10, rng)
    assert spec.run(odd, 11, rng).shape == (5, 5)


def test_min_copies_is_the_runners_floor():
    rng = np.random.default_rng(101)
    simple = fb.parse_estimator("simple", 1)
    assert simple.min_copies(1) == 0
    for d in (2, 3, 4, 5):
        need = simple.min_copies(d)
        assert need == 2 * ms.matching_round_count(d) + 1
        rho = linalg.random_density(d, 1, rng)
        assert simple.run(rho, need, rng).shape == (d, d)
        with pytest.raises(ms.BudgetExhausted):
            simple.run(rho, need - 1, rng)
    oracle = fb.parse_estimator("oracle:f=d", 1)
    assert oracle.min_copies(64) == 1
