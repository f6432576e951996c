import itertools
import tracemalloc

import numpy as np
import pytest

from bureslab import frobenius as fb, linalg, measurement as ms
from oracles import dense_povm as dense


def test_copy_budget_accounting():
    b = ms.CopyBudget(total=100)
    b.take(30)
    assert b.remaining == 70
    with pytest.raises(ms.BudgetExhausted):
        b.take(71)
    with pytest.raises(ValueError):
        b.take(-1)


def test_povm_validation():
    good = ms.Povm.from_basis(np.eye(3))
    assert good.n_outcomes == 3 and good.dim == 3
    assert good.labels == (0, 1, 2)
    with pytest.raises(ValueError, match="not unitary"):
        ms.Povm.from_basis(np.array([[1, 1], [0, 1.0]]))
    # orthonormal columns that do not span: projectors miss the identity
    with pytest.raises(ValueError, match="identity"):
        ms.Povm.from_basis(np.eye(3)[:, :2])


def test_dense_povm_validation():
    """The reference POVM keeps every per-element check."""
    good = dense.DensePovm.from_basis(np.eye(3))
    assert good.n_outcomes == 3 and good.dim == 3
    with pytest.raises(ValueError):  # does not resolve the identity
        dense.DensePovm(np.stack([np.eye(2) / 2, np.eye(2) / 4]))
    with pytest.raises(ValueError):  # negative element
        dense.DensePovm(np.stack([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]))
    with pytest.raises(ValueError):  # non-Hermitian element
        dense.DensePovm(np.stack([np.array([[0.5, 0.1], [0.0, 0.5]]),
                                  np.array([[0.5, -0.1], [0.0, 0.5]])]))
    with pytest.raises(ValueError):
        dense.DensePovm.from_basis(np.array([[1, 1], [0, 1.0]]))


def test_born_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    rho = linalg.random_density(4, 4, rng)
    u = linalg.haar_unitary(4, rng)
    povm = ms.Povm.from_basis(u)
    p = povm.probabilities(rho)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(p >= -1e-12)
    # basis probabilities are the rotated diagonal
    want = np.diag(u.conj().T @ rho @ u).real
    assert np.max(np.abs(p - want)) < 1e-10


def test_sample_povm_counts_and_budget():
    rng = np.random.default_rng(11)
    rho = linalg.random_density(3, 3, rng)
    povm = ms.Povm.from_basis(np.eye(3))
    budget = ms.CopyBudget(total=500)
    counts = ms.sample_povm(povm, rho, 200, rng, budget)
    assert counts.sum() == 200
    assert budget.consumed == 200
    with pytest.raises(ms.BudgetExhausted):
        ms.sample_povm(povm, rho, 301, rng, budget)


def test_sample_basis_matches_diagonal():
    rng = np.random.default_rng(13)
    rho = np.diag([0.6, 0.4]).astype(complex)
    counts = ms.sample_basis(rho, 200_000, rng)
    assert counts.sum() == 200_000
    assert abs(counts[0] / 200_000 - 0.6) < 0.01


def test_sample_huge_budget_is_cheap():
    rng = np.random.default_rng(17)
    rho = linalg.random_density(4, 2, rng)
    n = 10 ** 12
    counts = ms.sample_basis(rho, n, rng)
    assert counts.sum() == n


def test_filter_subset():
    rng = np.random.default_rng(19)
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    kept, cond = ms.filter_subset(rho, [0, 1], 100_000, rng)
    assert abs(kept / 100_000 - 0.8) < 0.01
    assert abs(np.trace(cond).real - 1.0) < 1e-12
    assert cond[0, 0].real == pytest.approx(0.5 / 0.8)
    kept0, cond0 = ms.filter_subset(np.diag([1.0, 0, 0]).astype(complex), [1, 2], 50, rng)
    assert kept0 == 0 and cond0 is None


@pytest.mark.parametrize("d", [2, 4, 5, 7, 8])
def test_matching_povms_cover_every_pair_once(d):
    rounds = ms.matching_povms(d)
    expect_rounds = d - 1 if d % 2 == 0 else d
    assert len(rounds) == expect_rounds
    seen = []
    for pairs, real_povm, imag_povm in rounds:
        assert real_povm.dim == d and imag_povm.dim == d
        seen.extend(p for p in pairs if p[1] is not None)
    assert sorted(seen) == sorted(itertools.combinations(range(d), 2))


def test_matching_povm_outcome_probabilities():
    rng = np.random.default_rng(23)
    d = 5
    rho = linalg.random_density(d, d, rng)
    for pairs, real_povm, imag_povm in ms.matching_povms(d):
        pr = real_povm.probabilities(rho)
        pi = imag_povm.probabilities(rho)
        assert real_povm.labels == imag_povm.labels
        assert pr.sum() == pytest.approx(1.0, abs=1e-12)
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)
        for k, (i, j, sign) in enumerate(real_povm.labels):
            if j is None:
                assert pr[k] == pytest.approx(rho[i, i].real, abs=1e-12)
                assert pi[k] == pytest.approx(rho[i, i].real, abs=1e-12)
                continue
            avg = 0.5 * (rho[i, i].real + rho[j, j].real)
            assert pr[k] == pytest.approx(avg + sign * rho[i, j].real, abs=1e-12)
            assert pi[k] == pytest.approx(avg + sign * rho[i, j].imag, abs=1e-12)


def test_dense_matching_povm_outcome_probabilities():
    """The same closed forms hold for the dense reference elements."""
    rng = np.random.default_rng(23)
    d = 5
    rho = linalg.random_density(d, d, rng)
    for pairs, real_povm, imag_povm in dense.dense_matching_povms(d):
        pr = real_povm.probabilities(rho)
        pi = imag_povm.probabilities(rho)
        for k, (i, j, sign) in enumerate(real_povm.labels):
            if j is None:
                assert pr[k] == pytest.approx(rho[i, i].real, abs=1e-12)
                continue
            avg = 0.5 * (rho[i, i].real + rho[j, j].real)
            assert pr[k] == pytest.approx(avg + sign * rho[i, j].real, abs=1e-12)
            assert pi[k] == pytest.approx(avg + sign * rho[i, j].imag, abs=1e-12)


def _differential_states(d, rng):
    """Pure, rank-deficient and full-rank states, each also rotated.

    The rotated copies are Hermitian only to round-off, like the
    conditional states the staged learner hands its base estimator.
    """
    for rank in sorted({1, max(d // 2, 1), d}):
        rho = linalg.random_density(d, rank, rng)
        u = linalg.haar_unitary(d, rng)
        yield rho
        yield u.conj().T @ rho @ u


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_closed_form_matches_dense_reference(d):
    rng = np.random.default_rng(1000 + d)
    for rho in _differential_states(d, rng):
        for (pairs, real_round, imag_round), (dpairs, real_dense, imag_dense) \
                in zip(ms.matching_povms(d), dense.dense_matching_povms(d)):
            assert pairs == dpairs
            assert real_round.labels == real_dense.labels
            # bit for bit, not approximately
            assert np.array_equal(real_round.probabilities(rho),
                                  real_dense.probabilities(rho))
            assert np.array_equal(imag_round.probabilities(rho),
                                  imag_dense.probabilities(rho))
        u = linalg.haar_unitary(d, rng)
        # diag(U^dagger rho U) sums in another order than tr(E_k rho)
        assert np.max(np.abs(
            ms.Povm.from_basis(u).probabilities(rho)
            - dense.DensePovm.from_basis(u).probabilities(rho))) <= 1e-14
        for shots in (1_000, 10 ** 12):
            seed = int(rng.integers(2 ** 32))
            got = fb.simple_frobenius(rho, shots, np.random.default_rng(seed))
            want = dense.dense_simple_frobenius(rho, shots,
                                                np.random.default_rng(seed))
            assert np.array_equal(got, want)
            a = ms.sample_povm(ms.Povm.from_basis(u), rho, shots,
                               np.random.default_rng(seed))
            b = dense.sample(dense.DensePovm.from_basis(u), rho, shots,
                             np.random.default_rng(seed))
            assert np.array_equal(a, b)


def test_no_eigensolve_per_povm_element(monkeypatch):
    rng = np.random.default_rng(31)
    rho16 = linalg.random_density(16, 3, rng)
    u64 = linalg.haar_unitary(64, rng)
    calls, kernel = [], np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    fb.simple_frobenius(rho16, 10_000, rng)
    assert len(calls) == 0
    ms.Povm.from_basis(u64)
    assert len(calls) == 0
    # the counter is live: the dense reference checks each element
    dense.DensePovm.from_basis(np.eye(4))
    assert len(calls) == 4


def test_basis_measurement_builds_no_projectors():
    """At d=64 a (d, d, d) projector tensor would take 4 MB; building the
    measurement and reading its probabilities stays far below even a
    real one."""
    d = 64
    rng = np.random.default_rng(33)
    rho = linalg.random_density(d, 5, rng)
    u = linalg.haar_unitary(d, rng)
    tracemalloc.start()
    try:
        p = ms.Povm.from_basis(u).probabilities(rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * d ** 3
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_sampler_rejects_non_states():
    rng = np.random.default_rng(37)
    not_psd = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(ValueError, match="not a state"):
        ms.sample_basis(not_psd, 10, rng)
    with pytest.raises(ValueError, match="not a state"):
        ms.sample_povm(ms.Povm.from_basis(np.eye(2)), not_psd, 10, rng)
    # unit trace and a positive diagonal, but |rho_01| > avg(rho_00, rho_11)
    off = np.array([[0.5, 0.8], [0.8, 0.5]], dtype=complex)
    _, real_round, imag_round = ms.matching_povms(2)[0]
    with pytest.raises(ValueError, match="not a state"):
        ms.sample_povm(real_round, off, 10, rng)
    counts = ms.sample_povm(imag_round, off, 10, rng)  # Im part is 0
    assert counts.sum() == 10
    # round-off inside PSD_TOL is still clipped, not refused
    nearly = np.diag([1.0 + 1e-12, -1e-12]).astype(complex)
    assert ms.sample_basis(nearly, 10, rng).tolist() == [10, 0]


def test_sampler_judges_round_off_at_unit_scale():
    """A Born vector 1e-7 below zero is refused whatever state it came
    from: no conditional scale loosens PSD_TOL."""
    rng = np.random.default_rng(41)
    noisy = np.diag([1.0 + 1e-7, -1e-7]).astype(complex)
    with pytest.raises(ValueError, match="not a state"):
        ms.sample_basis(noisy, 10, rng)


def test_matching_round_count():
    for d in (2, 3, 4, 5, 8, 9):
        assert ms.matching_round_count(d) == len(ms.matching_povms(d))
    with pytest.raises(ValueError):
        ms.matching_round_count(1)
