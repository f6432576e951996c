import itertools

import numpy as np
import pytest

from bureslab import linalg, measurement as ms


def test_copy_budget_accounting():
    b = ms.CopyBudget(total=100)
    b.take(30)
    assert b.remaining == 70
    with pytest.raises(ms.BudgetExhausted):
        b.take(71)
    with pytest.raises(ValueError):
        b.take(-1)


def test_povm_validation():
    good = ms.Povm.computational(3)
    assert good.n_outcomes == 3 and good.dim == 3
    with pytest.raises(ValueError):  # does not resolve the identity
        ms.Povm(elements=np.stack([np.eye(2) / 2, np.eye(2) / 4]))
    with pytest.raises(ValueError):  # negative element
        ms.Povm(elements=np.stack([np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])]))
    with pytest.raises(ValueError):
        ms.Povm.from_basis(np.array([[1, 1], [0, 1.0]]))


def test_born_probabilities_sum_to_one():
    rng = np.random.default_rng(7)
    rho = linalg.random_density(4, 4, rng)
    u = linalg.haar_unitary(4, rng)
    povm = ms.Povm.from_basis(u)
    p = ms.born_probabilities(povm, rho)
    assert p.sum() == pytest.approx(1.0, abs=1e-10)
    assert np.all(p >= -1e-12)
    # basis probabilities are the rotated diagonal
    want = np.diag(u.conj().T @ rho @ u).real
    assert np.max(np.abs(p - want)) < 1e-10


def test_sample_povm_counts_and_budget():
    rng = np.random.default_rng(11)
    rho = linalg.random_density(3, 3, rng)
    povm = ms.Povm.computational(3)
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
        pr = ms.born_probabilities(real_povm, rho)
        pi = ms.born_probabilities(imag_povm, rho)
        for k, (i, j, sign) in enumerate(real_povm.labels):
            if j is None:
                assert pr[k] == pytest.approx(rho[i, i].real, abs=1e-12)
                continue
            avg = 0.5 * (rho[i, i].real + rho[j, j].real)
            assert pr[k] == pytest.approx(avg + sign * rho[i, j].real, abs=1e-12)
            assert pi[k] == pytest.approx(avg + sign * rho[i, j].imag, abs=1e-12)


def test_pauli_bases_bloch_vector():
    rng = np.random.default_rng(29)
    v = rng.standard_normal(3)
    v *= 0.9 / np.linalg.norm(v)
    x, y, z = v
    rho = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    bases = ms.pauli_bases()
    px = ms.born_probabilities(bases["X"], rho)
    py = ms.born_probabilities(bases["Y"], rho)
    pz = ms.born_probabilities(bases["Z"], rho)
    assert px[0] - px[1] == pytest.approx(x, abs=1e-12)
    assert py[0] - py[1] == pytest.approx(y, abs=1e-12)
    assert pz[0] - pz[1] == pytest.approx(z, abs=1e-12)
