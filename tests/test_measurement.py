import dataclasses
import itertools
import tracemalloc

import numpy as np
import pytest

from bureslab import config, frobenius as fb, linalg, measurement as ms
from oracles import dense_povm as dense


def test_povm_validation():
    ms.Povm.from_basis(np.eye(3))
    with pytest.raises(ValueError, match="not unitary"):
        ms.Povm.from_basis(np.array([[1, 1], [0, 1.0]]))
    # the diagonal of U^dagger U is held to UNITARY_TOL as well
    ms.Povm.from_basis(np.eye(3) * (1 + 0.4 * config.UNITARY_TOL))
    with pytest.raises(ValueError, match="not unitary"):
        ms.Povm.from_basis(np.eye(3) * (1 + 0.6 * config.UNITARY_TOL))
    # orthonormal columns that do not span: projectors miss the identity
    with pytest.raises(ValueError, match="identity"):
        ms.Povm.from_basis(np.eye(3)[:, :2])


def test_permuted_povm_is_the_reordered_basis():
    """Relabeling a checked Povm's outcomes forms no second gram, and it
    measures exactly as a Povm built and checked on the reordered
    columns; only a permutation of the outcomes is taken."""
    rng = np.random.default_rng(29)
    for d in (2, 3, 8, 64):
        u = linalg.haar_unitary(d, rng)
        rho = linalg.random_density(d, max(1, d // 2), rng)
        order = rng.permutation(d)
        moved = ms.Povm.from_basis(u).permuted(order)
        assert np.array_equal(moved.basis, u[:, order])
        assert np.array_equal(moved.probabilities(rho),
                              ms.Povm.from_basis(u[:, order])
                              .probabilities(rho))
    povm = ms.Povm.from_basis(np.eye(3))
    with pytest.raises(ValueError):
        povm.permuted([-1, 0, 1])
    for bad in ([0, 0, 1], [0, 1], [[0, 1, 2]], [0, 1, 3], [0, 1, 2, 0]):
        with pytest.raises(ValueError, match="permutation"):
            povm.permuted(bad)


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
    counts = ms.sample_povm(povm, rho, 200, rng)
    assert counts.sum() == 200


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
    blk = np.diag([0.5, 0.3, 0.2]).astype(complex)[:2, :2]
    mass = np.trace(blk).real
    kept = ms.filter_subset(mass, 100_000, rng)
    assert isinstance(kept, int)
    assert abs(kept / 100_000 - 0.8) < 0.01
    cond = linalg.restrict(blk, mass)
    assert abs(np.trace(cond).real - 1.0) < 1e-12
    assert cond[0, 0].real == pytest.approx(0.5 / 0.8)
    empty = np.diag([1.0, 0, 0]).astype(complex)[1:, 1:]
    assert ms.filter_subset(np.trace(empty).real, 50, rng) == 0
    assert linalg.restrict(empty, np.trace(empty).real) is None
    assert ms.filter_subset(mass, 0, rng) == 0
    # round-off past either end of [0, 1] is clipped
    assert ms.filter_subset(-1e-17, 50, rng) == 0
    assert ms.filter_subset(1.0 + 1e-15, 50, rng) == 50
    # a mass past that round-off is not a probability
    with pytest.raises(ValueError, match="not a probability"):
        ms.filter_subset(1.5, 50, rng)


def test_filter_subset_refuses_a_negative_count():
    """A negative k is not a copy count: it raises, as numpy's
    multinomial does in the other samplers, and draws nothing from the
    generator."""
    rng = np.random.default_rng(23)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match="negative number of copies"):
        ms.filter_subset(0.5, k=-5, rng=rng)
    assert rng.bit_generator.state == before


def _byes(design):
    """Each round's unmatched index, (R,), and its outcome in the real
    and the imaginary row, (2, R), read off the four-term map: a bye's
    last three terms read the zero after rho's real view."""
    d = design.dim
    at = np.flatnonzero(design.terms[1] == 2 * d * d).reshape(-1, 2).T
    return design.terms[0, at[0]] // (2 * (d + 1)), at


def _pairs(design):
    """Each proper pair's i and j, two (R, P) arrays, decoded from the
    table the estimator reads: ``entries[0, 0]`` holds the flat position
    2 (i dim + j) of Re rho_ij."""
    return np.divmod(design.entries[0, 0] // 2, design.dim)


@pytest.mark.parametrize("d", [2, 4, 5, 7, 8])
def test_matching_povms_cover_every_pair_once(d):
    design = ms.matching_povms(d)
    expect_rounds = d - 1 if d % 2 == 0 else d
    assert design.dim == d and design.n_rows == 2 * expect_rounds
    rows, cols = _pairs(design)
    assert rows.shape == (expect_rounds, d // 2)
    seen = list(zip(rows.ravel().tolist(), cols.ravel().tolist()))
    assert sorted(seen) == sorted(itertools.combinations(range(d), 2))
    # at odd d every index sits out exactly one round, in both its rows
    byes, bye_at = _byes(design)
    assert sorted(byes.tolist()) == (list(range(d)) if d % 2 else [])
    assert (design.terms[0, bye_at[1]] == design.terms[0, bye_at[0]]).all()
    assert (design.weights[:, bye_at] == 1.0).all()
    # every outcome of every row has exactly one owner
    owned = np.concatenate([design.plus.ravel(), design.minus.ravel(),
                            bye_at.ravel()])
    assert sorted(owned.tolist()) == list(range(design.n_rows * d))
    # the pairs' entries and the diagonal's parts fill rho's real view once
    diag = 2 * (d + 1) * np.arange(d)
    held = np.concatenate([design.entries.ravel(), diag, diag + 1])
    assert sorted(held.tolist()) == list(range(2 * d * d))


@pytest.mark.parametrize("d", [2, 5, 8])
def test_cached_design_is_read_only(d):
    """One design is shared by every call, so every array it holds,
    the four-term map included, refuses a write."""
    design = ms.matching_povms(d)
    assert ms.matching_povms(d) is design
    arrays = [getattr(design, f.name) for f in dataclasses.fields(design)
              if isinstance(getattr(design, f.name), np.ndarray)]
    assert len(arrays) == 5
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0


def test_sampling_probs_of_a_vector_equals_its_one_row_stack():
    """A vector is normalized bit for bit as the row of a one-row
    stack, clipping round-off alike; a NaN or an entry below -PSD_TOL
    is refused in either shape."""
    rng = np.random.default_rng(19)
    for n in (2, 7, 16, 64, 129, 1000):
        for scale in (1e-3, 1.0, 1e5):
            raw = rng.random(n) * scale
            raw[rng.integers(n)] = -0.5 * config.PSD_TOL
            vec = ms._sampling_probs(raw)
            assert vec.tobytes() == ms._sampling_probs(raw[None, :]).tobytes()
            assert raw.min() < 0.0 <= vec.min()  # the input is not written
    for bad in (np.array([0.5, np.nan, 0.5]),
                np.array([0.5, -2 * config.PSD_TOL, 0.5])):
        for raw in (bad, bad[None, :]):
            with pytest.raises(ValueError, match="not a state"):
                ms._sampling_probs(raw)
    with pytest.raises(ValueError, match="vanish"):
        ms._sampling_probs(np.zeros(3))


def test_matching_povm_outcome_probabilities():
    rng = np.random.default_rng(23)
    d = 5
    rho = linalg.random_density(d, d, rng)
    design = ms.matching_povms(d)
    p = design.probabilities(rho)
    assert p.shape == (design.n_rows, d)
    assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    flat = p.ravel()
    for (i, j), plus, minus in zip(
            zip(*(a.ravel() for a in _pairs(design))),
            design.plus.reshape(2, -1).T, design.minus.reshape(2, -1).T):
        avg = 0.5 * (rho[i, i].real + rho[j, j].real)
        for sign, at in ((1, plus), (-1, minus)):
            assert flat[at[0]] == pytest.approx(avg + sign * rho[i, j].real,
                                                abs=1e-12)
            assert flat[at[1]] == pytest.approx(avg + sign * rho[i, j].imag,
                                                abs=1e-12)
    byes, bye_at = _byes(design)
    for b, at in zip(byes, bye_at.T):
        assert np.allclose(flat[at], rho[b, b].real, rtol=0, atol=1e-12)


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


def _dense_rows(d, rho):
    """The dense rounds' probabilities, stacked in the design's row order."""
    return np.array([povm.probabilities(rho)
                     for _, real, imag in dense.dense_matching_povms(d)
                     for povm in (real, imag)])


def _assert_design_layout(d):
    """The design's pairs, byes and outcome positions are the dense
    rounds' matchings and labels."""
    design = ms.matching_povms(d)
    design_byes, bye_at = _byes(design)
    rounds = dense.dense_matching_povms(d)
    rows, cols = _pairs(design)
    assert design.n_rows == 2 * len(rounds)
    for r, (pairs, real, imag) in enumerate(rounds):
        assert real.labels == imag.labels
        proper = [(i, j) for i, j in pairs if j is not None]
        assert list(zip(rows[r].tolist(), cols[r].tolist())) == proper
        byes = [i for i, j in pairs if j is None]
        assert design_byes[r:r + 1].tolist() == byes
        for s in (0, 1):  # real row 2r, imaginary row 2r + 1
            start = (2 * r + s) * d
            for p, (i, j) in enumerate(proper):
                assert design.plus[s, r, p] - start == \
                    real.labels.index((i, j, 1))
                assert design.minus[s, r, p] - start == \
                    real.labels.index((i, j, -1))
            if byes:
                assert bye_at[s, r] - start == \
                    real.labels.index((byes[0], None, 0))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 16])
def test_closed_form_matches_dense_reference(d):
    rng = np.random.default_rng(1000 + d)
    _assert_design_layout(d)
    design = ms.matching_povms(d)
    for rho in _differential_states(d, rng):
        # every row bit for bit, not approximately
        assert np.array_equal(design.probabilities(rho), _dense_rows(d, rho))
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
    # unit trace and a positive diagonal, but |rho_01| > avg(rho_00, rho_11),
    # in the real part (row 0) or the imaginary part (row 1)
    design = ms.matching_povms(2)
    for off01 in (0.8, 0.8j):
        off = np.array([[0.5, off01], [np.conj(off01), 0.5]], dtype=complex)
        with pytest.raises(ValueError, match="not a state"):
            ms.sample_povm(design, off, 20, rng)
    pure = np.array([[0.5, 0.5j], [-0.5j, 0.5]])
    counts = ms.sample_povm(design, pure, 20, rng)
    assert counts.tolist()[1] == [10, 0]  # Im rho_01 = avg: no - outcome
    assert counts.sum(axis=1).tolist() == [10, 10]
    with pytest.raises(ValueError, match="vanish"):
        ms.sample_povm(design, np.zeros((2, 2), dtype=complex), 20, rng)
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
        assert 2 * ms.matching_round_count(d) == ms.matching_povms(d).n_rows
    with pytest.raises(ValueError):
        ms.matching_round_count(1)


def test_design_refuses_a_negative_outcome_in_one_late_row():
    """A Hermitian unit-trace non-state whose one negative Born value
    sits in the last (imaginary) row: the stacked draw judges every row,
    and the refused call draws nothing."""
    rng = np.random.default_rng(43)
    d = 8
    design = ms.matching_povms(d)
    i, j = (a[-1, -1] for a in _pairs(design))
    rho = np.eye(d, dtype=complex) / d
    rho[i, j], rho[j, i] = 0.2j, -0.2j  # avg(rho_ii, rho_jj) - 0.2 < 0
    p = design.probabilities(rho)
    bad_rows, _ = np.nonzero(p < -1e-3)
    assert bad_rows.tolist() == [design.n_rows - 1]
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="not a state"):
        ms.sample_povm(design, rho, design.n_rows * 10, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("d", [2, 7, 16])
def test_design_draw_charges_every_row(d):
    """One stacked draw of ``shots`` per row costs 2R * shots copies."""
    rng = np.random.default_rng(47)
    rho = linalg.random_density(d, 2, rng)
    design = ms.matching_povms(d)
    shots = 10 ** 9
    counts = ms.sample_povm(design, rho, design.n_rows * shots, rng)
    assert counts.sum() == 2 * ms.matching_round_count(d) * shots
    assert counts.shape == (design.n_rows, d)
    assert np.all(counts.sum(axis=1) == shots)
    # copies that do not split evenly over the rows are refused
    with pytest.raises(ValueError, match="split evenly"):
        ms.sample_povm(design, rho, design.n_rows * shots + 1, rng)
