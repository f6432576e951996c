import numpy as np
import pytest

from bureslab import config, linalg


def test_eig_hermitian_ascending_and_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = (a + a.conj().T) / 2
    dec = linalg.eig_hermitian(a)
    assert np.all(np.diff(dec.values) >= 0)
    assert np.max(np.abs(dec.matrix() - a)) < 1e-10


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    rho = linalg.random_density(5, 5, rng)
    s = linalg.psd_sqrt(rho)
    assert np.max(np.abs(s @ s - rho)) < 1e-10
    with pytest.raises(ValueError):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_trace_norm_matches_svd():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    want = np.sum(np.linalg.svd(a, compute_uv=False))
    assert abs(linalg.trace_norm(a) - want) < 1e-10
    # Hermitian branch agrees with the generic one
    h = (a + a.conj().T) / 2
    want_h = np.sum(np.abs(np.linalg.eigvalsh(h)))
    assert abs(linalg.trace_norm(h) - want_h) < 1e-10


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for d in (2, 5, 9):
        u = linalg.haar_unitary(d, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10


def test_random_density_rank_and_trace():
    rng = np.random.default_rng(17)
    rho = linalg.random_density(6, 2, rng)
    linalg.require_density(rho)
    w = np.linalg.eigvalsh(rho)
    assert np.sum(w > 1e-10) == 2
    with pytest.raises(ValueError):
        linalg.random_density(3, 4, rng)


def test_random_pure_is_projector():
    rng = np.random.default_rng(19)
    rho = linalg.random_pure(4, rng)
    assert np.max(np.abs(rho @ rho - rho)) < 1e-10
    linalg.require_density(rho)


def test_geometric_spectrum_state():
    rng = np.random.default_rng(23)
    rho = linalg.geometric_spectrum_state(5, rng)
    w = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert np.allclose(w[1:] / w[:-1], 0.5, atol=1e-10)
    linalg.require_density(rho)


def test_hermitian_part_is_closest():
    rng = np.random.default_rng(29)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = linalg.hermitian_part(a)
    assert np.max(np.abs(h - h.conj().T)) < 1e-14
    # projection property: never farther from any Hermitian matrix
    for _ in range(20):
        b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        b = (b + b.conj().T) / 2
        assert np.linalg.norm(h - b) <= np.linalg.norm(a - b) + 1e-12
    assert np.allclose(linalg.hermitian_part(h), h)


def test_submatrix_embed_roundtrip():
    rng = np.random.default_rng(31)
    rho = linalg.random_density(5, 5, rng)
    s = [1, 3, 4]
    blk = linalg.submatrix(rho, s)
    assert blk.shape == (3, 3)
    back = np.zeros((5, 5), dtype=complex)
    back[np.ix_(s, s)] = blk
    assert np.allclose(linalg.submatrix(back, s), blk)
    assert back[0, 0] == 0


def test_mass_and_restrict():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    assert abs(linalg.mass_on(rho, [0, 2]) - 0.7) < 1e-14
    cond = linalg.restrict(rho, [0, 2])
    assert abs(np.trace(cond).real - 1.0) < 1e-14
    assert abs(cond[0, 0].real - 5 / 7) < 1e-12
    assert linalg.restrict(np.diag([1.0, 0.0, 0.0]).astype(complex), [1, 2]) is None
    # at or below the pass-mass floor the block is left unresolved
    floor = config.PASS_MASS_FLOOR
    for tau in (floor * (1 - 1e-6), floor, floor * (1 + 1e-6)):
        cond = linalg.restrict(np.diag([1.0 - tau, tau]).astype(complex), [1])
        if tau > floor:
            assert cond.shape == (1, 1) and abs(cond[0, 0] - 1.0) < 1e-9
        else:
            assert cond is None


def test_partial_trace_of_product():
    rng = np.random.default_rng(37)
    a = linalg.random_density(3, 3, rng)
    b = linalg.random_density(4, 2, rng)
    joint = np.kron(a, b)
    assert np.max(np.abs(linalg.partial_trace(joint, 3, 4, "A") - a)) < 1e-12
    assert np.max(np.abs(linalg.partial_trace(joint, 3, 4, "B") - b)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(41)
    joint = linalg.random_density(12, 5, rng)
    ra = linalg.partial_trace(joint, 3, 4, "A")
    assert abs(np.trace(ra).real - 1.0) < 1e-12


def test_depolarize_floor_and_trace():
    rng = np.random.default_rng(43)
    rho = linalg.random_density(4, 1, rng)
    out = linalg.depolarize(rho, 0.2)
    linalg.require_density(out)
    assert np.min(np.linalg.eigvalsh(out)) >= 0.2 / 4 - 1e-12
    assert np.allclose(linalg.depolarize(rho, 0.0), rho)


def test_correlated_pair_state_marginals_stay_uniform():
    for lam in (0.0, 0.3, 1.0):
        rho = linalg.correlated_pair_state(3, lam)
        linalg.require_density(rho)
        for side in "AB":
            marg = linalg.partial_trace(rho, 3, 3, side)
            assert np.max(np.abs(marg - np.eye(3) / 3)) < 1e-12


def test_require_density_rejects():
    with pytest.raises(ValueError):
        linalg.require_density(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        linalg.require_density(np.diag([1.5, -0.5]))
