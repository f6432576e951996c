import numpy as np
import pytest

from bureslab import config, divergences as dv, frobenius as fb, linalg
from bureslab import harness, measurement as ms, mitest as mt, pipeline as pl
from oracles import analysis


def test_eig_hermitian_ascending_and_reconstructs():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a = (a + a.conj().T) / 2
    dec = linalg.eig_hermitian(a)
    assert np.all(np.diff(dec.values) >= 0)
    assert np.max(np.abs(dec.matrix() - a)) < 1e-10


def test_ascending_is_a_stable_sort():
    vectors = np.eye(4, dtype=complex)
    dec = linalg.SpectralDecomposition.ascending(
        np.array([0.3, 0.1, 0.3, 0.0]), vectors)
    assert np.array_equal(dec.values, [0.0, 0.1, 0.3, 0.3])
    assert np.array_equal(dec.vectors, vectors[:, [3, 1, 0, 2]])


@pytest.mark.parametrize("da, db", [(2, 2), (3, 2), (2, 5), (4, 4)])
def test_kron_decomposition_matches_the_joint_eigh(da, db):
    """The product's eigensystem from its factors: the same values, the
    same matrix and the same divergences as a solve on np.kron."""
    rng = np.random.default_rng([47, da, db])
    a = linalg.eig_hermitian(linalg.random_density(da, da, rng))
    b = linalg.eig_hermitian(analysis.depolarize(
        linalg.random_density(db, 1, rng), 0.1))
    dec = linalg.kron_decomposition(a, b)
    # the same products in np.kron's order, hence the same sort
    want = linalg.SpectralDecomposition.ascending(
        np.kron(a.values, b.values), np.kron(a.vectors, b.vectors))
    assert np.array_equal(dec.values, want.values)
    assert np.array_equal(dec.vectors, want.vectors)
    joint = np.kron(a.matrix(), b.matrix())
    assert np.max(np.abs(dec.values - np.linalg.eigh(joint)[0])) <= 1e-12
    assert np.max(np.abs(dec.matrix() - joint)) <= 1e-12
    rho = linalg.random_density(da * db, 2, rng)
    for div in (dv.bures_chi2, dv.infidelity, dv.hellinger_sq_q,
                dv.relative_entropy):
        # relative: a floor of 0.1 / db puts bures_chi2 in the hundreds
        want = div(rho, joint)
        assert abs(div(rho, dec) - want) <= 1e-12 * max(1.0, abs(want))


def test_decompose_takes_a_stack():
    """A leading axis of eigensystems, each that of its own matrix; one
    non-ascending member refuses the stack, as one bad member refuses
    psd_values."""
    rng = np.random.default_rng(53)
    stack = np.array([linalg.random_density(5, r, rng) for r in (1, 3, 5)])
    dec = linalg.decompose(stack)
    assert dec.values.shape == (3, 5) and dec.vectors.shape == (3, 5, 5)
    for k, rho in enumerate(stack):
        one = linalg.decompose(rho)
        assert np.array_equal(dec.values[k], one.values)
        assert np.array_equal(dec.vectors[k], one.vectors)
    assert np.max(np.abs(dec.matrix() - stack)) < 1e-12
    with pytest.raises(ValueError, match="ascending"):
        linalg.SpectralDecomposition(dec.values[:, ::-1], dec.vectors)
    negative = dec.values.copy()
    negative[1, 0] = -2e-10
    with pytest.raises(ValueError, match="not PSD"):
        linalg.psd_values(linalg.SpectralDecomposition(negative, dec.vectors))


def test_eig_hermitian_rejects_nonhermitian():
    with pytest.raises(ValueError):
        linalg.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(11)
    rho = linalg.random_density(5, 5, rng)
    s = linalg.psd_sqrt(rho)
    assert np.all(np.diff(s.values) >= 0.0)
    assert np.max(np.abs(s.matrix() @ s.matrix() - rho)) < 1e-10
    with pytest.raises(ValueError):
        linalg.psd_sqrt(np.diag([1.0, -0.5]))


def test_trace_norm_matches_svd():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    want = np.sum(np.linalg.svd(h, compute_uv=False))
    assert abs(linalg.trace_norm(h) - want) < 1e-10
    # a non-Hermitian input is refused, like every other divergence input
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.trace_norm(a)
    with pytest.raises(ValueError, match="not Hermitian"):
        linalg.trace_norm(np.stack([h, a]))


_NAN = np.full((2, 2), np.nan)
#: NaN past the first value, where no ascending comparison looks
_NAN_SECOND = linalg.SpectralDecomposition(values=np.array([0.5, np.nan]),
                                           vectors=np.eye(2, dtype=complex))


@pytest.mark.parametrize("check, message", [
    (lambda: dv.bures_chi2(linalg.maximally_mixed_eig(2)[0],
                           linalg.SpectralDecomposition(
                               values=np.full(2, np.nan),
                               vectors=np.eye(2, dtype=complex))),
     "negative weight"),
    (lambda: linalg.require_hermitian(_NAN), "not Hermitian"),
    (lambda: linalg.psd_values(linalg.SpectralDecomposition(
        values=np.array([np.nan, 1.0]), vectors=np.eye(2, dtype=complex))),
     "not PSD"),
    (lambda: linalg.psd_values(_NAN_SECOND), "not PSD"),
    (lambda: dv.relative_entropy(linalg.maximally_mixed_eig(2)[0],
                                 _NAN_SECOND),
     "not PSD"),
    (lambda: dv.fidelity(linalg.maximally_mixed_eig(2)[0], _NAN_SECOND),
     "not PSD"),
    (lambda: ms.Povm.from_basis(_NAN), "not unitary"),
    (lambda: ms._sampling_probs(np.array([0.5, np.nan])), "not a state"),
    (lambda: mt.classical_mi_test(np.array([[np.nan, 0.5], [0.25, 0.25]]),
                                  0.5, np.random.default_rng(0)),
     "probability table"),
    (lambda: ms.filter_subset(np.nan, 50, np.random.default_rng(0)),
     "not a probability"),
    (lambda: pl.make_state_diagonal(
        fb.EstimatorSpec(rate=lambda d, r: 1.0,
                         run=lambda rho, n, rng: np.where(
                             [[False, True], [False, False]], np.nan, rho)),
        linalg.maximally_mixed_eig(2)[0], 10, np.random.default_rng(0)),
     "not Hermitian"),
], ids=["divergences-weights", "require-hermitian", "psd-values",
        "psd-values-nan-second", "relative-entropy-nan-second",
        "fidelity-nan-second", "povm", "sampling-probs",
        "classical-mi-table", "filter-mass", "stage-estimate"])
def test_checks_refuse_nan(check, message):
    """Each check is written so that a NaN fails its comparison."""
    with pytest.raises(ValueError, match=message):
        check()


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(3)
    for d in (2, 5, 9):
        u = linalg.haar_unitary(d, rng)
        assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-10


def test_random_density_rank_and_trace():
    rng = np.random.default_rng(17)
    rho = linalg.random_density(6, 2, rng)
    analysis.require_density(rho)
    w = np.linalg.eigvalsh(rho)
    assert np.sum(w > 1e-10) == 2
    with pytest.raises(ValueError):
        linalg.random_density(3, 4, rng)


def test_random_pure_is_projector():
    rng = np.random.default_rng(19)
    rho = linalg.random_pure(4, rng)
    assert np.max(np.abs(rho @ rho - rho)) < 1e-10
    analysis.require_density(rho)


def test_geometric_spectrum_state():
    rng = np.random.default_rng(23)
    rho, _ = linalg.geometric_spectrum_eig(5, rng)
    w = np.sort(np.linalg.eigvalsh(rho))[::-1]
    assert np.allclose(w[1:] / w[:-1], 0.5, atol=1e-10)
    analysis.require_density(rho)


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


def test_hermitian_part_scales_a_fresh_sum_exactly():
    """The in-place scaling by 1/2 gives the division by 2 bit for bit
    and never writes the input."""
    rng = np.random.default_rng(30)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    a *= 10.0 ** rng.integers(-300, 300, size=(6, 6))
    before = a.copy()
    h = linalg.hermitian_part(a)
    assert h.tobytes() == ((before + before.conj().T) / 2.0).tobytes()
    assert a.tobytes() == before.tobytes()


def test_mass_and_restrict():
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
    blk = rho[np.ix_([0, 2], [0, 2])]
    cond = linalg.restrict(blk, blk.trace().real)
    assert abs(np.trace(cond).real - 1.0) < 1e-14
    assert abs(cond[0, 0].real - 5 / 7) < 1e-12
    assert linalg.restrict(np.diag([0.0, 0.0]).astype(complex), 0.0) is None
    # at or below the pass-mass floor the block is left unresolved
    floor = config.PASS_MASS_FLOOR
    for tau in (floor * (1 - 1e-6), floor, floor * (1 + 1e-6)):
        blk = np.diag([1.0 - tau, tau]).astype(complex)[1:, 1:]
        cond = linalg.restrict(blk, blk.trace().real)
        if tau > floor:
            assert cond.shape == (1, 1) and abs(cond[0, 0] - 1.0) < 1e-9
        else:
            assert cond is None


def _partial_trace(rho, d_a, d_b, keep):
    """The marginal on A or B of a state on C^{d_a} x C^{d_b}: the
    two-dimension form that ``linalg.marginals`` replaced, kept as its
    reference."""
    t = np.asarray(rho, dtype=complex).reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.trace(t, axis1=1, axis2=3)
    return np.trace(t, axis1=0, axis2=2)


def test_partial_trace_of_product():
    rng = np.random.default_rng(37)
    a = linalg.random_density(3, 3, rng)
    b = linalg.random_density(3, 2, rng)
    ra, rb = linalg.marginals(np.kron(a, b), 3)
    assert np.max(np.abs(ra - a)) < 1e-12
    assert np.max(np.abs(rb - b)) < 1e-12


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(41)
    joint = linalg.random_density(16, 5, rng)
    for marginal in linalg.marginals(joint, 4):
        assert abs(np.trace(marginal).real - 1.0) < 1e-12
    with pytest.raises(ValueError):
        linalg.marginals(joint, 3)


@pytest.mark.parametrize("d", [2, 3, 8])
def test_marginals_equal_the_partial_trace_reference(d):
    rho = linalg.random_density(d * d, d, np.random.default_rng([43, d]))
    ra, rb = linalg.marginals(rho, d)
    assert np.array_equal(ra, _partial_trace(rho, d, d, "A"))
    assert np.array_equal(rb, _partial_trace(rho, d, d, "B"))


def test_depolarize_floor_and_trace():
    rng = np.random.default_rng(43)
    rho = linalg.random_density(4, 1, rng)
    out = analysis.depolarize(rho, 0.2)
    analysis.require_density(out)
    assert np.min(np.linalg.eigvalsh(out)) >= 0.2 / 4 - 1e-12
    assert np.allclose(analysis.depolarize(rho, 0.0), rho)


def test_correlated_pair_state_marginals_stay_uniform():
    for lam in (0.0, 0.3, 1.0):
        rho = linalg.correlated_pair_eig(3, lam)[0]
        analysis.require_density(rho)
        for marg in linalg.marginals(rho, 3):
            assert np.max(np.abs(marg - np.eye(3) / 3)) < 1e-12


@pytest.mark.parametrize("family, d, lam, build, formula", [
    ("maximally_mixed", 9, 0.5, lambda: linalg.maximally_mixed_eig(9),
     lambda: np.eye(9, dtype=complex) / 9),
    ("bipartite:correlated", 3, 0.5,
     lambda: linalg.correlated_pair_eig(3, 0.5),
     lambda: analysis.correlated_pair_state(3, 0.5)),
    ("bipartite:product", 3, 0.0, lambda: linalg.maximally_mixed_eig(9),
     lambda: analysis.correlated_pair_state(3, 0.0)),
], ids=["maximally-mixed", "correlated", "correlated-product"])
def test_cached_states_equal_a_fresh_build_and_are_read_only(family, d, lam,
                                                             build, formula):
    """The builders of the states that draw nothing build afresh on
    every call; the harness's one cache of them (``_fixed_draw``) holds
    a byte-equal build once, with every array read-only.  The state is
    its formula's bytes, Id/d or (1-lam) Id/d^2 + lam |Phi><Phi|; at lam
    0 the correlated pair state is exactly the product family's Id/d^2."""
    rho, dec, truth = harness._fixed_draw(family, d, lam)
    assert harness._fixed_draw(family, d, lam)[0] is rho
    fresh_rho, fresh_dec = build()
    assert build()[0] is not fresh_rho and fresh_rho.flags.writeable
    assert rho.tobytes() == fresh_rho.tobytes() == formula().tobytes()
    assert dec.values.tobytes() == fresh_dec.values.tobytes()
    assert dec.vectors.tobytes() == fresh_dec.vectors.tobytes()
    arrays = (rho, dec.values, dec.vectors)
    if family != "maximally_mixed":  # a pair state, with its MI truth
        arrays += (truth[1],)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.0


def test_require_density_rejects():
    with pytest.raises(ValueError):
        analysis.require_density(np.diag([0.6, 0.6]))
    with pytest.raises(ValueError):
        analysis.require_density(np.diag([1.5, -0.5]))
