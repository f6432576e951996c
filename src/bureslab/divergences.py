"""Classical and quantum divergences with explicit zero conventions.

Every classical divergence of a pair of weight vectors is a key of
:func:`classical_chain`, the one classical entry point; only the Renyi
divergence, the core of :func:`renyi_divergence_q`, has its own.  Both
accept nonnegative weight vectors that need not sum to one (several
estimators hand around subnormalized vectors on purpose).
Conventions throughout: 0/0 = 0, x/0 = +inf for x > 0, and 0*ln 0 = 0.
Divergences return float('inf') as a first-class value, never raise.

Every quantum divergence but the trace distance reads one overlap of two
eigensystems.  With rho = sum_i p_i |u_i><u_i|, sigma = sum_j q_j
|v_j><v_j|, U = (u_i) and V = (v_j), the overlap holds the values p and
q cut at SPECTRAL_CUTOFF, M = U^dagger V, formed once, and the squared
moduli W = |M|^2, raw and with entries at or below the cutoff's square
rounded to exact zeros.  Both roundings remove eigensolver noise that
would turn support comparisons (finite vs infinite divergence) into coin
flips.  Everything else is read off the overlap:

- the pair (P, Q), P_ij = w_ij p_i and Q_ij = w_ij q_j, on the cut W.
  Every Renyi divergence of (rho, sigma) equals the classical one of
  (P, Q), so the relative entropy and the max-log-ratio keep the
  classical zero conventions and need no matrix logarithm;
- the fidelity, the singular-value sum of diag(sqrt p) M diag(sqrt q),
  to which sqrt(rho) sqrt(sigma) is unitarily equivalent;
- the Hellinger affinity tr(sqrt(rho) sqrt(sigma)) = sqrt(p)^T W sqrt(q)
  on the raw W.

No square-root matrix is formed.  Values ascend from exact zeros, so a
support is a suffix of the columns.  M keeps only the rows on rho's
support, where P can be nonzero, and the two square-root quantities
also keep only the columns on sigma's: a rank-r state against a rank-k
one needs an r x d product and an r x k singular-value solve.  The
Bures chi-square reads sigma's eigensystem alone, with rho rotated into
it.

A quantum state is given as a density matrix or as its
``linalg.SpectralDecomposition`` (for ``bures_chi2``, the reference
argument).  The pairwise functions, :func:`quantum_chain` and
:func:`classical_chain` also take stacks: n states (or weight vectors)
along a leading axis against n others give n values in an array where
one pair gives a float.  A stack is diagonalized, multiplied and solved
in one batched call per kernel, and its singular-value solve keeps the
union of its members' supports.  Only :func:`renyi_divergence_q` and
:func:`quantum_mutual_information` take one state at a time.  Callers
that evaluate several divergences of one pair, like
:func:`quantum_chain`, diagonalize each state once and pass the
decompositions on; a caller that built a state from a known eigensystem,
like the harness's state families, passes that and diagonalizes nothing.
"""

from __future__ import annotations

import typing

import numpy as np

from . import config, linalg

__all__ = [
    "renyi_divergence",
    "classical_chain",
    "overlap_pair",
    "trace_distance",
    "fidelity",
    "infidelity",
    "hellinger_sq_q",
    "relative_entropy",
    "renyi_divergence_q",
    "bures_chi2",
    "bures_chi2_in_basis",
    "quantum_mutual_information",
    "quantum_chain",
]

# numerator magnitudes below this count as exact zeros when the matching
# denominator vanishes (float noise from eigh, see bures_chi2)
_ZERO_NUM = config.PSD_TOL


def _weights(p) -> np.ndarray:
    """p as a float array, with entries in (-PSD_TOL, 0] (-0.0 included)
    set to +0.0 by ``np.maximum(p, 0.0)``; an entry below -PSD_TOL, or a
    NaN, raises.  A vector with every entry positive comes back uncopied,
    so callers must not write to the result."""
    p = np.asarray(p, dtype=float)
    if p.size:
        low = p.min()  # NaN if any entry is, and every comparison fails
        if not low > 0.0:
            if not low >= -config.PSD_TOL:
                raise ValueError(f"negative weight {low}")
            return np.maximum(p, 0.0)
    return p


def _result(x):
    """A float for one pair; the array of n values for a stack.  x is a
    numpy scalar or array."""
    return x if x.ndim else float(x)


# ---------------------------------------------------------------------------
# classical: the chain's kernels read their weights along the last axis, so
# a leading axis makes a stack
# ---------------------------------------------------------------------------

def _log_ratios(p, q) -> tuple:
    """(KL, max-log-ratio) of clipped weights along the last axis.

    Both read ln(p_i / q_i) over the i with p_i > 0.  Either is +inf
    when q_i = 0 for such an i; the max-log-ratio of p = 0 is -inf.
    """
    if p.min(initial=np.inf) > 0.0 and q.min(initial=np.inf) > 0.0:
        lr = np.log(p / q)
        return (p * lr).sum(axis=-1), lr.max(axis=-1, initial=-np.inf)
    pos = p > 0.0
    ok = pos & (q > 0.0)
    lr = np.log(np.where(ok, p, 1.0) / np.where(ok, q, 1.0))
    off = (pos & ~ok).any(axis=-1)
    kl = (p * lr).sum(axis=-1)
    mlr = np.where(pos, lr, -np.inf).max(axis=-1, initial=-np.inf)
    return np.where(off, np.inf, kl), np.where(off, np.inf, mlr)


def _chi_sq(p, q):
    """sum_i (p_i - q_i)^2 / q_i along the last axis.  This form (rather
    than sum p^2/q - 1) stays correct for subnormalized inputs."""
    diff = p - q
    if q.min() > 0.0:
        return (diff * diff / q).sum(axis=-1)
    live = q > 0.0
    s = np.where(live, diff * diff / np.where(live, q, 1.0), 0.0).sum(axis=-1)
    return np.where((~live & (p > _ZERO_NUM)).any(axis=-1), np.inf, s)


def renyi_divergence(p, q, alpha: float) -> float:
    """(1/(alpha-1)) ln sum_i p_i^alpha q_i^(1-alpha), alpha != 1, over
    every entry of p and q."""
    if alpha <= 0.0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1")
    p, q = _weights(p), _weights(q)
    if alpha > 1.0:
        if np.any((q == 0.0) & (p > 0.0)):
            return float("inf")
        mask = p > 0.0
        s = np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha))
    else:
        mask = (p > 0.0) & (q > 0.0)
        s = np.sum(p[mask] ** alpha * q[mask] ** (1.0 - alpha))
    if s == 0.0:
        return float("inf") if alpha < 1.0 else float("-inf")
    return float(np.log(s) / (alpha - 1.0))


def _chain(out: dict) -> dict:
    """Add the reverse bound (2 + max_log_ratio) * H^2, +inf where the
    max-log-ratio is not finite, and hand out floats for one pair."""
    mlr, h2 = out["max_log_ratio"], out["hellinger_sq"]
    finite = np.isfinite(mlr)
    if finite.all():
        out["reverse_bound"] = (2.0 + mlr) * h2
    else:
        out["reverse_bound"] = np.where(
            finite, (2.0 + np.where(finite, mlr, 0.0)) * h2, np.inf)
    if np.ndim(h2):
        return out
    return {key: float(value) for key, value in out.items()}


def classical_chain(p, q) -> dict:
    """All quantities in the divergence chain, for side-by-side checks.

    The chain: h^2/2 <= tv <= h <= sqrt(kl) <= sqrt(chi2), plus the
    reverse bound kl <= (2 + max_log_ratio) * h^2.  One pair of weight
    vectors gives floats; two (n, m) stacks give n values per key.
    """
    p, q = _weights(p), _weights(q)
    kl, mlr = _log_ratios(p, q)
    return _chain({
        "tv": 0.5 * np.abs(p - q).sum(axis=-1),
        "hellinger_sq": ((np.sqrt(p) - np.sqrt(q)) ** 2).sum(axis=-1),
        "kl": kl,
        "chi2": _chi_sq(p, q),
        "max_log_ratio": mlr,
    })


# ---------------------------------------------------------------------------
# quantum, via one overlap of two eigensystems
# ---------------------------------------------------------------------------

# squared overlaps at or below this are eigensolver noise
_W_FLOOR = config.SPECTRAL_CUTOFF ** 2


class _Overlap(typing.NamedTuple):
    """The overlap of the module docstring; a stack adds a leading axis
    to each field.

    Rows outside rho's support carry p_i = 0, which no reader counts, so
    the overlap keeps the rows on the union of rho's supports in the
    stack; the square-root quantities also keep only the columns on the
    union of sigma's.
    """

    p: np.ndarray        # rho's values on its support, cut
    q: np.ndarray        # sigma's values, cut
    m: np.ndarray        # M, every column
    w: np.ndarray        # raw |M|^2, every column
    sp: np.ndarray       # sqrt p
    sq: np.ndarray       # sqrt q on sigma's support
    m_s: np.ndarray      # M on the two supports
    w_s: np.ndarray      # raw |M|^2 on the two supports


def _overlap(rho, sigma) -> _Overlap:
    """The overlap of two states, each a matrix or its decomposition.

    ``linalg.psd_values`` refuses a negative spectrum and cuts the
    values; M is one (batched) product.
    """
    dp, dq = linalg.decompose(rho), linalg.decompose(sigma)
    p, q = linalg.psd_values(dp), linalg.psd_values(dq)
    i, j = _support(p), _support(q)
    p = p[..., i:]
    m = dp.vectors[..., i:].conj().swapaxes(-1, -2) @ dq.vectors
    w = np.abs(m) ** 2
    return _Overlap(p=p, q=q, m=m, w=w, sp=np.sqrt(p), sq=np.sqrt(q[..., j:]),
                    m_s=m[..., j:], w_s=w[..., j:])


def _support(values) -> int:
    """First column of the union of the supports in a stack of ascending
    cut values: the longest zero-free suffix."""
    zero = values.reshape(-1, values.shape[-1]) == 0.0
    return np.count_nonzero(zero.all(axis=0))


def _fidelity(o: _Overlap):
    a = o.sp[..., :, None] * o.m_s * o.sq[..., None, :]
    return np.linalg.svd(a, compute_uv=False).sum(axis=-1)


def _affinity(o: _Overlap):
    return (o.sp[..., None, :] @ o.w_s @ o.sq[..., :, None])[..., 0, 0]


def _pair(o: _Overlap) -> tuple:
    """(P, Q) on the cut W."""
    w = o.w
    if w.min(initial=np.inf) <= _W_FLOOR:
        w = np.where(w <= _W_FLOOR, 0.0, w)
    return w * o.p[..., :, None], w * o.q[..., None, :]


def _log_ratios_q(o: _Overlap) -> tuple:
    """(relative entropy, max-log-ratio): the classical pair on (P, Q)."""
    pp, qq = _pair(o)
    rows = pp.shape[:-2] + (-1,)
    return _log_ratios(pp.reshape(rows), qq.reshape(rows))


def overlap_pair(rho, sigma):
    """The (P, Q) matrices defined in the module docstring, on the rows
    of rho's support (the rows P is zero on add nothing to a divergence):
    2-D arrays for one pair, with a leading axis for a stack."""
    return _pair(_overlap(rho, sigma))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the trace norm of rho - sigma; a non-Hermitian difference is
    refused (``linalg.trace_norm``)."""
    return 0.5 * linalg.trace_norm(np.asarray(rho) - np.asarray(sigma))


def fidelity(rho, sigma) -> float:
    """|| sqrt(rho) sqrt(sigma) ||_1  (square-root convention).

    Read as the singular-value sum of diag(sqrt p) U^dagger V diag(sqrt q)
    on the two supports (module docstring); 0 when either support is
    empty.
    """
    return _result(_fidelity(_overlap(rho, sigma)))


def infidelity(rho, sigma) -> float:
    return 1.0 - fidelity(rho, sigma)


def hellinger_sq_q(rho, sigma) -> float:
    """|| sqrt(rho) - sqrt(sigma) ||_F^2 = 2 (1 - affinity), with the
    affinity tr(sqrt(rho) sqrt(sigma)) = sum_ij sqrt(p_i) sqrt(q_j) w_ij."""
    return _result(2.0 * (1.0 - _affinity(_overlap(rho, sigma))))


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy, the KL of the overlap pair."""
    return _result(_log_ratios_q(_overlap(rho, sigma))[0])


def renyi_divergence_q(rho, sigma, alpha: float) -> float:
    """The Renyi divergence of one pair, that of its overlap pair."""
    return renyi_divergence(*overlap_pair(rho, sigma), alpha)


# --- the Bures chi-square family -------------------------------------------

def bures_chi2_in_basis(rho_t: np.ndarray, q) -> float:
    """Weighted squared error sum_ij 2 |tau_ij|^2 / (q_i + q_j).

    ``rho_t`` must already be expressed in the eigenbasis of the reference
    state, whose eigenvalues ``q`` need not sum to one.  tau is
    rho_t - diag(q).  A vanishing denominator contributes 0 when the
    numerator is float noise (below PSD_TOL) and +inf otherwise; this is
    what makes the formula extend to rank-deficient references.
    """
    rho_t = np.asarray(rho_t, dtype=complex)
    q = linalg.spectral_cutoff(_weights(q))
    d = q.shape[-1]
    tau = rho_t.copy()
    # the diagonal of each member, as a strided view
    tau.reshape(tau.shape[:-2] + (d * d,))[..., ::d + 1] -= q
    num = np.abs(tau) ** 2
    den = q[..., :, None] + q[..., None, :]
    # the factor 2 is exact, so it may wait for the sum
    if den.min() > 0.0:
        return _result(2.0 * (num / den).sum(axis=(-2, -1)))
    ok = den > 0.0
    s = 2.0 * np.where(ok, num / np.where(ok, den, 1.0), 0.0).sum(
        axis=(-2, -1))
    bad = (~ok & (np.abs(tau) > _ZERO_NUM)).any(axis=(-2, -1))
    return _result(np.where(bad, np.inf, s))


def bures_chi2(rho: np.ndarray, sigma) -> float:
    """Bures chi-square divergence of the density matrix rho from sigma.

    Rotates rho into sigma's eigenbasis (sigma may be given as its
    spectral decomposition) and applies :func:`bures_chi2_in_basis`;
    unitary invariance makes the choice of eigenbasis immaterial.
    """
    dec = linalg.decompose(sigma)
    v = dec.vectors
    rho_t = v.conj().swapaxes(-1, -2) @ np.asarray(rho, dtype=complex) @ v
    return bures_chi2_in_basis(rho_t, dec.values)


def quantum_mutual_information(rho: np.ndarray, d: int) -> float:
    """Relative entropy of a state on C^d (x) C^d from the product of its
    marginals, whose eigensystem is ``linalg.product_of_marginals``."""
    return relative_entropy(
        rho, linalg.product_of_marginals(linalg.marginals(rho, d)))


def quantum_chain(rho: np.ndarray, sigma: np.ndarray) -> dict:
    """All quantities in the quantum divergence chain, for two matrices
    or two (n, d, d) stacks of them.

    The chain: H^2/2 <= D_tr <= D_B <= sqrt(KL), plus the reverse bound
    KL <= (2 + max_log_ratio) * H^2 and the sandwich D_B^2 <= H^2 <= 2 D_B^2.
    ``bures_chi2`` is reported but is no link: KL <= chi2 holds for the
    Petz chi2, tr(rho^2 sigma^-1) - 1, not for the Bures chi2, the
    smallest quantum chi2.  The pure state with amplitudes
    (sqrt p, sqrt(1-p)) against its dephasing diag(p, 1-p) has
    KL = H(p) = 0.0560 > Bures chi2 = 4p(1-p) = 0.0396 at p = 0.01.

    Each state is diagonalized once and every entry is read off one
    overlap, the one the matching public function reads; so for one pair
    each entry is a float equal to that function on the two matrices
    (the max-log-ratio: :func:`classical_chain`'s of the flattened
    :func:`overlap_pair`).  A stack gives an array of n values per key
    from one batched call of each kernel.
    """
    dr, ds = linalg.decompose(rho), linalg.decompose(sigma)
    o = _overlap(dr, ds)
    kl, mlr = _log_ratios_q(o)
    return _chain({
        "trace_distance": trace_distance(rho, sigma),
        "bures_sq": 2.0 * (1.0 - _fidelity(o)),
        "hellinger_sq": 2.0 * (1.0 - _affinity(o)),
        "kl": kl,
        "bures_chi2": bures_chi2(rho, ds),
        "max_log_ratio": mlr,
    })
