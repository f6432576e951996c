"""Classical and quantum divergences with explicit zero conventions.

Classical functions accept nonnegative weight vectors that need not sum
to one (several estimators hand around subnormalized vectors on purpose).
Conventions throughout: 0/0 = 0, x/0 = +inf for x > 0, and 0*ln 0 = 0.
Divergences return float('inf') as a first-class value, never raise.

Quantum divergences with a classical counterpart are computed through the
eigenbasis-overlap pair (P, Q): with rho = sum_i p_i |u_i><u_i| and
sigma = sum_j q_j |v_j><v_j|, set w_ij = |<u_i|v_j>|^2 and

    P_ij = w_ij * p_i,      Q_ij = w_ij * q_j.

Every Renyi divergence of (rho, sigma) equals the classical one of (P, Q),
which keeps the zero conventions identical in both worlds and avoids
matrix logarithms entirely.

The square-root quantities read the same two eigensystems.  With
U = (u_i) and V = (v_j), sqrt(rho) sqrt(sigma) is unitarily equivalent
to diag(sqrt p) U^dagger V diag(sqrt q), so the fidelity is the sum of
that matrix's singular values and the Hellinger affinity is
sum_ij sqrt(p_i) sqrt(q_j) w_ij.  Both keep only the rows and columns on
the two supports, so no square-root matrix is formed and a rank-r state
needs only an r x k singular-value solve.

Every quantum divergence that reads a spectrum (all but the trace
distance, which works on rho - sigma) takes each state either as a
density matrix or as its ``linalg.SpectralDecomposition``; for
``bures_chi2`` that holds for the reference argument.  Callers that
evaluate several divergences of one pair, like :func:`quantum_chain`,
diagonalize each state once and pass the decompositions on; a caller
that built a state from a known eigensystem, like the harness's state
families, passes that and diagonalizes nothing.
"""

from __future__ import annotations

import numpy as np

from . import config, linalg

__all__ = [
    "total_variation",
    "hellinger_sq",
    "kl_divergence",
    "chi_sq_divergence",
    "renyi_divergence",
    "max_log_ratio",
    "classical_mutual_information",
    "classical_chain",
    "overlap_pair",
    "trace_distance",
    "fidelity",
    "infidelity",
    "bures_sq",
    "hellinger_affinity",
    "hellinger_sq_q",
    "relative_entropy",
    "renyi_divergence_q",
    "max_log_ratio_q",
    "bures_chi2",
    "bures_chi2_in_basis",
    "quantum_mutual_information",
    "quantum_chain",
    "kl_from_infidelity_bound",
]

# numerator magnitudes below this count as exact zeros when the matching
# denominator vanishes (float noise from eigh, see bures_chi2)
_ZERO_NUM = config.PSD_TOL


def _weights(p) -> np.ndarray:
    p = np.asarray(p, dtype=float).ravel()
    if p.size and p.min() < -config.PSD_TOL:
        raise ValueError(f"negative weight {p.min()}")
    return np.clip(p, 0.0, None)


# ---------------------------------------------------------------------------
# classical
# ---------------------------------------------------------------------------

def total_variation(p, q) -> float:
    p, q = _weights(p), _weights(q)
    return float(0.5 * np.sum(np.abs(p - q)))


def hellinger_sq(p, q) -> float:
    """sum_i (sqrt(p_i) - sqrt(q_i))^2, valid for subnormalized inputs."""
    p, q = _weights(p), _weights(q)
    return float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))


def kl_divergence(p, q) -> float:
    """sum_i p_i ln(p_i / q_i)."""
    p, q = _weights(p), _weights(q)
    pos = p > 0.0
    if np.any(q[pos] == 0.0):
        return float("inf")
    return float(np.sum(p[pos] * np.log(p[pos] / q[pos])))


def chi_sq_divergence(p, q) -> float:
    """sum_i (p_i - q_i)^2 / q_i.

    This form (rather than sum p^2/q - 1) stays correct for subnormalized
    inputs, which is exactly how the prefix-learning analysis uses it.
    """
    p, q = _weights(p), _weights(q)
    if np.any((q == 0.0) & (p > _ZERO_NUM)):
        return float("inf")
    mask = q > 0.0
    return float(np.sum((p[mask] - q[mask]) ** 2 / q[mask]))


def renyi_divergence(p, q, alpha: float) -> float:
    """(1/(alpha-1)) ln sum_i p_i^alpha q_i^(1-alpha), alpha != 1."""
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


def max_log_ratio(p, q) -> float:
    """max over i with p_i > 0 of ln(p_i / q_i), the order-infinity limit."""
    p, q = _weights(p), _weights(q)
    pos = p > 0.0
    if not np.any(pos):
        return float("-inf")
    if np.any(q[pos] == 0.0):
        return float("inf")
    return float(np.max(np.log(p[pos] / q[pos])))


def classical_mutual_information(joint: np.ndarray) -> float:
    """KL of a joint pmf matrix from the product of its marginals."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint must be a 2-D array")
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    return kl_divergence(joint.ravel(), np.outer(pa, pb).ravel())


def classical_chain(p, q) -> dict:
    """All quantities in the divergence chain, for side-by-side checks.

    The chain: h^2/2 <= tv <= h <= sqrt(kl) <= sqrt(chi2), plus the
    reverse bound kl <= (2 + max_log_ratio) * h^2.
    """
    h2 = hellinger_sq(p, q)
    kl = kl_divergence(p, q)
    out = {
        "tv": total_variation(p, q),
        "hellinger_sq": h2,
        "kl": kl,
        "chi2": chi_sq_divergence(p, q),
        "max_log_ratio": max_log_ratio(p, q),
    }
    out["reverse_bound"] = (2.0 + out["max_log_ratio"]) * h2 \
        if np.isfinite(out["max_log_ratio"]) else float("inf")
    return out


# ---------------------------------------------------------------------------
# quantum, via the eigenbasis-overlap pair
# ---------------------------------------------------------------------------

def overlap_pair(rho, sigma):
    """The (P, Q) matrices defined in the module docstring, as 2-D arrays.

    Each state is a density matrix or its spectral decomposition.
    Eigenvalues are cut at SPECTRAL_CUTOFF by ``linalg.spectral_cutoff``
    and squared overlaps below the cutoff's square are rounded to exact
    zeros: both are eigensolver noise, and leaving them positive turns
    support comparisons (finite vs infinite divergence) into coin flips.
    """
    dp = linalg.decompose(rho)
    dq = linalg.decompose(sigma)
    w = np.abs(dp.vectors.conj().T @ dq.vectors) ** 2
    w = np.where(w <= config.SPECTRAL_CUTOFF ** 2, 0.0, w)
    p = linalg.spectral_cutoff(dp.values)
    q = linalg.spectral_cutoff(dq.values)
    return w * p[:, None], w * q[None, :]


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    return 0.5 * linalg.trace_norm(np.asarray(rho) - np.asarray(sigma))


def _root_overlap(rho, sigma):
    """(sqrt p, sqrt q, U^dagger V) on the two supports.

    The roots come from ``linalg.psd_sqrt``, which refuses non-PSD input
    and applies the spectral cutoff.  They ascend from exact zeros, so
    each support is a suffix of the columns.
    """
    a, b = linalg.psd_sqrt(rho), linalg.psd_sqrt(sigma)
    i = a.values.size - np.count_nonzero(a.values)
    j = b.values.size - np.count_nonzero(b.values)
    return (a.values[i:], b.values[j:],
            a.vectors[:, i:].conj().T @ b.vectors[:, j:])


def fidelity(rho, sigma) -> float:
    """|| sqrt(rho) sqrt(sigma) ||_1  (square-root convention).

    Read as the singular-value sum of diag(sqrt p) U^dagger V diag(sqrt q)
    on the two supports (module docstring); 0 when either support is
    empty.
    """
    sp, sq, overlap = _root_overlap(rho, sigma)
    a = sp[:, None] * overlap * sq[None, :]
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def infidelity(rho, sigma) -> float:
    return 1.0 - fidelity(rho, sigma)


def bures_sq(rho, sigma) -> float:
    """Squared Bures distance 2 (1 - fidelity)."""
    return 2.0 * (1.0 - fidelity(rho, sigma))


def hellinger_affinity(rho, sigma) -> float:
    """tr( sqrt(rho) sqrt(sigma) ) = sum_ij sqrt(p_i) sqrt(q_j) w_ij."""
    sp, sq, overlap = _root_overlap(rho, sigma)
    return float(sp @ (np.abs(overlap) ** 2) @ sq)


def hellinger_sq_q(rho, sigma) -> float:
    """2 (1 - affinity) = || sqrt(rho) - sqrt(sigma) ||_F^2."""
    return 2.0 * (1.0 - hellinger_affinity(rho, sigma))


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy, computed classically on the overlap pair."""
    pp, qq = overlap_pair(rho, sigma)
    return kl_divergence(pp, qq)


def renyi_divergence_q(rho, sigma, alpha: float) -> float:
    pp, qq = overlap_pair(rho, sigma)
    return renyi_divergence(pp, qq, alpha)


def max_log_ratio_q(rho, sigma) -> float:
    """Order-infinity Renyi divergence; at most ln ||sigma^{-1}||."""
    pp, qq = overlap_pair(rho, sigma)
    return max_log_ratio(pp, qq)


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
    tau = rho_t - np.diag(q)
    num = 2.0 * np.abs(tau) ** 2
    den = q[:, None] + q[None, :]
    bad = (den == 0.0) & (np.abs(tau) > _ZERO_NUM)
    if np.any(bad):
        return float("inf")
    ok = den > 0.0
    return float(np.sum(num[ok] / den[ok]))


def bures_chi2(rho: np.ndarray, sigma) -> float:
    """Bures chi-square divergence of the density matrix rho from sigma.

    Rotates rho into sigma's eigenbasis (sigma may be given as its
    spectral decomposition) and applies :func:`bures_chi2_in_basis`;
    unitary invariance makes the choice of eigenbasis immaterial.
    """
    dec = linalg.decompose(sigma)
    rho_t = dec.vectors.conj().T @ np.asarray(rho, dtype=complex) @ dec.vectors
    return bures_chi2_in_basis(rho_t, dec.values)


def quantum_mutual_information(rho: np.ndarray, d_a: int, d_b: int) -> float:
    """Relative entropy of a bipartite state from the product of marginals,
    whose eigensystem is ``linalg.product_of_marginals``."""
    return relative_entropy(rho, linalg.product_of_marginals(rho, d_a, d_b))


def quantum_chain(rho: np.ndarray, sigma: np.ndarray) -> dict:
    """All quantities in the quantum divergence chain, for two matrices.

    The chain: H^2/2 <= D_tr <= D_B <= sqrt(KL), plus the reverse bound
    KL <= (2 + max_log_ratio) * H^2 and the sandwich D_B^2 <= H^2 <= 2 D_B^2.
    ``bures_chi2`` is reported but is no link: KL <= chi2 holds for the
    Petz chi2, tr(rho^2 sigma^-1) - 1, not for the Bures chi2, the
    smallest quantum chi2.  The pure state with amplitudes
    (sqrt p, sqrt(1-p)) against its dephasing diag(p, 1-p) has
    KL = H(p) = 0.0560 > Bures chi2 = 4p(1-p) = 0.0396 at p = 0.01.
    Each state is diagonalized once and every entry equals the matching
    public function on the two matrices.
    """
    dr, ds = linalg.decompose(rho), linalg.decompose(sigma)
    h2 = hellinger_sq_q(dr, ds)
    out = {
        "trace_distance": trace_distance(rho, sigma),
        "bures_sq": bures_sq(dr, ds),
        "hellinger_sq": h2,
        "kl": relative_entropy(dr, ds),
        "bures_chi2": bures_chi2(rho, ds),
        "max_log_ratio": max_log_ratio_q(dr, ds),
    }
    out["reverse_bound"] = (2.0 + out["max_log_ratio"]) * h2 \
        if np.isfinite(out["max_log_ratio"]) else float("inf")
    return out


def kl_from_infidelity_bound(d: int, eps: float) -> float:
    """Relative-entropy bound after depolarizing an infidelity-eps estimate.

    If the estimate has infidelity at most eps <= 1/2, mixing it with
    2*eps of the maximally mixed state bounds the relative entropy by
    16 eps (2 + ln(d / (2 eps))).
    """
    if not 0.0 < eps <= 0.5:
        raise ValueError("eps must lie in (0, 1/2]")
    return 16.0 * eps * (2.0 + np.log(d / (2.0 * eps)))
