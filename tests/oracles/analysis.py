"""Closed forms from the paper's analysis that only the tests evaluate.

None of these lies on the library's learn -> convert -> test path; the
tests use them as references for what the library computes:

* the exact mean and the first-moment bound of the add-one estimator's
  chi-square risk (checked against Monte Carlo and against
  ``addone_mean_oracle.py``);
* the hat-weighted tail of the Bures chi-square, which splits the full
  divergence into a prefix block plus a tail, and the index-based form
  of it that the harness's structure flags read, summed through d x d
  index masks as the harness once did;
* the reverse-Pinsker bound (2 + max-log-ratio) H^2 on the relative
  entropy, the reference for the ``reverse_bound`` entry of
  ``divergences.quantum_chain``;
* the block split of D(xi x rho || sigma x tau) in the product
  eigenbasis of the references, and the closed forms that control each
  block through a spectrum floor;
* the mutual information of a classical joint table, the KL entry of
  ``divergences.classical_chain`` against the product of its marginals;
* the mutual-information ceiling for a joint near a product in squared
  Hellinger, with its two ingredients: the root-Hellinger cost of
  depolarizing and MI continuity in trace distance;
* the depolarizing channel itself, on a density matrix (the library's
  KL upgrade depolarizes a decomposition's values instead);
* the square-root divergences through matrix square roots, the route
  the library took before it read them off one eigenbasis overlap;
* a full density-matrix check (Hermitian, unit trace, PSD by one
  eigvalsh), which the tests apply to states the library builds.

Import from a test as ``from oracles import analysis``.
"""

import math

import numpy as np

from bureslab import config, linalg
from bureslab import divergences as dv
from bureslab.pipeline import ParameterError


# ---------------------------------------------------------------------------
# add-one estimator risk
# ---------------------------------------------------------------------------

def add_one_chi2_bound(mass: float, m: int, s: int) -> float:
    """First-moment bound on E[chi2(p[S] || q[S])] for the add-one estimator.

        s/(m+s) + ( (s-1)^2 / ((m+1)(m+s)) - 1/(m+s) ) * mass

    where mass = ||p[S]||_1.  At full support and mass 1 this collapses to
    (s-1)/(m+1); it is always at most 2s/m.
    """
    if s <= 0 or m <= 0:
        raise ValueError("m and s must be positive")
    return s / (m + s) + ((s - 1) ** 2 / ((m + 1) * (m + s)) - 1 / (m + s)) * mass


def add_one_expected_chi2(p, m: int, subset) -> float:
    """Exact E[chi2(p[S] || q[S])] for add-one counts from Multinomial(m, p).

    Sharpens the first-moment bound by the term that accounts for the
    event of a coordinate receiving zero counts:

        sum_{i in S}  1/(m+s)
                    + ( (s-1)^2/((m+1)(m+s)) - 1/(m+s)
                        - ((m+s)/(m+1)) (1-p_i)^{m+1} ) * p_i
    """
    p = np.asarray(p, dtype=float)
    idx = np.asarray(subset, dtype=int)
    s = idx.size
    pi = p[idx]
    lin = (s - 1) ** 2 / ((m + 1) * (m + s)) - 1 / (m + s)
    miss = ((m + s) / (m + 1)) * (1.0 - pi) ** (m + 1)
    return float(np.sum(1.0 / (m + s) + (lin - miss) * pi))


# ---------------------------------------------------------------------------
# divergence bounds
# ---------------------------------------------------------------------------

def bures_chi2_tail(rho_t: np.ndarray, q, ell: int) -> float:
    """The hat-weighted sum restricted to entries with max(i,j) >= ell.

    The hat bound weights entry (i, j) by 1/q_max(i,j) and dominates the
    full divergence; ``ell = 0`` gives the whole hat bound.  With L the
    prefix {0, .., ell-1}, this is the part of the hat bound that
    survives outside the L-block; the full divergence is at most
    (L-block divergence) + (this tail).  ``q`` must be nondecreasing.
    """
    rho_t = np.asarray(rho_t, dtype=complex)
    q = dv._weights(q)
    d = q.size
    if not 0 <= ell <= d:
        raise ValueError(f"ell must be in [0, {d}]")
    if np.any(np.diff(q) < -config.SPECTRAL_CUTOFF):
        raise ValueError("reference eigenvalues must be nondecreasing")
    q = linalg.spectral_cutoff(q)
    tau = rho_t - np.diag(q)
    i = np.arange(d)
    qmax = q[np.maximum(i[:, None], i[None, :])]
    sel = np.maximum(i[:, None], i[None, :]) >= ell
    num = 2.0 * np.abs(tau) ** 2
    bad = sel & (qmax == 0.0) & (np.abs(tau) > dv._ZERO_NUM)
    if np.any(bad):
        return float("inf")
    ok = sel & (qmax > 0.0)
    return float(np.sum(num[ok] / qmax[ok]))


def indexed_tail_by_masks(num: np.ndarray, q, ell: int) -> float:
    """The harness's ``_indexed_tail`` through the d x d index maximum.

    Sums 2 num_ij / q_k over the pairs whose larger index k = max(i, j)
    is at least ``ell`` and has q_k > 0, gathered by boolean masks; +inf
    when such a pair has q_k <= 0 and 2 num_ij > PSD_TOL^2.  q is taken
    as-is, in any order and with any sign.
    """
    idx = np.arange(q.size)
    kmax = np.maximum.outer(idx, idx)
    sel, qk = kmax >= ell, q[kmax]
    if np.any(sel & (qk <= 0.0) & (num > 0.5 * config.PSD_TOL ** 2)):
        return float("inf")
    ok = sel & (qk > 0.0)
    return float(2.0 * np.sum(num[ok] / qk[ok]))


def max_log_ratio_q(rho, sigma) -> float:
    """Order-infinity Renyi divergence of one pair: the classical
    max-log-ratio of its overlap pair; at most ln ||sigma^{-1}||."""
    pp, qq = dv.overlap_pair(rho, sigma)
    return dv.classical_chain(pp.ravel(), qq.ravel())["max_log_ratio"]


def reverse_pinsker_bound(rho, sigma) -> float:
    """(2 + max_log_ratio) * H^2, an upper bound on the relative entropy."""
    dr, ds = linalg.decompose(rho), linalg.decompose(sigma)
    m = max_log_ratio_q(dr, ds)
    if not np.isfinite(m):
        return float("inf")
    return (2.0 + m) * dv.hellinger_sq_q(dr, ds)


# ---------------------------------------------------------------------------
# product decomposition of the Bures chi-square
# ---------------------------------------------------------------------------

def _aligned(xi, rho, sigma_hat, tau_hat):
    """Rotate each factor into its reference's eigenbasis."""
    dec_s = linalg.eig_hermitian(np.asarray(sigma_hat, dtype=complex))
    dec_t = linalg.eig_hermitian(np.asarray(tau_hat, dtype=complex))
    s, t = dec_s.values, dec_t.values
    if s[0] <= 0.0 or t[0] <= 0.0:
        raise ParameterError("references must have positive spectrum")
    u, v = dec_s.vectors, dec_t.vectors
    xi_t = u.conj().T @ np.asarray(xi, dtype=complex) @ u
    rho_t = v.conj().T @ np.asarray(rho, dtype=complex) @ v
    return xi_t, rho_t, s, t


def _off_diag_sum(a: np.ndarray, w: np.ndarray) -> float:
    """Off-diagonal Bures chi-square block: sum 2|a_ij|^2 / (w_i + w_j)."""
    val = 2.0 * np.abs(a) ** 2 / (w[:, None] + w[None, :])
    np.fill_diagonal(val, 0.0)
    return float(val.sum())


def product_chi2_decomposition(xi, rho, sigma_hat, tau_hat) -> dict:
    """Exact block split of D(xi x rho || sigma_hat x tau_hat).

    Works in the product eigenbasis of the references and sums the
    Bures chi-square terms by index class: both coordinate pairs
    diagonal (on_on), exactly one diagonal (on_off), neither (off_off).
    The sums are direct, with the 4-index class materialized as a
    tensor, so keep the marginal dimensions modest.  All reference
    eigenvalues must be positive, which the floored learner guarantees.
    """
    xi_t, rho_t, s, t = _aligned(xi, rho, sigma_hat, tau_hat)
    x = np.real(np.diag(xi_t))
    y = np.real(np.diag(rho_t))
    ds, dt = s.size, t.size
    eye_a = np.eye(ds, dtype=bool)
    eye_b = np.eye(dt, dtype=bool)
    a2 = np.abs(xi_t) ** 2
    b2 = np.abs(rho_t) ** 2

    st = np.outer(s, t)
    on_on = float(np.sum((np.outer(x, y) - st) ** 2 / st))

    # a = b, i != j: entries xi_aa rho_ij over s_a (t_i + t_j)
    val_row = 2.0 * (x ** 2)[:, None, None] * b2[None, :, :] \
        / (s[:, None, None] * (t[:, None] + t[None, :])[None, :, :])
    val_row[:, eye_b] = 0.0
    # i = j, a != b: entries xi_ab rho_ii over (s_a + s_b) t_i
    val_col = 2.0 * a2[:, :, None] * (y ** 2)[None, None, :] \
        / ((s[:, None] + s[None, :])[:, :, None] * t[None, None, :])
    val_col[eye_a, :] = 0.0
    on_off = float(val_row.sum() + val_col.sum())

    num = 2.0 * a2[:, :, None, None] * b2[None, None, :, :]
    den = st[:, None, :, None] + st[None, :, None, :]
    mask = eye_a[:, :, None, None] | eye_b[None, None, :, :]
    ratio = num / den
    ratio[mask] = 0.0
    off_off = float(ratio.sum())

    return {"on_on": on_on, "on_off": on_off, "off_off": off_off,
            "total": on_on + on_off + off_off}


def product_chi2_controls(xi, rho, sigma_hat, tau_hat) -> dict:
    """Closed forms controlling each block of the product decomposition.

    on_on multiplies through the diagonal chi-squares exactly, on_off
    factorizes exactly into one-sided off-diagonal sums, and off_off is
    bounded by their product scaled through the spectrum floor: when
    every reference eigenvalue is at least floor_eps / d, the cross
    denominators cost at most a d / floor_eps blow-up.
    """
    xi_t, rho_t, s, t = _aligned(xi, rho, sigma_hat, tau_hat)
    x = np.real(np.diag(xi_t))
    y = np.real(np.diag(rho_t))
    chi_x = dv.classical_chain(x, s)["chi2"]
    chi_y = dv.classical_chain(y, t)["chi2"]
    off_xi = _off_diag_sum(xi_t, s)
    off_rho = _off_diag_sum(rho_t, t)
    d = max(s.size, t.size)
    floor_eps = d * float(min(s[0], t[0]))
    return {
        "chi_x": chi_x, "chi_y": chi_y,
        "off_xi": off_xi, "off_rho": off_rho,
        "on_on": (1.0 + chi_x) * (1.0 + chi_y) - 1.0,
        "on_off": (1.0 + chi_x) * off_rho + (1.0 + chi_y) * off_xi,
        "off_off_bound": (d / floor_eps) * off_xi * off_rho,
        "floor_eps": floor_eps,
    }


# ---------------------------------------------------------------------------
# mutual-information bounds
# ---------------------------------------------------------------------------

def classical_mutual_information(joint) -> float:
    """KL of a joint pmf matrix from the product of its marginals."""
    joint = np.asarray(joint, dtype=float)
    if joint.ndim != 2:
        raise ValueError("joint must be a 2-D array")
    product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    return dv.classical_chain(joint.ravel(), product.ravel())["kl"]


#: root-Hellinger growth coefficient for depolarizing both arguments
DEPOL_HELLINGER_COEFF = 4.0 + 4.0 * math.sqrt(2.0)


def depol_hellinger_shift(eps: float) -> float:
    """Root-Hellinger cost of blending eps of uniform noise into a pair."""
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return DEPOL_HELLINGER_COEFF * math.sqrt(eps)


def mi_continuity_bound(eps: float, d: int) -> float:
    """Largest MI shift between joints at trace distance eps.

    Two bipartite states with marginal dimension d and trace distance at
    most eps have mutual informations within 2 eps ln(4 d / eps) of each
    other.
    """
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    if eps == 0.0:
        return 0.0
    return 2.0 * eps * math.log(4.0 * d / eps)


def hellinger_mi_bound(eta: float, d: int) -> float:
    """MI ceiling for a joint near a product in squared Hellinger.

    If some product state sits within squared Hellinger eta^2 of the
    joint, its mutual information is at most this value.  The argument
    eta is the root divergence.  Internally both states are smoothed at
    level eps = min(eta^2, 1): the smoothing costs a root-Hellinger
    shift, the smoothed pair converts divergence to MI through the
    spectrum floor, and continuity carries the MI back to the original
    joint.  Exactly zero at eta = 0.
    """
    if eta < 0.0:
        raise ValueError("eta must be nonnegative")
    if d < 2:
        raise ValueError("marginal dimension must be at least 2")
    if eta == 0.0:
        return 0.0
    eps = min(eta * eta, 1.0)
    conversion = 2.0 + math.log(d * d / eps ** 2)
    core = conversion * (depol_hellinger_shift(eps) + eta)
    return core + mi_continuity_bound(eps, d)


def depolarize(rho: np.ndarray, eps: float) -> np.ndarray:
    """(1-eps) rho + eps Id/d."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    d = rho.shape[0]
    return (1.0 - eps) * rho + eps * np.eye(d, dtype=complex) / d


# ---------------------------------------------------------------------------
# square-root divergences through matrix square roots
# ---------------------------------------------------------------------------

def _root(state) -> np.ndarray:
    """sqrt(state) as a matrix, with the library's refusal and cutoff."""
    return linalg.psd_sqrt(state).matrix()


def fidelity_by_roots(rho, sigma) -> float:
    """|| sqrt(rho) sqrt(sigma) ||_1 from the two root matrices."""
    a = _root(rho) @ _root(sigma)
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def hellinger_affinity_by_roots(rho, sigma) -> float:
    """tr( sqrt(rho) sqrt(sigma) ) from the two root matrices."""
    return float(np.trace(_root(rho) @ _root(sigma)).real)


def hellinger_sq_q_by_roots(rho, sigma) -> float:
    return 2.0 * (1.0 - hellinger_affinity_by_roots(rho, sigma))


def bures_sq_by_roots(rho, sigma) -> float:
    return 2.0 * (1.0 - fidelity_by_roots(rho, sigma))


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace."""
    rho = linalg.require_hermitian(rho)
    if not abs(np.trace(rho).real - 1.0) <= config.TRACE_TOL:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if not w[0] >= -config.PSD_TOL:
        raise ValueError(f"negative eigenvalue {w[0]}")
    return rho
