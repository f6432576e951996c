"""Reference values for the divergence chains, from numpy alone.

The divergence-chain workload checks every value the library returns
against these.  Where a second route exists it is taken: fidelity by
Uhlmann's eigenvalue form instead of a singular-value sum, relative
entropy by a matrix logarithm instead of the eigenbasis-overlap pair,
and the Bures chi-square by solving the Lyapunov equation
``(sigma X + X sigma) / 2 = rho - sigma`` instead of the closed form in
sigma's eigenbasis.  The max-log-ratio is defined by the library on the
overlap pair, so it is restated from that definition.

Eigenvalues at or below ``CUTOFF`` count as exact zeros, as in the
library, so that the support of a rank-deficient state is decided the
same way by both routes.
"""

from __future__ import annotations

import numpy as np

CUTOFF = 1e-12
# weight of rho outside sigma's support above which the relative entropy
# and the Bures chi-square are +inf
SUPPORT_TOL = 1e-10
# far below any product of two eigenvalues above CUTOFF that matters at
# the check's tolerance, far above eigensolver noise
UHLMANN_FLOOR = 1e-14


def _eigh(a):
    w, v = np.linalg.eigh(a)
    return np.where(w <= CUTOFF, 0.0, w), v


def _sqrtm(a):
    w, v = _eigh(a)
    return (v * np.sqrt(w)) @ v.conj().T


def _bures_chi2(rho, sigma, outside: float) -> float:
    if outside > SUPPORT_TOL:
        return float("inf")
    d = rho.shape[0]
    eye = np.eye(d)
    lyap = 0.5 * (np.kron(sigma, eye) + np.kron(eye, sigma.T))
    rhs = (rho - sigma).reshape(-1)
    x, *_ = np.linalg.lstsq(lyap, rhs, rcond=CUTOFF)
    return float(np.real(np.vdot(rhs, x)))


def _max_log_ratio(p, pv, q, qv) -> float:
    w = np.abs(pv.conj().T @ qv) ** 2
    pairs = (w > CUTOFF ** 2) & (p[:, None] > 0.0)
    if not np.any(pairs):
        return float("-inf")
    if np.any(pairs & (q[None, :] == 0.0)):
        return float("inf")
    ratio = np.log(np.where(pairs, p[:, None], 1.0)
                   / np.where(pairs, q[None, :], 1.0))
    return float(np.max(ratio[pairs]))


def quantum_chain(rho, sigma) -> dict:
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    p, pv = _eigh(rho)
    q, qv = _eigh(sigma)
    sr, ss = _sqrtm(rho), _sqrtm(sigma)
    # zero eigenvalues of sqrt(rho) sigma sqrt(rho) come out as +-1e-17;
    # their square roots would add 3e-9 apiece
    uhlmann = np.linalg.eigvalsh(sr @ sigma @ sr)
    fid = float(np.sum(np.sqrt(np.where(uhlmann <= UHLMANN_FLOOR, 0.0,
                                        uhlmann))))
    h2 = 2.0 * (1.0 - float(np.trace(sr @ ss).real))

    kernel = qv[:, q == 0.0]
    outside = float(np.trace(kernel.conj().T @ rho @ kernel).real)
    if outside > SUPPORT_TOL:
        kl = float("inf")
    else:
        logq = np.where(q > 0.0, np.log(np.where(q > 0.0, q, 1.0)), 0.0)
        log_sigma = (qv * logq) @ qv.conj().T
        pos = p > 0.0
        kl = float(np.sum(p[pos] * np.log(p[pos]))
                   - np.trace(rho @ log_sigma).real)

    mlr = _max_log_ratio(p, pv, q, qv)
    return {
        "trace_distance": 0.5 * float(np.sum(np.abs(
            np.linalg.eigvalsh(rho - sigma)))),
        "bures_sq": 2.0 * (1.0 - fid),
        "hellinger_sq": h2,
        "kl": kl,
        "bures_chi2": _bures_chi2(rho, sigma, outside),
        "max_log_ratio": mlr,
        "reverse_bound": (2.0 + mlr) * h2 if np.isfinite(mlr)
        else float("inf"),
    }


def classical_chain(p, q) -> dict:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    h2 = float(np.sum((np.sqrt(p) - np.sqrt(q)) ** 2))
    mlr = float(np.max(np.log(p / q)))
    return {
        "tv": 0.5 * float(np.sum(np.abs(p - q))),
        "hellinger_sq": h2,
        "kl": float(np.sum(p * np.log(p / q))),
        "chi2": float(np.sum((p - q) ** 2 / q)),
        "max_log_ratio": mlr,
        "reverse_bound": (2.0 + mlr) * h2,
    }
