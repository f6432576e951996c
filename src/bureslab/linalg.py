"""Hermitian linear algebra and state constructors.

Everything downstream works with plain complex ndarrays; the only wrapper
here is :class:`SpectralDecomposition`, the one (values, vectors) type of
the package.  It fixes the eigenvalue order (ascending) once, for the
staged algorithm's estimated bases and for the eigensystems the quantum
divergences read alike.  :func:`spectral_cutoff` is the one place that
rounds eigenvalues at or below SPECTRAL_CUTOFF to exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config

__all__ = [
    "SpectralDecomposition",
    "require_hermitian",
    "require_density",
    "eig_hermitian",
    "decompose",
    "spectral_cutoff",
    "psd_sqrt",
    "frob_sq",
    "trace_norm",
    "hermitian_part",
    "haar_unitary",
    "random_pure",
    "random_density",
    "maximally_mixed",
    "geometric_spectrum_state",
    "correlated_pair_state",
    "submatrix",
    "mass_on",
    "restrict",
    "partial_trace",
    "depolarize",
]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a complex array, raising if it is not Hermitian."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > config.HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


def require_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD, unit trace."""
    rho = require_hermitian(rho)
    if abs(np.trace(rho).real - 1.0) > config.TRACE_TOL:
        raise ValueError(f"trace is {np.trace(rho).real}, expected 1")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -config.PSD_TOL:
        raise ValueError(f"negative eigenvalue {w[0]}")
    return rho


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, or an estimated one; ascending.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.  Values
    are raw: they may dip below zero when produced from a noisy matrix
    estimate, which is exactly what keeps the diagonalization error
    identity of ``pipeline.diagonalize_estimate`` exact.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        if np.any(np.diff(self.values) < 0):
            raise ValueError("values must be ascending")

    def matrix(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def eig_hermitian(a: np.ndarray) -> SpectralDecomposition:
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    return SpectralDecomposition(values=w, vectors=v)


def decompose(state) -> SpectralDecomposition:
    """A state's eigensystem: passed through if given, else computed.

    Lets a function that reads a spectrum take either a Hermitian matrix
    or a :class:`SpectralDecomposition`, so a caller evaluating several
    divergences of one pair diagonalizes each state once.
    """
    if isinstance(state, SpectralDecomposition):
        return state
    return eig_hermitian(state)


def spectral_cutoff(values: np.ndarray) -> np.ndarray:
    """Eigenvalues at or below SPECTRAL_CUTOFF rounded to exact zeros.

    Such values are eigensolver noise; left positive they turn support
    comparisons (finite vs infinite divergence) into coin flips, and a
    square root amplifies 1e-16 of noise into 1e-8.
    """
    return np.where(values <= config.SPECTRAL_CUTOFF, 0.0, values)


def psd_sqrt(a) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix or decomposition.

    Eigenvalues in ``(-PSD_TOL, 0)`` are treated as float noise and
    zeroed; anything more negative raises.  Positive values are cut at
    SPECTRAL_CUTOFF by :func:`spectral_cutoff`.
    """
    dec = decompose(a)
    if dec.values[0] < -config.PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {dec.values[0]}")
    w = np.sqrt(spectral_cutoff(dec.values))
    return (dec.vectors * w) @ dec.vectors.conj().T


def frob_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.sum(np.abs(np.asarray(a)) ** 2))


def trace_norm(a: np.ndarray) -> float:
    """Sum of singular values; for Hermitian input, sum of |eigenvalues|."""
    a = np.asarray(a, dtype=complex)
    if np.max(np.abs(a - a.conj().T)) <= config.HERMITIAN_TOL:
        return float(np.sum(np.abs(np.linalg.eigvalsh(a))))
    return float(np.sum(np.linalg.svd(a, compute_uv=False)))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dagger)/2, the closest Hermitian matrix in Frobenius norm."""
    a = np.asarray(a, dtype=complex)
    return (a + a.conj().T) / 2.0


# ---------------------------------------------------------------------------
# random states and fixed families
# ---------------------------------------------------------------------------

def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    # fix the phase ambiguity so the distribution is exactly Haar
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a Haar-random unit vector."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_density(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``r`` density matrix, G G^dagger / tr with Ginibre G."""
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in [1, {d}], got {r}")
    g = rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def geometric_spectrum_state(d: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank state with spectrum proportional to 2^-k, Haar basis."""
    w = 0.5 ** np.arange(d)
    w /= w.sum()
    u = haar_unitary(d, rng)
    return (u * w) @ u.conj().T


def correlated_pair_state(d: int, lam: float) -> np.ndarray:
    """(1-lam) * (Id/d x Id/d) + lam * |Phi><Phi| on dimension d*d.

    |Phi> is the maximally entangled pair state.  Both marginals are Id/d
    for every lam, so all the mutual information lives in the correlation.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    phi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        phi[i * d + i] = 1.0 / np.sqrt(d)
    ent = np.outer(phi, phi.conj())
    return (1.0 - lam) * np.eye(d * d, dtype=complex) / (d * d) + lam * ent


# ---------------------------------------------------------------------------
# blocks, restrictions, channels
# ---------------------------------------------------------------------------

def submatrix(a: np.ndarray, subset) -> np.ndarray:
    """Principal submatrix on the index subset, order preserved."""
    idx = np.asarray(subset, dtype=int)
    return np.asarray(a)[np.ix_(idx, idx)]


def mass_on(rho: np.ndarray, subset) -> float:
    """tr rho[S], the probability a basis measurement lands in S."""
    idx = np.asarray(subset, dtype=int)
    return float(np.sum(np.diag(rho)[idx]).real)


def restrict(rho: np.ndarray, subset) -> np.ndarray | None:
    """Conditional state rho[S] / tr rho[S], or None at or below the floor.

    This is the one place the package forms a conditional state.  At a
    pass mass tau <= PASS_MASS_FLOOR the block is left unresolved: its
    normalized form would be round-off of rho amplified by 1 / tau.
    """
    blk = submatrix(rho, subset)
    tau = np.trace(blk).real
    if tau <= config.PASS_MASS_FLOOR:
        return None
    return blk / tau


def partial_trace(rho: np.ndarray, d_a: int, d_b: int, keep: str) -> np.ndarray:
    """Marginal of a state on C^{d_a} x C^{d_b}; keep is 'A' or 'B'."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d_a * d_b, d_a * d_b):
        raise ValueError(f"shape {rho.shape} does not match dims ({d_a},{d_b})")
    t = rho.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.trace(t, axis1=1, axis2=3)
    if keep == "B":
        return np.trace(t, axis1=0, axis2=2)
    raise ValueError("keep must be 'A' or 'B'")


def depolarize(rho: np.ndarray, eps: float) -> np.ndarray:
    """(1-eps) rho + eps Id/d."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("eps must lie in [0, 1]")
    d = rho.shape[0]
    return (1.0 - eps) * rho + eps * np.eye(d, dtype=complex) / d
