"""Hermitian linear algebra and state constructors.

Everything downstream works with plain complex ndarrays; the only wrapper
here is :class:`SpectralDecomposition`, the one (values, vectors) type of
the package.  It fixes the eigenvalue order (ascending) once, for the
staged algorithm's estimated bases and for the eigensystems the quantum
divergences read alike.  :func:`spectral_cutoff` is the one place that
rounds eigenvalues at or below SPECTRAL_CUTOFF to exact zeros, and
:func:`psd_values` the one place that refuses a negative spectrum.

The checks, :func:`decompose` and :func:`trace_norm` also take an
(n, d, d) stack of matrices: a decomposition then carries a leading axis
of n eigensystems, and one bad member refuses the whole stack.

Each state family's ``*_eig`` constructor returns ``(rho, dec)``: the
state, drawn and built exactly as the matrix constructors build it, and
its exact eigensystem, read off the draw instead of solved for.  The
values past a state's rank are exact zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import config

__all__ = [
    "SpectralDecomposition",
    "require_hermitian",
    "eig_hermitian",
    "decompose",
    "kron_decomposition",
    "product_of_marginals",
    "spectral_cutoff",
    "psd_values",
    "psd_sqrt",
    "frob_sq",
    "trace_norm",
    "hermitian_part",
    "haar_unitary",
    "random_pure",
    "random_pure_eig",
    "random_density",
    "random_density_eig",
    "maximally_mixed",
    "maximally_mixed_eig",
    "geometric_spectrum_eig",
    "correlated_pair_state",
    "correlated_pair_eig",
    "restrict",
    "marginals",
]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def require_hermitian(a: np.ndarray) -> np.ndarray:
    """Return ``a`` as a complex array, raising if it is not Hermitian.

    ``a`` is a square matrix or an (n, d, d) stack of them, and one
    member off by more than HERMITIAN_TOL, or holding a NaN, refuses the
    stack.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    skew = np.abs(a - a.conj().swapaxes(-1, -2)).max()
    if not skew <= config.HERMITIAN_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return a


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian matrix, or an estimated one; ascending.

    ``vectors[:, k]`` is the unit eigenvector for ``values[k]``.  Values
    are raw: they may dip below zero when produced from a noisy matrix
    estimate, which is exactly what keeps the diagonalization error
    identity of ``pipeline.make_state_diagonal`` exact.

    A stack of n eigensystems has values (n, d) and vectors (n, d, d),
    each row ascending.
    """

    values: np.ndarray
    vectors: np.ndarray

    def __post_init__(self):
        # compared pairwise rather than through np.diff, whose call costs
        # more than the check at the sizes the divergences see
        if (self.values[..., 1:] < self.values[..., :-1]).any():
            raise ValueError("values must be ascending")

    @classmethod
    def ascending(cls, values: np.ndarray,
                  vectors: np.ndarray) -> "SpectralDecomposition":
        """Sort one unordered eigensystem; a stable argsort keeps tied
        values in their given order."""
        order = np.argsort(values, kind="stable")
        return cls(values=values[order], vectors=vectors[:, order])

    def matrix(self) -> np.ndarray:
        v = self.vectors
        return (v * self.values[..., None, :]) @ v.conj().swapaxes(-1, -2)


def eig_hermitian(a: np.ndarray) -> SpectralDecomposition:
    a = require_hermitian(a)
    w, v = np.linalg.eigh(a)
    return SpectralDecomposition(values=w, vectors=v)


def decompose(state) -> SpectralDecomposition:
    """A state's eigensystem: passed through if given, else computed.

    Lets a function that reads a spectrum take either a Hermitian matrix
    or a :class:`SpectralDecomposition`, so a caller evaluating several
    divergences of one pair diagonalizes each state once.  An (n, d, d)
    stack is diagonalized in one batched solve.
    """
    if isinstance(state, SpectralDecomposition):
        return state
    return eig_hermitian(state)


def kron_decomposition(a: SpectralDecomposition,
                       b: SpectralDecomposition) -> SpectralDecomposition:
    """Eigensystem of a (x) b from those of a and b, with no new solve.

    u_i (x) v_j is an eigenvector of a (x) b for a_i b_j.  The outer
    products are taken by broadcasting, in ``np.kron``'s order: value
    and column i * len(b) + j belong to the pair (i, j).
    """
    n = a.values.size * b.values.size
    values = (a.values[:, None] * b.values[None, :]).reshape(n)
    vectors = (a.vectors[:, None, :, None]
               * b.vectors[None, :, None, :]).reshape(n, n)
    return SpectralDecomposition.ascending(values, vectors)


def product_of_marginals(pair) -> SpectralDecomposition:
    """Eigensystem of rho_A (x) rho_B from the pair (rho_A, rho_B) that
    :func:`marginals` returns: two marginal solves and no solve on the
    joint space."""
    rho_a, rho_b = pair
    return kron_decomposition(eig_hermitian(rho_a), eig_hermitian(rho_b))


def spectral_cutoff(values: np.ndarray) -> np.ndarray:
    """Eigenvalues at or below SPECTRAL_CUTOFF rounded to exact zeros.

    Such values are eigensolver noise; left positive they turn support
    comparisons (finite vs infinite divergence) into coin flips, and a
    square root amplifies 1e-16 of noise into 1e-8.
    """
    return np.where(values <= config.SPECTRAL_CUTOFF, 0.0, values)


def psd_values(dec: SpectralDecomposition) -> np.ndarray:
    """The values of a PSD eigensystem, cut by :func:`spectral_cutoff`.

    Values in ``(-PSD_TOL, 0)`` are float noise and become zeros; a
    member of a stack whose least value is below -PSD_TOL raises.  The
    values ascend, so each member's least is its first.  A NaN passes
    the ascending check wherever it sits, so the sum of all the values,
    which is not finite if any value is not, refuses it and an infinite
    value alike.
    """
    low = dec.values[..., 0].min()
    if not low >= -config.PSD_TOL:
        raise ValueError(f"matrix is not PSD: min eigenvalue {low}")
    if not math.isfinite(dec.values.sum()):
        raise ValueError("matrix is not PSD: a non-finite eigenvalue")
    return spectral_cutoff(dec.values)


def psd_sqrt(a) -> SpectralDecomposition:
    """Principal square root of a PSD Hermitian matrix or decomposition.

    Returned as its eigensystem: the same vectors, with values
    sqrt(psd_values(...)), still ascending; ``.matrix()`` forms the root.
    """
    dec = decompose(a)
    return SpectralDecomposition(values=np.sqrt(psd_values(dec)),
                                 vectors=dec.vectors)


def frob_sq(a: np.ndarray) -> float:
    """Squared Frobenius norm."""
    return float(np.sum(np.abs(np.asarray(a)) ** 2))


def trace_norm(a: np.ndarray):
    """Sum of |eigenvalues| of a Hermitian matrix, its singular values'
    sum; a non-Hermitian input is refused (:func:`require_hermitian`).

    A float for one matrix; for an (n, d, d) stack, the n norms.
    """
    a = require_hermitian(a)
    norms = np.abs(np.linalg.eigvalsh(a)).sum(axis=-1)
    return float(norms) if a.ndim == 2 else norms


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dagger)/2, the closest Hermitian matrix in Frobenius norm.

    The sum is scaled in place by 1/2, which equals the division by 2
    exactly.
    """
    a = np.asarray(a, dtype=complex)
    h = a + a.conj().T
    h *= 0.5
    return h


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


def _span_eig(g: np.ndarray) -> SpectralDecomposition:
    """Eigensystem of g g^dagger / ||g||_F^2 for a d x k draw g, k <= d.

    One complete SVD g = U diag(s) X^dagger gives g g^dagger =
    U diag(s^2) U^dagger: U's first k columns carry s^2, and the rest
    complete the basis with exact zeros.  It costs about a complete QR
    of g plus a k x k solve, not a d x d one.
    """
    u, s, _ = np.linalg.svd(g)
    values = np.zeros(g.shape[0])
    values[:s.size] = s * s / np.sum(s * s)
    return SpectralDecomposition(values=values[::-1], vectors=u[:, ::-1])


def _haar_vector(d: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def random_pure(d: int, rng: np.random.Generator) -> np.ndarray:
    """Projector onto a Haar-random unit vector."""
    v = _haar_vector(d, rng)
    return np.outer(v, v.conj())


def random_pure_eig(d: int, rng: np.random.Generator) -> tuple:
    """:func:`random_pure` and its eigensystem from the same draw: value 1
    on v, after a completed basis of its complement at value 0."""
    v = _haar_vector(d, rng)
    return np.outer(v, v.conj()), _span_eig(v[:, None])


def _ginibre(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    if not 1 <= r <= d:
        raise ValueError(f"rank must be in [1, {d}], got {r}")
    return rng.standard_normal((d, r)) + 1j * rng.standard_normal((d, r))


def _gram_state(g: np.ndarray) -> np.ndarray:
    """G G^dagger / tr for a d x r factor G, or for each member of an
    (n, d, r) stack of them."""
    rho = g @ g.conj().swapaxes(-1, -2)
    return rho / rho.trace(axis1=-2, axis2=-1).real[..., None, None]


def random_density(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random rank-``r`` density matrix, G G^dagger / tr with Ginibre G."""
    return _gram_state(_ginibre(d, r, rng))


def random_density_eig(d: int, r: int,
                       rng: np.random.Generator) -> tuple:
    """:func:`random_density` and its eigensystem from the same Ginibre
    factor G (d x r), by one complete SVD of G and no d x d solve."""
    g = _ginibre(d, r, rng)
    return _gram_state(g), _span_eig(g)


def maximally_mixed(d: int) -> np.ndarray:
    return np.eye(d, dtype=complex) / d


def maximally_mixed_eig(d: int) -> tuple:
    """:func:`maximally_mixed` and its eigensystem: every value 1/d on the
    identity basis."""
    return maximally_mixed(d), SpectralDecomposition(
        values=np.full(d, 1.0 / d), vectors=np.eye(d, dtype=complex))


def geometric_spectrum_eig(d: int, rng: np.random.Generator) -> tuple:
    """State with spectrum proportional to 2^-k, k < d, in a Haar basis
    U, with its eigensystem: those values reversed, on U's reversed
    columns.

    It is full rank only up to d = 39.  Its least value, 2^-(d-1) over
    a sum near 2, clears SPECTRAL_CUTOFF there and falls below it from
    d = 40 (9.1e-13), so from d = 40 only 39 values count and the state
    has rank 39.
    """
    w = 0.5 ** np.arange(d)
    w /= w.sum()
    u = haar_unitary(d, rng)
    return (u * w) @ u.conj().T, SpectralDecomposition(values=w[::-1],
                                                       vectors=u[:, ::-1])


def _entangled_pair(d: int) -> np.ndarray:
    phi = np.zeros(d * d, dtype=complex)
    for i in range(d):
        phi[i * d + i] = 1.0 / np.sqrt(d)
    return phi


def correlated_pair_state(d: int, lam: float) -> np.ndarray:
    """(1-lam) * (Id/d x Id/d) + lam * |Phi><Phi| on dimension d*d.

    |Phi> is the maximally entangled pair state.  Both marginals are Id/d
    for every lam, so all the mutual information lives in the correlation.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    phi = _entangled_pair(d)
    ent = np.outer(phi, phi.conj())
    return (1.0 - lam) * np.eye(d * d, dtype=complex) / (d * d) + lam * ent


def correlated_pair_eig(d: int, lam: float) -> tuple:
    """:func:`correlated_pair_state` and its eigensystem: (1-lam)/d^2 on a
    completed basis of Phi's complement, then (1-lam)/d^2 + lam on Phi."""
    rho = correlated_pair_state(d, lam)
    span = _span_eig(_entangled_pair(d)[:, None])
    return rho, SpectralDecomposition(
        values=(1.0 - lam) / (d * d) + lam * span.values,
        vectors=span.vectors)


# ---------------------------------------------------------------------------
# blocks and marginals
# ---------------------------------------------------------------------------

def restrict(blk: np.ndarray, mass: float) -> np.ndarray | None:
    """Conditional state blk / mass, or None at or below the floor.

    ``blk`` is a principal block of a state, unnormalized, and ``mass``
    is its trace, which the caller has already read: the probability
    that a copy passes a filter onto the block's basis vectors.  This is
    the one place the package forms a conditional state.  At a pass mass
    tau <= PASS_MASS_FLOOR the block is left unresolved: its normalized
    form would be round-off of the state amplified by 1 / tau.
    """
    if mass <= config.PASS_MASS_FLOOR:
        return None
    return blk / mass


def marginals(rho: np.ndarray, d: int) -> tuple:
    """(rho_A, rho_B), the two marginals of a state on C^d (x) C^d."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d * d, d * d):
        raise ValueError(f"shape {rho.shape} is not that of a {d} x {d} "
                         "bipartite state")
    t = rho.reshape(d, d, d, d)
    return np.trace(t, axis1=1, axis2=3), np.trace(t, axis1=0, axis2=2)
