"""Single-copy measurement simulation against known density matrices.

Copies are an accounting fiction here: sampling k outcomes of a POVM is
one multinomial draw (O(d) work however large k is), so astronomically
large budgets cost nothing.  The samplers take plain copy counts; a
staged run's copies are stated by its plan and its stage records
(``pipeline.CentralOutput``), not counted here.

Two measurement types exist, and each reads its outcome probabilities
from rho without building or eigen-checking a matrix per outcome:

* :class:`Povm`, a measurement in an orthonormal basis.  The basis is
  validated once (square and unitary), and the probabilities are the
  diagonal of U^dagger rho U; no projector is ever formed.  The same
  projectors under new labels (``Povm.permuted``) need no second check.
* :class:`MatchingDesign`, every pair-interference measurement of one
  dimension stacked into one record: one row of Born probabilities per
  measurement, all read in closed form from rho's diagonal and its
  off-diagonal entries through one cached four-term map (see
  :func:`matching_povms`).

Both hand ``sample_povm`` Born probabilities, a vector or one row per
measurement, and each row is one multinomial distribution of the same
draw.  A row that dips below zero past round-off means the input was not
a state, and the sampler raises instead of clipping it away.  Every row
is judged at unit scale against PSD_TOL.

A filter onto a block of basis vectors (:func:`filter_subset`) reads
only the block's pass mass, so a caller that knows the mass need not
form the block.  Conditional states are formed only above
``config.PASS_MASS_FLOOR`` (``linalg.restrict``, the state that
survives the filter), where round-off amplified by the pass probability
stays far inside that tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import config

__all__ = [
    "BudgetExhausted",
    "Povm",
    "MatchingDesign",
    "sample_povm",
    "sample_basis",
    "filter_subset",
    "matching_round_count",
    "matching_povms",
]


class BudgetExhausted(RuntimeError):
    """Raised when an algorithm asks for more copies than it was given."""


@dataclass(frozen=True)
class Povm:
    """Rank-one projective measurement onto the columns of a unitary.

    The basis must be square and unitary; it is checked once.  Outcome
    k has probability <u_k|rho|u_k>, the k-th diagonal entry of
    U^dagger rho U, read without forming the projectors u_k u_k^dagger.
    For a square unitary the projectors sum to the identity, so that
    needs no check of its own.
    """

    basis: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.basis, dtype=complex)
        if u.ndim != 2:
            raise ValueError(f"basis must be a matrix, got shape {u.shape}")
        if u.shape[0] != u.shape[1]:
            raise ValueError(f"a {u.shape[0]} x {u.shape[1]} basis does not "
                             "resolve the identity: it must be square")
        gram = u.conj().T @ u
        gram.reshape(-1)[::u.shape[0] + 1] -= 1.0  # U^dagger U - Id
        if not np.abs(gram).max() <= config.UNITARY_TOL:
            raise ValueError("basis matrix is not unitary")
        object.__setattr__(self, "basis", u)

    @classmethod
    def from_basis(cls, u: np.ndarray) -> "Povm":
        """Rank-one POVM of projectors onto the columns of a unitary."""
        return cls(basis=u)

    def permuted(self, order) -> "Povm":
        """The same projectors reordered: its outcome k is ``order[k]``.

        Its basis is U P for the permutation matrix P of ``order``, and
        (U P)^dagger (U P) - Id = P^T (U^dagger U - Id) P holds the same
        entries as the checked gram, so no second gram is formed; only
        ``order`` is checked to be a permutation of the outcomes.
        """
        order = np.asarray(order)
        d = self.basis.shape[0]
        # d nonnegative indices below d, each once (bincount refuses a
        # negative one)
        counts = np.bincount(order.ravel(), minlength=d)
        if order.shape != (d,) or counts.size != d or counts.min() != 1:
            raise ValueError(f"order must be a permutation of {d} outcomes")
        povm = object.__new__(Povm)
        object.__setattr__(povm, "basis", self.basis.take(order, axis=1))
        return povm

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """<u_k|rho|u_k> = Re sum_i conj(u_ik) (rho u)_ik for each column k."""
        u = self.basis
        return np.einsum("ik,ik->k", u.conj(), np.asarray(rho) @ u).real


def _sampling_probs(raw: np.ndarray) -> np.ndarray:
    """Born probabilities made exact for sampling, row by row.

    Round-off within PSD_TOL below zero is clipped and each row (a vector
    is one row) is renormalized; anything more negative, or a NaN, in any
    row means the measured matrix was not a state, and raises, as does a
    row whose mass vanishes.
    """
    low = raw.min()
    if not low >= -config.PSD_TOL:
        raise ValueError(f"outcome probability {low:.3g} is negative: "
                         "the measured matrix is not a state")
    p = np.maximum(raw, 0.0)
    s = p.sum(axis=-1, keepdims=True)
    if s.min() <= 0.0:
        raise ValueError("all outcome probabilities vanish")
    p /= s
    return p


def sample_povm(povm, rho: np.ndarray, k: int,
                rng: np.random.Generator) -> np.ndarray:
    """Outcome counts from measuring k copies; one multinomial draw.

    ``povm`` is a :class:`Povm`, which measures all k copies, or a
    :class:`MatchingDesign`, whose rows share the k copies evenly: each
    row measures k / n_rows of them, and the counts come back as one row
    per measurement.  Either way the counts sum to k.  A refused call
    draws nothing.
    """
    p = _sampling_probs(povm.probabilities(rho))
    shots, extra = divmod(k, len(p)) if p.ndim == 2 else (k, 0)
    if extra:
        raise ValueError(f"{k} copies do not split evenly over "
                         f"{len(p)} measurements")
    return rng.multinomial(shots, p)


def sample_basis(rho: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Computational-basis counts; probabilities are just diag(rho)."""
    p = _sampling_probs(np.diag(np.asarray(rho)).real)
    return rng.multinomial(k, p)


def filter_subset(mass: float, k: int,
                  rng: np.random.Generator) -> int:
    """Project k copies onto the span of a block's basis vectors.

    ``mass`` is the pass mass, tr blk for the principal block blk of the
    state on those vectors.  Round-off within PSD_TOL past either end of
    [0, 1] is clipped; a mass further out, or a NaN, is not a
    probability and raises.  Simulates the two-outcome measurement
    {P, Id - P} and returns the number of copies that pass, binomial
    with mean k times the mass.  The conditional state on success is
    ``linalg.restrict(blk, mass)``; a caller that estimates from the
    survivors builds it once itself.  A negative k is not a copy count
    and raises before anything is drawn.
    """
    if k < 0:
        raise ValueError(f"cannot filter a negative number of copies ({k})")
    tau = float(mass)
    if not -config.PSD_TOL <= tau <= 1.0 + config.PSD_TOL:
        raise ValueError(f"pass mass {tau:.3g} is not a probability")
    tau = min(max(tau, 0.0), 1.0)
    return int(rng.binomial(k, tau)) if k > 0 else 0


# ---------------------------------------------------------------------------
# structured POVM families
# ---------------------------------------------------------------------------

def _round_robin(n: int):
    """Partition the edges of K_n (n even) into n-1 perfect matchings."""
    players = list(range(n))
    rounds = []
    for _ in range(n - 1):
        pairs = [tuple(sorted((players[i], players[n - 1 - i])))
                 for i in range(n // 2)]
        rounds.append(pairs)
        # fix player 0, rotate the rest one step
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def matching_round_count(d: int) -> int:
    """Number of matchings :func:`matching_povms` returns: d-1 even, d odd."""
    if d < 2:
        raise ValueError("need dimension at least 2")
    return d - 1 if d % 2 == 0 else d


@dataclass(frozen=True, eq=False)
class MatchingDesign:
    """All pair-interference measurements of dimension ``dim``, stacked.

    There are R matchings (:func:`matching_round_count`), each of P
    proper pairs (i, j), i < j, plus at odd d one bye.  Each matching is
    measured twice, real then imaginary, so the design has 2R rows of
    ``dim`` outcomes, in the order real_0, imag_0, real_1, imag_1, ...
    Within a row, pair (i, j) owns two adjacent outcomes, + then -, in
    the matching's order, and the bye owns one.

    * ``rows``, ``cols``: (R, P) indices i and j of the proper pairs.
    * ``plus``, ``minus``: (2, R, P) flat positions, in the raveled
      (2R, dim) outcome matrix, of each pair's + and - outcome in the
      real (``[0]``) and the imaginary (``[1]``) row of its round.
    * ``terms``, ``weights``: (4, 2R dim) the four-term map of
      :meth:`probabilities`.  Outcome k reads the entries at positions
      ``terms[:, k]`` of rho viewed as 2 dim^2 real numbers followed by
      one zero, and scales them by ``weights[:, k]``: +-1/2 for a pair,
      and 1 for a bye (at odd d, the one outcome of each row that
      ``plus`` and ``minus`` leave out), whose last three terms read
      the zero.
    * ``entries``: (2, 2, R, P) flat positions, in rho viewed as 2 dim^2
      real numbers, of the real and the imaginary part of each pair's
      rho_ij (``[0]``) and rho_ji (``[1]``): where the map reads them,
      and where an estimate of rho holds them.

    The arrays are read-only, because designs are cached and shared.
    """

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    terms: np.ndarray
    weights: np.ndarray
    entries: np.ndarray

    @property
    def n_rows(self) -> int:
        """The number of measurements, 2R."""
        return 2 * self.rows.shape[0]

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Born probabilities, one row of ``dim`` outcomes per measurement.

        Outcome (i, j, s) has the element (|i><i| + |j><j|)/2 plus s/2
        times |i><j| + |j><i| (real row) or i|i><j| - i|j><i|
        (imaginary row); the bye's outcome is |i><i|.  Its Born sum
        tr(E rho) is taken row by row, row i then row j, with rho_ji
        read where row i meets it: the four terms rho_ii/2, the rho_ji
        term, the rho_ij term and rho_jj/2 are summed as
        (t0 + t1) + (t2 + t3).  That is the order in which numpy's
        einsum sums a dense (d, d) element, so the values equal the
        dense Born rule bit for bit, also when rho is Hermitian only to
        round-off.
        """
        d = self.dim
        rho = np.asarray(rho)
        if rho.shape != (d, d):
            raise ValueError(f"expected a {d} x {d} state, "
                             f"got shape {rho.shape}")
        parts = np.zeros(2 * d * d + 1)  # rho's real view, then the zero
        parts[:-1].view(complex).reshape(d, d)[...] = rho
        t = parts[self.terms]
        t *= self.weights
        return ((t[0] + t[1]) + (t[2] + t[3])).reshape(-1, d)


@functools.lru_cache(maxsize=None)
def matching_povms(d: int) -> MatchingDesign:
    """Pair-interference measurements covering every off-diagonal entry once.

    The complete graph on basis indices is split into matchings; each
    matching M yields two measurements.  For a pair {i, j} in M the
    "real" one has the outcomes

        X+-_ij = (|i><i| + |j><j|)/2 +- (|i><j| + |j><i|)/2

    with probabilities avg(rho_ii, rho_jj) +- Re rho_ij; the "imag" one
    carries a factor 1j on the off-diagonal part and sees +- Im rho_ij.
    Odd d is handled by a phantom vertex: the unmatched index
    contributes its bare projector as a single outcome.  The outcomes
    are never built as matrices: the returned :class:`MatchingDesign`
    stacks every measurement and computes all their probabilities from
    those entries of rho at once.  It is built once per dimension.
    """
    n_rounds = matching_round_count(d)
    pairs = np.array(_round_robin(n_rounds + 1))  # (R, pairs, 2), i < j
    is_bye = pairs[..., 1] == d                    # matched to the phantom
    width = 2 - is_bye                             # outcomes per pair
    first = np.cumsum(width, axis=1) - width       # its first outcome
    rows, cols, at = (a[~is_bye].reshape(n_rounds, -1)
                      for a in (pairs[..., 0], pairs[..., 1], first))
    byes = pairs[..., 0][is_bye]
    # row 2r measures round r's real part, row 2r + 1 its imaginary part
    row_start = d * np.arange(2 * n_rounds).reshape(n_rounds, 2).T
    plus = row_start[:, :, None] + at
    bye_at = row_start[:, :len(byes)] + first[is_bye]
    # the four terms of each outcome in rho's real view (a bye's last
    # three read the zero after it) and their weights; row 2r + part
    # reads Re (part 0) or Im (part 1) of rho_ji and rho_ij, and the
    # imaginary element reads rho_ji with the opposite sign
    terms = np.full((4, 2 * n_rounds * d), 2 * d * d)
    weights = np.ones((4, 2 * n_rounds * d))
    ij, ji = 2 * (rows * d + cols), 2 * (cols * d + rows)
    entries = np.array([[ij, ij + 1], [ji, ji + 1]])
    for part, sign in ((0, 1.0), (1, -1.0)):
        for pos, flip in ((plus[part], 1.0), (plus[part] + 1, -1.0)):
            terms[:, pos] = [2 * (d + 1) * rows, entries[1, part],
                             entries[0, part], 2 * (d + 1) * cols]
            weights[:, pos] = np.array(
                [0.5, 0.5 * sign * flip, 0.5 * flip, 0.5])[:, None, None]
    terms[0, bye_at] = 2 * (d + 1) * byes
    design = MatchingDesign(d, rows, cols, plus, plus + 1, terms, weights,
                            entries)
    for a in (rows, cols, plus, design.minus, terms, weights, entries):
        a.setflags(write=False)
    return design
