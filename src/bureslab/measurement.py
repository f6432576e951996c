"""Single-copy measurement simulation against known density matrices.

Copies are an accounting fiction here: sampling k outcomes of a POVM is
one multinomial draw (O(d) work however large k is), so astronomically
large budgets cost nothing.  The :class:`CopyBudget` type exists to make
every algorithm's copy consumption explicit and auditable.

Two measurement types exist, and each reads its outcome probabilities
from rho without building or eigen-checking a matrix per outcome:

* :class:`Povm`, a measurement in an orthonormal basis.  The basis is
  validated once (square and unitary), and the probabilities are the
  diagonal of U^dagger rho U; no projector is ever formed.
* :class:`PairRound`, one matching of pair-interference outcomes, whose
  probabilities come in closed form from rho's diagonal and the matched
  off-diagonal entries (see :func:`matching_povms`).

Both hand ``sample_povm`` a vector of Born probabilities; a vector that
dips below zero past round-off means the input was not a state, and the
sampler raises instead of clipping it away.  Every vector is judged at
unit scale against PSD_TOL.  Conditional states are formed only above
``config.PASS_MASS_FLOOR`` (:func:`filter_subset`), where round-off
amplified by the pass probability stays far inside that tolerance.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import config, linalg

__all__ = [
    "BudgetExhausted",
    "CopyBudget",
    "Povm",
    "PairRound",
    "sample_povm",
    "sample_basis",
    "filter_subset",
    "matching_round_count",
    "matching_povms",
    "pauli_bases",
]


class BudgetExhausted(RuntimeError):
    """Raised when an algorithm asks for more copies than it was given."""


@dataclass
class CopyBudget:
    """Mutable counter of measurement copies.

    ``take`` spends copies, raising once the total would be exceeded.
    Totals are int64-safe.
    """

    total: int
    consumed: int = 0

    @property
    def remaining(self) -> int:
        return self.total - self.consumed

    def take(self, k: int) -> int:
        if k < 0:
            raise ValueError("cannot take a negative number of copies")
        if k > self.remaining:
            raise BudgetExhausted(
                f"requested {k} copies with only {self.remaining} remaining")
        self.consumed += k
        return k


@dataclass(frozen=True)
class Povm:
    """Rank-one projective measurement onto the columns of a unitary.

    The basis must be square and unitary; it is checked once.  Outcome
    k has probability <u_k|rho|u_k>, the k-th diagonal entry of
    U^dagger rho U, read without forming the projectors u_k u_k^dagger.
    For a square unitary the projectors sum to the identity, so that
    needs no check of its own.  Outcome k is labelled k.
    """

    basis: np.ndarray
    labels: tuple = field(init=False)

    def __post_init__(self):
        u = np.asarray(self.basis, dtype=complex)
        if u.ndim != 2:
            raise ValueError(f"basis must be a matrix, got shape {u.shape}")
        if u.shape[0] != u.shape[1]:
            raise ValueError(f"a {u.shape[0]} x {u.shape[1]} basis does not "
                             "resolve the identity: it must be square")
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) > config.UNITARY_TOL:
            raise ValueError("basis matrix is not unitary")
        object.__setattr__(self, "basis", u)
        object.__setattr__(self, "labels", tuple(range(u.shape[1])))

    @property
    def n_outcomes(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @classmethod
    def from_basis(cls, u: np.ndarray) -> "Povm":
        """Rank-one POVM of projectors onto the columns of a unitary."""
        return cls(basis=u)

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """<u_k|rho|u_k> = Re sum_i conj(u_ik) (rho u)_ik for each column k."""
        u = self.basis
        return np.einsum("ik,ik->k", u.conj(), np.asarray(rho) @ u).real


class PairRound:
    """One matching's pair-interference measurement, in closed form.

    ``pairs`` is the matching as (i, j) with i < j, plus at most one bye
    (i, None).  A pair contributes the outcomes (i, j, +1) and (i, j, -1)
    with probabilities avg(rho_ii, rho_jj) +- Re rho_ij, or +- Im rho_ij
    when ``imaginary``; the bye contributes (i, None, 0) with probability
    rho_ii.  ``rows``, ``cols``, ``plus`` and ``minus`` index the proper
    pairs and the positions of their two outcomes in ``labels``; they are
    read-only, because rounds are cached and shared.
    """

    def __init__(self, dim: int, pairs, imaginary: bool):
        self.dim, self.pairs, self.imaginary = dim, tuple(pairs), imaginary
        labels = self.labels
        self.n_outcomes = len(labels)
        self.bye = next(((i, k) for k, (i, j, _) in enumerate(labels)
                         if j is None), ())
        at = [k for k, label in enumerate(labels) if label[2] == 1]
        self.rows = np.array([labels[k][0] for k in at], dtype=int)
        self.cols = np.array([labels[k][1] for k in at], dtype=int)
        self.plus = np.array(at, dtype=int)
        self.minus = self.plus + 1
        # flat positions of rho_ii, rho_jj, rho_ij, rho_ji: one gather
        r, c = self.rows, self.cols
        self._gather = np.concatenate([r * (dim + 1), c * (dim + 1),
                                       r * dim + c, c * dim + r])
        for a in (self.rows, self.cols, self.plus, self.minus, self._gather):
            a.setflags(write=False)

    @property
    def labels(self) -> tuple:
        """(i, j, +1) and (i, j, -1) per pair, (i, None, 0) for the bye."""
        return tuple(label for i, j in self.pairs for label in
                     ([(i, None, 0)] if j is None else [(i, j, 1), (i, j, -1)]))

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Born probabilities of the outcomes, in ``labels`` order.

        Outcome (i, j, s) has the element (|i><i| + |j><j|)/2 plus s/2
        times |i><j| + |j><i| (real round) or i|i><j| - i|j><i|
        (imaginary round).  Its Born sum tr(E rho) is taken row by row,
        row i then row j, with rho_ji read where row i meets it.  That is
        the order in which numpy's einsum sums a dense (d, d) element, so
        the values equal the dense Born rule bit for bit, also when rho
        is Hermitian only to round-off.
        """
        rho = np.asarray(rho)
        if rho.shape != (self.dim, self.dim):
            raise ValueError(f"expected a {self.dim} x {self.dim} state, "
                             f"got shape {rho.shape}")
        ii, jj, ij, ji = rho.reshape(-1)[self._gather].reshape(4, -1)
        half_ii = 0.5 * ii.real
        half_jj = 0.5 * jj.real
        if self.imaginary:
            x_ij = 0.5 * ij.imag
            x_ji = -0.5 * ji.imag
        else:
            x_ij = 0.5 * ij.real
            x_ji = 0.5 * ji.real
        p = np.empty(self.n_outcomes)
        p[self.plus] = (half_ii + x_ji) + (x_ij + half_jj)
        p[self.minus] = (half_ii - x_ji) + (-x_ij + half_jj)
        if self.bye:
            b, at = self.bye
            p[at] = rho[b, b].real
        return p


def _sampling_probs(raw: np.ndarray) -> np.ndarray:
    """Born probabilities made exact for sampling.

    Round-off within PSD_TOL below zero is clipped and the vector is
    renormalized; anything more negative means the measured matrix was
    not a state, and raises.
    """
    low = raw.min()
    if low < -config.PSD_TOL:
        raise ValueError(f"outcome probability {low:.3g} is negative: "
                         "the measured matrix is not a state")
    p = np.maximum(raw, 0.0)
    s = p.sum()
    if s <= 0.0:
        raise ValueError("all outcome probabilities vanish")
    return p / s


def sample_povm(povm, rho: np.ndarray, k: int,
                rng: np.random.Generator,
                budget: CopyBudget | None = None) -> np.ndarray:
    """Outcome counts from measuring k copies; one multinomial draw.

    ``povm`` is a :class:`Povm` or a :class:`PairRound`.
    """
    if budget is not None:
        budget.take(k)
    p = _sampling_probs(povm.probabilities(rho))
    return rng.multinomial(k, p)


def sample_basis(rho: np.ndarray, k: int,
                 rng: np.random.Generator) -> np.ndarray:
    """Computational-basis counts; probabilities are just diag(rho)."""
    p = _sampling_probs(np.diag(np.asarray(rho)).real)
    return rng.multinomial(k, p)


def filter_subset(rho: np.ndarray, subset, k: int,
                  rng: np.random.Generator):
    """Project k copies onto the span of basis subset S.

    Simulates the two-outcome measurement {P_S, Id - P_S}: returns the
    number of copies that landed inside S (binomial with mean k tr rho[S])
    and the conditional state on success, or None when tr rho[S] is at or
    below ``config.PASS_MASS_FLOOR`` (see ``linalg.restrict``).
    """
    tau = min(max(linalg.mass_on(rho, subset), 0.0), 1.0)
    kept = int(rng.binomial(k, tau)) if k > 0 else 0
    cond = linalg.restrict(rho, subset)
    return kept, cond


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


def matching_povms(d: int):
    """Pair-interference measurements covering every off-diagonal entry once.

    The complete graph on basis indices is split into matchings; each
    matching M yields two measurements.  For a pair {i, j} in M the
    "real" one has the outcomes

        X+-_ij = (|i><i| + |j><j|)/2 +- (|i><j| + |j><i|)/2

    with probabilities avg(rho_ii, rho_jj) +- Re rho_ij; the "imag" one
    carries a factor 1j on the off-diagonal part and sees +- Im rho_ij.
    Odd d is handled by a phantom vertex: the unmatched index
    contributes its bare projector as a single outcome.  The outcomes
    are never built as matrices: each :class:`PairRound` computes its
    probabilities from those entries of rho directly.

    Returns a list of (pairs, real_round, imag_round) triples, where
    pairs is the matching as a list of (i, j) with i < j; a pair
    (i, None) marks the bye outcome.  Labels on the rounds are
    (i, j, +1/-1) and (i, None, 0) accordingly.
    """
    return [(list(pairs), real, imag)
            for pairs, real, imag in _matching_rounds(d)]


@functools.lru_cache(maxsize=None)
def _matching_rounds(d: int) -> tuple:
    """The rounds of :func:`matching_povms`, built once per dimension."""
    n = matching_round_count(d) + 1
    rounds = []
    for matching in _round_robin(n):
        pairs = tuple((i, None) if j == d else (i, j) for (i, j) in matching)
        rounds.append((pairs, PairRound(d, pairs, imaginary=False),
                       PairRound(d, pairs, imaginary=True)))
    return tuple(rounds)


def pauli_bases():
    """The three single-qubit measurement bases as POVMs, keyed X/Y/Z."""
    rt = 1.0 / np.sqrt(2.0)
    x = np.array([[rt, rt], [rt, -rt]], dtype=complex)
    y = np.array([[rt, rt], [1j * rt, -1j * rt]], dtype=complex)
    z = np.eye(2, dtype=complex)
    return {"X": Povm.from_basis(x), "Y": Povm.from_basis(y),
            "Z": Povm.from_basis(z)}
