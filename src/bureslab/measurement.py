"""Single-copy measurement simulation against known density matrices.

Copies are an accounting fiction here: sampling k outcomes of a POVM is
one multinomial draw (O(d) work however large k is), so astronomically
large budgets cost nothing.  The :class:`CopyBudget` type exists to make
every algorithm's copy consumption explicit and auditable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import config, linalg

__all__ = [
    "BudgetExhausted",
    "CopyBudget",
    "Povm",
    "born_probabilities",
    "sample_povm",
    "sample_basis",
    "filter_subset",
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
    """A POVM as a stacked array of PSD elements summing to the identity."""

    elements: np.ndarray
    labels: tuple = field(default=None)

    def __post_init__(self):
        el = np.asarray(self.elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise ValueError("elements must be a (k, d, d) array")
        for e in el:
            linalg.require_hermitian(e, tol=config.PSD_TOL)
            w = np.linalg.eigvalsh(e)
            if w[0] < -config.PSD_TOL:
                raise ValueError(f"POVM element has eigenvalue {w[0]}")
        total = el.sum(axis=0)
        if np.max(np.abs(total - np.eye(el.shape[1]))) > config.UNITARY_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", el)
        if self.labels is None:
            object.__setattr__(self, "labels", tuple(range(el.shape[0])))
        elif len(self.labels) != el.shape[0]:
            raise ValueError("one label per element required")

    @property
    def n_outcomes(self) -> int:
        return self.elements.shape[0]

    @property
    def dim(self) -> int:
        return self.elements.shape[1]

    @classmethod
    def from_basis(cls, u: np.ndarray) -> "Povm":
        """Rank-one POVM of projectors onto the columns of a unitary."""
        u = np.asarray(u, dtype=complex)
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) > config.UNITARY_TOL:
            raise ValueError("basis matrix is not unitary")
        el = np.einsum("ik,jk->kij", u, u.conj())
        return cls(elements=el)

    @classmethod
    def computational(cls, d: int) -> "Povm":
        return cls.from_basis(np.eye(d))


def born_probabilities(povm: Povm, rho: np.ndarray) -> np.ndarray:
    """tr(E_k rho) for each element, as real numbers."""
    rho = np.asarray(rho, dtype=complex)
    return np.einsum("kij,ji->k", povm.elements, rho).real


def _sampling_probs(raw: np.ndarray) -> np.ndarray:
    p = np.clip(raw, 0.0, None)
    s = p.sum()
    if s <= 0.0:
        raise ValueError("all outcome probabilities vanish")
    return p / s


def sample_povm(povm: Povm, rho: np.ndarray, k: int,
                rng: np.random.Generator,
                budget: CopyBudget | None = None) -> np.ndarray:
    """Outcome counts from measuring k copies; one multinomial draw."""
    if budget is not None:
        budget.take(k)
    p = _sampling_probs(born_probabilities(povm, rho))
    return rng.multinomial(k, p)


def sample_basis(rho: np.ndarray, k: int, rng: np.random.Generator,
                 budget: CopyBudget | None = None) -> np.ndarray:
    """Computational-basis counts; probabilities are just diag(rho)."""
    if budget is not None:
        budget.take(k)
    p = _sampling_probs(np.diag(np.asarray(rho)).real)
    return rng.multinomial(k, p)


def filter_subset(rho: np.ndarray, subset, k: int,
                  rng: np.random.Generator,
                  budget: CopyBudget | None = None):
    """Project k copies onto the span of basis subset S.

    Simulates the two-outcome measurement {P_S, Id - P_S}: returns the
    number of copies that landed inside S (binomial with mean k tr rho[S])
    and the conditional state on success, or None when tr rho[S] is ~0.
    """
    if budget is not None:
        budget.take(k)
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


def matching_povms(d: int):
    """Pair-interference POVMs covering every off-diagonal entry once.

    The complete graph on basis indices is split into matchings; each
    matching M yields two POVMs.  For a pair {i, j} in M the "real" POVM
    has elements

        X+-_ij = (|i><i| + |j><j|)/2 +- (|i><j| + |j><i|)/2

    with outcome probabilities avg(rho_ii, rho_jj) +- Re rho_ij; the
    "imag" POVM carries a factor 1j on the off-diagonal part and sees
    +- Im rho_ij.  Odd d is handled by a phantom vertex: the unmatched
    index contributes its bare projector as a single outcome.

    Returns a list of (pairs, real_povm, imag_povm) triples, where pairs
    is the matching as a list of (i, j) with i < j; a pair (i, None)
    marks the bye outcome.  Labels on the POVMs are (i, j, +1/-1) and
    (i, None, 0) accordingly.
    """
    if d < 2:
        raise ValueError("need dimension at least 2")
    n = d if d % 2 == 0 else d + 1
    phantom = n - 1 if d % 2 == 1 else None
    out = []
    for matching in _round_robin(n):
        pairs = []
        real_el, imag_el, labels = [], [], []
        for (i, j) in matching:
            if phantom is not None and j == phantom:
                pairs.append((i, None))
                proj = np.zeros((d, d), dtype=complex)
                proj[i, i] = 1.0
                real_el.append(proj)
                imag_el.append(proj)
                labels.append((i, None, 0))
                continue
            pairs.append((i, j))
            base = np.zeros((d, d), dtype=complex)
            base[i, i] = base[j, j] = 0.5
            cross = np.zeros((d, d), dtype=complex)
            cross[i, j] = cross[j, i] = 0.5
            # orientation chosen so the + outcome sees avg + Im rho_ij
            ycross = np.zeros((d, d), dtype=complex)
            ycross[i, j] = 0.5j
            ycross[j, i] = -0.5j
            for sign in (+1, -1):
                real_el.append(base + sign * cross)
                imag_el.append(base + sign * ycross)
                labels.append((i, j, sign))
        out.append((pairs,
                    Povm(elements=np.stack(real_el), labels=tuple(labels)),
                    Povm(elements=np.stack(imag_el), labels=tuple(labels))))
    return out


def pauli_bases():
    """The three single-qubit measurement bases as POVMs, keyed X/Y/Z."""
    rt = 1.0 / np.sqrt(2.0)
    x = np.array([[rt, rt], [rt, -rt]], dtype=complex)
    y = np.array([[rt, rt], [1j * rt, -1j * rt]], dtype=complex)
    z = np.eye(2, dtype=complex)
    return {"X": Povm.from_basis(x), "Y": Povm.from_basis(y),
            "Z": Povm.from_basis(z)}
