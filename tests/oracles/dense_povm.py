"""Dense reference for the measurement layer.

Every POVM element is a (d, d) matrix here, validated one by one
(Hermitian, no eigenvalue below -PSD_TOL, elements summing to the
identity), and Born probabilities are the dense sum tr(E_k rho).  The
library computes the same probabilities in closed form; the tests
compare the two routes value for value and draw for draw.

Run:  python tests/oracles/dense_povm.py
"""

import numpy as np

PSD_TOL = 1e-10
UNITARY_TOL = 1e-10


class DensePovm:
    """A POVM as a stacked (k, d, d) array of PSD elements summing to Id."""

    def __init__(self, elements, labels=None):
        el = np.asarray(elements, dtype=complex)
        if el.ndim != 3 or el.shape[1] != el.shape[2]:
            raise ValueError("elements must be a (k, d, d) array")
        for e in el:
            if np.max(np.abs(e - e.conj().T)) > PSD_TOL:
                raise ValueError("POVM element is not Hermitian")
            w = np.linalg.eigvalsh(e)
            if w[0] < -PSD_TOL:
                raise ValueError(f"POVM element has eigenvalue {w[0]}")
        total = el.sum(axis=0)
        if np.max(np.abs(total - np.eye(el.shape[1]))) > UNITARY_TOL:
            raise ValueError("POVM elements do not sum to the identity")
        self.elements = el
        self.labels = tuple(range(el.shape[0])) if labels is None \
            else tuple(labels)
        if len(self.labels) != el.shape[0]:
            raise ValueError("one label per element required")

    @property
    def n_outcomes(self):
        return self.elements.shape[0]

    @property
    def dim(self):
        return self.elements.shape[1]

    @classmethod
    def from_basis(cls, u):
        u = np.asarray(u, dtype=complex)
        if np.max(np.abs(u.conj().T @ u - np.eye(u.shape[1]))) > UNITARY_TOL:
            raise ValueError("basis matrix is not unitary")
        return cls(np.einsum("ik,jk->kij", u, u.conj()))

    def probabilities(self, rho):
        rho = np.asarray(rho, dtype=complex)
        return np.einsum("kij,ji->k", self.elements, rho).real


def _round_robin(n):
    """Circle-method matchings of K_n, n even, in the library's order."""
    players = list(range(n))
    rounds = []
    for _ in range(n - 1):
        rounds.append([tuple(sorted((players[i], players[n - 1 - i])))
                       for i in range(n // 2)])
        players = [players[0]] + [players[-1]] + players[1:-1]
    return rounds


def dense_matching_povms(d):
    """(pairs, real, imag) triples with every element built as a matrix."""
    if d < 2:
        raise ValueError("need dimension at least 2")
    n = d if d % 2 == 0 else d + 1
    phantom = n - 1 if d % 2 == 1 else None
    out = []
    for matching in _round_robin(n):
        pairs, real_el, imag_el, labels = [], [], [], []
        for (i, j) in matching:
            if j == phantom:
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
        out.append((pairs, DensePovm(np.stack(real_el), labels),
                    DensePovm(np.stack(imag_el), labels)))
    return out


def sample(povm, rho, k, rng):
    """One multinomial draw from clipped, renormalized dense probabilities."""
    p = np.clip(povm.probabilities(rho), 0.0, None)
    return rng.multinomial(k, p / p.sum())


def dense_simple_frobenius(rho, shots, rng):
    """The ``simple`` estimator with dense POVMs and a per-label lookup."""
    d = rho.shape[0]
    est = np.zeros((d, d), dtype=complex)
    for pairs, real_povm, imag_povm in dense_matching_povms(d):
        cr = sample(real_povm, rho, shots, rng) / shots
        ci = sample(imag_povm, rho, shots, rng) / shots
        at = {lab: k for k, lab in enumerate(real_povm.labels)}
        for (i, j) in pairs:
            if j is None:
                continue
            re = (cr[at[(i, j, 1)]] - cr[at[(i, j, -1)]]) / 2.0
            im = (ci[at[(i, j, 1)]] - ci[at[(i, j, -1)]]) / 2.0
            est[i, j] = re + 1j * im
            est[j, i] = re - 1j * im
    p = np.clip(np.diag(rho).real, 0.0, None)
    est[np.diag_indices(d)] = rng.multinomial(shots, p / p.sum()) / shots
    return est


if __name__ == "__main__":
    rng = np.random.default_rng(20260816)
    g = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    for pairs, real_povm, imag_povm in dense_matching_povms(5)[:2]:
        print(pairs)
        print("  real:", np.round(real_povm.probabilities(rho), 6))
        print("  imag:", np.round(imag_povm.probabilities(rho), 6))
