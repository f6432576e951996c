"""Property test: a stacked divergence chain equals its pairs, one by one.

Over drawn dimensions, seeds and mixes of pair kinds, row k of
``quantum_chain`` (and ``classical_chain``) on a stack must equal the
chain of pair k alone: within 1e-12 relative to max(1, |value|), and
exactly where either is infinite.  The kinds reach every branch the
stack shares between its members: pure states, nested rank-deficient
supports, rho off sigma's support (+inf), commuting pairs, a pure state
against its dephasing, odd d, and eigenvalues just under and over
SPECTRAL_CUTOFF.
"""

import math

import numpy as np
import pytest

from bureslab import divergences as dv
from bureslab import linalg

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

RTOL = 1e-12


def _in_basis(u, values):
    return (u * values) @ u.conj().T


def _pair(kind, d, rng):
    u = linalg.haar_unitary(d, rng)
    if kind == "full":
        return (linalg.random_density(d, d, rng),
                linalg.random_density(d, d, rng))
    if kind == "pure":
        return linalg.random_pure(d, rng), linalg.random_density(d, d, rng)
    if kind == "pure-itself":
        return (linalg.random_pure(d, rng),) * 2
    if kind == "nested":  # rank r inside rank k on the first columns of u
        k = max(1, d - 1)
        r = max(1, k // 2)
        inner = u[:, :k] @ linalg.haar_unitary(k, rng)[:, :r]
        return (_in_basis(inner, rng.dirichlet(np.ones(r))),
                _in_basis(u[:, :k], rng.dirichlet(np.ones(k))))
    if kind == "off":
        return (linalg.random_density(d, max(1, d // 2), rng),
                linalg.random_density(d, max(1, d - 1), rng))
    if kind == "commuting":
        p, q = rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d))
        p[0] = 0.0
        return np.diag(p / p.sum()).astype(complex), \
            np.diag(q).astype(complex)
    if kind == "dephased":
        pure = linalg.random_pure(d, rng)
        return pure, np.diag(np.diag(pure))
    near = np.ones(d)  # one value under the cutoff, the rest just over
    near[0], near[1:-1] = 0.5e-12, 2e-12
    return (_in_basis(u, near / near.sum()),
            linalg.random_density(d, d, rng))


KINDS = ("full", "pure", "pure-itself", "nested", "off", "commuting",
         "dephased", "near-cutoff")


def _weights(m, rng):
    """A Dirichlet weight vector with a few exact zeros."""
    p = rng.dirichlet(np.ones(m))
    p[rng.integers(0, m, size=rng.integers(0, 3))] = 0.0
    return p


def _same(got, want):
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= RTOL * max(1.0, abs(want))


@hypothesis.settings(max_examples=40, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(d=st.sampled_from([2, 3, 5, 7, 8]),
                  kinds=st.lists(st.sampled_from(KINDS), min_size=1,
                                 max_size=10),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_chains_equal_their_pairs(d, kinds, seed):
    rng = np.random.default_rng(seed)
    pairs = [_pair(kind, d, rng) for kind in kinds]
    rho, sigma = (np.array(side) for side in zip(*pairs))
    p = np.array([_weights(4 * d, rng) for _ in kinds])
    q = np.array([_weights(4 * d, rng) for _ in kinds])
    for stacked, single in (
            (dv.quantum_chain(rho, sigma),
             [dv.quantum_chain(a, b) for a, b in pairs]),
            (dv.classical_chain(p, q),
             [dv.classical_chain(a, b) for a, b in zip(p, q)])):
        for k, (kind, one) in enumerate(zip(kinds, single)):
            assert stacked.keys() == one.keys()
            for key, value in one.items():
                assert type(value) is float
                assert _same(float(stacked[key][k]), value), (kind, key)


def _stack(n, d, rng):
    return (np.array([linalg.random_density(d, d, rng) for _ in range(n)]),
            np.array([linalg.random_density(d, d, rng) for _ in range(n)]))


@pytest.mark.parametrize("member", [0, 3, 6])
def test_a_bad_member_anywhere_refuses_the_stack(member):
    rho, sigma = _stack(7, 3, np.random.default_rng(5))
    skew = rho.copy()
    skew[member, 0, 1] += 1e-6
    negative = rho.copy()
    negative[member] = np.diag([1.0 + 2e-10, 0.0, -2e-10])
    for bad in (skew, negative):
        for a, b in ((bad, sigma), (sigma, bad)):
            with pytest.raises(ValueError):
                dv.quantum_chain(a, b)
    for fn in (dv.fidelity, dv.hellinger_sq_q, dv.relative_entropy):
        with pytest.raises(ValueError, match="not PSD"):
            fn(negative, sigma)
        with pytest.raises(ValueError, match="not Hermitian"):
            fn(sigma, skew)


def test_a_stack_calls_each_kernel_once(monkeypatch):
    """The one-pair kernel budget, each call taking the whole stack."""
    rho, sigma = _stack(50, 8, np.random.default_rng(7))
    calls = {name: [] for name in ("eigh", "eigvalsh", "svd")}
    for name in calls:
        def counted(a, *args, _name=name, _kernel=getattr(np.linalg, name),
                    **kwargs):
            calls[_name].append(np.shape(a)[0])
            return _kernel(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    chain = dv.quantum_chain(rho, sigma)
    assert calls == {"eigh": [50, 50], "eigvalsh": [50], "svd": [50]}
    assert all(value.shape == (50,) for value in chain.values())
