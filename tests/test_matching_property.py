"""Property test: the stacked matching design against the dense reference.

Over drawn dimensions and seeds, every row of ``matching_povms(d)`` must
equal the dense round's Born probabilities bit for bit, and the
``simple`` estimator must return the dense estimator's matrix from the
same generator state.
"""

import numpy as np
import pytest

from bureslab import frobenius as fb, linalg, measurement as ms
from oracles import dense_povm as dense

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


@hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(d=st.integers(2, 17), rank=st.integers(1, 17),
                  seed=st.integers(0, 2 ** 32 - 1),
                  shots=st.sampled_from([1, 7, 10 ** 5, 10 ** 13]))
def test_design_and_simple_estimator_equal_dense(d, rank, seed, shots):
    rng = np.random.default_rng(seed)
    rho = linalg.random_density(d, min(rank, d), rng)
    u = linalg.haar_unitary(d, rng)
    rho = u.conj().T @ rho @ u  # Hermitian only to round-off
    want = np.array([povm.probabilities(rho)
                     for _, real, imag in dense.dense_matching_povms(d)
                     for povm in (real, imag)])
    assert np.array_equal(ms.matching_povms(d).probabilities(rho), want)
    got_rng, want_rng = (np.random.default_rng(seed + 1) for _ in range(2))
    assert np.array_equal(fb.simple_frobenius(rho, shots, got_rng),
                          dense.dense_simple_frobenius(rho, shots, want_rng))
    assert got_rng.random() == want_rng.random()
