"""Property test: every post-processing of a staged run is a state.

Over the families ``pure``, ``rank_r_random`` (r < d),
``geometric_spectrum`` and ``maximally_mixed``, d in {2, 3, 5, 8}, both
base estimators and drawn seeds, one ``staged_learn`` at its plan is
turned into the three outputs the targets read: ``to_infidelity``,
``to_chi2`` and the state ``to_kl`` returns.  Each must be a density
matrix given as an eigensystem: values that ascend, are >= -PSD_TOL and
sum to 1 within PSD_TOL, on vectors unitary within UNITARY_TOL.
"""

import numpy as np
import pytest

from bureslab import config
from bureslab import frobenius as fb
from bureslab import harness as hz
from bureslab import pipeline as pl

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def _rank(family: str, d: int, draw: int) -> int:
    """The rank cap a scenario of the family would name: 1 for a pure
    state, d for the full-rank ones, and one of 1..d-1 otherwise."""
    return {"pure": 1, "rank_r_random": 1 + draw % (d - 1)}.get(family, d)


def _require_state(dec, d: int):
    values, vectors = dec.values, dec.vectors
    assert values.shape == (d,) and vectors.shape == (d, d)
    assert np.all(values[1:] >= values[:-1])
    assert values[0] >= -config.PSD_TOL
    assert abs(values.sum() - 1.0) <= config.PSD_TOL
    assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(d))) \
        <= config.UNITARY_TOL


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(family=st.sampled_from(["pure", "rank_r_random",
                                          "geometric_spectrum",
                                          "maximally_mixed"]),
                  d=st.sampled_from([2, 3, 5, 8]),
                  estimator=st.sampled_from(["oracle:f=d", "simple"]),
                  eps=st.sampled_from([0.1, 0.25]),
                  draw=st.integers(0, 2 ** 16),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_every_output_is_a_state(family, d, estimator, eps, draw, seed):
    r = _rank(family, d, draw)
    rng = np.random.default_rng(seed)
    rho, _ = hz.FAMILIES[family].make(d, r, 0.5, rng)
    spec = fb.parse_estimator(estimator, r)
    params = pl.plan_budget(d, r, spec.rate(d, r), eps)
    out = pl.staged_learn(rho, spec, params, rng)
    est = pl.to_infidelity(out)
    for dec in (est, pl.to_chi2(out), pl.to_kl(est, params.eps)[0]):
        _require_state(dec, d)
