"""Property test: every post-processing of a staged run is a state.

Over the families ``pure``, ``rank_r_random`` (r < d),
``geometric_spectrum`` and ``maximally_mixed``, d in {2, 3, 5, 8}, both
base estimators and drawn seeds, one ``staged_learn`` at its plan is
turned into the three outputs the targets read: ``to_infidelity``,
``to_chi2`` and the state ``to_kl`` returns.  Each must be a density
matrix given as an eigensystem: values that ascend, are >= -PSD_TOL and
sum to 1 within PSD_TOL, on vectors unitary within UNITARY_TOL.

The same holds, at every d in {2, 3, 5, 8} with both estimators, for
states built in a Haar basis on two kinds of spectra the families do
not reach: small values within a decade of SPECTRAL_CUTOFF on either
side, and values that repeat.
"""

import numpy as np
import pytest

from bureslab import config
from bureslab import frobenius as fb
from bureslab import harness as hz
from bureslab import linalg
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


def _learn_outputs_are_states(rho, r, estimator, eps, rng):
    d = rho.shape[0]
    spec = fb.parse_estimator(estimator, r)
    params = pl.plan_budget(d, r, spec.rate(d, r), eps)
    out = pl.staged_learn(rho, spec, params, rng)
    est = pl.to_infidelity(out)
    for dec in (est, pl.to_chi2(out), pl.to_kl(est, params.eps)[0]):
        _require_state(dec, d)


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
    _learn_outputs_are_states(rho, r, estimator, eps, rng)


def _near_cutoff(d: int, draw: int, rng) -> np.ndarray:
    """1 to d - 1 small values, log-uniform within a decade of
    SPECTRAL_CUTOFF on either side; the rest share what is left."""
    k = 1 + draw % (d - 1)
    small = config.SPECTRAL_CUTOFF * 10.0 ** rng.uniform(-1.0, 1.0, k)
    rest = rng.uniform(0.5, 1.0, d - k)
    return np.concatenate([small, rest * (1.0 - small.sum()) / rest.sum()])


def _degenerate(d: int, draw: int, rng) -> np.ndarray:
    """d values on at most ceil(d/2) levels, so some value repeats; one
    draw in three makes the least level a repeated exact zero (at d = 2
    the state is then pure)."""
    levels = rng.uniform(0.5, 1.0, 1 + draw % ((d + 1) // 2))
    if draw % 3 == 0:
        levels[0] = 0.0
    w = levels[np.arange(d) % levels.size]
    if not w.any():
        w[-1] = 1.0
    return w / w.sum()


@pytest.mark.parametrize("spectrum", [_near_cutoff, _degenerate])
@pytest.mark.parametrize("d", [2, 3, 5, 8])
@pytest.mark.parametrize("estimator", ["oracle:f=d", "simple"])
@hypothesis.settings(max_examples=10, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(eps=st.sampled_from([0.1, 0.25]),
                  draw=st.integers(0, 2 ** 16),
                  seed=st.integers(0, 2 ** 32 - 1))
def test_near_cutoff_and_degenerate_outputs_are_states(
        spectrum, d, estimator, eps, draw, seed):
    rng = np.random.default_rng(seed)
    w = spectrum(d, draw, rng)
    u = linalg.haar_unitary(d, rng)
    _learn_outputs_are_states((u * w) @ u.conj().T, d, estimator, eps, rng)
