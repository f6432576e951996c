"""Property test: the structure flags' tail error in closed form.

``harness._indexed_tail`` sums each coordinate's L of |tau|^2 (row k up
to the diagonal, column k above it) over q_k.  Over drawn dimensions,
seeds and prefixes it must equal ``analysis.indexed_tail_by_masks``,
the sum over the d x d index maximum through boolean masks, and take
the +inf branch exactly where that does.
"""

import numpy as np
import pytest

from bureslab import config, harness as hz
from oracles import analysis

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

#: the largest |tau|^2 a coordinate with q_k <= 0 may carry and stay finite
QUIET = 0.5 * config.PSD_TOL ** 2


def _case(d, where, seed, dead):
    """|tau|^2 over twelve decades and q in any order; ``dead`` sets some
    tail coordinates of q to 0 or below, with an L of float noise
    ("quiet") or of full size ("loud")."""
    rng = np.random.default_rng(seed)
    ell = {"start": 0, "middle": d // 2, "end": d}[where]
    num = np.abs(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) ** 2
    num *= 10.0 ** rng.integers(-12, 1, size=(d, d))
    q = rng.permutation(rng.dirichlet(np.ones(d)))
    if dead != "none" and ell < d:
        ks = rng.choice(np.arange(ell, d), replace=False,
                        size=rng.integers(1, d - ell + 1))
        q[ks] = rng.choice([0.0, -0.0, -1e-3, -0.5], size=ks.size)
        if dead == "quiet":
            for k in ks:
                noise = QUIET * rng.random(2 * k + 1)
                noise[0] = QUIET  # at the threshold, still finite
                num[k, :k + 1], num[:k, k] = noise[:k + 1], noise[k + 1:]
    return num, q, ell


@hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                     database=None)
@hypothesis.given(d=st.sampled_from([1, 2, 3, 5, 8, 64]),
                  where=st.sampled_from(["start", "middle", "end"]),
                  seed=st.integers(0, 2 ** 32 - 1),
                  dead=st.sampled_from(["none", "quiet", "loud"]))
def test_closed_form_matches_the_masked_sum(d, where, seed, dead):
    num, q, ell = _case(d, where, seed, dead)
    got = hz._indexed_tail(num, q, ell)
    want = analysis.indexed_tail_by_masks(num, q, ell)
    assert type(got) is float
    if want == float("inf"):
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_each_branch_is_reached():
    """The drawn cases reach a finite tail over dead coordinates, the
    +inf branch, and the empty tail at ell = d."""
    d = 8
    quiet = _case(d, "start", 3, "quiet")
    assert np.any(quiet[1] <= 0.0)
    assert hz._indexed_tail(*quiet) < float("inf")
    assert hz._indexed_tail(*quiet) == pytest.approx(
        analysis.indexed_tail_by_masks(*quiet), rel=1e-12)
    loud = _case(d, "middle", 3, "loud")
    assert hz._indexed_tail(*loud) == float("inf")
    assert analysis.indexed_tail_by_masks(*loud) == float("inf")
    empty = _case(d, "end", 3, "loud")
    assert hz._indexed_tail(*empty) == 0.0
