"""Base estimators with expected Frobenius-squared error f/m.

Everything downstream is parameterized by an :class:`EstimatorSpec`: a
named estimator together with its copy-rate f(d, r), promising expected
squared Frobenius error at most f/m from m copies.  Two families ship:

* ``simple``: a measured estimator built from pair-interference rounds
  whose outcome probabilities are read in closed form from rho, rate
  ~ 4.5 d^2 (no rank adaptivity, single-copy measurements only);
* ``oracle:f=...``: a noise oracle that fabricates the estimate by adding
  Gaussian Hermitian noise scaled to hit the requested rate exactly.
  Useful for exploring how downstream guarantees scale with f without
  paying the d^2 of a real single-copy scheme.

Estimators take a plain copy count n and are charged all n of them;
copies left over from shot granularity are burned, not returned.  The
only copy ledger is the staged learner's (``pipeline.staged_learn``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import config, measurement as ms

__all__ = ["EstimatorSpec", "simple_frobenius", "oracle_estimate",
           "parse_estimator"]


@dataclass(frozen=True)
class EstimatorSpec:
    """A base estimator and its promised copy-rate.

    ``run(rho, n, rng)`` returns a Hermitian estimate from n copies;
    ``rate(d, r)`` is the f in the error promise f/m.
    ``min_copies(d)`` is the fewest copies ``run`` accepts at
    dimension d.
    """

    name: str
    rate: Callable[[int, int], float]
    run: Callable[[np.ndarray, int, np.random.Generator], np.ndarray]
    min_copies: Callable[[int], int] = lambda d: 1


def simple_frobenius(rho: np.ndarray, shots: int,
                     rng: np.random.Generator) -> np.ndarray:
    """Measured estimate of every matrix entry, ``shots`` per POVM.

    Each matching round contributes two POVMs (real and imaginary
    interference), all drawn at once from the stacked
    :func:`measurement.matching_povms` design; outcome frequencies give
    r_hat = (f+ - f-)/2 per pair with variance at most
    avg(rho_ii, rho_jj)/shots.  One more round of
    computational-basis shots fills in the diagonal.  Total copies:
    (2 rounds + 1) * shots.  Each pair adds at most (rho_ii + rho_jj)/shots
    to the expected squared Frobenius error and the diagonal pass at most
    (1 - 1/d)/shots: at most (d - 1/d)/shots, reached at rho = I/d.
    """
    d = rho.shape[0]
    design = ms.matching_povms(d)
    freq = ms.sample_povm(design, rho, design.n_rows * shots,
                          rng).reshape(-1) / shots
    re, im = (freq[design.plus] - freq[design.minus]) / 2.0
    est = np.zeros((d, d), dtype=complex)
    est[design.rows, design.cols] = re + 1j * im
    est[design.cols, design.rows] = re - 1j * im
    est[np.diag_indices(d)] = ms.sample_basis(rho, shots, rng) / shots
    return est


def _simple_min_copies(d: int) -> int:
    """One shot for each of the 2 rounds + 1 POVMs; none at d = 1."""
    return 0 if d == 1 else 2 * ms.matching_round_count(d) + 1


def _simple_runner(rho, n, rng):
    d = rho.shape[0]
    if d == 1:  # a 1x1 state is [[1]] and needs no copies
        return np.ones((1, 1), dtype=complex)
    povms_total = _simple_min_copies(d)
    shots = n // povms_total
    if shots < 1:
        raise ms.BudgetExhausted(
            f"need at least {povms_total} copies at dimension {d}")
    return simple_frobenius(rho, shots, rng)


def oracle_estimate(rho: np.ndarray, f: float, m: int,
                    rng: np.random.Generator) -> np.ndarray:
    """rho plus Hermitian Gaussian noise with E ||noise||_F^2 = f/m exactly.

    Per-entry variance is s^2 = (f/m)/d^2: real N(0, s^2) on the diagonal
    and (x + iy) s/sqrt(2) above it.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    d = rho.shape[0]
    s = np.sqrt((f / m) / d ** 2)
    g = np.zeros((d, d), dtype=complex)
    iu = _upper_triangle(d)
    n_off = iu[0].size
    g.real[iu] = rng.standard_normal(n_off) * (s / np.sqrt(2.0))
    g.imag[iu] = rng.standard_normal(n_off) * (s / np.sqrt(2.0))
    g += g.conj().T
    np.fill_diagonal(g, rng.standard_normal(d) * s)
    g += rho
    return g


@functools.lru_cache(maxsize=None)
def _upper_triangle(d: int) -> tuple:
    """``np.triu_indices(d, k=1)``, built once per dimension; read-only,
    because cached arrays are shared."""
    iu = np.triu_indices(d, k=1)
    for a in iu:
        a.setflags(write=False)
    return iu


_ORACLE_RATES = {
    "d": lambda d, r: float(d),
    "rd": lambda d, r: float(r * d),
    "d2": lambda d, r: float(d * d),
}


def parse_estimator(text: str, r: int) -> EstimatorSpec:
    """Build an EstimatorSpec from its command-line name.

    Accepted: "simple", "oracle:f=d", "oracle:f=rd", "oracle:f=d2".
    The rank cap r only matters for rank-sensitive oracle rates: the
    runner hands it to the rate callable as its second argument.
    """
    if text == "simple":
        return EstimatorSpec(
            name="simple",
            rate=lambda d, r: config.K_ACC * d * d,
            run=_simple_runner, min_copies=_simple_min_copies)
    if text.startswith("oracle:f="):
        key = text[len("oracle:f="):]
        if key not in _ORACLE_RATES:
            raise ValueError(f"unknown oracle rate {key!r}; "
                             f"choose from {sorted(_ORACLE_RATES)}")
        rate = _ORACLE_RATES[key]

        def runner(rho, n, rng, _rate=rate, _r=r):
            return oracle_estimate(rho, _rate(rho.shape[0], _r), n, rng)

        return EstimatorSpec(name=text, rate=rate, run=runner)
    raise ValueError(f"unknown estimator {text!r}")
