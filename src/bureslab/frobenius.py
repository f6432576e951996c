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
copies left over from shot granularity are burned, not returned.  No
layer counts copies as it goes: a staged run's plan and its stage
records (``pipeline.CentralOutput``) state every copy it draws.
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
    # (2, R, P): the real then the imaginary part of each pair's entry
    half = (freq[design.plus] - freq[design.minus]) / 2.0
    upper, lower = design.entries
    est = np.zeros(2 * d * d)  # the d x d complex estimate, as real numbers
    est[upper] = half
    # the mirror holds the conjugates; 0 - im, not -im, keeps a zero +0
    half[1] = 0.0 - half[1]
    est[lower] = half
    est[::2 * (d + 1)] = ms.sample_basis(rho, shots, rng) / shots
    return est.view(complex).reshape(d, d)


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
    and (x + iy) s/sqrt(2) above it.  One call draws every normal, in the
    order real parts, imaginary parts, diagonal, and writes them through
    the cached slots of :func:`_noise_slots`.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    d = rho.shape[0]
    s = np.sqrt((f / m) / d ** 2)
    upper, mirror, diag = _noise_slots(d)
    n_off = upper.size // 2
    z = rng.standard_normal(2 * n_off + d)
    off = z[:2 * n_off] * (s / np.sqrt(2.0))
    noise = np.zeros(2 * d * d)  # the d x d complex noise, as real numbers
    noise[upper] = off
    off[n_off:] *= -1.0  # the mirror holds the conjugates
    noise[mirror] = off
    noise[diag] = z[2 * n_off:] * s
    g = noise.view(complex).reshape(d, d)
    g += rho
    return g


@functools.lru_cache(maxsize=None)
def _noise_slots(d: int) -> tuple:
    """Flat positions, in a d x d complex matrix viewed as 2 d^2 real
    numbers, of the upper triangle's real parts then its imaginary
    parts, of the same parts of its conjugate mirror below the
    diagonal, and of the diagonal's real parts.  Built once per
    dimension; read-only, because cached arrays are shared."""
    i, j = np.triu_indices(d, k=1)
    up, low = 2 * (i * d + j), 2 * (j * d + i)
    slots = (np.concatenate([up, up + 1]), np.concatenate([low, low + 1]),
             2 * (d + 1) * np.arange(d))
    for a in slots:
        a.setflags(write=False)
    return slots


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
        return EstimatorSpec(rate=lambda d, r: config.K_ACC * d * d,
                             run=_simple_runner, min_copies=_simple_min_copies)
    if text.startswith("oracle:f="):
        key = text[len("oracle:f="):]
        if key not in _ORACLE_RATES:
            raise ValueError(f"unknown oracle rate {key!r}; "
                             f"choose from {sorted(_ORACLE_RATES)}")
        rate = _ORACLE_RATES[key]

        def runner(rho, n, rng, _rate=rate, _r=r):
            return oracle_estimate(rho, _rate(rho.shape[0], _r), n, rng)

        return EstimatorSpec(rate=rate, run=runner)
    raise ValueError(f"unknown estimator {text!r}")
