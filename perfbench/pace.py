"""Fixed reference kernels that measure how fast the machine runs now.

On a shared machine the CPU time of an identical op drifts by half or
more over seconds to minutes, with the load of other tenants.  The
benchmark runs a kernel between ops, a few times a second, and scales
each op's latency by ``REF_S / kernel time`` around that op.  Times are
therefore reported in milliseconds *at reference speed*: what the op
would take when the kernel takes ``REF_S``.  The kernels
never touch ``bureslab``, so a change to the library moves the scaled
times and cannot move the kernel.

Other tenants slow different kinds of work by different amounts, so a
workload is paced by the kernel that resembles what its ops spend time
on:

* ``linalg``: small complex Hermitian eigenvalue problems, small matrix
  products and interpreter-bound dictionary work, as in the tomography
  and divergence-chain ops;
* ``sampling``: large batches of 64-outcome multinomial draws reduced to
  Pearson statistics, as in the classical tester's Monte Carlo null.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from numpy.linalg import eigvalsh  # bound before any tracer patches it

#: about either kernel's median time on a 2-vCPU Intel Xeon VM (Python
#: 3.11, numpy 2.4, OpenBLAS, one thread); it only sets the scale of the
#: reported times, so it is a fixed constant and never re-measured
REF_S = 0.002
KINDS = ("linalg", "sampling")
#: seconds between two kernel runs inside the loop: short enough to
#: follow bursts of load, long enough that the kernel costs a few percent
EVERY_S = 0.05


class Pace:
    def __init__(self, kind: str):
        if kind not in KINDS:
            raise ValueError(f"unknown pace kernel {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 16, 16)) \
            + 1j * rng.standard_normal((6, 16, 16))
        self._herm = [m @ m.conj().T for m in g]
        self._prod = rng.standard_normal((32, 32))
        self._probs = np.full(64, 1.0 / 64)
        self._rng = np.random.default_rng(1)

    def sample(self) -> float:
        """Seconds the kernel takes now."""
        t0 = perf_counter()
        acc = self._linalg() if self.kind == "linalg" else self._sampling()
        if not np.isfinite(acc):
            raise ArithmeticError("pace kernel produced a non-finite value")
        return perf_counter() - t0

    def _linalg(self) -> float:
        acc = 0.0
        for _ in range(8):
            for m in self._herm:
                acc += eigvalsh(m)[0]
            acc += float((self._prod @ self._prod)[0, 0])
            acc += float(self._rng.multinomial(10_000, self._probs)[0])
            table = {i: i * i for i in range(150)}
            acc += sum(table.values())
        return acc

    def _sampling(self) -> float:
        n = 100_000
        draws = self._rng.multinomial(n, self._probs, size=300)
        expected = n * self._probs
        return float(np.sum((draws - expected) ** 2 / expected))
