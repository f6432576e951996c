"""The four benchmark workloads: op schedules, op bodies and output checks.

Every workload is a closed loop over ops ``0, 1, 2, ...``.  Op ``i`` has
its own seed, derived from the workload seed, its workload and ``i``, so
the same seed always yields the same ops.  Op kinds rotate through a
fixed cycle per workload; the cycle sets the proportions of cheap and
expensive kinds so that the median and the 90th percentile of op latency
fall inside one kind's range, not on the edge between two.

An op is split into three parts, and only ``call`` is timed:

* ``prepare(i)`` builds the op's inputs from its seed;
* ``op.call()`` runs the library;
* ``judge(op, result, exc)`` checks the output, counts the copies it
  consumed and decides whether its advertised guarantee held.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference

NAMES = ("tomo-measured", "tomo-oracle", "divergence-chain", "mi-testers")

# relative and absolute tolerance of the divergence-chain reference check,
# fixed before any run: well above float64 round-off of both routes, far
# below any real disagreement between them
CHAIN_RTOL = 1e-6
CHAIN_ATOL = 1e-9

TOMO_EPS = 0.2
TOMO_TARGETS = ("chi2", "infidelity", "kl")
TOMO_FAMILIES = (("rank_r_random", 2), ("geometric_spectrum", 4), ("pure", 1))

MI_D = 8
MI_EPS = 0.5
MI_LAM = 0.5


class CheckFailed(Exception):
    """An op returned an output that the benchmark's check rejects."""


@dataclass
class Op:
    index: int
    kind: str
    call: Callable[[], object]
    inputs: object = None


@dataclass
class Outcome:
    """What the loop keeps of one op after it is judged."""

    copies: int | None      # copies consumed; None when the op did not finish
    held: bool              # the op's advertised guarantee held
    refusal: str = ""       # the library's budget refusal (a known defect)
    failure: str = ""       # unexpected exception or failed output check
    csv_rows: list | None = None


def op_seed(seed: int, workload: str, index: int) -> int:
    """64-bit seed of op ``index``; a pure function of its arguments."""
    ss = np.random.SeedSequence([seed, NAMES.index(workload), index])
    return int(ss.generate_state(1, np.uint64)[0])


def _finite(name: str, value) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise CheckFailed(f"{name} is not finite: {value!r}")
    return value


class Workload:
    """Common loop-facing interface; subclasses supply the op kinds."""

    cycle: tuple = ()
    #: the pace.py kernel that resembles what this workload's ops do
    pace_kernel = "linalg"

    def __init__(self, name: str, seed: int, lib):
        self.name = name
        self.seed = seed
        self.lib = lib

    def kind(self, index: int) -> str:
        return self.cycle[index % len(self.cycle)]

    def prepare(self, index: int) -> Op:
        raise NotImplementedError

    def check(self, op: Op, result) -> Outcome:
        raise NotImplementedError

    def judge(self, op: Op, result, exc: BaseException | None) -> Outcome:
        """Classify one op; never raises for the op's own faults."""
        if exc is not None:
            text = f"{type(exc).__name__}: {exc}"
            if isinstance(exc, self.lib.measurement.BudgetExhausted):
                return Outcome(copies=None, held=False, refusal=text)
            return Outcome(copies=None, held=False, failure="".join(
                traceback.format_exception(exc)).strip())
        try:
            return self.check(op, result)
        except CheckFailed as bad:
            return Outcome(copies=None, held=False,
                           failure=f"{op.kind} op {op.index}: {bad}")


# ---------------------------------------------------------------------------
# scenario workloads: one-trial Scenarios through harness.run_scenario
# ---------------------------------------------------------------------------

def _scenario_op(lib, index: int, kind: str, scenario) -> Op:
    hz = lib.harness

    def call():
        records = hz.run_scenario(scenario, workers=1)
        verdicts = hz.evaluate_guarantees(scenario, records)
        return records, verdicts, hz.csv_rows(records)

    return Op(index=index, kind=kind, call=call, inputs=scenario)


def _check_scenario(op: Op, result, expected_copies: int | None) -> Outcome:
    records, verdicts, rows = result
    s = op.inputs
    if len(records) != 1:
        raise CheckFailed(f"one-trial scenario gave {len(records)} records")
    rec = records[0]
    if rec.point != s.eps_grid[0]:
        raise CheckFailed(f"record point {rec.point} != eps {s.eps_grid[0]}")
    if expected_copies is not None and rec.n_used != expected_copies:
        raise CheckFailed(f"n_used {rec.n_used} != planned {expected_copies}")
    if rec.n_used < 1:
        raise CheckFailed(f"n_used {rec.n_used} is not positive")
    for key, value in rec.losses.items():
        if _finite(f"loss {key}", value) < -1e-9:
            raise CheckFailed(f"loss {key} is negative: {value!r}")
    if not all(isinstance(v, bool) for v in rec.flags.values()):
        raise CheckFailed(f"non-boolean flag in {rec.flags}")
    if len(verdicts) != 1 or len(rows) != 2:
        raise CheckFailed("one-trial scenario must give one verdict and "
                          "one CSV row")
    return Outcome(copies=int(rec.n_used), held=bool(verdicts[0][1]),
                   csv_rows=rows)


class Tomography(Workload):
    """One staged-learner trial per op: three targets by three families."""

    cycle = tuple(f"{t}/{f}" for f, _ in TOMO_FAMILIES for t in TOMO_TARGETS)

    def __init__(self, name, seed, lib, estimator: str, d: int):
        super().__init__(name, seed, lib)
        self.estimator = estimator
        self.d = d
        self.ranks = dict(TOMO_FAMILIES)
        pl, fb = lib.pipeline, lib.frobenius
        # every staged run drains its plan, so each kind's copy count is
        # known before the loop starts
        self.planned = {}
        for family, r in TOMO_FAMILIES:
            spec = fb.parse_estimator(estimator, r)
            self.planned[family] = pl.plan_budget(
                d, r, spec.rate(d, r), TOMO_EPS).total

    def prepare(self, index):
        kind = self.kind(index)
        target, family = kind.split("/")
        s = self.lib.harness.Scenario(
            sid=f"{self.name}-{target}-{family}", target=target, d=self.d,
            r=self.ranks[family], family=family, estimator=self.estimator,
            eps_grid=(TOMO_EPS,), trials=1,
            master_seed=op_seed(self.seed, self.name, index))
        return _scenario_op(self.lib, index, kind, s)

    def check(self, op, result):
        return _check_scenario(op, result, self.planned[op.inputs.family])


class MiTesters(Workload):
    """Classical MI tests on criterion 12's inputs, plus quantum mi trials.

    Three ops in four are classical (``c0`` product arm, ``c1`` correlated
    arm, alternating); the fourth is a quantum ``mi`` scenario,
    alternating the product and correlated bipartite families.
    """

    cycle = ("c0", "c1", "c0", "q:bipartite:product",
             "c1", "c0", "c1", "q:bipartite:correlated")
    # the classical ops spend nearly all their time drawing the null
    pace_kernel = "sampling"

    def __init__(self, name, seed, lib):
        super().__init__(name, seed, lib)
        plan = lib.mitest.classical_mi_plan(MI_D, MI_EPS)
        self.classical_copies = plan["n_learn"] + plan["n_test"]

    def prepare(self, index):
        kind = self.kind(index)
        seed = op_seed(self.seed, self.name, index)
        if kind.startswith("q:"):
            s = self.lib.harness.Scenario(
                sid=f"{self.name}-{kind[2:]}", target="mi", d=MI_D,
                family=kind[2:], eps_grid=(MI_EPS,), lam=MI_LAM, trials=1,
                master_seed=seed)
            return _scenario_op(self.lib, index, kind, s)
        mt = self.lib.mitest
        rng = np.random.default_rng(seed)
        if kind == "c0":
            joint = np.outer(rng.dirichlet(np.ones(MI_D)),
                             rng.dirichlet(np.ones(MI_D)))
        else:
            joint = mt.correlated_joint(MI_D, MI_LAM)
        return Op(index=index, kind=kind, inputs=joint,
                  call=lambda: mt.classical_mi_test(joint, MI_EPS, rng))

    def check(self, op, result):
        if op.kind.startswith("q:"):
            return _check_scenario(op, result, None)
        stats = result.stats
        if stats["n_total"] != self.classical_copies:
            raise CheckFailed(f"n_total {stats['n_total']} != planned "
                              f"{self.classical_copies}")
        if not isinstance(result.accept, bool):
            raise CheckFailed(f"verdict {result.accept!r} is not a bool")
        should_accept = op.kind == "c0"
        return Outcome(copies=int(stats["n_total"]),
                       held=result.accept == should_accept)


# ---------------------------------------------------------------------------
# divergence chains: no copies, divergences and linalg only
# ---------------------------------------------------------------------------

class DivergenceChain(Workload):
    """quantum_chain on one state pair plus classical_chain on one
    Dirichlet pair with 64 outcomes: the loop body of criterion 1.

    Pair kinds: ``full8`` full-rank d=8 Ginibre pairs (criterion 1's
    ensemble), ``sub7`` a rank-3 state against a rank-5 state whose
    support contains it (finite values through the spectral cutoff),
    ``off7`` rank 3 against an unrelated rank 5 (the +inf branch), and
    ``deph2`` a d=2 pure state against its own dephased state.
    """

    cycle = ("full8", "full8", "sub7", "full8", "deph2",
             "full8", "full8", "off7", "full8", "deph2")

    def prepare(self, index):
        kind = self.kind(index)
        la = self.lib.linalg
        rng = np.random.default_rng(op_seed(self.seed, self.name, index))
        if kind == "full8":
            rho = la.random_density(8, 8, rng)
            sigma = la.random_density(8, 8, rng)
        elif kind == "sub7":
            rho, sigma = _nested_pair(la.haar_unitary(7, rng), rng)
        elif kind == "off7":
            rho = la.random_density(7, 3, rng)
            sigma = la.random_density(7, 5, rng)
        else:
            rho = la.random_pure(2, rng)
            sigma = np.diag(np.diag(rho))
        p, q = rng.dirichlet(np.ones(64)), rng.dirichlet(np.ones(64))
        dv = self.lib.divergences

        def call():
            return dv.quantum_chain(rho, sigma), dv.classical_chain(p, q)

        return Op(index=index, kind=kind, call=call, inputs=(rho, sigma, p, q))

    def check(self, op, result):
        rho, sigma, p, q = op.inputs
        quantum, classical = result
        for got, want in ((quantum, reference.quantum_chain(rho, sigma)),
                          (classical, reference.classical_chain(p, q))):
            if set(got) != set(want):
                raise CheckFailed(f"chain keys {sorted(got)} != "
                                  f"{sorted(want)}")
            for key, ref in want.items():
                if not _close(got[key], ref):
                    raise CheckFailed(f"{key} = {got[key]!r}, reference "
                                      f"{ref!r}")
        cli = self.lib.cli
        links = (cli._chain_verdicts(quantum, quantum=True)
                 + cli._chain_verdicts(classical, quantum=False))
        held = all(lhs <= rhs + cli.SLACK for _, lhs, rhs in links)
        return Outcome(copies=0, held=held)


def _nested_pair(u, rng):
    """Rank 3 inside rank 5 in d=7, every nonzero eigenvalue >= 0.02.

    The floor keeps both supports sharp: with a near-zero eigenvalue the
    eigenvectors blur by round-off over the gap, and whether rho leaks
    into sigma's kernel (finite or +inf divergence) becomes a coin flip
    under the library's cutoff convention and any other.
    """
    def spectrum(k):
        return 0.1 / k + 0.9 * rng.dirichlet(np.ones(k))

    outer = u[:, :5]
    inner = outer @ np.linalg.qr(rng.standard_normal((5, 3))
                                 + 1j * rng.standard_normal((5, 3)))[0]
    sigma = (outer * spectrum(5)) @ outer.conj().T
    rho = (inner * spectrum(3)) @ inner.conj().T
    return rho, sigma


def _close(got, ref) -> bool:
    got = float(got)
    if math.isinf(ref) or math.isinf(got):
        return got == ref
    return abs(got - ref) <= CHAIN_RTOL * abs(ref) + CHAIN_ATOL


def make(name: str, seed: int, lib) -> Workload:
    """Build a workload; raises ValueError for an unknown name."""
    if name == "tomo-measured":
        return Tomography(name, seed, lib, estimator="simple", d=16)
    if name == "tomo-oracle":
        return Tomography(name, seed, lib, estimator="oracle:f=d", d=64)
    if name == "divergence-chain":
        return DivergenceChain(name, seed, lib)
    if name == "mi-testers":
        return MiTesters(name, seed, lib)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
