"""Runnable acceptance checks behind the library's advertised guarantees.

Each criterion is a self-contained seeded experiment: inequality chains
on random ensembles, risk levels for the estimators, accuracy and
structure guarantees for the staged pipeline, the restriction identity,
the two product testers, and byte-stable harness reruns.
``acceptance_suite`` runs them in numeric order and returns one
CriterionResult apiece; the CLI prints ``result.line()`` for each and
exits nonzero if anything failed.

Wherever the library could be wrong in a self-consistent way, a second
route recomputes the quantity: quantum divergences through matrix
functions instead of the eigenbasis-overlap pair, estimator risk
against closed-form levels.  Criteria 5 (the base estimator's f/n
law), 7-9 (the staged pipeline), 12 and 13 (the two testers) are
``harness.Scenario``s, so they run the trials the command line runs;
7-9, 12 and 13 are judged by their targets' bars, and their second
routes live in the harness's scores.  Criterion 5 keeps its own,
stricter bars: the slope bar of ``harness.scaling_verdict`` and each
mean at most f/n, with no standard-error slack.

Numbers 6 and 11 are retired and unknown to ``--only``; the other
criteria keep the numbers that comments and reports cite.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import classical
from . import cli
from . import config
from . import divergences as dv
from . import harness as hz
from . import linalg

__all__ = ["CriterionResult", "acceptance_suite", "CRITERIA"]

#: root seed for every acceptance experiment; criterion number and trial
#: counters extend it, so criteria stay reproducible run in isolation
_SEED = 20260816


def _master_seed(*path: int) -> int:
    """The root seed extended by ``path``, folded into one master seed."""
    ss = np.random.SeedSequence([_SEED, *path])
    return int(ss.generate_state(1, np.uint64)[0])


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


@dataclass(frozen=True)
class CriterionResult:
    """One criterion's verdict, its measured values and ``elapsed_s``,
    the wall time of its run in seconds, which ``line`` leaves out."""

    number: int
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)
    elapsed_s: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = ", ".join(f"{k}={_fmt(v)}" for k, v in self.measured.items())
        return f"{status} criterion {self.number:2d} [{self.name}] {body}"


#: (number, name, callable) triples; callables return (passed, measured)
CRITERIA: list = []


def _criterion(number: int, name: str):
    def deco(fn):
        CRITERIA.append((number, name, fn))
        return fn
    return deco


# ---------------------------------------------------------------------------
# 1-3: divergence identities and inequalities
# ---------------------------------------------------------------------------

@_criterion(1, "divergence-chains")
def _chains():
    started = time.perf_counter()
    rng = np.random.default_rng([_SEED, 1])
    pairs = 10_000
    # the draws of a pair-at-a-time loop, in its order: p, q alternate,
    # and one batched call draws what the single calls do
    pq = rng.dirichlet(np.ones(64), 2 * pairs)
    states = _density_stack(2 * pairs, 8, rng)

    def worst(chain, quantum):
        return max(float(np.max(lhs - rhs)) for _, lhs, rhs
                   in cli._chain_verdicts(chain, quantum))

    slack = max(worst(dv.classical_chain(pq[0::2], pq[1::2]), False),
                worst(dv.quantum_chain(states[0::2], states[1::2]), True))
    elapsed = time.perf_counter() - started
    ok = slack <= cli.SLACK and elapsed < 120.0
    return ok, {"pairs": 2 * pairs, "max_slack": float(slack),
                "elapsed_s": round(elapsed, 2)}


def _density_stack(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n draws of ``linalg.random_density(d, d, rng)`` as an (n, d, d)
    stack, in one call with the loop's bits: each state's real d x d
    normals, then its imaginary ones."""
    z = rng.standard_normal((n, 2, d, d))
    return linalg._gram_state(z[:, 0] + 1j * z[:, 1])


@_criterion(2, "quantum-classical-bridge")
def _bridge():
    rng = np.random.default_rng([_SEED, 2])
    worst = 0.0
    for _ in range(100):
        rho = linalg.random_density(8, 8, rng)
        sig = linalg.random_density(8, 8, rng)
        pv, pu = np.linalg.eigh(rho)
        qv, qu = np.linalg.eigh(sig)

        # matrix-function route, never touching the overlap-pair code
        log_sig = (qu * np.log(qv)) @ qu.conj().T
        kl_mat = float(np.sum(pv * np.log(pv))
                       - np.trace(rho @ log_sig).real)
        sqrt_rho = (pu * np.sqrt(pv)) @ pu.conj().T
        sqrt_sig = (qu * np.sqrt(qv)) @ qu.conj().T
        half_mat = -2.0 * math.log(
            float(np.trace(sqrt_rho @ sqrt_sig).real))
        inv_sig = (qu / qv) @ qu.conj().T
        two_mat = math.log(float(np.trace(rho @ rho @ inv_sig).real))
        w = np.abs(pu.conj().T @ qu) ** 2
        ratios = np.where(w > config.SPECTRAL_CUTOFF ** 2,
                          np.log(pv[:, None] / qv[None, :]), -np.inf)
        inf_mat = float(np.max(ratios))

        checks = (
            (dv.relative_entropy(rho, sig), kl_mat),
            (dv.renyi_divergence_q(rho, sig, 0.5), half_mat),
            (dv.renyi_divergence_q(rho, sig, 2.0), two_mat),
            (dv.quantum_chain(rho, sig)["max_log_ratio"], inf_mat),
        )
        for a, b in checks:
            worst = max(worst, abs(a - b) / max(abs(a), abs(b), 1e-30))
    return worst <= 1e-8, {"pairs": 100, "max_rel_err": float(worst)}


@_criterion(3, "pointwise-reverse-bound")
def _pointwise():
    # the scalar inequality behind the reverse chain link:
    # x ln x - (x - 1) <= (2 + max(ln x, 0)) (sqrt(x) - 1)^2
    x = np.logspace(-6.0, 6.0, 10_000)
    lhs = x * np.log(x) - (x - 1.0)
    rhs = (2.0 + np.maximum(np.log(x), 0.0)) * (np.sqrt(x) - 1.0) ** 2
    gap = float(np.max(lhs - rhs))
    return gap <= 0.0, {"points": x.size, "max_gap": gap}


# ---------------------------------------------------------------------------
# 4-5: estimator risk levels
# ---------------------------------------------------------------------------

@_criterion(4, "add-one-risk")
def _add_one_risk():
    rng = np.random.default_rng([_SEED, 4])
    d, m, trials = 10, 100, 100_000
    p = np.full(d, 1.0 / d)
    counts = rng.multinomial(m, p, size=trials)
    q = (counts + 1.0) / (m + d)
    route_match = all(
        np.allclose(classical.add_one_hybrid(row, m, 0),
                    (row + 1.0) / (m + d), rtol=0.0, atol=1e-15)
        for row in counts[:100])
    chi2 = np.sum((q - p) ** 2 / p, axis=1)
    mean = float(chi2.mean())
    se = float(chi2.std(ddof=1) / math.sqrt(trials))
    bound = (d - 1.0) / (m + 1.0)
    ok = route_match and mean <= bound + 3.0 * se
    return ok, {"mean_chi2": mean, "bound": bound, "se": se,
                "route_match": route_match}


@_criterion(5, "frobenius-scaling")
def _frobenius_scaling():
    s = hz.Scenario(sid="accept-frobenius", target="frobenius", d=4, r=4,
                    family="rank_r_random", estimator="simple",
                    n_grid=(1_000, 10_000, 100_000), trials=200,
                    master_seed=_master_seed(5))
    rows = hz.summarize(hz.run_scenario(s), "frob_sq")
    slope_ok, slope, _, _ = hz.scaling_verdict(rows)
    # the mean itself, with no standard-error slack, sits below f/n
    level_ok = all(row["mean"] <= hz.promise(s, row["point"])
                   for row in rows)
    return slope_ok and level_ok, {"slope": slope, "level_ok": level_ok,
                                   "mean_n1000": rows[0]["mean"],
                                   "level_n1000": hz.promise(s, s.n_grid[0])}


# ---------------------------------------------------------------------------
# 7-9: the staged pipeline, as harness scenarios
# ---------------------------------------------------------------------------

_RANKS = (1, 2, 8)


@functools.lru_cache(maxsize=None)
def _staged(r: int) -> dict:
    """``{target: (scenario, records)}`` for chi2 and kl, of d=8 staged
    runs at rank r over targets {0.2, 0.1}: one harness run per process,
    which learns each state once and scores it for both."""
    s = hz.Scenario(sid=f"accept-staged-r{r}", target="chi2", d=8, r=r,
                    family="rank_r_random", estimator="oracle:f=d",
                    eps_grid=(0.2, 0.1), trials=100,
                    master_seed=_master_seed(7, r))
    return {t: (replace(s, target=t), records)
            for t, records in hz.run_targets(s, ("chi2", "kl")).items()}


@_criterion(7, "staged-accuracy")
def _staged_accuracy():
    measured, ok = {}, True
    for r in _RANKS:
        s, records = _staged(r)["chi2"]
        verdicts = hz.evaluate_guarantees(s, records)  # by ascending eps
        for eps, (_, passed, rate, _) in zip(sorted(s.eps_grid), verdicts):
            measured[f"rate_r{r}_eps{eps}"] = rate
            ok = ok and passed
        # each trial spends its whole plan, so a point's mean copy count
        # is its planned total
        n_01, n_02 = (row["n_mean"]
                      for row in hz.summarize(records, "bures_chi2"))
        ratio = n_01 / n_02
        measured[f"copies_ratio_r{r}"] = round(ratio, 3)
        ok = ok and ratio <= 2.5
    return ok, measured


@_criterion(8, "staged-structure")
def _staged_structure():
    # the structure flags of criterion 7's chi2 trials, pooled
    records = [rec for r in _RANKS for rec in _staged(r)["chi2"][1]]
    checks = ("cardinality", "masses", "block", "tail")
    rate = sum(not all(rec.flags[k] for k in checks)
               for rec in records) / len(records)
    return rate <= 0.10, {
        "trials": len(records), "fail_rate": rate,
        **{f"fail_{k}": sum(not rec.flags[k] for rec in records)
           for k in checks}}


@_criterion(9, "kl-upgrade")
def _kl_upgrade():
    runs = [_staged(r)["kl"] for r in _RANKS]
    ok = all(passed for s, records in runs
             for _, passed, _, _ in hz.evaluate_guarantees(s, records))
    records = [rec for _, recs in runs for rec in recs]
    return ok, {
        "certified": sum(rec.flags["within_eps"] for rec in records),
        "violations": sum(not rec.flags["kl_within_bound"]
                          for rec in records),
        "max_kl_over_bound": max(rec.losses["kl"] / rec.losses["kl_bound"]
                                 for rec in records)}


# ---------------------------------------------------------------------------
# 10, 12, 13: restriction identity and the two testers
# ---------------------------------------------------------------------------

@_criterion(10, "restriction-fidelity")
def _restriction_fidelity():
    rng = np.random.default_rng([_SEED, 10])
    d, pairs = 8, 1_000
    worst = 0.0
    skipped = 0
    for _ in range(pairs):
        rho = linalg.random_density(d, int(rng.integers(1, d + 1)), rng)
        subset = rng.choice(d, size=int(rng.integers(1, d + 1)),
                            replace=False)
        blk = rho[np.ix_(subset, subset)]
        mass = np.trace(blk).real
        cond = linalg.restrict(blk, mass)
        if cond is None:
            skipped += 1
            continue
        back = np.zeros((d, d), dtype=complex)
        back[np.ix_(subset, subset)] = cond
        fid = dv.fidelity(rho, back)
        worst = max(worst, abs(mass - fid ** 2))
    ok = worst <= 1e-9 and skipped == 0
    return ok, {"pairs": pairs, "max_abs_err": float(worst),
                "skipped": skipped}


def _tester_arms(number: int, target: str, families: tuple, **fields):
    """Run a tester target on a product arm, then a correlated one;
    returns (both pass its bar, each arm's rate, the correlated arm's
    least true MI, each arm's records)."""
    passed, rates, runs = True, [], []
    for arm, family in enumerate(families):
        s = hz.Scenario(sid=f"accept-{target}-{arm}", target=target,
                        family=family, master_seed=_master_seed(number, arm),
                        **fields)
        runs.append(hz.run_scenario(s))
        (_, ok, rate, _), = hz.evaluate_guarantees(s, runs[-1])
        passed = passed and ok
        rates.append(rate)
    return passed, rates, min(rec.losses["mi"] for rec in runs[1]), runs


@_criterion(12, "classical-tester")
def _classical_tester():
    # random Dirichlet(1) product tables, and correlated_joint(8, 0.5)
    ok, rates, mi_corr, _ = _tester_arms(
        12, "classical_mi", ("classical:dirichlet_product",
                             "classical:correlated"),
        d=8, eps_grid=(0.5,), lam=0.5, trials=200)
    return ok and mi_corr >= 0.5, {"accept_rate": rates[0],
                                   "reject_rate": rates[1],
                                   "correlated_mi": mi_corr}


@_criterion(13, "quantum-tester")
def _quantum_tester():
    # lam=0.4 mixes in an entangled state: MI 0.56, just past the gap;
    # r=4 is the full marginal rank, the tester's own default
    ok, rates, mi_corr, runs = _tester_arms(
        13, "mi", ("bipartite:random_product", "bipartite:correlated"),
        d=4, r=4, eps_grid=(0.5,), lam=0.4, trials=100)
    pooled = runs[0] + runs[1]
    product_rate = sum(rec.flags["product_within_eps_prime"]
                       for rec in pooled) / len(pooled)
    ok = ok and product_rate >= 0.9 and mi_corr >= 0.5
    return ok, {"accept_rate": rates[0], "reject_rate": rates[1],
                "product_chi2_rate": product_rate, "correlated_mi": mi_corr}


# ---------------------------------------------------------------------------
# 14: reruns are byte-stable
# ---------------------------------------------------------------------------

@_criterion(14, "determinism")
def _determinism():
    s = hz.Scenario(sid="accept-determinism", target="chi2", d=4, r=2,
                    family="rank_r_random", estimator="oracle:f=d",
                    eps_grid=(0.25,), trials=4, master_seed=777)
    rows_a = hz.csv_rows(hz.run_scenario(s, workers=1))
    rows_b = hz.csv_rows(hz.run_scenario(s, workers=1))
    rows_c = hz.csv_rows(hz.run_scenario(s, workers=2))
    rerun = rows_a == rows_b
    parallel = rows_a == rows_c
    return rerun and parallel, {"rerun_identical": rerun,
                                "parallel_identical": parallel,
                                "trials": s.trials}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def acceptance_suite(only=None) -> list:
    """Run the numbered criteria and return a CriterionResult for each.

    ``only`` restricts to the given criterion numbers (raising on
    unknown ones).  Each result carries its criterion's wall time.  The
    criteria are serial by design; the determinism criterion exercises
    the worker pool itself.
    """
    known = {number for number, _, _ in CRITERIA}
    if only is not None:
        extra = set(only) - known
        if extra:
            raise ValueError(f"unknown criterion numbers: {sorted(extra)}")
    results = []
    for number, name, fn in sorted(CRITERIA, key=lambda c: c[0]):
        if only is not None and number not in only:
            continue
        started = time.perf_counter()
        passed, measured = fn()
        elapsed = time.perf_counter() - started
        # counters touched by numpy booleans promote to numpy ints,
        # which json refuses; normalize at the one exit point
        measured = {k: v.item() if isinstance(v, np.generic) else v
                    for k, v in measured.items()}
        results.append(CriterionResult(number=number, name=name,
                                       passed=bool(passed),
                                       measured=measured,
                                       elapsed_s=round(elapsed, 3)))
    return results
