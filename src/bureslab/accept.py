"""Runnable acceptance checks behind the library's advertised guarantees.

Each criterion is a self-contained seeded experiment: inequality chains
on random ensembles, risk levels for the estimators, accuracy and
structure guarantees for the staged pipeline, the restriction identity,
the two product testers, and byte-stable harness reruns.
``acceptance_suite`` runs them in numeric order and returns one
CriterionResult apiece; the CLI prints ``result.line()`` for each and
exits nonzero if anything failed.

Wherever the library could be wrong in a self-consistent way, the check
here recomputes the quantity through a second route: quantum
divergences through matrix functions instead of the eigenbasis-overlap
pair, estimator risk against closed-form levels, pipeline conclusions
against the true state rotated into the output frame.

Numbers 6 and 11 are retired and unknown to ``--only``; the other
criteria keep the numbers that comments and reports cite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import classical
from . import cli
from . import config
from . import divergences as dv
from . import frobenius as fb
from . import harness as hz
from . import linalg
from . import measurement as ms
from . import mitest as mt
from . import pipeline as pl

__all__ = ["CriterionResult", "acceptance_suite", "CRITERIA"]

#: root seed for every acceptance experiment; criterion number and trial
#: counters extend it, so criteria stay reproducible run in isolation
_SEED = 20260816


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    measured: dict = field(default_factory=dict)

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
    slack = 0.0

    def worst(chain, quantum):
        return max(lhs - rhs for _, lhs, rhs
                   in cli._chain_verdicts(chain, quantum))

    for _ in range(pairs):
        slack = max(slack, worst(dv.classical_chain(
            rng.dirichlet(np.ones(64)), rng.dirichlet(np.ones(64))), False))
    for _ in range(pairs):
        slack = max(slack, worst(dv.quantum_chain(
            linalg.random_density(8, 8, rng),
            linalg.random_density(8, 8, rng)), True))

    elapsed = time.perf_counter() - started
    ok = slack <= cli.SLACK and elapsed < 120.0
    return ok, {"pairs": 2 * pairs, "max_slack": float(slack),
                "elapsed_s": round(elapsed, 2)}


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
            (dv.max_log_ratio_q(rho, sig), inf_mat),
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
        np.allclose(classical.add_one_hybrid(row, m, np.arange(d)),
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
    spec = fb.parse_estimator("simple")
    d, trials = 4, 200
    grid = (1_000, 10_000, 100_000)
    means = []
    level_ok = True
    for j, n in enumerate(grid):
        errs = []
        for t in range(trials):
            rng = np.random.default_rng([_SEED, 5, j, t])
            rho = linalg.random_density(d, d, rng)
            est = spec.run(rho, ms.CopyBudget(total=n), rng)
            errs.append(linalg.frob_sq(est - rho))
        means.append(float(np.mean(errs)))
        level_ok = level_ok and means[-1] <= spec.rate(d, d) / n
    slope = float(np.polyfit(np.log(grid), np.log(means), 1)[0])
    ok = level_ok and abs(slope + 1.0) <= 0.15
    return ok, {"slope": slope, "level_ok": level_ok,
                "mean_n1000": means[0],
                "level_n1000": spec.rate(d, d) / grid[0]}


# ---------------------------------------------------------------------------
# 7-9: the staged pipeline, one shared trial ensemble
# ---------------------------------------------------------------------------

_central_cache: list | None = None


def _central_trials() -> list:
    """d=8 staged runs over ranks {1, 2, 8} and targets {0.2, 0.1}.

    Criteria 7-9 all read this ensemble, so it is built once; every
    trial keeps the true state, the raw output, and the blended error.
    """
    global _central_cache
    if _central_cache is not None:
        return _central_cache
    spec = fb.parse_estimator("oracle:f=d")
    d, trials = 8, 100
    rows = []
    for r in (1, 2, 8):
        for eps_final in (0.2, 0.1):
            params = pl.plan_budget(d, r, spec.rate(d, r), eps_final)
            for t in range(trials):
                rng = np.random.default_rng(
                    [_SEED, 7, r, round(100 * eps_final), t])
                rho = linalg.random_density(d, r, rng)
                out = pl.staged_learn(rho, spec, params, rng)
                rows.append({
                    "r": r, "eps_final": eps_final, "params": params,
                    "rho": rho, "out": out,
                    "chi2": float(dv.bures_chi2(rho, pl.to_chi2(out))),
                })
    _central_cache = rows
    return rows


@_criterion(7, "staged-accuracy")
def _staged_accuracy():
    rows = _central_trials()
    measured = {}
    ok = True
    for r in (1, 2, 8):
        totals = {}
        for eps_final in (0.2, 0.1):
            cell = [x for x in rows
                    if x["r"] == r and x["eps_final"] == eps_final]
            rate = float(np.mean([x["chi2"] <= eps_final for x in cell]))
            totals[eps_final] = cell[0]["params"].total
            measured[f"rate_r{r}_eps{eps_final}"] = rate
            ok = ok and rate >= 0.9
        ratio = totals[0.1] / totals[0.2]
        measured[f"copies_ratio_r{r}"] = round(ratio, 3)
        ok = ok and ratio <= 2.5
    return ok, measured


def _indexed_tail(rho_t: np.ndarray, q: np.ndarray, ell: int) -> float:
    """Tail error over pairs whose larger coordinate leaves the prefix.

    Each pair is weighted by 2/q at that coordinate.  q is taken as-is,
    not required to ascend: the relearning pass can leave small ordering
    inversions between the prefix and the retained block, which the
    index-based weights do not care about.
    """
    d = q.size
    tau = rho_t - np.diag(q)
    kmax = np.maximum(np.arange(d)[:, None], np.arange(d)[None, :])
    sel = kmax >= ell
    qk = q[kmax]
    num = 2.0 * np.abs(tau) ** 2
    if np.any(sel & (qk <= 0.0) & (num > config.PSD_TOL ** 2)):
        return float("inf")
    ok = sel & (qk > 0.0)
    return float(np.sum(num[ok] / qk[ok]))


@_criterion(8, "staged-structure")
def _staged_structure():
    rows = _central_trials()
    fails = {"cardinality": 0, "masses": 0, "block": 0, "tail": 0}
    bad = 0
    for x in rows:
        p, out = x["params"], x["out"]
        ell = out.prefix
        rho_t = out.frame.conj().T @ x["rho"] @ out.frame
        tau_true = float(np.trace(rho_t[:ell, :ell]).real)
        block = rho_t[:ell, :ell] - np.diag(out.q[:ell])

        a_ok = (p.d - ell) <= config.K_ACC * p.r * p.l_max
        b_ok = (tau_true <= config.K_ACC * p.eps_tilde
                and out.eps_prime <= config.K_ACC * p.eps_tilde)
        c_ok = linalg.frob_sq(block) <= config.K_ACC * p.eps_tilde ** 2 / p.r
        d_ok = _indexed_tail(rho_t, out.q, ell) <= config.K_ACC * p.eps

        fails["cardinality"] += not a_ok
        fails["masses"] += not b_ok
        fails["block"] += not c_ok
        fails["tail"] += not d_ok
        bad += not (a_ok and b_ok and c_ok and d_ok)
    rate = bad / len(rows)
    measured = {"trials": len(rows), "fail_rate": rate}
    measured.update({f"fail_{k}": v for k, v in fails.items()})
    return rate <= 0.10, measured


@_criterion(9, "kl-upgrade")
def _kl_upgrade():
    rows = _central_trials()
    certified = violations = 0
    worst = 0.0
    for x in rows:
        p = x["params"]
        est = pl.to_infidelity(x["out"])
        if dv.infidelity(x["rho"], est) > p.eps:
            continue
        certified += 1
        smoothed, bound = pl.to_kl(est, p.eps)
        kl = dv.relative_entropy(x["rho"], smoothed)
        worst = max(worst, kl / bound)
        violations += kl > bound
    ok = certified > 0 and violations == 0
    return ok, {"certified": certified, "violations": violations,
                "max_kl_over_bound": float(worst)}


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
        cond = linalg.restrict(rho, subset)
        if cond is None:
            skipped += 1
            continue
        mass = linalg.mass_on(rho, subset)
        back = np.zeros((d, d), dtype=complex)
        back[np.ix_(subset, subset)] = cond
        fid = dv.fidelity(rho, back)
        worst = max(worst, abs(mass - fid ** 2))
    ok = worst <= 1e-9 and skipped == 0
    return ok, {"pairs": pairs, "max_abs_err": float(worst),
                "skipped": skipped}


@_criterion(12, "classical-tester")
def _classical_tester():
    d, eps, trials = 8, 0.5, 200
    lam = 0.5
    mi_corr = dv.classical_mutual_information(mt.correlated_joint(d, lam))
    accept_hits = reject_hits = 0
    for t in range(trials):
        rng = np.random.default_rng([_SEED, 12, 0, t])
        joint = np.outer(rng.dirichlet(np.ones(d)),
                         rng.dirichlet(np.ones(d)))
        accept_hits += mt.classical_mi_test(joint, eps, rng).accept
    for t in range(trials):
        rng = np.random.default_rng([_SEED, 12, 1, t])
        v = mt.classical_mi_test(mt.correlated_joint(d, lam), eps, rng)
        reject_hits += not v.accept
    ok = (accept_hits >= 0.9 * trials and reject_hits >= 0.9 * trials
          and mi_corr >= eps)
    return ok, {"accept_rate": accept_hits / trials,
                "reject_rate": reject_hits / trials,
                "correlated_mi": float(mi_corr)}


@_criterion(13, "quantum-tester")
def _quantum_tester():
    d, eps, trials = 4, 0.5, 100
    lam = 0.4  # entangled mix with MI 0.56, just past the gap
    plan = mt.quantum_mi_plan(d, eps)
    mi_corr = dv.quantum_mutual_information(
        linalg.correlated_pair_state(d, lam), d, d)
    accept_hits = reject_hits = suffer_hits = 0
    for arm in (0, 1):
        for t in range(trials):
            rng = np.random.default_rng([_SEED, 13, arm, t])
            if arm == 0:
                joint = np.kron(linalg.random_density(d, d, rng),
                                linalg.random_density(d, d, rng))
            else:
                joint = linalg.correlated_pair_state(d, lam)
            sig, tau, _ = mt.learn_product_quantum(
                joint, d, d, plan["eps_learn"], rng)
            product = np.kron(sig, tau)
            accept = mt.hellinger_gap_verdict(
                dv.hellinger_sq_q(joint, product), plan["eps_t"])
            ma = linalg.partial_trace(joint, d, d, "A")
            mb = linalg.partial_trace(joint, d, d, "B")
            suffer = dv.bures_chi2(np.kron(ma, mb), product)
            suffer_hits += suffer <= plan["eps_prime"]
            if arm == 0:
                accept_hits += accept
            else:
                reject_hits += not accept
    ok = (accept_hits >= 0.9 * trials and reject_hits >= 0.9 * trials
          and suffer_hits >= 0.9 * 2 * trials and mi_corr >= eps)
    return ok, {"accept_rate": accept_hits / trials,
                "reject_rate": reject_hits / trials,
                "product_chi2_rate": suffer_hits / (2 * trials),
                "correlated_mi": float(mi_corr)}


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
    unknown ones).  The criteria are serial by design; the determinism
    criterion exercises the worker pool itself.
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
        passed, measured = fn()
        # counters touched by numpy booleans promote to numpy ints,
        # which json refuses; normalize at the one exit point
        measured = {k: v.item() if isinstance(v, np.generic) else v
                    for k, v in measured.items()}
        results.append(CriterionResult(number=number, name=name,
                                       passed=bool(passed),
                                       measured=measured))
    return results
