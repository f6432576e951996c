"""Scenario orchestration: seeded trials, CSV emission, scaling fits.

A Scenario names a state family, an estimator, a target quantity, and a
grid (copy budgets for Frobenius runs, accuracy targets for everything
else).  Each (grid point, trial) pair gets its own counter-derived RNG
stream, so reruns under the same master seed reproduce every draw and
the emitted CSV byte for byte, regardless of worker count.  Wall time
is kept on the in-memory records but never written to CSV for exactly
that reason.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import divergences as dv
from . import frobenius as fb
from . import linalg
from . import measurement as ms
from . import mitest as mt
from . import pipeline as pl

__all__ = [
    "ScenarioError",
    "Scenario",
    "TrialRecord",
    "FAMILIES",
    "TARGETS",
    "scenario_from_dict",
    "make_state",
    "grid_for",
    "run_scenario",
    "fit_scaling",
    "evaluate_guarantees",
    "summarize",
    "csv_rows",
    "write_csv",
    "write_summary_csv",
    "write_plot_stub",
]

FAMILIES = ("pure", "rank_r_random", "maximally_mixed", "geometric_spectrum",
            "bipartite:product", "bipartite:correlated")
TARGETS = ("frobenius", "infidelity", "chi2", "kl", "mi")

#: Markov-style logging threshold: a single trial is flagged when its
#: loss exceeds this multiple of the in-expectation guarantee
FLAG_SLACK = 10.0


class ScenarioError(ValueError):
    """Configuration rejected; the message names the offending field."""


@dataclass(frozen=True)
class Scenario:
    """One experiment: a family, an estimator, a target, and a grid."""

    sid: str
    target: str
    d: int
    r: int = 1
    family: str = "rank_r_random"
    estimator: str = "oracle:f=d"
    eps_grid: tuple = (0.2,)
    n_grid: tuple = (10_000,)
    trials: int = 20
    master_seed: int = 20260816
    variant: int = 1
    lam: float = 0.5      # correlation weight for bipartite:correlated
    delta: float = 0.05


@dataclass(frozen=True)
class TrialRecord:
    """One trial's losses and guarantee flags; append-only."""

    scenario: str
    trial: int
    point: float          # grid value driving this trial (n or eps)
    n_used: int
    losses: dict
    flags: dict
    wall_time: float


def validate_scenario(s: Scenario) -> None:
    if not s.sid:
        raise ScenarioError("field 'id': must be a nonempty string")
    if s.target not in TARGETS:
        raise ScenarioError(f"field 'target': {s.target!r} not in {TARGETS}")
    if s.family not in FAMILIES:
        raise ScenarioError(f"field 'family': {s.family!r} not in {FAMILIES}")
    bipartite = s.family.startswith("bipartite:")
    if (s.target == "mi") != bipartite:
        raise ScenarioError("field 'family': target 'mi' pairs with the "
                            "bipartite families and only with them")
    if s.d < 2:
        raise ScenarioError("field 'd': need dimension at least 2")
    if not 1 <= s.r <= s.d:
        raise ScenarioError(f"field 'r': must lie in [1, {s.d}]")
    if not s.eps_grid or not s.n_grid:
        raise ScenarioError("field 'eps_grid'/'n_grid': grids are nonempty")
    if any(not 0.0 < e <= 1.0 for e in s.eps_grid):
        raise ScenarioError("field 'eps_grid': entries must lie in (0, 1]")
    if any(int(n) < 1 for n in s.n_grid):
        raise ScenarioError("field 'n_grid': entries must be positive")
    if s.trials < 0:
        raise ScenarioError("field 'trials': must be nonnegative")
    if not 0 <= s.master_seed < 2 ** 64:
        raise ScenarioError("field 'master_seed': must fit in 64 bits")
    if s.variant not in (1, 2):
        raise ScenarioError("field 'variant': must be 1 or 2")
    if not 0.0 <= s.lam <= 1.0:
        raise ScenarioError("field 'lam': must lie in [0, 1]")
    if not 0.0 < s.delta < 1.0:
        raise ScenarioError("field 'delta': must lie in (0, 1)")
    try:
        fb.parse_estimator(s.estimator, s.r)
    except ValueError as exc:
        raise ScenarioError(f"field 'estimator': {exc}") from exc


_CONFIG_KEYS = {
    "id": ("sid", str), "sid": ("sid", str), "target": ("target", str),
    "d": ("d", int), "r": ("r", int), "family": ("family", str),
    "estimator": ("estimator", str), "trials": ("trials", int),
    "master_seed": ("master_seed", int), "variant": ("variant", int),
    "lam": ("lam", float), "delta": ("delta", float),
    "eps_grid": ("eps_grid", lambda v: tuple(float(x) for x in v)),
    "n_grid": ("n_grid", lambda v: tuple(int(x) for x in v)),
}


def scenario_from_dict(data: dict, source: str = "config") -> Scenario:
    """Build and validate a Scenario from flat JSON-style keys."""
    kwargs = {}
    for key, value in data.items():
        if key not in _CONFIG_KEYS:
            raise ScenarioError(f"{source}: unknown field {key!r}")
        name, cast = _CONFIG_KEYS[key]
        try:
            kwargs[name] = cast(value)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{source}: field {key!r}: {exc}") from exc
    if "sid" not in kwargs:
        raise ScenarioError(f"{source}: field 'id' is required")
    if "target" not in kwargs:
        raise ScenarioError(f"{source}: field 'target' is required")
    if "d" not in kwargs:
        raise ScenarioError(f"{source}: field 'd' is required")
    s = Scenario(**kwargs)
    validate_scenario(s)
    return s


def make_state(s: Scenario, rng: np.random.Generator) -> np.ndarray:
    """Draw (or construct) this trial's true state."""
    if s.family == "pure":
        return linalg.random_pure(s.d, rng)
    if s.family == "rank_r_random":
        return linalg.random_density(s.d, s.r, rng)
    if s.family == "maximally_mixed":
        return linalg.maximally_mixed(s.d)
    if s.family == "geometric_spectrum":
        return linalg.geometric_spectrum_state(s.d, rng)
    if s.family == "bipartite:product":
        return linalg.correlated_pair_state(s.d, 0.0)
    if s.family == "bipartite:correlated":
        return linalg.correlated_pair_state(s.d, s.lam)
    raise ScenarioError(f"field 'family': {s.family!r}")


def grid_for(s: Scenario) -> tuple:
    return s.n_grid if s.target == "frobenius" else s.eps_grid


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

def _staged(s: Scenario, rho, eps, rng):
    spec = fb.parse_estimator(s.estimator, s.r)
    params = pl.plan_budget(s.d, s.r, spec.rate(s.d, s.r), eps,
                            variant=s.variant)
    out = pl.staged_learn(rho, spec, params, rng)
    if out.consumed != params.total:  # the relearn pass drains the budget
        raise RuntimeError(f"staged run consumed {out.consumed} of "
                           f"{params.total} planned copies")
    return params, out


def _run_trial(s: Scenario, point_index: int, trial: int) -> TrialRecord:
    point = grid_for(s)[point_index]
    rng = np.random.default_rng([s.master_seed, point_index, trial])
    started = time.perf_counter()
    rho = make_state(s, rng)

    if s.target == "frobenius":
        n = int(point)
        spec = fb.parse_estimator(s.estimator, s.r)
        budget = ms.CopyBudget(total=n)
        est = spec.run(rho, budget, rng)
        if budget.consumed != n:
            raise RuntimeError(f"estimator {s.estimator!r} consumed "
                               f"{budget.consumed} of {n} planned copies")
        loss = linalg.frob_sq(est - rho)
        promise = spec.rate(s.d, s.r) / n
        losses = {"frob_sq": float(loss)}
        flags = {"within_rate": bool(loss <= FLAG_SLACK * promise)}
        n_used = n

    elif s.target == "chi2":
        params, out = _staged(s, rho, float(point), rng)
        est = linalg.decompose(pl.to_chi2(out))
        losses = {"bures_chi2": float(dv.bures_chi2(rho, est)),
                  "hellinger_sq": float(dv.hellinger_sq_q(rho, est)),
                  "eps_prime": float(out.eps_prime)}
        flags = {"within_eps": bool(losses["bures_chi2"] <= point),
                 "converged": not out.forced_stop}
        n_used = out.consumed

    elif s.target == "infidelity":
        params, out = _staged(s, rho, float(point), rng)
        est = pl.to_infidelity(out)
        losses = {"infidelity": float(dv.infidelity(rho, est)),
                  "eps_prime": float(out.eps_prime)}
        flags = {"within_eps": bool(losses["infidelity"] <= params.eps),
                 "converged": not out.forced_stop}
        n_used = out.consumed

    elif s.target == "kl":
        params, out = _staged(s, rho, float(point), rng)
        est = pl.to_infidelity(out)
        rho_dec = linalg.decompose(rho)
        infid = float(dv.infidelity(rho_dec, est))
        smoothed, bound = pl.to_kl(est, params.eps)
        kl = float(dv.relative_entropy(rho_dec, smoothed))
        losses = {"infidelity": infid, "kl": kl, "kl_bound": float(bound)}
        flags = {"within_eps": bool(infid <= params.eps),
                 "kl_within_bound": bool(kl <= bound),
                 "converged": not out.forced_stop}
        n_used = out.consumed

    elif s.target == "mi":
        spec = fb.parse_estimator(s.estimator, s.r)
        v = mt.quantum_mi_test(rho, s.d, s.d, float(point), rng,
                               r=s.r, spec=spec)
        should_accept = s.family == "bipartite:product"
        losses = {"hellinger_sq": float(v.stats["hellinger_sq"]),
                  "bures_chi2": float(v.stats["bures_chi2_product"]),
                  "mi": float(v.stats["mi"])}
        flags = {"accept": v.accept,
                 "correct": bool(v.accept == should_accept),
                 "floor_ok": bool(v.stats["learning"]["floor_ok"])}
        n_used = int(v.stats["joint_copies"])

    else:
        raise ScenarioError(f"field 'target': {s.target!r}")

    return TrialRecord(scenario=s.sid, trial=trial, point=float(point),
                       n_used=n_used, losses=losses, flags=flags,
                       wall_time=time.perf_counter() - started)


def _trial_entry(args):
    s, point_index, trial = args
    return _run_trial(s, point_index, trial)


def run_scenario(s: Scenario, workers: int | None = None) -> list:
    """Run every (grid point, trial) pair; deterministic under the seed.

    Worker count comes from the argument, else the BURESLAB_WORKERS
    environment variable, else 1.  Parallel runs return records in the
    same order as serial ones because each trial's stream depends only
    on its own indices.
    """
    validate_scenario(s)
    tasks = [(s, pi, t) for pi in range(len(grid_for(s)))
             for t in range(s.trials)]
    if workers is None:
        workers = int(os.environ.get("BURESLAB_WORKERS", "1"))
    if workers <= 1 or len(tasks) <= 1:
        return [_trial_entry(task) for task in tasks]
    # imported here: the pool machinery costs ~2 MB that serial runs skip
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_trial_entry, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _x_value(record: TrialRecord, x: str) -> float:
    if x == "n":
        return float(record.n_used)
    if x == "eps":
        return float(record.point)
    raise ValueError("x must be 'n' or 'eps'")


def fit_scaling(records, x: str = "n", y: str = "frob_sq"):
    """Least squares on log-log means: returns (slope, intercept, r2).

    Records are grouped by the x value (copies used or the accuracy
    point), the chosen loss is averaged within each group, and the fit
    runs on the log of both.  Constant data fits slope 0 with r2 = 1.
    """
    groups: dict = {}
    for rec in records:
        groups.setdefault(_x_value(rec, x), []).append(rec.losses[y])
    if len(groups) < 2:
        raise ValueError("need at least two distinct x values to fit")
    xs = np.array(sorted(groups))
    means = np.array([np.mean(groups[v]) for v in xs])
    if np.any(means <= 0.0):
        raise ValueError("log-log fit needs positive means")
    lx, ly = np.log(xs), np.log(means)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    total = ly - ly.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return float(slope), float(intercept), r2


def summarize(records, y: str) -> list:
    """Per-point mean, stderr-based 95% band, and flag pass rates."""
    by_point: dict = {}
    for rec in records:
        by_point.setdefault(rec.point, []).append(rec)
    rows = []
    for point in sorted(by_point):
        recs = by_point[point]
        vals = np.array([r.losses[y] for r in recs], dtype=float)
        se = float(vals.std(ddof=1) / math.sqrt(len(vals))) \
            if len(vals) > 1 else 0.0
        rates = {}
        for key in sorted({k for r in recs for k in r.flags}):
            rates[key] = float(np.mean([r.flags.get(key, False)
                                        for r in recs]))
        rows.append({"point": point, "trials": len(recs),
                     "n_mean": float(np.mean([r.n_used for r in recs])),
                     "mean": float(vals.mean()), "ci95": 1.96 * se,
                     "flag_rates": rates})
    return rows


def evaluate_guarantees(s: Scenario, records) -> list:
    """Per-point verdicts on the scenario's advertised guarantee.

    Returns a list of (name, passed, measured, threshold) tuples.  In
    probabilistic targets the bar is a 90% per-point pass rate; in
    in-expectation targets it is the mean against the promised rate.
    """
    results = []
    spec = fb.parse_estimator(s.estimator, s.r)
    for row in summarize(records, _primary_loss(s.target)):
        point = row["point"]
        name = f"{s.sid}@{point:g}"
        if s.target == "frobenius":
            promise = spec.rate(s.d, s.r) / point
            slack = 2.0 * row["ci95"] / 1.96
            results.append((name, row["mean"] <= promise + slack,
                            row["mean"], promise))
        elif s.target in ("chi2", "infidelity"):
            rate = row["flag_rates"].get("within_eps", 0.0)
            results.append((name, rate >= 0.9, rate, 0.9))
        elif s.target == "kl":
            ok = row["flag_rates"].get("kl_within_bound", 0.0) == 1.0 \
                and row["flag_rates"].get("within_eps", 0.0) >= 0.9
            results.append((name, ok,
                            row["flag_rates"].get("kl_within_bound", 0.0),
                            1.0))
        elif s.target == "mi":
            rate = row["flag_rates"].get("correct", 0.0)
            results.append((name, rate >= 0.9, rate, 0.9))
    return results


def _primary_loss(target: str) -> str:
    return {"frobenius": "frob_sq", "chi2": "bures_chi2",
            "infidelity": "infidelity", "kl": "kl",
            "mi": "hellinger_sq"}[target]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def csv_rows(records) -> list:
    """Stable tabular form: header row plus one row per trial.

    Columns: scenario, trial, point, n_used, then loss:* and flag:*
    sorted by name.  Wall time is excluded so identical reruns emit
    identical bytes.  Rows are tuples.  Callers may keep the rows of
    many calls, so the header is built once per column set and shared,
    and the cells that repeat across calls (scenario, point, n_used) are
    interned.
    """
    loss_keys = tuple(sorted({k for r in records for k in r.losses}))
    flag_keys = tuple(sorted({k for r in records for k in r.flags}))
    return [_csv_header(loss_keys, flag_keys)] + [
        (sys.intern(rec.scenario), str(rec.trial),
         sys.intern(repr(float(rec.point))), sys.intern(str(int(rec.n_used))),
         *(repr(float(rec.losses[k])) if k in rec.losses else ""
           for k in loss_keys),
         *(str(int(rec.flags[k])) if k in rec.flags else ""
           for k in flag_keys))
        for rec in records]


@functools.lru_cache(maxsize=None)
def _csv_header(loss_keys: tuple, flag_keys: tuple) -> tuple:
    return ("scenario", "trial", "point", "n_used",
            *(f"loss:{k}" for k in loss_keys),
            *(f"flag:{k}" for k in flag_keys))


def write_csv(records, path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(csv_rows(records))


def write_summary_csv(records, y: str, path: str) -> None:
    rows = summarize(records, y)
    flag_keys = sorted({k for row in rows for k in row["flag_rates"]})
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["point", "trials", "n_mean", "mean", "ci95"]
                   + [f"rate:{k}" for k in flag_keys])
        for row in rows:
            w.writerow([repr(row["point"]), row["trials"],
                        repr(row["n_mean"]), repr(row["mean"]),
                        repr(row["ci95"])]
                       + [repr(row["flag_rates"].get(k, ""))
                          for k in flag_keys])


PLOT_STUB = """\
#!/usr/bin/env python3
# Minimal plot of a summary CSV produced by the bench/tomography verbs.
# Usage: python3 {name} summary.csv
import csv
import sys

import matplotlib.pyplot as plt

with open(sys.argv[1], newline="") as fh:
    rows = list(csv.DictReader(fh))
x = [float(r["point"]) for r in rows]
y = [float(r["mean"]) for r in rows]
err = [float(r["ci95"]) for r in rows]
plt.errorbar(x, y, yerr=err, marker="o")
plt.xscale("log")
plt.yscale("log")
plt.xlabel("grid point")
plt.ylabel("mean loss")
plt.tight_layout()
plt.show()
"""


def write_plot_stub(path: str) -> None:
    with open(path, "w") as fh:
        fh.write(PLOT_STUB.format(name=os.path.basename(path)))
