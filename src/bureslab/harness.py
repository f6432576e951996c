"""Scenario orchestration: seeded trials, CSV emission, scaling fits.

A Scenario names a state family, an estimator, a target quantity, and a
grid; the FAMILIES and TARGETS tables hold what differs per family and
per target.  A target is a trial, which spends the copies, and a score,
which reads the truth and draws nothing; targets that share a trial
(the staged ones) can score one run together through
:func:`run_targets`, with the records each would give alone.  Each
(grid point, trial) pair gets its own counter-derived RNG stream, so
reruns under the same master seed reproduce every draw and the emitted
CSV byte for byte, regardless of worker count.  Wall time is kept on the
in-memory records but never written to CSV for exactly that reason.
"""

from __future__ import annotations

import csv
import functools
import math
import os
import sys
import time
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from . import config
from . import divergences as dv
from . import frobenius as fb
from . import linalg
from . import mitest as mt
from . import pipeline as pl

__all__ = [
    "ScenarioError",
    "Scenario",
    "TrialRecord",
    "Family",
    "FAMILIES",
    "Target",
    "TARGETS",
    "scenario_from_dict",
    "make_state",
    "grid_for",
    "run_targets",
    "run_scenario",
    "fit_scaling",
    "evaluate_guarantees",
    "summarize",
    "csv_rows",
    "write_csv",
    "write_summary_csv",
    "write_plot_stub",
]

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
    eps_grid: tuple[float, ...] = (0.2,)
    n_grid: tuple[int, ...] = (10_000,)
    trials: int = 20
    master_seed: int = 20260816
    lam: float = 0.5      # correlation weight for bipartite:correlated


@dataclass(frozen=True)
class TrialRecord:
    """One trial's losses and guarantee flags; append-only."""

    scenario: str
    trial: int
    point: float          # grid value driving this trial (n or eps)
    n_used: int
    losses: dict
    flags: dict
    wall_time: float      # the whole trial, each target's score included


def validate_scenario(s: Scenario) -> None:
    if not s.sid:
        raise ScenarioError("field 'id': must be a nonempty string")
    if s.target not in TARGETS:
        raise ScenarioError(
            f"field 'target': {s.target!r} not in {tuple(TARGETS)}")
    if s.family not in FAMILIES:
        raise ScenarioError(
            f"field 'family': {s.family!r} not in {tuple(FAMILIES)}")
    if TARGETS[s.target].bipartite != FAMILIES[s.family].bipartite:
        raise ScenarioError(
            "field 'family': targets "
            f"{tuple(k for k, t in TARGETS.items() if t.bipartite)} pair "
            "with the bipartite families and only with them")
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
    if s.trials < 1:
        raise ScenarioError("field 'trials': need at least one trial")
    if s.master_seed < 0:
        raise ScenarioError("field 'master_seed': must be nonnegative")
    if s.master_seed >= 2 ** 64:
        raise ScenarioError("field 'master_seed': must fit in 64 bits")
    if not 0.0 <= s.lam <= 1.0:
        raise ScenarioError("field 'lam': must lie in [0, 1]")
    if s.family == "bipartite:correlated" and s.lam == 0.0:
        raise ScenarioError("field 'lam': bipartite:correlated at lam 0 is "
                            "the product Id/d^2; name bipartite:product")
    try:
        fb.parse_estimator(s.estimator, s.r)
    except ValueError as exc:
        raise ScenarioError(f"field 'estimator': {exc}") from exc


#: config keys are the Scenario fields, with "id" standing for "sid"
_FIELD_TYPES = typing.get_type_hints(Scenario)


def _integer(value) -> int:
    """An int field's value: booleans and fractional numbers are refused,
    not truncated; a whole float such as 8.0 or 1e5 passes."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _real(value) -> float:
    """A float field's value: booleans are refused, not read as 0 or 1."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def scenario_from_dict(data: dict, source: str = "config") -> Scenario:
    """Build and validate a Scenario from flat JSON-style keys."""
    kwargs = {}
    for key, value in data.items():
        name = "sid" if key == "id" else key
        if name not in _FIELD_TYPES:
            raise ScenarioError(f"{source}: unknown field {key!r}")
        kind = _FIELD_TYPES[name]
        grid = typing.get_origin(kind) is tuple
        item = typing.get_args(kind)[0] if grid else kind
        cast = {int: _integer, float: _real}.get(item, item)
        try:  # a grid casts each entry to its item type
            kwargs[name] = tuple(map(cast, value)) if grid else cast(value)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"{source}: field {key!r}: {exc}") from exc
    if kwargs.get("target") in TARGETS:  # a grid the target never reads
        read = TARGETS[kwargs["target"]].grid
        for name in ("n_grid", "eps_grid"):
            if name in kwargs and name != read:
                raise ScenarioError(f"{source}: field {name!r}: target "
                                    f"{kwargs['target']!r} reads {read}")
    for f in fields(Scenario):
        if f.default is MISSING and f.name not in kwargs:
            key = "id" if f.name == "sid" else f.name
            raise ScenarioError(f"{source}: field {key!r} is required")
    s = Scenario(**kwargs)
    validate_scenario(s)
    return s


# ---------------------------------------------------------------------------
# state families and loss targets
# ---------------------------------------------------------------------------

class Family(typing.NamedTuple):
    """A state family; ``make(d, r, lam, rng)`` returns ``(rho, rho_dec)``,
    its state and that state's exact eigensystem, read off the draw by
    the matching ``linalg.*_eig`` constructor."""

    make: typing.Callable
    bipartite: bool = False   # on two d-dimensional systems
    product: bool = False     # a product tester should accept it


def _random_product_eig(d, r, lam, rng) -> tuple:
    """a (x) b for two full-rank random states, with its eigensystem
    read off the factors'."""
    a, a_dec = linalg.random_density_eig(d, d, rng)
    b, b_dec = linalg.random_density_eig(d, d, rng)
    return np.kron(a, b), linalg.kron_decomposition(a_dec, b_dec)


def _dirichlet_product_eig(d, r, lam, rng) -> tuple:
    """diag(a (x) b) for two Dirichlet(1) draws: a classical product
    table, whose eigensystem is the identity basis."""
    p = np.kron(rng.dirichlet(np.ones(d)), rng.dirichlet(np.ones(d)))
    dec = linalg.SpectralDecomposition.ascending(
        p, np.eye(d * d, dtype=complex))
    return np.diag(p.astype(complex)), dec


FAMILIES = {
    "pure": Family(lambda d, r, lam, rng: linalg.random_pure_eig(d, rng)),
    "rank_r_random": Family(
        lambda d, r, lam, rng: linalg.random_density_eig(d, r, rng)),
    "maximally_mixed": Family(
        lambda d, r, lam, rng: linalg.maximally_mixed_eig(d)),
    "geometric_spectrum": Family(
        lambda d, r, lam, rng: linalg.geometric_spectrum_eig(d, rng)),
    # correlated_pair_state(d, 0.0) is exactly Id/d^2, so its eigensystem
    # is the identity
    "bipartite:product": Family(
        lambda d, r, lam, rng: linalg.maximally_mixed_eig(d * d),
        bipartite=True, product=True),
    "bipartite:random_product": Family(
        _random_product_eig, bipartite=True, product=True),
    "bipartite:dirichlet_product": Family(
        _dirichlet_product_eig, bipartite=True, product=True),
    "bipartite:correlated": Family(
        lambda d, r, lam, rng: linalg.correlated_pair_eig(d, lam),
        bipartite=True),
}


def make_state(s: Scenario, rng: np.random.Generator) -> tuple:
    """Draw (or construct) this trial's true state: ``(rho, rho_dec)``,
    the matrix and its eigensystem from the draw (see :class:`Family`),
    so no trial diagonalizes its truth."""
    return FAMILIES[s.family].make(s.d, s.r, s.lam, rng)


def _frobenius_trial(s: Scenario, rho, rho_dec, point, rng):
    n = int(point)
    return n, fb.parse_estimator(s.estimator, s.r).run(rho, n, rng)


def _frobenius_score(s: Scenario, rho, rho_dec, est, point):
    loss = linalg.frob_sq(est - rho)
    promise = fb.parse_estimator(s.estimator, s.r).rate(s.d, s.r) \
        / int(point)
    return {"frob_sq": float(loss)}, \
        {"within_rate": bool(loss <= FLAG_SLACK * promise)}


def _frobenius_verdict(s: Scenario, row: dict):
    promise = fb.parse_estimator(s.estimator, s.r).rate(s.d, s.r) \
        / row["point"]
    slack = 2.0 * row["ci95"] / 1.96
    return row["mean"] <= promise + slack, row["mean"], promise


def _staged_trial(s: Scenario, rho, rho_dec, point, rng):
    """The trial the staged targets share: plan, learn, check the drain.
    Each staged score reads the planned accuracy off ``out.params.eps``."""
    spec = fb.parse_estimator(s.estimator, s.r)
    params = pl.plan_budget(s.d, s.r, spec.rate(s.d, s.r), float(point))
    out = pl.staged_learn(rho, spec, params, rng)
    if out.consumed != params.total:  # the relearn pass drains it
        raise RuntimeError(f"staged run consumed {out.consumed} of "
                           f"{params.total} planned copies")
    return out.consumed, out


def _chi2_score(s: Scenario, rho, rho_dec, out, point):
    est = pl.to_chi2(out)
    chi2 = float(dv.bures_chi2(rho, est))
    return ({"bures_chi2": chi2,
             "hellinger_sq": float(dv.hellinger_sq_q(rho_dec, est)),
             "eps_prime": float(out.eps_prime)},
            {"within_eps": chi2 <= point, "converged": not out.forced_stop,
             **_structure_flags(rho_dec, out)})


def _structure_flags(rho_dec, out) -> dict:
    """A staged run's structure against the true state in its frame: few
    unresolved directions, little mass on them (true and estimated), an
    accurate prefix block and a small weighted error off it."""
    p, ell = out.params, out.prefix
    bar = config.K_ACC * p.eps_tilde
    # rotated from the truth's support alone: cheap at low rank
    keep = rho_dec.values > 0.0
    w = out.frame.conj().T @ rho_dec.vectors[:, keep]
    rho_t = (w * rho_dec.values[keep]) @ w.conj().T
    # |tau|^2, tau = rho_t - diag(q): the block is its prefix corner
    num = np.abs(rho_t - np.diag(out.q)) ** 2
    return {
        "cardinality": p.d - ell <= config.K_ACC * p.r * p.l_max,
        "masses": float(np.trace(rho_t[:ell, :ell]).real) <= bar
        and float(out.eps_prime) <= bar,
        "block": float(num[:ell, :ell].sum()) <= bar * p.eps_tilde / p.r,
        "tail": _indexed_tail(num, out.q, ell) <= config.K_ACC * p.eps,
    }


def _indexed_tail(num: np.ndarray, q: np.ndarray, ell: int) -> float:
    """Tail error over pairs whose larger coordinate leaves the prefix.

    ``num`` holds |tau_ij|^2, tau = rho_t - diag(q) with rho_t the truth
    in the output frame.  Each pair is weighted by 2/q at that
    coordinate.  q is taken as-is, not required to ascend: the
    relearning pass can leave small ordering inversions between the
    prefix and the retained block, which the index-based weights do not
    care about.  The pairs whose larger coordinate is k fill an L: row k
    up to the diagonal and column k above it.  Each L is summed by a
    running sum along rows and one along columns, read at the diagonal,
    so the weights divide d - ell sums, not the d x d pairs.
    """
    rows, cols, qk = num[ell:], num[:, ell:], q[ell:]
    # both running sums count num_kk, so it is taken off once
    ls = (np.cumsum(rows, axis=1).diagonal(ell)
          + np.cumsum(cols, axis=0).diagonal(-ell) - num.diagonal()[ell:])
    dead = qk <= 0.0
    if dead.any():
        peak = np.maximum(np.maximum.accumulate(rows, axis=1).diagonal(ell),
                          np.maximum.accumulate(cols, axis=0).diagonal(-ell))
        # 2 |tau|^2 > PSD_TOL^2, with the exact factor 2 moved across
        if np.any(peak[dead] > 0.5 * config.PSD_TOL ** 2):
            return float("inf")
        ls, qk = ls[~dead], qk[~dead]
    # the factor 2 is exact, so it may wait for the sum
    return float(2.0 * np.sum(ls / qk))


def _infidelity_score(s: Scenario, rho, rho_dec, out, point):
    infid = float(dv.infidelity(rho_dec, pl.to_infidelity(out)))
    return ({"infidelity": infid, "eps_prime": float(out.eps_prime)},
            {"within_eps": infid <= out.params.eps,
             "converged": not out.forced_stop})


def _kl_score(s: Scenario, rho, rho_dec, out, point):
    est, eps = pl.to_infidelity(out), out.params.eps
    smoothed, bound = pl.to_kl(est, eps)
    infid, kl = dv.infidelity_and_relative_entropy(rho_dec, est, smoothed)
    bound = float(bound)
    return ({"infidelity": infid, "kl": kl, "kl_bound": bound},
            {"within_eps": infid <= eps, "kl_within_bound": kl <= bound,
             "converged": not out.forced_stop})


def _kl_verdict(s: Scenario, row: dict):
    held = row["flag_rates"].get("kl_within_bound", 0.0)
    return held == 1.0 and _pass_rate("within_eps")(s, row)[0], held, 1.0


def _mi_trial(s: Scenario, rho, rho_dec, point, rng):
    v = mt.quantum_mi_test(rho, rho_dec, s.d, float(point), rng,
                           r=s.r, spec=fb.parse_estimator(s.estimator, s.r))
    return int(v.stats["joint_copies"]), v


def _mi_score(s: Scenario, rho, rho_dec, v, point):
    """Score the quantum tester's learned product against the truth: the
    joint's Bures chi-square from it, the MI (the joint's relative
    entropy to the product of its true marginals, whose eigensystem takes
    two marginal solves) and the product flag.  The true marginals are
    traced once, for both."""
    learned = v.stats["product"]
    marginals = linalg.marginals(rho, s.d)
    losses = {"hellinger_sq": float(v.stats["hellinger_sq"]),
              "bures_chi2": float(dv.bures_chi2(rho, learned)),
              "mi": float(dv.relative_entropy(
                  rho_dec, linalg.product_of_marginals(marginals)))}
    chi2 = _product_chi2(marginals, learned)
    flags = {"accept": v.accept,
             "correct": v.accept == FAMILIES[s.family].product,
             "floor_ok": bool(v.stats["learning"]["floor_ok"]),
             "product_within_eps_prime": chi2 <= v.stats["eps_prime"]}
    return losses, flags


def _classical_mi_trial(s: Scenario, rho, rho_dec, point, rng):
    """Run the classical tester on the table of the state's outcomes in
    the computational basis."""
    joint = np.diag(rho).real.reshape(s.d, s.d)
    v = mt.classical_mi_test(joint, float(point), rng)
    return v.stats["n_total"], v


def _classical_mi_score(s: Scenario, rho, rho_dec, v, point):
    """The tester's verdict, and the MI of the table it tested: the KL
    to the product of the table's marginals."""
    joint = np.diag(rho).real.reshape(s.d, s.d)
    product = np.outer(joint.sum(axis=1), joint.sum(axis=0))
    mi = dv.classical_chain(joint.ravel(), product.ravel())["kl"]
    return {"mi": mi}, {
        "accept": v.accept, "correct": v.accept == FAMILIES[s.family].product}


def _product_chi2(marginals, learned) -> float:
    """Bures chi-square of a (x) b, for the pair ``marginals`` = (a, b)
    of d x d matrices, from ``learned`` (W, q); (a (x) b) W is taken
    factor by factor."""
    a, b = marginals
    d, w = a.shape[0], learned.vectors
    abw = (a @ (b @ w.reshape(d, d, d * d)).reshape(d, -1)).reshape(w.shape)
    return float(dv.bures_chi2_in_basis(w.conj().T @ abw, learned.values))


def _pass_rate(flag: str):
    """Bar of a probabilistic guarantee: 90% of a point's trials hold."""
    def verdict(s: Scenario, row: dict):
        rate = row["flag_rates"].get(flag, 0.0)
        return rate >= 0.9, rate, 0.9
    return verdict


class Target(typing.NamedTuple):
    """Everything the harness decides per loss target."""

    grid: str                 # the Scenario field holding its grid
    loss: str                 # what summaries average and verdicts judge
    bipartite: bool           # runs on the bipartite families, only there
    trial: typing.Callable    # (s, rho, rho_dec, point, rng) -> n_used,
    #                           result: spends the copies; targets with
    #                           the same trial can share one run of it
    score: typing.Callable    # (s, rho, rho_dec, result, point) -> losses,
    #                           flags: reads the truth, draws nothing
    verdict: typing.Callable  # (s, summarize row) -> passed, measured, bar


#: the ladder of losses, from Frobenius error up to the MI tests
TARGETS = {
    "frobenius": Target("n_grid", "frob_sq", False, _frobenius_trial,
                        _frobenius_score, _frobenius_verdict),
    "infidelity": Target("eps_grid", "infidelity", False, _staged_trial,
                         _infidelity_score, _pass_rate("within_eps")),
    "chi2": Target("eps_grid", "bures_chi2", False, _staged_trial,
                   _chi2_score, _pass_rate("within_eps")),
    "kl": Target("eps_grid", "kl", False, _staged_trial, _kl_score,
                 _kl_verdict),
    "mi": Target("eps_grid", "hellinger_sq", True, _mi_trial, _mi_score,
                 _pass_rate("correct")),
    "classical_mi": Target("eps_grid", "mi", True, _classical_mi_trial,
                           _classical_mi_score, _pass_rate("correct")),
}


def grid_for(s: Scenario) -> tuple:
    return getattr(s, TARGETS[s.target].grid)


# ---------------------------------------------------------------------------
# trial execution
# ---------------------------------------------------------------------------

def _run_trial(s: Scenario, targets: tuple, point_index: int,
               trial: int) -> tuple:
    """Run ``s.target``'s trial once, then score it for each of
    ``targets``; returns their records in that order."""
    point = grid_for(s)[point_index]
    rng = np.random.default_rng([s.master_seed, point_index, trial])
    started = time.perf_counter()
    rho, rho_dec = make_state(s, rng)
    n_used, result = TARGETS[s.target].trial(s, rho, rho_dec, point, rng)
    scores = [TARGETS[t].score(s, rho, rho_dec, result, point)
              for t in targets]
    wall_time = time.perf_counter() - started
    return tuple(TrialRecord(scenario=s.sid, trial=trial, point=float(point),
                             n_used=n_used, losses=losses, flags=flags,
                             wall_time=wall_time) for losses, flags in scores)


def run_targets(s: Scenario, targets: tuple, workers: int = 1) -> dict:
    """Run every (grid point, trial) pair once and score it for each of
    ``targets``: ``{target: records}``, each list the records
    ``run_scenario`` gives on ``s`` with that target.  Every target must
    share ``s.target``'s trial.  Deterministic under the seed.

    Parallel runs return records in the same order as serial ones
    because each trial's stream depends only on its own indices.
    """
    validate_scenario(s)
    trial = TARGETS[s.target].trial
    for t in targets:
        if t not in TARGETS or TARGETS[t].trial is not trial:
            raise ScenarioError(
                f"targets: {t!r} does not share the trial of {s.target!r}")
    tasks = [(s, targets, pi, t) for pi in range(len(grid_for(s)))
             for t in range(s.trials)]
    if workers <= 1 or len(tasks) <= 1:
        runs = [_run_trial(*task) for task in tasks]
    else:
        # imported here: the pool machinery costs ~2 MB that serial runs skip
        from concurrent.futures import ProcessPoolExecutor
        chunk = max(1, len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            runs = list(pool.map(_run_trial, *zip(*tasks), chunksize=chunk))
    return {t: list(records) for t, records in zip(targets, zip(*runs))}


def run_scenario(s: Scenario, workers: int = 1) -> list:
    """Run every (grid point, trial) pair of ``s.target``: the one-target
    case of :func:`run_targets`."""
    return run_targets(s, (s.target,), workers)[s.target]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

#: how far a fitted log-log slope may sit from the -1 of an f/n law
SLOPE_TOL = 0.15


def fit_scaling(records):
    """Least squares on log-log means: returns (slope, intercept, r2).

    Records are grouped by copies used, the Frobenius loss ``frob_sq``
    is averaged within each group, and the fit runs on the log of both.
    Constant data fits slope 0 with r2 = 1.
    """
    groups: dict = {}
    for rec in records:
        groups.setdefault(float(rec.n_used), []).append(
            rec.losses["frob_sq"])
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
        rates = {key: sum(1 for r in recs if r.flags.get(key, False))
                 / len(recs)
                 for key in sorted({k for r in recs for k in r.flags})}
        rows.append({"point": point, "trials": len(recs),
                     "n_mean": float(np.mean([r.n_used for r in recs])),
                     "mean": float(vals.mean()), "ci95": 1.96 * se,
                     "flag_rates": rates})
    return rows


def evaluate_guarantees(s: Scenario, records) -> list:
    """Per-point (name, passed, measured, threshold) verdicts on the
    scenario's advertised guarantee, judged by its target's bar."""
    target = TARGETS[s.target]
    return [(f"{s.sid}@{row['point']:g}", *target.verdict(s, row))
            for row in summarize(records, target.loss)]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def csv_rows(records) -> list:
    """Stable tabular form: header row plus one row per trial.

    Columns: scenario, trial, point, n_used, then loss:* and flag:*
    sorted by name.  Wall time is excluded so identical reruns emit
    identical bytes.  Rows are tuples.  Callers may keep the rows of
    many calls, so the header is built once per column set and shared,
    and the cells that repeat across calls (scenario, trial, point,
    n_used and the flags) are interned.
    """
    loss_keys = tuple(sorted({k for r in records for k in r.losses}))
    flag_keys = tuple(sorted({k for r in records for k in r.flags}))
    return [_csv_header(loss_keys, flag_keys)] + [
        (sys.intern(rec.scenario), sys.intern(str(rec.trial)),
         sys.intern(repr(float(rec.point))), sys.intern(str(int(rec.n_used))),
         *(repr(float(rec.losses[k])) if k in rec.losses else ""
           for k in loss_keys),
         *(sys.intern(str(int(rec.flags[k]))) if k in rec.flags else ""
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
