"""Command-line front end.

Verbs: `divergence` prints the divergence chain between two lab states
and checks its orderings; `tomography run` executes one scenario;
`mi-test` exercises a product tester arm; `bench` sweeps a copy-budget
grid and fits the scaling law; `accept` runs the acceptance suite.
`tomography run`, `bench` and `mi-test` build a validated
``harness.Scenario`` and hand it to one runner, which runs its trials,
prints each point's summary and guarantee verdict and writes ``--out``;
only `divergence` draws from one stream of its own.  Every verb exits 0
only if all guarantees it executed passed, 1 if one failed, and 2 with
one ``error:`` line on standard error if its parameters were rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import divergences as dv
from . import harness as hz
from . import measurement as ms
from . import pipeline as pl

SLACK = 1e-9


def _of(table: dict, *spaces: str) -> list:
    """The names of a FAMILIES or TARGETS table's rows in ``spaces``."""
    return [name for name, row in table.items() if row.space in spaces]


def _chain_verdicts(chain: dict, quantum: bool) -> list:
    """(name, lhs, rhs) orderings; holds when lhs <= rhs + slack.

    Reads a chain of one pair (floats) or of a stack (arrays) alike.
    """
    h2 = chain["hellinger_sq"]
    if quantum:
        return [
            ("h2/2 <= trace_distance", 0.5 * h2, chain["trace_distance"]),
            # bures_sq rounds below 0 for a state against itself
            ("trace_distance <= bures", chain["trace_distance"],
             np.sqrt(np.maximum(chain["bures_sq"], 0.0))),
            ("bures_sq <= kl", chain["bures_sq"], chain["kl"]),
            ("kl <= reverse_bound", chain["kl"], chain["reverse_bound"]),
            ("bures_sq <= hellinger_sq", chain["bures_sq"], h2),
            ("hellinger_sq <= 2 bures_sq", h2, 2.0 * chain["bures_sq"]),
        ]
    return [
        ("h2/2 <= tv", 0.5 * h2, chain["tv"]),
        ("tv <= h", chain["tv"], np.sqrt(h2)),
        ("h2 <= kl", h2, chain["kl"]),
        ("kl <= chi2", chain["kl"], chain["chi2"]),
        ("kl <= reverse_bound", chain["kl"], chain["reverse_bound"]),
    ]


def _seed(seed: int) -> int:
    """``--seed``, refused by the flag's name when negative, before numpy
    (a traceback) or the scenario check (a config field) sees it."""
    if seed < 0:
        raise hz.ScenarioError(f"--seed {seed} must be nonnegative")
    return seed


def cmd_divergence(args) -> int:
    if not 1 <= args.r <= args.d:
        raise hz.ScenarioError(f"--r {args.r} must lie in [1, --d {args.d}]")
    if not 0.0 <= args.lam <= 1.0:
        raise hz.ScenarioError(f"--lam {args.lam} must lie in [0, 1]")
    rng = np.random.default_rng(_seed(args.seed))
    rho, _ = hz.FAMILIES[args.family].make(args.d, args.r, args.lam, rng)
    sigma, _ = hz.FAMILIES[args.family2].make(args.d, args.r, args.lam, rng)
    if rho.shape != sigma.shape:
        raise hz.ScenarioError(
            f"--family {args.family} gives dimension {len(rho)} but "
            f"--family2 {args.family2} gives {len(sigma)}")
    chain = dv.quantum_chain(rho, sigma)
    for key in sorted(chain):
        print(f"{key:>16s}  {chain[key]:.9g}")
    failures = 0
    for name, lhs, rhs in _chain_verdicts(chain, quantum=True):
        ok = lhs <= rhs + SLACK
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 1 if failures else 0


def _out_path(out: str | None, name: str) -> str | None:
    """The file path ``--out`` names, settled before any trial runs.

    A directory (created on demand) holds the file ``name``; a file
    path whose directory does not exist is refused.
    """
    if not out:
        return None
    if os.path.isdir(out) or out.endswith(os.sep):
        os.makedirs(out, exist_ok=True)
        return os.path.join(out, name)
    parent = os.path.dirname(out) or os.curdir
    if not os.path.isdir(parent):
        raise hz.ScenarioError(
            f"--out {out}: directory {parent} does not exist")
    return out


def _run(s: hz.Scenario, workers: int, out: str | None) -> tuple:
    """Run ``s``, print each point's summary and each guarantee verdict,
    and write the ``--out`` files; returns ``(records, rows, failures)``,
    ``rows`` the printed :func:`harness.summarize` rows.

    ``workers`` and ``out`` are refused before any trial runs.
    """
    if workers < 1:
        raise hz.ScenarioError(f"--workers {workers} must be at least 1")
    out = _out_path(out, f"{s.sid}.csv")
    records = hz.run_scenario(s, workers=workers)
    loss = hz.TARGETS[s.target].loss
    rows = hz.summarize(records, loss)
    for row in rows:
        rates = " ".join(f"{k}={v:.2f}" for k, v in row["flag_rates"].items())
        print(f"point {row['point']:g}: n_mean {row['n_mean']:.3g}  "
              f"{loss} {row['mean']:.4g} +- {row['ci95']:.2g}  {rates}")
    failures = 0
    for name, passed, measured, threshold in hz.evaluate_guarantees(s, records):
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: "
              f"measured {measured:.4g} vs {threshold:.4g}")
    if out:
        hz.write_csv(records, out)
        base = out[:-4] if out.endswith(".csv") else out
        hz.write_summary_csv(records, loss, base + ".summary.csv")
        hz.write_plot_stub(base + ".plot.py")
        print(f"wrote {out}, {base}.summary.csv, {base}.plot.py")
    return records, rows, failures


def _scenario(args, data: dict, source: str = "command line"):
    """The validated scenario; ``--seed`` wins over the data's seed."""
    if args.seed is not None:
        data["master_seed"] = _seed(args.seed)
    return hz.scenario_from_dict(data, source=source)


def _load_config(path: str) -> dict:
    """The object of scenario fields in a JSON file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise hz.ScenarioError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise hz.ScenarioError(f"{path}: expected an object of fields, "
                               f"got {type(data).__name__}")
    return data


#: `tomography run`'s scenario flags, by the config field each sets
_INLINE = {"id": "id", "target": "target", "d": "d", "r": "r",
           "family": "family", "estimator": "estimator", "eps": "eps_grid",
           "n": "n_grid", "trials": "trials"}


def cmd_tomography(args) -> int:
    given = [flag for flag in _INLINE if getattr(args, flag) is not None]
    if args.config:
        if given:  # the file holds the whole scenario
            raise hz.ScenarioError(", ".join(f"--{flag}" for flag in given)
                                   + " cannot be given with --config")
        s = _scenario(args, _load_config(args.config), source=args.config)
    else:  # flags not given are left to the Scenario defaults
        data = {"id": "tomography", "target": "chi2", "d": 4}
        data.update({_INLINE[flag]: getattr(args, flag) for flag in given})
        s = _scenario(args, data)
    _, _, failures = _run(s, args.workers, args.out)
    return 1 if failures else 0


def cmd_mi_test(args) -> int:
    quantum = args.kind == "quantum"
    s = _scenario(args, {
        "id": "mi-test", "d": args.d,
        "target": "mi" if quantum else "classical_mi", "r": args.d,
        "family": f"{'bipartite' if quantum else 'classical'}:{args.arm}",
        "eps_grid": (args.eps,), "lam": args.lam, "trials": args.trials})
    records, _, failures = _run(s, 1, None)
    for rec in records:
        print(f"trial {rec.trial}: "
              f"{'accept' if rec.flags['accept'] else 'reject'}"
              f" ({'ok' if rec.flags['correct'] else 'WRONG'})")
    correct = sum(rec.flags["correct"] for rec in records)
    print(f"{args.kind} {args.arm} arm: {correct}/{s.trials} correct")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    s = _scenario(args, {"id": args.id, "target": "frobenius", "d": args.d,
                         "r": args.r, "family": args.family,
                         "estimator": args.estimator, "trials": args.trials,
                         "n_grid": args.n})
    if len(set(s.n_grid)) < 2:
        raise hz.ScenarioError("a fit needs two distinct --n")
    _, rows, failures = _run(s, args.workers, args.out)
    slope, intercept, r2 = hz.fit_scaling(rows)
    print(f"slope {slope:.4f}  level {math.exp(intercept):.4g}  r2 {r2:.4f}")
    slope_ok = abs(slope + 1.0) <= hz.SLOPE_TOL
    print(f"{'PASS' if slope_ok else 'FAIL'}  slope -1 +- {hz.SLOPE_TOL:g}")
    return 1 if failures or not slope_ok else 0


def cmd_accept(args) -> int:
    from . import accept
    only = None
    if args.only is not None:  # an empty selection is refused, not "all"
        known = {str(number): number for number, _, _ in accept.CRITERIA}
        asked = [x.strip() for x in args.only.split(",")]
        unknown = [x or "''" for x in asked if x not in known]
        if unknown:
            raise hz.ScenarioError(
                f"unknown criterion numbers: [{', '.join(unknown)}]")
        only = sorted(known[x] for x in asked)
    out = _out_path(args.out, "accept.json")
    results = accept.acceptance_suite(only=only)
    failures = 0
    report = []
    for res in results:
        failures += not res.passed
        print(res.line())
        report.append({"criterion": res.number, "name": res.name,
                       "passed": res.passed, "measured": res.measured,
                       "elapsed_s": res.elapsed_s})
    if out:
        with open(out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {out}")
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 1 if failures else 0


def _numbers(text: str) -> list:
    try:  # an argparse type: a malformed list exits 2 like any bad flag
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bureslab",
        description="Desk-scale tomography and product-testing lab.")
    sub = parser.add_subparsers(dest="verb", required=True)

    # the inline --family flags offer states on C^d; the divergence chain
    # takes pair states too, but no table: it is not a density matrix
    single = _of(hz.FAMILIES, "state")
    states = _of(hz.FAMILIES, "state", "pair")
    p = sub.add_parser("divergence", help="divergence chain between two states")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--family", default="rank_r_random", choices=states)
    p.add_argument("--family2", default="maximally_mixed", choices=states)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("tomography", help="run a tomography scenario")
    tsub = p.add_subparsers(dest="action", required=True)
    t = tsub.add_parser("run")
    t.add_argument("--config", help="scenario JSON file")
    t.add_argument("--id")
    t.add_argument("--target", choices=_of(hz.TARGETS, "state"))
    t.add_argument("--d", type=int)
    t.add_argument("--r", type=int)
    t.add_argument("--family", choices=single)
    t.add_argument("--estimator")
    t.add_argument("--eps", type=_numbers, help="comma list of accuracies")
    t.add_argument("--n", type=_numbers, help="comma list of copy budgets")
    t.add_argument("--trials", type=int)
    t.add_argument("--seed", type=int)
    t.add_argument("--out", help="CSV path, or a directory for <id>.csv")
    t.add_argument("--workers", type=int, default=1)
    t.set_defaults(func=cmd_tomography)

    p = sub.add_parser("mi-test", help="run one product-tester arm")
    p.add_argument("--kind", default="quantum",
                   choices=("classical", "quantum"))
    p.add_argument("--arm", default="product",
                   choices=("product", "correlated"))
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mi_test)

    p = sub.add_parser("bench", help="copy-budget sweep with scaling fit")
    p.add_argument("--id", default="bench")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--family", default="rank_r_random", choices=single)
    p.add_argument("--estimator", default="simple")
    p.add_argument("--n", type=_numbers, default="1000,10000,100000")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV path, or a directory for <id>.csv")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--only", help="comma list of criterion numbers")
    p.add_argument("--out",
                   help="JSON report path, or a directory for accept.json")
    p.set_defaults(func=cmd_accept)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (hz.ScenarioError, pl.ParameterError, ms.BudgetExhausted) as exc:
        # a rejected scenario, or a parameter set outside the guaranteed
        # regime, found only once the run plans its budget or hands an
        # estimator too few copies
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
