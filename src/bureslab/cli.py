"""Command-line front end.

Verbs: `divergence` prints the divergence chain between two lab states
and checks its orderings; `tomography run` executes one scenario;
`mi-test` exercises a product tester arm; `bench` sweeps a copy-budget
grid and fits the scaling law; `accept` runs the acceptance suite.
Every verb exits 0 only if all guarantees it executed passed, 1 if one
failed, and 2 with one ``error:`` line on standard error if its
parameters were rejected.
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
from . import linalg
from . import measurement as ms
from . import pipeline as pl

SLACK = 1e-9

#: families the inline --family flags offer; bipartite ones need a config
_SINGLE_FAMILIES = [name for name, family in hz.FAMILIES.items()
                   if not family.bipartite]


def _chain_verdicts(chain: dict, quantum: bool) -> list:
    """(name, lhs, rhs) orderings; holds when lhs <= rhs + slack."""
    h2 = chain["hellinger_sq"]
    if quantum:
        return [
            ("h2/2 <= trace_distance", 0.5 * h2, chain["trace_distance"]),
            ("trace_distance <= bures", chain["trace_distance"],
             math.sqrt(chain["bures_sq"])),
            ("bures_sq <= kl", chain["bures_sq"], chain["kl"]),
            ("kl <= reverse_bound", chain["kl"], chain["reverse_bound"]),
            ("bures_sq <= hellinger_sq", chain["bures_sq"], h2),
            ("hellinger_sq <= 2 bures_sq", h2, 2.0 * chain["bures_sq"]),
        ]
    return [
        ("h2/2 <= tv", 0.5 * h2, chain["tv"]),
        ("tv <= h", chain["tv"], math.sqrt(h2)),
        ("h2 <= kl", h2, chain["kl"]),
        ("kl <= chi2", chain["kl"], chain["chi2"]),
        ("kl <= reverse_bound", chain["kl"], chain["reverse_bound"]),
    ]


def cmd_divergence(args) -> int:
    if not 1 <= args.r <= args.d:
        raise hz.ScenarioError(f"--r {args.r} must lie in [1, --d {args.d}]")
    rng = np.random.default_rng(args.seed)
    rho = hz.FAMILIES[args.family].make(args.d, args.r, args.lam, rng)
    sigma = hz.FAMILIES[args.family2].make(args.d, args.r, args.lam, rng)
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


def _emit(records, loss: str, out: str | None, sid: str) -> None:
    if not out:
        return
    if os.path.isdir(out) or out.endswith(os.sep):
        os.makedirs(out, exist_ok=True)
        out = os.path.join(out, f"{sid}.csv")
    hz.write_csv(records, out)
    base = out[:-4] if out.endswith(".csv") else out
    hz.write_summary_csv(records, loss, base + ".summary.csv")
    hz.write_plot_stub(base + ".plot.py")
    print(f"wrote {out}, {base}.summary.csv, {base}.plot.py")


def _scenario(args, data: dict, source: str = "command line"):
    """The validated scenario; ``--seed`` wins over the data's seed."""
    if args.seed is not None:
        data["master_seed"] = args.seed
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


def cmd_tomography(args) -> int:
    if args.config:
        s = _scenario(args, _load_config(args.config), source=args.config)
    else:
        data = {"id": args.id, "target": args.target, "d": args.d,
                "r": args.r, "family": args.family,
                "estimator": args.estimator, "trials": args.trials}
        if args.eps:
            data["eps_grid"] = args.eps
        if args.n:
            data["n_grid"] = args.n
        s = _scenario(args, data)
    records = hz.run_scenario(s, workers=args.workers)
    loss = hz.TARGETS[s.target].loss
    for row in hz.summarize(records, loss):
        rates = " ".join(f"{k}={v:.2f}" for k, v in row["flag_rates"].items())
        print(f"point {row['point']:g}: n_mean {row['n_mean']:.3g}  "
              f"{loss} {row['mean']:.4g} +- {row['ci95']:.2g}  {rates}")
    failures = 0
    for name, passed, measured, threshold in hz.evaluate_guarantees(s, records):
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: "
              f"measured {measured:.4g} vs {threshold:.4g}")
    _emit(records, loss, args.out, s.sid)
    return 1 if failures else 0


def cmd_mi_test(args) -> int:
    from . import mitest as mt
    if args.trials < 1:
        raise hz.ScenarioError(f"--trials {args.trials} must be at least 1")
    rng = np.random.default_rng(args.seed)
    lam = args.lam if args.arm == "correlated" else 0.0
    should_accept = args.arm == "product"
    correct = 0
    for trial in range(args.trials):
        if args.kind == "classical":
            joint = mt.correlated_joint(args.d, lam)
            verdict = mt.classical_mi_test(joint, args.eps, rng)
        else:
            joint = linalg.correlated_pair_state(args.d, lam)
            verdict = mt.quantum_mi_test(joint, args.d, args.d, args.eps,
                                         rng, r=args.r)
        good = verdict.accept == should_accept
        correct += good
        print(f"trial {trial}: {'accept' if verdict.accept else 'reject'}"
              f" ({'ok' if good else 'WRONG'})")
    rate = correct / args.trials
    print(f"{args.kind} {args.arm} arm: {correct}/{args.trials} correct")
    return 0 if rate >= 0.9 else 1


def cmd_bench(args) -> int:
    s = _scenario(args, {"id": args.id, "target": "frobenius", "d": args.d,
                         "r": args.r, "family": args.family,
                         "estimator": args.estimator, "trials": args.trials,
                         "n_grid": args.n})
    if len(set(s.n_grid)) < 2:
        raise hz.ScenarioError("a fit needs two distinct --n")
    records = hz.run_scenario(s, workers=args.workers)
    loss = hz.TARGETS[s.target].loss
    slope, intercept, r2 = hz.fit_scaling(records, y=loss)
    print(f"slope {slope:.4f}  level {math.exp(intercept):.4g}  r2 {r2:.4f}")
    failures = 0
    slope_ok = abs(slope + 1.0) <= 0.15
    failures += not slope_ok
    print(f"{'PASS' if slope_ok else 'FAIL'}  slope -1 +- 0.15")
    for name, passed, measured, threshold in hz.evaluate_guarantees(s, records):
        failures += not passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: "
              f"mean {measured:.4g} vs promised {threshold:.4g}")
    _emit(records, loss, args.out, s.sid)
    return 1 if failures else 0


def cmd_accept(args) -> int:
    from . import accept
    only = None
    if args.only:
        known = {str(number): number for number, _, _ in accept.CRITERIA}
        asked = [x.strip() for x in args.only.split(",")]
        unknown = [x for x in asked if x not in known]
        if unknown:
            raise hz.ScenarioError(
                f"unknown criterion numbers: [{', '.join(unknown)}]")
        only = sorted(known[x] for x in asked)
    results = accept.acceptance_suite(only=only)
    failures = 0
    report = []
    for res in results:
        failures += not res.passed
        print(res.line())
        report.append({"criterion": res.number, "name": res.name,
                       "passed": res.passed, "measured": res.measured})
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=2)
        print(f"wrote {args.out}")
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

    p = sub.add_parser("divergence", help="divergence chain between two states")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--family", default="rank_r_random", choices=hz.FAMILIES)
    p.add_argument("--family2", default="maximally_mixed",
                   choices=hz.FAMILIES)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_divergence)

    p = sub.add_parser("tomography", help="run a tomography scenario")
    tsub = p.add_subparsers(dest="action", required=True)
    t = tsub.add_parser("run")
    t.add_argument("--config", help="scenario JSON file")
    t.add_argument("--id", default="tomography")
    t.add_argument("--target", default="chi2", choices=[
        name for name, target in hz.TARGETS.items() if not target.bipartite])
    t.add_argument("--d", type=int, default=4)
    t.add_argument("--r", type=int, default=1)
    t.add_argument("--family", default="rank_r_random",
                   choices=_SINGLE_FAMILIES)
    t.add_argument("--estimator", default="oracle:f=d")
    t.add_argument("--eps", type=_numbers, help="comma list of accuracies")
    t.add_argument("--n", type=_numbers, help="comma list of copy budgets")
    t.add_argument("--trials", type=int, default=20)
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
    p.add_argument("--r", type=int)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--lam", type=float, default=0.5)
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_mi_test)

    p = sub.add_parser("bench", help="copy-budget sweep with scaling fit")
    p.add_argument("--id", default="bench")
    p.add_argument("--d", type=int, default=4)
    p.add_argument("--r", type=int, default=4)
    p.add_argument("--family", default="rank_r_random",
                   choices=_SINGLE_FAMILIES)
    p.add_argument("--estimator", default="simple")
    p.add_argument("--n", type=_numbers, default="1000,10000,100000")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="CSV path, or a directory for <id>.csv")
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--only", help="comma list of criterion numbers")
    p.add_argument("--out", help="JSON report path")
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
