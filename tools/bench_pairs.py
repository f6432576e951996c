#!/usr/bin/env python3
"""Run the benchmark on two trees in alternating pairs; write BENCH files.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --parent PARENT_DIR --parent-tag TAG \\
        --change CHANGE_DIR --change-tag TAG [--pairs 10] [--seed 1] \\
        [--workload NAME ...] [--out DIR]

    python3 tools/bench_pairs.py --parent PARENT_DIR --parent-tag TAG \\
        --aa [--change-tag TAG] [--pairs 10] [--seed 1] \\
        [--workload NAME ...] [--out DIR]

Both trees are first copied (:func:`aa_copy`) to ``a/tree`` and
``b/tree`` of one temporary directory beside the parent, so their paths
have equal length and sit on one file system; the copies are removed
after the runs.  Each pair runs, once for each tree and in the directory
it then sits in,

    python3 <tree>/perfbench/run.py --workload W --seed S --seconds N --trace 0

with the same workload W and seed S on both sides; N is ``run_seconds``
of this checkout's BENCHMARK.json.  Pair i of every workload uses seed
``--seed`` + i, and both the side that runs first and the directory
each tree sits in alternate from pair to pair: the two directories
swap their trees between pairs (:func:`run_pairs`), so an offset
between the directories cannot win a metric on 9 pairs in 10.  From
each run the script keeps its ``provenance`` line, its
``unpaced`` line (the raw ``op_ms_p50`` and ``ops_per_s``, before the
pace kernel's scaling, and ``pace_kernel_ms``) and its final JSON line.
It writes ``BENCH_<tag>.json`` for each tree into ``--out`` (default:
this checkout's root), holding the seeds, the distinct provenance
records and, per workload, each run's ``failed`` and ``attempted``
counts and, per metric, paced and unpaced, the values with their
median, q1 and q3, and the directory (``a`` or ``b``) of each run.
It then prints, for each workload, an ``attempted``
row (the median number of ops per run on each side, which a
``peak_rss_mb`` move should be read against, since the benchmark keeps
one outcome per op) and, for each metric, the parent median, the change
median, the number of pairs the change won, whether the change meets
the claim rule and whether it stays inside the metric's bound.  A pair
is won when the change reads better, in the direction BENCHMARK.json
gives (an unpaced metric takes its paced namesake's); ties count for
neither side.  The claim rule holds when at least 10 pairs ran, the
change wins at least 9 in 10 of them and its median is better than the
parent's by more than the parent's q3 - q1.  The bound column reads
``worse`` when the change's median is worse than the parent's by more
than the metric's BENCHMARK.json ``bound``, a fraction of the parent
median; otherwise ``unresolved`` when the parent's own q3 - q1 is
wider than that bound, unless every change run reads better than every
parent run, since such a spread cannot show a move of the bound's size;
and ``ok`` otherwise.  The unpaced metrics have no bound.

``--aa`` runs an A/A check instead: the parent is copied to both
directories, so the change tree is a byte-identical copy of it; its tag
defaults to ``<parent tag>-aa``.  Every
claim the rule grants and every ``worse`` bound verdict is then a false
reading, and the summary ends with their counts, so the rule's false
claim rate is measured, not assumed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: the fewest pairs on which the claim rule can hold
MIN_PAIRS = 10
#: the units of the ``unpaced`` line's entries
UNPACED_UNITS = {"op_ms_p50": "ms", "ops_per_s": "1/s",
                 "pace_kernel_ms": "ms"}


def parse_run(stdout: str) -> dict:
    """The provenance record, the unpaced record and the final JSON
    object of one run."""
    found = {}
    for line in stdout.splitlines():
        for key in ("provenance", "unpaced"):
            if line.startswith(key + " "):
                found[key] = json.loads(line[len(key) + 1:])
        if line.startswith("{"):
            found["result"] = json.loads(line)
    if len(found) < 3:
        raise ValueError("run output lacks its provenance, unpaced or "
                         "JSON line")
    return found


def spread(values: list) -> dict:
    """The values with their median and quartiles (inclusive method, so
    q1 and q3 lie within the values)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3}


def bench_record(tag: str, seeds: list, runs: dict) -> dict:
    """The BENCH file of one tree; ``runs`` maps each workload to its
    parsed runs, one per seed, in seed order, each with the ``dir`` it
    ran in where :func:`run_pairs` recorded it."""
    provenance = []
    workloads = {}
    for name, parsed in runs.items():
        for run in parsed:
            prov = {k: v for k, v in run["provenance"].items()
                    if k != "seed"}
            if prov not in provenance:
                provenance.append(prov)
        results = [run["result"] for run in parsed]
        metrics = {}
        for key, entry in results[0]["metrics"].items():
            metrics[key] = {"unit": entry["unit"], **spread(
                [r["metrics"][key]["value"] for r in results])}
        unpaced = {key: {"unit": UNPACED_UNITS.get(key), **spread(
            [run["unpaced"][key] for run in parsed])}
            for key in parsed[0]["unpaced"]}
        workloads[name] = {"dirs": [run.get("dir") for run in parsed],
                           "failed": [r["failed"] for r in results],
                           "attempted": [r["attempted"] for r in results],
                           "metrics": metrics, "unpaced": unpaced}
    return {"tag": tag, "seeds": seeds, "provenance": provenance,
            "workloads": workloads}


def pairs_won(parent: list, change: list, better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    sign = 1.0 if better == "higher" else -1.0
    return sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))


def claim_holds(p: dict, c: dict, better: str, won: int) -> bool:
    """Whether at least MIN_PAIRS pairs ran, the change wins at least 9
    in 10 of them and its median beats the parent's by more than the
    parent's q3 - q1."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(p["values"])
    return (n >= MIN_PAIRS and 10 * won >= 9 * n
            and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"])


def past_bound(p: float, c: float, better: str, bound: float) -> bool:
    """Whether the change's median ``c`` is worse than the parent's ``p``
    by more than ``bound``, a fraction of ``p``."""
    sign = 1.0 if better == "higher" else -1.0
    return sign * (c - p) < -bound * abs(p)


def bound_verdict(p: dict, c: dict, better: str, bound: float) -> str:
    """``worse`` past the bound; inside it, ``unresolved`` when the
    parent's q3 - q1 is wider than ``bound`` times its median and some
    change run does not read better than every parent run; else ``ok``.
    """
    if past_bound(p["median"], c["median"], better, bound):
        return "worse"
    sign = 1.0 if better == "higher" else -1.0
    beats_all = (min(sign * v for v in c["values"])
                 > max(sign * v for v in p["values"]))
    wide = p["q3"] - p["q1"] > bound * abs(p["median"])
    return "unresolved" if wide and not beats_all else "ok"


def comparison(parent: dict, change: dict, directions: dict) -> list:
    """(workload, metric, parent median, change median, pairs won, pairs,
    claim rule met), with None for the pairs won and the claim where the
    metric has no direction.  The unpaced metrics follow the paced ones
    as ``unpaced.<name>``."""
    rows = []
    for name, before in parent["workloads"].items():
        after = change["workloads"][name]
        for group, prefix in (("metrics", ""), ("unpaced", "unpaced.")):
            for key, p in before[group].items():
                c = after[group][key]
                better = directions.get(key)
                won = (None if better is None
                       else pairs_won(p["values"], c["values"], better))
                claim = (None if better is None
                         else claim_holds(p, c, better, won))
                rows.append((name, prefix + key, p["median"], c["median"],
                             won, len(p["values"]), claim))
    return rows


def summary(parent: dict, change: dict, bench: dict,
            aa: bool = False) -> list:
    """The printed table, one line per row: per workload, its
    ``attempted`` row, then its :func:`comparison` rows, each with its
    bound verdict.  With ``aa`` (the change is a copy of the parent) a
    last line counts the claims met and the ``worse`` verdicts, each a
    false reading."""
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    wp, wc = (max(14, len(r["tag"]) + 2) for r in (parent, change))

    def line(name, key, p, c, won, claim, verdict):
        return (f"{name:<18}{key:<26}{p:>{wp}.6g}{c:>{wc}.6g}  {won:<7}"
                f"{claim:<7}{verdict}")

    lines = [f"{'workload':<18}{'metric':<26}{parent['tag']:>{wp}}"
             f"{change['tag']:>{wc}}  won    claim  bound"]
    rows = comparison(parent, change, directions)
    verdicts = []
    for name, before in parent["workloads"].items():
        lines.append(line(
            name, "attempted", statistics.median(before["attempted"]),
            statistics.median(change["workloads"][name]["attempted"]),
            "-", "-", "-"))
        for _, key, p, c, won, n, claim in (r for r in rows
                                            if r[0] == name):
            bound = bounds.get(key)
            verdict = "-" if bound is None else bound_verdict(
                before["metrics"][key],
                change["workloads"][name]["metrics"][key], directions[key],
                bound)
            verdicts.append(verdict)
            lines.append(line(
                name, key, p, c, "-" if won is None else f"{won}/{n}",
                "-" if claim is None else ("yes" if claim else "no"),
                verdict))
    if aa:
        claims = [row[6] for row in rows if row[6] is not None]
        bounded = [v for v in verdicts if v != "-"]
        lines.append(f"A/A: claim met on {sum(claims)} of {len(claims)} "
                     f"metrics, bound worse on {bounded.count('worse')} of "
                     f"{len(bounded)}; each is a false reading")
    return lines


def aa_copy(tree: Path, dest: Path) -> Path:
    """A byte-identical copy of ``tree`` at ``dest``, which must not
    exist: every file, ``.git`` and byte-code caches included, with its
    modification time (so cached byte code stays valid), and symlinks
    kept as links."""
    shutil.copytree(tree, dest, symlinks=True)
    return dest


def _run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = ["python3", str(tree / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=10 * seconds + 300)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           f"{done.stderr}")
    return parse_run(done.stdout)


#: the two directories the trees take turns in, names of equal length
SLOTS = ("a", "b")


def run_pairs(sources: dict, workloads: list, seeds: list, seconds: float,
              work: Path, run=_run) -> dict:
    """Run each workload on both trees once per seed; ``{side: {workload:
    parsed runs}}``, each run with the ``dir`` (a slot of SLOTS) it ran in.

    ``sources`` maps "parent" and "change" to the trees to copy; the
    copies go to ``work``/<slot>/tree, the parent's to slot ``a``.
    Between pairs the two slots swap their trees (by renaming, so every
    copy keeps its bytes and times), and the side that runs first
    alternates: pair i runs the parent in slot ``SLOTS[i % 2]``.
    ``run(tree, workload, seed, seconds)`` makes one parsed run.
    """
    for side, slot in zip(("parent", "change"), SLOTS):
        aa_copy(sources[side], work / slot / "tree")
    runs = {side: {w: [] for w in workloads} for side in sources}
    for i, seed in enumerate(seeds):
        if i > 0:  # the slots trade trees
            a, b = (work / slot for slot in SLOTS)
            a.rename(work / "swap")
            b.rename(a)
            (work / "swap").rename(b)
        slot_of = {"parent": SLOTS[i % 2], "change": SLOTS[1 - i % 2]}
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for side in order:
                parsed = run(work / slot_of[side] / "tree", w, seed, seconds)
                runs[side][w].append({**parsed, "dir": slot_of[side]})
                print(f"pair {i + 1}/{len(seeds)} {w} {side} done",
                      file=sys.stderr, flush=True)
    return runs


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--parent-tag", required=True)
    ap.add_argument("--change", type=Path)
    ap.add_argument("--change-tag")
    ap.add_argument("--aa", action="store_true",
                    help="run the parent against a byte-identical copy of "
                    "itself instead of --change")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out", type=Path, default=ROOT)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    if args.aa == (args.change is not None):
        ap.error("give exactly one of --change and --aa")
    change_tag = args.change_tag or (f"{args.parent_tag}-aa" if args.aa
                                     else None)
    if change_tag is None:
        ap.error("--change needs --change-tag")
    seconds = bench["run_seconds"]
    parent = args.parent.resolve()
    workloads = args.workload or names
    seeds = [args.seed + i for i in range(args.pairs)]
    with tempfile.TemporaryDirectory(prefix="bench-pairs-",
                                     dir=parent.parent) as tmp:
        runs = run_pairs({"parent": parent,
                          "change": parent if args.aa
                          else args.change.resolve()},
                         workloads, seeds, seconds, Path(tmp))
    records = {side: bench_record(tag, seeds, runs[side]) for side, tag in
               (("parent", args.parent_tag), ("change", change_tag))}
    for record in records.values():
        path = args.out / f"BENCH_{record['tag']}.json"
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
    print("\n".join(summary(records["parent"], records["change"], bench,
                            aa=args.aa)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
