"""The BENCH pair script's aggregation, on canned run output: parsing a
run, the per-metric spread, the BENCH record, the pairs won, the claim
rule, the bound check and the printed summary.  No benchmark run is
started."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bp)


def _stdout(seed, ops, p90, failed=0, commit="abc", raw=(1.0, 100.0),
            attempted=100):
    """What ``perfbench/run.py --trace 0`` prints, trimmed; ``raw`` is
    the unpaced ``op_ms_p50`` and ``ops_per_s``."""
    prov = {"seed": seed, "git_commit": commit, "nproc": 2}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                         "op_ms_p90": {"value": p90, "unit": "ms"}}}
    unpaced = {"op_ms_p50": raw[0], "ops_per_s": raw[1],
               "pace_kernel_ms": 2.0}
    return "\n".join([
        "provenance " + json.dumps(prov),
        "unpaced " + json.dumps(unpaced),
        "csv_digest_first_cycle None",
        "known defect: 1 op(s) refused: budget",
        json.dumps(final), ""])


def test_parse_run_keeps_provenance_and_final_line():
    run = bp.parse_run(_stdout(3, 10.0, 2.0, failed=1))
    assert run["provenance"] == {"seed": 3, "git_commit": "abc", "nproc": 2}
    assert run["result"]["failed"] == 1
    assert run["result"]["metrics"]["ops_per_s"]["value"] == 10.0
    assert run["unpaced"] == {"op_ms_p50": 1.0, "ops_per_s": 100.0,
                              "pace_kernel_ms": 2.0}
    with pytest.raises(ValueError):
        bp.parse_run("csv_digest_first_cycle None\n")
    # a run whose unpaced line is missing is refused too
    with pytest.raises(ValueError):
        bp.parse_run("\n".join(line for line in
                               _stdout(3, 10.0, 2.0).splitlines()
                               if not line.startswith("unpaced ")))


def test_spread_is_median_and_inclusive_quartiles():
    assert bp.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == {
        "values": [5.0, 1.0, 3.0, 2.0, 4.0], "median": 3.0,
        "q1": 2.0, "q3": 4.0}
    assert bp.spread([7.0]) == {"values": [7.0], "median": 7.0,
                                "q1": 7.0, "q3": 7.0}


def test_bench_record_and_comparison():
    seeds = [1, 2, 3, 4, 5]
    parent_ops, change_ops = [10.0, 11.0, 12.0, 13.0, 14.0], \
        [10.5, 11.0, 11.5, 13.5, 15.0]
    parent_p90, change_p90 = [2.0, 2.0, 2.0, 2.0, 2.0], \
        [1.0, 3.0, 1.0, 1.0, 2.0]
    # unpaced (op_ms_p50, ops_per_s): the change wins every pair of
    # both, but only its p50 moves by more than the parent's q3 - q1
    parent_raw = [(1.0, 100.0), (1.1, 110.0), (1.2, 120.0), (1.3, 130.0),
                  (1.4, 140.0)]
    change_raw = [(0.8, 101.0), (0.9, 111.0), (0.85, 121.0),
                  (0.95, 131.0), (1.0, 141.0)]
    parent = bp.bench_record("before", seeds, {"w": [
        bp.parse_run(_stdout(s, o, p, raw=raw)) for s, o, p, raw in
        zip(seeds, parent_ops, parent_p90, parent_raw)]})
    change = bp.bench_record("after", seeds, {"w": [
        bp.parse_run(_stdout(s, o, p, failed=int(s == 2), commit="def",
                             raw=raw))
        for s, o, p, raw in zip(seeds, change_ops, change_p90,
                                change_raw)]})
    assert parent["tag"] == "before" and parent["seeds"] == seeds
    # the seed is listed once, not kept per provenance record
    assert parent["provenance"] == [{"git_commit": "abc", "nproc": 2}]
    w = change["workloads"]["w"]
    assert w["failed"] == [0, 1, 0, 0, 0]
    assert w["attempted"] == [100] * 5
    assert w["metrics"]["ops_per_s"] == {
        "unit": "1/s", "values": change_ops, "median": 11.5,
        "q1": 11.0, "q3": 13.5}
    assert w["unpaced"]["op_ms_p50"] == {
        "unit": "ms", "values": [0.8, 0.9, 0.85, 0.95, 1.0],
        "median": 0.9, "q1": 0.85, "q3": 0.95}
    assert w["unpaced"]["pace_kernel_ms"]["values"] == [2.0] * 5
    json.dumps(change)  # the record is what the BENCH file holds
    rows = bp.comparison(parent, change, {"ops_per_s": "higher",
                                          "op_ms_p90": "lower",
                                          "op_ms_p50": "lower"})
    # higher is better: pairs 1, 4 and 5 won, the tie counts for neither
    # side; lower is better: pairs 1, 3 and 4 won, the last one tied;
    # 3 of 5 meets no claim.  The unpaced p50 wins 5/5 and its median
    # moves by 0.3 past the parent's q3 - q1 of 0.2, but 5 pairs are
    # too few for any claim; the unpaced rate wins 5/5 but moves by 1
    # inside the parent's 20; the pace kernel has no direction
    assert rows == [
        ("w", "ops_per_s", 12.0, 11.5, 3, 5, False),
        ("w", "op_ms_p90", 2.0, 1.0, 3, 5, False),
        ("w", "unpaced.op_ms_p50", 1.2, 0.9, 5, 5, False),
        ("w", "unpaced.ops_per_s", 120.0, 121.0, 5, 5, False),
        ("w", "unpaced.pace_kernel_ms", 2.0, 2.0, None, 5, None)]
    rows = bp.comparison(parent, change, {})
    assert [row[4:] for row in rows] == [(None, 5, None)] * 5


def test_claim_rule_needs_nine_in_ten_and_the_spread():
    """9 of 10 pairs won and a median past the parent's q3 - q1 meets
    the rule; 8 of 10, a move inside the spread, or fewer than 10
    pairs, all won, does not."""
    parent = bp.spread([10.0] * 5 + [12.0] * 5)   # q3 - q1 = 2
    better = bp.spread([7.0] * 10)
    assert bp.claim_holds(parent, better, "lower", 9)
    assert not bp.claim_holds(parent, better, "lower", 8)
    assert not bp.claim_holds(bp.spread([10.0] * 4 + [12.0] * 5),
                              bp.spread([7.0] * 9), "lower", 9)
    assert not bp.claim_holds(parent, bp.spread([9.5] * 10), "lower", 10)
    # the median must move in the better direction
    assert not bp.claim_holds(parent, better, "higher", 10)


def test_past_bound_is_a_fraction_of_the_parent_median():
    """Worse by more than the bound is past it; worse by exactly the
    bound, or better, is not."""
    assert bp.past_bound(10.0, 7.9, "higher", 0.2)
    assert not bp.past_bound(10.0, 8.0, "higher", 0.2)
    assert not bp.past_bound(10.0, 12.0, "higher", 0.2)
    assert bp.past_bound(2.0, 2.5, "lower", 0.2)
    assert not bp.past_bound(2.0, 2.4, "lower", 0.2)
    assert not bp.past_bound(2.0, 1.0, "lower", 0.2)


def test_bound_verdict_is_unresolved_inside_a_wide_parent_spread():
    """A parent whose q3 - q1 is wider than the bound reads
    ``unresolved``, unless every change run beats every parent run; a
    median past the bound reads ``worse`` whatever the spread."""
    wide = bp.spread([8.0, 9.0, 10.0, 11.0, 12.0])   # q3 - q1 = 2 > 1
    narrow = bp.spread([9.8, 9.9, 10.0, 10.1, 10.2])
    assert bp.bound_verdict(wide, bp.spread([9.5] * 5), "higher", 0.1) \
        == "unresolved"
    assert bp.bound_verdict(narrow, bp.spread([9.5] * 5), "higher",
                            0.1) == "ok"
    assert bp.bound_verdict(wide, bp.spread([12.5] * 5), "higher",
                            0.1) == "ok"
    assert bp.bound_verdict(wide, bp.spread([7.5] * 5), "lower", 0.1) \
        == "ok"
    # one change run ties the best parent run: not every run beats it
    assert bp.bound_verdict(wide, bp.spread([12.5] * 4 + [12.0]),
                            "higher", 0.1) == "unresolved"
    assert bp.bound_verdict(wide, bp.spread([8.5] * 5), "higher", 0.1) \
        == "worse"
    assert bp.bound_verdict(narrow, bp.spread([11.5] * 5), "lower",
                            0.1) == "worse"


def test_summary_shows_attempted_ops_and_the_bound():
    """Each workload's first row is the median ops per run on each side;
    a bounded metric reads ``worse`` past its bound and ``ok`` inside
    it, and an unpaced metric has no bound (here the unpaced p50 has no
    direction either)."""
    seeds = [1, 2, 3]
    bench = {"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.2},
        {"name": "op_ms_p90", "better": "lower", "bound": 0.2}]}
    parent = bp.bench_record("before", seeds, {"w": [
        bp.parse_run(_stdout(s, 10.0, 2.0, attempted=a))
        for s, a in zip(seeds, [100, 120, 110])]})
    change = bp.bench_record("after", seeds, {"w": [
        bp.parse_run(_stdout(s, 7.0, 2.1, attempted=a))
        for s, a in zip(seeds, [130, 150, 140])]})
    header, *rows = bp.summary(parent, change, bench)
    assert header.split() == ["workload", "metric", "before", "after",
                              "won", "claim", "bound"]
    assert [row.split() for row in rows] == [
        ["w", "attempted", "110", "140", "-", "-", "-"],
        ["w", "ops_per_s", "10", "7", "0/3", "no", "worse"],
        ["w", "op_ms_p90", "2", "2.1", "0/3", "no", "ok"],
        ["w", "unpaced.op_ms_p50", "1", "1", "-", "-", "-"],
        ["w", "unpaced.ops_per_s", "100", "100", "0/3", "no", "-"],
        ["w", "unpaced.pace_kernel_ms", "2", "2", "-", "-", "-"]]


def test_aa_copy_is_byte_identical_in_a_second_directory(tmp_path):
    """The copy holds every file of the tree, hidden ones and caches
    included, with the same bytes and modification times; a link stays
    a link; and an existing destination is refused."""
    tree = tmp_path / "tree"
    (tree / ".git" / "refs").mkdir(parents=True)
    (tree / ".git" / "HEAD").write_text("ref: refs/heads/main\n")
    (tree / "src" / "__pycache__").mkdir(parents=True)
    (tree / "src" / "mod.py").write_text("x = 1\n")
    (tree / "src" / "__pycache__" / "mod.pyc").write_bytes(b"\x00\x01\xff")
    (tree / "link").symlink_to("src/mod.py")
    copy = bp.aa_copy(tree, tmp_path / "aa" / "tree")
    assert copy == tmp_path / "aa" / "tree" and copy != tree

    def files(root):
        return sorted(p.relative_to(root) for p in root.rglob("*")
                      if p.is_file() and not p.is_symlink())

    assert files(copy) == files(tree) != []
    for rel in files(tree):
        assert (copy / rel).read_bytes() == (tree / rel).read_bytes()
        assert (copy / rel).stat().st_mtime_ns == \
            (tree / rel).stat().st_mtime_ns
    assert (copy / "link").is_symlink()
    with pytest.raises(FileExistsError):
        bp.aa_copy(tree, copy)


def test_aa_summary_counts_false_readings():
    """With ``aa`` the table ends with the claims met and the ``worse``
    bound verdicts among the metrics that have them; without it, the
    table is unchanged."""
    seeds = list(range(1, 11))
    bench = {"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.2},
        {"name": "op_ms_p90", "better": "lower", "bound": 0.2}]}
    parent = bp.bench_record("p", seeds, {"w": [
        bp.parse_run(_stdout(s, 10.0 + 0.01 * s, 2.0)) for s in seeds]})
    # the copy reads faster on every pair (a false claim on ops_per_s)
    # and its p90 is past the bound (a false ``worse``)
    copy = bp.bench_record("p-aa", seeds, {"w": [
        bp.parse_run(_stdout(s, 11.0 + 0.01 * s, 2.5)) for s in seeds]})
    lines = bp.summary(parent, copy, bench, aa=True)
    assert lines[:-1] == bp.summary(parent, copy, bench)
    assert [row.split()[1:] for row in lines[2:4]] == [
        ["ops_per_s", "10.055", "11.055", "10/10", "yes", "ok"],
        ["op_ms_p90", "2", "2.5", "0/10", "no", "worse"]]
    # the directed metrics: both paced ones and the unpaced rate
    assert lines[-1] == ("A/A: claim met on 1 of 3 metrics, bound worse "
                         "on 1 of 2; each is a false reading")


def test_trees_swap_directories_every_pair(tmp_path):
    """Both trees are copied to directories of equal path length, the
    parent's to ``a``; between pairs the directories trade trees, the
    side that runs first alternates, and each run records its
    directory.  So an offset that favours one directory wins 5 pairs in
    10 on byte-identical trees, and meets no claim."""
    sources = {}
    for side in ("parent", "change"):
        sources[side] = tmp_path / side
        (sources[side] / "perfbench").mkdir(parents=True)
        (sources[side] / "perfbench" / "run.py").write_text(f"# {side}\n")
    calls = []

    def run(tree, workload, seed, seconds):
        side = (tree / "perfbench" / "run.py").read_text()[2:-1]
        calls.append((tree.parent.name, side, workload, seed, len(str(tree))))
        # directory a reads 10% faster, whatever tree sits in it
        fast = tree.parent.name == "a"
        return bp.parse_run(_stdout(seed, 11.0 if fast else 10.0, 2.0))

    work = tmp_path / "work"
    seeds = list(range(1, 11))
    runs = bp.run_pairs(sources, ["w"], seeds, 1.0, work, run=run)
    assert len(calls) == 20 and len({c[4] for c in calls}) == 1
    for i, seed in enumerate(seeds):
        first, second = calls[2 * i:2 * i + 2]
        parent_dir = "ab"[i % 2]
        assert [c[1] for c in (first, second)] == (
            ["parent", "change"] if i % 2 == 0 else ["change", "parent"])
        assert {c[1]: c[0] for c in (first, second)} == {
            "parent": parent_dir, "change": "ba"[i % 2]}
        assert first[2:4] == second[2:4] == ("w", seed)
    # the tree each run read is the one that sat in its directory; after
    # nine swaps the change tree sits in ``a``
    assert (work / "a" / "tree" / "perfbench" / "run.py").read_text() \
        == "# change\n"
    records = {side: bp.bench_record(side, seeds, runs[side])
               for side in runs}
    assert records["parent"]["workloads"]["w"]["dirs"] == ["a", "b"] * 5
    assert records["change"]["workloads"]["w"]["dirs"] == ["b", "a"] * 5
    bench = {"end_to_end": [
        {"name": "ops_per_s", "better": "higher", "bound": 0.2},
        {"name": "op_ms_p90", "better": "lower", "bound": 0.2}]}
    rows = bp.summary(records["parent"], records["change"], bench)
    assert rows[2].split()[1:] == ["ops_per_s", "10.5", "10.5", "5/10",
                                   "no", "ok"]
