"""The BENCH pair script's aggregation, on canned run output: parsing a
run, the per-metric spread, the BENCH record and the pairs won.  No
benchmark run is started."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bp = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bp)


def _stdout(seed, ops, p90, failed=0, commit="abc"):
    """What ``perfbench/run.py --trace 0`` prints, trimmed."""
    prov = {"seed": seed, "git_commit": commit, "nproc": 2}
    final = {"correct": failed == 0, "attempted": 100, "failed": failed,
             "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                         "op_ms_p90": {"value": p90, "unit": "ms"}}}
    return "\n".join([
        "provenance " + json.dumps(prov),
        'unpaced {"op_ms_p50": 1.0}',
        "csv_digest_first_cycle None",
        "known defect: 1 op(s) refused: budget",
        json.dumps(final), ""])


def test_parse_run_keeps_provenance_and_final_line():
    run = bp.parse_run(_stdout(3, 10.0, 2.0, failed=1))
    assert run["provenance"] == {"seed": 3, "git_commit": "abc", "nproc": 2}
    assert run["result"]["failed"] == 1
    assert run["result"]["metrics"]["ops_per_s"]["value"] == 10.0
    with pytest.raises(ValueError):
        bp.parse_run("csv_digest_first_cycle None\n")


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
    parent = bp.bench_record("before", seeds, {"w": [
        bp.parse_run(_stdout(s, o, p)) for s, o, p in
        zip(seeds, parent_ops, parent_p90)]})
    change = bp.bench_record("after", seeds, {"w": [
        bp.parse_run(_stdout(s, o, p, failed=int(s == 2), commit="def"))
        for s, o, p in zip(seeds, change_ops, change_p90)]})
    assert parent["tag"] == "before" and parent["seeds"] == seeds
    # the seed is listed once, not kept per provenance record
    assert parent["provenance"] == [{"git_commit": "abc", "nproc": 2}]
    w = change["workloads"]["w"]
    assert w["failed"] == [0, 1, 0, 0, 0]
    assert w["attempted"] == [100] * 5
    assert w["metrics"]["ops_per_s"] == {
        "unit": "1/s", "values": change_ops, "median": 11.5,
        "q1": 11.0, "q3": 13.5}
    json.dumps(change)  # the record is what the BENCH file holds
    rows = bp.comparison(parent, change, {"ops_per_s": "higher",
                                          "op_ms_p90": "lower"})
    # higher is better: pairs 1, 4 and 5 won, the tie counts for neither
    # side; lower is better: pairs 1, 3 and 4 won, the last one tied
    assert rows == [("w", "ops_per_s", 12.0, 11.5, 3, 5),
                    ("w", "op_ms_p90", 2.0, 1.0, 3, 5)]
    rows = bp.comparison(parent, change, {})
    assert [won for *_, won, _ in rows] == [None, None]
