"""bureslab benchmark: one workload, one closed loop, one JSON line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tomo-measured --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced pass.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; lines before it carry provenance and the known-defect log.
See README.md in this directory for every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: one BLAS thread: the loop has one client, and idle BLAS threads only
#: add scheduling noise on 8x8 to 64x64 matrices
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: the p90 latency needs at least ten ops beyond it
MIN_OPS = 100
#: fresh-process set-ups per untraced run; setup_s is their median
SETUP_REPEATS = 5
#: pace-kernel runs after each set-up probe
PROBE_PACES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "copies_per_op": "copies",
    "guarantee_rate": "share",
    "peak_rss_mb": "MB",
}

LIB_MODULES = ("measurement", "frobenius", "classical", "pipeline",
               "divergences", "linalg", "mitest", "harness", "cli")


def pin_environment() -> dict:
    """Force one BLAS thread and one harness worker; returns the old values."""
    names = THREAD_VARS + ("BURESLAB_WORKERS",)
    before = {k: os.environ.get(k) for k in names}
    for k in THREAD_VARS:
        os.environ[k] = "1"
    os.environ["BURESLAB_WORKERS"] = "1"
    return before


def load_library() -> SimpleNamespace:
    """Import bureslab from the checkout's ``src`` directory."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import importlib
    return SimpleNamespace(**{m: importlib.import_module(f"bureslab.{m}")
                              for m in LIB_MODULES})


def provenance(seed: int, env_before: dict) -> dict:
    import contextlib
    import io

    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = io.StringIO()
    with contextlib.redirect_stdout(blas):
        np.show_config()
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.getvalue(), "git_commit": git_commit(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "env_before_pinning": env_before, "workers": 1, "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

def drive(workload, seconds: float, min_ops: int, tracer=None) -> dict:
    """Run ops 0, 1, ... until ``seconds`` have passed, ``min_ops`` ran
    and the last cycle of op kinds is complete, so that every run has
    the workload's exact mix.

    Input building, output checks and the pace kernel run between ops
    and are not timed; each op's latency covers the library call alone.
    ``scale`` holds, per op, REF_S over the mean pace-kernel time just
    before and just after it (see pace.py).
    """
    import pace
    latencies, outcomes, counts, window = [], [], [], []
    kernel = pace.Pace(workload.pace_kernel)
    paced = [kernel.sample()]
    last_pace = time.perf_counter()
    deadline = last_pace + seconds
    i = 0
    cycle = len(workload.cycle)
    while i < min_ops or time.perf_counter() < deadline or i % cycle:
        if time.perf_counter() - last_pace >= pace.EVERY_S:
            paced.append(kernel.sample())
            last_pace = time.perf_counter()
        window.append(len(paced) - 1)
        op = workload.prepare(i)
        if tracer is not None:
            tracer.begin_op(i)
        exc = result = None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as caught:  # the op boundary: record, keep going
            exc = caught
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            counts.append(tracer.end_op())
        outcomes.append(workload.judge(op, result, exc))
        i += 1
    paced.append(kernel.sample())
    scale = [2.0 * pace.REF_S / (paced[k] + paced[k + 1]) for k in window]
    return {"latencies": latencies, "scale": scale, "outcomes": outcomes,
            "counts": counts, "cycle": cycle,
            "pace_s": statistics.median(paced)}


def _summary(run: dict) -> dict:
    outcomes = run["outcomes"]
    refusals, failures = {}, []
    for o in outcomes:
        if o.refusal:
            refusals[o.refusal] = refusals.get(o.refusal, 0) + 1
        if o.failure:
            failures.append(o.failure)
    rows = [row for o in outcomes[:run["cycle"]] if o.csv_rows
            for row in o.csv_rows]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest() \
        if rows else None
    return {"refusals": refusals, "failures": failures,
            "csv_digest_first_cycle": digest}


def _paced_ms(run: dict) -> list:
    return [1e3 * t * f for t, f in zip(run["latencies"], run["scale"])]


def end_to_end(run: dict, setup_s: float) -> dict:
    lat_ms = sorted(_paced_ms(run))
    outcomes = run["outcomes"]
    finished = [o.copies for o in outcomes if o.copies is not None]
    log_copies = [math.log1p(c) for c in finished]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(lat_ms) / (1e-3 * sum(lat_ms)),
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": statistics.quantiles(lat_ms, n=10)[-1],
        # the +1 keeps copy-free ops (divergence-chain) at 1, not 0
        "copies_per_op": math.exp(statistics.fmean(log_copies))
        if log_copies else 1.0,
        "guarantee_rate": sum(o.held for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def measure_setup(name: str, seed: int, repeats: int) -> float:
    """Median over fresh processes of import, inputs and one warm-up op."""
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def setup_probe(name: str, seed: int, started: float) -> float:
    """Set-up time of this fresh process, scaled to reference speed by
    the pace kernel run right after it."""
    lib = load_library()
    import pace
    import workloads
    wl = workloads.make(name, seed, lib)
    op = wl.prepare(0)
    wl.judge(op, op.call(), None)
    setup_s = time.perf_counter() - started
    kernel = pace.Pace(wl.pace_kernel)
    paced = statistics.median(kernel.sample() for _ in range(PROBE_PACES))
    return setup_s * pace.REF_S / paced


def run_untraced(name: str, seed: int, seconds: float,
                 min_ops: int = MIN_OPS,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    import workloads
    setup_s = measure_setup(name, seed, setup_repeats)
    lib = load_library()
    wl = workloads.make(name, seed, lib)
    warm = wl.prepare(0)
    wl.judge(warm, warm.call(), None)
    run = drive(wl, seconds, min_ops)
    raw_ms = [1e3 * t for t in run["latencies"]]
    unpaced = {"op_ms_p50": statistics.median(raw_ms),
               "ops_per_s": len(raw_ms) / (1e-3 * sum(raw_ms)),
               "pace_kernel_ms": 1e3 * run["pace_s"]}
    return {"run": run, "metrics": end_to_end(run, setup_s),
            "unpaced": unpaced, **_summary(run)}


def run_traced(name: str, seed: int, seconds: float,
               write_spans: bool = True, prov: dict | None = None) -> dict:
    """Untraced pass, traced pass, then a traced repeat of the first cycle.

    The untraced pass runs for half of ``seconds``; the traced pass runs
    the same ops again, so the two rates differ by tracing overhead and
    noise alone.  The repeat must reproduce every count exactly.
    """
    import numpy as np

    import tracing
    import workloads
    lib = load_library()
    wl = workloads.make(name, seed, lib)
    warm = wl.prepare(0)
    wl.judge(warm, warm.call(), None)
    plain = drive(wl, seconds / 2, len(wl.cycle))
    tracer = tracing.Tracer(lib)
    tracer.install()
    try:
        traced = drive(wl, 0.0, len(plain["latencies"]), tracer)
        pass_spans = len(tracer.span_id)
        repeat = drive(wl, 0.0, len(wl.cycle), tracer)
    finally:
        tracer.uninstall()
    mismatched = [i for i, c in enumerate(repeat["counts"])
                  if c != traced["counts"][i]]

    n = len(traced["latencies"])
    # spans sort by start, so the traced pass is a prefix; the repeat's
    # spans are written out but not averaged
    spans = tracer.arrays()
    spans_pass = {k: v[:pass_spans] for k, v in spans.items()}
    self_ms = tracer.self_ms(spans_pass,
                             np.asarray(traced["scale"])[spans_pass["op"]])
    totals = {}
    for c in traced["counts"]:
        for k, v in c.items():
            totals[k] = totals.get(k, 0) + v
    values = {}
    for label in tracing.per_layer_units():
        values[label] = 0.0
    for label in tracer.names:
        values[f"{label}.calls"] = totals.get(f"{label}.calls", 0) / n
        if label.startswith("kernel."):
            values[f"{label}.ms"] = self_ms[label] / n
        else:
            values[f"{label}.self_ms"] = self_ms[label] / n
    for key in ("measurement.copies_sampled", "measurement.copies_filtered",
                "pipeline.planned_copies", "mitest.pearson_null_draws"):
        values[key] = totals.get(key, 0) / n
    runs = totals.get("pipeline.staged_learn.calls", 0)
    if runs:
        values["pipeline.stages_per_run"] = totals["pipeline.stages"] / runs
        values["pipeline.forced_stop_share"] = \
            totals["pipeline.forced_stops"] / runs
    values["bench.refused_share"] = \
        sum(bool(o.refusal) for o in traced["outcomes"]) / n
    plain_rate = n / sum(_paced_ms(plain))
    traced_rate = n / sum(_paced_ms(traced))
    values["trace.overhead_share"] = (plain_rate - traced_rate) / plain_rate

    units = tracing.per_layer_units()
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    if write_spans:
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.npz", prov or {})
    return {"run": traced, "metrics": metrics, "mismatched": mismatched,
            **_summary(traced)}


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def parse_args(argv):
    import workloads
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.perf_counter()
    env_before = pin_environment()
    sys.path.insert(0, str(HERE))
    args = parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.workload, args.seed, started)))
        return 0
    try:
        load_library()
    except ImportError as exc:
        print(f"error: cannot import bureslab from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    prov = provenance(args.seed, env_before)
    print("provenance " + json.dumps(prov, sort_keys=True))
    if args.trace:
        out = run_traced(args.workload, args.seed, args.seconds, prov=prov)
    else:
        out = run_untraced(args.workload, args.seed, args.seconds)
    if "unpaced" in out:
        print("unpaced " + json.dumps(out["unpaced"]))
    print("csv_digest_first_cycle " + str(out["csv_digest_first_cycle"]))
    for text, count in sorted(out["refusals"].items()):
        print(f"known defect: {count} op(s) refused: {text}")
    for text in out["failures"]:
        print("FAILED: " + text.replace("\n", "\n    "), file=sys.stderr)
    if out.get("mismatched"):
        print(f"FAILED: counts of ops {out['mismatched']} differ between "
              "two traced runs", file=sys.stderr)
    print(json.dumps({
        "correct": not out["failures"] and not out.get("mismatched"),
        "attempted": len(out["run"]["outcomes"]),
        "failed": len(out["failures"]),
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
