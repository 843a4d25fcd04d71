"""Benchmark: rank ledgers and TFAE verdicts over fixed corpora.

    python3 perfbench/run.py --workload ell-ledger --seed 1 --seconds 20 \
        --trace 0

Run from the root of a checkout.  Each pass runs every case of the
workload's corpus (perfbench/corpus/<workload>.json) once, in a fresh
worker process (perfbench/worker.py), in an order drawn from --seed.
Passes repeat until --seconds have gone by; the last pass always runs to
its end, so every run attempts whole passes.  Every completed case's
output is checked (perfbench/checks.py).

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer counters of perfbench/layertrace.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402

WORKLOADS = ("ell-ledger", "hyper-ledger", "tfae")
# Per-case time limit, in reference seconds (see worker.py).  The slowest
# case that completes (Example II with 14 points, about 3 s) stays below
# half of it.
LIMIT_S = 6.0
# A worker that outlives this is killed and the run fails.
WORKER_TIMEOUT_S = 150.0
# Set-up is timed in every pass; runs with fewer passes add set-up-only
# workers until there are this many samples.
SETUP_SAMPLES = 15


def load_corpus(workload: str) -> dict:
    with open(os.path.join(HERE, "corpus", f"{workload}.json")) as fh:
        return json.load(fh)


def run_worker(job: dict) -> dict:
    """One pass in a fresh process; raises if the worker fails."""
    proc = subprocess.run(
        [sys.executable, "-B", os.path.join(HERE, "worker.py"), ROOT],
        input=json.dumps(job), capture_output=True, text=True,
        timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def pass_order(cases, seed: int, k: int):
    """The cases of pass k, shuffled by a generator drawn from the seed."""
    order = list(cases)
    random.Random(f"{seed}:{k}").shuffle(order)
    return order


def summarize(passes, setups) -> dict:
    """End-to-end metrics from the worker records of a run's passes and
    its set-up times.

    Times are in reference seconds (worker.py).  setup_s is the median
    set-up time.  case_p50_ms is the median time over every case
    attempted, failed ones included.  cases_per_s divides the cases
    completed by the time of all cases attempted, so time spent in failed
    cases, up to the limit, stays charged to the run.
    """
    times = [c["seconds"] for p in passes for c in p["cases"]]
    done = sum(c["status"] == "ok" for p in passes for c in p["cases"])
    return {
        "setup_s": (statistics.median(setups), "s"),
        "case_p50_ms": (1000 * statistics.median(times), "ms"),
        "cases_per_s": (done / sum(times), "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
    }


LAYER_UNITS = {"calls": "count", "self_s": "s", "distinct_ratio": "ratio",
               "max_digits": "digits"}


def summarize_layers(passes) -> dict:
    """Per-layer metrics of a traced run: counts from one pass (they must
    repeat exactly in every pass), the median self time over passes."""
    snaps = [p["layers"] for p in passes]
    out = {}
    for name in layertrace.metric_names():
        kind = name.rsplit(".", 1)[1]
        vals = [s[name] for s in snaps]
        if kind == "self_s":
            value = statistics.median(vals)
        else:
            if len(set(vals)) != 1:
                raise RuntimeError(f"{name} differs between passes: {vals}")
            value = vals[0]
        out[name] = (value, LAYER_UNITS.get(kind, "count"))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "qdescent")):
        print(f"no qdescent package under {ROOT}/src", file=sys.stderr)
        return 2
    corpus = load_corpus(args.workload)
    cases = corpus["cases"]
    kept = {c["id"] for c in cases if "kept_failure" in c["expect"]}
    job = {"workload": args.workload, "limit": LIMIT_S,
           "trace": bool(args.trace), "warmup": corpus["warmup"]}
    passes, errors = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < args.seconds:
        order = pass_order(cases, args.seed, len(passes))
        rec = run_worker(dict(job, cases=[{"id": c["id"], "input": c["input"]}
                                          for c in order]))
        passes.append(rec)
        statuses = {c["id"]: c for c in rec["cases"]}
        errors += checks.check_pass(args.workload, cases, statuses)
        errors += [f"{c['id']}: unexpected failure: {c['result']}"
                   for c in rec["cases"]
                   if c["status"] != "ok" and c["id"] not in kept]
    for e in dict.fromkeys(errors):
        print(f"check failed: {e}", file=sys.stderr)
    attempted = sum(len(p["cases"]) for p in passes)
    failed = sum(c["status"] != "ok" for p in passes for c in p["cases"])
    if args.trace:
        metrics = summarize_layers(passes)
    else:
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker(dict(job, cases=[]))["setup_s"])
        metrics = summarize(passes, setups)
    print(f"{args.workload}: {len(passes)} passes, {attempted} cases, "
          f"{failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
