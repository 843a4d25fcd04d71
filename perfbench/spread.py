"""Run-to-run spread of the end-to-end metrics, and the tracing overhead.

    python3 perfbench/spread.py --runs 10 --seconds 20 [--workload W ...]
                                [--first-seed 1] [--out FILE]
    python3 perfbench/spread.py --overhead 5 [--workload W ...]

Runs perfbench/run.py once per seed (first-seed, first-seed + 1, ...) on
each workload, one run at a time, and prints for every metric the median,
the quartiles and the spread: the distance between the quartiles as a
share of the median (statistics.quantiles(values, n=4)).  It also prints
the share of failed cases, which must be the same in every run.  --out
writes every run's result as JSON.

--overhead N runs N pairs of single passes, one untraced and one traced,
alternating, and prints the median over pairs of the traced time of the
completed cases over the untraced one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def spread(values):
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def overhead(workload: str, pairs: int) -> float:
    corpus = run.load_corpus(workload)
    job = {"workload": workload, "limit": run.LIMIT_S,
           "warmup": corpus["warmup"],
           "cases": [{"id": c["id"], "input": c["input"]}
                     for c in corpus["cases"]]}
    ratios = []
    for _ in range(pairs):
        took = [sum(c["seconds"] for c in run.run_worker(
            dict(job, trace=trace))["cases"] if c["status"] == "ok")
            for trace in (False, True)]
        ratios.append(took[1] / took[0])
    return statistics.median(ratios)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--overhead", type=int, metavar="N")
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.overhead:
        for w in args.workload or run.WORKLOADS:
            print(f"{w}: traced / untraced time "
                  f"{overhead(w, args.overhead):.3f}")
        return
    results = {}
    for w in args.workload or run.WORKLOADS:
        rows = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=True,
                cwd=os.path.dirname(HERE))
            rows.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        results[w] = rows
        shares = {(r["failed"], r["attempted"]) for r in rows}
        print(f"{w}: correct {all(r['correct'] for r in rows)}, "
              f"failed/attempted {sorted(shares)}")
        for name in rows[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in rows]
            med, q1, q3, s = spread(vals)
            print(f"  {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {s:.4f}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
