"""How far the printed numbers are from exact: the gap counts of the
corpus ledgers, the p-adic split sweep and the TFAE septics.

Each count is one kind of number that the system prints as a bound, as
sampled, or without a certificate:

- ge_rows: hyper-ledger rows whose I is printed as a lower bound (">=n"),
  read off the pinned outputs in corpus_outputs.json;
- ell_hi_none / ell_exact: ell-ledger ledgers with no upper bound on the
  Selmer rank, and those with lo = hi, off the same outputs;
- hyper_hi_none: hyper-ledger ledgers with no upper bound, from
  assemble_ledger_hyper on the 28 corpus curves (the pinned outputs hold
  no hyper-ledger interval);
- unresolved_splittings: the pairs of sweep_pairs(1) on which
  local_splitting_type raises UnresolvedSplitting;
- sampled_septics: the reducible septics with an irreducible factor of
  degree 5 or 6 whose TFAE verdict is marked sampled;
- uncertified_bad_primes: the bad primes of the corpus ledgers above
  3.3 * 10^24, where is_prime's Miller-Rabin is no proof.

One more number may only rise: the sum of lo over the ell-ledger ledgers
(ell_lo_sum) and over the hyper-ledger ledgers (hyper_lo_sum).

    PYTHONPATH=src python tests/gap_counts.py

prints them as JSON, from the root of the repository.
"""

import json
import math
import os
import random
import sys

from qdescent.poly import (RatPoly, UnresolvedSplitting, discriminant,
                           factor_over_Z, local_splitting_type, parse_poly)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# is_prime is a proof below this (arith.is_prime's witness set)
MR_PROOF_BOUND = 33 * 10 ** 23
# reducible septics, as their factors: 1+6 with the sextic's group S3
# acting regularly, and 1+1+5 with the quintic's group C5, then S5
SEPTICS = (("X", "X^6-6*X^4+9*X^2+23"),
           ("X", "X-1", "X^5+X^4-4*X^3-3*X^2+3*X+1"),
           ("X", "X-1", "X^5-X-1"))


def sweep_pairs(stride):
    """Every stride-th draw of a seeded family, at p = 2, 3, 5, 7:
    random.Random(8) draws 600 monic polynomials of each degree 3, 5 and 7
    with the other coefficients in -12..12, and those with discriminant 0
    are dropped (7176 pairs in all at stride 1).  Yields (f, disc f, p)."""
    rng = random.Random(8)
    polys = []
    for d in (3, 5, 7):
        for i in range(600):
            f = RatPoly([rng.randint(-12, 12) for _ in range(d)] + [1])
            disc = discriminant(f) if i % stride == 0 else 0
            if disc:
                polys.append((f, disc))
    return [(f, disc, p) for f, disc in polys for p in (2, 3, 5, 7)]


def _corpus(workload):
    with open(os.path.join(ROOT, "perfbench", "corpus",
                           f"{workload}.json")) as fh:
        return json.load(fh)["cases"]


def _pinned():
    with open(os.path.join(ROOT, "tests", "corpus_outputs.json")) as fh:
        return json.load(fh)


def corpus_counts() -> dict:
    """The counts read off the pinned corpus outputs."""
    out = _pinned()
    ell = [case["interval"] for case in out["ell-ledger"].values()]
    rows = [row for case in out["hyper-ledger"].values()
            for row in case["reports"]]
    places = {int(row[0]) for workload in ("ell-ledger", "hyper-ledger")
              for case in out[workload].values()
              for row in case["reports"] + case.get("iso", [])
              if row[0] != "oo"}
    return {
        "ge_rows": sum(str(row[3]).startswith(">=") for row in rows),
        "rows": len(rows),
        "ell_hi_none": sum(hi is None for _, hi in ell),
        "ell_exact": sum(lo == hi for lo, hi in ell),
        "ell_ledgers": len(ell),
        "ell_lo_sum": sum(lo for lo, _ in ell),
        "uncertified_bad_primes": sum(p > MR_PROOF_BOUND for p in places),
    }


def hyper_counts() -> dict:
    """hi = None and the sum of lo over the hyper-ledger ledgers."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import worker
    from qdescent.descent_global import assemble_ledger_hyper

    intervals = []
    for c in _corpus("hyper-ledger"):
        case = worker.Hyper(c["input"])
        ledger = assemble_ledger_hyper(case.curve, points=case.points)
        intervals.append(ledger.selmer_rank_interval)
    return {"hyper_hi_none": sum(hi is None for _, hi in intervals),
            "hyper_ledgers": len(intervals),
            "hyper_lo_sum": sum(lo for lo, _ in intervals)}


def sweep_counts() -> dict:
    """The pairs of sweep_pairs(1) that local_splitting_type leaves
    unresolved, of all of them."""
    pairs, unresolved = sweep_pairs(1), 0
    for f, _, p in pairs:
        try:
            local_splitting_type(factor_over_Z(f), p)
        except UnresolvedSplitting:
            unresolved += 1
    return {"unresolved_splittings": unresolved, "sweep_pairs": len(pairs)}


def sampled_septics() -> int:
    from qdescent.tfae import tfae_test

    return sum(tfae_test(math.prod(map(parse_poly, factors))).certificate
               == "sampled" for factors in SEPTICS)


def gap_counts() -> dict:
    return {**corpus_counts(), **hyper_counts(), **sweep_counts(),
            "sampled_septics": sampled_septics()}


if __name__ == "__main__":
    json.dump(gap_counts(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
