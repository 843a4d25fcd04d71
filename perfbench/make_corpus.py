"""Rebuild every corpus from a seed: python3 perfbench/make_corpus.py --seed N

Writes perfbench/corpus/{ell-ledger,hyper-ledger,tfae}.json.  Each holds
the warm-up input, the cases (input and expected answers) and the seeded
draws left out, with the reason.  Nothing in those files is edited by hand.

The expected answers come from outside the code under test: sympy
(factorizations, rational roots, quintic Galois groups), a plain search
for rational points, the values printed in the paper, and, for I at odd
places, qdescent's halving oracle (a different method from the case
analysis the ledger uses), withheld where it contradicts the Tate-curve
count of checks.py.  The draws are screened by one worker pass, as
the benchmark runs them: a seeded draw that fails or hits the time limit
is left out.  The few inputs kept although they fail (Mestre's curve and
three quintics) do not depend on the seed.

Needs sympy; the benchmark itself does not.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction

import sympy
from sympy.polys.numberfields.galoisgroups import galois_group

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

X = sympy.Symbol("X")

MESTRE = "[0,2597055,357573631,-549082,-19608054]"

# I(Q_p) of the paper's worked examples, as test_i2_values_paper pins them
PAPER_I = [("[0,-26,0,135,-567]", 3, 2), ("[0,26,0,135,567]", 3, 4),
           ("[0,0,0,-529,12167]", 23, 1), ("[0,0,0,-529,-12167]", 23, 2),
           ("[0,1,0,4,12]", 2, 4), ("[0,0,0,-25,0]", 5, 1),
           ("[0,0,0,-75,125]", 5, 1)]

# Example II (the Lehmer quintic for n = 4): local Selmer orders 2^rank at
# 2, oo, 191 and 941, as in the paper and tests/test_jacobian.py
EXAMPLE_II_SELMER = {"2": 4, "oo": 4, "191": 16, "941": 1}

# hyperelliptic inputs kept although they fail, one per fault
KEPT_QUINTICS = [
    ("rep-nonlinear-mod-2", [4, 1, 4, 9, -6, 1], [],
     "UnresolvedSplitting: repeated non-linear factor mod 2"),
    ("newton-precision-2", [12, -12, 10, 2, -4, 1], [],
     "UnresolvedSplitting: Newton polygon needs more precision at 2"),
    ("class-poly-assert", [12, -2, 7, 9, 5, 1], ["-1"],
     "AssertionError: unit not congruent 1 mod 2"),
]

# ---------------------------------------------------------------------------
# helpers (no qdescent)


def sympoly(coeffs):
    """Low-to-high integer coefficients -> sympy Poly in X."""
    return sympy.Poly(list(reversed(coeffs)), X)


def coeffs_of(expr):
    return [int(c) for c in reversed(sympy.Poly(expr, X).all_coeffs())]


def squarefree_part(n: int) -> int:
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in sympy.factorint(abs(n)).items():
        if e % 2:
            out *= p
    return sign * out


def prime_support(n: int) -> list[int]:
    return sorted(sympy.factorint(abs(n)))


def frac(q) -> str:
    return str(Fraction(q))


def lehmer(n: int) -> list[int]:
    """Lehmer's cyclic quintic for n, low-to-high coefficients."""
    return [1, n ** 3 + 4 * n ** 2 + 10 * n + 10,
            n ** 4 + 5 * n ** 3 + 11 * n ** 2 + 15 * n + 5,
            -(2 * n ** 3 + 6 * n ** 2 + 10 * n + 10), n ** 2, 1]


def rational_points(coeffs, height=200, dens=4, cap=None):
    """x = a/b^2 with |a| <= height, b <= dens and f(x) a nonzero square,
    ordered by b, then a."""
    out = []
    for b in range(1, dens + 1):
        for a in range(-height, height + 1):
            if math.gcd(a, b) != 1:
                continue
            x = Fraction(a, b * b)
            fx = checks.poly_eval(coeffs, x)
            if fx != 0 and checks.is_rational_square(fx):
                out.append(x)
    return out[:cap]


# one input from outside each corpus; tfae's goes through mpmath
WARMUP = {"ell-ledger": {"curve": "[0,0,0,-1,0]"},
          "hyper-ledger": {"f": lehmer(17)},
          "tfae": {"f": [12, 15, 0, 0, 0, 1]}}  # X^5+15X+12


# ---------------------------------------------------------------------------
# ell-ledger


def ell_case(cid, ainvs, expect=None):
    a1, a2, a3, a4, a6 = ainvs
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    g = [b6, 2 * b4, b2, 4]  # (2y + a1 x + a3)^2 = g(x)
    inp = {"curve": "[" + ",".join(map(str, ainvs)) + "]"}
    pts = [int(x) for x in rational_points(g, height=100, dens=1, cap=6)]
    if pts:
        inp["points"] = pts
    _, facs = sympy.factor_list(sympoly(g))
    degs = sorted(sympy.degree(h, X) for h, _ in facs)
    if degs == [1, 2]:
        h = next(h for h, _ in facs if sympy.degree(h, X) == 2)
        c, b, a = coeffs_of(h.as_expr())
        inp["class_d"] = squarefree_part(b * b - 4 * a * c)
    kernel = _three_torsion(ainvs, g, b2, b4, b6, b8) or _two_torsion(ainvs, g)
    if kernel:
        inp["kernel"] = kernel
    exp = dict(expect or {})
    exp["disc_primes"] = prime_support(checks.c4_c6_disc(ainvs)[2])
    return {"id": cid, "input": inp, "expect": exp}


def _rational_roots(coeffs):
    roots = sympoly(coeffs).ground_roots()
    return sorted(r for r in roots if r.is_rational)


def _two_torsion(ainvs, g):
    a1, _, a3, _, _ = ainvs
    for x0 in _rational_roots(g):
        x0 = Fraction(int(x0.p), int(x0.q))
        return [[frac(x0), frac(-(a1 * x0 + a3) / 2)]]
    return None


def _three_torsion(ainvs, g, b2, b4, b6, b8):
    a1, _, a3, _, _ = ainvs
    psi3 = [b8, 3 * b6, 3 * b4, b2, 3]
    for x0 in _rational_roots(psi3):
        x0 = Fraction(int(x0.p), int(x0.q))
        gx = checks.poly_eval(g, x0)
        if gx != 0 and checks.is_rational_square(gx):
            r = Fraction(math.isqrt(gx.numerator), math.isqrt(gx.denominator))
            lin = a1 * x0 + a3
            return [[frac(x0), frac((-lin + r) / 2)],
                    [frac(x0), frac((-lin - r) / 2)]]
    return None


def ell_draws(rng):
    seen = {WARMUP["ell-ledger"]["curve"], MESTRE}

    def fresh(ainvs):
        s = "[" + ",".join(map(str, ainvs)) + "]"
        if s in seen or checks.c4_c6_disc(ainvs)[2] == 0:
            return False
        seen.add(s)
        return True

    out = []
    for i, (s, p, i_p) in enumerate(PAPER_I):
        ainvs = [int(a) for a in s.strip("[]").split(",")]
        seen.add(s)
        out.append(("worked-%d" % (i + 1), ainvs, {"paper_I": {str(p): i_p}}))
    def big():
        return rng.choice((-1, 1)) * rng.randint(1000, 9999)

    def nonzero(n):
        return rng.choice([a for a in range(-n, n + 1) if a])

    families = [
        ("small", 10, lambda: [0, 0, 0, rng.randint(-50, 50),
                               rng.randint(-50, 50)]),
        ("thousands", 3, lambda: [0, 0, 0, big(), big()]),
        ("general", 8, lambda: [rng.randint(-3, 3) for _ in range(4)]
         + [rng.randint(-20, 20)]),
        ("iso2", 5, lambda: [0, rng.randint(-20, 20), 0, nonzero(30), 0]),
        ("iso3", 4, lambda: [rng.randint(-5, 5), 0, nonzero(9), 0, 0]),
    ]
    for name, count, draw in families:
        k = 0
        while k < count:
            ainvs = draw()
            if fresh(ainvs):
                k += 1
                out.append((f"{name}-{k}", ainvs, {}))
    primes = [q for q in range(5, 50) if sympy.isprime(q)]
    k = 0
    while k < 4:
        p = rng.choice(primes)
        a, b, c = rng.sample(range(1, p), 3)
        e1, e2, e3 = p * a, p * b, p * c
        ainvs = [0, -(e1 + e2 + e3), 0, e1 * e2 + e1 * e3 + e2 * e3,
                 -e1 * e2 * e3]
        if fresh(ainvs):
            k += 1
            out.append((f"exIII-{k}", ainvs, {"example_III": p}))
    return out


def halving_values(case):
    """I at odd p | Delta from the halving oracle, where it applies, and the
    places where its answer is withheld: those where it contradicts the
    Tate-curve count (checks.multiplicative_I), which the benchmark checks
    there instead."""
    from qdescent.descent_local import i2_oracle_halving
    from qdescent.elliptic import curve_from_string

    curve = case["input"]["curve"]
    m = curve_from_string(curve)
    ainvs = [int(a) for a in curve.strip("[]").split(",")]
    out, withheld = {}, {}
    for p in case["expect"]["disc_primes"]:
        if p == 2:
            continue
        status, _, got = worker.Meter().run(
            lambda: i2_oracle_halving(m, p), run.LIMIT_S)
        if status != "ok" or not isinstance(got[0], int):
            continue
        tate = checks.multiplicative_I(ainvs, p)
        if tate is not None and tate != got[0]:
            withheld[str(p)] = (f"oracle gives {got[0]}, the Tate curve "
                                f"gives {tate}")
        else:
            out[str(p)] = got[0]
    return out, withheld


def build_ell(rng):
    cases = [ell_case(cid, ainvs, exp) for cid, ainvs, exp in ell_draws(rng)]
    mestre = [int(a) for a in MESTRE.strip("[]").split(",")]
    cases.append(ell_case("mestre", mestre, {
        "kept_failure": "time limit: factor_over_Z on the 29-digit place "
                        "(Pollard rho on the translated cubic's constant)"}))
    return cases


# ---------------------------------------------------------------------------
# hyper-ledger


def hyper_case(cid, f, points, expect):
    exp = dict(expect)
    exp["bad_primes"] = prime_support(int(sympy.discriminant(
        sympoly(f).as_expr(), X)))
    return {"id": cid, "input": {"f": f, "points": points}, "expect": exp}


def build_hyper(rng):
    cases = []
    for n in sorted(rng.sample([n for n in range(-16, 17) if n != 4], 16)):
        f = lehmer(n)
        pts = [frac(x) for x in rational_points(f, cap=8)]
        ram = prime_support(n ** 4 + 5 * n ** 3 + 15 * n ** 2 + 25 * n + 25)
        cases.append(hyper_case(f"lehmer-{n}", f, pts,
                                {"lehmer_n": n, "ramified": ram}))
    f = lehmer(4)
    nine = [frac(x) for x in rational_points(f)]
    sums = [["sum", a, b] for a, b in itertools.combinations(nine, 2)]
    pool = nine + sums
    for k in range(6, 15):
        cases.append(hyper_case(
            f"exII-{k}pts", f, pool[:k],
            {"lehmer_n": 4, "ramified": [941], "selmer": EXAMPLE_II_SELMER}))
    for cid, f, pts, why in KEPT_QUINTICS:
        cases.append(hyper_case(cid, f, pts, {"kept_failure": why}))
    return cases


# ---------------------------------------------------------------------------
# tfae


def _irreducible(f) -> bool:
    return sympoly(f).is_irreducible


def _separable(f) -> bool:
    return sympy.discriminant(sympoly(f).as_expr(), X) != 0


def _group(f) -> str:
    return galois_group(sympoly(f), by_name=True)[0].name


def _translate(f, c):
    return coeffs_of(sympoly(f).as_expr().subs(X, X + c))


def build_tfae(rng):
    seen = {tuple(WARMUP["tfae"]["f"])}
    cases = []

    def add(cid, f, exp):
        if tuple(f) in seen or not _separable(f):
            return False
        seen.add(tuple(f))
        cases.append({"id": cid, "input": {"f": f}, "expect": exp})
        return True

    def draw(name, count, make, expect):
        k = 0
        while k < count:
            f = make()
            if f is not None and add(f"{name}-{k + 1}", f, expect(f)):
                k += 1

    def monic(deg, bound):
        f = [rng.randint(-bound, bound) for _ in range(deg)] + [1]
        return f if f[0] and _irreducible(f) else None

    draw("quintic", 24, lambda: monic(5, 9), lambda f: {"galois": _group(f)})
    draw("septic", 10, lambda: monic(7, 9), lambda f: {})
    draw("lehmer", 3, lambda: lehmer(rng.randint(-30, 30)),
         lambda f: {"galois": _group(f)})

    def binomial(deg):
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        a = rng.randint(2, 40)
        f = _translate([-a] + [0] * (deg - 1) + [1], c)
        return f if _irreducible(f) else None

    draw("binom5", 5, lambda: binomial(5), lambda f: {"galois": _group(f),
                                                      "holds": True})
    draw("binom7", 3, lambda: binomial(7), lambda f: {"holds": True})
    draw("plain-binom", 2,
         lambda: [rng.choice([-1, 1]) * rng.randint(2, 30)]
         + [0] * rng.choice([4, 6]) + [1], lambda f: {"holds": True})

    def product():
        shape = rng.choice([(1, 4), (2, 3), (1, 1, 3), (1, 2, 2), (1, 1, 1, 2),
                            (1, 2, 4), (3, 4)])
        f = sympy.Integer(1)
        for d in shape:
            f *= sympy.Poly([1] + [rng.randint(-5, 5) for _ in range(d)],
                            X).as_expr()
        f = coeffs_of(sympy.expand(f))
        return f if len(sympy.factor_list(sympoly(f))[1]) > 1 else None

    draw("reducible", 10, product, lambda f: {})
    draw("cubic", 4, lambda: [rng.randint(-30, 30) for _ in range(3)] + [1],
         lambda f: {"holds": True})
    # translation pairs: f(X + c) against f
    for case in [c for c in cases if c["id"] in (
            "quintic-1", "quintic-2", "quintic-3", "septic-1", "lehmer-1",
            "reducible-1", "reducible-2", "binom5-1")]:
        c = rng.choice([-3, -2, -1, 1, 2, 3])
        add(f"{case['id']}-shift", _translate(case["input"]["f"], c),
            dict(case["expect"], pair=case["id"]))
    return cases


# ---------------------------------------------------------------------------


BUILDERS = {"ell-ledger": build_ell, "hyper-ledger": build_hyper,
            "tfae": build_tfae}


def screen(workload, cases, warmup):
    """Run one pass as the benchmark does; split off seeded draws that fail."""
    job = {"workload": workload, "limit": run.LIMIT_S, "trace": False,
           "warmup": warmup,
           "cases": [{"id": c["id"], "input": c["input"]} for c in cases]}
    rec = {c["id"]: c for c in run.run_worker(job)["cases"]}
    kept, left = [], []
    for c in cases:
        r = rec[c["id"]]
        if r["status"] == "ok" or "kept_failure" in c["expect"]:
            kept.append(c)
        else:
            left.append({"id": c["id"], "input": c["input"],
                         "reason": f"{r['status']}: {r['result']}"[:300]})
    return kept, left


def build(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    cases = BUILDERS[workload](rng)
    warmup = WARMUP[workload]
    cases, left = screen(workload, cases, warmup)
    if workload == "ell-ledger":
        for c in cases:
            if "kept_failure" not in c["expect"]:
                exp = c["expect"]
                exp["halving"], withheld = halving_values(c)
                if withheld:
                    exp["halving_withheld"] = withheld
    return {"workload": workload, "seed": seed,
            "made_by": f"python3 perfbench/make_corpus.py --seed {seed}",
            "warmup": warmup, "cases": cases, "left_out": left}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    os.makedirs(os.path.join(HERE, "corpus"), exist_ok=True)
    for w in run.WORKLOADS:
        corpus = build(w, args.seed)
        with open(os.path.join(HERE, "corpus", f"{w}.json"), "w") as fh:
            json.dump(corpus, fh, indent=1)
            fh.write("\n")
        print(f"{w}: {len(corpus['cases'])} cases, "
              f"{len(corpus['left_out'])} left out", file=sys.stderr)


if __name__ == "__main__":
    main()
