"""Checks on case outputs, made apart from the code under test.

Nothing here imports qdescent.  Each check compares a case's output with
an expected value the corpus generator stored (from sympy, from the paper,
or from the halving oracle), with a value recomputed here (Kodaira symbols
from Neron's table, I at multiplicative places from the Tate curve,
rational squares), or with a property the method must have (I divides
gcd(C, S)).
"""

from __future__ import annotations

import math
from fractions import Fraction

INF = float("inf")


def vp(n: int, p: int):
    """p-adic valuation of an integer; infinity for 0."""
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def c4_c6_disc(ainvs):
    """(c4, c6, Delta) of an integral model [a1, a2, a3, a4, a6]."""
    a1, a2, a3, a4, a6 = ainvs
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
          - a4 * a4)
    c4 = b2 * b2 - 24 * b4
    c6 = -b2 ** 3 + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, disc


_ADDITIVE = {2: "II", 3: "III", 4: "IV", 6: "I0*", 8: "IV*", 9: "III*",
             10: "II*"}


def minimal_invariants(ainvs, p: int):
    """(c4, c6, Delta) of a model minimal at a prime p >= 5: divide out
    (p^4, p^6, p^12) while all three allow it."""
    if p < 5:
        raise ValueError("the criterion applies at p >= 5")
    c4, c6, disc = c4_c6_disc(ainvs)
    while vp(c4, p) >= 4 and vp(c6, p) >= 6 and vp(disc, p) >= 12:
        c4, c6, disc = c4 // p ** 4, c6 // p ** 6, disc // p ** 12
    return c4, c6, disc


def kodaira_p_ge5(ainvs, p: int) -> str:
    """Kodaira symbol at a prime p >= 5 from Neron's table.

    The valuations of c4, c6 and Delta are taken on a model minimal at p.
    Then Delta a unit is I0; c4 a unit is I_n with n = v(Delta); otherwise
    the reduction is additive and v(Delta) decides, except that
    (v(c4), v(c6)) = (2, 3) with v(Delta) > 6 is I_n* with n = v(Delta) - 6.
    """
    if p < 5:
        raise ValueError("the table applies at p >= 5")
    a, b, d = (vp(x, p) for x in minimal_invariants(ainvs, p))
    if d == 0:
        return "I0"
    if a == 0:
        return f"I{d}"
    if a == 2 and b == 3 and d > 6:
        return f"I{d - 6}*"
    if d not in _ADDITIVE:
        raise ValueError(f"valuations {(a, b, d)} fit no row of the table")
    return _ADDITIVE[d]


def _square_mod(n: int, p: int) -> bool:
    """Whether n, prime to the odd prime p, is a square mod p."""
    return pow(n % p, (p - 1) // 2, p) == 1


def multiplicative_I(ainvs, p: int):
    """#I(Q_p) for the 2-map at an odd prime p of multiplicative reduction,
    from the Tate curve; None at p = 2 and where the reduction is not
    multiplicative (or, at 3, the model is not minimal).

    I is the image of E(Q_p) in E(Q_p)/2E(Q_p) of the points whose Kummer
    class is unramified: those whose component of the Neron model, over
    the maximal unramified extension, lies in 2 (Z/n) for I_n.  With
    n = v(Delta_min), u = Delta_min / p^n (in the square class of the Tate
    parameter's unit part) and the reduction split when -c6 is a square
    mod p:
      n odd: every class is unramified and I = #E(Q_p)[2] = 2;
      split, n even: E(Q_p) = Q_p^* / q^Z and the points of even valuation
        give the units mod <squares, q>: 2 if u is a square, else 1;
      non-split, n even: E(Q_p) / E_1 is Z/(p + 1) times Z/2 when u is a
        square, else cyclic; the non-identity component is n/2, even when
        4 | n, so I is 4 or 2 (u a square) and 2 or 1 (u not a square).
    """
    if p == 2:
        return None
    c4, c6, disc = (minimal_invariants(ainvs, p) if p >= 5
                    else c4_c6_disc(ainvs))
    n = vp(disc, p)
    if n == 0 or vp(c4, p) != 0:
        return None
    if n % 2:
        return 2
    square = _square_mod(disc // p ** n, p)
    if _square_mod(-c6, p):
        return 2 if square else 1
    if n % 4 == 0:
        return 4 if square else 2
    return 2 if square else 1


def is_rational_square(q: Fraction) -> bool:
    if q < 0:
        return False
    return all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def poly_eval(coeffs, x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def rational_points(points):
    """The x-coordinates of the rational points a descent-point list uses."""
    for p in points:
        if isinstance(p, list):
            yield from rational_points(p[1:])
        else:
            yield Fraction(p)


def _divides(i, n) -> bool:
    return isinstance(i, int) and n % i == 0


def check_ell(case, out) -> list[str]:
    inp, exp = case["input"], case["expect"]
    errs = []
    rows = {r[0]: r for r in out["reports"]}
    for place, c, s, i, _ in out["reports"] + out["iso"]:
        if not (_divides(i, c) and _divides(i, s)):
            errs.append(f"I={i} does not divide gcd(C={c}, S={s}) at {place}")
    ainvs = [int(a) for a in inp["curve"].strip("[]").split(",")]
    want = {}
    for p in exp["disc_primes"]:
        if p >= 5 and (sym := kodaira_p_ge5(ainvs, p)) != "I0":
            want[p] = sym
    got = {int(pl): r[4] for pl, r in rows.items()
           if pl != "oo" and int(pl) >= 5}
    if got != want:
        errs.append(f"bad primes >= 5 and Kodaira symbols {got}, "
                    f"Neron's table gives {want}")
    for p, i in exp.get("paper_I", {}).items():
        if p not in rows or rows[p][3] != i:
            errs.append(f"I at {p} is {rows.get(p, [None] * 4)[3]}, "
                        f"the paper gives {i}")
    if "example_III" in exp:
        p = str(exp["example_III"])
        if rows.get(p, [None] * 5)[1:] != [4, 4, 1, "I0*"]:
            errs.append(f"Example III curve at {p}: {rows.get(p)}, "
                        "expected C = S = 4, I = 1, I0*")
    for p in exp["disc_primes"]:
        want, got = multiplicative_I(ainvs, p), rows.get(str(p), [None] * 4)[3]
        if want is not None and got != want:
            errs.append(f"I at {p} is {got}, the Tate curve gives {want}")
    for p, i in exp.get("halving", {}).items():
        if p in rows and rows[p][3] != i:
            errs.append(f"I at {p} is {rows[p][3]}, the halving oracle "
                        f"gives {i}")
    errs += _points_rank(out, len(inp.get("points") or []))
    return errs


def _points_rank(out, n_points: int) -> list[str]:
    r = out["points_rank"]
    if r is not None and r > n_points:
        return [f"points rank bound {r} exceeds the {n_points} points"]
    return []


def check_hyper(case, out) -> list[str]:
    inp, exp = case["input"], case["expect"]
    errs = []
    for x in rational_points(inp.get("points", [])):
        if not is_rational_square(poly_eval(inp["f"], x)):
            errs.append(f"f({x}) is not a rational square")
    rows = {r[0]: r for r in out["reports"]}
    want = {"oo", "2"} | {str(p) for p in exp["bad_primes"]}
    if set(rows) != want:
        errs.append(f"places {sorted(rows)}, expected {sorted(want)}")
        return errs
    if "lehmer_n" in exp:
        if rows["oo"][1:3] != [1, 4]:
            errs.append(f"(C, S) at oo is {rows['oo'][1:3]}, expected (1, 4)")
        for p in exp["bad_primes"]:
            row = rows[str(p)]
            if p in exp["ramified"]:
                if row[1:4] != [1, 1, 1]:
                    errs.append(f"C, S, I at the totally ramified {p}: "
                                f"{row[1:4]}, expected 1, 1, 1")
            elif row[1] not in (1, 16):
                errs.append(f"C at {p} is {row[1]}, expected 1 or 16")
    for place, s in exp.get("selmer", {}).items():
        got = rows[place][2]
        if got != s:
            errs.append(f"S at {place} is {got}, expected {s}")
    errs += _points_rank(out, len(inp.get("points", [])))
    return errs


def check_tfae(case, out) -> list[str]:
    exp = case["expect"]
    errs = []
    if "holds" in exp and out["holds"] != exp["holds"]:
        errs.append(f"verdict {out['holds']}, expected {exp['holds']}")
    if "galois" in exp and out["holds"] != (exp["galois"] != "S5"):
        errs.append(f"verdict {out['holds']} for Galois group {exp['galois']}")
    return errs


def check_pairs(cases, results) -> list[str]:
    """f(X) and f(X + c) must get the same verdict when both are exact."""
    errs = []
    for case in cases:
        other = case["expect"].get("pair")
        a, b = results.get(case["id"]), results.get(other)
        if a is None or b is None:
            continue
        if (a["certificate"] == b["certificate"] == "exact"
                and a["holds"] != b["holds"]):
            errs.append(f"{case['id']} and its translate {other} disagree")
    return errs


CHECKS = {"ell-ledger": check_ell, "hyper-ledger": check_hyper,
          "tfae": check_tfae}


def check_pass(workload: str, cases, statuses) -> list[str]:
    """Every check on one pass.  `statuses` maps a case id to its worker
    record; only cases that completed are checked."""
    check = CHECKS[workload]
    done = {c["id"]: statuses[c["id"]]["result"] for c in cases
            if statuses[c["id"]]["status"] == "ok"}
    errs = []
    for case in cases:
        if case["id"] in done:
            errs += [f"{case['id']}: {e}"
                     for e in check(case, done[case["id"]])]
    if workload == "tfae":
        errs += check_pairs(cases, done)
    return errs
