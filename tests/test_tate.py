import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import tate_oracle
from test_elliptic import corpus_velu_maps

from qdescent import tate
from qdescent.arith import is_prime, valuation
from qdescent.elliptic import (compute_invariants, curve_from_string,
                               two_division_cubic_integral)
from qdescent.tate import _fp_quadratic, _singular_point, tate_algorithm

MESTRE = curve_from_string("[0,2597055,357573631,-549082,-19608054]")


def rd(curve, p):
    return tate_algorithm(curve_from_string(curve), p)


def test_paper_I4_pair_at_3():
    a = rd("[0,-26,0,135,-567]", 3)
    assert a.kodaira.symbol() == "I4" and a.split is True and a.c_p == 4
    b = rd("[0,26,0,135,567]", 3)
    assert b.kodaira.symbol() == "I4" and b.split is False and b.c_p == 2


def test_paper_isogeny_pair_at_31():
    a = rd("[0,0,0,-189,1269]", 31)
    assert a.kodaira.symbol() == "I1" and a.split is True and a.c_p == 1
    b = rd("[0,0,0,1431,-12339]", 31)
    assert b.kodaira.symbol() == "I3" and b.split is True and b.c_p == 3


def test_paper_I1star_pair_at_23():
    a = rd("[0,0,0,-529,12167]", 23)
    assert a.kodaira.symbol() == "I1*" and a.c_p == 4
    b = rd("[0,0,0,-529,-12167]", 23)
    assert b.kodaira.symbol() == "I1*" and b.c_p == 2


def test_paper_I0star_examples():
    a = rd("[0,1,0,4,12]", 2)
    assert a.kodaira.symbol() == "I0*" and a.c_p == 2
    assert a.v_disc_min == 8
    b = rd("[0,0,0,-25,0]", 5)
    assert b.kodaira.symbol() == "I0*" and b.c_p == 4
    assert b.frobenius_order_on_components == 1
    c = rd("[0,0,0,-75,125]", 5)
    assert c.kodaira.symbol() == "I0*" and c.c_p == 1
    assert c.frobenius_order_on_components == 3


def test_mestre_multiplicative_everywhere():
    f = [1217, 381991, 78031093338905335441668500509]
    for p in f[:2]:
        r = tate_algorithm(MESTRE, p)
        assert r.kodaira.symbol() == "I1"
        assert r.c_p == 1
        assert r.conductor_exponent == 1


def test_good_reduction():
    r = rd("[0,0,0,-1,1]", 7)
    assert r.kodaira.symbol() == "I0" and r.c_p == 1 and r.conductor_exponent == 0


def test_minimalization():
    # scale the 31-curve by u = 1/31 to make it non-minimal
    m = curve_from_string("[0,0,0,-189,1269]").transform(u=Fraction(1, 31))
    r = tate_algorithm(m, 31)
    assert r.kodaira.symbol() == "I1"
    assert r.v_disc_min == 1
    assert r.minimal_model.is_integral()
    assert valuation(r.minimal_model.disc, 31) == 1


def test_conductor_exponents_on_paper_curves():
    assert rd("[0,-26,0,135,-567]", 3).conductor_exponent == 1
    assert rd("[0,0,0,-25,0]", 5).conductor_exponent == 2
    assert rd("[0,0,0,-75,125]", 5).conductor_exponent == 2
    assert rd("[0,0,0,-529,12167]", 23).conductor_exponent == 2


def test_multiplicative_invariants():
    # split: c = nu; nonsplit: c = 2 if nu even else 1; v(disc) = nu
    rng = random.Random(5)
    seen = 0
    for _ in range(200):
        a2 = rng.randrange(-20, 21)
        a4 = rng.randrange(-40, 41)
        a6 = rng.randrange(-40, 41)
        try:
            m = curve_from_string(f"[0,{a2},0,{a4},{a6}]")
        except ValueError:
            continue
        for p in (3, 5, 7, 11, 13):
            v = valuation(m.disc, p)
            if v == 0 or v > 8:
                continue
            r = tate_algorithm(m, p)
            if r.kodaira.letter != "I":
                continue
            seen += 1
            nu = r.kodaira.nu
            assert r.v_disc_min == nu
            if r.split:
                assert r.c_p == nu
            else:
                assert r.c_p == (2 if nu % 2 == 0 else 1)
    assert seen > 20


def test_known_database_anchors():
    # classical curves with well-known reduction data
    r = rd("[0,-1,1,-10,-20]", 11)   # conductor 11, X_0(11)
    assert r.kodaira.symbol() == "I5" and r.c_p == 5 and r.split is True
    r = rd("[0,0,1,-1,0]", 37)       # conductor 37, rank 1
    assert r.kodaira.symbol() == "I1" and r.c_p == 1
    r = rd("[0,1,1,-2,0]", 389)      # conductor 389, rank 2
    assert r.kodaira.symbol() == "I1" and r.c_p == 1


KODAIRA_LETTERS = {"I0", "I", "II", "III", "IV", "I*", "IV*", "III*", "II*"}


def checked_transform(m, p):
    """tate_algorithm(m, p), after checking that its transform is four ints,
    u a power of p, that takes m.integral_model to the minimal model, and
    that a bad reduction is singular at (0, 0)."""
    r = tate_algorithm(m, p)
    assert all(type(c) is int for c in r.transform)
    assert r.transform[3] == p ** valuation(r.transform[3], p)
    assert m.integral_model.transform(*r.transform) == r.minimal_model
    if r.kodaira.letter != "I0":
        assert _singular_point(r.minimal_model.ainvs(), p) == (0, 0)
    return r


def test_transform_on_paper_curves():
    cases = [("[0,-26,0,135,-567]", 3), ("[0,26,0,135,567]", 3),
             ("[0,0,0,-189,1269]", 31), ("[0,0,0,1431,-12339]", 31),
             ("[0,0,0,-529,12167]", 23), ("[0,0,0,-529,-12167]", 23),
             ("[0,1,0,4,12]", 2), ("[0,0,0,-25,0]", 5),
             ("[0,0,0,-75,125]", 5), ("[0,0,0,-1,1]", 7),
             ("[0,-1,1,-10,-20]", 11), ("[0,0,1,-1,0]", 37),
             ("[0,1,1,-2,0]", 389)]
    for cs, p in cases:
        checked_transform(curve_from_string(cs), p)
    for p in (1217, 381991, 78031093338905335441668500509):
        assert checked_transform(MESTRE, p).kodaira.symbol() == "I1"
    m = curve_from_string("[0,0,0,-189,1269]").transform(u=Fraction(1, 31))
    assert checked_transform(m, 31).transform[3] == 31


def test_transform_random_family():
    # coefficients divisible by powers of p, moved by a random change of
    # coordinates (non-integral and non-minimal ones included), reach every
    # Kodaira type at p = 2 and at odd p
    rng = random.Random(1507)
    seen = {True: set(), False: set()}
    done = 0
    while done < 400:
        p = rng.choice([2, 2, 3, 5, 7])
        a = [rng.randrange(-9, 10) * p ** rng.randrange(0, w + 2)
             for w in (1, 2, 3, 4, 6)]
        try:
            m = compute_invariants(*a)
        except ValueError:
            continue
        r, s, t = (rng.randrange(-3, 4) for _ in range(3))
        m = m.transform(r, Fraction(s, p), t,
                        Fraction(p) ** rng.randrange(-1, 2))
        seen[p == 2].add(checked_transform(m, p).kodaira.letter)
        done += 1
    assert seen[True] == seen[False] == KODAIRA_LETTERS


def test_minimal_model_is_integral():
    # y^2 + xy/2 = x^3 - x is y^2 + xy = x^3 - 16x after x -> 4x.  At every
    # p the denominators prime to p are scaled away, so the minimal model
    # is integral, with the reduction data of the integral model
    m = curve_from_string("[1/2,0,0,-1,0]")
    n = curve_from_string("[1,0,0,-16,0]")
    for p in (2, 3, 5, 41):
        a, b = tate_algorithm(m, p), tate_algorithm(n, p)
        assert a.minimal_model.is_integral()
        assert m.integral_model.transform(*a.transform) == a.minimal_model
        assert (a.kodaira, a.v_disc_min, a.c_p, a.split) == \
            (b.kodaira, b.v_disc_min, b.c_p, b.split)


def test_failed_singular_point_names_the_prime_and_the_model():
    # a model with good reduction at p has no singular point mod p: the
    # error names p, the step and the model
    for curve, p in (("[0,0,0,-1,1]", 7), ("[0,0,1,-1,0]", 2)):
        with pytest.raises(ArithmeticError) as err:
            _singular_point(curve_from_string(curve).integral_model.ainvs(),
                            p)
        message = str(err.value)
        assert f"p = {p}" in message and f"mod {p}" in message
        assert "singular point" in message and curve in message


def rational_family(rng, count):
    """count seeded (model, p), drawn as in test_transform_random_family:
    coefficients divisible by powers of p, moved by a change of coordinates
    whose r, s and t have p (and 6) in their denominators and whose u is a
    power of p times 1, 1/2 or 3/5."""
    out = []
    while len(out) < count:
        p = rng.choice([2, 2, 3, 5, 7])
        a = [rng.randrange(-9, 10) * p ** rng.randrange(0, w + 2)
             for w in (1, 2, 3, 4, 6)]
        try:
            m = compute_invariants(*a)
        except ValueError:
            continue
        r, s, t = (Fraction(rng.randrange(-3, 4), rng.choice([1, p, 6 * p]))
                   for _ in range(3))
        u = Fraction(p) ** rng.randrange(-1, 2) \
            * rng.choice([1, Fraction(1, 2), Fraction(3, 5)])
        out.append((m.transform(r, s, t, u), p))
    return out


def corpus_disc_primes():
    """(curve, p) at every prime of the discriminant of every curve of the
    ell-ledger benchmark corpus."""
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / \
        "corpus" / "ell-ledger.json"
    curves = [curve_from_string(case["input"]["curve"])
              for case in json.loads(corpus.read_text())["cases"]]
    return [(m, p) for m in curves for p in m.disc_primes]


def test_tracked_disc_valuation():
    # v(disc) is read once and moved with the model: it is the valuation of
    # the minimal model's discriminant, on a seeded rational family that
    # reaches a true rescale of the input model (v_p(u) - v_p(d) >= 1, u
    # the transform's from integral_model, d the denominator) at 2, at 3
    # and at some p >= 5, at every disc prime of the benchmark corpus and
    # of its Velu codomains.  The Neron scaling u/d is read two ways: off
    # the transform and off disc = (u/d)^12 disc_min
    rescaled = set()
    pairs = rational_family(random.Random(21), 300) + corpus_disc_primes()
    assert len(pairs) == 300 + 128
    pairs += [(phi.codomain, p) for phi in corpus_velu_maps()
              for p in phi.codomain.disc_primes]
    for m, p in pairs:
        r = tate_algorithm(m, p)
        assert r.v_disc_min == valuation(r.minimal_model.disc, p)
        assert r.minimal_model.is_integral()
        assert m.integral_model.transform(*r.transform) == r.minimal_model
        scaling = valuation(r.transform[3], p) - valuation(m.denominator, p)
        assert 12 * scaling == valuation(m.disc, p) - r.v_disc_min, (m, p)
        if scaling >= 1:
            rescaled.add(min(p, 5))
    assert rescaled == {2, 3, 5}


# denominators whose p-parts often exceed the least scaling that makes a
# model p-integral, p^k with k = max ceil(-v(a_w) / w): a_6 = c/64 asks
# for k = 1 but makes d = 64, a start 2^5-fold non-minimal at 2
DENOMINATORS = (1, 2, 4, 8, 16, 32, 64, 3, 9, 27, 81, 5, 25, 6, 12, 36, 48,
                864)


def test_integral_model_start_against_per_prime_scaling(monkeypatch):
    # Tate's algorithm from the model's one integral form gives the
    # Kodaira symbol, c_p, minimal model and transform (composed with
    # u = 1/d) of the per-prime scaling it replaced, at every disc prime of
    # a seeded rational family and of the corpus' Velu codomains.  Where d
    # holds more of p than the least scaling, the rescale that opens the
    # first round trims it: the start reads the singular point as often
    # as the per-prime start does.  The 2-division curve is that of
    # m.transform(u=1/d)
    calls = []
    singular_point = tate._singular_point

    def counted(a, p):
        calls.append(p)
        return singular_point(a, p)

    monkeypatch.setattr(tate, "_singular_point", counted)
    rng = random.Random(3001)
    models = [phi.codomain for phi in corpus_velu_maps()]
    assert len(models) == 15
    while len(models) < 15 + 500:
        try:
            models.append(compute_invariants(
                *(Fraction(rng.randrange(-12, 13), rng.choice(DENOMINATORS))
                  for _ in range(5))))
        except ValueError:
            continue
    extra_rounds = {}
    for m in models:
        d = m.denominator
        assert m.two_division_curve.f == \
            two_division_cubic_integral(m.transform(u=Fraction(1, d)))
        for p in m.disc_primes:
            calls.clear()
            r = m.reduction(p)
            rounds = len(calls)
            calls.clear()
            oracle = tate_oracle.reduction(m, p)
            assert rounds == len(calls), (m, p)
            v = Fraction(1, d)
            rr, s, t, u = r.transform
            assert (r.kodaira.symbol(), r.c_p, r.minimal_model.ainvs(),
                    (v * v * rr, v * s, v ** 3 * t, v * u)) == oracle, (m, p)
            assert all(type(c) is int for c in r.minimal_model.ainvs())
            extra = valuation(d, p) - tate_oracle.least_k(m, p)
            key = min(p, 5)
            extra_rounds[key] = max(extra, extra_rounds.get(key, 0))
    assert extra_rounds == {2: 5, 3: 3, 5: 1}


def test_invariant_under_coordinate_changes():
    # the local data do not depend on the model: a rational change of
    # coordinates with u a p-adic unit or a power of p leaves them alone
    rng = random.Random(22)
    kinds = set()
    for m, p in rational_family(rng, 300):
        r, s, t = (Fraction(rng.randrange(-20, 21), rng.randrange(1, 13))
                   for _ in range(3))
        if rng.random() < 0.5:
            u = Fraction(p) ** rng.randrange(-2, 3)
        else:
            u = Fraction(rng.choice([1, -1, 2, 3, 7, 11]),
                         rng.choice([1, 2, 3, 5, 7]))
            if valuation(u, p) != 0:
                continue
        data = [(x.kodaira, x.v_disc_min, x.conductor_exponent, x.c_p,
                 x.split, x.frobenius_order_on_components)
                for x in (tate_algorithm(m, p),
                          tate_algorithm(m.transform(r, s, t, u), p))]
        assert data[0] == data[1]
        kinds.add(data[0][0].letter)
    assert kinds == KODAIRA_LETTERS


def test_fp_quadratic_against_brute_force():
    # every a Y^2 + b Y + c mod p with p not dividing a: distinct roots give
    # split, true exactly when a root lies in F_p; a double root is a root
    # and the only one.  By brute force: the roots are double exactly when
    # F_p holds one root, since distinct roots are both in F_p or neither
    for p in (2, 3, 5, 7):
        for a in range(1, p):
            for b in range(p):
                for c in range(p):
                    roots = [y for y in range(p)
                             if (a * y * y + b * y + c) % p == 0]
                    double = len(roots) == 1
                    for shift in (0, p, -3 * p):  # any integer lift
                        split, root = _fp_quadratic(a + shift, b - shift,
                                                    c + 2 * shift, p)
                        if double:
                            assert split is None and roots == [root], \
                                (a, b, c, p)
                        else:
                            assert root is None and split is not None
                            assert split == bool(roots), (a, b, c, p)
