import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from group_law import (INF, add, map_point, moved, negate, points,
                       scalar_mul)
from qdescent.arith import factor_integer, valuation
from qdescent.elliptic import (Pt, WeierstrassModel, compute_invariants,
                               curve_from_string, is_on_curve,
                               two_division_cubic_integral, velu_isogeny)
from qdescent.poly import RatPoly, factor_over_Z

E189 = curve_from_string("[0,0,0,-189,1269]")
E1431 = curve_from_string("[0,0,0,1431,-12339]")


def test_invariants_isogeny_pair():
    assert E189.disc == -(2 ** 4) * 3 ** 12 * 31
    assert E1431.disc == -(2 ** 4) * 3 ** 12 * 31 ** 3
    assert compute_invariants(0, 0, 0, -1, 0).disc == 64


def test_one_discriminant_per_model(monkeypatch):
    # disc and b8 are kept on the frozen model: repeated reads evaluate
    # each once, and equality and hash still read the five coefficients only
    reads = []
    b8 = WeierstrassModel.b8.func
    monkeypatch.setattr(WeierstrassModel.b8, "func",
                        lambda m: reads.append(m) or b8(m))
    ainvs = [Fraction(c) for c in (0, 0, 0, -189, 1269)]
    m = WeierstrassModel(*ainvs)
    assert [m.disc, m.disc, m.disc] == [E189.disc] * 3
    assert [m.b8, m.b8] == [E189.b8] * 2
    assert reads == [m]
    fresh = WeierstrassModel(*ainvs)
    assert fresh == m and hash(fresh) == hash(m)


def test_int_models_keep_exact_arithmetic():
    # integral and minimal models hold ints: j, the integral model and
    # Velu's codomain stay exact on them and equal those of Fractions
    m, parsed = WeierstrassModel(-1, 0, -8, 0, 0), \
        curve_from_string("[-1,0,-8,0,0]")
    assert m == parsed and parsed.integral_model == parsed
    assert all(type(c) is int for c in parsed.integral_model.ainvs())
    assert type(m.j) is Fraction and m.j == parsed.j
    kernel = [Pt(Fraction(0), Fraction(8)), Pt(Fraction(0), Fraction(0))]
    phi = velu_isogeny(m, kernel)
    assert phi.codomain == velu_isogeny(parsed, kernel).codomain
    assert all(type(c) is Fraction for c in phi.codomain.ainvs())


def test_singular_rejected():
    with pytest.raises(ValueError):
        compute_invariants(0, 0, 0, 0, 0)


def test_group_law_examples():
    P = Pt(Fraction(3), Fraction(27))
    assert is_on_curve(E189, P)
    assert add(E189, P, INF) == P
    assert scalar_mul(E189, 3, P) is INF  # (3, 27) has order 3
    assert scalar_mul(E189, 2, P) == Pt(Fraction(3), Fraction(-27))


def test_group_law_fp_random():
    m = curve_from_string("[1,0,1,4,-6]")
    for p in (5, 13, 101):
        if valuation(m.disc, p) != 0:
            continue
        pts = points(m, p)
        rng = random.Random(7)
        for _ in range(60):
            P, Q, R = (rng.choice(pts) for _ in range(3))
            assert add(m, add(m, P, Q, p), R, p) == \
                add(m, P, add(m, Q, R, p), p)
            assert add(m, P, negate(m, P, p), p) is INF


def test_two_division_cubic():
    # roots U = 4x for the x-coordinates of the 2-torsion
    m = curve_from_string("[0,0,0,-25,0]")
    cubic = two_division_cubic_integral(m)
    assert cubic == RatPoly([0, -400, 0, 1])
    xs = sorted(-h.coeffs[0] / 4 for h in factor_over_Z(cubic))
    assert xs == [-5, 0, 5]
    m2 = curve_from_string("[0,1,0,4,12]")  # x^3 + x^2 + 4x + 12
    fac = factor_over_Z(two_division_cubic_integral(m2))
    assert RatPoly([8, 1]) in fac
    assert RatPoly([96, -4, 1]) in fac


def test_moved_factors_are_those_of_the_minimal_model():
    # the one factorization of the cubic, moved by the change of
    # coordinates of each prime, is the factorization of the minimal
    # model's cubic: monic and integral, rational input models included
    rng = random.Random(16)
    models = [curve_from_string("[1/2,0,0,-1,0]")]
    while len(models) < 40:
        den = 1 if len(models) < 20 else rng.choice((2, 3, 4, 6))
        try:
            models.append(compute_invariants(
                *(Fraction(rng.randrange(-9, 10), den) for _ in range(5))))
        except ValueError:
            continue
    places = 0
    for m in models:
        primes = {p for n in (m.disc.numerator, m.disc.denominator)
                  for p, _ in factor_integer(n).factors}
        for p in sorted(primes | {2}):
            moved = m.two_division_factors(p)
            assert all(h.is_monic() and h.is_integral() for h in moved)
            cubic = two_division_cubic_integral(m.reduction(p).minimal_model)
            assert sorted(moved, key=repr) == \
                sorted(factor_over_Z(cubic), key=repr), (m, p)
            places += 1
    assert places >= 140


def test_velu_3_isogeny_matches_paper():
    phi = velu_isogeny(E189, [Pt(Fraction(3), Fraction(27)),
                              Pt(Fraction(3), Fraction(-27))])
    assert (phi.domain, phi.degree, phi.x0) == (E189, 3, 3)
    assert phi.codomain == E1431
    assert valuation(phi.codomain.disc, 31) == 3


def test_velu_2_isogeny_negative_disc():
    # y^2 = (x+1)x(x-2): divide by (0,0) (the middle root b = 0)
    m = curve_from_string("[0,-1,0,-2,0]")
    assert m.disc > 0
    phi = velu_isogeny(m, [Pt(Fraction(0), Fraction(0))])
    assert phi.degree == 2
    assert phi.codomain.disc < 0


def test_velu_rejects_kernels_of_other_orders():
    Q, T = Pt(Fraction(3), Fraction(27)), Pt(Fraction(0), Fraction(0))
    m2 = curve_from_string("[0,-1,0,-2,0]")
    cases = [(E189, [], "limited to 2, 3"),
             (E189, [Q, Pt(Q.x, -Q.y), Q], "limited to 2, 3"),
             (E189, [Pt(Fraction(3), Fraction(28))], "not on the curve"),
             (E189, [Q], "must be 2-torsion"),
             (E189, [Q, Q], "must be {Q, -Q}"),
             (m2, [T, T], "subgroup of order 3")]
    for m, kernel, message in cases:
        with pytest.raises(ValueError, match=message):
            velu_isogeny(m, kernel)


def corpus_velu_maps():
    """The Velu maps of the ell-ledger benchmark corpus (2- and
    3-isogenies)."""
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / \
        "corpus" / "ell-ledger.json"
    maps = []
    for case in json.loads(corpus.read_text())["cases"]:
        kernel = case["input"].get("kernel")
        if kernel:
            maps.append(velu_isogeny(
                curve_from_string(case["input"]["curve"]),
                [Pt(Fraction(x), Fraction(y)) for x, y in kernel]))
    return maps


def moved_velu_maps(rng, count):
    """count seeded 2-isogenies of y^2 = (x - e)(x^2 + bx + c) with kernel
    (e, 0), and count 3-isogenies of y^2 + a1 xy + a3 y = x^3 with kernel
    {(0, 0), (0, -a3)}, each on a moved model (a1, a3 != 0, a coefficient
    not an integer) with its kernel moved alongside."""
    maps = []
    while len(maps) < 2 * count:
        if len(maps) < count:
            e, b, c = (rng.randrange(-6, 7) for _ in range(3))
            if e * e + b * e + c == 0 or b * b == 4 * c:
                continue
            m0 = compute_invariants(0, b - e, 0, c - b * e, -c * e)
            kernel = [Pt(Fraction(e), Fraction(0))]
        else:
            a1, a3 = rng.randrange(-5, 6), rng.choice((-6, -3, -2, 1, 2, 4))
            if a1 ** 3 == 27 * a3:  # disc = a3^3 (a1^3 - 27 a3)
                continue
            m0 = compute_invariants(a1, 0, a3, 0, 0)
            kernel = [Pt(Fraction(0), Fraction(0)),
                      Pt(Fraction(0), Fraction(-a3))]
        m, change = moved(m0, rng)
        maps.append(velu_isogeny(m, [map_point(P, *change)
                                     for P in kernel]))
    return maps


def equal_counts_checked(phi) -> int:
    """Check #E(F_p) = #E'(F_p) for phi: E -> E' at every p in 5..47 where
    both models are p-integral with good reduction; return how many p."""
    checked = 0
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        models = (phi.domain, phi.codomain)
        if any(a.denominator % p == 0 for m in models for a in m.ainvs()) \
                or any(valuation(m.disc, p) for m in models):
            continue
        assert len(points(phi.domain, p)) == len(points(phi.codomain, p)), \
            (phi.domain, phi.x0, p)
        checked += 1
    return checked


def test_corpus_isogenies_keep_the_point_count():
    # an oracle for Velu's codomain that reads no map: isogenous curves have
    # the same number of points over F_p at every prime of good reduction,
    # counted by search with the tests' group law; here on the 15 maps of
    # the benchmark corpus
    corpus = corpus_velu_maps()
    assert len(corpus) == 15
    assert sum(map(equal_counts_checked, corpus)) == 171


def test_moved_isogenies_keep_the_point_count():
    # the same oracle on seeded 2- and 3-isogenies of moved models
    maps = moved_velu_maps(random.Random(20), 10)
    assert [phi.degree for phi in maps] == [2] * 10 + [3] * 10
    assert all(equal_counts_checked(phi) >= 5 for phi in maps)


def test_division_polynomials_at_points():
    # psi2(x) = (2y + a1 x + a3)^2 at every point, and psi3(x) = 0 exactly
    # at the x of the points of order 3, over F_p at good p >= 5 for seeded
    # models with a1, a3 != 0, and at the order-3 point (0, 0) of
    # y^2 + a1 xy + a3 y = x^3 moved to non-integral models
    rng = random.Random(21)
    order3 = 0
    for p in (5, 7, 11, 13):
        for _ in range(8):
            a1, a2, a3, a4, a6 = (rng.randrange(lo, p)
                                  for lo in (1, 0, 1, 0, 0))
            m = WeierstrassModel(*map(Fraction, (a1, a2, a3, a4, a6)))
            if m.disc % p == 0:
                continue
            for P in points(m, p)[1:]:
                assert (m.psi2.eval(P.x)
                        - (2 * P.y + m.a1 * P.x + m.a3) ** 2) % p == 0
                is3 = scalar_mul(m, 3, P, p) is INF
                assert (m.psi3.eval(P.x) % p == 0) == is3, (m, p, P)
                order3 += is3
    assert order3 >= 10
    for _ in range(20):
        a1, a3 = rng.choice((-3, -1, 1, 2)), rng.choice((-5, -2, 1, 4))
        m, change = moved(compute_invariants(a1, 0, a3, 0, 0), rng)
        Q = map_point(Pt(Fraction(0), Fraction(0)), *change)
        assert is_on_curve(m, Q) and scalar_mul(m, 3, Q) is INF
        assert m.psi2.eval(Q.x) == (2 * Q.y + m.a1 * Q.x + m.a3) ** 2
        assert m.psi3.eval(Q.x) == 0


def test_velu_checks_an_order_three_kernel_by_psi3():
    # on models with a1, a3 != 0 and non-integral coefficients: {Q, -Q} is
    # accepted when Q has order 3 and rejected when it has not
    rng = random.Random(22)
    for _ in range(20):
        a1, a3 = rng.choice((-3, -1, 1, 2)), rng.choice((-5, -2, 1, 4))
        m0 = compute_invariants(a1, 0, a3, 0, 0)
        m, change = moved(m0, rng)
        Q = map_point(Pt(Fraction(0), Fraction(0)), *change)
        phi = velu_isogeny(m, [Q, negate(m, Q)])
        assert phi.degree == 3
        assert phi.codomain.j == velu_isogeny(
            m0, [Pt(Fraction(0), Fraction(0)),
                 Pt(Fraction(0), Fraction(-a3))]).codomain.j
    rejected = 0
    while rejected < 20:
        # a curve through (x0, y0): a6 is what puts the point on it
        a1, a2, a3, a4, x0, y0 = (Fraction(rng.randrange(-9, 10),
                                           rng.choice((1, 2, 3)))
                                  for _ in range(6))
        a6 = y0 * y0 + a1 * x0 * y0 + a3 * y0 - x0 ** 3 - a2 * x0 ** 2 \
            - a4 * x0
        try:
            m = compute_invariants(a1, a2, a3, a4, a6)
        except ValueError:
            continue
        P = Pt(x0, y0)
        if not a1 or not a3 or negate(m, P) == P \
                or scalar_mul(m, 3, P) is INF:
            continue
        with pytest.raises(ValueError, match="subgroup of order 3"):
            velu_isogeny(m, [P, negate(m, P)])
        rejected += 1


def test_points_move_to_the_minimal_and_two_division_models():
    # a point of a seeded move of y^2 = x^3 - 25x: minimal_model_x is
    # the x of its image on the minimal model at p, through integral_model
    # (u = 1/d) and the integer change reduction(p).transform, and
    # two_division_x is 4 times its x on integral_model
    rng = random.Random(3301)
    base = curve_from_string("[0,0,0,-25,0]")
    checked = 0
    for _ in range(20):
        m, change = moved(base, rng)
        for P in (Pt(Fraction(-4), Fraction(6)), Pt(Fraction(0), Fraction(0))):
            Q = map_point(P, *change)
            assert is_on_curve(m, Q)
            on_integral = map_point(Q, u=Fraction(1, m.denominator))
            assert m.two_division_x(Q.x) == 4 * on_integral.x
            for p in m.disc_primes:
                rd = m.reduction(p)
                R = map_point(on_integral, *rd.transform)
                assert is_on_curve(rd.minimal_model, R)
                assert m.minimal_model_x(Q.x, p) == R.x
                checked += 1
    assert checked >= 40


def test_transform_keeps_j_scales_disc_and_inverts():
    # seeded rational (r, s, t, u): j is unchanged, disc is multiplied by
    # u^-12, and the inverse move (-r/u^2, -s/u, (r s - t)/u^3, 1/u) gives
    # the model back
    rng = random.Random(2323)
    done = 0
    while done < 200:
        a = [Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3]))
             for _ in range(5)]
        m = WeierstrassModel(*a)
        if m.disc == 0:
            continue
        r, s, t = (Fraction(rng.randint(-9, 9), rng.choice([1, 2, 5]))
                   for _ in range(3))
        u = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 7]))
        n = m.transform(r, s, t, u)
        assert n.j == m.j and n.disc == m.disc / u ** 12
        assert n.transform(-r / u ** 2, -s / u, (r * s - t) / u ** 3,
                           1 / u) == m
        done += 1
