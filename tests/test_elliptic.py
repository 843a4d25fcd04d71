import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from group_law import add, moved, negate, on_curve, points, scalar_mul
from qdescent.arith import factor_integer, valuation
from qdescent.elliptic import (INF, Pt, WeierstrassModel, _depress,
                               compute_invariants, curve_from_string,
                               is_on_curve, two_division_cubic_integral,
                               velu_isogeny)
from qdescent.poly import RatPoly, discriminant, factor_over_Z

E189 = curve_from_string("[0,0,0,-189,1269]")
E1431 = curve_from_string("[0,0,0,1431,-12339]")
MESTRE = curve_from_string("[0,2597055,357573631,-549082,-19608054]")


def test_invariants_isogeny_pair():
    assert E189.disc == -(2 ** 4) * 3 ** 12 * 31
    assert E1431.disc == -(2 ** 4) * 3 ** 12 * 31 ** 3
    assert compute_invariants(0, 0, 0, -1, 0).disc == 64


def test_one_discriminant_per_model(monkeypatch):
    # disc is kept on the frozen model: repeated reads evaluate it once,
    # and equality and hash still read the five coefficients only
    reads = []
    b8 = WeierstrassModel.b8
    monkeypatch.setattr(WeierstrassModel, "b8",
                        property(lambda m: reads.append(m) or b8.fget(m)))
    ainvs = [Fraction(c) for c in (0, 0, 0, -189, 1269)]
    m = WeierstrassModel(*ainvs)
    assert [m.disc, m.disc, m.disc] == [E189.disc] * 3
    assert reads == [m]
    fresh = WeierstrassModel(*ainvs)
    assert fresh == m and hash(fresh) == hash(m)


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


def test_short_model():
    # _depress takes a model to y^2 = x^3 + Ax + B
    dep, _ = _depress(curve_from_string("[0,0,1,0,0]"))  # y^2 + y = x^3
    assert dep.ainvs() == (0, 0, 0, 0, Fraction(1, 4))
    m = curve_from_string("[0,0,0,0,1]")
    assert _depress(m)[0] == m
    # j-invariant preserved by the change of coordinates
    dep, tr = _depress(MESTRE)
    assert MESTRE.transform(*tr) == dep
    assert dep.j == MESTRE.j
    assert dep.disc == 16 * discriminant(RatPoly([dep.a6, dep.a4, 0, 1]))


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
    assert phi.degree == 3
    assert phi.codomain == E1431
    assert valuation(phi.codomain.disc, 31) == 3
    # kernel maps to infinity
    assert phi.apply(Pt(Fraction(3), Fraction(27))) is INF


def test_velu_identity():
    phi = velu_isogeny(E189, [])
    P = Pt(Fraction(3), Fraction(27))
    assert phi.degree == 1
    assert phi.apply(P) == P


def test_velu_2_isogeny_negative_disc():
    # y^2 = (x+1)x(x-2): divide by (0,0) (the middle root b = 0)
    m = curve_from_string("[0,-1,0,-2,0]")
    assert m.disc > 0
    phi = velu_isogeny(m, [Pt(Fraction(0), Fraction(0))])
    assert phi.degree == 2
    assert phi.codomain.disc < 0


def test_velu_points_map_to_codomain():
    phi = velu_isogeny(E189, [Pt(Fraction(3), Fraction(27)),
                              Pt(Fraction(3), Fraction(-27))])
    for p in (5, 7, 11, 13):
        if valuation(E189.disc, p) != 0 or valuation(phi.codomain.disc, p) != 0:
            continue
        hits = 0
        for x in range(p):
            for y in range(p):
                if not on_curve(E189, Pt(x, y), p):
                    continue
                xd = phi.x_den.eval(x)
                if Fraction(xd).numerator % p == 0:
                    continue
                # map over F_p by clearing denominators mod p
                r, s, t, u = phi.pre
                Pd = Pt((Fraction(x) - r), (Fraction(y) - s * (Fraction(x) - r) - t))
                den = phi.x_den.eval(Pd.x)
                if den.numerator % p == 0:
                    continue
                x2 = phi.x_num.eval(Pd.x) / den
                y2 = Pd.y * phi.y_num.eval(Pd.x) / phi.y_den.eval(Pd.x)
                assert on_curve(phi.codomain, Pt(x2, y2), p)
                hits += 1
        assert hits > 0


def abs_p(c, p):
    return Fraction(p) ** -valuation(c, p)


def test_phi_prime_abs():
    three = velu_isogeny(E189, [Pt(Fraction(3), Fraction(27)),
                                Pt(Fraction(3), Fraction(-27))])
    assert abs_p(three.phi_prime_0, 31) == 1  # p does not divide deg(phi)


def corpus_velu_maps():
    """The Velu maps of the ell-ledger benchmark corpus (2- and
    3-isogenies), and the one of the trivial kernel."""
    corpus = Path(__file__).resolve().parent.parent / "perfbench" / \
        "corpus" / "ell-ledger.json"
    maps = [velu_isogeny(E189, [])]
    for case in json.loads(corpus.read_text())["cases"]:
        kernel = case["input"].get("kernel")
        if kernel:
            maps.append(velu_isogeny(
                curve_from_string(case["input"]["curve"]),
                [Pt(Fraction(x), Fraction(y)) for x, y in kernel]))
    return maps


def test_differential_identity():
    # phi(x, y) = (X(x), y Y(x)) pulls dx'/2y' back to (X'(x)/Y(x)) dx/2y,
    # so X' = phi'(0) Y as rational functions
    maps = corpus_velu_maps()
    assert len(maps) == 1 + 15
    for phi in maps:
        lhs = (phi.x_num.deriv() * phi.x_den
               - phi.x_num * phi.x_den.deriv()) * phi.y_den
        assert lhs == phi.phi_prime_0 * phi.x_den ** 2 * phi.y_num, \
            (phi.domain, phi.kernel)


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
        Q = m.map_point(Pt(Fraction(0), Fraction(0)), *change)
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
        Q = m.map_point(Pt(Fraction(0), Fraction(0)), *change)
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
