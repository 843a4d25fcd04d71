import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qdescent import poly
from qdescent.arith import factor_integer, valuation
from qdescent.localfields import _norm_mod
from qdescent.poly import (HENSEL_START, RatPoly, UnresolvedSplitting,
                           discriminant, factor_degrees_mod_p, factor_mod_p,
                           factor_over_Z, fp_poly, hensel_lift_factors,
                           local_splitting_type, monic_integral, mp_add,
                           mp_divmod, mp_mul, mp_shift, mp_sub, parse_poly,
                           resultant, roots_in_Fp)

QUINTIC = parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1")


def test_parse_forms_agree():
    assert QUINTIC == parse_poly("[1,178,817,-274,16,1]")
    assert parse_poly("X^2-X+6") == RatPoly([6, -1, 1])
    assert parse_poly("x^3 + 1/4") == RatPoly([Fraction(1, 4), 0, 0, 1])


def test_discriminant_paper_quintic():
    assert discriminant(QUINTIC) == 941 ** 4 * 191 ** 2


def test_discriminant_small():
    assert discriminant(RatPoly([-1, 0, 1])) == 4  # X^2 - 1
    assert discriminant(RatPoly([6, -1, 1])) == -23  # X^2 - X + 6


RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@given(st.lists(RATIONALS, min_size=2, max_size=4),
       st.lists(RATIONALS, min_size=2, max_size=4))
@settings(max_examples=60)
def test_discriminant_product_identity(ac, bc):
    f, g = RatPoly(ac), RatPoly(bc)
    if f.degree < 1 or g.degree < 1:
        return
    fg = f * g
    assert discriminant(fg) == \
        discriminant(f) * discriminant(g) * resultant(f, g) ** 2


def sylvester_det_over_Q(f, g):
    """The oracle: Res(f, g) as the Sylvester determinant, by Gaussian
    elimination over Fraction."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    fc, gc = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i)
            for i in range(n)]
    rows += [[Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i)
             for i in range(m)]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, size):
            fct = rows[r][col] / rows[col][col]
            for c in range(col, size):
                rows[r][c] -= fct * rows[col][c]
    return det


def random_rational_poly(rng, deg):
    """Degree deg, non-integral and often non-monic; the leading
    coefficient is negative about half the time."""
    def coeff():
        return Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 7, 12]))
    lead = Fraction(rng.randint(1, 9), rng.choice([1, 2, 5])) * rng.choice([-1, 1])
    return RatPoly([coeff() for _ in range(deg)] + [lead])


def test_resultant_and_discriminant_match_the_fraction_oracle():
    rng = random.Random(1507)
    for _ in range(300):
        f = random_rational_poly(rng, rng.randint(0, 8))
        g = random_rational_poly(rng, rng.randint(0, 8))
        assert resultant(f, g) == sylvester_det_over_Q(f, g)
        if f.degree >= 2:
            sign = -1 if f.degree * (f.degree - 1) // 2 % 2 else 1
            assert discriminant(f) == \
                sign * sylvester_det_over_Q(f, f.deriv()) / f.lead
        # a common factor h makes Res(f*h, g*h) vanish, and a square
        # factor makes the discriminant vanish
        h = random_rational_poly(rng, rng.randint(1, 2))
        assert resultant(f * h, g * h) == 0
        if (f * h * h).degree <= 8:
            assert discriminant(f * h * h) == 0


def test_norm_mod_matches_the_fraction_oracle():
    # the norm of a in Z/m[t]/h, h monic, is Res(h, a) reduced mod m
    rng = random.Random(443)
    for _ in range(500):
        h = [rng.randint(-40, 40) for _ in range(rng.randint(1, 8))] + [1]
        a = [rng.randint(-40, 40) for _ in range(rng.randint(0, 10))]
        m = rng.choice((2, 3, 5, 7, 101)) ** rng.randint(1, 20)
        want = sylvester_det_over_Q(RatPoly(h), RatPoly(a))
        assert _norm_mod(h, a, m) == int(want) % m, (h, a, m)


def test_factor_degrees_mod_p_reads_factor_mod_p():
    rng = random.Random(101)
    polys = [[1, 0, 0, 0, 1], [1, 1, 1], [2, 0, 0, 1]]  # X^4 + 1, ...
    polys += [[rng.randint(-50, 50) for _ in range(rng.randint(1, 8))] + [1]
              for _ in range(120)]
    seen = set()
    for p in (2, 3, 5, 7, 101):
        for a in polys:
            fac = factor_mod_p(a, p)
            degrees = factor_degrees_mod_p(a, p)
            if all(mult == 1 for _, mult in fac):
                assert degrees == tuple(sorted(len(g) - 1 for g, _ in fac))
            else:
                assert degrees is None
            seen.add(degrees is None)
    assert seen == {True, False}
    # X^4 + 1 = (X + 1)^4 at 2, a square with derivative 0
    assert factor_degrees_mod_p([1, 0, 0, 0, 1], 2) is None
    assert factor_degrees_mod_p([1, 0, 0, 0, 1], 3) == (2, 2)


@given(st.lists(RATIONALS, max_size=7), RATIONALS, RATIONALS, RATIONALS)
@settings(max_examples=60)
def test_compose_linear_evaluates_at_the_line(coeffs, a, b, x):
    f = RatPoly(coeffs)
    assert f.compose_linear(a, b).eval(x) == f.eval(a * x + b)


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=9),
       st.integers(-10 ** 6, 10 ** 6), st.integers(2, 10 ** 12))
@settings(max_examples=80)
def test_mp_shift_is_compose_linear_mod_m(coeffs, r, m):
    want = [int(c) % m for c in RatPoly(coeffs).compose_linear(1, r).coeffs]
    while want and want[-1] == 0:
        want.pop()
    assert mp_shift(coeffs, r, m) == want


def test_factor_mod_p_quintic_37():
    fac = factor_mod_p(fp_poly(QUINTIC, 37), 37)
    assert all(m == 1 and len(g) == 2 for g, m in fac)
    roots = sorted(-g[0] % 37 for g, _ in fac)
    assert roots == [4, 8, 12, 16, 18]


def test_factor_mod_p_quintic_191():
    fac = factor_mod_p(fp_poly(QUINTIC, 191), 191)
    by_mult = sorted((-g[0] % 191, m) for g, m in fac if len(g) == 2)
    assert by_mult == [(5, 1), (6, 1), (37, 1), (159, 2)]


def test_factor_mod_2():
    fac = factor_mod_p([1, 0, 1], 2)  # X^2 + 1 = (X+1)^2
    assert fac == [([1, 1], 2)]


def test_factor_mod_p_reconstructs():
    for p in (2, 3, 5, 37, 191):
        fac = factor_mod_p(fp_poly(QUINTIC, p), p)
        prod = [1]
        for g, m in fac:
            for _ in range(m):
                prod = mp_mul(prod, g, p)
        assert prod == [c % p for c in [1, 178, 817, -274, 16, 1]]


def test_roots_in_Fp():
    assert roots_in_Fp(QUINTIC, 37) == [4, 8, 12, 16, 18]
    assert roots_in_Fp(QUINTIC, 73) == sorted(x % 73 for x in (-26, -19, -2, 13, 18))
    assert roots_in_Fp(RatPoly([1, 0, 1]), 3) == []


def test_factor_over_Z_cubic():
    f = parse_poly("X^3+X^2+4*X+12")
    fac = factor_over_Z(f)
    assert RatPoly([2, 1]) in fac  # X + 2
    assert RatPoly([6, -1, 1]) in fac  # X^2 - X + 6
    assert len(fac) == 2


def test_factor_over_Z_simple():
    assert factor_over_Z(RatPoly([-4, 0, 1])) == [RatPoly([-2, 1]), RatPoly([2, 1])]
    assert factor_over_Z(QUINTIC) == [QUINTIC]
    # squarefree, but bad at 3, 5, 7 and 11: the search goes on after the
    # gcd test
    assert factor_over_Z(parse_poly("X^2-1155")) == [parse_poly("X^2-1155")]
    assert factor_over_Z(RatPoly([1156, -1157, 1])) == [RatPoly([-1156, 1]),
                                                        RatPoly([-1, 1])]


def test_factor_over_Z_quartics():
    # X^4 - 1 = (X-1)(X+1)(X^2+1)
    fac = factor_over_Z(RatPoly([-1, 0, 0, 0, 1]))
    assert sorted(g.degree for g in fac) == [1, 1, 2]
    # irreducible quartic
    assert factor_over_Z(RatPoly([1, 0, 0, 0, 1])) == [RatPoly([1, 0, 0, 0, 1])]
    # product of two irreducible quadratics
    f = RatPoly([1, 0, 1]) * RatPoly([3, 3, 1])
    assert sorted(factor_over_Z(f), key=lambda g: g.coeffs) == \
        sorted([RatPoly([1, 0, 1]), RatPoly([3, 3, 1])], key=lambda g: g.coeffs)


def test_factor_over_Z_non_integral_monic():
    # f.monic() is not integral: the factors of the scaled polynomial must
    # be scaled back, X -> den * X, and divided by den^deg
    half = Fraction(1, 2)
    assert factor_over_Z(parse_poly("2*X^4+7*X^2+3")) == [
        RatPoly([half, 0, 1]), RatPoly([3, 0, 1])]
    assert factor_over_Z(parse_poly("3*X^4+3*X^3+4*X^2+X+1")) == [
        RatPoly([Fraction(1, 3), 0, 1]), RatPoly([1, 1, 1])]


def test_monic_integral_scales_the_roots():
    # X^3 - X^2/6 - X/6 has roots 0, 1/2, -1/3; X^3 - X^2 - 6X has 6 times
    # them
    g, D = monic_integral(RatPoly([0, -1, -1, 6]).monic())
    assert (g, D) == (RatPoly([0, -6, -1, 1]), 6)
    roots = (0, Fraction(1, 2), Fraction(-1, 3))
    assert all(g.eval(D * r) == 0 for r in roots)


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       st.lists(st.integers(-20, 20), min_size=1, max_size=4),
       st.integers(1, 5), st.integers(1, 5))
@settings(max_examples=40)
def test_factor_over_Z_multiplies_back(ac, bc, a, b):
    f = RatPoly(ac + [a]) * RatPoly(bc + [b])
    fac = factor_over_Z(f)
    prod = RatPoly([1])
    for g in fac:
        prod = prod * g
    assert prod == f.monic()


# Inputs whose factorization is known by construction: seeded linear
# factors b*X - a times irreducible tails (the last one a product of two
# quadratics, so that recombination must try pairs of modular factors),
# scaled by a rational so that the input is neither monic nor integral.
TAILS = [[parse_poly("X^2+1")], [parse_poly("X^2-2")], [parse_poly("X^3-2")],
         [parse_poly("X^3+X+1")], [parse_poly("X^2+1"), parse_poly("X^2+3*X+3")]]
LINEAR = st.tuples(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 6))


def by_construction(pairs, tail, scale):
    f = RatPoly([scale])
    for g in tail:
        f = f * g
    for a, b in pairs:
        f = f * RatPoly([-a, b])
    factors = tail + [RatPoly([Fraction(-a, b), 1]) for a, b in pairs]
    return f, sorted(factors, key=lambda g: (g.degree, g.coeffs))


@given(st.lists(LINEAR, max_size=4), st.sampled_from(TAILS),
       st.fractions().filter(lambda q: q != 0))
@settings(max_examples=40, deadline=None)
def test_factor_over_Z_recovers_construction(pairs, tail, scale):
    f, expected = by_construction(pairs, tail, scale)
    assert factor_over_Z(f) == expected


@given(st.lists(LINEAR, max_size=5, unique_by=lambda t: Fraction(t[0], t[1])),
       st.sampled_from(TAILS[:4]), st.fractions().filter(lambda q: q != 0))
@settings(max_examples=40, deadline=None)
def test_rational_roots_recovers_construction(pairs, tail, scale):
    # the linear factors are exactly the constructed roots
    f, _ = by_construction(pairs, tail, scale)
    roots = [-h.coeffs[0] for h in factor_over_Z(f) if h.degree == 1]
    assert sorted(roots) == sorted(Fraction(a, b) for a, b in pairs)


def test_rational_roots_rejects_repeated_root(deadline):
    # (X-1)^2 (X+2): every prime is bad, so the squarefree split takes over
    with deadline(30):
        assert factor_over_Z(parse_poly("X^3-3*X+2")) == [
            RatPoly([-1, 1]), RatPoly([-1, 1]), RatPoly([2, 1])]


# (X - 1)^2 (X + 2) and (X^3 - 2)^2
@pytest.mark.parametrize("f", ["X^3-3*X+2", "X^6-4*X^3+4"])
def test_factor_over_Z_tests_gcd_early(monkeypatch, f):
    # a repeated factor over Q leaves every prime bad: gcd(f, f') is tested
    # after a few bad primes, not after every odd prime below 1000; each
    # prime probed is one call of factor_degrees_mod_p
    calls = []

    def counted(*args):
        calls.append(args)
        return factor_degrees_mod_p(*args)

    monkeypatch.setattr(poly, "factor_degrees_mod_p", counted)
    fac = factor_over_Z(parse_poly(f))
    prod = RatPoly([1])
    for g in fac:
        prod = prod * g
    assert prod == parse_poly(f)
    assert len(calls) <= 6


def test_rational_roots_88_digit_constant(deadline):
    # the 2-division cubic of Mestre's curve at its 29-digit place: no root
    mestre = parse_poly(
        "X^3+450159665238136601765110946424*X^2"
        "+67547908069103736935450181920118872614667896625971285754480*X"
        "+33785937426582404836698734910299264159780833694255505480227816094582"
        "37869580609196793616")
    a, k = 3 * 10 ** 29 + 1, 10 ** 58 + 7
    built = RatPoly([-a, 1]) * RatPoly([k, 0, 1])
    assert len(str(abs(built.coeffs[0].numerator))) == 88
    with deadline(30):
        assert factor_over_Z(mestre) == [mestre]
        assert factor_over_Z(built) == [RatPoly([-a, 1]), RatPoly([k, 0, 1])]


def two_factor_lift(f, factors, p, N):
    """The oracle: the textbook quadratic two-factor lift (von zur Gathen
    and Gerhard, Modern Computer Algebra, Algorithm 15.10) of factors[0]
    against the product of the others, with Bezout cofactors s and t,
    recursing on the cofactor; its last step runs mod p^(2^ceil(log2 N))."""
    mN = p ** N
    f = [c % mN for c in f]
    if len(factors) == 1:
        return [f]
    g = [c % p for c in factors[0]]
    h = [1]
    for other in factors[1:]:
        h = mp_mul(h, other, p)
    s, t = poly._bezout_mod_p(g, h, p)
    k = 1
    while k < N:
        m = p ** (2 * k)
        e = mp_sub([c % m for c in f], mp_mul(g, h, m), m)
        q, r = mp_divmod(mp_mul(s, e, m), h, m)
        g = mp_add(mp_add(g, mp_mul(t, e, m), m), mp_mul(q, g, m), m)
        h = mp_add(h, r, m)
        b = mp_sub(mp_add(mp_mul(s, g, m), mp_mul(t, h, m), m), [1], m)
        c, d = mp_divmod(mp_mul(s, b, m), h, m)
        s = mp_sub(s, d, m)
        t = mp_sub(mp_sub(t, mp_mul(t, b, m), m), mp_mul(c, g, m), m)
        k *= 2
    return ([[c % mN for c in g]]
            + two_factor_lift([c % mN for c in h], factors[1:], p, N))


def lift_inputs(rng, count):
    """(f, factors, p, N): random monic f split into the blocks g^m of its
    factorization mod p, as _factor_mod_pN builds them, and every other
    time an f that splits into distinct linear factors mod p, lifted root
    by root as agl_resolvent_holds does."""
    out = []
    while len(out) < count:
        p = rng.choice([2, 3, 5, 7, 37, 101, 941])
        N = rng.choice([1, 2, 3, 5, 12, 20, 33, 40])
        d = rng.randint(2, 8)
        if len(out) % 2 and d <= p:
            roots = rng.sample(range(p), d)
            f = [1]
            for r in roots:
                f = mp_mul(f, [-r, 1], p ** N)
            f = [c + p * rng.randint(-10 ** 9, 10 ** 9) for c in f[:-1]] + [1]
            out.append((f, [[-r % p, 1] for r in roots], p, N))
            continue
        f = [rng.randint(-10 ** 9, 10 ** 9) for _ in range(d)] + [1]
        blocks = []
        for g, mult in factor_mod_p(f, p):
            blk = [1]
            for _ in range(mult):
                blk = mp_mul(blk, g, p)
            blocks.append(blk)
        out.append((f, blocks, p, N))
    return out


def test_hensel_lift_matches_the_two_factor_oracle():
    for f, factors, p, N in lift_inputs(random.Random(14), 600):
        lifted = hensel_lift_factors(f, factors, p, N)
        assert lifted == two_factor_lift(f, factors, p, N), (f, p, N)
        # the lifts are monic, reduce to the factors and multiply back to f
        prod = [1]
        for g, g0 in zip(lifted, factors):
            assert g[-1] == 1 and [c % p for c in g] == g0
            prod = mp_mul(prod, g, p ** N)
        assert prod == [c % p ** N for c in f]


def test_hensel_lift_stops_at_exactly_p_to_the_N(monkeypatch):
    # the five simple roots of the quintic at 37, lifted to 37^20: no step
    # of the lift works mod a higher power (doubling would reach 37^32)
    moduli = []
    kernel = poly.mp_divmod_monic

    def recorded(a, g, m):
        moduli.append(m)
        return kernel(a, g, m)

    monkeypatch.setattr(poly, "mp_divmod_monic", recorded)
    roots = [4, 8, 12, 16, 18]
    lifted = hensel_lift_factors([1, 178, 817, -274, 16, 1],
                                 [[-r % 37, 1] for r in roots], 37, 20)
    assert max(moduli) == 37 ** 20
    assert [-g[0] % 37 for g in lifted] == roots


def test_hensel_lift_roundtrip():
    f = [c % 7 ** 12 for c in [1, 178, 817, -274, 16, 1]]
    red = factor_mod_p(fp_poly(QUINTIC, 7), 7)
    parts = [g for g, _ in red]
    assert all(m == 1 for _, m in red)
    lifted = hensel_lift_factors(f, parts, 7, 12)
    prod = [1]
    for g in lifted:
        prod = mp_mul(prod, g, 7 ** 12)
    assert prod == f
    for g, g0 in zip(lifted, parts):
        assert [c % 7 for c in g] == g0


# ---------------------------------------------------------------------------
# local splitting types


def split(f, p):
    """The pieces of f over Q_p, from its factors over Q."""
    return local_splitting_type(factor_over_Z(f), p)


def splits_completely(st_) -> bool:
    return all(fc.degree == 1 for fc in st_)


def test_split_941_totally_ramified():
    st_ = split(QUINTIC, 941)
    assert len(st_) == 1
    assert (st_[0].e, st_[0].f) == (5, 1)


def test_split_2_inert():
    st_ = split(QUINTIC, 2)
    assert len(st_) == 1
    fac = st_[0]
    assert (fac.e, fac.f) == (1, 5)
    assert all(fc.e == 1 for fc in st_)
    assert not splits_completely(st_)


def test_split_191_fully_split():
    st_ = split(QUINTIC, 191)
    assert splits_completely(st_)
    assert len(st_) == 5
    roots = sorted(f.root_mod(191) for f in st_)
    assert roots == [5, 6, 37, 159, 159]
    deep = sorted(f.root_mod(191 ** 2) for f in st_
                  if f.root_mod(191) == 159)
    assert deep[0] != deep[1]  # the double root separates at the next digit
    # resolution recorded: the side of the (X - 159)^2 block it came from,
    # and the coordinate X = 159 + 191 Z where its root is a unit
    for fac in st_:
        if fac.root_mod(191) == 159:
            assert fac.note == "(X + 32)^2 at p = 191: side of slope 1/1"
            assert (fac.shift % 191, fac.scale) == (159, 1)


def test_split_37_completely():
    st_ = split(QUINTIC, 37)
    assert splits_completely(st_)
    assert sorted(f.root_mod(37) for f in st_) == [4, 8, 12, 16, 18]


def test_split_quadratic_at_2():
    st_ = split(parse_poly("X^2-X+6"), 2)
    assert splits_completely(st_)  # disc = -23 = 1 mod 8


def test_split_shifted_inert_cubic():
    # X^3 - 75X + 125 over Q_5: roots 5*z with z^3 - 3z + 1 inert mod 5
    st_ = split(parse_poly("X^3-75*X+125"), 5)
    assert len(st_) == 1
    assert (st_[0].e, st_[0].f) == (1, 3)
    assert all(fc.e == 1 for fc in st_)


def test_split_totally_ramified_shifted():
    # 23-curve cubic: X^3 - 529X + 12167 = 23^3 (z^3 - z + 1), z-cubic has
    # a double root mod 23 resolving into linear x ramified quadratic
    st_ = split(parse_poly("X^3-529*X+12167"), 23)
    kinds = sorted((f.e, f.f) for f in st_)
    assert kinds == [(1, 1), (2, 1)]


def test_split_good_prime_matches_mod_p():
    for p in (7, 11, 13, 37, 73):
        st_ = split(QUINTIC, p)
        fac = factor_mod_p(fp_poly(QUINTIC, p), p)
        assert sorted(f.f for f in st_) == sorted(len(g) - 1
                                                          for g, _ in fac)
        assert all(f.e == 1 for f in st_)


def test_split_structural_invariant():
    # an unresolved block raises UnresolvedSplitting; none is left here
    for p in (2, 3, 5, 23, 37, 191, 941):
        st_ = split(QUINTIC, p)
        assert sum(fc.degree for fc in st_) == 5


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


def test_split_sweep_invariants():
    # on every pair that resolves: the pieces multiply to f mod p^N, the
    # degrees e*f add up, the factor in Z is irreducible mod p for e = 1
    # and gives the factor in X, and when every piece is tame
    # v_p(disc f) - sum f(e - 1) is twice the valuation of the index
    pairs = sweep_pairs(8)
    unresolved = 0
    for f, disc, p in pairs:
        try:
            st_ = split(f, p)
        except UnresolvedSplitting as exc:
            # the message names the block, p and the step
            assert re.match(rf"\(.+\)\^\d+ at p = {p}: .+", str(exc)), str(exc)
            unresolved += 1
            continue
        m = p ** min(fc.prec for fc in st_)
        prod = [1]
        for fc in st_:
            prod = mp_mul(prod, list(fc.lift), m)
        assert prod == [int(c) % m for c in f.coeffs], (f, p)
        assert sum(fc.e * fc.f for fc in st_) == f.degree
        for fc in st_:
            mz = p ** fc.prec
            deg = fc.degree
            x_at_z = mp_shift(list(fc.lift), fc.shift, mz)
            assert x_at_z == [c * p ** (fc.scale * (deg - i)) % mz
                              for i, c in enumerate(fc.zlift)], (f, p)
            if fc.e == 1:
                [(g, mult)] = factor_mod_p(fc.zlift, p)
                assert (len(g) - 1, mult) == (fc.f, 1), (f, p)
        if all(fc.e % p for fc in st_):
            r = valuation(disc, p) - sum(fc.f * (fc.e - 1)
                                         for fc in st_)
            assert r >= 0 and r % 2 == 0, (f, p)
    assert unresolved <= len(pairs) // 100


def test_lazy_lifts_match_eager_lifts():
    # a seeded slice of the sweep: a simple piece, at the top or inside a
    # rescaled block, keeps its factor mod p until asked; then its zlift is
    # what hensel_lift_factors gives when it lifts every factor of `whole`
    # mod p at once, as an eager split does, it divides `whole` mod p^prec,
    # and its lift is the factor in X; the order of the pieces is the one
    # sorted with every lift read first
    simple = rescaled = 0
    for f, disc, p in sweep_pairs(8):
        try:
            st_ = split(f, p)
        except UnresolvedSplitting:
            continue
        for fc in st_:
            if not fc.whole:
                continue
            simple += 1
            rescaled += fc.scale > 0
            whole = list(fc.whole)
            fac = factor_mod_p(whole, p)
            blocks = []
            for h, mult in fac:
                blk = [1]
                for _ in range(mult):
                    blk = mp_mul(blk, h, p)
                blocks.append(blk)
            eager = hensel_lift_factors(whole, blocks, p, fc.prec)
            [want] = [g for g, (h, mult) in zip(eager, fac)
                      if (h, mult) == (list(fc.known), 1)]
            assert fc.zlift == tuple(want), (f, p)
            m = p ** fc.prec
            assert mp_divmod(whole, list(fc.zlift), m)[1] == [], (f, p)
            deg = fc.degree
            assert fc.lift == tuple(mp_shift(
                [c * p ** (fc.scale * (deg - i)) for i, c in
                 enumerate(fc.zlift)], -fc.shift, m)), (f, p)
            assert fc.residue == tuple(c % p for c in fc.lift), (f, p)
        kmin = p ** min(fc.prec for fc in st_)
        assert st_ == tuple(sorted(st_, key=lambda fc: (
            fc.degree, fc.e, fc.root_mod(p) if fc.degree == 1 else -1,
            tuple(c % p for c in fc.lift),
            tuple(c % kmin for c in fc.lift)))), (f, p)
    assert simple > 1000 and rescaled > 10, (simple, rescaled)


def test_residues_and_order_need_no_lift(monkeypatch):
    # the Example II quintic splits at 37 into five simple linear pieces:
    # splitting, ordering and the roots mod p lift none of them.  X^2 + 3 =
    # (X + 1)^2 mod 2 lifts its block, and its one piece, a simple piece
    # found at scale 1, has residue (X - shift)^2 mod 2 with no lift of its
    # own
    calls = []
    lift = poly.hensel_lift_factors
    monkeypatch.setattr(poly, "hensel_lift_factors",
                        lambda *args: calls.append(args) or lift(*args))
    st_ = split(QUINTIC, 37)
    assert [fc.root_mod(37) for fc in st_] == [4, 8, 12, 16, 18]
    assert [fc.residue for fc in st_] == [(-r % 37, 1)
                                          for r in (4, 8, 12, 16, 18)]
    assert calls == []
    (fc,) = split(parse_poly("X^2+3"), 2)
    assert (fc.e, fc.f, fc.shift, fc.scale) == (1, 2, 1, 1) and fc.whole
    assert fc.residue == (1, 0, 1) and len(calls) == 1
    assert fc.lift == (3, 0, 1) and len(calls) == 2


@pytest.mark.parametrize("f, p, kinds", [
    # a repeated non-linear factor mod 2: one side of slope 1/2
    ("X^5-6*X^4+9*X^3+4*X^2+X+4", 2, [(1, 1), (2, 2)]),
    # two sides of the fractional slopes 1/2 and 1/3
    ("X^5-4*X^4+2*X^3+10*X^2-12*X+12", 2, [(2, 1), (3, 1)]),
    # an inert quadratic block whose lift is X^2 mod 2
    ("X^5+5*X^4+9*X^3+7*X^2-2*X+12", 2, [(1, 1), (1, 1), (1, 1), (1, 2)]),
    ("X^5-X+8", 2, [(1, 1), (1, 2), (2, 1)]),
    ("X^5+X^4+X^3+8", 2, [(1, 1), (1, 2), (1, 2)]),
])
def test_split_blocks_that_once_failed(f, p, kinds):
    st_ = split(parse_poly(f), p)
    assert sorted((fc.e, fc.f) for fc in st_) == kinds


@pytest.mark.parametrize("coeffs, step", [
    ([12, -8, 8, -10, 3, 1], "(X)^4 at p = 2: side of slope 1/2: the "
     "residual polynomial has a repeated factor; order 2 is needed"),
    ([4, 9, 12, 1, 12, 1], "(X^2 + X + 1)^2 at p = 2: the Newton polygon "
     "of the non-linear phi has 2 sides"),
    ([3, -1, 9, 3, 7, 1], "(X^2 + X + 1)^2 at p = 2: residual polynomial "
     "of degree 2 over F_(2^2)"),
])
def test_split_names_the_step_order_one_cannot_take(coeffs, step):
    with pytest.raises(UnresolvedSplitting, match=re.escape(step)):
        split(RatPoly(coeffs), 2)


def test_split_doubles_precision_for_close_roots():
    # the roots +-2^20 sqrt(17) lie on one side of slope 20: rescaling it
    # costs 40 digits, so N doubles from HENSEL_START until they are there
    st_ = split(RatPoly([-17 * 2 ** 40, 0, 1]), 2)
    assert splits_completely(st_)
    assert max(fc.prec for fc in st_) > HENSEL_START


def test_factor_mod_p_repeated_linear_factors_at_9973():
    # (X + 3)^2 (X - 3)^3 (X^2 + 5): multiplicities from the squarefree
    # decomposition, linear factors from distinct-degree splitting
    p = 9973
    f = [1]
    for g, k in (([3, 1], 2), ([p - 3, 1], 3), ([5, 0, 1], 1)):
        for _ in range(k):
            f = mp_mul(f, g, p)
    assert factor_mod_p(f, p) == [
        ([3, 1], 2), ([p - 3, 1], 3), ([5, 0, 1], 1)]


def test_split_rejects_nonmonic():
    with pytest.raises(ValueError):
        local_splitting_type([RatPoly([1, 2]), RatPoly([3, 1])], 5)
    with pytest.raises(ValueError):
        local_splitting_type([RatPoly([Fraction(1, 2), 0, 1])], 5)


# (X - 1)^2 (X + 2), X (X^2 + 1)^2 and (X^3 - 2)^2
@pytest.mark.parametrize("f", ["X^3-3*X+2", "X^5+2*X^3+X", "X^6-4*X^3+4"])
def test_split_rejects_repeated_factors(f):
    with pytest.raises(ValueError, match="not separable"):
        split(parse_poly(f), 3)
