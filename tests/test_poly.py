import itertools
import math
import random
import re
import time
from fractions import Fraction

import distinct_degree_oracle
import pytest
import ratpoly_oracle as oracle
import yun_oracle
from gap_counts import sweep_pairs
from hypothesis import given, settings, strategies as st

from qdescent import poly
from qdescent.arith import factor_integer, is_prime, valuation
from qdescent.localfields import _norm_mod
from qdescent.poly import (HENSEL_START, RatPoly, UnresolvedSplitting,
                           discriminant, distinct_degree_shape, factor_mod_p,
                           factor_over_Z, hensel_lift_factors,
                           local_splitting_type, monic_integral, mp_add,
                           mp_divmod_monic, mp_gcd, mp_mul, mp_mulmod,
                           mp_pow_mod, mp_scal, mp_shift, mp_sub, mp_trim,
                           parse_poly, split_primes)

QUINTIC = parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1")
# X^3 - 11X^2 + 5X - 10 = (X + 2)(X + 1)^2 mod 3
B_CUBIC = parse_poly("X^3-11*X^2+5*X-10")


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
        discriminant(f) * discriminant(g) * sylvester_det_over_Q(f, g) ** 2


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


def test_discriminant_matches_the_fraction_oracle():
    # degree 0 to 8, non-integral, leading coefficient often negative
    rng = random.Random(1507)
    for _ in range(300):
        f = random_rational_poly(rng, rng.randint(0, 8))
        g = random_rational_poly(rng, rng.randint(0, 8))
        for q in (f, g):
            if q.degree < 1:
                with pytest.raises(ValueError):
                    discriminant(q)
                continue
            sign = -1 if q.degree * (q.degree - 1) // 2 % 2 else 1
            assert discriminant(q) == \
                sign * sylvester_det_over_Q(q, q.deriv()) / q.coeffs[-1]
        # a square factor makes the discriminant vanish
        h = random_rational_poly(rng, rng.randint(1, 2))
        if (f * h * h).degree <= 8:
            assert discriminant(f * h * h) == 0


def test_discriminant_takes_one_n_by_n_determinant(monkeypatch):
    # the n x n Bezout matrix, not the (2n - 1) x (2n - 1) Sylvester one
    sizes, bareiss_det = [], poly._bareiss_det

    def spy(rows):
        sizes.append(len(rows))
        return bareiss_det(rows)

    monkeypatch.setattr(poly, "_bareiss_det", spy)
    rng = random.Random(27)
    for n in range(2, 9):
        sizes.clear()
        discriminant(random_rational_poly(rng, n))
        assert sizes == [n]


NONZERO = RATIONALS.filter(bool)


@given(st.lists(RATIONALS, min_size=1, max_size=8), NONZERO, NONZERO)
@settings(max_examples=60)
def test_discriminant_scales_as_a_form(cs, lead, c):
    # disc(c f) = c^(2n-2) disc(f), for every degree n = 1, ..., 8
    f = RatPoly(cs + [lead])
    n = f.degree
    assert discriminant(c * f) == c ** (2 * n - 2) * discriminant(f)


@given(st.lists(RATIONALS, min_size=1, max_size=8), NONZERO, NONZERO,
       RATIONALS)
@settings(max_examples=60)
def test_discriminant_under_a_linear_substitution(cs, lead, a, b):
    # disc(f(aX + b)) = a^(n(n-1)) disc(f): the roots move to (r - b)/a
    f = RatPoly(cs + [lead])
    n = f.degree
    assert discriminant(f.compose_linear(a, b)) == \
        a ** (n * (n - 1)) * discriminant(f)


@given(RATIONALS, NONZERO)
def test_discriminant_of_a_linear_polynomial_and_of_a_constant(b, a):
    assert discriminant(RatPoly([b, a])) == 1
    with pytest.raises(ValueError):
        discriminant(RatPoly([a]))
    with pytest.raises(ValueError):
        discriminant(RatPoly([]))


def test_norm_mod_matches_the_fraction_oracle():
    # the norm of a in Z/m[t]/h, h monic, is Res(h, a) reduced mod m
    rng = random.Random(443)
    for _ in range(500):
        h = [rng.randint(-40, 40) for _ in range(rng.randint(1, 8))] + [1]
        a = [rng.randint(-40, 40) for _ in range(rng.randint(0, 10))]
        m = rng.choice((2, 3, 5, 7, 101)) ** rng.randint(1, 20)
        want = sylvester_det_over_Q(RatPoly(h), RatPoly(a))
        assert _norm_mod(h, a, m) == int(want) % m, (h, a, m)


def test_distinct_degree_shape_reads_factor_mod_p():
    # wherever a monic a is squarefree mod p, its shape is the ascending
    # degrees of the factors factor_mod_p finds
    rng = random.Random(101)
    polys = [[1, 0, 0, 0, 1], [1, 1, 1], [2, 0, 0, 1]]  # X^4 + 1, ...
    polys += [[rng.randint(-50, 50) for _ in range(rng.randint(1, 8))] + [1]
              for _ in range(120)]
    seen = set()
    for p in (2, 3, 5, 7, 101):
        for a in polys:
            fac = factor_mod_p(a, p)
            squarefree = all(mult == 1 for _, mult in fac)
            if squarefree:
                assert distinct_degree_shape([c % p for c in a], p) \
                    == tuple(sorted(len(g) - 1 for g, _ in fac)), (a, p)
            seen.add(squarefree)
    assert seen == {True, False}
    assert distinct_degree_shape([1, 0, 0, 0, 1], 3) == (2, 2)


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


def oracle_pairs(rng, count):
    """count pairs (f, g) over Q of degree -1 (the zero polynomial) to 8:
    constants, negative leads, non-integral and non-monic polynomials, and
    g of higher degree than f about half the time."""
    for _ in range(count):
        yield tuple(random_rational_poly(rng, d) if d >= 0 else RatPoly([])
                    for d in (rng.randint(-1, 8), rng.randint(-1, 8)))


def random_rational(rng):
    return rng.choice([rng.randint(-7, 7),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 12))])


def test_ratpoly_arithmetic_matches_the_fraction_oracle():
    rng = random.Random(2901)
    for f, g in oracle_pairs(rng, 1500):
        a, b = list(f.coeffs), list(g.coeffs)
        x, s, t = (random_rational(rng) for _ in range(3))
        assert repr(f) == oracle.render(a)
        assert list((f + g).coeffs) == oracle.add(a, b), (f, g)
        assert list((f - g).coeffs) == oracle.sub(a, b), (f, g)
        assert list((f * g).coeffs) == oracle.mul(a, b), (f, g)
        assert list((f * f).coeffs) == oracle.mul(a, a), f
        assert list(f.deriv().coeffs) == oracle.deriv(a), f
        assert f.eval(x) == oracle.evaluate(a, x), (f, x)
        assert list(f.compose_linear(s, t).coeffs) \
            == oracle.compose_linear(a, s, t), (f, s, t)
        if f.is_zero():
            with pytest.raises(ValueError):
                f.monic()
        else:
            assert list(f.monic().coeffs) == oracle.monic(a), f
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                f.divmod(g)
        else:
            q, r = f.divmod(g)
            assert (list(q.coeffs), list(r.coeffs)) \
                == oracle.divmod_(a, b), (f, g)


def test_printed_polynomials_read_back():
    # every term after its sign, so that parse_poly reads the text back:
    # the seeded pairs of the fraction oracle test, their negatives, and a
    # septic with negative coefficients
    for f, g in oracle_pairs(random.Random(2901), 1500):
        for h in (f, g, -f):
            assert parse_poly(repr(h)) == h, repr(h)
    septic = RatPoly([1, 4, -1, 5, -2, 3, 0, 1])
    assert repr(septic) == "X^7 + 3*X^5 - 2*X^4 + 5*X^3 - X^2 + 4*X + 1"
    assert repr(RatPoly(["-1/2", 0, -3])) == "-3*X^2 - 1/2"
    assert repr(-septic).startswith("-X^7 - 3*X^5 + 2*X^4")


def assert_one_form(f):
    assert type(f.num) is tuple and all(type(c) is int for c in f.num)
    assert f.num[-1:] != (0,) and f.den > 0
    assert math.gcd(f.den, *f.num) == 1, f


def test_ratpoly_keeps_one_form():
    # den > 0, gcd(den, *num) = 1 and no trailing zero, after every
    # operation; equal inputs as ints, Fractions or strings give equal
    # (num, den) and equal hashes
    rng = random.Random(2902)
    for f, g in oracle_pairs(rng, 400):
        s, t = random_rational(rng), random_rational(rng)
        made = [f, g, f + g, f - g, f * g, -f, f.deriv(),
                f.compose_linear(s, t), f + s]
        made += [] if g.is_zero() else [*f.divmod(g), g.monic()]
        for h in made:
            assert_one_form(h)
        forms = [list(f.coeffs) + [0], [str(c) for c in f.coeffs] + ["0/3"]]
        if f.is_integral():
            forms.append([int(c) for c in f.coeffs])
        for cs in forms:
            h = RatPoly(cs)
            assert (h.num, h.den) == (f.num, f.den) and hash(h) == hash(f)
    zero = RatPoly([0, Fraction(0, 5), "0"])
    assert (zero.num, zero.den) == ((), 1) and zero == RatPoly([])
    half = RatPoly(["1/2", Fraction(3, 4), 2])
    assert (half.num, half.den) == ((2, 3, 8), 4)


def test_factor_mod_p_quintic_37():
    fac = factor_mod_p(QUINTIC.num, 37)
    assert all(m == 1 and len(g) == 2 for g, m in fac)
    roots = sorted(-g[0] % 37 for g, _ in fac)
    assert roots == [4, 8, 12, 16, 18]
    # the roots mod p are the linear factors: five at 73, none of X^2 + 1
    # at 3
    fac = factor_mod_p(QUINTIC.num, 73)
    assert sorted(-g[0] % 73 for g, _ in fac if len(g) == 2) == \
        sorted(x % 73 for x in (-26, -19, -2, 13, 18))
    assert factor_mod_p([1, 0, 1], 3) == [([1, 0, 1], 1)]


def test_factor_mod_p_quintic_191():
    fac = factor_mod_p(QUINTIC.num, 191)
    by_mult = sorted((-g[0] % 191, m) for g, m in fac if len(g) == 2)
    assert by_mult == [(5, 1), (6, 1), (37, 1), (159, 2)]


def test_factor_mod_2():
    fac = factor_mod_p([1, 0, 1], 2)  # X^2 + 1 = (X+1)^2
    assert fac == [([1, 1], 2)]


def test_factor_mod_p_reconstructs():
    for p in (2, 3, 5, 37, 191):
        fac = factor_mod_p(QUINTIC.num, p)
        prod = [1]
        for g, m in fac:
            for _ in range(m):
                prod = mp_mul(prod, g, p)
        assert prod == [c % p for c in [1, 178, 817, -274, 16, 1]]


def reduced_mod_p(a, p):
    """The coefficients of a mod p, trimmed."""
    a = [c % p for c in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def rem_mod_p(a, b, p):
    """The oracle: a rem b over F_p by schoolbook long division, for b with
    a nonzero leading coefficient."""
    a, inv = reduced_mod_p(a, p), pow(b[-1], -1, p)
    while len(a) >= len(b):
        c, s = a[-1] * inv % p, len(a) - len(b)
        for i, y in enumerate(b):
            a[s + i] = (a[s + i] - c * y) % p
        a = reduced_mod_p(a, p)
    return a


def euclid_gcd(a, b, p):
    """The oracle: the monic gcd over F_p by plain Euclid."""
    a, b = reduced_mod_p(a, p), reduced_mod_p(b, p)
    while b:
        a, b = b, rem_mod_p(a, b, p)
    return [c * pow(a[-1], -1, p) % p for c in a] if a else a


def test_mp_pow_mod_is_repeated_mulmod():
    # a^n rem g for n = 0..40, against n products by a starting from 1, for
    # a = X and for random a (unreduced, of any degree), mod primes and
    # prime powers
    rng = random.Random(2201)
    for m in (2, 3, 7, 101, 2 ** 61 - 1, 2 ** 10, 3 ** 5, 5 ** 4, 7 ** 20):
        for _ in range(6):
            g = [rng.randrange(-m, m) for _ in range(rng.randint(1, 7))] + [1]
            for a in ([0, 1], [rng.randrange(-2 * m, 2 * m)
                               for _ in range(rng.randint(0, 10))]):
                power = [1]
                for n in range(41):
                    assert mp_pow_mod(a, n, g, m) == power, (a, n, g, m)
                    power = mp_mulmod(power, a, g, m)


def test_inverse_mod_p_inverts_and_names_a_common_factor():
    rng = random.Random(26)
    for p in (2, 3, 5, 101, 2 ** 61 - 1):
        done = 0
        while done < 30:
            g = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
            a = [rng.randrange(-p, 2 * p) for _ in range(rng.randint(1, 9))]
            if mp_gcd(a, g, p) != [1]:
                with pytest.raises(ValueError):
                    poly._inverse_mod_p(a, g, p)
                continue
            inv = poly._inverse_mod_p(a, g, p)
            assert len(inv) < len(g), (a, g, p)
            assert mp_mulmod(a, inv, g, p) == [1], (a, g, p)
            done += 1
        # a and g that share a monic factor h mod p
        h = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
        a = mp_mul(h, [rng.randrange(1, p) for _ in range(3)], p)
        g = mp_mul(h, [rng.randrange(p) for _ in range(2)] + [1], p)
        with pytest.raises(ValueError):
            poly._inverse_mod_p(a, g, p)


def test_mp_gcd_matches_plain_euclid():
    rng = random.Random(2202)
    for p in (2, 3, 5, 7, 13, 101, 9973, 2 ** 61 - 1):
        for _ in range(40):
            common = [rng.randrange(p) for _ in range(rng.randint(0, 3))]
            common.append(rng.randrange(1, p))
            a, b = (mp_mul([rng.randrange(p)
                            for _ in range(rng.randint(0, 6))], common, p)
                     for _ in range(2))
            a = [c + p * rng.randint(-3, 3) for c in a]  # unreduced
            got = mp_gcd(a, b, p)
            assert got == euclid_gcd(a, b, p), (a, b, p)
            assert not got or got[-1] == 1
        for _ in range(40):
            # a divisor that is not monic and not reduced, of any degree,
            # with multiples of p on top that reduce away
            common = [rng.randrange(p) for _ in range(rng.randint(0, 3))]
            common.append(rng.randrange(1, p))
            a, b = (mp_mul([rng.randrange(p)
                            for _ in range(rng.randint(0, 6))], common, p)
                     for _ in range(2))
            scale = rng.randrange(1, p)
            b = [c * scale + p * rng.randint(-3, 3) for c in b]
            b += [p * rng.randint(-2, 2) for _ in range(rng.randint(0, 2))]
            got = mp_gcd(a, b, p)
            assert got == euclid_gcd(a, b, p), (a, b, p)
            assert got == mp_gcd(b, a, p), (a, b, p)
    assert mp_gcd([], [], 5) == []
    assert mp_gcd([0, 3], [], 5) == [0, 1]


def small_prime_inputs(rng):
    """80 seeded a at each of p = 2, 3, 5, 7, some with a repeated factor:
    every root split takes the evaluation route."""
    for p in (2, 3, 5, 7):
        for _ in range(80):
            degree = rng.randint(1, 8 if p < 5 else 6)
            a = [rng.randrange(p) for _ in range(degree)]
            a.append(rng.randrange(1, p))
            if rng.random() < 0.3:  # a repeated factor
                a = mp_mul(a, mp_mul(a[:2] + [1], a[:2] + [1], p), p)
            yield a, p


def linear_products(rng, primes, count):
    """count seeded a at each p of primes: a nonzero constant times 1 to 8
    distinct linear factors, so that every factor comes from a root
    split."""
    for p in primes:
        for _ in range(count):
            a = [rng.randrange(1, p)]
            for r in rng.sample(range(p), rng.randint(1, 8)):
                a = mp_mul(a, [-r, 1], p)
            yield a, p


def test_factor_mod_p_factors_are_irreducible_and_multiply_back():
    # seeded (a, p): the factors, with multiplicity, multiply back to
    # monic(a), and no monic polynomial of degree 1..deg/2 divides a
    # factor.  The products of linear factors at p = 509 take the
    # evaluation route, those at 521, 1031 and 9973 Cantor-Zassenhaus.
    cases = itertools.chain(small_prime_inputs(random.Random(2203)),
                            linear_products(random.Random(3202),
                                            (509, 521, 1031, 9973), 30))
    for a, p in cases:
        fac = factor_mod_p(a, p)
        prod = [1]
        for g, mult in fac:
            assert g[-1] == 1
            d = len(g) - 1
            for e in range(1, d // 2 + 1):
                for low in itertools.product(range(p), repeat=e):
                    assert rem_mod_p(g, [*low, 1], p), (g, low, p)
            for _ in range(mult):
                prod = mp_mul(prod, g, p)
        inv = pow(a[-1], -1, p)
        assert prod == [c * inv % p for c in a], (a, p)


def test_root_routes_agree_at_the_cutoff(monkeypatch):
    # seeded (a, p) with p or p*deg just below and just above
    # ROOT_EVAL_BOUND: evaluation at every residue and X^p with a gcd and
    # Cantor-Zassenhaus give the same factorization, and the same shape in
    # distinct-degree factoring.  By default a product of distinct linear
    # factors is split by evaluation below the bound, with no seeded
    # generator built, and by Cantor-Zassenhaus at or above it, with one
    built = []

    class Counted(random.Random):
        def __init__(self, seed):
            built.append(seed)
            super().__init__(seed)

    bound, rng = poly.ROOT_EVAL_BOUND, random.Random(3203)
    monkeypatch.setattr(poly.random, "Random", Counted)
    near = (499, 503, 509, 521, 523, 541)
    assert max(near[:3]) < bound <= min(near[3:])
    cases = list(linear_products(rng, near, 25))
    for a, p in cases:
        del built[:]
        fac = factor_mod_p(a, p)
        assert built == ([] if p < bound or len(fac) == 1
                         else [poly.FACTOR_SEED]), (a, p)
    for p in near:
        for _ in range(25):  # any a, with a root or two more often
            a = [rng.randrange(p) for _ in range(rng.randint(1, 7))]
            a.append(rng.randrange(1, p))
            if rng.random() < 0.5:
                a = mp_mul(a, [rng.randrange(p), 1], p)
            cases.append((a, p))
    # the linear stage of distinct-degree factoring: degree 5 to 9, so that
    # p*deg falls on both sides of the bound
    for p in (53, 59, 61, 67, 71, 73):
        for _ in range(15):
            a = [rng.randrange(p) for _ in range(rng.randint(5, 7))]
            a.append(rng.randrange(1, p))
            for _ in range(rng.randint(0, 2)):
                a = mp_mul(a, [rng.randrange(p), 1], p)
            cases.append((a, p))
    assert {len(a) - 1 < bound / p for a, p in cases[-90:]} == {True, False}
    for a, p in cases:
        got = factor_mod_p(a, p)
        monic = [c * pow(a[-1], -1, p) % p for c in a]
        simple = all(mult == 1 for _, mult in got)
        shape = distinct_degree_shape(monic, p) if simple else None
        # all by gcd and Cantor-Zassenhaus, then all by evaluation
        for route in (0, 10 ** 6):
            monkeypatch.setattr(poly, "ROOT_EVAL_BOUND", route)
            assert factor_mod_p(a, p) == got, (a, p, route)
            if simple:
                assert distinct_degree_shape(monic, p) == shape, (a, p, route)
        monkeypatch.setattr(poly, "ROOT_EVAL_BOUND", bound)


def has_root(a, p):
    return any(sum(c * r ** i for i, c in enumerate(a)) % p == 0
               for r in range(p))


def distinct_degree_family(rng):
    """40 seeded (a, p) at each (p, deg) below, p*deg on both sides of
    ROOT_EVAL_BOUND and p = 2 at degree 8 among them, a monic of degree
    deg in four kinds in turn: random, with one to three roots, with no
    root, and with a repeated factor."""
    pairs = [(2, 8), (2, 5), (3, 8), (5, 7), (13, 8), (31, 8), (61, 8),
             (67, 8), (73, 7), (101, 5), (103, 5), (127, 4), (131, 4),
             (167, 3), (173, 3), (251, 2), (257, 2), (499, 1), (521, 1),
             (1031, 3)]
    for p, deg in pairs:
        for kind in range(40):
            kind %= 4
            if kind == 3 and deg >= 2:
                e = rng.randint(1, deg // 2)
                h = [rng.randrange(p) for _ in range(e)] + [1]
                a = mp_mul(mp_mul(h, h, p), [rng.randrange(p) for _ in
                                             range(deg - 2 * e)] + [1], p)
            else:
                roots = rng.randint(1, min(3, deg)) if kind == 1 else 0
                while True:
                    a = [rng.randrange(p) for _ in range(deg - roots)] + [1]
                    if kind != 2 or deg == 1 or not has_root(a, p):
                        break
                for _ in range(roots):
                    a = mp_mul(a, [rng.randrange(p), 1], p)
            yield a, p


def test_distinct_degree_matches_the_gcd_route():
    # factor_mod_p and distinct_degree_shape agree with the gcd route at
    # every degree, d = 1 included (distinct_degree_oracle), on both sides
    # of the bound, with and without roots and with and without a repeated
    # factor
    seen = set()
    for a, p in distinct_degree_family(random.Random(3401)):
        fac = factor_mod_p(a, p)
        assert fac == distinct_degree_oracle.factor_mod_p(a, p), (a, p)
        simple = all(mult == 1 for _, mult in fac)
        if simple:
            assert distinct_degree_shape(a, p) == \
                distinct_degree_oracle.distinct_degree_shape(a, p), (a, p)
        seen.add((p * (len(a) - 1) < poly.ROOT_EVAL_BOUND, has_root(a, p),
                  simple))
    assert len(seen) == 8


def repeated_factor_family(rng, count):
    """count seeded (a, p), p = 2 a quarter of the time, 3 a quarter and
    else an odd prime to 257, so that p*deg falls on both sides of
    ROOT_EVAL_BOUND: a is a product of one to four monic factors of degree
    1 to 3, each repeated one to three times, of degree at most 8; one in
    eight is h^p, times a factor of degree 0 to 2, so that a' = 0 or a has
    a p-th power part.  Each a is scaled by a unit and lifted off [0, p)."""
    primes = [q for q in range(5, 258) if is_prime(q)]
    made = 0
    while made < count:
        p = rng.choice([2, 3, rng.choice(primes), rng.choice(primes)])
        if made % 8 == 0 and p <= 7:
            h = [rng.randrange(p) for _ in range(rng.randint(1, 8 // p))]
            a = [1]
            for _ in range(p):
                a = mp_mul(a, h + [1], p)
            a = mp_mul(a, [rng.randrange(p) for _ in range(rng.randint(0, 2))]
                       + [1], p)
        else:
            a = [1]
            for _ in range(rng.randint(1, 4)):
                h = [rng.randrange(p) for _ in range(rng.randint(1, 3))] + [1]
                for _ in range(rng.randint(1, 3)):
                    a = mp_mul(a, h, p)
        if len(a) - 1 > 8:
            continue
        unit = rng.randrange(1, p)
        yield [c * unit % p + p * rng.randint(-2, 2) for c in a], p
        made += 1


def test_factor_mod_p_matches_the_yun_route():
    # roots and multiplicities from one evaluation and exact divisions by
    # X - r, the root-free cofactor taken as it is up to degree 3: the same
    # list, in the same order, as Yun's squarefree decomposition first
    # (yun_oracle), on 7000 seeded inputs, 5000 or more with a repeated
    # factor
    assert factor_mod_p([1, 0, 1, 0, 1], 2) == [([1, 1, 1], 2)]
    assert factor_mod_p([1, 0, 2, 0, 1], 3) == [([1, 0, 1], 2)]
    assert factor_mod_p([1, 0, 0, 1], 3) == [([1, 1], 3)]
    seen = {"p=2": 0, "p=3": 0, "repeated": 0, "a'=0": 0, "below": 0,
            "above": 0, "cofactor >= 4": 0}
    for a, p in repeated_factor_family(random.Random(3601), 7000):
        fac = factor_mod_p(a, p)
        assert fac == yun_oracle.factor_mod_p(a, p), (a, p)
        monic = mp_scal(a, pow(a[-1], -1, p), p)
        below = p * (len(monic) - 1) < poly.ROOT_EVAL_BOUND
        seen["p=2"] += p == 2
        seen["p=3"] += p == 3
        seen["repeated"] += any(mult > 1 for _, mult in fac)
        seen["a'=0"] += not poly.mp_deriv(monic, p)
        seen["below" if below else "above"] += 1
        seen["cofactor >= 4"] += below and sum(
            (len(g) - 1) * mult for g, mult in fac if len(g) > 2) >= 4
    assert seen["p=2"] >= 1000 and seen["p=3"] >= 1000, seen
    assert seen["repeated"] >= 5000 and seen["a'=0"] >= 200, seen
    assert seen["above"] >= 500 and seen["cofactor >= 4"] >= 200, seen


def test_small_p_reads_the_roots_with_no_gcd(monkeypatch):
    # below the bound the degree-1 stage takes no power X^p and no gcd: the
    # first power is X^(p^2), each gcd belongs to a degree d >= 2, and a
    # squarefree a of degree 3 or less takes neither.  Above the bound the
    # first power of an a of degree 2 or more is X^p.  Below the bound
    # factor_mod_p evaluates every a once, squarefree or not, its root-free
    # cofactor of degree 4 or more included, and an a whose root-free
    # cofactor has degree 3 or less takes no gcd, repeated roots included
    family = [(a, p) for a, p in distinct_degree_family(random.Random(3402))
              if all(mult == 1 for _, mult in factor_mod_p(a, p))]
    calls = []

    def spy(name):
        real = getattr(poly, name)

        def counted(*args):
            calls.append((name, args))
            return real(*args)
        monkeypatch.setattr(poly, name, counted)

    spy("mp_gcd")
    spy("mp_pow_mod")
    below = []
    for a, p in family:
        del calls[:]
        distinct_degree_shape(a, p)
        powers = [args[1] for name, args in calls if name == "mp_pow_mod"]
        gcds = sum(name == "mp_gcd" for name, _ in calls)
        assert gcds == len(powers), (a, p)
        if p * (len(a) - 1) >= poly.ROOT_EVAL_BOUND:
            assert powers[:1] == ([p] if len(a) > 2 else []), (a, p)
            continue
        below.append((a, p))
        assert powers[:1] in ([], [p * p]), (a, p)
        assert powers[1:] == [p] * (len(powers) - 1), (a, p)
        if len(a) <= 4:
            assert not powers and not gcds, (a, p)
    assert len(below) >= 300
    spy("_linear_factors")
    repeated = [(a, p) for a, p in repeated_factor_family(random.Random(3602),
                                                          1500)
                if p * (len(mp_trim([c % p for c in a])) - 1)
                < poly.ROOT_EVAL_BOUND]
    no_gcd = 0
    for a, p in below + repeated:
        del calls[:]
        fac = factor_mod_p(a, p)
        assert sum(name == "_linear_factors" for name, _ in calls) == 1
        cofactor = sum((len(g) - 1) * mult for g, mult in fac if len(g) > 2)
        if cofactor <= 3:
            assert not any(name == "mp_gcd" for name, _ in calls), (a, p)
            no_gcd += any(mult > 1 for _, mult in fac)
    assert len(repeated) >= 1000 and no_gcd >= 700


def split_primes_oracle(f):
    """The rule split_primes replaces: the two smallest odd primes p below
    SPLIT_BOUND with X^p = X mod (f, p), one mp_pow_mod per prime."""
    out = []
    for p in range(3, poly.SPLIT_BOUND, 2):
        if is_prime(p) and mp_pow_mod([0, 1], p, [c % p for c in f.num],
                                      p) == [0, 1]:
            out.append(p)
            if len(out) == 2:
                return out
    raise ArithmeticError("could not find split primes for independence")


def split_family(rng, count):
    """count seeded separable monic f of degrees 3, 5 and 7 in turn, with
    coefficients up to 10^6: products of monic factors of degree at most
    4, and every 75th f a random monic septic, which in most draws has
    Galois group S_7 and too few split primes below SPLIT_BOUND."""
    out = []
    while len(out) < count:
        n = (3, 5, 7)[len(out) % 3]
        parts = [7] if len(out) % 75 == 2 else []
        while sum(parts) < n:
            parts.append(rng.randint(1, min(n - sum(parts), 4)))
        size = 10 ** rng.randint(0, 6 // len(parts))
        f = RatPoly([1])
        for k in parts:
            f = f * RatPoly([rng.randint(-size, size) for _ in range(k)] + [1])
        if max(map(abs, f.num)) <= 10 ** 6 and discriminant(f):
            out.append(f)
    return out


def test_split_primes_against_one_power_per_prime():
    # 300 seeded f: the same two primes as the oracle, or the same
    # ArithmeticError at the cap
    raised = 0
    for f in split_family(random.Random(3201), 300):
        try:
            want = split_primes_oracle(f)
        except ArithmeticError:
            raised += 1
            with pytest.raises(ArithmeticError):
                split_primes(f)
        else:
            assert split_primes(f) == want, f
    assert raised >= 3


def test_split_primes_near_the_cap(deadline, monkeypatch):
    # a root near 10^6 and no two split primes below SPLIT_BOUND: the
    # stepped sequence raises at the cap in no more process time than one
    # power per prime, and takes one mp_pow_mod per dyadic block
    f = parse_poly("X^7-1000000*X^6+5*X^2-3*X+7")
    searches = (split_primes, split_primes_oracle)
    times = {search: [] for search in searches}
    with deadline(20):
        for _ in range(3):  # alternating, so that both meet the same load
            for search in searches:
                start = time.process_time()
                with pytest.raises(ArithmeticError):
                    search(f)
                times[search].append(time.process_time() - start)
    assert min(times[split_primes]) <= min(times[split_primes_oracle])
    calls = []

    def counted(*args):
        calls.append(args)
        return mp_pow_mod(*args)

    monkeypatch.setattr(poly, "mp_pow_mod", counted)
    with pytest.raises(ArithmeticError):
        split_primes(f)
    assert len(calls) == poly.SPLIT_BOUND.bit_length() - 1


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


def _irreducible(rng, degree):
    """A seeded monic irreducible polynomial over Q of degree 1 to 3: a
    linear one with a rational root, a quadratic of non-square
    discriminant, a cubic with no integer root (hence none over Q)."""
    while True:
        if degree == 1:
            return RatPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4)), 1])
        h = RatPoly([rng.randint(-9, 9) for _ in range(degree)] + [1])
        if degree == 2:
            d = h.coeffs[1] ** 2 - 4 * h.coeffs[0]
            if d < 0 or math.isqrt(int(d)) ** 2 != d:
                return h
        elif h.coeffs[0] and not any(h.eval(x) == 0 for x in range(
                -abs(int(h.coeffs[0])), abs(int(h.coeffs[0])) + 1)):
            return h


def test_factor_over_Z_repeats_each_factor_by_its_multiplicity():
    # seeded products of distinct irreducible h_i^m_i, m_i from 1 to 3 and
    # total degree at most 8, times a rational unit: each h_i comes back
    # m_i times, in sorted order; a repeated factor leaves every prime bad
    rng = random.Random(23)
    repeated = 0
    for _ in range(150):
        parts, total, count = {}, 0, rng.randint(1, 3)
        while len(parts) < count:
            h, m = _irreducible(rng, rng.randint(1, 3)), rng.randint(1, 3)
            if h not in parts and total + m * h.degree <= 8:
                parts[h] = m
                total += m * h.degree
            elif total > 5:
                break
        f = RatPoly([Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))])
        for h, m in parts.items():
            f = f * math.prod([h] * m)
        want = sorted((h for h, m in parts.items() for _ in range(m)),
                      key=lambda h: (h.degree, h.coeffs))
        assert factor_over_Z(f) == want, f
        repeated += max(parts.values()) > 1
    assert repeated >= 50


def test_parse_poly_names_malformed_input():
    # a list must end with ], every sign needs a term after it, and a zero
    # denominator is an error of the input: each raises a ValueError that
    # names the input
    for text in ("X^2+", "x^2 - ", "X^2++1", "[1,2,", "-", "+", "3/0",
                 "[1/0,1]", "X^2+-1", ""):
        with pytest.raises(ValueError) as err:
            parse_poly(text)
        assert repr(text) in str(err.value)
    assert parse_poly("-X^2 + 3/2") == RatPoly([Fraction(3, 2), 0, -1])
    assert parse_poly("[ ]") == RatPoly([])


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
    # a repeated factor over Q makes the discriminant 0, and the scan then
    # runs on the squarefree part alone: a few primes, not every odd prime
    # below 1000; each prime scanned is one call of distinct_degree_shape
    calls = []

    def counted(*args):
        calls.append(args)
        return distinct_degree_shape(*args)

    monkeypatch.setattr(poly, "distinct_degree_shape", counted)
    fac = factor_over_Z(parse_poly(f))
    prod = RatPoly([1])
    for g in fac:
        prod = prod * g
    assert prod == parse_poly(f)
    assert len(calls) <= 6


def test_factor_over_Z_runs_zassenhaus_at_2(monkeypatch):
    # the scan reads 2 first and keeps the first prime of fewest factors:
    # on seeded products of distinct irreducibles, scaled by a rational
    # unit, Zassenhaus often runs at 2 and returns the factors that built
    # the product
    rng = random.Random(25)
    primes = []

    def counted(a, p):
        primes.append(p)
        return factor_mod_p(a, p)

    monkeypatch.setattr(poly, "factor_mod_p", counted)
    at_2 = 0
    for _ in range(150):
        parts = {_irreducible(rng, rng.randint(1, 3))
                 for _ in range(rng.randint(2, 3))}
        if len(parts) < 2 or sum(h.degree for h in parts) > 8:
            continue
        f = RatPoly([Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5]))])
        for h in parts:
            f = f * h
        primes.clear()
        assert factor_over_Z(f) == sorted(
            parts, key=lambda h: (h.degree, h.coeffs)), f
        at_2 += primes == [2]
    assert at_2 >= 10


def test_factor_over_Z_finds_a_repeated_factor_by_the_discriminant(
        monkeypatch):
    # disc(f) = 0 sends f to its squarefree part before any prime is looked
    # at: the discriminant of the squarefree part comes right after f's
    events = []

    def counted(name, fn):
        def wrapper(x):
            events.append((name, x.degree if name == "disc" else x))
            return fn(x)
        return wrapper

    monkeypatch.setattr(poly, "discriminant", counted("disc", discriminant))
    monkeypatch.setattr(poly, "is_prime", counted("prime", poly.is_prime))
    quad = parse_poly("X^2+1")
    f = quad * quad * parse_poly("3*X-1")
    assert factor_over_Z(f) == [RatPoly([Fraction(-1, 3), 1]), quad, quad]
    assert events[:2] == [("disc", 5), ("disc", 3)]
    assert any(name == "prime" for name, _ in events)


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


def long_divmod(a, b, p):
    """(q, r) with a = q*b + r mod p, by schoolbook long division with the
    inverse of the leading coefficient of b."""
    q, r = [0] * max(0, len(a) - len(b) + 1), mp_trim([c % p for c in a])
    inv = pow(b[-1], -1, p)
    while len(r) >= len(b):
        c, k = r[-1] * inv % p, len(r) - len(b)
        q[k] = c
        r = mp_sub(r, [0] * k + [c * x for x in b], p)
    return q, r


def bezout_mod_p(g, h, p):
    """(s, t) with s*g + t*h = 1 mod p: the textbook extended Euclid on
    remainders that are not made monic."""
    r0, r1 = mp_trim([c % p for c in g]), mp_trim([c % p for c in h])
    s0, s1, t0, t1 = [1], [], [], [1]
    while r1:
        q, r = long_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, mp_sub(s0, mp_mul(q, s1, p), p)
        t0, t1 = t1, mp_sub(t0, mp_mul(q, t1, p), p)
    assert len(r0) == 1, "factors not coprime mod p"
    inv = pow(r0[0], -1, p)
    return mp_scal(s0, inv, p), mp_scal(t0, inv, p)


def two_factor_lift(f, factors, p, N):
    """The oracle: the textbook quadratic two-factor lift (von zur Gathen
    and Gerhard, Modern Computer Algebra, Algorithm 15.10) of factors[0]
    against the product of the others, with Bezout cofactors s and t from
    bezout_mod_p, recursing on the cofactor; its last step runs mod
    p^(2^ceil(log2 N))."""
    mN = p ** N
    f = [c % mN for c in f]
    if len(factors) == 1:
        return [f]
    g = [c % p for c in factors[0]]
    h = [1]
    for other in factors[1:]:
        h = mp_mul(h, other, p)
    s, t = bezout_mod_p(g, h, p)
    k = 1
    while k < N:
        m = p ** (2 * k)
        e = mp_sub([c % m for c in f], mp_mul(g, h, m), m)
        q, r = mp_divmod_monic(mp_mul(s, e, m), h, m)
        g = mp_add(mp_add(g, mp_mul(t, e, m), m), mp_mul(q, g, m), m)
        h = mp_add(h, r, m)
        b = mp_sub(mp_add(mp_mul(s, g, m), mp_mul(t, h, m), m), [1], m)
        c, d = mp_divmod_monic(mp_mul(s, b, m), h, m)
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


def test_hensel_lift_of_a_whole_polynomial_is_the_polynomial(monkeypatch):
    # a factor of full degree lifts to f mod p^N, the one monic lift, with
    # no inverse and no Newton step
    def refused(*args):
        raise AssertionError("a whole polynomial takes no lifting step")

    monkeypatch.setattr(poly, "_inverse_mod_p", refused)
    monkeypatch.setattr(poly, "mp_divmod_monic", refused)
    f = [1, 178, 817, -274, 16, 1]
    for p, N in ((2, 20), (3, 1), (941, 7)):
        whole = mp_trim([c % p for c in f])
        assert hensel_lift_factors(f, [whole], p, N) == \
            [[c % p ** N for c in f]]


def test_hensel_lift_roundtrip():
    f = [c % 7 ** 12 for c in [1, 178, 817, -274, 16, 1]]
    red = factor_mod_p(QUINTIC.num, 7)
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
        fac = factor_mod_p(QUINTIC.num, p)
        assert sorted(f.f for f in st_) == sorted(len(g) - 1
                                                          for g, _ in fac)
        assert all(f.e == 1 for f in st_)


def test_split_structural_invariant():
    # an unresolved block raises UnresolvedSplitting; none is left here
    for p in (2, 3, 5, 23, 37, 191, 941):
        st_ = split(QUINTIC, p)
        assert sum(fc.degree for fc in st_) == 5


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
    # and its lift is the factor in X; the pieces are sorted by degree, e,
    # root mod p, residue and factor over Q, none of which reads a lift
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
            assert mp_divmod_monic(whole, list(fc.zlift), m)[1] == [], (f, p)
            deg = fc.degree
            assert fc.lift == tuple(mp_shift(
                [c * p ** (fc.scale * (deg - i)) for i, c in
                 enumerate(fc.zlift)], -fc.shift, m)), (f, p)
            assert fc.residue == tuple(c % p for c in fc.lift), (f, p)
        assert st_ == tuple(sorted(st_, key=lambda fc: (
            fc.degree, fc.e, fc.root_mod(p) if fc.degree == 1 else -1,
            fc.residue, fc.global_factor))), (f, p)
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
    # B has the block (X + 1)^2 at 3: it is lifted once, and its two
    # pieces are ordered without a lift of their own
    calls.clear()
    st_ = split(B_CUBIC, 3)
    assert [fc.residue for fc in st_] == [(2, 1), (1, 1), (1, 1)]
    assert len(calls) == 1


def piece_sequence(f, p):
    """(e, f, residue, lift mod p^10) of each piece of f at p, in order, or
    None when the split does not resolve: every piece keeps at least 10
    digits."""
    try:
        st_ = split(f, p)
    except UnresolvedSplitting:
        return None
    return [(fc.e, fc.f, fc.residue, tuple(c % p ** 10 for c in fc.lift))
            for fc in st_]


def test_order_does_not_move_with_the_precision(monkeypatch):
    # the order is read mod p and off the Newton polygon: starting the
    # lifts at p^40 instead of p^20 moves no piece
    pairs = sweep_pairs(8)
    at_20 = [piece_sequence(f, p) for f, _, p in pairs]
    monkeypatch.setattr(poly, "HENSEL_START", 40)
    assert [piece_sequence(f, p) for f, _, p in pairs] == at_20


def test_order_does_not_move_with_the_other_factors():
    # beside X^2 - 2*3^10, a factor with few digits left, B's two pieces
    # with residue X + 1 at 3 keep the order they have alone
    def lifts(st_):
        return [tuple(c % 3 ** 10 for c in fc.lift) for fc in st_]

    alone = local_splitting_type([B_CUBIC], 3)
    beside = local_splitting_type([parse_poly("X^2-118098"), B_CUBIC], 3)
    assert lifts(alone) == lifts(fc for fc in beside if fc.global_factor == 1)


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
