import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qdescent import poly, tfae
from qdescent.arith import factor_integer, is_prime
from qdescent.localfields import echelon
from qdescent.poly import (SEARCH_PRIMES, RatPoly, _degree_sums,
                           discriminant, distinct_degree_shape,
                           factor_and_scan, factor_mod_p, factor_over_Z,
                           monic_integral, mp_pow_mod, parse_poly)
from qdescent.tfae import (_agl_verdict, _f2_rank,
                           _is_translated_binomial, _theta_terms,
                           agl_resolvent_holds, quartic_galois_group,
                           tfae_test)

QUINTIC = parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1")


def test_cubics_always_hold():
    rng = random.Random(17)
    done = 0
    while done < 50:
        f = RatPoly([rng.randrange(-30, 31) for _ in range(3)] + [1])
        if discriminant(f) == 0:
            continue
        r = tfae_test(f)
        assert r.holds and r.certificate == "exact"
        done += 1


def prime_support_rank(vals) -> int:
    """Rank of nonzero integers in Q*/Q*^2 by factoring: each value is a
    bitmask over the primes of odd exponent, with bit 0 for the sign, and
    the rank is that of the masks' span."""
    bit: dict[int, int] = {}
    masks = []
    for v in vals:
        mask = int(v < 0)
        for pr, e in factor_integer(v).factors:
            if e % 2:
                mask |= 1 << bit.setdefault(pr, len(bit) + 1)
        masks.append(mask)
    return len(echelon(masks))


def test_f2_rank_against_prime_support_echelon():
    # integers with square factors, squares and repeated classes among
    # them, ranked by subset squares against their factored prime supports
    rng = random.Random(23)
    for _ in range(200):
        vals = [rng.choice((-1, 1)) * rng.choice((1, 2, 3, 5, 6, 7, 10, 15,
                                                  21, 30, 35, 105))
                * rng.randint(1, 6) ** 2 for _ in range(rng.randint(1, 6))]
        assert _f2_rank(vals) == prime_support_rank(vals), vals


def test_square_classes_of_large_discriminants_need_no_factoring():
    # (X - 1)(X^2 - n)(X^2 - 2) with n a 44-digit semiprime: the classes of
    # 4n and 8 are independent, so the 2-Sylow has order 4 > 2 and the
    # condition fails, with no factoring of n
    p, q = 4000000000000000000013, 5000000000000000000059
    assert is_prime(p) and is_prime(q)
    n = p * q
    f = RatPoly([-1, 1]) * RatPoly([-n, 0, 1]) * RatPoly([-2, 0, 1])
    r = tfae_test(f)
    assert not r.holds and r.certificate == "exact"
    assert r.pattern == "1+2+2: 2-Sylow orbits 1+2+2, order 4"


def test_example_II_quintic():
    r = tfae_test(QUINTIC)
    assert r.holds and r.certificate == "exact"
    assert "square" in r.pattern or "A5" in r.pattern


def test_binomial_quintics():
    for a in (2, 3, -1, 7, -5):
        f = RatPoly([a, 0, 0, 0, 0, 1])
        if discriminant(f) == 0:
            continue
        r = tfae_test(f)
        assert r.holds and r.certificate == "exact"


def test_s5_quintic_fails():
    # x^5 - x - 1 has Galois group S5
    r = tfae_test(parse_poly("X^5-X-1"))
    assert not r.holds and r.certificate == "exact"


def test_f20_quintic_holds():
    # x^5 - 2 is solvable with group F20 and non-square discriminant: the
    # binomial shortcut certifies it, and its translates too
    for s in ("X^5-2", "X^5+5*X^4+10*X^3+10*X^2+5*X-1"):  # (X+1)^5 - 2
        r = tfae_test(parse_poly(s))
        assert r.holds and r.certificate == "exact"
        assert "binomial" in r.pattern


def test_quartic_galois_groups():
    assert quartic_galois_group(parse_poly("X^4+X+1")) == "S4"
    assert quartic_galois_group(parse_poly("X^4+8*X+12")) == "A4"
    assert quartic_galois_group(parse_poly("X^4-2")) == "D4"
    assert quartic_galois_group(parse_poly("X^4+1")) == "V4"
    assert quartic_galois_group(parse_poly("X^4+X^3+X^2+X+1")) == "C4"
    assert quartic_galois_group(parse_poly("X^4+5*X^2+5")) == "C4"
    assert quartic_galois_group(parse_poly("X^4-10*X^2+1")) == "V4"


def test_reducible_quintics():
    # X^5 - 1 = (X-1) * Phi_5: C4 quartic: holds
    r = tfae_test(parse_poly("X^5-1"))
    assert r.holds and r.certificate == "exact"
    # (X-1)(X^4-2): D4 quartic: fails
    f = parse_poly("X-1") * parse_poly("X^4-2")
    r = tfae_test(f)
    assert not r.holds and r.certificate == "exact"
    # (X-1)(X-2)(X^3+X+1): S3 cubic with extra rational roots: fails
    f = parse_poly("X-1") * parse_poly("X-2") * parse_poly("X^3+X+1")
    r = tfae_test(f)
    assert not r.holds and r.certificate == "exact"
    # X(X^2-2)(X^2-8): one linear, both quadratics give Q(sqrt 2): holds
    f = parse_poly("X") * parse_poly("X^2-2") * parse_poly("X^2-8")
    r = tfae_test(f)
    assert r.holds and r.certificate == "exact"
    # X(X^2-2)(X^2-3): Klein-four 2-Sylow: fails
    f = parse_poly("X") * parse_poly("X^2-2") * parse_poly("X^2-3")
    r = tfae_test(f)
    assert not r.holds and r.certificate == "exact"
    # quadratic inside an S3 cubic: (X^2 - disc-class)(cubic)
    cubic = parse_poly("X^3+X+1")  # disc = -31
    f = cubic * parse_poly("X^2+31")
    r = tfae_test(f)
    assert r.holds and r.certificate == "exact"
    # split completely
    f = parse_poly("X") * parse_poly("X-1") * parse_poly("X+1") \
        * parse_poly("X-2") * parse_poly("X+2")
    r = tfae_test(f)
    assert r.holds and r.certificate == "exact"


def test_binomial_septics():
    # X^7 + 3, and (X-2)^7 - 5, which has only F42 cycle shapes
    for f in (parse_poly("X^7+3"),
              parse_poly("X^7-5").compose_linear(1, -2)):
        r = tfae_test(f)
        assert r.holds and r.certificate == "exact"


def test_translated_binomials_are_read_off_the_coefficients():
    # (X + c)^d + a is detected for rational c and a; changing any one
    # middle coefficient (X^1 .. X^(d-2)) breaks it; and on 500 seeded
    # monic polynomials the test agrees with the Taylor shift f(X - c)
    rng = random.Random(2204)

    def rational():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    for d in (5, 7):
        for _ in range(20):
            c, a = rational(), rational()
            f = RatPoly([c, 1]) ** d + RatPoly([a])
            assert _is_translated_binomial(f), f
            for k in range(1, d - 1):
                g = list(f.coeffs)
                g[k] += rng.choice((-1, 1)) * Fraction(1, rng.randint(1, 5))
                assert not _is_translated_binomial(RatPoly(g)), (f, k)
    binomials = 0
    for _ in range(500):
        d = rng.choice((3, 4, 5, 6, 7))
        if rng.random() < 0.3:  # a binomial, translated, maybe disturbed
            f = RatPoly([rational(), 1]) ** d + RatPoly([rational()])
            if rng.random() < 0.5:
                k = rng.randrange(d)
                f = f + RatPoly([0] * k + [rng.randint(-1, 1)])
        else:
            f = RatPoly([rng.choice((0, 0, rational())) for _ in range(d)]
                        + [1])
        shifted = f.compose_linear(1, -f.coeffs[d - 1] / d)
        want = not any(shifted.coeffs[1:-1])
        assert _is_translated_binomial(f) == want, f
        binomials += want
    assert 100 < binomials < 400


def test_septic_s7_fails():
    # x^7 - x - 1 has Galois group S7
    r = tfae_test(parse_poly("X^7-X-1"))
    assert not r.holds and r.certificate == "exact"


def test_sampled_only_when_sampling_used():
    # every verdict in this battery must be exact
    polys = ["X^3-X-1", "X^5-2", "X^5-X-1",
             "X^5+16*X^4-274*X^3+817*X^2+178*X+1", "X^7+3"]
    for s in polys:
        assert tfae_test(parse_poly(s)).certificate == "exact"


def test_resolvent_path_f20():
    # x^5 + 15x + 12 is solvable, and its discriminant 259200000 is not a
    # square, so its group is F20; the p-adic resolvent certifies it
    assert discriminant(parse_poly("X^5+15*X+12")) == 259200000
    r = tfae_test(parse_poly("X^5+15*X+12"))
    assert r.holds and r.certificate == "exact"
    assert "resolvent" in r.pattern


# S5, F20 (by the resolvent) and D5 (square discriminant)
@pytest.mark.parametrize("f", ["X^5-X-1", "X^5+15*X+12", "X^5-5*X+12"])
def test_one_discriminant_per_irreducible_quintic(monkeypatch, f):
    calls = []

    def counted(g):
        calls.append(g)
        return discriminant(g)

    monkeypatch.setattr(poly, "discriminant", counted)
    monkeypatch.setattr(tfae, "discriminant", counted)
    assert tfae_test(parse_poly(f)).certificate == "exact"
    assert calls == [parse_poly(f)]


def test_agl_verdict_factors_mod_p_only_in_the_resolvent(monkeypatch):
    # the cycle scan reads factor degrees alone; the one full factorization
    # mod p is the resolvent's, at the prime where f splits completely
    events = []
    factor_mod_p, resolvent = poly.factor_mod_p, tfae.agl_resolvent_holds

    def counted_factor(*args):
        events.append("factor_mod_p")
        return factor_mod_p(*args)

    def counted_resolvent(*args):
        events.append("resolvent")
        return resolvent(*args)

    # also under tfae, in case it ever imports the name itself
    for mod in (poly, tfae):
        monkeypatch.setattr(mod, "factor_mod_p", counted_factor, raising=False)
    monkeypatch.setattr(tfae, "agl_resolvent_holds", counted_resolvent)
    f = parse_poly("X^7-X-1")
    assert not _agl_verdict(f, factor_and_scan(f, discriminant(f))[1]).holds
    assert events == []
    f = parse_poly("X^5+15*X+12")
    assert _agl_verdict(f, factor_and_scan(f, discriminant(f))[1]).holds
    assert events[0] == "resolvent" and "factor_mod_p" in events


def test_theta_stabilizer_is_agl():
    # theta = sum x_i x_j^2 x_k over _theta_terms(d); a permutation fixes
    # it iff it maps the multiset of monomials x_j^2 * x_i x_k to itself
    def monomials(terms):
        return Counter((j, frozenset((i, k))) for i, j, k in terms)

    for d, order in ((5, 20), (7, 42)):
        terms = _theta_terms(d)
        base = monomials(terms)
        stab = [s for s in itertools.permutations(range(d))
                if monomials([(s[i], s[j], s[k]) for i, j, k in terms])
                == base]
        assert len(stab) == order
        # x -> 2x + 1 lies in AGL(1, d)
        assert tuple((2 * x + 1) % d for x in range(d)) in stab


def split_prime(f):
    """The least prime p not dividing disc f with X^p = X mod (f, p)."""
    disc = discriminant(f).numerator
    coeffs = [int(c) for c in f.coeffs]
    p = f.degree
    while not (is_prime(p) and disc % p
               and mp_pow_mod([0, 1], p, coeffs, p) == [0, 1]):
        p += 1
    return p


def test_agl_resolvent_at_a_split_prime():
    conductor_29 = "X^7+X^6-12*X^5-7*X^4+28*X^3+14*X^2-9*X+1"  # cyclic
    for s in ("X^5+15*X+12", "X^5-2", "X^7-2", conductor_29):
        f = parse_poly(s)
        assert agl_resolvent_holds(f, split_prime(f)), s
    for s in ("X^5-X-1", "X^7-X-1"):  # S5, S7
        f = parse_poly(s)
        assert not agl_resolvent_holds(f, split_prime(f)), s


def test_agl_resolvent_needs_d_simple_roots_mod_p():
    # X^5 + 15X + 12 is X(X + 1)^4 mod 2, X^5 mod 3 and a linear factor
    # times an irreducible quartic mod 7: fewer than five simple roots
    f = parse_poly("X^5+15*X+12")
    for p in (2, 3, 7):
        with pytest.raises(ValueError, match=f"distinct factors mod {p}"):
            agl_resolvent_holds(f, p)


def test_psl32_septic_fails():
    # Trinks' x^7 - 7x + 3 has group PSL(3,2), whose 2-Sylow has order 8
    r = tfae_test(parse_poly("X^7-7*X+3"))
    assert not r.holds and r.certificate == "exact"


def test_reducible_septics_are_exact():
    lin, quad = parse_poly("X-1"), parse_poly("X^2-2")
    s4 = parse_poly("X^4+X+1")
    c3a, c3b = parse_poly("X^3-3*X+1"), parse_poly("X^3-3*X-1")  # C3
    s3a, s3b = parse_poly("X^3-2"), parse_poly("X^3+X+1")  # S3
    for f, holds in ((lin * quad * s4, False),  # orbits 1+2+4
                     (lin * c3a * c3b, True),  # odd-order group
                     (lin * s3a * s3b, False),  # three fixed roots
                     (c3a * s4, False), (s3a * s4, False)):
        r = tfae_test(f)
        assert (r.holds, r.certificate) == (holds, "exact"), f


def scan_family(seed, count):
    """Seeded separable f of degree 3 to 8 with rational coefficients whose
    denominators and leading coefficient are divisible by 2, 3, 5 or 7; a
    third of them products of two factors."""
    rng = random.Random(seed)

    def draw(d):
        coeffs = [Fraction(rng.randint(-20, 20), rng.choice((1, 2, 3, 5, 6)))
                  for _ in range(d)]
        lead = Fraction(rng.choice((1, -2, 3, 5, 6, 7, 14)),
                        rng.choice((1, 2, 3, 5)))
        return RatPoly(coeffs + [lead])

    out = []
    while len(out) < count:
        d = rng.randint(3, 8)
        f = draw(d) if rng.random() < 0.67 else draw(d // 2) * draw(d - d // 2)
        if discriminant(f) != 0:
            out.append(f)
    return out


def shape_mod(a, p):
    """The ascending factor degrees of a mod p from factor_mod_p; None when
    a has a repeated factor mod p."""
    fac = factor_mod_p(a, p)
    if any(mult > 1 for _, mult in fac):
        return None
    return tuple(sorted(len(h) - 1 for h, _ in fac))


def test_scan_reads_the_good_primes_off_the_discriminant():
    # the primes the discriminant calls good are exactly those where g has
    # no repeated factor mod p, and the shapes agree with factor_mod_p
    # there; primes dividing the denominators or the leading coefficient of
    # f are met on both sides
    met = Counter()
    for f in scan_family(2401, 150):
        shapes = factor_and_scan(f, discriminant(f))[1]
        a = [int(c) for c in monic_integral(f.monic())[0].coeffs]
        scanned = dict(itertools.takewhile(lambda t: t[0] < 60, shapes))
        direct = {p: sh for p in range(2, 60) if is_prime(p)
                  for sh in [shape_mod(a, p)] if sh is not None}
        assert scanned == direct, f
        lead_den = math.lcm(*(c.denominator for c in f.coeffs)) \
            * f.lead.numerator
        for p in range(2, 60):
            if is_prime(p) and lead_den % p == 0:
                met[p in scanned] += 1
    assert met[True] >= 10 and met[False] >= 100


def test_degree_sums_prove_irreducibility():
    # a factor of f over Q has a degree that is a subset sum of every
    # shape: so the common sums of the scan's first SEARCH_PRIMES shapes
    # hold every factor degree, and where they are {0, d} f is irreducible
    proved = reducible = 0
    for f in scan_family(2402, 200):
        d = f.degree
        factors, shapes = factor_and_scan(f, discriminant(f))
        assert factors == factor_over_Z(f), f
        common = -1
        for _, sh in itertools.islice(shapes, SEARCH_PRIMES):
            common &= _degree_sums(sh)
            assert all(common >> h.degree & 1 for h in factors), f
            if common == 1 | 1 << d:
                assert len(factors) == 1, f
                proved += 1
                break
        reducible += len(factors) > 1
    assert proved > 60 and reducible > 40
    assert _degree_sums((1, 2, 2)) == 0b111111
    assert _degree_sums((2, 3)) == 1 | 1 << 2 | 1 << 3 | 1 << 5


@pytest.mark.parametrize("parts", [
    ["X^2+X-1", "X^3+X^2-1"],                # quintic, 2 is good
    ["X-1", "X^3-3*X+1", "X^3+X^2-2*X-1"]])  # septic, 2 is good
def test_reducible_input_reads_each_good_prime_once(monkeypatch, parts):
    # a reducible f is scanned once, from 2: its first SEARCH_PRIMES good
    # primes each give one distinct-degree shape, the Zassenhaus pass
    # runs on them, and factor_over_Z, with its own discriminant, is not
    # called
    f = RatPoly([3])
    for h in parts:
        f = f * parse_poly(h)
    primes, over_Z = [], []

    def counted_shape(a, p):
        primes.append(p)
        return distinct_degree_shape(a, p)

    def counted_over_Z(*args):
        over_Z.append(args)
        return factor_over_Z(*args)

    monkeypatch.setattr(poly, "distinct_degree_shape", counted_shape)
    for mod in (poly, tfae):
        monkeypatch.setattr(mod, "factor_over_Z", counted_over_Z)
    assert tfae_test(f).certificate == "exact"
    disc_g = discriminant(monic_integral(f.monic())[0])
    good = [p for p in range(2, 100) if is_prime(p) and disc_g % p]
    assert primes == good[:SEARCH_PRIMES] and good[0] == 2
    assert over_Z == []


AGL_SHAPES = {5: {(5,), (1, 4), (1, 2, 2), (1,) * 5},
              7: {(7,), (1, 6), (1, 3, 3), (1, 2, 2, 2), (1,) * 7}}


def test_agl_verdict_names_the_least_decisive_prime():
    # for irreducible quintics and septics outside A5 the verdict names the
    # least prime whose shape is outside AGL(1, d) or splits completely,
    # recomputed here by brute force from factor_mod_p
    rng = random.Random(2403)
    fams = [parse_poly("X^5+15*X+12"), parse_poly("X^5-X-1"),
            parse_poly("X^7-X-1")]
    checked = resolvent = 0
    while checked < 120:
        if rng.random() < 0.1:  # F20, S5 and S7 moved by X -> aX + b
            f = rng.choice(fams).compose_linear(
                Fraction(rng.choice((1, -1, 2, 3)), rng.choice((1, 2, 5))),
                Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        else:
            d = rng.choice((5, 7))
            f = RatPoly([Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3)))
                         for _ in range(d)] + [rng.choice((1, 2, -3))])
        d = f.degree
        if (discriminant(f) == 0 or len(factor_over_Z(f)) > 1
                or d == 5 and tfae._is_rational_square(discriminant(f))
                or _is_translated_binomial(f.monic())):
            continue
        a = [int(c) for c in monic_integral(f.monic())[0].coeffs]
        p = 2
        while not (is_prime(p) and (sh := shape_mod(a, p))
                   and (sh not in AGL_SHAPES[d] or sh == (1,) * d)):
            p += 1
        pattern = tfae_test(f).pattern
        assert pattern.endswith(f" {p})"), (f, pattern, p)
        assert ("resolvent" in pattern) == (sh == (1,) * d), (f, pattern)
        checked += 1
        resolvent += "resolvent" in pattern
    assert resolvent >= 3


@pytest.mark.parametrize("f", ["X^7-X-1", "X^5+X+3", "X^5-5*X+12"])
def test_scan_proves_irreducibility_without_a_lift(monkeypatch, f):
    # the shapes prove each of these irreducible, so no Zassenhaus pass
    # runs (nothing is factored mod p) and nothing is lifted; the one
    # discriminant also picks the good primes
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("discriminant", "factor_over_Z", "factor_mod_p",
                 "hensel_lift_factors"):
        wrapped = counted(name, getattr(poly, name))
        for mod in (poly, tfae):
            monkeypatch.setattr(mod, name, wrapped, raising=False)
    assert tfae_test(parse_poly(f)).certificate == "exact"
    assert calls == {"discriminant": 1}
