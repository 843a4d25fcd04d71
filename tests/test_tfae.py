import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from qdescent import poly, tfae
from qdescent.arith import is_prime
from qdescent.poly import RatPoly, discriminant, mp_pow_mod, parse_poly
from qdescent.tfae import (_agl_verdict, _f2_rank_of_squarefree,
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


def test_f2_rank_of_squarefree_against_subset_search():
    # 2^(n - rank) of the 2^n subsets of n values multiply to a square
    rng = random.Random(23)
    for _ in range(40):
        vals = [rng.choice((-1, 1)) * rng.choice((1, 2, 3, 5, 6, 7, 10, 15,
                                                  21, 30, 35, 105))
                for _ in range(rng.randint(1, 6))]
        squares = sum(
            1 for k in range(len(vals) + 1)
            for sub in itertools.combinations(vals, k)
            if math.prod(sub) > 0 and math.isqrt(math.prod(sub)) ** 2
            == math.prod(sub))
        assert squares == 2 ** (len(vals) - _f2_rank_of_squarefree(vals)), vals


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
    assert not _agl_verdict(parse_poly("X^7-X-1")).holds
    assert events == []
    assert _agl_verdict(parse_poly("X^5+15*X+12")).holds
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
