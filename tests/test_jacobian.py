import itertools
import random
from fractions import Fraction

import pytest

from qdescent import jacobian, poly
from qdescent.arith import REAL_PLACE, legendre, square_class, valuation
from qdescent.elliptic import curve_from_string
from qdescent.jacobian import (HyperellipticCurve, image_table,
                               independence_rank, local_intersection_rank,
                               local_selmer_rank_hyper, local_torsion_rank,
                               parse_descent_point, xt_image)
from qdescent.localfields import EtaleAlgebra
from qdescent.poly import RatPoly, discriminant, parse_poly, split_primes

C2 = HyperellipticCurve(parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1"))
RATPTS = [("rational", Fraction(x), None) for x in (-17, -9, -6, -2, 0, 4)]
# Lehmer's quintic for n = 12 and its integral points
LEHMER_12 = HyperellipticCurve(RatPoly([1, 2434, 31145, -4450, 144, 1]))
LEHMER_12_PTS = [("rational", Fraction(x), None)
                 for x in (-161, -65, -9, 0, 22)]


def with_pairwise_sums(points):
    return points + [("sum", pq) for pq in itertools.combinations(points, 2)]


def span_of(basis) -> set:
    """Every F_2-combination of the bitmasks in basis."""
    out = {0}
    for b in basis:
        out |= {m ^ b for m in out}
    return out


def test_parse_points():
    assert parse_descent_point("-17") == ("rational", Fraction(-17), None)
    assert parse_descent_point("(-2,73)") == ("rational", Fraction(-2),
                                              Fraction(73))
    assert parse_descent_point("alpha:4") == ("alpha", 4)
    s = parse_descent_point("sum: -2 + -6")
    assert s[0] == "sum" and len(s[1]) == 2


def test_text_parsers_name_malformed_input():
    # an empty summand, a zero denominator, an empty coefficient and an
    # unclosed pair each raise a ValueError that names the input
    for parse, text in ((parse_descent_point, "sum: 1 +"),
                        (parse_descent_point, "(1/0, 2)"),
                        (parse_descent_point, "(3"),
                        (parse_descent_point, "alpha:x"),
                        (curve_from_string, "[1/0,0,0,1,1]"),
                        (curve_from_string, "[0,,0,1,1]"),
                        (curve_from_string, "[0,0,0,1]")):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert repr(text) in str(err.value)
    assert parse_descent_point("# comment") is None
    assert curve_from_string(" [0,0,0,-1/4,0] ").ainvs()[3] == Fraction(-1, 4)


def test_one_discriminant_per_curve(monkeypatch):
    # the separability check and disc_primes read the one the curve keeps
    calls = []

    def counted(f):
        calls.append(f)
        return discriminant(f)

    monkeypatch.setattr(jacobian, "discriminant", counted)
    curve = HyperellipticCurve(LEHMER_12.f)
    assert curve.disc_primes == LEHMER_12.disc_primes
    assert curve.disc_primes == LEHMER_12.disc_primes
    assert calls == [LEHMER_12.f]


def test_curve_invariants():
    assert C2.genus == 2
    assert sorted(C2.disc_primes) == [191, 941]
    with pytest.raises(ValueError):
        HyperellipticCurve(parse_poly("X^4+1"))
    with pytest.raises(ValueError):
        HyperellipticCurve(parse_poly("X^3-X-6/5"))


def test_degree_is_checked_at_construction():
    # odd degrees 3 to 7 are in scope; y^2 = X^9 + 1 is rejected when the
    # curve is built, not when its f is first factored
    assert HyperellipticCurve(parse_poly("X^7-X-1")).genus == 3
    for f in ("X+1", "X^6+1", "X^8+1", "X^9+1", "X^11-X-1"):
        with pytest.raises(ValueError, match="degree must be odd, from 3 "
                                             "to 7"):
            HyperellipticCurve(parse_poly(f))


def test_real_images():
    real = EtaleAlgebra(C2.factors, REAL_PLACE)
    v = xt_image(real, ("rational", Fraction(-2), None))
    assert v == 0b11110  # x - alpha < 0 at the four largest roots
    v = xt_image(real, ("rational", Fraction(0), None))
    assert v == 0b11000


def isolating_points(f):
    """A rational x just above each real root of f, ascending, with no root
    of f or f' between the two: the sign changes of f on a grid of step
    1/4 (offset by 1/97, so that no grid point is a root; the roots are
    further apart), each bisected to width 2^-20 and on until f' has one
    sign at both ends."""
    bound = 1 + int(max(abs(c) for c in f.coeffs))
    df, off = f.deriv(), Fraction(1, 97)
    out = []
    for k in range(-4 * bound, 4 * bound):
        lo, hi = Fraction(k, 4) + off, Fraction(k + 1, 4) + off
        if f.eval(lo) * f.eval(hi) > 0:
            continue
        while hi - lo > 2 ** -20 or df.eval(lo) * df.eval(hi) <= 0:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if f.eval(lo) * f.eval(mid) < 0 else (mid, hi)
        out.append(hi)
    return out


@pytest.mark.parametrize("f", [
    "X^5-X^4-4*X^3+3*X^2+3*X-1", "X^3-2", "X^5-5*X+1", "X^7-7*X^3+X^2+1",
    "X^5-X^4-X^3+X^2-2*X+2"])
def test_real_torsion_images_against_an_isolating_point(f):
    # at x just above alpha_i, x - alpha_j and alpha_i - alpha_j have one
    # sign for j != i, and the home entry of the torsion image, the product
    # of alpha_i - alpha_j over the other roots, has the sign of f'(x)
    f = parse_poly(f)
    alg = EtaleAlgebra(poly.factor_over_Z(f), REAL_PLACE)
    xs = isolating_points(f)
    assert len(xs) == alg.n_real
    for i, x in enumerate(xs):
        tors = alg.image_of_torsion_root(i)
        assert xt_image(alg, ("alpha", i + 1)) == tors
        near = alg.image_of_affine(x)
        assert near >> i & 1 == 0
        assert (tors ^ near) & ~(1 << i) == 0, (f, i)
        assert tors >> i & 1 == (f.deriv().eval(x) < 0), (f, i)


def test_image_table_at_the_real_place():
    # y^2 = X^5 - 5X + 1: real roots near -1.54, 0.20 and 1.44, one complex
    # pair, and the point (0, 1); a real entry renders as its sign, a
    # complex pair as 1
    c = HyperellipticCurve(parse_poly("X^5-5*X+1"))
    pts = [("alpha", 1), ("alpha", 2), ("alpha", 3), ("rational", 0, None)]
    labels, rows = image_table(c, pts, REAL_PLACE)
    assert labels == ["alpha_1", "alpha_2", "alpha_3", "pair_1"]
    assert [(lab, syms) for lab, _, syms in rows] == [
        ("(alpha_1)", ("1", "-1", "-1", "1")),
        ("(alpha_2)", ("1", "-1", "-1", "1")),
        ("(alpha_3)", ("1", "1", "1", "1")),
        ("(0)", ("1", "-1", "-1", "1"))]
    for _, mask, syms in rows:
        assert mask >> 3 == 0  # a sign bit per real root, none for the pair
        assert syms[:3] == tuple("-1" if mask >> j & 1 else "1"
                                 for j in range(3))


def test_table_at_191_matches_paper():
    pts = [("alpha", i) for i in (1, 2, 3, 4, 5)] + RATPTS
    labels, rows = image_table(C2, pts, 191)
    sym = {lab: syms for lab, _, syms in rows}
    assert sym["(alpha_1)"] == ("1", "n", "n", "n", "n")
    assert sym["(alpha_2)"] == ("1", "1", "1", "n", "n")
    assert sym["(alpha_3)"] == ("1", "n", "n", "1", "1")
    assert sym["(alpha_4)"] in [("1", "1", "n", "pi", "n*pi"),
                                ("1", "1", "n", "n*pi", "pi")]
    assert sym["(alpha_5)"] == sym["(alpha_4)"]
    for x in (-17, -9, -6, -2):
        assert sym[f"({x})"] == ("1", "n", "n", "1", "1")
    assert sym["(0)"] == ("n", "n", "1", "1", "1")
    assert sym["(4)"] == ("n", "n", "1", "1", "1")


def test_doubling_gives_identity():
    for p in (37, 73, 191, REAL_PLACE, 2):
        im = xt_image(EtaleAlgebra(C2.factors, p),
                      ("sum", (RATPTS[0], RATPTS[0])))
        assert im == 0


def test_local_selmer_ranks_example_II():
    alg = {p: EtaleAlgebra(C2.factors, p) for p in (REAL_PLACE, 2, 191, 941)}
    assert local_selmer_rank_hyper(alg[2]) == 2
    assert local_selmer_rank_hyper(alg[REAL_PLACE]) == 2
    assert local_selmer_rank_hyper(alg[941]) == 0
    assert local_selmer_rank_hyper(alg[191]) == 4
    assert local_torsion_rank(alg[191]) == 4
    assert local_torsion_rank(alg[941]) == 0
    assert local_torsion_rank(alg[2]) == 0


def test_intersection_rank_at_191():
    pts = [("alpha", 1), ("alpha", 4), RATPTS[3], RATPTS[4]]  # (-2), (0)
    rank, complete = local_intersection_rank(EtaleAlgebra(C2.factors, 191),
                                             pts)
    assert (rank, complete) == (3, True)


def test_intersection_rank_at_2():
    rank, complete = local_intersection_rank(EtaleAlgebra(C2.factors, 2),
                                             RATPTS)
    assert rank == 0
    # the six rational points only span a rank-<=2 space at 2; completeness
    # depends on the span filling S^2(Q_2, J)


def test_independence_rank_example_II():
    bound, analysis = independence_rank(C2, RATPTS, [37, 73])
    assert bound >= 6
    # the paper's relations at 37: (-2) = (-9)+(-6) and (4) = (-17)
    rel37 = span_of(analysis[37]["relations"])
    idx = {x: i for i, x in enumerate((-17, -9, -6, -2, 0, 4))}
    m1 = (1 << idx[-2]) | (1 << idx[-9]) | (1 << idx[-6])
    m2 = (1 << idx[4]) | (1 << idx[-17])
    assert m1 in rel37 and m2 in rel37


def test_independence_rank_refuses_a_local_root():
    # alpha:i names the i-th piece at the place where it is imaged: on
    # y^2 = (x-7)(x-3)(x-8)(x-6)(x+10) the pieces are ordered
    # (7, 8, 3, -10, 6) at 7 and (-10, 3, 6, 7, 8) at 11, so alpha:1 is the
    # root 7 at one prime and -10 at the other
    curve = HyperellipticCurve(
        parse_poly("X^5-14*X^4-31*X^3+1316*X^2-6732*X+10080"))
    roots = {p: [piece.root for piece in EtaleAlgebra(curve.factors, p).pieces]
             for p in (7, 11)}
    assert roots == {7: [7, 8, 3, -10, 6], 11: [-10, 3, 6, 7, 8]}
    for pts in ([("alpha", 1), ("alpha", 2)],
                [("sum", (("alpha", 1), ("alpha", 3)))]):
        with pytest.raises(ValueError, match=r"alpha_"):
            independence_rank(curve, pts, [7, 11])


def test_independence_lifts_only_pieces_a_point_reduces_onto(monkeypatch):
    # at a split prime a class is read from residues unless x mod p is a
    # root of the piece's factor mod p: of the ten pieces at 37 and 73 only
    # the root 4 mod 37 (x = 4) and the root 71 mod 73 (x = -2) are lifted
    lifted = []
    lift = poly.hensel_lift_factors

    def counted(f, factors, p, N):
        lifted.extend((p, tuple(g)) for g in factors)
        return lift(f, factors, p, N)

    monkeypatch.setattr(poly, "hensel_lift_factors", counted)
    curve = HyperellipticCurve(C2.f)
    bound, _ = independence_rank(curve, RATPTS, [37, 73])
    assert bound == 6
    assert sorted(lifted) == [(37, (33, 1)), (73, (2, 1))]
    hit = [(p, piece.residue) for p in (37, 73)
           for piece in EtaleAlgebra(curve.factors, p).pieces
           if any((x * piece.residue[1] + piece.residue[0]) % p == 0
                  for _, x, _ in RATPTS)]
    assert sorted(hit) == sorted(lifted)


def subset_products(masks) -> dict:
    """{subset bitmask: product of its images}, by trying all 2^n subsets
    (the empty product is the trivial class, 0)."""
    out = {0: 0}
    for subset in range(1, 2 ** len(masks)):
        low = subset & -subset
        out[subset] = out[subset ^ low] ^ masks[low.bit_length() - 1]
    return out


@pytest.mark.parametrize("curve,pool", [(C2, with_pairwise_sums(RATPTS)),
                                        (LEHMER_12,
                                         with_pairwise_sums(LEHMER_12_PTS))],
                         ids=["example_II", "lehmer_12"])
def test_ranks_against_subset_search(curve, pool):
    rng = random.Random(7)
    primes = split_primes(curve.f)
    places = [2, *curve.disc_primes]
    for _ in range(12):
        pts = rng.sample(pool, rng.randint(1, 10))
        bound, analysis = independence_rank(curve, pts, primes)
        common = None
        for p in primes:
            alg = EtaleAlgebra(curve.factors, p)
            prods = subset_products([xt_image(alg, pt) for pt in pts])
            rels = {m for m, w in prods.items() if w == 0}
            assert span_of(analysis[p]["relations"]) == rels
            common = rels if common is None else common & rels
        assert span_of(analysis["common_relations"]) == common
        assert 2 ** (len(pts) - bound) == len(common)
        for p in places:
            alg = EtaleAlgebra(curve.factors, p)
            span = set(subset_products([xt_image(alg, pt)
                                        for pt in pts]).values())
            n_unram = sum(w & ~alg.basis.unramified == 0 for w in span)
            complete = len(span) == 2 ** local_selmer_rank_hyper(alg)
            assert local_intersection_rank(alg, pts) == \
                (n_unram.bit_length() - 1, complete)


def test_independence_rank_many_points(deadline):
    # 21 points: the 6 rational points and their 15 pairwise sums, whose
    # relations add exactly 15 common ones
    pts = with_pairwise_sums(RATPTS)
    with deadline(10):
        bound, analysis = independence_rank(C2, pts, [37, 73])
    bound6, analysis6 = independence_rank(C2, RATPTS, [37, 73])
    assert bound == bound6 == 6
    assert len(analysis["common_relations"]) == \
        15 + len(analysis6["common_relations"])


def test_independence_duplicates():
    pts = [RATPTS[0], RATPTS[0]]
    bound, analysis = independence_rank(C2, pts, [37])
    assert bound <= 1


def test_single_point_bound():
    bound, _ = independence_rank(C2, [RATPTS[1]], [37])
    assert bound == 1


def test_unramified_images_check_example_II():
    sums = [("sum", (RATPTS[3], RATPTS[2])),   # (-2)+(-6)
            ("sum", (RATPTS[3], RATPTS[1])),   # (-2)+(-9)
            ("sum", (RATPTS[3], RATPTS[0])),   # (-2)+(-17)
            ("sum", (RATPTS[4], RATPTS[5]))]   # (0)+(4)
    # primes where images could ramify: bad primes, 2, and divisors of y
    for p in (2, 37, 73, 191, 941, 317, 557, 1223):
        ramified = ~EtaleAlgebra(C2.factors, p).basis.unramified
        _, rows = image_table(C2, sums, p)
        assert all(mask & ramified == 0 for _, mask, _ in rows), (p, rows)
    # a row that is genuinely ramified at 191
    _, rows = image_table(C2, [("alpha", 4)], 191)
    assert rows[0][1] & ~EtaleAlgebra(C2.factors, 191).basis.unramified


def test_norm_condition_random():
    # N(x - T) = f(x).  Where every piece is unramified, the norm of a
    # class with valuation parities v_i and quadratic-character bits q_i
    # has valuation parity sum f_i v_i and quadratic character sum q_i.
    rng = random.Random(3)
    algebras = {p: EtaleAlgebra(C2.factors, p) for p in (3, 37, 73)}
    checked = 0
    while checked < 200:
        x = Fraction(rng.randrange(-300, 300), rng.choice([1, 1, 2, 3, 5]))
        p = rng.choice([3, 37, 73])
        fx = C2.f.eval(x)
        if fx == 0:
            continue
        alg = algebras[p]
        mask = alg.image_of_affine(x)
        # every piece at these primes is unramified: a valuation bit, then
        # a quadratic-character bit
        assert set(alg.basis.kinds) == {"unramified"}
        bits = [mask >> lo & 3 for lo in alg.basis.offsets[:-1]]
        v = valuation(fx, p)
        unit = fx / Fraction(p) ** v
        qr = 0 if legendre(unit.numerator * unit.denominator % p, p) == 1 \
            else 1
        assert sum(piece.f * (b & 1)
                   for piece, b in zip(alg.pieces, bits)) % 2 == v % 2
        assert sum(b >> 1 for b in bits) % 2 == qr
        checked += 1


def test_images_of_curve_points_are_norm_kernel():
    # for genuine curve points f(x) = y^2 is a square, so the norm
    # condition holds automatically; check the advertised invariant
    for p in (37, 73, 191):
        for x in (-17, -9, -6, -2, 0, 4):
            assert square_class(C2.f.eval(Fraction(x)), p) == 0
