import random
from fractions import Fraction

import pytest

from qdescent.arith import REAL_PLACE, finite, is_prime
from qdescent.jacobian import (HyperellipticCurve, image_table,
                               independence_rank, local_algebra,
                               local_intersection_rank,
                               local_selmer_rank_hyper, local_torsion_rank,
                               parse_descent_point, unramified_images_check,
                               xt_image)
from qdescent.poly import parse_poly

C2 = HyperellipticCurve(parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1"))
RATPTS = [("rational", Fraction(x), None) for x in (-17, -9, -6, -2, 0, 4)]


def test_parse_points():
    assert parse_descent_point("-17") == ("rational", Fraction(-17), None)
    assert parse_descent_point("(-2,73)") == ("rational", Fraction(-2),
                                              Fraction(73))
    assert parse_descent_point("alpha:4") == ("alpha", 4)
    s = parse_descent_point("sum: -2 + -6")
    assert s[0] == "sum" and len(s[1]) == 2


def test_curve_invariants():
    assert C2.genus == 2
    assert sorted(C2.bad_primes()) == [191, 941]
    with pytest.raises(ValueError):
        HyperellipticCurve(parse_poly("X^4+1"))
    with pytest.raises(ValueError):
        HyperellipticCurve(parse_poly("X^3-X-6/5"))


def test_real_images():
    v = xt_image(C2, ("rational", Fraction(-2), None), REAL_PLACE)
    assert tuple(e.unit[0] for e in v.entries) == (1, -1, -1, -1, -1)
    v = xt_image(C2, ("rational", Fraction(0), None), REAL_PLACE)
    assert tuple(e.unit[0] for e in v.entries) == (1, 1, 1, -1, -1)


def test_table_at_191_matches_paper():
    pts = [("alpha", i) for i in (1, 2, 3, 4, 5)] + RATPTS
    labels, rows = image_table(C2, pts, finite(191))
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
    for v in (finite(37), finite(73), finite(191), REAL_PLACE, finite(2)):
        im = xt_image(C2, ("sum", (RATPTS[0], RATPTS[0])), v)
        assert im.is_trivial()


def test_local_selmer_ranks_example_II():
    assert local_selmer_rank_hyper(C2, local_algebra(C2, finite(2))) == 2
    assert local_selmer_rank_hyper(C2, local_algebra(C2, REAL_PLACE)) == 2
    assert local_selmer_rank_hyper(C2, local_algebra(C2, finite(941))) == 0
    assert local_selmer_rank_hyper(C2, local_algebra(C2, finite(191))) == 4
    assert local_torsion_rank(local_algebra(C2, finite(191))) == 4
    assert local_torsion_rank(local_algebra(C2, finite(941))) == 0
    assert local_torsion_rank(local_algebra(C2, finite(2))) == 0


def test_intersection_rank_at_191():
    pts = [("alpha", 1), ("alpha", 4), RATPTS[3], RATPTS[4]]  # (-2), (0)
    rank, complete = local_intersection_rank(C2, pts,
                                             local_algebra(C2, finite(191)))
    assert (rank, complete) == (3, True)


def test_intersection_rank_at_2():
    rank, complete = local_intersection_rank(C2, RATPTS,
                                             local_algebra(C2, finite(2)))
    assert rank == 0
    # the six rational points only span a rank-<=2 space at 2; completeness
    # depends on the span filling S^2(Q_2, J)


def test_independence_rank_example_II():
    bound, analysis = independence_rank(C2, RATPTS, [37, 73])
    assert bound >= 6
    # the paper's relations at 37: (-2) = (-9)+(-6) and (4) = (-17)
    rel37 = analysis[37]["relations"]
    idx = {x: i for i, x in enumerate((-17, -9, -6, -2, 0, 4))}
    m1 = (1 << idx[-2]) | (1 << idx[-9]) | (1 << idx[-6])
    m2 = (1 << idx[4]) | (1 << idx[-17])
    assert m1 in rel37 and m2 in rel37


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
        out = unramified_images_check(C2, sums, finite(p))
        assert all(ok for _, ok in out), (p, out)
    # a row that is genuinely ramified at 191
    out = unramified_images_check(C2, [("alpha", 4)], finite(191))
    assert out[0][1] is False


def test_norm_condition_random():
    rng = random.Random(3)
    from qdescent.localfields import EtaleAlgebra

    algebras = {p: EtaleAlgebra(C2.f, p) for p in (3, 37, 73, 191)}
    checked = 0
    while checked < 200:
        x = Fraction(rng.randrange(-300, 300), rng.choice([1, 1, 2, 3, 5]))
        p = rng.choice([3, 37, 73, 191])
        if C2.f.eval(x) == 0:
            continue
        alg = algebras[p]
        # kernel-of-norm: f(x) must land in the square class the vector
        # multiplies out to; we verify via the exact norm
        assert alg.norm_class_is_square(x) == \
            __import__("qdescent.arith", fromlist=["is_padic_square"]).is_padic_square(C2.f.eval(x), p) if C2.f.eval(x) != 0 else True
        checked += 1


def test_images_of_curve_points_are_norm_kernel():
    # for genuine curve points f(x) = y^2 is a square, so the norm
    # condition holds automatically; check the advertised invariant
    for p in (37, 73, 191):
        from qdescent.localfields import EtaleAlgebra

        alg = EtaleAlgebra(C2.f, p)
        for x in (-17, -9, -6, -2, 0, 4):
            assert alg.norm_class_is_square(Fraction(x))
