import itertools
import operator
import random
from fractions import Fraction
from functools import reduce

import pytest

from qdescent.arith import square_class, valuation
from qdescent.descent_local import _piece_root_valuation
from qdescent.localfields import (EtaleAlgebra, echelon, relations,
                                  span_closure)
from qdescent.poly import (RatPoly, UnresolvedSplitting, _vp_bounded,
                           discriminant, factor_over_Z, mp_divmod_monic,
                           mp_mul, mp_pow_mod, parse_poly)

QUINTIC = parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1")
# unramified pieces at 2: three linear; three linear and one of degree 2;
# two linear and one of degree 3; one of degree 4; and the Example II
# quintic, irreducible of degree 5
DYADIC = [parse_poly(s) for s in ("X^3-X+8", "X^5+X^4-X^2-X+8",
                                  "X^5+X^3+X^2+X+8", "X^4+X+1")] + [QUINTIC]
# the case names of DYADIC, written out so that they stay the same when the
# way RatPoly prints a negative coefficient changes
DYADIC_IDS = ["X^3 + -1*X + 8", "X^5 + X^4 + -1*X^2 + -1*X + 8",
              "X^5 + X^3 + X^2 + X + 8", "X^4 + X + 1",
              "X^5 + 16*X^4 + -274*X^3 + 817*X^2 + 178*X + 1"]


def algebra(f, p):
    """The etale algebra of f at p, from its factors over Q."""
    return EtaleAlgebra(factor_over_Z(f), p)


def sym_odd(alg, mask):
    """(v_parity, qr_bit) of each component of a class at an odd prime,
    ("ram", v_parity) at a ramified piece."""
    out = []
    for i, kind in enumerate(alg.basis.kinds):
        bits, _ = component_bits(alg, mask, i)
        out.append(("ram", bits) if kind == "ramified"
                   else (bits & 1, bits >> 1))
    return tuple(out)


def is_unramified(alg, mask):
    """Is the class in the unramified subspace of the algebra?"""
    return mask & ~alg.basis.unramified == 0


# paper symbols at odd p: 1 -> (0,0); n (non-residue) -> (0,1);
# pi -> (1,0); n*pi -> (1,1)
ONE, NR, PI, NRPI = (0, 0), (0, 1), (1, 0), (1, 1)


def row_of_point(alg, x):
    return sym_odd(alg, alg.image_of_affine(Fraction(x)))


def row_of_root(alg, i):
    return sym_odd(alg, alg.image_of_torsion_root(i))


def test_example_II_table_at_191():
    alg = algebra(QUINTIC, 191)
    roots = [f.root_mod(191) for f in alg.pieces]
    assert roots == [5, 6, 37, 159, 159]
    # rational point rows, paper order of columns x-5, x-6, x-37, x-a4, x-a5
    assert row_of_point(alg, -17) == (ONE, NR, NR, ONE, ONE)
    assert row_of_point(alg, -9) == (ONE, NR, NR, ONE, ONE)
    assert row_of_point(alg, -6) == (ONE, NR, NR, ONE, ONE)
    assert row_of_point(alg, -2) == (ONE, NR, NR, ONE, ONE)
    assert row_of_point(alg, 0) == (NR, NR, ONE, ONE, ONE)
    assert row_of_point(alg, 4) == (NR, NR, ONE, ONE, ONE)
    # torsion rows
    assert row_of_root(alg, 0) == (ONE, NR, NR, NR, NR)
    assert row_of_root(alg, 1) == (ONE, ONE, ONE, NR, NR)
    assert row_of_root(alg, 2) == (ONE, NR, NR, ONE, ONE)
    r4 = row_of_root(alg, 3)
    r5 = row_of_root(alg, 4)
    assert r4 == r5
    assert r4[:3] == (ONE, ONE, NR)
    assert {r4[3], r4[4]} == {PI, NRPI}  # pi and -pi up to block labeling


def test_example_II_table_at_37():
    alg = algebra(QUINTIC, 37)
    roots = [f.root_mod(37) for f in alg.pieces]
    assert roots == [4, 8, 12, 16, 18]
    assert row_of_point(alg, -17) == (ONE, ONE, NR, ONE, NR)
    assert row_of_point(alg, -9) == (NR, NR, ONE, ONE, ONE)
    assert row_of_point(alg, -6) == (ONE, NR, NR, NR, NR)
    assert row_of_point(alg, 0) == (ONE, NR, ONE, ONE, NR)
    # the published row for (-2) reads 2,1,1,1,2, but the paper's own
    # relation (-2) = (-9) + (-6) forces 2,1,2,2,2 (Euler: 23 and 19 are
    # non-residues mod 37); the printed entries 3,4 are typos
    assert row_of_point(alg, -2) == (NR, ONE, NR, NR, NR)
    row4 = row_of_point(alg, 4)
    assert row4 == (ONE, ONE, NR, ONE, NR)  # v(4 - a1) = 2, unit a residue
    # relations the paper asserts in J(Q_37)/2J(Q_37)
    assert row_of_point(alg, 4) == row_of_point(alg, -17)
    m_96 = tuple((a[0] + b[0]) % 2 for a, b in
                 zip(row_of_point(alg, -9), row_of_point(alg, -6)))
    prod = tuple(((a[0] + b[0]) % 2, (a[1] + b[1]) % 2) for a, b in
                 zip(row_of_point(alg, -9), row_of_point(alg, -6)))
    assert prod == row_of_point(alg, -2)


def test_example_II_table_at_73():
    alg = algebra(QUINTIC, 73)
    # paper columns x+26, x+19, x+2, x-13, x-18 i.e. roots 47, 54, 71, 13, 18;
    # our components sort by ascending residue: 13, 18, 47, 54, 71
    roots = [f.root_mod(73) for f in alg.pieces]
    assert roots == [13, 18, 47, 54, 71]
    perm = [2, 3, 4, 0, 1]  # paper column order within our order

    def paper_row(x):
        r = row_of_point(alg, x)
        return tuple(r[i] for i in perm)

    assert paper_row(-17) == (ONE, ONE, NR, NR, ONE)
    assert paper_row(-9) == (NR, NR, NR, NR, ONE)
    assert paper_row(-6) == (NR, NR, ONE, ONE, ONE)
    assert paper_row(0) == (NR, ONE, ONE, NR, ONE)
    assert paper_row(-2) == (ONE, NR, NR, NR, NR)
    assert paper_row(4) == (NR, ONE, ONE, ONE, NR)


def test_example_II_real_place():
    alg = algebra(QUINTIC, 0)
    assert alg.n_real == 5 and alg.n_complex == 0
    signs = lambda x: tuple(-1 if alg.image_of_affine(Fraction(x)) >> k & 1
                            else 1 for k in range(5))
    assert signs(-2) == (1, -1, -1, -1, -1)
    assert signs(0) == (1, 1, 1, -1, -1)


def test_real_classes_against_rational_roots():
    # paper: one root of the quintic in (-28,-27), two in (-1,0), one in
    # (5,6), one in (6,7); x - alpha < 0 for the roots alpha above x
    alg = algebra(QUINTIC, 0)
    assert [alg.image_of_affine(Fraction(x))
            for x in (-28, -27, -1, 0, 5, 6, 7)] == [31, 30, 30, 24, 24, 16, 0]
    # f = prod (X - r_i) * prod (X^2 + bX + c) with b^2 < 4c, its
    # factors over Q: the real roots are the r_i, and the bit of r_i is set
    # exactly when r_i > x
    rng = random.Random(12)
    for _ in range(80):
        roots = sorted(rng.sample(range(-30, 31), rng.randint(0, 5)))
        factors = [RatPoly([-r, 1]) for r in roots]
        pairs = rng.randint(0 if roots else 1, 2)
        for c in rng.sample(range(10, 40), pairs):
            factors.append(RatPoly([c, rng.randint(-6, 6), 1]))
        alg = EtaleAlgebra(factors, 0)
        f = alg.f
        assert (alg.n_real, alg.n_complex) == (len(roots), pairs), f
        xs = [Fraction(rng.randint(-70, 70), rng.randint(1, 4))
              for _ in range(10)] + [Fraction(r) + d for r in roots
                                     for d in (Fraction(-1, 2), Fraction(1, 3))]
        for x in xs:
            if x in roots:
                continue
            want = sum(1 << k for k, r in enumerate(roots) if r > x)
            assert alg.image_of_affine(x) == want, (f, x)


def test_norm_kernel_condition():
    # each table row satisfies the kernel-of-norm condition: f(x) is a
    # square, and at these primes f splits into linear pieces, so the
    # valuation parities and the quadratic-character bits each sum to 0
    for p in (37, 73, 191):
        alg = algebra(QUINTIC, p)
        for x in (-17, -9, -6, -2, 0, 4):
            assert square_class(QUINTIC.eval(Fraction(x)), p) == 0
            row = row_of_point(alg, x)
            assert sum(v for v, _ in row) % 2 == 0
            assert sum(u for _, u in row) % 2 == 0


def test_additivity_alpha5_row():
    # image(a5) = image(a1)*image(a2)*image(a3)*image(a4) at 191
    alg = algebra(QUINTIC, 191)
    prod = alg.image_of_torsion_root(0)
    for i in (1, 2, 3):
        prod ^= alg.image_of_torsion_root(i)
    assert prod == alg.image_of_torsion_root(4)


def test_span_at_191_and_2():
    alg = algebra(QUINTIC, 191)
    vs = [alg.image_of_torsion_root(0), alg.image_of_torsion_root(3),
          alg.image_of_affine(Fraction(-2)), alg.image_of_affine(Fraction(0))]
    assert len(echelon(vs)) == 4  # the paper's basis of J(Q_191)/2J(Q_191)
    unram = [v for v in span_closure(vs) if is_unramified(alg, v)]
    assert len(unram) == 2 ** 3  # I^2(Q_191, J) has rank 3

    alg2 = algebra(QUINTIC, 2)
    vs2 = [alg2.image_of_affine(Fraction(x)) for x in (-17, -9, -6, -2, 0, 4)]
    assert len(echelon(vs2)) <= 2  # S^2(Q_2, J) has rank 2
    # none of the nontrivial span elements is unramified: C^2(Q_2,J) trivial
    assert sum(1 for v in span_closure(vs2) if is_unramified(alg2, v)) == 1


def test_unramified_images_at_2():
    alg2 = algebra(QUINTIC, 2)
    im = lambda x: alg2.image_of_affine(Fraction(x))
    # the four sums of the paper must be unramified at 2
    assert is_unramified(alg2, im(-2) ^ im(-6))
    assert is_unramified(alg2, im(-2) ^ im(-9))
    assert is_unramified(alg2, im(-2) ^ im(-17))
    assert is_unramified(alg2, im(0) ^ im(4))


def unit_squares(h, k):
    """The squares of the units of (Z/2^k)[t]/h for k = 2, 3, by brute
    force (x^2 mod 2^k depends only on x mod 2^(k-1))."""
    f = len(h) - 1
    m = 2 ** k
    hm = [c % m for c in h]
    out = set()
    for x in itertools.product(range(m // 2), repeat=f):
        if any(c % 2 for c in x):
            sq = mp_divmod_monic(mp_mul(list(x), list(x), m), hm, m)[1]
            out.add(tuple(sq + [0] * (f - len(sq))))
    return out


def residue(a, h, k):
    """a mod (h, 2^k) as a tuple of deg h coefficients."""
    m = 2 ** k
    r = mp_divmod_monic([c % m for c in a], [c % m for c in h], m)[1]
    return tuple(r + [0] * (len(h) - 1 - len(r)))


def component_bits(alg, mask, i):
    lo, hi = alg.basis.offsets[i], alg.basis.offsets[i + 1]
    return mask >> lo & (1 << hi - lo) - 1, hi - lo


@pytest.mark.parametrize("f", ["X^5-X+8", "X^5+X^4+X^3+8"])
def test_dyadic_classes_in_the_Z_model(f):
    # pieces whose factor in X is reducible mod 2 (it once raised here):
    # brute force in the coordinate Z of each piece, theta = shift +
    # 2^scale zeta, where the factor is irreducible mod 2.  The class of
    # x - theta is trivial exactly when it is 2^(2j) times a unit that is a
    # square mod 8, and unramified exactly when that unit is a square mod 4
    f = parse_poly(f)
    alg = algebra(f, 2)
    assert any(piece.scale for piece in alg.pieces)
    for x in range(-12, 13):
        if f.eval(x) == 0:
            continue
        mask = alg.image_of_affine(Fraction(x))
        for i, piece in enumerate(alg.pieces):
            if piece.kind == "ramified":
                continue
            m = 2 ** piece.prec
            elem = mp_divmod_monic([x - piece.shift, -2 ** piece.scale],
                             [c % m for c in piece.zlift], m)[1]
            v = min(valuation(c, 2) for c in elem if c)
            unit = [c // 2 ** v for c in elem]
            bits, width = component_bits(alg, mask, i)
            assert (bits == 0) == (v % 2 == 0 and residue(unit, piece.zlift, 3)
                                   in unit_squares(piece.zlift, 3)), (x, i)
            # every bit but the trace bit clear: the class is unramified
            assert (bits & ~(1 << width - 1) == 0) == (
                v % 2 == 0 and residue(unit, piece.zlift, 2)
                in unit_squares(piece.zlift, 2)), (x, i)


def test_odd_classes_from_norms_match_residue_characters():
    # at odd p the class is read from the norm; check it against the
    # quadratic character of the unit part in the residue field
    # F_p[t]/(zlift mod p) of the Z model, on random elements of the
    # unramified pieces of a seeded family of quintics
    rng = random.Random(3)
    checked = 0
    while checked < 600:
        f = RatPoly([rng.randint(-12, 12) for _ in range(5)] + [1])
        p = rng.choice((3, 5, 7))
        if discriminant(f) == 0:
            continue
        try:
            alg = algebra(f, p)
        except UnresolvedSplitting:
            continue
        for i, piece in enumerate(alg.pieces):
            if piece.kind != "unramified":
                continue
            h = [c % p for c in piece.zlift]
            q = p ** piece.f
            for _ in range(10):
                v = rng.randrange(3)
                unit = [rng.randrange(p ** 4) for _ in range(piece.f)]
                if not mp_divmod_monic([c % p for c in unit], h, p)[1]:
                    continue
                elem = [c * p ** v for c in unit]
                chi = mp_pow_mod([c % p for c in unit], (q - 1) // 2, h, p)
                want = v % 2 | (0 if chi == [1] else 2)
                got = alg.class_of_element(i, elem, piece.prec)
                assert got == want << alg.basis.offsets[i], (f, p, elem)
                checked += 1


@pytest.mark.parametrize("f", DYADIC, ids=DYADIC_IDS)
def test_dyadic_square_classes_are_an_F2_space(f):
    # the class map at 2 is a homomorphism to the F_2-space of masks; a
    # unit's class is trivial exactly when the unit is a square mod 8
    # (hence a square, by Hensel), and unramified exactly when it is a
    # square times 1 + 4s, i.e. a square mod 4
    alg = algebra(f, 2)
    rng = random.Random(11)
    for i, piece in enumerate(alg.pieces):
        if piece.kind == "ramified":
            continue
        m = 2 ** piece.prec
        squares = {k: unit_squares(piece.zlift, k) for k in (2, 3)}

        def unit():
            while True:
                a = [rng.randrange(m) for _ in range(piece.f)]
                if any(c % 2 for c in a):
                    return a

        for _ in range(40):
            a, b = unit(), unit()
            ca = alg.class_of_element(i, a, piece.prec)
            cb = alg.class_of_element(i, b, piece.prec)
            assert alg.class_of_element(i, mp_mul(a, b, m), piece.prec) \
                == ca ^ cb
            assert (ca == 0) == (residue(a, piece.zlift, 3) in squares[3])
            assert is_unramified(alg, ca) == \
                (residue(a, piece.zlift, 2) in squares[2])


EXAMPLE_II = "X^5+16*X^4-274*X^3+817*X^2+178*X+1"


@pytest.mark.parametrize("f, p, point, want", [
    # the real place: the sign at each real root, 1 at a complex pair
    ("X^5-5*X+1", 0, "0", ("1", "-1", "-1", "1")),
    ("X^5-5*X+1", 0, "-2", ("-1", "-1", "-1", "1")),
    # a ramified piece: sq or pi*sq
    ("X^3-2", 3, "-4", ("pi*sq",)),
    ("X^3-2", 2, "-3", ("sq",)),
    ("X^5+X^3+X^2+X+8", 5, "-12", ("pi", "sq")),
    # an unramified piece at odd p: 1, n, pi or n*pi
    ("X^3-X+8", 5, "-3", ("1",)),
    ("X^3-X+8", 3, "-12", ("n",)),
    ("X^3-X+8", 3, "-11/3", ("pi",)),
    ("X^3-X+8", 3, "-10/3", ("n*pi",)),
    (EXAMPLE_II, 191, "alpha_4", ("1", "1", "n", "n*pi", "pi")),
    # an unramified piece at 2: 1, u or w<bits>t<trace>, each times pi
    ("X^3-X+8", 2, "-6", ("pi*1", "w1t1", "u")),
    ("X^3-X+8", 2, "-3", ("u", "pi*u", "pi*w1t1")),
    ("X^3-X+8", 2, "-12", ("w1t0", "1", "w1t1")),
    ("X^5+X^4-X^2-X+8", 2, "-37/2", ("pi*w1t0", "pi*u", "pi*1", "pi*w11t0")),
    (EXAMPLE_II, 2, "-17", ("w11011t1",)),
    (EXAMPLE_II, 2, "0", ("w10010t1",)),
    (EXAMPLE_II, 2, "-37/2", ("pi*w11000t0",)),
])
def test_symbols_of_each_kind(f, p, point, want):
    # point is x, for the image of x - T, or alpha_i, for the torsion root
    # of the i-th piece
    alg = algebra(parse_poly(f), p)
    if point.startswith("alpha_"):
        mask = alg.image_of_torsion_root(int(point[6:]) - 1)
    else:
        mask = alg.image_of_affine(Fraction(point))
    assert alg.basis.symbols(mask) == want


def test_echelon_and_relations_against_subset_search():
    rng = random.Random(13)
    for _ in range(300):
        masks = [rng.getrandbits(8) & rng.getrandbits(8)
                 for _ in range(rng.randint(0, 9))]
        combos = {s: 0 for s in range(2 ** len(masks))}
        for s in combos:
            for i, m in enumerate(masks):
                if s >> i & 1:
                    combos[s] ^= m
        for basis, space in ((echelon(masks), set(combos.values())),
                             (relations(masks),
                              {s for s, m in combos.items() if m == 0})):
            # reduced echelon: each top bit is set in no other vector
            assert all(b >> (c.bit_length() - 1) & 1 == 0
                       for b in basis for c in basis if b != c)
            span = {0}
            for b in basis:
                span |= {x ^ b for x in span}
            assert span == space and len(span) == 2 ** len(basis)


def lifted_image_of_affine(alg, x):
    """The oracle: the mask of (x - T) read off the norm of every piece's
    lift, mod p^prec, as at p = 2."""
    mask = 0
    for i, piece in enumerate(alg.pieces):
        if piece.root is not None:
            mask |= alg.class_of_element(i, x - piece.root, piece.prec)
            continue
        m = alg.p ** piece.prec
        elem = [x.numerator * x.denominator, -x.denominator ** 2]
        mask |= alg.class_of_element(i, alg.to_z(i, elem, m), piece.prec)
    return mask


def lifted_image_of_torsion_root(alg, i):
    """The oracle: the mask of the torsion divisor of piece i, every entry
    read off the norm of a product of lifts mod p^prec."""
    if alg.pieces[i].kind == "ramified":
        raise ValueError("torsion root lives in a ramified component")
    mask = 0
    for j, piece_j in enumerate(alg.pieces):
        prec = min(alg.pieces[i].prec, piece_j.prec)
        m = alg.p ** prec
        elem = [1]
        for k in ([k for k in range(alg.n_comp) if k != i] if j == i
                  else [i]):
            elem = mp_mul(elem, alg.pieces[k].lift, m)
        elem = mp_divmod_monic(elem, [c % m for c in piece_j.lift], m)[1]
        if (alg.pieces[i].degree - (j == i)) % 2:
            elem = [-c % m for c in elem]
        mask |= alg.class_of_element(j, alg.to_z(j, elem, m), prec)
    return mask


def or_error(fn, *args):
    """fn(*args), or the type of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, UnresolvedSplitting) as exc:
        return type(exc)


def test_residue_reads_match_lifted_reads():
    # seeded f of degree 3 to 7 at odd good and bad primes, and x of three
    # kinds: p-integral, not p-integral, and congruent to a root mod p.
    # A fresh algebra reads from residues; the oracle reads the same
    # algebra with every lift forced.
    rng = random.Random(18)
    seen = {"integral": 0, "non-integral": 0, "root": 0, "bad": 0}
    for _ in range(60):
        d = rng.randint(3, 7)
        f = RatPoly([rng.randint(-9, 9) for _ in range(d)] + [1])
        disc = discriminant(f)
        if disc == 0:
            continue
        bad = [p for p in (3, 5, 7) if disc % p == 0]
        for p in sorted({rng.choice((3, 5, 7, 11, 13)), *bad[:1]}):
            try:
                lazy = algebra(f, p)
            except UnresolvedSplitting:
                continue
            forced = algebra(f, p)
            for piece in forced.pieces:
                piece.lift
            seen["bad"] += disc % p == 0
            roots = [r for r in range(p)
                     if sum(int(c) * r ** k for k, c in
                            enumerate(f.coeffs)) % p == 0]
            xs = {"integral": Fraction(rng.randint(-99, 99)),
                  "non-integral": Fraction(rng.randint(-99, 99) * p + 1,
                                           p ** rng.randint(1, 3)),
                  "root": (Fraction(rng.choice(roots)
                                    + p * rng.randint(-20, 20))
                           if roots else None)}
            for kind, x in xs.items():
                if x is None or f.eval(x) == 0:
                    continue
                got = or_error(lambda: lazy.image_of_affine(x))
                want = or_error(lifted_image_of_affine, forced, x)
                if UnresolvedSplitting not in (got, want):
                    assert got == want, (f, p, x)
                    seen[kind] += 1
            for k in range(len(lazy.pieces)):
                got = or_error(lambda: lazy.image_of_torsion_root(k))
                if got is ValueError:  # a ramified piece
                    continue
                want = or_error(lifted_image_of_torsion_root, forced, k)
                if UnresolvedSplitting not in (got, want):
                    assert got == want, (f, p, k)
            for k in range(len(factor_over_Z(f))):
                got = or_error(lambda: lazy.image_of_factor_roots(k))
                want = or_error(lambda: reduce(operator.xor, (
                    lifted_image_of_torsion_root(forced, i)
                    for i, piece in enumerate(forced.pieces)
                    if piece.global_factor == k)))
                if UnresolvedSplitting not in (got, want):
                    assert got == want, (f, p, k)
            for fresh, piece in zip(algebra(f, p).pieces, forced.pieces):
                if piece.kind == "ramified":
                    continue
                v = _vp_bounded(piece.lift[0], p, piece.prec)
                want = (None if v is None or v >= piece.prec - 4
                        else v // piece.f)
                if piece.root is None:
                    assert _piece_root_valuation(fresh, p) == want, (f, p)
    assert min(seen.values()) >= 10, seen
