import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qdescent.arith import (FactoringBudgetExceeded, factor_integer, is_prime,
                            odd_primes, residue, square_class,
                            squarefree_part, unramified_class, valuation)
from qdescent.poly import SPLIT_BOUND


def test_factor_small():
    f = factor_integer(-2592)
    assert f.sign == -1 and f.as_dict() == {2: 5, 3: 4}
    assert f.value() == -2592


def test_factor_unit():
    f = factor_integer(1)
    assert f.sign == 1 and f.factors == ()


def test_factor_paper_discriminant():
    # disc of Y^2 = X^3 - 26X^2 + 135X - 567
    f = factor_integer(-(2 ** 4) * 3 ** 4 * 23 ** 2 * 239)
    assert f.sign == -1
    assert f.as_dict() == {2: 4, 3: 4, 23: 2, 239: 1}


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_integer(0)


@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12).filter(lambda n: n != 0))
def test_factor_roundtrip(n):
    assert factor_integer(n).value() == n


def test_factor_large_prime_factors(deadline):
    # past trial division: Brent's rho on the cofactor, is_prime on the rest
    mestre_disc = -1217 * 381991 * 78031093338905335441668500509
    with deadline(30):
        assert factor_integer(3 * 34271479325879).as_dict() == \
            {3: 1, 34271479325879: 1}
        assert factor_integer(10000019 * 99999989).as_dict() == \
            {10000019: 1, 99999989: 1}
        assert factor_integer(2 ** 3 * 1009 ** 2 * 10000019 ** 3).as_dict() == \
            {2: 3, 1009: 2, 10000019: 3}
        f = factor_integer(mestre_disc)
    assert f.sign == -1
    assert f.as_dict() == {1217: 1, 381991: 1, 78031093338905335441668500509: 1}


def test_factor_budget_names_the_size(deadline):
    # no prime factor below 10^12: the rho budget runs out in about a
    # second and the error gives the number of digits.  The 38-digit
    # discriminant of Mestre's curve, the largest number an ell-ledger pass
    # factors, splits within it (test_factor_large_prime_factors)
    p = 1000000000000000000000000000057
    q = 1000000000000000000000000000099
    with deadline(20):
        with pytest.raises(FactoringBudgetExceeded, match="61-digit"):
            factor_integer(p * q)


def test_valuation_basics():
    assert valuation(31 ** 3, 31) == 3
    assert valuation(Fraction(1, 4), 2) == -2
    assert valuation(0, 5) is None


def test_valuation_additive():
    a, b = Fraction(18, 5), Fraction(50, 27)
    for p in (2, 3, 5):
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_residue_of_a_rational():
    # n/d mod m is the r in [0, m) with d * r = n mod m
    for q in (Fraction(-7, 3), Fraction(5, 4), 12, Fraction(-1, 11)):
        n, d = Fraction(q).as_integer_ratio()
        for m in (5, 7, 25, 49):
            r = residue(q, m)
            assert 0 <= r < m and (d * r - n) % m == 0


def test_square_class_examples():
    # -23 is a square in Q_2 (= 1 mod 8)
    assert square_class(-23, 2) == 0
    assert square_class(1, 7) == 0
    assert square_class(1, 0) == 0
    assert square_class(-1, 0) == 1
    # bit 0 the valuation parity, then the unit bits; the top bit is the
    # unramified class
    assert [square_class(u, 2) for u in (1, 3, 5, 7, 2)] == [0, 2, 4, 6, 1]
    assert unramified_class(2) == 4
    assert [square_class(q, 5) for q in (4, 2, 10, Fraction(2, 25))] \
        == [0, 2, 3, 2]
    assert unramified_class(5) == 2
    with pytest.raises(ValueError):
        square_class(0, 3)


def test_square_class_product_examples():
    a, b = square_class(3, 5), square_class(2, 5)
    assert a ^ a == 0
    assert square_class(1, 5) ^ b == b
    assert a ^ b == square_class(6, 5)


def test_group_sizes():
    # 2 classes at the real place, 8 at 2 and 4 at an odd prime
    assert {square_class(q, 0) for q in (1, -1, 2, Fraction(-1, 3))} == {0, 1}
    assert {square_class(2 ** e * u, 2) for e in range(4)
            for u in range(1, 32, 2)} == set(range(8))
    for p in (3, 5, 7, 11, 13):
        assert {square_class(p ** e * u, p) for e in range(4)
                for u in range(1, p)} == set(range(4))


@given(st.fractions(min_value=Fraction(-200), max_value=Fraction(200))
       .filter(lambda q: q != 0),
       st.fractions(min_value=Fraction(-200), max_value=Fraction(200))
       .filter(lambda q: q != 0),
       st.sampled_from([0, 2, 3, 5, 7, 23]))
def test_square_class_homomorphism(a, b, p):
    assert square_class(a * b, p) == square_class(a, p) ^ square_class(b, p)


@given(st.fractions(min_value=Fraction(-100), max_value=Fraction(100))
       .filter(lambda q: q != 0),
       st.fractions(min_value=Fraction(-30), max_value=Fraction(30))
       .filter(lambda q: q != 0),
       st.sampled_from([0, 2, 3, 5, 7]))
def test_square_class_invariant_under_squares(q, s, p):
    assert square_class(q * s * s, p) == square_class(q, p)


def fraction_unit_part(q, p):
    """The oracle: q / p^v as a Fraction power, the earlier formula."""
    q = Fraction(q)
    return q / Fraction(p) ** valuation(q, p)


def fraction_square_class(q, p):
    """The oracle: the class read off fraction_unit_part."""
    q = Fraction(q)
    if p == 0:
        return int(q < 0)
    u = fraction_unit_part(q, p)
    sym = u.numerator * u.denominator
    if p == 2:
        return valuation(q, p) % 2 | sym % 8 & 6
    return valuation(q, p) % 2 | (pow(sym % p, (p - 1) // 2, p) != 1) << 1


def test_square_class_matches_the_fraction_oracle():
    # seeded rationals and integers, with powers of p in the numerator or
    # the denominator, against the formulas with Fraction(p) ** v
    rng = random.Random(18)
    for p in (0, 2, 3, 5, 191):
        base = p or rng.choice((2, 3, 7))
        for _ in range(400):
            q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6),
                         rng.randint(1, 10 ** 4))
            q *= Fraction(base) ** rng.randint(-6, 6)
            for x in (q, q.numerator):
                assert square_class(x, p) == fraction_square_class(x, p), \
                    (x, p)


def test_padic_square_mod8():
    assert square_class(17, 2) == 0
    assert square_class(3, 2) != 0
    assert square_class(2, 2) != 0
    assert square_class(Fraction(9, 4), 2) == 0


def test_prime_test():
    assert is_prime(941) and is_prime(191) and is_prime(239)
    assert not is_prime(941 * 191)
    assert is_prime(78031093338905335441668500509)


def test_odd_primes_against_is_prime():
    # the dyadic blocks that split_primes reads, seeded ranges below
    # SPLIT_BOUND, and empty and tiny ones
    rng = random.Random(3403)
    ranges = [(2 ** k, min(2 ** (k + 1), SPLIT_BOUND))
              for k in range(1, SPLIT_BOUND.bit_length())]
    ranges += [sorted(rng.randrange(SPLIT_BOUND) for _ in range(2))
               for _ in range(100)]
    ranges += [(lo, hi) for lo in range(6) for hi in range(-1, 12)]
    for lo, hi in ranges:
        assert odd_primes(lo, hi) == [q for q in range(lo, hi)
                                      if q % 2 and is_prime(q)], (lo, hi)


def test_misc():
    assert squarefree_part(-2592) == -2 * 1  # -2^5 3^4 -> -2
