from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qdescent.arith import (INFINITY, REAL_PLACE, FactoringBudgetExceeded,
                            all_square_classes, factor_integer, finite,
                            is_padic_square, is_prime,
                            least_nonresidue, sc_identity, sc_mul,
                            square_class_at, squarefree_part, unit_part,
                            valuation)


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
    assert valuation(0, 5) is INFINITY
    assert INFINITY > 10 ** 9


def test_valuation_additive():
    a, b = Fraction(18, 5), Fraction(50, 27)
    for p in (2, 3, 5):
        assert valuation(a * b, p) == valuation(a, p) + valuation(b, p)


def test_square_class_examples():
    # -23 is a square in Q_2 (= 1 mod 8)
    assert square_class_at(-23, finite(2)).is_trivial()
    assert square_class_at(1, finite(7)).is_trivial()
    assert square_class_at(1, REAL_PLACE).is_trivial()
    assert not square_class_at(-1, REAL_PLACE).is_trivial()


def test_sc_mul_examples():
    v = finite(5)
    a = square_class_at(3, v)
    assert sc_mul(a, a).is_trivial()
    b = square_class_at(2, v)
    assert sc_mul(sc_identity(v), b) == b
    assert sc_mul(a, b) == square_class_at(6, v)


def test_sc_mul_place_mismatch():
    with pytest.raises(ValueError):
        sc_mul(square_class_at(2, finite(3)), square_class_at(2, finite(5)))


def test_group_sizes():
    assert len(all_square_classes(REAL_PLACE)) == 2
    assert len(all_square_classes(finite(2))) == 8
    for p in (3, 5, 7, 11, 13):
        cls = all_square_classes(finite(p))
        assert len(cls) == 4
        for c in cls:
            assert sc_mul(c, c).is_trivial()


@given(st.fractions(min_value=Fraction(-200), max_value=Fraction(200))
       .filter(lambda q: q != 0),
       st.fractions(min_value=Fraction(-200), max_value=Fraction(200))
       .filter(lambda q: q != 0),
       st.sampled_from([0, 2, 3, 5, 7, 23]))
def test_square_class_homomorphism(a, b, pp):
    v = REAL_PLACE if pp == 0 else finite(pp)
    assert square_class_at(a * b, v) == sc_mul(square_class_at(a, v),
                                               square_class_at(b, v))


@given(st.fractions(min_value=Fraction(-100), max_value=Fraction(100))
       .filter(lambda q: q != 0),
       st.fractions(min_value=Fraction(-30), max_value=Fraction(30))
       .filter(lambda q: q != 0),
       st.sampled_from([2, 3, 5, 7]))
def test_square_class_invariant_under_squares(q, s, p):
    v = finite(p)
    assert square_class_at(q * s * s, v) == square_class_at(q, v)


def test_padic_square_mod8():
    assert is_padic_square(17, 2)
    assert not is_padic_square(3, 2)
    assert not is_padic_square(2, 2)
    assert is_padic_square(Fraction(9, 4), 2)


def test_prime_test():
    assert is_prime(941) and is_prime(191) and is_prime(239)
    assert not is_prime(941 * 191)
    assert is_prime(78031093338905335441668500509)


def test_misc():
    assert unit_part(Fraction(50, 3), 5) == Fraction(2, 3)
    assert least_nonresidue(191) in range(2, 191)
    assert squarefree_part(-2592) == -2 * 1  # -2^5 3^4 -> -2
