"""Exact integer/rational arithmetic, factorization, and square classes.

Everything is exact: rationals are `fractions.Fraction` and a valuation is
an int, or None for 0 (valuation).  A square class in Q_v*/Q_v*^2 is an
F_2 bitmask (square_class), so that the class of a product is the XOR of
the classes.  No floating point anywhere.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_BOUND = 1000  # trial division below this; rho on the rest
_RHO_BATCH = 128
_RHO_SEED = 1  # fixed seed: reproducible rho walks
# rho steps spent on one composite before factor_integer gives up: enough
# for prime factors up to about 10^12, about a second at 60 digits
_RHO_STEPS = 1 << 20


class FactoringBudgetExceeded(ArithmeticError):
    """factor_integer found no factor of a composite within _RHO_STEPS."""


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed witness set.

    Deterministic for n < 3.3 * 10^24; for larger n the witness set makes a
    false positive astronomically unlikely (and every prime we certify in
    anger is small or comes with an independent cross-check).
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def odd_primes(lo: int, hi: int) -> list[int]:
    """The odd primes q with lo <= q < hi, read from a bytearray sieve of
    Eratosthenes to hi: only the block [lo, hi) is listed."""
    hi = max(hi, 2)
    s = bytearray([1]) * hi
    s[:2] = b"\0\0"
    for q in range(2, math.isqrt(hi - 1) + 1):
        if s[q]:
            s[q * q::q] = bytes(len(range(q * q, hi, q)))
    return [q for q in range(lo | 1, hi, 2) if s[q]]


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite n: Brent's cycle finding, with the
    gcd taken once per batch of _RHO_BATCH steps and the batch replayed
    one step at a time when it overshoots.  Raises FactoringBudgetExceeded
    after _RHO_STEPS steps."""
    rng = random.Random(_RHO_SEED ^ n)
    steps = 0
    while True:
        c = rng.randrange(1, n)
        y = rng.randrange(2, n)
        g, q, r = 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            steps += 2 * r
            if g == 1 and steps > _RHO_STEPS:
                raise FactoringBudgetExceeded(
                    f"no factor of a {len(str(n))}-digit composite within "
                    f"{_RHO_STEPS} rho steps")
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


@dataclass(frozen=True)
class Factorization:
    """sign * prod(p^e) with primes strictly increasing and e != 0."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def value(self) -> Fraction:
        v = Fraction(self.sign)
        for p, e in self.factors:
            v *= Fraction(p) ** e
        return v

    def as_dict(self) -> dict[int, int]:
        return dict(self.factors)


def factor_integer(n: int) -> Factorization:
    """Exact prime factorization; rejects 0.  Raises FactoringBudgetExceeded
    when a composite part has no prime factor within reach of _RHO_STEPS
    rho steps (as a product of two 30-digit primes)."""
    if n == 0:
        raise ValueError("cannot factor 0")
    sign = -1 if n < 0 else 1
    n = abs(n)
    out: dict[int, int] = {}
    for p in range(2, _TRIAL_BOUND):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:  # every prime factor left is >= _TRIAL_BOUND
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            d = _pollard_rho(m)
            stack += [d, m // d]
    return Factorization(sign, tuple(sorted(out.items())))


def _split_p(q, p: int) -> tuple[int, int, int]:
    """(v, a, b) with q = p^v * a / b and p dividing neither a nor b, for a
    nonzero int or Fraction q, by integer division alone."""
    a, b, v = q.numerator, q.denominator, 0
    while a % p == 0:
        a //= p
        v += 1
    while b % p == 0:
        b //= p
        v -= 1
    return v, a, b


def valuation(q, p: int):
    """v_p(q) for an int or a Fraction q; None for q = 0."""
    return None if q == 0 else _split_p(q, p)[0]


def residue(q, m: int) -> int:
    """The residue mod m of q, an int or a Fraction whose denominator is
    prime to m."""
    return q.numerator * pow(q.denominator, -1, m) % m


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def square_class(q, p: int) -> int:
    """The class of the nonzero rational q (an int or a Fraction) in
    Q_p*/Q_p*^2 as an F_2 bitmask; p = 0 is the real place.

    Bit 0 is the parity of v_p(q), then for the unit part u: at odd p one
    bit, set when u is not a square mod p; at p = 2 the bits 1 and 2 of
    u mod 8 (u is 3^a * 5^s times a square, with a, s those bits).  At the
    real place the one bit is the sign.  The top bit spans the unramified
    classes (unramified_class).  This is the layout of a component of
    residue degree 1 of an etale algebra (localfields).
    """
    if q == 0:
        raise ValueError("0 has no square class")
    if p == 0:
        return int(q < 0)
    # the unit part a/b is a square exactly when a*b is
    v, a, b = _split_p(q, p)
    if p == 2:
        return v % 2 | a * b % 8 & 6
    return v % 2 | (legendre(a * b, p) < 0) << 1


def unramified_class(p: int) -> int:
    """The mask of the unit class of Q_p*/Q_p*^2 whose square root generates
    the unramified quadratic extension: the top bit of square_class."""
    return 4 if p == 2 else 2


# ---------------------------------------------------------------------------
# Places of Q


@dataclass(frozen=True, order=True)
class Place:
    """A place of Q: Finite(p) or the real place."""

    p: int  # 0 encodes the real infinite place

    def __post_init__(self):
        if self.p != 0 and not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def is_real(self) -> bool:
        return self.p == 0

    def __repr__(self):
        return "oo" if self.is_real else str(self.p)


REAL_PLACE = Place(0)


def finite(p: int) -> Place:
    return Place(p)


def sqrt_exact(n: int):
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def rational_sqrt(q) -> Fraction | None:
    q = Fraction(q)
    if q < 0:
        return None
    rn = sqrt_exact(q.numerator)
    rd = sqrt_exact(q.denominator)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd)


def squarefree_part(n: int) -> int:
    """The squarefree kernel of a nonzero integer (keeps the sign)."""
    f = factor_integer(n)
    out = f.sign
    for p, e in f.factors:
        if e % 2:
            out *= p
    return out
