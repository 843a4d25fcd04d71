"""Polynomials over Q and over Z/m, factorization, and p-adic splitting types.

Conventions: coefficient lists are constant-term first.  A polynomial over
Q (RatPoly) is integer numerators over one positive denominator, in lowest
terms, and its arithmetic runs on ints: Q[x] and (Z/m)[x] multiply by the
one convolution _convolve, and division over Q is pseudo-division, the
dividend scaled once by a power of the divisor's leading numerator so that
every quotient step is an exact integer division.  Fractions are built
only where a value leaves the arithmetic (RatPoly.coeffs, lead, eval).
Mod-m polynomial helpers work for any modulus m (used with m = p and
m = p^N); gcd and factorization require m prime.  Every product reduced by
a monic modulus goes through one fused kernel, mp_mulmod: the product
unreduced, then reduced in place with one reduction mod m per coefficient,
no quotient, no inverse of the leading 1 and no trimming between steps.
There is one division mod m, mp_divmod_monic, always by a monic divisor.
mp_gcd takes each remainder in place, scaled by the inverse of the
divisor's leading coefficient, and makes only the gcd monic;
_inverse_mod_p, the one inverse mod (g, p), runs Euclid on monic
remainders, keeping one cofactor.  mp_pow_mod squares left to right,
multiplying by X as a shift and one subtraction (_times_x).  Roots mod p
are read by evaluating at every residue (_linear_factors) where that is
the cheaper route, p*deg below ROOT_EVAL_BOUND in distinct-degree
factoring and p below it in a root split, and otherwise by X^p, a gcd and
Cantor-Zassenhaus; a caller that wants the roots mod p reads the linear
factors of factor_mod_p.  One integer
determinant, _bareiss_det (fraction-free Bareiss elimination), serves the
discriminant, as the determinant of the n x n Bezout matrix of f and f',
and the norms of elements of etale algebras.
There are two prime searches over Q.  The Frobenius scan of factor_and_scan
reads cycle shapes mod the good primes 2, 3, 5, ... (those prime to the
discriminant) off distinct-degree factoring.  The shapes prove
irreducibility or choose the prime of one Zassenhaus pass; factor_over_Z is
that pass, with disc = 0 sending a repeated factor to the squarefree part,
and tfae reads the same scan.  split_primes, for the hyperelliptic ledger,
looks only for primes where f splits completely, and stays a search of its
own, cheaper per prime than a shape: one sequence X^n mod f, n = 3, 4, ...,
stepped by _times_x on integers mod the product of the primes of a dyadic
block, and read mod each of them.  The lift (hensel_lift_factors) takes
each factor on its own by Newton's iteration, doubling the precision up to
exactly p^N; a factor of full degree is f itself.  local_splitting_type
gives the factorization type over Q_p by the same lift and order 1 of the
Montes algorithm, from the factors of f over Q that factor_over_Z gives: it
factors nothing over Q, so that one factorization serves every place.  Its
pieces are ordered by what is read mod p and off the Newton polygon, never
by a lift, so the order is the same at every precision and beside any other
factor.  A piece from a simple factor mod p is lifted only when a caller
first reads its lift, to the same p^N (LocalFactor).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations, zip_longest

from .arith import is_prime, odd_primes, residue

FACTOR_SEED = 20996011  # fixed seed: reproducible equal-degree splitting

# good primes the Frobenius scan of factor_and_scan reads before a
# Zassenhaus pass, unless their shapes prove irreducibility first
SEARCH_PRIMES = 5
# primes the scan runs through; Chebotarev finds a decisive one far sooner
SCAN_BOUND = 10 ** 5
# odd primes split_primes runs through: the primes that split f completely
# have density 1/#Gal(f) (Chebotarev), from 1/6 for a cubic to 1/5040 for
# a degree-7 f with group S_7, so a search past this could run for ever
SPLIT_BOUND = 10 ** 4
# roots mod p are read by evaluating at every residue (_linear_factors, p
# Horner evaluations) below this, in two places.  A root split (the d = 1
# case of _equal_degree_split) evaluates for p below it, and above it runs
# Cantor-Zassenhaus (about log p products per split): measured, evaluation
# is the faster below about 400 for two roots, 600 for three and 1000 for
# five to eight.  The degree-1 stage of _distinct_degree evaluates for
# p*deg below it, and above it takes X^p and one gcd: measured on seeded
# squarefree a (Python 3.11.7, a shared 2-vCPU VM), the two routes cross
# between p*deg = 500 and 700 for degrees 3, 5 and 7
ROOT_EVAL_BOUND = 512

HENSEL_START = 20
HENSEL_CAP = 320


class UnresolvedSplitting(Exception):
    """A p-adic computation that gave up; the message names p, the block
    or piece and the step."""


# ---------------------------------------------------------------------------
# Polynomials over Q


class RatPoly:
    """Dense polynomial over Q, num / den: num is a tuple of ints, constant
    term first, with no trailing zero, and den a positive int with
    gcd(den, *num) = 1, so each polynomial has one form (the zero
    polynomial is ((), 1)).  The constructor takes ints, Fractions and
    strings; coeffs builds the Fractions on each read, for callers outside
    the arithmetic.  Every operation runs on ints: the product is
    _convolve, the one convolution of Q[x] and (Z/m)[x]; eval,
    compose_linear and divmod clear denominators first, divmod by
    pseudo-division."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c)
              for c in coeffs]
        # with den the lcm of the denominators, gcd(den, *num) is 1
        den = math.lcm(*(c.denominator for c in cs))
        self.num = tuple(mp_trim([c.numerator * (den // c.denominator)
                                  for c in cs]))
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.num

    @property
    def lead(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def is_monic(self) -> bool:
        return self.den == 1 and self.num[-1:] == (1,)

    def monic(self) -> "RatPoly":
        if self.is_monic():
            return self
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return _ratpoly(self.num, self.num[-1])

    def is_integral(self) -> bool:
        return self.den == 1

    def __eq__(self, other):
        return (isinstance(other, RatPoly) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_poly(other)
        den = math.lcm(self.den, other.den)
        x, y = den // self.den, den // other.den
        return _ratpoly([a * x + b * y for a, b in
                         zip_longest(self.num, other.num, fillvalue=0)], den)

    def __neg__(self):
        return _ratpoly([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        return _ratpoly(_convolve(self.num, other.num), self.den * other.den)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError(f"negative power {n} of a polynomial")
        out, base = _ratpoly([1], 1), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "RatPoly"):
        """(q, r) with self = q*other + r and deg r < deg other, by
        pseudo-division on the numerators A and B (Knuth, TAOCP 2, 4.6.1):
        A is scaled once by lead(B)^k, k = deg A - deg B + 1, so that every
        quotient step is an exact integer division."""
        if other.is_zero():
            raise ZeroDivisionError
        d, k = other.degree, self.degree - other.degree + 1
        if k <= 0:
            return _ratpoly([], 1), self
        B, lc = other.num, other.num[-1]
        scale = lc ** k
        r = [c * scale for c in self.num]
        q = [0] * k
        for j in reversed(range(k)):
            c = q[j] = r[j + d] // lc
            if c:
                for i in range(d):
                    r[j + i] -= c * B[i]
        # lc^k A = Q B + R: self = A/a = (Q b / (a lc^k)) (B/b) + R/(a lc^k)
        den = self.den * scale
        return (_ratpoly([c * other.den for c in q], den),
                _ratpoly(r[:d], den))

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def deriv(self) -> "RatPoly":
        return _ratpoly([i * c for i, c in enumerate(self.num)][1:], self.den)

    def eval(self, x) -> Fraction:
        """self(x) for an int or Fraction x = s/t: Horner on the numerators,
        homogenised by t, then one Fraction."""
        s, t = x.numerator, x.denominator
        out, tk = 0, 1
        for c in reversed(self.num):
            out = out * s + c * tk
            tk *= t
        # out = sum c_i s^i t^(n-i) and tk = t^(n+1)
        return Fraction(out * t, self.den * tk)

    def compose_linear(self, a, b) -> "RatPoly":
        """self(a*X + b), for ints or Fractions a = A/E and b = B/E, by
        Horner's rule on integer lists: the sum of c_i (A X + B)^i E^(n-i),
        over den E^n."""
        if self.is_zero():
            return self
        E = math.lcm(a.denominator, b.denominator)
        A = a.numerator * (E // a.denominator)
        B = b.numerator * (E // b.denominator)
        out: list[int] = []
        Ek = 1
        for c in reversed(self.num):
            # out * (A X + B) + c E^k
            out = [B * x + A * y for x, y in zip(out + [0], [0] + out)]
            out[0] += c * Ek
            Ek *= E
        return _ratpoly(out, self.den * Ek // E)

    def __repr__(self):
        # highest term first, each after its sign, so that parse_poly
        # reads the text back
        out = ""
        for i in reversed(range(len(self.num))):
            c = abs(self.num[i])
            if c:
                g = math.gcd(c, self.den)
                s = str(c // g) if g == self.den else f"{c // g}/{self.den // g}"
                xs = "X" if i == 1 else f"X^{i}"
                out += " - " if self.num[i] < 0 else " + "
                out += s if not i else xs if c == self.den else f"{s}*{xs}"
        return "0" if not out else out[3:] if out[1] == "+" else "-" + out[3:]


def _ratpoly(num, den: int) -> RatPoly:
    """num / den as a RatPoly, from an int list num and a nonzero int den:
    trims num and divides out gcd(den, *num), so that den is positive."""
    num = mp_trim(list(num))
    g = math.gcd(den, *num) if den > 0 else -math.gcd(den, *num)
    out = object.__new__(RatPoly)
    out.num = tuple(num) if g == 1 else tuple(c // g for c in num)
    out.den = den // g
    return out


def _as_poly(x) -> RatPoly:
    return x if isinstance(x, RatPoly) else RatPoly([x])


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, given as a list of rows that
    it overwrites, by fraction-free (Bareiss) elimination: every division by
    the previous pivot is exact.  It serves the Bezout discriminant here and
    norms in etale algebras (localfields)."""
    size = len(rows)
    sign, prev = 1, 1
    for k in range(size):
        piv = next((r for r in range(k, size) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        top, pk = rows[k], rows[k][k]
        for i in range(k + 1, size):
            row, rk = rows[i], rows[i][k]
            rows[i] = [(pk * x - rk * y) // prev for x, y in zip(row, top)]
        prev = pk
    return sign * prev


def discriminant(f: RatPoly) -> Fraction:
    """disc(f) for deg f = n >= 1 (a degree-1 f gives 1); rejects constants.

    With a the lcm of the denominators of f, F = a*f has integer
    coefficients u, and v are those of F' (v[n] = 0).  The n x n Bezout
    matrix B of F and F', (u(x)v(y) - u(y)v(x))/(x - y) = sum B[i][j] x^i y^j,
    is built from its last row up, B[i][j] = u[i+1] v[j] - u[j] v[i+1]
    + B[i+1][j-1], and det B = lead(F)^2 disc(F), with no sign (Helmke and
    Fuhrmann, "Bezoutians", Linear Algebra Appl. 122-124 (1989)).  Since
    disc(F) = a^(2n-2) disc(f), disc(f) = det B / (lead(F)^2 a^(2n-2))."""
    n = f.degree
    if n < 1:
        raise ValueError("discriminant needs degree >= 1")
    a, u = f.den, f.num
    v = [i * c for i, c in enumerate(u)][1:] + [0]
    rows = [[0] * n for _ in range(n + 1)]  # row n lies outside B
    for i in reversed(range(n)):
        below = rows[i + 1]
        rows[i] = [u[i + 1] * v[j] - u[j] * v[i + 1] + (below[j - 1] if j else 0)
                   for j in range(n)]
    rows.pop()
    return Fraction(_bareiss_det(rows), u[n] ** 2 * a ** (2 * n - 2))


def parse_poly(s: str) -> RatPoly:
    """Accepts "X^5+16*X^4-274*X^3+..." or a coefficient list "[1,178,...]",
    constant term first.  Any other input raises a ValueError naming it."""
    try:
        text = s.strip()
        if text.startswith("["):
            if not text.endswith("]"):
                raise ValueError("a coefficient list ends with ]")
            body = text[1:-1].strip()
            return RatPoly([Fraction(t.strip()) for t in body.split(",")]
                           if body else [])
        text = text.replace(" ", "").replace("**", "^").lower()
        if not text:
            raise ValueError("empty polynomial")
        coeffs: dict[int, Fraction] = {}
        # one term per sign: a sign with no term after it is a term of its own
        terms = re.split(r"(?=[+-])", text)
        for t in terms[1:] if terms[0] == "" else terms:
            m = re.fullmatch(r"([+-]?)(\d+(?:/\d+)?)?(?:\*?x(?:\^(\d+))?)?", t)
            if not m or (m.group(2) is None and "x" not in t):
                raise ValueError(f"cannot parse term {t!r}")
            sign = -1 if m.group(1) == "-" else 1
            c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            e = (int(m.group(3)) if m.group(3) else 1) if "x" in t else 0
            coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
    except ZeroDivisionError:
        raise ValueError(f"cannot parse polynomial {s!r}: a zero denominator"
                         ) from None
    except ValueError as exc:
        raise ValueError(f"cannot parse polynomial {s!r}: {exc}") from None
    deg = max(coeffs)
    return RatPoly([coeffs.get(i, Fraction(0)) for i in range(deg + 1)])


# ---------------------------------------------------------------------------
# Polynomials modulo m (lists of ints; m arbitrary unless stated prime)


def mp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def mp_add(a, b, m):
    return mp_trim([(x + y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def mp_sub(a, b, m):
    return mp_trim([(x - y) % m for x, y in zip_longest(a, b, fillvalue=0)])


def _convolve(a, b):
    """The product of two coefficient lists, unreduced."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                out[k] += x * y
    return out


def mp_mul(a, b, m):
    return mp_trim([c % m for c in _convolve(a, b)])


def mp_scal(a, c, m):
    return mp_trim([(x * c) % m for x in a])


def mp_divmod_monic(a, g, m):
    """(q, r) with a = q*g + r mod m, for monic g (its leading 1 is not
    read) and a of any integer coefficients: one reduction mod m per
    coefficient, no trimming between steps."""
    d = len(g) - 1
    a = list(a)
    q = [0] * max(0, len(a) - d)
    for k in range(len(a) - d - 1, -1, -1):
        c = a[k + d] % m
        if c:
            q[k] = c
            for i in range(d):
                a[k + i] -= c * g[i]
    return mp_trim(q), mp_trim([c % m for c in a[:d]])


def mp_mulmod(a, b, g, m):
    """a*b rem g mod m, for monic g: the one multiply-then-reduce.  The
    product is reduced in place, top coefficient down, and no quotient is
    kept."""
    c = _convolve(a, b)
    d = len(g) - 1
    low = g[:d]
    for k in range(len(c) - 1, d - 1, -1):
        t = c[k] % m
        if t:
            for i, y in enumerate(low, k - d):
                c[i] -= t * y
    return mp_trim([x % m for x in c[:d]])


def mp_gcd(a, b, p):
    """Monic gcd mod a prime p, by Euclid: each remainder is taken in place
    in the dividend, its steps scaled by the inverse of the divisor's
    leading coefficient, with one reduction mod p per coefficient at the
    end, and only the gcd is made monic."""
    a, b = mp_trim([c % p for c in a]), mp_trim([c % p for c in b])
    while b:
        d, inv = len(b) - 1, pow(b[-1], -1, p)
        low = b[:d]
        for k in range(len(a) - 1, d - 1, -1):
            t = a[k] * inv % p
            if t:
                for i, y in enumerate(low, k - d):
                    a[i] -= t * y
        a, b = b, mp_trim([c % p for c in a[:d]])
    return mp_scal(a, pow(a[-1], -1, p), p) if a else a


def _times_x(a, g, m):
    """X*a rem g mod m, for monic g and a reduced mod g and m: a shift, and
    when X*a has degree deg g, one subtraction of its top coefficient
    times g."""
    if len(a) < len(g) - 1:
        return [0] + a
    t = a[-1]
    return mp_trim([(x - t * y) % m for x, y in zip([0] + a[:-1], g)])


def mp_pow_mod(a, n, g, m):
    """a^n rem g mod m, for monic g, by squaring left to right: one
    squaring per bit of n after the first, and at a set bit one product
    by a, which for a = X is _times_x."""
    if not n:
        return [1]
    a = mp_divmod_monic(a, g, m)[1]
    shift = a == [0, 1]
    out = a
    for bit in bin(n)[3:]:
        out = mp_mulmod(out, out, g, m)
        if bit == "1" and out:
            out = _times_x(out, g, m) if shift else mp_mulmod(out, a, g, m)
    return out


def mp_deriv(a, m):
    return mp_trim([(i * c) % m for i, c in enumerate(a)][1:])


def mp_shift(a, r, m):
    """a(X + r) mod m: the Taylor shift by Horner's scheme, in place."""
    a = [c % m for c in a]
    r %= m
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] = (a[j] + r * a[j + 1]) % m
    return mp_trim(a)


# ---------------------------------------------------------------------------
# Factorization over F_p


def _sqfree_decomp(a, p):
    """Yun-style squarefree decomposition over F_p: [(monic part, mult)].

    A squarefree a (gcd(a, a') = 1, the common case) is returned at once.
    Otherwise what the loop leaves of g = gcd(a, a') is h(X^p) for some h
    (all of a when a' = 0), so that g is h^p, and h = g[::p], since
    Frobenius fixes the coefficients in F_p, is decomposed in turn."""
    a = mp_scal(a, pow(a[-1], -1, p), p)
    g = mp_gcd(a, mp_deriv(a, p), p)
    if len(g) == 1:
        return [(a, 1)]
    out = []
    w = mp_divmod_monic(a, g, p)[0]
    i = 1
    while len(w) > 1:
        y = mp_gcd(w, g, p)
        z = mp_divmod_monic(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        g = mp_divmod_monic(g, y, p)[0]
        w = y
        i += 1
    if len(g) > 1:
        out += [(h, m * p) for h, m in _sqfree_decomp(g[::p], p)]
    return out


def _linear_factors(a, p):
    """The factors X - r of a over F_p, r ascending: a is evaluated at
    every residue, Horner on ints with one reduction mod p per value."""
    out, rev = [], a[::-1]
    for r in range(p):
        v = 0
        for c in rev:
            v = v * r + c
        if v % p == 0:
            out.append([-r % p, 1])
    return out


def _distinct_degree(a, p):
    """[(product of the irreducibles of degree d, d)] for a squarefree
    monic a over F_p: at each d, h = X^(p^d) rem f and gcd(h - X, f), f
    what is left of a (von zur Gathen and Gerhard, Modern Computer Algebra,
    14.2).  Where p*deg a < ROOT_EVAL_BOUND the degree-1 stage is read by
    evaluation instead (_linear_factors), each X - r an entry of its own,
    so that no caller evaluates again, and degree 2 starts from X^(p^2) rem
    f, one mp_pow_mod of X."""
    out, h, f, d, n = [], [0, 1], a, 0, p
    if p * (len(a) - 1) < ROOT_EVAL_BOUND:
        for g in _linear_factors(a, p):
            out.append((g, 1))
            f = mp_divmod_monic(f, g, p)[0]
        d, n = 1, p * p
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h, n = mp_pow_mod(h, n, f, p), p
        g = mp_gcd(mp_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = mp_divmod_monic(f, g, p)[0]
            if len(f) > 1:
                h = mp_divmod_monic(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(a, d, p, rng=None):
    """The monic irreducible factors of a, a monic product of distinct
    irreducibles of degree d over F_p, in no fixed order.  For d = 1 and
    p < ROOT_EVAL_BOUND the roots are read by evaluating a at every
    residue (_linear_factors).  Every other split is Cantor-Zassenhaus:
    the seeded generator random.Random(FACTOR_SEED) is built at its first
    split and passed down its recursion."""
    n = len(a) - 1
    if n == d:
        return [a]
    if d == 1 and p < ROOT_EVAL_BOUND:
        return _linear_factors(a, p)
    if rng is None:
        rng = random.Random(FACTOR_SEED)
    while True:
        b = [rng.randrange(p) for _ in range(n)] + [1]
        if p == 2:
            t = acc = b
            for _ in range(d - 1):
                acc = mp_mulmod(acc, acc, a, 2)
                t = mp_add(t, acc, 2)
            g = mp_gcd(t, a, 2)
        else:
            e = (p ** d - 1) // 2
            t = mp_sub(mp_pow_mod(b, e, a, p), [1], p)
            g = mp_gcd(t, a, p)
        if 0 < len(g) - 1 < n:
            rest = mp_divmod_monic(a, g, p)[0]
            return (_equal_degree_split(g, d, p, rng)
                    + _equal_degree_split(rest, d, p, rng))


def factor_mod_p(a, p: int) -> list[tuple[list[int], int]]:
    """Monic irreducible factorization over F_p of the coefficient list a,
    as [(factor, multiplicity)], sorted by degree, then coefficients:
    squarefree parts, then distinct degrees, then _equal_degree_split.
    Where p*deg of a squarefree part is below ROOT_EVAL_BOUND its roots
    come from _distinct_degree, one factor X - r each, and are evaluated
    once; otherwise a product of linear factors is split by evaluation for
    p below ROOT_EVAL_BOUND.  The seeded generator is built only for a
    Cantor-Zassenhaus split."""
    a = mp_trim([c % p for c in a])
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    if len(a) == 1:
        return []
    return sorted(((irr, mult) for g, mult in _sqfree_decomp(a, p)
                   for h, d in _distinct_degree(g, p)
                   for irr in _equal_degree_split(h, d, p)),
                  key=lambda t: (len(t[0]), t[0]))


def distinct_degree_shape(a, p: int) -> tuple[int, ...]:
    """The ascending degrees of the irreducible factors over F_p of a, a
    monic coefficient list reduced mod p and squarefree there, read off
    distinct-degree factoring without splitting equal degrees: by
    evaluation at every residue and then X^(p^2) where p*deg a is below
    ROOT_EVAL_BOUND (_distinct_degree), so that a small p takes no gcd for
    the roots."""
    return tuple(sorted(d for g, d in _distinct_degree(a, p)
                        for _ in range((len(g) - 1) // d)))


# ---------------------------------------------------------------------------
# Hensel lifting


def _inverse_mod_p(a, g, p):
    """The inverse of a mod the monic g over F_p, by Euclid on monic
    remainders r = s*a mod g, keeping the cofactor s of a.  ValueError
    when a and g have a common factor mod p."""
    r0, r1 = g, mp_divmod_monic(a, g, p)[1]
    s0, s1 = [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        r1, s1 = mp_scal(r1, inv, p), mp_scal(s1, inv, p)
        q, r = mp_divmod_monic(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, mp_sub(s0, mp_mul(q, s1, p), p)
    if len(r0) != 1:
        raise ValueError("not coprime mod p")
    return s0


def hensel_lift_factors(f, factors, p, N):
    """Lift pairwise-coprime monic mod-p factors of monic f to mod p^N.

    Each factor g is lifted on its own (single-factor Newton lifting: von
    zur Gathen and Gerhard, Modern Computer Algebra, 15.4), with t the
    inverse of f quo g modulo g, from _inverse_mod_p.  Each step
    doubles the precision, capped at exactly p^N: g <- g + (f rem g)*t rem
    g, then t <- t*(2 - t*(f quo g)) rem g.  For a linear g this is
    Newton's iteration on the root.  Monic lifts of pairwise-coprime factors
    are unique mod p^N, so no factor depends on the others, and a factor of
    the degree of f lifts to f mod p^N itself, with no inverse and no step.
    """
    out = []
    for g in factors:
        if len(g) == len(f):
            out.append([c % p ** N for c in f])
            continue
        g, t, k = [c % p for c in g], None, 1
        while k < N:
            k = min(2 * k, N)
            m = p ** k
            h, r = mp_divmod_monic(f, g, m)
            t = (_inverse_mod_p(h, g, p) if t is None else
                 mp_mulmod(t, mp_sub([2], mp_mulmod(t, h, g, m), m), g, m))
            g = mp_add(g, mp_mulmod(r, t, g, m), m)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# Factorization over Q: one Zassenhaus pass


def monic_integral(f: RatPoly) -> tuple[RatPoly, int]:
    """(g, D) with g(X) = D^d f(X/D), for the monic f of degree d and D the
    lcm of the denominators of f: g is monic with integer coefficients, and
    its roots are D times those of f."""
    D, d = f.den, f.degree
    if D == 1:
        return f, 1
    # c_i = num_i / D, and num_d = D
    return _ratpoly([c * D ** (d - 1 - i) for i, c in enumerate(f.num[:-1])]
                    + [1], 1), D


def _degree_sums(shape) -> int:
    """The subset sums of a cycle shape, as the bits of an integer: the
    degrees a factor over Q of the polynomial can have."""
    sums = 1
    for k in shape:
        sums |= sums << k
    return sums


def factor_and_scan(f: RatPoly, disc: Fraction):
    """(factors, shapes) for a separable f of degree 1 to 8, from disc =
    disc(f) != 0: factors is factor_over_Z(f), and shapes the one Frobenius
    scan over Q, replayed from its start.

    The scan is the lazy (p, Frobenius cycle shape of g mod p) over the
    good primes p = 2, 3, 5, ... below SCAN_BOUND of g = D^d f(X/D)
    (monic_integral of f.monic()).  disc(g) = disc(f) * D^(d(d-1)) /
    lead(f)^(2d-2) is an integer, and p is good exactly when it does not
    divide it, so each shape is read off distinct-degree factoring alone.
    A factor over Q has a degree that is a subset sum of every shape: the
    scan is read until the common sums are {0, d}, which proves f
    irreducible (Musser, J. ACM 25 (1978)), or until SEARCH_PRIMES good
    primes are read.  Then one Zassenhaus pass (Cohen, A Course in
    Computational Algebraic Number Theory, 3.5; von zur Gathen and Gerhard,
    Modern Computer Algebra, ch. 15) runs at the read prime with the fewest
    factors, 2 included: g is factored mod that prime, Hensel-lifted once
    past a Mignotte bound and recombined by exact trial division, subsets
    of one factor first; a remainder that no subset divides is irreducible.
    Each factor h of g maps back to h(D X)/D^deg h.  No integer is factored.
    """
    d = f.degree
    work = f.monic()
    scaled, den = monic_integral(work)
    g = list(scaled.num)
    disc_g = (disc.numerator * den ** (d * (d - 1)) * f.den ** (2 * d - 2)
              // (disc.denominator * f.num[-1] ** (2 * d - 2)))
    scan = ((p, distinct_degree_shape([c % p for c in g], p))
            for p in range(2, SCAN_BOUND) if disc_g % p and is_prime(p))
    seen, common = [], -1  # -1: every bit set
    for p, sh in scan:
        seen.append((p, sh))
        common &= _degree_sums(sh)
        if common == 1 | 1 << d or len(seen) == SEARCH_PRIMES:
            break
    shapes = chain(seen, scan)
    if common == 1 | 1 << d:
        return [work], shapes
    p = min(seen, key=lambda t: len(t[1]))[0]
    fac = factor_mod_p(g, p)
    # a factor of g has coefficients below 2^d * |g|_2 <= 2^(d+2) * |g|_oo
    bound = 2 ** (d + 2) * max(abs(c) for c in g)
    N = 1
    while p ** N < 2 * bound:
        N += 1
    m = p ** N
    lifted = hensel_lift_factors(g, [h for h, _ in fac], p, N)
    rest, found, k = scaled, [], 1
    while 2 * k <= len(lifted):
        for combo in combinations(range(len(lifted)), k):
            prod = [1]
            for i in combo:
                prod = mp_mul(prod, lifted[i], m)
            cand = RatPoly([c - m if c > m // 2 else c for c in prod])
            q, r = rest.divmod(cand)
            if r.is_zero():
                found.append(cand)
                rest = q
                lifted = [h for i, h in enumerate(lifted) if i not in combo]
                break
        else:
            k += 1
    found.append(rest)
    out = [_ratpoly([c * den ** i for i, c in enumerate(h.num)],
                    den ** h.degree) for h in found]
    return _sorted_factors(out), shapes


def split_primes(f: RatPoly) -> list[int]:
    """The two smallest odd primes q < SPLIT_BOUND where the monic integer
    f of degree >= 2 splits completely into distinct linear factors mod q,
    so that q does not divide disc(f): those where X^q = X mod (f, q).

    One sequence h = X^n rem f is stepped by _times_x, n = n + 1, with its
    coefficients mod Q, the product of the odd primes of the dyadic block
    [lo, 2 lo) that n is in (odd_primes, one sieve per block); a block
    starts with one mp_pow_mod, and h mod q is read at each prime q of it.
    So an integer's size is set by the block, not by the roots of f.
    ArithmeticError when fewer than two primes below SPLIT_BOUND split
    f."""
    # f stays unreduced: mod Q a coefficient -c would be the Q-sized Q - c
    g, out, lo = f.num, [], 2
    while lo < SPLIT_BOUND:
        block = odd_primes(lo, min(2 * lo, SPLIT_BOUND))
        Q, n = math.prod(block), block[0]
        h = mp_pow_mod([0, 1], n, g, Q)
        for q in block:
            for _ in range(q - n):
                h = _times_x(h, g, Q)
            n = q
            if mp_trim([c % q for c in h]) == [0, 1]:
                out.append(q)
                if len(out) == 2:
                    return out
        lo *= 2
    raise ArithmeticError("could not find split primes for independence")


def factor_over_Z(f: RatPoly) -> list[RatPoly]:
    """Certified irreducible monic factorization over Q, degree <= 8, sorted
    by degree, then coefficients: the Zassenhaus pass of factor_and_scan.
    disc(f) = 0 means a repeated factor: f / gcd(f, f') (squarefree, with
    the same irreducible factors) is factored, and each factor is repeated
    as often as it divides f."""
    if f.degree > 8:
        raise ValueError("factor_over_Z is capped at degree 8")
    if f.degree <= 0:
        return []
    disc = discriminant(f)
    if disc:
        return factor_and_scan(f, disc)[0]
    work = f.monic()
    out = []
    for h in factor_over_Z(work // poly_gcd(work, work.deriv())):
        q, r = work.divmod(h)
        while r.is_zero():
            out.append(h)
            q, r = q.divmod(h)
    return _sorted_factors(out)


def _sorted_factors(hs) -> list[RatPoly]:
    """The polynomials hs sorted by degree, then by coefficients from the
    constant term up, compared as integers over one common denominator."""
    den = math.lcm(*(h.den for h in hs))
    return sorted(hs, key=lambda h: (
        h.degree, [c * (den // h.den) for c in h.num]))


# ---------------------------------------------------------------------------
# p-adic splitting types: order 1 of the Montes algorithm


class _Shortfall(Exception):
    """A splitting step that more p-adic digits get past."""


@dataclass(frozen=True)
class LocalFactor:
    """One Q_p-irreducible piece of the input polynomial.

    The piece was found in the coordinate X = shift + p^scale * Z: `zlift`
    is its monic factor in Z and `lift` the same factor in X, both modulo
    p^prec, constant term first, and `residue` is lift mod p.  For e = 1
    the factor in Z is irreducible mod p, so its root generates the ring
    of integers of the piece.  The piece lies above the factor over Q
    numbered `global_factor` in the factors it was split from.  For a
    linear piece coming from an exact rational root, `root` is that root.
    `note` records how a piece from a repeated factor mod p was resolved;
    `kind`, 'linear', 'unramified' or 'ramified', follows from e and f.

    A simple piece, from a factor of multiplicity 1 mod p, is built from
    that factor alone: `known` is the factor mod p and `whole` the
    polynomial mod p^prec it divides once.  Its lift is computed on first
    read, by single-factor lifting inside `whole` to the same p^prec that
    an eager lift reaches, and kept on the piece; its residue needs no
    lift.  Every other piece is built lifted: `known` is its factor in Z
    mod p^prec and `whole` is empty.
    """

    p: int
    e: int
    f: int
    prec: int
    global_factor: int
    root: Fraction | None
    note: str
    shift: int
    scale: int
    known: tuple[int, ...]
    whole: tuple[int, ...]

    @property
    def degree(self):
        return self.e * self.f

    @property
    def kind(self) -> str:
        return ("ramified" if self.e > 1 else
                "linear" if self.f == 1 else "unramified")

    @cached_property
    def zlift(self) -> tuple[int, ...]:
        if not self.whole:
            return self.known
        [g] = hensel_lift_factors(list(self.whole), [list(self.known)],
                                  self.p, self.prec)
        return tuple(g)

    def _in_x(self, zfactor, modulus: int) -> tuple[int, ...]:
        # the factor in X is p^(scale*deg) * zfactor((X - shift) / p^scale)
        p, deg = self.p, self.degree
        return tuple(mp_shift([c * p ** (self.scale * (deg - i))
                               for i, c in enumerate(zfactor)],
                              -self.shift, modulus))

    @cached_property
    def lift(self) -> tuple[int, ...]:
        return self._in_x(self.zlift, self.p ** self.prec)

    @cached_property
    def residue(self) -> tuple[int, ...]:
        # zlift is known mod p: (X - shift)^deg once scale >= 1
        return self._in_x(self.known, self.p)

    def root_mod(self, modulus: int) -> int:
        if self.degree != 1:
            raise ValueError("not a linear piece")
        if self.root is not None:
            return residue(self.root, modulus)
        return -(self.residue if modulus == self.p else self.lift)[0] % modulus


def _np_lower_hull(points):
    pts = sorted(points)
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _vp_bounded(n: int, p: int, N: int):
    """v_p(n) as known mod p^N; None when n = 0 mod p^N."""
    n %= p ** N
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _split_at_vertex(P, b, yb, gap, where, p, N):
    """Monic A of degree b and B with P = A*B over Z_p, for the vertex
    (b, yb) of the Newton polygon of the monic P known mod p^N: A takes the
    roots of the steeper sides, B those of the shallower ones.

    One Hensel lifting for the Gauss valuation v_c(sum a_i Y^i) =
    min(v(a_i) + c*i), c between the two slopes at the vertex: the low part
    of A is P / B as a power series mod Y^b (B(0) has valuation yb), then B
    is P div A.  Each round gains the difference `gap` of the two slopes in
    v_c.  Since v(Res(A, B)) = b*yb, A and B are good to p^(N - b*yb) once
    P = A*B mod p^N (Hensel's lemma with the resultant, which needs
    N > 2*b*yb).
    """
    loss = b * yb
    step = f"{where}: the slope split at the vertex ({b}, {yb})"
    if 2 * loss >= N:
        raise _Shortfall(f"{step} needs more than p^{N}")
    M, MW, pyb = p ** N, p ** (N + loss), p ** yb
    B = P[b:]
    # the weight v_c of the error starts near yb and must pass N + c*deg P,
    # with c below the steeper slope
    slope = gap + Fraction(yb, len(B) - 1)
    for _ in range(int((N + len(P) * slope) / gap) + 3):
        if B[0] % pyb or B[0] // pyb % p == 0:
            raise _Shortfall(f"{step} lost the vertex at p^{N}")
        inv = pow(B[0] // pyb, -1, MW)
        q = []
        for j in range(b):
            num = P[j] - sum(q[i] * B[j - i]
                             for i in range(max(0, j - len(B) + 1), j))
            q.append(num // pyb * inv % MW)
        A = q + [1]
        B, R = mp_divmod_monic(P, A, MW)
        if all(c % M == 0 for c in R):
            m = p ** (N - loss)
            return [c % m for c in A], [c % m for c in B], N - loss
    raise _Shortfall(f"{step} did not converge at p^{N}")


def _block_pieces(F, g, m, p, N, k):
    """The LocalFactors of a monic block F = g^m mod p (g irreducible mod
    p, m >= 2) of the k-th factor over Q, known mod p^N.

    Order 1 of the Montes algorithm (Guardia, Montes and Nart, Trans. AMS
    364 (2012)): the Newton polygon of the phi-adic expansion of F, phi the
    lift of g.  For a linear phi = X - r the polygon is split side by side
    (_split_at_vertex).  A side of slope h/e with e > 1 is one piece when
    its residual polynomial is irreducible over F_p; a side with e = 1 is
    rescaled to Z = (X - r)/p^h, where its roots are units whose residues
    are the roots of the residual polynomial, and factored again, which
    refines phi to X - (r + p^h rho) at a repeated residual root rho.  A
    non-linear phi is resolved only when its polygon is one side of
    residual degree 1: one piece with e = m and f = deg g.
    """
    M = p ** N
    deg = len(g) - 1
    block = f"({RatPoly(g)})^{m} at p = {p}"
    if deg == 1:
        r = -g[0] % p
        coeffs = mp_shift(F, r, M)  # F(Y + r)
        vals = [_vp_bounded(c, p, N) for c in coeffs]
    else:
        vals, rest = [], F
        for _ in range(m):
            rest, a = mp_divmod_monic(rest, g, M)
            vals.append(min((_vp_bounded(c, p, N) for c in a if c),
                            default=None))
        vals.append(0)
    if vals[0] is None:
        raise _Shortfall(f"{block}: the phi-adic constant term is 0 mod "
                         f"p^{N}")
    hull = _np_lower_hull([(i, v) for i, v in enumerate(vals) if v is not None])
    if deg > 1:
        if len(hull) > 2:
            raise UnresolvedSplitting(
                f"{block}: the Newton polygon of the non-linear phi has "
                f"{len(hull) - 1} sides; order 1 splits sides only for a "
                "linear phi")
        if math.gcd(hull[0][1], m) > 1:
            raise UnresolvedSplitting(
                f"{block}: residual polynomial of degree "
                f"{math.gcd(hull[0][1], m)} over F_({p}^{deg}); order 1 "
                "resolves a non-linear phi only at residual degree 1")
        return [LocalFactor(p, m, deg, N, k, None, f"{block}: one side of "
                            f"slope {hull[0][1]}/{m}", 0, 0, tuple(F), ())]
    sides = []
    while len(hull) > 2:  # peel off the shallowest side
        (x0, y0), (b, yb), (x2, _) = hull[-3:]
        gap = Fraction(y0 - yb, b - x0) - Fraction(yb, x2 - b)
        coeffs, S, N = _split_at_vertex(coeffs, b, yb, gap, block, p, N)
        sides.append((S, N))
        hull = [(x, y - yb) for x, y in hull[:-1]]
    sides.append((coeffs, N))
    out = []
    for S, prec in sides:
        run, rise = len(S) - 1, _vp_bounded(S[0], p, prec)
        if rise is None:
            raise _Shortfall(f"{block}: a side's constant term is 0 mod p^{prec}")
        d = math.gcd(run, rise)
        e, h = run // d, rise // d
        where = f"{block}: side of slope {h}/{e}"
        # a piece keeps at least HENSEL_START / 2 digits
        zprec = prec - h * run if e == 1 else prec
        if zprec < HENSEL_START // 2:
            raise _Shortfall(f"{where}: too few digits left")
        if e == 1:
            Z = [c // p ** (h * (run - i)) for i, c in enumerate(S)]
            if any(c % p ** min(h * (run - i), prec) for i, c in enumerate(S)):
                raise _Shortfall(f"{where}: the side is not integral at p^{prec}")
            # a piece in Z = (X - r)/p^h is the same piece in X
            for pc in _factor_mod_pN(Z, p, zprec, k):
                note = f"{where}; {pc.note}" if pc.note else where
                shift = (r + p ** h * pc.shift) % p ** pc.prec
                out.append(replace(pc, shift=shift, scale=h + pc.scale,
                                   note=note))
            continue
        residual = [S[j * e] // p ** (rise - j * h) % p for j in range(d + 1)]
        fac = factor_mod_p(residual, p)
        if len(fac) > 1 or fac[0][1] > 1:
            step = ("has a repeated factor; order 2 is needed"
                    if any(mult > 1 for _, mult in fac) else
                    f"splits into {len(fac)} factors over F_{p}; the side "
                    "needs a residual split")
            raise UnresolvedSplitting(f"{where}: the residual polynomial "
                                      f"{step}")
        out.append(LocalFactor(p, e, d, prec, k, None, where, r, 0, tuple(S),
                               ()))
    return out


def _factor_mod_pN(g, p, N, k):
    """The LocalFactors of a monic polynomial g known mod p^N, the k-th
    factor over Q or a rescaling of a side of one.  A factor h of
    multiplicity 1 mod p is one simple piece, left unlifted: known is h
    and whole is g.  A block h^mult, mult >= 2, is lifted to p^N and split
    (_block_pieces)."""
    out = []
    for h, mult in factor_mod_p(g, p):
        if mult == 1:
            out.append(LocalFactor(p, 1, len(h) - 1, N, k, None, "", 0, 0,
                                   tuple(h), tuple(g)))
            continue
        blk = [1]
        for _ in range(mult):
            blk = mp_mul(blk, h, p)
        [F] = hensel_lift_factors(g, [blk], p, N)
        out.extend(_block_pieces(F, h, mult, p, N, k))
    return out


def local_splitting_type(factors, p: int) -> tuple[LocalFactor, ...]:
    """The Q_p-irreducible pieces of a separable monic integer polynomial
    f, given by its irreducible factors over Q (factor_over_Z of f), in a
    fixed order: by degree, ramification, root mod p, residue factor and
    factor over Q, then in the order the split finds them.  Pieces tied so
    far lie in one block of one factor over Q: they come side by side from
    the shallowest side of its Newton polygon, and inside a rescaled side
    in the order of factor_mod_p.  No piece is lifted to be ordered.

    Q_p[X]/f is the product of the Q_p[X]/h over the factors h, so each is
    split on its own, and nothing here factors over Q.  A linear factor is
    one piece, at its exact root.  Each other one is factored mod p.  A
    simple factor g mod p is one piece, kept unlifted: its lift to p^N is
    computed on first read (LocalFactor.zlift), so that a caller that
    reads only residues lifts nothing.  A block F = g^m mod p with m >= 2
    is Hensel-lifted to p^N at once and goes through order 1 of the Montes
    algorithm (_block_pieces): the Newton polygon of F with respect to a
    lift phi of g, split side by side, one piece per
    irreducible factor of a side's residual polynomial, and a rescaling
    Z = (X - r)/p^h that refines phi at an integral slope.  A step short
    of digits doubles N, from p^HENSEL_START up to p^HENSEL_CAP.
    UnresolvedSplitting names p, the block and the step when order 1 does
    not resolve a block (order 2, a non-linear phi with more than one side
    or residual degree above 1, a ramified side whose residual polynomial
    splits), or when the cap is reached.  The factors must be monic integer
    polynomials of total degree 1 to 8, none repeated.
    """
    if any(h.degree < 1 or not h.is_monic() or not h.is_integral()
           for h in factors):
        raise ValueError("local_splitting_type expects monic integer factors")
    if not 1 <= sum(h.degree for h in factors) <= 8:
        raise ValueError("total degree must be from 1 to 8")
    if len(set(factors)) < len(factors):
        raise ValueError("polynomial not separable")
    N = HENSEL_START
    while True:
        try:
            out: list[LocalFactor] = []
            for k, h in enumerate(factors):
                if h.degree == 1:
                    out.append(LocalFactor(
                        p, 1, 1, N, k, Fraction(-h.num[0]), "", 0, 0,
                        (h.num[0] % p ** N, 1), ()))
                else:
                    out += _factor_mod_pN([c % p ** N for c in h.num], p, N,
                                          k)
            break
        except _Shortfall as exc:
            if N >= HENSEL_CAP:
                raise UnresolvedSplitting(
                    f"{exc} (at the cap p^{HENSEL_CAP})") from None
            N *= 2

    # a stable sort on what is read mod p: pieces still tied lie in one
    # block of one factor over Q and keep the order of the split, so the
    # order depends neither on N nor on the other factors
    return tuple(sorted(out, key=lambda fc: (
        fc.degree, fc.e, fc.root_mod(p) if fc.degree == 1 else -1,
        fc.residue, fc.global_factor)))
