"""Polynomials over Q and over Z/m, factorization, and p-adic splitting types.

Conventions: coefficient lists are constant-term first.  Mod-m polynomial
helpers work for any modulus m (used with m = p and m = p^N); gcd and
factorization require m prime.  Every product reduced by a monic modulus
goes through one fused kernel, mp_mulmod on mp_divmod_monic: the product
unreduced, then one reduction mod m per coefficient, no inverse of the
leading 1 and no trimming between steps.  One integer determinant,
_bareiss_det (fraction-free Bareiss elimination), serves resultants and
discriminants, as Sylvester determinants, and the norms of elements of
etale algebras (localfields).  Factorization over Q (factor_over_Z) is one Zassenhaus
pass: the prime is chosen from factor degrees mod p, read off
distinct-degree factoring alone; then a factorization mod that one prime,
one Hensel lift and recombination by exact trial division.  The lift
(hensel_lift_factors) takes each factor on its own by Newton's iteration,
doubling the precision up to exactly p^N.  local_splitting_type gives the
factorization type over Q_p by the same lift and order 1 of the Montes
algorithm, from the factors of f over Q that factor_over_Z gives: it
factors nothing over Q, so that one factorization serves every place.  A
piece from a simple factor mod p is lifted only when a caller first reads
its lift, to the same p^N (LocalFactor).
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, groupby

from .arith import is_prime, residue

FACTOR_SEED = 20996011  # fixed seed: reproducible equal-degree splitting

HENSEL_START = 20
HENSEL_CAP = 320


class UnresolvedSplitting(Exception):
    """A p-adic computation that gave up; the message names p, the block
    or piece and the step."""


# ---------------------------------------------------------------------------
# Polynomials over Q


class RatPoly:
    """Dense polynomial over Q, constant term first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lead(self) -> Fraction:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.lead == 1

    def monic(self) -> "RatPoly":
        return RatPoly([c / self.lead for c in self.coeffs])

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __getitem__(self, i) -> Fraction:
        return self.coeffs[i] if 0 <= i <= self.degree else Fraction(0)

    # f[i] is 0 past the top, so iterating by f[0], f[1], ... would never
    # stop: a RatPoly is not iterable (its coefficients are f.coeffs)
    __iter__ = None

    def __eq__(self, other):
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RatPoly([self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return RatPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return RatPoly([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int):
        out, base = RatPoly([1]), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def divmod(self, other: "RatPoly"):
        if other.is_zero():
            raise ZeroDivisionError
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d, lc = other.degree, other.lead
        while True:
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] / lc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
        return RatPoly(q), RatPoly(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def deriv(self) -> "RatPoly":
        return RatPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval(self, x) -> Fraction:
        x = Fraction(x)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def compose_linear(self, a, b) -> "RatPoly":
        """self(a*X + b), by Horner's rule on coefficient lists."""
        a, b = Fraction(a), Fraction(b)
        out: list[Fraction] = []
        for c in reversed(self.coeffs):
            # out * (a*X + b) + c
            out = [b * x + a * y for x, y in zip(out + [0], [0] + out)]
            out[0] += c
        return RatPoly(out)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xs = "X" if i == 1 else f"X^{i}"
                parts.append(xs if c == 1 else f"{c}*{xs}")
        return " + ".join(reversed(parts))


def _as_poly(x) -> RatPoly:
    return x if isinstance(x, RatPoly) else RatPoly([x])


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Res(f, g), exact.  With a and b the lcm of the denominators of f and
    g, Res(f, g) = Res(af, bg) / (a^deg g * b^deg f); the integer Sylvester
    determinant Res(af, bg) comes from fraction-free (Bareiss) elimination,
    whose every division by the previous pivot is exact."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    a = math.lcm(*(c.denominator for c in f.coeffs))
    b = math.lcm(*(c.denominator for c in g.coeffs))
    fc = [c.numerator * (a // c.denominator) for c in reversed(f.coeffs)]
    gc = [c.numerator * (b // c.denominator) for c in reversed(g.coeffs)]
    rows = [[0] * i + fc + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + gc + [0] * (m - 1 - i) for i in range(m)]
    return Fraction(_bareiss_det(rows), a ** n * b ** m)


def _bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, given as a list of rows that
    it overwrites, by fraction-free (Bareiss) elimination: every division by
    the previous pivot is exact.  It serves resultants here and norms in
    etale algebras (localfields)."""
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
    """Resultant-based discriminant; rejects constants."""
    d = f.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    r = resultant(f, f.deriv())
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * r / f.lead


def parse_poly(s: str) -> RatPoly:
    """Accepts "X^5+16*X^4-274*X^3+..." or a coefficient list "[1,178,...]"."""
    s = s.strip()
    if s.startswith("["):
        body = s[1:-1].strip()
        if not body:
            return RatPoly([])
        return RatPoly([Fraction(t.strip()) for t in body.split(",")])
    s = s.replace(" ", "").replace("**", "^").lower()
    if not s:
        raise ValueError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    for t in re.findall(r"[+-]?[^+-]+", s):
        m = re.fullmatch(r"([+-]?)(\d+(?:/\d+)?)?(?:\*?x(?:\^(\d+))?)?", t)
        if not m or (m.group(2) is None and "x" not in t):
            raise ValueError(f"cannot parse term {t!r}")
        sign = -1 if m.group(1) == "-" else 1
        c = Fraction(m.group(2)) if m.group(2) else Fraction(1)
        e = (int(m.group(3)) if m.group(3) else 1) if "x" in t else 0
        coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
    deg = max(coeffs)
    return RatPoly([coeffs.get(i, Fraction(0)) for i in range(deg + 1)])


# ---------------------------------------------------------------------------
# Polynomials modulo m (lists of ints; m arbitrary unless stated prime)


def mp_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def mp_add(a, b, m):
    n = max(len(a), len(b))
    return mp_trim([((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)) % m
                    for i in range(n)])


def mp_sub(a, b, m):
    n = max(len(a), len(b))
    return mp_trim([((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % m
                    for i in range(n)])


def _convolve(a, b):
    """The product of two coefficient lists, unreduced."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
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
    """a*b rem g mod m, for monic g: the one multiply-then-reduce."""
    return mp_divmod_monic(_convolve(a, b), g, m)[1]


def mp_divmod(a, b, m):
    """Division by b whose leading coefficient is invertible mod m."""
    b = mp_trim([c % m for c in b])
    if not b:
        raise ZeroDivisionError
    if b[-1] == 1:
        return mp_divmod_monic(a, b, m)
    inv = pow(b[-1], -1, m)
    q, r = mp_divmod_monic(a, mp_scal(b, inv, m), m)
    return mp_scal(q, inv, m), r


def mp_gcd(a, b, p):
    """Monic gcd mod a prime p."""
    a, b = [c % p for c in a], [c % p for c in b]
    mp_trim(a), mp_trim(b)
    while b:
        a, b = b, mp_divmod(a, b, p)[1]
    if a:
        a = mp_scal(a, pow(a[-1], -1, p), p)
    return a


def mp_pow_mod(a, n, g, m):
    """a^n rem g mod m, for monic g."""
    out = [1]
    a = mp_divmod_monic(a, g, m)[1]
    while n:
        if n & 1:
            out = mp_mulmod(out, a, g, m)
        n >>= 1
        if n:
            a = mp_mulmod(a, a, g, m)
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


def fp_poly(f: RatPoly, p: int) -> list[int]:
    """The coefficients of f mod p, trimmed; ValueError unless f is
    p-integral."""
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise ValueError(f"coefficient {c} is not p-integral at {p}")
    return mp_trim([residue(c, p) for c in f.coeffs])


# ---------------------------------------------------------------------------
# Factorization over F_p


def _pth_root_poly(a, p):
    """For a = h(X^p) over F_p return h (Frobenius fixes prime-field coeffs)."""
    return [a[i] for i in range(0, len(a), p)]


def _sqfree_decomp(a, p):
    """Yun-style squarefree decomposition over F_p: [(monic part, mult)].

    What the loop leaves of g = gcd(a, a') is a p-th power (all of a when
    a' = 0), whose p-th root is decomposed in turn."""
    a = mp_scal(a, pow(a[-1], -1, p), p)
    out = []
    g = mp_gcd(a, mp_deriv(a, p), p)
    w = mp_divmod(a, g, p)[0]
    i = 1
    while len(w) > 1:
        y = mp_gcd(w, g, p)
        z = mp_divmod(w, y, p)[0]
        if len(z) > 1:
            out.append((z, i))
        g = mp_divmod(g, y, p)[0]
        w = y
        i += 1
    if len(g) > 1:
        out += [(h, m * p) for h, m in _sqfree_decomp(_pth_root_poly(g, p), p)]
    return out


def _distinct_degree(a, p):
    """[(product of irreducibles of degree d, d)], a squarefree monic."""
    out = []
    x = [0, 1]
    h = x[:]
    f = a[:]
    d = 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = mp_pow_mod(h, p, f, p)
        g = mp_gcd(mp_sub(h, x, p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = mp_divmod(f, g, p)[0]
            if len(f) > 1:
                h = mp_divmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree_split(a, d, p, rng):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    n = len(a) - 1
    if n == d:
        return [a]
    while True:
        b = [rng.randrange(p) for _ in range(n)] + [1]
        if p == 2:
            t = b[:]
            acc = b[:]
            for _ in range(d - 1):
                acc = mp_mulmod(acc, acc, a, 2)
                t = mp_add(t, acc, 2)
            g = mp_gcd(t, a, 2)
        else:
            e = (p ** d - 1) // 2
            t = mp_sub(mp_pow_mod(b, e, a, p), [1], p)
            g = mp_gcd(t, a, p)
        if 0 < len(g) - 1 < n:
            rest = mp_divmod(a, g, p)[0]
            return (_equal_degree_split(g, d, p, rng)
                    + _equal_degree_split(rest, d, p, rng))


def factor_mod_p(a, p: int) -> list[tuple[list[int], int]]:
    """Monic irreducible factorization over F_p of the coefficient list a,
    as [(factor, multiplicity)], deterministically ordered."""
    a = mp_trim([c % p for c in a])
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    if len(a) == 1:
        return []
    rng = random.Random(FACTOR_SEED)
    out = []
    for g, mult in _sqfree_decomp(a, p):
        for h, d in _distinct_degree(g, p):
            for irr in _equal_degree_split(h, d, p, rng):
                out.append((irr, mult))
    out.sort(key=lambda t: (len(t[0]), t[0]))
    return out


def factor_degrees_mod_p(a, p: int) -> tuple[int, ...] | None:
    """The ascending degrees of the irreducible factors over F_p of the
    coefficient list a, read off distinct-degree factoring without
    splitting equal degrees; None when a has a repeated factor mod p
    (gcd(a, a') != 1)."""
    a = mp_trim([c % p for c in a])
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    if len(mp_gcd(a, mp_deriv(a, p), p)) != 1:
        return None
    a = mp_scal(a, pow(a[-1], -1, p), p)
    return tuple(sorted(d for g, d in _distinct_degree(a, p)
                        for _ in range((len(g) - 1) // d)))


def roots_in_Fp(f: RatPoly, p: int) -> list[int]:
    """All roots of f mod p, with multiplicity, ascending residues."""
    fp = fp_poly(f, p)
    if not fp:
        raise ValueError("zero polynomial")
    out = []
    for g, mult in factor_mod_p(fp, p):
        if len(g) == 2:
            out += [-g[0] % p] * mult
    return sorted(out)


# ---------------------------------------------------------------------------
# Hensel lifting


def _bezout_mod_p(g, h, p):
    r0, r1 = [c % p for c in g], [c % p for c in h]
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while mp_trim(r1):
        q, r = mp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, mp_sub(s0, mp_mul(q, s1, p), p)
        t0, t1 = t1, mp_sub(t0, mp_mul(q, t1, p), p)
    if len(mp_trim(r0)) != 1:
        raise ValueError("factors not coprime mod p")
    inv = pow(r0[0], -1, p)
    return mp_scal(s0, inv, p), mp_scal(t0, inv, p)


def hensel_lift_factors(f, factors, p, N):
    """Lift pairwise-coprime monic mod-p factors of monic f to mod p^N.

    Each factor g is lifted on its own (single-factor Newton lifting: von
    zur Gathen and Gerhard, Modern Computer Algebra, 15.4), with t the
    inverse of f quo g modulo g, from the extended Euclid mod p.  Each step
    doubles the precision, capped at exactly p^N: g <- g + (f rem g)*t rem
    g, then t <- t*(2 - t*(f quo g)) rem g.  For a linear g this is
    Newton's iteration on the root.  Monic lifts of pairwise-coprime factors
    are unique mod p^N, so no factor depends on the others.
    """
    out = []
    for g in factors:
        g, t, k = [c % p for c in g], None, 1
        while k < N:
            k = min(2 * k, N)
            m = p ** k
            h, r = mp_divmod_monic(f, g, m)
            t = (_bezout_mod_p(g, h, p)[1] if t is None else
                 mp_mulmod(t, mp_sub([2], mp_mulmod(t, h, g, m), m), g, m))
            g = mp_add(g, mp_mulmod(r, t, g, m), m)
        out.append(g)
    return out


# ---------------------------------------------------------------------------
# Factorization over Q: one Zassenhaus pass


def _sqfree_over_Q(f: RatPoly) -> list[tuple[RatPoly, int]]:
    """Yun's algorithm: [(squarefree monic part, multiplicity)]."""
    f = f.monic()
    out = []
    g = poly_gcd(f, f.deriv())
    w = f // g
    i = 1
    while w.degree >= 1:
        y = poly_gcd(w, g)
        z = w // y
        if z.degree >= 1:
            out.append((z.monic(), i))
        g = g // y
        w = y
        i += 1
    return out


def monic_integral(f: RatPoly) -> tuple[RatPoly, int]:
    """(g, D) with g(X) = D^d f(X/D), for the monic f of degree d and D the
    lcm of the denominators of f: g is monic with integer coefficients, and
    its roots are D times those of f."""
    D = math.lcm(*(c.denominator for c in f.coeffs))
    d = f.degree
    return RatPoly([c * D ** (d - i) for i, c in enumerate(f.coeffs)]), D


def factor_over_Z(f: RatPoly) -> list[RatPoly]:
    """Certified irreducible monic factorization over Q, degree <= 8, sorted
    by degree, then coefficients.

    One Zassenhaus pass (Cohen, A Course in Computational Algebraic Number
    Theory, 3.5; von zur Gathen and Gerhard, Modern Computer Algebra,
    ch. 15).  f.monic() is scaled once to the monic integer g(Y) =
    den^d f(Y/den), whose roots are den times those of f.  The prime
    search reads only the factor degrees of g mod odd primes, from
    distinct-degree factoring (factor_degrees_mod_p): a prime is good when
    gcd(g, g') = 1 mod p, which also certifies that f is squarefree.  Of
    the first five good primes the one with the fewest factors is kept, and
    the first with at most 3 ends the search.  g is fully factored mod that
    prime alone, and not at all when it shows g irreducible.  The factors
    are Hensel-lifted once past a Mignotte bound and recombined by exact
    trial division, subsets of one factor first; a remainder that no subset
    divides is irreducible.  Each factor h of g maps back to
    h(den X)/den^deg h.  No integer is factored.  When the first four odd
    primes are all bad and gcd(f, f') is not 1, f goes through Yun's
    squarefree split and each part is factored on its own.
    """
    if f.degree > 8:
        raise ValueError("factor_over_Z is capped at degree 8")
    if f.degree <= 0:
        return []
    work = f.monic()
    scaled, den = monic_integral(work)
    d = work.degree
    g = [int(c) for c in scaled.coeffs]
    best, good, bad, p = None, 0, 0, 3
    while good < 5 and (best is None or len(best[1]) > 3):
        if is_prime(p):
            degrees = factor_degrees_mod_p(g, p)
            if degrees is not None:
                good += 1
                if best is None or len(degrees) < len(best[1]):
                    best = (p, degrees)
            else:
                bad += 1
                # a repeated factor over Q leaves every p bad: check for
                # one once, when the first four primes are bad
                if bad == 4 and not good and poly_gcd(work,
                                                      work.deriv()).degree:
                    out = [h for part, mult in _sqfree_over_Q(work)
                           for h in factor_over_Z(part) * mult]
                    return sorted(out, key=lambda h: (h.degree, h.coeffs))
        p += 2
    p, degrees = best
    if len(degrees) == 1:
        return [work]
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
    out = [RatPoly([c / den ** (h.degree - i) for i, c in enumerate(h.coeffs)])
           for h in found]
    return sorted(out, key=lambda h: (h.degree, h.coeffs))


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
    `note` records how a piece from a repeated factor mod p was resolved.

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
    kind: str  # 'linear' | 'unramified' | 'ramified'
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


def _local_factor(p, k, e, f, known, shift, scale, prec, note, whole,
                  root=None):
    """The LocalFactor above the k-th factor over Q whose factor in Z,
    X = shift + p^scale Z, is known (mod p for a simple piece, else mod
    p^prec)."""
    m = p ** prec
    kind = "ramified" if e > 1 else "linear" if f == 1 else "unramified"
    if not whole:
        known = [c % m for c in known]
    return LocalFactor(p, e, f, kind, prec, k, root, note, shift % m, scale,
                       tuple(known), tuple(whole))


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


def _block_pieces(F, g, m, p, N):
    """Q_p-pieces of a monic block F = g^m mod p (g irreducible mod p,
    m >= 2), known mod p^N, as _factor_mod_pN gives them.

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
    k = len(g) - 1
    block = f"({RatPoly(g)})^{m} at p = {p}"
    if k == 1:
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
    if k > 1:
        if len(hull) > 2:
            raise UnresolvedSplitting(
                f"{block}: the Newton polygon of the non-linear phi has "
                f"{len(hull) - 1} sides; order 1 splits sides only for a "
                "linear phi")
        if math.gcd(hull[0][1], m) > 1:
            raise UnresolvedSplitting(
                f"{block}: residual polynomial of degree "
                f"{math.gcd(hull[0][1], m)} over F_({p}^{k}); order 1 resolves "
                "a non-linear phi only at residual degree 1")
        return [(m, k, F, 0, 0, N, f"{block}: one side of slope "
                 f"{hull[0][1]}/{m}", ())]
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
            for e2, f2, known, sh, sc, pr, note, whole in _factor_mod_pN(
                    Z, p, zprec):
                out.append((e2, f2, known, r + p ** h * sh, h + sc, pr,
                            f"{where}; {note}" if note else where, whole))
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
        out.append((e, d, S, r, 0, prec, where, ()))
    return out


def _factor_mod_pN(g, p, N):
    """Q_p-pieces of a monic polynomial g known mod p^N, as the arguments
    (e, f, known, shift, scale, prec, note, whole) of _local_factor, in the
    coordinate X = shift + p^scale Z.  A factor h of multiplicity 1 mod p
    is one simple piece, left unlifted: known is h and whole is g.  A
    block h^mult, mult >= 2, is lifted to p^N and split (_block_pieces)."""
    out = []
    for h, mult in factor_mod_p(g, p):
        if mult == 1:
            out.append((1, len(h) - 1, h, 0, 0, N, "", g))
            continue
        blk = [1]
        for _ in range(mult):
            blk = mp_mul(blk, h, p)
        [F] = hensel_lift_factors(g, [blk], p, N)
        out.extend(_block_pieces(F, h, mult, p, N))
    return out


def local_splitting_type(factors, p: int) -> tuple[LocalFactor, ...]:
    """The Q_p-irreducible pieces of a separable monic integer polynomial
    f, given by its irreducible factors over Q (factor_over_Z of f), in a
    fixed order: by degree, ramification, root mod p, residue factor, then
    lift.

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
                    out.append(_local_factor(p, k, 1, 1, (int(h.coeffs[0]), 1),
                                             0, 0, N, "", (), -h.coeffs[0]))
                else:
                    out += [_local_factor(p, k, *piece)
                            for piece in _factor_mod_pN(
                                [int(c) % p ** N for c in h.coeffs], p, N)]
            break
        except _Shortfall as exc:
            if N >= HENSEL_CAP:
                raise UnresolvedSplitting(
                    f"{exc} (at the cap p^{HENSEL_CAP})") from None
            N *= 2

    def _order_key(fc: LocalFactor):
        return (fc.degree, fc.e, fc.root_mod(p) if fc.degree == 1 else -1,
                fc.residue)

    # a tie mod p is broken by the lifts mod p^kmin, so that the order does
    # not depend on the precision each piece happens to come out with; only
    # tied pieces are lifted for it
    kmin = p ** min(fc.prec for fc in out)
    ordered = []
    for _, tied in groupby(sorted(out, key=_order_key), key=_order_key):
        tied = list(tied)
        if len(tied) > 1:
            tied.sort(key=lambda fc: tuple(c % kmin for c in fc.lift))
        ordered += tied
    return tuple(ordered)
