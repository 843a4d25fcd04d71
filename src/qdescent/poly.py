"""Polynomials over Q and over Z/m, factorization, and p-adic splitting types.

Conventions: coefficient lists are constant-term first.  Mod-m polynomial
helpers work for any modulus m (used with m = p and m = p^N); gcd and
factorization require m prime.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arith import is_prime, legendre

FACTOR_SEED = 20996011  # fixed seed: reproducible equal-degree splitting

HENSEL_START = 20
HENSEL_CAP = 320


class UnresolvedSplitting(Exception):
    """A p-adic block this implementation refuses to guess at."""


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
        """self(a*X + b)."""
        out = RatPoly([])
        lin = RatPoly([Fraction(b), Fraction(a)])
        for c in reversed(self.coeffs):
            out = out * lin + RatPoly([c])
        return out

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


X = RatPoly([0, 1])


def poly_gcd(a: RatPoly, b: RatPoly) -> RatPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def resultant(f: RatPoly, g: RatPoly) -> Fraction:
    """Sylvester determinant, exact over Q."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return Fraction(0)
    if m == 0:
        return f.coeffs[0] ** n
    if n == 0:
        return g.coeffs[0] ** m
    size = m + n
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = [[Fraction(0)] * i + fc + [Fraction(0)] * (size - m - 1 - i)
            for i in range(n)]
    rows += [[Fraction(0)] * i + gc + [Fraction(0)] * (size - n - 1 - i)
             for i in range(m)]
    det = Fraction(1)
    for col in range(size):
        piv = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            if rows[r][col] != 0:
                fct = rows[r][col] * inv
                for c in range(col, size):
                    rows[r][c] -= fct * rows[col][c]
    return det


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
    while a and a[-1] % 1 == 0 and a[-1] == 0:
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


def mp_mul(a, b, m):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % m
    return mp_trim(out)


def mp_scal(a, c, m):
    return mp_trim([(x * c) % m for x in a])


def mp_divmod(a, b, m):
    """Division by b whose leading coefficient is invertible mod m."""
    a = [c % m for c in a]
    b = [c % m for c in b]
    mp_trim(b)
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, m)
    d = len(b) - 1
    q = [0] * max(0, len(a) - len(b) + 1)
    while True:
        mp_trim(a)
        if len(a) - 1 < d:
            break
        k = len(a) - 1 - d
        c = a[-1] * inv % m
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % m
    return mp_trim(q), a


def mp_gcd(a, b, p):
    """Monic gcd mod a prime p."""
    a, b = [c % p for c in a], [c % p for c in b]
    mp_trim(a), mp_trim(b)
    while b:
        a, b = b, mp_divmod(a, b, p)[1]
    if a:
        a = mp_scal(a, pow(a[-1], -1, p), p)
    return a


def mp_pow_mod(a, n, mod_poly, m):
    out = [1]
    a = mp_divmod(a, mod_poly, m)[1]
    while n:
        if n & 1:
            out = mp_divmod(mp_mul(out, a, m), mod_poly, m)[1]
        a = mp_divmod(mp_mul(a, a, m), mod_poly, m)[1]
        n >>= 1
    return out


def mp_deriv(a, m):
    return mp_trim([(i * c) % m for i, c in enumerate(a)][1:])


def mp_eval(a, x, m):
    out = 0
    for c in reversed(a):
        out = (out * x + c) % m
    return out


def mp_shift(a, r, m):
    """a(X + r) mod m."""
    out: list[int] = []
    for c in reversed(a):
        out = mp_add(mp_mul(out, [r % m, 1], m), [c % m], m)
    return out


@dataclass(frozen=True)
class FpPoly:
    """Polynomial over F_p (thin wrapper used at module boundaries)."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        cs = [c % self.p for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __repr__(self):
        return f"FpPoly(p={self.p}, {list(self.coeffs)})"


def fp_poly(f: RatPoly, p: int) -> FpPoly:
    for c in f.coeffs:
        if c.denominator % p == 0:
            raise ValueError(f"coefficient {c} is not p-integral at {p}")
    return FpPoly(p, tuple(c.numerator * pow(c.denominator, -1, p) % p
                           for c in f.coeffs))


# ---------------------------------------------------------------------------
# Factorization over F_p


def _pth_root_poly(a, p):
    """For a = h(X^p) over F_p return h (Frobenius fixes prime-field coeffs)."""
    return [a[i] for i in range(0, len(a), p)]


def _sqfree_decomp(a, p):
    """Yun-style squarefree decomposition over F_p: [(monic part, mult)]."""
    a = mp_scal(a, pow(a[-1], -1, p), p)
    out = []
    da = mp_deriv(a, p)
    if not da:
        for g, m in _sqfree_decomp(_pth_root_poly(a, p), p):
            out.append((g, m * p))
        return out
    g = mp_gcd(a, da, p)
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
        for h, m in _sqfree_decomp(_pth_root_poly(g, p) if not mp_deriv(g, p)
                                   else g, p):
            out.append((h, m * (p if not mp_deriv(g, p) else 1)))
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
                acc = mp_divmod(mp_mul(acc, acc, 2), a, 2)[1]
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


def factor_mod_p(f: FpPoly, seed: int = FACTOR_SEED) -> list[tuple[FpPoly, int]]:
    """Monic irreducible factorization over F_p, deterministically ordered."""
    p = f.p
    a = list(f.coeffs)
    if not a:
        raise ValueError("cannot factor the zero polynomial")
    if len(a) == 1:
        return []
    rng = random.Random(seed)
    out = []
    for g, mult in _sqfree_decomp(a, p):
        if p < 10 ** 4:
            for r in range(p):
                e = 0
                while len(g) > 1 and mp_eval(g, r, p) == 0:
                    g = mp_divmod(g, [(-r) % p, 1], p)[0]
                    e += 1
                if e:
                    out.append((FpPoly(p, ((-r) % p, 1)), e * mult))
        if len(g) > 1:
            for h, d in _distinct_degree(g, p):
                for irr in _equal_degree_split(h, d, p, rng):
                    out.append((FpPoly(p, tuple(irr)), mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    return out


def roots_in_Fp(f: RatPoly, p: int) -> list[int]:
    """All roots of f mod p, with multiplicity, ascending residues."""
    fp = fp_poly(f, p)
    if not fp.coeffs:
        raise ValueError("zero polynomial")
    out = []
    for g, mult in factor_mod_p(fp):
        if g.degree == 1:
            r = (-g.coeffs[0] * pow(g.coeffs[1], -1, p)) % p
            out += [r] * mult
    return sorted(out)


# ---------------------------------------------------------------------------
# Hensel lifting


def _hensel_step(f, g, h, s, t, p, k):
    """Quadratic step: f = g*h mod p^k, s*g + t*h = 1 mod p^k -> mod p^2k."""
    m = p ** (2 * k)
    e = mp_sub(f, mp_mul(g, h, m), m)
    q, r = mp_divmod(mp_mul(s, e, m), h, m)
    g1 = mp_add(mp_add(g, mp_mul(t, e, m), m), mp_mul(q, g, m), m)
    h1 = mp_add(h, r, m)
    b = mp_sub(mp_add(mp_mul(s, g1, m), mp_mul(t, h1, m), m), [1], m)
    c, d = mp_divmod(mp_mul(s, b, m), h1, m)
    s1 = mp_sub(s, d, m)
    t1 = mp_sub(mp_sub(t, mp_mul(t, b, m), m), mp_mul(c, g1, m), m)
    return g1, h1, s1, t1


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
    """Lift pairwise-coprime monic mod-p factors of monic f to mod p^N."""
    mN = p ** N
    f = [c % mN for c in f]
    if len(factors) == 1:
        return [f]
    g = [c % p for c in factors[0]]
    h = [1]
    for other in factors[1:]:
        h = mp_mul(h, other, p)
    s, t = _bezout_mod_p(g, h, p)
    k = 1
    while k < N:
        g, h, s, t = _hensel_step([c % p ** (2 * k) for c in f], g, h, s, t, p, k)
        k *= 2
    g = [c % mN for c in g]
    h = [c % mN for c in h]
    return [g] + hensel_lift_factors(h, factors[1:], p, N)


# ---------------------------------------------------------------------------
# Factorization over Z/Q (Zassenhaus at desk degrees)


def _rational_roots(f: RatPoly) -> list[Fraction]:
    """Every rational root of the squarefree f, by p-adic lifting.

    Cohen, ch. 3: clear denominators to g in Z[X] with leading coefficient
    a; the monic h(Y) = a^(d-1) g(Y/a) has the integer roots a*r.  At the
    smallest odd prime p where h is squarefree, every integer root of h is
    a simple root mod p, so Newton's method lifts it uniquely to p^N past
    2 * (1 + max|h_i|), twice Cauchy's bound.  The centred lift is kept
    when h vanishes at it exactly.  No integer is factored.
    """
    den = 1
    for c in f.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    g = [int(c * den) for c in f.coeffs]
    k = next(i for i, c in enumerate(g) if c)
    roots = [Fraction(0)] if k else []
    g = g[k:]
    content = math.gcd(*g)
    g = [c // content for c in g]
    d, a = len(g) - 1, g[-1]
    if d == 0:
        return roots
    if d == 1:
        return roots + [Fraction(-g[0], a)]
    h = [c * a ** (d - 1 - i) for i, c in enumerate(g[:-1])] + [1]
    p = 3
    while mp_gcd(h, mp_deriv([c % p for c in h], p), p) != [1]:
        # a repeated root leaves every p bad: check for one once, at 997
        if p == 997 and poly_gcd(f, f.deriv()).degree > 0:
            raise ValueError("_rational_roots needs a squarefree polynomial")
        p += 2
        while not is_prime(p):
            p += 2
    bound = 2 * (1 + max(abs(c) for c in h))
    dh = [i * c for i, c in enumerate(h)][1:]
    for lin, _ in factor_mod_p(FpPoly(p, tuple(h))):
        if lin.degree != 1:
            continue
        x, m = -lin.coeffs[0] % p, p
        while m <= bound:
            m *= m
            x = (x - mp_eval(h, x, m) * pow(mp_eval(dh, x, m), -1, m)) % m
        if x > m // 2:
            x -= m
        hx = 0
        for c in reversed(h):
            hx = hx * x + c
        if hx == 0:
            roots.append(Fraction(x, a))
    return roots


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


def factor_over_Z(f: RatPoly) -> list[RatPoly]:
    """Certified irreducible monic factorization over Q, degree <= 8.

    Squarefree parts first.  The linear factors of each come from its
    rational roots, found by lifting the roots mod a small good prime and
    checking them exactly (`_rational_roots`; no integer is factored, so
    huge constant terms cost nothing extra).  What remains of degree >= 4
    goes through Zassenhaus (mod-p factorization, Hensel lift past a
    Mignotte-style bound, subset recombination with exact trial division).
    "No subset divides" certifies irreducibility.
    """
    if f.degree > 8:
        raise ValueError("factor_over_Z is capped at degree 8")
    if f.degree <= 0:
        return []
    parts = _sqfree_over_Q(f)
    if len(parts) != 1 or parts[0][1] != 1:
        out = []
        for h, mult in parts:
            out.extend(factor_over_Z(h) * mult)
        return sorted(out, key=lambda g: (g.degree, g.coeffs))
    work = f.monic()
    out: list[RatPoly] = []
    for r in _rational_roots(work):
        lin = RatPoly([-r, 1])
        out.append(lin)
        work = work // lin
    if work.degree == 0:
        return sorted(out, key=lambda g: (g.degree, g.coeffs))
    if work.degree <= 3:
        out.append(work)
        return sorted(out, key=lambda g: (g.degree, g.coeffs))

    # scale to a monic integer polynomial: roots multiply by den
    den = 1
    for c in work.coeffs:
        den = den * c.denominator // math.gcd(den, c.denominator)
    d = work.degree
    g = [int(work.coeffs[i] * den ** (d - i)) for i in range(d + 1)]

    disc = discriminant(RatPoly(g))
    best = None
    p = 3
    while p < 5000:
        if is_prime(p) and disc.numerator % p != 0:
            fac = factor_mod_p(FpPoly(p, tuple(g)))
            if best is None or len(fac) < len(best[1]):
                best = (p, fac)
            if len(fac) <= 3:
                break
        p += 2
    p, fac = best
    modular = [list(h.coeffs) for h, _ in fac]
    if len(modular) == 1:
        out.append(work)
        return sorted(out, key=lambda q: (q.degree, q.coeffs))
    norm = max(abs(c) for c in g)
    bound = 2 ** (d + 2) * norm
    N = 1
    while p ** N < 2 * bound:
        N += 1
    lifted = hensel_lift_factors(g, modular, p, N)
    m = p ** N

    def centered(c):
        c %= m
        return c - m if c > m // 2 else c

    remaining = list(range(len(lifted)))
    rem_poly = g[:]
    found_factors: list[RatPoly] = []
    k = 1
    while 2 * k <= len(remaining):
        hit = False
        for combo in combinations(remaining, k):
            prod = [1]
            for i in combo:
                prod = mp_mul(prod, lifted[i], m)
            cand = RatPoly([centered(c) for c in prod])
            q, r = RatPoly(rem_poly).divmod(cand)
            if r.is_zero() and q.is_integral():
                found_factors.append(cand)
                rem_poly = [int(c) for c in q.coeffs]
                remaining = [i for i in remaining if i not in combo]
                hit = True
                break
        if not hit:
            k += 1
    if len(rem_poly) > 1:
        found_factors.append(RatPoly(rem_poly))
    # undo the root scaling: h(X) -> monic h(den*X)
    for h in found_factors:
        dd = h.degree
        out.append(RatPoly([h.coeffs[i] * Fraction(den) ** (dd - i)
                            for i in range(dd + 1)]).monic()
                   if den != 1 else h)
    return sorted(out, key=lambda q: (q.degree, q.coeffs))


# ---------------------------------------------------------------------------
# Square roots in Z/p^k


def _sqrt_mod_p(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        x = pow(a, (p + 3) // 8, p)
        if x * x % p != a:
            x = x * pow(2, (p - 1) // 4, p) % p
        return x
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m_, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 2 ** (m_ - i - 1), p)
        m_, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def sqrt_unit_mod(u: int, p: int, k: int) -> int:
    """A square root of the unit square u modulo p^k."""
    if p == 2:
        if u % 8 != 1:
            raise ValueError("not a square unit in Z_2")
        x = 1
        for j in range(3, k):
            if (x * x - u) % 2 ** (j + 1) != 0:
                x += 2 ** (j - 1)
        return x % 2 ** k
    x = _sqrt_mod_p(u, p)
    if x * x % p != u % p:
        raise ValueError("not a square unit")
    pk = p
    target = p ** k
    while pk < target:
        pk = min(pk * pk, target)
        x = (x - (x * x - u) * pow(2 * x, -1, pk)) % pk
    return x % target


# ---------------------------------------------------------------------------
# p-adic splitting types


@dataclass(frozen=True)
class LocalFactor:
    """One Q_p-irreducible piece of the input polynomial.

    `lift` approximates the monic factor over Z_p modulo p^prec (constant
    first).  For a linear piece coming from an exact rational root, `root`
    is that root.  kind 'unresolved' marks a block we refuse to guess at.
    """

    e: int
    f: int
    kind: str  # 'linear' | 'unramified' | 'ramified' | 'unresolved'
    prec: int
    lift: tuple[int, ...]
    root: Fraction | None = None
    note: str = ""

    @property
    def degree(self):
        return self.e * self.f

    def root_mod(self, modulus: int) -> int:
        if self.degree != 1:
            raise ValueError("not a linear piece")
        if self.root is not None:
            return (self.root.numerator
                    * pow(self.root.denominator, -1, modulus)) % modulus
        return (-self.lift[0]) % modulus


@dataclass(frozen=True)
class LocalSplittingType:
    p: int
    factors: tuple[LocalFactor, ...]
    splits_completely: bool
    totally_ramified: bool
    all_unramified: bool

    @property
    def degree(self):
        return sum(fac.degree for fac in self.factors)

    def has_unresolved(self) -> bool:
        return any(fac.kind == "unresolved" for fac in self.factors)


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


def _quadratic_block_pieces(block, p, N) -> list[LocalFactor]:
    """Resolve a monic quadratic over Z_p congruent to (X-r)^2 mod p."""
    m = p ** N
    b1, b0 = block[1] % m, block[0] % m
    disc = (b1 * b1 - 4 * b0) % m
    v = _vp_bounded(disc, p, N)
    if v is None or v >= N - max(4, N // 4):
        raise UnresolvedSplitting("quadratic block discriminant needs more precision")
    unit = disc // p ** v
    if v % 2 == 1:
        return [LocalFactor(2, 1, "ramified", N, tuple(block),
                            note=f"quadratic block, v(disc) = {v} odd")]
    if p == 2:
        cls = unit % 8
        if cls == 5:
            return [LocalFactor(1, 2, "unramified", N, tuple(block),
                                note="inert quadratic block (disc unit = 5 mod 8)")]
        if cls != 1:
            return [LocalFactor(2, 1, "ramified", N, tuple(block),
                                note=f"ramified quadratic block (disc unit = {cls} mod 8)")]
        split_note = "split quadratic block (disc unit = 1 mod 8)"
    else:
        if legendre(unit % p, p) == -1:
            return [LocalFactor(1, 2, "unramified", N, tuple(block),
                                note="inert quadratic block (disc unit non-residue)")]
        split_note = "split quadratic block (disc unit is a residue)"
    # split: recover the two roots to the precision available
    prec = N - v - (3 if p == 2 else 0)
    if prec < 3:
        raise UnresolvedSplitting("split quadratic block: root precision too low")
    s = sqrt_unit_mod(unit % p ** prec, p, prec) * p ** (v // 2)
    mm = p ** prec
    if p == 2:
        r1 = ((-b1 + s) // 2) % (mm // 2)
        r2 = ((-b1 - s) // 2) % (mm // 2)
        prec -= 1
    else:
        inv2 = pow(2, -1, mm)
        r1 = (-b1 + s) * inv2 % mm
        r2 = (-b1 - s) * inv2 % mm
    return [LocalFactor(1, 1, "linear", prec, ((-r) % p ** prec, 1), note=split_note)
            for r in sorted((r1 % p ** prec, r2 % p ** prec))]


def _scale_poly(a, p, s, N):
    """a(p^s Z) / p^(s*deg): (coeffs, new_prec) or None if not integral."""
    deg = len(a) - 1
    m = p ** N
    new_prec = N - s * deg
    if new_prec < 6:
        return None
    out = []
    for i, c in enumerate(a):
        shift = s * (deg - i)
        c %= m
        if shift:
            if c % p ** min(shift, N) != 0:
                return None
            c //= p ** shift
        out.append(c % p ** new_prec)
    return out, new_prec


def _map_back(fac: LocalFactor, r: int, p: int, a: int) -> LocalFactor:
    """Rewrite a piece found after X = r + p^a * Z in X-coordinates."""
    prec = fac.prec
    m = p ** prec
    g = [c % m for c in fac.lift]
    deg = len(g) - 1
    scaled = [g[i] * pow(p, a * (deg - i), m) % m for i in range(len(g))]
    mapped = mp_shift(scaled, (-r) % m, m)
    while len(mapped) < deg + 1:
        mapped.append(0)
    note = fac.note + f"; coords X = {r} + {p}^{a} Z" if (r or a) else fac.note
    return LocalFactor(fac.e, fac.f, fac.kind, prec, tuple(mapped), None, note)


def _resolve_reversed(shifted, p, N, depth) -> list[LocalFactor]:
    """Resolve t(X) = X^d f(c0/X)/c0, whose roots are c0/u_j for the roots
    u_j of f = `shifted` (c0 its constant term).  Used when f's shallow
    Newton slope is fractional but the steep one is integral: reversal
    swaps steep and shallow."""
    d = len(shifted) - 1
    m = p ** N
    c0 = shifted[0] % m
    v0 = _vp_bounded(c0, p, N)
    if v0 is None or v0 >= N - max(4, N // 4):
        raise UnresolvedSplitting("block reversal: constant term too deep")
    # t_j = f_(d-j) * c0^(d-j-1) for j < d; t_d = 1 (monic, integral)
    t = [(shifted[d - j] * pow(c0, d - j - 1, m)) % m for j in range(d)] + [1]
    return _factor_mod_pN(t, p, N, depth)


def _reverse_back(fc: LocalFactor, shifted, r, p, N) -> LocalFactor:
    """Map a piece tp of the reversed polynomial back to X-coordinates:
    piece(X) = X^deg tp(c0/X) / tp(0), then shift by r."""
    m0 = p ** N
    c0 = shifted[0] % m0
    dd = fc.degree
    prec = min(fc.prec, N)
    m = p ** prec
    tp = [c % m for c in fc.lift]
    t0 = tp[0]
    v_t0 = _vp_bounded(t0, p, prec)
    if v_t0 is None or prec - v_t0 < 6:
        raise UnresolvedSplitting("block reversal mapping lost precision")
    new_prec = prec - v_t0
    num = [(tp[dd - j] * pow(c0, dd - j, m)) % m for j in range(dd + 1)]
    out = []
    for val in num:
        if val % p ** v_t0 != 0:
            raise UnresolvedSplitting("block reversal mapping not integral")
        out.append(val // p ** v_t0)
    mm = p ** new_prec
    unit_inv = pow(t0 // p ** v_t0, -1, mm)
    out = [(c * unit_inv) % mm for c in out]
    mapped = mp_shift(out, (-r) % mm, mm)
    while len(mapped) < dd + 1:
        mapped.append(0)
    return LocalFactor(fc.e, fc.f, fc.kind, new_prec, tuple(mapped), None,
                       fc.note + "; via root reversal")


def _resolve_block(block, r, p, N, depth, reversed_pass=False) -> list[LocalFactor]:
    """Monic block over Z/p^N congruent to (X - r)^m mod p, m >= 2."""
    if depth > 16:
        raise UnresolvedSplitting("block resolution recursion too deep")
    deg = len(block) - 1
    if deg == 2:
        return _quadratic_block_pieces(block, p, N)

    m = p ** N
    shifted = mp_shift(block, r, m)
    while len(shifted) < deg + 1:
        shifted.append(0)
    vals = []
    unknown_depth = False
    for i in range(deg):
        v = _vp_bounded(shifted[i], p, N)
        if v is None:
            v = N
            unknown_depth = True
        vals.append((i, v))
    vals.append((deg, 0))
    hull = _np_lower_hull(vals)
    # trustworthiness: every hull vertex below the cap, except possibly
    # interior points that sit above the hull anyway
    if unknown_depth and any(y >= N - max(4, N // 4) for _, y in hull[:-1]):
        raise UnresolvedSplitting("Newton polygon needs more precision")

    segments = list(zip(hull, hull[1:]))
    # rescale by the shallowest slope: its roots become units, the steeper
    # segments stay as a residual block at zero, and plain mod-p
    # factorization separates them
    (x1, y1), (x2, y2) = segments[-1]
    rise, run = y1 - y2, x2 - x1
    gg = math.gcd(rise, run)
    a, b = rise // gg, run // gg
    if len(segments) == 1 and b == deg:
        back = mp_shift(shifted, (-r) % m, m)
        while len(back) < deg + 1:
            back.append(0)
        return [LocalFactor(deg, 1, "ramified", N, tuple(back),
                            note=f"totally ramified block, slope {rise}/{run}")]
    if b != 1:
        if reversed_pass:
            raise UnresolvedSplitting(
                f"fractional Newton slope {rise}/{run} on both polygon ends")
        return [_reverse_back(fc, shifted, r, p, N)
                for fc in _resolve_reversed(shifted, p, N, depth + 1)]
    scaled = _scale_poly(shifted, p, a, N)
    if scaled is None:
        raise UnresolvedSplitting("block rescaling exhausted precision")
    sub = _factor_mod_pN(scaled[0], p, scaled[1], depth + 1)
    return [_map_back(fc, r, p, a) for fc in sub]


def _factor_mod_pN(g, p, N, depth=0) -> list[LocalFactor]:
    """Q_p-pieces of a monic polynomial known mod p^N."""
    deg = len(g) - 1
    if deg <= 0:
        return []
    if deg == 1:
        return [LocalFactor(1, 1, "linear", N, tuple(c % p ** N for c in g))]
    red = [c % p for c in g]
    fac = factor_mod_p(FpPoly(p, tuple(red)))
    groups, kinds = [], []
    for h, mult in fac:
        hh = list(h.coeffs)
        if mult == 1:
            groups.append(hh)
            kinds.append(("simple", h.degree))
        else:
            blk = [1]
            for _ in range(mult):
                blk = mp_mul(blk, hh, p)
            groups.append(blk)
            kinds.append(("block", h.degree, mult, -hh[0] % p))
    lifted = (hensel_lift_factors([c % p ** N for c in g], groups, p, N)
              if len(groups) > 1 else [[c % p ** N for c in g]])
    out = []
    for piece, kind in zip(lifted, kinds):
        if kind[0] == "simple":
            d = kind[1]
            out.append(LocalFactor(1, d, "linear" if d == 1 else "unramified",
                                   N, tuple(piece)))
        elif kind[1] >= 2:
            out.append(LocalFactor(0, 0, "unresolved", N, tuple(piece),
                                   note="repeated non-linear factor mod p"))
        else:
            out.extend(_resolve_block(piece, kind[3], p, N, depth))
    return out


def local_splitting_type(f: RatPoly, p: int) -> LocalSplittingType:
    """Factorization type of a separable monic integer polynomial over Q_p.

    Exact rational factors split off first; p-adic blocks go through Hensel
    lifting and Newton-polygon resolution, escalating precision from p^20
    up to the cap, after which the block is reported unresolved.
    """
    if not f.is_monic() or not f.is_integral():
        raise ValueError("local_splitting_type expects a monic integer polynomial")
    if f.degree > 8:
        raise ValueError("degree capped at 8")
    if f.degree < 1:
        raise ValueError("degree must be at least 1")
    if discriminant(f) == 0 and f.degree > 1:
        raise ValueError("polynomial not separable")
    rational_factors = factor_over_Z(f)
    N = HENSEL_START
    while True:
        out: list[LocalFactor] = []
        bail = None
        for h in rational_factors:
            if h.degree == 1:
                root = -h.coeffs[0]
                if root.denominator % p == 0:
                    lift = (0, 1)  # negative-valuation root; lift unused
                else:
                    lift = (((-root.numerator)
                             * pow(root.denominator, -1, p ** N)) % p ** N, 1)
                out.append(LocalFactor(1, 1, "linear", N, lift, root))
                continue
            try:
                out.extend(_factor_mod_pN([int(c) for c in h.coeffs], p, N))
            except UnresolvedSplitting as exc:
                bail = exc
                out.append(LocalFactor(0, 0, "unresolved", N,
                                       tuple(int(c) % p ** N for c in h.coeffs),
                                       note=str(exc)))
        if bail is None or N >= HENSEL_CAP:
            break
        N *= 2
    def _order_key(fc: LocalFactor):
        root_res = -1
        if fc.degree == 1:
            try:
                root_res = fc.root_mod(p)
            except ValueError:
                root_res = -1
        return (fc.degree, fc.e, root_res,
                tuple(c % p for c in fc.lift), fc.lift)

    ordered = tuple(sorted(out, key=_order_key))
    resolved = all(fc.kind != "unresolved" for fc in ordered)
    return LocalSplittingType(
        p, ordered,
        splits_completely=resolved and all(fc.e == 1 and fc.f == 1 for fc in ordered),
        totally_ramified=len(ordered) == 1 and ordered[0].e == f.degree,
        all_unramified=resolved and all(fc.e == 1 for fc in ordered),
    )
