"""The chord-tangent group law over Q or over F_p: an oracle for the tests.

qdescent reads x-coordinates and has no group law.  The tests use this one
to count the points of E(F_p) and E(F_p)[n], to check that isogenous
curves have as many points, and to check the 2- and 3-division
polynomials at torsion points, on models that `moved` gives a1, a3 != 0
and non-integral coefficients.  Affine points are qdescent.elliptic.Pt;
INF is the identity.  p = 0 is Q (Fraction coordinates); a prime p is F_p
(coordinates the residues 0..p-1, on a p-integral model).
"""

from fractions import Fraction

from qdescent.arith import residue
from qdescent.elliptic import Pt


class _Infinity:
    def __repr__(self):
        return "O"


INF = _Infinity()


def _of(v, p):
    """v as an element of Q (p = 0) or of F_p."""
    return Fraction(v) if p == 0 else residue(Fraction(v), p)


def _div(a, b, p):
    return Fraction(a) / b if p == 0 else _of(a, p) * pow(_of(b, p), -1, p) % p


def points(m, p):
    """E(F_p), by search: INF and every affine (x, y) with 0 <= x, y < p,
    the equation read with its coefficients reduced mod p."""
    a1, a2, a3, a4, a6 = (_of(a, p) for a in m.ainvs())
    return [INF] + [Pt(x, y) for x in range(p) for y in range(p)
                    if (y * y + a1 * x * y + a3 * y - x ** 3 - a2 * x * x
                        - a4 * x - a6) % p == 0]


def negate(m, P, p=0):
    if P is INF:
        return INF
    return Pt(P.x, _of(-P.y - m.a1 * P.x - m.a3, p))


def add(m, P, Q, p=0):
    if P is INF:
        return Q
    if Q is INF:
        return P
    a1, a2, a3, a4, _ = m.ainvs()
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if _of(x1 - x2, p) == 0:
        if _of(y1 + y2 + a1 * x2 + a3, p) == 0:
            return INF
        lam = _div(3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1,
                   2 * y1 + a1 * x1 + a3, p)
    else:
        lam = _div(y2 - y1, x2 - x1, p)
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - (y1 - lam * x1) - a3
    return Pt(_of(x3, p), _of(y3, p))


def scalar_mul(m, n: int, P, p=0):
    if n < 0:
        return scalar_mul(m, -n, negate(m, P, p), p)
    out, base = INF, P
    while n:
        if n & 1:
            out = add(m, out, base, p)
        base = add(m, base, base, p)
        n >>= 1
    return out


def moved(m, rng):
    """m moved by a seeded change (r, s, t, u), redrawn until the new model
    has a1, a3 != 0 and a coefficient that is not an integer; returns the
    model and the change."""
    while True:
        change = (Fraction(rng.randrange(-9, 10), rng.choice((1, 2, 3))),
                  Fraction(rng.choice((-3, -1, 1, 3)), 2),
                  Fraction(rng.randrange(-9, 10), rng.choice((2, 4))),
                  Fraction(rng.choice((-1, 1, 2, 3)), rng.choice((1, 2, 3))))
        m2 = m.transform(*change)
        if m2.a1 and m2.a3 and not m2.is_integral():
            return m2, change


def map_point(P, r=0, s=0, t=0, u=1):
    """The image of a point of m on m.transform(r, s, t, u)."""
    if P is INF:
        return INF
    r, s, t, u = map(Fraction, (r, s, t, u))
    return Pt((P.x - r) / u ** 2, (P.y - s * (P.x - r) - t) / u ** 3)
