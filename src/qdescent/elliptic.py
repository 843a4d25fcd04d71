"""Weierstrass models, point arithmetic and isogenies.

Models are exact ([a1,a2,a3,a4,a6] over Q); point arithmetic runs over Q or
over F_p through a small field-context object.  A model is the one object
of its curve: it keeps the primes of its discriminant (disc_primes),
Tate's algorithm at each prime it was asked about (reduction) and the
curve y^2 = its integral 2-division cubic, whose factors over Q are found
once and moved to the minimal model of each prime (two_division_factors).
Isogenies are Velu's: the coordinate maps are rational functions in x
(plus y times a rational function in x), stored on a depressed model
y^2 = x^3 + Ax + B with the translation recorded, together with the
scalar phi'(0) by which the map pulls back the invariant differential,
fixed when the map is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import factor_integer, residue
from .jacobian import HyperellipticCurve
from .poly import RatPoly
from .tate import ReductionData, tate_algorithm

Rat = Fraction


# ---------------------------------------------------------------------------
# Field contexts (Q and F_p share the group-law code)


class QCtx:
    name = "Q"

    @staticmethod
    def of(v):
        return Fraction(v)

    @staticmethod
    def inv(v):
        return 1 / Fraction(v)

    @staticmethod
    def eq(a, b):
        return a == b


class FpCtx:
    def __init__(self, p: int):
        self.p = p
        self.name = f"F_{p}"

    def of(self, v):
        return residue(v, self.p)

    def inv(self, v):
        return pow(v, -1, self.p)

    def eq(self, a, b):
        return (a - b) % self.p == 0


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q.  The model
    keeps what is computed once per model: disc, disc_primes (its primes,
    from one factorization), reduction(p) and the 2-division curve."""

    a1: Rat
    a2: Rat
    a3: Rat
    a4: Rat
    a6: Rat

    @property
    def b2(self):
        return self.a1 ** 2 + 4 * self.a2

    @property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self):
        return self.a3 ** 2 + 4 * self.a6

    @property
    def b8(self):
        return (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
                - self.a4 ** 2)

    @property
    def c4(self):
        return self.b2 ** 2 - 24 * self.b4

    @property
    def c6(self):
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def disc(self):
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @cached_property
    def disc_primes(self) -> tuple:
        """The primes dividing the numerator or the denominator of disc,
        ascending, factored once per model; descent_global.bad_primes
        keeps those where the reduction is bad."""
        return tuple(sorted({p for n in (self.disc.numerator,
                                         self.disc.denominator)
                             for p, _ in factor_integer(n).factors}))

    @property
    def j(self):
        return self.c4 ** 3 / self.disc

    @cached_property
    def _reductions(self) -> dict:
        return {}

    def reduction(self, p: int) -> ReductionData:
        """Tate's algorithm at p, run once per prime and kept."""
        rd = self._reductions.get(p)
        if rd is None:
            rd = self._reductions[p] = tate_algorithm(self, p)
        return rd

    @cached_property
    def denominator(self) -> int:
        """The lcm d of the denominators of the a_i: the model
        self.transform(u=1/d), whose x is d^2 times ours, is integral."""
        return math.lcm(*(a.denominator for a in self.ainvs()))

    @cached_property
    def two_division_curve(self) -> HyperellipticCurve:
        """y^2 = two_division_cubic_integral of the integral model
        self.transform(u=1/d); its factors are the one factorization of the
        cubic over Q."""
        return HyperellipticCurve(two_division_cubic_integral(
            self.transform(u=Fraction(1, self.denominator))))

    def two_division_factors(self, p: int) -> tuple:
        """The monic irreducible factors over Q of two_division_cubic_integral
        of the minimal model at p, moved from two_division_curve.

        With (r, s, t, u) = reduction(p).transform, the roots U of the
        curve's cubic and U' of the minimal model's are 4 d^2 x and
        4 (x - r)/u^2, so each factor h becomes h(d^2 u^2 U' + 4 d^2 r),
        made monic.  The factors are integral, as the minimal model is.
        """
        r, _, _, u = self.reduction(p).transform
        d2 = self.denominator ** 2
        return tuple(h.compose_linear(d2 * u * u, 4 * d2 * r).monic()
                     for h in self.two_division_curve.factors)

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.ainvs())

    def rhs(self, x):
        x = Fraction(x)
        return x ** 3 + self.a2 * x ** 2 + self.a4 * x + self.a6

    def transform(self, r=0, s=0, t=0, u=1) -> "WeierstrassModel":
        """Standard change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t."""
        r, s, t, u = Fraction(r), Fraction(s), Fraction(t), Fraction(u)
        a1, a2, a3, a4, a6 = self.ainvs()
        A1 = (a1 + 2 * s) / u
        A2 = (a2 - s * a1 + 3 * r - s * s) / u ** 2
        A3 = (a3 + r * a1 + 2 * t) / u ** 3
        A4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r
              - 2 * s * t) / u ** 4
        A6 = (a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t
              - r * t * a1) / u ** 6
        return WeierstrassModel(A1, A2, A3, A4, A6)

    def map_point(self, P, r=0, s=0, t=0, u=1):
        """Image of a point of self on self.transform(r, s, t, u)."""
        if P is INF:
            return INF
        r, s, t, u = Fraction(r), Fraction(s), Fraction(t), Fraction(u)
        x2 = (P.x - r) / u ** 2
        y2 = (P.y - s * (P.x - r) - t) / u ** 3
        return Pt(x2, y2)

    def __repr__(self):
        return f"[{self.a1},{self.a2},{self.a3},{self.a4},{self.a6}]"


def compute_invariants(a1, a2, a3, a4, a6) -> WeierstrassModel:
    """Build a model, rejecting singular input."""
    m = WeierstrassModel(Fraction(a1), Fraction(a2), Fraction(a3),
                         Fraction(a4), Fraction(a6))
    if m.disc == 0:
        raise ValueError("singular model (disc = 0)")
    assert 4 * m.b8 == m.b2 * m.b6 - m.b4 ** 2
    assert 1728 * m.disc == m.c4 ** 3 - m.c6 ** 2
    return m


def curve_from_string(s: str) -> WeierstrassModel:
    """Parse "[a1,a2,a3,a4,a6]" with rational entries."""
    s = s.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError("curve must be given as [a1,a2,a3,a4,a6]")
    parts = [Fraction(t.strip()) for t in s[1:-1].split(",")]
    if len(parts) != 5:
        raise ValueError("curve needs exactly five coefficients")
    return compute_invariants(*parts)


class _Infinity:
    _inst = None

    def __new__(cls):
        if cls._inst is None:
            cls._inst = super().__new__(cls)
        return cls._inst

    def __repr__(self):
        return "O"


INF = _Infinity()


@dataclass(frozen=True)
class Pt:
    x: object
    y: object

    def __repr__(self):
        return f"({self.x}, {self.y})"


def is_on_curve(m: WeierstrassModel, P, ctx=QCtx) -> bool:
    if P is INF:
        return True
    a1, a2, a3, a4, a6 = (ctx.of(a) for a in m.ainvs())
    x, y = P.x, P.y
    lhs = y * y + a1 * x * y + a3 * y
    rhs = x ** 3 + a2 * x * x + a4 * x + a6
    return ctx.eq(lhs, rhs)


def negate(m: WeierstrassModel, P, ctx=QCtx):
    if P is INF:
        return INF
    a1, a3 = ctx.of(m.a1), ctx.of(m.a3)
    return Pt(P.x, -P.y - a1 * P.x - a3)


def add(m: WeierstrassModel, P, Q, ctx=QCtx):
    """Chord-tangent group law; Infinity is the identity."""
    if P is INF:
        return Q
    if Q is INF:
        return P
    a1, a2, a3, a4, a6 = (ctx.of(a) for a in m.ainvs())
    x1, y1, x2, y2 = P.x, P.y, Q.x, Q.y
    if ctx.eq(x1, x2):
        if ctx.eq(y1 + y2 + a1 * x2 + a3, 0):
            return INF
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) \
            * ctx.inv(2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) * ctx.inv(x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    if isinstance(ctx, FpCtx):
        return Pt(x3 % ctx.p, y3 % ctx.p)
    return Pt(x3, y3)


def scalar_mul(m: WeierstrassModel, n: int, P, ctx=QCtx):
    if n < 0:
        return scalar_mul(m, -n, negate(m, P, ctx), ctx)
    out = INF
    base = P
    while n:
        if n & 1:
            out = add(m, out, base, ctx)
        base = add(m, base, base, ctx)
        n >>= 1
    return out


def two_division_cubic_integral(m: WeierstrassModel) -> RatPoly:
    """Monic cubic in U = 4x whose roots are 4 times the x-coordinates of
    E[2] minus O; integral when m is."""
    return RatPoly([16 * m.b6, 8 * m.b4, m.b2, 1])


@dataclass(frozen=True)
class IsogenyMap:
    """An isogeny with exact rational coordinate functions.

    The maps act on the depressed form of the domain: if (r, s, t) is `pre`,
    the depressed coordinates are xd = x - r', ... recorded as a transform
    tuple; phi(x, y) = (xnum(xd)/xden(xd), yd * ynum(xd)/yden(xd)) on the
    codomain (itself depressed).  `kernel` lists the x-coordinates of the
    kernel on the *original* domain.

    `phi_prime_0` is phi'(0) on the depressed models: phi^*(dx'/2y') =
    phi_prime_0 * dx/2y, so X'(x) = phi_prime_0 * Y(x) for
    X = x_num/x_den and Y = y_num/y_den.
    """

    domain: WeierstrassModel
    codomain: WeierstrassModel
    degree: int
    pre: tuple  # (r, s, t, u) mapping domain -> depressed domain
    x_num: RatPoly
    x_den: RatPoly
    y_num: RatPoly  # multiplies y_depressed
    y_den: RatPoly
    kernel: tuple
    phi_prime_0: int

    def depressed_domain(self) -> WeierstrassModel:
        return self.domain.transform(*self.pre)

    def apply(self, P):
        if P is INF:
            return INF
        r, s, t, u = self.pre
        Pd = self.domain.map_point(P, r, s, t, u)
        xd, yd = Pd.x, Pd.y
        den = self.x_den.eval(xd)
        if den == 0:
            return INF
        x2 = self.x_num.eval(xd) / den
        y2 = yd * self.y_num.eval(xd) / self.y_den.eval(xd)
        return Pt(x2, y2)


def _depress(m: WeierstrassModel):
    """Transform (r, s, t, 1) taking m to y^2 = x^3 + Ax + B: s and t
    complete the square in y, and r = -b2/12 (b2 is unchanged by s and t)
    removes the x^2 term."""
    s, r = -m.a1 / 2, -m.b2 / 12
    tr = (r, s, -m.a3 / 2 + s * r, Fraction(1))
    dep = m.transform(*tr)
    assert dep.a1 == 0 and dep.a2 == 0 and dep.a3 == 0
    return dep, tr


def velu_isogeny(m: WeierstrassModel, kernel_points) -> IsogenyMap:
    """Quotient by a finite subgroup of order 1, 2 or 3 given by its
    nontrivial affine points (Velu's formulas on the depressed model).

    One point P represents the kernel up to sign: v = 3x_P^2 + A, u = 0 at
    order 2, v = 6x_P^2 + 2A, u = 4y_P^2 at order 3.  With l = x - x_P and
    k = order - 1 the x-map is (x l^k + v l^(k-1) + u)/l^k, in lowest terms
    (v or u is not 0), and the y-map its derivative (x_num' l - k x_num)/
    l^(k+1), so that phi'(0) = 1.
    """
    pts = [P for P in kernel_points if P is not INF]
    for P in pts:
        if not is_on_curve(m, P):
            raise ValueError(f"kernel point {P} not on the curve")
    dep, pre = _depress(m)
    A, B = dep.a4, dep.a6
    dpts = [m.map_point(P, *pre) for P in pts]
    order = len(dpts) + 1
    if order == 1:
        return IsogenyMap(m, dep, 1, pre, RatPoly([0, 1]), RatPoly([1]),
                          RatPoly([1]), RatPoly([1]), (), 1)
    if order == 2:
        (P,) = dpts
        if P.y != 0:
            raise ValueError("order-2 kernel point must be 2-torsion")
        v, u = 3 * P.x ** 2 + A, Fraction(0)
    elif order == 3:
        P, Q = dpts
        if P.x != Q.x or P.y != -Q.y:
            raise ValueError("order-3 kernel must be {Q, -Q}")
        # Galois-stability/subgroup check: 2*Q = -Q
        if scalar_mul(dep, 2, P) != Pt(P.x, -P.y):
            raise ValueError("kernel points do not form a subgroup of order 3")
        v, u = 6 * P.x ** 2 + 2 * A, 4 * P.y ** 2
    else:
        raise ValueError("kernel order limited to 1, 2, 3")
    codomain = compute_invariants(0, 0, 0, A - 5 * v, B - 7 * (u + P.x * v))
    k = order - 1
    lin = RatPoly([-P.x, 1])
    x_num = RatPoly([0, 1]) * lin ** k + v * lin ** (k - 1) + u
    y_num = x_num.deriv() * lin - k * x_num
    kern = tuple(sorted({P.x for P in pts}))
    return IsogenyMap(m, codomain, order, pre, x_num, lin ** k, y_num,
                      lin ** (k + 1), kern, 1)
