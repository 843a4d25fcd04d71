"""Weierstrass models and isogenies.

Models are exact ([a1,a2,a3,a4,a6] over Q; ints on integral and minimal
models).  A model is the one object of its curve: it keeps its invariants,
2- and 3-division polynomials (psi2, psi3), the primes of its discriminant
(disc_primes), its one integral model u = 1/d (integral_model), Tate's
algorithm from it at each prime asked about (reduction) and the curve y^2 =
its 2-division cubic, whose factors over Q are found once and moved to the
minimal model of each prime (two_division_factors).  A point's x moves
only through the model: to the minimal model at p by minimal_model_x, to
the 2-division curve by two_division_x.  There is no group law and no
point at infinity: the descent reads x-coordinates, a kernel of order 2 is
checked by psi2 and one of order 3 by psi3.  An isogeny is its kernel's x:
descent reads only the codomain, which Velu's formulas give from that x,
psi2, c4 and c6, and the kernel's x itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import factor_integer
from .jacobian import HyperellipticCurve
from .poly import RatPoly
from .tate import WEIGHTS, ReductionData, tate_algorithm, translate


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q, the a_i
    Fractions or, on integral and minimal models, ints.  The model keeps
    what is computed once per model: the b- and c-invariants, psi2, psi3,
    disc, disc_primes (its primes, from one factorization), the one
    integral model, reduction(p) and the 2-division curve."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    @cached_property
    def b2(self):
        return self.a1 ** 2 + 4 * self.a2

    @cached_property
    def b4(self):
        return 2 * self.a4 + self.a1 * self.a3

    @cached_property
    def b6(self):
        return self.a3 ** 2 + 4 * self.a6

    @cached_property
    def b8(self):
        return (self.a1 ** 2 * self.a6 + 4 * self.a2 * self.a6
                - self.a1 * self.a3 * self.a4 + self.a2 * self.a3 ** 2
                - self.a4 ** 2)

    @cached_property
    def c4(self):
        return self.b2 ** 2 - 24 * self.b4

    @cached_property
    def c6(self):
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @cached_property
    def psi2(self) -> RatPoly:
        """The 2-division polynomial 4x^3 + b2 x^2 + 2 b4 x + b6, equal to
        (2y + a1 x + a3)^2 on the curve; its roots are the x of E[2] - O."""
        return RatPoly([self.b6, 2 * self.b4, self.b2, 4])

    @cached_property
    def psi3(self) -> RatPoly:
        """The 3-division polynomial 3x^4 + b2 x^3 + 3 b4 x^2 + 3 b6 x + b8;
        its roots are the x of E[3] - O (Silverman, Ex. 3.7)."""
        return RatPoly([self.b8, 3 * self.b6, 3 * self.b4, self.b2, 3])

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
        return Fraction(self.c4 ** 3, self.disc)

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
        """The lcm d of the denominators of the a_i."""
        return math.lcm(*(a.denominator for a in self.ainvs()))

    @cached_property
    def integral_model(self) -> "WeierstrassModel":
        """The one integral model of the curve: self.transform(u=1/d),
        d = denominator, on five ints a_w d^w.  Its x is d^2 times ours;
        Tate's algorithm starts from it at every prime."""
        d = self.denominator
        return WeierstrassModel(*(a.numerator * (d ** w // a.denominator)
                                  for a, w in zip(self.ainvs(), WEIGHTS)))

    @cached_property
    def two_division_curve(self) -> HyperellipticCurve:
        """y^2 = two_division_cubic_integral of integral_model; its factors
        are the one factorization of the cubic over Q."""
        return HyperellipticCurve(
            two_division_cubic_integral(self.integral_model))

    def minimal_model_x(self, x, p: int) -> Fraction:
        """x moved to reduction(p).minimal_model: (d^2 x - r)/u^2, with
        d = denominator and (r, s, t, u) = reduction(p).transform."""
        r, _, _, u = self.reduction(p).transform
        return Fraction(self.denominator ** 2 * x - r, u * u)

    def two_division_x(self, x) -> Fraction:
        """x moved to two_division_curve: U = 4 d^2 x, d = denominator."""
        return 4 * self.denominator ** 2 * Fraction(x)

    def two_division_factors(self, p: int) -> tuple:
        """The monic irreducible factors over Q of two_division_cubic_integral
        of the minimal model at p, moved from two_division_curve.

        The roots U of the curve's cubic and U' of the minimal model's are
        4x on each, so with the integer (r, s, t, u) = reduction(p).transform
        U = u^2 U' + 4r, and each factor h becomes h(u^2 U' + 4r), made
        monic.  The factors are integral, as the minimal model is.
        """
        r, _, _, u = self.reduction(p).transform
        return tuple(h.compose_linear(u * u, 4 * r).monic()
                     for h in self.two_division_curve.factors)

    def ainvs(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_integral(self) -> bool:
        return all(a.denominator == 1 for a in self.ainvs())

    def transform(self, r=0, s=0, t=0, u=1) -> "WeierstrassModel":
        """Standard change of variables x = u^2 x' + r, y = u^3 y' + s u^2 x' + t:
        the translation by (r, s, t) (tate.translate), then a_w / u^w."""
        u = Fraction(u)
        moved = translate(self.ainvs(), Fraction(r), Fraction(s), Fraction(t))
        return WeierstrassModel(*(c / u ** w for c, w in zip(moved, WEIGHTS)))

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
    """Parse "[a1,a2,a3,a4,a6]" with rational entries.  Any other input
    raises a ValueError naming it."""
    try:
        text = s.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError("curve must be given as [a1,a2,a3,a4,a6]")
        parts = [Fraction(t.strip()) for t in text[1:-1].split(",")]
        if len(parts) != 5:
            raise ValueError("curve needs exactly five coefficients")
    except ZeroDivisionError:
        raise ValueError(f"cannot parse curve {s!r}: a zero denominator"
                         ) from None
    except ValueError as exc:
        raise ValueError(f"cannot parse curve {s!r}: {exc}") from None
    return compute_invariants(*parts)


@dataclass(frozen=True)
class Pt:
    x: object
    y: object

    def __repr__(self):
        return f"({self.x}, {self.y})"


def is_on_curve(m: WeierstrassModel, P) -> bool:
    a1, a2, a3, a4, a6 = m.ainvs()
    x, y = P.x, P.y
    return y * y + a1 * x * y + a3 * y == x ** 3 + a2 * x * x + a4 * x + a6


def two_division_cubic_integral(m: WeierstrassModel) -> RatPoly:
    """16 psi2(U/4): the monic cubic in U = 4x whose roots are 4 times the
    x-coordinates of E[2] minus O; integral when m is."""
    return RatPoly([16 * m.b6, 8 * m.b4, m.b2, 1])


@dataclass(frozen=True)
class IsogenyMap:
    """The cyclic isogeny of degree 2 or 3 from domain whose kernel has
    x-coordinate x0 on domain; codomain is Velu's model of the quotient.
    Velu's maps pull the invariant differential of codomain back to that
    of domain: phi'(0) = 1 on these two models."""

    domain: WeierstrassModel
    codomain: WeierstrassModel
    degree: int
    x0: Fraction


def velu_isogeny(m: WeierstrassModel, kernel_points) -> IsogenyMap:
    """Quotient of m by a subgroup of order 2 or 3 given by its affine
    points: [T] with T of order 2 (psi2(x_T) = 0), or [Q, -Q] with Q of
    order 3 (psi3(x_Q) = 0).

    Velu's formulas read the kernel's x0 alone.  The depressed model
    y^2 = x^3 + Ax + B, A = -c4/48 and B = -c6/864, is reached by
    x -> xd = x + b2/12, and psi2(x) = 4(xd^3 + A xd + B).  With
    v = psi2'(x0)/4 and u = 0 at order 2, v = psi2'(x0)/2 and
    u = psi2(x0) (4y^2 on the depressed model) at order 3, the codomain is
    y^2 = x^3 + (A - 5v)x + B - 7(u + xd v), xd = x0 + b2/12.
    """
    for P in kernel_points:
        if not is_on_curve(m, P):
            raise ValueError(f"kernel point {P} not on the curve")
    order = len(kernel_points) + 1
    if order == 2:
        (T,) = kernel_points
        if m.psi2.eval(T.x) != 0:
            raise ValueError("order-2 kernel point must be 2-torsion")
        x0 = T.x
        v, u = m.psi2.deriv().eval(x0) / 4, 0
    elif order == 3:
        Q, R = kernel_points
        if R != Pt(Q.x, -Q.y - m.a1 * Q.x - m.a3):
            raise ValueError("order-3 kernel must be {Q, -Q}")
        if m.psi3.eval(Q.x) != 0:
            raise ValueError("kernel points do not form a subgroup of order 3")
        x0 = Q.x
        v, u = m.psi2.deriv().eval(x0) / 2, m.psi2.eval(x0)
    else:
        raise ValueError("kernel order limited to 2, 3")
    A, B = Fraction(-m.c4, 48), Fraction(-m.c6, 864)
    xd = x0 + Fraction(m.b2, 12)
    codomain = compute_invariants(0, 0, 0, A - 5 * v, B - 7 * (u + xd * v))
    return IsogenyMap(m, codomain, order, Fraction(x0))
