"""Tate's algorithm over Q_p: minimal model, Kodaira type, component group.

The full branch structure is implemented (no c4/c6 shortcuts), since the
additive cases at p = 2 and p = 3 matter here.  Local descent reads the
Tamagawa number c_p, whether multiplicative reduction is split, and the
order of Frobenius on the component group
(frobenius_order_on_components).  The minimal model is integral, not only
p-integral, so that the local objects built on it, such as its 2-division
cubic, have integer coefficients.  WeierstrassModel.reduction runs it
once per prime and keeps the result, so that each (model, prime) has one
ReductionData.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import INFINITY, legendre, residue, valuation
from .poly import factor_mod_p


@dataclass(frozen=True)
class KodairaType:
    """'I0', ('I', nu), 'II', 'III', 'IV', ('I*', nu), 'IV*', 'III*', 'II*'."""

    letter: str  # 'I0' | 'I' | 'II' | 'III' | 'IV' | 'I*' | 'IV*' | 'III*' | 'II*'
    nu: int = 0

    def symbol(self) -> str:
        if self.letter == "I":
            return f"I{self.nu}"
        if self.letter == "I*":
            return f"I{self.nu}*"
        return self.letter

    def __repr__(self):
        return self.symbol()


@dataclass(frozen=True)
class ReductionData:
    """Tate's algorithm at p for one model: the minimal model, integral and
    minimal at p, its Kodaira type and Tamagawa number, and the change of
    coordinates `transform` that takes the input model to it."""

    p: int
    minimal_model: WeierstrassModel
    kodaira: KodairaType
    v_disc_min: int
    conductor_exponent: int
    c_p: int
    split: object  # True / False / None (not applicable)
    frobenius_order_on_components: int
    transform: tuple  # (r, s, t, u) taking the input model to minimal_model


def _singular_point(m: WeierstrassModel, p: int):
    """The singular point of the reduction, as residues (x0, y0)."""
    if p == 2:
        a1, a2, a3, a4, a6 = (residue(a, 2) for a in m.ainvs())
        for x0 in range(2):
            for y0 in range(2):
                on = (y0 * y0 + a1 * x0 * y0 + a3 * y0
                      - (x0 ** 3 + a2 * x0 * x0 + a4 * x0 + a6)) % 2 == 0
                dx = (a1 * y0 + x0 * x0 + a4) % 2 == 0
                dy = (a1 * x0 + a3) % 2 == 0
                if on and dx and dy:
                    return x0, y0
        raise ArithmeticError("no singular point found mod 2")
    # p odd: x0 is the multiple root of 4x^3 + b2 x^2 + 2 b4 x + b6 (the
    # multiple root is unique, hence F_p-rational)
    B = [residue(m.b6, p), residue(2 * m.b4, p), residue(m.b2, p), 4]
    for g, mult in factor_mod_p(B, p):
        if mult >= 2 and len(g) == 2:
            x0 = -g[0] % p
            y0 = (-(residue(m.a1, p) * x0 + residue(m.a3, p))
                  * pow(2, -1, p)) % p
            return x0, y0
    raise ArithmeticError("no multiple root found mod p")


def _fp_quadratic_split(A, B, p):
    """Does Y^2 + A Y + B have a root in F_p (A, B residues)?"""
    if p == 2:
        return B % 2 == 0 or (1 + A + B) % 2 == 0
    disc = (A * A - 4 * B) % p
    return disc == 0 or legendre(disc, p) == 1


def _move(m: WeierstrassModel, tr: tuple, r=0, s=0, t=0, u=1):
    """m.transform(r, s, t, u), and tr (the change of coordinates that led
    to m) composed with it."""
    r0, s0, t0, u0 = tr
    r, s, t, u = Fraction(r), Fraction(s), Fraction(t), Fraction(u)
    return (m.transform(r, s, t, u),
            (r0 + u0 ** 2 * r, s0 + u0 * s,
             t0 + u0 ** 3 * t + s0 * u0 ** 2 * r, u0 * u))


def tate_algorithm(m: WeierstrassModel, p: int) -> ReductionData:
    """Kodaira type, Tamagawa number and component-group data at p.

    The result records the change of coordinates (r, s, t, u) with
    m.transform(r, s, t, u) == minimal_model, a model integral and minimal
    at p.  Unless the reduction is good (I0), the singular point of the
    reduced minimal model is (0, 0).
    """
    if m.disc == 0:
        raise ValueError("singular curve")
    tr = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    # make the model p-integral, then integral: the lcm d of the
    # denominators left is prime to p, so scaling by 1/d changes nothing at p
    while any(valuation(a, p) is not INFINITY and valuation(a, p) < 0
              for a in m.ainvs()):
        m, tr = _move(m, tr, u=Fraction(1, p))
    d = math.lcm(*(a.denominator for a in m.ainvs()))
    if d > 1:
        m, tr = _move(m, tr, u=Fraction(1, d))

    while True:
        n = valuation(m.disc, p)
        if n == 0:
            return ReductionData(p, m, KodairaType("I0"), 0, 0, 1, None, 1,
                                 tr)
        x0, y0 = _singular_point(m, p)
        m, tr = _move(m, tr, r=x0, t=y0)
        assert all(valuation(a, p) is INFINITY or valuation(a, p) >= 1
                   for a in (m.a3, m.a4, m.a6))

        if valuation(m.b2, p) == 0:
            # multiplicative: tangent directions T^2 + a1 T - a2
            if p == 2:
                split = residue(m.a2, 2) == 0  # T^2 + T + a2 splits iff a2 = 0
            else:
                split = legendre(residue(m.b2, p), p) == 1
            nu = n
            c = nu if split else (2 if nu % 2 == 0 else 1)
            kt = KodairaType("I", nu)
            frob = 1 if (split or nu <= 2) else 2
            return ReductionData(p, m, kt, n, 1, c, split, frob, tr)

        # additive reduction from here on
        if valuation(m.a6, p) < 2:
            kt = KodairaType("II")
            return ReductionData(p, m, kt, n, n, 1, None, 1, tr)
        if valuation(m.b8, p) < 3:
            kt = KodairaType("III")
            return ReductionData(p, m, kt, n, n - 1, 2, None, 1, tr)
        if valuation(m.b6, p) < 3:
            A = residue(m.a3 / p, p)
            B = residue(-m.a6 / p ** 2, p)
            split = _fp_quadratic_split(A, B, p)
            kt = KodairaType("IV")
            c = 3 if split else 1
            return ReductionData(p, m, kt, n, n - 2, c, None,
                                 1 if split else 2, tr)

        # step 6 normalization: p | a1, a2; p^2 | a3, a4; p^3 | a6
        if p == 2:
            if residue(m.a2, 2) == 1:
                m, tr = _move(m, tr, s=1)
            if valuation(m.a6, p) == 2:
                tfix = 2 * ((residue(m.a6, 8) // 4) % 2)
                if tfix:
                    m, tr = _move(m, tr, t=tfix)
        else:
            s = (-residue(m.a1, p) * pow(2, -1, p)) % p
            if s:
                m, tr = _move(m, tr, s=s)
            t = (-residue(m.a3, p ** 2) * pow(2, -1, p ** 2)) % p ** 2
            if t:
                m, tr = _move(m, tr, t=t)
        assert valuation(m.a1, p) >= 1 and valuation(m.a2, p) >= 1
        assert valuation(m.a3, p) >= 2 and valuation(m.a4, p) >= 2 \
            and valuation(m.a6, p) >= 3

        # P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) over F_p
        Pc = [residue(m.a6 / p ** 3, p), residue(m.a4 / p ** 2, p),
              residue(m.a2 / p, p), 1]
        fac = factor_mod_p(Pc, p)
        mults = sorted(mlt for _, mlt in fac)
        if all(mlt == 1 for _, mlt in fac):
            # I0*: c = 1 + number of rational roots of P
            nroots = sum(1 for g, _ in fac if len(g) == 2)
            c = 1 + nroots
            kt = KodairaType("I*", 0)
            frob = {4: 1, 2: 2, 1: 3}[c]
            return ReductionData(p, m, kt, n, n - 4, c, None, frob, tr)

        if mults[-1] == 2:
            # I_nu* subprocedure: double root of P translated to T = 0
            r0 = next(-g[0] % p for g, mlt in fac
                      if mlt == 2 and len(g) == 2)
            m, tr = _move(m, tr, r=p * r0)
            assert valuation(m.a2, p) == 1 and valuation(m.a4, p) >= 3 \
                and valuation(m.a6, p) >= 4
            k = 1
            while True:
                if k % 2 == 1:
                    mm = (k + 3) // 2
                    A = m.a3 / p ** mm
                    B = -m.a6 / p ** (k + 3)
                    disc = A * A - 4 * B
                    if valuation(disc, p) == 0:
                        split = _fp_quadratic_split(residue(A, p),
                                                    residue(B, p), p)
                        c = 4 if split else 2
                        kt = KodairaType("I*", k)
                        return ReductionData(p, m, kt, n, n - 4 - k, c, None,
                                             1 if c == 4 else 2, tr)
                    # double root: deepen a3, a6
                    if p == 2:
                        ybar = residue(B, 2)
                    else:
                        ybar = (-residue(A, p) * pow(2, -1, p)) % p
                    if ybar:
                        m, tr = _move(m, tr, t=ybar * p ** mm)
                else:
                    mm = (k + 4) // 2
                    a = m.a2 / p
                    b = m.a4 / p ** mm
                    cq = m.a6 / p ** (k + 3)
                    disc = b * b - 4 * a * cq
                    if valuation(disc, p) == 0:
                        ra, rb, rc = (residue(a, p), residue(b, p),
                                      residue(cq, p))
                        if p == 2:
                            split = rc % 2 == 0 or (ra + rb + rc) % 2 == 0
                        else:
                            split = legendre(residue(disc, p), p) == 1
                        c = 4 if split else 2
                        kt = KodairaType("I*", k)
                        return ReductionData(p, m, kt, n, n - 4 - k, c, None,
                                             1 if c == 4 else 2, tr)
                    if p == 2:
                        xbar = (residue(cq, 2) * residue(a, 2)) % 2
                    else:
                        xbar = (-residue(b, p)
                                * pow(2 * residue(a, p), -1, p)) % p
                    if xbar:
                        m, tr = _move(m, tr, r=xbar * p ** ((k + 2) // 2))
                k += 1
                if k > n:
                    raise ArithmeticError("runaway I_nu* subprocedure")
            # not reached

        # triple root: translate to T = 0
        r0 = next(-g[0] % p for g, mlt in fac if mlt == 3)
        m, tr = _move(m, tr, r=p * r0)
        assert valuation(m.a2, p) >= 2 and valuation(m.a4, p) >= 3 \
            and valuation(m.a6, p) >= 4

        A = m.a3 / p ** 2
        B = -m.a6 / p ** 4
        disc = A * A - 4 * B
        if valuation(disc, p) == 0:
            split = _fp_quadratic_split(residue(A, p), residue(B, p), p)
            kt = KodairaType("IV*")
            c = 3 if split else 1
            return ReductionData(p, m, kt, n, n - 6, c, None,
                                 1 if split else 2, tr)
        if p == 2:
            ybar = residue(B, 2)
        else:
            ybar = (-residue(A, p) * pow(2, -1, p)) % p
        if ybar:
            m, tr = _move(m, tr, t=ybar * p ** 2)
        assert valuation(m.a3, p) >= 3 and valuation(m.a6, p) >= 5

        if valuation(m.a4, p) == 3:
            kt = KodairaType("III*")
            return ReductionData(p, m, kt, n, n - 7, 2, None, 1, tr)
        if valuation(m.a6, p) == 5:
            kt = KodairaType("II*")
            return ReductionData(p, m, kt, n, n - 8, 1, None, 1, tr)

        # non-minimal: rescale and start over
        m, tr = _move(m, tr, u=p)
