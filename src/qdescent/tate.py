"""Tate's algorithm over Q_p: minimal model, Kodaira type, component group.

The full branch structure is implemented (no c4/c6 shortcuts), since the
additive cases at p = 2 and p = 3 matter here.  Local descent reads the
Tamagawa number c_p, whether multiplicative reduction is split, and the
order of Frobenius on the component group (frobenius_order_on_components).
The minimal model is integral, not only p-integral, so that the local
objects built on it, such as its 2-division cubic, have integer
coefficients.  It starts at every prime from the model's one integral form,
integral_model, in whose coordinates it answers: the change of coordinates
to the minimal model is four ints, u a power of p.  It runs on five ints:
translations by integers, residues by % p, exact quotients such as a6/p^3,
and the exact rescale by p that opens each round while p^w divides every
a_w, so a start that is only a p-power scaling is trimmed before its first
round.  v(disc) is read once and tracked: a translation keeps it and the
rescale lowers it by 12.  A translation is `translate` (u = 1), shared with
WeierstrassModel.transform, and one rule, _fp_quadratic, decides every
quadratic mod p: the tangents at a node and steps IV, IV* and I_nu*, odd
and even k alike.  At odd p the singular point of a reduction lies above
the multiple root of the model's 2-division polynomial psi2 mod p.
WeierstrassModel.reduction runs it once per prime and keeps the result, so
that each (model, prime) has one ReductionData.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import legendre, valuation
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


@dataclass(frozen=True)
class ReductionData:
    """Tate's algorithm at p for one model: the minimal model, integral and
    minimal at p, its Kodaira type and Tamagawa number, and the integer
    change of coordinates `transform` to it from integral_model."""

    p: int
    minimal_model: WeierstrassModel
    kodaira: KodairaType
    v_disc_min: int
    conductor_exponent: int
    c_p: int
    split: object  # True / False / None (not applicable)
    frobenius_order_on_components: int
    transform: tuple  # ints (r, s, t, u = p^k), integral -> minimal model


WEIGHTS = (1, 2, 3, 4, 6)  # a_w scales by u^-w


def _show(coeffs) -> str:
    """A model's five coefficients as "[a1,a2,a3,a4,a6]"."""
    return "[" + ",".join(map(str, coeffs)) + "]"


def _exact(c: int, q: int) -> int:
    """c / q, which must be an integer."""
    x, rem = divmod(c, q)
    assert rem == 0, (c, q)
    return x


def _singular_point(a: tuple, p: int):
    """The singular point of the reduction mod p, as residues (x0, y0), of
    the model with the five ints a = (a1, a2, a3, a4, a6)."""
    a1, a2, a3, a4, a6 = (c % p for c in a)
    if p == 2:
        for x0 in range(2):
            for y0 in range(2):
                on = (y0 * y0 + a1 * x0 * y0 + a3 * y0
                      - (x0 ** 3 + a2 * x0 * x0 + a4 * x0 + a6)) % 2 == 0
                dx = (a1 * y0 + x0 * x0 + a4) % 2 == 0
                dy = (a1 * x0 + a3) % 2 == 0
                if on and dx and dy:
                    return x0, y0
        raise ArithmeticError(f"Tate at p = 2, singular point: no point of "
                              f"{_show(a)} mod 2 is singular")
    # p odd: x0 is the multiple root of psi2 = 4x^3 + b2 x^2 + 2 b4 x + b6
    # mod p (the multiple root is unique, hence F_p-rational).  factor_mod_p
    # reads it, for p*3 below ROOT_EVAL_BOUND, from one evaluation of psi2
    # at every residue and exact divisions by X - x0, with no gcd
    b2, b4, b6 = a1 * a1 + 4 * a2, 2 * a4 + a1 * a3, a3 * a3 + 4 * a6
    for g, mult in factor_mod_p([b6, 2 * b4, b2, 4], p):
        if mult >= 2 and len(g) == 2:
            x0 = -g[0] % p
            y0 = (-(a1 * x0 + a3) * pow(2, -1, p)) % p
            return x0, y0
    raise ArithmeticError(f"Tate at p = {p}, singular point: psi2 of "
                          f"{_show(a)} has no multiple root mod {p}")


def _fp_quadratic(a, b, c, p):
    """a Y^2 + b Y + c over F_p, for integers with p not dividing a:
    (split, None) when its roots are distinct, split telling whether they
    lie in F_p, and (None, root) with the double root as a residue."""
    disc = (b * b - 4 * a * c) % p
    if disc:
        # at p = 2, a and b are odd: Y^2 + Y + c splits iff c = 0
        return (c % 2 == 0 if p == 2 else legendre(disc, p) == 1), None
    if p == 2:
        return None, a * c % 2  # Y^2 = c / a = a c mod 2
    return None, -b * pow(2 * a, -1, p) % p


def translate(a: tuple, r=0, s=0, t=0) -> tuple:
    """The coefficients a = (a1, a2, a3, a4, a6) of a model moved by
    x = x' + r, y = y' + s x' + t (the change of coordinates with u = 1)."""
    a1, a2, a3, a4, a6 = a
    return (a1 + 2 * s,
            a2 - s * a1 + 3 * r - s * s,
            a3 + r * a1 + 2 * t,
            a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r
            - 2 * s * t,
            a6 + r * a4 + r * r * a2 + r ** 3 - t * a3 - t * t - r * t * a1)


def _move(a: tuple, tr: tuple, r=0, s=0, t=0):
    """The integral model a = (a1, a2, a3, a4, a6) moved by the integers
    x = x' + r, y = y' + s x' + t, and tr, the integer change of
    coordinates (r, s, t, u) from the start to a, composed with it.

    A translation keeps v(disc); only the rescale at the top of a round of
    _tate_integral changes it (by -12) and u (by a factor p)."""
    r0, s0, t0, u0 = tr
    return (translate(a, r, s, t),
            (r0 + u0 * u0 * r, s0 + u0 * s,
             t0 + u0 ** 3 * t + s0 * u0 * u0 * r, u0))


def tate_algorithm(m: WeierstrassModel, p: int) -> ReductionData:
    """Kodaira type, Tamagawa number and component-group data at p.

    It runs _tate_integral on m.integral_model, m.transform(u=1/d) on five
    ints, with v(disc) read off its integer discriminant, and returns what
    that finds: the integer change of coordinates (r, s, t, u), u = p^k,
    with m.integral_model.transform(r, s, t, u) == minimal_model, a model
    integral and minimal at p, on ints.  Unless the reduction is good (I0),
    the singular point of the reduced minimal model is (0, 0).
    """
    if m.disc == 0:
        raise ValueError("singular curve")
    start = m.integral_model
    a, transform, local = _tate_integral(
        start.ainvs(), valuation(start.disc, p), p)
    # an unmoved start is the minimal model, and keeps what it cached
    minimal = start if a == start.ainvs() else type(m)(*a)
    return ReductionData(p, minimal, *local, transform)


def _tate_integral(a: tuple, n: int, p: int):
    """Tate's algorithm on the integral model a = (a1, a2, a3, a4, a6) with
    v_p(disc) = n: the minimal model's five ints, the change of coordinates
    (r, s, t, u), integers with u a power of p, that takes a to it, and
    (kodaira, v_disc_min, conductor_exponent, c_p, split,
    frobenius_order_on_components).  The one rescale site opens each round:
    by u = p, exactly, while p^w | a_w for every w (a start that is only a
    p-power scaling, or the end of a cascade past II*)."""
    tr = (0, 0, 0, 1)
    while True:
        while all(c % p ** w == 0 for c, w in zip(a, WEIGHTS)):
            a = tuple(c // p ** w for c, w in zip(a, WEIGHTS))
            tr = (*tr[:3], tr[3] * p)
            n -= 12
        if n == 0:
            return a, tr, (KodairaType("I0"), 0, 0, 1, None, 1)
        x0, y0 = _singular_point(a, p)
        a, tr = _move(a, tr, r=x0, t=y0)
        a1, a2, a3, a4, a6 = a
        assert a3 % p == 0 and a4 % p == 0 and a6 % p == 0

        b2 = a1 * a1 + 4 * a2
        if b2 % p:
            # multiplicative: tangent directions T^2 + a1 T - a2, of
            # discriminant b2
            split, _ = _fp_quadratic(1, a1, -a2, p)
            nu = n
            c = nu if split else (2 if nu % 2 == 0 else 1)
            kt = KodairaType("I", nu)
            frob = 1 if (split or nu <= 2) else 2
            return a, tr, (kt, n, 1, c, split, frob)

        # additive reduction from here on
        if a6 % p ** 2:
            return a, tr, (KodairaType("II"), n, n, 1, None, 1)
        b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3
              - a4 * a4)
        if b8 % p ** 3:
            return a, tr, (KodairaType("III"), n, n - 1, 2, None, 1)
        b6 = a3 * a3 + 4 * a6
        if b6 % p ** 3:
            split, _ = _fp_quadratic(1, _exact(a3, p), -_exact(a6, p ** 2), p)
            c = 3 if split else 1
            return a, tr, (KodairaType("IV"), n, n - 2, c, None,
                           1 if split else 2)

        # step 6 normalization: p | a1, a2; p^2 | a3, a4; p^3 | a6
        if p == 2:
            if a2 % 2:
                a, tr = _move(a, tr, s=1)
            if a[4] % 8 == 4:  # v(a6) = 2: t = 2 makes 8 | a6
                a, tr = _move(a, tr, t=2)
        else:
            s = (-a1 * pow(2, -1, p)) % p
            if s:
                a, tr = _move(a, tr, s=s)
            t = (-a[2] * pow(2, -1, p ** 2)) % p ** 2
            if t:
                a, tr = _move(a, tr, t=t)
        a1, a2, a3, a4, a6 = a
        assert a1 % p == 0 and a2 % p == 0
        assert a3 % p ** 2 == 0 and a4 % p ** 2 == 0 and a6 % p ** 3 == 0

        # P(T) = T^3 + (a2/p) T^2 + (a4/p^2) T + (a6/p^3) over F_p
        fac = factor_mod_p([a6 // p ** 3, a4 // p ** 2, a2 // p, 1], p)
        mults = sorted(mlt for _, mlt in fac)
        if all(mlt == 1 for _, mlt in fac):
            # I0*: c = 1 + number of rational roots of P
            nroots = sum(1 for g, _ in fac if len(g) == 2)
            c = 1 + nroots
            frob = {4: 1, 2: 2, 1: 3}[c]
            return a, tr, (KodairaType("I*", 0), n, n - 4, c, None, frob)

        if mults[-1] == 2:
            # I_nu* subprocedure: double root of P translated to T = 0
            r0 = next(-g[0] % p for g, mlt in fac
                      if mlt == 2 and len(g) == 2)
            a, tr = _move(a, tr, r=p * r0)
            assert a[1] % p == 0 and a[1] % p ** 2 != 0 \
                and a[3] % p ** 3 == 0 and a[4] % p ** 4 == 0
            k = 1
            while True:
                # j = (k + 4) // 2; odd k: Y^2 + (a3/p^j) Y - a6/p^(k+3),
                # even k: (a2/p) X^2 + (a4/p^j) X + a6/p^(k+3); a double root
                # times p^((k + 3) // 2) is moved to 0 by t, resp. by r
                odd = k % 2 == 1
                qb = _exact(a[2 if odd else 3], p ** ((k + 4) // 2))
                qc = _exact(a[4], p ** (k + 3))
                split, root = (_fp_quadratic(1, qb, -qc, p) if odd else
                               _fp_quadratic(_exact(a[1], p), qb, qc, p))
                if root is None:
                    c = 4 if split else 2
                    return a, tr, (KodairaType("I*", k), n, n - 4 - k,
                                   c, None, 1 if split else 2)
                if root:
                    step = root * p ** ((k + 3) // 2)
                    a, tr = (_move(a, tr, t=step) if odd else
                             _move(a, tr, r=step))
                k += 1
                if k > n:
                    raise ArithmeticError(
                        f"Tate at p = {p}, I_nu* subprocedure: no simple "
                        f"root by k = {k} on the integral model {_show(a)}, "
                        f"v(disc) = {n}")
            # not reached

        # triple root: translate to T = 0
        r0 = next(-g[0] % p for g, mlt in fac if mlt == 3)
        a, tr = _move(a, tr, r=p * r0)
        assert a[1] % p ** 2 == 0 and a[3] % p ** 3 == 0 \
            and a[4] % p ** 4 == 0

        split, root = _fp_quadratic(1, _exact(a[2], p ** 2),
                                    -_exact(a[4], p ** 4), p)
        if root is None:
            c = 3 if split else 1
            return a, tr, (KodairaType("IV*"), n, n - 6, c, None,
                           1 if split else 2)
        if root:
            a, tr = _move(a, tr, t=root * p ** 2)
        assert a[2] % p ** 3 == 0 and a[4] % p ** 5 == 0

        if a[3] % p ** 4:  # v(a4) = 3
            return a, tr, (KodairaType("III*"), n, n - 7, 2, None, 1)
        if a[4] % p ** 6:  # v(a6) = 5
            return a, tr, (KodairaType("II*"), n, n - 8, 1, None, 1)
        # past II*: p^w divides every a_w, and the next round rescales
