"""Cohomological triviality of J[2]: the factorization-pattern test.

For Y^2 = f (f separable of odd degree d) the 2-torsion of the Jacobian is
cohomologically trivial for all subgroups of Gal(L/Q) if and only if, over
the fixed field W of a 2-Sylow subgroup G2, f splits as one linear factor
times (d-1)/#G2 irreducible factors of degree #G2 -- equivalently, G2 acts
on the roots with one fixed point and all other orbits regular.

Exactness here:
  * d = 3: always holds.
  * translated binomials, f(X - a_{d-1}/d) = X^d + a: always hold.  The
    translation keeps the splitting field, whose group lies in AGL(1, d)
    (or in (Z/d)* when f is reducible); there a 2-Sylow fixes one root and
    acts freely on the others.
  * reducible f with factors of degree <= 4: the orbit rule.  The image of
    a 2-Sylow of Gal(f) in Gal(h) is a 2-Sylow of Gal(h), so G2 has the
    orbits {1} on a linear factor h, {2} on a quadratic, {1,1,1} on a cubic
    with square discriminant and {1,2} on any other cubic, and {4} on a
    quartic.  f holds iff every orbit is a point (G2 = 1), or one root is
    fixed and every other orbit has size #G2.  Orbits of size 2 are
    regular iff the discriminants of the quadratics and non-square cubics
    span rank 1 in Q*/Q*^2 (G2 embeds in their characters); orbits of
    size 4 beside one fixed root mean 1+4, regular iff the quartic's group
    is C4, V4 or A4 (quartic_galois_group, from the linear factors over Q
    of the resolvent cubic).
  * irreducible d = 5, 7: f holds iff Gal(f) lies in A5 (d = 5, square
    discriminant) or in a conjugate of AGL(1, d), which is F20 or F42.  A
    Frobenius cycle shape outside AGL(1, d) proves that f fails; at the
    first prime where f splits completely, the p-adic resolvent of
    `agl_resolvent_holds` decides (Stauduhar, Math. Comp. 27 (1973)) on
    the linear factors of factor_mod_p there, Hensel-lifted.
  * reducible f with an irreducible factor of degree 5 or 6 beside other
    factors: the one unproved verdict, "fails", marked `sampled`.

Each polynomial's discriminant is computed once: disc(f) serves the
separability check, the square test of irreducible quintics (scaling f to
monic divides it by an even power of the leading coefficient) and the
choice of good primes, and disc(h) of a quadratic or cubic factor h serves
both its square test and its square class.  Frobenius cycle shapes come
from the one prime search over Q, the scan of poly.factor_and_scan over
the good primes 2, 3, 5, ... that disc(f) gives, and each good prime's
shape is computed once.  The scan proves f irreducible when the shapes'
common subset sums are {0, d}; otherwise the Zassenhaus pass that factors
f over Q runs on the shapes already read.  The AGL test replays those
shapes and continues the same scan.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import rational_sqrt, sqrt_exact
from .poly import (SCAN_BOUND, RatPoly, discriminant, factor_and_scan,
                   factor_mod_p, factor_over_Z, hensel_lift_factors,
                   monic_integral)

# Tschirnhaus maps t = r^2 + r + c tried, c = 1, 2, ..., before giving up.
_TSCHIRNHAUS_TRIES = 16


class GaloisUndecided(ArithmeticError):
    """No decisive prime or separating Tschirnhaus map within the caps."""


@dataclass(frozen=True)
class TfaeResult:
    holds: bool
    pattern: str
    certificate: str  # 'exact' | 'sampled'
    detail: str = ""

    def as_dict(self):
        return {"holds": self.holds, "pattern": self.pattern,
                "certificate": self.certificate, "detail": self.detail}


def _is_rational_square(q: Fraction) -> bool:
    return q > 0 and rational_sqrt(q) is not None


def quartic_galois_group(g: RatPoly) -> str:
    """Galois group of an irreducible quartic: S4, A4, D4, C4 or V4."""
    if g.degree != 4 or not g.is_monic():
        raise ValueError("monic irreducible quartic expected")
    # depress: x -> x - a3/4
    a = g.coeffs[3]
    dep = g.compose_linear(1, -a / 4)
    p_, q_, r_ = dep.coeffs[2], dep.coeffs[1], dep.coeffs[0]
    disc = discriminant(g)
    # cubic whose roots are the a^2 of factorizations into quadratics
    zcubic = RatPoly([-q_ * q_, p_ * p_ - 4 * r_, 2 * p_, 1])
    zroots = [-h.coeffs[0] for h in factor_over_Z(zcubic) if h.degree == 1]
    if len(zroots) == 0:
        return "A4" if _is_rational_square(disc) else "S4"
    if len(zroots) >= 2:
        return "V4"
    z0 = zroots[0]
    if z0 == 0:
        # biquadratic x^4 + p x^2 + r: z = 0 is a root only when q = 0, and
        # r is not a square, or z^2 + 2p z + p^2 - 4r, of discriminant 16r,
        # would have rational roots too
        return "C4" if _is_rational_square(r_ * (p_ * p_ - 4 * r_)) else "D4"
    return "C4" if _is_rational_square(z0 * disc) else "D4"


def _reducible_verdict(factors) -> TfaeResult:
    """The orbit rule of the module docstring, for reducible f."""
    shape = "+".join(str(h.degree) for h in factors)
    if any(h.degree > 4 for h in factors):
        return TfaeResult(False, "sampled", "sampled",
                          "reducible shape beyond the exact table")
    orbits, discs, sylow4 = [], [], 1
    for h in factors:
        if h.degree == 4:
            orbits.append(4)
            sylow4 = 8 if quartic_galois_group(h) in ("D4", "S4") else 4
        elif h.degree == 1:
            orbits.append(1)
        else:
            dsc = discriminant(h)
            if _is_rational_square(dsc):
                orbits += [1] * h.degree
            else:
                orbits += [1, 2] if h.degree == 3 else [2]
                discs.append(dsc.numerator * dsc.denominator)
    moved = {o for o in orbits if o > 1}
    sizes = "+".join(str(o) for o in sorted(orbits))
    if not moved:
        return TfaeResult(True, f"{shape}: trivial 2-Sylow (odd-order "
                          "group)", "exact")
    order = 0
    if orbits.count(1) == 1 and moved == {2}:
        order = 2 ** _f2_rank(discs)
    elif orbits.count(1) == 1 and moved == {4}:
        order = sylow4
    holds = order == max(moved)
    return TfaeResult(holds, f"{shape}: 2-Sylow orbits {sizes}"
                      + (f", order {order}" if order else ""), "exact")


def _f2_rank(vals) -> int:
    """Rank of the nonzero integers vals in Q*/Q*^2, with no factoring:
    of the 2^k subset products, 2^(k - rank) are squares."""
    squares = sum(sqrt_exact(math.prod(sub)) is not None
                  for n in range(len(vals) + 1)
                  for sub in itertools.combinations(vals, n))
    return len(vals) + 1 - squares.bit_length()


def _theta_terms(d: int):
    """theta = sum of x_i * x_j^2 * x_k over these (i, j, k): the triples
    (b, b + a, b + 2a) mod d with a != 0.  Its stabilizer in S_d is
    AGL(1, d) for d = 5 and 7."""
    return [(b, (b + a) % d, (b + 2 * a) % d)
            for a in range(1, d) for b in range(d)]


def _root_ceil(a: int, k: int) -> int:
    """The least integer r >= 0 with r^k >= a."""
    lo, hi = 0, 1 << -(-a.bit_length() // k)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k >= a:
            hi = mid
        else:
            lo = mid + 1
    return lo


def agl_resolvent_holds(f: RatPoly, p: int) -> bool:
    """Does Gal(f) lie in a conjugate of AGL(1, d)?  Exact.

    f is monic and integral of prime degree d in {5, 7}, and factor_mod_p
    gives it d simple linear factors mod p (ValueError otherwise), which
    Hensel lifting takes to its d roots in Z_p.  AGL(1, d), the stabilizer of
    theta (`_theta_terms`), is sharply 2-transitive, so the n = (d-2)!
    orderings of the roots that keep the first two in place meet each of
    its cosets once.  On the Tschirnhaus images t = r^2 + r + c, bounded
    by T = B^2 + B + c where B is Fujiwara's root bound, the n theta values
    are algebraic integers of size at most M = d(d-1)T^4, the roots of an
    integral resolvent R.  Lift the roots to Z/p^N with p^N > (2M)^n.  If
    the values are distinct mod p^N, R is squarefree, and a centred value
    v with |v| <= M makes R(v) an integer of size at most (2M)^n that p^N
    divides, so R(v) = 0: v is a rational value, and Gal(f) fixes its
    coset.  Conversely a group inside a conjugate of AGL(1, d) fixes one
    value, an integer of size at most M.  Values that collide mod p^N send
    the search to the next c.
    """
    d = f.degree
    a = list(f.num)
    linear = [g for g, mult in factor_mod_p(a, p)
              if len(g) == 2 and mult == 1]
    if len(linear) != d:
        raise ValueError(f"f does not split into distinct factors mod {p}")
    B = 2 * max([_root_ceil((abs(a[0]) + 1) // 2, d)]
                + [_root_ceil(abs(a[d - k]), k) for k in range(1, d)])
    terms = _theta_terms(d)
    orderings = [(0, 1) + rest for rest in itertools.permutations(range(2, d))]
    n = math.factorial(d - 2)
    for c in range(1, _TSCHIRNHAUS_TRIES + 1):
        bound = d * (d - 1) * (B * B + B + c) ** 4
        N = n * (2 * bound).bit_length() // (p.bit_length() - 1) + 1
        mod = p ** N
        lifted = hensel_lift_factors(a, linear, p, N)
        t = [(r * r + r + c) % mod for r in (-g[0] % mod for g in lifted)]
        sq = [x * x % mod for x in t]
        vals = {sum(t[o[i]] * sq[o[j]] * t[o[k]] for i, j, k in terms) % mod
                for o in orderings}
        if len(vals) == n:
            return any(min(v, mod - v) <= bound for v in vals)
    raise GaloisUndecided(f"no separating Tschirnhaus map for {f} at {p}")


def _agl_verdict(f: RatPoly, shapes) -> TfaeResult:
    """Irreducible f of degree 5 or 7 outside A5, and its (p, shape) scan
    from factor_and_scan: the verdict of the first decisive prime."""
    d = f.degree
    name = {5: "quintic", 7: "septic"}[d]
    # x -> ux + b: the d-cycle, and (1, k, ..., k) for each k | d - 1
    agl = {(d,)} | {(1,) + (k,) * ((d - 1) // k)
                    for k in range(1, d) if (d - 1) % k == 0}
    for p, sh in shapes:
        if sh not in agl:
            return TfaeResult(False, f"irreducible {name}: group outside "
                              f"AGL(1,{d}) (shape {sh} mod {p})", "exact")
        if len(sh) == d:
            holds = agl_resolvent_holds(monic_integral(f.monic())[0], p)
            return TfaeResult(holds, f"irreducible {name}: group "
                              f"{'inside' if holds else 'outside'} AGL(1,{d}) "
                              f"(resolvent at {p})", "exact")
    raise GaloisUndecided(f"no decisive prime below {SCAN_BOUND} for {f}")


def _is_translated_binomial(f: RatPoly) -> bool:
    """Is f(X - c) = X^d + a, for the monic f of degree d and c = a_{d-1}/d?
    Exactly when f = (X + c)^d + a: f_k = C(d, k) c^(d-k) for 1 <= k <= d-2,
    read until the first coefficient that differs, with no Taylor shift.
    With f_k = n_k / D, that is n_k (d D)^(d-k) = C(d, k) n_{d-1}^(d-k) D."""
    d, n, D = f.degree, f.num, f.den
    return all(n[k] * (d * D) ** (d - k)
               == math.comb(d, k) * n[d - 1] ** (d - k) * D
               for k in range(d - 2, 0, -1))


def tfae_test(f: RatPoly) -> TfaeResult:
    """Does the triviality condition hold for Y^2 = f?  See module docs."""
    d = f.degree
    if d > 7 or d % 2 == 0 or d < 3:
        raise ValueError("degree must be odd, between 3 and 7")
    # disc(f.monic()) = disc(f) / lead^(2d-2): one square class, so this
    # one value serves separability, the square test of quintics and the
    # good primes of the scan
    disc = discriminant(f)
    if disc == 0:
        raise ValueError("f must be separable")
    if d == 3:
        return TfaeResult(True, "cubic", "exact",
                          "holds for every separable cubic")
    if _is_translated_binomial(f.monic()):
        return TfaeResult(True, f"binomial X^{d}+a up to translation",
                          "exact", "binomial: metacyclic splitting field")
    # one scan of Frobenius shapes proves f irreducible or, failing that,
    # feeds the one Zassenhaus pass; the AGL test replays it
    factors, shapes = factor_and_scan(f, disc)
    if len(factors) > 1:
        return _reducible_verdict(factors)
    if d == 5 and _is_rational_square(disc):
        return TfaeResult(True, "irreducible quintic, square "
                          "discriminant (group within A5)", "exact")
    return _agl_verdict(f, shapes)
