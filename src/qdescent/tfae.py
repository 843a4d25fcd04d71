"""Cohomological triviality of J[2]: the factorization-pattern test.

For Y^2 = f (f separable of odd degree d) the 2-torsion of the Jacobian is
cohomologically trivial for all subgroups of Gal(L/Q) if and only if, over
the fixed field W of a 2-Sylow subgroup G2, f splits as one linear factor
times (d-1)/#G2 irreducible factors of degree #G2 -- equivalently, G2 acts
on the roots with one fixed point and all other orbits regular.

Exactness here:
  * d = 3: always holds.
  * binomials X^d + a (d = 5, 7): always hold (the splitting field contains
    the roots' ratios, which are roots of unity of odd conductor over the
    relevant subfields).
  * d = 5 irreducible: square discriminant certifies {C5, D5, A5} (holds);
    a mod-p factorization shape outside F20 certifies S5 (fails); otherwise
    a numeric-but-integrally-verified sextic resolvent decides F20 vs S5.
  * reducible shapes are decided by exact small-degree Galois theory
    (quadratic discriminants, cubic discriminants, quartic resolvents).
  * anything else is answered by sampling and marked as such.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .arith import factor_integer, is_prime, rational_sqrt, squarefree_part
from .poly import (RatPoly, discriminant, factor_mod_p, factor_over_Z,
                   fp_poly)

_SAMPLE_BOUND = 600


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


def _cycle_shape(f: RatPoly, p: int):
    try:
        fac = factor_mod_p(fp_poly(f, p))
    except ValueError:
        return None
    if any(mult > 1 for _, mult in fac):
        return None
    return tuple(sorted(g.degree for g, _ in fac))


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
    zroots = [z for z in _rational_poly_roots(zcubic)]
    if len(zroots) == 0:
        return "A4" if _is_rational_square(disc) else "S4"
    if len(zroots) >= 2:
        return "V4"
    z0 = zroots[0]
    if z0 == 0:
        # biquadratic x^4 + p x^2 + r
        if q_ != 0:
            # z = 0 is a root only when q = 0
            return "D4"
        if _is_rational_square(r_):
            return "V4"
        return "C4" if _is_rational_square(r_ * (p_ * p_ - 4 * r_)) else "D4"
    return "C4" if _is_rational_square(z0 * disc) else "D4"


def _rational_poly_roots(g: RatPoly):
    out = []
    for fac in factor_over_Z(g):
        if fac.degree == 1:
            out.append(-fac.coeffs[0])
    return out


def _odd_order_factor(h: RatPoly):
    """True/False/None: does the splitting field of h have odd degree?"""
    d = h.degree
    if d == 1:
        return True
    if d == 2:
        return False
    if d == 3:
        return _is_rational_square(discriminant(h))
    if d == 4:
        return False
    return None  # degree 5+ factors: not decided here


def _reducible_verdict(f: RatPoly, factors) -> TfaeResult | None:
    """Exact orbit analysis for reducible f (d = 5 shapes and easy cases)."""
    degs = sorted(h.degree for h in factors)
    shape = "+".join(str(d) for d in degs)
    n_lin = degs.count(1)
    # G2 trivial: every factor has an odd-order splitting field
    odd = [_odd_order_factor(h) for h in factors]
    if all(o is True for o in odd):
        return TfaeResult(True, f"{shape}: trivial 2-Sylow (odd-order group)",
                          "exact")
    if None in odd:
        return None  # leave to the caller
    if all(h.degree <= 2 for h in factors):
        quads = [h for h in factors if h.degree == 2]
        discs = set()
        for h in quads:
            dsc = discriminant(h)
            discs.add(squarefree_part(dsc.numerator * dsc.denominator))
        k = _f2_rank_of_squarefree(discs)
        if k == 0:
            return TfaeResult(True, f"{shape}: splits over Q", "exact")
        if k == 1 and n_lin == 1:
            return TfaeResult(True, f"{shape}: one linear + quadratics over "
                              "a single quadratic field", "exact")
        return TfaeResult(False, f"{shape}: 2-Sylow of order {2 ** k} with "
                          f"{n_lin} fixed roots", "exact")
    cubics = [h for h in factors if h.degree == 3]
    quartics = [h for h in factors if h.degree == 4]
    quads = [h for h in factors if h.degree == 2]
    if len(cubics) == 1 and not quartics:
        dc = discriminant(cubics[0])
        if _is_rational_square(dc):
            # S3 impossible here; G2 comes from the quadratic factors
            if not quads:
                return TfaeResult(True, f"{shape}: odd-order group", "exact")
            # C3-cubic x quadratic(s): the cubic roots are all G2-fixed
            return TfaeResult(False, f"{shape}: cyclic cubic leaves three "
                              "fixed roots under the 2-Sylow", "exact")
        if not quads:
            # linear factors + S3-cubic: transposition fixes n_lin + 1 roots
            return TfaeResult(False, f"{shape}: S3 cubic with {n_lin} "
                              "rational roots leaves several fixed points",
                              "exact")
        if n_lin == 0 and all(_is_rational_square(dc * discriminant(h))
                              for h in quads):
            return TfaeResult(True, f"{shape}: quadratics inside the S3 "
                              "cubic field (fiber product)", "exact")
        return TfaeResult(False, f"{shape}: fixed rational roots or an "
                          "independent quadratic beside the S3 cubic", "exact")
    if len(quartics) == 1 and n_lin == len(factors) - 1:
        grp = quartic_galois_group(quartics[0])
        if n_lin != 1:
            return TfaeResult(False, f"{shape}: {n_lin} fixed rational roots",
                              "exact")
        if grp in ("C4", "V4", "A4"):
            return TfaeResult(True, f"1+4: quartic with group {grp} "
                              "(regular 2-Sylow orbit)", "exact")
        return TfaeResult(False, f"1+4: quartic with group {grp} "
                          "(2-Sylow of order 8)", "exact")
    return None


def _f2_rank_of_squarefree(vals) -> int:
    """Rank of squarefree integers in Q*/Q*^2 (prime-support F_2 algebra).

    Each value becomes the set of primes in its support (with -1 for the
    sign); reduction is by symmetric difference against pivots.
    """
    basis = []  # frozensets with pairwise-distinct maxima
    for v in vals:
        if v == 1:
            continue
        vec = {-1} if v < 0 else set()
        for pr, e in factor_integer(v).factors:
            if e % 2:
                vec.add(pr)
        cur = frozenset(vec)
        reduced = True
        while reduced and cur:
            reduced = False
            for b in basis:
                if max(cur) == max(b):
                    cur = cur ^ b
                    reduced = True
                    break
        if cur:
            basis.append(cur)
    return len(basis)


def _quintic_resolvent_holds(f: RatPoly):
    """Numeric F20-resolvent with integral verification; None on failure."""
    try:
        import mpmath
    except ImportError:
        return None
    # integral monic input expected
    if not f.is_integral():
        return None
    coeffs_prev = None
    for dps in (60, 120, 240):
        mpmath.mp.dps = dps
        roots = mpmath.polyroots([int(c) for c in reversed(f.coeffs)],
                                 maxsteps=200, extraprec=dps * 4)
        deltas_sq = []
        seen_cycles = set()
        for perm in itertools.permutations(range(1, 5)):
            cyc = (0,) + perm
            edges = frozenset(frozenset((cyc[i], cyc[(i + 1) % 5]))
                              for i in range(5))
            if edges in seen_cycles:
                continue
            seen_cycles.add(edges)
            pent = sum(roots[a] * roots[b] for e in edges for a, b in [tuple(e)])
            all_pairs = sum(roots[a] * roots[b]
                            for a in range(5) for b in range(a + 1, 5))
            gram = pent - (all_pairs - pent)
            deltas_sq.append(gram * gram)
        # the 12 cycles give 6 values of delta^2 (cycle and complement agree)
        vals = []
        for v in deltas_sq:
            if not any(abs(v - w) < mpmath.mpf(10) ** (-dps // 3)
                       for w in vals):
                vals.append(v)
        if len(vals) != 6:
            return None
        poly = [mpmath.mpf(1)]
        for v in vals:
            poly = [a for a in _poly_mul_num(poly, [-v, mpmath.mpf(1)])]
        ints = [int(mpmath.nint(c.real if hasattr(c, "real") else c))
                for c in poly]
        errs = [abs(c - i) for c, i in zip(poly, ints)]
        if max(errs) < mpmath.mpf(10) ** (-8):
            if coeffs_prev == ints:
                # verified at two precisions: test integer roots of the
                # monic sextic resolvent
                const = ints[0]
                if const == 0:
                    # R6(0) = prod delta^2 rounded to 0: a nonzero algebraic
                    # integer cannot have norm below 1, so some delta^2 is
                    # exactly 0 and y = 0 is the rational root
                    return True
                divisors = [1]
                for pr, e in factor_integer(abs(const)).factors:
                    divisors = [dd * pr ** i for dd in divisors
                                for i in range(e + 1)]
                rp = RatPoly(ints)
                for dcand in divisors:
                    for s in (1, -1):
                        if rp.eval(s * dcand) == 0:
                            return True
                return False
            coeffs_prev = ints
    return None


def _poly_mul_num(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def tfae_test(f: RatPoly) -> TfaeResult:
    """Does the triviality condition hold for Y^2 = f?  See module docs."""
    d = f.degree
    if d > 7 or d % 2 == 0 or d < 3:
        raise ValueError("degree must be odd, between 3 and 7")
    if discriminant(f) == 0:
        raise ValueError("f must be separable")
    f = f.monic()
    if d == 3:
        return TfaeResult(True, "cubic", "exact",
                          "holds for every separable cubic")
    if sum(1 for c in f.coeffs[1:-1] if c != 0) == 0 and f.coeffs[0] != 0:
        return TfaeResult(True, f"binomial X^{d}+a", "exact",
                          "binomial: metacyclic splitting field")
    factors = factor_over_Z(f)
    if len(factors) > 1:
        got = _reducible_verdict(f, factors)
        if got is not None:
            return got
        return _sampled_verdict(f, "reducible shape beyond the exact table")
    # irreducible
    disc = discriminant(f)
    if d == 5:
        if _is_rational_square(disc):
            return TfaeResult(True, "irreducible quintic, square "
                              "discriminant (group within A5)", "exact")
        shapes_f20 = {(1, 1, 1, 1, 1), (1, 2, 2), (1, 4), (5,)}
        p = 2
        while p < _SAMPLE_BOUND:
            if is_prime(p):
                sh = _cycle_shape(f, p)
                if sh is not None and sh not in shapes_f20:
                    return TfaeResult(False, "irreducible quintic: S5 "
                                      f"(witness shape {sh} mod {p})", "exact")
            p += 1
        res = _quintic_resolvent_holds(f)
        if res is True:
            return TfaeResult(True, "irreducible quintic: solvable (F20 "
                              "resolvent root)", "exact")
        if res is False:
            return TfaeResult(False, "irreducible quintic: S5 (resolvent "
                              "has no rational root)", "exact")
        return _sampled_verdict(f, "no S5 witness found; resolvent "
                                "inconclusive", default=True)
    # d == 7
    shapes_f42 = {(1, 1, 1, 1, 1, 1, 1), (1, 2, 2, 2), (1, 3, 3), (1, 6), (7,)}
    p = 2
    while p < _SAMPLE_BOUND:
        if is_prime(p):
            sh = _cycle_shape(f, p)
            if sh is not None and sh not in shapes_f42:
                return TfaeResult(False, "irreducible septic: group not "
                                  f"solvable-metacyclic (shape {sh} mod {p})",
                                  "exact")
        p += 1
    return _sampled_verdict(f, "no witness outside F42 shapes", default=True)


def _sampled_verdict(f: RatPoly, why: str, default: bool = None) -> TfaeResult:
    if default is None:
        # crude default: trust the orbit heuristics conservatively
        default = False
    return TfaeResult(default, "sampled", "sampled", why)
