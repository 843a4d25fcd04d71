"""Odd-degree hyperelliptic descent: the X - T map and its local images.

A curve Y^2 = f with f monic separable of odd degree d has Jacobian J of
dimension g = (d-1)/2.  J(Q_v)/2J(Q_v) embeds into the kernel of the norm
from (Q_v[T]/f)^* / squares, by D = sum n_i R_i  |->  prod (X(R_i) - T)^n_i.
An image is a square class of the algebra, an int whose bits are its
coordinates over the local etale components (localfields), so the image
of a sum is the XOR of the images of its parts; ranks of spans and their
unramified parts give local Selmer and intersection data.  The curve keeps
its factors over Q (HyperellipticCurve.factors, found once), and its local
object at a place p (0 for the real place) is EtaleAlgebra(c.factors, p),
built once per place: it carries f, p and the local components, and the
maps and ranks below read everything from it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import factor_integer, rational_sqrt
from .localfields import EtaleAlgebra, echelon, relations, unramified_rank
from .poly import RatPoly, discriminant, factor_and_scan


@dataclass(frozen=True)
class HyperellipticCurve:
    """y^2 = f for f monic, integral, separable, of degree 3, 5 or 7.
    The curve keeps what is computed once per curve: its discriminant, the
    factors of f over Q and disc_primes, the primes of the discriminant."""

    f: RatPoly

    def __post_init__(self):
        if not self.f.is_monic() or not self.f.is_integral():
            raise ValueError("model must be monic and integral")
        if self.f.degree not in (3, 5, 7):
            raise ValueError("degree must be odd, from 3 to 7")
        if self.discriminant == 0:
            raise ValueError("polynomial must be separable")

    @cached_property
    def discriminant(self) -> Fraction:
        return discriminant(self.f)

    @cached_property
    def factors(self) -> tuple:
        """The monic irreducible factors of f over Q, from the discriminant
        the curve keeps (poly.factor_and_scan)."""
        return tuple(factor_and_scan(self.f, self.discriminant)[0])

    @cached_property
    def disc_primes(self) -> tuple:
        """The primes dividing the discriminant of f, ascending: the bad
        primes of the ledger."""
        return tuple(p for p, _ in
                     factor_integer(self.discriminant.numerator).factors)

    @property
    def genus(self) -> int:
        return (self.f.degree - 1) // 2


# descent points: ("rational", x, y) | ("alpha", i) | ("sum", parts)


def parse_descent_point(line: str):
    """One line of points: "x" (f(x) a rational square), "(x,y)", "alpha:i"
    or "sum: P + Q + ...", a sum of such points; None for a blank line or a
    "#" comment.  Any other input raises a ValueError naming it.  alpha:i
    is local: the root of the i-th piece of f at the place where the point
    is imaged (the i-th real root at the real place), so image_table,
    local_intersection_rank and the halving oracle read it, and
    independence_rank refuses it."""
    text = line.strip()
    if not text or text.startswith("#"):
        return None
    try:
        return _descent_point(text)
    except ZeroDivisionError:
        raise ValueError(f"cannot parse point {line!r}: a zero denominator"
                         ) from None
    except ValueError as exc:
        raise ValueError(f"cannot parse point {line!r}: {exc}") from None


def _descent_point(text: str):
    if text.startswith("sum:"):
        return ("sum", tuple(_descent_point(t.strip())
                             for t in text[4:].split("+")))
    if text.startswith("alpha:"):
        return ("alpha", int(text[6:]))
    m = re.fullmatch(r"\(([^,]+),([^)]+)\)", text)
    if m:
        return ("rational", Fraction(m.group(1)), Fraction(m.group(2)))
    return ("rational", Fraction(text), None)


def point_label(pt) -> str:
    kind = pt[0]
    if kind == "rational":
        return f"({pt[1]})"
    if kind == "alpha":
        return f"(alpha_{pt[1]})"
    return "+".join(point_label(q) for q in pt[1])


def _uses_alpha(pt) -> bool:
    return pt[0] == "alpha" or pt[0] == "sum" and any(map(_uses_alpha, pt[1]))


def xt_image(alg: EtaleAlgebra, D) -> int:
    """Square class (mask) of the divisor class D of y^2 = alg.f in the
    algebra alg at its place."""
    kind = D[0]
    if kind == "rational":
        x = Fraction(D[1])
        fx = alg.f.eval(x)
        if fx == 0:
            raise ValueError("support meets y = 0: use the torsion rule")
        y = D[2]
        if y is not None and y * y != fx:
            raise ValueError("point not on the curve")
        if y is None and rational_sqrt(fx) is None:
            raise ValueError(f"f({x}) is not a rational square")
        return alg.image_of_affine(x)
    if kind == "alpha":
        i = D[1] - 1
        if alg.p == 0:
            if not 0 <= i < alg.n_real:
                raise ValueError("torsion index outside the real roots")
        elif not 0 <= i < alg.n_comp:
            raise ValueError("torsion index outside the local components")
        return alg.image_of_torsion_root(i)
    if kind == "sum":
        out = 0
        for part in D[1]:
            out ^= xt_image(alg, part)
        return out
    raise ValueError(f"unknown descent point {D!r}")


# ---------------------------------------------------------------------------
# rendering


def image_table(c: HyperellipticCurve, points, p: int):
    """Rows of square classes with the paper's conventions, at the place p
    (0 for the real place).

    Returns (labels, rows) with rows = (point label, mask, symbols), the
    symbols of ClassBasis.symbols: at odd p, 'n' denotes a fixed quadratic
    non-residue and 'pi' a prime element; comparisons are up to
    square-class equality.
    """
    alg = EtaleAlgebra(c.factors, p)
    rows = []
    for pt in points:
        mask = xt_image(alg, pt)
        rows.append((point_label(pt), mask, alg.basis.symbols(mask)))
    return alg.labels(), rows


# ---------------------------------------------------------------------------
# ranks


def local_selmer_rank_hyper(alg: EtaleAlgebra) -> int:
    """F_2-rank of J(Q_v)/2J(Q_v) for the Jacobian of y^2 = alg.f, whose
    genus is (deg f - 1)/2, at the place of alg."""
    genus = (alg.f.degree - 1) // 2
    if alg.p == 0:
        return alg.n_real + alg.n_complex - 1 - genus
    return (alg.n_comp - 1) + (genus if alg.p == 2 else 0)


def local_torsion_rank(alg: EtaleAlgebra) -> int:
    """F_2-rank of J(Q_v)[2] (the local C-group order at finite places)."""
    return alg.n_comp - 1


def local_intersection_rank(alg: EtaleAlgebra, points):
    """(rank of span(images) ∩ unramified subspace, completeness flag).

    When the span of the images of the points in alg, the algebra of the
    curve at a finite place, fills J(Q_v)/2J(Q_v) the value is exactly the
    rank of the local intersection group; otherwise it is a lower bound.
    """
    if alg.p == 0:
        raise ValueError("intersection rank is a finite-place computation")
    masks = [xt_image(alg, pt) for pt in points]
    complete = len(echelon(masks)) == local_selmer_rank_hyper(alg)
    return unramified_rank(masks, alg.basis.unramified), complete


def independence_rank(c: HyperellipticCurve, points, primes):
    """(lower bound for the rank of the subgroup generated in J(Q)/2J(Q),
    relation analysis per prime).

    A relation is a set of points, as a bitmask (bit i for points[i]),
    whose images multiply to the trivial class.  At each prime the
    relations are the kernel of the image rows, by Gaussian elimination.
    A relation holding at every prime might be a genuine one; these common
    relations are the kernel of the rows stacked across the primes, and
    the bound is #points - dim(common relations).  Relation spaces are
    given as reduced echelon bases (localfields.relations).

    The same stacking, with the generators of J(Q)[2] added to the points,
    bounds the rank of the subgroup the points and the rational 2-torsion
    generate: analysis["rank_with_torsion"].  The generators are D_h, the
    divisor of the roots of h, for every factor h of f over Q but the last
    (the D_h of all factors sum to the divisor of y).

    ("alpha", i) is local (parse_descent_point), so a point that uses it
    raises a ValueError naming it.
    """
    for pt in filter(_uses_alpha, points):
        raise ValueError(f"point {point_label(pt)} names a local root "
                         "(alpha:i), which no global bound can use")
    n = len(points)
    t = len(c.factors) - 1
    analysis = {}
    stacked = [0] * (n + t)
    for p in primes:
        alg = EtaleAlgebra(c.factors, p)
        masks = [xt_image(alg, pt) for pt in points]
        analysis[p] = {"relations": relations(masks)}
        masks += [alg.image_of_factor_roots(k) for k in range(t)]
        stacked = [s << alg.basis.width | w for s, w in zip(stacked, masks)]
    common = relations(stacked[:n])
    bound = n - len(common)
    analysis["common_relations"] = common
    analysis["rank_with_torsion"] = n + t - len(relations(stacked))
    return bound, analysis
