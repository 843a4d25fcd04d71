"""Square classes in the completions of etale algebras Q[T]/f at a place.

An EtaleAlgebra of a separable monic integer polynomial f is built from
its factors h over Q (factor_over_Z), never by factoring f: Q_v[T]/f is the
product of the Q_v[T]/h.  At a finite p each h splits into local pieces
(poly.local_splitting_type); at the real place f splits into real roots
and complex pairs.  Each EtaleAlgebra fixes an F_2 basis of its group of
square classes, component by component, so that the class of an element
such as x - theta is one integer bitmask (SqVector.mask) and multiplying
classes is XOR.

At a finite place one routine, EtaleAlgebra.class_of_element, gives the
class of an element of a component, and it reads the class off the norm N
of the element to Q_p, the determinant of multiplication by it (from
poly._bareiss_det, the one Bareiss determinant, which also gives
discriminants): a valuation-parity bit v(N)/f mod 2 (f the residue degree),
then the unit bits:

  * unramified piece at odd p: the quadratic character of the unit part of
    N (arith.square_class), since a unit of an unramified extension of
    Q_p, p odd, is a square exactly when its norm is;
  * linear piece at p = 2: the bits of the unit part of N mod 8, as in
    arith.square_class;
  * unramified piece of residue degree f > 1 at p = 2: the arithmetic runs
    in the coordinate Z of the piece (theta = shift + 2^scale * Z), where
    the factor is irreducible mod 2, so that Z generates the ring of
    integers.  With t the root of that factor, a unit is a square times
    prod_j (1 + 2 t^j)^(a_j) * (1 + 4 s) for j < f; the f bits a_j, then
    the trace bit Tr(s mod 2).  The root mod 2 and the inverse mod 8 are
    powers: a^(2^(f-1)) in F_2[t]/h, and a^(#(O/8)^* - 1) mod (h, 8);
  * ramified piece: nothing (parity-only tracking, enough at odd residue
    characteristic, where every unit class is unramified).

At odd p a class is read from residues first, and the lifts of the pieces
(poly.LocalFactor) are read only when that cannot decide it.  For x - theta
with x not p-integral, the class is that of x, whose norm is x^deg; for
p-integral x the norm is g(x mod p) mod p, g the residue factor of the
piece, and when that is nonzero x - theta is a unit, with valuation bit 0
and the character of that residue as its unit bit.  A torsion-root entry
is a unit when the residue factors in it are coprime to the piece's, with
the character of its norm mod p.  Only when x mod p is a root of g, or the
residue factors meet, is the norm taken mod p^prec, which lifts the pieces
read (a simple piece is lifted on that first read, to the same p^prec).
At p = 2 every class is read from the lifts.

At the real place a component is a real root, with one sign bit, or a
complex pair, with none.  The Sturm chain of f, kept on the algebra,
counts the real roots and, at a rational x, the roots above x; the class
of x - T has the bits of those roots set.

The unramified subspace is spanned by a fixed set of coordinates, the top
unit bit of each unramified component (the algebra's `unramified` mask).
Spans, their unramified parts and relation spaces come from Gaussian
elimination on the masks (echelon, relations), as in Stoll, "Implementing
2-descent for Jacobians of hyperelliptic curves", Acta Arith. 98 (2001).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from .arith import residue, square_class, valuation
from .poly import (UnresolvedSplitting, _bareiss_det, _vp_bounded,
                   local_splitting_type, mp_divmod_monic, mp_mulmod,
                   mp_pow_mod, mp_shift)


# ---------------------------------------------------------------------------
# square classes as F_2 vectors


@dataclass(frozen=True)
class ClassBasis:
    """The F_2 coordinates of the square classes of one algebra.

    Component i owns the bits offsets[i] .. offsets[i+1] - 1 of a mask;
    kinds[i] is 'unramified' | 'ramified' | 'real' | 'complex'.
    """

    p: int
    kinds: tuple
    offsets: tuple
    unramified: int  # the coordinates that span the unramified subspace

    @property
    def width(self) -> int:
        return self.offsets[-1]


@dataclass(frozen=True)
class CompClass:
    """Square class of a nonzero element of one local component, decoded
    from its bits for display."""

    kind: str      # 'unramified' | 'ramified' | 'real' | 'complex'
    v_parity: int  # 0 at archimedean components
    unit: tuple
    # unit data: real -> (sign,); complex/ramified -> ()
    #            odd p unramified -> ('qr', bit)
    #            p = 2 unramified -> ('u2', (a_0, ..., a_{f-1}), trace bit)


@dataclass(frozen=True)
class SqVector:
    """A square class of an etale algebra: bit k of `mask` is its k-th
    coordinate in the algebra's basis."""

    mask: int
    basis: ClassBasis

    def __mul__(self, other: "SqVector") -> "SqVector":
        if self.basis != other.basis:
            raise ValueError("square classes of different algebras")
        return SqVector(self.mask ^ other.mask, self.basis)

    def is_trivial(self) -> bool:
        return self.mask == 0

    def is_unramified(self) -> bool:
        return self.mask & ~self.basis.unramified == 0

    @property
    def entries(self) -> tuple:
        """The class component by component, as CompClass records."""
        b = self.basis
        out = []
        for i, kind in enumerate(b.kinds):
            bits = [self.mask >> k & 1
                    for k in range(b.offsets[i], b.offsets[i + 1])]
            if kind == "real":
                out.append(CompClass(kind, 0, (-1 if bits[0] else 1,)))
            elif kind == "complex":
                out.append(CompClass(kind, 0, ()))
            elif kind == "ramified":
                out.append(CompClass(kind, bits[0], ()))
            elif b.p == 2:
                out.append(CompClass(kind, bits[0],
                                     ("u2", tuple(bits[1:-1]), bits[-1])))
            else:
                out.append(CompClass(kind, bits[0], ("qr", bits[1])))
        return tuple(out)


def echelon(masks) -> list[int]:
    """Reduced echelon basis of the F_2-span of integer bitmasks: the
    highest bit of each basis vector is set in no other one.  Ascending."""
    basis: list[int] = []
    for v in masks:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = [min(b, b ^ v) for b in basis]
            basis.append(v)
    return sorted(basis)


def relations(masks) -> list[int]:
    """Reduced echelon basis of the F_2-relations among the masks: the
    subsets S (bit i for masks[i]) whose masks XOR to zero."""
    masks = list(masks)
    n = len(masks)
    # row i is masks[i] above the tag bit i; the echelon rows with no bit
    # above the tags are a reduced echelon basis of the relations
    tagged = echelon(m << n | 1 << i for i, m in enumerate(masks))
    return [t for t in tagged if t >> n == 0]


def span_closure(vectors) -> set:
    """Every element of the F_2-span of the vectors (empty for none)."""
    vectors = list(vectors)
    if not vectors:
        return set()
    span = {0}
    for b in echelon(v.mask for v in vectors):
        span |= {m ^ b for m in span}
    return {SqVector(m, vectors[0].basis) for m in span}


def span_rank(vectors) -> int:
    """F_2-rank of the span of the vectors."""
    return len(echelon(v.mask for v in vectors))


def unramified_rank(vectors) -> int:
    """F_2-rank of span(vectors) ∩ the unramified subspace: the rank of the
    span less the rank of its projection onto the other coordinates."""
    vectors = list(vectors)
    if not vectors:
        return 0
    ramified = ~vectors[0].basis.unramified
    return span_rank(vectors) - len(echelon(v.mask & ramified
                                            for v in vectors))


def _sign_changes(values) -> int:
    """Sign changes along a sequence of rationals, zeros skipped."""
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


# ---------------------------------------------------------------------------
# the etale algebra at a place


class EtaleAlgebra:
    """Q_v[T]/f for separable monic integral f, with resolved components.

    Finite components follow poly.local_splitting_type order; at the real
    place the components are the real roots ascending, then complex pairs.
    """

    def __init__(self, factors, p: int):
        """The algebra of f, the product of `factors`, its irreducible
        factors over Q (factor_over_Z); p = 0 means the real place."""
        f = reduce(operator.mul, factors)
        if not f.is_monic() or not f.is_integral():
            raise ValueError("etale algebra needs a monic integer polynomial")
        self.f = f
        self.p = p
        if p == 0:
            # the Sturm chain: f, f', then the negated remainders
            self.chain = [f, f.deriv()]
            while self.chain[-1].degree >= 1:
                r = -(self.chain[-2] % self.chain[-1])
                if r.is_zero():
                    break
                self.chain.append(r)
            # sign changes at +oo and -oo, read off the leading numerators
            # (a denominator is positive)
            self.changes_at_top = _sign_changes(g.num[-1] for g in self.chain)
            at_bottom = _sign_changes((-1) ** g.degree * g.num[-1]
                                      for g in self.chain)
            self.n_real = at_bottom - self.changes_at_top
            self.n_complex = (f.degree - self.n_real) // 2
            self.n_comp = self.n_real + self.n_complex
            self.pieces = None
            # one sign bit per real root, no bits for a complex pair
            self.basis = ClassBasis(
                0, ("real",) * self.n_real + ("complex",) * self.n_complex,
                tuple(range(self.n_real)) + (self.n_real,) * (self.n_complex + 1),
                0)
            return
        self.pieces = local_splitting_type(factors, p)
        self.n_comp = len(self.pieces)
        kinds, offsets, unramified = [], [0], 0
        for piece in self.pieces:
            if piece.kind == "ramified":
                kinds.append("ramified")
                offsets.append(offsets[-1] + 1)
                continue
            width = 2 if p != 2 else piece.f + 2
            kinds.append("unramified")
            offsets.append(offsets[-1] + width)
            unramified |= 1 << (offsets[-1] - 1)
        self.basis = ClassBasis(p, tuple(kinds), tuple(offsets), unramified)

    # -- labels --------------------------------------------------------------

    def labels(self) -> list[str]:
        if self.p == 0:
            return ([f"alpha_{i + 1}" for i in range(self.n_real)]
                    + [f"pair_{i + 1}" for i in range(self.n_complex)])
        out = []
        for piece in self.pieces:
            if piece.degree == 1:
                if piece.root is not None:
                    out.append(f"T-({piece.root})")
                else:
                    out.append(f"T-({piece.root_mod(self.p)} mod {self.p})")
            else:
                out.append(f"deg{piece.degree}[e={piece.e},f={piece.f}]")
        return out

    # -- square classes --------------------------------------------------------

    def _class_poly(self, i: int, elem, w: int, prec: int) -> int:
        """The unit bits, unshifted, of the class of an element of valuation
        w of the unramified component i at p = 2, of residue degree > 1,
        given mod 2^prec in the coordinate Z of the piece."""
        if prec < w + 3:
            raise UnresolvedSplitting("dyadic unit class needs 3 digits")
        zlift = self.pieces[i].zlift
        f = len(zlift) - 1
        m = 2 ** (w + 3)
        # every coefficient in the basis 1, t, ..., t^(f-1) of the ring of
        # integers has valuation >= w
        u8 = [c >> w for c in mp_divmod_monic(elem, zlift, m)[1]]

        def mul8(a, b):
            return mp_mulmod(a, b, zlift, 8)

        def inv8(a):  # (O/8)^* has order 4^f (2^f - 1)
            return mp_pow_mod(a, 4 ** f * (2 ** f - 1) - 1, zlift, 8)

        x0 = mp_pow_mod(u8, 2 ** (f - 1), zlift, 2)  # the square root mod 2
        up = mul8(u8, inv8(mul8(x0, x0)))
        up = up + [0] * (f - len(up))
        # x0^2 = u mod 2, so up = 1 + 2 sum_j a_j t^j mod 4
        a = [(c - (j == 0)) // 2 % 2 for j, c in enumerate(up)]
        # divide out prod_j (1 + 2 t^j)^(a_j); 1 + 4s mod 8 remains
        fac = [1]
        for j, aj in enumerate(a):
            if aj:
                fac = mul8(fac, [3] if j == 0 else [1] + [0] * (j - 1) + [2])
        s = [c >> 2 & 1 for c in mul8(up, inv8(fac))]
        # Tr(s) = s + s^2 + ... + s^(2^(f-1)) is constant: add constant terms
        trace = 0
        for _ in range(f):
            trace ^= s[0] if s else 0
            s = mp_mulmod(s, s, zlift, 2)
        return sum(aj << (j + 1) for j, aj in enumerate(a)) | trace << (f + 1)

    def to_z(self, i: int, elem, m: int):
        """A polynomial in the root theta of piece i rewritten in the
        coordinate of the piece: elem(shift + p^scale * Z) mod m."""
        piece = self.pieces[i]
        if not piece.shift and not piece.scale:
            return [c % m for c in elem]
        return [c * pow(self.p, piece.scale * j, m) % m
                for j, c in enumerate(mp_shift(elem, piece.shift, m))]

    def class_of_element(self, i: int, elem, prec: int) -> int:
        """Mask of the class of a nonzero element of finite component i; the
        bits of the other components are zero.

        The element is an exact rational (at a linear piece) or a polynomial
        in the root of the factor of the piece in its coordinate Z (to_z
        rewrites a polynomial in theta), known mod p^prec.  The class is
        read off the norm N of the element: v(N)/f mod 2, then the unit
        bits of N, except at an unramified piece of residue degree > 1 at
        p = 2 (module docstring).
        """
        p, piece = self.p, self.pieces[i]
        if isinstance(elem, Fraction):
            if elem == 0:
                raise ZeroDivisionError("the element is zero")
            norm, v = elem, valuation(elem, p)
        else:
            norm = _norm_mod(piece.zlift, elem, p ** prec)
            v = _vp_bounded(norm, p, prec)
            # the unit part of N is needed mod p, mod 8 at 2
            if v is None or (p == 2 and piece.kind == "linear"
                             and prec - v < 3):
                raise UnresolvedSplitting(
                    f"the norm of an element at {p} needs more precision")
        bits = self._class_of_norm(i, norm, v)
        if p == 2 and piece.kind == "unramified":
            bits |= self._class_poly(i, elem, v // piece.f,
                                     prec) << self.basis.offsets[i]
        return bits

    def _class_of_norm(self, i: int, norm, v: int) -> int:
        """The bits of component i that the norm N of an element decides:
        the valuation bit v(N)/f mod 2, v = v(N), and the unit bits of N
        (square_class), which need N mod p times p^v at odd p, mod 8 times
        2^v at a linear piece at 2.  At an unramified piece of residue
        degree > 1 at p = 2 the unit bits need the element (_class_poly)."""
        piece = self.pieces[i]
        if v % piece.f:
            raise ArithmeticError("norm valuation vs residue degree")
        bits = v // piece.f % 2
        if piece.kind == "linear" or piece.kind == "unramified" and self.p != 2:
            bits |= square_class(norm, self.p) & ~1
        return bits << self.basis.offsets[i]

    def _residue_class_of_affine(self, i: int, x: Fraction):
        """Mask of the class of x - theta in component i at odd p, read
        from residues, or None when x mod p is a root of the residue factor
        g of the piece.  For x not p-integral, x - theta = x (1 - theta/x)
        is x times a unit = 1 mod p, a square: the class of x, whose norm is
        x^deg.  For p-integral x the norm of x - theta is lift(x) =
        g(x mod p) mod p; when that is nonzero, x - theta is a unit, a square
        exactly when its norm is a square mod p."""
        p, piece = self.p, self.pieces[i]
        if x.denominator % p == 0:
            norm = x ** piece.degree
            return self._class_of_norm(i, norm, valuation(norm, p))
        xbar = residue(x, p)
        n = 0
        for c in reversed(piece.residue):
            n = (n * xbar + c) % p
        return self._class_of_norm(i, n, 0) if n else None

    # -- images ----------------------------------------------------------------

    def image_of_affine(self, x: Fraction) -> SqVector:
        """(x - T) componentwise: the descent image of an affine point."""
        x = Fraction(x)
        if self.p == 0:
            values = [g.eval(x) for g in self.chain]
            if values[0] == 0:
                raise ZeroDivisionError("x coincides with a real root")
            # x - alpha < 0 for the k largest real roots alpha
            k = _sign_changes(values) - self.changes_at_top
            return SqVector((1 << self.n_real) - (1 << self.n_real - k),
                            self.basis)
        mask = 0
        for i, piece in enumerate(self.pieces):
            if piece.root is not None:
                mask |= self.class_of_element(i, x - piece.root, piece.prec)
                continue
            if self.p != 2:
                bits = self._residue_class_of_affine(i, x)
                if bits is not None:
                    mask |= bits
                    continue
            m = self.p ** piece.prec
            # x - theta times the square den^2, to clear the denominator
            elem = [x.numerator * x.denominator, -x.denominator ** 2]
            mask |= self.class_of_element(i, self.to_z(i, elem, m), piece.prec)
        return SqVector(mask, self.basis)

    def image_of_torsion_root(self, i: int) -> SqVector:
        """Descent image of the 2-torsion divisor supported on component i
        (the full Galois orbit of roots of that piece, a rational divisor).

        The entry at the home component is, up to squares, (-1)^(deg-1)
        times the product of the other factors evaluated at the generator;
        at a component j != i it is (-1)^(deg_i) g_i(theta_j).
        """
        if self.p == 0:
            if i >= self.n_real:
                raise ValueError("torsion root must be real at the real place")
            # alpha_i - alpha_j < 0 exactly for j > i; the home entry is
            # the product of the others
            above = (1 << self.n_real) - (2 << i)
            home = (self.n_real - 1 - i) % 2 << i
            return SqVector(above | home, self.basis)
        piece_i = self.pieces[i]
        if piece_i.kind == "ramified":
            raise ValueError("torsion root lives in a ramified component")
        mask = 0
        for j, piece_j in enumerate(self.pieces):
            factors = ([k for k in range(self.n_comp) if k != i] if j == i
                       else [i])
            sign = (piece_i.degree - (j == i)) % 2
            if self.p != 2:
                # the entry is a unit when the residue factors of the pieces
                # in it are coprime to that of piece j: its norm is then
                # nonzero mod p
                elem = _signed_product([self.pieces[k].residue
                                        for k in factors],
                                       piece_j.residue, self.p, sign)
                n = _norm_mod(piece_j.residue, elem, self.p)
                if n:
                    mask |= self._class_of_norm(j, n, 0)
                    continue
            prec = min(piece_i.prec, piece_j.prec)
            m = self.p ** prec
            elem = _signed_product([self.pieces[k].lift for k in factors],
                                   piece_j.lift, m, sign)
            mask |= self.class_of_element(j, self.to_z(j, elem, m), prec)
        return SqVector(mask, self.basis)


    def image_of_factor_roots(self, k: int) -> SqVector:
        """Descent image of the 2-torsion divisor of the roots of the k-th
        factor h of f over Q (of the factors the algebra was built from),
        at a finite place: the product of image_of_torsion_root over the
        pieces above h."""
        mask = 0
        for i, piece in enumerate(self.pieces):
            if piece.global_factor == k:
                mask ^= self.image_of_torsion_root(i).mask
        return SqVector(mask, self.basis)


def _signed_product(polys, h, m: int, sign: int):
    """(-1)^sign times the product of the polys, reduced mod (h, m)."""
    elem = [1]
    for g in polys:
        elem = mp_mulmod(elem, g, h, m)
    return [-c % m for c in elem] if sign else elem


def _norm_mod(h, a, m: int) -> int:
    """Norm (det of multiplication by a) in Z/m[t]/h for monic h, in
    [0, m): the integer determinant of the columns a t^j rem h, reduced
    mod m (a matrix and its transpose have one determinant)."""
    n = len(h) - 1
    h = [c % m for c in h]
    col = mp_divmod_monic(a, h, m)[1]
    cols = []
    for _ in range(n):
        cols.append(col + [0] * (n - len(col)))
        col = mp_divmod_monic([0] + col, h, m)[1]
    return _bareiss_det(cols) % m
