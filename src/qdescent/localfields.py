"""Square classes in the completions of etale algebras Q[T]/f at a place.

A separable monic integer polynomial f splits at a finite p into local
pieces (poly.local_splitting_type); at the real place into real roots and
complex pairs.  Each EtaleAlgebra fixes an F_2 basis of its group of
square classes, component by component, so that the class of an element
such as x - theta is one integer bitmask (SqVector.mask) and multiplying
classes is XOR.  The bits of a component:

  * finite place: a valuation-parity bit, then
      - odd p, unramified piece of residue degree f: the quadratic
        character of the unit part.  Both bits are read from the norm N of
        the element: (v(N)/f mod 2, Legendre symbol of the unit part of N),
        since a unit of an unramified extension of Q_p, p odd, is a square
        exactly when its norm is.  No residue-field arithmetic is needed;
      - p = 2, unramified piece of residue degree f: the arithmetic runs in
        the coordinate Z of the piece (theta = shift + 2^scale * Z), where
        the factor is irreducible mod 2, so that Z generates the ring of
        integers.  With t the root of that factor, a unit is a square times
        prod_j (1 + 2 t^j)^(a_j) * (1 + 4 s) for j < f; the f bits a_j,
        then the trace bit Tr(s mod 2);
      - ramified piece: nothing (parity-only tracking, enough at odd
        residue characteristic, where every unit class is unramified);
  * real place: a sign bit per real root; complex pairs carry nothing.

The unramified subspace is spanned by a fixed set of coordinates, the
quadratic-character bits at odd p and the trace bits at 2 (the algebra's
`unramified` mask).  Spans, their unramified parts and relation spaces come
from Gaussian elimination on the masks (echelon, relations), as in Stoll,
"Implementing 2-descent for Jacobians of hyperelliptic curves", Acta
Arith. 98 (2001).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import INFINITY, is_padic_square, legendre, valuation
from .poly import (RatPoly, UnresolvedSplitting, local_splitting_type,
                   mp_divmod, mp_mul, mp_shift, mp_sub, mp_scal, mp_trim)


class ResidueField:
    """F_2[t]/h for h irreducible mod 2."""

    def __init__(self, hbar):
        self.h = [c % 2 for c in hbar]
        self.f = len(self.h) - 1

    def mul(self, a, b):
        return mp_divmod(mp_mul(list(a), list(b), 2), self.h, 2)[1]

    def sqrt(self, a):
        """The square root a^(2^(f-1)) of a."""
        a = mp_divmod(list(a), self.h, 2)[1]
        for _ in range(self.f - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a) -> int:
        s = [0] * self.f
        x = mp_divmod(list(a), self.h, 2)[1]
        for _ in range(self.f):
            xx = x + [0] * (self.f - len(x))
            s = [(u + v) % 2 for u, v in zip(s, xx)]
            x = self.mul(x, x)
        return s[0] if s else 0


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

    comp: int
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
                out.append(CompClass(i, kind, 0, (-1 if bits[0] else 1,)))
            elif kind == "complex":
                out.append(CompClass(i, kind, 0, ()))
            elif kind == "ramified":
                out.append(CompClass(i, kind, bits[0], ()))
            elif b.p == 2:
                out.append(CompClass(i, kind, bits[0],
                                     ("u2", tuple(bits[1:-1]), bits[-1])))
            else:
                out.append(CompClass(i, kind, bits[0], ("qr", bits[1])))
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


# ---------------------------------------------------------------------------
# real root isolation (Sturm)


_CHAIN_CACHE: dict = {}


def _sturm_chain(f: RatPoly):
    if f.coeffs in _CHAIN_CACHE:
        return _CHAIN_CACHE[f.coeffs]
    chain = [f, f.deriv()]
    while chain[-1].degree >= 1:
        r = -(chain[-2] % chain[-1])
        if r.is_zero():
            break
        chain.append(r)
    _CHAIN_CACHE[f.coeffs] = chain
    return chain


def _sign_changes(chain, x) -> int:
    signs = []
    for g in chain:
        v = g.eval(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots(f: RatPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open rational intervals, one per real root, ascending."""
    if f.degree < 1:
        return []
    chain = _sturm_chain(f)
    bound = 1 + max(abs(c) for c in f.coeffs) / abs(f.lead)
    out = []

    def split(a, b, count):
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = (a + b) / 2
        while f.eval(mid) == 0:
            mid = (a + mid) / 2
        left = _sign_changes(chain, a) - _sign_changes(chain, mid)
        split(a, mid, left)
        split(mid, b, count - left)

    lo, hi = -bound, bound
    split(lo, hi, _sign_changes(chain, lo) - _sign_changes(chain, hi))
    return sorted(out)


def refine_away_from(f: RatPoly, interval, x: Fraction):
    """Shrink an isolating interval until the rational x lies outside it."""
    chain = _sturm_chain(f)
    a, b = interval
    guard = 0
    while a < x < b:
        mid = (a + b) / 2
        while f.eval(mid) == 0:
            mid = (a + mid) / 2
        if _sign_changes(chain, a) - _sign_changes(chain, mid) == 1:
            b = mid
        else:
            a = mid
        guard += 1
        if guard > 4000:
            raise ArithmeticError("interval refinement did not separate")
    return a, b


# ---------------------------------------------------------------------------
# the etale algebra at a place


class EtaleAlgebra:
    """Q_v[T]/f for separable monic integral f, with resolved components.

    Finite components follow poly.local_splitting_type order; at the real
    place the components are the real roots ascending, then complex pairs.
    """

    def __init__(self, f: RatPoly, p: int):
        """p = 0 means the real place."""
        if not f.is_monic() or not f.is_integral():
            raise ValueError("etale algebra needs a monic integer polynomial")
        self.f = f
        self.p = p
        if p == 0:
            self.intervals = list(isolate_real_roots(f))
            self.n_real = len(self.intervals)
            self.n_complex = (f.degree - self.n_real) // 2
            self.n_comp = self.n_real + self.n_complex
            self.pieces = None
            self.split = None
            # one sign bit per real root, no bits for a complex pair
            self.basis = ClassBasis(
                0, ("real",) * self.n_real + ("complex",) * self.n_complex,
                tuple(range(self.n_real)) + (self.n_real,) * (self.n_complex + 1),
                0)
            return
        self.split = local_splitting_type(f, p)
        self.pieces = list(self.split.factors)
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

    # -- unit-class canonicalization ------------------------------------------

    def _class_int(self, i: int, v: int, uval: int, prec: int) -> int:
        """Mask of the class of p^v * uval at a component with prime
        residue field."""
        p = self.p
        if p != 2:
            bits = v % 2 | (0 if legendre(uval % p, p) == 1 else 2)
        elif prec < 3:
            raise UnresolvedSplitting("dyadic unit class needs 3 digits")
        else:
            # a unit is 3^a * 5^s times a square, with a and s its bits 1, 2
            bits = v % 2 | uval % 8 & 6
        return bits << self.basis.offsets[i]

    def _class_poly(self, i: int, vW: int, unit, prec: int) -> int:
        """Mask of the class of 2^vW * unit for a unit of the unramified
        component i at p = 2, given mod 2^prec in the coordinate Z of the
        piece."""
        if prec < 3:
            raise UnresolvedSplitting("dyadic unit class needs 3 digits")
        rf = ResidueField(self.pieces[i].zlift)
        h8 = [c % 8 for c in self.pieces[i].zlift]

        def mul8(a, b):
            return mp_divmod(mp_mul(a, b, 8), h8, 8)[1]

        u8 = mp_divmod([c % 8 for c in unit], h8, 8)[1]
        x0 = rf.sqrt([c % 2 for c in u8])
        up = mul8(u8, _invert_poly_mod(mul8(x0, x0), h8, 2, 3))
        up = up + [0] * (rf.f - len(up))
        # x0^2 = u mod 2, so up = 1 + 2 sum_j a_j t^j mod 4
        a = [(c - (j == 0)) // 2 % 2 for j, c in enumerate(up)]
        # divide out prod_j (1 + 2 t^j)^(a_j); 1 + 4s mod 8 remains
        fac = [1]
        for j, aj in enumerate(a):
            if aj:
                fac = mul8(fac, [3] if j == 0 else [1] + [0] * (j - 1) + [2])
        s = [c >> 2 & 1 for c in mul8(up, _invert_poly_mod(fac, h8, 2, 3))]
        bits = vW % 2 | sum(aj << (j + 1) for j, aj in enumerate(a))
        bits |= rf.trace(s) << (rf.f + 1)
        return bits << self.basis.offsets[i]

    def to_z(self, i: int, elem, m: int):
        """A polynomial in the root theta of piece i rewritten in the
        coordinate of the piece: elem(shift + p^scale * Z) mod m."""
        piece = self.pieces[i]
        if not piece.shift and not piece.scale:
            return [c % m for c in elem]
        return [c * pow(self.p, piece.scale * j, m) % m
                for j, c in enumerate(mp_shift(elem, piece.shift, m))]

    def class_of_element(self, i: int, elem, prec: int) -> int:
        """Mask of the class of a nonzero element of unramified component i,
        given mod p^prec as a polynomial in the root of the factor of the
        piece in its coordinate Z (to_z rewrites a polynomial in theta);
        the bits of the other components are zero."""
        p, piece = self.p, self.pieces[i]
        m = p ** prec
        if p != 2:
            # a unit of an unramified extension of Q_p, p odd, is a square
            # exactly when its norm is
            norm = _norm_mod(piece.zlift, elem, m)
            v = _v_bounded(norm, p, prec)
            if v is None or v >= prec:
                raise UnresolvedSplitting(
                    f"the norm of an element at {p} needs more precision")
            if v % piece.f:
                raise ArithmeticError("norm valuation vs residue degree")
            return self._class_int(i, v // piece.f, norm // p ** v, prec - v)
        elem = mp_divmod([c % m for c in elem], [c % m for c in piece.zlift],
                         m)[1]
        vW = min((v for v in (_v_bounded(c, 2, prec) for c in elem)
                  if v is not None), default=None)
        if vW is None or vW >= prec:
            raise UnresolvedSplitting(
                "the valuation of an element at 2 needs more precision")
        unit = [c // 2 ** vW for c in elem]
        if piece.degree == 1:
            return self._class_int(i, vW, unit[0], prec - vW)
        return self._class_poly(i, vW, unit, prec - vW)

    # -- images ----------------------------------------------------------------

    def image_of_affine(self, x: Fraction) -> SqVector:
        """(x - T) componentwise: the descent image of an affine point."""
        x = Fraction(x)
        mask = 0
        if self.p == 0:
            for i in range(self.n_real):
                iv = refine_away_from(self.f, self.intervals[i], x)
                self.intervals[i] = iv
                mask |= (x < iv[1]) << i
            return SqVector(mask, self.basis)
        p = self.p
        den = x.denominator
        num = x.numerator
        vden = valuation(den, p)
        for i, piece in enumerate(self.pieces):
            exact = x - piece.root if piece.root is not None else None
            if exact is not None:
                if exact == 0:
                    raise ZeroDivisionError("x coincides with a component root")
                v = valuation(exact, p)
                u = exact / Fraction(p) ** v
                prec = max(4, piece.prec)
                uval = (u.numerator * pow(u.denominator, -1, p ** prec)) % p ** prec
                mask |= self._class_int(i, v, uval, prec)
                continue
            prec = piece.prec
            m = p ** prec
            if piece.kind == "ramified":
                # valuation from the exact norm den^deg * h(x)
                acc = 0
                for k, c in enumerate(piece.lift):
                    acc = (acc + c * pow(num, k, m)
                           * pow(den, piece.degree - k, m)) % m
                vnorm = _v_bounded(acc, p, prec)
                if vnorm is None or vnorm >= prec:
                    raise UnresolvedSplitting("ramified norm needs more precision")
                vnorm -= piece.degree * vden
                if vnorm % piece.f != 0:
                    raise ArithmeticError("norm valuation vs residue degree")
                mask |= (vnorm // piece.f) % 2 << self.basis.offsets[i]
                continue
            # unramified piece: clear denominators by the square den^2
            elem = [(num * den) % m, (-den * den) % m]
            mask |= self.class_of_element(i, self.to_z(i, elem, m), prec)
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
        p = self.p
        piece_i = self.pieces[i]
        if piece_i.kind == "ramified":
            raise ValueError("torsion root lives in a ramified component")
        mask = 0
        for j, piece_j in enumerate(self.pieces):
            prec = min(piece_i.prec, piece_j.prec)
            m = p ** prec
            if j == i:
                acc = [1]
                for k, pk in enumerate(self.pieces):
                    if k != i:
                        acc = mp_divmod(mp_mul(acc, [c % m for c in pk.lift], m),
                                        [c % m for c in piece_i.lift], m)[1]
                if (piece_i.degree - 1) % 2:
                    acc = [(-c) % m for c in acc]
                mask |= self.class_of_element(i, self.to_z(i, acc, m), prec)
                continue
            gi = [c % m for c in piece_i.lift]
            sign = -1 if piece_i.degree % 2 else 1
            if piece_j.root is not None:
                ev = sign * RatPoly([Fraction(c) for c in gi]).eval(piece_j.root)
                v = valuation(ev, p)
                if v is INFINITY or v >= prec:
                    raise UnresolvedSplitting("torsion image needs more precision")
                u = ev / Fraction(p) ** v
                uval = (u.numerator * pow(u.denominator, -1, m)) % m
                mask |= self._class_int(j, v, uval, prec - v)
            elif piece_j.kind == "ramified":
                res = _norm_mod(list(piece_j.lift), gi, m)
                v = _v_bounded(res, p, prec)
                if v is None or v >= prec:
                    raise UnresolvedSplitting("ramified norm needs more precision")
                if v % piece_j.f != 0:
                    raise ArithmeticError("norm valuation vs residue degree")
                mask |= (v // piece_j.f) % 2 << self.basis.offsets[j]
            else:
                val = mp_divmod(gi, [c % m for c in piece_j.lift], m)[1]
                if sign < 0:
                    val = [(-c) % m for c in val]
                mask |= self.class_of_element(j, self.to_z(j, val, m), prec)
        return SqVector(mask, self.basis)

    def identity_vector(self) -> SqVector:
        return SqVector(0, self.basis)

    def norm_class_is_square(self, x: Fraction) -> bool:
        """Is N(x - T) = f(x) a square in Q_v (the norm-kernel condition)?"""
        val = self.f.eval(x)
        if val == 0:
            raise ZeroDivisionError
        if self.p == 0:
            return val > 0
        return is_padic_square(val, self.p)


def _v_bounded(n: int, p: int, prec: int):
    n %= p ** prec
    if n == 0:
        return None
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _invert_poly_mod(a, h, p: int, k: int):
    """Inverse of a unit a modulo (h, p^k), Hensel-lifted from mod p."""
    r0, r1 = [c % p for c in h], [c % p for c in a]
    t0, t1 = [], [1]
    while mp_trim(r1):
        q, r = mp_divmod(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, mp_sub(t0, mp_mul(q, t1, p), p)
    if len(mp_trim(r0)) != 1:
        raise ValueError("element not invertible")
    inv = mp_scal(t0, pow(r0[0], -1, p), p)
    mod = p
    target = p ** k
    while mod < target:
        mod = min(mod * mod, target)
        prod = mp_divmod(mp_mul(a, inv, mod), h, mod)[1]
        err = mp_sub([2], prod, mod)
        inv = mp_divmod(mp_mul(inv, err, mod), h, mod)[1]
    return inv


def _norm_mod(h, a, m: int) -> int:
    """Norm (det of multiplication by a) in Z/m[t]/h for monic h, by
    Bareiss's fraction-free elimination."""
    n = len(h) - 1
    h = [c % m for c in h]
    a = mp_divmod([c % m for c in a], h, m)[1]
    rows = [[0] * n for _ in range(n)]
    col = a
    for j in range(n):
        for i, c in enumerate(col):
            rows[i][j] = c
        col = mp_divmod([0] + col, h, m)[1]
    sign, prev = 1, 1
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        for r in range(k + 1, n):
            for c in range(k + 1, n):
                rows[r][c] = (rows[r][c] * rows[k][k]
                              - rows[r][k] * rows[k][c]) // prev
        prev = rows[k][k]
    return sign * prev % m
