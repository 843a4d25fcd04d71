"""Local descent groups C, S, I at each place of Q for elliptic curves.

For an isogeny phi: E -> E' in scope (the 2-map, given as TWO_MAP, and
cyclic 2-/3-isogenies) this computes the orders of

  C(Q_v)  -- unramified homomorphisms, = #E(Q_v)[phi] at finite places;
  S(Q_v)  -- E'(Q_v)/phi E(Q_v), by the Tamagawa-ratio formula;
  I(Q_v)  -- their intersection, by the component-group case analysis
             on top of Tate's algorithm.

The intersection order is numerator/denominator: the numerator counts
M-rational kernel points lying in (tau - 1)E(M) (nonsingular reduction
passes automatically; singular reduction is decided by the five reduction-
type cases), the denominator is #(tau - 1)(E(M)[phi]).  A kernel point is
read on the minimal model at p (KernelPoint.x_val is v(x) there, the x
moved by WeierstrassModel.minimal_model_x for a cyclic kernel), so that
C, S and I do not depend on the model: one rule (_kernel_point) decides
whether it reduces to the singular point (0, 0).

The halving oracle (i2_oracle_halving) checks I for the 2-map at odd p by
another route: it is the Jacobian's intersection rank
(local_intersection_rank) on the rational 2-torsion of y^2 = the
2-division cubic of the minimal model.

Each local object is computed once and passed down.  The model is the
object of its curve: m.reduction(p), Tate's algorithm run once per prime,
is the object for each (model, p): the minimal model, its Kodaira type and
the integer change of coordinates to it from the model's integral_model;
for the 2-map the factors of the 2-division cubic at p are the model's one
factorization over Q, moved to that minimal model (m.two_division_factors).
The TorsionFieldProfile is the object for each (model, phi, p): the p-adic
splitting of E[phi] and where its points reduce.  local_descent_report
builds the profile from the model and passes it to S and I; C is read off
the profile.  A cyclic isogeny (elliptic.IsogenyMap) is read through two
things only: its codomain, whose Tate data and Neron scaling enter S, and
x0, the x-coordinate of its kernel on the domain, which must be the model
the report is asked about (ValueError otherwise).  x0 is read against the
2-division polynomial psi2 of the domain: a 3-kernel {Q, -Q} is defined
over Q_p(sqrt(psi2(x0))), and at the real place S of a 2-isogeny asks
whether x0 is the least real root of psi2.

#E(Q_p)[3] (three_torsion_count, from psi3 and psi2 of the model) stands
apart: it is the order that the local exact sequence of a 3-isogeny and
its dual needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .arith import (REAL_PLACE, finite, place_name, square_class,
                    unramified_class, valuation)
from .elliptic import IsogenyMap, WeierstrassModel
from .jacobian import local_intersection_rank, point_label
from .localfields import EtaleAlgebra
from .poly import (LocalFactor, RatPoly, UnresolvedSplitting, _vp_bounded,
                   factor_over_Z, local_splitting_type, monic_integral)
# tate_algorithm is not called here (WeierstrassModel.reduction runs it);
# the layer tracer's tests read it off this module
from .tate import ReductionData, tate_algorithm  # noqa: F401

TWO_MAP = "two-map"


def phi_degree(phi) -> int:
    if phi == TWO_MAP:
        return 4
    return phi.degree


# ---------------------------------------------------------------------------
# kernel/torsion field profiles


@dataclass(frozen=True)
class KernelPoint:
    label: str
    residue_degree: int      # over Q_p; 0 when only defined over a ramified ext
    singular: object         # True/False; None when not M-rational
    x_val: object            # v_p(x) on the minimal model (int or None)


@dataclass(frozen=True)
class TorsionFieldProfile:
    p: int
    kernel_points: tuple
    m: int             # exponent of E(L')[phi]
    deg_L: int         # [Q_p(E[phi]) : Q_p]
    deg_Lprime: int    # maximal unramified subextension
    deg_M: int         # = deg_Lprime * m
    tau_permutation: tuple  # cycles of Frobenius on the M-rational points

    @property
    def rational_order(self) -> int:
        """#E(Q_p)[phi]: O and the kernel points defined over Q_p."""
        return 1 + sum(1 for k in self.kernel_points if k.residue_degree == 1)

    def as_dict(self):
        return {
            "p": self.p,
            "m": self.m,
            "deg_L": self.deg_L,
            "deg_Lprime": self.deg_Lprime,
            "deg_M": self.deg_M,
            "tau_cycles": [list(c) for c in self.tau_permutation],
            "kernel_points": [
                {"label": k.label, "residue_degree": k.residue_degree,
                 "singular": k.singular, "v(x)": (str(k.x_val) if k.x_val
                                                  is not None else None)}
                for k in self.kernel_points],
        }


def _cubic_deg_L_data(pieces, disc: Fraction, p: int):
    """([L:Q_p], [L':Q_p]) for the splitting field L of the 2-division
    cubic, whose pieces over Q_p are `pieces` and whose discriminant is
    disc up to a square."""
    fs = [fac.f for fac in pieces]
    es = [fac.e for fac in pieces]
    cls = square_class(disc, p)
    # the unramified non-square class contributes an unramified quadratic
    # to L'; any other non-square class a ramified one
    extra_unram = cls == unramified_class(p)
    disc_ramified = cls & ~unramified_class(p) != 0
    deg_Lp = lcm(*fs, 2 if extra_unram else 1)
    deg_L = deg_Lp * lcm(*es, 2 if disc_ramified else 1)
    return deg_L, deg_Lp


def _piece_root_valuation(fac: LocalFactor, p: int):
    """v_p of (any) root of an unramified piece; None if out of reach."""
    if fac.root is not None:
        return valuation(fac.root, p)
    if fac.residue[0]:
        return 0  # the norm of a root is +-residue(0) mod p, a unit
    v = _vp_bounded(fac.lift[0], p, fac.prec)
    if v is None or v >= fac.prec - 4:
        return None
    if v % fac.f != 0:
        raise ArithmeticError("root valuation incompatible with residue degree")
    return v // fac.f


def two_map_kernel_profile(rd: ReductionData, pieces,
                           disc: Fraction) -> TorsionFieldProfile:
    """Torsion field data of E[2] over Q_p for the minimal model in rd, from
    the pieces over Q_p (local_splitting_type) of
    two_division_cubic_integral of that model (whose roots are 4 * x(T)),
    given by its factors over Q (WeierstrassModel.two_division_factors).
    disc is the discriminant of any model of E: the minimal model's differs
    from it by u^12, a square, and only its square class is read."""
    p = rd.p
    # two_division_cubic_integral has discriminant 2^8 * disc
    deg_L, deg_Lp = _cubic_deg_L_data(pieces, disc, p)
    pts = []
    cycles = []
    label_no = 1
    m_exp = 1
    for fac in pieces:
        if fac.e != 1:
            pts.append(KernelPoint(f"T{label_no}(+conj)", 0, None, None))
            label_no += 1
            continue
        m_exp = 2
        vu = _piece_root_valuation(fac, p)
        vx = None if vu is None else vu - (2 if p == 2 else 0)
        labels = [f"T{label_no + i}" for i in range(fac.f)]
        label_no += fac.f
        pts += [_kernel_point(rd, lab, fac.f, vx) for lab in labels]
        cycles.append(tuple(labels))
    deg_M = deg_Lp * m_exp
    return TorsionFieldProfile(p, tuple(pts), m_exp, deg_L, deg_Lp, deg_M,
                               tuple(cycles))


def torsion_field_profile(m: WeierstrassModel, phi, p: int
                          ) -> TorsionFieldProfile:
    """Field-of-definition data of E[phi] over Q_p, for the 2-map or a
    cyclic isogeny from m, read off m.reduction(p)."""
    rd = m.reduction(p)
    if phi == TWO_MAP:
        return two_map_kernel_profile(
            rd, local_splitting_type(m.two_division_factors(p), p), m.disc)
    return _cyclic_kernel_profile(rd, _isogeny_from(m, phi))


def _isogeny_from(m: WeierstrassModel, phi) -> IsogenyMap:
    """phi, checked to be a cyclic isogeny with domain m: the report reads
    m's reduction and psi2 at phi's kernel x."""
    if not isinstance(phi, IsogenyMap):
        raise ValueError("phi must be the 2-map or an IsogenyMap")
    if phi.domain != m:
        raise ValueError(f"phi is an isogeny from {phi.domain}, not from {m}")
    return phi


def _kernel_point(rd: ReductionData, label: str, f: int, vx) -> KernelPoint:
    """The M-rational kernel point `label` of residue degree f whose x has
    valuation vx on the minimal model in rd (None: infinite or out of
    reach).  The reduced minimal model is singular at (0, 0)
    (tate_algorithm), where the point reduces exactly when v(x) >= 1."""
    singular = rd.kodaira.letter != "I0" and (vx is None or vx > 0)
    return KernelPoint(label, f, singular, vx)


def _cyclic_kernel_profile(rd: ReductionData, phi: IsogenyMap) -> TorsionFieldProfile:
    p, x0 = rd.p, phi.x0
    vx = valuation(phi.domain.minimal_model_x(x0, p), p)
    if phi.degree == 2:
        pts = (_kernel_point(rd, "T1", 1, vx),)
        return TorsionFieldProfile(p, pts, 2, 1, 1, 2, (("T1",),))
    # degree 3: the kernel points are defined over Q_p(sqrt(psi2(x0))),
    # as psi2(x0) = (2y0 + a1 x0 + a3)^2, not 0 since psi3(x0) = 0
    cls = square_class(phi.domain.psi2.eval(x0), p)
    if cls == 0:
        pts = tuple(_kernel_point(rd, q, 1, vx) for q in ("Q", "-Q"))
        return TorsionFieldProfile(p, pts, 3, 1, 1, 3, (("Q",), ("-Q",)))
    if cls == unramified_class(p):
        pts = tuple(_kernel_point(rd, q, 2, vx) for q in ("Q", "-Q"))
        return TorsionFieldProfile(p, pts, 3, 2, 2, 6, (("Q", "-Q"),))
    pts = (KernelPoint("Q(+conj)", 0, None, vx),)
    return TorsionFieldProfile(p, pts, 1, 2, 1, 1, ())


# ---------------------------------------------------------------------------
# C and S orders


def c2_order(m: WeierstrassModel, phi, v: int) -> int:
    """#E(Q_v)[phi] at finite places; 1 at the real place (v = 0).

    A standalone entry point, on the reduction data the model keeps.
    Reports read C from the profile they already hold
    (TorsionFieldProfile.rational_order).
    """
    if v == REAL_PLACE:
        return 1
    return torsion_field_profile(m, phi, finite(v)).rational_order


def s2_order_two_map(prof: TorsionFieldProfile) -> int:
    """#E(Q_p)/2E(Q_p) = 2^[p=2] * #E(Q_p)[2], from the profile of E[2]."""
    return (2 if prof.p == 2 else 1) * prof.rational_order


def s2_order_isogeny(phi, prof: TorsionFieldProfile) -> int:
    """|phi'(0)|_p^-1 * #E(Q_p)[phi] * c_p(E') / c_p(E)
    (Schaefer, J. Number Theory 56 (1996)).

    prof is the profile of phi at p; the reduction data of phi.domain and
    phi.codomain there come from the models.  phi'(0) is taken on the Neron
    differentials, those of the minimal models.  Velu's maps have
    phi'(0) = 1 on phi.domain and phi.codomain, and the scalings u and u'
    that take these to their minimal models multiply the invariant
    differentials by u and u', so on the Neron differentials phi'(0) is
    u'/u and |phi'(0)|_p^-1 = p^e, e = v(u') - v(u), each Neron scaling
    read off disc = u^12 disc_min as v(u) = (v(disc) - v_disc_min)/12.
    """
    if phi == TWO_MAP:
        raise ValueError("use s2_order_two_map for the 2-map")
    p = prof.p
    rd, rd_cod = phi.domain.reduction(p), phi.codomain.reduction(p)
    e = (valuation(phi.codomain.disc, p) - rd_cod.v_disc_min
         - valuation(phi.domain.disc, p) + rd.v_disc_min) // 12
    assert e >= 0, "phi'(0) not integral on the Neron differentials"
    order, rem = divmod(p ** e * prof.rational_order * rd_cod.c_p, rd.c_p)
    assert rem == 0, "non-integral local Selmer order"
    return order


def s2_real(m: WeierstrassModel, phi) -> int:
    """#E'(R)/phi E(R) per the archimedean case analysis."""
    if phi == TWO_MAP:
        return 2 if m.disc > 0 else 1
    phi = _isogeny_from(m, phi)
    if phi.degree % 2 == 1:
        return 1
    # cyclic 2-isogeny: the kernel point, at a root x0 of psi2, is real
    if m.disc < 0:
        return 2
    # disc > 0: order 2 iff x0 is the least of the three real roots of
    # psi2, the one where psi2 rises (psi2' > 0) and is concave (psi2'' < 0)
    d1 = m.psi2.deriv()
    return 2 if d1.eval(phi.x0) > 0 and d1.deriv().eval(phi.x0) < 0 else 1


def three_torsion_count(m: WeierstrassModel, p: int) -> int:
    """#E(Q_p)[3]: the roots x of psi3 in Q_p at which psi2(x) =
    (2y + a1 x + a3)^2 is a square, each giving two points, read on m
    itself (on an integral model the roots need the scaling X = 3x only)."""
    return 1 + 2 * _count_x_roots_with_square_rhs(m.psi3, m.psi2, p)


def _count_x_roots_with_square_rhs(g: RatPoly, f: RatPoly, p: int) -> int:
    """Number of Q_p-roots x of g with f(x) a nonzero square in Q_p."""
    # X -> X/lam: a monic integral polynomial whose roots are lam x
    scaled, lam = monic_integral(g.monic())
    alg = EtaleAlgebra(factor_over_Z(scaled), p)
    # lam^even * D^2 * f(X / lam), with even the least even exponent
    # >= deg f, has integer coefficients and the square classes of f(x)
    even = f.degree + f.degree % 2
    f_int = [c * f.den * lam ** (even - k) for k, c in enumerate(f.num)]
    count = 0
    for i, piece in enumerate(alg.pieces):
        if piece.degree != 1:
            continue
        if piece.root is not None:
            elem = f.eval(piece.root / lam)
        else:
            elem = alg.to_z(i, f_int, p ** piece.prec)
        count += alg.class_of_element(i, elem, piece.prec) == 0
    return count


# ---------------------------------------------------------------------------
# the intersection order I


def _singular_membership_two_torsion(rd: ReductionData, pt: KernelPoint,
                                     k: int):
    """(in_image, reason) for a singular M-rational 2-torsion point.  Its
    image in the component group has order 2 (Silverman, Advanced Topics,
    IV.9), so the type is I_nu with nu even, III, III* or I_nu^*."""
    kt = rd.kodaira
    assert kt.letter in ("III", "III*", "I*") or (
        kt.letter == "I" and kt.nu % 2 == 0), \
        f"{kt.symbol()}: no element of order 2 in the component group"
    if kt.letter == "I":
        nu = kt.nu
        ok = (rd.split is False) and k % 2 == 0 and (nu // 2) % 2 == 0
        return ok, (f"I{nu} (even): image nu/2={nu // 2} "
                    f"{'even' if (nu // 2) % 2 == 0 else 'odd'}, "
                    f"tau{'= -1' if rd.split is False else ' trivial'}, deg_M={k}")
    if kt.letter in ("III", "III*"):
        return False, f"{kt.symbol()}: Aut(Z/2) trivial, tau fixes the image"
    # I_nu^*
    nu = kt.nu
    if nu % 2 == 1:
        ok = rd.c_p == 2 and k % 2 == 0
        return ok, (f"I{nu}* (odd): needs c_p = 2 (tau = -1 on Z/4), image 2, "
                    f"2P nonsingular, 2 | deg_M; got c_p={rd.c_p}, deg_M={k}")
    o = rd.frobenius_order_on_components
    if o == 1:
        return False, f"I{nu}*: tau acts trivially on the component group"
    if o == 3:
        ok = k % 3 == 0
        return ok, (f"I{nu}*: tau of order 3 on Klein4: automorphism, "
                    f"all singular points pass (deg_M={k})")
    # o == 2: pass iff tau fixes the image and the order-2 action is realized
    if nu == 0:
        fixed = pt.residue_degree == 1
        why = "rational (Frobenius-fixed component)" if fixed \
            else "non-rational (component swapped by tau)"
    else:
        fixed = pt.x_val == 1
        why = ("near-end component Theta_1 (v(x) = 1), Frobenius-fixed"
               if fixed else
               f"far-end component (v(x) = {pt.x_val}), swapped by tau")
    ok = fixed and k % 2 == 0
    return ok, f"I{nu}* with tau of order 2: point {why}; deg_M={k}"


def _singular_membership_odd_kernel(rd: ReductionData, k: int, deg_Lp: int):
    """Membership for a singular kernel point of order 3.  Its image in the
    component group has order 3, so the type is I_nu with 3 | nu, IV or IV*."""
    kt = rd.kodaira
    assert kt.letter in ("IV", "IV*") or (
        kt.letter == "I" and kt.nu % 3 == 0), \
        f"{kt.symbol()}: no element of order 3 in the component group"
    if kt.letter == "I":
        nu = kt.nu
        inv = (rd.split is False) and k % 2 == 0
        if nu % 2 == 1:
            ok = inv and deg_Lp % 2 == 0
            return ok, f"I{nu} (odd) case: tau=-1 {inv}, [L':Q_p]={deg_Lp}"
        return inv, f"I{nu} (even) case: image automatically even; tau=-1 {inv}"
    ok = rd.frobenius_order_on_components == 2 and deg_Lp % 2 == 0
    return ok, (f"{kt.symbol()}: needs tau = -1 on Z/3 and 2 | [L':Q_p]; "
                f"frobenius order {rd.frobenius_order_on_components}, "
                f"[L':Q_p]={deg_Lp}")


def i2_order(rd: ReductionData, phi, prof: TorsionFieldProfile):
    """Order of I(Q_p) with per-kernel-point evidence, from the reduction
    data at p and the profile of phi there."""
    k = prof.deg_M
    deg_Lp = prof.deg_Lprime
    mpts = [pt for pt in prof.kernel_points if pt.residue_degree >= 1]
    group_order = 1 + len(mpts)
    assert phi_degree(phi) % group_order == 0, "E(M)[phi] is not in E[phi]"
    fixed = 1 + sum(1 for pt in mpts if pt.residue_degree == 1)
    denominator = group_order // min(fixed, group_order)
    numerator = 1
    evidence = []
    for pt in mpts:
        if pt.singular is False:
            numerator += 1
            evidence.append({"point": pt.label, "singular": False,
                             "in_(tau-1)E(M)": True,
                             "reason": "nonsingular reduction"})
            continue
        if phi_degree(phi) == 3:
            ok, reason = _singular_membership_odd_kernel(rd, k, deg_Lp)
        else:
            ok, reason = _singular_membership_two_torsion(rd, pt, k)
        if ok:
            numerator += 1
        evidence.append({"point": pt.label, "singular": True,
                         "in_(tau-1)E(M)": ok, "reason": reason})
    assert group_order % numerator == 0, "membership set is not a subgroup"
    assert numerator % denominator == 0 or numerator == 1
    order = numerator // denominator if numerator % denominator == 0 else 1
    evidence.append({"numerator": numerator, "denominator": denominator,
                     "deg_M": k, "deg_Lprime": deg_Lp,
                     "kodaira": rd.kodaira.symbol()})
    return order, evidence


# ---------------------------------------------------------------------------
# the halving oracle


def i2_oracle_halving(m: WeierstrassModel, p: int):
    """Independent computation of #I(Q_p) for the 2-map at odd p.

    The 2-division cubic of the minimal model at p is the f of a genus-1
    y^2 = f, and its rational 2-torsion, the roots of the linear pieces,
    are descent points ("alpha", i): #I is 2^local_intersection_rank of
    their images in EtaleAlgebra(m.two_division_factors(p), p).  The rank
    is exact when the images span J(Q_p)/2J(Q_p) = E(Q_p)/2E(Q_p); when
    they do not (some rational 2-torsion is divisible by 2), returns
    ('inapplicable', evidence).  Nothing is read from the Kodaira-side
    computation (i2_order) that the oracle checks.
    """
    if p == 2:
        return "inapplicable", [{"reason": "oracle restricted to odd p"}]
    try:
        alg = EtaleAlgebra(m.two_division_factors(p), p)
    except UnresolvedSplitting as exc:
        raise UnresolvedSplitting(f"halving oracle: {exc}")
    torsion = [("alpha", i + 1) for i, piece in enumerate(alg.pieces)
               if piece.degree == 1]
    labels = [point_label(pt) for pt in torsion]
    rank, complete = local_intersection_rank(alg, torsion)
    if not complete:
        return "inapplicable", [{
            "torsion": labels,
            "reason": "2-torsion does not surject onto E/2E (some rational "
                      "2-torsion is divisible)"}]
    return 2 ** rank, [{"torsion": labels, "unramified_in_span": 2 ** rank}]


# ---------------------------------------------------------------------------
# reports


@dataclass
class LocalDescentReport:
    """C, S and I at one place: a row of either ledger.  Elliptic rows come
    from local_descent_report, with Kodaira symbol, profile and evidence;
    hyperelliptic rows hold the orders only.  I_is_lower_bound marks an I
    read off points whose images do not span S (as_dict shows ">=N")."""

    place: int  # the prime, 0 for the real place
    order_C: int
    order_S: int
    order_I: int
    kodaira: str
    profile: object
    evidence: list = field(default_factory=list)
    notes: str = ""
    I_is_lower_bound: bool = False

    def as_dict(self):
        return {
            "place": place_name(self.place),
            "C": self.order_C,
            "S": self.order_S,
            "I": (f">={self.order_I}" if self.I_is_lower_bound
                  else self.order_I),
            "kodaira": self.kodaira,
            "profile": (self.profile.as_dict() if self.profile else None),
            "evidence": self.evidence,
            "notes": self.notes,
        }


def local_descent_report(m: WeierstrassModel, phi, place: int
                         ) -> LocalDescentReport:
    """The report of phi, the 2-map or a cyclic isogeny from m, at a place:
    a prime, or 0 for the real place.

    At a prime p the profile of phi is built once and passed to S and I,
    which read the reduction data that m (and the codomain of a cyclic
    isogeny) keeps for p.
    """
    if place == REAL_PLACE:
        return LocalDescentReport(place, 1, s2_real(m, phi), 1, "-", None,
                                  [], "archimedean place: C and I trivial")
    rd = m.reduction(finite(place))
    prof = torsion_field_profile(m, phi, place)
    if phi == TWO_MAP:
        S = s2_order_two_map(prof)
    else:
        S = s2_order_isogeny(phi, prof)
    I, ev = i2_order(rd, phi, prof)
    C = prof.rational_order
    assert C % I == 0 and S % I == 0, "I must divide gcd(C, S)"
    return LocalDescentReport(place, C, S, I, rd.kodaira.symbol(), prof, ev)
