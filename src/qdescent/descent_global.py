"""Global assembly: rank ledgers from local reports and class-group input.

Each ledger builds one LocalDescentReport per place: the real place first,
then 2 and the primes of bad reduction.  A ledger is that of a curve
y^2 = f held as a HyperellipticCurve: the curve itself, or, for an
elliptic curve, the model's two_division_curve, y^2 = the 2-division cubic
of its model made integral.  An elliptic ledger reads everything from the
model: bad_primes filters the primes of its discriminant, factored once
(disc_primes), by the reduction data it keeps per prime, every report uses
that data, and every place's profile its one factorization of the cubic.
A hyperelliptic ledger's bad primes are the curve's disc_primes.  f is
factored over Q once, as the curve's `factors`, and the etale algebras of
the places, the torsion rank, the images of the torsion and the class
records all read them.  The global quotients S/I and C/I inject into the
product of their local counterparts, so _ledger sums the F_2-ranks of the
local S/I over every place and of the local C/I over the bad primes to
bound them.  Combining the C-side bound with class-group 2-rank data and
the rank of the images of the points and the rational 2-torsion yields an
interval for the 2-Selmer rank.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field

from .arith import (REAL_PLACE, factor_integer, is_prime, place_name,
                    squarefree_part)
from .descent_local import TWO_MAP, LocalDescentReport, local_descent_report
from .elliptic import WeierstrassModel
from .jacobian import (HyperellipticCurve, independence_rank,
                       local_intersection_rank, local_selmer_rank_hyper,
                       local_torsion_rank)
from .localfields import EtaleAlgebra
from .poly import (SPLIT_BOUND, RatPoly, discriminant, factor_over_Z,
                   parse_poly, split_primes)

_PERIOD_BOUND = 10 ** 6  # longest continued-fraction period followed


def bad_primes(m: WeierstrassModel) -> list[int]:
    """Primes of bad reduction: m.disc_primes filtered through minimality."""
    return [p for p in m.disc_primes
            if m.reduction(p).kodaira.letter != "I0"]


def _log2(n: int) -> int:
    assert n & (n - 1) == 0, f"{n} is not a power of 2"
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# quadratic class groups by genus theory


def fundamental_discriminant(d: int) -> int:
    """The discriminant of Q(sqrt d), d squarefree."""
    return d if d % 4 == 1 else 4 * d


def genus_2rank_quadratic(d: int) -> int:
    """2-rank of the narrow class group of Q(sqrt d), d squarefree != 0, 1.

    Genus theory: t - 1, with t the number of primes dividing the
    fundamental discriminant D, read off one factorization of d: the
    primes of d, and 2 when D = 4d with d odd (d = 3 mod 4).
    """
    d = int(d)
    if d in (0, 1):
        raise ValueError("d must be squarefree and different from 0, 1")
    primes = factor_integer(d).factors
    if any(e > 1 for _, e in primes):
        raise ValueError("d must be squarefree")
    two_joins = fundamental_discriminant(d) != d and d % 2
    return len(primes) + two_joins - 1


def fundamental_unit_norm(d: int) -> int:
    """Norm (+1 or -1) of the fundamental unit of Q(sqrt d), d > 1 squarefree.

    Continued-fraction criterion: the norm is -1 iff the period of sqrt(d)
    is odd.  Raises if the period exceeds _PERIOD_BOUND.
    """
    if d <= 1:
        raise ValueError("d must be > 1")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError("d must not be a square")
    m, q, a = 0, 1, a0
    period = 0
    while period <= _PERIOD_BOUND:
        m = q * a - m
        q = (d - m * m) // q
        a = (a0 + m) // q
        period += 1
        if q == 1 and a == 2 * a0:
            break
    else:
        raise ArithmeticError("continued-fraction bound exceeded")
    return -1 if period % 2 == 1 else 1


def narrow_equals_wide(d: int) -> bool:
    """Does the narrow class group equal the wide one for Q(sqrt d)?"""
    if d < 0:
        return True
    return fundamental_unit_norm(d) == -1


# ---------------------------------------------------------------------------
# class data


@dataclass(frozen=True)
class ClassRecord:
    poly: RatPoly
    two_rank: int
    narrow_eq_wide: bool
    provenance: str


def parse_class_data(text: str) -> list[ClassRecord]:
    """One record per line: "poly | 2rank | narrow_eq_wide | source", with
    poly irreducible over Q, 2rank an integer >= 0 and narrow_eq_wide one
    of yes/no, true/false, 1/0.  A quadratic record is checked against
    genus theory, whose record it returns.  Blank lines and "#" comments
    are skipped; any other malformed line raises a ValueError naming it."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append(_class_record(line))
        except ValueError as exc:
            raise ValueError(f"bad class-data line {line!r}: {exc}") from None
    return out


def _class_record(line: str) -> ClassRecord:
    parts = [t.strip() for t in line.split("|")]
    if len(parts) != 4:
        raise ValueError("a record has four fields")
    poly, two_rank = parse_poly(parts[0]), int(parts[1])
    narrow = {"yes": True, "true": True, "1": True, "no": False,
              "false": False, "0": False}.get(parts[2].lower())
    if two_rank < 0:
        raise ValueError(f"negative 2-rank {two_rank}")
    if narrow is None:
        raise ValueError(f"narrow_eq_wide {parts[2]!r} is not yes or no")
    if len(factor_over_Z(poly)) != 1:
        raise ValueError(f"{poly} is not irreducible over Q")
    if poly.degree != 2:
        return ClassRecord(poly, two_rank, narrow, parts[3])
    rec = _find_record([], poly)
    if two_rank != rec.two_rank:
        raise ValueError(f"quadratic record {parts[0]}: 2-rank {two_rank} "
                         f"contradicts genus theory ({rec.two_rank})")
    return rec


def quadratic_class_record(d: int) -> ClassRecord:
    """Synthesize the record for Q(sqrt d) by genus theory."""
    return ClassRecord(RatPoly([-d, 0, 1]), genus_2rank_quadratic(d),
                       narrow_equals_wide(d), "computed-by-genus-theory")


def _class_records(factors, records: list[ClassRecord]) -> list[ClassRecord]:
    """The records whose 2-ranks sum to the F_2-rank of the global
    unramified group of f, given by its irreducible factors over Q.

    Supported patterns (base field Q): a single field F (f irreducible: the
    record of F) and one linear factor times k conjugate-field factors
    (the records of the constituents).  Raises ValueError otherwise.
    """
    if len(factors) > 1 and sum(h.degree == 1 for h in factors) != 1:
        raise ValueError("pattern outside the supported shapes: need one "
                         "linear factor (or irreducible f); explicit "
                         "unramified generators are not supported")
    return [_find_record(records, h) for h in factors if h.degree >= 2]


def _find_record(records, h: RatPoly) -> ClassRecord:
    """The record of the field of h: genus theory's for a quadratic h,
    whatever is supplied, and the supplied record matching h otherwise."""
    if h.degree == 2:
        dsc = discriminant(h)
        return quadratic_class_record(squarefree_part(dsc.numerator
                                                      * dsc.denominator))
    for rec in records:
        if rec.poly.monic() == h.monic():
            return rec
    raise ValueError(f"no class-group record supplied for {h} "
                     "(degree >= 3 fields need external input)")


# ---------------------------------------------------------------------------
# the ledger


@dataclass
class GlobalLedger:
    curve: str
    kind: str  # 'elliptic' | 'hyperelliptic'
    local_reports: list
    bound_rank_S_over_I: int
    bound_rank_S_over_I_refined: int
    bound_rank_C_over_I: int
    class_side_rank: object  # int or None
    class_side_provenance: str
    points_rank_lower: object  # int or None
    torsion_two_rank: int
    selmer_rank_interval: tuple
    narrow_refinement_applied: bool
    notes: list = field(default_factory=list)

    def as_dict(self):
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def assemble_ledger_elliptic(m: WeierstrassModel, records=None,
                             points=None) -> GlobalLedger:
    """The ledger of the 2-map on m; points are x-coordinates.  The
    reduction data that m keeps per prime decide badness and build the
    reports, and the ledger's curve is m.two_division_curve."""
    bad = bad_primes(m)
    reports = [local_descent_report(m, TWO_MAP, v)
               for v in [REAL_PLACE, *sorted({2, *bad})]]
    # #E(R)[2] * prod C/I = S(R) * prod S/I: the two product forms agree
    # after redistributing the factors at 2 and infinity
    assert (4 if m.disc > 0 else 2) * math.prod(
        r.order_C // r.order_I for r in reports[1:]) == math.prod(
        r.order_S // r.order_I for r in reports), \
        "divisibility product forms disagree"
    upts = [("rational", m.two_division_x(x), None) for x in points or []]
    return _ledger(str(m), "elliptic", m.two_division_curve, reports, bad,
                   records, upts)


def _ledger(curve, kind, hc, reports, bad, records, points) -> GlobalLedger:
    """Every sum of the ledger of hc, the curve y^2 = f: rank S/I over the
    reports (the real place first), rank C/I over the bad primes, the
    torsion rank and the rank of the points (descent points of hc), all
    read off hc.f and its factors over Q, hc.factors.

    The lower end of the interval is the larger of the torsion rank and
    the rank of the images of the points together with the torsion
    generators (independence_rank), and of the class side less rank C/I.
    The points are imaged at the two primes of split_primes, or, when
    fewer than two below SPLIT_BOUND split f, at the two smallest odd
    primes prime to disc(f): the bound holds at any primes where the
    images are computed, and complete splitting only makes each local
    group as large as it can be.  The class side reads genus theory's
    record for each quadratic factor, whatever is supplied, and a supplied
    record for each field of degree >= 3.

    narrow = wide for every class field lets the infinite place drop out of
    the S/I bound.  Only the records that the class side used certify it,
    so nothing is refined when the class data do not match f.
    """
    notes = [f"I at {place_name(r.place)} is only a lower bound (span "
             "incomplete); the S/I contribution stays an upper bound"
             for r in reports if r.I_is_lower_bound]
    s_over_i = [_log2(r.order_S) - _log2(r.order_I) for r in reports]
    rank_s, inf_contrib = sum(s_over_i), s_over_i[0]
    rank_c = sum(_log2(r.order_C) - _log2(r.order_I) for r in reports
                 if r.place in bad)
    tors2 = len(hc.factors) - 1
    pts_rank, lo = None, tors2
    if points:
        try:
            prs, why = split_primes(hc.f), ""
        except ArithmeticError:
            good = (q for q in itertools.count(3, 2)
                    if hc.discriminant.numerator % q and is_prime(q))
            prs, why = [next(good), next(good)], (
                ", the smallest odd primes prime to disc(f): fewer than two "
                f"below {SPLIT_BOUND} split f")
        pts_rank, analysis = independence_rank(hc, points, prs)
        lo = max(tors2, analysis["rank_with_torsion"])
        notes.append(f"independence primes: {prs}{why}")
    used = []
    try:
        used = _class_records(hc.factors, records or [])
    except ValueError as exc:
        notes.append(f"class data not applicable: {exc}")
    narrow_ok = bool(used) and all(r.narrow_eq_wide for r in used)
    refined = rank_s - inf_contrib if narrow_ok else rank_s
    if narrow_ok and inf_contrib:
        notes.append("narrow = wide certified: infinite-place contribution "
                     "dropped from the S/I bound")
    class_side, hi = None, None
    prov = "not supplied"
    if used:
        class_side = sum(r.two_rank for r in used)
        prov = "; ".join(sorted({r.provenance for r in used}))
        lo = max(lo, class_side - rank_c)
        hi = class_side + refined
    return GlobalLedger(curve, kind, [r.as_dict() for r in reports], rank_s,
                        refined, rank_c, class_side, prov, pts_rank, tors2,
                        (lo, hi), narrow_ok, notes)


def assemble_ledger_hyper(c: HyperellipticCurve, records=None,
                          points=None) -> GlobalLedger:
    """The ledger of the Jacobian of c, from one EtaleAlgebra per place."""
    points = points or []
    bad = c.disc_primes
    reports = []
    for p in [REAL_PLACE, *sorted({2, *bad})]:
        alg = EtaleAlgebra(c.factors, p)
        c_rank = 0 if p == REAL_PLACE else local_torsion_rank(alg)
        i_rank, complete = (local_intersection_rank(alg, points) if c_rank
                            else (0, True))
        reports.append(LocalDescentReport(
            p, 2 ** c_rank, 2 ** local_selmer_rank_hyper(alg), 2 ** i_rank,
            "-", None, I_is_lower_bound=not complete))
    return _ledger(str(c.f), "hyperelliptic", c, reports, bad, records, points)
