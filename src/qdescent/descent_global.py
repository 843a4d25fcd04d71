"""Global assembly: divisibility bounds, class-group input, rank ledgers.

The global quotients S/I and C/I inject into the product of their local
counterparts; summing F_2-ranks of the local quotients over the relevant
places gives upper bounds.  Combining the C-side bound with class-group
2-rank input and a point-independence lower bound yields an interval for
the 2-Selmer rank.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction

from .arith import (REAL_PLACE, factor_integer, finite, is_prime,
                    squarefree_part)
from .descent_local import TWO_MAP, finite_descent_report, s2_real
from .elliptic import WeierstrassModel, two_division_cubic_integral
from .jacobian import (HyperellipticCurve, independence_rank,
                       local_intersection_rank, local_selmer_rank_hyper,
                       local_torsion_rank)
from .localfields import EtaleAlgebra
from .poly import (RatPoly, discriminant, factor_over_Z, fp_poly, mp_pow_mod,
                   parse_poly)
from .tate import tate_algorithm

_PERIOD_BOUND = 10 ** 6  # longest continued-fraction period followed


def _disc_primes(m: WeierstrassModel) -> list[int]:
    """The primes dividing the discriminant of the model, ascending."""
    return sorted({p for n in (m.disc.numerator, m.disc.denominator)
                   for p, _ in factor_integer(n).factors})


def bad_primes(m: WeierstrassModel) -> list[int]:
    """Primes of bad reduction: disc support filtered through minimality."""
    return [p for p in _disc_primes(m)
            if tate_algorithm(m, p).kodaira.letter != "I0"]


def divis_bounds(m: WeierstrassModel):
    """Upper bounds for rank S/I and rank C/I of the 2-map, with breakdown.

    Returns (rank_S_over_I, rank_C_over_I, breakdown) where breakdown lists
    per-place dictionaries.  The S/I sum runs over the infinite place and
    the divisors of 2 * conductor; the C/I sum over conductor primes.
    """
    # one ReductionData per prime: it decides badness and builds the report
    rds = {p: tate_algorithm(m, p) for p in sorted({2, *_disc_primes(m)})}
    bp = [p for p, rd in rds.items() if rd.kodaira.letter != "I0"]
    places = sorted(set(bp) | {2})
    breakdown = []
    rank_s = 0
    rank_c = 0
    # real place
    s_inf = s2_real(m, TWO_MAP)
    a2_inf = 4 if m.disc > 0 else 2
    rank_s += _log2(s_inf)
    breakdown.append({"place": "oo", "C": 1, "S": s_inf, "I": 1,
                      "torsion2": a2_inf, "rank_S_over_I": _log2(s_inf),
                      "rank_C_over_I": 0})
    for p in places:
        rep = finite_descent_report(m, TWO_MAP, rds[p])
        rs = _log2(rep.order_S // rep.order_I)
        rc = _log2(rep.order_C // rep.order_I)
        rank_s += rs
        if p in bp:
            rank_c += rc
        breakdown.append({"place": p, "C": rep.order_C, "S": rep.order_S,
                          "I": rep.order_I, "kodaira": rep.kodaira,
                          "torsion2": rep.order_C,
                          "rank_S_over_I": rs,
                          "rank_C_over_I": rc if p in bp else 0})
    # internal consistency with the product over #E[2]/#I (the two product
    # forms agree after redistributing the factors at 2 and infinity)
    prod_a = a2_inf
    prod_b = s_inf
    for row in breakdown[1:]:
        prod_a *= row["torsion2"] // row["I"]
        prod_b *= row["S"] // row["I"]
    assert prod_a == prod_b, "divisibility product forms disagree"
    return rank_s, rank_c, breakdown


def _log2(n: int) -> int:
    assert n & (n - 1) == 0, f"{n} is not a power of 2"
    return n.bit_length() - 1


# ---------------------------------------------------------------------------
# quadratic class groups by genus theory


def fundamental_discriminant(d: int) -> int:
    d = squarefree_part(d)
    return d if d % 4 == 1 else 4 * d


def genus_2rank_quadratic(d: int) -> int:
    """2-rank of the narrow class group of Q(sqrt d), d squarefree != 0, 1.

    Genus theory: t - 1, with t the number of primes dividing the
    fundamental discriminant.
    """
    d = int(d)
    if d in (0, 1):
        raise ValueError("d must be squarefree and different from 0, 1")
    if squarefree_part(d) != d:
        raise ValueError("d must be squarefree")
    D = fundamental_discriminant(d)
    t = len(factor_integer(abs(D)).factors)
    return t - 1


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
    """One record per line: "poly | 2rank | narrow_eq_wide | source"."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [t.strip() for t in line.split("|")]
        if len(parts) != 4:
            raise ValueError(f"bad class-data line: {line!r}")
        poly = parse_poly(parts[0])
        rec = ClassRecord(poly, int(parts[1]),
                          parts[2].lower() in ("yes", "true", "1"), parts[3])
        if poly.degree == 2:
            dsc = discriminant(poly)
            d = squarefree_part(dsc.numerator * dsc.denominator)
            expected = genus_2rank_quadratic(d)
            if rec.two_rank != expected:
                raise ValueError(
                    f"quadratic record {parts[0]}: 2-rank {rec.two_rank} "
                    f"contradicts genus theory ({expected})")
            rec = ClassRecord(poly, expected, narrow_equals_wide(d),
                              "computed-by-genus-theory")
        out.append(rec)
    return out


def quadratic_class_record(d: int) -> ClassRecord:
    """Synthesize the record for Q(sqrt d) by genus theory."""
    return ClassRecord(RatPoly([-d, 0, 1]), genus_2rank_quadratic(d),
                       narrow_equals_wide(d), "computed-by-genus-theory")


def _class_records(f: RatPoly, records: list[ClassRecord]) -> list[ClassRecord]:
    """The records whose 2-ranks sum to the F_2-rank of the global
    unramified group.

    Supported patterns (base field Q): a single field F (f irreducible: the
    record of F) and one linear factor times k conjugate-field factors
    (the records of the constituents).  Raises ValueError otherwise.
    """
    factors = factor_over_Z(f.monic())
    if len(factors) == 1:
        return [_find_record(records, factors[0])]
    if sum(1 for h in factors if h.degree == 1) != 1:
        raise ValueError("pattern outside the supported shapes: need one "
                         "linear factor (or irreducible f); explicit "
                         "unramified generators are not supported")
    return [_find_record(records, h) for h in factors if h.degree >= 2]


def _find_record(records, h: RatPoly) -> ClassRecord:
    for rec in records:
        if rec.poly.monic() == h.monic():
            return rec
    if h.degree == 2:
        dsc = discriminant(h)
        return quadratic_class_record(squarefree_part(dsc.numerator
                                                      * dsc.denominator))
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
    notes = []
    rank_s, rank_c, breakdown = divis_bounds(m)
    cubic = two_division_cubic_integral(m)
    tors2 = sum(1 for h in factor_over_Z(cubic) if h.degree == 1)
    tors2 = _log2({0: 1, 1: 2, 3: 4}[tors2])
    pts_rank = None
    if points:
        hc = HyperellipticCurve(cubic)
        prs = _independence_primes(cubic, 2)
        upts = [("rational", 4 * Fraction(x), None) for x in points]
        pts_rank, _ = independence_rank(hc, upts, prs)
        notes.append(f"independence primes: {prs}")
    return _ledger(str(m), "elliptic", cubic, breakdown, rank_s,
                   breakdown[0]["rank_S_over_I"], rank_c, records, pts_rank,
                   tors2, notes)


def _ledger(curve, kind, f, reports, rank_s, inf_contrib, rank_c, records,
            pts_rank, tors2, notes) -> GlobalLedger:
    """The class side, the narrow refinement and the Selmer interval.

    narrow = wide for every class field lets the infinite place drop out of
    the S/I bound.  Only the records that the class side used certify it,
    so nothing is refined when the class data do not apply to f.
    """
    used = []
    if records:
        try:
            used = _class_records(f, records)
        except ValueError as exc:
            notes.append(f"class data not applicable: {exc}")
    narrow_ok = bool(used) and all(r.narrow_eq_wide for r in used)
    refined = rank_s - inf_contrib if narrow_ok else rank_s
    if narrow_ok and inf_contrib:
        notes.append("narrow = wide certified: infinite-place contribution "
                     "dropped from the S/I bound")
    class_side, hi = None, None
    prov = "not supplied"
    lo = 0 if pts_rank is None else pts_rank + tors2
    if used:
        class_side = sum(r.two_rank for r in used)
        prov = "; ".join(sorted({r.provenance for r in used}))
        lo = max(lo, class_side - rank_c)
        hi = class_side + refined
    return GlobalLedger(curve, kind, reports, rank_s, refined, rank_c,
                        class_side, prov, pts_rank, tors2, (lo, hi),
                        narrow_ok, notes)


def _independence_primes(f: RatPoly, count: int):
    """Smallest odd primes where the monic f of degree >= 2 splits
    completely into distinct linear factors mod p (full local data), so p
    does not divide the discriminant: those where f divides X^p - X."""
    out = []
    p = 3
    while len(out) < count and p < 10 ** 4:
        if is_prime(p) and mp_pow_mod([0, 1], p, fp_poly(f, p), p) == [0, 1]:
            out.append(p)
        p += 2
    if len(out) < count:
        raise ArithmeticError("could not find split primes for independence")
    return out


def assemble_ledger_hyper(c: HyperellipticCurve, records=None,
                          points=None) -> GlobalLedger:
    points = points or []
    notes = []
    bp = c.bad_primes()
    places = [REAL_PLACE] + [finite(p) for p in sorted(set(bp) | {2})]
    reports = []
    rank_s_bound = 0
    rank_c_bound = 0
    inf_contrib = 0
    for v in places:
        alg = EtaleAlgebra(c.f, v.p)
        s_rank = local_selmer_rank_hyper(alg)
        if v.is_real:
            i_rank, complete = 0, True
            c_rank = 0
        else:
            c_rank = local_torsion_rank(alg)
            if c_rank == 0:
                i_rank, complete = 0, True
            else:
                i_rank, complete = local_intersection_rank(alg, points)
        contrib = s_rank - i_rank
        if not complete:
            notes.append(f"I at {v!r} is only a lower bound (span incomplete);"
                         " the S/I contribution stays an upper bound")
        rank_s_bound += contrib
        if v.is_real:
            inf_contrib = contrib
        elif v.p in bp:
            rank_c_bound += c_rank - i_rank
        reports.append({"place": repr(v), "C": 2 ** c_rank, "S": 2 ** s_rank,
                        "I": (2 ** i_rank if complete else
                              f">={2 ** i_rank}"),
                        "kodaira": "-"})
    tors2 = len(factor_over_Z(c.f)) - 1
    pts_rank = None
    if points:
        prs = _independence_primes(c.f, 2)
        pts_rank, _ = independence_rank(c, points, prs)
        notes.append(f"independence primes: {prs}")
    return _ledger(str(c.f), "hyperelliptic", c.f, reports, rank_s_bound,
                   inf_contrib, rank_c_bound, records, pts_rank, tors2, notes)
