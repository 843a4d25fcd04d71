"""Rank ledgers at large bad primes: each must finish, with the local
values the Tate curve and Neron's table give.  The class-group helpers
against brute force, the JSON form of a ledger, and the ledgers of the
paper's worked examples."""

import json
import random
import sys
from fractions import Fraction
from math import isqrt

import pytest

import forms_oracle
from conftest import DeadlineExceeded
from group_law import add
from qdescent import poly, tate
from qdescent.arith import REAL_PLACE, factor_integer, finite, squarefree_part
from qdescent.descent_global import (ClassRecord, GlobalLedger,
                                     assemble_ledger_elliptic,
                                     assemble_ledger_hyper, bad_primes,
                                     fundamental_discriminant,
                                     fundamental_unit_norm,
                                     genus_2rank_quadratic, parse_class_data,
                                     quadratic_class_record)
from qdescent.descent_local import TWO_MAP, local_descent_report
from qdescent.elliptic import (Pt, curve_from_string,
                               two_division_cubic_integral, velu_isogeny)
from qdescent.jacobian import HyperellipticCurve
from qdescent.localfields import EtaleAlgebra
from qdescent.poly import (discriminant, factor_over_Z, local_splitting_type,
                           parse_poly)

MESTRE = curve_from_string("[0,2597055,357573631,-549082,-19608054]")
MESTRE_BIG = 78031093338905335441668500509


def rows(ledger):
    return {row["place"]: row for row in ledger.local_reports}


def test_deadline_fires(deadline):
    with pytest.raises(DeadlineExceeded):
        with deadline(0.05):
            while True:
                pass


def test_mestre_ledger_finishes(deadline):
    with deadline(30):
        ledger = assemble_ledger_elliptic(MESTRE)
    r = rows(ledger)
    assert set(r) == {"oo", "2", "1217", "381991", str(MESTRE_BIG)}
    assert r["1217"]["C"] == r["381991"]["C"] == 2
    for p in (1217, 381991, MESTRE_BIG):
        assert r[str(p)]["kodaira"] == "I1"


def test_large_prime_with_small_coefficients(deadline):
    # disc = 3 * 34271479325879; I_1 at both, and I = 2 on the Tate curve
    # for odd n
    with deadline(30):
        ledger = assemble_ledger_elliptic(
            curve_from_string("[-129,116,116,27,-136]"))
    r = rows(ledger)
    for p in ("3", "34271479325879"):
        assert r[p]["kodaira"] == "I1"
        assert r[p]["I"] == 2


def test_hyper_ledger_at_large_bad_prime(deadline):
    # disc = 2^4 * 145036349: the quintic has one double root mod p, which
    # resolves into one ramified quadratic piece since v_p(disc) = 1
    f = parse_poly("X^5-7*X^4-2*X^3-8*X^2+8*X-6")
    p = 145036349
    with deadline(30):
        ledger = assemble_ledger_hyper(HyperellipticCurve(f))
        pieces = local_splitting_type(factor_over_Z(f), p)
    assert str(p) in rows(ledger)
    # an unresolved block would have raised
    assert sum(fc.degree for fc in pieces) == 5
    assert sorted(fc.e for fc in pieces)[-2:] == [1, 2]


@pytest.mark.parametrize("f, xs", [
    ("X^5-6*X^4+9*X^3+4*X^2+X+4", []),
    ("X^5-4*X^4+2*X^3+10*X^2-12*X+12", []),
    ("X^5+5*X^4+9*X^3+7*X^2-2*X+12", [-1]),
])
def test_hyper_ledgers_with_blocks_at_2(f, xs):
    # each failed at 2 while repeated factors mod 2 had no single method: a
    # non-linear repeated factor, two fractional slopes, an inert quadratic
    # block whose lift is X^2 mod 2.  Each ledger now has a row at oo, 2
    # and every prime of the discriminant, and S = C * 2^g at 2, S = C at
    # the odd primes (g = 2)
    f = parse_poly(f)
    points = [("rational", Fraction(x), None) for x in xs]
    r = rows(assemble_ledger_hyper(HyperellipticCurve(f), points=points))
    primes = {p for p, _ in factor_integer(int(discriminant(f))).factors}
    assert set(r) == {"oo"} | {str(p) for p in primes | {2}}
    for place, row in r.items():
        if place != "oo":
            assert row["S"] == row["C"] * (4 if place == "2" else 1)


# ---------------------------------------------------------------------------
# each local object is computed once per (curve, place)


def record_calls(monkeypatch, fn):
    """Wrap fn in every qdescent module that imports it; returns the list
    of the argument tuples it is called with."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return fn(*args)

    for name, mod in list(sys.modules.items()):
        if name.startswith("qdescent") and vars(mod).get(fn.__name__) is fn:
            monkeypatch.setattr(mod, fn.__name__, wrapper)
    return calls


def test_one_tate_and_splitting_call_per_place(monkeypatch):
    tate_calls = record_calls(monkeypatch, tate.tate_algorithm)
    split_calls = record_calls(monkeypatch, poly.local_splitting_type)
    assemble_ledger_elliptic(curve_from_string("[0,-26,0,135,-567]"))
    assert {p for _, p in tate_calls} == {2, 3, 23, 239}
    assert len(tate_calls) == len(set(tate_calls))
    split_keys = [(tuple(factors), p) for factors, p in split_calls]
    assert split_keys and len(split_keys) == len(set(split_keys))


EXAMPLE_II = parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1")
EXAMPLE_II_POINTS = [("rational", Fraction(x), None)
                     for x in (-17, -9, -6, -2, 0, 4)]


def test_one_etale_algebra_per_place(monkeypatch):
    calls = []
    init = EtaleAlgebra.__init__

    def counted(self, factors, p):
        calls.append((tuple(factors), p))
        init(self, factors, p)

    monkeypatch.setattr(EtaleAlgebra, "__init__", counted)
    assemble_ledger_hyper(HyperellipticCurve(EXAMPLE_II),
                          points=EXAMPLE_II_POINTS)
    assert calls and len(calls) == len(set(calls))


def test_hyper_ledger_factors_its_polynomial_once(monkeypatch):
    # every place, the torsion rank and the class records read the
    # factors the curve keeps, found from the discriminant it keeps:
    # factor_over_Z, which would compute a second one, also goes through
    # factor_and_scan
    calls = record_calls(monkeypatch, poly.factor_and_scan)
    discs = record_calls(monkeypatch, poly.discriminant)
    assemble_ledger_hyper(HyperellipticCurve(EXAMPLE_II),
                          points=EXAMPLE_II_POINTS)
    assert [args[0] for args in calls] == [EXAMPLE_II]
    assert discs.count((EXAMPLE_II,)) == 1


def test_elliptic_ledger_factors_its_cubic_once(monkeypatch):
    # the torsion rank, the class records, the independence primes, the
    # images of the points and every place's profile read one
    # factorization of the 2-division cubic, kept on the model
    m = curve_from_string("[0,7,0,-26,0]")
    calls = record_calls(monkeypatch, poly.factor_and_scan)
    discs = record_calls(monkeypatch, poly.discriminant)
    assemble_ledger_elliptic(m, [quadratic_class_record(17)], [-8])
    cubic = two_division_cubic_integral(m)
    assert [args[0] for args in calls] == [cubic]
    assert discs.count((cubic,)) == 1


def test_ledger_and_bad_primes_factor_the_discriminant_once(monkeypatch):
    # the primes of the discriminant are kept on the model: the ledger and
    # a later bad_primes read one factorization of its numerator
    m = curve_from_string("[0,0,0,-25,0]")
    calls = record_calls(monkeypatch, factor_integer)
    assemble_ledger_elliptic(m, None, [-4, 45])
    assert bad_primes(m) == [2, 5]
    assert calls.count((m.disc.numerator,)) == 1


@pytest.mark.parametrize("cs, kernel, points", [
    ("[-1,0,-8,0,0]", [(0, 8), (0, 0)], [-2, 0, 4, 8, 60]),  # iso3-2
    ("[0,-6,0,11,0]", [(0, 0)], None)])                       # iso2-2
def test_one_tate_call_per_model_and_prime(monkeypatch, cs, kernel, points):
    # the ledger, bad_primes and the reports of an isogeny at every place
    # read the reduction data that the domain and codomain models keep:
    # Tate runs on the domain at 2 and at each prime of its discriminant,
    # and on the codomain at each bad prime of the domain, once each
    m = curve_from_string(cs)
    phi = velu_isogeny(m, [Pt(Fraction(x), Fraction(y)) for x, y in kernel])
    calls = record_calls(monkeypatch, tate.tate_algorithm)
    assemble_ledger_elliptic(m, None, points)
    bad = bad_primes(m)
    for v in [REAL_PLACE] + [finite(p) for p in bad]:
        local_descent_report(m, phi, v)
    want = ([(m, p) for p in sorted({2, *m.disc_primes})]
            + [(phi.codomain, p) for p in bad])
    assert sorted(calls, key=repr) == sorted(want, key=repr)
    assert all(model is m or model is phi.codomain for model, _ in calls)


# ---------------------------------------------------------------------------
# class-group helpers and the JSON form of a ledger


def squarefree(lo, hi):
    return [d for d in range(lo, hi) if d not in (0, 1)
            and squarefree_part(d) == d]


def test_genus_2rank_against_form_class_groups():
    fields = squarefree(-1000, 1001)
    assert len(fields) == 1215
    for d in fields:
        D = fundamental_discriminant(d)
        assert genus_2rank_quadratic(d) == \
            forms_oracle.narrow_class_group_2rank(D)[1], d


def unit_norm_by_search(d, cap):
    """Norm of the fundamental unit (x + y sqrt D)/2 of Q(sqrt d): the least
    y > 0 with x^2 - D y^2 = -4 or 4 (for equal y the smaller x, so -4
    first).  None when y would exceed cap."""
    D = fundamental_discriminant(d)
    for y in range(1, cap + 1):
        for norm in (-1, 1):
            x2 = D * y * y + 4 * norm
            if isqrt(x2) ** 2 == x2:
                return norm
    return None


def test_fundamental_unit_norm_against_search():
    # 29 of the 182 fields have a unit with y > 10^4, beyond the search
    # (d = 214: y = 47533775646)
    checked = 0
    for d in squarefree(2, 300):
        norm = unit_norm_by_search(d, 10 ** 4)
        if norm is not None:
            assert fundamental_unit_norm(d) == norm, d
            checked += 1
    assert checked == 153


def test_ledger_json_round_trip():
    ell = assemble_ledger_elliptic(curve_from_string("[0,7,0,-26,0]"),
                                   [quadratic_class_record(17)], [-8])
    hyper = assemble_ledger_hyper(
        HyperellipticCurve(parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1")),
        points=[("rational", Fraction(x), None) for x in (-17, -9)])
    assert any(isinstance(row["I"], str) for row in hyper.local_reports)
    for ledger in (ell, hyper):
        d = json.loads(ledger.to_json())
        d["selmer_rank_interval"] = tuple(d["selmer_rank_interval"])
        assert GlobalLedger(**d) == ledger


def test_parse_class_data_checks_genus_theory():
    (rec,) = parse_class_data("# Q(sqrt -5)\nX^2+5 | 1 | yes | table\n")
    assert (rec.two_rank, rec.provenance) == (1, "computed-by-genus-theory")
    with pytest.raises(ValueError, match="contradicts genus theory"):
        parse_class_data("X^2+5 | 0 | yes | table")


def test_parse_class_data_names_each_malformed_line():
    # a flag other than yes/no, a negative or non-integer 2-rank, a
    # reducible polynomial and a wrong field count each raise a ValueError
    # that names the line
    for line in ("X^3-2 | 1 | maybe | src", "X^3-2 | -3 | yes | src",
                 "X^3-X | 0 | no | s", "X^3-2 | one | yes | src",
                 "X^2-4 | 0 | yes | s", "X^2+5 | 1 | yes",
                 "X^9-2 | 0 | yes | s"):
        with pytest.raises(ValueError) as err:
            parse_class_data(f"# a comment\n{line}\n")
        assert repr(line) in str(err.value), line
    (rec,) = parse_class_data("X^3-2 | 0 | No | table")
    assert (rec.two_rank, rec.narrow_eq_wide) == (0, False)


def test_a_cubic_record_sets_the_class_side():
    # y^2 = X^3 - X - 1: f is irreducible, so its one field, of
    # discriminant -23 and class number 1, takes the supplied record that
    # matches f up to a scalar, and skips the one that does not
    records = parse_class_data("X^3-2 | 0 | no | other field\n"
                               "2*X^3-2*X-2 | 0 | yes | cubic tables\n")
    ledger = assemble_ledger_hyper(HyperellipticCurve(parse_poly("X^3-X-1")),
                                   records)
    assert (ledger.class_side_rank, ledger.class_side_provenance) == \
        (0, "cubic tables")
    assert ledger.narrow_refinement_applied
    bare = assemble_ledger_hyper(HyperellipticCurve(parse_poly("X^3-X-1")),
                                 records[:1])
    assert bare.class_side_rank is None
    assert any("no class-group record" in n for n in bare.notes)


def test_narrow_refinement_only_from_applicable_class_data():
    # y^2 = x^3 - 25x: the 2-division cubic splits over Q, so no record
    # applies and the infinite place stays in the S/I bound
    m = curve_from_string("[0,0,0,-25,0]")
    ledger = assemble_ledger_elliptic(m, [quadratic_class_record(-3)])
    assert any("not applicable" in n for n in ledger.notes)
    assert not ledger.narrow_refinement_applied
    assert ledger.bound_rank_S_over_I_refined == \
        assemble_ledger_elliptic(m).bound_rank_S_over_I_refined == 5
    # an irreducible quintic takes no quadratic record
    hyper = assemble_ledger_hyper(HyperellipticCurve(parse_poly("X^5-X+1")),
                                  [quadratic_class_record(-3)])
    assert any("not applicable" in n for n in hyper.notes)
    assert not hyper.narrow_refinement_applied
    # y^2 = x^3 - 2x = x(x^2 - 2): Q(sqrt 2) has a unit of norm -1
    m = curve_from_string("[0,0,0,-2,0]")
    ledger = assemble_ledger_elliptic(m, [quadratic_class_record(2)])
    assert ledger.narrow_refinement_applied
    assert (ledger.bound_rank_S_over_I,
            ledger.bound_rank_S_over_I_refined) == (3, 2)


# ---------------------------------------------------------------------------
# the paper's worked examples (inputs as in the benchmark corpora): ledger
# rows (place, C, S, I, Kodaira), Selmer interval, and the rows of the
# isogeny given by a kernel, at infinity and at each bad prime

WORKED = {
    "worked-1": ("[0,-26,0,135,-567]", None, [24], None,
                 [("oo", 1, 1, 1, "-"), ("2", 1, 2, 1, "II"),
                  ("3", 4, 4, 2, "I4"), ("23", 2, 2, 1, "I2"),
                  ("239", 2, 2, 2, "I1")], (1, None), []),
    "worked-2": ("[0,26,0,135,567]", None, [-19, -18, -9, 1, 27, 37], None,
                 [("oo", 1, 1, 1, "-"), ("2", 1, 2, 1, "IV"),
                  ("3", 4, 4, 4, "I4"), ("23", 2, 2, 1, "I2"),
                  ("239", 2, 2, 2, "I1")], (2, None), []),
    "worked-3": ("[0,0,0,-529,12167]", None, None, None,
                 [("oo", 1, 1, 1, "-"), ("2", 1, 2, 1, "II"),
                  ("23", 2, 2, 1, "I1*")], (0, None), []),
    "worked-4": ("[0,0,0,-529,-12167]", None, [31, 69], None,
                 [("oo", 1, 1, 1, "-"), ("2", 1, 2, 1, "IV"),
                  ("23", 2, 2, 2, "I1*")], (1, None), []),
    "worked-5": ("[0,1,0,4,12]", -23, None, (-2, 0),
                 [("oo", 1, 1, 1, "-"), ("2", 4, 8, 4, "I0*"),
                  ("3", 4, 4, 2, "I2"), ("23", 2, 2, 2, "I1")], (1, 2),
                 [("oo", 1, 2, 1, "-"), ("2", 2, 2, 2, "I0*"),
                  ("3", 2, 1, 1, "I2"), ("23", 2, 4, 2, "I1")]),
    "worked-6": ("[0,0,0,-25,0]", None, [-4, 45], (-5, 0),
                 [("oo", 1, 2, 1, "-"), ("2", 4, 8, 2, "III"),
                  ("5", 4, 4, 1, "I0*")], (3, None),
                 [("oo", 1, 2, 1, "-"), ("2", 2, 2, 1, "III"),
                  ("5", 2, 1, 1, "I0*")]),
    "worked-7": ("[0,0,0,-75,125]", None, [-4], None,
                 [("oo", 1, 2, 1, "-"), ("2", 1, 2, 1, "II"),
                  ("3", 1, 1, 1, "II"), ("5", 1, 1, 1, "I0*")], (1, None),
                 []),
}
# the paper's local I values of the 2-map: (place, #I)
PAPER_I = {"worked-1": ("3", 2), "worked-2": ("3", 4), "worked-3": ("23", 1),
           "worked-4": ("23", 2), "worked-5": ("2", 4), "worked-6": ("5", 1),
           "worked-7": ("5", 1)}


def report_rows(reports):
    return [(str(r["place"]), r["C"], r["S"], r["I"], r.get("kodaira", "-"))
            for r in reports]


@pytest.mark.parametrize("case", sorted(WORKED))
def test_paper_worked_example(case):
    cs, class_d, points, kernel, want, interval, want_iso = WORKED[case]
    m = curve_from_string(cs)
    records = None if class_d is None else [quadratic_class_record(class_d)]
    ledger = assemble_ledger_elliptic(m, records, points)
    got = report_rows(ledger.local_reports)
    assert got == want
    assert PAPER_I[case] in [(place, i) for place, _, _, i, _ in got]
    assert ledger.selmer_rank_interval == interval
    iso = []
    if kernel:
        phi = velu_isogeny(m, [Pt(Fraction(kernel[0]), Fraction(kernel[1]))])
        iso = report_rows(
            local_descent_report(m, phi, v).as_dict()
            for v in [REAL_PLACE] + [finite(p) for p in bad_primes(m)])
    assert iso == want_iso


def test_rational_model_ledger_matches_its_integral_model():
    # y^2 + xy/2 = x^3 - x is y^2 + xy = x^3 - 16x after x -> 4x: the
    # ledger of the rational model (whose 2-division cubic at 5 and 41
    # once kept a denominator) is the ledger of the integral one
    a = assemble_ledger_elliptic(curve_from_string("[1/2,0,0,-1,0]"),
                                 None, [1, -1])
    b = assemble_ledger_elliptic(curve_from_string("[1,0,0,-16,0]"),
                                 None, [4, -4])
    assert report_rows(a.local_reports) == report_rows(b.local_reports)
    assert (a.selmer_rank_interval, a.points_rank_lower) == \
        (b.selmer_rank_interval, b.points_rank_lower)


@pytest.mark.parametrize("case", ["worked-1", "worked-4", "worked-5",
                                  "worked-6"])
def test_ledger_does_not_depend_on_the_model(case):
    # the ledger of the model moved by (r, s, t, u), given the points moved
    # by x -> (x - r)/u^2: the same rows, interval and torsion rank
    cs, class_d, points = WORKED[case][:3]
    m = curve_from_string(cs)
    records = None if class_d is None else [quadratic_class_record(class_d)]
    want = assemble_ledger_elliptic(m, records, points)
    rng = random.Random(17)
    for _ in range(3):
        r, s, t = (rng.randrange(-9, 10) for _ in range(3))
        u = rng.choice((1, Fraction(1, 2), Fraction(1, 3)))
        moved = [(x - r) / u ** 2 for x in points or []] or None
        got = assemble_ledger_elliptic(m.transform(r, s, t, u), records,
                                       moved)
        assert report_rows(got.local_reports) == \
            report_rows(want.local_reports), (r, s, t, u)
        assert (got.selmer_rank_interval, got.torsion_two_rank) == \
            (want.selmer_rank_interval, want.torsion_two_rank), (r, s, t, u)


@pytest.mark.parametrize("case", ["worked-1", "worked-5", "worked-6"])
def test_elliptic_ledger_rows_are_local_reports(case):
    # every row keeps the profile and the evidence of its local report
    m = curve_from_string(WORKED[case][0])
    ledger = assemble_ledger_elliptic(m)
    places = [REAL_PLACE] + [finite(p) for p in sorted({2, *bad_primes(m)})]
    assert ledger.local_reports == [
        local_descent_report(m, TWO_MAP, v).as_dict() for v in places]
    assert all(r["evidence"] for r in ledger.local_reports[1:])


# the curves of the ell-ledger corpus whose 2-division cubic is a linear
# times an irreducible quadratic factor: (curve, class_d, points)
ONE_PLUS_TWO = [("[0,1,0,4,12]", -23, None), ("[0,7,0,-26,0]", 17, [-8]),
                ("[0,-6,0,11,0]", -2, None), ("[0,5,0,-7,0]", 53, None),
                ("[0,-6,0,-20,0]", 29, None), ("[0,18,0,-23,0]", 26, None)]


@pytest.mark.parametrize("cs, class_d, points", ONE_PLUS_TWO)
def test_quadratic_class_side_needs_no_records(cs, class_d, points):
    # genus theory gives the record of the quadratic factor's field
    m = curve_from_string(cs)
    given = assemble_ledger_elliptic(m, [quadratic_class_record(class_d)],
                                     points)
    found = assemble_ledger_elliptic(m, None, points)
    assert found.class_side_rank is not None
    assert (found.class_side_rank, found.selmer_rank_interval[1]) == \
        (given.class_side_rank, given.selmer_rank_interval[1])


def test_points_and_torsion_are_counted_once():
    # y^2 = x(x^2 + ax + b) with a point P and P + T, T = (0, 0): the
    # points and E(Q)[2] span at most 1 + dim E(Q)[2] dimensions of
    # E(Q)/2E(Q), so the points side of lo stays there; lo exceeds it only
    # by the class side, where one applies
    rng = random.Random(16)
    checked = twice = 0
    while checked < 30:
        x0, y0, a = (rng.randrange(1, 13), rng.randrange(1, 40),
                     rng.randrange(-9, 10))
        if y0 * y0 % x0:
            continue
        b = y0 * y0 // x0 - x0 * x0 - a * x0
        if b == 0 or a * a == 4 * b:
            continue
        m = curve_from_string(f"[0,{a},0,{b},0]")
        P = Pt(Fraction(x0), Fraction(y0))
        PT = add(m, P, Pt(Fraction(0), Fraction(0)))
        ledger = assemble_ledger_elliptic(m, None, [P.x, PT.x])
        tors2, lo = ledger.torsion_two_rank, ledger.selmer_rank_interval[0]
        class_lo = (ledger.class_side_rank - ledger.bound_rank_C_over_I
                    if ledger.class_side_rank is not None else 0)
        assert tors2 <= lo <= max(1 + tors2, class_lo), (a, b, x0)
        # the sum that counted the torsion twice
        twice += ledger.points_rank_lower + tors2 > 1 + tors2
        checked += 1
    assert twice >= 10


def test_paper_example_II():
    # y^2 = X^5 + 16X^4 - 274X^3 + 817X^2 + 178X + 1 with its six integral
    # points: S = 4 at oo and 2, C = S = 16 and I at least 4 at 191, and
    # trivial groups at 941
    ledger = assemble_ledger_hyper(
        HyperellipticCurve(parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1")),
        points=[("rational", Fraction(x), None)
                for x in (-17, -9, -6, -2, 0, 4)])
    assert report_rows(ledger.local_reports) == [
        ("oo", 1, 4, 1, "-"), ("2", 1, 4, 1, "-"),
        ("191", 16, 16, ">=4", "-"), ("941", 1, 1, 1, "-")]
    assert ledger.points_rank_lower == 6
    assert ledger.selmer_rank_interval == (6, None)
    # one row shape for both ledgers; the bound sums the rows' S/I ranks,
    # with I read as its lower bound where the span is incomplete
    keys = set(local_descent_report(
        curve_from_string("[0,0,0,-25,0]"), TWO_MAP, REAL_PLACE).as_dict())
    assert all(set(r) == keys for r in ledger.local_reports)
    lower_i = [int(str(r["I"]).removeprefix(">="))
               for r in ledger.local_reports]
    assert ledger.bound_rank_S_over_I == sum(
        (r["S"] // i).bit_length() - 1
        for r, i in zip(ledger.local_reports, lower_i)) == 6


def test_a_local_root_gives_no_ledger_bound():
    # y^2 = (x-7)(x-3)(x-8)(x-6)(x+10): the torsion rank is 4, and alpha:1
    # and alpha:2, which name different roots at the two independence
    # primes, once raised lo to 6
    curve = HyperellipticCurve(
        parse_poly("X^5-14*X^4-31*X^3+1316*X^2-6732*X+10080"))
    assert assemble_ledger_hyper(curve).selmer_rank_interval == (4, None)
    with pytest.raises(ValueError, match=r"point \(alpha_1\)"):
        assemble_ledger_hyper(curve, points=[("alpha", 1), ("alpha", 2)])


def test_genus_theory_wins_over_a_supplied_quadratic_record():
    # y^2 = x^3 - 2x: the 2-division cubic is U(U^2 - 32), and a supplied
    # record for X^2 - 32 with a wrong 2-rank is not read
    m = curve_from_string("[0,0,0,-2,0]")
    bogus = ClassRecord(parse_poly("X^2-32"), 5, True, "bogus")
    ledger = assemble_ledger_elliptic(m, [bogus])
    assert ledger.selmer_rank_interval == (1, 2)
    assert (ledger.class_side_rank, ledger.class_side_provenance) == \
        (0, "computed-by-genus-theory")
    assert ledger == assemble_ledger_elliptic(m)


def test_a_septic_ledger_without_split_primes():
    # no two primes below SPLIT_BOUND split this septic, so the points are
    # imaged at the two smallest odd primes prime to disc(f), 5 and 7 (3
    # divides it), and the ledger completes
    f = parse_poly("X^7+3*X^5-2*X^4+5*X^3-X^2+4*X+1")
    with pytest.raises(ArithmeticError):
        poly.split_primes(f)
    curve = HyperellipticCurve(f)
    assert curve.disc_primes[0] == 3
    ledger = assemble_ledger_hyper(
        curve, points=[("rational", Fraction(0), Fraction(1))])
    assert ledger.points_rank_lower == 1
    assert ledger.selmer_rank_interval == (1, None)
    assert any(n.startswith("independence primes: [5, 7], the smallest odd "
                            "primes prime to disc(f)") for n in ledger.notes)
