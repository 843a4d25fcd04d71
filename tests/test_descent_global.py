"""Rank ledgers at large bad primes: each must finish, with the local
values the Tate curve and Neron's table give."""

import sys
from fractions import Fraction

import pytest

from conftest import DeadlineExceeded
from qdescent import poly, tate
from qdescent.descent_global import (assemble_ledger_elliptic,
                                     assemble_ledger_hyper)
from qdescent.elliptic import curve_from_string
from qdescent.jacobian import HyperellipticCurve
from qdescent.localfields import EtaleAlgebra
from qdescent.poly import local_splitting_type, parse_poly

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
    assert set(r) == {"oo", 2, 1217, 381991, MESTRE_BIG}
    assert r[1217]["C"] == r[381991]["C"] == 2
    for p in (1217, 381991, MESTRE_BIG):
        assert r[p]["kodaira"] == "I1"


def test_large_prime_with_small_coefficients(deadline):
    # disc = 3 * 34271479325879; I_1 at both, and I = 2 on the Tate curve
    # for odd n
    with deadline(30):
        ledger = assemble_ledger_elliptic(
            curve_from_string("[-129,116,116,27,-136]"))
    r = rows(ledger)
    for p in (3, 34271479325879):
        assert r[p]["kodaira"] == "I1"
        assert r[p]["I"] == 2


def test_hyper_ledger_at_large_bad_prime(deadline):
    # disc = 2^4 * 145036349: the quintic has one double root mod p, which
    # resolves into one ramified quadratic piece since v_p(disc) = 1
    f = parse_poly("X^5-7*X^4-2*X^3-8*X^2+8*X-6")
    p = 145036349
    with deadline(30):
        ledger = assemble_ledger_hyper(HyperellipticCurve(f))
        split = local_splitting_type(f, p)
    assert str(p) in rows(ledger)
    assert not split.has_unresolved() and split.degree == 5
    assert sorted(fc.e for fc in split.factors)[-2:] == [1, 2]


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
    assert split_calls and len(split_calls) == len(set(split_calls))


def test_one_etale_algebra_per_place(monkeypatch):
    calls = []
    init = EtaleAlgebra.__init__

    def counted(self, f, p):
        calls.append((f, p))
        init(self, f, p)

    monkeypatch.setattr(EtaleAlgebra, "__init__", counted)
    c = HyperellipticCurve(parse_poly("X^5+16*X^4-274*X^3+817*X^2+178*X+1"))
    points = [("rational", Fraction(x), None) for x in (-17, -9, -6, -2, 0, 4)]
    assemble_ledger_hyper(c, points=points)
    assert calls and len(calls) == len(set(calls))
