"""Tests for the benchmark's own helpers: python3 -m pytest perfbench/tests"""

import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


# ---------------------------------------------------------------------------
# self-time attribution


@pytest.fixture
def clock(monkeypatch):
    now = [0.0]
    monkeypatch.setattr(layertrace, "perf_counter", lambda: now[0])
    return now


def test_self_time_nested_spans(clock):
    t = layertrace.Tracer()

    def inner():
        clock[0] += 2.0

    def outer():
        clock[0] += 1.0
        w_inner()
        w_inner()
        clock[0] += 3.0

    w_inner = t.wrap("L.inner", inner)
    w_outer = t.wrap("L.outer", outer)
    w_outer()
    snap = t.snapshot()
    assert snap["L.outer.calls"] == 1 and snap["L.inner.calls"] == 2
    assert snap["L.outer.self_s"] == 4.0   # 8 s span minus 2 x 2 s inside
    assert snap["L.inner.self_s"] == 4.0
    assert t.stack == []


def test_self_time_recursion_and_exceptions(clock):
    t = layertrace.Tracer()

    def rec(n):
        clock[0] += 1.0
        if n == 0:
            raise KeyError("bottom")
        w_rec(n - 1)

    w_rec = t.wrap("L.rec", rec)
    with pytest.raises(KeyError):
        w_rec(3)
    snap = t.snapshot()
    assert snap["L.rec.calls"] == 4
    assert snap["L.rec.self_s"] == 4.0     # each level charged its own 1 s
    assert t.stack == []


def test_distinct_ratio_and_extras():
    t = layertrace.Tracer()
    f = t.wrap("L.f", lambda x: [x, x], distinct=layertrace._all_args,
               pre=lambda a, k: {"max_digits": len(str(a[0]))},
               post=lambda r: {"elements": len(r)},
               extras=["max_digits", "elements"])
    f(7)
    f(7)
    f(12345)
    f([1, 2])  # unhashable arguments are frozen
    snap = t.snapshot()
    assert snap["L.f.calls"] == 4
    assert snap["L.f.distinct_ratio"] == 3 / 4
    assert snap["L.f.max_digits"] == 6
    assert snap["L.f.elements"] == 8


def test_install_wraps_every_importing_module():
    import mpmath

    import qdescent.descent_global  # noqa: F401
    import qdescent.tfae  # noqa: F401
    from qdescent import descent_local, localfields, tate

    mods = [m for n, m in list(sys.modules.items())
            if n.startswith("qdescent.") and m is not None]
    saved = [(m, dict(vars(m))) for m in mods]
    init, polyroots = localfields.EtaleAlgebra.__init__, mpmath.polyroots
    try:
        t = layertrace.Tracer()
        layertrace.install(t)
        assert descent_local.tate_algorithm is tate.tate_algorithm
        assert tate.tate_algorithm.__wrapped__ is not None
        from qdescent.elliptic import curve_from_string

        descent_local.c2_order(curve_from_string("[0,0,0,-25,0]"),
                               descent_local.TWO_MAP, descent_local.finite(5))
        snap = t.snapshot()
        assert snap["descent_local.c2_order.calls"] == 1
        assert snap["tate.tate_algorithm.calls"] >= 1
        assert set(snap) == set(layertrace.metric_names())
    finally:
        for m, d in saved:
            vars(m).update(d)
        localfields.EtaleAlgebra.__init__ = init
        mpmath.polyroots = polyroots


# ---------------------------------------------------------------------------
# p50, throughput and the time limit


def test_summary_charges_failed_cases():
    passes = [
        {"peak_rss_mb": 20.0, "cases": [
            {"seconds": 0.1, "status": "ok"},
            {"seconds": 0.3, "status": "ok"},
            {"seconds": 6.0, "status": "limit"}]},
        {"peak_rss_mb": 22.0, "cases": [
            {"seconds": 0.2, "status": "ok"},
            {"seconds": 0.4, "status": "error"}]},
    ]
    m = run.summarize(passes, [0.5, 0.7, 0.6])
    assert m["setup_s"] == (0.6, "s")
    assert m["case_p50_ms"][0] == pytest.approx(300.0)   # of 0.1 .. 6.0
    # three completed cases over the 7 s all five took
    assert m["cases_per_s"][0] == pytest.approx(3 / 7.0)
    assert m["peak_rss_mb"] == (21.0, "MB")


def test_time_limit_marks_failed_and_charges_time():
    def spin():
        while True:
            pass

    meter = worker.Meter()
    status, seconds, why = meter.run(spin, 0.2)
    assert status == "limit" and seconds >= 0.2
    status, _, result = meter.run(lambda: 1 // 0, 1.0)
    assert status == "error" and result.startswith("ZeroDivisionError")
    status, _, result = meter.run(lambda: 42, 1.0)
    assert (status, result) == ("ok", 42)
    time.sleep(0.3)  # the disarmed timer must not fire later


def test_meter_scales_by_calibration(monkeypatch):
    # a machine at half the reference speed: every calibration loop takes
    # 2 REF_CAL_S, so 1 s of wall time counts as 0.5 reference seconds and
    # the loops' own time counts for nothing
    clock = [0.0]

    def slow_loop():
        clock[0] += 2 * worker.REF_CAL_S
        return 2 * worker.REF_CAL_S

    def case():
        clock[0] += 1.0
        return "done"

    monkeypatch.setattr(worker, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(worker, "calibrate", slow_loop)
    status, seconds, result = worker.Meter().run(case)
    assert (status, result) == ("ok", "done")
    assert seconds == pytest.approx(0.5)


def test_layer_counts_must_repeat():
    snap = dict.fromkeys(layertrace.metric_names(), 0)
    a = {"layers": snap}
    b = {"layers": dict(snap, **{"tate.tate_algorithm.calls": 1,
                                 "tate.tate_algorithm.self_s": 3.0})}
    got = run.summarize_layers([a, a, dict(a, layers=dict(
        snap, **{"tate.tate_algorithm.self_s": 3.0}))])
    assert got["tate.tate_algorithm.calls"] == (0, "count")
    assert got["tate.tate_algorithm.self_s"] == (0, "s")  # median of 0, 0, 3
    with pytest.raises(RuntimeError):
        run.summarize_layers([a, b])


# ---------------------------------------------------------------------------
# the p >= 5 Kodaira oracle on hand-worked curves


def test_kodaira_I0_star_y2_x3_minus_25x():
    # c4 = -24 b4 = 1200 = 2^4 3 5^2, c6 = 0, Delta = -8 b4^3 = 2^6 5^6
    assert checks.c4_c6_disc([0, 0, 0, -25, 0]) == (1200, 0, 10 ** 6)
    assert checks.kodaira_p_ge5([0, 0, 0, -25, 0], 5) == "I0*"
    # the same curve scaled by u = 5: (v(c4), v(c6), v(Delta)) = (6, oo, 18)
    # is not minimal; one step of (4, 6, 12) brings it back to I0*
    assert checks.kodaira_p_ge5([0, 0, 0, -25 * 5 ** 4, 0], 5) == "I0*"


def test_kodaira_example_III():
    # y^2 = (x - 7)(x - 14)(x - 28): p = 7, (a, b, c) = (1, 2, 4)
    # c4 = 5488 = 2^4 7^3, c6 = 219520 = 2^7 5 7^3,
    # Delta = 16 (7 * 21 * 14)^2 = 2^6 3^2 7^6: additive, v(Delta) = 6
    ainvs = [0, -49, 0, 686, -2744]
    c4, c6, disc = checks.c4_c6_disc(ainvs)
    assert (c4, c6, disc) == (5488, 219520, 2 ** 6 * 3 ** 2 * 7 ** 6)
    assert checks.kodaira_p_ge5(ainvs, 7) == "I0*"
    assert checks.kodaira_p_ge5(ainvs, 5) == "I0"


def test_kodaira_multiplicative():
    # y^2 + y = x^3 - x^2: c4 = 16, Delta = -11, so I1 at 11
    assert checks.c4_c6_disc([0, -1, 1, 0, 0])[0::2] == (16, -11)
    assert checks.kodaira_p_ge5([0, -1, 1, 0, 0], 11) == "I1"
    with pytest.raises(ValueError):
        checks.kodaira_p_ge5([0, -1, 1, 0, 0], 3)


def test_multiplicative_I_tate_curve():
    # the paper's worked examples at 3: I4 split with Delta/3^4 a square
    # gives 2; I4 non-split with 4 | n and Delta/3^4 a square gives 4
    assert checks.multiplicative_I([0, -26, 0, 135, -567], 3) == 2
    assert checks.multiplicative_I([0, 26, 0, 135, 567], 3) == 4
    # the same curves at 23: I2 with Delta/23^2 a non-square, split and
    # non-split, both give 1
    _, c6, disc = checks.c4_c6_disc([0, -26, 0, 135, -567])
    assert checks.vp(disc, 23) == 2 and not checks._square_mod(
        disc // 23 ** 2, 23) and checks._square_mod(-c6, 23)
    assert checks.multiplicative_I([0, -26, 0, 135, -567], 23) == 1
    assert checks.multiplicative_I([0, 26, 0, 135, 567], 23) == 1
    # n odd: I1 at 11 gives 2
    assert checks.multiplicative_I([0, -1, 1, 0, 0], 11) == 2
    # additive, good, the prime 2: no count
    assert checks.multiplicative_I([0, 0, 0, -25, 0], 5) is None
    assert checks.multiplicative_I([0, -1, 1, 0, 0], 5) is None
    assert checks.multiplicative_I([0, -1, 1, 0, 0], 2) is None
    # check_ell compares the ledger's I with it
    case = {"id": "c", "input": {"curve": "[0,-1,1,0,0]"},
            "expect": {"disc_primes": [11]}}
    out = {"reports": [["oo", 1, 2, 1, "-"], ["11", 2, 2, 2, "I1"]],
           "iso": [], "points_rank": None}
    assert checks.check_ell(case, out) == []
    out["reports"][1] = ["11", 2, 2, 1, "I1"]
    assert checks.check_ell(case, out) == [
        "I at 11 is 1, the Tate curve gives 2"]


# ---------------------------------------------------------------------------
# the output checks


def _ell_case():
    return {"id": "c", "input": {"curve": "[0,0,0,-25,0]", "points": [-4, 45]},
            "expect": {"paper_I": {"5": 1}, "disc_primes": [2, 5],
                       "halving": {"5": 1}}}


def test_check_ell_accepts_and_rejects():
    out = {"reports": [["oo", 1, 2, 1, "-"], ["2", 4, 8, 2, "III"],
                       ["5", 4, 4, 1, "I0*"]],
           "iso": [["5", 2, 2, 2, "I0*"]], "points_rank": 2}
    assert checks.check_ell(_ell_case(), out) == []
    bad = dict(out, reports=[["oo", 1, 2, 1, "-"], ["2", 4, 8, 2, "III"],
                             ["5", 4, 2, 4, "I1*"]], points_rank=3)
    errs = checks.check_ell(_ell_case(), bad)
    assert len(errs) == 5  # divisibility, Kodaira, paper, halving, points


def test_check_pairs_only_compares_exact_verdicts():
    cases = [{"id": "f", "expect": {}}, {"id": "g", "expect": {"pair": "f"}}]
    exact = {"certificate": "exact"}
    assert checks.check_pairs(cases, {"f": dict(exact, holds=True),
                                      "g": dict(exact, holds=False)})
    assert not checks.check_pairs(cases, {
        "f": dict(exact, holds=True),
        "g": {"certificate": "sampled", "holds": False}})


def test_check_hyper_lehmer_rules():
    case = {"id": "h",
            "input": {"f": [1, 178, 817, -274, 16, 1],  # Example II
                      "points": ["-17", "0", ["sum", "-2", "4"]]},
            "expect": {"lehmer_n": 4, "ramified": [941],
                       "bad_primes": [191, 941],
                       "selmer": {"2": 4, "oo": 4, "191": 16, "941": 1}}}
    rows = [["oo", 1, 4, 1, "-"], ["2", 1, 4, 1, "-"],
            ["191", 16, 16, ">=4", "-"], ["941", 1, 1, 1, "-"]]
    assert checks.check_hyper(case, {"reports": rows, "points_rank": 3}) == []
    bad = [rows[0], rows[1], ["191", 4, 16, ">=4", "-"], ["941", 1, 1, 2, "-"]]
    errs = checks.check_hyper(case, {"reports": bad, "points_rank": 4})
    assert len(errs) == 3  # C at 191, I at the ramified 941, points rank
    case["input"]["points"].append("5")
    assert any("not a rational square" in e for e in checks.check_hyper(
        case, {"reports": rows, "points_rank": 3}))
