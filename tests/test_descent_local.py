import math
import random
from fractions import Fraction

import pytest

from group_law import INF, map_point, moved, points, scalar_mul
from qdescent.arith import (REAL_PLACE, finite, is_prime, square_class,
                            valuation)
from qdescent.descent_global import bad_primes
from qdescent.descent_local import (TWO_MAP, _cubic_deg_L_data, c2_order,
                                    i2_oracle_halving, i2_order,
                                    local_descent_report,
                                    s2_order_isogeny, s2_order_two_map,
                                    s2_real, three_torsion_count,
                                    torsion_field_profile)
from qdescent.elliptic import (IsogenyMap, Pt, compute_invariants,
                               curve_from_string, two_division_cubic_integral,
                               velu_isogeny)
from qdescent.poly import (UnresolvedSplitting, factor_over_Z,
                           local_splitting_type)
from test_elliptic import corpus_velu_maps

MESTRE = curve_from_string("[0,2597055,357573631,-549082,-19608054]")
E189 = curve_from_string("[0,0,0,-189,1269]")


def curve(s):
    return curve_from_string(s)


def profile(m, phi, p):
    return torsion_field_profile(m, phi, p)


def i2(m, phi, p):
    return i2_order(m.reduction(p), phi, profile(m, phi, p))


def s2_iso(phi, p):
    return s2_order_isogeny(phi, profile(phi.domain, phi, p))


def s2_iso_rational(phi, p):
    """The oracle for s2_order_isogeny: its formula on the rational Neron
    scalings u/d, the u of each model's integer change of coordinates to
    its minimal model over the model's denominator d."""
    prof = profile(phi.domain, phi, p)
    rd, rd_cod = phi.domain.reduction(p), phi.codomain.reduction(p)
    u, u_cod = (Fraction(x.transform[3], e.denominator)
                for x, e in ((rd, phi.domain), (rd_cod, phi.codomain)))
    abs_val = Fraction(p) ** (valuation(u, p) - valuation(u_cod, p))
    order = 1 / abs_val * prof.rational_order * Fraction(rd_cod.c_p, rd.c_p)
    assert order.denominator == 1
    return int(order)


# ---------------------------------------------------------------------------
# the seven intersection orders of the worked examples


def test_i2_values_paper():
    assert i2(curve("[0,-26,0,135,-567]"), TWO_MAP, 3)[0] == 2
    assert i2(curve("[0,26,0,135,567]"), TWO_MAP, 3)[0] == 4
    assert i2(curve("[0,0,0,-529,12167]"), TWO_MAP, 23)[0] == 1
    assert i2(curve("[0,0,0,-529,-12167]"), TWO_MAP, 23)[0] == 2
    assert i2(curve("[0,1,0,4,12]"), TWO_MAP, 2)[0] == 4
    assert i2(curve("[0,0,0,-25,0]"), TWO_MAP, 5)[0] == 1
    assert i2(curve("[0,0,0,-75,125]"), TWO_MAP, 5)[0] == 1


def test_i2_good_reduction_case():
    # at good odd reduction I = #E(Q_p)[2]
    m = curve("[0,0,0,-25,0]")
    for p in (3, 7, 11, 13):
        if valuation(m.disc, p) == 0:
            assert i2(m, TWO_MAP, p)[0] == c2_order(m, TWO_MAP, finite(p))


def test_c2_orders():
    for p in (1217, 381991):
        assert c2_order(MESTRE, TWO_MAP, finite(p)) == 2
    assert c2_order(MESTRE, TWO_MAP, finite(2)) == 1
    assert c2_order(MESTRE, TWO_MAP, REAL_PLACE) == 1
    assert c2_order(curve("[0,0,0,-25,0]"), TWO_MAP, finite(5)) == 4


def fp_torsion_count(m, n, p):
    """#E(F_p)[n] by enumerating E(F_p)."""
    return sum(1 for P in points(m, p) if scalar_mul(m, n, P, p) is INF)


def test_torsion_count_against_point_enumeration():
    # at a good prime p not dividing n, reduction maps E(Q_p)[n] onto
    # E(F_p)[n]; [9,-7,6,-1,-8] has E(F_7) = (Z/3)^2 and #E(F_19) = 22
    m = curve("[9,-7,6,-1,-8]")
    assert three_torsion_count(m, 7) == 9
    assert three_torsion_count(m, 19) == 1
    # good at 2, with 3 in the denominators of the depressed model
    for a in ([6, -2, 3, 8, -6], [-4, -8, -7, 8, 3], [-2, -6, -5, 0, 5]):
        m = compute_invariants(*a)
        assert valuation(m.disc, 2) == 0
        assert three_torsion_count(m, 2) == fp_torsion_count(m, 3, 2), a
    rng = random.Random(31)
    done = 0
    while done < 30:
        a = [rng.randrange(-9, 10) for _ in range(5)]
        p = rng.choice([5, 7, 11, 13, 17, 19, 23])
        try:
            m = compute_invariants(*a)
        except ValueError:
            continue
        if valuation(m.disc, p) != 0:
            continue
        assert three_torsion_count(m, p) == fp_torsion_count(m, 3, p), \
            (m, p)
        done += 1


def test_torsion_count_at_2_and_3():
    # the depressed model y^2 = x^3 + Ax + B has 2s and 3s in the
    # denominators of A and B: the count must come out, or give up by name;
    # only p = 2 is checked against F_p (at p = 3, 3 | n), so 100 curves
    # are drawn to reach 40 checks
    rng = random.Random(5)
    checked = 0
    for _ in range(100):
        a = [rng.randrange(-9, 10) for _ in range(5)]
        try:
            m = compute_invariants(*a)
        except ValueError:
            continue
        for p in (2, 3):
            try:
                got = three_torsion_count(m, p)
            except UnresolvedSplitting:
                continue
            if p != 3 and valuation(m.disc, p) == 0:
                assert got == fp_torsion_count(m, 3, p), (a, p)
                checked += 1
    assert checked >= 40


def test_three_torsion_at_3_resolves_and_ignores_the_model():
    # psi_3 on an integral model needs only the scaling X = 3x, so the
    # y-square test keeps the digits of the roots; the count is a property
    # of the curve, unchanged by a change of coordinates
    rng = random.Random(5)
    done = 0
    while done < 200:
        a = [rng.randrange(-9, 10) for _ in range(5)]
        try:
            m = compute_invariants(*a)
        except ValueError:
            continue
        r, s, t = (rng.randrange(-9, 10) for _ in range(3))
        u = rng.choice((1, -1, 2, -2))
        assert three_torsion_count(m.transform(r, s, t, u), 3) \
            == three_torsion_count(m, 3), (a, r, s, t, u)
        done += 1


def test_s2_orders():
    assert s2_order_two_map(profile(MESTRE, TWO_MAP, 2)) == 2
    assert s2_order_two_map(profile(curve("[0,0,0,-25,0]"), TWO_MAP, 5)) == 4
    # trivial local 2-torsion at an odd prime
    assert s2_order_two_map(profile(curve("[0,0,1,-1,0]"), TWO_MAP, 7)) == 1


def test_s2_real():
    assert s2_real(MESTRE, TWO_MAP) == 1  # disc < 0
    m = curve("[0,-1,0,-2,0]")  # y^2 = (x+1)x(x-2), disc > 0
    assert s2_real(m, TWO_MAP) == 2
    # odd-degree isogeny: always trivial
    phi3 = velu_isogeny(E189, [Pt(Fraction(3), Fraction(27)),
                               Pt(Fraction(3), Fraction(-27))])
    assert s2_real(E189, phi3) == 1
    # 2-isogeny by the middle root: (a,0) not in the kernel -> trivial;
    # by the least root: order 2
    least = velu_isogeny(m, [Pt(Fraction(-1), Fraction(0))])
    mid = velu_isogeny(m, [Pt(Fraction(0), Fraction(0))])
    assert s2_real(m, least) == 2
    assert s2_real(m, mid) == 1


def test_s2_isogeny_31():
    phi = velu_isogeny(E189, [Pt(Fraction(3), Fraction(27)),
                              Pt(Fraction(3), Fraction(-27))])
    assert s2_iso(phi, 31) == 9  # 1 * 3 * (3/1)
    # the 2-map at a good odd prime with full rational 2-torsion: |2|_3 = 1
    assert s2_order_two_map(profile(curve("[0,0,0,-25,0]"), TWO_MAP, 3)) == 4
    # 2-isogeny with rational kernel at a good odd prime
    m2 = curve("[0,-1,0,-2,0]")
    psi = velu_isogeny(m2, [Pt(Fraction(0), Fraction(0))])
    for p in (5, 7, 11):
        if valuation(m2.disc, p) == 0 and valuation(psi.codomain.disc, p) == 0:
            assert s2_iso(psi, p) == 2
    # the order in ints, with each Neron scaling read off v(disc), is the
    # oracle's at 2, at 3 and at every disc prime of both curves of the
    # benchmark corpus' Velu maps
    checked = 0
    for phi in corpus_velu_maps():
        for p in sorted({2, 3, *phi.domain.disc_primes,
                         *phi.codomain.disc_primes}):
            assert s2_iso(phi, p) == s2_iso_rational(phi, p), (phi.domain, p)
            checked += 1
    assert checked == 56


def test_an_isogeny_is_reported_on_its_own_domain():
    # the report reads the model's reduction and psi2 at phi's kernel x, so
    # a model other than phi.domain is refused: read on [0,-1,0,-2,0] moved
    # by r = 5, phi's x0 gave S = 1 at infinity and I = 1 at 2, and broke
    # "I must divide gcd(C, S)" at 3
    m = curve("[0,-1,0,-2,0]")
    phi = velu_isogeny(m, [Pt(Fraction(-1), Fraction(0))])
    other = m.transform(r=5)
    orders = {REAL_PLACE: (1, 2, 1), finite(2): (2, 4, 2),
              finite(3): (2, 1, 1)}
    for v, want in orders.items():
        rep = local_descent_report(m, phi, v)
        assert (rep.order_C, rep.order_S, rep.order_I) == want
        with pytest.raises(ValueError, match="not from"):
            local_descent_report(other, phi, v)
    with pytest.raises(ValueError, match="not from"):
        s2_real(other, phi)
    with pytest.raises(ValueError, match="not from"):
        torsion_field_profile(other, phi, 3)
    with pytest.raises(ValueError, match="not from"):
        c2_order(other, phi, finite(2))


def test_torsion_field_profile_examples():
    prof = profile(curve("[0,0,0,-75,125]"), TWO_MAP, 5)
    assert prof.m == 2 and prof.deg_Lprime == 3 and prof.deg_M == 6
    assert any(len(c) == 3 for c in prof.tau_permutation)  # 3-cycle
    prof = profile(curve("[0,0,0,-529,12167]"), TWO_MAP, 23)
    assert prof.m == 2 and prof.deg_M == 2
    assert sum(1 for k in prof.kernel_points if k.residue_degree == 1) == 1
    # full rational 2-torsion at a good odd prime
    prof = profile(curve("[0,0,0,-25,0]"), TWO_MAP, 7)
    assert prof.m == 2 and prof.deg_Lprime == 1 and prof.deg_M == 2
    assert all(k.residue_degree == 1 for k in prof.kernel_points)


def test_oracle_matches_paper_cases():
    # applicable instances of the worked examples
    for cs, p, expected in [("[0,0,0,-25,0]", 5, 1),
                            ("[0,0,0,-75,125]", 5, 1)]:
        got, ev = i2_oracle_halving(curve(cs), p)
        assert got == expected
        assert got == i2(curve(cs), TWO_MAP, p)[0]


def test_oracle_vs_i2_on_52_suite():
    # run the oracle across the odd-p worked examples; whenever applicable
    # it must agree with the case-analysis computation
    cases = [("[0,-26,0,135,-567]", 3), ("[0,26,0,135,567]", 3),
             ("[0,0,0,-529,12167]", 23), ("[0,0,0,-529,-12167]", 23),
             ("[0,0,0,-25,0]", 5), ("[0,0,0,-75,125]", 5)]
    applicable = 0
    for cs, p in cases:
        got, ev = i2_oracle_halving(curve(cs), p)
        if got == "inapplicable":
            continue
        applicable += 1
        assert got == i2(curve(cs), TWO_MAP, p)[0], (cs, p, ev)
    assert applicable >= 2


# the places where the oracle once read I = 2 from a model that was not
# generated by its lift, against I = 1 from the Tate curve
TATE_PLACES = [("[0,-26,0,135,-567]", 23), ("[0,26,0,135,567]", 23),
               ("[0,7,0,-26,0]", 3), ("[1,0,-9,0,0]", 3)]


@pytest.mark.parametrize("cs, p", TATE_PLACES)
def test_oracle_does_not_contradict_the_tate_curve(cs, p):
    got, ev = i2_oracle_halving(curve(cs), p)
    assert got in ("inapplicable", 1), ev
    assert i2(curve(cs), TWO_MAP, p)[0] == 1


def test_oracle_vs_i2_at_odd_multiplicative_places():
    # seeded curves with rational 2-torsion: wherever the oracle applies at
    # an odd place of multiplicative reduction it gives the ledger's I
    rng = random.Random(31)
    compared = 0
    for _ in range(60):
        a, b = rng.randrange(-30, 31), rng.randrange(-30, 31)
        try:
            m = curve(f"[0,{a},0,{b},0]")
        except ValueError:
            continue
        for p in bad_primes(m):
            rd = m.reduction(p)
            if p == 2 or rd.kodaira.letter != "I":
                continue
            got, ev = i2_oracle_halving(m, p)
            if got != "inapplicable":
                assert got == i2(m, TWO_MAP, p)[0], (a, b, p, ev)
                compared += 1
    assert compared >= 20


def test_oracle_reads_nothing_of_the_case_analysis(monkeypatch):
    # the oracle is the Jacobian's intersection rank on the rational
    # 2-torsion: no profile, S order or I of the Kodaira-side computation
    from qdescent import descent_local

    def refuse(*args):
        raise AssertionError("the oracle read the case analysis")

    for name in ("two_map_kernel_profile", "torsion_field_profile",
                 "s2_order_two_map", "i2_order"):
        monkeypatch.setattr(descent_local, name, refuse)
    assert i2_oracle_halving(curve("[0,0,0,-25,0]"), 5)[0] == 1
    assert i2_oracle_halving(curve("[0,0,0,-75,125]"), 5)[0] == 1
    assert i2_oracle_halving(curve("[0,0,0,-529,12167]"), 23)[0] \
        == "inapplicable"


def test_oracle_splits_the_cubic_once(monkeypatch):
    from qdescent import descent_local, localfields, poly

    calls = []

    def counted(factors, p):
        calls.append((factors, p))
        return poly.local_splitting_type(factors, p)

    for mod in (descent_local, localfields):
        monkeypatch.setattr(mod, "local_splitting_type", counted)
    i2_oracle_halving(curve("[0,0,0,-25,0]"), 5)
    assert len(calls) == 1


def test_example_III_family():
    rng = random.Random(11)
    odd_primes = [q for q in range(5, 100) if is_prime(q)]
    done = 0
    while done < 12:
        p = rng.choice(odd_primes)
        a, b, c = rng.sample(range(1, p), 3)
        if (a - b) % p == 0 or (a - c) % p == 0 or (b - c) % p == 0:
            continue
        # y^2 = (x - pa)(x - pb)(x - pc)
        e1, e2, e3 = p * a, p * b, p * c
        s1 = e1 + e2 + e3
        s2 = e1 * e2 + e1 * e3 + e2 * e3
        s3 = e1 * e2 * e3
        m = curve(f"[0,{-s1},0,{s2},{-s3}]")
        rd = m.reduction(p)
        assert rd.kodaira.symbol() == "I0*"
        assert c2_order(m, TWO_MAP, finite(p)) == 4
        assert s2_order_two_map(profile(m, TWO_MAP, p)) == 4
        assert i2(m, TWO_MAP, p)[0] == 1
        got, ev = i2_oracle_halving(m, p)
        assert got == 1, ev
        done += 1


def test_sweep_C_equals_S_equals_I_good_primes():
    rng = random.Random(23)
    done = 0
    while done < 40:
        a = rng.randrange(-15, 16)
        b = rng.randrange(-15, 16)
        try:
            m = curve(f"[0,0,0,{a},{b}]")
        except ValueError:
            continue
        p = rng.choice([3, 5, 7, 11, 13, 17])
        if valuation(m.disc, p) != 0:
            continue
        C = c2_order(m, TWO_MAP, finite(p))
        S = s2_order_two_map(profile(m, TWO_MAP, p))
        I = i2(m, TWO_MAP, p)[0]
        assert C == S == I
        done += 1


def test_I_divides_gcd_C_S():
    import math

    rng = random.Random(29)
    done = 0
    while done < 25:
        a = rng.randrange(-20, 21)
        b = rng.randrange(-20, 21)
        try:
            m = curve(f"[0,0,0,{a},{b}]")
        except ValueError:
            continue
        for p in (2, 3, 5, 7):
            try:
                rep = local_descent_report(m, TWO_MAP, finite(p))
            except Exception:
                raise
            assert rep.order_C % rep.order_I == 0
            assert rep.order_S % rep.order_I == 0
        done += 1


def test_local_report_shape():
    rep = local_descent_report(curve("[0,0,0,-25,0]"), TWO_MAP, finite(5))
    assert (rep.order_C, rep.order_S, rep.order_I) == (4, 4, 1)
    assert rep.kodaira == "I0*"
    d = rep.as_dict()
    assert d["C"] == 4 and d["I"] == 1
    real = local_descent_report(curve("[0,0,0,-25,0]"), TWO_MAP, REAL_PLACE)
    assert (real.order_C, real.order_S, real.order_I) == (1, 2, 1)


# ---------------------------------------------------------------------------
# the membership cases a singular kernel point cannot reach


def seeded_curves(rng, count, invariants, singular):
    """count curves [a1, a2, a3, a4, a6] = invariants(a, b), with |a|, |b|
    <= 60 drawn from rng, skipping those for which singular(a, b) holds."""
    out = []
    while len(out) < count:
        a, b = rng.randint(-60, 60), rng.randint(-60, 60)
        if not singular(a, b):
            out.append((b, curve(str(invariants(a, b)))))
    return out


def test_odd_I_nu_has_no_singular_two_torsion():
    # y^2 = x(x^2 + ax + b): a singular 2-torsion point maps to an element
    # of order 2 of the component group, which Z/nu lacks for odd nu, so
    # every report, of the 2-map and of the 2-isogeny with kernel (0, 0),
    # completes without reaching the assertion that names the type
    family = seeded_curves(random.Random(26), 60,
                           lambda a, b: [0, a, 0, b, 0],
                           lambda a, b: b == 0 or a * a == 4 * b)
    odd = 0
    for _, m in family:
        phi = velu_isogeny(m, [Pt(Fraction(0), Fraction(0))])
        for p in sorted({2, *bad_primes(m)}):
            kt = m.reduction(p).kodaira
            if kt.letter == "I" and kt.nu % 2:
                odd += 1
                prof = profile(m, TWO_MAP, p)
                assert not any(pt.singular for pt in prof.kernel_points
                               if pt.residue_degree >= 1), (m, p)
            for map_ in (TWO_MAP, phi):
                local_descent_report(m, map_, finite(p))
    assert odd >= 50


def test_three_isogeny_reports_past_types_without_order_three():
    # y^2 + axy + by = x^3 with kernel {(0, 0), (0, -b)}: the family
    # reaches I_nu with 3 not dividing nu and II, whose component groups
    # have no element of order 3, and IV, whose group Z/3 has; every
    # report completes
    family = seeded_curves(random.Random(27), 60,
                           lambda a, b: [a, 0, b, 0, 0],
                           lambda a, b: b == 0 or a ** 3 == 27 * b)
    types = set()
    for b, m in family:
        phi = velu_isogeny(m, [Pt(Fraction(0), Fraction(0)),
                               Pt(Fraction(0), Fraction(-b))])
        for p in sorted({2, 3, *bad_primes(m)}):
            kt = m.reduction(p).kodaira
            types.add("I" if kt.letter == "I" and kt.nu % 3 else kt.letter)
            local_descent_report(m, phi, finite(p))
    assert {"I", "II", "IV"} <= types


# ---------------------------------------------------------------------------
# S for cyclic isogenies against the local exact sequence


TWO_ISOGENY_KERNELS = {
    "[0,1,0,4,12]": -2, "[0,0,0,-25,0]": -5, "[0,7,0,-26,0]": 0,
    "[0,-6,0,11,0]": 0, "[0,5,0,-7,0]": 0, "[0,-6,0,-20,0]": 0,
    "[0,18,0,-23,0]": 0, "[0,-77,0,1666,-8232]": 7,
    "[0,-1118,0,356857,-33392940]": 172, "[0,-408,0,41327,-1179120]": 51,
    "[0,-2193,0,1246226,-209898480]": 344}


def test_two_isogeny_exact_sequence():
    # 0 -> E'[psi]/phi(E[2]) -> E'/phi E -> E/2E -> E/psi E' -> 0 with psi
    # the dual of phi, at 2 and at every bad place
    checked = 0
    for cs, x in TWO_ISOGENY_KERNELS.items():
        m = curve(cs)
        phi = velu_isogeny(m, [Pt(Fraction(x), Fraction(0))])
        cod = phi.codomain
        # rational 2-torsion of the depressed codomain: (root/4, 0) for the
        # linear factors of its integral 2-division cubic
        (t,) = [T for T in (Pt(-h.coeffs[0] / 4, Fraction(0)) for h in
                            factor_over_Z(two_division_cubic_integral(cod))
                            if h.degree == 1)
                if velu_isogeny(cod, [T]).codomain.j == m.j]
        psi = velu_isogeny(cod, [t])
        for p in sorted(set(bad_primes(m)) | {2}):
            two = local_descent_report(m, TWO_MAP, finite(p))
            a = local_descent_report(m, phi, finite(p))
            b = local_descent_report(cod, psi, finite(p))
            index = b.order_C * a.order_C // two.order_C
            assert two.order_S * index == a.order_S * b.order_S, (cs, p)
            checked += 1
    assert checked == 36


# ---------------------------------------------------------------------------
# a 3-isogeny at a large prime: the kernel point is carried to the minimal
# model by Tate's change of coordinates


def next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def j0_report(q):
    m = curve(f"[0,0,0,0,{16 * q ** 8}]")
    phi = velu_isogeny(m, [Pt(Fraction(0), Fraction(4 * q ** 4)),
                           Pt(Fraction(0), Fraction(-4 * q ** 4))])
    return local_descent_report(m, phi, finite(q))


@pytest.mark.parametrize("q", [1000000007, next_prime(10 ** 52)])
def test_j0_three_isogeny_large_prime(deadline, q):
    # 10007 and 1000000007 are 2 mod 3
    small = j0_report(10007)
    with deadline(30):
        rep = j0_report(q)
    assert (rep.kodaira, rep.order_C, rep.order_I) == ("IV", 3, 1)
    assert (rep.order_C, rep.order_I) == (small.order_C, small.order_I)


def twisted_three_isogeny(d):
    """The 3-isogeny from E_d: y^2 = x^3 + 16d^3 with kernel x0 = 0, built
    by hand: psi2(0) = 64d^3 lies in the square class of d, so the kernel
    points need not be rational, and the codomain is y^2 = x^3 - 432d^3."""
    return IsogenyMap(compute_invariants(0, 0, 0, 0, 16 * d ** 3),
                      compute_invariants(0, 0, 0, 0, -432 * d ** 3), 3,
                      Fraction(0))


def test_twisted_three_isogeny_is_velus_map_at_d_1():
    phi = twisted_three_isogeny(1)
    assert phi == velu_isogeny(phi.domain, [Pt(Fraction(0), Fraction(4)),
                                            Pt(Fraction(0), Fraction(-4))])


# residue degrees of the kernel points where Q_p(sqrt d) is a field: 2, 2
# when it is unramified, and 0 for the one point and its conjugate when it
# is ramified
NON_RATIONAL_KERNEL = {
    (2, 3): [2, 2], (2, 5): [2, 2], (2, 11): [2, 2], (2, 13): [2, 2],
    (5, 2): [2, 2], (5, 3): [2, 2], (7, 5): [2, 2],
    (2, 2): [0], (5, 5): [0], (7, 7): [0], (7, 2): [0],
}


@pytest.mark.parametrize("d", [2, 5, 7])
def test_twisted_three_isogeny_reports(d):
    # at every prime below 40 the report completes, C is 1 where psi2(0) is
    # not a square, C divides #E(Q_p)[3], and at a good prime S = I = C
    phi = twisted_three_isogeny(d)
    for p in filter(is_prime, range(2, 40)):
        rep = local_descent_report(phi.domain, phi, finite(p))
        C = rep.order_C
        if (d, p) in NON_RATIONAL_KERNEL:
            assert [k.residue_degree for k in rep.profile.kernel_points] \
                == NON_RATIONAL_KERNEL[d, p], (d, p)
        if square_class(64 * d ** 3, p) != 0:
            assert C == 1, (d, p)
        assert three_torsion_count(phi.domain, p) % C == 0, (d, p)
        if 6 * d % p:
            assert rep.order_S == rep.order_I == C, (d, p)


# ---------------------------------------------------------------------------
# C, S and I are invariants of the curve over Q_v, not of its model


def moved_pair(m, kernel, change):
    """The 2-map and the isogeny with the kernel, on m and on m moved by
    the change (r, s, t, u), the kernel moved with it."""
    m2 = m.transform(*change)
    kernel2 = [map_point(P, *change) for P in kernel]
    return m2, [(TWO_MAP, TWO_MAP),
                (velu_isogeny(m, kernel), velu_isogeny(m2, kernel2))]


def compare_models(m, kernel, change) -> list:
    """Check that (C, S, I) agree on the two models at infinity and at
    every bad prime; return the reasons of the evidence of m."""
    m2, maps = moved_pair(m, kernel, change)
    bad = bad_primes(m)
    assert bad_primes(m2) == bad, (m, change)
    reasons = []
    for v in [REAL_PLACE] + [finite(p) for p in bad]:
        for phi, phi2 in maps:
            a = local_descent_report(m, phi, v)
            b = local_descent_report(m2, phi2, v)
            assert (b.order_C, b.order_S, b.order_I) == \
                (a.order_C, a.order_S, a.order_I), (m, change, v, a.evidence)
            reasons += [e["reason"] for e in a.evidence if "reason" in e]
    return reasons


ORIGIN = Pt(Fraction(0), Fraction(0))


@pytest.mark.parametrize("change", [(0, 0, 0, 1), (6, -1, -4, 1)])
def test_kernel_point_is_read_on_the_minimal_model(change):
    # (0, 0) on [0,20,0,-20,0] has v(x) = 1 on the minimal model at 2 from
    # either model (type I2*): the near-end component, which Frobenius
    # fixes, so I = 2 for the 2-isogeny with that kernel
    m = curve("[0,20,0,-20,0]")
    m2, maps = moved_pair(m, [ORIGIN], change)
    rep = local_descent_report(m2, maps[1][1], finite(2))
    assert (rep.kodaira, rep.order_I) == ("I2*", 2)
    assert rep.profile.kernel_points[0].x_val == 1


def invariance_draw(rng):
    """(ainvs, kernel, change): y^2 = x(x^2 + ax + b) with the kernel
    (0, 0), or [a1,0,a3,0,0] with the 3-isogeny kernel {(0, 0), (0, -a3)};
    the coefficients carry powers of p, and the change has u in {1, 1/p}."""
    p = rng.choice((2, 3, 5, 7))
    if rng.random() < 0.5:
        a = p ** rng.randrange(4) * rng.randrange(-9, 10)
        b = p ** rng.randrange(5) * rng.choice((1, -1)) * rng.randrange(1, 10)
        ainvs, kernel = (0, a, 0, b, 0), [ORIGIN]
    else:
        a1 = p ** rng.randrange(3) * rng.randrange(-5, 6)
        a3 = p ** rng.randrange(4) * rng.choice((1, -1)) * rng.randrange(1, 10)
        ainvs = (a1, 0, a3, 0, 0)
        kernel = [ORIGIN, Pt(Fraction(0), Fraction(-a3))]
    r, s, t = (rng.randrange(-9, 10) for _ in range(3))
    return ainvs, kernel, (r, s, t, rng.choice((1, Fraction(1, p))))


def test_descent_orders_do_not_depend_on_the_model():
    rng = random.Random(17)
    reasons = []
    # two curves whose 2-isogeny at 2 (type I2*) has its kernel point at
    # v(x) = 1 on the minimal model but not on the input model, then the
    # seeded family
    for cs in ("[0,20,0,-20,0]", "[0,-12,0,108,0]"):
        changes = [(6, -1, -4, 1)] + [
            (*(rng.randrange(-9, 10) for _ in range(3)),
             rng.choice((1, Fraction(1, 2)))) for _ in range(3)]
        for change in changes:
            reasons += compare_models(curve(cs), [ORIGIN], change)
    done = 0
    while done < 200:
        ainvs, kernel, change = invariance_draw(rng)
        try:
            m = compute_invariants(*ainvs)
        except ValueError:
            continue
        reasons += compare_models(m, kernel, change)
        done += 1
    # the I_nu* (nu >= 1) case with Frobenius of order 2, which reads v(x)
    # on the minimal model, and the I_nu (nu even) case of a 3-isogeny
    assert any("tau of order 2: point" in r and "v(x)" in r for r in reasons)
    assert any("(even) case: image automatically even" in r
               for r in reasons)


def profile_shape(prof):
    """A profile without v(x), which each model's minimal model may read
    differently where the reduction is good."""
    return (prof.m, prof.deg_L, prof.deg_Lprime, prof.deg_M,
            prof.tau_permutation,
            [(k.label, k.residue_degree, k.singular)
             for k in prof.kernel_points])


def test_deg_L_reads_any_models_discriminant():
    # the 2-map profile reads the input model's discriminant for its square
    # class: on seeded models moved by rational (r, s, t, u), it gives the
    # (deg L, deg L') of the minimal model's discriminant, which differs by
    # u^12, at 2 and at every prime of the discriminant
    rng = random.Random(2205)
    compared = moved_disc = 0
    while compared < 150:
        try:
            m0 = compute_invariants(*(rng.randrange(-9, 10) for _ in range(5)))
        except ValueError:  # singular
            continue
        m, _ = moved(m0, rng)
        for p in sorted({2, *m.disc_primes}):
            try:
                pieces = local_splitting_type(m.two_division_factors(p), p)
            except UnresolvedSplitting:
                continue
            minimal = m.reduction(p).minimal_model.disc
            assert _cubic_deg_L_data(pieces, m.disc, p) \
                == _cubic_deg_L_data(pieces, minimal, p), (m, p)
            compared += 1
            moved_disc += minimal != m.disc
    assert moved_disc > 100


def test_s2_real_and_cyclic_profiles_on_moved_models():
    # y^2 = (x - e)(x^2 + bx + c), moved so that a1, a3 != 0 and some
    # coefficient is not an integer: the 2-isogeny with kernel (e, 0) has
    # S = 2 at the real place exactly when disc < 0 or e is the least real
    # root.  Its profile, and that of the 3-isogeny of
    # y^2 + a1 xy + a3 y = x^3 with kernel {(0, 0), (0, -a3)}, has at every
    # bad prime the shape it has on the unmoved model; the 3-kernel points
    # are rational, so psi2 at their x is a square
    rng = random.Random(23)
    seen = set()
    pairs = []
    while len(pairs) < 30:
        e, b, c = (rng.randrange(-6, 7) for _ in range(3))
        if e * e + b * e + c == 0 or b * b == 4 * c:
            continue
        m0 = compute_invariants(0, b - e, 0, c - b * e, -c * e)
        m, change = moved(m0, rng)
        kernel = [Pt(Fraction(e), Fraction(0))]
        phi = velu_isogeny(m, [map_point(P, *change) for P in kernel])
        if m.disc < 0:
            want = 2
        else:
            want = 2 if e < (-b - math.sqrt(b * b - 4 * c)) / 2 else 1
        assert s2_real(m, phi) == want, (m0, change)
        seen.add((m.disc < 0, want))
        pairs.append((m0, kernel, m, phi))
    assert seen == {(True, 2), (False, 2), (False, 1)}
    while len(pairs) < 50:
        a1, a3 = rng.randrange(-5, 6), rng.choice((-6, -3, -2, -1, 1, 2, 4))
        if a1 ** 3 == 27 * a3:  # disc = a3^3 (a1^3 - 27 a3)
            continue
        m0 = compute_invariants(a1, 0, a3, 0, 0)
        m, change = moved(m0, rng)
        kernel = [ORIGIN, Pt(Fraction(0), Fraction(-a3))]
        phi = velu_isogeny(m, [map_point(P, *change) for P in kernel])
        assert s2_real(m, phi) == 1
        pairs.append((m0, kernel, m, phi))
    for m0, kernel, m, phi in pairs:
        phi0 = velu_isogeny(m0, kernel)
        assert bad_primes(m) == bad_primes(m0)
        for p in bad_primes(m0):
            prof = profile(m, phi, p)
            assert profile_shape(prof) == \
                profile_shape(profile(m0, phi0, p)), (m0, p)
            if phi.degree == 3:
                assert [k.residue_degree for k in prof.kernel_points] \
                    == [1, 1]
