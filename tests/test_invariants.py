from fractions import Fraction

import pytest

from vwbm.exact import _root_sum_vector, euler_phi
from vwbm.invariants import (admissible_triangle_group,
                             algebraically_primitive, covers,
                             covers_criterion, curve_report, genus,
                             hecke_scalars, is_arithmetic, trace_degrees,
                             trace_degrees_oracle, uniformizer, verify_cover)
from vwbm.rowspan import CurveParams, summands
from vwbm.verify import valid_pairs

F = Fraction


def _lyapunov(s):
    """The exponent (nm - nk - mj) / (nm - n - m) of a summand."""
    return F(s.n * s.m - s.n * s.k - s.m * s.j, s.n * s.m - s.n - s.m)


def spectrum_multiset(n, m):
    return sorted(_lyapunov(s) for s in summands(CurveParams(n, m)))


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def test_spectrum_examples():
    assert spectrum_multiset(2, 7) == [F(1, 5), F(3, 5), F(1)]
    assert spectrum_multiset(4, 5) == [
        F(1, 11), F(2, 11), F(3, 11), F(6, 11), F(7, 11), F(1)]
    assert spectrum_multiset(6, 10) == [
        F(1, 11), F(1, 11), F(2, 11), F(2, 11), F(3, 11), F(4, 11),
        F(5, 11), F(6, 11), F(7, 11), F(8, 11), F(1)]


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m,expected", [
    (2, 7, 3), (6, 10, 11), (8, 8, 9), (2, 3, 1), (4, 6, 4), (4, 8, 5),
])
def test_genus_closed_form(n, m, expected):
    params = CurveParams(n, m)
    assert genus(params) == expected == len(summands(params))


# ---------------------------------------------------------------------------
# uniformizer, arithmeticity and zeros
# ---------------------------------------------------------------------------

def test_uniformizer_and_zero_count_examples():
    for n, m, arithmetic, label, zeros in [
            (3, 3, True, "Delta(2,3,oo)", 3),
            (4, 6, False, "IndexTwoSubgroup(Delta(4,6,oo))", 2),
            (8, 8, False, "Delta(4,oo,oo)", 4),
            (2, 7, False, "Delta(2,7,oo)", 1)]:
        report = curve_report(CurveParams(n, m))
        assert report.arithmetic is arithmetic
        assert report.uniformizer == uniformizer(CurveParams(n, m))
        assert report.uniformizer.label() == label
        assert report.zeros == (zeros, True)


def test_arithmetic_list():
    arithmetic = {(n, m) for n in range(2, 13) for m in range(2, 13)
                  if n * m >= 6 and is_arithmetic(CurveParams(n, m))}
    assert arithmetic == {(2, 3), (3, 2), (2, 4), (4, 2), (2, 6), (6, 2),
                          (3, 3), (4, 4), (6, 6)}


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_covers_2_24():
    params = CurveParams(2, 24)
    listed = {(c.n, c.m) for c in covers(params)}
    assert (2, 8) in listed
    assert (2, 12) not in listed and (2, 6) not in listed
    assert verify_cover(params, CurveParams(2, 8)).holds
    assert not verify_cover(params, CurveParams(2, 12)).holds
    assert not verify_cover(params, CurveParams(2, 6)).holds


def test_covers_8_8():
    assert [(c.n, c.m) for c in covers(CurveParams(8, 8))] == [
        (2, 4), (4, 2), (4, 4)]


def test_covers_are_listed_in_order():
    # the divisor loops ascend, so no sort is needed
    for pair in valid_pairs(40):
        listed = [(c.n, c.m) for c in covers(CurveParams(*pair))]
        assert listed == sorted(set(listed))


def test_spectrum_sweep_lists_each_pair_covers_once(monkeypatch):
    # the spectrum check asks for the covers of each of the 224 pairs and
    # the swap check for both orientations of each n <= m: 462 calls, and
    # the bounded memo builds each list once
    from vwbm import verify
    monkeypatch.delenv("VWBM_THREADS", raising=False)
    covers.cache_clear()
    assert all(check.passed for check in verify.run_suite(16, "spectrum"))
    info = covers.cache_info()
    assert (info.misses, info.hits + info.misses) == (224, 462)
    assert info.maxsize is not None and info.currsize < info.maxsize


def test_verify_cover_identity_and_rejection():
    params = CurveParams(3, 4)
    cert = verify_cover(params, params)
    assert cert.holds and cert.scale == 1
    with pytest.raises(ValueError):
        verify_cover(CurveParams(2, 7), CurveParams(2, 3))
    assert not covers_criterion(params, params)


def test_listed_covers_pass_certificates():
    for pair in [(2, 24), (8, 8), (6, 10), (3, 9), (4, 6)]:
        big = CurveParams(*pair)
        for small in covers(big):
            assert verify_cover(big, small).holds


# ---------------------------------------------------------------------------
# tiling flags
# ---------------------------------------------------------------------------

def _angles(s):
    """(kappa, mu, nu) = (0, k/m, j/n) of a summand, in units of pi."""
    return (F(0), F(s.k, s.m), F(s.j, s.n))


def flagged_triples(n, m):
    return {_angles(s) for s in summands(CurveParams(n, m)) if s.tiling}


def test_tiling_flags_examples():
    assert flagged_triples(2, 9) == {
        (F(0), F(1, 3), F(1, 2)), (F(0), F(1, 9), F(1, 2))}
    assert flagged_triples(3, 9) == {
        (F(0), F(1, 3), F(1, 3)), (F(0), F(1, 9), F(1, 3))}
    assert flagged_triples(4, 6) == {
        (F(0), F(1, 3), F(1, 2)), (F(0), F(1, 2), F(1, 4)),
        (F(0), F(1, 6), F(1, 4))}
    flags = [s.tiling for s in summands(CurveParams(2, 9))]
    assert len(flags) == 4 and sum(flags) == 2


def test_tiling_flag_T36_matches_cover_oracle():
    # The (0, 1/3, 1/3) triangle of T(3, 6) tiles and corresponds to the
    # covered curve T(3, 3); the row-span containment certificate is the
    # independent authority for its flag.
    assert verify_cover(CurveParams(3, 6), CurveParams(3, 3)).holds
    assert covers_criterion(CurveParams(3, 6), CurveParams(3, 3))
    assert (F(0), F(1, 3), F(1, 3)) in flagged_triples(3, 6)
    assert flagged_triples(3, 6) == {
        (F(0), F(1, 2), F(1, 3)), (F(0), F(1, 3), F(1, 3)),
        (F(0), F(1, 6), F(1, 3))}


# ---------------------------------------------------------------------------
# trace fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m,deg_f,deg_e", [
    (2, 7, 3, 3), (4, 6, 4, 2), (4, 8, 4, 4), (2, 3, 1, 1), (5, 5, 2, 2),
])
def test_trace_degrees_closed_form(n, m, deg_f, deg_e):
    assert trace_degrees(CurveParams(n, m)) == (deg_f, deg_e)


@pytest.mark.parametrize("n,m", [(2, 3), (5, 5), (6, 10), (4, 8), (2, 7)])
def test_trace_degrees_match_oracle(n, m):
    params = CurveParams(n, m)
    assert trace_degrees(params) == trace_degrees_oracle(params)


@pytest.mark.parametrize("n,m,expected", [
    (4, 6, False), (2, 7, True), (4, 8, True), (6, 10, False), (4, 4, False),
])
def test_admissible_triangle_group(n, m, expected):
    assert admissible_triangle_group(CurveParams(n, m)) is expected


# ---------------------------------------------------------------------------
# Hecke scalars
# ---------------------------------------------------------------------------

def test_hecke_scalars_2_7():
    params = CurveParams(2, 7)
    hecke = hecke_scalars(params)
    assert hecke.field_degree == 3 == trace_degrees(params)[1]
    N = params.N
    # all three scalars are real: equal to their complex conjugates, the
    # root sums on the negated exponents
    r1, r2 = 14 - 2 - 7, 14 + 2 - 7
    for (p, q), s in zip(((1, 1), (1, -1), (1, 0)), hecke.scalars):
        u, v = p * r1 + q * r2, p * r2 + q * r1
        assert _root_sum_vector(N, (-u, u, -v, v)) == s
    # (p, q) = (1, 1) gives 2 zeta^(r1+r2) + 2 zeta^-(r1+r2) = -4 here
    assert hecke.scalars[0] == (-4,) + (0,) * (euler_phi(N) - 1)


def test_hecke_scalars_are_coordinate_tuples():
    # each scalar is phi(N) int coordinates of its root sum, with
    # r1 = nm - n - m, r2 = nm + n - m as the docstring states
    for n, m in valid_pairs(12):
        N = 2 * n * m
        r1, r2 = n * m - n - m, n * m + n - m
        scalars = hecke_scalars(CurveParams(n, m)).scalars
        assert len(scalars) == 3
        for (p, q), s in zip(((1, 1), (1, -1), (1, 0)), scalars):
            u, v = p * r1 + q * r2, p * r2 + q * r1
            assert type(s) is tuple and len(s) == euler_phi(N), (n, m)
            assert all(type(c) is int for c in s), (n, m)
            assert s == _root_sum_vector(N, (u, -u, v, -v)), (n, m)


def test_hecke_degree_matches_invariant_field():
    for pair in [(4, 5), (4, 6), (3, 4), (8, 8)]:
        params = CurveParams(*pair)
        assert hecke_scalars(params).field_degree == trace_degrees(params)[1]


# ---------------------------------------------------------------------------
# algebraic primitivity
# ---------------------------------------------------------------------------

def test_primitive_examples():
    assert algebraically_primitive(CurveParams(2, 7)).primitive
    assert not algebraically_primitive(CurveParams(3, 5)).primitive
    assert algebraically_primitive(CurveParams(2, 16)).primitive
    verdict = algebraically_primitive(CurveParams(3, 3))
    assert not verdict.applicable and not verdict.primitive


def test_primitive_power_of_two_and_twice_prime():
    assert algebraically_primitive(CurveParams(2, 8)).primitive
    assert algebraically_primitive(CurveParams(2, 14)).primitive
    assert not algebraically_primitive(CurveParams(2, 12)).primitive
    assert not algebraically_primitive(CurveParams(7, 7)).primitive


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

def test_curve_report_2_7():
    report = curve_report(CurveParams(2, 7))
    assert report.genus == 3
    assert sorted(_lyapunov(s) for s in report.summand_list) == [
        F(1, 5), F(3, 5), F(1)]
    assert not report.arithmetic
    assert report.primitivity.primitive
    assert report.trace_degree_E == 3
    assert report.covers == ()
    assert "T(2,7) = T(7,2)" in report.notes
    assert any("regular 7-gon" in note for note in report.notes)
