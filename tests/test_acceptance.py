"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every comparison is exact (Fractions, zero tolerance)
except the generator cross-check, whose stated relative tolerance is 1e-9.
"""
import time
from fractions import Fraction

from vwbm.invariants import algebraically_primitive, covers, genus, is_arithmetic, verify_cover
from vwbm.rowspan import CurveParams, summands
from vwbm.verify import run_suite, valid_pairs

F = Fraction


def _result(nmax, level, name):
    """The result of the named check, swept through run_suite."""
    return next(r for r in run_suite(nmax, level) if r.name == name)


def _angles(s):
    """(kappa, mu, nu) = (0, k/m, j/n) of a summand, in units of pi."""
    return (F(0), F(s.k, s.m), F(s.j, s.n))


def _lyapunov(s):
    """The exponent (nm - nk - mj) / (nm - n - m) of a summand."""
    return F(s.n * s.m - s.n * s.k - s.m * s.j, s.n * s.m - s.n - s.m)


# Reference angle/exponent tables for fifteen curves: rows are
# (mu, nu, exponent, tiling flag) with kappa = 0 throughout, listed by
# ascending exponent.  The (0, 1/3, 1/3) row of T(3, 6) carries the tiling
# flag: its triangle tiles the hyperbolic plane and T(3, 3) is a verified
# cover (see test_tiling_flag_T36_matches_cover_oracle in
# tests/test_invariants.py for the containment certificate).
REFERENCE_TABLES = {
    (2, 7): [("3/7", "1/2", "1/5", 0), ("2/7", "1/2", "3/5", 0),
             ("1/7", "1/2", "1", 1)],
    (2, 8): [("3/8", "1/2", "1/3", 0), ("1/8", "1/2", "1", 1)],
    (2, 9): [("4/9", "1/2", "1/7", 0), ("1/3", "1/2", "3/7", 1),
             ("2/9", "1/2", "5/7", 0), ("1/9", "1/2", "1", 1)],
    (2, 10): [("3/10", "1/2", "1/2", 0), ("1/10", "1/2", "1", 1)],
    (2, 11): [("5/11", "1/2", "1/9", 0), ("4/11", "1/2", "1/3", 0),
              ("3/11", "1/2", "5/9", 0), ("2/11", "1/2", "7/9", 0),
              ("1/11", "1/2", "1", 1)],
    (3, 6): [("1/6", "2/3", "1/3", 0), ("1/2", "1/3", "1/3", 1),
             ("1/3", "1/3", "2/3", 1), ("1/6", "1/3", "1", 1)],
    (3, 7): [("2/7", "2/3", "1/11", 0), ("4/7", "1/3", "2/11", 0),
             ("1/7", "2/3", "4/11", 0), ("3/7", "1/3", "5/11", 0),
             ("2/7", "1/3", "8/11", 0), ("1/7", "1/3", "1", 1)],
    (3, 8): [("5/8", "1/3", "1/13", 0), ("1/4", "2/3", "2/13", 0),
             ("1/2", "1/3", "4/13", 1), ("1/8", "2/3", "5/13", 0),
             ("3/8", "1/3", "7/13", 0), ("1/4", "1/3", "10/13", 1),
             ("1/8", "1/3", "1", 1)],
    (3, 9): [("2/9", "2/3", "1/5", 0), ("5/9", "1/3", "1/5", 0),
             ("1/9", "2/3", "2/5", 0), ("4/9", "1/3", "2/5", 0),
             ("1/3", "1/3", "3/5", 1), ("2/9", "1/3", "4/5", 0),
             ("1/9", "1/3", "1", 1)],
    (4, 5): [("1/5", "3/4", "1/11", 0), ("2/5", "1/2", "2/11", 0),
             ("3/5", "1/4", "3/11", 0), ("1/5", "1/2", "6/11", 1),
             ("2/5", "1/4", "7/11", 0), ("1/5", "1/4", "1", 1)],
    (4, 6): [("1/6", "3/4", "1/7", 0), ("1/3", "1/2", "2/7", 1),
             ("1/2", "1/4", "3/7", 1), ("1/6", "1/4", "1", 1)],
    (4, 8): [("1/8", "3/4", "1/5", 0), ("5/8", "1/4", "1/5", 0),
             ("1/4", "1/2", "2/5", 1), ("3/8", "1/4", "3/5", 0),
             ("1/8", "1/4", "1", 1)],
    (5, 5): [("1/5", "3/5", "1/3", 0), ("2/5", "2/5", "1/3", 0),
             ("3/5", "1/5", "1/3", 0), ("1/5", "2/5", "2/3", 0),
             ("2/5", "1/5", "2/3", 0), ("1/5", "1/5", "1", 1)],
    (6, 10): [("1/10", "5/6", "1/11", 0), ("3/5", "1/3", "1/11", 0),
              ("7/10", "1/6", "2/11", 0), ("1/5", "2/3", "2/11", 0),
              ("3/10", "1/2", "3/11", 0), ("2/5", "1/3", "4/11", 0),
              ("1/2", "1/6", "5/11", 1), ("1/10", "1/2", "6/11", 1),
              ("1/5", "1/3", "7/11", 1), ("3/10", "1/6", "8/11", 0),
              ("1/10", "1/6", "1", 1)],
    (8, 8): [("1/8", "5/8", "1/3", 0), ("3/8", "3/8", "1/3", 0),
             ("5/8", "1/8", "1/3", 0), ("1/4", "1/2", "1/3", 1),
             ("1/2", "1/4", "1/3", 1), ("1/4", "1/4", "2/3", 1),
             ("1/8", "3/8", "2/3", 0), ("3/8", "1/8", "2/3", 0),
             ("1/8", "1/8", "1", 1)],
}


def _announce(number: int, name: str, passed: bool, elapsed: float,
              limit: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {name}: {status} "
          f"({elapsed:.2f}s, limit {limit:.0f}s)")


def test_criterion_1_reference_tables():
    start = time.perf_counter()
    failures = []
    for (n, m), rows in REFERENCE_TABLES.items():
        params = CurveParams(n, m)
        expected = sorted(
            (F(mu), F(nu), F(lam), bool(flag)) for mu, nu, lam, flag in rows)
        got = sorted((*_angles(s)[1:], _lyapunov(s), s.tiling)
                     for s in summands(params))
        if got != expected:
            failures.append(f"T({n},{m}) rows differ")
        if any(_angles(s)[0] != 0 for s in summands(params)):
            failures.append(f"T({n},{m}) has nonzero kappa")
        if len(rows) != genus(params):
            failures.append(f"T({n},{m}) row count is not the genus")
    elapsed = time.perf_counter() - start
    _announce(1, "reference table reproduction (15 curves)",
              not failures, elapsed, 1)
    assert not failures, failures
    assert elapsed < 1.0


def test_criterion_2_genus_triple_agreement():
    start = time.perf_counter()
    result = _result(20, "genus", "genus triple agreement")
    elapsed = time.perf_counter() - start
    _announce(2, "genus closed form = summand count = orbit dimension sum "
                 "(n, m <= 20)", result.passed, elapsed, 30)
    assert result.passed, result.detail
    assert elapsed < 30.0


def test_criterion_3_trace_degrees():
    start = time.perf_counter()
    result = _result(20, "trace", "trace degrees formula vs oracle")
    elapsed = time.perf_counter() - start
    _announce(3, "trace degrees closed form = Galois oracle, degree-two "
                 "extension set (n, m <= 20)", result.passed, elapsed, 120)
    assert result.passed, result.detail
    assert elapsed < 120.0


def test_criterion_4_covering_relations():
    start = time.perf_counter()
    result = _result(16, "covers",
                     "covering criterion vs containment oracle")
    big = CurveParams(2, 24)
    headline = (
        verify_cover(big, CurveParams(2, 8)).holds
        and any((c.n, c.m) == (2, 8) for c in covers(big))
        and not verify_cover(big, CurveParams(2, 12)).holds
        and not verify_cover(big, CurveParams(2, 6)).holds
    )
    elapsed = time.perf_counter() - start
    _announce(4, "covering criterion = containment oracle (n, m <= 16), "
                 "T(2,24) headline", result.passed and headline, elapsed, 60)
    assert result.passed, result.detail
    assert headline
    assert elapsed < 60.0


def test_criterion_5_algebraic_primitivity():
    start = time.perf_counter()
    result = _result(20, "trace",
                     "algebraic primitivity criterion vs degrees")
    spots = (
        algebraically_primitive(CurveParams(2, 7)).primitive
        and not algebraically_primitive(CurveParams(3, 5)).primitive
        and algebraically_primitive(CurveParams(2, 16)).primitive
    )
    agree = all(
        (lambda v: not v.applicable or v.by_criterion == v.by_trace_degree)(
            algebraically_primitive(CurveParams(n, m)))
        for n, m in valid_pairs(20) if not is_arithmetic(CurveParams(n, m)))
    elapsed = time.perf_counter() - start
    _announce(5, "algebraic primitivity criterion = degree test (n, m <= 20)",
              result.passed and spots and agree, elapsed, 60)
    assert result.passed, result.detail
    assert spots and agree
    assert elapsed < 60.0


def test_criterion_6_square_tiled_symmetry_suite():
    start = time.perf_counter()
    result = _result(12, "lifts", "pillowcase symmetry lift suite")
    elapsed = time.perf_counter() - start
    _announce(6, "symmetry lifts: involutions, commutation, conjugation "
                 "relations, cylinders, class count (n, m <= 12)",
              result.passed, elapsed, 120)
    assert result.passed, result.detail
    assert elapsed < 120.0


def test_criterion_7_generator_equations():
    start = time.perf_counter()
    result = _result(16, "generators",
                     "generator equations exact vs numeric")
    elapsed = time.perf_counter() - start
    _announce(7, "generator equations: exact identities and 1e-9 numeric "
                 "cross-check (n, m <= 16)", result.passed, elapsed, 10)
    assert result.passed, result.detail
    assert elapsed < 10.0


def test_criterion_8_spectrum_law():
    start = time.perf_counter()
    result = _result(20, "spectrum",
                     "spectrum laws and tiling correspondence")
    step_ok = True
    for n, m in valid_pairs(20):
        params = CurveParams(n, m)
        step = F(params.gamma, n * m - n - m)
        spectrum = [_lyapunov(s) for s in summands(params)]
        if max(spectrum) != 1 or any(
                x <= 0 or (x / step).denominator != 1 for x in spectrum):
            step_ok = False
            break
    elapsed = time.perf_counter() - start
    _announce(8, "spectrum: positive multiples of gamma/(nm-n-m), maximum "
                 "exactly 1 (n, m <= 20)", result.passed and step_ok,
              elapsed, 60)
    assert result.passed, result.detail
    assert step_ok
    assert elapsed < 60.0
