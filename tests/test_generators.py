from fractions import Fraction

import pytest

from vwbm import generators
from vwbm.exact import IntPolynomial, chebyshev_c
from vwbm.generators import (CASE_BOTH_EVEN, CASE_M_EVEN_N_ODD, CASE_M_ODD,
                             U_MINUS_2, _product_form_value, generator_equation,
                             u_minus_2_power, verify_equation_numeric)
from vwbm.rowspan import CurveParams
from vwbm.verify import (PairContext, _equation_laws, _generator_pair,
                         run_suite, valid_pairs)


def poly(*coeffs):
    return IntPolynomial(tuple(coeffs))


# ---------------------------------------------------------------------------
# the three cases
# ---------------------------------------------------------------------------

def test_m_odd_case_m5():
    eq = generator_equation(CurveParams(2, 5))
    assert eq.case == CASE_M_ODD and eq.y_exponent == 4
    # u^5 - 5u^3 + 5u - 2 = (u - 2)(u^2 + u - 1)^2
    assert eq.rhs == poly(-2, 5, 0, -5, 0, 1)
    q = poly(-1, 1, 1)
    assert eq.rhs == U_MINUS_2 * q * q
    assert eq.rhs_factored == (1, q, 2)
    assert eq.differential_denominator == U_MINUS_2 * q


def test_m_even_n_odd_case_3_4():
    eq = generator_equation(CurveParams(3, 4))
    assert eq.case == CASE_M_EVEN_N_ODD and eq.y_exponent == 6
    half = poly(-2, 0, 1)  # u^2 - 2
    assert eq.rhs == (U_MINUS_2 ** 3) * half * half
    assert eq.rhs_factored == (3, half, 2)
    assert eq.differential_denominator == U_MINUS_2 * half
    # rhs also equals (u - 2)^n (C_m + 2)
    assert eq.rhs == (U_MINUS_2 ** 3) * (chebyshev_c(4) + poly(2))


def test_both_even_case_4_4():
    eq = generator_equation(CurveParams(4, 4))
    assert eq.case == CASE_BOTH_EVEN and eq.y_exponent == 4
    assert eq.rhs == (U_MINUS_2 ** 2) * poly(-2, 0, 1)
    assert eq.rhs_factored == (2, poly(-2, 0, 1), 1)


def test_m_equals_2_boundary():
    eq = generator_equation(CurveParams(3, 2))
    assert eq.case == CASE_M_EVEN_N_ODD
    assert eq.rhs == (U_MINUS_2 ** 3) * poly(0, 0, 1)   # (u-2)^3 u^2
    eq = generator_equation(CurveParams(4, 2))
    assert eq.case == CASE_BOTH_EVEN
    assert eq.rhs == (U_MINUS_2 ** 2) * poly(0, 1)      # (u-2)^2 u
    # C_2 - 2 factors as (u - 2)(u + 2), not as (u - 2) times a square
    assert chebyshev_c(2) - poly(2) == U_MINUS_2 * poly(2, 1)


@pytest.mark.parametrize("n,m", [(2, 5), (3, 4), (4, 4), (2, 9), (5, 6)])
def test_degree_law(n, m):
    eq = generator_equation(CurveParams(n, m))
    if m % 2:
        assert eq.rhs.degree() == m
    elif n % 2:
        assert eq.rhs.degree() == n + m
    else:
        assert eq.rhs.degree() == (n + m) // 2
    assert eq.rhs.coeffs[-1] == 1


# ---------------------------------------------------------------------------
# exact identities
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", range(3, 31, 2))
def test_odd_chebyshev_square_identity(m):
    # the stored factor is the closed form 1 + C_1 + ... + C_d, d = (m-1)/2,
    # and it squares back to the paper's C_m - 2 = (u - 2) Q^2
    d = (m - 1) // 2
    q = generator_equation(CurveParams(2, m)).rhs_factored[1]
    assert q.degree() == d
    assert U_MINUS_2 * q * q == chebyshev_c(m) - poly(2)
    total = poly(1)
    for k in range(1, d + 1):
        total = total + chebyshev_c(k)
    assert q == total


@pytest.mark.parametrize("m", range(2, 31, 2))
def test_even_chebyshev_square_identity(m):
    half = chebyshev_c(m // 2)
    assert chebyshev_c(m) + poly(2) == half * half


def test_both_even_square_consistency():
    for n, m in [(4, 4), (4, 6), (6, 10), (8, 8)]:
        eq = generator_equation(CurveParams(n, m))
        squared = (U_MINUS_2 ** n) * (chebyshev_c(m) + poly(2))
        assert eq.rhs * eq.rhs == squared


# ---------------------------------------------------------------------------
# numeric cross-check
# ---------------------------------------------------------------------------

def test_numeric_verification_m7():
    params = CurveParams(2, 7)
    check = verify_equation_numeric(generator_equation(params), params)
    assert check.ok and check.max_relative_deviation < 1e-9
    assert check.sample_points == 2 * 7 + 1


def _fraction_horner(p, x):
    """p(x) by Horner's rule in exact rationals."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


@pytest.mark.parametrize("n,m", [(2, 7), (3, 4), (4, 4), (34, 30),
                                 (40, 30), (33, 34), (60, 61)])
def test_numeric_deviation_matches_rational_horner(n, m):
    # the exact rhs, evaluated by Fraction Horner and rounded once, gives
    # the very same deviation as the integer evaluation
    params = CurveParams(n, m)
    eq = generator_equation(params)
    check = verify_equation_numeric(eq, params)
    worst = 0.0
    for i in range(check.sample_points):
        u = -3.0 + 6.0 * i / (check.sample_points - 1)
        exact = float(_fraction_horner(eq.rhs, Fraction(u)))
        approx = _product_form_value(eq, params, u)
        worst = max(worst, abs(exact - approx) / max(1.0, abs(exact), abs(approx)))
    assert check.max_relative_deviation == worst


def _power_of_q_sample(rhs, u):
    """rhs(u) as evaluated before the shifts: with u = k / q, the integer
    sum of c_j k^j q^(d - j), divided by q^d."""
    k, q = u.as_integer_ratio()
    scaled, power = 0, 1
    for c in reversed(rhs.coeffs):
        scaled, power = scaled * k + c * power, power * q
    return scaled / q ** rhs.degree()


def test_shifted_exact_samples_equal_the_power_of_q_reference(monkeypatch):
    # with the product form replaced by the reference, a sample whose
    # exact value differs as a float leaves a nonzero deviation
    monkeypatch.setattr(generators, "_product_form_value",
                        lambda eq, params, u: _power_of_q_sample(eq.rhs, u))
    deviating = []
    for n, m in valid_pairs(33):
        params = CurveParams(n, m)
        check = verify_equation_numeric(generator_equation(params), params)
        if check.max_relative_deviation != 0.0:
            deviating.append((n, m))
    assert deviating == []


def test_numeric_verification_rejects_corruption():
    # Q + 1 in the rhs and in its factorization alike: the exact samples,
    # taken through the factorization, see the change
    params = CurveParams(2, 7)
    eq = generator_equation(params)
    a, q, mult = eq.rhs_factored
    bumped = q + poly(1)
    corrupted = eq._replace(rhs=U_MINUS_2 ** a * bumped ** mult,
                            rhs_factored=(a, bumped, mult))
    assert not verify_equation_numeric(corrupted, params).ok


def test_power_cache_is_bounded_and_computes_each_power_once(monkeypatch):
    # the rhs, the multiply-out check and the even-m Chebyshev check share
    # (u - 2)^k; a sweep to 16 draws k = 1, ..., 16, each once
    # once each; the equation memo is cleared too, since an equation it
    # holds from an earlier test skips its checks' powers
    monkeypatch.setenv("VWBM_THREADS", "1")
    assert u_minus_2_power.cache_info().maxsize is not None
    u_minus_2_power.cache_clear()
    _equation_laws.cache_clear()
    assert all(r.passed for r in run_suite(16, "generators"))
    assert u_minus_2_power.cache_info().misses == 16


def test_generators_level_checks_each_distinct_equation_once(monkeypatch):
    # for odd m the equation is y^(2n) = C_m - 2 at every n: at nmax 16 the
    # 224 pairs hold 7 odd-m equations and 119 even-m ones, and at nmax 33
    # the 1023 pairs hold 16 and 511, each checked once within the bound
    monkeypatch.setenv("VWBM_THREADS", "1")
    calls = []
    numeric = generators.verify_equation_numeric
    monkeypatch.setattr(generators, "verify_equation_numeric",
                        lambda eq, params: calls.append(1) or numeric(eq, params))
    _equation_laws.cache_clear()
    assert all(r.passed for r in run_suite(16, "generators"))
    assert len(calls) == 126
    _equation_laws.cache_clear()
    assert all(r.passed for r in run_suite(33, "generators"))
    info = _equation_laws.cache_info()
    assert (info.misses, info.hits) == (527, 496)
    assert info.maxsize is not None and info.maxsize < 527


def test_equation_memo_checks_an_equation_changed_after_a_sweep(monkeypatch):
    # a clean sweep fills the memo; an equation changed since, here only at
    # n = 5 for odd m, is a new key, so its pair is checked again
    monkeypatch.setenv("VWBM_THREADS", "1")
    assert all(r.passed for r in run_suite(12, "generators"))
    generator_equation = generators.generator_equation

    def bumped_at_5(params):
        eq = generator_equation(params)
        if params.n == 5 and params.m % 2:
            eq = eq._replace(rhs=eq.rhs + poly(1))
        return eq

    monkeypatch.setattr(generators, "generator_equation", bumped_at_5)
    failed = {r.name: r.detail
              for r in run_suite(12, "generators") if not r.passed}
    assert failed == {"generator equations exact vs numeric":
                      "(5,3): stored factorization does not multiply out"}


# ---------------------------------------------------------------------------
# the one-form
# ---------------------------------------------------------------------------

def test_differential_description():
    eq = generator_equation(CurveParams(2, 5))
    # (u-2)(u^2+u-1)
    assert list(eq.differential_denominator.coeffs) == [2, -3, -1, 1]
    assert eq.differential_text().startswith("y du / (")
    assert eq.factored_text() == "y^4 = (u - 2)(u^2 + u - 1)^2"
    assert eq.differential_text() == "y du / (u^3 - u^2 - 3u + 2)"
    # exact divisibility, the D^2 law of the generators check, holds in
    # every case
    for pair in [(3, 4), (4, 4), (2, 9), (5, 8)]:
        assert _generator_pair(PairContext(pair)) is None
