r"""Generating Riemann surfaces and one-forms of T(n, m), with exact
integer-polynomial right-hand sides.

T(n, m) is generated by the curve y^e = rhs(u) together with the one-form
y du / D(u), in three cases (C_k is the monic Chebyshev-type polynomial
with C_k(p + 1/p) = p^k + p^-k):

    m odd:              y^(2n) = C_m(u) - 2
                               = (u - 2) prod_{j=1}^{(m-1)/2} (u - 2cos(2 pi j / m))^2
    m even, n odd:      y^(2n) = (u - 2)^n (C_m(u) + 2)
                               = (u - 2)^n prod_{j=1}^{m/2} (u - 2cos(pi (2j-1) / m))^2
    m and n both even:  y^n    = (u - 2)^(n/2) prod_{j=1}^{m/2} (u - 2cos(pi (2j-1) / m))

with D(u) = (u - 2) Q(u) in all cases, where Q is the square-free cosine
product, so rhs = (u - 2)^a Q^mult.  Q has a closed form in Chebyshev
polynomials.  For even m, Q = C_{m/2}, since C_m + 2 = C_{m/2}^2.  For odd m
with d = (m - 1)/2,

    Q = prod_{j=1}^{d} (u - 2cos(2 pi j/m)) = (C_{d+1} - C_d) / (u - 2)
      = 1 + C_1 + ... + C_d,

because at u = p + 1/p both sides times p^d equal 1 + p + ... + p^(m-1)
(the quotient is the sum of p^k over |k| <= d).  The Chebyshev form is the
stored representation; the floating-point cosine product is kept only as a
cross-check oracle.
"""
from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .exact import IntPolynomial, chebyshev_c, poly_str
from .rowspan import CurveParams

U_MINUS_2 = IntPolynomial((-2, 1))
TOLERANCE = 1e-9  # the float product form passes below this deviation

CASE_M_ODD = "m_odd"
CASE_M_EVEN_N_ODD = "m_even_n_odd"
CASE_BOTH_EVEN = "both_even"


class GeneratorEquation(namedtuple("GeneratorEquation", (
        "case y_exponent rhs rhs_factored differential_denominator"))):
    """y^y_exponent = rhs(u), with one-form y du / differential_denominator.

    ``rhs_factored`` is (a, Q, mult) with rhs = (u - 2)^a * Q^mult for the
    square-free monic factor Q.
    """

    __slots__ = ()

    def differential_text(self) -> str:
        return f"y du / ({poly_str(self.differential_denominator)})"

    def factored_text(self) -> str:
        a, q, mult = self.rhs_factored
        lin = f"(u - 2)^{a}" if a > 1 else "(u - 2)"
        body = f"({poly_str(q)})" + ("" if mult == 1 else f"^{mult}")
        return f"y^{self.y_exponent} = {lin}{body}"


@lru_cache(maxsize=128)
def u_minus_2_power(k: int) -> IntPolynomial:
    """(u - 2)^k, shared by the rhs and the exact checks of ``verify``."""
    return U_MINUS_2 ** k


def cosine_factor(m: int) -> IntPolynomial:
    """Q, the square-free cosine product of the generator equations, monic
    of degree m/2 for even m and (m - 1)/2 for odd m.  Not memoized, so the
    second equation ``info`` builds reads ``chebyshev_c``'s memo, which the
    benchmark self-test needs."""
    if m % 2 == 0:
        return chebyshev_c(m // 2)
    d = (m - 1) // 2
    return (chebyshev_c(d + 1) - chebyshev_c(d)).exact_div(U_MINUS_2)


def generator_equation(params: CurveParams) -> GeneratorEquation:
    """The exact generator equation for T(n, m): rhs = (u - 2)^a Q^mult,
    monic as u - 2 and Q are, of degree m, n + m, or (n + m)/2 in the three
    cases."""
    n, m = params.n, params.m
    if m % 2:
        case, y_exponent, a, mult = CASE_M_ODD, 2 * n, 1, 2
    elif n % 2:
        case, y_exponent, a, mult = CASE_M_EVEN_N_ODD, 2 * n, n, 2
    else:
        case, y_exponent, a, mult = CASE_BOTH_EVEN, n, n // 2, 1
    q = cosine_factor(m)
    return GeneratorEquation(case, y_exponent, u_minus_2_power(a) * q ** mult,
                             (a, q, mult), U_MINUS_2 * q)


@lru_cache(maxsize=128)
def _cosine_factors(m: int) -> tuple[float, ...]:
    """Roots 2cos(.) of the square-free cosine product, as floats; they
    depend on m, and their formula on the parity of m."""
    if m % 2:
        return tuple(2.0 * math.cos(2.0 * math.pi * j / m)
                     for j in range(1, (m - 1) // 2 + 1))
    return tuple(2.0 * math.cos(math.pi * (2 * j - 1) / m)
                 for j in range(1, m // 2 + 1))


def _product_form_value(eq: GeneratorEquation, params: CurveParams, u: float) -> float:
    """Evaluate the literal product of cosine factors at u (empty product = 1)."""
    a, _, mult = eq.rhs_factored
    prod = 1.0
    for root in _cosine_factors(params.m):
        prod *= u - root
    lin = (u - 2.0) ** a
    return lin * prod * prod if mult == 2 else lin * prod


class NumericCheck(namedtuple(
        "NumericCheck", "ok max_relative_deviation sample_points tolerance")):
    __slots__ = ()


def verify_equation_numeric(eq: GeneratorEquation,
                            params: CurveParams) -> NumericCheck:
    """Compare the exact rhs against the floating-point cosine product at
    2 deg + 1 sample points; true iff the max relative deviation is below
    TOLERANCE, the fixed bound 1e-9 that ``info``, ``generator`` and
    ``verify`` all apply and print.

    The rhs is evaluated exactly through its stored factorization
    (u - 2)^a Q^mult and rounded once at the end: a sample point is
    u = k / 2^s, so 2^(s deg Q) Q(u) is the integer sum of c_j k^j
    2^(s(deg Q - j)), a Horner sum in k of shifted c_j, and 2^(s deg) rhs(u)
    is (k - 2^(s+1))^a times its mult-th power; int / int rounds correctly.
    The deviation therefore measures only the error of the floating-point
    product form.  A rhs beyond the float range raises.
    """
    a, q, mult = eq.rhs_factored
    deg = a + mult * q.degree()
    count = 2 * deg + 1
    coeffs = q.coeffs[::-1]
    worst = 0.0
    for i in range(count):
        u = -3.0 + 6.0 * i / (count - 1)
        k, den = u.as_integer_ratio()
        s = den.bit_length() - 1
        scaled = shift = 0
        for c in coeffs:
            scaled = scaled * k + (c << shift)
            shift += s
        scaled = (k - (2 << s)) ** a * scaled ** mult
        try:
            exact = scaled / (1 << s * deg)
            approx = _product_form_value(eq, params, u)
        except OverflowError:
            approx = math.inf
        if not math.isfinite(approx):
            raise ValueError(
                f"rhs of degree {deg} overflows a float at u = {u:g}")
        dev = abs(exact - approx) / max(1.0, abs(exact), abs(approx))
        worst = max(worst, dev)
    return NumericCheck(worst < TOLERANCE, worst, count, TOLERANCE)
