r"""Exact arithmetic substrate: integer polynomials and cyclotomic numbers.

Conventions used throughout the package:

* rationals are ``fractions.Fraction`` (stored reduced, denominator > 0);
* an integer polynomial is an :class:`IntPolynomial`, a tuple of ``int``
  coefficients in ascending degree with no trailing zeros; the zero
  polynomial has an empty coefficient tuple;
* an element of Q(zeta_K) is a :class:`CyclotomicElement` written in the
  power basis 1, x, ..., x^(phi(K)-1) modulo the K-th cyclotomic polynomial;
  it is built as a sum of roots of unity, and Galois automorphisms act on
  such a sum by scaling its exponents.

No floating point is used anywhere in this module.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial over Z, as ascending coefficients with no trailing zeros.

    ``IntPolynomial((1, 0, 1))`` is x^2 + 1, ``IntPolynomial(())`` is 0.
    """

    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", coeffs[:end])

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def leading(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return not self.is_zero() and self.coeffs[-1] == 1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def divide(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        """Long division self = q * other + r, staying in Z[x].

        Raises ValueError if some quotient coefficient would be fractional
        (never happens for the monic divisors used in this package).
        """
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        dlead = other.coeffs[-1]
        dd = other.degree()
        rem = list(self.coeffs)
        if self.degree() < dd:
            return IntPolynomial(()), self
        quot = [0] * (self.degree() - dd + 1)
        for i in range(self.degree(), dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            if c % dlead:
                raise ValueError("non-integral quotient coefficient")
            f = c // dlead
            quot[i - dd] = f
            for t, oc in enumerate(other.coeffs):
                rem[i - dd + t] -= f * oc
        return IntPolynomial(tuple(quot)), IntPolynomial(tuple(rem))

    def exact_div(self, other: "IntPolynomial") -> "IntPolynomial":
        """Exact division; raises ValueError on a nonzero remainder."""
        q, r = self.divide(other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def sqrt_exact(self) -> "IntPolynomial":
        """The integer-polynomial square root with positive leading term.

        Computed coefficient by coefficient from the top, then confirmed by
        one exact multiplication; raises ValueError when no root exists in
        Z[x] (for instance on x^2 + 1).
        """
        if self.is_zero():
            return self
        d = self.degree()
        if d % 2:
            raise ValueError("odd degree, no polynomial square root")
        lead = self.coeffs[-1]
        if lead < 0:
            raise ValueError("negative leading coefficient")
        r = math.isqrt(lead)
        if r * r != lead:
            raise ValueError("leading coefficient is not a square")
        h = d // 2
        q = [0] * (h + 1)
        q[h] = r
        for i in range(h - 1, -1, -1):
            # coefficient of x^(i+h) in q*q is 2*q[i]*q[h] + known cross terms
            s = sum(q[a] * q[i + h - a] for a in range(i + 1, h))
            num = self.coeffs[i + h] - s
            if num % (2 * r):
                raise ValueError("not a perfect square in Z[x]")
            q[i] = num // (2 * r)
        cand = IntPolynomial(tuple(q))
        if cand * cand != self:
            raise ValueError("not a perfect square in Z[x]")
        return cand

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction, float, complex."""
        acc = 0 * x
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        return poly_str(self)


X = IntPolynomial((0, 1))


def poly_str(p: IntPolynomial, var: str = "u") -> str:
    """Human-readable rendering, highest degree first: ``u^5 - 5u^3 + 5u - 2``."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree(), -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if i == 0:
            body = str(mag)
        else:
            power = var if i == 1 else f"{var}^{i}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def _divisors(K: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= K:
        if K % d == 0:
            small.append(d)
            if d != K // d:
                large.append(K // d)
        d += 1
    return small + large[::-1]


def euler_phi(K: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if K < 1:
        raise ValueError("totient needs a positive argument")
    result, rem, p = 1, K, 2
    while p * p <= rem:
        if rem % p == 0:
            pk = 1
            while rem % p == 0:
                rem //= p
                pk *= p
            result *= pk - pk // p
        p += 1 if p == 2 else 2
    if rem > 1:
        result *= rem - 1
    return result


@lru_cache(maxsize=None)
def cyclotomic_poly(K: int) -> IntPolynomial:
    """The K-th cyclotomic polynomial Phi_K, monic of degree phi(K).

    Phi_K = (x^K - 1) / prod of Phi_d over proper divisors d of K; the
    division is exact in Z[x].
    """
    if K < 1:
        raise ValueError("cyclotomic index must be positive")
    if K == 1:
        return IntPolynomial((-1, 1))
    num = IntPolynomial((-1,) + (0,) * (K - 1) + (1,))
    for d in _divisors(K):
        if d < K:
            num = num.exact_div(cyclotomic_poly(d))
    return num


@lru_cache(maxsize=None)
def chebyshev_c(k: int) -> IntPolynomial:
    """The monic Chebyshev-type polynomial C_k with C_k(p + 1/p) = p^k + p^-k.

    C_0 = 2, C_1 = u, and C_{k+1} = u*C_k - C_{k-1}.  Equivalently
    C_k(u) = 2*T_k(u/2) for the classical Chebyshev T_k.
    """
    if k < 0:
        raise ValueError("negative Chebyshev index")
    if k == 0:
        return IntPolynomial((2,))
    prev, cur = IntPolynomial((2,)), X
    for _ in range(k - 1):
        prev, cur = cur, X * cur - prev
    return cur


@lru_cache(maxsize=None)
def _power_residues(K: int) -> tuple[tuple[int, ...], ...]:
    """x^j reduced mod Phi_K, for j in range(K), as integer coordinate rows."""
    phi = cyclotomic_poly(K).coeffs
    d = len(phi) - 1
    rows = []
    cur = [0] * d
    cur[0] = 1
    for _ in range(K):
        rows.append(tuple(cur))
        top = cur[d - 1]
        nxt = [0] * d
        for i in range(1, d):
            nxt[i] = cur[i - 1]
        if top:
            for i in range(d):
                nxt[i] -= top * phi[i]
        cur = nxt
    return tuple(rows)


def _root_sum_vector(K: int, exponents: Iterable[int]) -> tuple[int, ...]:
    """Canonical coordinates of sum of zeta_K^e over the given exponents."""
    table = _power_residues(K)
    acc = None
    for e in exponents:
        row = table[e % K]
        if acc is None:
            acc = list(row)
        else:
            for i, v in enumerate(row):
                acc[i] += v
    if acc is None:
        return (0,) * len(table[0])
    return tuple(acc)


@dataclass(frozen=True)
class CyclotomicElement:
    """An element of Q(zeta_K) in the power basis modulo Phi_K.

    ``coords`` has length phi(K).  Equality is coordinate-wise, which is
    exact equality in the field.  Elements are built from root sums; the
    Galois automorphism zeta -> zeta^a of a unit a mod K acts on a root sum
    by scaling its exponents, which is how :func:`subfield_degree` applies
    it.
    """

    order: int
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        d = euler_phi(self.order)
        if len(self.coords) != d:
            raise ValueError(f"need {d} coordinates for order {self.order}")
        object.__setattr__(
            self, "coords", tuple(Fraction(c) for c in self.coords))

    @classmethod
    def from_root_powers(cls, K: int, exponents: Iterable[int]) -> "CyclotomicElement":
        """Sum of zeta_K^e over the exponent multiset."""
        vec = _root_sum_vector(K, exponents)
        return cls(K, tuple(Fraction(v) for v in vec))


def units_mod(K: int) -> list[int]:
    return [a for a in range(1, K + 1) if math.gcd(a, K) == 1]


def subfield_degree(K: int, generators: Sequence[Iterable[int]]) -> int:
    """Degree over Q of the subfield of Q(zeta_K) generated by root sums.

    Each generator is a multiset of exponents e, standing for the element
    sum of zeta_K^e.  The degree is phi(K) divided by the size of the
    pointwise Galois stabilizer, scanned exactly over all units mod K.
    """
    gens = [tuple(g) for g in generators]
    base = [_root_sum_vector(K, g) for g in gens]
    units = units_mod(K)
    stab = 0
    for a in units:
        if all(
            _root_sum_vector(K, tuple(a * e for e in g)) == b
            for g, b in zip(gens, base)
        ):
            stab += 1
    return len(units) // stab
