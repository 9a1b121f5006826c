r"""Exact arithmetic substrate: integer polynomials and cyclotomic numbers.

Conventions used throughout the package:

* rationals are kept as integers and formed only when read or printed;
* an integer polynomial is an :class:`IntPolynomial`, a tuple of ``int``
  coefficients in ascending degree with no trailing zeros; the zero
  polynomial has an empty coefficient tuple; it has ring operations,
  powers and exact long division, and no square root, since every factor
  the package needs is built from a closed form;
* an element of Q(zeta_K) is the tuple of its phi(K) ``int`` coordinates
  in the power basis 1, x, ..., x^(phi(K)-1) modulo the K-th cyclotomic
  polynomial; it is built as a sum of roots of unity by
  :func:`_root_sum_vector`, and Galois automorphisms act on such a sum by
  scaling its exponents.

Phi_K is a Moebius product of binomials x^d - 1, a root sum is folded into
one array by zeta_K^P = +-1 and reduced by a single long division over the
nonzero coefficients of Phi_K, and Galois stabilizers are scanned through a
ring map Z[zeta_K] -> F_p, each surviving unit then confirmed exactly.

No floating point is used anywhere in this module.
"""
from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterable, Sequence
from functools import lru_cache


# Value types are tuples, not data classes: those cost ~30 ms of start-up.
class IntPolynomial(namedtuple("IntPolynomial", "coeffs")):
    """A polynomial over Z, as ascending coefficients with no trailing zeros.

    ``IntPolynomial((1, 0, 1))`` is x^2 + 1, ``IntPolynomial(())`` is 0.
    ``p + q`` and ``p * q`` are ring operations; ``3 * p`` is tuple repetition.
    """

    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        return super().__new__(cls, coeffs[:end])

    @classmethod
    def _make(cls, fields):            # so ``_replace`` normalises too
        return cls(*fields)

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

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

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
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


X = IntPolynomial((0, 1))


def poly_str(p: IntPolynomial) -> str:
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
            power = "u" if i == 1 else f"u^{i}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def _divisors(K: int) -> list[int]:
    out = [1]
    for p, e in _factorize(K):
        out = [d * p ** k for d in out for k in range(e + 1)]
    return sorted(out)


@lru_cache(maxsize=1024)
def _factorize(K: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of K >= 1 as a tuple of (p, e), p ascending, by
    trial division; memoized for 1024 K (a verify 33 sweep factors 928)."""
    out, p = [], 2
    while p * p <= K:
        if K % p == 0:
            e = 0
            while K % p == 0:
                K //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if K > 1:
        out.append((K, 1))
    return tuple(out)


def _is_prime(k: int) -> bool:
    return k >= 2 and _factorize(k)[0] == (k, 1)


def euler_phi(K: int) -> int:
    """Euler's totient, by trial-division factorization."""
    if K < 1:
        raise ValueError("totient needs a positive argument")
    return math.prod(p ** e - p ** (e - 1) for p, e in _factorize(K))


@lru_cache(maxsize=256)
def cyclotomic_poly(K: int) -> IntPolynomial:
    """The K-th cyclotomic polynomial Phi_K, monic of degree phi(K).

    Phi_K = prod over d | K of (x^d - 1)^mu(K/d).  For K > 1 the signs
    cancel, so Phi_K is the product of (1 - x^d)^mu(K/d) as a power series
    cut after degree phi(K); multiplying by 1 - x^d and dividing by it are
    each one pass over the coefficients.
    """
    if K < 1:
        raise ValueError("cyclotomic index must be positive")
    if K == 1:
        return IntPolynomial((-1, 1))
    size = euler_phi(K) + 1
    c = [1] + [0] * (size - 1)
    mobius = [(1, 1)]                  # (t, mu(t)) over squarefree t | K
    for q, _ in _factorize(K):
        mobius += [(t * q, -mu) for t, mu in mobius]
    for t, mu in mobius:
        d = K // t
        if mu > 0:
            for i in range(size - 1, d - 1, -1):
                c[i] -= c[i - d]
        else:
            for i in range(d, size):
                c[i] += c[i - d]
    return IntPolynomial(tuple(c))


@lru_cache(maxsize=256)
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


def _root_sum_vector(K: int, exponents: Iterable[int]) -> tuple[int, ...]:
    """Canonical coordinates of sum of zeta_K^e over the given exponents.

    zeta^P = s with (P, s) = (K/2, -1) for even K and (K, 1) for odd K, so
    every exponent lands in one array of length P >= phi(K), with sign s
    when it is moved down by P.  That array is then reduced modulo Phi_K by
    a single long division from the top over the nonzero lower
    coefficients of Phi_K, which is monic.
    """
    phi = cyclotomic_poly(K).coeffs
    d = len(phi) - 1
    P, s = (K // 2, -1) if K % 2 == 0 else (K, 1)
    acc = [0] * P
    for e in exponents:
        e %= K
        if e < P:
            acc[e] += 1
        else:
            acc[e - P] += s
    low = [(i, c) for i, c in enumerate(phi[:d]) if c]
    # x^top = -x^(top - d) (Phi_K - x^d) modulo Phi_K, for top >= d
    for top in range(P - 1, d - 1, -1):
        c = acc[top]
        if c:
            base = top - d
            for i, v in low:
                acc[base + i] -= c * v
    return tuple(acc[:d])


# A verify 16 --level trace sweep meets 95 moduli, verify 33 meets 370.
@lru_cache(maxsize=128)
def units_mod(K: int) -> tuple[int, ...]:
    """The residues in [1, K] prime to K, sieved by the primes dividing K;
    memoized for 128 K, as a tuple so that no caller can change the memo."""
    unit = [True] * (K + 1)
    for p, _ in _factorize(K):
        unit[p::p] = [False] * (K // p)
    return tuple([a for a in range(1, K + 1) if unit[a]])


@lru_cache(maxsize=64)
def _fp_root_powers(K: int) -> tuple[int, tuple[int, ...]]:
    """A prime p = 1 (mod K) above 2^16 and omega^j mod p for j < K, where
    omega has exact order K, so zeta_K -> omega is a ring map to F_p."""
    p = K * (2 ** 16 // K + 1) + 1
    while not _is_prime(p):
        p += K
    primes = [q for q, _ in _factorize(K)]
    for g in range(2, p):
        w = pow(g, (p - 1) // K, p)
        if all(pow(w, K // q, p) != 1 for q in primes):
            break
    powers, x = [1] * K, 1
    for j in range(1, K):
        x = x * w % p
        powers[j] = x
    return p, tuple(powers)


def subfield_degree(K: int, generators: Sequence[Iterable[int]]) -> int:
    """Degree over Q of the subfield of Q(zeta_K) generated by root sums.

    Each generator is a multiset of exponents e, standing for the element
    sum of zeta_K^e.  The degree is phi(K) divided by the size of the
    pointwise Galois stabilizer H, the intersection of the generators'
    stabilizers.  The input is first reduced to a canonical key: each
    generator becomes the sorted tuple of its exponents mod K, or of their
    negatives if that tuple is smaller (a Galois conjugate has the same
    stabilizer, since the group is abelian), and the distinct generators
    are sorted.  Equal keys stand for the same H, so the scan below runs
    once per key and its index is kept in a bounded memo.
    """
    keys = set()
    for g in generators:
        g = [e % K for e in g]
        up = sorted(g)
        down = sorted([-e % K for e in g])
        keys.add(tuple(up if up <= down else down))
    return _stabilizer_index(K, tuple(sorted(keys)))


# A verify sweep meets 357 distinct keys at nmax 16, 1581 at nmax 33
# (verify.VERIFY_NMAX_MAX) and 3672 at nmax 50, so this bound holds a sweep.
@lru_cache(maxsize=4096)
def _stabilizer_index(K: int, gens: tuple[tuple[int, ...], ...]) -> int:
    """The index of the pointwise stabilizer of the root sums ``gens``
    (sorted exponents in [0, K)) in (Z/KZ)^*.

    Units a mod K are scanned, -1 first, and sigma_a is first tested through
    the ring map zeta_K -> omega in F_p: a generator whose image changes is
    moved by sigma_a, so a is not in H.  A unit that passes is confirmed
    exactly, generator by generator: sigma_a fixes a root sum whose exponent
    multiset it permutes, and any other root sum is compared on power-basis
    coordinates.  No unit is tested in the subgroup S of H confirmed so far,
    nor in a coset rS of a rejected unit r, since rs in H would put r in H.
    """
    p, powers = _fp_root_powers(K)
    images = [sum([powers[e] for e in g]) % p for g in gens]

    def moves(a):
        for g, v in zip(gens, images):
            if sum([powers[a * e % K] for e in g]) % p != v:
                return True
        for g in gens:
            image = tuple(sorted([a * e % K for e in g]))
            if (image != g
                    and _root_sum_vector(K, image) != _root_sum_vector(K, g)):
                return True
        return False

    units = units_mod(K)
    stab, outside = {1}, set()
    for a in units[-1:] + units[:-1]:  # units[-1] is -1 when K > 2
        if a in stab or a in outside:
            continue
        if moves(a):
            outside.update([a * h % K for h in stab])
            continue
        coset, marked, power = set(stab), set(outside), a
        while power not in stab:
            coset.update([power * h % K for h in stab])
            marked.update([power * o % K for o in outside])
            power = power * a % K
        stab, outside = coset, marked
    return len(units) // len(stab)
