r"""Row-span combinatorics of the abelian square-tiled surface S(n, m).

S(n, m) is encoded by the 2 x 4 integer matrix, taken modulo N = 2nm,

    ( nm-n-m  nm+n-m  nm+n+m  nm-n+m )
    ( nm+n-m  nm-n-m  nm-n+m  nm+n+m )

whose row span (the subgroup of (Z/NZ)^4 generated by the two rows) indexes
the rank-two pieces of the cohomology of the family.  A row has r_3 = -r_1
and r_4 = -r_2 mod N, and row 2 is row 1 with coordinates (12)(34) swapped,
so the row span is {(a, b, -a, -b) : (a, b) in G} for the deck group
G = <(r1, r2), (r2, r1)> = <col_1, .., col_4> of (Z/NZ)^2 (see ``surface``).
Its order and membership are closed forms.  Only ``verify`` lists G, and
``surface.CombSurface.squares`` does, for the tests and the benchmark tracer.

For a row vector r the fractional parts t_j(r) = {r_j / N} control the
pieces: a piece is nonzero exactly when t(r) = 2 = t(-r), which holds on
every zero-free r = (a, b, N - a, N - b); the Klein four group permutes
pieces by coordinate swaps, and t_1(r) > max(t_2, t_3, t_4) selects one per
size-four orbit.  ``verify`` keeps that selection over G as its oracle;
``summands`` lists the selected pieces as their lattice points (k, j).
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd, lcm

Vector = tuple[int, int, int, int]


class CurveParams(namedtuple("CurveParams", "n m")):
    """A validated parameter pair (n, m) with n, m > 1 and nm >= 6."""

    __slots__ = ()

    def __new__(cls, n, m):
        if n <= 1 or m <= 1 or n * m < 6:
            raise ValueError("n, m must exceed 1 and nm >= 6")
        return super().__new__(cls, n, m)

    @classmethod
    def _make(cls, fields):            # so ``_replace`` validates too
        return cls(*fields)

    @property
    def N(self) -> int:
        return 2 * self.n * self.m

    @property
    def gamma(self) -> int:
        return gcd(self.n, self.m)

    @property
    def l(self) -> int:
        return lcm(self.n, self.m)


class Summand(namedtuple("Summand", "n m k j")):
    """The selected piece of T(n, m) at the lattice point (k, j), as ints.

    ``cli`` prints its angles (kappa, mu, nu) = (0, k/m, j/n), in units of
    pi, and its exponent (nm - nk - mj) / (nm - n - m) from the ints.
    ``tiling`` is set when mu and nu are unit fractions, i.e. when it tiles
    the hyperbolic plane.
    """

    __slots__ = ()

    @property
    def vector(self) -> Vector:
        n, m, k, j = self
        nm, w = n * m, n * k + m * j
        return (nm + w, nm - n * k + m * j, nm - w, nm + n * k - m * j)

    tiling = property(lambda self: self.m % self.k == 0 == self.n % self.j)


def _matrix_rows(n: int, m: int) -> tuple[Vector, Vector]:
    nm = n * m
    row1 = (nm - n - m, nm + n - m, nm + n + m, nm - n + m)
    row2 = (row1[1], row1[0], row1[3], row1[2])
    return row1, row2


def span_closure(gens, modulus: int) -> frozenset[tuple[int, ...]]:
    """The subgroup of (Z/modulus)^k generated by the given k-tuples, as a
    frozenset of k-tuples in [0, modulus)^k.

    Built one generator g at a time: for the least divisor c of the order of
    g with c g in the span H so far (the order itself while H = {0}), the
    span grows to H + {0, g, .., (c - 1) g}, formed coordinate by coordinate.
    The cosets H + i g, 0 <= i < c, are disjoint, so no element repeats, and
    r generators span at most modulus^min(r, k) elements; no bound is checked.
    """
    gens = [tuple(v % modulus for v in g) for g in gens]
    span = [(0,) * len(gens[0])]
    for g in gens:
        index = lcm(*(modulus // gcd(v, modulus) for v in g))
        if len(span) > 1:
            members = set(span)
            index = next(c for c in range(1, index + 1) if index % c == 0
                         and tuple(c * v % modulus for v in g) in members)
        multiples = list(zip(*[[c * v % modulus for c in range(index)]
                               for v in g]))
        shifts, span = sorted((span, multiples), key=len)
        if len(shifts) > 1:                # else shifts is the zero alone
            columns = list(zip(*span))
            span = [e for shift in shifts for e in zip(*[
                [(x + t) % modulus for x in column]
                for column, t in zip(columns, shift)])]
    return frozenset(span)


@lru_cache(maxsize=64)
def _span_entries(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """The deck group G in lex order, for ``verify``, the row span and the
    squares: the (a, b) with 2m | a + b, 2n | a - b and, if n and m are both
    even, (a + b)/2m = (a - b)/2n mod 2.

    Listed with no sort: with g = gcd(n, m), the b for a given a exist only
    when g | a, and form the progression b0, b0 + N/g, .. of g terms, with
    b0(tg) = t d mod N/g for d = b0(g).  A step N/g along it moves (a + b)/2m
    - (a - b)/2n by n/g + m/g, so if both are even the parity condition keeps
    every other term (n/g + m/g odd) or all or none of them (even).
    """
    g, N = gcd(n, m), 2 * n * m
    step = N // g
    d = next(b for b in range(2 * m - g, step, 2 * m)
             if (g - b) % (2 * n) == 0)
    firsts, starts = range(0, N, g), [t * d % step for t in range(step)]
    stride = step
    if n % 2 == 0 == m % 2:
        # a start of the wrong parity moves on one term, or past N
        skip, stride = (step, 2 * step) if (n // g + m // g) % 2 else (N, step)
        starts = [b + skip * (((a + b) // (2 * m) - (a - b) // (2 * n)) % 2)
                  for a, b in zip(firsts, starts)]
    if stride == N:                    # one term per progression
        return tuple(zip(firsts, starts))
    return tuple((a, b) for a, s in zip(firsts, starts)
                 for b in range(s, N, stride))


def deck_group_order(n: int, m: int) -> int:
    """|G|: 2nm, halved by the parity condition when n and m are both even."""
    return n * m if n % 2 == 0 == m % 2 else 2 * n * m


def in_deck_group(n: int, m: int, x: tuple[int, int]) -> bool:
    """Is x in G?  The conditions of ``_span_entries``, which hold for one
    representative of x mod N exactly when they hold for every one."""
    s, d = x[0] + x[1], x[0] - x[1]
    if s % (2 * m) or d % (2 * n):
        return False
    return n % 2 == 1 or m % 2 == 1 or (s // (2 * m) - d // (2 * n)) % 2 == 0


def row_span(params: CurveParams) -> tuple[Vector, ...]:
    """The subgroup of (Z/NZ)^4 generated by the two defining rows, as
    canonical integer 4-tuples (a, b, -a, -b), (a, b) in G, in lex order."""
    N = params.N
    return tuple([(a, b, -a % N, -b % N)
                  for a, b in _span_entries(params.n, params.m)])


def klein_orbits(span: tuple[Vector, ...]) -> list[frozenset[Vector]]:
    """The Klein orbits of the nonzero elements of a row span under the swaps
    sigma2 = (12)(34), sigma3 = (13)(24) and sigma4 = (14)(23)."""
    seen: set[Vector] = set()
    orbits = []
    for r in span:
        if r in seen or not any(r):
            continue
        a, b, c, d = r
        orbit = frozenset((r, (b, a, d, c), (c, d, a, b), (d, c, b, a)))
        seen |= orbit
        orbits.append(orbit)
    return orbits


def summands(params: CurveParams) -> tuple[Summand, ...]:
    """The selected summands of S(n, m), in canonical order.

    One per lattice point (k, j), 1 <= k < m, 1 <= j < n, nk + mj < nm, with
    k = j mod 2 when n and m are both even; its Lyapunov exponent is
    (nm - nk - mj) / (nm - n - m).  ``verify`` checks them against the
    t-value selection over the row span.

    Canonical order: descending exponent, then lexicographic (mu, nu), i.e.
    ascending (nk + mj, k).  The count of summands is the genus of T(n, m).
    """
    n, m = params.n, params.m
    nm = n * m
    # when n and m are both even, j steps over the parity of k
    both_even = n % 2 == 0 == m % 2
    step = 2 if both_even else 1
    points = [(n * k + m * j, k, j) for k in range(1, m)
              for j in range(2 - k % 2 if both_even else 1,
                             (nm - n * k - 1) // m + 1, step)]
    points.sort()
    make = Summand._make
    return tuple([make((n, m, k, j)) for _, k, j in points])
