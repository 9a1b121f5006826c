r"""Row-span combinatorics of the abelian square-tiled surface S(n, m).

S(n, m) is encoded by the 2 x 4 integer matrix, taken modulo N = 2nm,

    ( nm-n-m  nm+n-m  nm+n+m  nm-n+m )
    ( nm+n-m  nm-n-m  nm-n+m  nm+n+m )

whose row span (the subgroup of (Z/NZ)^4 generated by the two rows) indexes
the rank-two pieces of the cohomology of the family.  A row has r_3 = -r_1
and r_4 = -r_2 mod N, and row 2 is row 1 with coordinates (12)(34) swapped,
so the row span is {(a, b, -a, -b) : (a, b) in G} for the deck group
G = <(r1, r2), (r2, r1)> = <col_1, .., col_4> of (Z/NZ)^2 (see ``surface``).
G is enumerated once, as pairs, and everything below is read off it.

For a row vector r the fractional parts t_j(r) = {r_j / N} control
everything: a piece is nonzero exactly when t(r) = 2 = t(-r), which holds on
every zero-free r = (a, b, N - a, N - b); the Klein four group permutes
pieces by coordinate swaps, and one representative per size-four orbit is
selected by t_1(r) > max(t_2, t_3, t_4).  Each selected piece carries a
hyperbolic triangle with angles (kappa, mu, nu) in units of pi and a
Lyapunov exponent.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

KLEIN_ELEMENTS = ("id", "sigma2", "sigma3", "sigma4")

# Coordinate permutations: sigma2 = (12)(34), sigma4 = (14)(23) and
# sigma3 = sigma2 . sigma4 = (13)(24), written as index maps.
_KLEIN_PERMS = {
    "id": (0, 1, 2, 3),
    "sigma2": (1, 0, 3, 2),
    "sigma4": (3, 2, 1, 0),
    "sigma3": (2, 3, 0, 1),
}

Vector = tuple[int, int, int, int]


@dataclass(frozen=True)
class CurveParams:
    """A validated parameter pair (n, m) with n, m > 1 and nm >= 6."""

    n: int
    m: int

    def __post_init__(self):
        if self.n <= 1 or self.m <= 1 or self.n * self.m < 6:
            raise ValueError("n, m must exceed 1 and nm >= 6")

    @property
    def N(self) -> int:
        return 2 * self.n * self.m

    @property
    def gamma(self) -> int:
        return gcd(self.n, self.m)

    @property
    def l(self) -> int:
        return lcm(self.n, self.m)


@dataclass(frozen=True)
class Summand:
    """A selected row vector with its triangle angles and Lyapunov exponent.

    ``vector`` has canonical entries in [0, N).  Angles are in units of pi;
    kappa is always 0, mu has denominator dividing m and nu has denominator
    dividing n.  ``tiling`` is set when mu and nu are both unit fractions,
    i.e. when the (kappa, mu, nu) triangle tiles the hyperbolic plane.
    """

    vector: Vector
    kappa: Fraction
    mu: Fraction
    nu: Fraction
    lyapunov: Fraction
    tiling: bool

    @property
    def angles(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.kappa, self.mu, self.nu)


def _matrix_rows(n: int, m: int) -> tuple[Vector, Vector]:
    nm = n * m
    row1 = (nm - n - m, nm + n - m, nm + n + m, nm - n + m)
    row2 = (row1[1], row1[0], row1[3], row1[2])
    return row1, row2


def span_closure(gens, modulus: int) -> tuple[tuple[int, ...], ...]:
    """The subgroup of (Z/modulus)^k generated by the given k-tuples, sorted.

    Enumerated by breadth-first closure under generator addition.  The
    subgroup has at most modulus^min(#gens, k) elements; exceeding that
    bound raises.
    """
    gens = [tuple(v % modulus for v in g) for g in gens]
    zero = (0,) * len(gens[0])
    cap = modulus ** min(len(gens), len(zero))
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                cand = tuple([(a + b) % modulus for a, b in zip(e, g)])
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
        if len(seen) > cap:
            raise AssertionError("span closure exceeded its bound")
    return tuple(sorted(seen))


@lru_cache(maxsize=64)
def _span_entries(n: int, m: int) -> tuple[tuple[int, int], ...]:
    """The deck group G as sorted pairs, closed from (r1, r2) and (r2, r1)."""
    r1, r2 = _matrix_rows(n, m)[0][:2]
    return span_closure(((r1, r2), (r2, r1)), 2 * n * m)


def row_span(params: CurveParams) -> tuple[Vector, ...]:
    """The subgroup of (Z/NZ)^4 generated by the two defining rows, as
    canonical integer 4-tuples (a, b, -a, -b), (a, b) in G, in lex order."""
    N = params.N
    return tuple((a, b, -a % N, -b % N)
                 for a, b in _span_entries(params.n, params.m))


def klein_action(r: Vector, element: str) -> Vector:
    """Apply a Klein four-group element, acting by coordinate permutation."""
    try:
        perm = _KLEIN_PERMS[element]
    except KeyError:
        raise ValueError(f"unknown Klein element {element!r}; "
                         f"expected one of {KLEIN_ELEMENTS}") from None
    return tuple(r[i] for i in perm)


def klein_orbit(r: Vector) -> frozenset[Vector]:
    return frozenset(klein_action(r, e) for e in KLEIN_ELEMENTS)


def klein_orbits(params: CurveParams) -> list[frozenset[Vector]]:
    """The Klein orbits of the nonzero row-span elements."""
    seen: set[Vector] = set()
    orbits = []
    for r in row_span(params):
        if not any(r) or r in seen:
            continue
        orbit = klein_orbit(r)
        seen.update(orbit)
        orbits.append(orbit)
    return orbits


def summands(params: CurveParams) -> tuple[Summand, ...]:
    """The selected summands of S(n, m), in canonical order.

    Selection: r in the row span with t(r) = 2 = t(-r) and
    t_1(r) > max(t_2, t_3, t_4), where t_j(r) = {r_j / N}; this picks one
    representative from each size-four Klein orbit of nonzero pieces.  With
    t_i = t_i(-r) the angles are kappa = |1 - t1 - t3| (always 0),
    mu = |1 - t2 - t3| and nu = |1 - t1 - t2|, and the Lyapunov exponent is
    2 min_j {t_j, 1 - t_j} / (1 - 1/n - 1/m).

    Canonical order: descending Lyapunov exponent, then lexicographic
    (mu, nu).  The count of summands equals the genus of T(n, m).
    """
    n, m, N = params.n, params.m, params.N
    out = []
    # On r = (a, b, N - a, N - b), t_1 > max(t_2, t_3, t_4) reads a > b,
    # a > N - a, a > N - b; the last rules out zero entries, and with no
    # zero entry t(r) = 2 = t(-r) holds.
    for a, b in _span_entries(n, m):
        if not (a > b and 2 * a > N and a + b > N):
            continue
        # |1 - t_i(-r) - t_j(-r)| = |r_i + r_j - N| / N, so kappa = 0
        mu, nu = Fraction(a - b, N), Fraction(a + b - N, N)
        out.append(Summand(
            (a, b, N - a, N - b), Fraction(0), mu, nu,
            Fraction(min(a, b, N - a, N - b), n * m - n - m),
            mu.numerator == 1 and nu.numerator == 1))
    out.sort(key=lambda s: (-s.lyapunov, s.mu, s.nu))
    return tuple(out)
