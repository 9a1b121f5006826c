r"""Curve-level invariants of T(n, m).

Everything here is exact: genus and uniformizer from closed forms,
covering relations both from the divisibility criterion and from a
row-span containment certificate, and trace-field degrees both from closed
forms and from a Galois-stabilizer computation in Q(zeta_2l).

Trace fields.  With zeta_k = exp(2 pi i / k), l = lcm(n, m):

    F = Q[zeta_2n + 1/zeta_2n, zeta_2m + 1/zeta_2m]            (trace field)
    E = Q[zeta_n + 1/zeta_n, zeta_m + 1/zeta_m,
          (zeta_2n + 1/zeta_2n)(zeta_2m + 1/zeta_2m)]  (invariant trace field)

Both are subfields of Q(zeta_2l), so their degrees are phi(2l) divided by
the size of the pointwise Galois stabilizer of the generators.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .exact import (_divisors, _is_prime, _root_sum_vector, euler_phi,
                    subfield_degree)
from .generators import generator_equation
from .rowspan import CurveParams, _matrix_rows, in_deck_group, summands

ARITHMETIC_PAIRS = frozenset(
    {(2, 3), (2, 4), (2, 6), (3, 3), (4, 4), (6, 6)})


# ---------------------------------------------------------------------------
# genus, arithmeticity, uniformizing group
# ---------------------------------------------------------------------------

def genus(params: CurveParams) -> int:
    """Genus of T(n, m), by the three-case closed form in (n-1)(m-1) and
    gamma = gcd(n, m); always equals the number of summands."""
    n, m, g = params.n, params.m, params.gamma
    a = (n - 1) * (m - 1)
    # each division is exact.  With n odd, a is even and g odd.  With n, m
    # even, write n = g n', m = g m': the numerator is g^2 n'm' - g(n' + m'
    # + 2) + 4 when n', m' are odd and g^2 n'm' - g(n' + m' + 1) + 4 when one
    # is even, and g and the bracket are even in both
    if n % 2 or m % 2:
        return (a + 1 - g) // 2
    if (n // g) % 2 and (m // g) % 2:
        return (a + 3 - 2 * g) // 4
    return (a + 3 - g) // 4


def is_arithmetic(params: CurveParams) -> bool:
    return tuple(sorted((params.n, params.m))) in ARITHMETIC_PAIRS


class Uniformizer(namedtuple("Uniformizer", "signature index_two",
                             defaults=(False,))):
    """Label for the uniformizing Fuchsian group of T(n, m).

    ``signature`` entries are integers or None for a cusp; ``index_two`` is
    set when the group is the index-two subgroup of the named triangle
    group rather than the triangle group itself (default False).
    """

    __slots__ = ()

    def label(self) -> str:
        inner = ",".join("oo" if v is None else str(v) for v in self.signature)
        base = f"Delta({inner})"
        return f"IndexTwoSubgroup({base})" if self.index_two else base

    def normalized(self) -> tuple:
        """Signature up to reordering, for comparisons under (n, m) swap."""
        key = tuple(sorted((v if v is not None else 0) for v in self.signature))
        return (self.index_two, key)


def uniformizer(params: CurveParams) -> Uniformizer:
    """The uniformizing group of T(n, m)."""
    n, m = params.n, params.m
    if n != m and (n % 2 or m % 2):
        return Uniformizer((n, m, None))
    if n != m:
        return Uniformizer((n, m, None), index_two=True)
    if n % 2:
        return Uniformizer((2, n, None))
    return Uniformizer((n // 2, None, None))


# ---------------------------------------------------------------------------
# covering relations
# ---------------------------------------------------------------------------

def covers_criterion(big: CurveParams, small: CurveParams) -> bool:
    """Divisibility test: n' | n, m' | m, and when n and m are both even
    also n/n' + m/m' even.  Excludes the trivial pair (n, m) itself."""
    n, m = big.n, big.m
    np_, mp = small.n, small.m
    if (np_, mp) == (n, m):
        return False
    if n % np_ or m % mp:
        return False
    if n % 2 == 0 and m % 2 == 0 and (n // np_ + m // mp) % 2:
        return False
    return True


# A verify 16 sweep lists the covers of 224 pairs, verify 33 of 1023.
@lru_cache(maxsize=256)
def covers(params: CurveParams) -> tuple[CurveParams, ...]:
    """All T(n', m') covered by every point of T(n, m), sorted by (n', m').

    Each returned pair also passes the row-span containment certificate of
    :func:`verify_cover`.  Memoized for 256 pairs, so the spectrum level
    lists each pair's covers once for its spectrum and swap checks.
    """
    out = []
    for np_ in _divisors(params.n):
        for mp in _divisors(params.m):
            if np_ <= 1 or mp <= 1 or np_ * mp < 6:
                continue
            small = CurveParams(np_, mp)
            if covers_criterion(params, small):
                out.append(small)
    return tuple(out)


class CoverCertificate(namedtuple("CoverCertificate",
                                  "scale generator_images holds")):
    """Containment certificate: k times the row span of S(n', m') lands in
    the row span of S(n, m), where k = nm / (n'm') is the ``scale``."""

    __slots__ = ()


def verify_cover(big: CurveParams, small: CurveParams) -> CoverCertificate:
    """Check the row-span containment of the covering S(n, m) -> S(n', m') by
    G's defining conditions; rejects pairs whose areas do not divide."""
    nm_big = big.n * big.m
    nm_small = small.n * small.m
    if nm_big % nm_small:
        raise ValueError(f"{nm_small} does not divide {nm_big}")
    k = nm_big // nm_small
    N = big.N
    images = tuple(
        tuple((k * v) % N for v in row)
        for row in _matrix_rows(small.n, small.m))
    # the row span of S(n, m) is {(a, b, -a, -b) : (a, b) in G}
    holds = all(img[2:] == (-img[0] % N, -img[1] % N)
                and in_deck_group(big.n, big.m, img[:2]) for img in images)
    return CoverCertificate(k, images, holds)


# ---------------------------------------------------------------------------
# trace fields
# ---------------------------------------------------------------------------

def trace_degrees(params: CurveParams) -> tuple[int, int]:
    """(deg F, deg E) over Q, by the closed forms.

    deg F = phi(2l)/4 if gamma = 1, else phi(2l)/2.  E = F when n or m is
    odd; for n, m both even deg E = phi(2l)/4 unless gamma > 2 with one of
    n/gamma, m/gamma even, in which case phi(2l)/2.
    """
    n, m, g = params.n, params.m, params.gamma
    # phi(2l) is even, and 4 | phi(2l) wherever it is divided by 4: for
    # gamma = 1, 2nm has two odd prime factors, or one and 4 | 2nm; for n, m
    # even, 4 | 2l and l > 2, so 2l has an odd prime factor or 8 | 2l
    phi = euler_phi(2 * params.l)
    deg_f = phi // 4 if g == 1 else phi // 2
    if n % 2 or m % 2:
        return deg_f, deg_f
    if g > 2 and ((n // g) % 2 == 0 or (m // g) % 2 == 0):
        return deg_f, phi // 2
    return deg_f, phi // 4


def trace_degrees_oracle(params: CurveParams) -> tuple[int, int]:
    """(deg F, deg E) by exact Galois stabilizers inside Q(zeta_2l).

    zeta_2n = zeta_2l^(l/n), so the generators become explicit root sums;
    the degree is phi(2l) over the number of units fixing all of them.
    """
    n, m, l = params.n, params.m, params.l
    K = 2 * l
    a, b = l // n, l // m
    gens_f = [(a, -a), (b, -b)]
    gens_e = [
        (2 * a, -2 * a),
        (2 * b, -2 * b),
        (a + b, a - b, -a + b, -a - b),
    ]
    return subfield_degree(K, gens_f), subfield_degree(K, gens_e)


def admissible_triangle_group(params: CurveParams) -> bool:
    """False exactly when deg F = 2 deg E, i.e. when n, m are even with
    gamma = 2 or n/gamma, m/gamma both odd; no Teichmuller curve is then
    uniformized by the full (n, m, oo) triangle group."""
    deg_f, deg_e = trace_degrees(params)
    return deg_f != 2 * deg_e


class HeckeScalars(namedtuple("HeckeScalars", "scalars field_degree")):
    """The three deck-transformation scalars acting on the generating form,
    each the tuple of its phi(N) power-basis coordinates in Q(zeta_N),
    N = 2nm, and the degree of the field they generate (always deg E)."""

    __slots__ = ()


def hecke_scalars(params: CurveParams) -> HeckeScalars:
    """Scalars zeta^(p r1 + q r2) + zeta^-(p r1 + q r2) + zeta^(p r2 + q r1)
    + zeta^-(p r2 + q r1) for (p, q) in {(1,1), (1,-1), (1,0)}, with
    r1 = nm - n - m and r2 = nm + n - m; they generate the invariant trace
    field."""
    N = params.N
    r1, r2 = _matrix_rows(params.n, params.m)[0][:2]
    exps = []
    for p, q in ((1, 1), (1, -1), (1, 0)):
        u, v = p * r1 + q * r2, p * r2 + q * r1
        exps.append((u, -u, v, -v))
    scalars = tuple(_root_sum_vector(N, e) for e in exps)
    return HeckeScalars(scalars, subfield_degree(N, exps))


# ---------------------------------------------------------------------------
# algebraic primitivity
# ---------------------------------------------------------------------------

def _ap_criterion(n: int, m: int) -> bool:
    """One of n, m equals 2 and the other is a prime, twice a prime, or a
    power of two."""
    if 2 not in (n, m):
        return False
    other = m if n == 2 else n
    if _is_prime(other):
        return True
    if other % 2 == 0 and _is_prime(other // 2):
        return True
    return other >= 2 and other & (other - 1) == 0


class PrimitivityVerdict(namedtuple("PrimitivityVerdict", (
        "applicable primitive by_criterion by_trace_degree"))):
    """Algebraic primitivity; not applicable on arithmetic curves.

    When applicable, ``primitive`` is the number-theoretic criterion and
    ``by_trace_degree`` is deg E = genus; ``verify`` checks that they agree.
    """

    __slots__ = ()


def algebraically_primitive(params: CurveParams) -> PrimitivityVerdict:
    if is_arithmetic(params):
        return PrimitivityVerdict(False, False, None, None)
    crit = _ap_criterion(params.n, params.m)
    match = trace_degrees(params)[1] == genus(params)
    return PrimitivityVerdict(True, crit, crit, match)


# ---------------------------------------------------------------------------
# aggregate report
# ---------------------------------------------------------------------------

class CurveReport(namedtuple("CurveReport", (
        "params genus summand_list arithmetic uniformizer zeros covers "
        "trace_degree_F trace_degree_E admissible_triangle_group "
        "primitivity generator notes"))):
    __slots__ = ()


def curve_report(params: CurveParams) -> CurveReport:
    """Compute every invariant of T(n, m) by its closed form and bundle it
    into one report; the oracles stay in ``verify``."""
    n, m, g = params.n, params.m, params.gamma
    deg_f, deg_e = trace_degrees(params)
    notes = [f"T({params.n},{params.m}) = T({params.m},{params.n})"]
    if is_arithmetic(params):
        notes.append("arithmetic: generated by a square-tiled surface")
    if 2 in (params.n, params.m):
        k = params.m if params.n == 2 else params.n
        notes.append(f"Veech curve of the regular {k}-gon")
    if 3 in (params.n, params.m):
        k = params.m if params.n == 3 else params.n
        notes.append(
            f"Ward curve from billiards in the triangle with angles "
            f"pi/{2 * k}, pi/{k}, {2 * k - 3}pi/{2 * k}")
    return CurveReport(
        params=params,
        genus=genus(params),
        summand_list=summands(params),
        arithmetic=is_arithmetic(params),
        uniformizer=uniformizer(params),
        # zeros of equal order: gamma of them, or gamma/2 when n = m is even
        zeros=(g // 2 if n == m and n % 2 == 0 else g, True),
        covers=covers(params),
        trace_degree_F=deg_f,
        trace_degree_E=deg_e,
        admissible_triangle_group=admissible_triangle_group(params),
        primitivity=algebraically_primitive(params),
        generator=generator_equation(params),
        notes=tuple(notes),
    )
