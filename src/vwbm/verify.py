r"""Cross-module consistency suites over (n, m) grids.

Each check sweeps every valid pair up to a bound and returns a
:class:`CheckResult` carrying a named counterexample on failure.  These
suites are the oracles behind the ``verify`` CLI command and the
acceptance tests: closed forms are compared against independent
enumerations (row-span combinatorics against Riemann-Hurwitz counts,
divisibility criteria against containment certificates, degree formulas
against Galois-stabilizer scans, exact polynomials against an integer
cosine-root identity and a floating-point product form, symmetry lifts
against the deck-group relations they must satisfy).

Set VWBM_THREADS > 1 to fan the per-pair work out to a process pool; the
pool never gets more workers than there are pairs to check or CPUs that this
process may run on.
"""
from __future__ import annotations

import os
from collections import namedtuple
from functools import cached_property, partial

from . import generators as gens
from . import invariants as inv
from . import rowspan
from .exact import IntPolynomial, chebyshev_c
from .rowspan import (CurveParams, _matrix_rows, in_deck_group, klein_orbits,
                      row_span, span_closure, summands)
from .surface import (build_surface, cylinder_preservation_check,
                      fixed_edges, intertwine_check, lift_class_count,
                      lift_sigma2, lift_sigma4, sigma4_variants, surface_genus)


class CheckResult(namedtuple("CheckResult", "name passed detail stats")):
    __slots__ = ()

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if (self.detail and not self.passed) else ""
        return f"{status}  {self.name} ({self.stats['pairs']} pairs){extra}"


def valid_pairs(nmax: int) -> list[tuple[int, int]]:
    return [(n, m) for n in range(2, nmax + 1) for m in range(2, nmax + 1)
            if n * m >= 6]


def _thread_cap(pairs) -> int:
    """Workers for a sweep: VWBM_THREADS, clamped to the pairs and to the
    CPUs this process may run on (the machine's where the OS cannot say)."""
    raw = os.environ.get("VWBM_THREADS", "1")
    try:
        wanted = int(raw)
    except ValueError:
        wanted = 1
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return max(1, min(wanted, cpus, len(pairs)))


def _map_pairs(worker, pairs):
    cap = _thread_cap(pairs)
    if cap > 1:
        # imported here, so no other command pays for loading multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=cap) as pool:
            chunk = max(1, len(pairs) // (4 * cap))
            return list(pool.map(worker, pairs, chunksize=chunk))
    return [worker(p) for p in pairs]


class PairContext:
    """A pair, its params, and what several of its checks read, each built
    on first read and then kept; a build that raises keeps nothing."""

    def __init__(self, pair: tuple[int, int]):
        self.pair, self.params = pair, CurveParams(*pair)

    @cached_property
    def summands(self):
        return summands(self.params)

    @cached_property
    def surface(self):
        return build_surface(self.params)


class Check(namedtuple("Check", "name worker")):
    """A named check and its worker, which reads a pair's context and
    returns a counterexample or None; ``run_suite`` sweeps the checks."""

    __slots__ = ()


def _pair_outcomes(checks, pair) -> tuple[str | None, ...]:
    """Each check's counterexample at the pair, all read from one context;
    a check that raises fails there, and the other checks still run."""
    ctx = PairContext(pair)
    outcomes = []
    for check in checks:
        try:
            outcomes.append(check.worker(ctx))
        except (ArithmeticError, AssertionError, ValueError) as exc:
            outcomes.append(
                f"({pair[0]},{pair[1]}): {type(exc).__name__}: {exc}")
    return tuple(outcomes)


def _sweep(checks, nmax: int) -> list[CheckResult]:
    """Run the checks pair by pair, so the checks of a pair share its
    context; each check keeps its first counterexample in pair order."""
    pairs = valid_pairs(nmax)
    first = [None] * len(checks)
    for outcomes in _map_pairs(partial(_pair_outcomes, checks), pairs):
        first = [f if f is not None else o for f, o in zip(first, outcomes)]
    return [CheckResult(check.name, f is None, f or "", {"pairs": len(pairs)})
            for check, f in zip(checks, first)]


# ---------------------------------------------------------------------------
# row span
# ---------------------------------------------------------------------------

def _rowspan_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    N = ctx.params.N
    # row_span is {(x, -x) : x in G}; the oracle checks each row's form
    # (x, -x) and closes the x in (Z/NZ)^2, independently of G's closed form
    deck, rows = rowspan._span_entries(n, m), _matrix_rows(n, m)
    if (any((v + w) % N for row in rows for v, w in zip(row, row[2:]))
            or span_closure([row[:2] for row in rows], N) != deck):
        return f"({n},{m}): row span differs from the closure of the rows"
    # stated members of the span: always (2m,2m,-2m,-2m), (2n,-2n,-2n,2n)
    # and (-n-m, n-m, n+m, -n+m); also the halved pair when n or m is odd
    members = [(2 * m, 2 * m, -2 * m, -2 * m), (2 * n, -2 * n, -2 * n, 2 * n),
               (-n - m, n - m, n + m, -n + m)]
    if n % 2 or m % 2:
        members += [(m, m, -m, -m), (n, -n, -n, n)]
    for vec in members:
        if (any((v + w) % N for v, w in zip(vec, vec[2:]))
                or not in_deck_group(n, m, vec[:2])):
            return f"({n},{m}): {vec} missing from the row span"
    return None


check_rowspan_identities = Check("row-span t identities", _rowspan_pair)


def _klein_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    # the nonzero pieces: Klein orbits of the zero-free row span elements
    pieces = [orbit for orbit in klein_orbits(row_span(ctx.params))
              if 0 not in next(iter(orbit))]
    # t_1 > max(t_2, t_3, t_4) picks the member of a free orbit that leads
    # with its strict maximum entry: the orbit's lex maximum, one per orbit
    selected = sorted(max(orbit) for orbit in pieces if len(orbit) == 4)
    if sorted(s.vector for s in ctx.summands) != selected:
        return f"({n},{m}): summands differ from the t-value selection"
    # a zero-free sigma3-fixed (a, b, -a, -b) is all-nm, as 2a = 2b = 0 mod N
    return None


check_klein_orbits = Check("Klein orbit selection", _klein_pair)


# ---------------------------------------------------------------------------
# genus
# ---------------------------------------------------------------------------

def _genus_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    N = ctx.params.N
    closed = inv.genus(ctx.params)
    count = len(ctx.summands)
    # on G's pairs: (a, b, -a, -b) is zero-free when a, b != 0, and its Klein
    # orbit (a, b), (b, a), (-a, -b), (-b, -a) is free unless b = a or
    # a + b = 0 (2a = 2b = 0 forces b = a); a free orbit has 4 elements
    zero_free = [(a, b) for a, b in rowspan._span_entries(n, m) if a and b]
    free = sum(a != b and a + b != N for a, b in zero_free)
    orbit_genus = free // 4 if free % 4 == 0 else f"{free}/4"
    if not closed == count == orbit_genus:
        return (f"({n},{m}): genus closed={closed} summands={count} "
                f"orbit={orbit_genus}")
    # every zero-free span element carries a rank-two piece
    cover_genus = surface_genus(ctx.surface)
    if len(zero_free) != cover_genus:
        return (f"({n},{m}): {len(zero_free)} zero-free span elements vs "
                f"S-genus {cover_genus}")
    return None


check_genus_agreement = Check("genus triple agreement", _genus_pair)


# ---------------------------------------------------------------------------
# trace fields
# ---------------------------------------------------------------------------

def _trace_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    params = ctx.params
    closed = inv.trace_degrees(params)
    oracle = inv.trace_degrees_oracle(params)
    if closed != oracle:
        return f"({n},{m}): closed {closed} vs oracle {oracle}"
    # E = F for odd n or m, and deg F = 2 deg E exactly on the set below,
    # are branches of trace_degrees: once the oracle agrees they could fail
    # only if it and the Galois scan were wrong alike, and the second shows
    # as a wrong flag too, as admissible_triangle_group is deg F != 2 deg E
    g = params.gamma
    inadmissible = (n % 2 == 0 and m % 2 == 0
                    and (g == 2 or ((n // g) % 2 and (m // g) % 2)))
    if inv.admissible_triangle_group(params) == inadmissible:
        return f"({n},{m}): admissibility flag wrong"
    if inv.hecke_scalars(params).field_degree != closed[1]:
        return f"({n},{m}): Hecke scalars do not generate E"
    return None


check_trace_fields = Check("trace degrees formula vs oracle", _trace_pair)


def _primitivity_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    verdict = inv.algebraically_primitive(ctx.params)
    if verdict.applicable == inv.is_arithmetic(ctx.params):
        return f"({n},{m}): applicability flag wrong"
    by_degree = inv.trace_degrees(ctx.params)[1] == inv.genus(ctx.params)
    if verdict.applicable and verdict.primitive != by_degree:
        return (f"({n},{m}): criterion={verdict.primitive} "
                f"deg E = genus is {by_degree}")
    return None


check_primitivity = Check(
    "algebraic primitivity criterion vs degrees", _primitivity_pair)


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def _covers_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    big = ctx.params
    certified = set()
    for np_ in range(2, n + 1):
        if n % np_:
            continue
        for mp in range(2, m + 1):
            if m % mp or np_ * mp < 6 or (np_, mp) == (n, m):
                continue
            small = CurveParams(np_, mp)
            criterion = inv.covers_criterion(big, small)
            oracle = inv.verify_cover(big, small).holds
            if criterion != oracle:
                return (f"({n},{m}) vs ({np_},{mp}): criterion={criterion} "
                        f"containment={oracle}")
            if criterion:
                certified.add((np_, mp))
    # covers() lists exactly the certified pairs, so each listed cover holds
    # and none is dropped
    if {(c.n, c.m) for c in inv.covers(big)} != certified:
        return f"({n},{m}): covers() differs from the certified covers"
    return None


check_covers = Check("covering criterion vs containment oracle", _covers_pair)


# ---------------------------------------------------------------------------
# square-tiled lifts
# ---------------------------------------------------------------------------

def _lift_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    surface = ctx.surface
    lift2 = lift_sigma2(surface)
    variants = [lift_sigma4(surface, v)
                for v in sigma4_variants(ctx.params)]
    # two involutive lifts commute, so once both are involutions nothing
    # is left to check there: L2 L4 keeps colors and has linear part -I, so
    # it is an involution too, and L4 L2 = (L2 L4)^-1 = L2 L4
    if not lift2.is_involution():
        return f"({n},{m}): sigma2 lift is not an involution"
    if not fixed_edges(surface, lift2):
        return f"({n},{m}): sigma2 lift has no fixed edge"
    horiz = cylinder_preservation_check(surface, lift2)
    if horiz is not None:
        return f"({n},{m}): sigma2 {horiz}"
    for lift4 in variants:
        tag = f"sigma4 variant {lift4.variant}"
        if not lift4.is_involution():
            return f"({n},{m}): {tag} is not an involution"
        if not fixed_edges(surface, lift4):
            return f"({n},{m}): {tag} has no fixed edge"
        rel = intertwine_check(surface, lift2, lift4)
        if rel is not None:
            return f"({n},{m}): {tag} {rel}"
        vert = cylinder_preservation_check(surface, lift4)
        if vert is not None:
            return f"({n},{m}): {tag} {vert}"
    got = lift_class_count(surface)
    if got != len(variants):
        return f"({n},{m}): {got} lift classes, expected {len(variants)}"
    return None


check_lifts = Check("pillowcase symmetry lift suite", _lift_pair)


# ---------------------------------------------------------------------------
# generator equations
# ---------------------------------------------------------------------------

def _cosine_root_identity(q: IntPolynomial, m: int) -> bool:
    """Is p^d Q(p + 1/p), d = deg Q, equal to 1 + p + ... + p^(m-1) for odd
    m and to p^m + 1 for even m?

    At u = p + 1/p each factor u - 2cos(t) is (p - e^it)(p - e^-it) / p, so
    p^d prod (u - 2cos t) is the product of p - z over the m-th roots of
    unity z != 1 (odd m) or over the m-th roots of -1 (even m).  Q(p + 1/p)
    determines Q, so the identity holds exactly when Q is that cosine
    product: its roots are real, simple and in [-2, 2].
    """
    # Horner in p^2 + 1: R_d = c_d, R_k = c_k p^(d-k) + (p^2 + 1) R_(k+1)
    acc: list[int] = []
    for i, c in enumerate(reversed(q.coeffs)):
        acc = [r + t for r, t in zip(acc + [0, 0], [0, 0] + acc)]
        acc[i] += c
    lhs = IntPolynomial(acc)
    if m % 2:
        return lhs == IntPolynomial((1,) * m)
    return lhs == IntPolynomial((1,) + (0,) * (m - 1) + (1,))


def _generator_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    eq = gens.generator_equation(ctx.params)
    expected_deg = m if m % 2 else (n + m if n % 2 else (n + m) // 2)
    if eq.rhs.degree() != expected_deg:
        return f"({n},{m}): rhs degree {eq.rhs.degree()} != {expected_deg}"
    lin, q, mult = eq.rhs_factored
    if gens.u_minus_2_power(lin) * q ** mult != eq.rhs:
        return f"({n},{m}): stored factorization does not multiply out"
    check = gens.verify_equation_numeric(eq, ctx.params)
    if not check.ok:
        return (f"({n},{m}): product form deviates by "
                f"{check.max_relative_deviation:.3e}")
    # the one-form y du / D: D^2 = (u - 2) rhs for odd m; D^2 divides
    # (u - 2) rhs for even m and odd n, and ((u - 2) rhs)^2 when both are even
    d, lin_rhs = eq.differential_denominator, gens.U_MINUS_2 * eq.rhs
    if m % 2:
        holds, law = d * d == lin_rhs, "D^2 = (u - 2) rhs"
    elif n % 2:
        holds, law = lin_rhs.divide(d * d)[1].is_zero(), "D^2 | (u - 2) rhs"
    else:
        holds = (lin_rhs * lin_rhs).divide(d * d)[1].is_zero()
        law = "D^2 | ((u - 2) rhs)^2"
    if not holds:
        return f"({n},{m}): one-form law {law} fails"
    if not _cosine_root_identity(q, m):
        return f"({n},{m}): cosine factor is not prod (u - 2cos t)"
    # the paper's Chebyshev forms; for both even, rhs^2 is the n odd form
    two = IntPolynomial((2,))
    if m % 2:
        form, got = chebyshev_c(m) - two, eq.rhs
    else:
        form = gens.u_minus_2_power(n) * (chebyshev_c(m) + two)
        got = eq.rhs * eq.rhs if n % 2 == 0 else eq.rhs
    if got != form:
        return f"({n},{m}): rhs differs from the paper's Chebyshev form"
    return None


check_generators = Check(
    "generator equations exact vs numeric", _generator_pair)


# ---------------------------------------------------------------------------
# spectrum laws and swap symmetry
# ---------------------------------------------------------------------------

def _spectrum_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    sums = ctx.summands
    nm, N, g, chi = n * m, ctx.params.N, ctx.params.gamma, n * m - n - m
    prev = None
    for s in sums:
        # the printed mu = k/m, nu = j/n and lambda = (nm - nk - mj)/chi,
        # read off r: mu N = a - b, nu N = a + b - N and lambda chi = min r
        a, b, c, d = r = s.vector
        mu_n, nu_n, low = a - b, a + b - N, min(r)
        # this law also puts mu and nu on the 1/m, 1/n lattices: 2n | a - b
        # and 2m | a + b - N, and gives the area-defect law lambda = (1 - mu
        # - nu) / (1 - 1/n - 1/m): 2 min r = 2nm - 2nk - 2mj = N - mu N - nu N
        if (mu_n != 2 * n * s.k or nu_n != 2 * m * s.j
                or low != nm - n * s.k - m * s.j):
            return (f"({n},{m}): mu, nu, lambda do not match {r} "
                    f"(angle lattice and area-defect laws)")
        # so (-min r, a - b) is the printed order: descending exponent, then
        # mu; (min r, a - b) fixes (k, j), and with it nu.  The order is
        # strict, so no point repeats
        if prev is not None and (-low, mu_n) <= prev:
            return (f"({n},{m}): summands out of canonical order at {r} "
                    f"(no-repeat law)")
        prev = (-low, mu_n)
        if not 0 < low <= chi:
            return f"({n},{m}): exponent {low}/{chi} outside (0, 1]"
        if low % g:
            return f"({n},{m}): {low}/{chi} is not a multiple of {g}/{chi}"
        # kappa N = |a + c - N| = |b + d - N|: a cusp, so kappa = 0
        if a + c != N or b + d != N or not (0 < mu_n < N and 0 < nu_n < N):
            return f"({n},{m}): bad angle triple at {r}"
    # at (1, 1) the lattice law gives min r = nm - n - m = chi, exponent 1
    if not sums or (sums[0].k, sums[0].j) != (1, 1):
        return f"({n},{m}): top exponent is not 1 at (0, 1/m, 1/n)"
    # a tiling triangle (0, 1/m', 1/n') is the lattice point (m/m', n/n')
    flagged = {(s.k, s.j) for s in sums if s.tiling}
    targets = {(m // c.m, n // c.n) for c in inv.covers(ctx.params)} | {(1, 1)}
    if flagged != targets:
        return f"({n},{m}): flagged points {flagged} != covers {targets}"
    return None


check_spectrum_laws = Check(
    "spectrum laws and tiling correspondence", _spectrum_pair)


def _swap_pair(ctx: PairContext) -> str | None:
    n, m = ctx.pair
    if n > m:
        return None  # each unordered pair once
    a, b = ctx.params, CurveParams(m, n)
    if inv.genus(a) != inv.genus(b):
        return f"({n},{m}): genus changes under swap"
    # the swap keeps the denominator nm - n - m, so compare the numerators
    # nm - nk - mj; in canonical order equal multisets are equal lists
    numerators = [[s.n * s.m - s.n * s.k - s.m * s.j for s in sums]
                  for sums in (ctx.summands, summands(b))]
    if numerators[0] != numerators[1]:
        return f"({n},{m}): spectrum changes under swap"
    if inv.is_arithmetic(a) != inv.is_arithmetic(b):
        return f"({n},{m}): arithmeticity changes under swap"
    if inv.trace_degrees(a) != inv.trace_degrees(b):
        return f"({n},{m}): trace degrees change under swap"
    if inv.algebraically_primitive(a).primitive != inv.algebraically_primitive(b).primitive:
        return f"({n},{m}): primitivity changes under swap"
    if inv.uniformizer(a).normalized() != inv.uniformizer(b).normalized():
        return f"({n},{m}): uniformizer changes under swap"
    left = sorted(tuple(sorted((c.n, c.m))) for c in inv.covers(a))
    right = sorted(tuple(sorted((c.n, c.m))) for c in inv.covers(b))
    if left != right:
        return f"({n},{m}): covers change under swap"
    return None


check_swap_symmetry = Check("invariants agree under (n, m) swap", _swap_pair)


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

# The largest nmax at which every level is measured to pass: at 34 the
# generators check fails at (34, 30).  For m = 2 (mod 4) the float root
# 2cos(pi/2) of its product form is 1.2e-16, not 0, at the sample u = 0,
# where the exact rhs is 0.  Raise it once that root is exact (ROADMAP item
# 1); a looser tolerance would not bound the deviation at a root.
VERIFY_NMAX_MAX = 33

LEVELS: dict[str, tuple[Check, ...]] = {
    "rowspan": (check_rowspan_identities, check_klein_orbits),
    "genus": (check_genus_agreement,),
    "trace": (check_trace_fields, check_primitivity),
    "covers": (check_covers,),
    "lifts": (check_lifts,),
    "generators": (check_generators,),
    "spectrum": (check_spectrum_laws, check_swap_symmetry),
}


def run_suite(nmax: int, level: str = "all") -> list[CheckResult]:
    """Run the verification suites for all valid n, m <= nmax.

    ``level`` is "all" or one of rowspan, genus, trace, covers, lifts,
    generators, spectrum (a trailing "-only" is accepted).  ``nmax`` must
    lie in [3, VERIFY_NMAX_MAX].
    """
    if nmax < 3:
        raise ValueError("verification needs nmax >= 3")
    if nmax > VERIFY_NMAX_MAX:
        raise ValueError(
            f"verification is measured to pass only up to nmax = "
            f"{VERIFY_NMAX_MAX}; got {nmax}")
    key = level.removesuffix("-only")
    if key == "all":
        checks = [check for level_checks in LEVELS.values()
                  for check in level_checks]
    elif key in LEVELS:
        checks = LEVELS[key]
    else:
        raise ValueError(
            f"unknown level {level!r}; expected all or one of {sorted(LEVELS)}")
    return _sweep(checks, nmax)
