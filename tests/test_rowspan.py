from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vwbm.rowspan import (CurveParams, Summand, _matrix_rows, _span_entries,
                          deck_group_order, in_deck_group, klein_orbits,
                          row_span, span_closure, summands)
from vwbm.verify import valid_pairs

F = Fraction


def _angles(s):
    """(kappa, mu, nu) = (0, k/m, j/n) of a summand, in units of pi."""
    return (F(0), F(s.k, s.m), F(s.j, s.n))


def _lyapunov(s):
    """The exponent (nm - nk - mj) / (nm - n - m) of a summand."""
    return F(s.n * s.m - s.n * s.k - s.m * s.j, s.n * s.m - s.n - s.m)


# ---------------------------------------------------------------------------
# parameters and the defining matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m", [(1, 9), (9, 1), (2, 2), (0, 7), (2, -3)])
def test_invalid_parameters_rejected(n, m):
    with pytest.raises(ValueError):
        CurveParams(n, m)


def test_derived_parameters():
    p = CurveParams(4, 6)
    assert (p.N, p.gamma, p.l) == (48, 2, 12)


@pytest.mark.parametrize("n,m,row1,row2", [
    (2, 7, (5, 9, 23, 19), (9, 5, 19, 23)),
    (2, 3, (1, 5, 11, 7), (5, 1, 7, 11)),
    (4, 5, (11, 19, 29, 21), (19, 11, 21, 29)),
])
def test_defining_matrix(n, m, row1, row2):
    top, bottom = _matrix_rows(n, m)
    assert top == row1
    assert bottom == row2
    assert all(0 <= v < 2 * n * m for v in top + bottom)


# ---------------------------------------------------------------------------
# row span
# ---------------------------------------------------------------------------

def _cyclic(vec, N):
    """Brute-force cyclic group generated by one vector of (Z/NZ)^4."""
    out, cur = set(), tuple(vec)
    while cur not in out:
        out.add(cur)
        cur = tuple((a + b) % N for a, b in zip(cur, vec))
    return out


def test_row_span_2_7_contents_and_size():
    params = CurveParams(2, 7)
    span = row_span(params)
    as_entries = set(span)
    assert (0, 0, 0, 0) in as_entries
    # m odd: (m, m, -m, -m) and (n, -n, -n, n) belong to the span
    assert (7, 7, 21, 21) in as_entries
    assert (2, 26, 26, 2) in as_entries
    # orbit-stabilizer oracle from the two generator rows
    g1 = _cyclic((5, 9, 23, 19), 28)
    g2 = _cyclic((9, 5, 19, 23), 28)
    assert len(as_entries) == len(g1) * len(g2) // len(g1 & g2)
    assert list(span) == sorted(span)
    assert len(span) == len(as_entries)


def test_row_span_always_contains_stated_vectors():
    for n, m in [(2, 7), (3, 4), (4, 6), (5, 5), (4, 4)]:
        params = CurveParams(n, m)
        N = params.N
        got = set(row_span(params))
        assert tuple(v % N for v in (2 * m, 2 * m, -2 * m, -2 * m)) in got
        assert tuple(v % N for v in (2 * n, -2 * n, -2 * n, 2 * n)) in got
        assert tuple(v % N for v in (-n - m, n - m, n + m, -n + m)) in got
        if n % 2 or m % 2:
            assert tuple(v % N for v in (m, m, -m, -m)) in got
            assert tuple(v % N for v in (n, -n, -n, n)) in got


def test_span_closure_any_tuple_length():
    assert span_closure([(4,), (6,)], 10) == {(0,), (2,), (4,), (6,), (8,)}
    assert span_closure([(1, 2)], 6) == {
        (0, 0), (1, 2), (2, 4), (3, 0), (4, 2), (5, 4)}
    closure = span_closure(_matrix_rows(2, 7), 28)
    assert isinstance(closure, frozenset)
    assert sorted(closure) == list(row_span(CurveParams(2, 7)))


def _breadth_first_closure(gens, modulus):
    """The reference enumeration: breadth-first closure under generator
    addition, bounded like ``span_closure``."""
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
    return frozenset(seen)


@st.composite
def _generator_sets(draw):
    k, count = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    # the subgroup has at most modulus^min(count, k) elements; at most 30^3
    # keeps each breadth-first reference run short
    modulus = draw(st.integers(1, 30 if min(count, k) < 4 else 12))
    entries = st.lists(st.integers(-60, 60), min_size=k, max_size=k)
    gens = draw(st.lists(entries.map(tuple), min_size=count, max_size=count))
    return gens, modulus


@given(_generator_sets())
@example(([(-3, 5)], 1))
@example(([(1, 0), (0, 15)], 30))       # cosets larger than the new multiples
@example(([(0, 15), (1, 0)], 30))       # new multiples larger than the cosets
@example(([(2, 4), (-1, -2), (3, 0)], 6))
@example((list(_matrix_rows(4, 6)), 48))
def test_span_closure_matches_breadth_first_closure(case):
    gens, modulus = case
    assert span_closure(gens, modulus) == _breadth_first_closure(gens, modulus)


@pytest.mark.parametrize("n,m", valid_pairs(16))
def test_row_span_equals_closure_of_the_rows(n, m):
    # row_span is read off the deck group G in (Z/N)^2; the oracle closes
    # the two rows in (Z/N)^4, and the listing is that set in lex order
    params = CurveParams(n, m)
    closure = span_closure(_matrix_rows(n, m), params.N)
    assert list(row_span(params)) == sorted(closure)


def _sorted_deck_group(n, m):
    """G as listed before the progression construction: (mu + nv + h,
    mu - nv + h) for h in (0, nm), u = v mod 2 when both are even, sorted."""
    nm, N = n * m, 2 * n * m
    return tuple(sorted(
        ((m * u + n * v + h) % N, (m * u - n * v + h) % N)
        for u in range(n) for v in range(m)
        if n % 2 or m % 2 or (u - v) % 2 == 0 for h in (0, nm)))


def test_deck_group_progressions_match_the_sorted_enumeration():
    # the same tuple, in the same order, at every valid pair up to 40
    wrong = [(n, m) for n, m in valid_pairs(40)
             if _span_entries(n, m) != _sorted_deck_group(n, m)]
    assert wrong == []
    # and the closed order counts the listing
    assert [(n, m) for n, m in valid_pairs(40)
            if deck_group_order(n, m) != len(_span_entries(n, m))] == []


@pytest.mark.parametrize("n,m", valid_pairs(12))
def test_deck_group_membership_matches_the_listing(n, m):
    # every (a, b) of (Z/NZ)^2, tested by the conditions and by the listing
    N, listed = 2 * n * m, set(_span_entries(n, m))
    assert [(a, b) for a in range(N) for b in range(N)
            if in_deck_group(n, m, (a, b)) != ((a, b) in listed)] == []


# ---------------------------------------------------------------------------
# Klein action
# ---------------------------------------------------------------------------

KLEIN_ELEMENTS = ("id", "sigma2", "sigma3", "sigma4")

# Coordinate permutations: sigma2 = (12)(34), sigma4 = (14)(23) and
# sigma3 = sigma2 . sigma4 = (13)(24), written as index maps.
_KLEIN_PERMS = {
    "id": (0, 1, 2, 3),
    "sigma2": (1, 0, 3, 2),
    "sigma4": (3, 2, 1, 0),
    "sigma3": (2, 3, 0, 1),
}


def klein_action(r, element):
    """The Klein four-group element acting by coordinate permutation: the
    table that ``klein_orbits`` is checked against."""
    try:
        perm = _KLEIN_PERMS[element]
    except KeyError:
        raise ValueError(f"unknown Klein element {element!r}") from None
    return tuple(r[i] for i in perm)


def test_klein_action_permutations():
    r = (5, 9, 23, 19)
    assert klein_action(r, "sigma2") == (9, 5, 19, 23)
    assert klein_action(r, "sigma4") == (19, 23, 9, 5)
    s3 = klein_action(klein_action(r, "sigma4"), "sigma2")
    assert klein_action(r, "sigma3") == s3
    assert klein_action(s3, "sigma3") == klein_action(r, "id") == r
    with pytest.raises(ValueError):
        klein_action(r, "sigma5")


def _orbit_by_table(r):
    return frozenset(klein_action(r, e) for e in KLEIN_ELEMENTS)


def _orbits_of_one(r):
    """The table's orbits of the one-element span (r,): none for r = 0."""
    return [_orbit_by_table(r)] if any(r) else []


def test_klein_orbit_is_the_action_table_orbit_on_every_span():
    for n, m in valid_pairs(16):
        span = row_span(CurveParams(n, m))
        for r in span:
            assert klein_orbits((r,)) == _orbits_of_one(r)
        # on the whole span: the table's orbits, disjoint, covering every
        # nonzero element
        orbits = klein_orbits(span)
        assert all(orbit == _orbit_by_table(r)
                   for orbit in orbits for r in orbit)
        assert sum(map(len, orbits)) == len(set().union(*orbits)) == (
            len(span) - 1)


@given(st.tuples(*[st.integers(-3, 3)] * 4))
@example((1, 1, 1, 1))
@example((1, 2, 1, 2))
@example((0, 0, 0, 0))
def test_klein_orbit_is_the_action_table_orbit(r):
    assert klein_orbits((r,)) == _orbits_of_one(r)


def test_klein_orbit_sizes():
    # a generic vector, a sigma2-fixed one and a fully fixed one: orbits of
    # sizes 4, 2 and 1
    span = ((5, 9, 23, 19), (7, 7, 21, 21), (14, 14, 14, 14))
    assert [len(orbit) for orbit in klein_orbits(span)] == [4, 2, 1]


# ---------------------------------------------------------------------------
# summands
# ---------------------------------------------------------------------------

def test_summands_2_7():
    got = summands(CurveParams(2, 7))
    assert [(*_angles(s)[1:], _lyapunov(s), s.tiling) for s in got] == [
        (F(1, 7), F(1, 2), F(1), True),
        (F(2, 7), F(1, 2), F(3, 5), False),
        (F(3, 7), F(1, 2), F(1, 5), False),
    ]
    assert all(_angles(s)[0] == 0 for s in got)


def test_summands_4_5():
    expected = {
        (F(0), F(1, 5), F(3, 4)): F(1, 11),
        (F(0), F(2, 5), F(1, 2)): F(2, 11),
        (F(0), F(3, 5), F(1, 4)): F(3, 11),
        (F(0), F(1, 5), F(1, 2)): F(6, 11),
        (F(0), F(2, 5), F(1, 4)): F(7, 11),
        (F(0), F(1, 5), F(1, 4)): F(1),
    }
    got = summands(CurveParams(4, 5))
    assert len(got) == 6
    assert {_angles(s): _lyapunov(s) for s in got} == expected


def test_summands_8_8_multiplicities():
    got = summands(CurveParams(8, 8))
    assert len(got) == 9
    by_exponent = {}
    for s in got:
        by_exponent.setdefault(_lyapunov(s), []).append(_angles(s))
    assert len(by_exponent[F(1, 3)]) == 5
    assert len(by_exponent[F(2, 3)]) == 3
    assert by_exponent[F(1)] == [(F(0), F(1, 8), F(1, 8))]


def test_summand_order_is_canonical():
    for pair in [(2, 7), (4, 5), (8, 8), (5, 5)]:
        got = summands(CurveParams(*pair))
        keys = [(-_lyapunov(s), *_angles(s)[1:]) for s in got]
        assert keys == sorted(keys)


def _selected_on_the_deck_group(n, m):
    """The t-value selection as a scan of G: t_1 > max(t_2, t_3, t_4) on
    r = (a, b, N - a, N - b) reads a > b, 2a > N, a + b > N, and the angles
    mu = (a - b)/N = k/m and nu = (a + b - N)/N = j/n are read off the
    t-values of r."""
    N = 2 * n * m
    out = []
    for a, b in _span_entries(n, m):
        if not (a > b and 2 * a > N and a + b > N):
            continue
        k, k_rem = divmod(a - b, 2 * n)
        j, j_rem = divmod(a + b - N, 2 * m)
        assert k_rem == j_rem == 0
        s, r = Summand(n, m, k, j), (a, b, N - a, N - b)
        # the values read off (k, j) agree with the t-values of r
        _, mu, nu = angles = _angles(s)
        assert s.vector == r
        assert angles == (0, F(a - b, N), F(a + b - N, N))
        assert _lyapunov(s) == F(min(r), n * m - n - m)
        assert s.tiling == (mu.numerator == 1 == nu.numerator)
        out.append(s)
    out.sort(key=lambda s: (-_lyapunov(s), *_angles(s)[1:]))
    return tuple(out)


@pytest.mark.parametrize("n,m", valid_pairs(24))
def test_summands_equal_the_selection_on_the_deck_group(n, m):
    # the lattice points (k, j) are exactly the selected span elements,
    # in the same canonical order
    assert summands(CurveParams(n, m)) == _selected_on_the_deck_group(n, m)
