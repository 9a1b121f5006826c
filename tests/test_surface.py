import pytest

from vwbm.rowspan import CurveParams, row_span, summand_dimension
from vwbm.surface import (BLACK, WHITE, Square, build_surface, commute_check,
                          cylinder_preservation_check, fixed_edges,
                          intertwine_check, lift_class_count, lift_sigma2,
                          lift_sigma4, surface_genus)


def close(mod, gens):
    seen, frontier = {(0, 0)}, [(0, 0)]
    while frontier:
        nxt = []
        for e in frontier:
            for g in gens:
                c = ((e[0] + g[0]) % mod, (e[1] + g[1]) % mod)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


# ---------------------------------------------------------------------------
# the column span and the deck action
# ---------------------------------------------------------------------------

def test_column_span_2_3():
    surface = build_surface(CurveParams(2, 3))
    assert len(surface.span.elements) == 12
    assert len(surface.squares) == 24


def test_columns_sum_to_zero_and_deck_composition():
    surface = build_surface(CurveParams(2, 7))
    N = surface.span.modulus
    total = (sum(c[0] for c in surface.span.columns) % N,
             sum(c[1] for c in surface.span.columns) % N)
    assert total == (0, 0)
    t = [surface.deck(j) for j in (1, 2, 3, 4)]
    for sq in surface.squares:
        assert t[0](t[1](t[2](t[3](sq)))) == sq


@pytest.mark.parametrize("n,m", [(2, 3), (2, 7), (3, 4)])
def test_column_span_generators_odd_case(n, m):
    surface = build_surface(CurveParams(n, m))
    N = surface.span.modulus
    stated = close(N, [(-m % N, -m % N), (-n % N, n % N)])
    assert stated == set(surface.span.elements)


@pytest.mark.parametrize("n,m", [(4, 4), (4, 6), (6, 10)])
def test_column_span_generators_both_even(n, m):
    surface = build_surface(CurveParams(n, m))
    N = surface.span.modulus
    stated = close(N, [(-2 * m % N, -2 * m % N), (-2 * n % N, 2 * n % N),
                       ((-n - m) % N, (n - m) % N)])
    assert stated == set(surface.span.elements)


def test_deck_action_simply_transitive_on_colors():
    surface = build_surface(CurveParams(2, 3))
    whites = {sq for sq in surface.squares if sq.color == WHITE}
    base = Square((0, 0), WHITE)
    orbit = {surface.translation(c)(base) for c in surface.span.elements}
    assert orbit == whites
    stabilizer = [c for c in surface.span.elements
                  if surface.translation(c)(base) == base]
    assert stabilizer == [(0, 0)]


# ---------------------------------------------------------------------------
# symmetry lifts
# ---------------------------------------------------------------------------

def test_sigma2_swaps_base_square_and_fixes_its_34_edge():
    surface = build_surface(CurveParams(2, 7))
    lift = lift_sigma2(surface)
    base = Square((0, 0), WHITE)
    assert lift(base) == Square((0, 0), BLACK)
    assert lift(lift(base)) == base
    assert (base, "34") in fixed_edges(surface, lift)


def test_sigma4_fixes_a_14_edge():
    for pair in [(2, 7), (3, 4), (4, 4)]:
        surface = build_surface(CurveParams(*pair))
        lift = lift_sigma4(surface, 1)
        assert any(tag == "14" for _, tag in fixed_edges(surface, lift))


def test_lifts_are_involutions_and_commute():
    surface = build_surface(CurveParams(4, 4))
    lift2 = lift_sigma2(surface)
    for variant in (1, 2):
        lift4 = lift_sigma4(surface, variant)
        assert lift4.is_involution()
        assert commute_check(lift2, lift4).ok
    assert lift_sigma2(surface).is_involution()


def test_sigma4_variant2_rejected_for_odd_parameters():
    surface = build_surface(CurveParams(2, 7))
    with pytest.raises(ValueError):
        lift_sigma4(surface, 2)
    with pytest.raises(ValueError):
        lift_sigma4(surface, 3)


def test_intertwine_relations():
    surface = build_surface(CurveParams(2, 7))
    lift2, lift4 = lift_sigma2(surface), lift_sigma4(surface, 1)
    assert intertwine_check(surface, lift2, lift4).ok
    # the specific relations, spelled out on every square
    t = {j: surface.deck(j) for j in (1, 2, 3, 4)}
    for sq in surface.squares:
        assert lift2(t[1](lift2(sq))) == t[2](sq)
        assert lift2(t[3](lift2(sq))) == t[4](sq)
        assert lift4(t[1](lift4(sq))) == t[4](sq)
        assert lift4(t[2](lift4(sq))) == t[3](sq)


def test_corrupted_sigma4_fails_with_witness():
    surface = build_surface(CurveParams(3, 4))
    lift2 = lift_sigma2(surface)
    bad = lift_sigma4(surface, 1).composed_with_translation(
        surface.span.columns[0])
    report = intertwine_check(surface, lift2, bad)
    assert not report.ok and report.witness is not None


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------

def test_cylinder_preservation_positive():
    for pair in [(2, 7), (3, 4), (4, 4), (4, 6)]:
        surface = build_surface(CurveParams(*pair))
        assert cylinder_preservation_check(surface, lift_sigma2(surface)).ok
        assert cylinder_preservation_check(surface, lift_sigma4(surface, 1)).ok
        if pair[0] % 2 == 0 and pair[1] % 2 == 0:
            assert cylinder_preservation_check(
                surface, lift_sigma4(surface, 2)).ok


def test_cylinder_preservation_negative_control():
    surface = build_surface(CurveParams(2, 7))
    corrupted = lift_sigma2(surface).composed_with_translation(
        surface.span.columns[2])
    report = cylinder_preservation_check(surface, corrupted)
    assert not report.ok
    assert isinstance(report.witness[0], Square)


# ---------------------------------------------------------------------------
# genus and dimension bookkeeping
# ---------------------------------------------------------------------------

def test_surface_genus_formula_unbranched_degenerate_case():
    # not reachable from valid parameters: a trivial deck group with all
    # column orders 1 gives chi = 2, the sphere
    from vwbm.surface import ColumnSpan, CombSurface
    span = ColumnSpan(1, ((0, 0),) * 4, ((0, 0),))
    surface = CombSurface(CurveParams(2, 3), span, ())
    assert surface_genus(surface) == 0


def test_surface_genus_2_3():
    surface = build_surface(CurveParams(2, 3))
    assert len(surface.span.elements) == 12
    for col in surface.span.columns:
        # brute-force order oracle
        order, cur = 1, col
        while cur != (0, 0):
            cur = surface.add(cur, col)
            order += 1
        assert order == surface.span.order_of(col) == 12
    assert surface_genus(surface) == 11


@pytest.mark.parametrize("n,m", [(2, 3), (2, 7), (3, 4), (4, 4), (4, 5)])
def test_dimension_sum_matches_cover_genus(n, m):
    params = CurveParams(n, m)
    total = sum(summand_dimension(r, params.N) for r in row_span(params)
                if any(r))
    assert total == 2 * surface_genus(build_surface(params))


# ---------------------------------------------------------------------------
# lift classes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,m,expected", [
    (2, 3, 1), (3, 4, 1), (2, 8, 2), (4, 4, 2), (4, 6, 2), (5, 5, 1),
])
def test_lift_class_count(n, m, expected):
    summary = lift_class_count(build_surface(CurveParams(n, m)))
    assert summary.classes == expected
    assert summary.valid_pairs % summary.classes == 0
