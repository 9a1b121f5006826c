r"""Combinatorial model of the square-tiled surface S(n, m).

Squares are labelled by elements of the column span (the deck group), the
subgroup G of (Z/NZ)^2 generated by the four columns of the defining matrix,
with one white and one black square per label.  The deck transformation T_j
adds column j to the label and preserves color.  Since col_3 = -col_1 and
col_4 = -col_2 with col_2 the swap of col_1, G is also the group behind the
row span, {(a, b, -a, -b) : (a, b) in G}.  A surface holds the columns and
reads |G| off its closed form in ``rowspan``; only ``squares``, which the
tests and the benchmark tracer read, lists G.

Edge conventions.  Every edge borders one white and one black square and is
tagged by the pair of corner points it joins (12, 23, 34 or 14).  The tag
table for the white square labelled c, with columns col_1 .. col_4, is

    34 edge (left):    partner (c)_b
    12 edge (right):   partner (c + col_1 + col_4)_b
    14 edge (bottom):  partner (c + col_4)_b
    23 edge (top):     partner (c - col_3)_b

so same-label white/black squares share their 34 edge.  A horizontal
cylinder is the set of squares whose labels agree modulo <col_1 + col_4>
(either color); a vertical cylinder pairs the whites of a class modulo
<col_1 + col_2> with the blacks offset by col_4.  These conventions are the
unique ones under which the explicit symmetry lifts below fix the edges
they are normalized to fix, and they are validated wholesale by the
consistency suite rather than postulated square by square.

The pillowcase symmetries sigma_2 (sending corner 1 to corner 2) and
sigma_4 (corner 1 to corner 4) admit the color-swapping lifts

    sigma2~: (c1, c2)_w/b -> (c2, c1)_b/w
    sigma4~ (variant 1):
        (c1, c2)_w -> (-c2 + nm - n + m, -c1 + nm + n + m)_b
        (c1, c2)_b -> (-c2 + nm + n + m, -c1 + nm - n + m)_w
    sigma4~ (variant 2, both n and m even):
        (c1, c2)_w -> (-c2 + nm - n - m, -c1 + nm + n - m)_b
        (c1, c2)_b -> (-c2 + nm + n - m, -c1 + nm - n - m)_w

Both variants are involutions commuting with sigma2~; when n or m is odd
they are conjugate under the deck group, when both are even they represent
the two distinct conjugacy classes of fixed-point lifts.

Every lift, and every translate T_e of one, is affine on labels: it sends
c of color k to A c + s_k with the color flipped, where A is the swap for
sigma2 and minus the swap for sigma4, and it is stored as (s_w, s_b).  A
relation between composites of lifts and translations is an identity of
A and the shifts, with no label in it:
  - L is an involution iff A s_w + s_b = 0, since L L sends c_w to
    (c + A s_w + s_b)_w and c_b to (c + A s_b + s_w)_b, and
    A s_b + s_w = A (A s_w + s_b) as A^2 = I;
  - L T_a L = T_b iff A (s_k + col_a) + s_k' = col_b for both colors k,
    with k' the other color.
Commutation is not checked at all: involutive lifts L2 of sigma2 and L4 of
sigma4 always commute, since L2 L4 keeps colors and has linear part -I, so
it is an involution and L4 L2 = (L2 L4)^-1 = L2 L4.

Fixed edges, cylinders and the census live in one cyclic group per
symmetry, (A - I) G.  The columns are +-col_1 and +-swap col_1, and
(A - I) swap = -+(A - I), so (A - I) G is generated by (A - I) col_1 =
(2n, -2n) = -(col_1 + col_4) for sigma2 and (2m, 2m) = -(col_1 + col_2) for
sigma4: it is the cylinder group, of order m, resp. n.  The lift fixes the
edge with a given tag of the white square c exactly when (A - I) c =
offset_tag - s_w, a coset of ker(A - I) when the target lies in the group
and empty otherwise; the targets of the two fixable tags lie in one coset
of it, so fixed edges are counted, never listed.  The lift preserves the
cylinders when c -> (A - I) c + s_k - offset_k lands in the group, tested at
c = 0 and at the four columns, which generate G.  The census counts
instead of enumerating: the candidate translates of a base lift form a
coset of the group on which the involution identity is constant, every
pair of involutive lifts commutes (above), and deck conjugation translates
the pairs with a known kernel, so the number of classes is a quotient of
group orders.
"""
from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm

from .rowspan import CurveParams, _matrix_rows, _span_entries, deck_group_order

WHITE = "w"
BLACK = "b"

# Downstairs, sigma2 preserves the set of 12 and 34 edges while sigma4
# preserves the 14 and 23 edges; fixed points of lifts sit on those edges.
FIXABLE_TAGS = {"sigma2": ("34", "12"), "sigma4": ("14", "23")}

Pair = tuple[int, int]


class Square(namedtuple("Square", "label color")):
    __slots__ = ()


class CombSurface(namedtuple("CombSurface", "params columns")):
    """S(n, m) as colored squares over the span G of its columns."""

    __slots__ = ()

    modulus = property(lambda self: self.params.N)
    order = property(lambda self: deck_group_order(*self.params))

    # listed on demand, never stored: a white and a black square per label
    squares = property(lambda self: tuple(
        Square(label, color) for label in _span_entries(*self.params)
        for color in (WHITE, BLACK)))

    def order_of(self, pair: Pair) -> int:
        """Order of an element of (Z/NZ)^2 (componentwise lcm of orders)."""
        N = self.modulus
        return lcm(*(N // gcd(v, N) for v in pair))

    def multiples(self, g: Pair) -> set[Pair]:
        """The cyclic subgroup <g>: k g for 0 <= k < the order of g."""
        N = self.modulus
        return {(k * g[0] % N, k * g[1] % N) for k in range(self.order_of(g))}

    # -- label arithmetic ---------------------------------------------------

    def add(self, a: Pair, b: Pair) -> Pair:
        N = self.modulus
        return ((a[0] + b[0]) % N, (a[1] + b[1]) % N)

    def sub(self, a: Pair, b: Pair) -> Pair:
        N = self.modulus
        return ((a[0] - b[0]) % N, (a[1] - b[1]) % N)


def build_surface(params: CurveParams) -> CombSurface:
    """The surface over the columns of the defining matrix; G is not listed."""
    return CombSurface(params, tuple(zip(*_matrix_rows(params.n, params.m))))


class SymmetryLift(namedtuple("SymmetryLift",
                              "surface kind variant shifts")):
    """A lift of a pillowcase symmetry: the square c of color k goes to
    linear(c) + shifts[k] with the color flipped, shifts = (white, black).
    ``kind`` is "sigma2" or "sigma4", and ``variant`` is None for sigma2."""

    __slots__ = ()

    def linear(self, c: Pair) -> Pair:
        if self.kind == "sigma2":
            return (c[1], c[0])
        return self.surface.sub((0, 0), (c[1], c[0]))

    def displacement(self, c: Pair) -> Pair:
        """(A - I) c for the linear part A."""
        return self.surface.sub(self.linear(c), c)

    def is_involution(self) -> bool:
        """A s_w + s_b = 0; see the module docstring."""
        s_w, s_b = self.shifts
        return self.surface.add(self.linear(s_w), s_b) == (0, 0)


def lift_sigma2(surface: CombSurface) -> SymmetryLift:
    """The lift swapping label coordinates and colors.

    It fixes the 34 edge of the white square labelled (0, 0).
    """
    return SymmetryLift(surface, "sigma2", None, ((0, 0), (0, 0)))


def sigma4_variants(params: CurveParams) -> tuple[int, ...]:
    """The sigma4 lift variants, one per deck-conjugacy class: 1, and 2
    when n and m are both even."""
    return (1, 2) if params.n % 2 == 0 and params.m % 2 == 0 else (1,)


def lift_sigma4(surface: CombSurface, variant: int = 1) -> SymmetryLift:
    """An explicit fixed-point lift of sigma_4; see the module docstring.

    The shifts of the docstring formulas are columns of the defining
    matrix mod N: (col_4, col_3) for variant 1 and (col_1, col_2) for
    variant 2, so they lie in the deck group.  A variant outside
    ``sigma4_variants`` is rejected.
    """
    if variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if variant not in sigma4_variants(surface.params):
        raise ValueError(
            "variant 2 is a distinct lift only when n and m are both even")
    c1, c2, c3, c4 = surface.columns
    shifts = (c4, c3) if variant == 1 else (c1, c2)
    return SymmetryLift(surface, "sigma4", variant, shifts)


def _edge_target(surface: CombSurface, lift: SymmetryLift) -> Pair:
    """offset_tag - s_w for the first fixable tag (34 for sigma2, 14 for
    sigma4): the lift fixes the edge (c_w, tag) exactly when (A - I) c
    equals it.  The second tag's target (offset c1 + c4 for 12, -c3 for 23)
    differs from it by -(A - I) col_1, so both lie in one coset of (A - I) G.
    """
    offset = (0, 0) if lift.kind == "sigma2" else surface.columns[3]
    return surface.sub(offset, lift.shifts[0])


def _cylinder_generator(surface: CombSurface, lift: SymmetryLift) -> Pair:
    """col_1 + col_4 for sigma2 and col_1 + col_2 for sigma4: its multiples
    are the lift's cylinder group and (A - I) G; see the module docstring."""
    c1, c2, _, c4 = surface.columns
    return surface.add(c1, c4 if lift.kind == "sigma2" else c2)


def fixed_edges(surface: CombSurface, lift: SymmetryLift) -> int:
    """The number of edges the lift fixes: per fixable tag, the white c
    with (A - I) c = target form a coset of ker(A - I), of order
    |G| / |(A - I) G|, or none when the target is outside (A - I) G."""
    image = surface.multiples(_cylinder_generator(surface, lift))
    if _edge_target(surface, lift) not in image:
        return 0
    return len(FIXABLE_TAGS[lift.kind]) * surface.order // len(image)


# The checks below return their failure text, naming the square where one
# fails, or None when they pass.

def intertwine_check(surface: CombSurface,
                     lift2: SymmetryLift,
                     lift4: SymmetryLift) -> str | None:
    """Conjugation of the deck group by the lifts.

    Specific relations: s2 T1 s2 = T2, s2 T3 s2 = T4, s4 T1 s4 = T4,
    s4 T2 s4 = T3.  General form, for every deck element (c1, c2):
    s2 (c1, c2) s2 = (c2, c1) and s4 (c1, c2) s4 = (-c2, -c1).

    The specific relations are identities of the shifts (module docstring),
    tested for white then black; a failure names the square (0, 0) of that
    color.  The general form needs no check of its own: L T_c L sends x_k
    to x + (A s_k + s_k') + A c, and both constant terms vanish exactly
    when L is an involution, so L T_c L = T_(A c) for every c once both
    lifts are involutions.
    """
    pairs = [(lift2, 1, 2), (lift2, 3, 4), (lift4, 1, 4), (lift4, 2, 3)]
    for lift, a, b in pairs:
        col_a, col_b = surface.columns[a - 1], surface.columns[b - 1]
        s_w, s_b = lift.shifts
        for color, s, s_other in ((WHITE, s_w, s_b), (BLACK, s_b, s_w)):
            image = lift.linear(surface.add(s, col_a))
            if surface.add(image, s_other) != col_b:
                return (f"{lift.kind} T{a} {lift.kind} != T{b} "
                        f"at {Square((0, 0), color)}")
    for lift in (lift2, lift4):
        if not lift.is_involution():
            return f"{lift.kind} is not an involution"
    return None


def cylinder_preservation_check(surface: CombSurface, lift: SymmetryLift) -> str | None:
    """Does the lift map every horizontal (sigma2) / vertical (sigma4)
    cylinder to itself?

    sigma2: the image of s and the color flip of s must differ by a power
    of T1 T4.  sigma4: vertical neighbors pair (c)_w with (c + col_4)_b, so
    the image of a white s must differ from its color flip by col_4 plus a
    power of T1 T2, and the image of a black s by col_3 plus a power of
    T1 T2.  The difference is affine in the label, so it is tested at
    c = 0 and at the four columns, and a failure names the square.
    """
    _, _, c3, c4 = surface.columns
    offsets = ((0, 0), (0, 0)) if lift.kind == "sigma2" else (c4, c3)
    sub = surface.multiples(_cylinder_generator(surface, lift))
    for color, shift, offset in zip((WHITE, BLACK), lift.shifts, offsets):
        constant = surface.sub(shift, offset)
        for c in ((0, 0),) + surface.columns:
            if surface.add(lift.displacement(c), constant) not in sub:
                return f"cylinder broken at {Square(c, color)}"
    return None


def surface_genus(surface: CombSurface) -> int:
    """Genus of S(n, m) from the branched-cover Euler characteristic.

    2g - 2 = sum_j (|G| - |G| / e_j) - 2|G| where e_j is the order of
    column j in the deck group G; each e_j divides |G|.  The genus level of
    ``verify`` checks the result against the count of zero-free elements.
    """
    G = surface.order
    orders = [surface.order_of(col) for col in surface.columns]
    return (sum(G - G // e for e in orders) - 2 * G) // 2 + 1


def _lift_candidates(surface: CombSurface, base: SymmetryLift) -> int:
    """The number of e with T_e base an involution with a fixed edge; see
    ``lift_class_count``.

    The e with a fixed edge form the coset target + (A - I) G, and T_e base
    is an involution iff (A + I) e = 0.  As (A + I)(A - I) = A^2 - I = 0,
    (A + I) e = (A + I) target on the whole coset.  Conjugation by T_a moves
    e by a - A a, which lies in (A - I) G, so the coset is closed under it.
    """
    target = _edge_target(surface, base)
    if surface.add(base.linear(target), target) != (0, 0):
        return 0
    # |(A - I) G|; see ``_cylinder_generator``
    return surface.order_of(_cylinder_generator(surface, base))


def lift_class_count(surface: CombSurface) -> int:
    """Count deck-conjugacy classes of lifts of the full symmetry group.

    A candidate pair is (T_e sigma2~, T_f sigma4~) for deck elements e, f
    such that both maps are involutions with at least one fixed edge;
    pairs are identified under simultaneous conjugation by the deck group.
    The count is 1 when n or m is odd and 2 when both are even.

    For a base lift with linear part A, T_e base is an involution iff
    (A + I) e = 0 and fixes an edge iff e lies in the coset target + (A - I) G
    (inside G, as the targets are; both targets give the same coset).  Every
    pair of candidates commutes (see the module docstring), so there are
    c2 c4 valid pairs.  Conjugation by T_a adds a - A a to e, an action with
    kernel K = {a : swap a = a, 2a = 0}, so a class has |G| / |K| pairs.
    The candidate sets are counted by ``_lift_candidates`` in O(1).  This
    rests on the base relations that ``intertwine_check`` verifies first.
    """
    base2 = lift_sigma2(surface)
    base4 = lift_sigma4(surface, 1)
    broken = intertwine_check(surface, base2, base4)
    if broken is not None:
        raise AssertionError(f"conjugation relations failed: {broken}")
    c2 = _lift_candidates(surface, base2)
    c4 = _lift_candidates(surface, base4)
    # |K| = 2, as (N/2, N/2) = n (m, m) = (n/2) (2m, 2m) always lies in G
    classes, rest = divmod(c2 * c4 * 2, surface.order)
    if rest:
        raise AssertionError("the conjugation orbits do not divide the census")
    return classes
