import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vwbm import exact, invariants, verify
from vwbm.exact import (IntPolynomial, X, _factorize, _fp_root_powers,
                        _is_prime, _root_sum_vector, chebyshev_c,
                        cyclotomic_poly, euler_phi, subfield_degree,
                        units_mod)
from vwbm.rowspan import CurveParams


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------

def test_poly_normalization_and_degree():
    p = IntPolynomial((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree() == 1
    assert IntPolynomial(()).is_zero()
    assert IntPolynomial((0, 0)).degree() == -1


def test_poly_arithmetic_known_values():
    p = IntPolynomial((1, 1))       # 1 + x
    q = IntPolynomial((-1, 1))      # x - 1
    assert p * q == IntPolynomial((-1, 0, 1))
    assert p + q == IntPolynomial((0, 2))
    assert (p ** 3) == IntPolynomial((1, 3, 3, 1))


small_polys = st.builds(
    IntPolynomial,
    st.lists(st.integers(-9, 9), max_size=6).map(tuple))


@given(small_polys, small_polys,
       st.lists(st.integers(-9, 9), max_size=3), st.integers(1, 3))
def test_poly_division_roundtrip(q, r, low, k):
    # monic divisor of degree >= 1
    d = IntPolynomial(tuple(low)[:k] + (0,) * max(0, k - len(low)) + (1,))
    num = q * d + r
    quot, rem = num.divide(d)
    assert quot * d + rem == num
    assert rem.degree() < d.degree()
    if r.degree() < d.degree():
        assert quot == q and rem == r


def test_exact_div_raises_on_remainder():
    with pytest.raises(ValueError):
        IntPolynomial((1, 0, 1)).exact_div(IntPolynomial((-1, 1)))


@given(small_polys, st.integers(0, 9))
def test_poly_power_is_repeated_product(p, k):
    expected = IntPolynomial((1,))
    for _ in range(k):
        expected = expected * p
    assert p ** k == expected


@pytest.mark.parametrize("k", range(1, 18))
def test_poly_power_squares_only_while_bits_remain(monkeypatch, k):
    # binary powering: one squaring per bit after the top one, one product
    # per set bit, and no squaring past the last bit
    calls = []
    product = IntPolynomial.__mul__

    def counting(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(IntPolynomial, "__mul__", counting)
    IntPolynomial((1, 1)) ** k
    assert len(calls) == k.bit_length() - 1 + bin(k).count("1")


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the totient
# ---------------------------------------------------------------------------

def test_cyclotomic_small_cases():
    assert cyclotomic_poly(1) == IntPolynomial((-1, 1))
    assert cyclotomic_poly(4) == IntPolynomial((1, 0, 1))


def test_cyclotomic_28_by_divide_and_check():
    phi28 = cyclotomic_poly(28)
    assert phi28.degree() == 12 and phi28.coeffs[-1] == 1
    product = IntPolynomial((1,))
    for d in (1, 2, 4, 7, 14):
        product = product * cyclotomic_poly(d)
    x28 = IntPolynomial((-1,) + (0,) * 27 + (1,))
    assert x28.exact_div(product) == phi28


@pytest.mark.parametrize("K", range(1, 65))
def test_cyclotomic_product_formula(K):
    product = IntPolynomial((1,))
    for d in range(1, K + 1):
        if K % d == 0:
            product = product * cyclotomic_poly(d)
    assert product == IntPolynomial((-1,) + (0,) * (K - 1) + (1,))


def test_cyclotomic_poly_matches_recursive_division():
    # the former definition: Phi_K = (x^K - 1) / prod of Phi_d, d | K, d < K
    oracle = {}
    for K in range(1, 401):
        num = IntPolynomial((-1,) + (0,) * (K - 1) + (1,))
        for d in range(1, K):
            if K % d == 0:
                num = num.exact_div(oracle[d])
        oracle[K] = num
        assert cyclotomic_poly(K) == num, K


def _phi_by_gcd_scan(K):
    return sum(1 for a in range(1, K + 1) if math.gcd(a, K) == 1)


@pytest.mark.parametrize("K,expected", [(1, 1), (28, 12), (30, 8)])
def test_euler_phi_examples(K, expected):
    assert euler_phi(K) == expected == _phi_by_gcd_scan(K)


@given(st.integers(1, 300))
def test_euler_phi_matches_gcd_scan(K):
    assert euler_phi(K) == _phi_by_gcd_scan(K)


# ---------------------------------------------------------------------------
# Chebyshev-type polynomials
# ---------------------------------------------------------------------------

def test_chebyshev_small_cases():
    assert chebyshev_c(0) == IntPolynomial((2,))
    assert chebyshev_c(2) == IntPolynomial((-2, 0, 1))
    assert chebyshev_c(5) == IntPolynomial((0, 5, 0, -5, 0, 1))


def test_chebyshev_recurrence_and_numeric_law():
    for k in range(2, 20):
        assert chebyshev_c(k + 1) == X * chebyshev_c(k) - chebyshev_c(k - 1)
    # C_k(2 cos t) = 2 cos(k t)
    for k in (3, 8, 13):
        for t in (0.3, 1.1, 2.4):
            x = 2.0 * math.cos(t)
            got = sum(c * x ** i for i, c in enumerate(chebyshev_c(k).coeffs))
            assert got == pytest.approx(2.0 * math.cos(k * t), abs=1e-9)


# ---------------------------------------------------------------------------
# cyclotomic field elements
# ---------------------------------------------------------------------------

def test_galois_fixes_examples():
    # zeta + 1/zeta in Q(zeta_28) is fixed by the units a = +-1 only
    e = _root_sum_vector(28, (1, -1))
    assert _root_sum_vector(28, (27, -27)) == e
    assert _root_sum_vector(28, (3, -3)) != e
    assert subfield_degree(28, [(1, -1)]) == euler_phi(28) // 2
    assert subfield_degree(28, [(0,)]) == 1


def _element_of(K, poly):
    """The coordinates of poly(zeta_K), reduced modulo Phi_K."""
    _, rem = poly.divide(cyclotomic_poly(K))
    return rem.coeffs + (0,) * (euler_phi(K) - len(rem.coeffs))


def _poly_of(coords, a=1):
    """The power-basis polynomial of an element, with x replaced by x^a."""
    coeffs = [0] * (a * (len(coords) - 1) + 1)
    for j, c in enumerate(coords):
        coeffs[a * j] = c
    return IntPolynomial(tuple(coeffs))


@pytest.mark.parametrize("K", [8, 12, 16, 21, 40])
def test_galois_homomorphism_spot(K):
    # subfield_degree applies zeta -> zeta^a by scaling root-sum exponents;
    # that agrees with substituting x^a in the power basis and respects
    # products of root sums
    e, f = (1, 2), (1, -3, 0)
    prod = tuple(x + y for x in e for y in f)
    whole = _root_sum_vector(K, prod)
    for a in units_mod(K):
        image = _root_sum_vector(K, [a * x for x in prod])
        assert _element_of(K, _poly_of(whole, a)) == image
        ea = _root_sum_vector(K, [a * x for x in e])
        fa = _root_sum_vector(K, [a * x for x in f])
        assert _element_of(K, _poly_of(ea) * _poly_of(fa)) == image


def test_subfield_degree_real_subfield():
    # zeta_12 + 1/zeta_12 = sqrt(3) generates a degree-2 field
    assert subfield_degree(12, [(1, -1)]) == 2
    # the full field: zeta_12 itself
    assert subfield_degree(12, [(1,)]) == 4
    # rationals
    assert subfield_degree(12, [(0,)]) == 1


def _dense_coords(K):
    """Every x^j, j < K, reduced mod Phi_K: the former dense table."""
    phi = cyclotomic_poly(K).coeffs
    d = len(phi) - 1
    rows, cur = [], [1] + [0] * (d - 1)
    for _ in range(K):
        rows.append(cur)
        top = cur[-1]
        cur = [0] + cur[:-1]
        cur = [c - top * f for c, f in zip(cur, phi)]
    return lambda exps: tuple(
        map(sum, zip([0] * d, *(rows[e % K] for e in exps))))


def _random_root_sums(rng, K):
    """1-2 exponent multisets mixing random roots, orbits under a unit (which
    that unit permutes) and vanishing sums zeta^e (1 + zeta_q + ... ) for a
    prime q | K (which every unit fixes without permuting them)."""
    units = units_mod(K)
    primes = [q for q, _ in _factorize(K)]
    gens = []
    for _ in range(rng.randint(1, 2)):
        g = [rng.randrange(K) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.6:
            u, e = rng.choice(units), rng.randrange(K)
            g += sorted({e * pow(u, k, K) % K for k in range(K)})
        if primes and rng.random() < 0.5:
            q, e = rng.choice(primes), rng.randrange(K)
            g += [e + j * K // q for j in range(q)]
        gens.append(tuple(g) or (0,))
    return gens


@pytest.mark.parametrize("K", range(1, 121))
def test_subfield_degree_matches_filter_free_scan(K):
    # the F_p filter may only reject units that move a generator: compare
    # with an exact scan of every unit on coordinates from the dense table
    coords = _dense_coords(K)
    rng = random.Random(K)
    for _ in range(4):
        gens = _random_root_sums(rng, K)
        for g in gens:
            assert _root_sum_vector(K, g) == coords(g)
        base = [coords(g) for g in gens]
        fixing = [a for a in units_mod(K)
                  if [coords([a * e for e in g]) for g in gens] == base]
        assert subfield_degree(K, gens) == euler_phi(K) // len(fixing), gens


def test_subfield_degree_confirms_on_coordinates():
    # zeta_12^e + zeta_12^(e+6) = 0 is fixed by every unit, though no unit
    # other than 1 permutes its exponents
    assert subfield_degree(12, [(1, 7)]) == 1
    assert subfield_degree(12, [(1, 7), (1, -1)]) == 2
    assert subfield_degree(15, [(1, 6, 11, 3)]) == subfield_degree(15, [(3,)])


def _ascending_scan(K, generators):
    """A reference stabilizer scan: every unit in increasing order, each
    filtered in F_p and confirmed exactly unless it lies in the subgroup
    confirmed so far; no coset of a rejected unit is skipped."""
    gens = [tuple(sorted(e % K for e in g)) for g in generators]
    p, powers = _fp_root_powers(K)
    images = [sum(powers[e] for e in g) % p for g in gens]

    def fixes(a, g):
        image = tuple(sorted(a * e % K for e in g))
        return (image == g
                or _root_sum_vector(K, image) == _root_sum_vector(K, g))

    units = units_mod(K)
    stab = {1}
    for a in units:
        if a in stab or any(sum(powers[a * e % K] for e in g) % p != v
                            for g, v in zip(gens, images)):
            continue
        if all(fixes(a, g) for g in gens):
            coset, power = set(stab), a
            while power not in stab:
                coset |= {power * h % K for h in stab}
                power = power * a % K
            stab = coset
    return len(units) // len(stab)


def test_subfield_degree_at_orders_one_and_two():
    # units_mod(1) is [1] and units_mod(2) is [1]: there -1 is not K - 1,
    # and the scan must still end
    for K in (1, 2):
        assert units_mod(K) == [1]
        for gens in ([(0,)], [(1,)], [(1, -1)], [(0, 1), (1, 1, 1)], []):
            assert subfield_degree(K, gens) == 1


@pytest.mark.parametrize("K,gens,degree", [
    (7, [(1,)], 6),                  # the full field: H is trivial
    (7, [(1, 2, 4)], 2),             # H = {1, 2, 4} does not hold -1
    (13, [(1, 3, 9)], 4),            # H = {1, 3, 9}
    (15, [(1, 4)], 4),               # H = {1, 4}
    (16, [(1, 7)], 4),               # H = {1, 7}
    (21, [(1, 4, 16), (7,)], 4),     # H = {1, 4, 16}, of index 4
    (24, [(1, 5), (1, 7)], 8),       # H = {1, 5} and {1, 7} meet in {1}
])
def test_subfield_degree_when_minus_one_moves_a_generator(K, gens, degree):
    assert subfield_degree(K, gens) == degree == _ascending_scan(K, gens)


def test_subfield_degree_matches_ascending_scan_on_curve_generators(
        monkeypatch):
    # every (K, generators) that the trace-field oracle and the Hecke
    # scalars build for n, m <= 12
    calls = []

    def recording(K, generators):
        calls.append((K, [tuple(g) for g in generators]))
        return subfield_degree(K, generators)

    monkeypatch.setattr(invariants, "subfield_degree", recording)
    for n in range(2, 13):
        for m in range(2, 13):
            if n * m >= 6:
                invariants.trace_degrees_oracle(CurveParams(n, m))
                invariants.hecke_scalars(CurveParams(n, m))
    assert len(calls) == 3 * (11 * 11 - 1)
    for K, gens in calls:
        assert subfield_degree(K, gens) == _ascending_scan(K, gens), (K, gens)


def _counting_scans(monkeypatch):
    """Clear the stabilizer memo and count the scans that follow: each scan
    lists the units mod K once."""
    exact._stabilizer_index.cache_clear()
    scans = []

    def counting(K):
        scans.append(K)
        return units_mod(K)

    monkeypatch.setattr(exact, "units_mod", counting)
    return scans


@pytest.mark.parametrize("K,gens,variants", [
    (28, [(1, -1), (4, -4)], [
        [(-4, 4), (-1, 1)],              # reordered
        [(1, -1), (4, -4), (1, -1)],     # a generator repeated
        [(29, -29), (4 - 56, -4)],       # shifted by multiples of K
        [(-1, 1), (-4, 4)],              # negated
    ]),
    (24, [(1, 5), (1, 7)], [
        [(7, 1), (5, 1)],
        [(1, 5), (1, 5), (1, 7)],
        [(25, -43), (1 + 24 * 5, 7)],
        [(-1, -5), (1, 7)],              # one generator negated
        [(-1, -5), (-1, -7)],
    ]),
    (21, [(1, 4, 16), (7,)], [
        [(7,), (16, 4, 1)],
        [(7,), (1, 4, 16), (7,), (7,)],
        [(22, -17, 16), (-14,)],
        [(-1, -4, -16), (-7,)],
    ]),
])
def test_subfield_degree_scans_once_per_canonical_input(monkeypatch, K, gens,
                                                        variants):
    # reordering, repeating, shifting by K or negating the generators leaves
    # the stabilizer as it is, and the canonical key as well
    scans = _counting_scans(monkeypatch)
    degree = subfield_degree(K, gens)
    assert degree == _ascending_scan(K, gens)
    assert scans == [K]
    for other in variants:
        assert subfield_degree(K, other) == degree, other
        assert _ascending_scan(K, other) == degree, other
    assert scans == [K]
    subfield_degree(K, gens[:1])                 # a different input scans
    assert scans == [K, K]


def test_subfield_degree_memo_is_bounded():
    assert exact._stabilizer_index.cache_info().maxsize is not None


def test_trace_sweep_scans_once_per_distinct_input(monkeypatch):
    # (n, m) and (m, n) hand the scan the same generators, the trace-field
    # pair with its two lists swapped and the Hecke scalars reordered; the
    # memo must also hold every distinct input of the largest sweep
    monkeypatch.delenv("VWBM_THREADS", raising=False)
    calls = []

    def recording(K, generators):
        calls.append((K, [tuple(g) for g in generators]))
        return subfield_degree(K, generators)

    monkeypatch.setattr(invariants, "subfield_degree", recording)
    scans = _counting_scans(monkeypatch)
    assert all(check.passed for check in verify.run_suite(16, "trace"))

    def key(K, gens):
        return K, frozenset(
            min(tuple(sorted(e % K for e in g)),
                tuple(sorted(-e % K for e in g))) for g in gens)

    assert len(calls) == 672
    assert len(scans) == len({key(K, gens) for K, gens in calls}) == 357
    assert exact._stabilizer_index.cache_info().maxsize >= 1581


def test_units_mod_matches_gcd_scan():
    for K in range(1, 1201):
        assert units_mod(K) == [a for a in range(1, K + 1)
                                if math.gcd(a, K) == 1], K


def _prime_by_division(k):
    return k >= 2 and all(k % d for d in range(2, math.isqrt(k) + 1))


def test_factorize_and_is_prime_match_trial_division():
    for K in range(1, 2001):
        pairs = _factorize(K)
        primes = [p for p, _ in pairs]
        assert isinstance(pairs, tuple), K
        assert math.prod(p ** e for p, e in pairs) == K
        assert primes == sorted(set(primes)), K
        assert all(e > 0 and _prime_by_division(p) for p, e in pairs), K
        assert _is_prime(K) == _prime_by_division(K), K


def test_factorize_memo_holds_a_sweep(monkeypatch):
    # the bounded memo keeps every integer a sweep factors, so each is
    # factored once
    monkeypatch.setenv("VWBM_THREADS", "1")
    exact._factorize.cache_clear()
    assert all(check.passed for check in verify.run_suite(16, "all"))
    info = exact._factorize.cache_info()
    assert info.maxsize is not None
    assert 0 < info.misses == info.currsize < info.maxsize


def test_fp_root_table():
    for K in range(1, 2001):
        p, powers = _fp_root_powers(K)
        assert (p - 1) % K == 0
        assert all(p % q for q in range(2, math.isqrt(p) + 1))
        w = powers[1 % K]
        assert len(powers) == K and powers[0] == 1
        assert all(powers[j] * w % p == powers[(j + 1) % K] for j in range(K))
        assert all(pow(w, K // q, p) != 1 for q, _ in _factorize(K)), K
