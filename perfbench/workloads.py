"""Workload inputs and per-item correctness laws for the vwbm benchmark.

An item is the argument list of one ``vwbm`` command, e.g.
``("info", "12", "7")``.  The inputs are generated here from the draw seed;
the program only ever sees the resulting ``n m`` pairs.  The laws checked on
each item's stdout come from the paper, not from the program's own output.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("info", "surface", "verify")
DIGESTS = Path(__file__).resolve().parent / "digests.json"

# info: the interactive path, one ``vwbm info n m`` report per pair.  At large
# nm about 90 % of the time goes to invariants.hecke_scalars (a cold K x phi(K)
# power-residue table), while rowspan, generators and cli each run once per
# pair.  (60, 61) is the slowest and largest report in common use (about 3 s
# and 130 MB on a 2-vCPU x86-64 VM, CPython 3.11).  (40, 30) is a pair where
# the float generator cross-check reports ok: false although the exact
# equation holds; it stays in every draw so that the oracle's defect shows in
# generators.numeric_not_ok until the oracle is fixed.
INFO_RANGE = (2, 40)
INFO_BLOCKS = 7
INFO_ANCHORS = ((60, 61), (40, 30))

# surface: almost entirely the square-tiled layer (lift_class_count ->
# intertwine_check) and never touches the cyclotomic layer, so a rewrite of
# the symmetry lifts shows here and a cyclotomic rewrite must leave it alone.
SURFACE_RANGE = (2, 12)
SURFACE_BLOCKS = 8

# verify: the batch path, many small pairs in one process with warm caches.
# It is dominated by the row span (summands recomputed per pair-check), covers
# the generator oracle, and uses the cyclotomic layer the opposite way to
# info (many small warm K instead of one huge cold one), so a cache or memory
# trade-off that helps one of the two and hurts the other shows.
VERIFY_NMAX = 16
VERIFY_LEVELS = ("rowspan", "genus", "trace", "covers", "generators",
                 "spectrum")


def valid_pair(n: int, m: int) -> bool:
    return n >= 2 and m >= 2 and n * m >= 6


def _blocks(lo: int, hi: int, count: int) -> list[range]:
    """Split lo..hi (inclusive) into ``count`` contiguous near-equal ranges."""
    size = hi - lo + 1
    edges = [lo + size * k // count for k in range(count + 1)]
    return [range(edges[k], edges[k + 1]) for k in range(count)]


def stratified_pairs(seed: int, lo: int, hi: int, blocks: int
                     ) -> list[tuple[int, int]]:
    """One uniform valid pair from each non-empty cell of a blocks x blocks
    grid.

    Every valid pair in lo..hi is equally likely within its cell, and every
    cell is drawn once, so the cost of a draw varies far less from seed to
    seed than that of a plain uniform draw of the same size.
    """
    rng = random.Random(seed)
    out = []
    for rows in _blocks(lo, hi, blocks):
        for cols in _blocks(lo, hi, blocks):
            cell = [(n, m) for n in rows for m in cols if valid_pair(n, m)]
            if cell:
                out.append(rng.choice(cell))
    return out


def items(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The commands of one run of ``workload`` for draw ``seed``."""
    if workload == "info":
        pairs = stratified_pairs(seed, *INFO_RANGE, INFO_BLOCKS)
        pairs += [p for p in INFO_ANCHORS if p not in pairs]
        return [("info", str(n), str(m)) for n, m in pairs]
    if workload == "surface":
        pairs = stratified_pairs(seed, *SURFACE_RANGE, SURFACE_BLOCKS)
        return [("surface", str(n), str(m)) for n, m in pairs]
    if workload == "verify":
        return [("verify", str(VERIFY_NMAX), "--level", level)
                for level in VERIFY_LEVELS]
    raise ValueError(f"unknown workload {workload!r}; expected one of "
                     f"{', '.join(WORKLOADS)}")


def domain(workload: str) -> list[tuple[str, ...]]:
    """Every item any seed can draw, for recording reference digests."""
    if workload == "verify":
        return items("verify", 0)
    lo, hi = INFO_RANGE if workload == "info" else SURFACE_RANGE
    pairs = [(n, m) for n in range(lo, hi + 1) for m in range(lo, hi + 1)
             if valid_pair(n, m)]
    if workload == "info":
        pairs += [p for p in INFO_ANCHORS if p not in pairs]
    return [(workload, str(n), str(m)) for n, m in pairs]


def item_key(item: tuple[str, ...]) -> str:
    return " ".join(item)


def load_digests() -> dict[str, str]:
    """sha256 of each item's reference stdout, keyed by item_key."""
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def _info_laws(d: dict) -> list[str]:
    bad = []
    spectrum = [Fraction(x) for x in d["spectrum"]]
    if not d["genus"] == len(d["summands"]) == len(spectrum):
        bad.append("genus, #summands and #spectrum differ")
    if not spectrum or d["spectrum"][0] != "1":
        bad.append("top exponent is not 1")
    if any(not 0 < x <= 1 for x in spectrum):
        bad.append("an exponent lies outside (0, 1]")
    if d["trace"]["hecke_field_degree"] != d["trace"]["degree_E"]:
        bad.append("Hecke field degree differs from deg E")
    prim = d["primitivity"]
    if prim["applicable"] and prim["by_criterion"] != prim["by_trace_degree"]:
        bad.append("primitivity criterion and degree test disagree")
    n, m = d["params"]["n"], d["params"]["m"]
    bad += _generator_laws(d["generator"], n, m)
    return bad


# Integer polynomials are coefficient lists, lowest degree first.

def _mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _pow(a: list[int], k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _mul(out, a)
    return out


def _at_p_plus_inverse(q: list[int]) -> list[int]:
    """p^d q(p + 1/p) for q of degree d, as a polynomial in p."""
    d = len(q) - 1
    out = [0] * (2 * d + 1)
    for k, c in enumerate(q):
        for i, b in enumerate(math.comb(k, i) for i in range(k + 1)):
            out[d - k + 2 * i] += c * b
    return out


def _generator_laws(g: dict, n: int, m: int) -> list[str]:
    """The generator equation of T(n, m), checked exactly.

    The paper's right-hand side is (u - 2)^a Q^mult, with Q the product of
    u - 2cos(theta) over theta = 2 pi j / m, j = 1..(m - 1)/2 for odd m, and
    theta = pi (2j - 1) / m, j = 1..m/2 for even m; the one-form is
    y du / ((u - 2) Q).  Since u - 2cos(theta) = p^-1 (p - e^(i theta))
    (p - e^(-i theta)) at u = p + 1/p, the roots of p^deg(Q) Q(p + 1/p) are
    e^(+-i theta): all m-th roots of unity but 1 for odd m, giving
    1 + p + ... + p^(m-1), and all roots of p^m = -1 for even m, giving
    p^m + 1.  This tests the program's integer polynomials without floating
    point and without its Chebyshev closed form.
    """
    if m % 2:
        case, y_exp, a, mult = "m_odd", 2 * n, 1, 2
        q_at_p = [1] * m
    elif n % 2:
        case, y_exp, a, mult = "m_even_n_odd", 2 * n, n, 2
        q_at_p = [1] + [0] * (m - 1) + [1]
    else:
        case, y_exp, a, mult = "both_even", n, n // 2, 1
        q_at_p = [1] + [0] * (m - 1) + [1]
    f = g["factored"]
    q = f["squarefree"]
    bad = []
    if (g["case"], g["y_exponent"], f["linear_power"], f["multiplicity"]) \
            != (case, y_exp, a, mult):
        bad.append("generator case or exponents differ from the paper's")
    if _at_p_plus_inverse(q) != q_at_p:
        bad.append("square-free factor is not the cosine product")
    if g["rhs"] != _mul(_pow([-2, 1], a), _pow(q, mult)):
        bad.append("rhs is not (u - 2)^a Q^mult")
    if g["differential_denominator"] != _mul([-2, 1], q):
        bad.append("one-form denominator is not (u - 2) Q")
    return bad


def numeric_oracle_not_ok(item: tuple[str, ...], stdout: bytes) -> bool:
    """True when an info report's float cross-check says ok: false.

    That oracle is ill-conditioned near the roots (ROADMAP item 3): it fails
    on some even/even pairs such as (40, 30) whose exact equation holds.  The
    exact law above decides correctness; this flag is counted apart so the
    oracle's defect stays visible until it is fixed.
    """
    if item[0] != "info":
        return False
    try:
        return not json.loads(stdout)["generator"]["numeric_verification"]["ok"]
    except (ValueError, KeyError, TypeError):
        return False


def _surface_laws(d: dict, n: int, m: int) -> list[str]:
    bad = []
    both_even = n % 2 == 0 and m % 2 == 0
    if d["lift_classes"] != (2 if both_even else 1):
        bad.append(f"{d['lift_classes']} lift classes")
    s2 = d["sigma2"]
    if not (s2["involution"] and s2["fixed_edges"] > 0
            and s2["horizontal_cylinders_preserved"]):
        bad.append("sigma2 lift flag fails")
    variants = d["sigma4_variants"]
    if len(variants) != (2 if both_even else 1):
        bad.append(f"{len(variants)} sigma4 variants")
    for v in variants:
        if not (v["involution"] and v["fixed_edges"] > 0
                and v["vertical_cylinders_preserved"]):
            bad.append(f"sigma4 variant {v['variant']} flag fails")
    if d["square_count"] != 2 * d["column_span_order"]:
        bad.append("square count is not twice the deck group order")
    return bad


def check(item: tuple[str, ...], exit_code: int, stdout: bytes) -> list[str]:
    """The laws ``item``'s output breaks; empty when it passes."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    text = stdout.decode("utf-8", "replace")
    if item[0] == "verify":
        lines = text.splitlines()
        if not lines or any(not ln.startswith("PASS") for ln in lines):
            return ["a verify line is not PASS"]
        return []
    try:
        d = json.loads(text)
        if item[0] == "info":
            return _info_laws(d)
        return _surface_laws(d, int(item[1]), int(item[2]))
    except (ValueError, KeyError, TypeError, IndexError,
            ZeroDivisionError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
