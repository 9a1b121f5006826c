"""Each check of ``verify`` fails on a defect planted in the program.

A mutation monkeypatches one defect into the code a check tests, never into
the check, and ``run_suite(12, level)`` must then fail that check with its
own message (the idea of DeMillo, Lipton and Sayward, "Hints on test data
selection", Computer 11(4), 1978).  A check that a refactor turned into a
no-op passes under its mutation, and this test fails.

A helper that both sides of a check call could carry a defect that neither
side sees, so a second table plants defects in shared helpers, at the
definition and in every module that binds the name.
"""
import json

import pytest

import vwbm
from vwbm import cli, exact, generators, invariants, rowspan, surface, verify
from vwbm.cli import main
from vwbm.exact import IntPolynomial
from vwbm.verify import run_suite


def _deck_group_without_its_parity_condition(monkeypatch):
    # every (u, v), also u != v mod 2 when n and m are both even
    def every_u_v(n, m):
        nm, N = n * m, 2 * n * m
        return tuple(sorted(
            ((m * u + n * v + h) % N, (m * u - n * v + h) % N)
            for u in range(n) for v in range(m) for h in (0, nm)))

    monkeypatch.setattr(rowspan, "_span_entries", every_u_v)


def _summands_as_their_sigma2_images(monkeypatch):
    # the lattice point (-k, j) is the sigma2 image (b, a, N - b, N - a)
    def sigma2_images(params):
        return tuple(s._replace(k=-s.k) for s in rowspan.summands(params))

    monkeypatch.setattr(verify, "summands", sigma2_images)


def _genus_plus_1_when_n_and_m_are_even(monkeypatch):
    genus = invariants.genus

    def plus_1(params):
        return genus(params) + (params.n % 2 == 0 == params.m % 2)

    monkeypatch.setattr(invariants, "genus", plus_1)


def _deg_e_doubled_when_gamma_is_1_and_n_or_m_odd(monkeypatch):
    trace_degrees = invariants.trace_degrees

    def doubled(params):
        deg_f, deg_e = trace_degrees(params)
        if params.gamma == 1 and (params.n % 2 or params.m % 2):
            deg_e *= 2
        return deg_f, deg_e

    monkeypatch.setattr(invariants, "trace_degrees", doubled)


def _criterion_rejecting_powers_of_two(monkeypatch):
    criterion = invariants._ap_criterion

    def rejecting(n, m):
        # with one of n, m equal to 2, nm is a power of two exactly when
        # the other is
        return criterion(n, m) and (n * m) & (n * m - 1) != 0

    monkeypatch.setattr(invariants, "_ap_criterion", rejecting)


def _membership_without_its_parity_condition(monkeypatch):
    # 2m | a + b and 2n | a - b alone, also when n and m are both even
    def without_parity(n, m, x):
        return (x[0] + x[1]) % (2 * m) == 0 == (x[0] - x[1]) % (2 * n)

    monkeypatch.setattr(invariants, "in_deck_group", without_parity)


def _sigma4_shifted_by_column_1(monkeypatch):
    lift_sigma4 = surface.lift_sigma4

    def shifted(surf, variant=1):
        lift = lift_sigma4(surf, variant)
        col_1 = surf.columns[0]
        return lift._replace(
            shifts=tuple(surf.add(s, col_1) for s in lift.shifts))

    monkeypatch.setattr(surface, "lift_sigma4", shifted)
    monkeypatch.setattr(verify, "lift_sigma4", shifted)


def _rhs_as_the_differential_denominator(monkeypatch):
    generator_equation = generators.generator_equation

    def rhs_as_denominator(params):
        eq = generator_equation(params)
        return eq._replace(differential_denominator=eq.rhs)

    monkeypatch.setattr(generators, "generator_equation", rhs_as_denominator)


def _summands_by_exponent_then_nu(monkeypatch):
    # mu descending among equal exponents: ascending (nk + mj, j), not k
    def by_exponent_then_nu(params):
        return tuple(sorted(rowspan.summands(params),
                            key=lambda s: (s.n * s.k + s.m * s.j, s.j)))

    monkeypatch.setattr(verify, "summands", by_exponent_then_nu)


def _arithmeticity_without_its_sort(monkeypatch):
    def unsorted(params):
        return (params.n, params.m) in invariants.ARITHMETIC_PAIRS

    monkeypatch.setattr(invariants, "is_arithmetic", unsorted)


# test id: (level, mutation, the check it fails, that check's failure detail)
MUTATIONS = {
    "rowspan": ("rowspan", _deck_group_without_its_parity_condition,
                "row-span t identities",
                "(2,4): row span differs from the closure of the rows"),
    "klein": ("rowspan", _summands_as_their_sigma2_images,
              "Klein orbit selection",
              "(2,3): summands differ from the t-value selection"),
    "genus": ("genus", _genus_plus_1_when_n_and_m_are_even,
              "genus triple agreement",
              "(2,4): genus closed=2 summands=1 orbit=1"),
    "trace": ("trace", _deg_e_doubled_when_gamma_is_1_and_n_or_m_odd,
              "trace degrees formula vs oracle",
              "(2,3): closed (1, 2) vs oracle (1, 1)"),
    "primitivity": ("trace", _criterion_rejecting_powers_of_two,
                    "algebraic primitivity criterion vs degrees",
                    "(2,8): criterion=False deg E = genus is True"),
    "covers": ("covers", _membership_without_its_parity_condition,
               "covering criterion vs containment oracle",
               "(2,6) vs (2,3): criterion=False containment=True"),
    "lifts": ("lifts", _sigma4_shifted_by_column_1,
              "pillowcase symmetry lift suite",
              "(2,3): sigma4 variant 1 is not an involution"),
    "generators": ("generators", _rhs_as_the_differential_denominator,
                   "generator equations exact vs numeric",
                   "(2,3): one-form law D^2 = (u - 2) rhs fails"),
    "spectrum": ("spectrum", _summands_by_exponent_then_nu,
                 "spectrum laws and tiling correspondence",
                 "(3,6): summands out of canonical order at (33, 27, 3, 9) "
                 "(no-repeat law)"),
    "swap": ("spectrum", _arithmeticity_without_its_sort,
             "invariants agree under (n, m) swap",
             "(2,3): arithmeticity changes under swap"),
}


@pytest.mark.parametrize("level, mutate, name, detail",
                         list(MUTATIONS.values()), ids=list(MUTATIONS))
def test_check_fails_on_its_mutation(monkeypatch, level, mutate, name, detail):
    # one worker, so the sweep runs in this process and sees the patch
    monkeypatch.setenv("VWBM_THREADS", "1")
    assert all(r.passed for r in run_suite(12, level))
    mutate(monkeypatch)
    failed = {r.name: r.detail for r in run_suite(12, level) if not r.passed}
    assert failed.get(name) == detail


PACKAGE = (vwbm, cli, exact, generators, invariants, rowspan, surface, verify)


def _clear_caches():
    # a memo filled before the plant would hide the defect, and one filled
    # through the planted helper must not outlive the test
    for module in PACKAGE:
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


# test id: (the helper's home module, its name, the defect as a function of
# the sound helper, level, the check it fails, that check's failure detail)
SHARED_HELPER_MUTATIONS = {
    "in_deck_group": (
        rowspan, "in_deck_group",
        lambda sound: lambda n, m, x: (
            (x[0] + x[1]) % (2 * m) == 0 == (x[0] - x[1]) % (2 * n)),
        "covers", "covering criterion vs containment oracle",
        "(2,6) vs (2,3): criterion=False containment=True"),
    "deck_group_order": (
        rowspan, "deck_group_order", lambda sound: lambda n, m: 2 * n * m,
        "genus", "genus triple agreement",
        "(2,4): 7 zero-free span elements vs S-genus 13"),
    "_span_entries": (
        rowspan, "_span_entries", lambda sound: lambda n, m: sound(n, m)[:-1],
        "rowspan", "row-span t identities",
        "(2,3): row span differs from the closure of the rows"),
    "euler_phi": (
        exact, "euler_phi",
        lambda sound: lambda K: sound(K) * (2 if K % 8 == 0 else 1),
        "trace", "trace degrees formula vs oracle",
        "(2,4): closed (4, 2) vs oracle (2, 1)"),
    "_factorize": (
        exact, "_factorize",
        lambda sound: lambda K: [(p, 1) for p, _ in sound(K)],
        "trace", "trace degrees formula vs oracle",
        "(2,3): closed (0, 0) vs oracle (1, 1)"),
    "subfield_degree": (
        exact, "subfield_degree",
        lambda sound: lambda K, gens: sound(K, gens) * (2 if K % 24 == 0 else 1),
        "trace", "trace degrees formula vs oracle",
        "(2,6): Hecke scalars do not generate E"),
}


@pytest.mark.parametrize("home, helper, defect, level, name, detail",
                         list(SHARED_HELPER_MUTATIONS.values()),
                         ids=list(SHARED_HELPER_MUTATIONS))
def test_check_fails_on_a_shared_helper_mutation(
        monkeypatch, home, helper, defect, level, name, detail):
    monkeypatch.setenv("VWBM_THREADS", "1")
    assert all(r.passed for r in run_suite(12, level))
    sound = getattr(home, helper)
    for module in PACKAGE:
        if vars(module).get(helper) is sound:
            monkeypatch.setattr(module, helper, defect(sound))
    _clear_caches()
    try:
        failed = {r.name: r.detail
                  for r in run_suite(12, level) if not r.passed}
    finally:
        _clear_caches()
    assert failed.get(name) == detail


def test_every_check_has_a_mutation():
    # a new check without a row in MUTATIONS fails here
    names = [check.name for checks in verify.LEVELS.values()
             for check in checks]
    assert sorted(name for _, _, name, _ in MUTATIONS.values()) == sorted(names)


def test_info_prints_both_primitivity_verdicts_when_they_disagree(
        monkeypatch, capsys):
    # the user path states the two verdicts; only verify compares them
    _criterion_rejecting_powers_of_two(monkeypatch)
    assert main(["info", "2", "8"]) == 0
    verdict = json.loads(capsys.readouterr().out)["primitivity"]
    assert verdict["by_criterion"] is False
    assert verdict["by_trace_degree"] is True


def test_lifts_level_fails_on_a_doubled_sigma4_census(monkeypatch):
    # the census statement of the lifts check: the MUTATIONS row of that
    # check fails it earlier, at an involution statement, and the table
    # holds one row per check
    monkeypatch.setenv("VWBM_THREADS", "1")
    candidates = surface._lift_candidates

    def doubled(surf, base):
        count = candidates(surf, base)
        return 2 * count if base.kind == "sigma4" else count

    monkeypatch.setattr(surface, "_lift_candidates", doubled)
    failed = {r.name: r.detail for r in run_suite(12, "lifts") if not r.passed}
    assert failed == {"pillowcase symmetry lift suite":
                      "(2,3): 2 lift classes, expected 1"}


def _generators_level_failures(monkeypatch, corrupt):
    # corrupt(eq) replaces the equation that generator_equation returns
    monkeypatch.setenv("VWBM_THREADS", "1")
    generator_equation = generators.generator_equation
    monkeypatch.setattr(generators, "generator_equation",
                        lambda params: corrupt(generator_equation(params)))
    return {r.name: r.detail
            for r in run_suite(12, "generators") if not r.passed}


def test_generators_level_fails_on_a_rhs_off_its_factorization(monkeypatch):
    # the multiply-out statement comes before the numeric one, which
    # samples the rhs through its factorization
    def bumped(eq):
        coeffs = list(eq.rhs.coeffs)
        coeffs[0] += 1
        return eq._replace(rhs=IntPolynomial(coeffs))

    assert _generators_level_failures(monkeypatch, bumped) == {
        "generator equations exact vs numeric":
            "(2,3): stored factorization does not multiply out"}


def test_generators_level_fails_on_q_plus_1_in_both(monkeypatch):
    # a factorization that multiplies out is still compared with the
    # float cosine product
    def bumped(eq):
        a, q, mult = eq.rhs_factored
        q = q + IntPolynomial((1,))
        return eq._replace(rhs=generators.u_minus_2_power(a) * q ** mult,
                           rhs_factored=(a, q, mult))

    assert _generators_level_failures(monkeypatch, bumped) == {
        "generator equations exact vs numeric":
            "(2,3): product form deviates by 1.000e+00"}
