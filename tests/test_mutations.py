"""Each check of ``verify`` fails on a defect planted in the program.

A mutation monkeypatches one defect into the code a check tests, never into
the check, and ``run_suite(12, level)`` must then fail that check with its
own message (the idea of DeMillo, Lipton and Sayward, "Hints on test data
selection", Computer 11(4), 1978).  A check that a refactor turned into a
no-op passes under its mutation, and this test fails.
"""
from bisect import bisect_left

import pytest

from vwbm import invariants, surface, verify
from vwbm.verify import run_suite


def _sigma4_shifted_by_column_1(monkeypatch):
    lift_sigma4 = surface.lift_sigma4

    def shifted(surf, variant=1):
        lift = lift_sigma4(surf, variant)
        col_1 = surf.span.columns[0]
        return lift._replace(
            shifts=tuple(surf.add(s, col_1) for s in lift.shifts))

    monkeypatch.setattr(surface, "lift_sigma4", shifted)
    monkeypatch.setattr(verify, "lift_sigma4", shifted)


def _membership_without_its_equality_test(monkeypatch):
    # an insertion point inside the tuple passes for a member
    monkeypatch.setattr(invariants, "_in_sorted",
                        lambda items, item: bisect_left(items, item) < len(items))


def _deg_e_doubled_when_gamma_is_1_and_n_or_m_odd(monkeypatch):
    trace_degrees = invariants.trace_degrees

    def doubled(params):
        deg_f, deg_e = trace_degrees(params)
        if params.gamma == 1 and (params.n % 2 or params.m % 2):
            deg_e *= 2
        return deg_f, deg_e

    monkeypatch.setattr(invariants, "trace_degrees", doubled)


# (level, mutation, the check it fails, that check's failure detail)
MUTATIONS = [
    ("lifts", _sigma4_shifted_by_column_1, "pillowcase symmetry lift suite",
     "(2,3): sigma4 variant 1 is not an involution"),
    ("covers", _membership_without_its_equality_test,
     "covering criterion vs containment oracle",
     "(2,6) vs (2,3): criterion=False containment=True"),
    ("trace", _deg_e_doubled_when_gamma_is_1_and_n_or_m_odd,
     "trace degrees formula vs oracle",
     "(2,3): closed (1, 2) vs oracle (1, 1)"),
]


@pytest.mark.parametrize("level, mutate, name, detail", MUTATIONS,
                         ids=[level for level, *_ in MUTATIONS])
def test_check_fails_on_its_mutation(monkeypatch, level, mutate, name, detail):
    # one worker, so the sweep runs in this process and sees the patch
    monkeypatch.setenv("VWBM_THREADS", "1")
    assert all(r.passed for r in run_suite(12, level))
    mutate(monkeypatch)
    failed = {r.name: r.detail for r in run_suite(12, level) if not r.passed}
    assert failed.get(name) == detail
