from fractions import Fraction

import pytest

from vwbm.cli import main
from vwbm.exact import IntPolynomial
from vwbm.generators import generator_equation
from vwbm.rowspan import CurveParams, klein_orbits, row_span
from vwbm.verify import (VERIFY_NMAX_MAX, Check, CheckResult,
                         _cosine_root_identity, _sweep, _thread_cap,
                         run_suite, valid_pairs)


def _result(nmax, level, name):
    """The result of the named check in run_suite(nmax, level)."""
    return next(r for r in run_suite(nmax, level) if r.name == name)


def test_valid_pairs_filter():
    pairs = valid_pairs(3)
    assert pairs == [(2, 3), (3, 2), (3, 3)]


def test_rowspan_identities_sweep():
    assert _result(12, "rowspan", "row-span t identities").passed


def test_klein_orbit_sweep():
    assert _result(12, "rowspan", "Klein orbit selection").passed


def test_swap_symmetry_sweep():
    assert _result(12, "spectrum", "invariants agree under (n, m) swap").passed


def test_run_suite_levels():
    results = run_suite(6, "genus")
    assert [r.name for r in results] == ["genus triple agreement"]
    assert all(r.passed for r in results)
    assert len(run_suite(6, "trace-only")) == 2
    with pytest.raises(ValueError):
        run_suite(6, "bogus")
    with pytest.raises(ValueError):
        run_suite(2)


def test_run_suite_all_names_every_level():
    results = run_suite(6, "all")
    names = {r.name for r in results}
    assert len(results) == len(names) == 10


def test_parallel_map_via_env(monkeypatch):
    monkeypatch.setenv("VWBM_THREADS", "2")
    assert _result(6, "rowspan", "row-span t identities").passed


def test_thread_cap_is_clamped(monkeypatch):
    pairs = valid_pairs(6)
    # the CPUs this process may run on, not the machine's
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3},
                        raising=False)
    monkeypatch.setattr("os.cpu_count", lambda: 8)
    monkeypatch.setenv("VWBM_THREADS", "100000")
    assert _thread_cap(pairs) == 4
    assert _thread_cap(pairs[:3]) == 3
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {1})
    monkeypatch.setenv("VWBM_THREADS", "2")
    assert _thread_cap(pairs) == 1
    # without sched_getaffinity, the machine's count
    monkeypatch.delattr("os.sched_getaffinity")
    monkeypatch.setenv("VWBM_THREADS", "100000")
    assert _thread_cap(pairs) == 8
    monkeypatch.setattr("os.cpu_count", lambda: None)
    assert _thread_cap(pairs) == 1
    monkeypatch.setenv("VWBM_THREADS", "-5")
    assert _thread_cap(pairs) == 1


def test_check_result_lines():
    ok = CheckResult("demo", True, "", {"pairs": 3})
    assert ok.line() == "PASS  demo (3 pairs)"
    bad = CheckResult("demo", False, "witness (2,3)", {"pairs": 8})
    assert bad.line() == "FAIL  demo (8 pairs)  [witness (2,3)]"


def test_cli_verify_reports_failure(monkeypatch, capsys):
    def fake_suite(nmax, level):
        return [CheckResult("stubbed check", False, "witness at (2,3)",
                            {"pairs": 8})]
    monkeypatch.setattr("vwbm.cli.run_suite", fake_suite)
    code = main(["verify", "6"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL  stubbed check (8 pairs)  [witness at (2,3)]" in out
    assert out.strip().endswith("FAIL  overall (nmax=6)")


def test_subcommands_share_validation_contract(capsys):
    for argv in (["covers", "1", "5"], ["spectrum", "2", "2"],
                 ["generator", "0", "9"], ["surface", "1", "8"],
                 ["tracefield", "2", "1"]):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert "n, m must exceed 1 and nm >= 6" in err


@pytest.mark.parametrize("m", range(2, 41))
def test_cosine_root_identity_holds(m):
    # n = 3 gives the odd-m and the even-m cosine factors; n only changes
    # the (u - 2) power and the multiplicity
    q = generator_equation(CurveParams(3, m)).rhs_factored[1]
    assert _cosine_root_identity(q, m)


def test_cosine_root_identity_rejects_wrong_factors():
    # u^2 - 2 = C_2 is the m = 4 factor; u^2 - 5 has roots outside [-2, 2]
    assert _cosine_root_identity(IntPolynomial((-2, 0, 1)), 4)
    assert not _cosine_root_identity(IntPolynomial((-5, 0, 1)), 4)
    for m in (7, 10):
        q = generator_equation(CurveParams(3, m)).rhs_factored[1]
        changed = IntPolynomial((q.coeffs[0] + 1,) + q.coeffs[1:])
        assert not _cosine_root_identity(changed, m)
        assert not _cosine_root_identity(q, m + 2)


def test_suite_builds_each_row_span_about_once(monkeypatch):
    # checks run pair by pair, so a sweep longer than the span cache does
    # not rebuild every span once per check
    from vwbm import rowspan
    monkeypatch.setenv("VWBM_THREADS", "1")
    rowspan._span_entries.cache_clear()
    assert all(r.passed for r in run_suite(10, "all"))
    assert rowspan._span_entries.cache_info().misses <= 2 * len(valid_pairs(10))


def test_genus_level_enumerates_each_deck_group_once(monkeypatch):
    # the Klein orbits and the surface share one listing of G per pair, read
    # off its closed form; the summands are read off theirs, and the level
    # closes no group
    from vwbm import rowspan, surface, verify
    monkeypatch.setenv("VWBM_THREADS", "1")
    calls = []
    real = rowspan.span_closure

    def counting(gens, modulus):
        calls.append(modulus)
        return real(gens, modulus)

    for module in (rowspan, surface, verify):
        if hasattr(module, "span_closure"):
            monkeypatch.setattr(module, "span_closure", counting)
    rowspan._span_entries.cache_clear()
    try:
        assert all(r.passed for r in run_suite(10, "genus"))
        misses = rowspan._span_entries.cache_info().misses
    finally:
        rowspan._span_entries.cache_clear()
    assert calls == []
    assert misses == len(valid_pairs(10))


@pytest.mark.parametrize("n", range(2, 21))
def test_genus_level_counts_match_the_klein_orbits(monkeypatch, n):
    # the genus level counts free orbits and zero-free elements on G's
    # pairs; the reference builds the Klein orbits of the row span as
    # frozensets, as the level did before.  A failing closed form or cover
    # genus makes the check print the counts it found
    from vwbm import invariants, verify
    for m in [m for m in range(2, 21) if n * m >= 6]:
        params = CurveParams(n, m)
        pieces = [orbit for orbit in klein_orbits(row_span(params))
                  if 0 not in next(iter(orbit))]
        orbit = sum(len(o) == 4 for o in pieces)
        zero_free = sum(map(len, pieces))
        with monkeypatch.context() as patch:
            patch.setattr(invariants, "genus", lambda params: -1)
            assert verify._genus_pair(verify.PairContext((n, m))) == (
                f"({n},{m}): genus closed=-1 summands={orbit} orbit={orbit}")
        with monkeypatch.context() as patch:
            patch.setattr(verify, "surface_genus", lambda surface: -1)
            assert verify._genus_pair(verify.PairContext((n, m))) == (
                f"({n},{m}): {zero_free} zero-free span elements vs S-genus -1")


def test_genus_level_builds_no_row_span_or_orbits(monkeypatch):
    # it counts on G's pairs; only the Klein check builds the 4-tuples
    from vwbm import verify
    monkeypatch.setenv("VWBM_THREADS", "1")

    def forbidden(*args):
        raise AssertionError("the genus level reads no row span")

    monkeypatch.setattr(verify, "row_span", forbidden)
    monkeypatch.setattr(verify, "klein_orbits", forbidden)
    assert all(r.passed for r in run_suite(12, "genus"))
    assert not _result(4, "rowspan", "Klein orbit selection").passed


def test_genus_check_fails_when_free_elements_do_not_split_into_fours(
        monkeypatch):
    # one free element too many: the orbit count is not whole
    from vwbm import rowspan, verify
    listed = rowspan._span_entries
    monkeypatch.setattr(rowspan, "_span_entries",
                        lambda n, m: listed(n, m) + ((1, 2),))
    ctx = verify.PairContext((2, 3))
    assert verify._genus_pair(ctx) == "(2,3): genus closed=1 summands=1 orbit=5/4"


def test_all_levels_build_each_shared_object_once_per_pair(monkeypatch):
    # the checks of a pair read one context, so the row span, the summands,
    # the Klein orbits and the surface are each built once per pair, not
    # once per check that reads them
    from vwbm import verify
    monkeypatch.setenv("VWBM_THREADS", "1")
    names = ("row_span", "summands", "klein_orbits", "build_surface")
    seen = {}

    def counting(name, real):
        def build(arg):
            seen.setdefault(name, []).append(arg)
            return real(arg)
        return build

    for name in names:
        monkeypatch.setattr(verify, name,
                            counting(name, getattr(verify, name)))
    assert all(r.passed for r in run_suite(10, "all"))
    assert set(seen) == set(names)
    pairs = valid_pairs(10)
    for name in ("row_span", "build_surface"):
        assert [(p.n, p.m) for p in seen[name]] == pairs
    # the swap check also lists the summands of T(m, n), once per n <= m
    assert [(p.n, p.m) for p in seen["summands"]] == [
        q for n, m in pairs for q in ([(n, m), (m, n)] if n <= m else [(n, m)])]
    # the orbits are taken of the same span the rowspan level checks
    assert seen["klein_orbits"] == [row_span(CurveParams(*p)) for p in pairs]


def test_a_failed_shared_build_fails_each_check_that_reads_it(monkeypatch):
    # a build that raises is not kept: each check that reads it builds it
    # again and fails at the pair, and the other checks still pass
    from vwbm import verify
    monkeypatch.setenv("VWBM_THREADS", "1")
    calls = []

    def no_summands(params):
        calls.append((params.n, params.m))
        raise ValueError("no summands")

    monkeypatch.setattr(verify, "summands", no_summands)
    results = run_suite(4, "all")
    assert len(results) == 10
    readers = ("Klein orbit selection", "genus triple agreement",
               "spectrum laws and tiling correspondence",
               "invariants agree under (n, m) swap")
    assert {r.name: r.detail for r in results if not r.passed} == {
        name: "(2,3): ValueError: no summands" for name in readers}
    # the swap check reads the summands only at n <= m
    pairs = valid_pairs(4)
    assert len(calls) == 3 * len(pairs) + sum(n <= m for n, m in pairs) == 29


def test_verify_refuses_an_unmeasured_nmax(monkeypatch, capsys):
    def no_sweep(*args):
        raise AssertionError("a check worker ran")
    monkeypatch.setattr("vwbm.verify._pair_outcomes", no_sweep)
    code = main(["verify", str(VERIFY_NMAX_MAX + 1)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"only up to nmax = {VERIFY_NMAX_MAX}" in captured.err
    with pytest.raises(ValueError):
        run_suite(VERIFY_NMAX_MAX + 1, "rowspan")


def _fails_on_odd_sum(ctx):
    return f"odd sum at {ctx.pair}" if sum(ctx.pair) % 2 else None


def _fails_on_square(ctx):
    return f"square at {ctx.pair}" if ctx.pair[0] == ctx.pair[1] else None


def _never_fails(ctx):
    return None


def test_sweep_keeps_each_checks_first_counterexample():
    odd, square = Check("odd", _fails_on_odd_sum), Check("square", _fails_on_square)
    assert _sweep((odd,), 4) == [
        CheckResult("odd", False, "odd sum at (2, 3)", {"pairs": 8})]
    results = _sweep((square, odd, Check("none", _never_fails)), 4)
    assert [(r.name, r.passed, r.detail) for r in results] == [
        ("square", False, "square at (3, 3)"),
        ("odd", False, "odd sum at (2, 3)"),
        ("none", True, "")]
    assert all(r.stats == {"pairs": 8} for r in results)


def test_trace_level_checks_the_hecke_degree_at_every_pair(monkeypatch):
    from vwbm import invariants
    monkeypatch.setenv("VWBM_THREADS", "1")
    seen = []
    real = invariants.hecke_scalars

    def recording(params):
        seen.append((params.n, params.m))
        return real(params)

    monkeypatch.setattr(invariants, "hecke_scalars", recording)
    assert all(r.passed for r in run_suite(13, "trace"))
    assert (13, 13) in seen and sorted(seen) == valid_pairs(13)


def test_selection_checks_pin_the_chosen_orbit_member(monkeypatch):
    # the sigma2 image (b, a, N - b, N - a) of each summand, the lattice
    # point (-k, j), still meets every free orbit once; the spectrum check
    # must see that it is not the one selected (the Klein check's failure
    # is the klein row of test_mutations.MUTATIONS)
    from vwbm import rowspan, verify
    monkeypatch.setenv("VWBM_THREADS", "1")
    params = CurveParams(5, 6)
    for s in rowspan.summands(params):
        a, b, c, d = s.vector
        assert s._replace(k=-s.k).vector == (b, a, d, c)

    def sigma2_images(params):
        return tuple(s._replace(k=-s.k) for s in rowspan.summands(params))

    monkeypatch.setattr(verify, "summands", sigma2_images)
    spectrum = _result(8, "spectrum", "spectrum laws and tiling correspondence")
    assert not spectrum.passed
    assert spectrum.detail.startswith("(2,3): mu, nu, lambda do not match")


def test_spectrum_level_pins_the_printed_order(monkeypatch, capsys):
    # ordered by (nk + mj, j) instead of (nk + mj, k): the same summands,
    # with mu descending among equal exponents
    from vwbm import rowspan, verify
    monkeypatch.setenv("VWBM_THREADS", "1")

    def by_exponent_then_nu(params):
        return tuple(sorted(rowspan.summands(params),
                            key=lambda s: (-Fraction(
                                s.n * s.m - s.n * s.k - s.m * s.j,
                                s.n * s.m - s.n - s.m), Fraction(s.j, s.n))))

    monkeypatch.setattr(verify, "summands", by_exponent_then_nu)
    code = main(["verify", "16", "--level", "spectrum"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    assert lines[0].startswith("FAIL  spectrum laws and tiling correspondence")
    assert "out of canonical order" in lines[0]


def test_spectrum_level_fails_on_an_empty_summand_list(monkeypatch, capsys):
    # no top point (1, 1) is a failed law, not an IndexError
    from vwbm import verify
    monkeypatch.setenv("VWBM_THREADS", "1")
    monkeypatch.setattr(verify, "summands", lambda params: ())
    code = main(["verify", "4", "--level", "spectrum"])
    assert code == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL  spectrum laws and tiling correspondence (8 pairs)  "
        "[(2,3): top exponent is not 1 at (0, 1/m, 1/n)]",
        "PASS  invariants agree under (n, m) swap (8 pairs)",
        "FAIL  overall (nmax=4)"]


def test_swap_check_compares_the_spectra_of_both_orders(monkeypatch):
    # T(n, m) loses its last summand when n > m: the swap check, which reads
    # the summands of (n, m) and of (m, n), must see the spectra differ
    from vwbm import rowspan, verify
    monkeypatch.setenv("VWBM_THREADS", "1")

    def short_when_swapped(params):
        sums = rowspan.summands(params)
        return sums[:-1] if params.n > params.m and len(sums) > 1 else sums

    monkeypatch.setattr(verify, "summands", short_when_swapped)
    failed = {r.name: r.detail for r in run_suite(8, "spectrum")
              if not r.passed}
    assert failed["invariants agree under (n, m) swap"] == (
        "(2,5): spectrum changes under swap")


def test_a_check_that_raises_fails_at_its_pair(monkeypatch, capsys):
    from vwbm import generators
    monkeypatch.setenv("VWBM_THREADS", "1")

    def inexact(params):
        raise ValueError("inexact polynomial division")

    monkeypatch.setattr(generators, "generator_equation", inexact)
    code = main(["verify", "4", "--level", "generators"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    assert captured.out.splitlines() == [
        "FAIL  generator equations exact vs numeric (8 pairs)  "
        "[(2,3): ValueError: inexact polynomial division]",
        "FAIL  overall (nmax=4)"]


def test_a_raising_check_leaves_the_other_checks_running(monkeypatch, capsys):
    monkeypatch.setenv("VWBM_THREADS", "1")

    def broken_census(surface):
        raise AssertionError("lift classes do not divide")

    monkeypatch.setattr("vwbm.verify.lift_class_count", broken_census)
    code = main(["verify", "4"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 1
    failed = [line for line in lines if line.startswith("FAIL")]
    assert failed == [
        "FAIL  pillowcase symmetry lift suite (8 pairs)  "
        "[(2,3): AssertionError: lift classes do not divide]",
        "FAIL  overall (nmax=4)"]
    assert len(lines) == 11
