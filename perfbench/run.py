"""The vwbm benchmark: one workload, end to end or traced per layer.

    python3 perfbench/run.py --workload info|surface|verify --seed N \\
        --seconds S --trace 0|1

It builds nothing: it runs the sources in ``src/`` of the checkout that holds
this file, one child interpreter at a time (closed loop, one client), each
item through ``vwbm.cli.main`` as the ``vwbm`` console script does.  Inputs
come from ``--seed`` (see workloads.py).  Every output is checked against
laws from the paper and against its recorded stdout digest.

Times are reference-normalised seconds (see harness.py); each item's time is
its median over passes, and passes repeat until ``--seconds`` is spent (the
first pass always completes).

``--trace 0`` reports the end-to-end metrics:

    total_s       sum over items of the item's median time
    p50_ms        median item time
    tail_ms       the highest item percentile with at least 10 items above
                  it (the slowest item when there are fewer than 11 items);
                  the percentile and item count are in the detail line
    setup_s       median time from a fresh interpreter to ``vwbm.cli``
                  imported, over SETUP_PROBES probes
    peak_rss_mb   the largest peak resident set size of any item's process

``--trace 1`` spends half the time on untraced passes and half on traced
ones (tracer.py) and reports the per-layer metrics in PER_LAYER: ``.s`` is
self time, ``.calls`` a call count, both summed over items; ``cli.s`` is
the self time of ``vwbm.cli.main`` (argument parsing and rendering);
``verify.<level>.s`` is the level's inclusive time;
``generators.numeric_not_ok`` counts the info items whose float generator
cross-check reports ok: false (an item's correctness is decided by the exact
generator law in workloads.py, so this oracle's verdict is counted apart).  Layers whose function
no longer exists read 0 and are listed under "absent" in the detail line.

The line before the last is the detail: seed, Python, nproc, reference unit,
per-item raw and normalised seconds, and failures.  The last line is
{"correct", "attempted", "failed", "metrics"}.  The detail and the spans are
also written under .perfbench-out/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import time

import harness
import workloads

SETUP_PROBES = 9

END_TO_END = {"total_s": "s", "p50_ms": "ms", "tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}

TIMED_LAYERS = (
    "exact.subfield_degree", "exact.cyclotomic_poly",
    "invariants.hecke_scalars", "invariants.trace_degrees_oracle",
    "invariants.curve_report", "invariants.verify_cover",
    "rowspan.summands", "rowspan.row_span", "rowspan.klein_orbits",
    "generators.generator_equation", "generators.verify_equation_numeric",
    "surface.build_surface", "surface.lift_sigma2", "surface.lift_sigma4",
    "surface.fixed_edges", "surface.surface_genus", "surface.lift_class_count",
    "surface.intertwine_check", "surface.cylinder_preservation_check",
)
COUNTERS = {"exact.subfield_degree.units_scanned": "count",
          "rowspan.row_span.elements": "count",
          "surface.squares": "count",
          "invariants.hecke_scalars.peak_alloc_mb": "MB"}
HIT_RATIOS = ("exact.cyclotomic_poly", "exact.chebyshev_c")

PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TIMED_LAYERS
       for kind, unit in (("s", "s"), ("calls", "count"))},
    "cli.s": "s",
    **COUNTERS,
    **{f"{name}.hit_ratio": "ratio" for name in HIT_RATIOS},
    **{f"verify.{level}.{kind}": unit for level in workloads.VERIFY_LEVELS
       for kind, unit in (("s", "s"), ("pairs", "count"))},
    "verify.checks_failed": "count",
    "cli.stdout_mismatch": "count",
    "generators.numeric_not_ok": "count",
    "harness.raw_total_s": "s",
    "harness.ref_unit_ms": "ms",
    "harness.trace_overhead_ratio": "ratio",
    "harness.failed_frac": "ratio",
}


# ---------------------------------------------------------------------------
# running items
# ---------------------------------------------------------------------------

class Execution:
    """One timed run of one item, checked."""

    def __init__(self, item, timed: harness.Timed, digests: dict[str, str],
                 profile: dict | None = None):
        self.item = item
        self.timed = timed
        self.failures = workloads.check(item, timed.run.exit_code,
                                        timed.run.stdout)
        digest = hashlib.sha256(timed.run.stdout).hexdigest()
        self.mismatch = digests.get(workloads.item_key(item)) != digest
        self.oracle_not_ok = workloads.numeric_oracle_not_ok(item,
                                                             timed.run.stdout)
        self.profile = profile


def run_passes(clock: harness.Clock, items, budget_s: float, digests,
               traced: bool) -> list[list[Execution]]:
    """Repeat passes over ``items`` until the budget is spent.

    The first pass always completes, so every item has at least one time.
    """
    done: list[list[Execution]] = [[] for _ in items]
    deadline = time.perf_counter() + budget_s
    first = True
    while True:
        for i, item in enumerate(items):
            if not first and time.perf_counter() >= deadline:
                return done
            done[i].append(_execute(clock, item, digests, traced))
        first = False


def _execute(clock: harness.Clock, item, digests, traced: bool) -> Execution:
    if not traced:
        return Execution(item, clock.timed(harness.item_args(item)), digests)
    spans_path = harness.OUT / "child-spans.json"
    spans_path.unlink(missing_ok=True)
    timed = clock.timed([str(harness.HERE / "tracer.py"), str(spans_path), *item])
    payload = (json.loads(spans_path.read_text()) if spans_path.exists()
               else {"spans": [], "counts": {}, "caches": {}, "absent": []})
    return Execution(item, timed, digests, payload)


def setup_probes(clock: harness.Clock) -> list[harness.Timed]:
    return [clock.timed(["-c", harness.SETUP]) for _ in range(SETUP_PROBES)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def item_medians(done: list[list[Execution]]) -> list[float]:
    return [statistics.median(e.timed.normalised for e in runs)
            for runs in done]


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 items above."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(done, setup: list[harness.Timed]) -> tuple[dict, dict]:
    medians = item_medians(done)
    tail_value, tail_pct = tail(medians)
    values = {
        "total_s": sum(medians),
        "p50_ms": statistics.median(medians) * 1000,
        "tail_ms": tail_value * 1000,
        "setup_s": statistics.median(t.normalised for t in setup),
        "peak_rss_mb": max(e.timed.run.rss_mb for runs in done for e in runs),
    }
    return values, {"tail_pct": tail_pct, "item_count": len(medians)}


def layer_profile(payload: dict, scale: float) -> dict[str, float]:
    """Self seconds (scaled) and call counts per span name, plus counters."""
    spans = payload["spans"]
    inner = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            inner[parent] += end - start
    prof: dict[str, float] = dict(payload["counts"])
    for (name, start, end, _parent), covered in zip(spans, inner):
        prof[f"{name}.s"] = prof.get(f"{name}.s", 0.0) + (end - start - covered) * scale
        prof[f"{name}.calls"] = prof.get(f"{name}.calls", 0) + 1
        if name == "verify.run_suite":
            prof["verify.inclusive.s"] = (prof.get("verify.inclusive.s", 0.0)
                                          + (end - start) * scale)
    return prof


def per_layer(untraced, traced) -> tuple[dict, list[str]]:
    values = dict.fromkeys(PER_LAYER, 0.0)
    absent: set[str] = set()
    hits = {name: [0, 0] for name in HIT_RATIOS}
    for runs in traced:
        profiles = [layer_profile(e.profile, harness.REF_NOMINAL_S / e.timed.unit)
                    for e in runs]
        first = runs[0].profile
        absent.update(first["absent"])
        for name, (h, m) in first["caches"].items():
            if name in hits:
                hits[name][0] += h
                hits[name][1] += m
        # Times are medians over passes; counts repeat exactly, so pass 1's.
        merged = {key: statistics.median(p.get(key, 0.0) for p in profiles)
                  for key in set().union(*profiles) if key.endswith(".s")}
        merged.update({k: v for k, v in profiles[0].items()
                       if not k.endswith(".s")})
        item = runs[0].item
        level = item[3] if item[0] == "verify" else None
        for key, value in merged.items():
            if key == "invariants.hecke_scalars.peak_alloc_mb":
                values[key] = max(values[key], value)
            elif key == "verify.inclusive.s" and level:
                values[f"verify.{level}.s"] += value
            elif key == "verify.pairs" and level:
                values[f"verify.{level}.pairs"] += value
            elif key in values:
                values[key] += value
    for name, (h, m) in hits.items():
        values[f"{name}.hit_ratio"] = h / (h + m) if h + m else 0.0
    values["cli.stdout_mismatch"] = sum(
        any(e.mismatch for e in runs) for runs in untraced + traced)
    values["generators.numeric_not_ok"] = sum(
        any(e.oracle_not_ok for e in runs) for runs in untraced)
    raw = sum(statistics.median(e.timed.run.seconds for e in runs)
              for runs in untraced)
    values["harness.raw_total_s"] = raw
    values["harness.ref_unit_ms"] = statistics.median(
        e.timed.unit for runs in untraced + traced for e in runs) * 1000
    values["harness.trace_overhead_ratio"] = (
        sum(item_medians(traced)) / sum(item_medians(untraced)))
    return values, sorted(absent)


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the detail record and the result line."""
    items = workloads.items(workload, seed)
    digests = workloads.load_digests()
    harness.spawn(["-c", harness.SETUP])   # writes bytecode caches; untimed
    clock = harness.Clock()
    setup = [] if trace else setup_probes(clock)
    untraced = run_passes(clock, items, seconds / 2 if trace else seconds,
                          digests, traced=False)
    traced = (run_passes(clock, items, seconds / 2, digests, traced=True)
              if trace else [])
    executions = [e for runs in untraced + traced for e in runs]
    attempted = len(executions)
    failed = sum(1 for e in executions if e.failures)
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "ref_nominal_s": harness.REF_NOMINAL_S,
        "ref_unit_ms_median": statistics.median(
            e.timed.unit for e in executions) * 1000,
        "failed_frac": failed / attempted,
        "numeric_not_ok": sum(any(e.oracle_not_ok for e in runs)
                              for runs in untraced),
        "setup_raw_s": [t.run.seconds for t in setup],
        "items": [_item_detail(runs) for runs in untraced],
    }
    if trace:
        values, absent = per_layer(untraced, traced)
        values["harness.failed_frac"] = failed / attempted
        detail["traced_items"] = [_item_detail(runs) for runs in traced]
        detail["absent"] = absent
        units = PER_LAYER
    else:
        values, extra = end_to_end(untraced, setup)
        detail.update(extra)
        units = END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    _write_out(workload, seed, trace, detail, traced)
    return {"detail": detail, "result": result}


def _item_detail(runs: list[Execution]) -> dict:
    return {
        "item": workloads.item_key(runs[0].item),
        "raw_s": [e.timed.run.seconds for e in runs],
        "norm_s": [e.timed.normalised for e in runs],
        "rss_mb": max(e.timed.run.rss_mb for e in runs),
        "stdout_mismatch": any(e.mismatch for e in runs),
        "numeric_not_ok": any(e.oracle_not_ok for e in runs),
        "failures": sorted({f for e in runs for f in e.failures}),
    }


def _write_out(workload, seed, trace, detail, traced) -> None:
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (harness.OUT / f"{stem}.detail.json").write_text(json.dumps(detail, indent=1))
    if traced:
        spans = [{"item": workloads.item_key(e.item), "pass": k,
                  "spans": e.profile["spans"]}
                 for runs in traced for k, e in enumerate(runs)]
        (harness.OUT / f"{stem}.spans.json").write_text(json.dumps(spans))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    harness.check_checkout()
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
