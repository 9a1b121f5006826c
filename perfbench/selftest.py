"""Fast self-test of the benchmark itself (a few seconds):

    python3 perfbench/selftest.py

- every metric named in BENCHMARK.json is produced, with its unit, by a
  plain and by a traced run;
- the traced run finds every layer function, and each layer, counter and
  verify level the small items exercise reads above 0;
- a corrupted item output raises the failure fraction;
- on (40, 30) the exact generator law holds while the float cross-check
  reports ok: false, and one changed rhs coefficient breaks the law.

It runs five small items in place of a workload's draw.
"""
from __future__ import annotations

import json
import math

import harness
import run
import workloads

TINY = [("info", "2", "3"), ("surface", "3", "4"),
        ("verify", "4", "--level", "covers"),
        ("verify", "4", "--level", "trace"),
        ("verify", "4", "--level", "rowspan")]
# Counters the TINY items drive above 0.  hecke_scalars.peak_alloc_mb is
# not among them: on pairs this small the peak RSS does not grow.
TINY_COUNTERS = ("exact.subfield_degree.units_scanned",
                 "rowspan.row_span.elements", "surface.squares",
                 *(f"{name}.hit_ratio" for name in run.HIT_RATIOS))


def _run(trace: bool) -> dict:
    return run.run("info", 0, 0.01, trace)


def check_metrics(spec: dict) -> dict:
    """Check both runs' metrics; return the traced run's output."""
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = _run(trace)
        result = out["result"]
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, f"{key}: {sorted(set(got) ^ set(want))} differ"
        for name, m in result["metrics"].items():
            assert isinstance(m["value"], (int, float)) and math.isfinite(
                m["value"]), f"{name} = {m['value']!r}"
        assert result["attempted"] >= len(TINY), result
        assert result["failed"] == 0 and result["correct"], result
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    return out


def check_layers_measured(out: dict) -> None:
    assert not out["detail"]["absent"], out["detail"]["absent"]
    values = {name: m["value"] for name, m in out["result"]["metrics"].items()}
    levels = {item[3] for item in TINY if item[0] == "verify"}
    measured = [f"{name}.calls" for name in run.TIMED_LAYERS]
    measured += ["cli.s", *TINY_COUNTERS]
    measured += [f"verify.{level}.{kind}" for level in levels
                 for kind in ("s", "pairs")]
    zero = [name for name in measured if not values[name] > 0]
    assert not zero, f"read 0: {zero}"


def check_corruption_counts() -> None:
    clean = _run(False)["detail"]["failed_frac"]
    real_spawn = harness.spawn

    def corrupt(args):
        child = real_spawn(args)
        child.stdout = child.stdout.replace(b'"genus": ', b'"genus": 1', 1)
        return child

    harness.spawn = corrupt
    try:
        out = _run(False)
    finally:
        harness.spawn = real_spawn
    assert out["detail"]["failed_frac"] > clean, (clean, out["detail"])
    assert not out["result"]["correct"] and out["result"]["failed"] > 0


def check_generator_law() -> None:
    item = ("info", "40", "30")
    child = harness.spawn(harness.item_args(item))
    assert workloads.check(item, child.exit_code, child.stdout) == []
    assert workloads.numeric_oracle_not_ok(item, child.stdout)
    report = json.loads(child.stdout)
    report["generator"]["rhs"][3] += 1
    assert workloads.check(item, 0, json.dumps(report).encode())


def main() -> int:
    harness.check_checkout()
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    workloads.items = lambda workload, seed: list(TINY)
    check_layers_measured(check_metrics(spec))
    check_corruption_counts()
    check_generator_law()
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
