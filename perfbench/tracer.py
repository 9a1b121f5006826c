"""Run one vwbm command with spans recorded at its layer boundaries.

    python3 perfbench/tracer.py SPANS.json ARGS...

Each function named in LAYERS is wrapped in every ``vwbm`` module namespace
that binds it, so internal calls such as verify -> summands and
lift_class_count -> intertwine_check are captured.  A span is
[name, start, end, parent index]; spans and counters are kept in memory and
written to SPANS.json when the command returns.  The command's stdout and
exit code are its own.  A function that no longer exists is listed under
"absent" instead of failing the run.
"""
from __future__ import annotations

import json
import resource
import sys
import time

LAYERS = {
    "exact": ("subfield_degree", "units_mod", "cyclotomic_poly"),
    "invariants": ("curve_report", "hecke_scalars", "trace_degrees_oracle",
                   "verify_cover"),
    "rowspan": ("summands", "row_span", "klein_orbits"),
    "generators": ("generator_equation", "verify_equation_numeric"),
    "surface": ("build_surface", "lift_sigma2", "lift_sigma4", "fixed_edges",
                "surface_genus", "lift_class_count", "intertwine_check",
                "cylinder_preservation_check"),
    "verify": ("run_suite",),
}
# Counted but given no span, so their time stays in the caller's self time.
UNTIMED = ("exact.units_mod",)
CACHED = (("exact", "cyclotomic_poly"), ("exact", "chebyshev_c"))
ROOT_SPAN = "cli"


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.counts: dict[str, float] = {}
        self.absent: list[str] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        hecke = name == "invariants.hecke_scalars"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(name, result, 0.0)
            return result

        def traced(*args, **kwargs):
            rss_before = _peak_rss_mb() if hecke else 0.0
            span = [name, clock(), 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            self._count(name, result, rss_before)
            return result

        wrapper = counted if name in UNTIMED else traced
        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name: str, result, rss_before: float) -> None:
        try:
            self._count_result(name, result, rss_before)
        except (AttributeError, TypeError, KeyError):
            if f"{name}.result" not in self.absent:
                self.absent.append(f"{name}.result")

    def _count_result(self, name: str, result, rss_before: float) -> None:
        if name == "exact.units_mod":
            self.add("exact.subfield_degree.units_scanned", len(result))
        elif name == "rowspan.row_span":
            self.add("rowspan.row_span.elements", len(result))
        elif name == "surface.build_surface":
            self.add("surface.squares", len(result.squares))
        elif name == "invariants.hecke_scalars":
            grew = _peak_rss_mb() - rss_before
            self.counts["invariants.hecke_scalars.peak_alloc_mb"] = max(
                grew, self.counts.get("invariants.hecke_scalars.peak_alloc_mb", 0))
        elif name == "verify.run_suite":
            for check in result:
                self.add("verify.pairs", check.stats.get("pairs", 0))
                self.add("verify.checks_failed", 0 if check.passed else 1)

    def install(self) -> None:
        """Wrap every LAYERS function wherever a vwbm module binds it."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "vwbm" or key.startswith("vwbm."))]
        for mod_name, names in LAYERS.items():
            home = sys.modules.get(f"vwbm.{mod_name}")
            for fname in names:
                name = f"{mod_name}.{fname}"
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)

    def caches(self) -> dict[str, list[int]]:
        out = {}
        for mod_name, fname in CACHED:
            name = f"{mod_name}.{fname}"
            fn = getattr(sys.modules.get(f"vwbm.{mod_name}"), fname, None)
            # A wrapped layer function keeps the cached original underneath.
            info = (getattr(fn, "cache_info", None)
                    or getattr(getattr(fn, "__wrapped__", None), "cache_info",
                               None))
            if info is None:
                self.absent.append(f"{name}.hit_ratio")
                continue
            stats = info()
            out[name] = [stats.hits, stats.misses]
        return out


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    import vwbm.cli
    tracer = Tracer()
    tracer.install()
    main_fn = tracer.wrap(ROOT_SPAN, vwbm.cli.main)
    try:
        code = main_fn(argv)
    finally:
        sys.stdout.flush()
        payload = {"spans": tracer.spans, "counts": tracer.counts,
                   "caches": tracer.caches(), "absent": tracer.absent}
        with open(out_path, "w") as fh:
            json.dump(payload, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
