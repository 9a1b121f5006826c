r"""Command-line front end.

Subcommands: ``info`` (full report for one curve), ``table`` (batch angle /
exponent tables), ``spectrum``, ``covers``, ``generator``, ``tracefield``,
``surface``, and ``verify`` (consistency sweeps).  Formats are json (default),
csv, and md.  All numeric output is exact rational strings such as "3/5";
the only floating point ever printed is the deviation reported by the
generator numeric cross-check, in scientific notation.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error.
Data goes to stdout, diagnostics to stderr.  VWBM_THREADS caps the worker
pool used by the verification sweeps.
"""
from __future__ import annotations

import argparse
import json
import sys
from math import gcd
from typing import Iterable

from . import __version__
from .exact import poly_str
from .generators import generator_equation, verify_equation_numeric
from .invariants import (CurveReport, covers, curve_report, hecke_scalars,
                         trace_degrees, trace_degrees_oracle,
                         admissible_triangle_group, verify_cover)
from .rowspan import CurveParams, Summand, summands
from .surface import (build_surface, cylinder_preservation_check, fixed_edges,
                      lift_class_count, lift_sigma2, lift_sigma4,
                      sigma4_variants, surface_genus)
from .verify import run_suite, valid_pairs

SCHEMA = "vwbm-report/1"
FORMATS = ("json", "csv", "md")


def _ratio(p: int, q: int) -> str:
    """p/q reduced, as str(Fraction(p, q)) prints it, for p >= 0, q > 0."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def _summand_dict(s: Summand) -> dict:
    n, m, k, j = s
    return {"kappa": "0", "mu": _ratio(k, m), "nu": _ratio(j, n),
            "lyapunov": _ratio(n * m - n * k - m * j, n * m - n - m),
            "tiling": s.tiling}


def _params_dict(params: CurveParams) -> dict:
    return {"n": params.n, "m": params.m, "N": params.N,
            "gamma": params.gamma, "lcm": params.l}


def _generator_dict(params: CurveParams) -> dict:
    eq = generator_equation(params)
    check = verify_equation_numeric(eq, params, 1e-9)
    lin, q, mult = eq.rhs_factored
    return {
        "case": eq.case,
        "y_exponent": eq.y_exponent,
        "rhs": list(eq.rhs.coeffs),
        "rhs_text": poly_str(eq.rhs),
        "factored": {
            "linear_power": lin,
            "squarefree": list(q.coeffs),
            "multiplicity": mult,
            "text": eq.factored_text(),
        },
        "differential_denominator": list(eq.differential_denominator.coeffs),
        "differential_text": eq.differential_text(),
        "numeric_verification": {
            "ok": check.ok,
            "max_relative_deviation": f"{check.max_relative_deviation:.3e}",
            "sample_points": check.sample_points,
            "tolerance": f"{check.tolerance:.0e}",
        },
    }


def _report_dict(report: CurveReport) -> dict:
    v = report.primitivity
    rows = [_summand_dict(s) for s in report.summand_list]
    return {
        "schema": SCHEMA,
        "params": _params_dict(report.params),
        "genus": report.genus,
        "spectrum": [row["lyapunov"] for row in rows],
        "summands": rows,
        "arithmetic": report.arithmetic,
        "uniformizer": report.uniformizer.label(),
        "zeros": {"count": report.zeros[0], "equal_order": report.zeros[1]},
        "covers": [[c.n, c.m] for c in report.covers],
        "trace": {
            "degree_F": report.trace_degree_F,
            "degree_E": report.trace_degree_E,
            "admissible_triangle_group": report.admissible_triangle_group,
            "hecke_field_degree": report.hecke_field_degree,
        },
        "primitivity": {
            "arithmetic": report.arithmetic,
            "applicable": v.applicable,
            "algebraically_primitive": v.primitive,
            "by_criterion": v.by_criterion,
            "by_trace_degree": v.by_trace_degree,
        },
        "generator": _generator_dict(report.params),
        "notes": list(report.notes),
    }


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def _csv_out(rows: Iterable[dict], header: list[str]) -> None:
    import csv  # imported here, so only csv output pays for loading it
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([row[h] for h in header])


def _summand_rows(params: CurveParams, reverse: bool) -> list[dict]:
    ordered = summands(params)
    return [{"n": params.n, "m": params.m, **_summand_dict(s)}
            for s in (reversed(ordered) if reverse else ordered)]


def _md_table(params: CurveParams) -> str:
    lines = [f"### T({params.n},{params.m})", "",
             "| (kappa, mu, nu) | exponent |", "| --- | --- |"]
    for s in reversed(summands(params)):
        row = _summand_dict(s)
        triple, lam = "({kappa}, {mu}, {nu})".format(**row), row["lyapunov"]
        if s.tiling:
            triple, lam = f"**{triple}**", f"**{lam}**"
        lines.append(f"| {triple} | {lam} |")
    lines.append("")
    return "\n".join(lines)


def _md_report(report: CurveReport) -> str:
    d = _report_dict(report)
    lines = [f"## T({report.params.n},{report.params.m})", ""]
    lines.append(f"- genus: {d['genus']}")
    lines.append(f"- spectrum: {', '.join(d['spectrum'])}")
    lines.append(f"- arithmetic: {d['arithmetic']}")
    lines.append(f"- uniformizer: {d['uniformizer']}")
    lines.append(f"- zeros: {d['zeros']['count']} of equal order")
    cov = ", ".join(f"T({a},{b})" for a, b in d["covers"]) or "none"
    lines.append(f"- covers: {cov}")
    lines.append(f"- trace degrees: F {d['trace']['degree_F']}, "
                 f"E {d['trace']['degree_E']}")
    lines.append(f"- admissible triangle group: "
                 f"{d['trace']['admissible_triangle_group']}")
    lines.append(f"- algebraically primitive: "
                 f"{d['primitivity']['algebraically_primitive']}")
    lines.append(f"- generator: {d['generator']['factored']['text']}")
    lines.append(f"- differential: {d['generator']['differential_text']}")
    for note in d["notes"]:
        lines.append(f"- note: {note}")
    lines.append("")
    lines.append(_md_table(report.params))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    params = CurveParams(args.n, args.m)
    report = curve_report(params)
    if args.format == "json":
        _emit_json(_report_dict(report))
    elif args.format == "csv":
        _csv_out(_summand_rows(params, reverse=False),
                 ["n", "m", "kappa", "mu", "nu", "lyapunov", "tiling"])
    else:
        print(_md_report(report))
    return 0


def cmd_table(args) -> int:
    pairs = [CurveParams(n, m)
             for n, m in valid_pairs(max(args.nmax, args.mmax))
             if n <= args.nmax and m <= args.mmax]
    if args.format == "json":
        # the bytes of json.dumps(payload, indent=2), one element at a time
        opened = False
        for params in pairs:
            rows = [_summand_dict(s) for s in reversed(summands(params))]
            item = json.dumps({"params": [params.n, params.m],
                               "genus": len(rows), "rows": rows}, indent=2)
            sys.stdout.write((",\n  " if opened else "[\n  ")
                             + item.replace("\n", "\n  "))
            opened = True
        print("\n]" if opened else "[]")
    elif args.format == "csv":
        rows = (row for params in pairs
                for row in _summand_rows(params, reverse=True))
        _csv_out(rows, ["n", "m", "kappa", "mu", "nu", "lyapunov", "tiling"])
    else:
        for params in pairs:
            print(_md_table(params))
    return 0


def cmd_spectrum(args) -> int:
    params = CurveParams(args.n, args.m)
    values = [_summand_dict(s)["lyapunov"] for s in summands(params)]
    if args.format == "json":
        _emit_json({"params": _params_dict(params), "spectrum": values})
    elif args.format == "csv":
        _csv_out([{"n": params.n, "m": params.m, "lyapunov": x} for x in values],
                 ["n", "m", "lyapunov"])
    else:
        print(f"T({params.n},{params.m}) spectrum: {', '.join(values)}")
    return 0


def cmd_covers(args) -> int:
    params = CurveParams(args.n, args.m)
    listed = covers(params)
    payload = {"params": _params_dict(params),
               "covers": [[c.n, c.m] for c in listed]}
    if args.certify:
        certs = []
        for small in listed:
            cert = verify_cover(params, small)
            certs.append({
                "cover": [small.n, small.m],
                "scale": cert.scale,
                "generator_images": [list(img) for img in cert.generator_images],
                "contained": cert.holds,
            })
        payload["certificates"] = certs
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _csv_out([{"n": params.n, "m": params.m, "n_prime": c.n, "m_prime": c.m}
                  for c in listed], ["n", "m", "n_prime", "m_prime"])
    else:
        names = ", ".join(f"T({c.n},{c.m})" for c in listed) or "none"
        print(f"T({params.n},{params.m}) covers: {names}")
        if args.certify:
            for cert in payload.get("certificates", []):
                print(f"  T({cert['cover'][0]},{cert['cover'][1]}): "
                      f"scale {cert['scale']}, generator images "
                      f"{cert['generator_images']}, contained {cert['contained']}")
    return 0


def cmd_generator(args) -> int:
    params = CurveParams(args.n, args.m)
    data = _generator_dict(params)
    if args.format == "json":
        _emit_json({"params": _params_dict(params), "generator": data})
    elif args.format == "csv":
        _csv_out([{
            "n": params.n, "m": params.m, "case": data["case"],
            "y_exponent": data["y_exponent"],
            "rhs": " ".join(str(c) for c in data["rhs"]),
            "differential_denominator": " ".join(
                str(c) for c in data["differential_denominator"]),
        }], ["n", "m", "case", "y_exponent", "rhs", "differential_denominator"])
    else:
        print(f"T({params.n},{params.m}): {data['factored']['text']}")
        print(f"expanded: y^{data['y_exponent']} = {data['rhs_text']}")
        print(f"differential: {data['differential_text']}")
        print(f"numeric cross-check: max relative deviation "
              f"{data['numeric_verification']['max_relative_deviation']}")
    return 0


def cmd_tracefield(args) -> int:
    params = CurveParams(args.n, args.m)
    deg_f, deg_e = trace_degrees(params)
    ora_f, ora_e = trace_degrees_oracle(params)
    hecke = hecke_scalars(params)
    payload = {
        "params": _params_dict(params),
        "degree_F": deg_f,
        "degree_E": deg_e,
        "oracle_degree_F": ora_f,
        "oracle_degree_E": ora_e,
        "admissible_triangle_group": admissible_triangle_group(params),
        "hecke": {
            "field_degree": hecke.field_degree,
            "scalars": [[str(c) for c in s.coords] for s in hecke.scalars],
        },
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _csv_out([{
            "n": params.n, "m": params.m, "degree_F": deg_f, "degree_E": deg_e,
            "oracle_degree_F": ora_f, "oracle_degree_E": ora_e,
            "admissible_triangle_group": payload["admissible_triangle_group"],
            "hecke_field_degree": hecke.field_degree,
        }], ["n", "m", "degree_F", "degree_E", "oracle_degree_F",
             "oracle_degree_E", "admissible_triangle_group",
             "hecke_field_degree"])
    else:
        print(f"T({params.n},{params.m}) trace field degrees: "
              f"F {deg_f} (oracle {ora_f}), E {deg_e} (oracle {ora_e})")
        print(f"admissible triangle group: {payload['admissible_triangle_group']}")
        print(f"Hecke scalar field degree: {hecke.field_degree}")
    return 0


def cmd_surface(args) -> int:
    params = CurveParams(args.n, args.m)
    surface = build_surface(params)
    lift2 = lift_sigma2(surface)
    lifts4 = []
    for v in sigma4_variants(params):
        lift4 = lift_sigma4(surface, v)
        lifts4.append({
            "variant": v,
            "involution": lift4.is_involution(),
            "fixed_edges": len(fixed_edges(surface, lift4)),
            "vertical_cylinders_preserved":
                cylinder_preservation_check(surface, lift4) is None,
        })
    payload = {
        "params": _params_dict(params),
        "column_span_order": len(surface.span.elements),
        "square_count": 2 * len(surface.span.elements),
        "surface_genus": surface_genus(surface),
        "sigma2": {
            "involution": lift2.is_involution(),
            "fixed_edges": len(fixed_edges(surface, lift2)),
            "horizontal_cylinders_preserved":
                cylinder_preservation_check(surface, lift2) is None,
        },
        "sigma4_variants": lifts4,
        "lift_classes": lift_class_count(surface),
    }
    if args.format == "json":
        _emit_json(payload)
    elif args.format == "csv":
        _csv_out([{"n": params.n, "m": params.m, **payload}],
                 ["n", "m", "column_span_order", "square_count",
                  "surface_genus", "lift_classes"])
    else:
        print(f"S({params.n},{params.m}): deck group of order "
              f"{payload['column_span_order']}, {payload['square_count']} "
              f"squares, genus {payload['surface_genus']}, "
              f"{payload['lift_classes']} symmetry lift class(es)")
    return 0


def cmd_verify(args) -> int:
    try:
        results = run_suite(args.nmax, args.level)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for result in results:
        print(result.line())
        failed = failed or not result.passed
    print(("FAIL" if failed else "PASS") + f"  overall (nmax={args.nmax})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_nm(sub) -> None:
    sub.add_argument("n", type=int)
    sub.add_argument("m", type=int)


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=FORMATS, default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vwbm",
        description="Exact invariants of the Veech-Ward-Bouw-Moller "
                    "Teichmuller curves T(n, m).")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("info", help="full report for one curve")
    _add_nm(p)
    _add_format(p)
    p.set_defaults(fn=cmd_info)

    p = subs.add_parser("table", help="angle/exponent tables for a grid")
    p.add_argument("nmax", type=int)
    p.add_argument("mmax", type=int)
    _add_format(p)
    p.set_defaults(fn=cmd_table)

    p = subs.add_parser("spectrum", help="Lyapunov spectrum")
    _add_nm(p)
    _add_format(p)
    p.set_defaults(fn=cmd_spectrum)

    p = subs.add_parser("covers", help="covered curves T(n', m')")
    _add_nm(p)
    p.add_argument("--certify", action="store_true",
                   help="include row-span containment certificates")
    _add_format(p)
    p.set_defaults(fn=cmd_covers)

    p = subs.add_parser("generator", help="generating curve and one-form")
    _add_nm(p)
    _add_format(p)
    p.set_defaults(fn=cmd_generator)

    p = subs.add_parser("tracefield", help="trace-field degrees and Hecke data")
    _add_nm(p)
    _add_format(p)
    p.set_defaults(fn=cmd_tracefield)

    p = subs.add_parser("surface", help="square-tiled model of S(n, m)")
    _add_nm(p)
    _add_format(p)
    p.set_defaults(fn=cmd_surface)

    p = subs.add_parser("verify", help="run the consistency sweeps")
    p.add_argument("nmax", type=int)
    p.add_argument("--level", default="all",
                   help="all, rowspan, genus, trace-only, covers, lifts, "
                        "generators, or spectrum")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
