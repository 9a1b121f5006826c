r"""Command-line front end.

Subcommands: ``info`` (full report for one curve), ``table`` (batch angle /
exponent tables), ``spectrum``, ``covers``, ``generator``, ``tracefield``,
``surface``, and ``verify`` (consistency sweeps), one row each of
``COMMANDS``.  Formats are json (default), csv, and md; every report command
hands its json payload, csv rows and md lines to the one writer ``_emit``.
All numeric output is exact rational strings such as "3/5";
the only floating point ever printed is the deviation reported by the
generator numeric cross-check, in scientific notation.  A well-formed command
imports neither argparse nor json: ``_fast_args`` reads its argv from
``COMMANDS``, argparse parses only help, ``--version`` and malformed argv,
and ``_dumps`` writes json with the bytes of ``json.dumps``.

Exit codes: 0 success, 1 verification failure, 2 usage or validation error,
141 when the reader closes stdout, whatever the size or buffering of the
output: ``main`` meets the failed write, help and ``--version`` included.
Data goes to stdout, diagnostics to stderr.  VWBM_THREADS caps the worker
pool used by the verification sweeps.
"""
from __future__ import annotations

import atexit
import gc
import os
import sys
from math import gcd
from collections.abc import Iterable
from types import SimpleNamespace

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
from .verify import LEVELS, run_suite, valid_pairs

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
    check = verify_equation_numeric(eq, params)
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
            # the Hecke scalars generate E; tracefield and verify scan them
            "hecke_field_degree": report.trace_degree_E,
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


def _dumps(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` of str-keyed dicts, lists, tuples, str,
    int, bool and None, with ``pad`` before each line after the first."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and not (
                '"' in value or "\\" in value):
            return f'"{value}"'
        import json  # escaping stays json's own
        return json.dumps(value)
    if value is None or isinstance(value, bool):
        return {None: "null", True: "true", False: "false"}[value]
    if isinstance(value, int):
        return int.__repr__(value)
    inner, ends = pad + "  ", "{}" if isinstance(value, dict) else "[]"
    items = ([f"{_dumps(k)}: {_dumps(v, inner)}" for k, v in value.items()]
             if isinstance(value, dict) else [_dumps(v, inner) for v in value])
    return (f"{ends[0]}\n{inner}" + f",\n{inner}".join(items)
            + f"\n{pad}{ends[1]}") if items else ends


def _emit(args, payload, header, rows, md) -> int:
    """Print ``args.format``, calling only its builder: ``payload()`` for json
    (a dict, or an iterator streamed as a list with the bytes of one
    ``json.dumps``), ``rows()`` for csv under ``header``, ``md()`` for md."""
    if args.format == "csv":
        import csv  # imported here, so only csv output pays for loading it
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows())
    elif args.format == "md":
        for text in md():
            print(text)
    elif isinstance(value := payload(), dict):
        print(_dumps(value))
    else:
        opened = False
        for item in value:
            sys.stdout.write((",\n  " if opened else "[\n  ")
                             + _dumps(item, "  "))
            opened = True
        print("\n]" if opened else "[]")
    return 0


# csv columns: n, m, then the keys of _summand_dict in its order
SUMMAND_HEADER = ("n", "m", "kappa", "mu", "nu", "lyapunov", "tiling")


def _md_table(n: int, m: int, rows: Iterable[dict]) -> str:
    lines = [f"### T({n},{m})", "",
             "| (kappa, mu, nu) | exponent |", "| --- | --- |"]
    for row in rows:
        triple, lam = "({kappa}, {mu}, {nu})".format(**row), row["lyapunov"]
        if row["tiling"]:
            triple, lam = f"**{triple}**", f"**{lam}**"
        lines.append(f"| {triple} | {lam} |")
    lines.append("")
    return "\n".join(lines)


def _md_report(d: dict) -> list[str]:
    n, m = d["params"]["n"], d["params"]["m"]
    lines = [f"## T({n},{m})", ""]
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
    lines.append(_md_table(n, m, reversed(d["summands"])))
    return lines


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    report = curve_report(CurveParams(args.n, args.m))
    return _emit(args, lambda: _report_dict(report), SUMMAND_HEADER,
                 lambda: ((args.n, args.m, *_summand_dict(s).values())
                          for s in report.summand_list),
                 lambda: _md_report(_report_dict(report)))


def cmd_table(args) -> int:
    def payload():
        # one pair at a time, written before the next pair's rows are built
        for n, m in valid_pairs(args.nmax, args.mmax):
            rows = [_summand_dict(s)
                    for s in reversed(summands(CurveParams(n, m)))]
            yield {"params": [n, m], "genus": len(rows), "rows": rows}

    return _emit(args, payload, SUMMAND_HEADER,
                 lambda: ((*t["params"], *row.values()) for t in payload()
                          for row in t["rows"]),
                 lambda: (_md_table(*t["params"], t["rows"]) for t in payload()))


def cmd_spectrum(args) -> int:
    params = CurveParams(args.n, args.m)
    values = [_summand_dict(s)["lyapunov"] for s in summands(params)]
    return _emit(
        args, lambda: {"params": _params_dict(params), "spectrum": values},
        ("n", "m", "lyapunov"),
        lambda: ((params.n, params.m, x) for x in values),
        lambda: [f"T({params.n},{params.m}) spectrum: {', '.join(values)}"])


def cmd_covers(args) -> int:
    params = CurveParams(args.n, args.m)
    listed = covers(params)
    payload = {"params": _params_dict(params),
               "covers": [[c.n, c.m] for c in listed]}
    if args.certify and args.format != "csv":  # csv prints no certificate
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
    names = ", ".join(f"T({c.n},{c.m})" for c in listed) or "none"
    return _emit(
        args, lambda: payload, ("n", "m", "n_prime", "m_prime"),
        lambda: ((params.n, params.m, c.n, c.m) for c in listed),
        lambda: [f"T({params.n},{params.m}) covers: {names}",
                 *(f"  T({cert['cover'][0]},{cert['cover'][1]}): "
                   f"scale {cert['scale']}, generator images "
                   f"{cert['generator_images']}, contained {cert['contained']}"
                   for cert in payload.get("certificates", []))])


def cmd_generator(args) -> int:
    params = CurveParams(args.n, args.m)
    data = _generator_dict(params)
    return _emit(
        args, lambda: {"params": _params_dict(params), "generator": data},
        ("n", "m", "case", "y_exponent", "rhs", "differential_denominator"),
        lambda: [(params.n, params.m, data["case"], data["y_exponent"],
                  " ".join(str(c) for c in data["rhs"]),
                  " ".join(str(c) for c in data["differential_denominator"]))],
        lambda: [f"T({params.n},{params.m}): {data['factored']['text']}",
                 f"expanded: y^{data['y_exponent']} = {data['rhs_text']}",
                 f"differential: {data['differential_text']}",
                 f"numeric cross-check: max relative deviation "
                 f"{data['numeric_verification']['max_relative_deviation']}"])


def cmd_tracefield(args) -> int:
    params = CurveParams(args.n, args.m)
    deg_f, deg_e = trace_degrees(params)
    ora_f, ora_e = trace_degrees_oracle(params)
    hecke = hecke_scalars(params)
    admissible = admissible_triangle_group(params)
    payload = {
        "params": _params_dict(params),
        "degree_F": deg_f,
        "degree_E": deg_e,
        "oracle_degree_F": ora_f,
        "oracle_degree_E": ora_e,
        "admissible_triangle_group": admissible,
        "hecke": {
            "field_degree": hecke.field_degree,
            "scalars": [[str(c) for c in s] for s in hecke.scalars],
        },
    }
    return _emit(
        args, lambda: payload,
        ("n", "m", "degree_F", "degree_E", "oracle_degree_F",
         "oracle_degree_E", "admissible_triangle_group", "hecke_field_degree"),
        lambda: [(params.n, params.m, deg_f, deg_e, ora_f, ora_e, admissible,
                  hecke.field_degree)],
        lambda: [f"T({params.n},{params.m}) trace field degrees: "
                 f"F {deg_f} (oracle {ora_f}), E {deg_e} (oracle {ora_e})",
                 f"admissible triangle group: {admissible}",
                 f"Hecke scalar field degree: {hecke.field_degree}"])


def cmd_surface(args) -> int:
    params = CurveParams(args.n, args.m)
    surface = build_surface(params)
    order = surface.order
    genus, classes = surface_genus(surface), lift_class_count(surface)

    def lift_fields(lift) -> dict:
        cylinders = "horizontal" if lift.kind == "sigma2" else "vertical"
        return {"involution": lift.is_involution(),
                "fixed_edges": fixed_edges(surface, lift),
                f"{cylinders}_cylinders_preserved":
                    cylinder_preservation_check(surface, lift) is None}

    def payload():  # the lift fields, which only json prints
        return {
            "params": _params_dict(params),
            "column_span_order": order,
            "square_count": 2 * order,
            "surface_genus": genus,
            "sigma2": lift_fields(lift_sigma2(surface)),
            "sigma4_variants": [
                {"variant": v, **lift_fields(lift_sigma4(surface, v))}
                for v in sigma4_variants(params)],
            "lift_classes": classes,
        }

    return _emit(
        args, payload,
        ("n", "m", "column_span_order", "square_count", "surface_genus",
         "lift_classes"),
        lambda: [(params.n, params.m, order, 2 * order, genus, classes)],
        lambda: [f"S({params.n},{params.m}): deck group of order {order}, "
                 f"{2 * order} squares, genus {genus}, "
                 f"{classes} symmetry lift class(es)"])


def cmd_verify(args) -> int:
    failed = False
    for result in run_suite(args.nmax, args.level):
        print(result.line())
        failed = failed or not result.passed
    print(("FAIL" if failed else "PASS") + f"  overall (nmax={args.nmax})")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

# (name, help, integers, options, handler), in the order --help lists them
NM = ("n", "m")
REPORT = ("--format",)
COMMANDS = (
    ("info", "full report for one curve", NM, REPORT, cmd_info),
    ("table", "angle/exponent tables for a grid", ("nmax", "mmax"), REPORT,
     cmd_table),
    ("spectrum", "Lyapunov spectrum", NM, REPORT, cmd_spectrum),
    ("covers", "covered curves T(n', m')", NM, ("--certify", "--format"),
     cmd_covers),
    ("generator", "generating curve and one-form", NM, REPORT, cmd_generator),
    ("tracefield", "trace-field degrees and Hecke data", NM, REPORT,
     cmd_tracefield),
    ("surface", "square-tiled model of S(n, m)", NM, REPORT, cmd_surface),
    ("verify", "run the consistency sweeps", ("nmax",), ("--level",),
     cmd_verify),
)
# add_argument keywords of each option; _fast_args reads the defaults too
OPTIONS = {
    "--format": {"choices": FORMATS, "default": "json"},
    "--certify": {"action": "store_true", "default": False,
                  "help": "include row-span containment certificates"},
    "--level": {"default": "all",
                "help": f"all or one of {', '.join(LEVELS)}; "
                        "a trailing -only is accepted"},
}


def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):  # closed stdout: exit 141 there too
        def _print_message(self, message, file=None):
            if file is not sys.stdout:
                return super()._print_message(message, file)
            file.write(message)  # argparse would drop a BrokenPipeError

    parser = Parser(
        prog="vwbm",
        description="Exact invariants of the Veech-Ward-Bouw-Moller "
                    "Teichmuller curves T(n, m).")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, text, ints, options, fn in COMMANDS:
        p = subs.add_parser(name, help=text)
        for arg in ints:
            p.add_argument(arg, type=int)
        for option in options:
            p.add_argument(option, **OPTIONS[option])
        p.set_defaults(fn=fn)
    return parser


def _fast_args(argv: list[str]):
    """``build_parser().parse_args(argv)`` for argv with exactly one parse;
    None for all else: help, --version, abbreviations and every error."""
    row = next((row for row in COMMANDS if argv and row[0] == argv[0]), None)
    if row is None:
        return None
    name, _, names, options, fn = row
    args = SimpleNamespace(command=name, fn=fn, **{
        option[2:]: OPTIONS[option]["default"] for option in options})
    ints, tokens = [], iter(argv[1:])
    for token in tokens:
        option, eq, value = token.partition("=")
        if token.isascii() and token.isdigit():
            try:  # past sys.get_int_max_str_digits(), argparse's error
                ints.append(int(token))
            except ValueError:
                return None
        elif token == "--certify" and token in options:
            args.certify = True
        elif option in options and option != "--certify":
            value = value if eq else next(tokens, "")
            if (not value or value.startswith("-")
                    or option == "--format" and value not in FORMATS):
                return None
            setattr(args, option[2:], value)
        else:
            return None
    if len(ints) != len(names):
        return None
    args.__dict__.update(zip(names, ints))
    return args


_freeze_at_exit = None


def main(argv=None) -> int:
    # the process exits without tracing its heap: atexit callbacks run
    # before the interpreter's finalization collections, which skip frozen
    # objects; refcounting still frees them, and an in-process caller keeps
    # its collector until its own exit.  Registered once per process, since
    # atexit.unregister leaves an empty slot behind
    global _freeze_at_exit
    if _freeze_at_exit is None:
        _freeze_at_exit = atexit.register(gc.freeze)
    argv = sys.argv[1:] if argv is None else argv
    try:
        try:
            args = _fast_args(argv) or build_parser().parse_args(argv)
            return args.fn(args)
        finally:  # a small output, help and --version included, fails here
            sys.stdout.flush()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout: flush what is left
        # to /dev/null, and exit 128 + SIGPIPE as a C tool on a closed pipe
        with open(os.devnull, "wb") as null:
            os.dup2(null.fileno(), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    raise SystemExit(main())
