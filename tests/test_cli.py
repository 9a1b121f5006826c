import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vwbm.cli import (COMMANDS, FORMATS, _dumps, _fast_args, _ratio,
                      _summand_dict, build_parser, main)
from vwbm.rowspan import CurveParams, summands
from vwbm.verify import valid_pairs

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_env():
    """The environment of a fresh interpreter that imports vwbm from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# info
# ---------------------------------------------------------------------------

def test_info_json_2_7(capsys):
    code, out, err = run(capsys, "info", "2", "7", "--format", "json")
    assert code == 0 and err == ""
    data = json.loads(out)
    assert data["schema"] == "vwbm-report/1"
    assert data["genus"] == 3
    assert data["spectrum"] == ["1", "3/5", "1/5"]
    assert data["summands"][0] == {
        "kappa": "0", "mu": "1/7", "nu": "1/2", "lyapunov": "1", "tiling": True}
    assert data["covers"] == []
    assert data["primitivity"]["algebraically_primitive"] is True
    assert data["uniformizer"] == "Delta(2,7,oo)"
    assert data["generator"]["y_exponent"] == 4


def test_info_rejects_invalid_parameters(capsys):
    code, out, err = run(capsys, "info", "1", "9")
    assert code == 2
    assert out == ""
    assert "n, m must exceed 1 and nm >= 6" in err


def test_info_flags_arithmetic(capsys):
    code, out, _ = run(capsys, "info", "3", "3")
    assert code == 0
    assert json.loads(out)["arithmetic"] is True


def test_info_md(capsys):
    code, out, _ = run(capsys, "info", "2", "7", "--format", "md")
    assert code == 0
    assert "## T(2,7)" in out and "**(0, 1/7, 1/2)**" in out


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_csv_round_trips(capsys):
    code, out, _ = run(capsys, "table", "2", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1  # only T(2, 3) is valid in that range
    row = rows[0]
    assert (int(row["n"]), int(row["m"])) == (2, 3)
    assert Fraction(row["mu"]) == Fraction(1, 3)
    assert Fraction(row["nu"]) == Fraction(1, 2)
    assert Fraction(row["lyapunov"]) == 1
    assert row["tiling"] == "True"


def test_table_md_matches_reference_layout(capsys):
    code, out, _ = run(capsys, "table", "2", "7", "--format", "md")
    assert code == 0
    assert "### T(2,7)" in out
    # ascending exponents with the bold tiling row last
    block = out.split("### T(2,7)")[1].split("###")[0]
    assert block.index("| (0, 3/7, 1/2) | 1/5 |") \
        < block.index("| (0, 2/7, 1/2) | 3/5 |") \
        < block.index("| **(0, 1/7, 1/2)** | **1** |")


def test_table_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "table", "4", "6", "--format", "json")
    _, second, _ = run(capsys, "table", "4", "6", "--format", "json")
    assert first == second


def test_table_json_streams_the_bytes_of_one_dump(capsys):
    # table writes one element at a time; the bytes are those of a single
    # json.dumps of the whole payload, the empty grid included
    for nmax, mmax in ((1, 1), (3, 2), (7, 9)):
        payload = []
        for n, m in valid_pairs(max(nmax, mmax)):
            if n <= nmax and m <= mmax:
                rows = [_summand_dict(s)
                        for s in reversed(summands(CurveParams(n, m)))]
                payload.append({"params": [n, m], "genus": len(rows),
                                "rows": rows})
        code, out, _ = run(capsys, "table", str(nmax), str(mmax),
                           "--format", "json")
        assert code == 0
        assert out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv", "md"])
def test_table_writes_each_pair_before_the_next(monkeypatch, fmt):
    # memory stays at one pair's rows: each pair's rows are written before
    # the next pair's summands are built
    from vwbm import cli
    out = io.StringIO()
    written = []

    def recording(params):
        written.append(len(out.getvalue()))
        return summands(params)

    monkeypatch.setattr(cli, "summands", recording)
    monkeypatch.setattr("sys.stdout", out)
    assert main(["table", "4", "5", "--format", fmt]) == 0
    assert len(written) == sum(n <= 4 for n, _ in valid_pairs(5))
    assert all(a < b for a, b in zip(written, written[1:]))


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------

def test_spectrum_command(capsys):
    code, out, _ = run(capsys, "spectrum", "4", "5")
    assert code == 0
    assert json.loads(out)["spectrum"] == [
        "1", "7/11", "6/11", "3/11", "2/11", "1/11"]


def test_covers_command_with_certificates(capsys):
    code, out, _ = run(capsys, "covers", "8", "8", "--certify")
    assert code == 0
    data = json.loads(out)
    assert data["covers"] == [[2, 4], [4, 2], [4, 4]]
    assert all(cert["contained"] for cert in data["certificates"])
    scales = {tuple(c["cover"]): c["scale"] for c in data["certificates"]}
    assert scales == {(2, 4): 8, (4, 2): 8, (4, 4): 4}


def test_generator_command(capsys):
    code, out, _ = run(capsys, "generator", "2", "5")
    assert code == 0
    data = json.loads(out)["generator"]
    assert data["rhs"] == [-2, 5, 0, -5, 0, 1]
    assert data["factored"]["text"] == "y^4 = (u - 2)(u^2 + u - 1)^2"
    assert data["numeric_verification"]["ok"] is True
    assert "e-" in data["numeric_verification"]["max_relative_deviation"]


def test_tracefield_command(capsys):
    code, out, _ = run(capsys, "tracefield", "4", "6")
    assert code == 0
    data = json.loads(out)
    assert (data["degree_F"], data["degree_E"]) == (4, 2)
    assert (data["oracle_degree_F"], data["oracle_degree_E"]) == (4, 2)
    assert data["admissible_triangle_group"] is False
    assert data["hecke"]["field_degree"] == 2


def test_info_prints_deg_e_without_the_hecke_scan(capsys, monkeypatch):
    # info prints deg E as the Hecke field degree; only tracefield and verify
    # run the Galois scan and build the Hecke coordinates
    argvs = [("info", n, m, "--format", f)
             for n, m in (("2", "7"), ("12", "8"), ("60", "61"))
             for f in FORMATS]
    expected = [run(capsys, *argv) for argv in argvs]

    def no_scan(*args):
        raise AssertionError("the user path ran the Hecke scan")

    modules = [module for name, module in sys.modules.items()
               if name == "vwbm" or name.startswith("vwbm.")]
    for module in modules:
        for name in ("hecke_scalars", "subfield_degree"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, no_scan)
    assert [run(capsys, *argv) for argv in argvs] == expected
    assert [code for code, _, _ in expected] == [0] * len(argvs)
    with pytest.raises(AssertionError):
        main(["tracefield", "12", "8"])


def test_tracefield_prints_the_scan_not_deg_e(capsys, monkeypatch):
    # a wrong deg E shows in degree_E alone: tracefield's Hecke degree is
    # the Galois scan's, the oracle that verify compares with deg E
    from vwbm import cli, invariants
    trace_degrees = invariants.trace_degrees

    def wrong_deg_e(params):
        deg_f, deg_e = trace_degrees(params)
        return deg_f, deg_e + 1

    for module in (invariants, cli):
        monkeypatch.setattr(module, "trace_degrees", wrong_deg_e)
    code, out, _ = run(capsys, "tracefield", "12", "8")
    data = json.loads(out)
    assert code == 0
    scanned = data["hecke"]["field_degree"]
    assert scanned == trace_degrees(CurveParams(12, 8))[1]
    assert scanned != data["degree_E"] == scanned + 1


def test_surface_command(capsys):
    code, out, _ = run(capsys, "surface", "2", "3")
    assert code == 0
    data = json.loads(out)
    assert data["column_span_order"] == 12
    assert data["square_count"] == 24
    assert data["surface_genus"] == 11
    assert data["lift_classes"] == 1
    assert data["sigma2"]["horizontal_cylinders_preserved"] is True


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_small_grid_passes(capsys):
    code, out, _ = run(capsys, "verify", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS  overall")


def test_verify_level_filter(capsys):
    code, out, _ = run(capsys, "verify", "8", "--level", "trace-only")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3  # two trace checks plus the overall line
    assert "trace degrees formula vs oracle" in out


def test_verify_rejects_small_nmax(capsys):
    code, _, err = run(capsys, "verify", "2")
    assert code == 2 and "nmax" in err


def test_verify_rejects_unknown_level(capsys):
    code, _, err = run(capsys, "verify", "6", "--level", "bogus")
    assert code == 2 and "unknown level" in err


def _changed_outputs(capsys, command, recorded):
    """The (pair, format) outputs whose sha256 differs from the record."""
    changed = []
    for pair, digests in recorded.items():
        for fmt, digest in zip(("json", "csv", "md"), digests):
            code, out, err = run(capsys, command, *pair.split(),
                                 "--format", fmt)
            if (code, err) != (0, "") or hashlib.sha256(
                    out.encode()).hexdigest() != digest:
                changed.append((pair, fmt))
    return changed


def test_tracefield_bytes_match_recorded_digests(capsys):
    # sha256 of every tracefield output for n, m <= 16 and (60, 61), recorded
    # before the cyclotomic layer was rebuilt: the power-basis coordinates
    # are part of the output contract
    path = Path(__file__).parent / "data" / "tracefield_sha256.json"
    recorded = json.loads(path.read_text())
    assert set(recorded) == {f"{n} {m}" for n, m in valid_pairs(16)} | {"60 61"}
    assert _changed_outputs(capsys, "tracefield", recorded) == []


def test_surface_bytes_match_recorded_digests(capsys):
    # sha256 of every surface output for n, m <= 12, recorded before the
    # lift census was rewritten as a quotient of group orders
    path = Path(__file__).parent / "data" / "surface_sha256.json"
    recorded = json.loads(path.read_text())
    assert set(recorded) == {f"{n} {m}" for n, m in valid_pairs(12)}
    assert _changed_outputs(capsys, "surface", recorded) == []


def test_generator_bytes_match_recorded_digests(capsys):
    # sha256 of every generator output for n, m <= 16 and five large
    # anchors, and of info json at the anchors, recorded before the odd-m
    # cosine factor was built from its closed form instead of a square root
    path = Path(__file__).parent / "data" / "generator_sha256.json"
    recorded = json.loads(path.read_text())
    anchors = {"34 30", "40 30", "33 34", "60 61", "61 60"}
    assert set(recorded["generator"]) == {
        f"{n} {m}" for n, m in valid_pairs(16)} | anchors
    assert set(recorded["info"]) == anchors
    assert _changed_outputs(capsys, "generator", recorded["generator"]) == []
    # one digest per info pair: json only
    assert _changed_outputs(capsys, "info", recorded["info"]) == []


def test_summand_bytes_match_recorded_digests(capsys):
    # sha256 of spectrum and info (json, csv, md) for n, m <= 12 and three
    # anchors, and of table 20 20, recorded before the summands were read
    # off their closed form instead of a scan of the deck group
    path = Path(__file__).parent / "data" / "summands_sha256.json"
    recorded = json.loads(path.read_text())
    pairs = {f"{n} {m}" for n, m in valid_pairs(12)} | {"40 30", "60 61",
                                                         "61 60"}
    assert set(recorded["spectrum"]) == set(recorded["info"]) == pairs
    assert set(recorded["table"]) == {"20 20"}
    for command in ("spectrum", "info", "table"):
        assert _changed_outputs(capsys, command, recorded[command]) == []


def test_report_commands_build_no_deck_group(capsys):
    # info, table and spectrum read the summands off their closed form;
    # surface and covers read |G| and membership in G off theirs
    from vwbm import rowspan
    rowspan._span_entries.cache_clear()
    for argv in (["info", "12", "8"], ["table", "6", "6"],
                 ["spectrum", "9", "6"], ["surface", "12", "12"],
                 ["surface", "12", "12", "--format", "csv"],
                 ["surface", "12", "12", "--format", "md"],
                 ["surface", "60", "61"], ["covers", "24", "24", "--certify"],
                 ["covers", "24", "24", "--certify", "--format", "md"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert rowspan._span_entries.cache_info().misses == 0


def test_report_commands_form_no_fraction():
    # a summand is its lattice point (n, m, k, j), and the cli prints its
    # angles and exponent from those ints: no report command loads fractions
    # or decimal, here in a fresh interpreter that has loaded neither.
    # Well-formed argv loads neither argparse nor json either; a site hook
    # may have loaded them before vwbm, so only new loads count
    code = """
import io, sys
from contextlib import redirect_stdout
before = {"argparse", "json"} & set(sys.modules)
from vwbm.cli import FORMATS, main
commands = ([["info", "12", "8", "--format", f] for f in FORMATS]
            + [["spectrum", "6", "10"]]
            + [["table", "7", "9", "--format", f] for f in FORMATS]
            + [["verify", "4", "--level", "covers"]])
codes = []
for argv in commands:
    with redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(set(codes), "fractions" in sys.modules, "decimal" in sys.modules,
      sorted({"argparse", "json"} & set(sys.modules) - before))
"""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["{0}", "False", "False", "[]"]


def test_closed_stdout_exits_141_quietly():
    # a reader that stops early, as in `vwbm table 30 30 --format csv |
    # head -1`, gets no traceback and the exit code of a C tool on SIGPIPE
    proc = subprocess.Popen(
        [sys.executable, "-m", "vwbm.cli", "table", "30", "30", "--format",
         "csv"], env=fresh_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"n,m,kappa,mu,nu,lyapunov,tiling\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=300)
    assert (proc.returncode, err) == (141, b"")


@pytest.mark.parametrize("argv", [("info", "2", "7"), ("surface", "3", "4"),
                                  ("verify", "4", "--level", "covers"),
                                  ("--version",), ("-h",), ("info", "-h")])
def test_closed_stdout_exits_141_quietly_for_small_outputs(argv):
    # the reader is gone before a small output is flushed.  Buffered, no
    # write fails while the command runs and main's own flush fails, not the
    # one at exit; unbuffered, the write fails, and for help and --version
    # it is argparse's, which the parser must not drop
    for unbuffered in (False, True):
        env = fresh_env()
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "vwbm.cli", *argv],
                                  env=env, stdout=write,
                                  stderr=subprocess.PIPE, timeout=300)
        finally:
            os.close(write)
        assert (unbuffered, proc.returncode, proc.stderr) == (
            unbuffered, 141, b"")


@pytest.mark.parametrize("argv", [("surface", "3", "4"), ("info", "2", "7"),
                                  ("verify", "4", "--level", "covers"),
                                  ("info", "2", "2")])
def test_process_exits_with_its_heap_frozen(argv):
    # atexit runs callbacks last registered first, so a probe registered
    # before main runs after main's gc.freeze: the interpreter's collections
    # at exit then skip the heap, and the bytes and exit code stay those of
    # `python -m vwbm.cli`, an exit 2 refusal among them
    probe = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0,
                              file=sys.stderr))
from vwbm.cli import main
sys.exit(main(sys.argv[1:]))
"""
    plain, probed = (
        subprocess.run([sys.executable, *head, *argv], env=fresh_env(),
                       capture_output=True, text=True, timeout=300)
        for head in (("-m", "vwbm.cli"), ("-c", probe)))
    assert (probed.returncode, probed.stdout) == (plain.returncode,
                                                  plain.stdout)
    assert probed.stderr == plain.stderr + "frozen True\n"


def test_main_leaves_the_callers_collector_alone(capsys):
    # an in-process caller keeps collecting: main registers gc.freeze for
    # the exit, once however often it runs, and freezes nothing now
    import atexit
    import gc
    before = atexit._ncallbacks()
    assert run(capsys, "surface", "3", "4")[0] == 0
    assert run(capsys, "info", "2", "7")[0] == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == (0, True)
    assert atexit._ncallbacks() - before <= 1


def test_worker_pool_prints_the_bytes_of_one_worker():
    # the pool's workers leave through multiprocessing's exit path, which
    # runs no atexit callback; the parent exits with its heap frozen
    one, two = (
        subprocess.run([sys.executable, "-m", "vwbm.cli", "verify", "6"],
                       env={**fresh_env(), "VWBM_THREADS": threads},
                       capture_output=True, text=True, timeout=300)
        for threads in ("1", "2"))
    assert (one.returncode, one.stderr) == (0, "")
    assert (two.returncode, two.stdout, two.stderr) == (0, one.stdout, "")


@pytest.mark.parametrize("argv", [("info", "689", "2"),
                                  ("generator", "689", "2", "--format", "md")])
def test_rhs_beyond_the_float_range_is_an_error_not_a_traceback(argv):
    # the numeric check of the degree-691 rhs overflows a float at u = -3:
    # a one-line error and exit 2, the code of a refused input
    proc = subprocess.run([sys.executable, "-m", "vwbm.cli", *argv],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: rhs of degree 691 overflows a float at u = -3\n")


@given(st.integers(min_value=0, max_value=10 ** 12),
       st.integers(min_value=1, max_value=10 ** 12))
@example(0, 1)
@example(0, 35)
@example(12, 4)
@example(7, 1)
@example(35, 35)
def test_ratio_prints_as_a_fraction(p, q):
    assert _ratio(p, q) == str(Fraction(p, q))


def test_user_commands_close_no_group(capsys, monkeypatch):
    # G and the cyclic subgroups of the lifts are read off closed forms;
    # span_closure is left to the oracles of verify
    from vwbm import rowspan, surface
    commands = (("surface", "12", "12"), ("surface", "4", "6", "--format", "md"),
                ("covers", "24", "24", "--certify"), ("info", "12", "8"))
    expected = [run(capsys, *argv) for argv in commands]

    def no_closure(gens, modulus):
        raise AssertionError("a user command closed a group")

    monkeypatch.setattr(rowspan, "span_closure", no_closure)
    monkeypatch.setattr(surface, "span_closure", no_closure, raising=False)
    rowspan._span_entries.cache_clear()
    assert [run(capsys, *argv) for argv in commands] == expected
    assert [code for code, _, _ in expected] == [0] * len(commands)


def test_surface_command_and_checks_build_no_squares(capsys, monkeypatch):
    # the checks and the surface command read labels; the squares are
    # listed only when the property is read
    from vwbm import surface
    from vwbm.rowspan import _span_entries
    from vwbm.verify import run_suite
    assert surface.CombSurface._fields == ("params", "columns")
    for n, m in ((2, 3), (4, 6), (5, 7)):
        listed = surface.build_surface(CurveParams(n, m)).squares
        assert listed == tuple(
            surface.Square(label, color) for label in _span_entries(n, m)
            for color in (surface.WHITE, surface.BLACK))
    commands = (("surface", "12", "12"), ("surface", "4", "6", "--format", "md"))
    expected = [run(capsys, *argv) for argv in commands]

    def no_squares(self):
        raise AssertionError("the squares were built")

    monkeypatch.setattr(surface.CombSurface, "squares", property(no_squares))
    monkeypatch.setenv("VWBM_THREADS", "1")
    assert all(r.passed for r in run_suite(10, "genus"))
    assert all(r.passed for r in run_suite(8, "lifts"))
    assert [run(capsys, *argv) for argv in commands] == expected
    assert [code for code, _, _ in expected] == [0] * len(commands)


def test_covers_and_table_bytes_match_recorded_digests(capsys):
    # sha256 of covers (json, csv, md, with and without --certify) for
    # n, m <= 16 and two anchors, and of table at three shapes, the empty
    # grid 2 2 among them, recorded before the command table and the one
    # emitter replaced the per-command format branches
    path = Path(__file__).parent / "data" / "cli_sha256.json"
    recorded = json.loads(path.read_text())
    pairs = {f"{n} {m}" for n, m in valid_pairs(16)} | {"2 24", "24 24"}
    assert set(recorded["covers"]) == pairs | {f"{p} --certify" for p in pairs}
    assert set(recorded["table"]) == {"9 4", "4 9", "2 2"}
    for command in ("covers", "table"):
        assert _changed_outputs(capsys, command, recorded[command]) == []


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _help(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    return capsys.readouterr().out


def test_subcommand_usage_lines(capsys, monkeypatch):
    # the first line of each subcommand's --help, the same on Python
    # 3.10-3.13; the rest of the help text wraps differently across them
    monkeypatch.setenv("COLUMNS", "80")
    fmt = "[--format {json,csv,md}]"
    expected = {name: f"usage: vwbm {name} [-h] {fmt} n m" for name in (
        "info", "spectrum", "generator", "tracefield", "surface")}
    expected["table"] = f"usage: vwbm table [-h] {fmt} nmax mmax"
    expected["covers"] = f"usage: vwbm covers [-h] [--certify] {fmt} n m"
    expected["verify"] = "usage: vwbm verify [-h] [--level LEVEL] nmax"
    for name, usage in expected.items():
        assert _help(capsys, name, "--help").splitlines()[0] == usage


def test_top_level_help_lists_the_subcommands_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    # the subcommand lines are the ones indented by exactly four spaces
    listed = [line.split(None, 1) for line in
              _help(capsys, "--help").splitlines()
              if line.startswith("    ") and line[4] != " "]
    assert listed == [
        ["info", "full report for one curve"],
        ["table", "angle/exponent tables for a grid"],
        ["spectrum", "Lyapunov spectrum"],
        ["covers", "covered curves T(n', m')"],
        ["generator", "generating curve and one-form"],
        ["tracefield", "trace-field degrees and Hecke data"],
        ["surface", "square-tiled model of S(n, m)"],
        ["verify", "run the consistency sweeps"],
    ]
    assert _help(capsys, "--version") == "0.1.0\n"


ARGV_TOKENS = ["-h", "--", "--form", "--format", "--format=", "--format=md",
               *FORMATS, "--level", "--level=", "--level=x", "--certify",
               "--certify=1", "3", "03", "-3", "+3", "\u0663", "x", "9" * 5000]
NAMES = [row[0] for row in COMMANDS]


@settings(max_examples=1000)
@given(st.sampled_from(NAMES) | st.sampled_from(NAMES + ARGV_TOKENS),
       st.lists(st.sampled_from(["3", "03"])
                | st.sampled_from(NAMES + ARGV_TOKENS), max_size=5))
@example("info", ["3", "--format", "md", "03"])
@example("covers", ["3", "4", "--certify", "--certify", "--format=csv"])
@example("covers", ["3", "4", "--certify=1"])
@example("verify", ["--level", "x", "3", "--level=genus"])
@example("verify", ["3", "--level"])
@example("info", ["3", "4", "--level", "x"])
@example("info", ["3", "4", "--format", "x"])
@example("table", ["3", "9" * 5000])
def test_fast_args_agrees_with_argparse(first, rest):
    # the reader answers only argv that argparse parses, and then as it does;
    # about half the tokens are digits, so that much of argv is well formed
    argv = [first, *rest]
    fast = _fast_args(argv)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            parsed = vars(build_parser().parse_args(argv))
    except SystemExit:
        assert fast is None
    else:
        assert fast is None or vars(fast) == parsed


JSON_TEXT = st.text(st.characters() | st.sampled_from('"\\\n\x00\x7f\xe9'))


@given(st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_TEXT,
    lambda inner: (st.lists(inner) | st.lists(inner).map(tuple)
                   | st.dictionaries(JSON_TEXT, inner)), max_leaves=20))
@example({"a": [], "b": {}, "c": [1, [True, None]], "d\"": "\u2603\\"})
def test_dumps_matches_json(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_malformed_argv_prints_argparse_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["info", "x", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage: vwbm info [-h] [--format {json,csv,md}] n m\n"
        "vwbm info: error: argument n: invalid int value: 'x'\n")


def test_info_json_and_csv_build_no_md_table(capsys, monkeypatch):
    # each format builds only what it prints: json and csv no md table,
    # csv not even the report dict
    from vwbm import cli
    expected = [run(capsys, "info", "12", "8", "--format", f)
                for f in ("json", "csv")]

    def unread(*args):
        raise AssertionError("built for a format that does not print it")

    monkeypatch.setattr(cli, "_md_table", unread)
    assert run(capsys, "info", "12", "8", "--format", "json") == expected[0]
    monkeypatch.setattr(cli, "_report_dict", unread)
    assert run(capsys, "info", "12", "8", "--format", "csv") == expected[1]
    with pytest.raises(AssertionError):
        main(["info", "12", "8", "--format", "md"])
