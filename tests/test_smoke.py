"""End-to-end checks that run the package in a fresh interpreter under -O.

Optimized mode strips bare ``assert`` statements, so these tests make sure
the package's own checks are explicit raises that survive it.
"""
import os
import re
import subprocess
import sys
from pathlib import Path

import vwbm

SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)


def run_optimized(*args):
    return run_fresh("-O", *args)


def test_every_export_resolves():
    missing = [name for name in vwbm.__all__ if not hasattr(vwbm, name)]
    assert missing == []


def test_every_public_name_has_a_caller():
    # a name that only the package root and the tests read is dead code:
    # each export must appear in another module of the package, outside the
    # line that defines it
    modules = [path.read_text().splitlines()
               for path in (SRC / "vwbm").glob("*.py")
               if path.name != "__init__.py"]
    uncalled = []
    for name in vwbm.__all__:
        if name == "__version__":
            continue
        word = re.compile(rf"\b{name}\b")
        own = re.compile(rf"\s*(def|class) {name}\b")
        if not any(word.search(line) and not own.match(line)
                   for lines in modules for line in lines):
            uncalled.append(name)
    assert uncalled == []


def test_cli_import_leaves_out_multiprocessing():
    # only a parallel verify needs the process pool; it imports it itself
    proc = run_fresh("-c", "import sys, vwbm.cli; "
                     "print('multiprocessing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_import_leaves_out_typing():
    # under -S no site hook loads typing first; the value types are
    # collections.namedtuple subclasses and the hints come from
    # collections.abc, so a command pays nothing for it
    proc = run_fresh("-S", "-c", "import sys, vwbm.cli; "
                     "print('typing' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_cli_import_loads_every_layer_and_no_dataclasses():
    # the benchmark tracer wraps layer functions only in modules already
    # loaded, so every layer is imported eagerly.  The value types are
    # tuples, the exponents are printed from ints and only csv output
    # imports csv
    layers = ["vwbm.exact", "vwbm.rowspan", "vwbm.generators",
              "vwbm.invariants", "vwbm.surface", "vwbm.verify"]
    absent = ["dataclasses", "inspect", "csv", "fractions", "decimal"]
    proc = run_fresh("-c", "import sys, vwbm.cli; "
                     f"print(*(m in sys.modules for m in {layers + absent!r}))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == (["True"] * len(layers)
                                   + ["False"] * len(absent))


def test_src_holds_no_bare_assert():
    # -O strips every assert statement, so a check written as one would
    # vanish there; the package states each check as an explicit test
    import ast
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "vwbm").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_verify_passes_under_optimized_mode():
    proc = run_optimized("-m", "vwbm.cli", "verify", "4")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


def test_verify_bound_survives_optimized_mode():
    from vwbm.verify import VERIFY_NMAX_MAX
    proc = run_optimized("-m", "vwbm.cli", "verify", str(VERIFY_NMAX_MAX + 1))
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"only up to nmax = {VERIFY_NMAX_MAX}" in proc.stderr


def test_differential_check_survives_optimized_mode():
    # the D^2 law is an explicit comparison in the generators check: with
    # D = rhs the check still reports the law under -O
    code = """
from vwbm import generators, verify
from vwbm.rowspan import CurveParams
eq = generators.generator_equation(CurveParams(2, 7))
print(eq.case)
generators.generator_equation = lambda params: eq._replace(
    differential_denominator=eq.rhs)
failure = verify._generator_pair(verify.PairContext((2, 7)))
if failure == "(2,7): one-form law D^2 = (u - 2) rhs fails":
    print("raised")
"""
    proc = run_optimized("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["m_odd", "raised"]


def test_traced_layer_functions_exist():
    # the benchmark tracer wraps these names; a rename must fail here
    import importlib
    import importlib.util
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}" for mod, names in tracer.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"vwbm.{mod}"),
                                       name, None))]
    assert tracer.LAYERS and missing == []


def test_every_cache_is_bounded():
    import importlib
    import pkgutil
    caches = []
    for info in pkgutil.iter_modules(vwbm.__path__):
        module = importlib.import_module(f"vwbm.{info.name}")
        caches += [(f"{info.name}.{name}", fn.cache_parameters()["maxsize"])
                   for name, fn in vars(module).items()
                   if hasattr(fn, "cache_parameters")]
    assert caches and [name for name, size in caches if size is None] == []
