"""Child processes, the pinned environment and the reference clock.

Every timed item runs in a fresh interpreter, so each pays the start-up and
cold-cache cost a CLI user pays.  Raw wall time on a shared machine drifts
by tens of percent between phases of a few seconds, so each child is timed
between two runs of the reference routine (reference.py, itself a fresh
interpreter) and reported in reference-normalised seconds:

    normalised = raw / mean(reference before, reference after) * REF_NOMINAL_S

Consecutive items share the reference run between them.
"""
from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"

REF_NOMINAL_S = 0.075   # seconds one reference run stands for
CHILD_TIMEOUT_S = 60    # a child still running after this is killed
HASH_SEED = "0"

# Mirrors the ``vwbm`` console script: import the entry point, call it.
UNTRACED = "import sys; from vwbm.cli import main; sys.exit(main())"
SETUP = "import vwbm.cli"


def check_checkout() -> None:
    """Refuse to run where the program's sources are missing."""
    if not (SRC / "vwbm" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'vwbm' / 'cli.py'} not found; run "
                         "from a checkout that holds the vwbm sources")


def child_env() -> dict[str, str]:
    """The environment of every child, whatever the caller's says."""
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(SRC),
        "PYTHONHASHSEED": HASH_SEED,
        "VWBM_THREADS": "1",
        "LC_ALL": "C.UTF-8",
        "PYTHONIOENCODING": "utf-8",
    }


@dataclass
class ChildRun:
    seconds: float      # raw wall time, spawn to reap
    exit_code: int
    stdout: bytes
    stderr: bytes
    rss_mb: float       # the child's peak resident set size


def spawn(args: list[str]) -> ChildRun:
    """Run ``python args...`` to completion and report its time and memory."""
    OUT.mkdir(exist_ok=True)
    err_path = OUT / "child-stderr.txt"
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            # wait4 reaps the child and returns its own resource usage.
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            proc.stdout.close()
        seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(seconds, proc.returncode, out, err_path.read_bytes(),
                    usage.ru_maxrss / 1024)


@dataclass
class Timed:
    run: ChildRun
    unit: float         # mean of the two bracketing reference times

    @property
    def normalised(self) -> float:
        return self.run.seconds / self.unit * REF_NOMINAL_S


class Clock:
    """Times children between reference runs."""

    def __init__(self):
        self.last = self.reference()

    def reference(self) -> float:
        run = spawn([str(HERE / "reference.py")])
        if run.exit_code != 0:
            raise RuntimeError(f"reference run failed: {run.stderr!r}")
        return run.seconds

    def timed(self, args: list[str]) -> Timed:
        before = self.last
        run = spawn(args)
        self.last = self.reference()
        return Timed(run, (before + self.last) / 2)


def item_args(item: tuple[str, ...]) -> list[str]:
    return ["-c", UNTRACED, *item]
