"""Shared pieces of the benchmark: paths, run context, operation tally,
the repeat loop, set-up timing and the environment fingerprint."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
RUN_LIMIT_S = 165  # a run must end within 180 s; children still alive then are killed


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Ctx:
    """What one run needs: its arguments, a work directory inside the
    checkout, and the environment for child interpreters."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.traced = bool(args.trace)
        self.work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
        self.t_end = 0.0
        self.kill_at = time.monotonic() + RUN_LIMIT_S

    def deadline_after_setup(self) -> None:
        self.t_end = time.monotonic() + self.seconds


class Tally:
    """Operations attempted and failed; ``correct`` turns false only when an
    output check that must always hold fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def op(self, problems: list[str], must_hold: bool = True) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.correct = self.correct and not must_hold
            self.notes.extend(problems)


def repeat(ctx: Ctx, op) -> list:
    """Call ``op`` until the run's seconds are used, starting no call that
    the median call so far says would overrun them; always at least once."""
    results, took = [], []
    while True:
        t0 = time.monotonic()
        results.append(op())
        took.append(time.monotonic() - t0)
        if time.monotonic() + statistics.median(took) > ctx.t_end:
            return results


def import_seconds(ctx: Ctx) -> float:
    """Median wall time of a fresh interpreter importing ``aoikit.cli``, after
    one unmeasured import that fills the bytecode cache."""
    cmd = [sys.executable, "-c", "import aoikit.cli"]
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        try:
            subprocess.run(cmd, env=ctx.env, cwd=ctx.work, check=True, timeout=60,
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"cannot import aoikit.cli: {exc.stderr.decode()[-300:]}")
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def fingerprint() -> dict:
    import numpy

    try:
        rmem_max = int(Path("/proc/sys/net/core/rmem_max").read_text())
    except (OSError, ValueError):
        rmem_max = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "rmem_max": rmem_max,
    }
