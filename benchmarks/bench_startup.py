"""Time what every drew process pays besides its work: start-up, BLAS
threads, bytecode, and whether two CPUs run at once.

Run:  python3 benchmarks/bench_startup.py [--rounds 12] [--src DIR]

Each row runs one command as child processes under two settings, A and B.
The rows are interleaved: every round runs each row's A and B once, A
first in even rounds and B first in odd ones.  Each child's wall time runs
from spawn to reaping, and its CPU time (user + system) comes from
``os.wait4``.  The script prints medians [min-max] and the rounds in which
B's wall time was the lower.

- OpenBLAS threads: ``import numpy``, ``import drew.cli``, ``drew build``
  of perfbench's store (100k x 64, seed 1) and a routed ``drew query`` of
  10k queries, at ``OPENBLAS_NUM_THREADS=1`` (A) against the CPU count
  (B), which is what perfbench sets for its children.
- Bytecode: ``import drew.cli`` at one BLAS thread, compiling drew's
  modules from source with ``PYTHONDONTWRITEBYTECODE=1`` (A), against
  reading them from a warm bytecode cache under a temporary
  ``PYTHONPYCACHEPREFIX`` (B).
- Parallelism: one CPU-bound Python child (A) against two started together
  (B, wall time until both are reaped).  On two free CPUs, B takes as long
  as A; where the CPUs are shared or throttled, up to twice as long.

drew sets no BLAS variable itself: a process's thread count is its
caller's choice, and perfbench caps it for the children it times.
"""
from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_query_io import GATE, _write_inputs

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
SPIN = "for _ in range(6_000_000): pass"  # ~0.2 s of one CPU


def _start(cmd, env):
    return time.perf_counter(), subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)


def _reap(proc) -> float:
    """CPU seconds of a finished child; fails the run if it failed."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise SystemExit(f"{' '.join(proc.args)} exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime


def _run(cmd, env, copies: int = 1) -> tuple[float, float]:
    """(wall, CPU) seconds of ``copies`` children of ``cmd`` started together."""
    started = [_start(cmd, env) for _ in range(copies)]
    cpu = sum(_reap(proc) for _, proc in started)
    return time.perf_counter() - started[0][0], cpu


def _span(values) -> str:
    return f"{statistics.median(values):.3f} [{min(values):.3f}-{max(values):.3f}]"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                    help="directory holding the drew package to time")
    args = ap.parse_args()

    base = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    base["PYTHONPATH"] = args.src

    def threads(count: int) -> dict:
        return {**base, **{var: str(count) for var in BLAS_VARS}}

    py = sys.executable
    with tempfile.TemporaryDirectory() as tmp:
        store, queries = _write_inputs(tmp, 100_000, 64, 10_000)
        build = [py, "-m", "drew.cli", "build", "--synthetic", "N=100000", "d=64", "--seed", "1",
                 "--store", os.path.join(tmp, "built.drew")]
        query = [py, "-m", "drew.cli", "query", "--store", store, "--queries", queries,
                 "--out", os.path.join(tmp, "answers.jsonl"), *GATE]
        # one BLAS thread, so that its start-up does not hide the compile
        compiled = {**threads(1), "PYTHONPYCACHEPREFIX": os.path.join(tmp, "pycache")}
        compiled.pop("PYTHONDONTWRITEBYTECODE", None)
        source = {**threads(1), "PYTHONDONTWRITEBYTECODE": "1"}
        rows = [
            (f"import numpy, BLAS threads 1 / {NPROC}", [py, "-c", "import numpy"],
             threads(1), threads(NPROC), 1),
            (f"import drew.cli, BLAS threads 1 / {NPROC}", [py, "-c", "import drew.cli"],
             threads(1), threads(NPROC), 1),
            (f"drew build 100k x 64, BLAS threads 1 / {NPROC}", build,
             threads(1), threads(NPROC), 1),
            (f"drew query 10k routed, BLAS threads 1 / {NPROC}", query,
             threads(1), threads(NPROC), 1),
            ("import drew.cli, from source / bytecode cache", [py, "-c", "import drew.cli"],
             source, compiled, 1),
            ("CPU-bound child, one / two at once", [py, "-c", SPIN],
             threads(1), threads(1), 2),
        ]
        _run(rows[4][1], compiled)  # fills the bytecode cache
        times = {name: ([], []) for name, *_ in rows}
        for r in range(args.rounds):
            for name, cmd, env_a, env_b, copies_b in rows:
                sides = [(0, env_a, 1), (1, env_b, copies_b)]
                for side, env, copies in sides if r % 2 == 0 else reversed(sides):
                    times[name][side].append(_run(cmd, env, copies))

    print(f"{args.rounds} interleaved rounds, {NPROC} CPUs; seconds, median [min-max]")
    width = max(len(name) for name, *_ in rows)
    print(f"{'row':<{width}s}  {'A wall':>21s}  {'B wall':>21s}  {'A CPU':>21s}  "
          f"{'B CPU':>21s}  B faster")
    for name, *_ in rows:
        a, b = times[name]
        won = sum(wb < wa for (wa, _), (wb, _) in zip(a, b))
        cols = [_span([t[i] for t in side]) for i in (0, 1) for side in (a, b)]
        print(f"{name:<{width}s}  {cols[0]:>21s}  {cols[1]:>21s}  {cols[2]:>21s}  "
              f"{cols[3]:>21s}  {won} of {args.rounds}")


if __name__ == "__main__":
    main()
