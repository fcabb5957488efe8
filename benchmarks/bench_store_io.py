"""Time the steps of ``drew build`` and the store load, in process.

Run:  python3 benchmarks/bench_store_io.py [--count 100000] [--d 64] [--passes 7]

Each pass runs, in this order, the steps a synthetic ``drew build`` and a
later ``load_store`` take: the PCG64 draw of the raw rows, ``_quantize_unit``
(normalise and snap to float32), ``Store()`` of the unclustered rows,
``assign_clusters`` at k=10, n=100 (the code spec is built once, before
timing), ``save_store`` into a temporary directory and ``load_store`` of
that file.  The steps are interleaved pass by pass, so a drift of the
machine's speed reaches every row alike.  Each row prints the median over
the passes with the [min-max] range in milliseconds, the ``tracemalloc``
peak of one more, untimed run of the step (memory it allocated beyond what
it was given, numpy buffers included), and a digest of its result: the
file's SHA-256 for ``save_store``, the bytes of the returned arrays for the
rest.  Two checkouts that print the same digests built the same store.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import tempfile
import time
import tracemalloc

import numpy as np

from drew import ecc
from drew.rng import substream
from drew.store import Store, _quantize_unit, assign_clusters, load_store, save_store


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:12]


def _steps(count: int, d: int, seed: int, path: str):
    """(name, run, digest) per step; each run takes the previous step's
    result, so one pass is one build followed by one load."""
    spec = ecc.construct_code(10, 100, 0.1)

    def file_digest(_):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()[:12]

    return [
        ("draw (PCG64 standard_normal)",
         lambda _: substream(seed, "synthetic/store").standard_normal((count, d)),
         _digest),
        ("_quantize_unit", _quantize_unit, _digest),
        ("Store() unclustered",
         lambda emb: Store(ids=np.arange(count, dtype=np.uint64), embeddings=emb),
         lambda s: _digest(s.ids, s.embeddings)),
        ("assign_clusters k=10", lambda s: assign_clusters(s, 10, seed, spec),
         lambda s: _digest(s.clusters)),
        ("save_store", lambda s: save_store(s, path), file_digest),
        ("load_store", lambda _: load_store(path),
         lambda s: _digest(s.ids, s.clusters, s.embeddings)),
    ]


def _pass(steps, times=None):
    value = None
    for name, run, _ in steps:
        t0 = time.perf_counter()
        value = run(value)
        if times is not None:
            times[name].append((time.perf_counter() - t0) * 1e3)


def _peaks_and_digests(steps) -> dict:
    out, value = {}, None
    for name, run, digest in steps:
        tracemalloc.start()
        value = run(value)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        out[name] = (peak / 2**20, digest(value))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100_000)
    ap.add_argument("--d", type=int, default=64)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=7)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        steps = _steps(args.count, args.d, args.seed, os.path.join(tmp, "store.drew"))
        _pass(steps)  # warm-up
        times = {name: [] for name, _, _ in steps}
        for _ in range(args.passes):
            _pass(steps, times)
        peaks = _peaks_and_digests(steps)

    print(f"N={args.count} d={args.d} seed={args.seed}: ms over {args.passes} interleaved "
          "passes, median [min-max]; tracemalloc peak; result digest")
    total = 0.0
    for name, ms in times.items():
        med = statistics.median(ms)
        total += med
        peak, digest = peaks[name]
        print(f"{name:30s} {med:8.1f}  {f'[{min(ms):.1f}-{max(ms):.1f}]':>16s}  "
              f"{peak:7.1f} MB  {digest}")
    print(f"{'sum of medians':30s} {total:8.1f}")


if __name__ == "__main__":
    main()
