"""Time the exact scans on a synthetic store: serving paths and eval rank scan.

Run:  python3 benchmarks/bench_scan.py [--count 100000] [--d 64]

Builds a synthetic store (ids 0..count-1, k=10 clusters) and times, per
query, the full-store ``top_matches`` at p=1, ``top_matches`` on the
cluster whose size is closest to 99 rows, full-store ``scan_top1`` at
batch sizes 1, 4, 16, 41 and 150, the evaluation's rank scan of 150
queries, and one ``drew_query`` call at a time (gate ``min-bit`` 5, as
perfbench's ``lookup``) on 50 routed queries (clean keys) and on 20 that
fall back to the full store (random keys the gate rejects).  Each row is the median of 7 passes with the [min-max] range; a
pass runs the same fixed queries.  Each row then gives the CPU ticks
(user + system, read from ``/proc/self/task``; "-" where that is absent)
that threads other than the caller accrued during its passes, which stays
0 while every BLAS product runs on the calling thread, and a digest of
every returned id, similarity and rank, so two checkouts that print the
same digest gave bit-identical answers.
"""
from __future__ import annotations

import argparse
import hashlib
import os
import time
from types import SimpleNamespace

import numpy as np

from drew import ecc
from drew.channel import Query
from drew.pipeline import QueryConfig, drew_query, preprocess
from drew.rng import substream
from drew.store import FULL, scan_top1, top_matches
from drew.synthetic import synthetic_store

try:
    from drew.store import scan_ranks
except ImportError:  # older checkouts ranked with evaluation's own scan
    from drew.evaluation import _full_scan_with_ranks

    def scan_ranks(embeddings, ids, queries, gt_rows):
        scope = SimpleNamespace(embeddings=embeddings, ids=ids)
        return _full_scan_with_ranks(scope, queries, gt_rows)

PASSES = 7


def _queries(store, count: int, sigma: float, label: str):
    """Attacked copies of random store rows: (unit queries, their rows)."""
    rng = substream(2024, f"bench-scan/{label}")
    rows = rng.integers(0, len(store), size=count)
    q = store.embeddings[rows].astype(np.float64)
    q = q + sigma * rng.standard_normal(q.shape)
    return q / np.linalg.norm(q, axis=1)[:, None], rows


def _digest(out) -> str:
    """Short hash of a result: arrays by their bytes, floats by exact repr."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(obj.tobytes())
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    feed(out)
    return h.hexdigest()[:12]


def _worker_ticks() -> int | None:
    """CPU ticks accrued so far by every thread but the calling one, or
    None without ``/proc/self/task``."""
    if not os.path.isdir("/proc/self/task"):
        return None
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        total += int(fields[11]) + int(fields[12])
    return total


def _time(fn, queries: int) -> tuple[float, float, float, object, int | None]:
    """Per-query microseconds of ``PASSES`` passes: (median, min, max), the
    last pass's result, and the ticks other threads accrued meanwhile."""
    out = fn()  # warm-up
    times = []
    ticks = _worker_ticks()
    for _ in range(PASSES):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) / queries * 1e6)
    if ticks is not None:
        ticks = _worker_ticks() - ticks
    return float(np.median(times)), min(times), max(times), out, ticks


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100_000)
    ap.add_argument("--d", type=int, default=64)
    args = ap.parse_args()

    store = preprocess(synthetic_store(args.count, args.d, seed=7), k=10, seed=7)
    sizes = store.cluster_sizes
    cluster = int(np.argmin(np.abs(sizes - 99)))
    mat, ids = store.embeddings, store.ids
    single, _ = _queries(store, 50, 0.3, "single")
    routed, _ = _queries(store, 400, 0.3, "routed")
    batch, _ = _queries(store, 41 * 8, 0.3, "batch")
    ranked, gt = _queries(store, 150, 0.3, "ranked")

    gate = QueryConfig(reliability_threshold=5.0, reliability_mode="min-bit")
    embs, rows = _queries(store, 50, 0.3, "lookup-routed")
    routed_q = [Query(observed_key=store.cluster_keys[store.clusters[r]], observed_embedding=q)
                for q, r in zip(embs, rows)]
    keys = substream(2024, "bench-scan/lookup-keys").integers(0, 2, size=(200, store.spec.n))
    llrs = ecc.llr_from_keys(store.spec, keys, store.spec.design_p)
    rejected = keys[~ecc.decode_batch(store.spec, llrs, 5.0, "min-bit")[2]][:20]
    fallback_q = [Query(observed_key=k.astype(np.uint8), observed_embedding=q)
                  for k, q in zip(rejected, _queries(store, 20, 0.3, "lookup-fallback")[0])]

    for label, qs in (("routed", routed_q), ("fallback", fallback_q)):
        if any(drew_query(store, q, gate).reliable is not (label == "routed") for q in qs):
            raise SystemExit(f"a {label} query did not take the {label} path")

    def scan_batches(B):
        n = B * max(1, 164 // B)
        return lambda: [scan_top1(mat, ids, batch[lo : lo + B]) for lo in range(0, n, B)], n

    cases = [
        (f"top_matches FULL p=1 ({len(store)} rows)",
         lambda: [top_matches(store, FULL, q, p=1) for q in single], len(single)),
        (f"top_matches cluster p=1 ({int(sizes[cluster])} rows)",
         lambda: [top_matches(store, cluster, q, p=1) for q in routed], len(routed)),
    ]
    for B in (1, 4, 16, 41, 150):
        fn, n = scan_batches(B)
        cases.append((f"scan_top1 FULL B={B}", fn, n))
    cases.append(("eval rank scan, 150 queries",
                  lambda: scan_ranks(mat, ids, ranked, gt), len(ranked)))
    for label, qs in (("routed", routed_q), ("fallback", fallback_q)):
        cases.append((f"drew_query {label} ({len(qs)} queries)",
                      lambda qs=qs: [drew_query(store, q, gate).to_dict() for q in qs], len(qs)))

    print(f"store: N={len(store)} d={store.d} dtype={store.embeddings.dtype}")
    print(f"per-query us, median of {PASSES} passes, [min-max] in brackets, "
          "ticks of other threads, output digest")
    for name, fn, n in cases:
        med, lo, hi, out, ticks = _time(fn, n)
        print(f"{name:40s} {med:9.1f}  {f'[{lo:.1f}-{hi:.1f}]':>20s}  "
              f"{'-' if ticks is None else ticks:>5}  {_digest(out)}")


if __name__ == "__main__":
    main()
