"""Time the exact scans on a synthetic store: serving paths and eval rank scan.

Run:  python3 benchmarks/bench_scan.py [--count 100000] [--d 64]

Builds a synthetic store (ids 0..count-1, k=10 clusters) and times, per
query, the full-store ``top_matches`` at p=1, ``top_matches`` on the
cluster whose size is closest to 99 rows, full-store ``scan_top1`` at
batch sizes 1, 4, 16, 41, 64, 150 and 2700 (one query; batches of fewer
than a tile's 64 queries, whose row tiles hold up to 16 MB, so that at
the default 100k rows each is one tile and starts no thread; one tile of
queries; and the batches of perfbench's eval), the evaluation's rank
scan of 150 queries at noise σ = 0.3 (nearly every ground truth lies
deep, so most tiles list a wide band) and at σ = 0.1 (most ground truths
rank first, as for eval's attacked queries, so only the hot columns are
listed), and one ``drew_query`` call at a time (gate ``min-bit`` 5, as
perfbench's ``lookup``) on 50 routed queries (clean keys) and on 20 that
fall back to the full store (random keys the gate rejects).  Then
``route_and_scan`` one query at a time, on that ~99-row cluster and on
the whole store (each batch of one scope), and of 400 queries routed to
their rows' own clusters (a sparse batch of several hundred scopes).  Then
the segmented pass: ``route_and_scan`` of 10000 queries, each routed to its
row's own cluster, and of the default suite's 18 in-dataset attacks at
150 queries each as ``drew eval`` draws them (2700 queries, scopes from
the ``min-bit`` 5 gate, under which about a quarter of them fall back to
the whole store, so the batch mixes full-store and routed groups; the row
label gives that share), plus the rank scan of that suite batch.  Then large
routed scopes, whose groups are whole-scope ``scan_top1`` calls:
``cluster_subset_accuracy`` as ``drew eval``'s subset stage runs it,
over k = 0, 2, ..., 12 with 2000 queries (k = 0 is the whole store, k =
2 four clusters of ~25k rows), and ``route_and_scan`` of 10000 routed
queries on a k = 2 store.  Each row is the median of 7 passes with the
[min-max] range; a pass runs the same fixed queries.  Each row then
gives the CPU milliseconds that threads other than the caller used
during its passes (the process CPU clock, which keeps the time of
threads that have ended, less the calling thread's own clock): about 0
while every BLAS product runs on the calling thread, and the work of a
scan's own threads where it starts any.  Last comes a digest of every
returned id, similarity and rank, so two checkouts that print the same
digest gave bit-identical answers.  The rank scans of 150 queries and of
the suite batch are then run once more each under ``tracemalloc``, whose
peak is printed in MiB.
"""
from __future__ import annotations

import argparse
import hashlib
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np

from drew import ecc
from drew.channel import AttackConfig, Query, default_suite
from drew.evaluation import _attack_queries, cluster_subset_accuracy
from drew.pipeline import QueryConfig, decode_scopes, drew_query, preprocess, route_and_scan
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


def _other_cpu_ms() -> float:
    """CPU milliseconds (user + system) used so far by every thread of this
    process but the calling one, those that have ended included."""
    return (time.process_time() - time.thread_time()) * 1e3


def _time(fn, queries: int) -> tuple[float, float, float, object, float]:
    """Per-query microseconds of ``PASSES`` passes: (median, min, max), the
    last pass's result, and the CPU ms other threads used meanwhile."""
    out = fn()  # warm-up
    times = []
    other = _other_cpu_ms()
    for _ in range(PASSES):
        t0 = time.perf_counter()
        out = fn()
        times.append((time.perf_counter() - t0) / queries * 1e6)
    return float(np.median(times)), min(times), max(times), out, _other_cpu_ms() - other


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
    routed, routed_rows = _queries(store, 400, 0.3, "routed")
    batch, _ = _queries(store, 2700, 0.3, "batch")
    ranked = {0.3: _queries(store, 150, 0.3, "ranked"),
              0.1: _queries(store, 150, 0.1, "ranked-0.1")}

    gate = QueryConfig(reliability_threshold=5.0, reliability_mode="min-bit")
    embs, rows = _queries(store, 50, 0.3, "lookup-routed")
    routed_q = [Query(observed_key=store.cluster_keys[store.clusters[r]], observed_embedding=q)
                for q, r in zip(embs, rows)]
    keys = substream(2024, "bench-scan/lookup-keys").integers(0, 2, size=(200, store.spec.n))
    _, reliable = ecc.decode_keys(store.spec, keys, gate.reliability_threshold,
                                  gate.reliability_mode)
    rejected = keys[~reliable][:20]
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
    for B in (1, 4, 16, 41, 64, 150, 2700):
        fn, n = scan_batches(B)
        cases.append((f"scan_top1 FULL B={B}", fn, n))
    for sigma, (qs, gt) in ranked.items():
        cases.append((f"eval rank scan, 150 queries, σ={sigma}",
                      lambda qs=qs, gt=gt: scan_ranks(mat, ids, qs, gt), len(qs)))
    for label, qs in (("routed", routed_q), ("fallback", fallback_q)):
        cases.append((f"drew_query {label} ({len(qs)} queries)",
                      lambda qs=qs: [drew_query(store, q, gate).to_dict() for q in qs], len(qs)))

    order, offsets = store.cluster_index
    for label, scope, qs in ((f"one routed query ({int(sizes[cluster])} rows)", cluster, routed),
                             ("one full-store query", FULL, single)):
        cases.append((f"route_and_scan {label}",
                      lambda scopes=np.array([scope]), qs=qs: [
                          route_and_scan(mat, ids, order, offsets, scopes, qs[j : j + 1])
                          for j in range(50)], 50))
    cases.append(("route_and_scan 400 routed queries",
                  lambda: route_and_scan(mat, ids, order, offsets, store.clusters[routed_rows],
                                         routed), len(routed)))
    seg_q, seg_rows = _queries(store, 10_000, 0.3, "segments")
    suite = [_attack_queries(store, a, 150, 11) for a in default_suite() if not a.out_of_dataset]
    suite_keys, suite_q, suite_gt = (np.concatenate(parts) for parts in zip(*suite))
    suite_scopes = decode_scopes(store, suite_keys, gate)[2]
    fallback_share = float(np.mean(suite_scopes == FULL))
    for label, scopes, qs in (("10000 routed queries", store.clusters[seg_rows], seg_q),
                              (f"suite batch, {len(suite_q)} queries, "
                               f"{fallback_share:.0%} scope -1", suite_scopes, suite_q)):
        cases.append((f"route_and_scan {label}",
                      lambda scopes=scopes, qs=qs: route_and_scan(mat, ids, order, offsets,
                                                                  scopes, qs), len(qs)))
    cases.append((f"eval rank scan, suite batch, {len(suite_q)} queries",
                  lambda: scan_ranks(mat, ids, suite_q, suite_gt), len(suite_q)))

    subset = AttackConfig(name="subset-regime", p_a=0.0, sigma=0.5)  # drew eval's subset stage
    cases.append(("cluster_subset_accuracy k=0,2..12, 2000 queries",
                  lambda: cluster_subset_accuracy(store, subset, range(0, 13, 2), 2000, 11), 2000))
    k2 = preprocess(synthetic_store(args.count, args.d, seed=7), k=2, seed=7)
    k2_order, k2_offsets = k2.cluster_index
    cases.append(("route_and_scan k=2 store, 10000 routed queries",
                  lambda: route_and_scan(k2.embeddings, k2.ids, k2_order, k2_offsets,
                                         k2.clusters[seg_rows], seg_q), len(seg_q)))

    print(f"store: N={len(store)} d={store.d} dtype={store.embeddings.dtype}")
    print(f"per-query us, median of {PASSES} passes, [min-max] in brackets, "
          "CPU ms of other threads, output digest")
    for name, fn, n in cases:
        med, lo, hi, out, other = _time(fn, n)
        print(f"{name:56s} {med:9.1f}  {f'[{lo:.1f}-{hi:.1f}]':>20s}  "
              f"{other:7.1f}  {_digest(out)}")
    for label, (qs, gt) in (("150 queries, σ=0.3", ranked[0.3]),
                            (f"suite batch, {len(suite_q)} queries", (suite_q, suite_gt))):
        tracemalloc.start()
        scan_ranks(mat, ids, qs, gt)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"eval rank scan, {label}: tracemalloc peak {peak / 2**20:.2f} MiB")


if __name__ == "__main__":
    main()
