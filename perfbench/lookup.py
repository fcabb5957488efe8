"""Closed-loop lookup client: one process, one client, one query at a time.

Loads the store through ``drew.store.load_store``, answers one untimed
warm-up query, then calls ``drew.pipeline.drew_query`` on every query of
the file in order, timing each call.  Writes the answers as JSON lines (the
``drew query`` output format) and the timings as JSON:

    python3 perfbench/lookup.py --store S --queries Q --out OUT --timing T \\
        --reliability-mode min-bit --reliability-threshold 5 --tau-r -1 \\
        [--spans SPANS --store-rows N]
"""
from __future__ import annotations

import argparse
import json
import os
import time

from inputs import read_queries
from spans import LIBRARY_TARGETS, SHARED_TARGETS, Tracer, check_source


def main() -> None:
    ap = argparse.ArgumentParser()
    for flag in ("--store", "--queries", "--out", "--timing", "--reliability-mode"):
        ap.add_argument(flag, required=True)
    ap.add_argument("--reliability-threshold", type=float, required=True)
    ap.add_argument("--tau-r", type=float, required=True)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--store-rows", type=int, default=0)
    args = ap.parse_args()

    check_source(os.path.join(os.getcwd(), "src"))
    tracer = None
    if args.spans:
        tracer = Tracer(args.store_rows)
        tracer.install(LIBRARY_TARGETS + SHARED_TARGETS)
    from drew import pipeline
    from drew import store as store_mod
    from drew.channel import Query

    t0 = time.perf_counter()
    store = store_mod.load_store(args.store)
    load_s = time.perf_counter() - t0
    cfg = pipeline.QueryConfig(
        reliability_threshold=args.reliability_threshold,
        tau_r=args.tau_r,
        reliability_mode=args.reliability_mode,
    )
    qids, keys, embs, gts = read_queries(args.queries)
    queries = [Query(observed_key=keys[i], observed_embedding=embs[i],
                     ground_truth_id=int(gts[i])) for i in range(len(qids))]

    if tracer:
        tracer.active = False
    t0 = time.perf_counter()
    pipeline.drew_query(store, queries[0], cfg)
    warmup_s = time.perf_counter() - t0
    if tracer:
        tracer.active = True

    latencies_ns = []
    answers = []
    loop_t0 = time.perf_counter()
    for i, q in enumerate(queries):
        if tracer:
            tracer.request = i
        t = time.perf_counter_ns()
        try:
            res = pipeline.drew_query(store, q, cfg)
        except Exception as exc:  # a failed call is counted, the loop goes on
            latencies_ns.append(time.perf_counter_ns() - t)
            answers.append({"query_id": qids[i], "error": f"{type(exc).__name__}: {exc}"})
            continue
        latencies_ns.append(time.perf_counter_ns() - t)
        answers.append(res)
    loop_s = time.perf_counter() - loop_t0

    with open(args.out, "w", encoding="utf-8") as fh:
        for i, res in enumerate(answers):
            doc = res if isinstance(res, dict) else dict(
                res.to_dict(), query_id=qids[i], ground_truth_id=int(gts[i]))
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    with open(args.timing, "w", encoding="utf-8") as fh:
        json.dump({"load_s": load_s, "warmup_s": warmup_s, "loop_s": loop_s,
                   "latencies_ns": latencies_ns}, fh)
    if tracer:
        tracer.dump(args.spans)


if __name__ == "__main__":
    main()
