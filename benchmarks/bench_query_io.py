"""Time the stages of ``drew query``, in process and as whole invocations.

Run:  python3 benchmarks/bench_query_io.py [--count 100000] [--d 64] [--queries 10000]
                                           [--passes 7] [--runs 10] [--src DIR ...]

Builds a synthetic store (``--count`` x ``--d``, k=10, n=100, design_p=0.1,
seed 1) and a file of routed queries in a temporary directory: each query
copies a random stored row's key with 5% of its bits flipped and its
embedding plus Gaussian noise of scale 0.05.

In-process stages run this checkout's ``drew.cli``, interleaved pass by
pass, and print the median [min-max] in milliseconds:

- read: the file's lines;
- json.loads: every line, alone (the parse no reader can avoid);
- front end: ``_read_queries`` (parse, per-line checks, stack/normalise);
- per-line checks: front end minus json.loads minus stack/normalise;
- stack/normalise: stacking the parsed rows and one division by their norms;
- batch_query: decode, route and scan;
- serialise: the answer lines and their join.

Then ``python -m drew.cli query`` runs ``--runs`` times as a fresh process
per ``--src`` tree (a ``src`` directory holding ``drew``; default this
checkout), interleaved, with the routed gate flags of perfbench's
``routed`` workload, each started from a small timer process.  It prints
the median [min-max] wall time from spawn to reaping, the median peak RSS
that ``wait4`` reports for the command, and the SHA-256 of each tree's
output, which must agree.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from drew.cli import _answer_lines, _read_queries
from drew.pipeline import QueryConfig, batch_query, preprocess
from drew.rng import substream
from drew.store import load_store, save_store
from drew.synthetic import synthetic_store

GATE = ["--reliability-mode", "last-bit", "--reliability-threshold", "0.5", "--tau-r", "-1"]


def _write_inputs(tmp: str, count: int, d: int, n_queries: int) -> tuple[str, str]:
    store = preprocess(synthetic_store(count, d, 1), k=10, seed=1, n=100, design_p=0.1)
    store_path = os.path.join(tmp, "store.drew")
    save_store(store, store_path)
    rng = substream(1, "bench-query-io")
    rows = rng.integers(0, count, size=n_queries)
    keys = store.cluster_keys[store.clusters[rows]] ^ (rng.random((n_queries, 100)) < 0.05)
    embs = store.embeddings[rows] + 0.05 * rng.standard_normal((n_queries, d))
    embs /= np.linalg.norm(embs, axis=1)[:, None]
    query_path = os.path.join(tmp, "queries.jsonl")
    with open(query_path, "w", encoding="utf-8") as fh:
        for i, row in enumerate(rows.tolist()):
            fh.write(json.dumps({
                "query_id": f"q{i}",
                "key": (keys[i] + ord("0")).astype(np.uint8).tobytes().decode("ascii"),
                "embedding": embs[i].tolist(),
                "ground_truth_id": int(store.ids[row]),
            }) + "\n")
    return store_path, query_path


def _stage_pass(store, query_path, cfg, times):
    def timed(name, fn):
        t0 = time.perf_counter()
        value = fn()
        times.setdefault(name, []).append((time.perf_counter() - t0) * 1e3)
        return value

    def read():
        with open(query_path, encoding="utf-8") as fh:
            return list(fh)

    def loads():
        for line in lines:  # one document alive at a time, as in the front end
            json.loads(line)

    lines = timed("read", read)
    timed("json.loads", loads)
    rows = [np.asarray(json.loads(line)["embedding"], dtype=np.float64) for line in lines]
    norms = np.array([np.sqrt(r.dot(r)) for r in rows])

    def normalise():
        embs = np.stack(rows)
        embs /= norms[:, None]
        return embs

    timed("stack/normalise", normalise)
    slots, qids, gts, keys, embs = timed(
        "front end", lambda: _read_queries(lines, store.d, store.spec.n, False))
    results = timed("batch_query", lambda: batch_query(store, keys, embs, cfg))
    timed("serialise", lambda: "\n".join(_answer_lines(slots, results, qids, gts)) + "\n")


#: Runs its arguments as a command and prints its wall time, peak RSS and
#: exit code.  Linux carries the exec'ing process's memory peak into the
#: child's ``ru_maxrss``, so the command is started from this small process,
#: not from the benchmark, which holds the store and the parsed queries.
_TIMER = ("import os, subprocess, sys, time; t = time.perf_counter(); "
          "p = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL); "
          "_, status, usage = os.wait4(p.pid, 0); "
          "print(time.perf_counter() - t, usage.ru_maxrss, os.waitstatus_to_exitcode(status))")


def _spawn(src: str, store_path: str, query_path: str, out: str) -> tuple[float, float]:
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-m", "drew.cli", "query", "--store", store_path,
           "--queries", query_path, "--out", out, *GATE]
    done = subprocess.run([sys.executable, "-c", _TIMER, *cmd], env=env, check=True,
                          capture_output=True, text=True)
    wall, maxrss_kb, code = done.stdout.split()
    if code != "0":
        raise SystemExit(f"drew query from {src} exited {code}")
    return float(wall), int(maxrss_kb) / 1024.0


def _span(values, unit="") -> str:
    return f"{statistics.median(values):8.1f}{unit}  [{min(values):.1f}-{max(values):.1f}]"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--count", type=int, default=100_000)
    ap.add_argument("--d", type=int, default=64)
    ap.add_argument("--queries", type=int, default=10_000)
    ap.add_argument("--passes", type=int, default=7)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--src", nargs="*", default=None,
                    help="src directories to run drew query from (default: this checkout's)")
    args = ap.parse_args()
    here = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    srcs = [os.path.abspath(s) for s in (args.src or [here])]

    with tempfile.TemporaryDirectory() as tmp:
        store_path, query_path = _write_inputs(tmp, args.count, args.d, args.queries)
        store = load_store(store_path)
        cfg = QueryConfig(reliability_threshold=0.5, tau_r=-1.0, reliability_mode="last-bit")
        _stage_pass(store, query_path, cfg, {})  # warm-up
        times: dict[str, list[float]] = {}
        for _ in range(args.passes):
            _stage_pass(store, query_path, cfg, times)
        times["per-line checks"] = [
            f - j - s for f, j, s in zip(times["front end"], times["json.loads"],
                                         times["stack/normalise"])
        ]

        walls = {src: [] for src in srcs}
        rss = {src: [] for src in srcs}
        digests = {}
        for run in range(args.runs):
            for src in (srcs if run % 2 == 0 else srcs[::-1]):
                out = os.path.join(tmp, f"answers{srcs.index(src)}.jsonl")
                wall, peak = _spawn(src, store_path, query_path, out)
                walls[src].append(wall * 1e3)
                rss[src].append(peak)
                with open(out, "rb") as fh:
                    digests[src] = hashlib.sha256(fh.read()).hexdigest()[:12]

    print(f"store {args.count} x {args.d}, {args.queries} routed queries; "
          f"ms over {args.passes} interleaved passes, median [min-max]")
    for name in ("read", "json.loads", "per-line checks", "stack/normalise", "front end",
                 "batch_query", "serialise"):
        print(f"  {name:18s} {_span(times[name])}")
    print(f"drew query as a fresh process, {args.runs} interleaved runs per tree")
    for src in srcs:
        print(f"  {src}: wall {_span(walls[src], ' ms')}  "
              f"peak RSS {statistics.median(rss[src]):.1f} MB  output {digests[src]}")
    if len(set(digests.values())) > 1:
        raise SystemExit("the trees wrote different answers")


if __name__ == "__main__":
    main()
