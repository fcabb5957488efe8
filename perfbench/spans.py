"""Spans recorded from outside drew, by wrapping its public functions.

Each wrapper is installed on the name where drew's caller looks the
function up (``drew.cli.load_store``, ``drew.pipeline.scan_top1``, ...), so
the program runs unmodified.  A span holds name, start, end, parent span,
request id and a few counts; spans stay in memory and are written out as
JSON when the traced process ends.  A name that no longer exists is
reported as missing and its metrics are simply absent.

Run as a script it executes one traced ``drew`` command:

    python3 perfbench/spans.py SPANS.json STORE_ROWS -- query --store ...
"""
from __future__ import annotations

import json
import os
import sys
import time

# (owner module, attribute path, span name); owners are imported lazily.
CLI_TARGETS = (
    ("drew.cli", "cmd_build", "cli.cmd_build"),
    ("drew.cli", "cmd_query", "cli.cmd_query"),
    ("drew.cli", "cmd_eval", "cli.cmd_eval"),
    ("drew.cli", "load_store", "store.load"),
    ("drew.cli", "synthetic_store", "synthetic.store"),
    ("drew.cli", "preprocess", "store.assign_clusters"),
    ("drew.cli", "save_store", "store.save"),
    ("drew.cli", "batch_query", "pipeline.batch_query"),
)
LIBRARY_TARGETS = (
    ("drew.store", "load_store", "store.load"),
    ("drew.pipeline", "drew_query", "pipeline.drew_query"),
)
SHARED_TARGETS = (
    ("drew.store", "Store.cluster_members", "store.members"),
    ("drew.pipeline", "scan_top1", "store.scan"),
    ("drew.evaluation", "scan_top1", "store.scan"),
    ("drew.pipeline", "top_matches", "store.top_matches"),
    ("drew.ecc", "llr_from_keys", "ecc.llr"),
    ("drew.ecc", "decode_batch", "ecc.decode_batch"),
    ("drew.ecc", "decode", "ecc.decode"),
    ("drew.backends", "sc_decode_batch", "backends.sc"),
    ("drew.evaluation", "run_accuracy_eval", "evaluation.accuracy"),
    ("drew.evaluation", "check_epsilon_goldens", "evaluation.epsilon"),
)


def _counts(name: str, args, store_rows: int):
    """Work counts read off a call's arguments, plus the span name to use."""
    if name == "store.scan":
        rows, queries = args[0].shape[0], args[2].shape[0]
        kind = "store.scan_full" if rows == store_rows else "store.scan_cluster"
        return kind, {"rows": rows * queries, "queries": queries}
    if name in ("ecc.decode_batch", "backends.sc"):
        arr = args[1] if name == "ecc.decode_batch" else args[0]
        return name, {"frames": 1 if arr.ndim == 1 else arr.shape[0]}
    if name == "store.load":
        return name, {"bytes": os.path.getsize(args[0])}
    if name == "store.top_matches":
        scope = args[1]
        return name, {"scope": scope if isinstance(scope, int) else -1}
    return name, None


class Tracer:
    """Span recorder.  ``request`` tags new spans; ``active`` pauses it."""

    def __init__(self, store_rows: int):
        self.store_rows = store_rows
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.missing: list[str] = []
        self.request = 0
        self.active = True

    def install(self, targets) -> None:
        import importlib

        for module_name, path, name in targets:
            try:
                owner = importlib.import_module(module_name)
            except ImportError:
                owner = None
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            try:
                kind, counts = _counts(name, args, tracer.store_rows)
            except (IndexError, AttributeError, TypeError, OSError):
                kind, counts = name, None  # a changed signature loses counts, not the run
            span = [kind, 0.0, 0.0, tracer.stack[-1] if tracer.stack else None,
                    tracer.request, counts]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.stack.pop()

        return traced

    def dump(self, path) -> None:
        doc = {
            "fields": ["name", "start", "end", "parent", "request", "counts"],
            "missing": self.missing,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# metric -> (span it is read from, what is read).  The span name is also the
# wrapper's name, except for the two kinds of ``store.scan``.
METRICS = {
    "cli.query_self_s": ("cli.cmd_query", "self"),
    "cli.eval_self_s": ("cli.cmd_eval", "self"),
    "store.load_s": ("store.load", "total"),
    "store.load_bytes": ("store.load", "bytes"),
    "store.members_s": ("store.members", "total"),
    "store.members_calls": ("store.members", "calls"),
    "store.scan_cluster_s": ("store.scan_cluster", "total"),
    "store.scan_cluster_rows": ("store.scan_cluster", "rows"),
    "store.scan_full_s": ("store.scan_full", "total"),
    "store.scan_full_rows": ("store.scan_full", "rows"),
    "store.top_matches_s": ("store.top_matches", "total"),
    "synthetic.store_s": ("synthetic.store", "total"),
    "store.assign_clusters_s": ("store.assign_clusters", "total"),
    "store.save_s": ("store.save", "total"),
    "ecc.llr_s": ("ecc.llr", "total"),
    "ecc.decode_batch_s": ("ecc.decode_batch", "total"),
    "ecc.decode_frames": ("ecc.decode_batch", "frames"),
    "ecc.frames_per_s": ("ecc.decode_batch", "frames_per_s"),
    "ecc.decode_s": ("ecc.decode", "total"),
    "ecc.decode_calls": ("ecc.decode", "calls"),
    "backends.sc_s": ("backends.sc", "total"),
    "backends.sc_frames": ("backends.sc", "frames"),
    "pipeline.batch_query_self_s": ("pipeline.batch_query", "self"),
    "pipeline.drew_query_self_s": ("pipeline.drew_query", "self"),
    "pipeline.routed_share": ("store.scan", "routed_share"),
    "pipeline.rows_per_query": ("store.scan", "rows_per_query"),
    "evaluation.accuracy_s": ("evaluation.accuracy", "total"),
    "evaluation.accuracy_self_s": ("evaluation.accuracy", "self"),
    "evaluation.epsilon_s": ("evaluation.epsilon", "total"),
    "evaluation.epsilon_self_s": ("evaluation.epsilon", "self"),
}


def layer_metrics(dumps, cluster_sizes, answered: int) -> dict:
    """Per-layer totals over span dumps: durations, self times, counts.

    Self time is a span's duration minus that of its direct children (the
    traced programs are single-threaded, so children never overlap).
    ``cluster_sizes`` turns a ``top_matches`` scope into rows compared.
    A metric whose wrapper could not be installed is absent.
    """
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    missing = set()
    for doc in dumps:
        missing.update(doc["missing"])
        spans = doc["spans"]
        dur = [s[2] - s[1] for s in spans]
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] is not None:
                child[s[3]] += dur[i]
        for i, (name, _, _, _, _, c) in enumerate(spans):
            total[name] = total.get(name, 0.0) + dur[i]
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            if name == "store.top_matches" and c:
                routed = c["scope"] >= 0
                c = {"rows": int(cluster_sizes[c["scope"]] if routed else cluster_sizes.sum()),
                     "queries": int(routed)}
            for key, val in (c or {}).items():
                counts[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0) + val

    routed = counts.get("store.scan_cluster.queries", 0) + counts.get("store.top_matches.queries", 0)
    rows = sum(counts.get(f"{n}.rows", 0)
               for n in ("store.scan_cluster", "store.scan_full", "store.top_matches"))
    derived = {
        "routed_share": routed / answered if answered else 0.0,
        "rows_per_query": rows / answered if answered else 0.0,
    }
    out = {}
    for metric, (name, how) in METRICS.items():
        if (name.split("_")[0] if name.startswith("store.scan") else name) in missing:
            continue
        if how == "total":
            out[metric] = total.get(name, 0.0)
        elif how == "self":
            out[metric] = self_s.get(name, 0.0)
        elif how == "calls":
            out[metric] = calls.get(name, 0)
        elif how == "frames_per_s":
            out[metric] = counts.get(f"{name}.frames", 0) / total[name] if name in total else 0.0
        elif how in derived:
            out[metric] = derived[how]
        else:
            out[metric] = counts.get(f"{name}.{how}", 0)
    return out


def check_source(src: str) -> None:
    """Fail unless ``drew`` is imported from the checkout's ``src``."""
    import drew

    here = os.path.realpath(os.path.dirname(drew.__file__))
    if not here.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"drew imported from {here}, not from {src}")


def main(argv) -> int:
    spans_path, store_rows = argv[0], int(argv[1])
    if argv[2] != "--":
        raise SystemExit("usage: spans.py SPANS.json STORE_ROWS -- DREW_ARGS...")
    check_source(os.path.join(os.getcwd(), "src"))
    tracer = Tracer(store_rows)
    tracer.install(CLI_TARGETS + SHARED_TARGETS)
    import drew.cli

    try:
        return drew.cli.main(argv[3:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
