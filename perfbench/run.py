#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for drew.

Run from the root of a drew checkout:

    python3 perfbench/run.py --workload routed --seed 1 --seconds 10 --trace 0

Builds the store with ``drew build``, writes the workload's seeded inputs
to files, then repeats the timed command until ``--seconds`` have passed
(and enough samples exist).  Outputs are checked against an independent
numpy scan outside the timed region.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` additionally runs one traced copy of the build and of
the timed command and prints the per-layer metrics.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""
from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
# BLAS reads these at load time, so they are set before numpy is imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402
import verify  # noqa: E402

PY = sys.executable
STORE_ARGS = ["--synthetic", "N=100000", "d=64", "--k", "10", "--n", "100",
              "--design-p", "0.1"]
SETUP_REPEATS = 5     # builds per run; setup_s is their median
MIN_REPS = 3          # timed invocations per run, at least
MIN_LOOKUPS = 1188    # lookup calls per run, at least: > 10 beyond p99, 6 processes
RUN_BUDGET_S = 165.0  # every child is killed by then; a run must end within 180 s
LAST_START_S = 100.0  # no timed invocation starts later than this into the run
SUITE_FILE = "src/drew/data/default_suite.json"
GOLDEN_FILE = "src/drew/data/golden_epsilon_r.json"

ROUTED_GATE = ["--reliability-mode", "last-bit", "--reliability-threshold", "0.5",
               "--tau-r", "-1"]
MIXED_GATE = ["--reliability-mode", "min-bit", "--reliability-threshold", "5",
              "--tau-r", "-1"]
EVAL_QUERIES = 150
EVAL_TRIALS = 10000

# kind, traffic (attacks, query count, generator label), pinned query flags
WORKLOADS = {
    "routed": ("query", (inputs.ROUTED_ATTACKS, 10000, 1), ROUTED_GATE),
    "mixed": ("query", (inputs.DEFAULT_SUITE, 1800, 2), MIXED_GATE),
    "lookup": ("lookup", (inputs.DEFAULT_SUITE, 198, 2), MIXED_GATE),
    "eval": ("eval", None, ROUTED_GATE),
}


class Run:
    """One benchmark run: paths, child environment and the spawn helper."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.t0 = time.perf_counter()
        self.work_rel = os.path.join("perfbench", "work", f"{workload}-s{seed}")
        self.work = os.path.join(root, self.work_rel)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        env = dict(os.environ)
        for var in ("DREW_BACKEND", "DREW_OUT_DIR"):
            env.pop(var, None)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env

    def rel(self, name: str) -> str:
        return os.path.join(self.work_rel, name)

    def spawn(self, cmd, tag: str):
        """Run ``cmd`` to completion; returns (exit code, wall s, peak RSS MB).

        Wall time runs from spawn to reaping; the RSS is that child's own.
        Output goes to files so that a full pipe can never stall the child.
        """
        with open(os.path.join(self.work, f"{tag}.stdout"), "wb") as out, \
                open(os.path.join(self.work, f"{tag}.stderr"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(max(1.0, self.t0 + RUN_BUDGET_S - t0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def read(self, name: str, mode: str = "r"):
        with open(os.path.join(self.work, name), mode) as fh:
            return fh.read()


def machine_facts(src: str) -> dict:
    sys.path.insert(0, src)
    import drew

    spans.check_source(src)
    backends = getattr(drew, "backends", None)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": NPROC,
        "blas_threads": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "decoder_backend": backends.active_backend() if hasattr(backends, "active_backend") else None,
        "drew_source": os.path.dirname(drew.__file__),
    }


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with >= q of samples at or below."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def setup(run: Run, seed: int, problems: list) -> list[float]:
    """Build the store SETUP_REPEATS times; every build must be identical."""
    cmd = [PY, "-m", "drew.cli", "build", *STORE_ARGS, "--seed", str(seed),
           "--store", run.rel("store.drew")]
    walls, digests = [], set()
    for i in range(SETUP_REPEATS):
        code, wall, _ = run.spawn(cmd, f"build{i}")
        if code != 0:
            raise SystemExit(f"drew build exited {code}: {run.read(f'build{i}.stderr')[-2000:]}")
        walls.append(wall)
        digests.add(sha(run.read("store.drew", "rb")))
    if len(digests) != 1:
        problems.append("repeated builds wrote different store files")
    return walls


def timed_loop(run: Run, seconds: float, step, enough) -> None:
    """Call ``step()`` until ``seconds`` have passed and ``enough()`` holds."""
    t0 = time.perf_counter()
    while True:
        step()
        if (time.perf_counter() - t0 >= seconds and enough()) or run.elapsed() >= LAST_START_S:
            return


def measure_queries(run: Run, workload: str, seed: int, seconds: float, trace: bool,
                    store, problems: list, info: dict):
    """Timed reps of ``drew query`` or of the lookup client on one query file."""
    kind, (attacks, count, label), gate = WORKLOADS[workload]
    query_file = os.path.join(run.work, "queries.jsonl")
    inputs.write_queries(query_file, *inputs.attacked_queries(store, attacks, count, seed, label))
    qids, _, q_embs, q_gt = inputs.read_queries(query_file)

    def one(tag: str, out: str, traced_spans: str | None = None):
        """One invocation: (exit code, wall, rss, output digest, lookup timings)."""
        files = ["--store", run.rel("store.drew"), "--queries", run.rel("queries.jsonl"),
                 "--out", run.rel(out)]
        if kind == "lookup":
            cmd = [PY, "perfbench/lookup.py", *files, "--timing", run.rel("timing.json"), *gate]
            if traced_spans:
                cmd += ["--spans", run.rel(traced_spans), "--store-rows", str(len(store))]
        elif traced_spans:
            cmd = [PY, "perfbench/spans.py", run.rel(traced_spans), str(len(store)), "--",
                   "query", *files, *gate]
        else:
            cmd = [PY, "-m", "drew.cli", "query", *files, *gate]
        code, wall, rss = run.spawn(cmd, tag)
        if code != 0:
            return code, wall, rss, None, None
        timing = json.loads(run.read("timing.json")) if kind == "lookup" else None
        return code, wall, rss, sha(run.read(out, "rb")), timing

    reps = []

    def enough() -> bool:
        if kind == "query":
            return len(reps) >= MIN_REPS
        calls = sum(len(r[4]["latencies_ns"]) for r in reps if r[4])
        return calls >= MIN_LOOKUPS

    timed_loop(run, seconds, lambda: reps.append(one(f"rep{len(reps)}", f"out{len(reps)}.jsonl")),
               enough)

    good = [r for r in reps if r[0] == 0]
    if not good:
        raise SystemExit(f"every timed invocation failed; see {run.work_rel}")
    attempted = count * len(reps)
    failed = count * (len(reps) - len(good))
    problems.extend(f"rep {i} exited {r[0]}" for i, r in enumerate(reps) if r[0] != 0)
    answers = {}  # output digest -> parsed answers
    for i, rep in enumerate(reps):
        if rep[0] == 0 and rep[3] not in answers:
            answers[rep[3]] = verify.parse_results(run.read(f"out{i}.jsonl"))
    for rep in good:
        failed += sum("error" in a for a in answers[rep[3]]) + max(0, count - len(answers[rep[3]]))
    first = answers[good[0][3]]
    digests = set(answers)
    if len(digests) > 1:
        problems.append("outputs differ between repetitions")
    bad, answered, correct = verify.check_answers(store, qids, q_embs, q_gt, first)
    problems.extend(bad)
    info["self_test_rejects_flipped_match"] = verify.self_test_answers(
        store, qids, q_embs, q_gt, first)
    if not info["self_test_rejects_flipped_match"]:
        problems.append("checker self-test did not reject a flipped matched_id")
    info["fallback_share"] = sum(r.get("reliable") is False for r in first) / max(answered, 1)

    walls = [r[1] for r in good]
    metrics = {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(r[2] for r in good),
        "accuracy": correct / count,
    }
    if kind == "lookup":
        timings = [r[4] for r in good]
        lat_us = [ns / 1000.0 for t in timings for ns in t["latencies_ns"]]
        metrics["queries_per_s"] = statistics.median(
            len(t["latencies_ns"]) / t["loop_s"] for t in timings)
        metrics["lookup_p50_us"] = percentile(lat_us, 0.50)
        metrics["lookup_p99_us"] = percentile(lat_us, 0.99)
        metrics["_in_process_setup_s"] = statistics.median(
            t["load_s"] + t["warmup_s"] for t in timings)
        info["latency_samples"] = len(lat_us)
    else:
        metrics["queries_per_s"] = count / metrics["wall_s"]
        # a batch answers every query at exit: each query's latency is its invocation's wall
        metrics["lookup_p50_us"] = percentile(walls, 0.50) * 1e6
        metrics["lookup_p99_us"] = percentile(walls, 0.99) * 1e6
        info["latency_samples"] = count * len(walls)
    info.update(queries_per_rep=count, reps=len(reps), rep_walls_s=[r[1] for r in reps],
                output_digest=min(digests), query_flags=gate,
                inputs_digest=sha(run.read("queries.jsonl", "rb")))

    layers = None
    if trace:
        code, wall, _, digest, _ = one("traced", "traced_out.jsonl", "spans_run.json")
        if code != 0 or digest not in digests:
            problems.append(f"traced run exited {code} or changed the output")
        layers = {"dump": json.loads(run.read("spans_run.json")), "wall": wall,
                  "untraced": metrics["wall_s"], "answered": answered}
    return metrics, attempted, failed, layers


def measure_eval(run: Run, seed: int, seconds: float, trace: bool, store_rows: int,
                 problems: list, info: dict):
    with open(os.path.join(run.root, SUITE_FILE), encoding="utf-8") as fh:
        names = [a["name"] for a in json.load(fh) if not a.get("out_of_dataset", False)]
    with open(os.path.join(run.root, GOLDEN_FILE), encoding="utf-8") as fh:
        golden_points = len(json.load(fh)["points"])

    def command(out_dir: str, traced_spans: str | None):
        args = ["eval", "--store", run.rel("store.drew"), "--suite", SUITE_FILE,
                "--golden", GOLDEN_FILE, "--only", "accuracy,epsilon", "--workers", "1",
                "--n-queries", str(EVAL_QUERIES), "--n-trials", str(EVAL_TRIALS),
                "--seed", str(seed), "--out-dir", run.rel(out_dir), *ROUTED_GATE]
        if traced_spans:
            return [PY, "perfbench/spans.py", run.rel(traced_spans), str(store_rows), "--", *args]
        return [PY, "-m", "drew.cli", *args]

    def outputs(out_dir: str):
        files = ("report.json", "accuracy.csv", "epsilon.csv")
        blobs = [run.read(os.path.join(out_dir, f), "rb") for f in files]
        return json.loads(blobs[0]), sha(b"".join(blobs))

    reps = []

    def step():
        tag = f"rep{len(reps)}"
        code, wall, rss = run.spawn(command(tag, None), tag)
        report = digest = None
        summary = {}
        try:
            summary = json.loads(run.read(f"{tag}.stdout"))
            report, digest = outputs(tag)
        except (OSError, ValueError):
            pass
        reps.append((code, wall, rss, digest, summary, report))

    timed_loop(run, seconds, step, lambda: len(reps) >= MIN_REPS)

    failed = 0
    digests = set()
    first = None
    for i, (code, _, _, digest, summary, report) in enumerate(reps):
        bad = verify.check_eval(code, summary, report or {}, names, EVAL_QUERIES, golden_points)
        if bad:
            failed += 1
            problems.extend(f"rep {i}: {p}" for p in bad)
            continue
        digests.add(digest)
        if first is None:
            first = (summary, report)
    if len(digests) > 1:
        problems.append("eval outputs differ between repetitions")
    if first is None:
        raise SystemExit(f"no eval invocation passed its checks: {problems[:3]}")
    info["self_test_rejects_doctored_report"] = verify.self_test_eval(
        *first, names, EVAL_QUERIES, golden_points)
    if not info["self_test_rejects_doctored_report"]:
        problems.append("checker self-test did not reject a doctored report")
    good = [r for r in reps if r[0] == 0]
    walls = [r[1] for r in good]
    n_queries = EVAL_QUERIES * len(names)
    accs = [a["acc_drew"] for a in first[1]["accuracy"]["attacks"]]
    metrics = {
        "wall_s": statistics.median(walls),
        "queries_per_s": n_queries / statistics.median(walls),
        "lookup_p50_us": percentile(walls, 0.50) * 1e6,
        "lookup_p99_us": percentile(walls, 0.99) * 1e6,
        "peak_rss_mb": statistics.median(r[2] for r in good),
        "accuracy": statistics.fmean(accs),
    }
    info.update(queries_per_rep=n_queries, reps=len(reps), rep_walls_s=[r[1] for r in reps],
                latency_samples=n_queries * len(walls),
                output_digest=min(digests),
                query_flags=ROUTED_GATE + ["--n-queries", str(EVAL_QUERIES),
                                           "--n-trials", str(EVAL_TRIALS)])
    layers = None
    if trace:
        code, wall, _ = run.spawn(command("traced", "spans_run.json"), "traced")
        try:
            digest = outputs("traced")[1]
        except (OSError, ValueError):
            digest = None
        if code != 0 or digest not in digests:
            problems.append(f"traced eval exited {code} or changed the output")
        layers = {"dump": json.loads(run.read("spans_run.json")), "wall": wall,
                  "untraced": metrics["wall_s"], "answered": n_queries}
    return metrics, len(reps), failed, layers


def traced_layers(run: Run, seed: int, store, layers: dict, problems: list) -> dict:
    """Per-layer metrics: traced build + traced timed command + import probe."""
    cmd = [PY, "perfbench/spans.py", run.rel("spans_build.json"), str(len(store)), "--",
           "build", *STORE_ARGS, "--seed", str(seed), "--store", run.rel("store.drew")]
    code, _, _ = run.spawn(cmd, "traced_build")
    if code != 0:
        problems.append(f"traced build exited {code}")
    imports = []
    for i in range(3):
        code, _, _ = run.spawn([PY, "-c", "import time; t = time.perf_counter(); import drew.cli; "
                                "print(time.perf_counter() - t)"], f"import{i}")
        if code == 0:
            imports.append(float(run.read(f"import{i}.stdout")))
    sizes = np.bincount(store.clusters, minlength=1 << store.k)
    out = spans.layer_metrics([json.loads(run.read("spans_build.json")), layers["dump"]],
                              sizes, layers["answered"])
    if imports:
        out["cli.import_s"] = statistics.median(imports)
    out["trace.overhead_s"] = layers["wall"] - layers["untraced"]
    return out


def check_against_earlier(run: Run, workload: str, seed: int, info: dict, problems: list) -> None:
    """Outputs of the same inputs must match earlier runs in this checkout."""
    path = os.path.join(run.root, "perfbench", "work", "digests.json")
    try:
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = {}
    key = f"{workload}/{seed}/{info.get('inputs_digest', '')}/{' '.join(info['query_flags'])}"
    if seen.get(key, info["output_digest"]) != info["output_digest"]:
        problems.append("output differs from an earlier run with the same seed")
    seen[key] = info["output_digest"]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "drew", "cli.py")):
        print(f"no drew source tree at {src}; run from the root of a drew checkout",
              file=sys.stderr)
        return 2
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "machine": machine_facts(src),
            "store_args": STORE_ARGS + ["--seed", str(args.seed)]}
    run = Run(root, args.workload, args.seed)
    problems: list[str] = []

    build_walls = setup(run, args.seed, problems)
    store = inputs.read_store(os.path.join(run.work, "store.drew"))
    if args.workload == "eval":
        metrics, attempted, failed, layers = measure_eval(
            run, args.seed, args.seconds, bool(args.trace), len(store), problems, info)
    else:
        metrics, attempted, failed, layers = measure_queries(
            run, args.workload, args.seed, args.seconds, bool(args.trace), store, problems, info)
    metrics["setup_s"] = statistics.median(build_walls) + metrics.pop("_in_process_setup_s", 0.0)
    metrics["success_rate"] = (attempted - failed) / attempted
    info["build_walls_s"] = build_walls
    check_against_earlier(run, args.workload, args.seed, info, problems)

    values = traced_layers(run, args.seed, store, layers, problems) if args.trace else metrics
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    info["problems"] = problems[:20]
    for name in os.listdir(run.work):
        if name.endswith((".drew", ".jsonl")):
            os.remove(os.path.join(run.work, name))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }
    with open(os.path.join(run.work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
