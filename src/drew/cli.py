"""Command-line surface: build stores, run queries, evaluate, emit curves.

Exit codes: 0 success, 1 usage, 2 data error, 3 acceptance-band violation,
4 calibration required (golden numbers missing; candidates were written).
Errors are reported as one JSON object on stderr.  All output files are
written atomically (temp file + rename) and contain no timestamps, so a
rerun with the same seeds is byte-identical.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from importlib import resources
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

import numpy as np

# drew.evaluation (with concurrent.futures and logging) is imported by the
# functions that use it, so that build and query never load it.
from . import ecc
from .channel import AttackConfig, default_suite, load_suite
from .pipeline import QueryConfig, batch_query, preprocess
from .store import StoreFormatError, ingest_csv, load_store, save_store
from .synthetic import synthetic_store

CURVE_HEADER = "attack,p_A,sigma,metric,value,stderr,seed"

class CliError(Exception):
    exit_code = 2

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class UsageError(CliError):
    exit_code = 1


class DataError(CliError):
    exit_code = 2


# ---------------------------------------------------------------------------
# config plumbing
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {
    "store", "out_dir", "k", "n", "design_p", "seed",
    "reliability_threshold", "tau_r", "reliability_mode",
    "suite", "golden", "n_queries", "n_trials", "synthetic", "csv",
}

_DEFAULTS = {
    "k": 10,
    "n": 100,
    "design_p": 0.1,
    "seed": 7,
    "n_queries": 2000,
    "n_trials": 100000,
}


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise DataError(f"config file is not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise DataError("config file must hold a JSON object")
    unknown = sorted(set(doc) - _CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")
    return doc


def _setting(args, config: dict, key: str, default=None):
    """Flag wins over config file; config wins over the built-in default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return _DEFAULTS.get(key, default)


def _out_dir(args, config) -> str:
    out = _setting(args, config, "out_dir") or os.environ.get("DREW_OUT_DIR") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _query_config(args, config) -> QueryConfig:
    """The gate from flags, then the config file, then QueryConfig's defaults."""
    base = QueryConfig()
    return QueryConfig(
        reliability_threshold=float(
            _setting(args, config, "reliability_threshold", base.reliability_threshold)),
        tau_r=float(_setting(args, config, "tau_r", base.tau_r)),
        reliability_mode=str(_setting(args, config, "reliability_mode", base.reliability_mode)),
    )


# ---------------------------------------------------------------------------
# atomic output helpers
# ---------------------------------------------------------------------------

def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_out(path: str | None, text: str) -> None:
    """Write ``text`` to stdout when ``path`` is None or "-", else atomically
    to ``path``."""
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_atomic(path, text)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _fmt(v) -> str:
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.10g}"
    return str(v)


def _curve_text(rows: list[tuple]) -> str:
    out = [CURVE_HEADER]
    for row in rows:
        out.append(",".join(_fmt(v) for v in row))
    return "\n".join(out) + "\n"


def _binom_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / n)


def _print_json(doc) -> None:
    sys.stdout.write(_json_text(doc))


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def _parse_synthetic(tokens, config) -> tuple[int, int]:
    params = {}
    if isinstance(config.get("synthetic"), dict):
        params.update(config["synthetic"])
    for tok in tokens or ():
        if "=" not in tok:
            raise UsageError(f"--synthetic expects key=value tokens, got {tok!r}")
        key, _, val = tok.partition("=")
        params[key.strip()] = val.strip()
    count = int(params.get("N", params.get("count", 20000)))
    d = int(params.get("d", 64))
    if count < 1 or d < 1:
        raise UsageError("synthetic store needs N >= 1 and d >= 1")
    return count, d


def cmd_build(args) -> int:
    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed"))
    k = int(_setting(args, config, "k"))
    n = int(_setting(args, config, "n"))
    design_p = float(_setting(args, config, "design_p"))
    csv_path = _setting(args, config, "csv")
    out_dir = _out_dir(args, config)
    store_path = _setting(args, config, "store") or os.path.join(out_dir, "store.drew")

    if csv_path is not None and args.synthetic is not None:
        raise UsageError("choose one of --csv and --synthetic")
    if csv_path is not None:
        if not os.path.exists(csv_path):
            raise DataError(f"csv file not found: {csv_path}")
        raw = ingest_csv(csv_path)
    else:
        count, d = _parse_synthetic(args.synthetic, config)
        raw = synthetic_store(count, d, seed)

    store = preprocess(raw, k=k, seed=seed, n=n, design_p=design_p)
    save_store(store, store_path)

    sizes = np.bincount(store.clusters, minlength=1 << k)
    hist: dict[str, int] = {}
    for size in sizes.tolist():
        hist[str(size)] = hist.get(str(size), 0) + 1
    _print_json(
        {
            "store": store_path,
            "count": len(store),
            "d": store.d,
            "k": k,
            "n": n,
            "design_p": design_p,
            "seed": seed,
            "clusters": {
                "total": int(1 << k),
                "empty": int((sizes == 0).sum()),
                "max_size": int(sizes.max()),
                "histogram": hist,
            },
        }
    )
    return 0


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

#: JSON values accepted as ``query_id`` and ``ground_truth_id``.
_SCALARS = (str, int, float, bool, type(None))

#: JSON text of the constants an answer can hold.
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json_scalar(value) -> str:
    """``json.dumps(value)`` for a JSON scalar, with the encoder json uses
    for its type."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float and math.isfinite(value):
        return float.__repr__(value)
    if kind is bool or value is None:
        return _CONSTANTS[value]
    return json.dumps(value)


def _check_id(field: str, value) -> None:
    if not isinstance(value, _SCALARS):
        raise ValueError(f"{field} must be a string, number, boolean or null")
    if type(value) is float and not math.isfinite(value):  # NaN or Infinity: not JSON
        raise ValueError(f"{field} must be finite")


def _read_queries(lines, d: int, n: int, naive: bool):
    """Parse and check query lines, one JSON object per line.

    ``lines`` yields lines that end at "\n" only (stdin, or a file opened
    with ``newline="\n"``); a CRLF line's "\r" is dropped, and a blank
    line is skipped but counted.  A line that fails a check becomes its
    error record, with the line's index as ``query_id`` when its own id is
    unusable.  Returns ``(slots, qids, gts, keys, embs)``: per non-blank
    line, its error line or None, then the good lines' ids, ground truths,
    (B, n) uint8 keys (None if ``naive``) and (B, d) unit embeddings.  Each
    embedding is divided by its norm ``sqrt(e . e)``, which is
    ``np.linalg.norm(e)`` of a 1-D float64 vector.
    """
    slots: list[str | None] = []
    qids, gts, embs, norms = [], [], [], []
    str_keys, str_at, list_keys, list_at = [], [], [], []
    # a huge entry overflows e . e to inf, which the norm check turns into
    # the line's error record; numpy must not also warn on stderr
    with np.errstate(over="ignore"):
        for i, line in enumerate(lines):
            qid = i
            try:
                line = line.rstrip("\r\n")
                if not line.strip():
                    continue
                doc = json.loads(line)
                if type(doc) is not dict:
                    raise ValueError("query line must be a JSON object")
                value = doc.get("query_id", i)
                _check_id("query_id", value)
                qid = value
                gt = doc.get("ground_truth_id")
                _check_id("ground_truth_id", gt)
                try:
                    emb = np.asarray(doc["embedding"], dtype=np.float64)
                except (TypeError, OverflowError):
                    raise ValueError(f"embedding must be {d} finite numbers") from None
                if emb.shape != (d,):
                    raise ValueError(f"embedding must have dim {d}")
                norm = math.sqrt(emb.dot(emb))
                if not math.isfinite(norm) or norm == 0.0:
                    raise ValueError("embedding must be finite and nonzero")
                if not naive:
                    if "key" not in doc:
                        raise ValueError("drew queries need a 'key' field (or use --naive)")
                    key = doc["key"]
                    if type(key) is str:
                        # n characters, each 0 or 1 (as key.strip("01") == "", but faster)
                        if len(key) != n or key.count("0") + key.count("1") != n:
                            raise ValueError(f"key must be {n} characters of 0/1")
                        str_at.append(len(embs))
                        str_keys.append(key)
                    # exact 0/1 integers only: 0.7 or true must not pass as a bit
                    elif (type(key) is not list or len(key) != n
                            or any(type(b) is not int or b not in (0, 1) for b in key)):
                        raise ValueError(f"key must be {n} bits")
                    else:
                        list_at.append(len(embs))
                        list_keys.append(key)
            except (ValueError, KeyError, RecursionError) as exc:  # RecursionError: nested too deep
                slots.append(json.dumps({"query_id": qid, "error": str(exc)}, sort_keys=True))
                continue
            slots.append(None)
            qids.append(qid)
            gts.append(gt)
            embs.append(emb)
            norms.append(norm)

    count = len(embs)
    embs = np.stack(embs) if count else np.empty((0, d))
    # one division per element, as emb / norm row by row
    embs /= np.array(norms)[:, None]
    keys = None
    if not naive:
        keys = np.empty((count, n), dtype=np.uint8)
        if str_keys:
            chars = np.frombuffer("".join(str_keys).encode("ascii"), dtype=np.uint8)
            keys[str_at] = chars.reshape(-1, n) - ord("0")
        if list_keys:
            keys[list_at] = np.array(list_keys, dtype=np.uint8)
    return slots, qids, gts, keys, embs


def _answer_lines(slots, results, qids, gts) -> list[str]:
    """Output lines in input order: each answer from one template, in the
    form ``json.dumps(answer, sort_keys=True)`` writes, and each error line
    in its slot."""
    # matched_id and scope_size are ints, decoded_code an int or None and
    # reliable a bool or None (QueryResult); str() of an int is its repr
    answers = iter([
        f'{{"decoded_code": {"null" if r.decoded_code is None else r.decoded_code}, '
        f'"ground_truth_id": {_json_scalar(gt)}, "matched_id": {r.matched_id}, '
        f'"query_id": {_json_scalar(qid)}, "reliable": {_CONSTANTS[r.reliable]}, '
        f'"scope_size": {r.scope_size}, "similarity": {_json_scalar(r.similarity)}}}'
        for r, qid, gt in zip(results, qids, gts)
    ])
    return [next(answers) if slot is None else slot for slot in slots]


def cmd_query(args) -> int:
    config = _load_config(args.config)
    store_path = _setting(args, config, "store")
    if store_path is None:
        raise UsageError("query needs --store")
    store = load_store(store_path)
    cfg = _query_config(args, config)
    shape = (store.d, store.spec.n, args.naive)

    if args.queries == "-":
        slots, qids, gts, keys, embs = _read_queries(sys.stdin, *shape)
    else:
        if not os.path.exists(args.queries):
            raise DataError(f"query file not found: {args.queries}")
        with open(args.queries, encoding="utf-8", newline="\n") as fh:
            slots, qids, gts, keys, embs = _read_queries(fh, *shape)

    results = batch_query(store, keys, embs, cfg, naive=args.naive) if qids else []
    out_lines = _answer_lines(slots, results, qids, gts)
    _write_out(args.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _load_golden(path: str | None) -> dict | None:
    """The golden file at ``path``, or the packaged one; None if absent."""
    if path is None:
        ref = resources.files("drew").joinpath("data/golden_epsilon_r.json")
        return json.loads(ref.read_text(encoding="utf-8")) if ref.is_file() else None
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _stage_accuracy(store, run):
    from . import evaluation

    report = evaluation.run_accuracy_eval(
        store, run.in_dataset, run.cfg, run.n_queries, run.seed, workers=run.workers
    )
    seed = run.seed
    rows = []
    violations = []
    for r in report.attacks:
        for metric in ("acc_drew", "acc_naive", "epsilon_r", "p_reliable", "gain_term",
                       "loss_term"):
            value = getattr(r, metric)
            rows.append(
                (r.name, r.p_a, r.sigma, metric, value, _binom_se(value, r.n_queries), seed)
            )
        rows.append((r.name, r.p_a, r.sigma, "difference", r.difference, r.eq1_band / 3.0, seed))
        if not r.eq1_ok:
            violations.append(f"eq1 decomposition band failed for attack {r.name}")
        if not r.never_worse_ok:
            violations.append(f"never-worse band failed for attack {r.name}")
        if not r.fallback_identity:
            violations.append(f"fallback identity failed for attack {r.name}")
    return report.to_dict(), rows, violations, False


def _stage_epsilon(store, run):
    """Golden-number check; without a golden file, writes a candidate one
    and asks for calibration."""
    from . import evaluation

    spec = store.spec
    golden = _load_golden(run.golden)
    if golden is None:
        grid = [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
        estimates = evaluation.epsilon_sweep(store, grid, run.n_trials, run.seed, run.cfg)
        candidate = {
            "spec": spec.to_dict(),
            "threshold": run.cfg.reliability_threshold,
            "reliability_mode": run.cfg.reliability_mode,
            "n_trials": run.n_trials,
            "seed": run.seed,
            "points": [{"p_A": e.p_a, "value": e.value, "n_reliable": e.n_reliable}
                       for e in estimates],
        }
        path = os.path.join(run.out_dir, "golden_epsilon_r.candidate.json")
        _write_atomic(path, _json_text(candidate))
        return {"status": "calibration-required", "candidate": path}, None, [], True
    mismatch = [
        key for key in ("k", "n", "block_len", "design_p")
        if golden["spec"][key] != getattr(spec, key)
    ]
    if mismatch:
        return (
            {"status": "skipped", "reason": f"store spec differs from golden: {mismatch}"},
            None, [], False,
        )
    # the golden's own threshold and mode, not the run's gate
    ok, rows = evaluation.check_epsilon_goldens(store, golden, run.seed, n_trials=run.n_trials)
    curve = [
        ("epsilon_sweep", r["p_A"], 0.0, "epsilon_r", r["estimate"], r["band"] / 3.0, run.seed)
        for r in rows
    ]
    violations = [] if ok else [
        f"epsilon_r golden band failed at p_A={r['p_A']}" for r in rows if not r["ok"]
    ]
    return {"status": "ok" if ok else "violation", "points": rows}, curve or None, violations, False


def _stage_lemma1(store, run):
    from . import evaluation

    attack = AttackConfig(name="lemma-regime", p_a=0.0, sigma=0.45)
    rec = evaluation.lemma1_check(
        store, attack, store.spec.k, (2, 5, 10, 20), run.n_queries, run.seed
    )
    return rec.to_dict(), None, [] if rec.holds else ["lemma1 bound failed"], False


def _stage_roc(store, run):
    from . import evaluation

    by_name = {a.name: a for a in run.suite}
    if run.roc_attack not in by_name:
        raise UsageError(f"--roc-attack {run.roc_attack!r} is not in the suite")
    attack = by_name[run.roc_attack]
    rec = evaluation.roc_eval(store, attack, run.n_in, run.n_out, run.seed, run.cfg)
    curve = [
        (attack.name, attack.p_a, attack.sigma, metric, getattr(rec, metric), 0.0, run.seed)
        for metric in ("auroc_drew", "auroc_naive", "tpr_at_fpr_0_1_drew", "tpr_at_fpr_0_1_naive")
    ]
    violations = []
    if rec.auroc_drew < rec.auroc_naive - 0.01:
        violations.append("drew AUROC fell more than 0.01 below naive AUROC")
    return rec.to_dict(), curve, violations, False


def _stage_subset(store, run):
    from . import evaluation

    attack = AttackConfig(name="subset-regime", p_a=0.0, sigma=0.5)
    k_grid = [0, 2, 4, 6, 8, 10, 12]
    rows = evaluation.cluster_subset_accuracy(store, attack, k_grid, run.n_queries, run.seed)
    curve = [
        ("subset-regime", 0.0, 0.5, f"subset_accuracy_k{r['k']}", r["accuracy"],
         _binom_se(r["accuracy"], run.n_queries), run.seed)
        for r in rows
    ]
    accs = [r["accuracy"] for r in rows]
    violations = []
    if any(a > b + 1e-12 for a, b in zip(accs, accs[1:])):
        violations.append("subset accuracy is not non-decreasing in k")
    return rows, curve, violations, False


def _capacity_rows(grid, seed) -> tuple[list[dict], list[tuple]]:
    from . import evaluation

    table = evaluation.capacity_curve(grid)
    curve = []
    for row in table:
        curve.append(("-", row["p_A"], 0.0, "capacity", row["capacity"], 0.0, seed))
        curve.append(("-", row["p_A"], 0.0, "min_redundancy", row["min_redundancy"], 0.0, seed))
    return table, curve


def _stage_capacity(store, run):
    grid = np.round(np.linspace(0.0, 0.5, 51), 6).tolist()
    return (*_capacity_rows(grid, run.seed), [], False)


#: ``drew eval``'s stages in run order: ``--only`` name -> (report key, CSV
#: file or None, stage function).  A stage function takes ``(store, run)``,
#: ``run`` holding the settings :func:`cmd_eval` resolves, and returns
#: ``(section, rows or None, violations, calibration_needed)``; its rows
#: go to its CSV file, which is not written when they are None.
_STAGES = {
    "accuracy": ("accuracy", "accuracy.csv", _stage_accuracy),
    "epsilon": ("epsilon_golden", "epsilon.csv", _stage_epsilon),
    "lemma1": ("lemma1", None, _stage_lemma1),
    "roc": ("roc", "roc.csv", _stage_roc),
    "subset": ("subset", "subset.csv", _stage_subset),
    "capacity-curve": ("capacity", "capacity.csv", _stage_capacity),
}


def cmd_eval(args) -> int:
    config = _load_config(args.config)
    store_path = _setting(args, config, "store")
    if store_path is None:
        raise UsageError("eval needs --store")
    store = load_store(store_path)
    run = SimpleNamespace(  # keyword arguments run in order: the out dir is made last
        cfg=_query_config(args, config),
        seed=int(_setting(args, config, "seed")),
        n_queries=int(_setting(args, config, "n_queries")),
        n_trials=int(_setting(args, config, "n_trials")),
        golden=_setting(args, config, "golden"),
        workers=args.workers, n_in=args.n_in, n_out=args.n_out, roc_attack=args.roc_attack,
        out_dir=_out_dir(args, config),
    )
    suite_path = _setting(args, config, "suite")
    run.suite = load_suite(suite_path) if suite_path is not None else default_suite()
    run.in_dataset = [a for a in run.suite if not a.out_of_dataset]

    stages = list(_STAGES) if not args.only else args.only.split(",")
    for stage in stages:
        if stage not in _STAGES:
            raise UsageError(f"unknown stage {stage!r}; expected one of {', '.join(_STAGES)}")

    report: dict = {
        "store": {
            "path": store_path,
            "count": len(store),
            "d": store.d,
            "k": store.spec.k,
            "n": store.spec.n,
            "design_p": store.spec.design_p,
        },
        "config": {
            "seed": run.seed,
            "n_queries": run.n_queries,
            "n_trials": run.n_trials,
            "reliability_threshold": run.cfg.reliability_threshold,
            "tau_r": run.cfg.tau_r,
            "reliability_mode": run.cfg.reliability_mode,
        },
        "stages": stages,
    }
    violations: list[str] = []
    calibration_needed = False
    for name, (key, csv_name, stage) in _STAGES.items():
        if name not in stages:
            continue
        section, rows, bad, missing = stage(store, run)
        report[key] = section
        violations += bad
        calibration_needed |= missing
        if csv_name is not None and rows is not None:
            _write_atomic(os.path.join(run.out_dir, csv_name), _curve_text(rows))

    report["violations"] = violations
    report["calibration_required"] = calibration_needed
    exit_code = 3 if violations else (4 if calibration_needed else 0)
    report["exit_code"] = exit_code
    _write_atomic(os.path.join(run.out_dir, "report.json"), _json_text(report))
    _print_json(
        {
            "report": os.path.join(run.out_dir, "report.json"),
            "violations": violations,
            "calibration_required": calibration_needed,
            "exit_code": exit_code,
        }
    )
    return exit_code


# ---------------------------------------------------------------------------
# capacity-curve / ecc-bench
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> list[float]:
    try:
        if ":" not in text:
            grid = [float(tok) for tok in text.split(",") if tok.strip()]
        else:
            start, stop, num = text.split(":")
            if int(num) < 2:
                raise UsageError("grid needs at least 2 points")
            ends = [float(start), float(stop)]
            if not np.isfinite(ends).all():  # linspace would warn, then fill NaN
                raise UsageError("grid points must be finite")
            grid = np.round(np.linspace(*ends, int(num)), 10).tolist()
    except ValueError:
        raise UsageError("grid must be start:stop:num or comma-separated points") from None
    if not grid:
        raise UsageError("grid needs at least one point")
    if not np.isfinite(grid).all():
        raise UsageError("grid points must be finite")
    return grid


def _attach_grid(argv: list[str]) -> list[str]:
    """``--grid VALUE`` as ``--grid=VALUE`` where VALUE starts with one
    ``-``: argparse takes such a value for an option unless it is a plain
    negative number, so ``--grid -inf`` would never reach
    :func:`_parse_grid` and its usage error."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--grid" and out[i + 1].startswith("-") and not out[i + 1].startswith("--"):
            out[i : i + 2] = [f"--grid={out[i + 1]}"]
    return out


def cmd_capacity_curve(args) -> int:
    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed"))
    grid = _parse_grid(args.grid)
    if any(p < 0.0 or p > 0.5 for p in grid):
        raise UsageError("capacity grid must lie within [0, 0.5]")
    _, rows = _capacity_rows(grid, seed)
    _write_out(args.out, _curve_text(rows))
    return 0


def cmd_ecc_bench(args) -> int:
    from . import evaluation

    config = _load_config(args.config)
    seed = int(_setting(args, config, "seed"))
    k = int(_setting(args, config, "k"))
    n = int(_setting(args, config, "n"))
    design_p = float(_setting(args, config, "design_p"))
    spec = ecc.construct_code(k, n, design_p)
    grid = _parse_grid(args.grid)
    rows = evaluation.fer_sweep(spec, grid, args.frames, seed)
    curve = []
    for r in rows:
        curve.append(("-", r["p_A"], 0.0, "fer", r["fer"], r["stderr"], seed))
        curve.append(
            ("-", r["p_A"], 0.0, "p_reliable", r["p_reliable"],
             _binom_se(r["p_reliable"], r["frames"]), seed)
        )
    _write_out(args.out, _curve_text(curve))
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drew",
        description="Watermark-keyed cluster routing with error-corrected decoding "
        "over an exact embedding store.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON config file; flags override its values")
        if seed:
            p.add_argument("--seed", type=int, default=None)

    def gate(p):
        # no defaults here: _query_config falls back to QueryConfig's
        p.add_argument("--reliability-threshold", dest="reliability_threshold", type=float)
        p.add_argument("--tau-r", dest="tau_r", type=float)
        p.add_argument("--reliability-mode", dest="reliability_mode",
                       choices=ecc.RELIABILITY_MODES)

    b = sub.add_parser("build", help="build a clustered store (synthetic or CSV)")
    common(b)
    b.add_argument("--synthetic", nargs="*", metavar="KEY=VAL",
                   help="synthetic store parameters, e.g. N=20000 d=64")
    b.add_argument("--csv", default=None, help="ingest embeddings from CSV")
    b.add_argument("--store", default=None, help="output store path")
    b.add_argument("--out-dir", default=None)
    b.add_argument("--k", type=int, default=None)
    b.add_argument("--n", type=int, default=None)
    b.add_argument("--design-p", dest="design_p", type=float, default=None)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="run queries from a JSON-lines file")
    common(q, seed=False)
    q.add_argument("--store", default=None)
    q.add_argument("--queries", required=True, help="JSONL file of queries, or - for stdin")
    q.add_argument("--naive", action="store_true", help="full-store scan, ignore keys")
    q.add_argument("--out", default=None, help="output JSONL path (default stdout)")
    gate(q)
    q.set_defaults(func=cmd_query)

    e = sub.add_parser("eval", help="run the evaluation suite and emit reports")
    common(e)
    e.add_argument("--store", default=None)
    e.add_argument("--suite", default=None, help="attack suite JSON (default: packaged)")
    e.add_argument("--golden", default=None, help="golden epsilon_r file (default: packaged)")
    e.add_argument("--out-dir", default=None)
    e.add_argument("--n-queries", dest="n_queries", type=int, default=None)
    e.add_argument("--n-trials", dest="n_trials", type=int, default=None)
    e.add_argument("--only", default=None,
                   help=f"comma-separated stages from: {', '.join(_STAGES)}")
    e.add_argument("--workers", type=int, default=1)
    e.add_argument("--n-in", dest="n_in", type=int, default=1000)
    e.add_argument("--n-out", dest="n_out", type=int, default=1000)
    e.add_argument("--roc-attack", default="crop_0.5")
    gate(e)
    e.set_defaults(func=cmd_eval)

    c = sub.add_parser("capacity-curve", help="rate limit table over flip rates")
    common(c)
    c.add_argument("--grid", default="0.0:0.5:51", help="start:stop:num or p1,p2,...")
    c.add_argument("--out", default=None)
    c.set_defaults(func=cmd_capacity_curve)

    x = sub.add_parser("ecc-bench", help="frame-error-rate sweep for the code alone")
    common(x)
    x.add_argument("--k", type=int, default=None)
    x.add_argument("--n", type=int, default=None)
    x.add_argument("--design-p", dest="design_p", type=float, default=None)
    x.add_argument("--grid", default="0.0,0.05,0.1,0.15,0.2,0.25,0.3")
    x.add_argument("--frames", type=int, default=10000)
    x.add_argument("--out", default=None)
    x.set_defaults(func=cmd_ecc_bench)

    return parser


def _emit_error(exc: CliError) -> None:
    sys.stderr.write(
        json.dumps(
            {"error": type(exc).__name__, "message": exc.message,
             "exit_code": exc.exit_code},
            sort_keys=True,
        )
        + "\n"
    )


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_grid(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage problems; the contract reserves 2 for
        # data errors, so remap while keeping --help's clean exit.
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except CliError as exc:
        _emit_error(exc)
        return exc.exit_code
    except (StoreFormatError, ValueError, KeyError) as exc:
        _emit_error(DataError(str(exc)))
        return 2
    except OSError as exc:
        _emit_error(DataError(str(exc)))
        return 2


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
