from __future__ import annotations

import hashlib
import io
import json
import os
from importlib import resources

import numpy as np
import pytest

from drew import ecc
from drew.cli import _STAGES, CURVE_HEADER, _query_config, build_parser, main
from drew.pipeline import QueryConfig, preprocess
from drew.store import export_csv, save_store
from drew.synthetic import synthetic_store


def _build_store(path, count=300, d=16, k=6, n=32, seed=5):
    store = preprocess(synthetic_store(count, d, seed=seed), k=k, seed=seed, n=n)
    save_store(store, path)
    return store


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _query_line(store, i, qid):
    return json.dumps(
        {
            "query_id": qid,
            "key": "".join(str(b) for b in store.cluster_keys[store.clusters[i]].tolist()),
            "embedding": store.embeddings[i].tolist(),
            "ground_truth_id": int(store.ids[i]),
        }
    )


# ---------------------------------------------------------------------------
# build
# ---------------------------------------------------------------------------

def test_build_summary_and_rebuild_identical(tmp_path, capsys):
    s1 = tmp_path / "a.drew"
    s2 = tmp_path / "b.drew"
    argv = ["build", "--synthetic", "N=300", "d=16", "--k", "6", "--n", "32",
            "--seed", "5"]
    code, out, _ = _run(capsys, argv + ["--store", str(s1)])
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 300 and doc["d"] == 16 and doc["k"] == 6
    clusters = doc["clusters"]
    assert clusters["total"] == 64
    assert sum(clusters["histogram"].values()) == 64
    assert clusters["max_size"] >= 300 / 64
    occupied = 64 - clusters["empty"]
    assert occupied == sum(
        c for size, c in clusters["histogram"].items() if size != "0"
    )

    code, _, _ = _run(capsys, argv + ["--store", str(s2)])
    assert code == 0
    assert s1.read_bytes() == s2.read_bytes()


@pytest.mark.parametrize("argv,sha256", [
    (["N=300", "d=16", "--k", "6", "--n", "32", "--seed", "5"],
     "bd842896411607a062563d4736d33c99ddaac4dd0b43077321630434f529b3bd"),
    (["N=500", "d=8", "--k", "10", "--n", "100", "--seed", "3"],
     "d6e6eac2b0c32fca02c009adac25366677d661f440f62068451abb31777dd640"),
    # 3 quantize blocks of _CHECK_ROWS rows, 6 record writes of _READ_BYTES
    (["N=20000", "d=64", "--k", "10", "--n", "100"],
     "2c69b83bdda6b3e4106082422b627d11df5dacc9c17a8cb801095318c5884214"),
])
def test_build_file_bytes_pinned(tmp_path, capsys, argv, sha256):
    """Store files are pinned byte for byte (format v1), whatever dtype the
    rows are held in; the hashes were taken from float64-held rows."""
    path = tmp_path / "s.drew"
    code, _, _ = _run(capsys, ["build", "--synthetic", *argv, "--store", str(path)])
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_build_from_csv(tmp_path, capsys):
    csv_path = tmp_path / "emb.csv"
    export_csv(synthetic_store(120, 8, seed=3), csv_path)
    code, out, _ = _run(capsys, [
        "build", "--csv", str(csv_path), "--store", str(tmp_path / "c.drew"),
        "--k", "4", "--n", "16", "--seed", "1",
    ])
    assert code == 0
    assert json.loads(out)["count"] == 120


def test_build_from_csv_rejects_id_beyond_u64(tmp_path, capsys):
    csv_path = tmp_path / "emb.csv"
    csv_path.write_text("id,v0,v1\n1,0.6,0.8\n18446744073709551616,1.0,0.0\n")
    code, _, err = _run(capsys, [
        "build", "--csv", str(csv_path), "--store", str(tmp_path / "c.drew"),
        "--k", "1", "--n", "2",
    ])
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "DataError"
    assert "18446744073709551616" in doc["message"]
    assert not (tmp_path / "c.drew").exists()


def test_build_usage_and_data_errors(tmp_path, capsys):
    base = ["build", "--store", str(tmp_path / "x.drew")]
    code, _, err = _run(capsys, base + ["--synthetic", "N=50", "d=8",
                                        "--csv", str(tmp_path / "nope.csv")])
    assert code == 1
    assert json.loads(err)["error"] == "UsageError"

    code, _, err = _run(capsys, base + ["--csv", str(tmp_path / "nope.csv")])
    assert code == 2
    assert json.loads(err)["error"] == "DataError"

    # k greater than n cannot be constructed
    code, _, err = _run(capsys, base + ["--synthetic", "N=50", "d=8",
                                        "--k", "20", "--n", "16"])
    assert code == 2
    assert json.loads(err)["exit_code"] == 2

    code, _, err = _run(capsys, base + ["--synthetic", "N=zero"])
    assert code == 2


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

def test_query_roundtrip_with_bad_line(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    store = _build_store(store_path)
    qfile = tmp_path / "q.jsonl"
    lines = [
        _query_line(store, 0, "first"),
        json.dumps({"query_id": "bad", "key": "01", "embedding": [1.0, 0.0]}),
        _query_line(store, 5, "third"),
        "not json",
    ]
    qfile.write_text("\n".join(lines) + "\n")

    code, out, _ = _run(capsys, ["query", "--store", str(store_path),
                                 "--queries", str(qfile)])
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert len(docs) == 4
    assert docs[0]["query_id"] == "first"
    assert docs[0]["matched_id"] == docs[0]["ground_truth_id"]
    assert docs[0]["reliable"] is True
    assert "error" in docs[1]
    assert docs[1]["query_id"] == "bad"
    assert docs[2]["matched_id"] == docs[2]["ground_truth_id"]
    assert docs[3]["query_id"] == 3 and "error" in docs[3]


def _hostile_lines(store, good_emb):
    """(name, line, query_id of its error record) for lines that each must
    become one error record; sitting second in a file, a line whose own id
    cannot be read is reported by its index, 1."""
    n, d = store.spec.n, store.d
    key = "0" * n
    deep = "[" * 100_000 + "]" * 100_000
    huge = "[" + "1" + "0" * 400 + ", 0" * (d - 1) + "]"
    emb = json.dumps(good_emb)
    return [
        ("embedding object",
         json.dumps({"query_id": "e", "key": key, "embedding": {"a": 1}}), "e"),
        ("key object",
         json.dumps({"query_id": "k", "key": {"x": 1}, "embedding": good_emb}), "k"),
        ("huge integer",
         '{"query_id": "h", "key": "%s", "embedding": %s}' % (key, huge), "h"),
        ("deep array", deep, 1),
        ("deep embedding",
         '{"query_id": "n", "key": "%s", "embedding": %s}' % (key, deep), 1),
        ("fractional key",
         json.dumps({"query_id": "f", "key": [0.7] * n, "embedding": good_emb}), "f"),
        ("boolean key",
         json.dumps({"query_id": "b", "key": [True] * n, "embedding": good_emb}), "b"),
        ("deep query_id",
         '{"query_id": %s, "key": "%s", "embedding": %s}'
         % ("[" * 990 + "]" * 990, key, emb), 1),
    ]


def test_query_hostile_lines_fail_per_line(tmp_path, capsys):
    """Each hostile line yields exactly one error record, the good lines'
    answers stay byte-identical, and the run exits 0."""
    store_path = tmp_path / "s.drew"
    store = _build_store(store_path)
    good = [_query_line(store, 0, "g0"), _query_line(store, 5, "g1")]
    qfile = tmp_path / "q.jsonl"
    qfile.write_text("\n".join(good) + "\n")
    code, clean, _ = _run(capsys, ["query", "--store", str(store_path),
                                   "--queries", str(qfile)])
    assert code == 0
    clean = clean.splitlines()
    good_emb = json.loads(good[0])["embedding"]
    for name, bad, qid in _hostile_lines(store, good_emb):
        qfile.write_text("\n".join([good[0], bad, good[1]]) + "\n")
        code, out, _ = _run(capsys, ["query", "--store", str(store_path),
                                     "--queries", str(qfile)])
        assert code == 0, name
        lines = out.splitlines()
        assert len(lines) == 3, name
        assert [lines[0], lines[2]] == clean, name
        doc = json.loads(lines[1])
        assert set(doc) == {"query_id", "error"}, name
        assert doc["query_id"] == qid, name


def test_query_key_as_bit_list_and_naive(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    store = _build_store(store_path)
    qfile = tmp_path / "q.jsonl"
    qfile.write_text(json.dumps({
        "query_id": 0,
        "key": store.cluster_keys[store.clusters[7]].tolist(),
        "embedding": store.embeddings[7].tolist(),
    }) + "\n")

    code, out, _ = _run(capsys, ["query", "--store", str(store_path),
                                 "--queries", str(qfile)])
    assert code == 0
    doc = json.loads(out)
    assert doc["matched_id"] == int(store.ids[7])
    assert doc["scope_size"] < len(store)

    code, out, _ = _run(capsys, ["query", "--store", str(store_path),
                                 "--queries", str(qfile), "--naive"])
    assert code == 0
    ndoc = json.loads(out)
    assert ndoc["matched_id"] == int(store.ids[7])
    assert ndoc["decoded_code"] is None
    assert ndoc["reliable"] is None
    assert ndoc["scope_size"] == len(store)


def test_query_forced_fallback_matches_naive(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    store = _build_store(store_path)
    rng = np.random.default_rng(0)
    qfile = tmp_path / "q.jsonl"
    lines = []
    for i in range(10):
        emb = store.embeddings[i] + 0.5 * rng.standard_normal(store.d)
        lines.append(json.dumps({
            "query_id": i,
            "key": store.cluster_keys[store.clusters[i]].tolist(),
            "embedding": emb.tolist(),
        }))
    qfile.write_text("\n".join(lines) + "\n")

    code, drew_out, _ = _run(capsys, [
        "query", "--store", str(store_path), "--queries", str(qfile),
        "--reliability-threshold", "1e9",
    ])
    assert code == 0
    code, naive_out, _ = _run(capsys, [
        "query", "--store", str(store_path), "--queries", str(qfile), "--naive",
    ])
    assert code == 0
    for dl, nl in zip(drew_out.splitlines(), naive_out.splitlines()):
        d, n = json.loads(dl), json.loads(nl)
        assert d["reliable"] is False
        assert d["matched_id"] == n["matched_id"]
        assert d["similarity"] == n["similarity"]


def test_query_rejects_nan_reliability_threshold(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    store = _build_store(store_path, count=60)
    qfile = tmp_path / "q.jsonl"
    qfile.write_text(_query_line(store, 3, "a") + "\n")
    code, out, err = _run(capsys, ["query", "--store", str(store_path), "--queries",
                                   str(qfile), "--reliability-threshold", "nan"])
    assert code == 2 and out == ""
    assert "reliability_threshold" in json.loads(err)["message"]


def test_query_stdin_and_out_file(tmp_path, capsys, monkeypatch):
    store_path = tmp_path / "s.drew"
    store = _build_store(store_path)
    monkeypatch.setattr("sys.stdin", io.StringIO(_query_line(store, 3, "x") + "\n"))
    out_path = tmp_path / "res.jsonl"
    code, out, _ = _run(capsys, ["query", "--store", str(store_path),
                                 "--queries", "-", "--out", str(out_path)])
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["query_id"] == "x"


def test_query_errors(tmp_path, capsys):
    code, _, err = _run(capsys, ["query", "--queries", "nope.jsonl"])
    assert code == 1
    assert json.loads(err)["error"] == "UsageError"

    code, _, err = _run(capsys, ["query", "--store", str(tmp_path / "missing.drew"),
                                 "--queries", "nope.jsonl"])
    assert code == 2
    assert json.loads(err)["exit_code"] == 2

    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=60)
    code, _, err = _run(capsys, ["query", "--store", str(store_path),
                                 "--queries", str(tmp_path / "nope.jsonl")])
    assert code == 2


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

#: report.json keys every ``drew eval`` run writes, whatever its stages
_REPORT_KEYS = {"store", "config", "stages", "violations", "calibration_required", "exit_code"}


@pytest.mark.parametrize("name", list(_STAGES))
def test_eval_capacity_stage_only(tmp_path, capsys, name):
    """``--only <name>`` runs exactly that table entry: its report key is
    filled, its CSV (if it declares one) is the only one written, and the
    run exits 0.  The store has the packaged golden's code shape, so the
    epsilon stage checks it and writes its CSV."""
    key, csv_name, _ = _STAGES[name]
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=300, d=8, k=10, n=100)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["eval", "--store", str(store_path),
                                 "--out-dir", str(out_dir), "--only", name,
                                 "--n-queries", "60", "--n-trials", "2500",
                                 "--n-in", "40", "--n-out", "40"])
    assert code == 0, out
    assert json.loads(out)["exit_code"] == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert set(report) == _REPORT_KEYS | {key}
    assert report[key] and report["stages"] == [name]  # the stage filled its section
    written = {p.name for p in out_dir.iterdir()}
    assert written == {"report.json"} | ({csv_name} if csv_name else set())
    if csv_name:
        assert (out_dir / csv_name).read_text().splitlines()[0] == CURVE_HEADER
    if name == "capacity-curve":
        assert report["capacity"][0]["capacity"] == 1.0


def test_eval_small_full_run_deterministic(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=400, d=16, k=6, n=32)
    argv = ["eval", "--store", str(store_path), "--n-queries", "150",
            "--n-in", "80", "--n-out", "80"]

    outs = []
    for name in ("o1", "o2"):
        out_dir = tmp_path / name
        code, out, _ = _run(capsys, argv + ["--out-dir", str(out_dir)])
        assert code == 0, out
        outs.append(out_dir)
    report = json.loads((outs[0] / "report.json").read_text())
    # the packaged golden pins a different code shape, so it must be skipped
    assert report["epsilon_golden"]["status"] == "skipped"
    assert report["violations"] == []
    assert report["lemma1"]["holds"] is True
    for fname in ("report.json", "accuracy.csv", "roc.csv", "subset.csv",
                  "capacity.csv"):
        assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()
    acc = (outs[0] / "accuracy.csv").read_text().splitlines()
    assert acc[0] == CURVE_HEADER
    assert len(acc) > 1 and all(len(r.split(",")) == 7 for r in acc[1:])


#: SHA-256 of every file ``drew eval --only accuracy,epsilon,lemma1,subset``
#: writes for a 3000 x 16 store at the golden's code shape (k=10, n=100).
_EVAL_PINS = {
    "report.json":
        "97486b32ce032eef105e3247e39333c5660183e63ac834e91803e14e1b688d78",
    "accuracy.csv":
        "7670d7c6a0be0b268ed36bb21578cee09c9c75a43f341bed49b025166017be5f",
    "epsilon.csv":
        "2cde561c0bd4962b80c883edb64ee0746ef8b6595adeb45fc0be810dd862bf43",
    "subset.csv":
        "b32c0bb5d77de8c4a87f3cf4223a4ad5bc7e4c29adfa23679f55c0d270590fc8",
}
_PINNED_EVAL = ["eval", "--store", "s.drew", "--out-dir", "out",
                "--only", "accuracy,epsilon,lemma1,subset",
                "--n-queries", "150", "--n-trials", "2500", "--seed", "7"]


def _pinned_eval_files(tmp_path, monkeypatch, capsys, workers):
    """Run the pinned eval in ``tmp_path`` (relative paths, so the report's
    store path is the same in every run); returns {file name: bytes}."""
    monkeypatch.chdir(tmp_path)
    if not (tmp_path / "s.drew").exists():
        _build_store(tmp_path / "s.drew", count=3000, d=16, k=10, n=100, seed=5)
    code, out, err = _run(capsys, _PINNED_EVAL + ["--workers", str(workers)])
    assert code == 0 and err == "", out + err
    return {p.name: p.read_bytes() for p in sorted((tmp_path / "out").iterdir())}


def test_eval_output_bytes_pinned(tmp_path, monkeypatch, capsys):
    files = _pinned_eval_files(tmp_path, monkeypatch, capsys, workers=1)
    assert json.loads(files["report.json"])["epsilon_golden"]["status"] == "ok"
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == _EVAL_PINS


def test_eval_workers_write_the_same_bytes(tmp_path, monkeypatch, capsys):
    one = _pinned_eval_files(tmp_path, monkeypatch, capsys, workers=1)
    assert _pinned_eval_files(tmp_path, monkeypatch, capsys, workers=3) == one


def test_eval_golden_check_passes_at_spec_shape(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=300, d=8, k=10, n=100)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["eval", "--store", str(store_path),
                                 "--out-dir", str(out_dir),
                                 "--only", "epsilon", "--n-trials", "2500"])
    assert code == 0, out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["epsilon_golden"]["status"] == "ok"
    eps = (out_dir / "epsilon.csv").read_text().splitlines()
    assert eps[0] == CURVE_HEADER
    assert len(eps) == 1 + 6


def test_eval_missing_golden_requests_calibration(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=200, d=8, k=10, n=100)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["eval", "--store", str(store_path),
                                 "--out-dir", str(out_dir),
                                 "--only", "epsilon", "--n-trials", "400",
                                 "--golden", str(tmp_path / "absent.json")])
    assert code == 4
    doc = json.loads(out)
    assert doc["calibration_required"] is True
    candidate = json.loads((out_dir / "golden_epsilon_r.candidate.json").read_text())
    assert candidate["n_trials"] == 400
    assert len(candidate["points"]) == 6
    assert candidate["spec"]["k"] == 10 and candidate["spec"]["n"] == 100
    report = json.loads((out_dir / "report.json").read_text())
    assert report["exit_code"] == 4


def test_eval_tampered_golden_fails_named_point(tmp_path, capsys):
    golden = json.loads(
        resources.files("drew").joinpath("data/golden_epsilon_r.json").read_text()
    )
    golden["points"][4]["value"] = float(golden["points"][4]["value"]) + 0.3
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(golden))
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=200, d=8, k=10, n=100)
    out_dir = tmp_path / "out"
    code, out, _ = _run(capsys, ["eval", "--store", str(store_path),
                                 "--out-dir", str(out_dir),
                                 "--only", "epsilon", "--n-trials", "2500",
                                 "--golden", str(bad_path)])
    assert code == 3
    doc = json.loads(out)
    p_bad = golden["points"][4]["p_A"]
    assert doc["violations"] == [f"epsilon_r golden band failed at p_A={p_bad}"]


def test_eval_usage_errors(tmp_path, capsys):
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=60)
    code, _, err = _run(capsys, ["eval", "--store", str(store_path),
                                 "--only", "nonsense"])
    assert code == 1
    assert "nonsense" in json.loads(err)["message"]

    code, _, err = _run(capsys, ["eval", "--store", str(store_path),
                                 "--only", "roc", "--roc-attack", "ghost"])
    assert code == 1

    code, _, _ = _run(capsys, ["eval"])
    assert code == 1


@pytest.mark.parametrize("stage", ["accuracy", "lemma1", "subset"])
def test_eval_rejects_zero_queries(tmp_path, capsys, stage):
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=60)
    code, out, err = _run(capsys, ["eval", "--store", str(store_path), "--only", stage,
                                   "--n-queries", "0", "--out-dir", str(tmp_path)])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    doc = json.loads(err)
    assert doc["error"] == "DataError" and doc["message"] == "n_queries must be positive"


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_eval_rejects_non_positive_trials(tmp_path, capsys, trials):
    """``--n-trials 0`` is rejected like any count below one, rather than
    read as "unset", which ran the golden file's trial count and reported 0."""
    store_path = tmp_path / "s.drew"
    _build_store(store_path, count=200, d=8, k=10, n=100)
    code, out, err = _run(capsys, ["eval", "--store", str(store_path), "--only", "epsilon",
                                   "--n-trials", trials, "--out-dir", str(tmp_path / "out")])
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DataError" and doc["message"] == "n_trials must be positive"


# ---------------------------------------------------------------------------
# config file and environment
# ---------------------------------------------------------------------------

def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 5, "n": 32, "seed": 9,
                               "synthetic": {"N": 90, "d": 8}}))
    code, out, _ = _run(capsys, ["build", "--config", str(cfg),
                                 "--store", str(tmp_path / "s.drew"),
                                 "--k", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 6          # flag beats config
    assert doc["seed"] == 9       # config beats default
    assert doc["count"] == 90


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = _run(capsys, ["build", "--config", str(cfg)])
    assert code == 1
    assert "bogus" in json.loads(err)["message"]

    cfg.write_text("{not json")
    code, _, err = _run(capsys, ["build", "--config", str(cfg)])
    assert code == 2


def test_out_dir_env(tmp_path, capsys, monkeypatch):
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("DREW_OUT_DIR", str(env_dir))
    code, out, _ = _run(capsys, ["build", "--synthetic", "N=50", "d=8",
                                 "--k", "3", "--n", "8"])
    assert code == 0
    doc = json.loads(out)
    assert doc["store"] == str(env_dir / "store.drew")
    assert os.path.exists(doc["store"])


# ---------------------------------------------------------------------------
# capacity-curve / ecc-bench / parser
# ---------------------------------------------------------------------------

def test_capacity_curve_command(tmp_path, capsys):
    code, out, _ = _run(capsys, ["capacity-curve", "--grid", "0.0,0.25,0.5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CURVE_HEADER
    assert len(lines) == 1 + 6  # capacity and min_redundancy per point
    assert lines[1].split(",")[3:5] == ["capacity", "1"]
    assert lines[-1].split(",")[4] == "inf"

    out_path = tmp_path / "cap.csv"
    code, _, _ = _run(capsys, ["capacity-curve", "--grid", "0.0:0.5:11",
                               "--out", str(out_path)])
    assert code == 0
    assert len(out_path.read_text().splitlines()) == 1 + 22

    code, _, _ = _run(capsys, ["capacity-curve", "--grid", "0.0:0.5"])
    assert code == 1
    code, _, _ = _run(capsys, ["capacity-curve", "--grid", "0.7"])
    assert code == 1


def test_ecc_bench_command(tmp_path, capsys):
    out_path = tmp_path / "fer.csv"
    code, _, _ = _run(capsys, ["ecc-bench", "--k", "4", "--n", "16",
                               "--grid", "0.0,0.2", "--frames", "200",
                               "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == CURVE_HEADER
    fer_rows = [r for r in lines[1:] if r.split(",")[3] == "fer"]
    assert len(fer_rows) == 2
    assert float(fer_rows[0].split(",")[4]) == 0.0

    code, _, _ = _run(capsys, ["ecc-bench", "--backend", "numpy"])
    assert code == 1  # there is one decoder: the option is gone, a usage error


@pytest.mark.parametrize("command", ["capacity-curve", "ecc-bench"])
@pytest.mark.parametrize("grid", [",,,", "", "0:0.3:abc", "0:x:5", "0.1,abc", "0:0.3:2:1",
                                  "nan", "inf", "0.1,-inf", "0.1,nan", "0:nan:3"])
def test_bad_grid_is_a_usage_error(capsys, command, grid):
    code, out, err = _run(capsys, [command, "--grid", grid, "--frames", "10"]
                          if command == "ecc-bench" else [command, "--grid", grid])
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "UsageError"


@pytest.mark.parametrize("command", ["capacity-curve", "ecc-bench"])
@pytest.mark.parametrize("grid", ["-inf", "-nan", "-inf,0.1", "-inf:0.5:3"])
@pytest.mark.parametrize("attached", [False, True])
def test_grid_starting_with_a_dash_reaches_the_grid_parser(capsys, command, grid, attached):
    """``--grid -inf`` and ``--grid=-inf`` both get the grid parser's JSON
    usage error, not argparse's plain-text one."""
    argv = [command, f"--grid={grid}"] if attached else [command, "--grid", grid]
    code, out, err = _run(capsys, argv)
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "UsageError"
    assert doc["message"] == "grid points must be finite"


def test_gate_flags_and_defaults_have_one_owner():
    parser = build_parser()
    for command in ("query", "eval"):
        sub = parser._subparsers._group_actions[0].choices[command]
        (mode,) = [a for a in sub._actions if a.dest == "reliability_mode"]
        assert tuple(mode.choices) == ecc.RELIABILITY_MODES
        args = parser.parse_args([command, "--store", "s"]
                                 + (["--queries", "q"] if command == "query" else []))
        assert _query_config(args, {}) == QueryConfig()
    args = parser.parse_args(["eval", "--tau-r", "0.5"])
    assert _query_config(args, {"tau_r": 0.2, "reliability_threshold": 2}) == QueryConfig(
        reliability_threshold=2.0, tau_r=0.5)


def test_parser_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
