"""``drew query``'s input reader and answer writer.

The output bytes of a fixed store and query file are pinned for three runs
(routed, ``--naive`` and a forced fallback); the file exercises every id
type, both key forms, blank, malformed and hostile lines.
"""
from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import drew
from drew.cli import _read_queries, main
from drew.pipeline import preprocess
from drew.store import save_store
from drew.synthetic import synthetic_store


def _build_store(path):
    store = preprocess(synthetic_store(300, 16, seed=5), k=6, seed=5, n=32)
    save_store(store, path)
    return store


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _pin_lines(store) -> list[str]:
    """Query lines covering every answer and error shape.  Embeddings are
    stored rows or exact float mixes of two rows, so the file depends on
    no random generator."""
    n, d = store.spec.n, store.d
    emb = [store.embeddings[i].astype(np.float64) for i in range(12)]
    keys = [store.cluster_keys[store.clusters[i]].astype(int).tolist() for i in range(12)]
    gts = [int(store.ids[i]) for i in range(12)]

    def skey(bits):
        return "".join(map(str, bits))

    def flip(bits, *pos):
        out = list(bits)
        for p in pos:
            out[p] ^= 1
        return out

    def line(qid=None, key=None, embedding=None, gt=None, omit=(), **extra):
        doc = {"query_id": qid, "key": key, "embedding": embedding, "ground_truth_id": gt}
        doc.update(extra)
        for name in omit:
            doc.pop(name)
        return json.dumps(doc)

    mix = (3.0 * emb[4] + 0.25 * emb[5]).tolist()
    deep = "[" * 100_000 + "]" * 100_000
    huge = "[" + "1" + "0" * 400 + ", 0" * (d - 1) + "]"
    return [
        # answers: every id type, both key forms
        line("plain", skey(keys[0]), emb[0].tolist(), gts[0]),
        line("\u00e9\u2014\u65e5\u672c\U0001f642", skey(keys[1]), emb[1].tolist(), "na\u00efve"),
        line(42, keys[2], emb[2].tolist(), 2 ** 70),
        line(1.5, skey(flip(keys[3], 0, 7)), emb[3].tolist(), 1e300),
        line(-0.0, skey(keys[4]), mix, 1e-320),
        line(True, flip(keys[5], 3), emb[5].tolist(), False),
        line(None, skey(keys[6]), emb[6].tolist(), 0.1),
        line(key=skey(keys[7]), embedding=emb[7].tolist(), omit=("query_id", "ground_truth_id")),
        line('quo"te\\back\nnl\ttab\x01\u2028', skey(keys[8]), emb[8].tolist(), -7),
        "   " + line(-(2 ** 64), skey([0] * n), emb[9].tolist(), 123456789012345678901234567890)
        + "  ",
        line("noisy", skey(flip(keys[10], *range(0, n, 3))), (emb[10] + emb[11]).tolist(),
             gts[10]),
        line("bools", skey(keys[11]), [True] + [False] * (d - 1), None),
        line("unit", skey(keys[0]), [0.0] * (d - 1) + [1.0], 7, extra_field={"x": [1, 2]}),
        # blank lines
        "",
        "   \t ",
        # malformed lines
        "not json",
        "[1, 2, 3]",
        '"a string"',
        line("no key", embedding=emb[0].tolist(), omit=("key",)),
        line("short key", skey(keys[0])[:-1], emb[0].tolist(), 1),
        line("bad char", skey(keys[0])[:-1] + "2", emb[0].tolist(), 1),
        line("spaced key", " " + skey(keys[0])[1:], emb[0].tolist(), 1),
        line("bit list of 2", keys[0][:-1] + [2], emb[0].tolist(), 1),
        line("wrong dim", skey(keys[0]), emb[0].tolist()[:-1], 1),
        line("nested", skey(keys[0]), [emb[0].tolist()], 1),
        line("zero", skey(keys[0]), [0.0] * d, 1),
        line("strings", skey(keys[0]), ["a"] * d, 1),
        line("nan", skey(keys[0]), [float("nan")] + [0.0] * (d - 1), 1),
        line("overflow", skey(keys[0]), [1e308] * d, 1),
        line("missing embedding", skey(keys[0]), omit=("embedding",)),
        line([1, 2], skey(keys[0]), emb[0].tolist(), 1),
        line("object gt", skey(keys[0]), emb[0].tolist(), {"a": 1}),
        line("extra", skey(keys[0]), emb[0].tolist(), 1) + " trailing",
        line("cut", skey(keys[0]), emb[0].tolist(), 1)[:-40],
        '{"query_id": "cut at the end", "key": ',
        # hostile lines
        deep,
        '{"query_id": "h", "key": "%s", "embedding": %s}' % (skey(keys[0]), huge),
        '{"query_id": "n", "key": "%s", "embedding": %s}' % (skey(keys[0]), deep),
        line("fractional key", [0.7] * n, emb[0].tolist(), 1),
        line("boolean key", [True] * n, emb[0].tolist(), 1),
        line("last", skey(keys[9]), emb[9].tolist(), gts[9]),
    ]


# sha256 of stdout, taken before the reader and writer were rewritten
PINS = {
    "routed": "0ef59c32a8f580d1464280c5506e69cb1146aa5d41276c83ef0a4cbd7be867a9",
    "naive": "56266fd5bbcb30f128a0b465be363cbf88be93beaa5d72942ffa6f52709ed197",
    "fallback": "4c6f97dbbacd73c845a8979d81c2be4f7b865d6c5d5dd3526d3e88fef41193ae",
}
FLAGS = {
    "routed": [],
    "naive": ["--naive"],
    "fallback": ["--reliability-threshold", "1e9"],
}


@pytest.fixture(scope="module")
def pin_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pin")
    store = _build_store(root / "s.drew")
    qfile = root / "q.jsonl"
    qfile.write_text("\n".join(_pin_lines(store)) + "\n", encoding="utf-8")
    return root / "s.drew", qfile


@pytest.mark.parametrize("mode", sorted(PINS))
def test_query_output_bytes_pinned(pin_files, capsys, mode):
    store_path, qfile = pin_files
    code, out, _ = _run(capsys, ["query", "--store", str(store_path), "--queries", str(qfile),
                                 *FLAGS[mode]])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS[mode]


def test_overflowing_embedding_leaves_stderr_empty(pin_files):
    """The pin file's ``[1e308] * d`` line overflows ``e . e``; it becomes
    its error record, and stderr, which carries only the CLI's own error
    object, stays empty: no numpy warning reaches it."""
    store_path, qfile = pin_files
    src = os.path.dirname(os.path.dirname(drew.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONWARNINGS="default")
    done = subprocess.run([sys.executable, "-m", "drew.cli", "query", "--store", str(store_path),
                           "--queries", str(qfile)], env=env, capture_output=True, check=True)
    assert hashlib.sha256(done.stdout).hexdigest() == PINS["routed"]
    assert done.stderr == b""


def test_crlf_and_stdin_give_the_lf_bytes(pin_files, capsys, monkeypatch, tmp_path):
    """A CRLF file, and LF or CRLF text on stdin, answer byte for byte as
    the LF file does, error records included."""
    store_path, qfile = pin_files
    text = qfile.read_text(encoding="utf-8")
    crlf = tmp_path / "crlf.jsonl"
    crlf.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    base = ["query", "--store", str(store_path)]
    code, out, _ = _run(capsys, base + ["--queries", str(crlf)])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["routed"]
    for stdin_text in (text, text.replace("\n", "\r\n")):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text, newline="\n"))
        code, out, _ = _run(capsys, base + ["--queries", "-"])
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINS["routed"]


def test_lines_end_at_newline_only(pin_files, capsys, monkeypatch, tmp_path):
    """U+2028, U+2029 and U+0085 are legal raw inside JSON strings, and
    \\r, \\x0b, \\x0c and \\x1c-\\x1e are not line breaks either, in a file
    or on stdin: each line below is one answer or one error record, and the
    line after it keeps index 1."""
    store_path, qfile = pin_files
    good = json.loads(qfile.read_text(encoding="utf-8").splitlines()[0])
    follower = json.dumps({k: v for k, v in good.items() if k != "query_id"})
    path = tmp_path / "q.jsonl"

    def answers(text):
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr("sys.stdin", io.StringIO(text, newline="\n"))
        outs = []
        for source in (str(path), "-"):
            code, out, _ = _run(capsys, ["query", "--store", str(store_path), "--queries", source])
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        return [json.loads(x) for x in outs[0].split("\n")[:-1]]

    for sep in ("\u2028", "\u2029", "\x85"):
        line = json.dumps(dict(good, query_id=f"a{sep}b"), ensure_ascii=False)
        assert sep in line
        docs = answers(line + "\n" + follower + "\n")
        assert [d["query_id"] for d in docs] == [f"a{sep}b", 1]
        assert "error" not in docs[0] and docs[0]["matched_id"] == good["ground_truth_id"]
    for sep in ("\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"):
        docs = answers(json.dumps(good)[:-1] + f', "pad": "{sep}"}}' + "\n" + follower + "\n")
        assert docs[0] == {"query_id": 0, "error": docs[0]["error"]}
        assert "Invalid control character" in docs[0]["error"]
        assert docs[1]["query_id"] == 1 and "error" not in docs[1]


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


def test_non_finite_ids_are_error_records(pin_files, capsys, tmp_path):
    """json.loads accepts NaN and Infinity, RFC 8259 does not: such an id
    makes its line an error record, and every output line is strict JSON."""
    store_path, qfile = pin_files
    good = qfile.read_text(encoding="utf-8").splitlines()[0]
    doc = json.loads(good)
    cases = [
        (dict(doc, query_id=float("nan")), 1, "query_id must be finite"),
        (dict(doc, ground_truth_id=float("inf")), "plain", "ground_truth_id must be finite"),
        (dict(doc, query_id="x", ground_truth_id=float("-inf")), "x",
         "ground_truth_id must be finite"),
    ]
    for bad, qid, message in cases:
        (tmp_path / "q.jsonl").write_text("\n".join([good, json.dumps(bad), good]) + "\n")
        for flags in ([], ["--naive"]):
            code, out, _ = _run(capsys, ["query", "--store", str(store_path),
                                         "--queries", str(tmp_path / "q.jsonl"), *flags])
            assert code == 0
            docs = [_strict_json(x) for x in out.splitlines()]
            assert len(docs) == 3 and docs[0] == docs[2]
            assert docs[1] == {"query_id": qid, "error": message}


def _edge_vectors(d: int) -> list[np.ndarray]:
    rng = np.random.default_rng(2406)
    tiny = np.finfo(np.float64).smallest_subnormal
    out = [
        np.zeros(d),
        -np.zeros(d),
        np.full(d, 1e200),                      # v.v overflows to inf
        np.full(d, 1e154),                      # just below overflow
        np.full(d, tiny),                       # v.v underflows to 0
        np.full(d, 1e-160),                     # v.v subnormal
        np.r_[1e-310, np.zeros(d - 1)],
        np.r_[-0.0, 3.0, np.zeros(d - 2)],
        np.r_[np.inf, np.zeros(d - 1)],
        np.r_[np.nan, np.ones(d - 1)],
        np.r_[1e308, 1e308, np.zeros(d - 2)],
        np.r_[1e-300, 1e300, np.full(d - 2, -0.0)],
    ]
    for _ in range(40):
        scale = 10.0 ** rng.uniform(-200, 150)
        v = rng.standard_normal(d) * scale
        v[rng.random(d) < 0.2] = 0.0
        v[rng.random(d) < 0.1] *= -0.0
        out.append(v)
    return out


def test_normalisation_equals_the_per_row_norm():
    """Each accepted embedding is bit for bit ``v / np.linalg.norm(v)``, and a
    vector is rejected, with the same message, exactly where that norm is
    zero or not finite."""
    d = 16
    vectors = _edge_vectors(d)
    lines = [json.dumps({"query_id": i, "embedding": v.tolist()}) + "\n"
             for i, v in enumerate(vectors)]
    slots, qids, _, keys, embs = _read_queries(lines, d, 32, naive=True)
    assert keys is None and len(slots) == len(vectors)
    good = iter(range(len(qids)))
    for i, (v, slot) in enumerate(zip(vectors, slots)):
        with np.errstate(over="ignore", invalid="ignore"):
            norm = np.linalg.norm(v)
        if not np.isfinite(norm) or norm == 0.0:
            assert slot is not None
            assert json.loads(slot) == {"query_id": i,
                                        "error": "embedding must be finite and nonzero"}
            continue
        assert slot is None
        j = next(good)
        assert qids[j] == i
        assert embs[j].tobytes() == (v / norm).tobytes()
    assert next(good, None) is None


@pytest.mark.parametrize("command", [
    ["build", "--synthetic", "N=50", "d=8", "--k", "3", "--n", "8"],
    ["query", "--naive"],
])
def test_build_and_query_do_not_import_evaluation(pin_files, tmp_path, command):
    store_path, qfile = pin_files
    if command[0] == "build":
        command = command + ["--store", str(tmp_path / "b.drew")]
    else:
        command = command + ["--store", str(store_path), "--queries", str(qfile),
                             "--out", str(tmp_path / "a.jsonl")]
    src = os.path.dirname(os.path.dirname(drew.__file__))
    script = ("import sys, drew.cli; code = drew.cli.main(sys.argv[1:]); "
              "loaded = [m for m in ('drew.evaluation', 'concurrent.futures', 'logging') "
              "if m in sys.modules]; print(code, loaded)")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script, *command], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "0 []"
