"""``drew.cli._loads`` against ``json.loads``, line by line.

``_loads`` decodes query lines with orjson and hands a line to
``json.loads`` where orjson would differ.  Each line here must give both
the same document, compared token by token (types, exact ints and strings,
float bits, key order), or the same exception type and message.  The one
difference allowed is the one ``_loads`` documents: an integer outside
[-2**63, 2**64) that is not the document itself nor its top-level
``query_id`` or ``ground_truth_id`` may come back, with every other such
integer of the line, as its nearest float.  ``_read_queries`` must then
give the same slots, ids, keys and embedding bits as with ``json.loads``.
"""
from __future__ import annotations

import json
import struct
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drew import cli

N, D = 8, 4
KEY = "01" * (N // 2)
EMB = [0.5, -0.25, 0.125, 1.0]


def _line(**doc) -> str:
    return json.dumps(doc)


def _nest(depth: int, inner: str = "1") -> str:
    return "[" * depth + inner + "]" * depth


def _objects(depth: int) -> str:
    return '{"a":' * depth + "1" + "}" * depth


BIG = [-(2 ** 63) - 1, -(2 ** 63), 2 ** 64 - 1, 2 ** 64, 2 ** 70, -(2 ** 64),
       10 ** 29 + 7, 2 ** 64 + 2048, 2 ** 64 + 2049,
       2 ** 1024 - 2 ** 970 - 1, 2 ** 1024 - 2 ** 970]

CORPUS = [
    _line(query_id="q", key=KEY, embedding=EMB, ground_truth_id=3),
    *[_line(query_id=v, key=KEY, embedding=EMB) for v in BIG],
    *[_line(query_id="gt", key=KEY, embedding=EMB, ground_truth_id=v) for v in BIG],
    *[_line(query_id="emb", key=KEY, embedding=[v] + EMB[1:]) for v in BIG],
    *[_line(query_id="key", key=[v] + [0] * (N - 1), embedding=EMB) for v in BIG],
    *[str(v) for v in BIG],
    _line(query_id=2 ** 70, key=KEY, embedding=[2 ** 70] * D, ground_truth_id=-(2 ** 64)),
    _line(query_id=[2 ** 70], key=KEY, embedding=EMB, ground_truth_id={"a": 2 ** 64}),
    '{"query_id": 1.5, "ground_truth_id": 123456789012345678901234567890}',
    '{"query_id": 1e400, "key": "%s", "embedding": [0.5, 0, 0, 0]}' % KEY,
    '{"query_id": NaN}', '{"query_id": Infinity}', '{"query_id": -Infinity}',
    '{"query_id": "x", "embedding": [NaN, Infinity, -Infinity, 1]}',
    '{"query_id": "x", "embedding": [1e400, 0, 0, 0]}', "1e400", "-1e400", "1e-400",
    "1e99999999999", "1e-99999999999", "-0", "-0.0", "4.9e-324", "2.2250738585072011e-308",
    "1.7976931348623157e308", "1.7976931348623159e308", "0." + "1" * 800,
    "9007199254740993", "9007199254740993.0", "0.1e1", "1" + "0" * 25 + ".5",
    '{"query_id": "\\ud800"}', '{"query_id": "\\udc00\\ud800"}', '{"\\ud800": 1}',
    '{"query_id": "\\ud83d\\ude00"}', '"\ud800"', '{"query_id": "\udc80"}',
    _nest(63), _nest(64), _nest(65), _nest(1000), _nest(100_000),
    _objects(64), _objects(65), _objects(1000),
    '{"query_id": "%s"}' % ("[" * 70), _nest(32, _objects(32)), _nest(32, _objects(33)),
    '{"query_id": 1, "query_id": 2, "embedding": [1], "embedding": [2, 3]}',
    '{"a": {"b": 1, "b": 2}, "a": 3}',
    "\ufeff" + _line(query_id="bom"), "\ufeff",
    '{"query_id": "a\x01b"}', '{"query_id": "a\x1fb"}', '{"query_id": "tab\there"}',
    '{"query_id": "a\x7fb"}', '{"query_id": "a\\u0000b"}',
    _line(query_id="t") + " trailing", _line(query_id="t") + " {}", _line(query_id="t") + "\x0c",
    "  " + _line(query_id="ws") + " \t", "", "   ", "not json", "[1, 2", "{}", "[]", "null",
    "true", '"s"', "0123", ".5", "1.", "-", "+1", "tru", "{'a': 1}", '{"a": 1,}', "[1,]",
    '{"a" 1}', '{"a": 1 "b": 2}', '"\\x41"', '"\\u12"', '"unterminated', " {}",
]


class _Key(str):
    """A dict key on the token walker's stack, told apart from a str value."""


def _tokens(doc, widen: bool) -> list:
    """``doc`` as a flat list of tokens: each value's type and exact payload
    (float bits), each container's length, each key in order.  With
    ``widen``, every integer outside [-2**63, 2**64) that is not ``doc``
    itself or a top-level ``query_id`` or ``ground_truth_id`` becomes the
    token of its nearest float, where that is finite.  Walks without
    recursion, so any depth json returns is fine."""
    out = []
    stack = [(doc, True)]
    if type(doc) is dict:
        out.append(("dict", len(doc)))
        stack = []
        for key, value in reversed(doc.items()):
            stack += [(value, key in ("query_id", "ground_truth_id")), (_Key(key), True)]
    while stack:
        value, exact = stack.pop()
        kind = type(value)
        if kind is _Key:
            out.append(("key", str(value)))
        elif kind is dict:
            out.append(("dict", len(value)))
            for key, item in reversed(value.items()):
                stack += [(item, False), (_Key(key), True)]
        elif kind is list:
            out.append(("list", len(value)))
            stack += [(item, False) for item in reversed(value)]
        elif kind is int and widen and not exact and not -(2 ** 63) <= value < 2 ** 64:
            try:
                out.append(("float", struct.pack("<d", float(value))))
            except OverflowError:
                out.append(("int", value))
        elif kind is float:
            out.append(("float", struct.pack("<d", value)))
        else:
            out.append((kind.__name__, value))
    return out


def _outcome(loads, line):
    try:
        return "ok", loads(line)
    except (ValueError, RecursionError) as exc:
        return "raise", type(exc), str(exc)


def _assert_agrees(line: str) -> None:
    want = _outcome(json.loads, line)
    got = _outcome(cli._loads, line)
    if want[0] == "raise":
        assert got == want, line[:200]
        return
    assert got[0] == "ok", (line[:200], got)
    tokens = _tokens(got[1], widen=False)
    assert tokens in (_tokens(want[1], widen=False), _tokens(want[1], widen=True)), line[:200]


def _front_end(lines) -> tuple:
    slots, qids, gts, keys, embs = cli._read_queries([x + "\n" for x in lines], D, N, False)
    return slots, _tokens(qids, False), _tokens(gts, False), keys.tobytes(), embs.tobytes()


def test_fixed_corpus_decodes_as_json_does():
    for line in CORPUS:
        _assert_agrees(line)


def test_fixed_corpus_reads_as_with_json(monkeypatch):
    got = _front_end(CORPUS)
    monkeypatch.setattr(cli, "_loads", json.loads)
    assert got == _front_end(CORPUS)


# JSON-like text: numbers of any size and precision, the literals json reads
# beyond RFC 8259, strings with escapes (lone surrogates too), nested
# containers, duplicate keys and query-shaped objects, then optionally cut,
# padded or corrupted by one inserted or deleted character.
_NUMBERS = st.one_of(
    st.from_regex(r"\A-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?\Z"),
    st.integers(-(2 ** 80), 2 ** 80).map(str),
    st.sampled_from([str(v) for v in BIG]),
    st.floats().map(repr),
)
_LITERALS = st.sampled_from(["true", "false", "null", "NaN", "Infinity", "-Infinity"])
_STRINGS = st.one_of(
    st.text(max_size=8).map(json.dumps),
    st.text(max_size=8).map(lambda s: json.dumps(s, ensure_ascii=False)),
    st.sampled_from(['"\\ud800"', '"\\udc00\\ud800"', '"\\ud83d\\ude00"', '"\\u0000"',
                     '"a\x01"', '"\\/"']),
)
_FIELDS = st.sampled_from(["query_id", "ground_truth_id", "embedding", "key", "a"]).map(
    json.dumps)
_KEYS = st.one_of(_FIELDS, _STRINGS)


def _containers(inner):
    return st.one_of(
        st.lists(inner, max_size=5).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(st.tuples(_KEYS, inner), max_size=5).map(
            lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}"),
    )


_VALUES = st.recursive(st.one_of(_NUMBERS, _LITERALS, _STRINGS), _containers, max_leaves=12)
_QUERIES = st.lists(st.tuples(_FIELDS, _VALUES), max_size=5).map(
    lambda kv: "{" + ", ".join(f"{k}: {v}" for k, v in kv) + "}")
_NOISE = st.sampled_from(list('{}[]:,"\\-+.0123456789eEnul \t\x01\x7f\ufeff\ud800 ') + [""])


@st.composite
def _json_like(draw) -> str:
    text = draw(st.one_of(_QUERIES, _VALUES))
    edit = draw(st.sampled_from(["none", "none", "insert", "delete", "cut", "pad"]))
    at = draw(st.integers(0, len(text)))
    if edit == "insert":
        text = text[:at] + draw(_NOISE) + text[at:]
    elif edit == "delete":
        text = text[:at] + text[at + 1:]
    elif edit == "cut":
        text = text[:at]
    elif edit == "pad":
        text = draw(st.sampled_from(["", " ", "\ufeff"])) + text + draw(
            st.sampled_from(["", " ", "\t", " x", " 1"]))
    return text


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_json_like())
def test_json_like_text_decodes_as_json_does(line):
    _assert_agrees(line)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_json_like(), min_size=1, max_size=6))
def test_json_like_lines_read_as_with_json(lines):
    lines = [x.replace("\n", " ") for x in lines]
    got = _front_end(lines)
    with mock.patch.object(cli, "_loads", json.loads):
        assert got == _front_end(lines)
