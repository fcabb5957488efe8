from __future__ import annotations

import json

import numpy as np
import pytest

from drew import ecc
from drew.channel import (
    AttackConfig,
    AttackStreams,
    attack_rows,
    default_suite,
    parse_suite,
)
from drew.rng import substream

# Brute-force Monte-Carlo value of E[cos(e, normalize(e + 0.5 g))] at d=64,
# computed once with 10^6 independent draws (seed 987654321).
PERTURB_COSINE_ORACLE = 0.24165


def _unit_rows(seed: int, count: int, d: int = 64) -> np.ndarray:
    rows = substream(seed, "rows").standard_normal((count, d))
    return rows / np.linalg.norm(rows, axis=1)[:, None]


def test_attack_rows_identity_at_zero_knobs():
    keys = substream(1, "flip").integers(0, 2, size=(8, 100)).astype(np.uint8)
    embs = _unit_rows(1, 8)
    streams = AttackStreams.for_attack(1, "zero")
    out_keys, out_embs = attack_rows(keys, embs, AttackConfig("zero", 0.0, 0.0), streams)
    assert np.array_equal(out_keys, keys) and np.array_equal(out_embs, embs)
    assert not np.shares_memory(out_keys, keys) and not np.shares_memory(out_embs, embs)
    # a knob at zero draws nothing from its stream
    fresh = AttackStreams.for_attack(1, "zero")
    assert streams.key.random() == fresh.key.random()
    assert streams.embedding.random() == fresh.embedding.random()


def test_flip_bits_mean_hamming_distance():
    keys = np.zeros((10_000, 100), dtype=np.uint8)
    embs = _unit_rows(2, 10_000, d=4)
    out, _ = attack_rows(keys, embs, AttackConfig("hamming", 0.1, 0.0),
                         AttackStreams.for_attack(2, "hamming"))
    assert abs(out.sum(axis=1).mean() - 10.0) <= 0.3


def test_perturb_embedding_properties():
    keys = np.zeros((20, 8), dtype=np.uint8)
    embs = _unit_rows(3, 20)
    for sigma in (0.1, 0.5, 3.0):
        _, out = attack_rows(keys, embs, AttackConfig("perturb", 0.0, sigma),
                             AttackStreams.for_attack(3, "perturb"))
        assert out.dtype == np.float64 and not np.array_equal(out, embs)
        assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1.0) < 1e-6)


def test_perturb_embedding_mean_cosine_matches_oracle():
    e = np.zeros(64)
    e[0] = 1.0
    embs = np.tile(e, (10_000, 1))
    keys = np.zeros((10_000, 8), dtype=np.uint8)
    _, out = attack_rows(keys, embs, AttackConfig("cosine", 0.0, 0.5),
                         AttackStreams.for_attack(4, "cosine"))
    assert abs(float((out @ e).mean()) - PERTURB_COSINE_ORACLE) < 0.02


def test_key_and_embedding_streams_are_independent():
    keys = substream(21, "keys").integers(0, 2, size=(30, 32)).astype(np.uint8)
    embs = _unit_rows(21, 30, d=16)

    def run(p_a, sigma):
        return attack_rows(keys, embs, AttackConfig("atk", p_a, sigma),
                           AttackStreams.for_attack(21, "atk"))

    keys_a, _ = run(0.3, 0.0)
    keys_b, embs_b = run(0.3, 0.7)
    # changing sigma must not change which bits flipped
    assert np.array_equal(keys_a, keys_b)
    # nor p_A the embedding noise
    _, embs_c = run(0.0, 0.7)
    assert np.array_equal(embs_b, embs_c)


def test_identical_seeds_give_identical_query_streams():
    key = substream(9, "entry").integers(0, 2, size=(1, 32)).astype(np.uint8)
    emb = _unit_rows(9, 1, d=16)
    atk = AttackConfig("rep", 0.25, 0.4)
    s1 = AttackStreams.for_attack(33, "rep")
    s2 = AttackStreams.for_attack(33, "rep")
    for _ in range(20):
        keys1, embs1 = attack_rows(key, emb, atk, s1)
        keys2, embs2 = attack_rows(key, emb, atk, s2)
        assert np.array_equal(keys1, keys2)
        assert np.array_equal(embs1, embs2)


def test_attack_config_validation_and_json():
    with pytest.raises(ValueError):
        AttackConfig("bad", 0.6, 0.0)
    with pytest.raises(ValueError):
        AttackConfig("bad", 0.1, -0.1)
    cfg = AttackConfig("rot_0.5", 0.22, 0.06)
    again = AttackConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    assert cfg.to_dict()["p_A"] == 0.22


def test_default_suite_contents():
    suite = default_suite()
    names = [a.name for a in suite]
    assert len(names) == len(set(names))
    assert "no_aug" in names and "erasure" in names
    by_name = {a.name: a for a in suite}
    assert by_name["no_aug"].p_a == 0.0 and by_name["no_aug"].sigma == 0.0
    assert by_name["erasure"].p_a == 0.5
    for a in suite:
        assert 0.0 <= a.p_a <= 0.5 and a.sigma >= 0.0


def test_parse_suite_rejects_bad_documents():
    with pytest.raises(ValueError):
        parse_suite([])
    with pytest.raises(ValueError):
        parse_suite([{"name": "a", "p_A": 0.1, "sigma": 0.0},
                     {"name": "a", "p_A": 0.2, "sigma": 0.0}])


def test_erasure_reliability_calibration():
    # At p_A = 0.5 the default last-bit reliability score still aggregates
    # ~64 channel observations, so the 0.5 threshold practically never
    # fires; the strict min-bit mode is the one that reacts.  Both measured
    # levels are pinned here so any semantic drift is caught.
    spec = ecc.construct_code(10, 100, 0.1)
    rng = substream(55, "erasure-cal")
    keys = rng.integers(0, 2, size=(4000, 100)).astype(np.uint8)
    llrs = ecc.llr_from_keys(spec, keys, spec.design_p)
    _, _, rel_last, _, _ = ecc.decode_batch(spec, llrs, 0.5, "last-bit")
    _, _, rel_min, _, _ = ecc.decode_batch(spec, llrs, 0.5, "min-bit")
    assert rel_last.mean() > 0.99
    assert 0.40 <= rel_min.mean() <= 0.70
