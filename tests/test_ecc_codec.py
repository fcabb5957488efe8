from __future__ import annotations

from itertools import product

import numpy as np
import pytest

from drew import ecc
from drew.evaluation import fer_sweep
from drew.rng import substream

TINY_SHAPES = ((1, 2), (2, 2), (1, 4), (2, 4), (3, 4), (4, 4),
               (2, 8), (3, 8), (4, 8), (6, 8), (8, 8), (3, 6), (4, 7))


def ml_enumeration(spec: ecc.PolarCodeSpec, p: float):
    """Exhaustive reference: Hamming-distance ML (lowest message on ties)
    over every possible received word, with exact channel weighting."""
    k, n = spec.k, spec.n
    codebook = ecc.encode_all(spec)
    words = np.array(list(product((0, 1), repeat=n)), dtype=np.uint8)
    dist = (words[:, None, :] != codebook[None, :, :]).sum(axis=2)
    dmin = dist.min(axis=1)
    tie = (dist == dmin[:, None]).sum(axis=1) > 1
    ml = dist.argmin(axis=1)
    llrs = ecc.llr_from_keys(spec, words, p)
    codes, _, _, _, _ = ecc.decode_batch(spec, llrs)
    sc = ecc.codes_to_ints(codes)
    fer_sc = fer_ml = 0.0
    for c in range(1 << k):
        w = p ** dist[:, c] * (1.0 - p) ** (n - dist[:, c])
        fer_sc += float((w * (sc != c)).sum())
        fer_ml += float((w * (ml != c)).sum())
    return fer_sc / (1 << k), fer_ml / (1 << k), sc, dist, dmin, tie


def test_sc_matches_ml_oracle_on_tiny_codes():
    for k, n in TINY_SHAPES:
        spec = ecc.construct_code(k, n, 0.1)
        fer_sc, fer_ml, sc, dist, dmin, tie = ml_enumeration(spec, 0.25)
        assert fer_sc <= 2.0 * fer_ml + 1e-12, (k, n, fer_sc, fer_ml)
        # an SC miss is only ever an ML miss or an equidistant tie
        for c in range(1 << k):
            bad = (sc != c) & (dist[:, c] == dmin) & ~tie
            assert not bad.any(), (k, n, c)


def test_repetition_code_corrects_every_single_flip():
    spec = ecc.construct_code(1, 4, 0.1)
    for code in (0, 1):
        key = ecc.encode_all(spec)[code]
        for i in range(4):
            noisy = key.copy()
            noisy[i] ^= 1
            out = ecc.decode(spec, ecc.llr_from_keys(spec, noisy[None], 0.1)[0])
            assert ecc.codes_to_ints(out.code) == code


def test_roundtrip_many_random_specs_and_codes():
    rng = substream(42, "roundtrip")
    shapes = [(1, 4), (2, 6), (3, 8), (4, 12), (5, 20), (6, 32), (8, 60),
              (10, 100), (12, 100), (4, 16)]
    total = 0
    for k, n in shapes:
        spec = ecc.construct_code(k, n, 0.1)
        msgs = rng.integers(0, 1 << k, size=1000)
        keys = ecc.encode_all(spec)[msgs]
        llrs = ecc.llr_from_keys(spec, keys, spec.design_p)
        codes, _, rel, _, _ = ecc.decode_batch(spec, llrs)
        assert np.array_equal(ecc.codes_to_ints(codes), msgs)
        assert rel.all()
        total += msgs.size
    assert total == 10_000


def test_linearity_of_encoding():
    rng = substream(43, "linearity")
    for k, n in ((3, 8), (6, 32), (10, 100)):
        spec = ecc.construct_code(k, n, 0.1)
        a = rng.integers(0, 2, size=(200, k)).astype(np.uint8)
        b = rng.integers(0, 2, size=(200, k)).astype(np.uint8)
        assert np.array_equal(ecc.encode(spec, a ^ b),
                              ecc.encode(spec, a) ^ ecc.encode(spec, b))


def test_all_zero_llrs_yield_zero_score_and_unreliable():
    spec = ecc.construct_code(10, 100, 0.1)
    out = ecc.decode(spec, np.zeros(spec.block_len))
    assert out.reliability_score == 0.0
    assert not out.reliable
    assert out.min_llr_mag == 0.0


def test_reliability_threshold_semantics():
    spec = ecc.construct_code(10, 100, 0.1)
    rng = substream(44, "threshold")
    keys = ecc.encode_all(spec)[rng.integers(0, 1 << spec.k, size=50)]
    keys = keys ^ (rng.random(keys.shape) < 0.2).astype(np.uint8)
    llrs = ecc.llr_from_keys(spec, keys, spec.design_p)
    prev = None
    for threshold in (0.0, 0.5, 5.0, 50.0, 500.0):
        _, _, rel, _, _ = ecc.decode_batch(spec, llrs, threshold=threshold)
        if prev is not None:
            # raising the threshold never turns unreliable into reliable
            assert not (rel & ~prev).any()
        prev = rel
    # at threshold 0 everything is reliable (scores are nonnegative)
    _, _, rel0, _, _ = ecc.decode_batch(spec, llrs, threshold=0.0)
    assert rel0.all()


def test_decode_modes_and_outcome_fields():
    spec = ecc.construct_code(10, 100, 0.1)
    rng = substream(45, "modes")
    key = ecc.encode(spec, rng.integers(0, 2, size=10).astype(np.uint8))
    key = key ^ (rng.random(100) < 0.15).astype(np.uint8)
    llrs = ecc.llr_from_keys(spec, key[None], spec.design_p)[0]
    last = ecc.decode(spec, llrs, mode="last-bit")
    strict = ecc.decode(spec, llrs, mode="min-bit")
    assert np.array_equal(last.code, strict.code)
    assert last.reliability_score == last.last_llr_mag
    assert strict.reliability_score == strict.min_llr_mag
    assert strict.min_llr_mag <= last.last_llr_mag
    with pytest.raises(ValueError):
        ecc.decode(spec, llrs, mode="median-bit")


def test_decode_validates_input():
    spec = ecc.construct_code(4, 8, 0.1)
    with pytest.raises(ValueError):
        ecc.decode(spec, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        ecc.decode(spec, bad)
    with pytest.raises(ValueError):
        ecc.decode(spec, np.full(8, np.inf))


def test_decode_single_equals_batch_rows():
    spec = ecc.construct_code(10, 100, 0.1)
    rng = substream(46, "batch-rows")
    keys = ecc.encode_all(spec)[rng.integers(0, 1 << 10, size=64)]
    keys = keys ^ (rng.random(keys.shape) < 0.25).astype(np.uint8)
    llrs = ecc.llr_from_keys(spec, keys, spec.design_p)
    codes, scores, rel, last, mins = ecc.decode_batch(spec, llrs)
    for i in range(64):
        out = ecc.decode(spec, llrs[i])
        assert np.array_equal(out.code, codes[i])
        assert out.reliability_score == scores[i]
        assert out.reliable == rel[i]
        assert out.last_llr_mag == last[i]
        assert out.min_llr_mag == mins[i]


def test_llr_from_key_formula_and_shortening():
    spec = ecc.construct_code(10, 100, 0.1)
    key = np.zeros(100, dtype=np.uint8)
    key[1] = 1
    llrs = ecc.llr_from_keys(spec, key[None], 0.1)[0]
    assert llrs.shape == (128,)
    assert llrs[0] == pytest.approx(np.log(9.0), abs=1e-12)
    assert llrs[1] == pytest.approx(-np.log(9.0), abs=1e-12)
    # shortened tail carries the known-bit constant regardless of channel_p
    for channel_p in (0.05, 0.1, 0.4):
        tail = ecc.llr_from_keys(spec, key[None], channel_p)[0, 100:]
        assert (tail == ecc.KNOWN_BIT_LLR).all()
    for bad_p in (0.0, 0.5, -0.2):
        with pytest.raises(ValueError):
            ecc.llr_from_keys(spec, key[None], bad_p)


# every non-bit value the old max-only check let through, plus 2
NON_BITS = (-1, 0.7, np.nan, 2)


@pytest.mark.parametrize("value", NON_BITS)
def test_non_bit_keys_and_codes_are_rejected(value):
    spec = ecc.construct_code(4, 8, 0.1)
    key = np.zeros((1, 8))
    key[0, 3] = value
    with pytest.raises(ValueError, match="0/1"):
        ecc.llr_from_keys(spec, key, 0.1)
    code = np.zeros(4)
    code[1] = value
    with pytest.raises(ValueError, match="0/1"):
        ecc.encode(spec, code)


def test_bits_of_any_numeric_dtype_are_accepted():
    spec = ecc.construct_code(4, 8, 0.1)
    key = np.array([[0, 1, 1, 0, 1, 0, 0, 1]])
    want = ecc.llr_from_keys(spec, key.astype(np.uint8), 0.1)
    for dtype in (bool, np.int8, np.int64, np.float64):
        assert np.array_equal(ecc.llr_from_keys(spec, key.astype(dtype), 0.1), want)
    with pytest.raises(ValueError, match="0/1"):
        ecc.llr_from_keys(spec, key.astype(str), 0.1)


def test_fer_monotone_in_flip_rate():
    spec = ecc.construct_code(10, 100, 0.1)
    rows = fer_sweep(spec, [0.05, 0.1, 0.15, 0.2, 0.25, 0.3], 10_000, seed=202)
    for a, b in zip(rows, rows[1:]):
        slack = 2.0 * np.hypot(a["stderr"], b["stderr"])
        assert a["fer"] <= b["fer"] + slack, (a, b)


def test_noiseless_roundtrip_reliable_for_any_threshold_below_known_bit():
    spec = ecc.construct_code(6, 32, 0.1)
    rng = substream(47, "noiseless")
    for _ in range(10):
        code = rng.integers(0, 2, size=6).astype(np.uint8)
        llrs = ecc.llr_from_keys(spec, ecc.encode(spec, code)[None], spec.design_p)[0]
        out = ecc.decode(spec, llrs, threshold=20.0)
        assert np.array_equal(out.code, code)
        assert out.reliable
