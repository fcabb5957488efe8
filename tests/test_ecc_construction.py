from __future__ import annotations

import json

import numpy as np
import pytest

from drew import ecc


def kron_transform(m: int) -> np.ndarray:
    """Reference generator built from explicit Kronecker powers of [[1,0],[1,1]]."""
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    g = np.array([[1]], dtype=np.uint8)
    for _ in range(m):
        g = np.kron(g, f)
    return g


def test_bhattacharyya_block4_hand_values():
    # z0 = 2*sqrt(0.1*0.9) = 0.6; one doubling gives [0.84, 0.36],
    # the next [0.9744, 0.7056, 0.5904, 0.1296] in natural bit order.
    z = ecc.bhattacharyya_profile(4, 0.1)
    assert np.allclose(z, [0.9744, 0.7056, 0.5904, 0.1296], atol=1e-12)


def test_bhattacharyya_ordering_block128():
    z = ecc.bhattacharyya_profile(128, 0.1)
    assert z.shape == (128,)
    # index 127 aggregates every branch and must be the most reliable
    assert np.argmin(z) == 127
    assert np.argmax(z) == 0


def test_construct_default_shape():
    spec = ecc.construct_code(10, 100, 0.1)
    assert spec.block_len == 128
    assert len(spec.frozen_set) == 118
    assert len(spec.shortened_set) == 28
    assert spec.shortened_set == tuple(range(100, 128))
    assert set(spec.shortened_set) <= set(spec.frozen_set)
    info = spec.info_positions
    assert len(info) == 10
    assert not set(info) & set(spec.frozen_set)
    assert all(i < 100 for i in info)


def test_construct_k1_block4_picks_best_index():
    spec = ecc.construct_code(1, 4, 0.1)
    assert spec.block_len == 4
    assert spec.info_positions == (3,)
    key = ecc.encode(spec, np.array([1], dtype=np.uint8))
    assert key.tolist() == [1, 1, 1, 1]


def test_construct_rate1_has_no_frozen_bits():
    spec = ecc.construct_code(4, 4, 0.1)
    assert spec.frozen_set == ()
    assert spec.shortened_set == ()


def test_construct_rejects_bad_domains():
    with pytest.raises(ValueError):
        ecc.construct_code(11, 10, 0.1)
    with pytest.raises(ValueError):
        ecc.construct_code(0, 10, 0.1)
    for bad_p in (0.0, 0.5, -0.1, 0.9):
        with pytest.raises(ValueError):
            ecc.construct_code(2, 8, bad_p)


def test_construct_deterministic_and_json_roundtrip():
    a = ecc.construct_code(10, 100, 0.1)
    b = ecc.construct_code(10, 100, 0.1)
    assert a == b
    c = ecc.PolarCodeSpec.from_dict(json.loads(json.dumps(a.to_dict())))
    assert c == a


def test_encode_zero_is_zero():
    spec = ecc.construct_code(10, 100, 0.1)
    key = ecc.encode(spec, np.zeros(10, dtype=np.uint8))
    assert not key.any()


def test_encode_rate1_unit_message_matches_transform_row():
    spec = ecc.construct_code(4, 4, 0.1)
    key = ecc.encode(spec, np.array([1, 0, 0, 0], dtype=np.uint8))
    assert key.tolist() == [1, 0, 0, 0]


def test_encode_matches_kron_generator():
    rng = np.random.default_rng(5)
    for k, n in ((4, 8), (3, 6), (10, 100), (7, 100)):
        spec = ecc.construct_code(k, n, 0.1)
        m = spec.block_len.bit_length() - 1
        g = kron_transform(m)
        for _ in range(25):
            code = rng.integers(0, 2, size=k).astype(np.uint8)
            u = np.zeros(spec.block_len, dtype=np.uint8)
            u[list(spec.info_positions)] = code
            x = (u @ g) % 2
            assert np.array_equal(ecc.encode(spec, code), x[:n])
            # shortened tail of the full transform must be identically zero
            assert not x[n:].any()


def test_encode_batched_axes():
    spec = ecc.construct_code(6, 32, 0.1)
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 2, size=(17, 6)).astype(np.uint8)
    batch = ecc.encode(spec, codes)
    assert batch.shape == (17, 32)
    for i in range(17):
        assert np.array_equal(batch[i], ecc.encode(spec, codes[i]))


def test_encode_rejects_length_mismatch():
    spec = ecc.construct_code(4, 8, 0.1)
    with pytest.raises(ValueError):
        ecc.encode(spec, np.zeros(5, dtype=np.uint8))


def test_polar_transform_is_self_inverse():
    rng = np.random.default_rng(11)
    for m in (1, 2, 3, 5, 7):
        u = rng.integers(0, 2, size=1 << m).astype(np.uint8)
        assert np.array_equal(ecc.polar_transform(ecc.polar_transform(u)), u)


def test_int_code_conversions_msb_first():
    assert ecc.codes_to_ints(np.array([0, 1, 0, 1], dtype=np.uint8)) == 5
    # row c of the key table encodes the k bits of c, most significant first
    spec = ecc.construct_code(4, 4, 0.1)
    codes = np.array([[(v >> (3 - j)) & 1 for j in range(4)] for v in range(16)], dtype=np.uint8)
    assert codes[5].tolist() == [0, 1, 0, 1]
    assert np.array_equal(ecc.encode_all(spec), ecc.encode(spec, codes))
    assert np.array_equal(ecc.codes_to_ints(codes), np.arange(16))
