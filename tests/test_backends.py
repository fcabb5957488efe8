from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from drew import backends, ecc
from drew.backends import _boxplus_np, sc_decode_batch
from drew.rng import substream
from test_ecc_codec import TINY_SHAPES


def _noisy_llrs(spec, p, frames, seed):
    rng = substream(seed, f"backend/p={p!r}")
    msgs = rng.integers(0, 1 << spec.k, size=frames)
    keys = ecc.encode_all(spec)[msgs]
    keys = keys ^ (rng.random(keys.shape) < p).astype(np.uint8)
    return ecc.llr_from_keys(spec, keys, spec.design_p)


def _textbook_sc(llr, frozen):
    """Arikan's recursive SC decoder over a (B, size) LLR block.

    Returns the input decisions, the re-encoded codeword bits and the
    decision LLR of every leaf.  The g update is written exactly as in the
    kernel, so the two agree bit for bit wherever the kernel computes.
    """
    if llr.shape[1] == 1:
        L = llr[:, 0]
        u = np.zeros_like(L, dtype=np.uint8) if frozen[0] else (L < 0.0).astype(np.uint8)
        return u[:, None], u[:, None], L[:, None]
    half = llr.shape[1] // 2
    a, b = llr[:, :half], llr[:, half:]
    u_l, x_l, d_l = _textbook_sc(_boxplus_np(a, b), frozen[:half])
    u_r, x_r, d_r = _textbook_sc(b + (1.0 - 2.0 * x_l) * a, frozen[half:])
    return (np.hstack([u_l, u_r]), np.hstack([x_l ^ x_r, x_r]),
            np.hstack([d_l, d_r]))


@pytest.mark.parametrize("k,n", TINY_SHAPES + ((10, 100), (5, 33)))
@pytest.mark.parametrize("p", [0.0, 0.2, 0.5])
def test_pruned_kernel_equals_textbook_sc(k, n, p):
    spec = ecc.construct_code(k, n, 0.1)
    llrs = _noisy_llrs(spec, p, 300, seed=k * 1000 + n)
    u, dec = sc_decode_batch(llrs, spec.frozen_mask, spec.m)
    ref_u, ref_x, ref_dec = _textbook_sc(llrs, spec.frozen_mask)
    info = spec.info_positions
    assert np.array_equal(u, ref_u)
    assert np.array_equal(dec[:, info].view(np.uint64), ref_dec[:, info].view(np.uint64))
    # the reference re-encodes its own decisions
    assert np.array_equal(ref_x, ecc.polar_transform(ref_u))


def test_schedule_skips_every_all_frozen_subtree(default_spec):
    N, m = default_spec.block_len, default_spec.m
    info = set(default_spec.info_positions.tolist())
    steps = backends._schedule(default_spec.frozen_mask.tobytes(), m)
    leaves = []
    for op, lo, hi, _, _ in steps:
        if op == backends._LEAF:
            leaves.append(hi)
            continue
        base = lo.start % N
        half = lo.stop - lo.start
        # the leaf range of the node whose LLRs or bits the step writes
        first, stop = {
            backends._F: (base, base + half),
            backends._G: (base + half, base + 2 * half),
            backends._COMBINE: (base, base + 2 * half),
        }[op]
        assert info & set(range(first, stop)), (op, first, stop)
    assert leaves == sorted(info)


def test_boxplus_against_high_precision_reference():
    # tanh(75) differs from 1 by ~1e-65, so the reference needs enough
    # digits that the product never rounds to exactly 1
    mp.mp.dps = 150

    def oracle(a, b):
        return float(2 * mp.atanh(mp.tanh(mp.mpf(a) / 2) * mp.tanh(mp.mpf(b) / 2)))

    rng = substream(5, "boxplus-grid")
    small = rng.uniform(-5, 5, 300)
    large = rng.uniform(-150, 150, 300)
    pairs = (
        list(zip(small[:150], small[150:]))
        + list(zip(large[:150], large[150:]))
        + list(zip(small[:150], large[:150]))
        + [(0.0, 3.0), (3.0, 0.0), (0.0, 0.0), (-2.2, 2.2), (60.0, -58.0)]
    )
    for a, b in pairs:
        got = float(_boxplus_np(np.float64(a), np.float64(b)))
        want = oracle(a, b)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), (a, b)


def test_known_bit_llrs_survive_boxplus():
    # the exact formula must stay finite when both inputs are huge
    v = _boxplus_np(np.float64(1e6), np.float64(1e6))
    assert np.isfinite(v)
    assert v == pytest.approx(1e6 - np.log(2.0), rel=1e-12)


def test_chunked_batches_match_single_frames(default_spec):
    llrs = _noisy_llrs(default_spec, 0.25, 5000, seed=21)  # crosses the 4096 chunk
    codes, scores, rel, last, mins = ecc.decode_batch(default_spec, llrs)
    assert codes.shape == (5000, default_spec.k)
    pick = substream(22, "pick").choice(5000, size=40, replace=False)
    for i in pick:
        one = ecc.decode(default_spec, llrs[i])
        assert np.array_equal(one.code, codes[i])
        assert one.reliability_score == scores[i]
        assert one.last_llr_mag == last[i]
        assert one.min_llr_mag == mins[i]


def test_sc_decode_batch_validation(default_spec):
    frozen = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError, match="2-D"):
        sc_decode_batch(np.zeros(4), frozen, 2)
    with pytest.raises(ValueError, match="block length"):
        sc_decode_batch(np.zeros((1, 5)), frozen, 2)
    with pytest.raises(ValueError, match="frozen_mask"):
        sc_decode_batch(np.zeros((1, 4)), np.zeros(3, dtype=np.uint8), 2)
