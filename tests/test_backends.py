from __future__ import annotations

import tracemalloc

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
            backends._G0: (base + half, base + 2 * half),
            backends._COMBINE: (base, base + 2 * half),
            backends._COPY: (base, base + 2 * half),
        }[op]
        assert info & set(range(first, stop)), (op, first, stop)
        if op != backends._F:
            # the add-only g and the copy-only combine read the left child's
            # bits as zeros, which holds only if it has no information leaf
            left_info = bool(info & set(range(base, base + half)))
            assert left_info == (op in (backends._G, backends._COMBINE)), (op, base, half)
    assert leaves == sorted(info)
    ops = [step[0] for step in steps]
    # at the default code the shortcuts cover 16 of 25 g steps and 16 of 19 combines
    assert (ops.count(backends._G0), ops.count(backends._G)) == (16, 9)
    assert (ops.count(backends._COPY), ops.count(backends._COMBINE)) == (16, 3)


def _raw_llrs(spec, frames, seed):
    """LLR frames no key produces: mixed magnitudes from 1e-3 to 1e3, with
    about a third of the entries drawn from -0.0, 0.0, +-KNOWN_BIT_LLR and
    the smallest floats."""
    rng = substream(seed, "raw-llrs")
    shape = (frames, spec.block_len)
    llrs = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    pool = np.array([-0.0, 0.0, ecc.KNOWN_BIT_LLR, -ecc.KNOWN_BIT_LLR, 5e-324, -5e-324])
    pick = rng.random(shape) < 0.35
    llrs[pick] = rng.choice(pool, size=int(pick.sum()))
    return llrs


@pytest.mark.parametrize("k,n", TINY_SHAPES + ((10, 100), (5, 33)))
def test_single_frames_equal_textbook_sc(k, n):
    """One frame runs the schedule over flat views; it must still match the
    textbook decoder bit for bit, signed zeros and known-bit LLRs included."""
    spec = ecc.construct_code(k, n, 0.1)
    llrs = np.vstack([_noisy_llrs(spec, 0.2, 30, seed=k * 1000 + n),
                      _raw_llrs(spec, 60, seed=k * 1000 + n)])
    assert np.signbit(llrs[llrs == 0.0]).any()
    ref_u, _, ref_dec = _textbook_sc(llrs, spec.frozen_mask)
    info = spec.info_positions
    for i, frame in enumerate(llrs):
        u, dec = sc_decode_batch(frame[None, :], spec.frozen_mask, spec.m)
        assert np.array_equal(u[0], ref_u[i]), i
        assert np.array_equal(dec[0, info].view(np.uint64), ref_dec[i, info].view(np.uint64)), i


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
    step = backends._chunk_frames(default_spec.m)
    frames = 2 * step + 7  # crosses two chunk boundaries
    llrs = _noisy_llrs(default_spec, 0.25, frames, seed=21)
    codes, scores, rel, last, mins = ecc.decode_batch(default_spec, llrs)
    assert codes.shape == (frames, default_spec.k)
    pick = substream(22, "pick").choice(frames, size=40, replace=False)
    edges = [step - 1, step, 2 * step - 1, 2 * step, frames - 1]
    for i in np.concatenate([pick, edges]):
        one = ecc.decode(default_spec, llrs[i])
        assert np.array_equal(one.code, codes[i])
        assert one.reliability_score == scores[i]
        assert one.last_llr_mag == last[i]
        assert one.min_llr_mag == mins[i]


def test_decode_memory_stays_within_chunk_budget():
    """A long code's batch decodes in chunks whose LLR tree fits the byte
    budget: the peak stays near a few budgets plus the outputs, not the
    ~30 MB a 300-frame tree of N = 1024 would take in one piece."""
    spec = ecc.construct_code(10, 1024, 0.1)
    frames = 300
    assert backends._chunk_frames(spec.m) < frames
    llrs = substream(31, "long-code").standard_normal((frames, spec.block_len)) * 4.0
    sc_decode_batch(llrs[:2], spec.frozen_mask, spec.m)  # compile the schedule
    outputs = frames * spec.block_len * (1 + 8)  # u (uint8) and dec (float64)
    tracemalloc.start()
    try:
        sc_decode_batch(llrs, spec.frozen_mask, spec.m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * backends._CHUNK_BYTES + outputs, peak


def test_sc_decode_batch_validation(default_spec):
    frozen = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError, match="2-D"):
        sc_decode_batch(np.zeros(4), frozen, 2)
    with pytest.raises(ValueError, match="block length"):
        sc_decode_batch(np.zeros((1, 5)), frozen, 2)
    with pytest.raises(ValueError, match="frozen_mask"):
        sc_decode_batch(np.zeros((1, 4)), np.zeros(3, dtype=np.uint8), 2)
