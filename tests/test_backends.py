from __future__ import annotations

import sys
import threading
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


def _rows(rows):
    return set(range(rows.start, rows.stop))


def _bit_flow(steps):
    """Per step, the sign-tree rows it reads and writes."""
    for op, lo, hi, c_lo, c_hi in steps:
        reads, writes = {
            backends._G: ((c_lo,), ()),
            backends._COMBINE: ((c_lo, c_hi), (lo, hi)),
            backends._COPY: ((hi,), (lo,)),  # lo: the chain's top node, hi: its source
            backends._LEAF: ((), (lo,)),
            backends._KNOWN: ((), (lo,)),
        }.get(op, ((), ()))
        yield op, set().union(*map(_rows, reads)), set().union(*map(_rows, writes))


def _check_dataflow(steps, N):
    """Every row a step reads was written earlier in the same decode (the
    trees start undefined; level 0 holds the channel LLRs, and the leaf
    level's LLRs are read off at the end), and every sign row a step writes
    is read later by a g step, directly or through later combines."""
    llr_written = set(range(N))
    for op, lo, hi, c_lo, c_hi in steps:
        if op in (backends._F, backends._G, backends._G0):
            assert _rows(lo) | _rows(hi) <= llr_written, (op, lo)
            llr_written |= _rows(c_lo if op == backends._F else c_hi)
    written = set()
    for op, reads, writes in _bit_flow(steps):
        assert reads <= written, (op, sorted(reads - written))
        written |= writes
    needed = set()
    for op, reads, writes in reversed(list(_bit_flow(steps))):
        if op != backends._G:
            assert writes <= needed, (op, sorted(writes - needed))
        needed |= reads


def test_schedule_skips_every_all_frozen_subtree(default_spec):
    N, m = default_spec.block_len, default_spec.m
    info = set(default_spec.info_positions.tolist())
    steps = backends._schedule(default_spec.frozen_mask.tobytes(), m)
    for op, lo, hi, _, _ in steps:
        if op == backends._LEAF:
            assert lo.stop - lo.start == 1 and lo.start == m * N + hi and hi in info
            continue
        base = lo.start % N
        half = lo.stop - lo.start
        if op == backends._COPY:
            # a chain of copy-only combines up a right spine: the top node's
            # information leaves all lie in its source, the spine's lowest node
            width = hi.stop - hi.start
            src_base = hi.start % N
            assert half % width == 0 and (half // width) & (half // width - 1) == 0
            assert src_base + width == base + half and hi.start // N > lo.start // N
            assert info & set(range(src_base, src_base + width))
            assert not info & set(range(base, src_base))
            continue
        assert op != backends._KNOWN  # a constructed code never needs one
        # the leaf range of the node whose LLRs or bits the step writes
        first, stop = {
            backends._F: (base, base + half),
            backends._G: (base + half, base + 2 * half),
            backends._G0: (base + half, base + 2 * half),
            backends._COMBINE: (base, base + 2 * half),
        }[op]
        assert info & set(range(first, stop)), (op, first, stop)
        if op != backends._F:
            # the add-only g reads the left child's bits as zeros, which holds
            # only if it has no information leaf
            left_info = bool(info & set(range(base, base + half)))
            assert left_info == (op in (backends._G, backends._COMBINE)), (op, base, half)
    _check_dataflow(steps, N)
    ops = [step[0] for step in steps]
    # at the default code the shortcuts cover 16 of 25 g steps; the 16
    # copy-only combines form 7 chains, next to 3 full combines; the last
    # information leaf's bit is read by no g step
    assert (ops.count(backends._G0), ops.count(backends._G)) == (16, 9)
    assert (ops.count(backends._COPY), ops.count(backends._COMBINE)) == (7, 3)
    assert ops.count(backends._LEAF) == len(info) - 1


def test_random_frozen_masks_equal_textbook_sc():
    """Any frozen mask, not only a constructed code's: the schedule's
    dataflow holds and the kernel matches the textbook decoder, in batches
    and one frame at a time.  Some masks put an all-frozen right child under
    a combine whose bits a later g step reads (the _KNOWN step)."""
    rng = substream(41, "random-masks")
    known = 0
    for trial in range(60):
        m = 1 + trial % 5
        N = 1 << m
        frozen = (rng.random(N) < 0.5).astype(np.uint8)
        steps = backends._schedule(frozen.tobytes(), m)
        _check_dataflow(steps, N)
        known += any(step[0] == backends._KNOWN for step in steps)
        llrs = rng.standard_normal((9, N)) * 10.0 ** rng.integers(-3, 4, size=(9, N))
        ref_u, _, ref_dec = _textbook_sc(llrs, frozen)
        info = np.flatnonzero(frozen == 0)
        u, dec = sc_decode_batch(llrs, frozen, m)
        assert np.array_equal(u, ref_u), trial
        assert np.array_equal(dec[:, info].view(np.uint64), ref_dec[:, info].view(np.uint64))
        for i in range(3):
            u1, dec1 = sc_decode_batch(llrs[i : i + 1], frozen, m)
            assert np.array_equal(u1[0], ref_u[i]) and np.array_equal(dec1[0], dec[i])
    assert known >= 5, known


def test_single_frames_decode_alike_from_many_threads(default_spec):
    """Each thread decodes single frames on its own bound tree: threads
    switching every microsecond mid-decode get the batch's answers."""
    llrs = _noisy_llrs(default_spec, 0.2, 64, seed=51)
    want_u, want_dec = sc_decode_batch(llrs, default_spec.frozen_mask, default_spec.m)
    wrong = []

    def work(offset):
        for i in range(3 * len(llrs)):
            j = (i + offset) % len(llrs)
            u, dec = sc_decode_batch(llrs[j : j + 1], default_spec.frozen_mask, default_spec.m)
            if not (np.array_equal(u[0], want_u[j]) and np.array_equal(dec[0], want_dec[j])):
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k * 16,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


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


# codes for the key path: the default code (a depth-1 _G0 step on the left
# half, a depth-1 f on the right), no f at depth 0 (3, 8), a depth-1 g
# (4, 7), the two levels of a 64-block (5, 33), and one- and two-level
# trees (1, 1) and (2, 2)
KEY_SHAPES = ((10, 100), (3, 8), (4, 7), (5, 33), (2, 2), (1, 1))


def _symbol_steps(spec):
    """The (op, depth, lo, hi, c_lo, c_hi) of the steps a key tree runs on
    symbols: the f, g and _G0 steps of the first two levels."""
    N = spec.block_len
    for op, lo, hi, c_lo, c_hi in backends._schedule(spec.frozen_mask.tobytes(), spec.m):
        if op in (backends._F, backends._G, backends._G0) and lo.start < 2 * N:
            yield op, lo.start // N, lo, hi, c_lo, c_hi


def test_key_shapes_cover_every_symbol_step():
    seen = set()
    for k, n in KEY_SHAPES:
        spec = ecc.construct_code(k, n, 0.1)
        seen |= {(op, depth, lo.start == spec.block_len)
                 for op, depth, lo, *_ in _symbol_steps(spec)}
    F, G, G0 = backends._F, backends._G, backends._G0
    assert {(op, depth) for op, depth, _ in seen} == {(op, d) for op in (F, G, G0) for d in (0, 1)}
    assert {(1, True), (1, False)} <= {(depth, left) for _, depth, left in seen}
    no_f = ecc.construct_code(3, 8, 0.1)
    assert (F, 0) not in {(op, depth) for op, depth, *_ in _symbol_steps(no_f)}


@pytest.mark.parametrize("k,n", KEY_SHAPES)
def test_key_path_equals_llr_path(k, n):
    """Keys decode to the bits of their LLR frames, decisions and the
    information positions' decision LLRs, at p from 0 to 0.5, in single
    frames and batches of 7, 256 and 1000 (several chunks at the default
    code): 36000 keys per code, 216000 in all."""
    spec = ecc.construct_code(k, n, 0.1)
    key_llrs = ecc._bit_llrs(spec.design_p)
    info = spec.info_positions
    widths = (1, 1, 1, 7, 7, 256, 1000)
    for p in (0.0, 0.05, 0.1, 0.2, 0.3, 0.5):
        rng = substream(k * 1000 + n, f"key-path/p={p!r}")
        msgs = rng.integers(0, 1 << spec.k, size=6000)
        keys = ecc.encode_all(spec)[msgs]
        keys ^= rng.random(keys.shape) < p
        want_u, want_dec = sc_decode_batch(ecc.llr_from_keys(spec, keys, spec.design_p),
                                           spec.frozen_mask, spec.m)
        want_u, want_dec = want_u[:, info], want_dec[:, info]
        bounds = np.cumsum((0,) + widths + (6000 - sum(widths),))
        for lo, hi in zip(bounds, bounds[1:]):
            u, dec = backends.sc_decode_keys(keys[lo:hi], key_llrs, spec.frozen_mask, spec.m)
            assert np.array_equal(u, want_u[lo:hi]), (p, lo)
            assert np.array_equal(dec.view(np.uint64), want_dec[lo:hi].view(np.uint64)), (p, lo)


@pytest.mark.parametrize("k,n", KEY_SHAPES[:-1])  # (1, 1) has no step
def test_step_tables_equal_the_steps_in_wide_batches(k, n):
    """Each table entry is what the same step computes on its inputs inside
    a wide batch, in every column: numpy's exp and log1p give an element the
    same result wherever it sits in a contiguous block."""
    spec = ecc.construct_code(k, n, 0.1)
    values = {0: ecc._bit_llrs(spec.design_p)}  # first row of a symbol range -> its values
    checked = 0
    for op, _, lo, _, c_lo, c_hi in _symbol_steps(spec):
        vals = values[lo.start]
        table = backends._step_table(op, vals.tobytes())
        values[(c_lo if op == backends._F else c_hi).start] = table
        na = vals.size
        size = table.size
        for width in (1, 7, 37, 256):
            a = np.repeat(np.tile(np.repeat(vals, na), size // na ** 2)[:, None], width, axis=1)
            b = np.repeat(np.tile(vals, size // na)[:, None], width, axis=1)
            sign = np.repeat(np.repeat(backends._SIGNS, na * na)[: size, None], width, axis=1)
            out = np.empty((size, width))
            if op == backends._F:
                calls = backends._f_calls(a, b, out, np.empty((2, size, width)),
                                          np.empty((2, size, width)))
            else:
                calls = backends._g_calls(op, sign, a, b, out)
            for fn, args in calls:
                fn(*args)
            assert np.array_equal(out.view(np.uint64),
                                  np.broadcast_to(table[:, None], out.shape).view(np.uint64))
        checked += 1
    assert checked


def test_exp_clamp_changes_no_f_output():
    """f with exp's argument clamped at -700 gives the unclamped formula's
    bits where |a + b| or |a - b| is 699.99, 700, 745, 746 or 1e6, where
    the two are equal and where they are not, and on non-finite input."""
    edges = np.array([699.99, np.nextafter(700.0, 0.0), 700.0, np.nextafter(700.0, 1e9),
                      745.0, 746.0, 1e6])
    small = np.array([0.0, 5e-324, 1e-300, 1e-3, 0.5, 1.0, 5.0, 36.0, 349.995, 350.0, 699.0])
    base = np.concatenate([edges, edges / 2.0, small, edges - 0.5, edges + 1e-3])
    base = np.concatenate([base, -base])
    a, b = (g.ravel() for g in np.meshgrid(base, base))
    s, d = np.abs(a + b), np.abs(a - b)
    for edge in (699.99, 700.0, 745.0, 746.0, 1e6):
        assert (s == edge).any() and (d == edge).any(), edge
    assert ((s == d) & (s >= 700.0)).any() and ((s != d) & (s >= 700.0) & (d >= 700.0)).any()
    # infinities, NaN and sums that overflow pass through alike
    extremes = np.array([np.inf, -np.inf, np.nan, 1e308, -1e308])
    a = np.concatenate([a, np.repeat(extremes, base.size), np.tile(base, extremes.size)])
    b = np.concatenate([b, np.tile(base, extremes.size), np.repeat(extremes, base.size)])
    out = np.empty(a.size)
    scratch = np.empty((2, a.size)), np.empty((2, a.size))
    with np.errstate(invalid="ignore", over="ignore"):
        for fn, args in backends._f_calls(a, b, out, *scratch):
            fn(*args)
        want = _boxplus_np(a, b)
    assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


def test_decode_keys_builds_no_llr_frames(default_spec):
    """decode_keys on 100k keys holds the decisions and decision LLRs of the
    information positions, not (B, N) float64 frames (102 MB here)."""
    rng = substream(61, "key-memory")
    keys = ecc.encode_all(default_spec)[rng.integers(0, 1 << default_spec.k, size=100_000)]
    keys ^= rng.random(keys.shape) < 0.1
    ecc.decode_keys(default_spec, keys[:300], 0.5, "last-bit")  # compile the schedule
    tracemalloc.start()
    try:
        ecc.decode_keys(default_spec, keys, 0.5, "last-bit")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30 << 20, peak


def test_sc_decode_keys_validation(default_spec):
    frozen, key_llrs = np.zeros(4, dtype=np.uint8), ecc._bit_llrs(0.1)
    with pytest.raises(ValueError, match="2-D"):
        backends.sc_decode_keys(np.zeros(4, dtype=np.uint8), key_llrs, frozen, 2)
    with pytest.raises(ValueError, match="exceeds"):
        backends.sc_decode_keys(np.zeros((1, 5), dtype=np.uint8), key_llrs, frozen, 2)
    with pytest.raises(ValueError, match="frozen_mask"):
        backends.sc_decode_keys(np.zeros((1, 4), dtype=np.uint8), key_llrs, frozen[:3], 2)
    with pytest.raises(ValueError, match="3 values"):
        backends.sc_decode_keys(np.zeros((1, 4), dtype=np.uint8), key_llrs[:2], frozen, 2)
    with pytest.raises(ValueError, match="mode"):
        ecc.decode_keys(default_spec, np.zeros((1, 100), dtype=np.uint8), 0.5, "ml")
