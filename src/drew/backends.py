"""Successive-cancellation decode kernel.

A static schedule of ``f`` / ``g`` / combine / leaf steps, each vectorised
across the frame axis.  The schedule is compiled once per frozen mask and
leaves out every rate-0 (all-frozen) subtree, the first simplification of
Alamdar-Yazdi & Kschischang, "A simplified successive-cancellation decoder
for polar codes" (IEEE Comm. Letters, 2011).  At the default code only 64
of the 509 steps of the full traversal remain, and every kept step does the
same arithmetic as the full traversal.  ``benchmarks/bench_backends.py``
times it.

The check-node operation is the exact boxplus

    f(a, b) = (|a+b| - |a-b|) / 2 + log1p(exp(-|a+b|)) - log1p(exp(-|a-b|))

which equals ``2*atanh(tanh(a/2)*tanh(b/2))`` but stays finite for the
large known-bit LLRs injected at shortened positions.
"""
from __future__ import annotations

import functools

import numpy as np

# Frames per kernel call; bounds the (m+1, N, B) scratch tree to a few MB.
_CHUNK = 4096


# The pruned step schedule; every array op carries the batch axis last.

def _boxplus_np(a, b):
    s = np.abs(a + b)
    d = np.abs(a - b)
    # exp underflows to 0.0 for the huge known-bit LLRs; log1p(0) == 0.
    return 0.5 * (s - d) + np.log1p(np.exp(-s)) - np.log1p(np.exp(-d))


# Step opcodes of a compiled decode schedule.
_F, _G, _COMBINE, _LEAF = range(4)


@functools.lru_cache(maxsize=64)
def _schedule(frozen_bytes: bytes, m: int) -> tuple:
    """Depth-first SC traversal with every all-frozen subtree left out.

    The decode tree is stored flat: row ``depth * N + j`` holds level
    ``depth`` at leaf index ``j``.  A tree step is ``(op, lo, hi, child_lo,
    child_hi)``, the row slices of the node's left and right halves at its
    own level and one level down; a leaf step is ``(_LEAF, row, position,
    None, None)``.

    A subtree whose leaves are all frozen decodes to zeros, which the
    zero-initialised bit tree already holds, and its LLRs feed no decision,
    so neither its ``f``/``g`` step nor anything below it is emitted.  Nor is
    a combine whose bits no later ``g`` step reads.  Every step that is kept
    does the same arithmetic as the full traversal.
    """
    N = 1 << m
    frozen = np.frombuffer(frozen_bytes, dtype=np.uint8)
    # info_before[j] = number of information positions among leaves < j
    info_before = np.concatenate(([0], np.cumsum(frozen == 0)))
    steps = []

    def has_info(base, size):
        return info_before[base + size] > info_before[base]

    def walk(depth, base, live):
        # live: a later g step reads this node's bits
        row = depth * N + base
        if depth == m:
            steps.append((_LEAF, row, base, None, None))
            return
        half = N >> (depth + 1)
        lo, hi = slice(row, row + half), slice(row + half, row + 2 * half)
        c_lo, c_hi = slice(lo.start + N, lo.stop + N), slice(hi.start + N, hi.stop + N)
        right_info = has_info(base + half, half)
        if has_info(base, half):
            steps.append((_F, lo, hi, c_lo, c_hi))
            walk(depth + 1, base, live or right_info)
        if right_info:
            steps.append((_G, lo, hi, c_lo, c_hi))
            walk(depth + 1, base + half, live)
        if live:
            steps.append((_COMBINE, lo, hi, c_lo, c_hi))

    if has_info(0, N):
        walk(0, 0, False)
    return tuple(steps)


def _decode_batch_np(chan, frozen, m):
    B, N = chan.shape
    llr = np.empty(((m + 1) * N, B))
    bits = np.zeros(((m + 1) * N, B), dtype=np.uint8)
    llr[:N] = chan.T
    u = np.zeros((N, B), dtype=np.uint8)
    dec = np.zeros((N, B))
    for op, lo, hi, c_lo, c_hi in _schedule(frozen.tobytes(), m):
        if op == _F:
            llr[c_lo] = _boxplus_np(llr[lo], llr[hi])
        elif op == _G:
            llr[c_hi] = llr[hi] + (1.0 - 2.0 * bits[c_lo]) * llr[lo]
        elif op == _COMBINE:
            right = bits[c_hi]
            bits[lo] = bits[c_lo] ^ right
            bits[hi] = right
        else:  # leaf: lo is its tree row, hi its position
            L = llr[lo]
            dec[hi] = L
            u[hi] = L < 0.0
            bits[lo] = u[hi]
    return np.ascontiguousarray(u.T), np.ascontiguousarray(dec.T)


def active_backend() -> str:
    """Name of the decode kernel, for benchmark reports; numpy is the only one."""
    return "numpy"


def sc_decode_batch(chan_llrs: np.ndarray, frozen_mask: np.ndarray, m: int):
    """Successive-cancellation decode of a batch of LLR frames.

    Parameters
    ----------
    chan_llrs : (B, N) float64
        Channel LLRs, one frame per row; N == 1 << m.  Positive favours 0.
    frozen_mask : (N,) uint8
        1 at frozen input positions (decoded as 0 regardless of the data).
    m : int
        log2 of the block length.

    Returns
    -------
    u : (B, N) uint8
        Hard decisions for every input bit, frozen bits forced to 0.
    dec_llrs : (B, N) float64
        Decision LLR observed at each information position.  Only those
        positions are defined: the kernel never computes the LLRs of
        frozen leaves (they decide nothing) and leaves them 0.

    Frames are decoded in chunks of at most ``_CHUNK`` rows.
    """
    chan = np.ascontiguousarray(chan_llrs, dtype=np.float64)
    if chan.ndim != 2:
        raise ValueError("chan_llrs must be 2-D (batch, block_len)")
    B, N = chan.shape
    if N != 1 << m:
        raise ValueError(f"frame length {N} does not match block length {1 << m}")
    frozen = np.ascontiguousarray(frozen_mask, dtype=np.uint8)
    if frozen.shape != (N,):
        raise ValueError("frozen_mask length must equal the block length")
    if B <= _CHUNK:
        return _decode_batch_np(chan, frozen, m)
    u = np.empty((B, N), dtype=np.uint8)
    dec = np.empty((B, N))
    for lo in range(0, B, _CHUNK):
        hi = min(lo + _CHUNK, B)
        u[lo:hi], dec[lo:hi] = _decode_batch_np(chan[lo:hi], frozen, m)
    return u, dec
