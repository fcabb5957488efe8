"""Successive-cancellation decode kernel.

A static schedule of ``f`` / ``g`` / combine / leaf steps, each vectorised
across the frame axis.  The schedule is compiled once per frozen mask and
leaves out every rate-0 (all-frozen) subtree, the first simplification of
Alamdar-Yazdi & Kschischang, "A simplified successive-cancellation decoder
for polar codes" (IEEE Comm. Letters, 2011).  At the default code only 64
of the 509 steps of the full traversal remain.  The same rule shrinks the
steps next to a rate-0 left child, whose bits are the known zeros of the
zero-initialised bit tree: its parent's ``g`` step is one add, since
``1.0 - 2.0*0 == 1.0`` and ``1.0*x == x`` for every float (-0.0
included), and its parent's combine one copy, since ``0 ^ r == r``.  At
the default code these cover 16 of the 25 ``g`` steps and 16 of the 19
combines (Sarkis et al., "Fast polar decoders", IEEE JSAC 2014, specialise
more node kinds; their repetition and single-parity-check shortcuts change
decision LLRs and are not used).  A leaf writes only its decision LLR and
its bit; the decisions ``u`` are read off the LLRs once, after the last
step.  Every output bit equals the full traversal's.

A single frame runs the same steps over flat 1-D views of the tree, where
slicing and scalar leaf reads cost less than on ``(h, 1)`` views; at one
frame the kernel's cost is its number of numpy calls, not arithmetic.
``benchmarks/bench_backends.py`` times both paths.

Large batches are decoded in chunks sized by bytes, not frames: a chunk
holds as many frames as keep its ``((m+1)*N, B)`` float64 LLR tree within
``_CHUNK_BYTES``, and at least one.  At the default code (N = 128) that is
512 frames; a batch decodes faster in these cache-sized pieces than in the
4096-frame chunks (a 33.5 MB tree) they replaced (README, "Decoder").  The
rule also bounds a chunk's memory for long keys, where a fixed frame count
let it grow with N log N.

The check-node operation is the exact boxplus

    f(a, b) = (|a+b| - |a-b|) / 2 + log1p(exp(-|a+b|)) - log1p(exp(-|a-b|))

which equals ``2*atanh(tanh(a/2)*tanh(b/2))`` but stays finite for the
large known-bit LLRs injected at shortened positions.
"""
from __future__ import annotations

import functools

import numpy as np

#: Upper bound, in bytes, on one chunk's float64 LLR tree.
_CHUNK_BYTES = 4 << 20


def _chunk_frames(m: int) -> int:
    """Frames per kernel call at block length ``1 << m``: as many as keep
    the ``((m+1)*N, B)`` float64 LLR tree within ``_CHUNK_BYTES``, at least 1."""
    return max(1, _CHUNK_BYTES // ((m + 1) * (1 << m) * 8))


# The pruned step schedule; every array op carries the batch axis last.

def _boxplus_np(a, b):
    s = np.abs(a + b)
    d = np.abs(a - b)
    # exp underflows to 0.0 for the huge known-bit LLRs; log1p(0) == 0.
    return 0.5 * (s - d) + np.log1p(np.exp(-s)) - np.log1p(np.exp(-d))


# Step opcodes of a compiled decode schedule.  _G0 and _COPY are the g step
# and the combine of a node whose left child holds no information leaf.
_F, _G, _G0, _COMBINE, _COPY, _LEAF = range(6)


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
    a combine whose bits no later ``g`` step reads.  Where the left child is
    such a subtree, its bits stay the tree's zeros, so the node's ``g`` step
    is the plain sum ``_G0`` (``1.0 - 2.0*0 == 1.0`` and ``1.0*x == x`` for
    every float) and its combine the plain copy ``_COPY`` (``0 ^ r == r``).
    Every step that is kept computes the same bits as the full traversal.
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
        left_info, right_info = has_info(base, half), has_info(base + half, half)
        if left_info:
            steps.append((_F, lo, hi, c_lo, c_hi))
            walk(depth + 1, base, live or right_info)
        if right_info:
            steps.append((_G if left_info else _G0, lo, hi, c_lo, c_hi))
            walk(depth + 1, base + half, live)
        if live:
            steps.append((_COMBINE if left_info else _COPY, lo, hi, c_lo, c_hi))

    if has_info(0, N):
        walk(0, 0, False)
    return tuple(steps)


def _decode_batch_np(chan, frozen, m):
    B, N = chan.shape
    llr = np.empty(((m + 1) * N, B))
    llr[:N] = chan.T
    bits = np.zeros(((m + 1) * N, B), dtype=np.uint8)
    dec = leaf_llr = np.zeros((N, B))
    if B == 1:
        # One frame runs the same steps on flat views: 1-D slices and
        # scalar leaf reads cost less than (h, 1) views.
        llr, bits, leaf_llr = llr.reshape(-1), bits.reshape(-1), dec.reshape(-1)
    for op, lo, hi, c_lo, c_hi in _schedule(frozen.tobytes(), m):
        if op == _F:
            llr[c_lo] = _boxplus_np(llr[lo], llr[hi])
        elif op == _G0:
            np.add(llr[hi], llr[lo], out=llr[c_hi])
        elif op == _G:
            llr[c_hi] = llr[hi] + (1.0 - 2.0 * bits[c_lo]) * llr[lo]
        elif op == _COPY:
            bits[lo] = bits[hi] = bits[c_hi]
        elif op == _COMBINE:
            right = bits[c_hi]
            bits[lo] = bits[c_lo] ^ right
            bits[hi] = right
        else:  # leaf: lo is its tree row, hi its position
            L = llr[lo]
            leaf_llr[hi] = L
            bits[lo] = L < 0.0
    # a leaf decides L < 0.0; frozen positions keep dec == 0, hence u == 0
    u = (dec < 0.0).view(np.uint8)
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

    Frames are decoded in chunks of :func:`_chunk_frames` rows, the most
    whose float64 LLR tree fits ``_CHUNK_BYTES`` (512 at the default
    code); chunking changes no output bit, since every op is per frame.
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
    step = _chunk_frames(m)
    if B <= step:
        return _decode_batch_np(chan, frozen, m)
    u = np.empty((B, N), dtype=np.uint8)
    dec = np.empty((B, N))
    for lo in range(0, B, step):
        u[lo : lo + step], dec[lo : lo + step] = _decode_batch_np(chan[lo : lo + step], frozen, m)
    return u, dec
