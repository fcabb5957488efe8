"""Successive-cancellation decode kernel.

A static schedule of ``f`` / ``g`` / combine / leaf steps, each vectorised
across the frame axis.  The schedule is compiled once per frozen mask and
leaves out every rate-0 (all-frozen) subtree, the first simplification of
Alamdar-Yazdi & Kschischang, "A simplified successive-cancellation decoder
for polar codes" (IEEE Comm. Letters, 2011).  The same rule shrinks the
steps next to a rate-0 left child, whose bits are known zeros: its
parent's ``g`` step is one add, since ``1.0 - 2.0*0 == 1.0`` and ``1.0*x
== x`` for every float (-0.0 included), and its parent's combine a copy,
since ``0 ^ r == r``.  Such copies chain up a right spine, and each chain
is one broadcast copy whose source is resolved when the schedule is
compiled.  At the default code 54 of the 509 steps of the full traversal
remain: 16 of the 25 ``g`` steps are adds, and the 16 copy-only combines
are 7 chains (Sarkis et al., "Fast polar decoders", IEEE JSAC 2014,
specialise more node kinds; their repetition and single-parity-check
shortcuts change decision LLRs and are not used).  A leaf writes only its
bit, and only where a later ``g`` step reads it; the decisions ``u`` and
their LLRs are read off the tree's leaf level once, after the last step.
Bits are held as the signs ``1 - 2b``, so a ``g`` step is one multiply and
one add, and a combine one multiply.  Every output bit equals the full
traversal's.

The schedule is bound to preallocated trees as a flat list of numpy
calls (:class:`_Tree`), and every decode runs on a tree its thread keeps
(:func:`_run`): at one frame the kernel's cost is its number of numpy
calls, and building a tree costs more than decoding a frame on it.  A
single frame runs on flat width-1 trees with the plain ``f`` below, a
batch in chunks of :func:`_chunk_frames` frames, the last one partial, on
one batch tree.  ``benchmarks/bench_backends.py`` times both.

A chunk holds as many frames as keep its two ``((m+1)*N, B)`` float64
trees within ``_CHUNK_BYTES``, and at least one: 256 at the default code
(N = 128).  A batch decodes faster in these cache-sized pieces than in the
4096-frame chunks (a 33.5 MB tree) of an earlier version (README,
"Decoder"), and the rule bounds a chunk's memory for long keys, where a
fixed frame count let it grow with N log N.

The check-node operation is the exact boxplus

    f(a, b) = (|a+b| - |a-b|) / 2 + log1p(exp(-|a+b|)) - log1p(exp(-|a-b|))

which equals ``2*atanh(tanh(a/2)*tanh(b/2))`` but stays finite for the
large known-bit LLRs injected at shortened positions.  A batch's ``f``
step takes ``e_t = log1p(exp(-min(t, 700)))`` in place of
``log1p(exp(-t))``: numpy's ``exp`` takes 5 to 160 times longer per element
once its result leaves the normal range (``exp(-708)`` is 3.3e-308), and
``|a+b|`` reaches 1e6 next to a known bit.  The output ``(0.5*(s-d) +
e_s) - e_d`` keeps every bit.  Clamped or not, ``e_t <= exp(-700) ≈
9.9e-305`` for ``t >= 700``.  If ``s == d``, both ways give ``e_s - e_s
== +0.0``.  Otherwise, where ``s`` or ``d`` is at least 700, ``|s-d| >=
2**-43`` (the spacing of floats at 700), and each term that the clamp can
change meets a partial sum of magnitude at least ``2**-45``, half of whose
ulp is far above ``exp(-700)``: clamped or not, the term is absorbed, and
the other term is not changed.  Infinities and NaNs pass through alike.
One frame's ``f`` has too few elements for the slow path to outweigh the
clamp's extra numpy call, so it runs the plain formula.

Keys.  A query's key is hard-decision input: each channel LLR of its frame
is one of three values, ``c`` or ``-c`` for an observed 0 or 1 (``c =
ln((1-p)/p)`` at the code's design flip rate) or the known-bit LLR past
the key's ``n`` bits.  :func:`sc_decode_keys` decodes such frames without
building them.  A depth-0 ``f`` or ``_G0`` step's output then takes at
most 9 values, a ``g`` step's 18 (it also reads the left child's bit),
and a depth-1 step on those outputs at most ``2 * 18 * 18``.  The kernel
computes these values once per code into tables (:func:`_step_table`), by
running its own calls on the table inputs, and a key tree's first two
levels hold symbols, small integer indices into the tables: a step there
is index arithmetic, plus one ``np.take`` where it writes LLRs.  Tables
apply to whatever ``f`` / ``g`` / ``_G0`` steps sit at depths 0 and 1, for
any frozen set: a depth-1 step reads only rows that a depth-0 step wrote.
Every other step, and every step of an LLR frame, runs as above.  The
looked-up values are bit for bit the computed ones: add, subtract,
multiply, abs, negate and min are elementwise IEEE operations, and numpy's
``exp`` and ``log1p`` give each element a result that depends neither on
its position in a contiguous block nor on the block's length (the tests
check every table entry inside wide batches, in every column, and the key
path against the LLR path on 216k keys).
"""
from __future__ import annotations

import functools
import threading

import numpy as np

#: Upper bound, in bytes, on one chunk's two float64 trees.
_CHUNK_BYTES = 4 << 20
#: Upper bound, in bytes, on the trees one thread keeps: six default-code
#: batch trees, or the one-frame tree of the longest key (n = 65536, 20 MB).
_CACHE_BYTES = 32 << 20


def _chunk_frames(m: int) -> int:
    """Frames per chunk at block length ``1 << m``: as many as keep the two
    ``((m+1)*N, B)`` float64 trees within ``_CHUNK_BYTES``, at least 1."""
    return max(1, _CHUNK_BYTES // (2 * (m + 1) * (1 << m) * 8))


def _boxplus_np(a, b):
    """The check-node update f(a, b), as written: the tests' reference.
    :class:`_Tree` runs the same operations in preallocated buffers, with
    ``exp``'s argument clamped at ``-_EXP_CLAMP`` (same bits)."""
    s = np.abs(a + b)
    d = np.abs(a - b)
    # exp underflows to 0.0 for the huge known-bit LLRs; log1p(0) == 0.
    return 0.5 * (s - d) + np.log1p(np.exp(-s)) - np.log1p(np.exp(-d))


# Step opcodes of a compiled decode schedule.  _G0 is the g step of a node
# whose left child holds no information leaf, and _COPY the combines of a
# chain of such nodes; _KNOWN writes the known-zero bits of an all-frozen
# right child that a combine reads.
_F, _G, _G0, _COMBINE, _COPY, _LEAF, _KNOWN = range(7)


@functools.lru_cache(maxsize=64)
def _schedule(frozen_bytes: bytes, m: int) -> tuple:
    """Depth-first SC traversal with every all-frozen subtree left out.

    The decode tree is stored flat: row ``depth * N + j`` holds level
    ``depth`` at leaf index ``j``.  A tree step is ``(op, lo, hi, child_lo,
    child_hi)``, the row slices of the node's left and right halves at its
    own level and one level down; a leaf step is ``(_LEAF, rows, position,
    None, None)``, with ``rows`` the leaf's one-row slice.

    A subtree whose leaves are all frozen decodes to zeros and its LLRs
    feed no decision, so neither its ``f``/``g`` step nor anything below it
    is emitted.  Nor is a combine or a leaf bit that no later ``g`` step
    reads.  Where the left child is such a subtree, its bits are zeros, so
    the node's ``g`` step is the plain sum ``_G0`` (``1.0 - 2.0*0 == 1.0``
    and ``1.0*x == x`` for every float) and its combine the plain copy
    ``0 ^ r == r`` of its right child's bits into both halves.  Such
    combines come in chains up a right spine, where each copies the node
    the previous one wrote; a chain is emitted as one ``(_COPY, rows, src,
    None, None)`` step, whose top node ``rows`` is the chain's first source
    ``src`` repeated, and whose skipped inner nodes no other step reads.
    Where a combine's right child is all frozen (never at a constructed
    code, where such a node is followed by no information leaf), a
    ``(_KNOWN, rows, None, None, None)`` step first writes that child's
    zero bits, since the kernel's bit tree starts undefined.  Every step
    that is kept computes the same bits as the full traversal.
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
            if live:
                steps.append((_LEAF, slice(row, row + 1), base, None, None))
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
        if not live:
            return
        if not left_info:
            node = slice(lo.start, hi.stop)
            if steps[-1][0] == _COPY and steps[-1][1] == c_hi:  # extend the chain
                steps[-1] = (_COPY, node, steps[-1][2], None, None)
            else:
                steps.append((_COPY, node, c_hi, None, None))
            return
        if not right_info:
            steps.append((_KNOWN, c_hi, None, None, None))
        steps.append((_COMBINE, lo, hi, c_lo, c_hi))

    if has_info(0, N):
        walk(0, 0, False)
    return tuple(steps)


# 0-d operands: numpy converts a Python float on every call
_HALF, _ZERO = np.array(0.5), np.array(0.0)
_SIGNS = np.array([1.0, -1.0])  # 1 - 2*bit, indexed by the bit
#: A batch's ``f`` takes ``exp(-min(t, 700))`` where the formula has
#: ``exp(-t)``: the same output bits (module docstring), while numpy's
#: ``exp`` takes 5 to 160 times longer per element once its result leaves the
#: normal range (t > 708).
_EXP_CLAMP = np.array(700.0)


def _f_calls(a, b, out, t, e, clamp: bool = True):
    """The numpy calls of one ``f`` step, ``out = f(a, b)``, with ``t`` and
    ``e`` contiguous ``(2,) + a.shape`` scratch: the operations of
    :func:`_boxplus_np`, in its order, on ``s`` and ``d`` stacked, with
    ``t`` clamped at ``_EXP_CLAMP`` before ``exp`` if ``clamp``."""
    if clamp:
        head = [(functools.partial(np.minimum, out=e), (t, _EXP_CLAMP)), (np.negative, (e, e))]
    else:
        head = [(np.negative, (t, e))]
    return [(np.add, (a, b, t[0])), (np.subtract, (a, b, t[1])), (np.absolute, (t, t)),
            *head, (np.exp, (e, e)), (np.log1p, (e, e)),
            (np.subtract, (t[0], t[1], out)), (np.multiply, (_HALF, out, out)),
            (np.add, (out, e[0], out)), (np.subtract, (out, e[1], out))]


def _g_calls(op, sign, lo, hi, out):
    """The numpy calls of a ``g`` step, ``out = hi + sign*lo``, or of a
    ``_G0`` step, ``out = hi + lo``."""
    if op == _G0:
        return [(np.add, (hi, lo, out))]
    return [(np.multiply, (sign, lo, out)), (np.add, (hi, out, out))]


@functools.lru_cache(maxsize=256)
def _step_table(op: int, values: bytes) -> np.ndarray:
    """Every output of an ``f``, ``g`` or ``_G0`` step whose inputs take the
    ``na`` float64 values ``values``: entry ``(s*na + i)*na + j`` is the
    step on ``lo = values[i]`` and ``hi = values[j]``, with the left
    child's bit ``s`` (0 unless ``op`` is ``_G``).  The entries are
    computed by the tree's own calls, on contiguous arrays like its blocks."""
    vals = np.frombuffer(values)
    na = vals.size
    lo, hi = np.repeat(vals, na), np.tile(vals, na)
    if op == _G:
        lo, hi = np.tile(lo, 2), np.tile(hi, 2)
    out = np.empty(lo.size)
    if op == _F:
        calls = _f_calls(lo, hi, out, np.empty((2, lo.size)), np.empty((2, lo.size)))
    else:
        calls = _g_calls(op, np.repeat(_SIGNS, na * na), lo, hi, out)
    for fn, args in calls:
        fn(*args)
    out.flags.writeable = False
    return out


class _Tree:
    """Working memory for decoding ``width`` frames at a time, with the
    schedule bound to it as a flat list of numpy calls.

    Each frame is a column of a ``((m+1)*N, width)`` LLR tree and of a sign
    tree of the same shape, which holds each decided bit ``b`` as the float
    ``1 - 2b`` (``(1 - 2a)(1 - 2b) == 1 - 2(a ^ b)``); a single frame uses
    flat ``((m+1)*N,)`` trees.  Every step reads only rows that an earlier
    step of the same decode wrote, so the trees start undefined and a
    decode leaves nothing behind that the next one reads, except the leaf
    level's zeros at frozen positions, which no step writes, as :meth:`decode`
    writes every column's input.  ``nbytes`` counts its arrays.  Every view a
    step uses is cut once, here, so running the schedule is one numpy call
    per operation, all with preallocated outputs:

    * ``f``: ``t = [a + b, a - b]``, ``t = |t|``, ``e = log1p(exp(-min(t,
      700)))``, then ``(0.5 * (t[0] - t[1]) + e[0]) - e[1]``
      (:func:`_f_calls`);
    * ``g``: ``sign * lo`` then ``hi + that``, which is ``hi + (1 - 2b) *
      lo`` to the bit; ``_G0`` is ``hi + lo``;
    * a combine multiplies the children's signs and copies the right one;
      a ``_COPY`` chain is one broadcast copy of its source;
    * a leaf looks its sign up as ``_SIGNS[L < 0.0]``.

    A key tree (``keys = (values bytes, n)``) decodes n-bit keys instead
    of LLR frames: the frame's LLR is ``values[b]`` where the key holds bit
    ``b`` and ``values[2]`` past its ``n`` bits.  Its first ``min(m, 2)``
    levels hold symbols, uint8 indices into the values their rows can take
    (just level 0 at ``m == 0``, whose one leaf's LLR is looked up): level
    0 the key bits and 2, level 1 a depth-0 step's table index ``(s*na +
    i)*na + j`` (:func:`_step_table`).  A step that reads symbols computes
    that index from its inputs' symbols ``i``, ``j`` and the left child's
    bit ``s``, and either keeps it as the next level's symbols or looks its
    output LLRs up in the table.
    """

    def __init__(self, steps, m: int, width: int, keys=None):
        N = 1 << m
        tail = (width,) if width > 1 else ()
        size = (m + 1) * N * width
        # One allocation for both trees and f's scratch, which the next call
        # reuses from the allocator's heap; separate trees went back to the
        # OS after each call and were faulted in again (≈400 page faults
        # per 512-frame call).
        block = np.empty(2 * size + 2 * N * width)
        self.llr = block[:size].reshape((-1,) + tail)
        self.llr[m * N:] = 0.0  # decision LLR of the frozen leaves
        self.leaves = self.llr[m * N:].reshape(N, width)
        sign = block[size : 2 * size].reshape((-1,) + tail)
        # f's scratch: a contiguous (2, h) + tail block per step (numpy
        # 2.4's negative misreads strided float64 input)
        t, e = block[2 * size : 2 * size + N * width], block[2 * size + N * width :]
        below = np.empty((1,) + tail, dtype=bool)
        self.nbytes = block.nbytes + below.nbytes
        llr = self.llr
        calls = []
        head, levels = llr, 0  # frames are written to head[:n]
        if keys is not None:
            values, n = np.frombuffer(keys[0]), keys[1]
            levels = min(m, 2)
            sym = head = np.zeros((max(levels, 1) * N,) + tail, dtype=np.uint8)
            sym[n:N] = 2
            if not levels:  # m == 0: the one leaf reads its LLR off level 0
                calls.append((values.take, (sym, None, llr[:N], "clip")))
            alphabet = {0: values}  # first row of a symbol range -> the values it indexes
            half = N * width // 2  # a step's output has at most this many elements
            # a step's scratch: the left child's bit s, then s*na*na as a
            # symbol or as an index, and the index
            bit, offset8 = np.empty(half, dtype=bool), np.empty(half, dtype=np.uint8)
            offset, index = np.empty(half, dtype=np.intp), np.empty(half, dtype=np.intp)
            self.nbytes += sum(a.nbytes for a in (sym, bit, offset8, offset, index))

        def symbol_step(op, lo, hi, c_lo, c_hi):
            """Calls of a step that reads symbols: its table index, kept as
            the next level's symbols or looked up into its output LLRs."""
            h = lo.stop - lo.start

            def cut(buf):  # the step's (h,) + tail view of a scratch buffer
                return buf[: h * width].reshape((h,) + tail)

            out = c_lo if op == _F else c_hi
            na = alphabet[lo.start].size
            table = _step_table(op, alphabet[lo.start].tobytes())
            keep = out.start < levels * N  # the index is the next level's symbols
            if keep:
                target, s_off = sym[out], cut(offset8)
                alphabet[out.start] = table
            else:
                target, s_off = cut(index), cut(offset)
            step = []
            if op == _G:
                s_bit = cut(bit)
                step += [(np.less, (sign[c_lo], _ZERO, s_bit)),
                         (np.multiply, (s_bit.view(np.uint8), np.array(na * na, target.dtype),
                                        s_off))]
            step += [(np.multiply, (sym[lo], np.array(na, target.dtype), target)),
                     (np.add, (target, sym[hi], target))]
            if op == _G:
                step.append((np.add, (target, s_off, target)))
            if not keep:
                step.append((table.take, (target, None, llr[out], "clip")))
            return step

        for op, lo, hi, c_lo, c_hi in steps:
            if op in (_F, _G, _G0) and lo.start < levels * N:
                calls += symbol_step(op, lo, hi, c_lo, c_hi)
            elif op == _F:
                h = lo.stop - lo.start
                # one frame's f has a few elements: a clamp call costs more
                # than exp's slow path on them
                tt = t[: 2 * h * width].reshape((2, h) + tail)
                ee = e[: 2 * h * width].reshape((2, h) + tail)
                calls += _f_calls(llr[lo], llr[hi], llr[c_lo], tt, ee, clamp=width > 1)
            elif op in (_G, _G0):
                calls += _g_calls(op, sign[c_lo], llr[lo], llr[hi], llr[c_hi])
            elif op == _COMBINE:
                calls += [(np.multiply, (sign[c_lo], sign[c_hi], sign[lo])),
                          (sign[hi].__setitem__, (..., sign[c_hi]))]
            elif op == _COPY:  # lo: the chain's top node, hi: its source
                w = hi.stop - hi.start
                top = sign[lo].reshape((-1, w) + tail)
                calls.append((top.__setitem__, (..., sign[hi])))
            elif op == _KNOWN:
                calls.append((sign[lo].__setitem__, (..., _SIGNS[0])))
            else:  # leaf
                calls += [(np.less, (llr[lo], _ZERO, below)),
                          (_SIGNS.take, (below, None, sign[lo], "clip"))]
        self.calls = calls
        self.head = head.reshape(-1, width)  # a flat tree's head as one column

    def decode(self, frames: np.ndarray, u: np.ndarray, dec: np.ndarray, rows=slice(None)) -> None:
        """Decode ``frames`` (at most ``width`` rows of LLR frames, or of keys
        for a key tree) into ``u`` and ``dec``, the decisions and decision
        LLRs of the leaves ``rows``.  Columns past ``frames``' rows decode
        its first frame again, not an earlier call's input."""
        B, n = frames.shape
        self.head[:n, :B] = frames.T
        self.head[:n, B:] = frames[:1].T
        for fn, args in self.calls:
            fn(*args)
        np.copyto(dec, self.leaves[rows, :B].T)
        # a leaf decides L < 0.0; frozen positions keep dec == 0, hence u == 0
        np.less(dec, _ZERO, out=u)


_local = threading.local()  # a tree is working memory: threads must not share one


def _run(frames, frozen: np.ndarray, m: int, u, dec, keys=None, rows=slice(None)) -> None:
    """Decode ``frames`` into ``u`` and ``dec`` in chunks of ``width``
    frames, 1 for a single frame, else :func:`_chunk_frames`, on the tree
    the calling thread keeps for the code, width and key values.  A new tree
    that would take the thread's trees past ``_CACHE_BYTES`` clears them
    first, and is not kept if it alone would."""
    B = frames.shape[0]
    width = 1 if B == 1 else _chunk_frames(m)
    key = (frozen.tobytes(), m, width, keys)
    trees = _local.__dict__
    tree = trees.get(key)
    if tree is None:
        tree = _Tree(_schedule(key[0], m), m, width, keys)
        if sum(t.nbytes for t in trees.values()) + tree.nbytes > _CACHE_BYTES:
            trees.clear()
        if tree.nbytes <= _CACHE_BYTES:
            trees[key] = tree
    for lo in range(0, B, width):
        tree.decode(frames[lo : lo + width], u[lo : lo + width], dec[lo : lo + width], rows)


def _frozen_mask(frozen_mask, N: int) -> np.ndarray:
    frozen = np.ascontiguousarray(frozen_mask, dtype=np.uint8)
    if frozen.shape != (N,):
        raise ValueError("frozen_mask length must equal the block length")
    return frozen


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

    A batch is decoded in chunks of :func:`_chunk_frames` rows, the most
    whose two float64 trees fit ``_CHUNK_BYTES`` (256 at the default code),
    on a tree kept per thread, and a single frame on a flat one; chunking
    changes no output bit, since every op is per frame.
    """
    chan = np.ascontiguousarray(chan_llrs, dtype=np.float64)
    if chan.ndim != 2:
        raise ValueError("chan_llrs must be 2-D (batch, block_len)")
    B, N = chan.shape
    if N != 1 << m:
        raise ValueError(f"frame length {N} does not match block length {1 << m}")
    frozen = _frozen_mask(frozen_mask, N)
    u = np.empty((B, N), dtype=np.uint8)
    dec = np.empty((B, N))
    _run(chan, frozen, m, u, dec)
    return u, dec


def sc_decode_keys(keys: np.ndarray, key_llrs, frozen_mask: np.ndarray, m: int):
    """Successive-cancellation decode of a batch of hard-decision keys.

    Decodes, bit for bit as :func:`sc_decode_batch` would, the LLR frames
    that hold ``key_llrs[b]`` where a key holds bit ``b`` and
    ``key_llrs[2]`` past its ``n`` bits, without building them: the steps
    that read the first two tree levels look their outputs up in tables
    (:class:`_Tree`).

    Parameters
    ----------
    keys : (B, n) uint8
        0/1 key bits, one key per row, n <= N == 1 << m; not checked.
    key_llrs : (3,) float64
        The LLRs of an observed 0, an observed 1 and a position past the
        key.
    frozen_mask, m
        As for :func:`sc_decode_batch`.

    Returns
    -------
    u : (B, k) uint8
        Hard decisions at the k information positions, in order.
    dec_llrs : (B, k) float64
        Their decision LLRs.
    """
    keys = np.ascontiguousarray(keys, dtype=np.uint8)
    if keys.ndim != 2:
        raise ValueError("keys must be 2-D (batch, n)")
    B, n = keys.shape
    N = 1 << m
    if n > N:
        raise ValueError(f"key length {n} exceeds block length {N}")
    frozen = _frozen_mask(frozen_mask, N)
    values = np.ascontiguousarray(key_llrs, dtype=np.float64)
    if values.shape != (3,):
        raise ValueError("key_llrs must hold 3 values")
    info = np.flatnonzero(frozen == 0)
    u = np.empty((B, info.size), dtype=np.uint8)
    dec = np.empty((B, info.size))
    _run(keys, frozen, m, u, dec, (values.tobytes(), n), info)
    return u, dec
