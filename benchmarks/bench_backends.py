"""Time the SC decoder: batch throughput and single-frame latency, for LLR
frames and for keys.

Run:  python3 benchmarks/bench_backends.py [--frames 20000] [--p 0.2]

LLR frames are timed through ``ecc.decode_batch`` (a batch) and, one frame
at a time, through ``ecc.decode`` (the library's per-frame path) and the
kernel alone (``sc_decode_batch`` on one row), so the wrapper's share
shows.  Keys, the frames' hard-decision bits, are timed through
``ecc.decode_keys``, the decoder the query path and the evaluation use: a
batch of ``--frames`` keys and single keys.  The rows' passes are
interleaved, one pass of each row per round, so that a host whose speed
drifts over the run slows every row alike rather than whichever row ran
last.  Also prints how many frames one kernel call decodes at this code:
the most whose two float64 trees fit the decoder's byte budget.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from drew import backends, ecc
from drew.rng import substream

PASSES = 7


def _workload(spec, frames: int, p: float):
    """``frames`` keys flipped at rate ``p``, and their LLR frames."""
    rng = substream(1234, f"bench/p={p!r}")
    msgs = rng.integers(0, 1 << spec.k, size=frames)
    keys = ecc.encode_all(spec)[msgs]
    keys = keys ^ (rng.random(keys.shape) < p).astype(np.uint8)
    return keys, ecc.llr_from_keys(spec, keys, spec.design_p)


def _spread(times: list[float]) -> tuple[float, float, float]:
    """(median, min, max) of repeated timings."""
    return float(np.median(times)), min(times), max(times)


def _batch_pass(decode, frames) -> float:
    """Seconds to decode every frame in one ``decode(frames)`` call."""
    t0 = time.perf_counter()
    decode(frames)
    return time.perf_counter() - t0


def _single_pass(decode_one, frames, count: int = 200) -> float:
    """Seconds per frame over ``count`` calls of ``decode_one(frames[i:i+1])``."""
    t0 = time.perf_counter()
    for i in range(count):
        j = i % len(frames)
        decode_one(frames[j : j + 1])
    return (time.perf_counter() - t0) / count


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--design-p", type=float, default=0.1)
    ap.add_argument("--frames", type=int, default=20000)
    ap.add_argument("--p", type=float, default=0.2, help="channel flip rate")
    args = ap.parse_args()

    spec = ecc.construct_code(args.k, args.n, args.design_p)
    keys, llrs = _workload(spec, args.frames, args.p)

    print(f"spec: k={spec.k} n={spec.n} block_len={spec.block_len} "
          f"design_p={spec.design_p}  frames={args.frames}  p={args.p}")
    print(f"frames per chunk: {backends._chunk_frames(spec.m)} "
          f"(tree budget {backends._CHUNK_BYTES / 2**20:g} MiB)")
    print(f"medians of {PASSES} interleaved passes, [min-max] in brackets")

    frozen, m = spec.frozen_mask, spec.m
    gate = (0.5, "last-bit")
    rows = (
        ("LLR batch, ecc.decode_batch (frames/s)", True,
         lambda: _batch_pass(lambda f: ecc.decode_batch(spec, f), llrs)),
        ("key batch, ecc.decode_keys (frames/s)", True,
         lambda: _batch_pass(lambda f: ecc.decode_keys(spec, f, *gate), keys)),
        ("one LLR frame, ecc.decode (us)", False,
         lambda: _single_pass(lambda f: ecc.decode(spec, f[0]), llrs)),
        ("one LLR frame, kernel alone (us)", False,
         lambda: _single_pass(lambda f: backends.sc_decode_batch(f, frozen, m), llrs)),
        ("one key, ecc.decode_keys (us)", False,
         lambda: _single_pass(lambda f: ecc.decode_keys(spec, f, *gate), keys)),
    )
    for _, _, run in rows:  # warm-up
        run()
    times = [[] for _ in rows]
    for _ in range(PASSES):
        for (_, _, run), row_times in zip(rows, times):
            row_times.append(run())
    width = max(len(name) for name, _, _ in rows)
    for (name, batch, _), row_times in zip(rows, times):
        mid, lo, hi = _spread(row_times)
        if batch:  # frames per second: the fastest pass is the highest rate
            text = f"{args.frames / mid:.0f} [{args.frames / hi:.0f}-{args.frames / lo:.0f}]"
        else:
            text = f"{mid * 1e6:.1f} [{lo * 1e6:.1f}-{hi * 1e6:.1f}]"
        print(f"{name:<{width}s}  {text}")


if __name__ == "__main__":
    main()
