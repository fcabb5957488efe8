"""Time the SC decoder: batch throughput and single-frame latency.

Run:  python3 benchmarks/bench_backends.py [--frames 20000] [--p 0.2]

The single-frame latency is given twice: through ``ecc.decode`` (the
library's per-query path) and for the kernel alone (``sc_decode_batch`` on
one row), so the wrapper's share shows.  Also prints how many frames one
kernel call decodes at this code: the most whose float64 LLR tree fits the
decoder's byte budget.
"""
from __future__ import annotations

import argparse
import time

import numpy as np

from drew import backends, ecc
from drew.rng import substream


def _workload(spec, frames: int, p: float):
    rng = substream(1234, f"bench/p={p!r}")
    msgs = rng.integers(0, 1 << spec.k, size=frames)
    keys = ecc.encode_all(spec)[msgs]
    keys = keys ^ (rng.random(keys.shape) < p).astype(np.uint8)
    return ecc.llr_from_keys(spec, keys, spec.design_p)


def _spread(times: list[float]) -> tuple[float, float, float]:
    """(median, min, max) of repeated timings."""
    return float(np.median(times)), min(times), max(times)


def _time_batch(spec, llrs, repeats: int = 7) -> tuple[float, float, float]:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ecc.decode_batch(spec, llrs)
        times.append(time.perf_counter() - t0)
    return _spread(times)


def _time_single(decode_one, llrs, count: int = 200,
                 repeats: int = 7) -> tuple[float, float, float]:
    """Per-frame latency of ``repeats`` passes of ``count`` calls of
    ``decode_one(frame)``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for i in range(count):
            decode_one(llrs[i % len(llrs)])
        times.append((time.perf_counter() - t0) / count)
    return _spread(times)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--n", type=int, default=100)
    ap.add_argument("--design-p", type=float, default=0.1)
    ap.add_argument("--frames", type=int, default=20000)
    ap.add_argument("--p", type=float, default=0.2, help="channel flip rate")
    args = ap.parse_args()

    spec = ecc.construct_code(args.k, args.n, args.design_p)
    llrs = _workload(spec, args.frames, args.p)

    print(f"spec: k={spec.k} n={spec.n} block_len={spec.block_len} "
          f"design_p={spec.design_p}  frames={args.frames}  p={args.p}")
    print(f"frames per chunk: {backends._chunk_frames(spec.m)} "
          f"(LLR tree budget {backends._CHUNK_BYTES / 2**20:g} MiB)")
    print("medians of 7 passes, [min-max] in brackets")
    header = (f"{'batch (s)':>10s} {'frames/s':>26s} {'single ecc.decode (us)':>24s} "
              f"{'single kernel (us)':>24s}")
    print(header)
    print("-" * len(header))

    ecc.decode_batch(spec, llrs)  # warm-up
    batch, b_lo, b_hi = _time_batch(spec, llrs)
    frozen, m = spec.frozen_mask, spec.m
    singles = [
        _time_single(lambda frame: ecc.decode(spec, frame), llrs),
        _time_single(lambda frame: backends.sc_decode_batch(frame[None], frozen, m), llrs),
    ]
    rate = f"{args.frames / batch:.0f} [{args.frames / b_hi:.0f}-{args.frames / b_lo:.0f}]"
    lats = [f"{t * 1e6:.1f} [{lo * 1e6:.1f}-{hi * 1e6:.1f}]" for t, lo, hi in singles]
    print(f"{batch:10.4f} {rate:>26s} {lats[0]:>24s} {lats[1]:>24s}")


if __name__ == "__main__":
    main()
