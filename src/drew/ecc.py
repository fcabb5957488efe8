"""Polar coding of cluster indices into watermark keys.

A cluster index is a k-bit message, encoded through a shortened polar code
into an n-bit key.  Construction ranks the synthetic bit channels by their
Bhattacharyya parameter at a design flip rate; decoding is plain successive
cancellation with exact check-node updates, plus a reliability flag read
from the decision LLRs.  Rate limits follow the binary symmetric channel
capacity ``1 - H(p)``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import backends

# Soft-decoder stand-in for certainty at shortened (known zero) positions.
# Large enough to dominate any sum of data LLRs, small enough that float64
# arithmetic through the decode tree never overflows.
KNOWN_BIT_LLR = 1.0e6


# ---------------------------------------------------------------------------
# code specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolarCodeSpec:
    """Frozen description of one code instance.

    Attributes
    ----------
    k : int
        Message (cluster index) length in bits.
    n : int
        Key length in bits, k <= n <= block_len.
    block_len : int
        Mother-code length, the smallest power of two >= n.
    design_p : float
        Flip rate the channel ranking was computed at.
    frozen_set : tuple[int, ...]
        Input positions decoded as constant 0 (includes all shortened ones).
    shortened_set : tuple[int, ...]
        Trailing codeword positions that are identically 0 and never stored.
    """

    k: int
    n: int
    block_len: int
    design_p: float
    frozen_set: tuple[int, ...]
    shortened_set: tuple[int, ...]

    @property
    def m(self) -> int:
        return self.block_len.bit_length() - 1

    @cached_property
    def frozen_mask(self) -> np.ndarray:
        mask = np.zeros(self.block_len, dtype=np.uint8)
        mask[list(self.frozen_set)] = 1
        return mask

    @cached_property
    def info_positions(self) -> np.ndarray:
        return np.flatnonzero(self.frozen_mask == 0)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "block_len": self.block_len,
            "design_p": self.design_p,
            "frozen_set": list(self.frozen_set),
            "shortened_set": list(self.shortened_set),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "PolarCodeSpec":
        return cls(
            k=int(doc["k"]),
            n=int(doc["n"]),
            block_len=int(doc["block_len"]),
            design_p=float(doc["design_p"]),
            frozen_set=tuple(int(i) for i in doc["frozen_set"]),
            shortened_set=tuple(int(i) for i in doc["shortened_set"]),
        )


def bhattacharyya_profile(block_len: int, design_p: float) -> np.ndarray:
    """Bhattacharyya parameter of each synthetic channel, natural order.

    Starts from z = 2*sqrt(p*(1-p)) for the raw channel and doubles the
    profile per polarisation level: the minus (worse) channel takes
    2z - z^2, the plus (better) channel takes z^2.  Interleaving keeps the
    indexing aligned with the non-bit-reversed transform used by encode().
    """
    z = np.array([2.0 * math.sqrt(design_p * (1.0 - design_p))])
    while z.size < block_len:
        nxt = np.empty(2 * z.size)
        nxt[0::2] = 2.0 * z - z * z
        nxt[1::2] = z * z
        z = nxt
    return z


def construct_code(k: int, n: int, design_p: float) -> PolarCodeSpec:
    """Build a shortened polar code carrying k message bits in n key bits.

    The last ``block_len - n`` codeword positions are shortened: forcing the
    matching input positions to 0 makes those codeword bits identically 0
    (the transform is lower triangular), so both ends can treat them as
    known.  Among the remaining inputs the k most reliable become
    information positions; ties break toward the lower index.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k} n={n}")
    if not 0.0 < design_p < 0.5:
        raise ValueError(f"design_p must lie in (0, 0.5), got {design_p}")
    block_len = 1 << max(0, (n - 1).bit_length())
    shortened = tuple(range(n, block_len))
    z = bhattacharyya_profile(block_len, design_p)
    candidates = sorted(range(n), key=lambda i: (z[i], i))
    info = set(candidates[:k])
    frozen = tuple(i for i in range(block_len) if i not in info)
    return PolarCodeSpec(
        k=k,
        n=n,
        block_len=block_len,
        design_p=design_p,
        frozen_set=frozen,
        shortened_set=shortened,
    )


# ---------------------------------------------------------------------------
# message <-> bits helpers
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _bit_weights(k: int) -> np.ndarray:
    weights = 1 << np.arange(k - 1, -1, -1, dtype=np.int64)
    weights.flags.writeable = False
    return weights


def codes_to_ints(codes: np.ndarray) -> np.ndarray:
    """Integer value of each row of a (B, k) bit matrix, most significant
    bit first."""
    codes = np.asarray(codes, dtype=np.int64)
    return codes @ _bit_weights(codes.shape[-1])


def _check_bits(bits: np.ndarray, length: int, what: str) -> np.ndarray:
    arr = np.asarray(bits)
    if arr.shape[-1] != length:
        raise ValueError(f"{what} must have length {length}, got {arr.shape[-1]}")
    if arr.dtype == np.uint8 or arr.dtype == np.bool_:
        bad = arr.max(initial=0) > 1
    else:
        # -1, 0.7 or NaN would otherwise cast to some bit without notice
        bad = arr.dtype.kind not in "iuf" or not np.all((arr == 0) | (arr == 1))
    if bad:
        raise ValueError(f"{what} must be 0/1 valued")
    return arr.astype(np.uint8, copy=False)


# ---------------------------------------------------------------------------
# encode
# ---------------------------------------------------------------------------

def polar_transform(u: np.ndarray) -> np.ndarray:
    """Apply the butterfly transform along the last axis (self-inverse)."""
    x = np.asarray(u, dtype=np.uint8).copy()
    N = x.shape[-1]
    if N & (N - 1):
        raise ValueError("transform length must be a power of two")
    s = 1
    while s < N:
        view = x.reshape(x.shape[:-1] + (N // (2 * s), 2 * s))
        view[..., :s] ^= view[..., s:]
        s *= 2
    return x


def encode(spec: PolarCodeSpec, code: np.ndarray) -> np.ndarray:
    """Encode a k-bit cluster code into its n-bit watermark key."""
    bits = _check_bits(code, spec.k, "cluster code")
    u = np.zeros(bits.shape[:-1] + (spec.block_len,), dtype=np.uint8)
    u[..., spec.info_positions] = bits
    x = polar_transform(u)
    return x[..., : spec.n]


def encode_all(spec: PolarCodeSpec) -> np.ndarray:
    """Key table for every cluster index: row c is encode(spec, bits(c))."""
    count = 1 << spec.k
    idx = np.arange(count, dtype=np.uint32)
    shifts = np.arange(spec.k - 1, -1, -1, dtype=np.uint32)
    codes = ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)
    return encode(spec, codes)


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodeOutcome:
    """Result of one successive-cancellation decode.

    ``reliability_score`` is ``last_llr_mag`` in the default ``"last-bit"``
    mode (decision LLR magnitude of the final information bit in decoding
    order) or ``min_llr_mag`` in the strict ``"min-bit"`` mode; both are
    always recorded so callers can compare the two readings.
    """

    code: np.ndarray
    reliability_score: float
    reliable: bool
    last_llr_mag: float
    min_llr_mag: float


RELIABILITY_MODES = ("last-bit", "min-bit")


def llr_from_keys(spec: PolarCodeSpec, keys: np.ndarray, channel_p: float) -> np.ndarray:
    """Channel LLRs for a (B, n) batch of observed keys under an i.i.d. flip
    model, one (block_len,) frame per key.

    Observed bit y contributes ``(1 - 2y) * ln((1-p)/p)``; the shortened
    positions are known zeros and enter at ``KNOWN_BIT_LLR``.
    """
    if not 0.0 < channel_p < 0.5:
        raise ValueError(f"channel_p must lie in (0, 0.5), got {channel_p}")
    bits = _key_bits(spec, keys)
    llrs = np.full((bits.shape[0], spec.block_len), KNOWN_BIT_LLR)
    llrs[:, : spec.n] = _bit_llrs(channel_p)[bits]
    return llrs


def _key_bits(spec: PolarCodeSpec, keys: np.ndarray) -> np.ndarray:
    bits = _check_bits(keys, spec.n, "key")
    if bits.ndim != 2:
        raise ValueError("keys must be a (B, n) bit matrix")
    return bits


def _check_mode(mode: str) -> None:
    if mode not in RELIABILITY_MODES:
        raise ValueError(f"mode must be one of {RELIABILITY_MODES}, got {mode!r}")


@lru_cache(maxsize=16)
def _bit_llrs(channel_p: float) -> np.ndarray:
    """LLRs of an observed 0, an observed 1 and a shortened position:
    ``(c, -c, KNOWN_BIT_LLR)`` with ``c = ln((1-p)/p)``."""
    c = math.log((1.0 - channel_p) / channel_p)
    table = np.array([c, -c, KNOWN_BIT_LLR])
    table.flags.writeable = False
    return table


def decode_batch(
    spec: PolarCodeSpec,
    llrs: np.ndarray,
    threshold: float = 0.5,
    mode: str = "last-bit",
):
    """Decode a (B, block_len) LLR batch.

    Returns ``(codes, scores, reliable, last_mags, min_mags)`` where codes
    is (B, k) uint8 and the rest are length-B vectors.
    """
    _check_mode(mode)
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.ndim < 2:
        arr = arr.reshape(1, -1)
    if arr.shape[-1] != spec.block_len:
        raise ValueError(
            f"LLR frame length {arr.shape[-1]} != block length {spec.block_len}"
        )
    if not np.isfinite(arr).all():
        raise ValueError("LLR input must be finite")
    u, dec = backends.sc_decode_batch(arr, spec.frozen_mask, spec.m)
    info = spec.info_positions
    codes = u[:, info]
    mags = np.abs(dec[:, info])
    scores, reliable = _gate(mags, threshold, mode)
    return codes, scores, reliable, mags[:, -1], mags.min(axis=1)


def decode(
    spec: PolarCodeSpec,
    llrs: np.ndarray,
    threshold: float = 0.5,
    mode: str = "last-bit",
) -> DecodeOutcome:
    """Successive-cancellation decode of one LLR frame."""
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("decode() takes a single LLR frame; use decode_batch")
    codes, scores, reliable, last, mins = decode_batch(spec, arr[None, :], threshold, mode)
    return DecodeOutcome(
        code=codes[0],
        reliability_score=float(scores[0]),
        reliable=bool(reliable[0]),
        last_llr_mag=float(last[0]),
        min_llr_mag=float(mins[0]),
    )


def decode_keys(spec: PolarCodeSpec, keys: np.ndarray, threshold: float, mode: str):
    """Decode a (B, n) batch of observed keys to cluster indices.

    The keys are decoded as their LLRs at the code's design flip rate
    (:func:`llr_from_keys`) would be by :func:`decode_batch`, to the same
    bits, but through :func:`drew.backends.sc_decode_keys`, which never
    builds those (B, block_len) float64 frames.  Returns ``(clusters,
    reliable)``, the decoded cluster index and the reliability flag of
    every key.
    """
    _check_mode(mode)
    codes, dec = backends.sc_decode_keys(_key_bits(spec, keys), _bit_llrs(spec.design_p),
                                         spec.frozen_mask, spec.m)
    return codes_to_ints(codes), _gate(np.abs(dec, out=dec), threshold, mode)[1]


def _gate(mags: np.ndarray, threshold: float, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """``(scores, reliable)`` of (B, k) information-bit decision LLR magnitudes:
    the last one (``"last-bit"``) or the least (``"min-bit"``), and ``>= threshold``."""
    scores = mags[:, -1] if mode == "last-bit" else mags.min(axis=1)
    return scores, scores >= threshold


# ---------------------------------------------------------------------------
# rate limits
# ---------------------------------------------------------------------------

def binary_entropy(p):
    """H(p) in bits; accepts scalars or arrays, H(0) = H(1) = 0."""
    arr = np.asarray(p, dtype=np.float64)
    if np.any((arr < 0.0) | (arr > 1.0)):
        raise ValueError("binary_entropy domain is [0, 1]")
    q = np.clip(arr, 1e-300, 1.0)
    r = np.clip(1.0 - arr, 1e-300, 1.0)
    h = -(arr * np.log2(q) + (1.0 - arr) * np.log2(r))
    h = np.where((arr == 0.0) | (arr == 1.0), 0.0, h)
    return float(h) if arr.ndim == 0 else h


def capacity_rate(p_a):
    """Highest code rate k/n supporting reliable decoding at flip rate p_a."""
    arr = np.asarray(p_a, dtype=np.float64)
    if not ((arr >= 0.0) & (arr <= 0.5)).all():  # also fails on NaN
        raise ValueError("capacity_rate domain is [0, 0.5]")
    return 1.0 - binary_entropy(p_a)


def max_tolerable_flip_rate(rate: float, tol: float = 1e-12) -> float:
    """Largest p in [0, 0.5] with capacity_rate(p) >= rate, by bisection."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must lie in (0, 1]")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if capacity_rate(mid) >= rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
