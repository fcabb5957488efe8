"""Seeded workload inputs and an independent reader of drew's store file.

Nothing here imports drew: the reader decodes the binary layout itself so
that the query generator and the output checker never depend on the code
they measure.
"""
from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

# The packaged default suite's (name, p_A, sigma), pinned here so that a
# later edit of the packaged file cannot silently change a workload.
DEFAULT_SUITE = (
    ("no_aug", 0.0, 0.0),
    ("flip", 0.02, 0.005),
    ("blur", 0.05, 0.018),
    ("jitter", 0.10, 0.031),
    ("crop_0.25", 0.04, 0.06),
    ("crop_0.5", 0.08, 0.127),
    ("stretch_0.25", 0.05, 0.05),
    ("stretch_0.5", 0.10, 0.09),
    ("stretch_1.0", 0.16, 0.146),
    ("rot_0.25", 0.15, 0.031),
    ("rot_0.5", 0.22, 0.06),
    ("rot_1.0", 0.30, 0.094),
    ("combo_0.25", 0.12, 0.09),
    ("combo_0.5", 0.22, 0.146),
    ("diffpure_0.1", 0.25, 0.05),
    ("diffpure_0.15", 0.30, 0.06),
    ("diffpure_0.2", 0.35, 0.08),
    ("erasure", 0.5, 0.0),
)

#: Attacks of the routed traffic: every default-suite attack with p_A <= 0.10.
ROUTED_ATTACKS = tuple(a for a in DEFAULT_SUITE if a[1] <= 0.10)

_MAGIC = b"DREWSTOR"
_HEAD = "<HIIQI"


@dataclass(frozen=True)
class StoreView:
    """What the checker and the generator need from a store file."""

    ids: np.ndarray         # (N,) int64
    clusters: np.ndarray    # (N,) int64
    keys: np.ndarray        # (N, n) uint8 watermark bits
    embeddings: np.ndarray  # (N, d) float64
    k: int
    n: int

    def __len__(self) -> int:
        return int(self.ids.shape[0])


def read_store(path) -> StoreView:
    """Decode a store file: header, metadata JSON, fixed-size records."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[: len(_MAGIC)] != _MAGIC:
        raise ValueError(f"{path}: not a drew store file")
    if hashlib.sha256(raw[:-8]).digest()[:8] != raw[-8:]:
        raise ValueError(f"{path}: checksum mismatch")
    _, d, k, count, blob_len = struct.unpack_from(_HEAD, raw, len(_MAGIC))
    off = len(_MAGIC) + struct.calcsize(_HEAD)
    meta = json.loads(raw[off : off + blob_len])
    off += blob_len
    n = int(meta["n"])
    dtype = np.dtype([
        ("id", "<u8"), ("cluster", "<u2"),
        ("key", "u1", ((n + 7) // 8,)), ("emb", "<f4", (d,)),
    ])
    rec = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
    return StoreView(
        ids=rec["id"].astype(np.int64),
        clusters=rec["cluster"].astype(np.int64),
        keys=np.unpackbits(rec["key"], axis=1, count=n, bitorder="little"),
        embeddings=rec["emb"].astype(np.float64),
        k=int(k),
        n=n,
    )


def attacked_queries(store: StoreView, attacks, count: int, seed: int, label: int):
    """``count`` queries in equal shares over ``attacks``, shuffled.

    Each query picks a stored entry uniformly, flips its key bits with the
    attack's p_A and adds Gaussian noise of scale sigma to its embedding,
    then renormalises.  Returns (keys, embeddings, ground-truth ids).
    """
    if count % len(attacks):
        raise ValueError("count must split evenly over the attacks")
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(label)]))
    which = np.repeat(np.arange(len(attacks)), count // len(attacks))
    rng.shuffle(which)
    p_a = np.array([a[1] for a in attacks])[which]
    sigma = np.array([a[2] for a in attacks])[which]
    rows = rng.integers(0, len(store), size=count)
    flips = rng.random((count, store.n)) < p_a[:, None]
    keys = store.keys[rows] ^ flips.astype(np.uint8)
    embs = store.embeddings[rows] + sigma[:, None] * rng.standard_normal(
        (count, store.embeddings.shape[1])
    )
    embs /= np.linalg.norm(embs, axis=1)[:, None]
    return keys, embs, store.ids[rows]


def write_queries(path, keys: np.ndarray, embs: np.ndarray, gt_ids: np.ndarray) -> None:
    """One JSON object per line, in the format ``drew query`` reads."""
    chars = (keys + ord("0")).astype(np.uint8)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(keys.shape[0]):
            fh.write(json.dumps({
                "query_id": f"q{i}",
                "key": chars[i].tobytes().decode("ascii"),
                "embedding": embs[i].tolist(),
                "ground_truth_id": int(gt_ids[i]),
            }) + "\n")


def read_queries(path):
    """Parse a query file back into (query ids, keys, unit embeddings, gt ids)."""
    qids, keys, embs, gts = [], [], [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            qids.append(doc["query_id"])
            keys.append(np.frombuffer(doc["key"].encode("ascii"), dtype=np.uint8) - ord("0"))
            embs.append(doc["embedding"])
            gts.append(doc["ground_truth_id"])
    emb = np.asarray(embs, dtype=np.float64)
    emb /= np.linalg.norm(emb, axis=1)[:, None]
    return qids, np.stack(keys), emb, np.asarray(gts, dtype=np.int64)
