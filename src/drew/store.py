"""Embedding store: ingestion, cluster partition, exact scan, binary format.

The store is an append-once, then frozen, collection of unit-norm
embeddings.  Preprocessing draws an i.i.d. uniform cluster label per entry
and attaches the cluster's encoded watermark key.  Search is an exact dot
product scan over a scope (one cluster or the whole store); nothing
approximate is ever used.

Embedding values are quantised to the float32 grid at ingestion so that the
on-disk format (little-endian float32) round-trips bit-exactly, while all
similarity arithmetic runs in float64.

Binary layout (all little-endian): magic ``DREWSTOR``, u16 version, u32 d,
u32 k, u64 N, u32 metadata length, metadata JSON (the code spec document
plus the partition seed), then N records of (u64 id, u16 cluster, key bits
packed LSB-first, d float32 values), and a trailing u64 checksum: the first
8 bytes of the SHA-256 of everything before it.
"""
from __future__ import annotations

import csv
import json
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import ecc
from .rng import substream

MAGIC = b"DREWSTOR"
FORMAT_VERSION = 1
_NORM_TOL = 1e-6


class _FullScope:
    __slots__ = ()

    def __repr__(self):
        return "FULL"


#: Scope sentinel: scan the whole store instead of one cluster.
FULL = _FullScope()


class StoreFormatError(Exception):
    """Raised when a store file is malformed, truncated, or corrupted."""


@dataclass(frozen=True)
class StoreEntry:
    id: int
    embedding: np.ndarray
    cluster: int | None
    key: np.ndarray | None


class Store:
    """Frozen collection of ids, embeddings, and (after preprocessing)
    cluster labels plus the code spec that generated the keys.

    Reads are lock-free; instances are never mutated after construction
    (preprocessing builds a new instance sharing the embedding buffer).
    """

    def __init__(self, ids, embeddings, clusters=None, spec=None, seed=None):
        ids = np.asarray(ids, dtype=np.uint64)
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be a (N, d) matrix")
        if ids.shape != (embeddings.shape[0],):
            raise ValueError("ids and embeddings disagree on N")
        if ids.size and np.unique(ids).size != ids.size:
            raise ValueError("duplicate ids in store")
        if not np.all(np.isfinite(embeddings)):
            raise ValueError("embeddings must be finite")
        if embeddings.shape[0]:
            norms = np.linalg.norm(embeddings, axis=1)
            if np.any(np.abs(norms - 1.0) > _NORM_TOL):
                raise ValueError("embeddings must be unit norm within 1e-6")
        if (clusters is None) != (spec is None):
            raise ValueError("clusters and spec must be set together")
        if clusters is not None:
            clusters = np.asarray(clusters, dtype=np.int32)
            if clusters.shape != (embeddings.shape[0],):
                raise ValueError("clusters length must equal N")
            if clusters.size and (clusters.min(initial=0) < 0 or clusters.max(initial=0) >= (1 << spec.k)):
                raise ValueError("cluster labels out of range for spec.k")
        self.ids = ids
        self.embeddings = embeddings
        self.clusters = clusters
        self.spec = spec
        self.seed = seed
        self._by_id = None
        self._members = None
        self._keys = None

    # -- basic accessors ----------------------------------------------------

    def __len__(self) -> int:
        return int(self.ids.shape[0])

    @property
    def d(self) -> int:
        return int(self.embeddings.shape[1])

    @property
    def k(self) -> int | None:
        return None if self.spec is None else self.spec.k

    @property
    def clustered(self) -> bool:
        return self.clusters is not None

    @property
    def cluster_keys(self) -> np.ndarray:
        """(2**k, n) key table; row c is the watermark key of cluster c."""
        if self.spec is None:
            raise ValueError("store has no cluster partition yet")
        if self._keys is None:
            self._keys = ecc.encode_all(self.spec)
        return self._keys

    def index_of(self, entry_id: int) -> int:
        if self._by_id is None:
            self._by_id = {int(v): i for i, v in enumerate(self.ids)}
        try:
            return self._by_id[int(entry_id)]
        except KeyError:
            raise KeyError(f"id {entry_id} not in store") from None

    def entry(self, entry_id: int) -> StoreEntry:
        i = self.index_of(entry_id)
        cluster = None if self.clusters is None else int(self.clusters[i])
        key = None if cluster is None else self.cluster_keys[cluster]
        return StoreEntry(
            id=int(self.ids[i]),
            embedding=self.embeddings[i],
            cluster=cluster,
            key=key,
        )

    def _cluster_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR cluster layout: rows sorted by cluster, plus 2**k + 1 offsets.

        The stable sort keeps each cluster's rows ascending.
        """
        if self.clusters is None:
            raise ValueError("store has no cluster partition yet")
        if self._members is None:
            order = np.argsort(self.clusters, kind="stable")
            sizes = np.bincount(self.clusters, minlength=1 << self.spec.k)
            offsets = np.zeros(sizes.size + 1, dtype=np.intp)
            np.cumsum(sizes, out=offsets[1:])
            self._members = (order, offsets)
        return self._members

    @property
    def cluster_sizes(self) -> np.ndarray:
        """(2**k,) member count of every cluster."""
        offsets = self._cluster_index()[1]
        return np.diff(offsets)

    def cluster_members(self, cluster: int) -> np.ndarray:
        """Row indices of a cluster, ascending (possibly empty array)."""
        order, offsets = self._cluster_index()
        c = int(cluster)
        if not 0 <= c < offsets.size - 1:
            return np.empty(0, dtype=np.intp)
        return order[offsets[c] : offsets[c + 1]]


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _quantize_unit(vectors: np.ndarray) -> np.ndarray:
    """Normalise rows in float64, then snap values to the float32 grid.

    Rows that already sit on the grid with near-unit norm pass through
    untouched, making export -> ingest an exact fixed point.
    """
    v = np.asarray(vectors, dtype=np.float64)
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("zero-norm embedding rejected")
    on_grid = v.astype(np.float32).astype(np.float64)
    if np.array_equal(on_grid, v) and np.abs(norms - 1.0).max() < _NORM_TOL:
        return v.copy()
    return (v / norms[:, None]).astype(np.float32).astype(np.float64)


def ingest(rows, d: int | None = None) -> Store:
    """Build an unclustered store from (id, vector) pairs.

    Vectors are L2-normalised; dimension mismatches, zero vectors, and
    duplicate ids are rejected.
    """
    ids: list[int] = []
    vecs: list[np.ndarray] = []
    for entry_id, vec in rows:
        entry_id = int(entry_id)
        if entry_id < 0:
            raise ValueError(f"ids must be non-negative, got {entry_id}")
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"vector for id {entry_id} is not 1-D")
        if d is None:
            d = arr.shape[0]
        if arr.shape[0] != d:
            raise ValueError(
                f"vector for id {entry_id} has dim {arr.shape[0]}, expected {d}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"vector for id {entry_id} has non-finite values")
        ids.append(entry_id)
        vecs.append(arr)
    if not ids:
        raise ValueError("cannot ingest an empty row set")
    matrix = _quantize_unit(np.stack(vecs))
    return Store(ids=np.array(ids, dtype=np.uint64), embeddings=matrix)


def ingest_csv(path) -> Store:
    """Ingest ``id,v0,...,v{d-1}`` rows; the header is mandatory."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        d = len(header) - 1
        if d < 1 or header[0] != "id" or header[1:] != [f"v{i}" for i in range(d)]:
            raise ValueError(f"{path}: header must be id,v0,...,v{{d-1}}")

        def rows():
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                if len(row) != d + 1:
                    raise ValueError(f"{path}:{lineno}: expected {d + 1} fields")
                try:
                    yield int(row[0]), np.array([float(x) for x in row[1:]])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None

        return ingest(rows(), d=d)


def export_csv(store: Store, path) -> None:
    """Write the store's (normalised) embeddings back out as ingest CSV."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"v{i}" for i in range(store.d)])
        for i in range(len(store)):
            writer.writerow([int(store.ids[i])] + [repr(float(x)) for x in store.embeddings[i]])


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def assign_clusters(store: Store, k: int, seed: int, spec: ecc.PolarCodeSpec) -> Store:
    """Partition the store into 2**k clusters, i.i.d. uniform per entry.

    Returns a new frozen store; the input store is untouched.  Labels come
    from the ``assign-clusters`` substream of ``seed`` and are persisted
    with the store, so reproducibility never depends on re-drawing them.
    """
    if spec.k != k:
        raise ValueError(f"spec.k={spec.k} does not match k={k}")
    if not 1 <= k <= 16:
        raise ValueError("k must lie in [1, 16] (cluster labels are u16 on disk)")
    rng = substream(seed, "assign-clusters")
    labels = rng.integers(0, 1 << k, size=len(store)).astype(np.int32)
    return Store(
        ids=store.ids,
        embeddings=store.embeddings,
        clusters=labels,
        spec=spec,
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _check_query_vector(store: Store, q: np.ndarray) -> np.ndarray:
    vec = np.asarray(q, dtype=np.float64)
    if vec.shape != (store.d,):
        raise ValueError(f"query dim {vec.shape} does not match store dim ({store.d},)")
    if not np.all(np.isfinite(vec)):
        raise ValueError("query embedding must be finite")
    if abs(np.linalg.norm(vec) - 1.0) > _NORM_TOL:
        raise ValueError("query embedding must be unit norm within 1e-6")
    return vec


def top_matches(store: Store, scope, q: np.ndarray, p: int = 1) -> list[tuple[int, float]]:
    """Exact top-p dot-product matches within a scope.

    ``scope`` is a cluster index or :data:`FULL`.  Results are ordered by
    similarity descending, ties broken by ascending id.  An empty scope
    returns an empty list; the caller decides what that means.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    vec = _check_query_vector(store, q)
    if isinstance(scope, _FullScope):
        sims = _row_sims(store.embeddings, vec)
        ids = store.ids
    else:
        cluster = int(scope)
        if store.spec is None:
            raise ValueError("store has no cluster partition yet")
        if not 0 <= cluster < (1 << store.spec.k):
            raise ValueError(f"cluster {cluster} out of range")
        members = store.cluster_members(cluster)
        if members.size == 0:
            return []
        sims = _row_sims(store.embeddings[members], vec)
        ids = store.ids[members]
    if sims.size == 0:
        return []
    order = np.lexsort((ids, -sims))[: min(p, sims.size)]
    return [(int(ids[i]), float(sims[i])) for i in order]


def _row_sims(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Per-row dot products with a fixed accumulation order.

    einsum sums each row independently of the matrix height and of the
    row's position, so a scan over a gathered subset reproduces the full
    scan bit for bit; BLAS matvec/matmul kernels do not guarantee that.
    Contiguity is forced because the summation order also depends on it.
    """
    return np.einsum(
        "nd,d->n", np.ascontiguousarray(mat), np.ascontiguousarray(vec)
    )


def scan_top1(embeddings: np.ndarray, ids: np.ndarray,
              queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact argmax over ``embeddings`` for each query row.

    Returns (best_index, best_sim) per query, ties broken by ascending id.
    This is the same ordering rule as :func:`top_matches` with p=1, and it
    uses the same similarity kernel, so the results agree exactly.
    """
    B = queries.shape[0]
    best_idx = np.empty(B, dtype=np.intp)
    best_sim = np.empty(B)
    for j in range(B):
        sims = _row_sims(embeddings, queries[j])
        amax = int(np.argmax(sims))
        mx = sims[amax]
        cand = np.flatnonzero(sims == mx)
        if cand.size > 1:
            amax = int(cand[np.argmin(ids[cand])])
        best_idx[j] = amax
        best_sim[j] = mx
    return best_idx, best_sim


# ---------------------------------------------------------------------------
# binary format
# ---------------------------------------------------------------------------

def _record_dtype(d: int, key_bytes: int) -> np.dtype:
    return np.dtype(
        [
            ("id", "<u8"),
            ("cluster", "<u2"),
            ("key", "u1", (key_bytes,)),
            ("emb", "<f4", (d,)),
        ]
    )


def save_store(store: Store, path) -> None:
    """Serialise a preprocessed store; the write is atomic (temp + rename)."""
    if not store.clustered:
        raise ValueError("only preprocessed (clustered) stores are saved")
    spec = store.spec
    meta = spec.to_dict()
    meta["partition_seed"] = store.seed
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = MAGIC + struct.pack(
        "<HIIQI", FORMAT_VERSION, store.d, spec.k, len(store), len(blob)
    )
    key_bytes = (spec.n + 7) // 8
    records = np.empty(len(store), dtype=_record_dtype(store.d, key_bytes))
    records["id"] = store.ids
    records["cluster"] = store.clusters.astype(np.uint16)
    keys = store.cluster_keys[store.clusters]
    records["key"] = np.packbits(keys, axis=1, bitorder="little")
    records["emb"] = store.embeddings.astype(np.float32)
    body = head + blob + records.tobytes()
    checksum = _checksum(body)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
            fh.write(checksum)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _checksum(data: bytes) -> bytes:
    import hashlib

    return hashlib.sha256(data).digest()[:8]


def load_store(path, expect_d: int | None = None) -> Store:
    """Load and fully validate a store file written by :func:`save_store`.

    ``expect_d`` pins the embedding dimension the caller was built for;
    a file with any other dimension is rejected before records are read.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 22 + 8:
        raise StoreFormatError(f"{path}: truncated header")
    if raw[: len(MAGIC)] != MAGIC:
        raise StoreFormatError(f"{path}: bad magic, not a store file")
    if _checksum(raw[:-8]) != raw[-8:]:
        raise StoreFormatError(f"{path}: checksum mismatch, file corrupted")
    off = len(MAGIC)
    version, d, k, count, blob_len = struct.unpack_from("<HIIQI", raw, off)
    off += 22
    if version != FORMAT_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    if expect_d is not None and d != expect_d:
        raise StoreFormatError(f"{path}: embedding dim {d}, expected {expect_d}")
    if off + blob_len > len(raw) - 8:
        raise StoreFormatError(f"{path}: truncated metadata")
    try:
        meta = json.loads(raw[off : off + blob_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"{path}: bad metadata JSON: {exc}") from None
    off += blob_len
    spec = ecc.PolarCodeSpec.from_dict(meta)
    if spec.k != k:
        raise StoreFormatError(f"{path}: header k={k} disagrees with spec k={spec.k}")
    seed = meta.get("partition_seed")
    key_bytes = (spec.n + 7) // 8
    dtype = _record_dtype(d, key_bytes)
    expected = off + count * dtype.itemsize + 8
    if len(raw) != expected:
        raise StoreFormatError(
            f"{path}: size {len(raw)} != expected {expected} for N={count}"
        )
    records = np.frombuffer(raw, dtype=dtype, count=count, offset=off)
    store = Store(
        ids=records["id"].copy(),
        embeddings=records["emb"].astype(np.float64),
        clusters=records["cluster"].astype(np.int32),
        spec=spec,
        seed=None if seed is None else int(seed),
    )
    keys = np.unpackbits(records["key"], axis=1, count=spec.n, bitorder="little")
    if not np.array_equal(keys, store.cluster_keys[store.clusters]):
        raise StoreFormatError(f"{path}: stored keys disagree with cluster codes")
    return store
