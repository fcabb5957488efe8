"""Embedding store: ingestion, cluster partition, exact scan, binary format.

The store is an append-once, then frozen, collection of unit-norm
embeddings.  Preprocessing draws an i.i.d. uniform cluster label per entry
and attaches the cluster's encoded watermark key.  Search is an exact dot
product scan over a scope (one cluster or the whole store); nothing
approximate is ever used.

Rows are float32 in memory and on disk: ingestion normalises in float64
and snaps values to the float32 grid, and the file stores float32.  A
:class:`Store` keeps whatever float dtype it is given, so one built
directly from float64 rows stays float64 and runs the same code.  Queries
and every returned similarity are float64.

Every scan runs one kernel, ``_exact_top``: a BLAS product in the rows'
dtype picks candidates, and only candidates are rescored with the
fixed-order float64 einsum of ``_row_sims`` (rows cast up exactly), which
alone produces the similarities that are returned ("compute in low
precision, verify in high precision").  A row is a candidate when its BLAS
similarity lies within ``2*delta`` of the query's p-th largest one, with

    delta = (gamma_{d+1}(1 + u) + u + gamma64_{d+1}) * (1 + _NORM_TOL) * |q|
            + 2 * d * s

where ``gamma_m = m*u / (1 - m*u)``, ``u`` is the unit roundoff of the
rows' dtype (2**-24 for float32, 2**-53 for float64), ``gamma64`` uses
``u = 2**-53`` and ``s`` is that dtype's smallest subnormal.  The BLAS dot
product of the query rounded to the rows' dtype is within
``gamma_d * |q|(1 + u) * |row|`` of its exact value, rounding the query
moves the exact value by at most ``u * |q| * |row|``, and the float64
einsum is within ``gamma64_d * |q| * |row|`` of the exact product
(Higham, *Accuracy and Stability of Numerical Algorithms*, 3.1); the
``2*d*s`` term covers products and query coordinates that underflow to
subnormals, where relative bounds fail.  Preconditions: rows are unit
norm within ``_NORM_TOL`` (checked at construction) and ``|q|`` is the
query norm as measured, so ``delta`` bounds the BLAS-vs-einsum gap and no
row outside the shortlist can reach the top p.  Thresholds are rounded
outward when they are cast to the rows' dtype.  Results are therefore
identical to an einsum scan of the whole scope followed by a full
(similarity desc, id asc) sort.

The BLAS block of a chunk of B queries is laid out (N, B), row-major:
``mat @ Q.T``.  It is computed by one stacked ``np.matmul`` whose every
matrix is a block of rows small enough (``_BLAS_MADDS`` multiply-adds per
product) that BLAS never wakes its worker threads, and per-query maxima,
threshold compares and candidate lists run over a view of r whole rows per
line, so numpy's loops span long contiguous runs (:func:`_blas_sims`).

The evaluation's scan (:func:`scan_ranks`) also returns each query's
ground-truth rank under the same order, from the same BLAS block: with
``g = einsum(q, gt_row)``, a row whose BLAS similarity exceeds
``g + delta`` is ahead outright, one below ``g - delta`` is behind, and
only rows within ``delta`` of ``g`` are rescored to settle their order.
When the query's BLAS maximum is at most ``g + delta``, that band lies
inside the argmax shortlist and no extra pass is made.

Binary layout (all little-endian): magic ``DREWSTOR``, u16 version, u32 d,
u32 k, u64 N, u32 metadata length, metadata JSON (the code spec document
plus the partition seed), then N records of (u64 id, u16 cluster, key bits
packed LSB-first, d float32 values), and a trailing u64 checksum: the first
8 bytes of the SHA-256 of everything before it.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np

from . import ecc
from .rng import substream

MAGIC = b"DREWSTOR"
FORMAT_VERSION = 1
#: Longest key, in bits, a store file may declare; it bounds the work of
#: rebuilding the code spec from untrusted metadata.
_MAX_KEY_BITS = 1 << 16
_NORM_TOL = 1e-6
#: Rows per float64 block when the store validates row norms.
_CHECK_ROWS = 1 << 13


#: Scope label of the whole store, as opposed to one cluster's label.
FULL = -1


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
        embeddings = np.asarray(embeddings)
        if embeddings.dtype not in (np.float32, np.float64):
            embeddings = embeddings.astype(np.float64)
        if embeddings.ndim != 2:
            raise ValueError("embeddings must be a (N, d) matrix")
        if ids.shape != (embeddings.shape[0],):
            raise ValueError("ids and embeddings disagree on N")
        # strictly ascending ids (ids 0..N-1, any file written from them) are
        # unique after one linear compare; only other orders are sorted
        if (ids.size > 1 and not np.all(ids[1:] > ids[:-1])
                and np.unique(ids).size != ids.size):
            raise ValueError("duplicate ids in store")
        # norms in float64, a block of rows at a time: no full float64 copy.
        # A non-finite row has a NaN or infinite norm and fails the test too,
        # so the whole matrix is searched for one only when a block fails.
        for lo in range(0, embeddings.shape[0], _CHECK_ROWS):
            block = embeddings[lo : lo + _CHECK_ROWS].astype(np.float64)
            if not np.all(np.abs(np.linalg.norm(block, axis=1) - 1.0) <= _NORM_TOL):
                if not np.all(np.isfinite(embeddings)):
                    raise ValueError("embeddings must be finite")
                raise ValueError("embeddings must be unit norm within 1e-6")
        self.ids = ids
        self.embeddings = embeddings
        self._partition(clusters, spec, seed)

    def _partition(self, clusters, spec, seed) -> None:
        """Check and set the cluster labels of the rows; construction only."""
        if (clusters is None) != (spec is None):
            raise ValueError("clusters and spec must be set together")
        if clusters is not None:
            clusters = np.asarray(clusters, dtype=np.int32)
            if clusters.shape != self.ids.shape:
                raise ValueError("clusters length must equal N")
            if clusters.size and (clusters.min(initial=0) < 0 or clusters.max(initial=0) >= (1 << spec.k)):
                raise ValueError("cluster labels out of range for spec.k")
        self.clusters = clusters
        self.spec = spec
        self.seed = seed
        self._by_id = None
        self._members = None
        self._keys = None

    def _with_partition(self, clusters, spec, seed) -> Store:
        """A new store over these rows, which this store's construction has
        validated, with new cluster labels; only the labels are checked."""
        store = object.__new__(Store)
        store.ids = self.ids
        store.embeddings = self.embeddings
        store._partition(clusters, spec, seed)
        return store

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

    @property
    def cluster_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR cluster layout, :func:`csr_index` of the cluster labels."""
        if self.clusters is None:
            raise ValueError("store has no cluster partition yet")
        if self._members is None:
            self._members = csr_index(self.clusters, 1 << self.spec.k)
        return self._members

    @functools.cached_property
    def cluster_sizes(self) -> np.ndarray:
        """(2**k,) member count of every cluster (read-only)."""
        sizes = np.diff(self.cluster_index[1])
        sizes.flags.writeable = False
        return sizes

    def cluster_members(self, cluster: int) -> np.ndarray:
        """Row indices of a cluster, ascending (possibly empty array)."""
        order, offsets = self.cluster_index
        c = int(cluster)
        if not 0 <= c < offsets.size - 1:
            return np.empty(0, dtype=np.intp)
        return order[offsets[c] : offsets[c + 1]]


def csr_index(labels: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR layout of a labelling with labels in ``[0, count)``: row indices
    sorted by label, plus ``count + 1`` offsets, so the rows of label ``c``
    are ``order[offsets[c] : offsets[c + 1]]``.

    The stable sort keeps each label's rows ascending; labels below 2**16
    are sorted as uint16, which numpy's stable sort radix-sorts.
    """
    order = np.argsort(labels.astype(np.uint16) if count <= 1 << 16 else labels, kind="stable")
    offsets = np.zeros(count + 1, dtype=np.intp)
    np.cumsum(np.bincount(labels, minlength=count), out=offsets[1:])
    return order, offsets


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def _quantize_unit(vectors: np.ndarray) -> np.ndarray:
    """Normalise rows in float64, then snap values to the float32 grid.

    Returns float32 rows.  Rows that already sit on the grid with near-unit
    norm pass through untouched, making export -> ingest an exact fixed
    point; that decision is taken over the whole matrix.

    Two passes over blocks of ``_CHECK_ROWS`` rows keep every temporary
    block-sized: the first takes the row norms and the on-grid test, the
    second divides each block by its norms into the one float32 result.
    Each row's norm and quotient are those of the whole-matrix expressions
    ``np.linalg.norm(v, axis=1)`` and ``(v / norms[:, None]).astype(np.float32)``.
    """
    v = np.asarray(vectors, dtype=np.float64)
    count = v.shape[0]
    norms = np.empty(count)
    on_grid = True
    for lo in range(0, count, _CHECK_ROWS):
        block = v[lo : lo + _CHECK_ROWS]
        norms[lo : lo + _CHECK_ROWS] = np.linalg.norm(block, axis=1)
        on_grid = on_grid and np.array_equal(block.astype(np.float32), block)
    if np.any(norms < 1e-12):
        raise ValueError("zero-norm embedding rejected")
    if on_grid and np.abs(norms - 1.0).max() < _NORM_TOL:
        return v.astype(np.float32)
    out = np.empty(v.shape, dtype=np.float32)
    for lo in range(0, count, _CHECK_ROWS):
        part = slice(lo, lo + _CHECK_ROWS)
        # divides in float64, then rounds each quotient to float32 once
        np.divide(v[part], norms[part, None], out=out[part], casting="same_kind")
    return out


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
        if entry_id >= 1 << 64:
            raise ValueError(f"ids must be below 2**64 (u64 on disk), got {entry_id}")
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

    Returns a new frozen store over the input store's rows, which are not
    validated again; the input store is untouched.  Labels come from the
    ``assign-clusters`` substream of ``seed`` and are persisted with the
    store, so reproducibility never depends on re-drawing them.
    """
    if spec.k != k:
        raise ValueError(f"spec.k={spec.k} does not match k={k}")
    if not 1 <= k <= 16:
        raise ValueError("k must lie in [1, 16] (cluster labels are u16 on disk)")
    rng = substream(seed, "assign-clusters")
    labels = rng.integers(0, 1 << k, size=len(store)).astype(np.int32)
    return store._with_partition(labels, spec, int(seed))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def _check_query_vector(store: Store, q: np.ndarray) -> np.ndarray:
    vec = np.asarray(q, dtype=np.float64)
    if vec.shape != (store.d,):
        raise ValueError(f"query dim {vec.shape} does not match store dim ({store.d},)")
    # sqrt(v.v) is np.linalg.norm of a 1-D vector; it is NaN or inf, and
    # fails the test, whenever an entry is not finite
    if not abs(math.sqrt(vec.dot(vec)) - 1.0) <= _NORM_TOL:
        if not np.isfinite(vec).all():
            raise ValueError("query embedding must be finite")
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
    cluster = int(scope)
    if cluster == FULL:
        mat, ids = store.embeddings, store.ids
    else:
        if store.spec is None:
            raise ValueError("store has no cluster partition yet")
        if not 0 <= cluster < (1 << store.spec.k):
            raise ValueError(f"cluster {cluster} out of range")
        members = store.cluster_members(cluster)
        mat, ids = store.embeddings[members], store.ids[members]
    if ids.size == 0:
        return []
    rows, sims, _ = _exact_top(mat, ids, vec[None, :], p)
    return [(int(ids[i]), float(s)) for i, s in zip(rows[0], sims[0])]


def _row_sims(mat: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Per-row float64 dot products with a fixed accumulation order.

    ``vec`` is one (d,) query, or an (n, d) matrix paired row by row with
    ``mat``.  Rows of any float dtype are cast to float64 first; the cast
    is exact.  einsum sums each row independently of the matrix height, of
    the row's position and of which of the two forms is used, so a scan
    over a gathered subset reproduces the full scan bit for bit; BLAS
    matvec/matmul kernels do not guarantee that.  Contiguity is forced
    because the summation order also depends on it.

    Like any float64 sum of d products, each result lies within
    ``gamma_d * |row| * |vec|`` of the exact dot product, with
    ``gamma_d = d*u / (1 - d*u)`` and ``u = 2**-53`` (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 3.1); :func:`_exact_top` relies on
    that bound to shortlist with BLAS and rescore here.
    """
    spec = "nd,d->n" if vec.ndim == 1 else "nd,nd->n"
    return np.einsum(
        spec,
        np.ascontiguousarray(mat, dtype=np.float64),
        np.ascontiguousarray(vec, dtype=np.float64),
    )


#: Upper bound, in bytes, on one chunk's BLAS similarity block and on one
#: rescore gather; scans of many queries are split to stay under it.
_CHUNK_BYTES = 16 << 20

#: Multiply-adds per BLAS product of the candidate scan: the limit holds
#: for each matrix of the stacked ``np.matmul`` in :func:`_blas_sims`,
#: since numpy hands BLAS one product per stacked matrix.  OpenBLAS runs a
#: product this small on the calling thread (OpenBLAS 0.3.31 starts its
#: worker threads somewhere above 2**18).  A threaded call is a lottery:
#: while the OS keeps a worker on the caller's own CPU, which it may do for
#: a second or more after a process starts, every threaded call takes a
#: scheduler time slice (~8 ms on a 2-vCPU VM) instead of ~1.3 ms for a
#: full 100k x 64 scan, so scan times would depend on thread placement.
_BLAS_MADDS = 1 << 17

#: Most rows that :func:`_exact_top` scans for a single query by rescoring
#: every row (:func:`_scan_one`) rather than through the BLAS shortlist,
#: whose fixed cost is larger at this size.
_SMALL_SCAN = 256


@functools.lru_cache(maxsize=None)
def _margin(dtype: np.dtype, d: int) -> tuple[float, float, float]:
    """``(coef, floor, qmax)`` for rows of ``dtype`` and dimension ``d``.

    ``delta = coef * |q| + floor`` bounds the gap between a BLAS similarity
    (query rounded to ``dtype``) and the float64 einsum (module docstring).
    Queries must have ``|q| < qmax`` so that no BLAS partial sum overflows.
    """
    info = np.finfo(dtype)
    u = float(info.eps) / 2.0
    u64 = 2.0 ** -53
    m = d + 1
    gamma = m * u / (1.0 - m * u)
    gamma64 = m * u64 / (1.0 - m * u64)
    coef = (gamma * (1.0 + u) + u + gamma64) * (1.0 + _NORM_TOL)
    floor = 2.0 * d * float(info.smallest_subnormal)
    return coef, floor, float(info.max) / 4.0


def _blas_sims(mat: np.ndarray, Q: np.ndarray) -> tuple[np.ndarray, int]:
    """``mat @ Q.T`` as an (N, B) block, with BLAS in ``mat``'s dtype.

    ``Q`` is rounded to ``mat``'s dtype and transposed once into a
    contiguous (d, B) block ``Qt``.  With ``r = _BLAS_MADDS // (B * d)``
    rows per product, the rows run as one stacked ``np.matmul`` of
    (N // r, r, d) by (d, B), plus one call for the remaining rows; numpy
    issues one BLAS product per stacked matrix, so none exceeds
    ``_BLAS_MADDS`` multiply-adds and each runs on the calling thread,
    while the per-call cost of a Python-level loop of small products is
    paid once per chunk.

    Returns ``(b, r)``: ``b`` has a multiple of ``r`` rows, the first N of
    them the similarities and any further ones -inf, so that
    ``b.reshape(-1, r * B)`` views it as lines of ``r`` whole rows, over
    which per-query reductions and compares run in long contiguous loops
    rather than B elements at a time.  A scan that fits one product
    returns its (N, B) block as the transpose of a contiguous (B, N) one,
    with ``r = 1``: per-query argmax then runs along contiguous memory, so
    small cluster scans cost no more than a query-major block did.
    Summation order may differ from one block size to the next;
    :func:`_exact_top` only needs each value within ``gamma_d * |row| *
    |q|`` of the exact dot product of the rounded query, which any order is.
    """
    Q = Q.astype(mat.dtype, copy=False)
    B, d = Q.shape
    N = mat.shape[0]
    r = max(1, _BLAS_MADDS // (B * d))
    if r >= N:  # one product, stored query-major: per-query argmax is contiguous
        return np.matmul(Q, mat.T).T, 1
    Qt = np.ascontiguousarray(Q.T)
    stacked = N - N % r
    b = np.empty((stacked + (r if stacked < N else 0), B), dtype=mat.dtype)
    np.matmul(mat[:stacked].reshape(-1, r, d), Qt, out=b[:stacked].reshape(-1, r, B))
    if stacked < N:
        np.matmul(mat[stacked:], Qt, out=b[stacked:N])
        b[N:] = -np.inf
    return b, r


def _outward(x: np.ndarray, dtype: np.dtype, toward: float) -> np.ndarray:
    """``x`` cast to ``dtype``, then moved one ulp toward ``toward`` (-inf or
    +inf), so the result never lies on the inner side of ``x``."""
    return np.nextafter(x.astype(dtype), toward)


def _rescore(mat, row, Q, qrow=None) -> np.ndarray:
    """``_row_sims(mat[row], Q[qrow])`` in gathers of at most ``_CHUNK_BYTES``;
    ``qrow`` None pairs ``row`` with the rows of ``Q`` in order."""
    gather = max(1, _CHUNK_BYTES // ((mat.itemsize + 16) * mat.shape[1]))
    if row.size <= gather:
        return _row_sims(mat[row], Q if qrow is None else Q[qrow])
    if qrow is None:
        qrow = np.arange(row.size)
    sims = np.empty(row.size)
    for s in range(0, row.size, gather):
        part = slice(s, s + gather)
        sims[part] = _row_sims(mat[row[part]], Q[qrow[part]])
    return sims


def _ahead(ids, row, sims, gid, gsim) -> np.ndarray:
    """True where (sims, ids[row]) comes before (gsim, gid) in the
    (similarity desc, id asc) order."""
    return (sims > gsim) | ((sims == gsim) & (ids[row] < gid))


def _join(parts: list) -> np.ndarray:
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _exact_top(mat: np.ndarray, ids: np.ndarray, queries: np.ndarray, p: int,
               gt_rows: np.ndarray | None = None):
    """Exact top-p rows of ``mat`` for every query row: shortlist, rescore.

    Returns (rows, sims, ranks).  rows and sims are (B, min(p, N)),
    ordered per query by similarity descending, ties broken by ascending
    id.  Every similarity returned comes from :func:`_row_sims`; BLAS only
    picks which rows get rescored (the shortlist-then-rerank pattern of
    FAISS, Johnson, Douze, Jegou 2017, kept exact):

    1. ``b = mat @ Q.T`` with BLAS in ``mat``'s dtype (:func:`_blas_sims`,
       one stacked call of single-threaded row blocks), in query chunks
       whose (N, chunk) block stays under ``_CHUNK_BYTES``.
    2. Keep every row with ``b >= t - 2*delta``, where ``t`` is the query's
       p-th largest ``b`` and ``delta`` (:func:`_margin`, module
       docstring) bounds ``|b - einsum|``; the threshold is rounded down
       when cast to ``mat``'s dtype.  A dropped row then has ``einsum <
       t - delta``, strictly below the einsum of each of the p rows with
       ``b >= t``, so it cannot reach the top p.  When the chunk fits one
       BLAS product (a cluster scan), candidates are counted before they
       are listed: when p = 1 and every query keeps one row, that row is
       the BLAS argmax and no index list is built.  On a stacked block at
       p = 1 they are listed from the columns whose maximum reaches the
       threshold (:func:`_hot_list`).
    3. Rescore only the kept rows with :func:`_row_sims`, and order them
       by (query, similarity desc, id asc) unless each query kept only
       its argmax.

    A single query at p = 1 over at most ``_SMALL_SCAN`` rows skips steps
    1-2, whose fixed cost is larger there than rescoring every row
    (:func:`_scan_one`); the answer is the same, since every similarity
    returned comes from :func:`_row_sims` either way.

    ``ranks`` is None unless ``gt_rows`` (p = 1 only) gives one row per
    query; then it holds that row's 1-based rank in the same order, found
    from the same BLAS block (:func:`_ranks`).

    Preconditions: rows of ``mat`` are unit norm within ``_NORM_TOL``
    (true of every subset of a :class:`Store`); query norms are taken as
    measured and must be finite.  ``mat`` must have at least one row.
    """
    N, d = mat.shape
    if N == 0:
        raise ValueError("cannot scan an empty scope")
    if gt_rows is not None and p != 1:
        raise ValueError("ranks are only computed for p = 1")
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    qnorms = np.sqrt(np.einsum("bd,bd->b", queries, queries))
    coef, floor, qmax = _margin(mat.dtype, d)
    if not np.maximum.reduce(qnorms, initial=0.0) < qmax:  # also false on NaN
        raise ValueError("query embeddings must be finite (and of norm below "
                         f"{qmax:.3g} for {mat.dtype} rows)")
    keep = min(p, N)
    if queries.shape[0] == 0:
        return (np.empty((0, keep), dtype=np.intp), np.empty((0, keep)),
                None if gt_rows is None else np.empty(0, dtype=np.int64))
    if queries.shape[0] == 1 and N <= _SMALL_SCAN and keep == 1 and gt_rows is None:
        return _scan_one(mat, ids, queries[0])
    widths = 2.0 * coef * qnorms + 2.0 * floor  # 2 * delta per query
    step = max(1, _CHUNK_BYTES // (mat.itemsize * N))
    out_rows, out_sims, out_ranks = [], [], []
    for lo in range(0, queries.shape[0], step):
        Q = queries[lo : lo + step]
        B = Q.shape[0]
        width = widths[lo : lo + step]
        b, r = _blas_sims(mat, Q)
        wide = b if r == 1 else b.reshape(-1, r * B)
        amax = colmax = None
        if keep > 1:
            t = np.partition(b[:N], N - keep, axis=0)[N - keep]
        elif r == 1:  # b is exactly (N, B): argmax finds t and its row
            amax = b.argmax(axis=0)
            t = colmax = b[amax, np.arange(B)]
        else:
            colmax = wide.max(axis=0)
            t = colmax.reshape(r, B).max(axis=0)
        thr = _outward(t - width, mat.dtype, -np.inf)
        if keep == 1 and r > 1:
            row, qrow, _ = _hot_list(wide, colmax, np.tile(thr, r), B, r)
        else:
            mask = wide >= (thr if r == 1 else np.tile(thr, r))
            if amax is not None and np.count_nonzero(mask) == B:
                qrow, row = None, amax  # each query keeps only its argmax
            else:
                # row-major over (N, B): rows ascend; every query keeps >= keep
                # (1-D flatnonzero runs far faster than a 2-D nonzero)
                row, qrow = np.divmod(np.flatnonzero(mask), B)
            del mask
        sims = _rescore(mat, row, Q, qrow)
        if gt_rows is not None:
            out_ranks.append(_ranks(mat, ids, Q, wide, r, colmax, width / 2.0, t, thr,
                                    gt_rows[lo : lo + step], qrow, row, sims))
        del b, wide
        if qrow is not None:
            order = np.lexsort((ids[row], -sims, qrow))
            starts = np.searchsorted(qrow[order], np.arange(B))
            pick = order[starts[:, None] + np.arange(keep)]
            row, sims = row[pick], sims[pick]
        out_rows.append(row.reshape(-1, keep))
        out_sims.append(sims.reshape(-1, keep))
    ranks = _join(out_ranks) if out_ranks else None
    return _join(out_rows), _join(out_sims), ranks


def _scan_one(mat, ids, q):
    """:func:`_exact_top` of one query ``q`` at p = 1, by rescoring every row
    with :func:`_row_sims`: the first row of the greatest similarity, or,
    where several rows tie at it, the one of least id (a cluster's rows are
    in row order, not id order)."""
    sims = _row_sims(mat, q)
    tie = sims == sims.max()
    row = tie.argmax()
    if np.count_nonzero(tie) > 1:
        row = np.where(tie, ids, ids.max()).argmin()
    return np.array([[row]], dtype=np.intp), sims[row : row + 1][None], None


def _hot_list(wide, colmax, col_thr, B, r):
    """``(row, qrow, value)`` of every entry of a BLAS block at or above its
    column's threshold, in row-major order over (N, B).

    ``wide`` is the block viewed as lines of ``r`` whole rows
    (:func:`_blas_sims`), ``colmax`` its column maxima and ``col_thr`` the
    threshold of each of its ``r * B`` columns.  Only columns whose maximum
    reaches the threshold can hold an entry, so when those ("hot" columns)
    are few, only they are gathered and compared, and the full-block mask
    (one pass to write, one more to list) is never built.  Entry
    ``(line, c)`` is row ``line * r + c // B`` for query ``c % B``, and hot
    columns ascend, so the order is that of ``flatnonzero`` over the whole
    block.  Gathering costs more per value than a compare, so when more
    than a quarter of the columns are hot (a 2-vCPU VM broke even near
    that share) the whole block is compared instead.
    """
    hot = np.flatnonzero(colmax >= col_thr)
    if 4 * hot.size > col_thr.size:
        at = np.flatnonzero(wide >= col_thr)
        row, qrow = np.divmod(at, B)
        return row, qrow, wide.ravel()[at]
    sub = np.take(wide, hot, axis=1)
    at = np.flatnonzero(sub >= col_thr[hot])
    line, j = np.divmod(at, hot.size)
    off, qrow = np.divmod(hot[j], B)
    return line * r + off, qrow, sub.ravel()[at]


def _ranks(mat, ids, Q, wide, r, colmax, delta, t, thr, g, qrow, row, sims) -> np.ndarray:
    """1-based rank of row ``g[j]`` for query ``Q[j]`` in the (einsum
    similarity desc, id asc) order, from one chunk of :func:`_exact_top`.

    ``wide`` is the chunk's BLAS block ``b`` viewed as lines of ``r``
    whole rows (:func:`_blas_sims`), ``colmax`` its column maxima, ``t``
    each query's BLAS maximum, ``thr`` its shortlist threshold and (qrow,
    row, sims) the rescored shortlist (``qrow`` None: one row per query, in
    order).  With ``gsim`` the einsum of the ground-truth row, a row with
    ``b > hi >= gsim + delta`` is ahead (its einsum exceeds gsim), a row
    with ``b < lo <= gsim - delta`` is behind, and rows in [lo, hi] are
    rescored.  Where ``t <= hi`` and ``lo >= thr``, nothing is ahead
    outright and [lo, hi] lies inside the shortlist, so the shortlist alone
    settles the rank.  The other queries share one more pass,
    :func:`_hot_list` with ``lo`` as each column's threshold, which lists
    their rows at or above ``lo``; the settled queries' columns have
    threshold +inf, so they are never hot and list nothing.
    """
    B = Q.shape[0]
    if qrow is None:
        qrow = np.arange(B)
    gsim = _row_sims(mat[g], Q)
    gid = ids[g]
    hi = _outward(gsim + delta, mat.dtype, np.inf)
    lo = _outward(gsim - delta, mat.dtype, -np.inf)
    ahead = _ahead(ids, row, sims, gid[qrow], gsim[qrow])
    ranks = 1 + np.bincount(qrow[ahead], minlength=B)
    need = (t > hi) | (lo < thr)
    if need.any():
        lo = np.where(need, lo, np.inf)
        brow, bq, vals = _hot_list(wide, colmax, np.tile(lo, r), B, r)
        up = vals > hi[bq]
        sure = np.bincount(bq[up], minlength=B)
        brow, bq = brow[~up], bq[~up]
        bsims = _rescore(mat, brow, Q, bq)
        band = _ahead(ids, brow, bsims, gid[bq], gsim[bq])
        ranks = np.where(need, 1 + sure + np.bincount(bq[band], minlength=B), ranks)
    return ranks


def scan_top1(embeddings: np.ndarray, ids: np.ndarray,
              queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact argmax over ``embeddings`` for each query row.

    Returns (best_index, best_sim) per query, ties broken by ascending id.
    This is :func:`top_matches` with p=1 on a batch: both run
    :func:`_exact_top`, so the results agree bit for bit.  Candidates come
    from one stacked, single-threaded BLAS product in the rows' dtype per
    chunk of queries (at most ``_CHUNK_BYTES`` = 16 MB of similarities per
    chunk);
    only rows within ``2*delta`` of each query's BLAS maximum are rescored
    in float64 with :func:`_row_sims`, where ``delta`` (module docstring)
    bounds the BLAS vs einsum gap.  Rows must be unit norm within
    ``_NORM_TOL``; query norms are taken as measured.
    """
    rows, sims, _ = _exact_top(embeddings, ids, queries, 1)
    return rows[:, 0], sims[:, 0]


def scan_ranks(embeddings: np.ndarray, ids: np.ndarray, queries: np.ndarray,
               gt_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`scan_top1` plus the 1-based rank of ``gt_rows[j]`` for query j.

    The rank is taken in the same (similarity desc, id asc) order, over the
    float64 einsum similarities, by the same kernel pass that finds the
    argmax (:func:`_exact_top`).
    """
    rows, sims, ranks = _exact_top(embeddings, ids, queries, 1,
                                   np.asarray(gt_rows, dtype=np.intp))
    return rows[:, 0], sims[:, 0], ranks


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


def _packed_keys(store: Store) -> np.ndarray:
    """(N, ceil(n/8)) key bits of every row, packed LSB-first, zero padded."""
    table = np.packbits(store.cluster_keys, axis=1, bitorder="little")
    return table[store.clusters]


#: Bytes of records per chunk that :func:`save_store` writes and
#: :func:`load_store` reads.
_READ_BYTES = 1 << 20


def save_store(store: Store, path) -> None:
    """Serialise a preprocessed store; the write is atomic (temp + rename).

    The mirror of :func:`load_store`: after the header and metadata, one
    reused buffer of ``_READ_BYTES // record size`` records is filled per
    step, fed to the checksum's SHA-256 and written, so no file-sized copy
    of the records is ever made.  Each step gathers its keys from the
    packed key table of the 2**k clusters.
    """
    if not store.clustered:
        raise ValueError("only preprocessed (clustered) stores are saved")
    spec = store.spec
    if not 1 <= spec.k <= 16:
        raise ValueError(f"k={spec.k} outside [1, 16]: cluster labels are u16 on disk")
    if spec.n > _MAX_KEY_BITS:
        raise ValueError(f"keys of {spec.n} bits exceed the format's {_MAX_KEY_BITS}")
    meta = spec.to_dict()
    meta["partition_seed"] = store.seed
    blob = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    head = MAGIC + struct.pack(
        "<HIIQI", FORMAT_VERSION, store.d, spec.k, len(store), len(blob)
    )
    dtype = _record_dtype(store.d, (spec.n + 7) // 8)
    table = np.packbits(store.cluster_keys, axis=1, bitorder="little")
    step = max(1, _READ_BYTES // dtype.itemsize)
    buf = np.empty(min(step, len(store)), dtype=dtype)
    digest = hashlib.sha256(head)
    digest.update(blob)
    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(head)
            fh.write(blob)
            for lo in range(0, len(store), step):
                part = slice(lo, lo + step)
                records = buf[: min(step, len(store) - lo)]
                records["id"] = store.ids[part]
                records["cluster"] = store.clusters[part]
                records["key"] = table[store.clusters[part]]
                records["emb"] = store.embeddings[part]
                chunk = records.view(np.uint8)
                digest.update(chunk)
                fh.write(chunk)
            fh.write(digest.digest()[:8])
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_meta(path, blob: bytes) -> tuple[int | None, ecc.PolarCodeSpec]:
    """(partition seed, code spec) of a store file's metadata JSON.

    The spec is rebuilt with :func:`ecc.construct_code` from the stored
    ``k``, ``n`` and ``design_p`` and must equal the stored document, so
    every field a loader relies on (frozen set, block length) is one the
    code construction produces.  Any other metadata is a StoreFormatError.
    """
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreFormatError(f"{path}: bad metadata JSON: {exc}") from None
    try:
        k, n, seed = meta["k"], meta["n"], meta.get("partition_seed")
        if not (type(k) is type(n) is int and 1 <= k <= 16 and n <= _MAX_KEY_BITS):
            raise ValueError(f"k={k!r} n={n!r} out of range")
        if seed is not None and type(seed) is not int:
            raise ValueError(f"partition_seed {seed!r} is not an integer")
        spec = ecc.construct_code(k, n, float(meta["design_p"]))
        if ecc.PolarCodeSpec.from_dict(meta) != spec:
            raise ValueError("code spec differs from the construction of (k, n, design_p)")
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise StoreFormatError(f"{path}: bad metadata: {exc!r}") from None
    return seed, spec


def _record_layout(blob: bytes, d: int, count: int, nbytes: int) -> np.dtype | None:
    """Record dtype the metadata ``blob`` gives, if ``count`` such records
    fill exactly ``nbytes``; None if not, or if the metadata does not parse."""
    try:
        dtype = _record_dtype(d, (_parse_meta("", blob)[1].n + 7) // 8)
    except (StoreFormatError, ValueError):  # load_store raises it again, in its turn
        return None
    return dtype if count * dtype.itemsize == nbytes else None


def _hashed_chunks(fh, nbytes: int, step: int, digest, path):
    """Read ``nbytes`` of ``fh`` in chunks of at most ``step`` bytes, feed
    each to ``digest`` and yield it (a view, valid until the next one)."""
    buf = memoryview(bytearray(min(nbytes, step)))
    while nbytes:
        chunk = buf[: min(step, nbytes)]
        if fh.readinto(chunk) != chunk.nbytes:
            raise StoreFormatError(f"{path}: file shrank while it was read")
        digest.update(chunk)
        yield chunk
        nbytes -= chunk.nbytes


def load_store(path, expect_d: int | None = None) -> Store:
    """Load and fully validate a store file written by :func:`save_store`.

    ``expect_d`` pins the embedding dimension the caller was built for;
    a file with any other dimension is rejected before records are read.

    Records are read ``_READ_BYTES`` at a time straight into the final
    arrays while the checksum is hashed incrementally, so the whole file is
    never held in memory.  Nothing read is trusted before the checksum
    matches: a header or metadata that does not describe the file's size
    only turns the read into hashing, and the checks after it fail in the
    same order as they would on the file read whole.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        off = len(MAGIC) + 22
        if size < off + 8:
            raise StoreFormatError(f"{path}: truncated header")
        head = fh.read(off)
        if head[: len(MAGIC)] != MAGIC:
            raise StoreFormatError(f"{path}: bad magic, not a store file")
        version, d, k, count, blob_len = struct.unpack_from("<HIIQI", head, len(MAGIC))
        body = size - 8  # bytes covered by the checksum
        blob = fh.read(min(blob_len, body - off))
        digest = hashlib.sha256(head)
        digest.update(blob)
        rest = body - off - len(blob)
        dtype = _record_layout(blob, d, count, rest) if off + blob_len <= body else None
        if dtype is None:  # only hash; the checks below say what is wrong
            for _ in _hashed_chunks(fh, rest, _READ_BYTES, digest, path):
                pass
        else:
            ids = np.empty(count, dtype=np.uint64)
            clusters = np.empty(count, dtype=np.int32)
            keys = np.empty((count, dtype["key"].shape[0]), dtype=np.uint8)
            embeddings = np.empty((count, d), dtype=np.float32)
            step = max(1, _READ_BYTES // dtype.itemsize) * dtype.itemsize
            lo = 0
            for chunk in _hashed_chunks(fh, rest, step, digest, path):
                records = np.frombuffer(chunk, dtype=dtype)
                hi = lo + records.shape[0]
                ids[lo:hi] = records["id"]
                clusters[lo:hi] = records["cluster"]
                keys[lo:hi] = records["key"]
                embeddings[lo:hi] = records["emb"]  # native order
                lo = hi
        trailer = fh.read(8)
    if digest.digest()[:8] != trailer:
        raise StoreFormatError(f"{path}: checksum mismatch, file corrupted")
    if version != FORMAT_VERSION:
        raise StoreFormatError(f"{path}: unsupported version {version}")
    if expect_d is not None and d != expect_d:
        raise StoreFormatError(f"{path}: embedding dim {d}, expected {expect_d}")
    if off + blob_len > body:
        raise StoreFormatError(f"{path}: truncated metadata")
    seed, spec = _parse_meta(path, blob)
    if spec.k != k:
        raise StoreFormatError(f"{path}: header k={k} disagrees with spec k={spec.k}")
    if dtype is None:
        raise StoreFormatError(
            f"{path}: size {size} does not hold N={count} records of d={d}, n={spec.n}"
        )
    try:
        store = Store(ids=ids, embeddings=embeddings, clusters=clusters, spec=spec, seed=seed)
    except ValueError as exc:  # duplicate ids, non-unit rows, labels out of range
        raise StoreFormatError(f"{path}: {exc}") from None
    # compare packed bytes; the last byte's padding bits carry no key bit
    pad = -spec.n % 8
    if pad:
        keys[:, -1] &= 0xFF >> pad
    if not np.array_equal(keys, _packed_keys(store)):
        raise StoreFormatError(f"{path}: stored keys disagree with cluster codes")
    return store
