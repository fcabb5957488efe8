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

Every scan runs one method, in ``_exact_top`` and in its segmented form
for batches of routed queries (:func:`_segment_run`): a BLAS product in
the rows' dtype picks candidates, and only candidates are rescored with the
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

A scan streams tiles: at most ``_TILE_QUERIES`` = 64 queries by as many
rows as keep the tile's BLAS similarities within ``_TILE_BYTES`` = 1 MiB
(4096 rows of float32 at d = 64), so that a tile stays in a core's L2
cache while it is reduced and listed, and no batch of that many queries
builds a block of all rows by all of them.  A scan of fewer than ``_TILE_QUERIES`` queries reads each row
once, so a cache-sized tile saves it nothing and costs it a tile's fixed
numpy calls many times over: its tiles hold up to ``_CHUNK_BYTES`` of
similarities instead (one tile for up to 41 queries over 100k rows at
d = 64).  A tile is one stacked ``np.matmul`` whose every matrix is a
block of rows small enough (``_BLAS_MADDS`` multiply-adds per product)
that BLAS never wakes its worker threads, and per-query maxima, threshold
compares and candidate lists run over a view of r whole rows per line, so
numpy's loops span long contiguous runs (:func:`_blas_sims`).  Each query keeps a running bound, never above its p-th
largest BLAS similarity, and a tile keeps only its entries within
``2*delta`` of that bound (plus, for ranks, the ground-truth band below);
after the last tile the bound is exact and the same margin selects the
candidates, so the tiles change no answer.  When a scan has more than one
row tile, its rows are cut into ranges of whole tiles that as many threads
as the process has CPUs take in turn, the caller one of them
(:func:`_in_threads`; the parallel brute-force search of FAISS, Johnson,
Douze and Jegou 2017, with single-threaded BLAS in each thread).  The
ranges merge by a maximum over their bounds, a concatenation of their
kept entries and a sum of their counts, so every answer is the serial
one bit for bit, and a scan holds at most one tile of similarities per
thread.  A scan of one row tile, such as a single query over the whole
store or any cluster scan, starts no thread, and neither does a scan made
on any thread but the main one (:func:`_scan_threads`).

:func:`route_and_scan` is the one scoped scan, and the only code that
picks how a batch's scopes (clusters of a CSR layout, or the whole store)
are scanned.  Its segmented pass answers many small groups together: each
group's BLAS product is written query-major into one flat pair buffer (a
run of whole groups, which with its thresholds and candidate mask stays
within ``_CHUNK_BYTES``), and per-query maxima, thresholds, candidates,
rescore and order run once over all the segments of that buffer, on the
calling thread.

The evaluation's scan (:func:`scan_ranks`) also returns each query's
ground-truth rank under the same order, in the same pass: with
``g = einsum(q, gt_row)``, a row whose BLAS similarity exceeds
``g + delta`` is ahead outright and is counted where its tile is listed,
one below ``g - delta`` is behind, and only rows within ``delta`` of
``g``, which every tile keeps, are rescored to settle their order.

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
import threading

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

    @functools.cached_property
    def cluster_keys(self) -> np.ndarray:
        """(2**k, n) key table; row c is the watermark key of cluster c."""
        if self.spec is None:
            raise ValueError("store has no cluster partition yet")
        return ecc.encode_all(self.spec)

    @functools.cached_property
    def cluster_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR cluster layout, :func:`csr_index` of the cluster labels."""
        if self.clusters is None:
            raise ValueError("store has no cluster partition yet")
        return csr_index(self.clusters, 1 << self.spec.k)

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


#: Upper bound, in bytes, on one rescore gather, on one run of the
#: segmented pass (:func:`route_and_scan`) and on one tile of a scan of
#: fewer than ``_TILE_QUERIES`` queries (:func:`_exact_top`).
_CHUNK_BYTES = 16 << 20

#: Upper bound, in bytes, on the BLAS similarities of one tile of
#: :func:`_exact_top` for a batch of at least ``_TILE_QUERIES`` queries:
#: with its queries and rows, a tile stays in a core's L2 cache while it
#: is reduced and listed.
_TILE_BYTES = 1 << 20

#: Most queries in one tile of :func:`_exact_top`.  At d = 64, OpenBLAS
#: 0.3.31's SkylakeX sgemm ran the (32 x 64) by (64 x 64) products of a
#: 64-query tile at 44-70 GMAC/s on one thread, 1.5-2.3 times the rate of
#: the (49 x 64) by (64 x 41) products of the 41-query chunks this
#: replaced, measured in the same rounds (2-vCPU VM).
_TILE_QUERIES = 64

#: Multiply-adds per BLAS product of the candidate scan: the limit holds
#: for each matrix of the stacked ``np.matmul`` in :func:`_blas_sims`,
#: since numpy hands BLAS one product per stacked matrix.  OpenBLAS runs a
#: product this small on the calling thread (OpenBLAS 0.3.31 starts its
#: worker threads somewhere above 2**18).  A threaded call is a lottery:
#: while the OS keeps a worker on the caller's own CPU, which it may do for
#: a second or more after a process starts, every threaded call takes a
#: scheduler time slice (~8 ms on a 2-vCPU VM) instead of ~1.3 ms for a
#: full 100k x 64 scan, so scan times would depend on thread placement.
#: A scan that splits its rows among threads of its own
#: (:func:`_exact_top`) keeps this limit on each product, so BLAS's
#: workers stay idle then too.
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


def _widths(queries: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """``2 * delta`` (:func:`_margin`) of every row of a float64 ``queries``
    matrix, for rows of ``dtype``; raises unless every query norm is finite
    and below that dtype's ``qmax``."""
    qnorms = np.sqrt(np.einsum("bd,bd->b", queries, queries))
    coef, floor, qmax = _margin(dtype, queries.shape[1])
    if not np.maximum.reduce(qnorms, initial=0.0) < qmax:  # also false on NaN
        raise ValueError("query embeddings must be finite (and of norm below "
                         f"{qmax:.3g} for {dtype} rows)")
    return 2.0 * coef * qnorms + 2.0 * floor


def _blas_sims(mat: np.ndarray, Q: np.ndarray):
    """``mat @ Q.T`` as an (N, B) block, with BLAS in ``mat``'s dtype.

    ``Q`` is rounded to ``mat``'s dtype and transposed once into a
    contiguous (d, B) block ``Qt``.  With ``r = _BLAS_MADDS // (B * d)``
    rows per product, the rows run as one stacked ``np.matmul`` of
    (N // r, r, d) by (d, B), plus one call for the remaining rows; numpy
    issues one BLAS product per stacked matrix, so none exceeds
    ``_BLAS_MADDS`` multiply-adds and each runs on the calling thread,
    while the per-call cost of a Python-level loop of small products is
    paid once per block.

    Returns ``(b, parts)``.  A part ``(wide, r, first)`` views rows
    ``first`` onward as lines of ``r`` whole rows, entry ``(line, c)``
    being row ``first + line * r + c // B`` for query ``c % B``, so that
    per-query reductions and compares run in long contiguous loops rather
    than B elements at a time: the stacked products' rows are one part,
    and the last, shorter product's rows one more, of a single line.  A
    block that fits one product is the transpose of a contiguous (B, N)
    one, a single part with ``r = 1``: per-query maxima then run along
    contiguous memory, so small cluster scans cost no more than a
    query-major block did.  Summation order may differ from one block
    size to the next; :func:`_exact_top` only needs each value within
    ``gamma_d * |row| * |q|`` of the exact dot product of the rounded
    query, which any order is.
    """
    Q = Q.astype(mat.dtype, copy=False)
    B, d = Q.shape
    N = mat.shape[0]
    r = max(1, _BLAS_MADDS // (B * d))
    if r >= N:  # one product, stored query-major: per-query maxima are contiguous
        b = np.matmul(Q, mat.T).T
        return b, [(b, 1, 0)]
    Qt = np.ascontiguousarray(Q.T)
    stacked = N - N % r
    b = np.empty((N, B), dtype=mat.dtype)
    np.matmul(mat[:stacked].reshape(-1, r, d), Qt, out=b[:stacked].reshape(-1, r, B))
    parts = [(b[:stacked].reshape(-1, r * B), r, 0)]
    if stacked < N:
        np.matmul(mat[stacked:], Qt, out=b[stacked:])
        parts.append((b[stacked:].reshape(1, -1), N - stacked, stacked))
    return b, parts


def _outward(x: np.ndarray, dtype: np.dtype, toward: float) -> np.ndarray:
    """``x`` cast to ``dtype``, then moved one ulp toward ``toward`` (-inf or
    +inf), so the result never lies on the inner side of ``x``."""
    return np.nextafter(x.astype(dtype), toward)


def _shortlist_floor(t: np.ndarray, widths: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """The shortlist rule of every scan (:func:`_exact_top`, step 2): the
    least BLAS similarity a row may have and still be rescored, ``t -
    widths`` (``t - 2*delta``, :func:`_widths`) rounded down in ``dtype``."""
    return _outward(t - widths, dtype, -np.inf)


def _rescore(mat, row, Q, qrow) -> np.ndarray:
    """``_row_sims(mat[row], Q[qrow])`` in gathers of at most ``_CHUNK_BYTES``."""
    gather = max(1, _CHUNK_BYTES // ((mat.itemsize + 16) * mat.shape[1]))
    if row.size <= gather:
        return _row_sims(mat[row], Q[qrow])
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

    1. ``b = mat @ Q.T`` with BLAS in ``mat``'s dtype, in tiles of at most
       ``_TILE_QUERIES`` queries by as many whole row blocks as keep the
       tile's similarities within ``_TILE_BYTES`` (``_CHUNK_BYTES`` for a
       batch of fewer queries; :func:`_scan_rows`, one stacked call of
       single-threaded products per tile).
    2. Keep every row with ``b >= t - 2*delta``, where ``t`` is the query's
       p-th largest ``b`` and ``delta`` (:func:`_margin`, module
       docstring) bounds ``|b - einsum|``; the threshold is rounded down
       when cast to ``mat``'s dtype (:func:`_shortlist_floor`, the one
       place this rule is written).  A dropped row then has ``einsum <
       t - delta``, strictly below the einsum of each of the p rows with
       ``b >= t``, so it cannot reach the top p.  Each tile compares
       against the bound ``m <= t`` known so far and keeps the entries at
       or above ``m - 2*delta`` (:func:`_scan_rows`), a superset; after the
       last tile ``t`` is known and only those at or above ``t - 2*delta``
       remain.
    3. Rescore only the kept rows with :func:`_row_sims`, and order them
       by (query, similarity desc, id asc).

    A scan of more than one row tile splits its rows into ranges of whole
    tiles that :func:`_scan_threads` threads take in turn
    (:func:`_in_threads`); the ranges' bounds merge by maximum, their kept
    entries by concatenation and their counts by sum, so the answer is the
    serial one bit for bit.  A single query at p = 1 over at most
    ``_SMALL_SCAN`` rows skips steps 1-2, whose fixed cost is larger there
    than rescoring every row (:func:`_scan_one`); the answer is the same,
    since every similarity returned comes from :func:`_row_sims` either
    way.

    ``ranks`` is None unless ``gt_rows`` (p = 1 only) gives one row per
    query; then it holds that row's 1-based rank in the same order.  With
    ``gsim`` the einsum of the ground-truth row, ``lo = gsim - delta`` and
    ``hi = gsim + delta`` (rounded outward), a row with ``b > hi`` is ahead
    (its einsum exceeds gsim), one with ``b < lo`` is behind, and the rows
    in [lo, hi], which the tiles always keep, are rescored to settle their
    order.  Since the ground-truth row has ``b >= lo``, ``m`` starts at
    ``lo``.

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
    widths = _widths(queries, mat.dtype)
    keep = min(p, N)
    B = queries.shape[0]
    if B == 0:
        return (np.empty((0, keep), dtype=np.intp), np.empty((0, keep)),
                None if gt_rows is None else np.empty(0, dtype=np.int64))
    if B == 1 and N <= _SMALL_SCAN and keep == 1 and gt_rows is None:
        return _scan_one(mat, ids, queries[0])
    band = None
    if gt_rows is not None:
        gsim = _row_sims(mat[gt_rows], queries)
        band = (_outward(gsim - widths / 2.0, mat.dtype, -np.inf),
                _outward(gsim + widths / 2.0, mat.dtype, np.inf))
    step = min(B, _TILE_QUERIES)
    r = max(1, _BLAS_MADDS // (step * d))
    budget = _TILE_BYTES if B >= _TILE_QUERIES else _CHUNK_BYTES  # module docstring
    span = max(1, budget // (mat.itemsize * step) // r) * r  # rows per tile
    tiles = -(-N // span)
    threads = 1 if tiles == 1 else _scan_threads()
    per = span * (-(-tiles // (4 * threads)) if threads > 1 else tiles)  # rows per range
    Qc = queries.astype(mat.dtype)
    found = []

    def scan(lo: int) -> None:
        found.append(_scan_rows(mat[lo : lo + per], lo, Qc, widths, keep, band, step, span))

    _in_threads(scan, range(0, N, per), threads)
    bounds, counts, rows, qrows, vals = zip(*found)
    row, qrow, val = _join(rows), _join(qrows), _join(vals)
    if keep == 1:
        t = functools.reduce(np.maximum, bounds)
    else:  # each query's keep-th largest kept value, the keep-th largest of all
        by = np.lexsort((-val, qrow))
        t = val[by[np.searchsorted(qrow[by], np.arange(B)) + keep - 1]]
    hit = val >= _shortlist_floor(t, widths, mat.dtype)[qrow]
    ranks = None
    if band is None:
        row, qrow = row[hit], qrow[hit]
        sims = _rescore(mat, row, queries, qrow)
    else:
        inband = (val >= band[0][qrow]) & (val <= band[1][qrow])
        either = hit | inband
        row, qrow, hit, inband = row[either], qrow[either], hit[either], inband[either]
        sims = _rescore(mat, row, queries, qrow)
        bq = qrow[inband]
        ahead = _ahead(ids, row[inband], sims[inband], ids[gt_rows[bq]], gsim[bq])
        ranks = 1 + np.sum(counts, axis=0) + np.bincount(bq[ahead], minlength=B)
        row, qrow, sims = row[hit], qrow[hit], sims[hit]
    pick = _first(ids, row, sims, qrow, B, keep)
    return row[pick], sims[pick], ranks


def _first(ids, row, sims, qrow, B: int, keep: int) -> np.ndarray:
    """(B, keep) positions, in the candidates ``row``, ``sims`` and ``qrow``,
    of each query's first ``keep`` in the (similarity desc, id asc) order."""
    by = np.lexsort((ids[row], -sims, qrow))
    return by[np.searchsorted(qrow[by], np.arange(B))[:, None] + np.arange(keep)]


def _scan_rows(mat, first, Q, widths, keep, band, step, span):
    """One range of :func:`_exact_top`'s rows, ``mat`` (rows ``first``
    onward of the scope), in tiles of ``span`` rows by ``step`` queries of
    ``Q`` (the queries in ``mat``'s dtype), one :func:`_tile` at a time.

    The running bound ``m`` of each query is the largest tile maximum so
    far at ``keep`` = 1, and the largest tile ``keep``-th largest so far
    otherwise (-inf while a tile has fewer rows); with ``band = (lo, hi)``
    it starts at ``lo``.  Returns ``(m, counts, row, qrow, val)``: the
    bounds, the counts of rows ahead outright (None without a band), and
    the kept entries' scope rows, query rows and BLAS values.
    """
    B = Q.shape[0]
    m = np.full(B, -np.inf, dtype=mat.dtype) if band is None else band[0].copy()
    counts = None if band is None else np.zeros(B, dtype=np.intp)
    blocks = [(q, slice(q, q + step)) for q in range(0, B, step)]
    blocks = [(q, Q[part], widths[part], m[part],
               None if band is None else (band[0][part], band[1][part], counts[part]))
              for q, part in blocks]
    rows, qrows, vals = [], [], []
    for a in range(0, mat.shape[0], span):
        tile = mat[a : a + span]
        for q, *block in blocks:
            for row, qrow, val in _tile(tile, *block, keep):
                rows.append(row + (first + a))
                qrows.append(qrow + q)
                vals.append(val)
    return m, counts, _join(rows), _join(qrows), _join(vals)


def _tile(mat, Q, widths, bound, band, keep):
    """The kept entries of one tile of :func:`_scan_rows`, the BLAS block
    of the rows ``mat`` by the queries ``Q``, reduced and listed while it
    is in cache; a list of ``(row, qrow, val)`` parts, rows and query rows
    counted from the tile's first.

    ``bound`` (a view of the running bounds, updated in place) takes the
    tile's maxima, or its ``keep``-th largest values.  The tile lists its
    entries at or above ``min(bound - 2*delta, lo)`` (rounded down) with
    :func:`_hot_list`; with ``band = (lo, hi, counts)`` an entry above
    ``hi`` is added to its query's count (in place) and kept only if it is
    also at or above ``bound - 2*delta``.
    """
    b, parts = _blas_sims(mat, Q)
    colmax = [np.maximum.reduce(wide) if len(wide) > 1 else wide[0] for wide, _, _ in parts]
    if keep == 1:
        for (_, r, _), cmax in zip(parts, colmax):
            np.maximum(bound, np.maximum.reduce(cmax.reshape(r, -1)), out=bound)
    elif len(b) >= keep:
        np.maximum(bound, np.partition(b, len(b) - keep, axis=0)[len(b) - keep], out=bound)
    thr = _shortlist_floor(bound, widths, mat.dtype)
    floor = thr if band is None else np.minimum(thr, band[0])
    kept = []
    for (wide, r, off), cmax in zip(parts, colmax):
        row, qrow, val = _hot_list(wide, cmax, floor, r)
        if band is not None:
            up = val > band[1][qrow]
            np.add(band[2], np.bincount(qrow[up], minlength=len(thr)), out=band[2])
            stay = ~up | (val >= thr[qrow])
            row, qrow, val = row[stay], qrow[stay], val[stay]
        kept.append((row + off if off else row, qrow, val))
    return kept


def _scan_threads() -> int:
    """Threads a scan of several row tiles may use: the CPUs this process
    may run on, for a scan on the main thread.  A scan on any other thread
    runs alone: whatever started that thread, such as the attack pool of
    ``drew eval --workers``, already spreads work over the CPUs."""
    if threading.current_thread() is not threading.main_thread():
        return 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _in_threads(work, items, threads: int) -> None:
    """``work(x)`` for every ``x`` of ``items`` on ``threads`` threads, the
    caller one of them.

    Each thread takes the next item no thread has taken yet, so a thread
    on a slow CPU takes fewer.  Every thread is joined before this returns
    or raises.  The first exception any thread raises is raised again
    here; the other threads then take no new item.  With one thread the
    caller works through the items in order and starts none.
    """
    untaken = iter(items)
    lock = threading.Lock()
    failed = []

    def drain():
        try:
            while not failed:
                with lock:
                    x = next(untaken, None)
                if x is None:
                    return
                work(x)
        except BaseException as exc:  # raised again by the caller below
            failed.append(exc)

    helpers = [threading.Thread(target=drain, daemon=True) for _ in range(threads - 1)]
    try:
        for helper in helpers:
            helper.start()
        drain()
    finally:
        for helper in helpers:
            if helper.ident is not None:  # started
                helper.join()
    if failed:
        raise failed[0]


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


def _hot_list(wide, colmax, thr, r):
    """``(row, qrow, value)`` of every entry of a BLAS block at or above its
    query's threshold ``thr[qrow]``, in row-major order over (N, B).

    ``wide`` is a part of the block, lines of ``r`` whole rows
    (:func:`_blas_sims`), and ``colmax`` the maxima of its ``r * B`` columns.
    Only columns whose maximum reaches the threshold can hold an entry, so
    when those ("hot" columns) are few, only they are gathered and
    compared, and the full-block mask (one pass to write, one more to
    list) is never built.  Entry ``(line, c)`` is row ``line * r + c // B``
    for query ``c % B``, and hot columns ascend, so the order is that of
    ``flatnonzero`` over the whole block.  Gathering costs more per value
    than a compare, so when more than a quarter of the columns are hot (a
    2-vCPU VM broke even near that share), or the block is one line, the
    whole block is compared instead.
    """
    B = thr.size
    if wide.shape[0] > 1:
        hot = np.flatnonzero(colmax.reshape(r, B) >= thr)
        if 4 * hot.size <= colmax.size:
            off, hq = np.divmod(hot, B)
            sub = np.take(wide, hot, axis=1)
            at = np.flatnonzero(sub >= thr[hq])
            line, j = np.divmod(at, hot.size)
            return line * r + off[j], hq[j], sub.ravel()[at]
    at = np.flatnonzero(wide.reshape(-1, B) >= thr)
    row, qrow = np.divmod(at, B)
    return row, qrow, wide.ravel()[at]


def scan_top1(embeddings: np.ndarray, ids: np.ndarray,
              queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact argmax over ``embeddings`` for each query row.

    Returns (best_index, best_sim) per query, ties broken by ascending id:
    :func:`top_matches` at p=1 on a batch, through the same
    :func:`_exact_top` (module docstring), so the results agree bit for
    bit.  Rows must be unit norm within ``_NORM_TOL``; query norms are
    taken as measured.
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


def route_and_scan(embeddings: np.ndarray, ids: np.ndarray, order, offsets, scopes,
                   queries: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact top-1 of every query within its scope, for ``drew query``,
    the library and ``drew eval`` alike.

    ``scopes[j]`` is a label of the CSR layout ``(order, offsets)``
    (:func:`csr_index`), whose rows must not be empty, or :data:`FULL`;
    ``order`` and ``offsets`` are not read when every scope is
    :data:`FULL`.  Returns ``(row, sim, scope_size)`` per query: the best
    row's index into ``embeddings``, its similarity (ties broken by
    ascending id) and its scope's row count.  A batch of one scope is one
    :func:`_exact_top` call, which rescores every row of a small scope for
    a lone query (:func:`_scan_one`).  Otherwise one stable argsort groups
    the queries; the whole store's group, and each group of more pairs
    (queries times rows) than a run of ``_CHUNK_BYTES // (2 * itemsize +
    1)`` holds, is answered as a batch of its one scope, and the other
    groups, cut whole into runs, share the segmented pass
    (:func:`_segment_run`), an exact
    scan of an IVF index's inverted lists (Jegou, Douze and Schmid, IEEE
    TPAMI 33(1), 2011).  Every strategy returns the (einsum similarity
    desc, id asc) first row, so an answer does not depend on which queries
    share its batch; each is the fastest measured at its size (README,
    "Exact scans").
    """
    scopes = np.asarray(scopes)
    B = scopes.shape[0]
    label = int(scopes[0]) if B else FULL
    if B < 2 or (scopes == label).all():
        members = slice(None) if label == FULL else order[offsets[label] : offsets[label + 1]]
        scope_ids = ids[members]
        rows, sims, _ = _exact_top(embeddings[members], scope_ids, queries, 1)
        size = np.empty(B, dtype=np.int64)
        size.fill(scope_ids.size)
        return (rows[:, 0] if label == FULL else members[rows[:, 0]]), sims[:, 0], size
    queries = np.ascontiguousarray(queries, dtype=np.float64)
    size = np.where(scopes == FULL, embeddings.shape[0], offsets[scopes + 1] - offsets[scopes])
    if not size.all():
        raise ValueError("cannot scan an empty scope")
    perm = np.argsort(scopes, kind="stable")
    heads = np.flatnonzero(np.diff(scopes[perm], prepend=FULL - 1))  # each group's first query
    counts = np.diff(heads, append=B)
    labels, sizes = scopes[perm[heads]], size[perm[heads]]
    pairs = counts * sizes
    limit = max(1, _CHUNK_BYTES // (2 * embeddings.itemsize + 1))
    whole = (labels == FULL) | (pairs > limit)
    row = np.empty(B, dtype=np.intp)
    sim = np.empty(B)
    for g in np.flatnonzero(whole).tolist():
        group = perm[heads[g] : heads[g] + counts[g]]
        row[group], sim[group], _ = route_and_scan(embeddings, ids, order, offsets,
                                                   scopes[group], queries[group])
    sorted_q = perm[np.repeat(~whole, counts)]  # the other groups' queries, group by group
    labels, sizes, counts, pairs = labels[~whole], sizes[~whole], counts[~whole], pairs[~whole]
    ends, q_ends = np.cumsum(pairs), np.cumsum(counts)
    lo = 0
    while lo < pairs.size:
        hi = int(np.searchsorted(ends, ends[lo] - pairs[lo] + limit, "right"))
        run = sorted_q[q_ends[lo] - counts[lo] : q_ends[hi - 1]]
        row[run], sim[run] = _segment_run(embeddings, ids, order, offsets[labels[lo:hi]],
                                          sizes[lo:hi], counts[lo:hi], queries[run])
        lo = hi
    return row, sim, size


def _segment_run(mat, ids, order, first, sizes, counts, Q):
    """The segmented pass of :func:`route_and_scan` over one run of
    groups: each query's best row and its similarity.  Group g's rows of
    ``order`` start at ``first[g]`` and number ``sizes[g]``, and its
    ``counts[g]`` queries are the next rows of ``Q``."""
    B = Q.shape[0]
    seg = np.repeat(sizes, counts)  # each query's segment length
    starts = np.cumsum(seg) - seg  # and start in the pair buffer
    pairs = np.empty(int(starts[-1] + seg[-1]), dtype=mat.dtype)
    Qc = Q.astype(mat.dtype)
    q = s = 0
    for f, n, c in zip(first.tolist(), sizes.tolist(), counts.tolist()):
        b, _ = _blas_sims(mat[order[f : f + n]], Qc[q : q + c])
        pairs[s : s + c * n].reshape(c, n)[...] = b.T
        q, s = q + c, s + c * n
    t = np.maximum.reduceat(pairs, starts)
    thr = _shortlist_floor(t, _widths(Q, mat.dtype), mat.dtype)
    at = np.flatnonzero(pairs >= np.repeat(thr, seg))
    del pairs
    qrow = np.searchsorted(starts, at, "right") - 1  # ascending, as ``at`` is
    row = order[at + (np.repeat(first, counts) - starts)[qrow]]
    sims = _rescore(mat, row, Q, qrow)
    if at.size > B:  # some query kept more than its BLAS argmax
        pick = _first(ids, row, sims, qrow, B, 1)[:, 0]
        row, sims = row[pick], sims[pick]
    return row, sims


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


def load_store(path) -> Store:
    """Load and fully validate a store file written by :func:`save_store`.

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
