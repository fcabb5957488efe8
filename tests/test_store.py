from __future__ import annotations

import csv
import hashlib
import json
import os
import struct

import numpy as np
import pytest

from drew import ecc
from drew import store as store_mod
from drew.rng import substream
from drew.store import (
    FULL,
    Store,
    StoreFormatError,
    _row_sims,
    assign_clusters,
    export_csv,
    ingest,
    ingest_csv,
    load_store,
    save_store,
    scan_ranks,
    scan_top1,
    top_matches,
)
from drew.synthetic import synthetic_store

from conftest import brute_force_top


def _raw(seed: int = 1, count: int = 50, d: int = 16):
    rng = substream(seed, "raw")
    return ingest([(i, rng.standard_normal(d)) for i in range(count)], d=d)


def test_ingest_normalizes_and_validates():
    store = _raw()
    norms = np.linalg.norm(store.embeddings, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-6
    with pytest.raises(ValueError):
        ingest([(0, np.ones(4)), (0, np.ones(4))], d=4)
    with pytest.raises(ValueError):
        ingest([(0, np.zeros(4))], d=4)
    with pytest.raises(ValueError):
        ingest([(0, np.ones(4)), (1, np.ones(5))], d=4)
    with pytest.raises(ValueError):
        ingest([], d=4)


def test_csv_roundtrip_and_oracle(tmp_path):
    rng = substream(2, "csv")
    path = tmp_path / "emb.csv"
    d = 8
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["id"] + [f"v{i}" for i in range(d)])
        for i in range(1000):
            w.writerow([i] + [f"{x:.9g}" for x in rng.standard_normal(d)])
    store = ingest_csv(path)
    assert len(store) == 1000

    # independent parse oracle: csv module field counts and row count
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) - 1 == len(store)
    assert all(len(r) == d + 1 for r in rows)

    out = tmp_path / "back.csv"
    export_csv(store, out)
    again = ingest_csv(out)
    assert np.array_equal(again.ids, store.ids)
    assert np.array_equal(again.embeddings, store.embeddings)


def test_csv_errors_carry_line_numbers(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("idx,v0,v1\n0,1.0,2.0\n")
    with pytest.raises(ValueError, match="header"):
        ingest_csv(bad_header)
    bad_field = tmp_path / "f.csv"
    bad_field.write_text("id,v0,v1\n0,1.0,2.0\n1,oops,2.0\n")
    with pytest.raises(ValueError, match=":3:"):
        ingest_csv(bad_field)


def test_assign_clusters_domain_and_determinism():
    raw = _raw(count=64, d=8)
    spec = ecc.construct_code(3, 8, 0.1)
    with pytest.raises(ValueError):
        assign_clusters(raw, 0, seed=1, spec=spec)
    with pytest.raises(ValueError):
        assign_clusters(raw, 4, seed=1, spec=spec)  # spec.k mismatch
    a = assign_clusters(raw, 3, seed=9, spec=spec)
    b = assign_clusters(raw, 3, seed=9, spec=spec)
    assert np.array_equal(a.clusters, b.clusters)
    c = assign_clusters(raw, 3, seed=10, spec=spec)
    assert not np.array_equal(a.clusters, c.clusters)


def test_cluster_sizes_balls_in_bins():
    raw = synthetic_store(2048, 8, seed=3)
    spec = ecc.construct_code(10, 100, 0.1)
    max_size = 0
    for seed in range(100):
        store = assign_clusters(raw, 10, seed=seed, spec=spec)
        assert store.clusters.min() >= 0 and store.clusters.max() < 1024
        sizes = np.bincount(store.clusters, minlength=1024)
        assert sizes.sum() == 2048
        max_size = max(max_size, int(sizes.max()))
    assert max_size <= 15


def test_key_consistency_roundtrip():
    raw = _raw(count=200, d=8)
    spec = ecc.construct_code(4, 16, 0.1)
    store = assign_clusters(raw, 4, seed=5, spec=spec)
    keys = store.cluster_keys[store.clusters]
    llrs = ecc.llr_from_keys(spec, keys, spec.design_p)
    codes, _, _, _, _ = ecc.decode_batch(spec, llrs)
    assert np.array_equal(ecc.codes_to_ints(codes), store.clusters)


def test_top_matches_self_and_subset_bound(small_store):
    rng = substream(6, "queries")
    idx = rng.integers(0, len(small_store), size=20)
    for i in idx.tolist():
        q = small_store.embeddings[i]
        best = top_matches(small_store, FULL, q, p=1)[0]
        assert best[0] == int(small_store.ids[i])
        assert best[1] == pytest.approx(1.0, abs=1e-6)
        cluster_best = top_matches(small_store, int(small_store.clusters[i]), q, p=1)[0]
        assert cluster_best[1] <= best[1] + 1e-12


def test_top_matches_agrees_with_brute_force():
    store = synthetic_store(1000, 16, seed=8)
    rng = substream(7, "bf")
    for _ in range(100):
        q = rng.standard_normal(16)
        q /= np.linalg.norm(q)
        ours = top_matches(store, FULL, q, p=5)
        ref = brute_force_top(store.embeddings, store.ids, q, p=5)
        assert [i for i, _ in ours] == [i for i, _ in ref]
        for (_, s1), (_, s2) in zip(ours, ref):
            assert s1 == pytest.approx(s2, abs=1e-12)


def test_top_matches_tie_breaks_by_ascending_id():
    emb = np.zeros((3, 4))
    emb[:, 0] = 1.0
    rows = [(10, emb[0]), (3, emb[1]), (7, emb[2])]
    store = ingest(rows, d=4)
    out = top_matches(store, FULL, emb[0], p=3)
    assert [i for i, _ in out] == [3, 7, 10]


def test_scan_top1_matches_top_matches(small_store):
    rng = substream(9, "scan")
    qs = rng.standard_normal((32, small_store.d))
    qs /= np.linalg.norm(qs, axis=1)[:, None]
    idx, sims = scan_top1(small_store.embeddings, small_store.ids, qs)
    for j in range(32):
        best = top_matches(small_store, FULL, qs[j], p=1)[0]
        assert int(small_store.ids[idx[j]]) == best[0]
        assert _bits(sims[j]) == _bits(best[1])


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _reference_top(mat, ids, q, p):
    """Test-only oracle: einsum over the whole scope, then a full lexsort."""
    sims = _row_sims(mat, q)
    order = np.lexsort((ids, -sims))[:p]
    return ids[order], sims[order]


def _near_tie_store(seed: int, count: int = 3000, d: int = 64):
    """One unit vector repeated ``count`` times, two coordinates per row
    nudged by a relative 2**-52, ids shuffled; clustered into 8 clusters.

    Similarities to the base vector differ by a few ulps, below the
    BLAS-vs-einsum disagreement, so only a correct shortlist margin keeps
    the exact einsum winners.
    """
    rng = substream(seed, "near-ties")
    base = rng.standard_normal(d)
    base /= np.linalg.norm(base)
    emb = np.repeat(base[None, :], count, axis=0)
    rows = np.arange(count)
    for _ in range(2):
        cols = rng.integers(0, d, size=count)
        emb[rows, cols] *= 1.0 + rng.choice([-1.0, 1.0], size=count) * 2.0 ** -52
    ids = rng.permutation(count).astype(np.uint64) * 7 + 3
    spec = ecc.construct_code(3, 8, 0.1)
    store = assign_clusters(Store(ids, emb), 3, seed=seed, spec=spec)
    return store, base


def _ulp_tie_store(seed: int, dtype, count: int = 3000, d: int = 64):
    """A float32-grid unit vector repeated ``count`` times, two coordinates
    per row moved by one float32 ulp, ids shuffled; clustered into 8
    clusters and held as ``dtype``.  Returns the store and two queries: the
    base vector and a unit vector orthogonal to it (off the float32 grid).

    Similarities differ by about 1e-9 (1e-10 for the orthogonal query,
    whose products cancel), within the float32 BLAS error, so on float32
    rows only a correct float32 margin keeps the exact einsum winners.
    """
    rng = substream(seed, "ulp-ties")
    base = rng.standard_normal(d)
    base = (base / np.linalg.norm(base)).astype(np.float32)
    emb = np.repeat(base[None, :], count, axis=0)
    rows = np.arange(count)
    for _ in range(2):
        cols = rng.integers(0, d, size=count)
        toward = np.where(rng.random(count) < 0.5, np.inf, -np.inf)
        emb[rows, cols] = np.nextafter(emb[rows, cols], toward.astype(np.float32))
    ids = rng.permutation(count).astype(np.uint64) * 7 + 3
    spec = ecc.construct_code(3, 8, 0.1)
    store = assign_clusters(Store(ids, emb.astype(dtype)), 3, seed=seed, spec=spec)
    assert store.embeddings.dtype == dtype
    base = base.astype(np.float64)
    ortho = rng.standard_normal(d)
    ortho -= (ortho @ base) * base
    return store, np.vstack([base, ortho / np.linalg.norm(ortho)])


def _assert_top_matches_exact(store, base):
    cluster = int(store.clusters[0])
    members = store.cluster_members(cluster)
    scopes = [
        (FULL, store.embeddings, store.ids),
        (cluster, store.embeddings[members], store.ids[members]),
    ]
    for scope, mat, ids in scopes:
        for p in (1, 3, len(ids)):
            got = top_matches(store, scope, base, p=p)
            ref_ids, ref_sims = _reference_top(mat, ids, base, p)
            assert [i for i, _ in got] == ref_ids.astype(int).tolist()
            assert np.array_equal(_bits([s for _, s in got]), _bits(ref_sims))


def _assert_scan_top1_exact(store, queries):
    idx, sims = scan_top1(store.embeddings, store.ids, queries)
    for j, q in enumerate(queries):
        ref_ids, ref_sims = _reference_top(store.embeddings, store.ids, q, 1)
        assert store.ids[idx[j]] == ref_ids[0]
        assert _bits(sims[j]) == _bits(ref_sims[0])


@pytest.mark.parametrize("seed", range(6))
def test_top_matches_exact_under_near_ties(seed):
    store, base = _near_tie_store(seed)
    _assert_top_matches_exact(store, base)


@pytest.mark.parametrize("seed", range(6))
def test_scan_top1_exact_under_near_ties(seed):
    store, base = _near_tie_store(seed)
    rng = substream(seed, "near-tie-queries")
    queries = np.vstack([base, store.embeddings[rng.integers(0, len(store), 15)]])
    _assert_scan_top1_exact(store, queries)


DTYPES = pytest.mark.parametrize("dtype", [np.float32, np.float64],
                                 ids=["float32", "float64"])


@DTYPES
@pytest.mark.parametrize("seed", range(4))
def test_top_matches_exact_under_ulp_ties(dtype, seed):
    store, queries = _ulp_tie_store(seed, dtype)
    for q in queries:
        _assert_top_matches_exact(store, q)


@DTYPES
@pytest.mark.parametrize("seed", range(4))
def test_scan_top1_exact_under_ulp_ties(dtype, seed):
    store, queries = _ulp_tie_store(seed, dtype)
    rng = substream(seed, "ulp-tie-queries")
    rows = store.embeddings[rng.integers(0, len(store), 14)].astype(np.float64)
    _assert_scan_top1_exact(store, np.vstack([queries, rows]))


@DTYPES
@pytest.mark.parametrize("seed", range(3))
def test_one_query_scan_exact_around_the_cutoff(dtype, seed, monkeypatch):
    """A single query over at most ``_SMALL_SCAN`` rows rescores every row
    (``_scan_one``); above that the BLAS shortlist takes over.  Both agree
    bit for bit with the reference on the tie stores, with ids out of row
    order and the best row present three times: first in row order under
    the highest id, last under the lowest, which must win."""
    sizes = []
    scan_one = store_mod._scan_one
    monkeypatch.setattr(store_mod, "_scan_one",
                        lambda mat, *rest: sizes.append(mat.shape[0]) or scan_one(mat, *rest))
    cut = store_mod._SMALL_SCAN
    rng = substream(seed, "one-query-cutoff")
    near, base = _near_tie_store(seed, count=600)
    cases = [_ulp_tie_store(seed, dtype, count=600), (near, base[None])]
    for store, queries in cases:
        for size in (cut - 1, cut, cut + 1):
            pick = rng.choice(len(store), size - 2, replace=False)
            mat = store.embeddings[pick].astype(dtype)
            ids = store.ids[pick]
            assert not np.all(np.diff(ids.astype(np.int64)) > 0)
            for q in queries:
                best = int(np.lexsort((ids, -_row_sims(mat, q)))[0])
                tied = np.concatenate([mat[best : best + 1], mat, mat[best : best + 1]])
                tied_ids = np.concatenate([[ids.max() + 1], ids, [ids.min() - 1]])
                row, sim = scan_top1(tied, tied_ids, q[None])
                ref_ids, ref_sims = _reference_top(tied, tied_ids, q, 1)
                assert row[0] == size - 1 and tied_ids[row[0]] == ref_ids[0]
                assert _bits(sim[0]) == _bits(ref_sims[0])
    assert sorted(set(sizes)) == [cut - 1, cut]


def _assert_ranks_exact(store, queries, gt):
    """scan_ranks against a full einsum + lexsort of the whole store."""
    idx, sims, ranks = scan_ranks(store.embeddings, store.ids, queries, gt)
    for j, q in enumerate(queries):
        ref = _row_sims(store.embeddings, q)
        order = np.lexsort((store.ids, -ref))
        assert idx[j] == order[0]
        assert _bits(sims[j]) == _bits(ref[order[0]])
        assert ranks[j] == np.flatnonzero(order == gt[j])[0] + 1


@DTYPES
@pytest.mark.parametrize("seed", range(4))
def test_scan_ranks_exact_under_ulp_ties(dtype, seed):
    store, queries = _ulp_tie_store(seed, dtype)
    rng = substream(seed, "ulp-tie-ranks")
    gt = rng.integers(0, len(store), 24)
    queries = np.vstack([np.repeat(queries, 4, axis=0),
                         store.embeddings[gt[8:]].astype(np.float64)])
    _assert_ranks_exact(store, queries, gt)


@DTYPES
@pytest.mark.parametrize("sigma", [0.0, 0.05, 0.3, 1.0])
def test_scan_ranks_exact_on_spread_store(dtype, sigma):
    """Ground-truth rows from first place to deep in the store: the rank
    comes from the argmax shortlist or from the extra band pass."""
    store = synthetic_store(4000, 64, seed=11)
    store = Store(store.ids, store.embeddings.astype(dtype))
    rng = substream(int(sigma * 100), "spread-ranks")
    gt = rng.integers(0, len(store), 40)
    queries = store.embeddings[gt] + sigma * rng.standard_normal((40, 64))
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    _assert_ranks_exact(store, queries, gt)


def _near_tie_case():
    store, base = _near_tie_store(0)
    queries = np.vstack([base, store.embeddings[:15]])
    gt = substream(0, "chunked-ranks").integers(0, len(store), queries.shape[0])
    return store, queries, gt


def _spread_case():
    store = synthetic_store(3000, 64, seed=11)
    rng = substream(1, "chunked-ranks")
    gt = rng.integers(0, len(store), 16)
    sigma = np.repeat([0.2, 0.25, 0.3, 0.35], 4)[:, None]
    queries = store.embeddings[gt] + sigma * rng.standard_normal((16, store.d))
    return store, queries / np.linalg.norm(queries, axis=1)[:, None], gt


def test_chunked_scans_equal_one_pass(monkeypatch):
    """Query chunks, BLAS row blocks and rescore gathers split at any size
    give the same answers as a single pass, for argmax and rank scans.

    On the near-tie store every row is in each shortlist.  On the spread
    store most ground-truth rows come first and some lie deep, so ranks
    also come from the band pass.  Between them, the three block shapes
    (128, 16 and 2 rows per BLAS product) list candidates and bands both
    from a few hot columns and from a compare over the whole block."""
    for store, queries, gt in (_near_tie_case(), _spread_case()):
        one_ranked = scan_ranks(store.embeddings, store.ids, queries, gt)
        one_all = top_matches(store, FULL, queries[0], p=len(store))
        assert one_ranked[2].max() > 50
        for rows in (16, 2):
            with monkeypatch.context() as patch:
                patch.setattr(store_mod, "_CHUNK_BYTES",
                              store.embeddings.itemsize * len(store) * 3)
                patch.setattr(store_mod, "_BLAS_MADDS", store.d * 3 * rows)
                idx, sims = scan_top1(store.embeddings, store.ids, queries)
                assert np.array_equal(idx, one_ranked[0])
                assert np.array_equal(_bits(sims), _bits(one_ranked[1]))
                ranked = scan_ranks(store.embeddings, store.ids, queries, gt)
                assert np.array_equal(ranked[0], one_ranked[0])
                assert np.array_equal(_bits(ranked[1]), _bits(one_ranked[1]))
                assert np.array_equal(ranked[2], one_ranked[2])
                assert top_matches(store, FULL, queries[0], p=len(store)) == one_all
        _assert_ranks_exact(store, queries, gt)


def test_empty_query_batch():
    store = synthetic_store(50, 8, seed=2)
    idx, sims = scan_top1(store.embeddings, store.ids, np.empty((0, 8)))
    assert idx.shape == (0,) and sims.shape == (0,)
    _, _, ranks = scan_ranks(store.embeddings, store.ids, np.empty((0, 8)), [])
    assert ranks.shape == (0,)


class _MatmulLog:
    """Stand-in for ``drew.store.np`` that logs the multiply-adds of every
    BLAS product a ``matmul`` issues: one per stacked matrix of ``a``."""

    def __init__(self):
        self.madds = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        count = int(np.prod(a.shape[:-2]))
        self.madds += [a.shape[-2] * a.shape[-1] * b.shape[-1]] * count
        return np.matmul(a, b, **kwargs)


@pytest.mark.parametrize("batch", [1, 16, 41])
def test_blas_calls_stay_single_threaded_size(monkeypatch, batch):
    """Every BLAS product of a scan is at most ``_BLAS_MADDS`` multiply-adds
    (small enough to run on the calling thread), and together the products
    cover each (query, row) pair once."""
    store = synthetic_store(5000, 64, seed=4)
    rng = substream(batch, "blas-blocks")
    queries = rng.standard_normal((batch, 64))
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    log = _MatmulLog()
    monkeypatch.setattr(store_mod, "np", log)
    if batch == 1:
        top_matches(store, FULL, queries[0], p=3)
    else:
        scan_top1(store.embeddings, store.ids, queries)
    assert len(log.madds) > 1
    assert max(log.madds) <= store_mod._BLAS_MADDS
    assert sum(log.madds) == batch * len(store) * 64


def _thread_ticks() -> dict[int, int]:
    """CPU ticks (user + system) of every thread of this process but the
    main one, by thread id."""
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        if int(tid) == os.getpid():
            continue
        try:
            with open(f"/proc/self/task/{tid}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        ticks[int(tid)] = int(fields[11]) + int(fields[12])
    return ticks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to read per-thread CPU time")
def test_blas_worker_threads_stay_idle(acceptance_store):
    """Full-store scans leave BLAS's worker threads idle: no thread but the
    caller accrues CPU time, at any batch size."""
    mat, ids = acceptance_store.embeddings, acceptance_store.ids
    rng = substream(5, "blas-threads")
    queries = rng.standard_normal((41, mat.shape[1]))
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    before = _thread_ticks()
    for batch in (1, 4, 41):
        for _ in range(3):
            scan_top1(mat, ids, queries[:batch])
    after = _thread_ticks()
    busy = {tid: n - before.get(tid, 0) for tid, n in after.items()
            if n != before.get(tid, 0)}
    assert busy == {}


@pytest.mark.parametrize("d", [8, 33, 64, 128])
def test_row_sims_bitwise_stable_under_gather(d):
    """The rescore assumption: einsum over gathered rows, alone or paired
    row by row with gathered queries, equals the full scan's entries."""
    rng = substream(d, "row-sims")
    mat = rng.standard_normal((1001, d))
    mat /= np.linalg.norm(mat, axis=1)[:, None]
    queries = rng.standard_normal((4, d))
    full = [_row_sims(mat, q) for q in queries]
    for size in (1, 2, 3, 7, 99, 1001):
        idx = rng.choice(1001, size=size, replace=False)
        qidx = rng.integers(0, len(queries), size=size)
        for q, sims in zip(queries, full):
            assert np.array_equal(_bits(_row_sims(mat[idx], q)), _bits(sims[idx]))
        paired = _row_sims(mat[idx], queries[qidx])
        expect = np.array([full[j][i] for i, j in zip(idx, qidx)])
        assert np.array_equal(_bits(paired), _bits(expect))


def test_save_load_roundtrip(tmp_path, small_store):
    path = tmp_path / "s.drew"
    save_store(small_store, path)
    again = load_store(path)
    assert np.array_equal(again.ids, small_store.ids)
    assert np.array_equal(again.embeddings, small_store.embeddings)
    assert np.array_equal(again.clusters, small_store.clusters)
    assert again.spec == small_store.spec
    assert again.seed == small_store.seed


def test_producers_hold_float32_rows(tmp_path, small_store):
    assert _raw().embeddings.dtype == np.float32
    assert synthetic_store(10, 4, seed=1).embeddings.dtype == np.float32
    path = tmp_path / "s.drew"
    save_store(small_store, path)
    loaded = load_store(path).embeddings
    assert loaded.dtype == np.float32 and loaded.flags.c_contiguous
    rows = small_store.embeddings.astype(np.float64)
    assert Store(small_store.ids, rows).embeddings.dtype == np.float64


def _key_bytes_at(raw: bytes, store) -> tuple[int, int]:
    """(offset of record 0's key bytes, record size) in a store file."""
    blob_len = struct.unpack_from("<HIIQI", raw, 8)[-1]
    rec = store_mod._record_dtype(store.d, (store.spec.n + 7) // 8)
    return 8 + 22 + blob_len + rec.fields["key"][1], rec.itemsize


def _with_checksum(raw: bytearray) -> bytes:
    raw[-8:] = hashlib.sha256(bytes(raw[:-8])).digest()[:8]
    return bytes(raw)


def test_load_key_check_ignores_padding_only(tmp_path, small_store):
    """Set padding bits in each record's last key byte still load; one
    flipped key bit is rejected."""
    assert small_store.spec.n % 8
    path = tmp_path / "s.drew"
    save_store(small_store, path)
    raw = bytearray(path.read_bytes())
    at, size = _key_bytes_at(raw, small_store)
    last = at + (small_store.spec.n + 7) // 8 - 1
    padded = bytearray(raw)
    for i in range(len(small_store)):
        padded[last + i * size] |= 0xFF << (small_store.spec.n % 8) & 0xFF
    p = tmp_path / "padded.drew"
    p.write_bytes(_with_checksum(padded))
    again = load_store(p)
    assert np.array_equal(again.embeddings, small_store.embeddings)
    assert np.array_equal(again.clusters, small_store.clusters)
    for byte, bit in ((at + 5 * size + 3, 0x01), (last + 7 * size, 0x01)):
        flipped = bytearray(raw)
        flipped[byte] ^= bit
        p.write_bytes(_with_checksum(flipped))
        with pytest.raises(StoreFormatError, match="keys"):
            load_store(p)


def test_save_rejects_unclustered(tmp_path):
    raw = _raw()
    with pytest.raises(ValueError):
        save_store(raw, tmp_path / "x.drew")


def test_load_rejects_corruption(tmp_path, small_store):
    path = tmp_path / "s.drew"
    save_store(small_store, path)
    raw = bytearray(path.read_bytes())

    for pos in (len(raw) // 2, 30, len(raw) - 4):
        bad = bytearray(raw)
        bad[pos] ^= 0xFF
        p = tmp_path / "bad.drew"
        p.write_bytes(bytes(bad))
        with pytest.raises(StoreFormatError):
            load_store(p)

    p = tmp_path / "trunc.drew"
    p.write_bytes(bytes(raw[: len(raw) // 2]))
    with pytest.raises(StoreFormatError):
        load_store(p)

    p = tmp_path / "magic.drew"
    bad = bytearray(raw)
    bad[0:4] = b"NOPE"
    p.write_bytes(bytes(bad))
    with pytest.raises(StoreFormatError):
        load_store(p)


@pytest.mark.parametrize("read_bytes", [1, 1000])
def test_load_reads_records_in_chunks(tmp_path, small_store, monkeypatch, read_bytes):
    """Chunked reads of any size give the same store; a header whose record
    count disagrees with the file's size is rejected after hashing it."""
    path = tmp_path / "s.drew"
    save_store(small_store, path)
    monkeypatch.setattr(store_mod, "_READ_BYTES", read_bytes)
    again = load_store(path)
    assert np.array_equal(again.ids, small_store.ids)
    assert np.array_equal(again.embeddings, small_store.embeddings)
    assert np.array_equal(again.clusters, small_store.clusters)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<Q", raw, 8 + 10, len(small_store) - 1)
    path.write_bytes(_with_checksum(bytearray(raw)))
    with pytest.raises(StoreFormatError, match="size"):
        load_store(path)
    path.write_bytes(bytes(raw))
    with pytest.raises(StoreFormatError, match="checksum"):
        load_store(path)


def _set(key, value):
    def edit(meta):
        meta[key] = value
        return meta
    return edit


def _frozen_out_of_range(meta):
    meta["frozen_set"][0] = 10**9
    return meta


def _drop_frozen_set(meta):
    del meta["frozen_set"]
    return meta


# metadata edits that keep a valid checksum but describe no constructed code
BAD_META = {
    "json-list": lambda meta: [meta],
    "frozen-index-1e9": _frozen_out_of_range,
    "no-frozen-set": _drop_frozen_set,
    "block-len-100": _set("block_len", 100),
    "design-p-0.7": _set("design_p", 0.7),
}


@pytest.mark.parametrize("case", sorted(BAD_META))
def test_load_rejects_bad_metadata_with_valid_checksum(tmp_path, capsys, case):
    """Metadata that is not the construction of its own (k, n, design_p) is
    a StoreFormatError, and ``drew query`` reports it as a data error."""
    from drew.cli import main

    store = store_mod.assign_clusters(
        synthetic_store(300, 16, seed=5), 6, 5, ecc.construct_code(6, 32, 0.1))
    path = tmp_path / "s.drew"
    save_store(store, path)
    raw = path.read_bytes()
    at = len(store_mod.MAGIC) + 22
    blob_len = struct.unpack_from("<I", raw, at - 4)[0]
    meta = json.loads(raw[at : at + blob_len])
    blob = json.dumps(BAD_META[case](meta)).encode()
    edited = raw[: at - 4] + struct.pack("<I", len(blob)) + blob + raw[at + blob_len :]
    path.write_bytes(_with_checksum(bytearray(edited)))
    with pytest.raises(StoreFormatError, match="metadata"):
        load_store(path)
    queries = tmp_path / "q.jsonl"
    queries.write_text("")
    assert main(["query", "--store", str(path), "--queries", str(queries)]) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "DataError"


def test_load_rejects_bad_records_with_valid_checksum(tmp_path):
    store = store_mod.assign_clusters(
        synthetic_store(300, 16, seed=5), 6, 5, ecc.construct_code(6, 32, 0.1))
    path = tmp_path / "s.drew"
    save_store(store, path)
    raw = path.read_bytes()
    at = len(store_mod.MAGIC) + 22 + struct.unpack_from("<I", raw, len(store_mod.MAGIC) + 18)[0]
    rec = store_mod._record_dtype(store.d, (store.spec.n + 7) // 8)
    for field, value, match in (("cluster", 60000, "out of range"),
                                ("emb", 2.0, "unit norm"),
                                ("id", int(store.ids[1]), "duplicate")):
        records = np.frombuffer(raw[at:-8], dtype=rec).copy()
        records[field][0] = value
        path.write_bytes(_with_checksum(bytearray(raw[:at] + records.tobytes() + raw[-8:])))
        with pytest.raises(StoreFormatError, match=match):
            load_store(path)


def test_load_enforces_expected_dimension(tmp_path, small_store):
    path = tmp_path / "s.drew"
    save_store(small_store, path)
    assert load_store(path, expect_d=small_store.d).d == small_store.d
    with pytest.raises(StoreFormatError, match="dim"):
        load_store(path, expect_d=small_store.d + 1)


def test_partition_invariant(small_store):
    sizes = np.bincount(small_store.clusters, minlength=1 << small_store.spec.k)
    assert sizes.sum() == len(small_store)
    assert sizes.shape == (1024,)
