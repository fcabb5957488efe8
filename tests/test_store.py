from __future__ import annotations

import csv
import hashlib
import json
import os
import struct
import sys
import threading
import time

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
    csr_index,
    export_csv,
    ingest,
    ingest_csv,
    load_store,
    route_and_scan,
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


def test_ingest_rejects_ids_beyond_u64():
    ingest([((1 << 64) - 1, np.ones(4))], d=4)
    with pytest.raises(ValueError, match=str(1 << 64)):
        ingest([(0, np.ones(4)), (1 << 64, np.ones(4))], d=4)


#: Rows enough for three blocks of ``_CHECK_ROWS``, the last one partial.
_THREE_BLOCKS = 2 * store_mod._CHECK_ROWS + 5


def _on_grid_rows(count: int, d: int = 16) -> np.ndarray:
    """float64 rows on the float32 grid with norms 1 + ~5e-7: unit within
    ``_NORM_TOL``, yet far enough from 1 that normalising moves them."""
    unit = synthetic_store(count, d, seed=4).embeddings
    rows = (unit * np.float32(1 + 5e-7)).astype(np.float64)
    assert np.abs(np.linalg.norm(rows, axis=1) - 1.0).max() < store_mod._NORM_TOL
    return rows


def test_quantize_passes_on_grid_unit_rows_through():
    """Every row already float32 and of unit norm: the matrix comes back
    unchanged, whatever block it lies in."""
    rows = _on_grid_rows(_THREE_BLOCKS)
    out = store_mod._quantize_unit(rows)
    assert out.dtype == np.float32
    assert np.array_equal(out, rows)
    assert not np.array_equal(out, (rows / np.linalg.norm(rows, axis=1)[:, None]).astype(np.float32))


def test_quantize_decides_for_the_whole_matrix():
    """One off-grid row in the last block normalises every row, bit-equal
    to the whole-matrix expression."""
    rows = _on_grid_rows(_THREE_BLOCKS)
    rows[-1, 0] += 2.0 ** -40
    out = store_mod._quantize_unit(rows)
    expect = (rows / np.linalg.norm(rows, axis=1)[:, None]).astype(np.float32)
    assert np.array_equal(out.view(np.uint32), expect.view(np.uint32))
    first = slice(0, store_mod._CHECK_ROWS)
    assert not np.array_equal(out[first], rows[first])  # the first block moved too
    rows[3] = 0.0
    with pytest.raises(ValueError, match="zero-norm"):
        store_mod._quantize_unit(rows)


@pytest.mark.parametrize("ids,unique", [
    ([0, 1, 2, 3], True),
    ([5, 9, 10, 2**64 - 1], True),
    ([3, 0, 2, 1], True),
    ([3, 0, 3, 1], False),
    ([0, 1, 1, 2], False),
    ([2, 2], False),
])
def test_store_duplicate_id_check(ids, unique):
    emb = synthetic_store(len(ids), 4, seed=2).embeddings
    if unique:
        assert Store(np.array(ids, dtype=np.uint64), emb).ids.tolist() == ids
    else:
        with pytest.raises(ValueError, match="duplicate"):
            Store(np.array(ids, dtype=np.uint64), emb)


def test_store_reports_non_finite_rows_before_norms():
    """A bad norm in an early block and a NaN in a later one: the NaN is
    what is reported, as when finiteness was checked first."""
    ids = np.arange(_THREE_BLOCKS, dtype=np.uint64)
    emb = synthetic_store(_THREE_BLOCKS, 8, seed=2).embeddings.copy()
    emb[0] *= 2.0
    emb[-1, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Store(ids, emb)
    emb[-1, 0] = 0.5
    with pytest.raises(ValueError, match="unit norm"):
        Store(ids, emb)


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


def test_assign_clusters_checks_labels_not_rows(monkeypatch):
    """assign_clusters reuses the rows its input store validated (no second
    norm pass) and still rejects labels outside [0, 2**k)."""
    raw = _raw(count=64, d=8)
    spec = ecc.construct_code(3, 8, 0.1)
    norm = np.linalg.norm
    calls = []
    monkeypatch.setattr(np.linalg, "norm", lambda *a, **kw: calls.append(1) or norm(*a, **kw))
    store = assign_clusters(raw, 3, seed=9, spec=spec)
    assert calls == []
    assert store.ids is raw.ids and store.embeddings is raw.embeddings
    assert store.spec == spec and store.seed == 9 and raw.clusters is None
    monkeypatch.undo()

    class OneBadLabel:
        def __init__(self, label):
            self.label = label

        def integers(self, low, high, size):
            out = np.zeros(size, dtype=np.int64)
            out[-1] = self.label
            return out

    for label in (8, -1):
        monkeypatch.setattr(store_mod, "substream", lambda seed, name: OneBadLabel(label))
        with pytest.raises(ValueError, match="out of range"):
            assign_clusters(raw, 3, seed=9, spec=spec)


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


def _tile_budget(patch, d, rows, per_tile, queries=None, itemsize=4):
    """Set the tile layout of :func:`drew.store._exact_top`: ``rows`` rows
    per BLAS product and ``per_tile`` products per tile, for tiles of
    ``queries`` queries (the default ``_TILE_QUERIES`` if None)."""
    if queries is not None:
        patch.setattr(store_mod, "_TILE_QUERIES", queries)
    step = store_mod._TILE_QUERIES if queries is None else queries
    patch.setattr(store_mod, "_BLAS_MADDS", step * d * rows)
    patch.setattr(store_mod, "_TILE_BYTES", itemsize * step * rows * per_tile)


def test_chunked_scans_equal_one_pass(monkeypatch):
    """Tiles, BLAS row blocks and rescore gathers split at any size give
    the same answers as a single tile, for argmax and rank scans.

    On the near-tie store every row is in each shortlist.  On the spread
    store most ground-truth rows come first and some lie deep, so ranks
    also count rows ahead outright.  Tiles of 5 queries split the 16
    queries into blocks of 5, 5, 5 and 1; with 16 or 2 rows per BLAS
    product, three products per tile and the store's last tile ending in a
    shorter product, candidates and bands are listed both from a few hot
    columns and from a compare over a whole tile."""
    for store, queries, gt in (_near_tie_case(), _spread_case()):
        one_ranked = scan_ranks(store.embeddings, store.ids, queries, gt)
        one_all = top_matches(store, FULL, queries[0], p=len(store))
        assert one_ranked[2].max() > 50
        for rows in (16, 2):
            with monkeypatch.context() as patch:
                _tile_budget(patch, store.d, rows, 3, queries=5,
                             itemsize=store.embeddings.itemsize)
                patch.setattr(store_mod, "_CHUNK_BYTES", 3000 * store.d)  # rescore gathers
                idx, sims = scan_top1(store.embeddings, store.ids, queries)
                assert np.array_equal(idx, one_ranked[0])
                assert np.array_equal(_bits(sims), _bits(one_ranked[1]))
                ranked = scan_ranks(store.embeddings, store.ids, queries, gt)
                assert np.array_equal(ranked[0], one_ranked[0])
                assert np.array_equal(_bits(ranked[1]), _bits(one_ranked[1]))
                assert np.array_equal(ranked[2], one_ranked[2])
                assert top_matches(store, FULL, queries[0], p=len(store)) == one_all
        _assert_ranks_exact(store, queries, gt)


def _tiled_cases(dtype):
    """``(mat, ids, queries, gt)`` pairs whose top rows tie.  The first:
    80 rows, 20 of them present three times with ids descending along the
    copies, and 120 queries, exact copies of rows among them, so ties are
    won by the least id, the last copy.  The second: the float32-ulp tie
    store with 70 queries.  Neither batch is a multiple of 64."""
    emb, ids, _, queries, _ = _tied_segments_case(dtype)
    gt = substream(21, "tiled-ranks").integers(0, len(ids), 120)
    yield emb, ids, np.concatenate([queries, queries[::-1]]), gt
    store, pair = _ulp_tie_store(5, dtype)
    rng = substream(5, "tiled-ulp")
    gt = rng.integers(0, len(store), 70)
    rows = store.embeddings[gt[:60]] + 1e-3 * rng.standard_normal((60, store.d))
    queries = np.concatenate([pair, pair, rows, pair, pair, pair])
    yield store.embeddings, store.ids, queries / np.linalg.norm(queries, axis=1)[:, None], gt


def _oracle(mat, ids, queries, p, gt):
    """Per query: the ids and einsum similarities of the top ``p`` rows by
    a full einsum and lexsort of every row, and the rank of row ``gt``."""
    out = []
    for q, g in zip(queries, gt):
        sims = _row_sims(mat, q)
        order = np.lexsort((ids, -sims))
        out.append((ids[order[:p]], _bits(sims[order[:p]]), np.flatnonzero(order == g)[0] + 1))
    return out


@DTYPES
@pytest.mark.parametrize("layout", ["default", "16-row products", "3-row products",
                                    "small batch"])
def test_tiled_scan_equals_oracle(monkeypatch, dtype, layout):
    """The tiled scan returns, bit for bit, what an einsum of every row and
    a full sort return: at p = 1, 3 and N, with ranks, under exact ties won
    by the least of descending ids and float32-ulp near-ties.  With the
    default budget each store is one row tile; with 16 or 3 rows per
    product and 3 or 4 products per tile, one scope spans many tiles and
    the last tile of the store ends in a shorter product.  A small batch
    (40 queries, fewer than ``_TILE_QUERIES``) sizes its tiles by
    ``_CHUNK_BYTES``, here 3 rows per product and 4 products per tile.
    The scans give the same bytes on 1, 2 and 3 threads."""
    for mat, ids, queries, gt in _tiled_cases(dtype):
        N = len(ids)
        if layout == "small batch":
            queries, gt = queries[:40], gt[:40]
        want = {p: _oracle(mat, ids, queries, p, gt) for p in (1, 3, N)}
        outputs = set()
        for threads in (1, 2, 3):
            spans, tiles = [], []
            with monkeypatch.context() as patch:
                if layout == "small batch":
                    patch.setattr(store_mod, "_BLAS_MADDS", 40 * mat.shape[1] * 3)
                    patch.setattr(store_mod, "_CHUNK_BYTES", mat.itemsize * 40 * 3 * 4)
                elif layout != "default":
                    rows, per_tile = (16, 3) if layout == "16-row products" else (3, 4)
                    _tile_budget(patch, mat.shape[1], rows, per_tile, itemsize=mat.itemsize)
                patch.setattr(store_mod, "_scan_threads", lambda: threads)
                scan_rows, blas_sims = store_mod._scan_rows, store_mod._blas_sims

                def logged_rows(mat_, first, *rest):
                    spans.append((first, mat_.shape[0]))
                    return scan_rows(mat_, first, *rest)

                def logged_tile(mat_, Q):
                    tiles.append(mat_.shape[0])
                    return blas_sims(mat_, Q)

                patch.setattr(store_mod, "_scan_rows", logged_rows)
                patch.setattr(store_mod, "_blas_sims", logged_tile)
                got = []
                for p in (1, 3, N):
                    spans.clear()
                    rows_, sims, _ = store_mod._exact_top(mat, ids, queries, p)
                    for j, (want_ids, want_bits, _) in enumerate(want[p]):
                        assert np.array_equal(ids[rows_[j]], want_ids)
                        assert np.array_equal(_bits(sims[j]), want_bits)
                    got.append(rows_.tobytes() + _bits(sims).tobytes())
                    # the ranges tile the rows; one range unless threads split them
                    spans.sort()
                    assert spans[0][0] == 0 and sum(n for _, n in spans) == N
                    assert all(a + n == b for (a, n), (b, _) in zip(spans, spans[1:]))
                    assert len(spans) == 1 or threads > 1
                    assert (len(spans) > 1) == (threads > 1 and max(tiles) < N)
                idx, sims, ranks = scan_ranks(mat, ids, queries, gt)
                assert ranks.tolist() == [w[2] for w in want[1]]
                assert np.array_equal(ids[idx], [w[0][0] for w in want[1]])
                got.append(idx.tobytes() + _bits(sims).tobytes() + ranks.tobytes())
            outputs.add(b"".join(got))
            if layout != "default":
                assert max(tiles) < N  # more than one row tile
        assert len(outputs) == 1


def _tied_segments_case(dtype):
    """(embeddings, ids, labels, queries, query labels): 40 random unit rows
    plus two more copies of the first 20, ids descending with the row, so
    each tie is won by its last copy; the copies share their row's label.
    Labels 4-13 hold one row each, label 14 none."""
    rng = substream(14, "segments")
    d = 16
    base = rng.standard_normal((40, d))
    base /= np.linalg.norm(base, axis=1)[:, None]
    labels = np.empty(40, dtype=np.int64)
    labels[:20] = rng.integers(0, 4, size=20)
    labels[20:30] = 4 + np.arange(10)
    labels[30:] = rng.integers(0, 4, size=10)
    emb = np.concatenate([base, base[:20], base[:20]]).astype(dtype)
    ids = (np.arange(80)[::-1] * 3 + 5).astype(np.uint64)
    noisy = base[rng.integers(0, 40, size=30)] + 0.3 * rng.standard_normal((30, d))
    queries = np.concatenate([emb[:30].astype(np.float64), noisy])
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    qlabels = np.concatenate([labels[:30], rng.integers(0, 14, size=30)])
    return emb, ids, np.concatenate([labels, labels[:20], labels[:20]]), queries, qlabels


def _ulp_segments_case(dtype):
    """The same, for 8 clusters of float32-ulp near-ties: only a correct
    margin keeps each segment's exact einsum winner."""
    store, pair = _ulp_tie_store(3, dtype)
    rng = substream(3, "ulp-segments")
    rows = rng.integers(0, len(store), size=40)
    noisy = store.embeddings[rows] + 1e-3 * rng.standard_normal((40, store.d))
    queries = np.concatenate([pair, pair, noisy.astype(np.float64)])
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    qlabels = np.concatenate([[0, 1, 5, 7], store.clusters[rows]])
    return store.embeddings, store.ids, store.clusters, queries, qlabels


def _per_scope_top1(emb, ids, order, offsets, scopes, queries):
    """Reference: one :func:`scan_top1` call per distinct scope, over its
    cluster's rows, or over every row for scope -1."""
    want_row = np.empty(len(scopes), dtype=np.intp)
    want_sim = np.empty(len(scopes))
    for label in np.unique(scopes):
        group = np.flatnonzero(scopes == label)
        members = np.arange(len(ids)) if label < 0 else order[offsets[label] : offsets[label + 1]]
        idx, want_sim[group] = scan_top1(emb[members], ids[members], queries[group])
        want_row[group] = members[idx]
    return want_row, want_sim


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", [_tied_segments_case, _ulp_segments_case])
def test_segmented_pass_equals_per_cluster_scans(monkeypatch, dtype, case):
    """:func:`route_and_scan` gives each query what :func:`scan_top1` gives
    over its cluster, bit for bit: in a batch per cluster and alone, for
    exact ties won by the least id, one-row clusters and float32-ulp
    near-ties, in one segmented run of pairs, in runs of at most
    ``_CHUNK_BYTES`` each, with the groups too large for a run scanned by
    an ``_exact_top`` call of their own, and alone as one such call."""
    emb, ids, labels, queries, qlabels = case(dtype)
    order, offsets = csr_index(labels, int(labels.max()) + 2)  # the last label is empty
    sizes = np.diff(offsets)
    assert sizes[-1] == 0
    assert (sizes[qlabels] == 1).any() == (case is _tied_segments_case)
    want_row, want_sim = _per_scope_top1(emb, ids, order, offsets, qlabels, queries)
    for j in range(len(qlabels)):
        ref_ids, ref_sims = _reference_top(emb[labels == qlabels[j]],
                                           ids[labels == qlabels[j]], queries[j], 1)
        assert (ids[want_row[j]], _bits(want_sim[j])) == (ref_ids[0], _bits(ref_sims[0]))

    runs, whole = [], []
    real_run, real_top = store_mod._segment_run, store_mod._exact_top

    def logged_run(mat, ids_, order_, first, sizes_, counts, Q):
        runs.append(int((sizes_ * counts).sum()))
        return real_run(mat, ids_, order_, first, sizes_, counts, Q)

    def logged_top(mat, ids_, Q, p, gt_rows=None):
        whole.append(mat.shape[0] * Q.shape[0])
        return real_top(mat, ids_, Q, p, gt_rows)

    monkeypatch.setattr(store_mod, "_segment_run", logged_run)
    monkeypatch.setattr(store_mod, "_exact_top", logged_top)
    pairs = np.bincount(qlabels, minlength=len(sizes)) * sizes
    per_pair = 2 * emb.itemsize + 1  # pair, threshold and mask bytes
    big = int(pairs.max())
    for chunk, scanned_whole in ((store_mod._CHUNK_BYTES, []), (per_pair * big, []),
                                 (per_pair * (big - 1), [big] * int((pairs == big).sum()))):
        runs.clear()
        whole.clear()
        monkeypatch.setattr(store_mod, "_CHUNK_BYTES", chunk)
        row, sim, size = route_and_scan(emb, ids, order, offsets, qlabels, queries)
        assert np.array_equal(row, want_row)
        assert np.array_equal(_bits(sim), _bits(want_sim))
        assert np.array_equal(size, sizes[qlabels])
        assert all(n * per_pair <= chunk for n in runs)
        assert sum(runs) + sum(whole) == int(pairs.sum())
        assert whole == scanned_whole
        assert len(runs) == 1 if chunk > per_pair * pairs.sum() else len(runs) > 2
    for j in range(len(qlabels)):  # one query alone is one _exact_top call over its cluster
        runs.clear()
        whole.clear()
        row, sim, size = route_and_scan(emb, ids, order, offsets, qlabels[j : j + 1],
                                        queries[j : j + 1])
        assert (row[0], _bits(sim[0])) == (want_row[j], _bits(want_sim[j]))
        assert runs == [] and whole == [size[0]] == [sizes[qlabels[j]]]


def test_segmented_pass_mixed_with_full_scopes():
    """``route_and_scan`` answers scope -1 with one full-store scan and
    every other scope with the segmented pass; each answer is the one its
    scope's own :func:`scan_top1` call gives."""
    emb, ids, labels, queries, qlabels = _tied_segments_case(np.float32)
    order, offsets = csr_index(labels, 15)
    scopes = np.where(substream(15, "mixed-scopes").random(len(qlabels)) < 0.3, -1, qlabels)
    assert (scopes < 0).sum() > 1 and (scopes >= 0).sum() > 1
    row, sim, size = route_and_scan(emb, ids, order, offsets, scopes, queries)
    want_row, want_sim = _per_scope_top1(emb, ids, order, offsets, scopes, queries)
    assert np.array_equal(row, want_row)
    assert np.array_equal(_bits(sim), _bits(want_sim))
    assert np.array_equal(size, np.where(scopes < 0, len(ids), np.diff(offsets)[scopes]))


def test_segmented_pass_rejects_an_empty_cluster():
    emb, ids, labels, queries, _ = _tied_segments_case(np.float32)
    order, offsets = csr_index(labels, 15)
    with pytest.raises(ValueError, match="empty scope"):
        route_and_scan(emb, ids, order, offsets, np.array([0, 14]), queries[:2])


def _logged_runs(patch, log):
    """Wrap ``_in_threads`` so that every range of rows logs the thread
    that scanned it and its first row, and then yields the CPU for a
    moment: the other threads take ranges too, and ranges finish out of
    order."""
    in_threads = store_mod._in_threads

    def logged(work, items, threads):
        def run(x):
            log.append((threading.get_ident(), x))
            time.sleep(0.001)
            work(x)

        in_threads(run, items, threads)

    patch.setattr(store_mod, "_in_threads", logged)


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_threaded_scans_equal_serial(monkeypatch, threads):
    """Scans of many row tiles, with their rows split into ranges of whole
    tiles among 1, 2 or 3 threads, give the serial pass's answers bit for
    bit; the ranges start at tile boundaries and cover every row once."""
    for store, queries, gt in (_near_tie_case(), _spread_case()):
        mat, ids = store.embeddings, store.ids
        with monkeypatch.context() as patch:
            patch.setattr(store_mod, "_scan_threads", lambda: 1)
            one_idx, one_sims = scan_top1(mat, ids, queries)
            one_ranked = scan_ranks(mat, ids, queries, gt)
            one_all = store_mod._exact_top(mat, ids, queries, len(store))
            one_top = top_matches(store, FULL, queries[0], p=len(store))
        log, outs, idents = [], [], set()
        with monkeypatch.context() as patch:
            patch.setattr(store_mod, "_scan_threads", lambda: threads)
            _tile_budget(patch, store.d, 16, 3, queries=16,  # 16 rows a product, 48 a tile
                         itemsize=mat.itemsize)
            _logged_runs(patch, log)
            for scan, extra in ((scan_top1, ()), (scan_ranks, (gt,)),
                                (store_mod._exact_top, (len(store),))):
                log.clear()
                outs.append(scan(mat, ids, queries, *extra))
                # 63 tiles of 48 rows: one range, or 4 per thread of whole tiles
                per = 48 * (63 if threads == 1 else -(-63 // (4 * threads)))
                assert sorted(x for _, x in log) == list(range(0, len(store), per))
                idents |= {ident for ident, _ in log}
            assert top_matches(store, FULL, queries[0], p=len(store)) == one_top
        idx, sims = outs[0]
        ranked, every = outs[1], outs[2]
        assert np.array_equal(idx, one_idx)
        assert np.array_equal(_bits(sims), _bits(one_sims))
        assert np.array_equal(ranked[0], one_ranked[0])
        assert np.array_equal(_bits(ranked[1]), _bits(one_ranked[1]))
        assert np.array_equal(ranked[2], one_ranked[2])
        assert np.array_equal(every[0], one_all[0])
        assert np.array_equal(_bits(every[1]), _bits(one_all[1]))
        assert bool(idents - {threading.get_ident()}) == (threads > 1)


def test_scan_thread_error_reaches_caller(monkeypatch):
    """An exception raised in a range of rows scanned by a thread other
    than the caller is raised to the caller, and every thread the scan
    started has ended."""
    store, queries, gt = _spread_case()
    baseline = threading.active_count()
    caller = threading.get_ident()
    in_threads = store_mod._in_threads
    boom = RuntimeError("products failed")
    calls = []

    def failing(work, items, threads):
        def run(x):
            calls.append(threading.get_ident())
            if threading.get_ident() != caller:
                raise boom
            time.sleep(0.005)  # let the other thread take a range
            work(x)

        in_threads(run, items, threads)

    monkeypatch.setattr(store_mod, "_scan_threads", lambda: 2)
    _tile_budget(monkeypatch, store.d, 16, 2, queries=16, itemsize=store.embeddings.itemsize)
    monkeypatch.setattr(store_mod, "_in_threads", failing)
    with pytest.raises(RuntimeError) as raised:
        scan_ranks(store.embeddings, store.ids, queries, gt)
    assert raised.value is boom
    assert any(ident != caller for ident in calls)
    assert len(calls) < 8  # the scan's 8 ranges: none is taken after the error
    assert threading.active_count() == baseline


def test_in_threads_takes_every_item_once():
    """More threads than CPUs and a switch interval of a microsecond: each
    item is worked on exactly once."""
    calls = []

    def work(x):
        sum(range(x % 50))  # Python work that holds the GIL
        calls.append(x)

    items = range(3000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=store_mod._in_threads, args=(work, items, 8))
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert sorted(calls) == list(items)


def test_scans_off_the_main_thread_run_alone(monkeypatch):
    """A scan of several row tiles made on a thread other than the main
    one, as each attack of ``drew eval --workers`` is, starts no thread of
    its own; the same scan on the main thread uses every CPU."""
    store, queries, _ = _spread_case()
    counts = []
    in_threads = store_mod._in_threads

    def logged(work, items, threads):
        counts.append(threads)
        in_threads(work, items, threads)

    _tile_budget(monkeypatch, store.d, 16, 3, queries=16, itemsize=store.embeddings.itemsize)
    monkeypatch.setattr(store_mod, "_in_threads", logged)
    worker = threading.Thread(target=scan_top1, args=(store.embeddings, store.ids, queries))
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    assert counts and set(counts) == {1}
    counts.clear()
    scan_top1(store.embeddings, store.ids, queries)
    assert set(counts) == {len(os.sched_getaffinity(0))}


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


@pytest.mark.parametrize("batch", [1, 16, 41, 150])
def test_blas_calls_stay_single_threaded_size(monkeypatch, batch):
    """Every BLAS product of a scan is at most ``_BLAS_MADDS`` multiply-adds
    (small enough to run on the calling thread), and together the products
    cover each (query, row) pair once; 150 queries are three tiles of
    queries on each of two row tiles, whose rows split among threads."""
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


def test_segmented_products_stay_single_threaded_size(monkeypatch):
    """The segmented pass keeps every BLAS product within ``_BLAS_MADDS``
    too, for groups too large for one product, and its products cover each
    query's cluster rows once."""
    store = assign_clusters(synthetic_store(5000, 64, seed=4), 2, seed=4,
                            spec=ecc.construct_code(2, 8, 0.1))
    rng = substream(3, "segment-blocks")
    queries = rng.standard_normal((200, 64))
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    labels = rng.integers(0, 4, size=200)
    order, offsets = store.cluster_index
    log = _MatmulLog()
    monkeypatch.setattr(store_mod, "np", log)
    route_and_scan(store.embeddings, store.ids, order, offsets, labels, queries)
    assert len(log.madds) > 4
    assert max(log.madds) <= store_mod._BLAS_MADDS
    assert sum(log.madds) == int(np.diff(offsets)[labels].sum()) * 64


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
def test_blas_worker_threads_stay_idle(acceptance_store, monkeypatch):
    """Scans leave BLAS's worker threads idle: no thread but the caller
    accrues CPU time on a scan of one row tile, such as a query or a batch
    of 4 or 41 over the whole 100k-row store (a batch of fewer than
    ``_TILE_QUERIES`` reads each row once, and its tiles hold up to
    ``_CHUNK_BYTES``).  A batch over several row tiles splits its rows
    among threads the scan starts (one per CPU), and still no thread it
    did not start accrues CPU time."""
    mat, ids = acceptance_store.embeddings, acceptance_store.ids
    rng = substream(5, "blas-threads")
    queries = rng.standard_normal((150, mat.shape[1]))
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    started = []  # native ids of the threads started through threading
    run = threading.Thread.run

    def logged_run(thread):
        started.append(threading.get_native_id())
        run(thread)

    monkeypatch.setattr(threading.Thread, "run", logged_run)
    before = _thread_ticks()
    for batch in (1, 4, 41):
        assert len(mat) * batch * mat.itemsize <= store_mod._CHUNK_BYTES
        for _ in range(3):
            scan_top1(mat, ids, queries[:batch])
    after = _thread_ticks()
    busy = {tid: n - before.get(tid, 0) for tid, n in after.items()
            if n != before.get(tid, 0)}
    assert busy == {}
    assert started == []  # one row tile: the caller alone scans it

    for _ in range(3):
        scan_top1(mat, ids, queries)
    assert store_mod._TILE_BYTES // (mat.itemsize * store_mod._TILE_QUERIES) < len(mat)
    assert len(started) == 3 * (store_mod._scan_threads() - 1)
    later = _thread_ticks()
    busy = {tid: n - after.get(tid, 0) for tid, n in later.items()
            if n != after.get(tid, 0) and tid not in started}
    assert busy == {}


def test_rank_scan_holds_tiles_not_blocks(monkeypatch):
    """A rank scan of 2700 queries over a 100k x 16 store holds at most a
    tile of similarities per thread plus its kept entries: its allocation
    peak stays far below one block of all rows by one tile's 64 queries
    (25.6 MB), let alone by all 2700 (1.08 GB), and below the 16 MB block
    of the 41-query chunks the tiles replaced."""
    import tracemalloc

    store = synthetic_store(100_000, 16, seed=6)
    rng = substream(6, "tile-memory")
    gt = rng.integers(0, len(store), 2700)
    queries = store.embeddings[gt] + 0.1 * rng.standard_normal((2700, 16))
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    block = len(store) * store_mod._TILE_QUERIES * store.embeddings.itemsize
    for threads in (1, 2):
        monkeypatch.setattr(store_mod, "_scan_threads", lambda: threads)
        tracemalloc.start()
        try:
            scan_ranks(store.embeddings, store.ids, queries, gt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the queries (two copies) and the answers come on top of the tiles
        inputs = queries.nbytes * 2 + 2700 * 64
        assert peak < threads * store_mod._TILE_BYTES + inputs + (1 << 20), peak
        assert peak < block / 2


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


def test_save_rejects_labels_wider_than_u16(tmp_path):
    """k = 17 labels do not fit the file's u16 cluster field: save refuses
    before it writes anything, rather than wrap label 70000 to 4464."""
    raw = _raw(count=128, d=8)
    clusters = np.zeros(len(raw), dtype=np.int32)
    clusters[0] = 70000
    store = Store(raw.ids, raw.embeddings, clusters=clusters,
                  spec=ecc.construct_code(17, 128, 0.1), seed=1)
    with pytest.raises(ValueError, match="u16"):
        save_store(store, tmp_path / "x.drew")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("write_bytes", [1, 1000])
def test_save_writes_records_in_chunks(tmp_path, small_store, monkeypatch, write_bytes):
    """Records written a few at a time give the same file as the default
    1 MB steps."""
    whole, chunked = tmp_path / "whole.drew", tmp_path / "chunked.drew"
    save_store(small_store, whole)
    monkeypatch.setattr(store_mod, "_READ_BYTES", write_bytes)
    save_store(small_store, chunked)
    assert chunked.read_bytes() == whole.read_bytes()


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
