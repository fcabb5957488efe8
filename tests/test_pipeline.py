from __future__ import annotations

import numpy as np
import pytest

from drew import ecc
from drew.channel import AttackConfig, AttackStreams, Query, attack_rows
from drew.pipeline import (
    NO_MATCH,
    QueryConfig,
    batch_query,
    decode_scopes,
    drew_query,
    naive_query,
    preprocess,
    route_and_scan,
)
from drew.rng import substream
from drew.store import Store, csr_index
from drew.synthetic import synthetic_store


def _query_for(store, i: int, p_a: float = 0.0, sigma: float = 0.0,
               seed: int = 77, name: str = "t") -> Query:
    keys, embs = attack_rows(store.cluster_keys[store.clusters[i : i + 1]],
                             store.embeddings[i : i + 1], AttackConfig(name, p_a, sigma),
                             AttackStreams.for_attack(seed, name))
    return Query(observed_key=keys[0], observed_embedding=embs[0],
                 ground_truth_id=int(store.ids[i]))


def test_preprocess_keys_match_clusters():
    store = preprocess(synthetic_store(1024, 16, seed=2), k=10, seed=2)
    assert store.spec.k == 10 and store.spec.n == 100
    keys = store.cluster_keys[store.clusters]
    assert keys.shape == (1024, 100)
    llrs = ecc.llr_from_keys(store.spec, keys[:64], store.spec.design_p)
    codes, _, _, _, _ = ecc.decode_batch(store.spec, llrs)
    assert np.array_equal(ecc.codes_to_ints(codes), store.clusters[:64])


def test_preprocess_k1_two_distinct_keys():
    store = preprocess(synthetic_store(50, 8, seed=3), k=1, seed=3, n=16)
    assert store.cluster_keys.shape == (2, 16)
    assert not np.array_equal(store.cluster_keys[0], store.cluster_keys[1])


def test_identity_attack_hits_ground_truth(small_store):
    for i in (0, 17, 999):
        q = _query_for(small_store, i)
        res = drew_query(small_store, q)
        assert res.matched_id == q.ground_truth_id
        assert res.reliable is True
        assert res.similarity == pytest.approx(1.0, abs=1e-6)
        nres = naive_query(small_store, q)
        assert nres.matched_id == q.ground_truth_id
        assert nres.reliable is None and nres.decoded_code is None
        assert nres.scope_size == len(small_store)


def test_fallback_equivalence_forced_unreliable(small_store):
    cfg = QueryConfig(reliability_threshold=1e9)
    rng = substream(5, "fallback")
    for _ in range(100):
        i = int(rng.integers(0, len(small_store)))
        q = _query_for(small_store, i, p_a=0.3, sigma=0.4, seed=int(rng.integers(1 << 30)))
        a = drew_query(small_store, q, cfg)
        b = naive_query(small_store, q, cfg)
        assert not a.reliable
        assert a.matched_id == b.matched_id
        assert a.similarity == b.similarity
        assert a.scope_size == len(small_store)


def test_empty_cluster_falls_back_to_full_scan():
    # 40 entries over 2^6 clusters leaves most clusters empty
    store = preprocess(synthetic_store(40, 8, seed=6), k=6, seed=6, n=32)
    sizes = np.bincount(store.clusters, minlength=64)
    empty = int(np.flatnonzero(sizes == 0)[0])
    key = store.cluster_keys[empty]
    emb = store.embeddings[0]
    res = drew_query(store, Query(observed_key=key, observed_embedding=emb))
    ref = naive_query(store, Query(observed_key=key, observed_embedding=emb))
    assert res.reliable is False
    assert res.decoded_code == empty
    assert res.scope_size == len(store)
    assert res.matched_id == ref.matched_id
    assert res.similarity == ref.similarity


def test_tau_r_rule_and_monotonicity(small_store):
    rng = substream(8, "tau")
    q = rng.standard_normal(small_store.d)
    q /= np.linalg.norm(q)
    query = Query(observed_key=small_store.cluster_keys[0], observed_embedding=q)
    best = naive_query(small_store, query).similarity
    hit = naive_query(small_store, query, QueryConfig(tau_r=best - 1e-9))
    assert hit.matched_id != NO_MATCH
    miss = naive_query(small_store, query, QueryConfig(tau_r=min(best + 1e-6, 1.0)))
    assert miss.matched_id == NO_MATCH
    assert miss.similarity == hit.similarity  # similarity still reported


def test_no_false_upgrade(small_store):
    rng = substream(9, "upgrade")
    for _ in range(60):
        i = int(rng.integers(0, len(small_store)))
        q = _query_for(small_store, i, p_a=0.2, sigma=0.3, seed=int(rng.integers(1 << 30)))
        a = drew_query(small_store, q)
        b = naive_query(small_store, q)
        assert a.similarity <= b.similarity + 1e-12
        if a.similarity == b.similarity:
            assert a.matched_id == b.matched_id or not a.reliable
        else:
            assert a.matched_id != b.matched_id


def test_dominance_under_correct_routing(small_store):
    rng = substream(10, "dominance")
    checked = 0
    for _ in range(200):
        i = int(rng.integers(0, len(small_store)))
        q = _query_for(small_store, i, p_a=0.1, sigma=0.2, seed=int(rng.integers(1 << 30)))
        a = drew_query(small_store, q)
        b = naive_query(small_store, q)
        gt_cluster = int(small_store.clusters[i])
        if a.reliable and a.decoded_code == gt_cluster and b.matched_id == q.ground_truth_id:
            assert a.matched_id == q.ground_truth_id
            checked += 1
    assert checked > 50


def test_batch_query_equals_per_query(small_store):
    rng = substream(11, "batch")
    idx = rng.integers(0, len(small_store), size=64)
    keys = small_store.cluster_keys[small_store.clusters[idx]]
    keys = keys ^ (rng.random(keys.shape) < 0.2).astype(np.uint8)
    embs = small_store.embeddings[idx] + 0.3 * rng.standard_normal((64, small_store.d))
    embs /= np.linalg.norm(embs, axis=1)[:, None]

    batch = batch_query(small_store, keys, embs)
    nbatch = batch_query(small_store, None, embs, naive=True)
    for j in range(64):
        q = Query(observed_key=keys[j], observed_embedding=embs[j])
        a = drew_query(small_store, q)
        assert batch[j] == a
        b = naive_query(small_store, q)
        assert nbatch[j] == b


@pytest.mark.parametrize("value", [-1, 0.7, np.nan])
def test_batch_query_rejects_non_bit_keys(small_store, value):
    q = _query_for(small_store, 3)
    keys = q.observed_key[None].astype(np.float64)
    keys[0, 5] = value
    with pytest.raises(ValueError, match="0/1"):
        batch_query(small_store, keys, q.observed_embedding[None])


def test_query_config_validation():
    with pytest.raises(ValueError):
        QueryConfig(tau_r=1.5)
    with pytest.raises(ValueError):
        QueryConfig(reliability_threshold=-1.0)
    with pytest.raises(ValueError):
        QueryConfig(reliability_mode="mean-bit")


def test_nan_reliability_threshold_is_rejected():
    # NaN compares false with every score, so it would silently route nothing
    with pytest.raises(ValueError, match="reliability_threshold"):
        QueryConfig(reliability_threshold=float("nan"))


def test_query_result_dict_has_stable_fields(small_store):
    q = _query_for(small_store, 4)
    doc = drew_query(small_store, q).to_dict()
    assert set(doc) == {
        "matched_id", "similarity", "decoded_code", "reliable", "scope_size",
    }


def test_scope_smaller_when_routed(small_store):
    q = _query_for(small_store, 12)
    res = drew_query(small_store, q)
    assert res.reliable
    assert res.scope_size == small_store.cluster_members(res.decoded_code).size
    assert res.scope_size < len(small_store)


def _brute_top1(store, rows, q):
    """(row, similarity) of the best of ``rows`` for ``q``: the float64
    einsum the scans rescore with, ties broken by ascending id."""
    sims = np.einsum("nd,d->n", store.embeddings[rows].astype(np.float64), q)
    best = min(range(rows.size), key=lambda i: (-sims[i], int(store.ids[rows[i]])))
    return rows[best], sims[best]


def test_route_and_scan_matches_brute_force():
    raw = synthetic_store(60, 8, seed=6)
    rows = np.concatenate([raw.embeddings, raw.embeddings[:10]])  # ten exact ties
    ids = substream(6, "kernel-ids").permutation(70).astype(np.uint64) + 100
    store = preprocess(Store(ids, rows), k=6, seed=6, n=32)
    empty = np.flatnonzero(store.cluster_sizes == 0)
    assert empty.size > 0
    _, _, scopes = decode_scopes(store, store.cluster_keys[empty], QueryConfig())
    assert (scopes == -1).all()  # a reliable decode into an empty cluster falls back

    rng = substream(7, "kernel-queries")
    queries = np.concatenate([rows[:12].astype(np.float64), rng.standard_normal((30, 8))])
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    custom = substream(8, "kernel-labels").integers(0, 5, size=len(store))
    layouts = (
        (store.clusters, store.cluster_index),
        (custom, csr_index(custom, 6)),  # label 5 is empty and never scanned
    )
    for labels, (order, offsets) in layouts:
        used = np.unique(labels)
        # full-store group holding the tied rows, a one-row group, a
        # many-row group, then scopes interleaved at random
        scopes = np.concatenate([
            np.full(6, -1), [used[0]], np.full(5, used[1]),
            rng.choice(np.concatenate([[-1], used[2:]]), size=30),
        ])
        counts = np.unique(scopes, return_counts=True)[1]
        assert counts.min() == 1 and counts.max() > 1
        row, sim, size = route_and_scan(store.embeddings, store.ids, order, offsets,
                                        scopes, queries)
        for j, scope in enumerate(scopes):
            members = np.arange(len(store)) if scope < 0 else np.flatnonzero(labels == scope)
            want_row, want_sim = _brute_top1(store, members, queries[j])
            assert (row[j], sim[j], size[j]) == (want_row, want_sim, members.size), j

    row, sim, size = route_and_scan(store.embeddings, store.ids, None, None,
                                    np.empty(0, dtype=np.int64), np.empty((0, 8)))
    assert row.shape == sim.shape == size.shape == (0,)


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def test_route_and_scan_one_query_equals_batch():
    """A batch of one scope skips the grouping: a single query (which scans
    a small scope by rescoring every row), several queries of the whole
    store with no CSR layout, and several of one cluster.  Their answers and
    the dtypes of their arrays are those the same queries get inside a batch
    of several scopes, for the full-store scope, a cluster and the fallback
    scope of a reliable decode into an empty cluster; the empty cluster
    itself is still refused."""
    raw = synthetic_store(60, 8, seed=6)
    rows = np.concatenate([raw.embeddings, raw.embeddings[:10]])  # ten exact ties
    ids = substream(6, "kernel-ids").permutation(70).astype(np.uint64) + 100
    store = preprocess(Store(ids, rows), k=6, seed=6, n=32)
    order, offsets = store.cluster_index
    empty = np.flatnonzero(store.cluster_sizes == 0)
    _, _, fallback = decode_scopes(store, store.cluster_keys[empty[:1]], QueryConfig())
    assert fallback.tolist() == [-1]
    cluster = int(np.argmax(store.cluster_sizes))
    assert store.cluster_sizes[cluster] > 1
    members = order[offsets[cluster] : offsets[cluster + 1]]
    rng = substream(9, "one-query")
    # tied rows, a cluster's own rows, and noisy queries; two or more per scope
    queries = np.concatenate([rows[[0, 61]], rows[members[:2]],
                              rows[:4] + 0.3 * rng.standard_normal((4, 8))]).astype(np.float64)
    queries /= np.linalg.norm(queries, axis=1)[:, None]
    scopes = np.array([-1, fallback[0], cluster, cluster, -1, cluster, fallback[0], cluster])
    row, sim, size = route_and_scan(store.embeddings, store.ids, order, offsets, scopes, queries)
    for j in range(len(scopes)):
        one = route_and_scan(store.embeddings, store.ids, order, offsets,
                             scopes[j : j + 1], queries[j : j + 1])
        for got, want in zip(one, (row, sim, size)):
            assert got.dtype == want.dtype and got.shape == (1,)
        assert (one[0][0], one[2][0]) == (row[j], size[j]), j
        assert _bits(one[1][0]) == _bits(sim[j]), j
    for scope, layout in ((-1, (None, None)), (cluster, (order, offsets))):
        group = np.flatnonzero(scopes == scope)
        assert group.size > 1
        alike = route_and_scan(store.embeddings, store.ids, *layout, scopes[group], queries[group])
        for got, want in zip(alike, (row, sim, size)):
            assert got.dtype == want.dtype and got.tobytes() == want[group].tobytes(), scope
    with pytest.raises(ValueError, match="cannot scan an empty scope"):
        route_and_scan(store.embeddings, store.ids, order, offsets, np.full(3, empty[0]),
                       queries[:3])

    # the library's one-row call on the empty cluster's key falls back
    keys = np.repeat(store.cluster_keys[empty[:1]], 3, axis=0)
    batch = batch_query(store, keys, queries[:3])
    for j in range(3):
        res = drew_query(store, Query(observed_key=keys[j], observed_embedding=queries[j]))
        assert res == batch[j] and res.reliable is False and res.scope_size == len(store)
