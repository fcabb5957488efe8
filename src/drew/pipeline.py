"""Query pipeline: watermark-routed retrieval with a safe fallback.

``drew_query`` decodes the observed key, and if the decode looks reliable
scans only the decoded cluster; otherwise (or when the decoded cluster is
empty) it scans the whole store, which makes it behave exactly like
``naive_query`` on that query.  A similarity floor ``tau_r`` turns weak
best-matches into NO_MATCH.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import ecc
from .channel import Query
from .store import FULL, Store, assign_clusters, scan_top1, top_matches

log = logging.getLogger(__name__)

#: matched_id sentinel: no stored item is claimed for the query.
NO_MATCH = -1


@dataclass(frozen=True)
class QueryConfig:
    """Knobs shared by both query paths.

    reliability_threshold : minimum decision-LLR magnitude to trust routing.
    tau_r : similarity floor; best match below it reports NO_MATCH.
    reliability_mode : "last-bit" (default) or the stricter "min-bit".
    """

    reliability_threshold: float = 0.5
    tau_r: float = -1.0
    reliability_mode: str = "last-bit"

    def __post_init__(self):
        if self.reliability_threshold < 0.0:
            raise ValueError("reliability_threshold must be >= 0")
        if not -1.0 <= self.tau_r <= 1.0:
            raise ValueError("tau_r must lie in [-1, 1]")
        if self.reliability_mode not in ecc.RELIABILITY_MODES:
            raise ValueError(f"unknown reliability mode {self.reliability_mode!r}")


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one query.

    ``decoded_code`` and ``reliable`` are None on the naive path.  When a
    reliable decode lands in an empty cluster the scan falls back to the
    full store and ``reliable`` reports False (the routing actually used).
    """

    matched_id: int
    similarity: float
    decoded_code: int | None
    reliable: bool | None
    scope_size: int

    def to_dict(self) -> dict:
        return {
            "matched_id": self.matched_id,
            "similarity": self.similarity,
            "decoded_code": self.decoded_code,
            "reliable": self.reliable,
            "scope_size": self.scope_size,
        }


def preprocess(
    store: Store,
    k: int,
    seed: int,
    spec: ecc.PolarCodeSpec | None = None,
    n: int = 100,
    design_p: float = 0.1,
) -> Store:
    """Partition a raw store into 2**k watermark-keyed clusters.

    Cluster labels are i.i.d. uniform; every entry of cluster c carries the
    polar encoding of c as its key.  Returns a new frozen store.
    """
    if spec is None:
        spec = ecc.construct_code(k, n, design_p)
    return assign_clusters(store, k, seed, spec)


def _finish(best_id: int, best_sim: float, decoded, reliable, scope_size: int,
            cfg: QueryConfig) -> QueryResult:
    matched = best_id if best_sim >= cfg.tau_r else NO_MATCH
    return QueryResult(
        matched_id=matched,
        similarity=best_sim,
        decoded_code=decoded,
        reliable=reliable,
        scope_size=scope_size,
    )


def drew_query(store: Store, q: Query, cfg: QueryConfig = QueryConfig()) -> QueryResult:
    """Decode, route, scan; fall back to the full store when unsure."""
    if not store.clustered:
        raise ValueError("drew_query needs a preprocessed store")
    spec = store.spec
    llrs = ecc.llr_from_key(spec, q.observed_key, spec.design_p)
    outcome = ecc.decode(spec, llrs, cfg.reliability_threshold, cfg.reliability_mode)
    cluster = ecc.code_to_int(outcome.code)
    reliable = outcome.reliable
    size = int(store.cluster_sizes[cluster])
    if reliable and size == 0:
        log.debug("decoded cluster %d is empty; falling back to full scan", cluster)
        reliable = False
    scope, scope_size = (cluster, size) if reliable else (FULL, len(store))
    matches = top_matches(store, scope, q.observed_embedding, p=1)
    best_id, best_sim = matches[0]
    return _finish(best_id, best_sim, cluster, reliable, scope_size, cfg)


def naive_query(store: Store, q: Query, cfg: QueryConfig = QueryConfig()) -> QueryResult:
    """Exact scan of the whole store; no key is consulted."""
    matches = top_matches(store, FULL, q.observed_embedding, p=1)
    best_id, best_sim = matches[0]
    return _finish(best_id, best_sim, None, None, len(store), cfg)


def batch_query(
    store: Store,
    keys: np.ndarray | None,
    embeddings: np.ndarray,
    cfg: QueryConfig = QueryConfig(),
    naive: bool = False,
) -> list[QueryResult]:
    """Vectorised equivalent of mapping drew_query/naive_query over queries.

    Produces exactly the same results as the per-query functions (same
    ordering rule, same fallback semantics), batched for throughput.
    """
    embs = np.asarray(embeddings, dtype=np.float64)
    B = embs.shape[0]
    if not naive:
        if not store.clustered:
            raise ValueError("drew batch query needs a preprocessed store")
        spec = store.spec
        llrs = ecc.llr_from_keys(spec, np.asarray(keys), spec.design_p)
        codes, _, reliable, _, _ = ecc.decode_batch(
            spec, llrs, cfg.reliability_threshold, cfg.reliability_mode
        )
        clusters = ecc.codes_to_ints(codes)
    full_rows = (
        np.arange(B)
        if naive
        else np.flatnonzero(~reliable | (store.cluster_sizes[clusters] == 0))
    )
    best_id = np.empty(B, dtype=np.int64)
    best_sim = np.empty(B)
    scope_size = np.full(B, len(store), dtype=np.int64)
    routed = np.zeros(B, dtype=bool)
    if full_rows.size:
        idx, sims = scan_top1(store.embeddings, store.ids, embs[full_rows])
        best_id[full_rows] = store.ids[idx].astype(np.int64)
        best_sim[full_rows] = sims
    if not naive:
        routed_rows = np.setdiff1d(np.arange(B), full_rows, assume_unique=True)
        routed[routed_rows] = True
        by_cluster: dict[int, list[int]] = {}
        for r in routed_rows.tolist():
            by_cluster.setdefault(int(clusters[r]), []).append(r)
        for cluster, rows in by_cluster.items():
            members = store.cluster_members(cluster)
            idx, sims = scan_top1(
                store.embeddings[members], store.ids[members], embs[rows]
            )
            best_id[rows] = store.ids[members][idx].astype(np.int64)
            best_sim[rows] = sims
            scope_size[rows] = members.size
    results = []
    for i in range(B):
        results.append(
            _finish(
                int(best_id[i]),
                float(best_sim[i]),
                None if naive else int(clusters[i]),
                None if naive else bool(routed[i]),
                int(scope_size[i]),
                cfg,
            )
        )
    return results
