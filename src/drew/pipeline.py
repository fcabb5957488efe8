"""Query pipeline: watermark-routed retrieval with a safe fallback.

Every query, from ``drew query``, the library or ``drew eval``, runs
through one kernel, :func:`drew.store.route_and_scan`: each query has a
scope, one cluster of a CSR layout or -1 for the whole store, and that
scan alone decides how a batch's scopes are scanned.
:func:`decode_scopes` decodes the observed keys and picks the scopes: the
decoded cluster when the decode looks reliable and the cluster has
members, else the whole store, which makes a drew query behave exactly
like the naive one.  :func:`batch_query`
turns the scans into results, and ``drew_query`` / ``naive_query`` are
its one-row calls.  A similarity floor ``tau_r`` turns weak best-matches
into NO_MATCH.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ecc
from .channel import Query
from .store import Store, _check_query_vector, assign_clusters, route_and_scan
from .store import scan_top1, top_matches  # noqa: F401  traced names; see perfbench/spans.py

#: matched_id sentinel: no stored item is claimed for the query.
NO_MATCH = -1


@dataclass(frozen=True)
class QueryConfig:
    """Knobs shared by both query paths; their defaults are those of the
    library, ``drew query`` and ``drew eval`` alike.

    reliability_threshold : minimum decision-LLR magnitude to trust routing.
    tau_r : similarity floor; best match below it reports NO_MATCH.
    reliability_mode : one of :data:`drew.ecc.RELIABILITY_MODES`.
    """

    reliability_threshold: float = 0.5
    tau_r: float = -1.0
    reliability_mode: str = "last-bit"

    def __post_init__(self):
        if not self.reliability_threshold >= 0.0:  # NaN would route nothing
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


def decode_scopes(store: Store, keys: np.ndarray, cfg: QueryConfig):
    """Decode observed keys and pick each query's scope.

    Returns ``(clusters, reliable, scopes)``: the decoded cluster, the
    decoder's reliable flag, and the scope :func:`route_and_scan` takes,
    which is the decoded cluster where the decode is reliable and the
    cluster has members, else -1 (the whole store).
    """
    clusters, reliable = ecc.decode_keys(
        store.spec, keys, cfg.reliability_threshold, cfg.reliability_mode
    )
    scopes = np.where(reliable & (store.cluster_sizes[clusters] > 0), clusters, -1)
    return clusters, reliable, scopes


def batch_query(
    store: Store,
    keys: np.ndarray | None,
    embeddings: np.ndarray,
    cfg: QueryConfig = QueryConfig(),
    naive: bool = False,
) -> list[QueryResult]:
    """Answer a batch of queries: routed by their keys, or ``naive``.

    A drew query scans the scope :func:`decode_scopes` picks; a naive one,
    or one whose decode is unreliable or lands in an empty cluster, scans
    the whole store, and ``reliable`` reports whether it was routed.
    """
    embs = np.asarray(embeddings, dtype=np.float64)
    if naive:
        order = offsets = None
        scopes = np.full(embs.shape[0], -1)
        decoded = routed = [None] * embs.shape[0]
    else:
        if not store.clustered:
            raise ValueError("drew batch query needs a preprocessed store")
        order, offsets = store.cluster_index
        clusters, _, scopes = decode_scopes(store, keys, cfg)
        decoded = clusters.tolist()
        routed = (scopes >= 0).tolist()
    row, sim, size = route_and_scan(store.embeddings, store.ids, order, offsets, scopes, embs)
    return [
        QueryResult(matched_id=best if s >= cfg.tau_r else NO_MATCH, similarity=s,
                    decoded_code=code, reliable=r, scope_size=n)
        for best, s, code, r, n in zip(store.ids[row].tolist(), sim.tolist(), decoded,
                                       routed, size.tolist())
    ]


def drew_query(store: Store, q: Query, cfg: QueryConfig = QueryConfig()) -> QueryResult:
    """Decode, route, scan; fall back to the full store when unsure.

    A one-row :func:`batch_query`."""
    if not store.clustered:
        raise ValueError("drew_query needs a preprocessed store")
    vec = _check_query_vector(store, q.observed_embedding)
    return batch_query(store, np.asarray(q.observed_key)[None], vec[None], cfg)[0]


def naive_query(store: Store, q: Query, cfg: QueryConfig = QueryConfig()) -> QueryResult:
    """Exact scan of the whole store; no key is consulted.

    A one-row naive :func:`batch_query`."""
    vec = _check_query_vector(store, q.observed_embedding)
    return batch_query(store, None, vec[None], cfg, naive=True)[0]
