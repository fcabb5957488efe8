"""Evaluation harness: accuracy decomposition, routing error, rate limits.

All estimators are Monte-Carlo at desk scale with named substreams per
attack, so any record can be reproduced exactly from (store, seed).  The
paired accuracy run draws every attack's queries first and answers the
suite as one batch (one decode, one rank scan, one routed scan), or as a
few batches of whole attacks when it is large or ``workers`` asks for
more.  The quantities mirror the routing analysis:

* routing error ``epsilon_r`` = P(decoded cluster wrong | flagged reliable),
* the accuracy split into a gain term (cluster scan wins where the full
  scan is distracted) and a loss term (reliable but misrouted),
* the combinatorial lower bound on the gain from top-p displacement,
* detection-style ROC for in-dataset vs out-of-dataset queries.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import ecc
from .channel import AttackConfig, AttackStreams, attack_rows
from .pipeline import NO_MATCH, QueryConfig, batch_query, decode_scopes
from .rng import substream
from .store import Store, csr_index, route_and_scan, scan_ranks
from .store import scan_top1  # noqa: F401  kept as a traced name; see perfbench/spans.py
from .synthetic import heldout_pool

#: Reported redundancy values are capped here; beyond it they print as inf.
REDUNDANCY_CAP = 1.0e6

#: Queries per batch of the paired accuracy run, above which the suite is
#: cut into batches of whole attacks: a batch's key decode and routed scan
#: hold a few kB per query, so the default 2000 queries per attack stay
#: near one attack's memory, while 150 per attack is one batch.
_BATCH_QUERIES = 4096

#: Trials of :func:`estimate_epsilon_r` and frames of :func:`fer_sweep`
#: whose keys are flipped, decoded and counted at a time: about 1 MB of
#: temporaries, which glibc keeps serving from its heap once any larger
#: block has been freed.  Whole 20000-trial draws (16 MB of flip draws)
#: took fresh pages from the kernel unless an earlier stage had happened to
#: free a block as large: after the rank scan's 1 MiB tiles, the
#: perfbench-shape epsilon stage took 13-15k minor page faults that way,
#: against 0.9-1.0k in blocks (2-vCPU VM).
_TRIAL_BLOCK = 1024


# ---------------------------------------------------------------------------
# query synthesis
# ---------------------------------------------------------------------------

def _attack_queries(store: Store, attack: AttackConfig, n_queries: int, seed: int):
    """Sample entries and push them through the attack channel, one
    :func:`drew.channel.attack_rows` call over the sample."""
    if attack.out_of_dataset:
        raise ValueError("accuracy evaluation needs in-dataset attacks")
    smp = substream(seed, f"sample/{attack.name}")
    gt_idx = smp.integers(0, len(store), size=n_queries)
    streams = AttackStreams.for_attack(seed, attack.name)
    keys, embs = attack_rows(store.cluster_keys[store.clusters[gt_idx]],
                             store.embeddings[gt_idx], attack, streams)
    return keys, embs, gt_idx


def _keyless_queries(pool: np.ndarray, count: int, n: int, rng: np.random.Generator):
    """``count`` queries that carry no watermark: each draws a ``pool`` row,
    normalised, then a uniform random n-bit key, one query after another."""
    keys = np.empty((count, n), dtype=np.uint8)
    embs = np.empty((count, pool.shape[1]))
    for i in range(count):
        emb = np.asarray(pool[int(rng.integers(len(pool)))], dtype=np.float64)
        embs[i] = emb / np.linalg.norm(emb)
        keys[i] = rng.integers(0, 2, size=n)
    return keys, embs


# ---------------------------------------------------------------------------
# per-attack paired evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttackRecord:
    """Everything measured for one attack in one paired run."""

    name: str
    p_a: float
    sigma: float
    n_queries: int
    seed: int
    acc_drew: float
    acc_naive: float
    p_reliable: float
    p_correct_cluster_given_reliable: float
    epsilon_r: float
    epsilon_r_low_support: bool
    gain_term: float
    loss_term: float
    difference: float
    eq1_band: float
    eq1_ok: bool
    never_worse_ok: bool
    fallback_identity: bool
    alpha: float
    alpha_p: dict
    lemma1_bound: float

    def to_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["alpha_p"] = {str(p): v for p, v in self.alpha_p.items()}
        return doc


def _suite_records(
    store: Store,
    attacks: list[AttackConfig],
    cfg: QueryConfig,
    n_queries: int,
    seed: int,
    p_list: tuple[int, ...],
) -> list[AttackRecord]:
    """Paired records of ``attacks``, whose queries are answered as one batch.

    Every attack's queries are drawn first and concatenated; then one
    :func:`decode_scopes`, one :func:`scan_ranks` (the naive scan and every
    ground-truth rank) and one :func:`route_and_scan` (the serving kernel:
    routed where the decode is reliable and the cluster has members, a
    full-store scan everywhere else) answer them all.  Every scan is
    exact and every decode is per frame, so each attack's slice of the
    batch is what the attack would get alone.
    """
    keys, embs, gt_idx = (np.concatenate(parts) for parts in zip(
        *(_attack_queries(store, attack, n_queries, seed) for attack in attacks)))
    gt_ids = store.ids[gt_idx].astype(np.int64)

    dec_cluster, rel, scopes = decode_scopes(store, keys, cfg)
    correct_cluster = dec_cluster == store.clusters[gt_idx]

    naive_idx, naive_sim, gt_rank = scan_ranks(store.embeddings, store.ids, embs, gt_idx)
    naive_id = store.ids[naive_idx].astype(np.int64)
    order, offsets = store.cluster_index
    drew_idx, drew_sim, _ = route_and_scan(store.embeddings, store.ids, order, offsets,
                                           scopes, embs)
    drew_id = store.ids[drew_idx].astype(np.int64)

    naive_right = np.where(naive_sim >= cfg.tau_r, naive_id, NO_MATCH) == gt_ids
    drew_right = np.where(drew_sim >= cfg.tau_r, drew_id, NO_MATCH) == gt_ids
    # two independent full-store scans must agree on every unrouted query
    agree = (scopes >= 0) | ((drew_id == naive_id) & (drew_sim == naive_sim))
    records = []
    for i, attack in enumerate(attacks):
        part = slice(i * n_queries, (i + 1) * n_queries)
        records.append(_attack_record(attack, n_queries, seed, store.spec.k, p_list, rel[part],
                                      correct_cluster[part], naive_right[part],
                                      drew_right[part], agree[part], gt_rank[part]))
    return records


def _attack_record(attack, n_queries, seed, k, p_list, rel, correct_cluster,
                   naive_right, drew_right, agree, gt_rank) -> AttackRecord:
    """One attack's record from its queries' per-query outcomes."""
    n = float(n_queries)
    n_rel = int(rel.sum())
    loss_i = rel & ~correct_cluster
    gain_i = drew_right & ~naive_right & rel & correct_cluster
    acc_drew = drew_right.mean()
    acc_naive = naive_right.mean()
    difference = acc_drew - acc_naive

    # paired-sample band for the decomposition inequality
    t = drew_right.astype(np.float64) - naive_right - gain_i + loss_i
    eq1_band = 3.0 * float(t.std(ddof=0)) / math.sqrt(n)
    eq1_ok = bool(t.mean() >= -eq1_band)

    eps = float(loss_i.sum() / n_rel) if n_rel else 0.0
    d_i = drew_right.astype(np.float64) - naive_right
    never_band = 3.0 * float(d_i.std(ddof=0)) / math.sqrt(n)
    never_worse_ok = bool(acc_drew >= acc_naive - eps - never_band)

    alpha, alpha_p, terms = _rank_stats(gt_rank, k, p_list)

    return AttackRecord(
        name=attack.name,
        p_a=attack.p_a,
        sigma=attack.sigma,
        n_queries=n_queries,
        seed=seed,
        acc_drew=float(acc_drew),
        acc_naive=float(acc_naive),
        p_reliable=float(rel.mean()),
        p_correct_cluster_given_reliable=float((rel & correct_cluster).sum() / n_rel)
        if n_rel
        else 0.0,
        epsilon_r=eps,
        epsilon_r_low_support=n_rel == 0,
        gain_term=float(gain_i.mean()),
        loss_term=float(loss_i.mean()),
        difference=float(difference),
        eq1_band=eq1_band,
        eq1_ok=eq1_ok,
        never_worse_ok=never_worse_ok,
        fallback_identity=bool(agree.all()),
        alpha=alpha,
        alpha_p=alpha_p,
        lemma1_bound=float(max(terms.values())),
    )


@dataclass(frozen=True)
class EvalReport:
    """Per-attack records plus the context needed to replay them."""

    store_size: int
    d: int
    k: int
    n: int
    design_p: float
    n_queries: int
    seed: int
    config: dict
    attacks: list

    def to_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["attacks"] = [r.to_dict() for r in self.attacks]
        return doc


def run_accuracy_eval(
    store: Store,
    attacks: list[AttackConfig],
    cfg: QueryConfig,
    n_queries: int,
    seed: int,
    p_list: tuple[int, ...] = (2, 5, 10, 20),
    workers: int = 1,
) -> EvalReport:
    """Paired drew/naive accuracy over an attack suite.

    The suite's queries are answered as one batch (:func:`_suite_records`)
    when they number at most ``_BATCH_QUERIES``; otherwise, and when
    ``workers`` > 1 asks for more, the suite is cut into that many
    contiguous groups of attacks, each one batch, run ``workers`` at a
    time on a pool of threads.  Attacks use disjoint substreams, so the
    records are the same, in suite order, however the suite is cut.
    """
    if not store.clustered:
        raise ValueError("evaluation needs a preprocessed store")
    if n_queries < 1:
        raise ValueError("n_queries must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")

    def batch(group):
        return _suite_records(store, group, cfg, n_queries, seed, p_list)

    count = max(workers, -(-len(attacks) * n_queries // _BATCH_QUERIES))
    cuts = [len(attacks) * i // count for i in range(count + 1)]
    groups = [attacks[lo:hi] for lo, hi in zip(cuts, cuts[1:]) if hi > lo]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(batch, groups))
    else:  # on the calling thread, whose scans may split their rows among the CPUs
        parts = [batch(group) for group in groups]
    records = [r for part in parts for r in part]
    spec = store.spec
    return EvalReport(
        store_size=len(store),
        d=store.d,
        k=spec.k,
        n=spec.n,
        design_p=spec.design_p,
        n_queries=n_queries,
        seed=seed,
        config={
            "reliability_threshold": cfg.reliability_threshold,
            "tau_r": cfg.tau_r,
            "reliability_mode": cfg.reliability_mode,
        },
        attacks=records,
    )


# ---------------------------------------------------------------------------
# routing error
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonEstimate:
    p_a: float
    value: float
    n_reliable: int
    n_trials: int
    low_support: bool

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def estimate_epsilon_r(
    store: Store,
    attack: AttackConfig,
    n_trials: int,
    seed: int,
    cfg: QueryConfig = QueryConfig(),
) -> EpsilonEstimate:
    """Monte-Carlo P(decoded cluster wrong | reliable) for one attack.

    Trials draw their stored rows 20000 at a time, as they always have:
    numpy's bounded-integer draws give other values when a draw is split.
    Their keys are flipped, decoded and counted in blocks
    (:func:`_decoded_blocks`).

    When no trial raises the reliable flag the estimate is reported as 0
    with ``low_support`` set; the caller decides what to make of it.
    """
    if not store.clustered:
        raise ValueError("estimate_epsilon_r needs a preprocessed store")
    if n_trials < 1:
        raise ValueError("n_trials must be positive")
    smp = substream(seed, f"epsilon/{attack.name}/sample")
    kstream = substream(seed, f"epsilon/{attack.name}/key")
    wrong_reliable = 0
    n_rel = 0
    chunk = 20000
    for lo in range(0, n_trials, chunk):
        gt_idx = smp.integers(0, len(store), size=min(chunk, n_trials - lo))
        for sent, dec, rel in _decoded_blocks(store.spec, store.cluster_keys,
                                              store.clusters[gt_idx], attack.p_a, kstream, cfg):
            n_rel += int(rel.sum())
            wrong_reliable += int((rel & (dec != sent)).sum())
    low = n_rel == 0
    return EpsilonEstimate(
        p_a=attack.p_a,
        value=0.0 if low else wrong_reliable / n_rel,
        n_reliable=n_rel,
        n_trials=n_trials,
        low_support=low,
    )


def _decoded_blocks(spec: ecc.PolarCodeSpec, table: np.ndarray, sent: np.ndarray,
                    p: float, rng: np.random.Generator, cfg: QueryConfig):
    """``(block, decoded, reliable)`` of each ``_TRIAL_BLOCK`` block of the
    cluster indices ``sent``, whose keys ``table[block]`` are flipped at rate
    ``p`` by draws from ``rng`` in order (so any block size sees the values
    of one whole draw) and decoded under ``cfg``'s gate."""
    for start in range(0, sent.size, _TRIAL_BLOCK):
        block = sent[start : start + _TRIAL_BLOCK]
        keys = table[block]
        if p > 0.0:
            keys ^= rng.random(keys.shape) < p
        yield block, *ecc.decode_keys(spec, keys, cfg.reliability_threshold,
                                      cfg.reliability_mode)


def epsilon_sweep(
    store: Store,
    p_grid,
    n_trials: int,
    seed: int,
    cfg: QueryConfig = QueryConfig(),
) -> list[EpsilonEstimate]:
    """estimate_epsilon_r across a flip-rate grid (sigma plays no role)."""
    out = []
    for p in p_grid:
        attack = AttackConfig(name=f"flip_{float(p)!r}", p_a=float(p), sigma=0.0)
        out.append(estimate_epsilon_r(store, attack, n_trials, seed, cfg))
    return out


def epsilon_band(p_golden: float, n_golden: int, n_run: int) -> float:
    """3-sigma binomial band for comparing two estimates of the same rate,
    padded by a rule-of-three floor so zero-count cells stay testable."""
    var = p_golden * (1.0 - p_golden) * (1.0 / n_golden + 1.0 / n_run)
    return 3.0 * math.sqrt(var) + 3.0 / min(n_golden, n_run)


def check_epsilon_goldens(
    store: Store,
    golden: dict,
    seed: int,
    n_trials: int | None = None,
    cfg: QueryConfig | None = None,
) -> tuple[bool, list[dict]]:
    """Re-estimate the epsilon_r curve and compare against a golden document.

    The golden document pins the code spec, threshold, mode, grid, trial
    count, and the calibrated values; the check runs with its own seed and
    passes when every point lands inside :func:`epsilon_band`.
    """
    spec = store.spec
    for key in ("k", "n", "block_len", "design_p"):
        if golden["spec"][key] != getattr(spec, key):
            raise ValueError(f"golden spec field {key!r} does not match the store")
    if cfg is None:
        cfg = QueryConfig(
            reliability_threshold=float(golden["threshold"]),
            reliability_mode=str(golden["reliability_mode"]),
        )
    n_run = int(golden["n_trials"] if n_trials is None else n_trials)
    rows = []
    all_ok = True
    for point in golden["points"]:
        est = estimate_epsilon_r(
            store,
            AttackConfig(name=f"flip_{float(point['p_A'])!r}", p_a=float(point["p_A"]), sigma=0.0),
            n_run,
            seed,
            cfg,
        )
        band = epsilon_band(float(point["value"]), int(golden["n_trials"]), n_run)
        ok = abs(est.value - float(point["value"])) <= band
        all_ok &= ok
        rows.append(
            {
                "p_A": est.p_a,
                "golden": float(point["value"]),
                "estimate": est.value,
                "band": band,
                "n_reliable": est.n_reliable,
                "ok": ok,
            }
        )
    return all_ok, rows


# ---------------------------------------------------------------------------
# gain lower bound
# ---------------------------------------------------------------------------

def lemma1_bound(alpha_p: float, alpha: float, k: int, p: int) -> float:
    """(alpha_p - alpha) * (1 - 2**-k) ** (p - 1), one term of the max."""
    if p < 2:
        raise ValueError("p must be >= 2")
    return (alpha_p - alpha) * (1.0 - 2.0 ** (-k)) ** (p - 1)


def _rank_stats(gt_rank: np.ndarray, k: int, p_list) -> tuple[float, dict, dict]:
    """``(alpha, alpha_p, terms)`` of 1-based ground-truth ranks: alpha =
    P(rank = 1), alpha_p[p] = P(rank <= p) and terms[p] =
    ``lemma1_bound(alpha_p[p], alpha, k, p)`` for each p of ``p_list``."""
    alpha = float((gt_rank == 1).mean())
    alpha_p = {int(p): float((gt_rank <= p).mean()) for p in p_list}
    return alpha, alpha_p, {p: lemma1_bound(alpha_p[p], alpha, k, p) for p in alpha_p}


@dataclass(frozen=True)
class Lemma1Record:
    k: int
    n_queries: int
    seed: int
    lhs: float
    alpha: float
    alpha_p: dict
    bound: float
    best_p: int
    band: float
    holds: bool

    def to_dict(self) -> dict:
        doc = dict(self.__dict__)
        doc["alpha_p"] = {str(p): v for p, v in self.alpha_p.items()}
        return doc


def lemma1_check(
    store: Store,
    attack: AttackConfig,
    k: int,
    p_list: tuple[int, ...],
    n_queries: int,
    seed: int,
) -> Lemma1Record:
    """Check the top-p displacement bound with oracle routing.

    The left side is P(cluster-scoped argmax = item and full argmax != item)
    where the scope is the item's true cluster; the right side is the best
    ``lemma1_bound`` term over ``p_list``.  Holds up to 3-sigma paired noise.
    """
    if not store.clustered:
        raise ValueError("lemma1_check needs a preprocessed store")
    if n_queries < 1:
        raise ValueError("n_queries must be positive")
    if not 1 <= k <= 16:
        raise ValueError("k must lie in [1, 16]")
    if store.spec.k == k:
        labels = store.clusters
    else:
        labels = substream(seed, "lemma-partition").integers(0, 1 << k, size=len(store)).astype(np.int64)
    keys, embs, gt_idx = _attack_queries(store, attack, n_queries, seed)
    del keys  # oracle routing: the decoder plays no part here
    gt_ids = store.ids[gt_idx].astype(np.int64)
    naive_idx, _, gt_rank = scan_ranks(store.embeddings, store.ids, embs, gt_idx)

    order, offsets = csr_index(labels, 1 << k)
    scoped_idx, _, _ = route_and_scan(store.embeddings, store.ids, order, offsets,
                                      labels[gt_idx], embs)

    lhs_i = (store.ids[scoped_idx].astype(np.int64) == gt_ids) & (naive_idx != gt_idx)
    top1_i = gt_rank == 1
    alpha, alpha_p, terms = _rank_stats(gt_rank, k, p_list)
    best_p = max(terms, key=lambda p: (terms[p], -p))
    scale = (1.0 - 2.0 ** (-k)) ** (best_p - 1)
    v = lhs_i.astype(np.float64) - scale * ((gt_rank <= best_p).astype(np.float64) - top1_i)
    band = 3.0 * float(v.std(ddof=0)) / math.sqrt(len(v))
    return Lemma1Record(
        k=k,
        n_queries=int(len(gt_idx)),
        seed=seed,
        lhs=float(lhs_i.mean()),
        alpha=alpha,
        alpha_p=alpha_p,
        bound=float(terms[best_p]),
        best_p=int(best_p),
        band=band,
        holds=bool(v.mean() >= -band),
    )


# ---------------------------------------------------------------------------
# detection ROC
# ---------------------------------------------------------------------------

def roc_curve(pos: np.ndarray, neg: np.ndarray):
    """Threshold sweep over the pooled scores; returns (fpr, tpr, thr)."""
    pos = np.asarray(pos, dtype=np.float64)
    neg = np.asarray(neg, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("roc_curve needs scores on both sides")
    thr = np.unique(np.concatenate([pos, neg]))[::-1]
    ps = np.sort(pos)
    ns = np.sort(neg)
    tpr = (pos.size - np.searchsorted(ps, thr, side="left")) / pos.size
    fpr = (neg.size - np.searchsorted(ns, thr, side="left")) / neg.size
    fpr = np.concatenate([[0.0], fpr])
    tpr = np.concatenate([[0.0], tpr])
    return fpr, tpr, thr


def auroc(pos: np.ndarray, neg: np.ndarray) -> float:
    fpr, tpr, _ = roc_curve(pos, neg)
    return float(np.trapezoid(tpr, fpr))


def tpr_at_fpr(pos: np.ndarray, neg: np.ndarray, max_fpr: float = 0.1) -> float:
    """Largest TPR over thresholds keeping FPR <= max_fpr."""
    fpr, tpr, _ = roc_curve(pos, neg)
    mask = fpr <= max_fpr + 1e-12
    return float(tpr[mask].max())


@dataclass(frozen=True)
class RocRecord:
    attack: str
    n_in: int
    n_out: int
    seed: int
    auroc_drew: float
    auroc_naive: float
    tpr_at_fpr_0_1_drew: float
    tpr_at_fpr_0_1_naive: float

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def roc_eval(
    store: Store,
    attack: AttackConfig,
    n_in: int,
    n_out: int,
    seed: int,
    cfg: QueryConfig = QueryConfig(),
    pool: np.ndarray | None = None,
) -> RocRecord:
    """Paired AUROC / TPR@FPR=0.1 for drew and naive best-similarity scores.

    Positives are attacked in-dataset queries; negatives draw a held-out
    embedding and a uniform random key (no watermark).
    """
    if pool is None:
        pool = heldout_pool(max(n_out, 1), store.d, seed)
    keys_in, embs_in, _ = _attack_queries(store, attack, n_in, seed)
    rng = AttackStreams.for_attack(seed, f"{attack.name}/ood").out_of_dataset
    keys_out, embs_out = _keyless_queries(pool, n_out, store.spec.n, rng)
    keys = np.concatenate([keys_in, keys_out])
    embs = np.concatenate([embs_in, embs_out])
    drew_scores = np.array([r.similarity for r in batch_query(store, keys, embs, cfg)])
    naive_scores = np.array(
        [r.similarity for r in batch_query(store, None, embs, cfg, naive=True)]
    )
    return RocRecord(
        attack=attack.name,
        n_in=n_in,
        n_out=n_out,
        seed=seed,
        auroc_drew=auroc(drew_scores[:n_in], drew_scores[n_in:]),
        auroc_naive=auroc(naive_scores[:n_in], naive_scores[n_in:]),
        tpr_at_fpr_0_1_drew=tpr_at_fpr(drew_scores[:n_in], drew_scores[n_in:]),
        tpr_at_fpr_0_1_naive=tpr_at_fpr(naive_scores[:n_in], naive_scores[n_in:]),
    )


# ---------------------------------------------------------------------------
# rate limit curve
# ---------------------------------------------------------------------------

def capacity_curve(p_grid) -> list[dict]:
    """Rows of (p_A, channel capacity, implied minimum redundancy n/k).

    Redundancy is 1/capacity; beyond :data:`REDUNDANCY_CAP` (and at
    capacity 0) it is reported as unbounded (inf).
    """
    rows = []
    for p in np.asarray(p_grid, dtype=np.float64):
        cap = float(ecc.capacity_rate(p))
        red = math.inf if cap <= 1.0 / REDUNDANCY_CAP else 1.0 / cap
        rows.append({"p_A": float(p), "capacity": cap, "min_redundancy": red})
    return rows


# ---------------------------------------------------------------------------
# oracle-routed subset accuracy
# ---------------------------------------------------------------------------

def cluster_subset_accuracy(
    store: Store,
    attack: AttackConfig,
    k_grid,
    n_queries: int,
    seed: int,
) -> list[dict]:
    """Retrieval accuracy when the scan is restricted to the true cluster,
    for several partition sizes.

    Partitions are nested (labels mod 2**k), and the same attacked queries
    are reused for every k, so accuracy is non-decreasing in k point by
    point.  ``k = 0`` means the full store, i.e. the naive scan.
    """
    k_grid = [int(k) for k in k_grid]
    if any(k < 0 or k > 16 for k in k_grid):
        raise ValueError("k values must lie in [0, 16]")
    if n_queries < 1:
        raise ValueError("n_queries must be positive")
    k_max = max(k_grid)
    labels = (
        substream(seed, "subset-labels").integers(0, 1 << k_max, size=len(store)).astype(np.int64)
        if k_max > 0
        else np.zeros(len(store), dtype=np.int64)
    )
    keys, embs, gt_idx = _attack_queries(store, attack, n_queries, seed)
    del keys
    gt_ids = store.ids[gt_idx].astype(np.int64)
    rows = []
    for k in k_grid:
        mod = labels & ((1 << k) - 1)
        order, offsets = csr_index(mod, 1 << k)
        idx, _, _ = route_and_scan(store.embeddings, store.ids, order, offsets,
                                   mod[gt_idx], embs)
        hit = store.ids[idx].astype(np.int64) == gt_ids
        rows.append({"k": k, "accuracy": float(hit.mean())})
    return rows


# ---------------------------------------------------------------------------
# code-only frame error sweep
# ---------------------------------------------------------------------------

def fer_sweep(
    spec: ecc.PolarCodeSpec,
    p_grid,
    frames: int,
    seed: int,
    cfg: QueryConfig = QueryConfig(),
) -> list[dict]:
    """Frame error rate of the code alone across flip rates, with the
    reliable share under ``cfg``'s gate.

    Each flip rate draws its messages whole, then flips, decodes and
    counts their keys in blocks (:func:`_decoded_blocks`)."""
    if frames < 1:
        raise ValueError("frames must be positive")
    rows = []
    table = ecc.encode_all(spec)
    for p in p_grid:
        p = float(p)
        if not 0.0 <= p <= 0.5:
            raise ValueError("flip rates must lie in [0, 0.5]")
        rng = substream(seed, f"fer/p={p!r}")
        msgs = rng.integers(0, 1 << spec.k, size=frames)
        errors = n_rel = 0
        for sent, dec, rel in _decoded_blocks(spec, table, msgs, p, rng, cfg):
            errors += int((dec != sent).sum())
            n_rel += int(rel.sum())
        fer = errors / frames
        rows.append(
            {
                "p_A": p,
                "frames": frames,
                "errors": errors,
                "fer": fer,
                "stderr": math.sqrt(max(fer * (1.0 - fer), 1.0 / frames) / frames),
                "p_reliable": n_rel / frames,
            }
        )
    return rows
