"""Independent checks of drew's answers, run outside the timed region.

For every answered query the checker recomputes the exact best match with
its own numpy scan over the scope the answer claims (the decoded cluster
when ``reliable``, otherwise the whole store) and accepts the program's
``matched_id`` when its similarity is within ``TOL`` of the reference
maximum.  The reference breaks ties by ascending id, as drew does.
"""
from __future__ import annotations

import copy
import json

import numpy as np

TOL = 1e-12
_CHUNK = 64  # fallback queries per (chunk, N) similarity block


def parse_results(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _reference(store, rows: np.ndarray, embs: np.ndarray):
    """Best row (ties by ascending id) and its similarity, per query."""
    best_row = np.empty(embs.shape[0], dtype=np.int64)
    best_sim = np.empty(embs.shape[0])
    ids = store.ids[rows]
    mat_t = store.embeddings[rows].T
    for lo in range(0, embs.shape[0], _CHUNK):
        sims = embs[lo : lo + _CHUNK] @ mat_t
        mx = sims.max(axis=1)
        for j in range(sims.shape[0]):
            cand = np.flatnonzero(sims[j] == mx[j])
            best_row[lo + j] = rows[cand[np.argmin(ids[cand])]]
        best_sim[lo : lo + _CHUNK] = mx
    return best_row, best_sim


def check_answers(store, qids, embs, gt_ids, results) -> tuple[list[str], int, int]:
    """Check one output of ``drew query`` (or the lookup client).

    Returns (problems, answered, correct) where ``answered`` counts records
    without an ``error`` field and ``correct`` those whose ``matched_id``
    equals the ground truth.
    """
    problems: list[str] = []
    if len(results) != len(qids):
        problems.append(f"{len(results)} result lines for {len(qids)} queries")
    n_clusters = 1 << store.k
    order = np.argsort(store.clusters, kind="stable")
    bounds = np.searchsorted(store.clusters[order], np.arange(n_clusters + 1))
    row_of = {int(v): i for i, v in enumerate(store.ids.tolist())}
    all_rows = np.arange(len(store))

    scopes: dict[int, list[int]] = {}  # cluster (or -1 for the full store) -> queries
    answered = correct = 0
    for i, rec in enumerate(results[: len(qids)]):
        if "error" in rec:
            continue
        answered += 1
        if rec.get("query_id") != qids[i] or rec.get("ground_truth_id") != int(gt_ids[i]):
            problems.append(f"query {i}: ids not echoed in input order")
            continue
        code, reliable = rec.get("decoded_code"), rec.get("reliable")
        if not isinstance(reliable, bool) or not isinstance(code, int) or not 0 <= code < n_clusters:
            problems.append(f"query {i}: bad route fields {code!r}, {reliable!r}")
            continue
        scope = code if reliable else -1
        size = bounds[code + 1] - bounds[code] if reliable else len(store)
        if rec.get("scope_size") != int(size):
            problems.append(f"query {i}: scope_size {rec.get('scope_size')} != {size}")
        scopes.setdefault(scope, []).append(i)
        correct += rec.get("matched_id") == int(gt_ids[i])

    for scope, qs in scopes.items():
        rows = all_rows if scope < 0 else order[bounds[scope] : bounds[scope + 1]]
        ref_row, ref_sim = _reference(store, rows, embs[qs])
        members = set(rows.tolist()) if scope >= 0 else None
        for j, i in enumerate(qs):
            rec = results[i]
            row = row_of.get(rec.get("matched_id"))
            if row is None or (members is not None and row not in members):
                problems.append(f"query {i}: matched_id {rec.get('matched_id')} outside its scope")
                continue
            sim = float(store.embeddings[row] @ embs[i])
            if sim < ref_sim[j] - TOL:
                problems.append(
                    f"query {i}: matched {rec['matched_id']} (sim {sim!r}) but "
                    f"{int(store.ids[ref_row[j]])} scores {float(ref_sim[j])!r}"
                )
            elif abs(rec.get("similarity", np.nan) - sim) > TOL:
                problems.append(f"query {i}: reported similarity {rec.get('similarity')!r} != {sim!r}")
    return problems, answered, correct


def self_test_answers(store, qids, embs, gt_ids, results) -> bool:
    """Flip one answered ``matched_id`` to a worse id in the same scope and
    confirm that :func:`check_answers` rejects the doctored output."""
    for i, rec in enumerate(results):
        if "error" in rec or rec.get("scope_size", 0) < 2:
            continue
        rows = (np.flatnonzero(store.clusters == rec["decoded_code"])
                if rec["reliable"] else np.arange(len(store)))
        sims = store.embeddings[rows] @ embs[i]
        worst = int(store.ids[rows[np.argmin(sims)]])
        if sims.max() - sims.min() <= 1e3 * TOL:
            continue
        bad = dict(rec, matched_id=worst)
        problems, _, _ = check_answers(store, qids[i : i + 1], embs[i : i + 1],
                                       gt_ids[i : i + 1], [bad])
        return bool(problems)
    return False


def check_eval(exit_code: int, summary: dict, report: dict, attack_names, n_queries: int,
               n_golden_points: int) -> list[str]:
    """``drew eval --only accuracy,epsilon`` must exit 0 with no violations,
    report every suite attack at the requested size, and re-check every
    golden epsilon point."""
    problems = []
    if exit_code != 0:
        problems.append(f"eval exited {exit_code}")
    if summary.get("violations") != [] or report.get("violations") != []:
        problems.append(f"violations: {report.get('violations')}")
    attacks = report.get("accuracy", {}).get("attacks", [])
    if [a.get("name") for a in attacks] != list(attack_names):
        problems.append("accuracy section does not cover the suite in order")
    for a in attacks:
        if a.get("n_queries") != n_queries or not 0.0 <= a.get("acc_drew", -1.0) <= 1.0:
            problems.append(f"attack {a.get('name')}: bad record")
    eps = report.get("epsilon_golden", {})
    if eps.get("status") != "ok" or len(eps.get("points", [])) != n_golden_points:
        problems.append(f"epsilon stage status {eps.get('status')!r}")
    return problems


def self_test_eval(summary: dict, report: dict, attack_names, n_queries: int,
                   n_golden_points: int) -> bool:
    """Both doctored reports (a violation added, one attack short) must fail."""
    added = copy.deepcopy(report)
    added["violations"] = ["doctored"]
    short = copy.deepcopy(report)
    short["accuracy"]["attacks"][0]["n_queries"] = n_queries - 1
    return all(
        check_eval(0, summary, doc, attack_names, n_queries, n_golden_points)
        for doc in (added, short)
    )
