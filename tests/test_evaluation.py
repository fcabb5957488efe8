from __future__ import annotations

import copy
import json
import math
from importlib import resources

import numpy as np
import pytest

from drew import ecc, evaluation
from drew.channel import AttackConfig, AttackStreams, attack_rows, default_suite
from drew.evaluation import (
    _attack_queries,
    _keyless_queries,
    capacity_curve,
    check_epsilon_goldens,
    cluster_subset_accuracy,
    epsilon_band,
    estimate_epsilon_r,
    epsilon_sweep,
    fer_sweep,
    lemma1_bound,
    lemma1_check,
    auroc,
    roc_curve,
    roc_eval,
    run_accuracy_eval,
    tpr_at_fpr,
)
from drew.pipeline import QueryConfig, batch_query
from drew.rng import substream
from drew.store import vector_norms
from drew.synthetic import synthetic_store


def _load_golden() -> dict:
    text = resources.files("drew").joinpath("data/golden_epsilon_r.json").read_text()
    return json.loads(text)


def test_attack_queries_match_per_query_channel(small_store):
    attack = AttackConfig("batchcheck", p_a=0.15, sigma=0.3)
    keys, embs, gt_idx = _attack_queries(small_store, attack, 40, seed=91)

    smp = substream(91, "sample/batchcheck")
    ref_idx = smp.integers(0, len(small_store), size=40)
    streams = AttackStreams.for_attack(91, "batchcheck")
    assert np.array_equal(gt_idx, ref_idx)
    for i in range(40):
        row = ref_idx[i : i + 1]
        key, emb = attack_rows(small_store.cluster_keys[small_store.clusters[row]],
                               small_store.embeddings[row], attack, streams)
        assert np.array_equal(keys[i], key[0])
        assert np.array_equal(embs[i], emb[0])


def test_keyless_queries_uniform_keys():
    pool = substream(12, "pool").standard_normal((50, 16))
    pool /= np.linalg.norm(pool, axis=1)[:, None]
    rng = AttackStreams.for_attack(13, "ood").out_of_dataset
    keys, embs = _keyless_queries(pool, 200, 32, rng)
    assert keys.shape == (200, 32) and keys.dtype == np.uint8
    assert np.all(np.abs(np.linalg.norm(embs, axis=1) - 1.0) < 1e-6)
    # every embedding is a pool row; the keys are uniform: about half ones
    assert all(np.any(np.all(np.isclose(pool, e), axis=1)) for e in embs)
    assert abs(keys.mean() - 0.5) < 0.05
    # per query: first the pool row, then the key bits
    again = AttackStreams.for_attack(13, "ood").out_of_dataset
    row = int(again.integers(50))
    assert np.array_equal(embs[0], pool[row] / vector_norms(pool[row]))
    assert np.array_equal(keys[0], again.integers(0, 2, size=32))


def test_attack_queries_reject_out_of_dataset(small_store):
    ood = AttackConfig("x", 0.1, 0.1, out_of_dataset=True)
    with pytest.raises(ValueError):
        _attack_queries(small_store, ood, 5, seed=1)


def _record(store, attack, cfg, n_queries, seed):
    """The record of a one-attack suite."""
    (rec,) = run_accuracy_eval(store, [attack], cfg, n_queries, seed).attacks
    return rec


def test_identity_attack_record(small_store):
    rec = _record(small_store, AttackConfig("id", 0.0, 0.0), QueryConfig(), 300, seed=4)
    assert rec.acc_drew == 1.0
    assert rec.acc_naive == 1.0
    assert rec.p_reliable == 1.0
    assert rec.p_correct_cluster_given_reliable == 1.0
    assert rec.epsilon_r == 0.0
    assert rec.gain_term == 0.0
    assert rec.loss_term == 0.0
    assert rec.difference == 0.0
    assert rec.alpha == 1.0
    assert rec.eq1_ok and rec.never_worse_ok and rec.fallback_identity


def _misroute_first_fallback(monkeypatch):
    """Make eval's kernel scan the first fallback query inside the largest
    cluster, while the record still counts that query as unrouted."""
    real = evaluation.route_and_scan

    def misrouted(embeddings, ids, order, offsets, scopes, queries):
        scopes = scopes.copy()
        scopes[np.flatnonzero(scopes < 0)[0]] = int(np.argmax(np.diff(offsets)))
        return real(embeddings, ids, order, offsets, scopes, queries)

    monkeypatch.setattr(evaluation, "route_and_scan", misrouted)


def test_fallback_identity_can_fail(small_store, tmp_path, capsys, monkeypatch):
    from drew.cli import main
    from drew.store import save_store

    cfg = QueryConfig(reliability_threshold=1e9)  # every query falls back
    attack = AttackConfig("noisy", 0.1, 0.3)
    assert _record(small_store, attack, cfg, 100, seed=4).fallback_identity
    path = tmp_path / "s.drew"
    save_store(small_store, path)
    argv = ["eval", "--store", str(path), "--only", "accuracy", "--n-queries", "60",
            "--reliability-threshold", "1e9"]
    assert main(argv + ["--out-dir", str(tmp_path / "ok")]) == 0
    capsys.readouterr()

    _misroute_first_fallback(monkeypatch)
    assert not _record(small_store, attack, cfg, 100, seed=4).fallback_identity
    assert main(argv + ["--out-dir", str(tmp_path / "bad")]) == 3
    violations = json.loads(capsys.readouterr().out)["violations"]
    assert violations and all(v.startswith("fallback identity failed") for v in violations)


def test_suite_inequalities_hold(small_store):
    suite = default_suite()
    report = run_accuracy_eval(small_store, suite, QueryConfig(), 400, seed=3)
    assert len(report.attacks) == len(suite)
    for rec in report.attacks:
        assert rec.eq1_ok, rec.name
        assert rec.never_worse_ok, rec.name
        assert rec.fallback_identity, rec.name
    by_name = {r.name: r for r in report.attacks}
    erasure = by_name["erasure"]
    # decision statistics saturate even on unwatermarked keys, so the
    # erasure row relies on the loss-term slack, which must be large
    assert erasure.p_reliable == 1.0
    assert erasure.epsilon_r > 0.9
    assert erasure.acc_drew < erasure.acc_naive


def test_report_determinism_and_worker_invariance(small_store):
    suite = default_suite()[:6]
    a = run_accuracy_eval(small_store, suite, QueryConfig(), 200, seed=8)
    b = run_accuracy_eval(small_store, suite, QueryConfig(), 200, seed=8)
    c = run_accuracy_eval(small_store, suite, QueryConfig(), 200, seed=8, workers=4)
    assert a.to_dict() == b.to_dict() == c.to_dict()
    # one batch for the suite gives each attack the record it gets alone
    alone = [_record(small_store, attack, QueryConfig(), 200, seed=8) for attack in suite]
    assert a.attacks == alone


def test_suite_batches_split_by_query_budget(small_store, monkeypatch):
    """The suite is one batch up to ``_BATCH_QUERIES`` queries, and beyond
    it (or for more workers) contiguous groups of whole attacks, with the
    same records either way."""
    suite = default_suite()[:6]
    whole = run_accuracy_eval(small_store, suite, QueryConfig(), 200, seed=8)
    batches = []
    real = evaluation._suite_records

    def logged(store, group, *args):
        batches.append([a.name for a in group])
        return real(store, group, *args)

    monkeypatch.setattr(evaluation, "_suite_records", logged)
    names = [a.name for a in suite]
    for budget, workers, want in ((1200, 1, [names]),
                                  (450, 1, [names[:2], names[2:4], names[4:]]),
                                  (1200, 4, [names[:1], names[1:3], names[3:4], names[4:]])):
        batches.clear()
        monkeypatch.setattr(evaluation, "_BATCH_QUERIES", budget)
        report = run_accuracy_eval(small_store, suite, QueryConfig(), 200, seed=8, workers=workers)
        assert report.to_dict() == whole.to_dict()
        assert sorted(batches) == sorted(want)


def test_run_accuracy_eval_validation(small_store):
    raw = synthetic_store(50, 8, seed=1)
    with pytest.raises(ValueError):
        run_accuracy_eval(raw, default_suite()[:1], QueryConfig(), 10, seed=1)
    with pytest.raises(ValueError):
        run_accuracy_eval(small_store, default_suite()[:1], QueryConfig(), 0, seed=1)


def test_epsilon_zero_flip_is_exactly_zero(small_store):
    est = estimate_epsilon_r(small_store, AttackConfig("clean", 0.0, 0.0),
                             2000, seed=6)
    assert est.value == 0.0
    assert est.n_reliable == 2000
    assert est.n_trials == 2000
    assert not est.low_support


def test_epsilon_low_support_flag(small_store):
    cfg = QueryConfig(reliability_threshold=1e9)
    est = estimate_epsilon_r(small_store, AttackConfig("clean", 0.1, 0.0),
                             500, seed=6, cfg=cfg)
    assert est.low_support
    assert est.n_reliable == 0
    assert est.value == 0.0


def test_epsilon_validation(small_store):
    with pytest.raises(ValueError):
        estimate_epsilon_r(small_store, AttackConfig("c", 0.0, 0.0), 0, seed=1)
    with pytest.raises(ValueError):
        estimate_epsilon_r(synthetic_store(20, 8, seed=1),
                           AttackConfig("c", 0.0, 0.0), 10, seed=1)


def _whole_draw_epsilon(store, attack, n_trials, seed, cfg):
    """Reference for :func:`estimate_epsilon_r`: each 20000-trial sample
    flipped by one whole draw and decoded as one batch; returns
    (wrong and reliable, reliable)."""
    smp = substream(seed, f"epsilon/{attack.name}/sample")
    kstream = substream(seed, f"epsilon/{attack.name}/key")
    wrong = reliable = 0
    for lo in range(0, n_trials, 20000):
        gt = smp.integers(0, len(store), size=min(20000, n_trials - lo))
        clusters = store.clusters[gt]
        keys = store.cluster_keys[clusters]
        keys = keys ^ (kstream.random(keys.shape) < attack.p_a).astype(np.uint8)
        dec, rel = ecc.decode_keys(store.spec, keys, cfg.reliability_threshold,
                                   cfg.reliability_mode)
        reliable += int(rel.sum())
        wrong += int((rel & (dec != clusters)).sum())
    return wrong, reliable


@pytest.mark.parametrize("block", [7, 1024])
def test_epsilon_blocks_give_the_whole_draws_estimate(small_store, monkeypatch, block):
    """Flipping, decoding and counting in blocks of 7 or 1024 trials gives
    the estimate of whole 20000-trial draws, over 45000 trials, which
    cross two sample boundaries and end in a partial block."""
    cfg = QueryConfig(reliability_threshold=5.0, reliability_mode="min-bit")
    attack = AttackConfig("flip_0.2", 0.2, 0.0)
    wrong, reliable = _whole_draw_epsilon(small_store, attack, 45000, 8, cfg)
    assert 0 < wrong and reliable < 45000  # the gate and the decoder both matter
    monkeypatch.setattr(evaluation, "_TRIAL_BLOCK", block)
    est = estimate_epsilon_r(small_store, attack, 45000, seed=8, cfg=cfg)
    assert (est.n_reliable, est.value) == (reliable, wrong / reliable)


@pytest.mark.parametrize("block", [7, 1024])
def test_fer_sweep_blocks_give_the_whole_draw_rows(monkeypatch, block):
    """Flipping, decoding and counting in blocks of 7 or 1024 frames gives
    the rows of one whole draw per flip rate, decoded as LLR frames in one
    batch; 2500 frames end in a partial block."""
    spec = ecc.construct_code(10, 100, 0.1)
    cfg = QueryConfig(reliability_threshold=5.0, reliability_mode="min-bit")
    grid, frames = (0.0, 0.15, 0.3), 2500
    table = ecc.encode_all(spec)
    want = []
    for p in grid:
        rng = substream(31, f"fer/p={p!r}")
        msgs = rng.integers(0, 1 << spec.k, size=frames)
        keys = table[msgs]
        if p > 0.0:
            keys = keys ^ (rng.random(keys.shape) < p).astype(np.uint8)
        codes, _, rel, _, _ = ecc.decode_batch(spec, ecc.llr_from_keys(spec, keys, 0.1),
                                               cfg.reliability_threshold, cfg.reliability_mode)
        want.append((int((ecc.codes_to_ints(codes) != msgs).sum()), float(rel.mean())))
    assert 0 < want[1][0] and want[1][1] < 1.0  # the decoder and the gate both matter
    monkeypatch.setattr(evaluation, "_TRIAL_BLOCK", block)
    rows = fer_sweep(spec, grid, frames, seed=31, cfg=cfg)
    assert [(r["errors"], r["p_reliable"]) for r in rows] == want


def test_epsilon_sweep_monotone(small_store):
    ests = epsilon_sweep(small_store, (0.0, 0.1, 0.2, 0.3), 3000, seed=12)
    vals = [e.value for e in ests]
    assert vals[0] == 0.0
    # 3000 trials resolve the steep part of the curve well past noise
    assert vals[2] > vals[1]
    assert vals[3] > vals[2] + 0.1


def test_epsilon_band_spot():
    expect = 3.0 * math.sqrt(0.1 * 0.9 * (1 / 100000 + 1 / 10000)) + 3 / 10000
    assert epsilon_band(0.1, 100000, 10000) == pytest.approx(expect, rel=1e-12)


def test_golden_epsilon_check_passes(small_store):
    golden = _load_golden()
    ok, rows = check_epsilon_goldens(small_store, golden, seed=123, n_trials=4000)
    assert ok, rows
    assert len(rows) == len(golden["points"])
    for row in rows:
        assert row["ok"]
        assert abs(row["estimate"] - row["golden"]) <= row["band"]


def test_golden_epsilon_check_flags_tampering(small_store):
    golden = copy.deepcopy(_load_golden())
    golden["points"][3]["value"] = float(golden["points"][3]["value"]) + 0.25
    ok, rows = check_epsilon_goldens(small_store, golden, seed=123, n_trials=4000)
    assert not ok
    assert not rows[3]["ok"]
    assert all(r["ok"] for i, r in enumerate(rows) if i != 3)


def test_golden_epsilon_check_rejects_spec_mismatch(small_store):
    golden = copy.deepcopy(_load_golden())
    golden["spec"]["k"] = 9
    with pytest.raises(ValueError, match="spec field"):
        check_epsilon_goldens(small_store, golden, seed=123, n_trials=100)


def test_lemma1_bound_spot():
    val = lemma1_bound(0.9, 0.8, 10, 2)
    assert val == (0.9 - 0.8) * (1.0 - 2.0**-10)
    assert val == pytest.approx(0.09990234375, abs=1e-15)
    with pytest.raises(ValueError):
        lemma1_bound(0.9, 0.8, 10, 1)


def test_lemma1_noiseless_is_trivial(small_store):
    rec = lemma1_check(small_store, AttackConfig("exact", 0.0, 0.0),
                       k=10, p_list=(2, 5), n_queries=200, seed=9)
    assert rec.alpha == 1.0
    assert rec.lhs == 0.0
    assert rec.bound == 0.0
    assert rec.holds


def test_lemma1_holds_across_seeds(small_store):
    for seed in range(5):
        rec = lemma1_check(small_store, AttackConfig("hard", 0.0, 0.45),
                           k=10, p_list=(2, 5, 10, 20), n_queries=600, seed=seed)
        assert rec.holds, rec
        # alpha_p must be non-decreasing in p
        vals = [rec.alpha_p[p] for p in (2, 5, 10, 20)]
        assert vals == sorted(vals)
        assert rec.alpha <= vals[0]


def test_lemma1_custom_partition(small_store):
    rec = lemma1_check(small_store, AttackConfig("hard", 0.0, 0.45),
                       k=4, p_list=(2, 5), n_queries=300, seed=2)
    assert rec.k == 4
    assert rec.holds
    # the partition's CSR layout takes 2**k offsets: k stops at 16, as in the
    # store format's u16 cluster labels
    for k in (0, 17, 31):
        with pytest.raises(ValueError, match=r"k must lie in \[1, 16\]"):
            lemma1_check(small_store, AttackConfig("h", 0.0, 0.3), k=k,
                         p_list=(2,), n_queries=10, seed=0)


def test_roc_degenerate_cases():
    assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert auroc([0.5, 0.5], [0.5, 0.5]) == 0.5
    assert auroc([0.0, 1.0], [2.0, 3.0]) == 0.0
    assert auroc([3.0, 2.0], [2.5, 1.0]) == pytest.approx(0.75)
    assert tpr_at_fpr([2.0, 3.0], [0.0, 1.0]) == 1.0
    assert tpr_at_fpr([0.5, 0.5], [0.5, 0.5]) == 0.0
    fpr, tpr, thr = roc_curve([1.0], [0.0])
    assert fpr[0] == 0.0 and tpr[0] == 0.0
    assert fpr[-1] == 1.0 and tpr[-1] == 1.0
    with pytest.raises(ValueError):
        roc_curve([], [1.0])


def test_tpr_at_fpr_partial_overlap():
    pos = np.array([0.9, 0.8, 0.7, 0.2])
    neg = np.array([0.6, 0.5, 0.4, 0.3, 0.1] + [0.0] * 5)
    # threshold 0.7 catches 3/4 positives at fpr 0; 0.1 allows one negative
    assert tpr_at_fpr(pos, neg, max_fpr=0.0) == 0.75
    assert tpr_at_fpr(pos, neg, max_fpr=0.1) == 0.75
    assert tpr_at_fpr(pos, neg, max_fpr=1.0) == 1.0


def test_roc_eval_separates_and_is_deterministic(small_store):
    attack = AttackConfig("roccheck", 0.05, 0.05)
    rec = roc_eval(small_store, attack, n_in=150, n_out=150, seed=11)
    rec2 = roc_eval(small_store, attack, n_in=150, n_out=150, seed=11)
    assert rec.to_dict() == rec2.to_dict()
    assert rec.auroc_naive > 0.95
    assert rec.auroc_drew >= rec.auroc_naive - 0.01
    for v in (rec.tpr_at_fpr_0_1_drew, rec.tpr_at_fpr_0_1_naive):
        assert 0.0 <= v <= 1.0


def test_subset_accuracy_monotone_and_endpoints(small_store):
    attack = AttackConfig("sub", 0.0, 0.5)
    rows = cluster_subset_accuracy(small_store, attack, (0, 2, 4, 8, 12),
                                   n_queries=300, seed=5)
    accs = [r["accuracy"] for r in rows]
    assert accs == sorted(accs)
    assert accs[-1] >= 0.9

    # k = 0 is exactly the naive scan over the same queries
    keys, embs, gt_idx = _attack_queries(small_store, attack, 300, seed=5)
    naive = batch_query(small_store, None, embs, naive=True)
    gt_ids = small_store.ids[gt_idx]
    naive_acc = float(np.mean([r.matched_id == g for r, g in zip(naive, gt_ids)]))
    assert accs[0] == naive_acc

    with pytest.raises(ValueError):
        cluster_subset_accuracy(small_store, attack, (0, 17), 10, seed=5)
    with pytest.raises(ValueError):
        cluster_subset_accuracy(small_store, attack, (-1,), 10, seed=5)


def test_capacity_curve_values():
    rows = capacity_curve([0.0, 0.11002786443835955, 0.5])
    assert rows[0]["capacity"] == 1.0
    assert rows[0]["min_redundancy"] == 1.0
    assert rows[1]["min_redundancy"] == pytest.approx(2.0, rel=1e-9)
    assert rows[2]["capacity"] == 0.0
    assert math.isinf(rows[2]["min_redundancy"])
    caps = [r["capacity"] for r in capacity_curve(np.linspace(0, 0.5, 21))]
    assert all(a > b for a, b in zip(caps, caps[1:]))


def test_fer_sweep_fields(default_spec):
    rows = fer_sweep(default_spec, (0.0, 0.2), frames=500, seed=14)
    assert rows[0]["errors"] == 0
    assert rows[0]["fer"] == 0.0
    assert rows[0]["p_reliable"] == 1.0
    assert rows[1]["errors"] > 0
    assert rows[1]["stderr"] > 0.0
    with pytest.raises(ValueError):
        fer_sweep(default_spec, (0.6,), frames=10, seed=1)
    with pytest.raises(ValueError):
        fer_sweep(default_spec, (0.1,), frames=0, seed=1)
