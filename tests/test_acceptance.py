"""Acceptance gate: ten end-to-end criteria, one visible pass/fail line each.

Each criterion prints ``PASS``/``FAIL: criterion NN — <label>`` directly to
the terminal (bypassing capture) so the gate can be read off a plain pytest
run.  Budgets are asserted, not just documented.
"""
from __future__ import annotations

import json
import time
from importlib import resources

import mpmath as mp
import numpy as np
import pytest

from drew import ecc
from drew.channel import AttackConfig, default_suite
from drew.cli import main as cli_main
from drew.evaluation import (
    auroc,
    check_epsilon_goldens,
    estimate_epsilon_r,
    lemma1_bound,
    lemma1_check,
    roc_eval,
    run_accuracy_eval,
)
from drew.pipeline import QueryConfig, preprocess
from drew.rng import substream
from drew.store import FULL, top_matches
from drew.synthetic import synthetic_store

from conftest import brute_force_top
from test_ecc_codec import TINY_SHAPES, ml_enumeration

_ELAPSED: dict[str, float] = {}


def _criterion(capsys, num: int, label: str, budget_s: float | None, body):
    t0 = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - t0
        if budget_s is not None and elapsed >= budget_s:
            raise AssertionError(
                f"runtime {elapsed:.1f}s exceeds the {budget_s:.0f}s budget"
            )
    except BaseException:
        with capsys.disabled():
            print(f"\nFAIL: criterion {num:2d} — {label}")
        raise
    with capsys.disabled():
        print(f"\nPASS: criterion {num:2d} — {label} [{elapsed:.1f}s]")


# ---------------------------------------------------------------------------
# shared heavy run: criteria 5 and 6 read the same report
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def suite_report(acceptance_store):
    t0 = time.perf_counter()
    report = run_accuracy_eval(
        acceptance_store, default_suite(), QueryConfig(), 10_000, seed=7, workers=4
    )
    _ELAPSED["suite_report"] = time.perf_counter() - t0
    return report


def test_criterion_01_sc_vs_exhaustive_ml(capsys):
    def body():
        for k, n in TINY_SHAPES:
            spec = ecc.construct_code(k, n, 0.1)
            fer_sc, fer_ml, _, _, _, _ = ml_enumeration(spec, 0.25)
            assert fer_sc <= 2.0 * fer_ml + 1e-12, (k, n, fer_sc, fer_ml)
        # the rate-1/4 repetition shape corrects every single flip
        spec = ecc.construct_code(1, 4, 0.1)
        for code in (0, 1):
            key = ecc.encode_all(spec)[code]
            for i in range(4):
                noisy = key.copy()
                noisy[i] ^= 1
                out = ecc.decode(spec, ecc.llr_from_keys(spec, noisy[None], 0.1)[0])
                assert ecc.codes_to_ints(out.code) == code

    _criterion(capsys, 1, "SC frame error within 2x of exhaustive ML", 1.0, body)


def test_criterion_02_roundtrip_and_linearity(capsys):
    def body():
        rng = substream(42, "acceptance-roundtrip")
        shapes = [(1, 4), (2, 6), (3, 8), (4, 12), (5, 20), (6, 32), (8, 60),
                  (10, 100), (12, 100), (4, 16)]
        total = 0
        for k, n in shapes:
            spec = ecc.construct_code(k, n, 0.1)
            table = ecc.encode_all(spec)
            msgs = rng.integers(0, 1 << k, size=1000)
            llrs = ecc.llr_from_keys(spec, table[msgs], spec.design_p)
            codes, _, rel, _, _ = ecc.decode_batch(spec, llrs)
            assert np.array_equal(ecc.codes_to_ints(codes), msgs)
            assert rel.all()
            other = msgs[::-1].copy()
            assert np.array_equal(table[msgs] ^ table[other],
                                  table[msgs ^ other])
            total += msgs.size
        assert total == 10_000

    _criterion(capsys, 2, "10^4 noiseless roundtrips and XOR linearity exact",
               5.0, body)


def test_criterion_03_capacity_against_high_precision(capsys):
    def body():
        mp.mp.dps = 40

        def h_ref(p):
            if p == 0.0 or p == 1.0:
                return mp.mpf(0)
            q = mp.mpf(p)
            return -(q * mp.log(q, 2) + (1 - q) * mp.log(1 - q, 2))

        grid = np.linspace(0.0, 0.5, 1000)
        caps = ecc.capacity_rate(grid)
        for p, got in zip(grid.tolist(), np.atleast_1d(caps).tolist()):
            assert abs(got - float(1 - h_ref(p))) < 1e-9, p

        lo, hi = mp.mpf("0.25"), mp.mpf("0.5")
        for _ in range(200):
            mid = (lo + hi) / 2
            if 1 - h_ref(mid) > mp.mpf("0.1"):
                lo = mid
            else:
                hi = mid
        root = float((lo + hi) / 2)
        ours = ecc.max_tolerable_flip_rate(0.1)
        assert abs(ours - root) < 1e-9
        assert abs(root - 0.3160) < 1e-3

    _criterion(capsys, 3, "capacity matches 40-digit entropy and its 0.3160 root",
               1.0, body)


def test_criterion_04_epsilon_r_goldens(capsys, acceptance_store):
    def body():
        clean = estimate_epsilon_r(
            acceptance_store, AttackConfig("clean", 0.0, 0.0), 100_000, seed=7
        )
        assert clean.value == 0.0
        assert clean.n_reliable == 100_000

        golden = json.loads(
            resources.files("drew").joinpath("data/golden_epsilon_r.json").read_text()
        )
        ok, rows = check_epsilon_goldens(acceptance_store, golden, seed=7)
        assert ok, [r for r in rows if not r["ok"]]

    _criterion(capsys, 4, "epsilon_r zero at p_A=0 and inside golden 3-sigma bands",
               120.0, body)


def test_criterion_05_decomposition_and_fallback(capsys, suite_report):
    def body():
        assert len(suite_report.attacks) == len(default_suite())
        assert suite_report.n_queries == 10_000
        for rec in suite_report.attacks:
            assert rec.eq1_ok, (rec.name, rec.difference, rec.gain_term,
                                rec.loss_term, rec.eq1_band)
            assert rec.fallback_identity, rec.name

    _criterion(
        capsys, 5,
        "accuracy difference >= gain - loss (3 sigma) and exact fallback, "
        f"all {len(default_suite())} attacks "
        f"[shared run {_ELAPSED.get('suite_report', 0.0):.1f}s]",
        300.0 - _ELAPSED.get("suite_report", 0.0), body,
    )


def test_criterion_06_never_worse(capsys, suite_report):
    def body():
        for rec in suite_report.attacks:
            assert rec.never_worse_ok, (rec.name, rec.acc_drew, rec.acc_naive,
                                        rec.epsilon_r)

    _criterion(capsys, 6, "acc_drew >= acc_naive - epsilon_r - 3 sigma, "
                          "all attacks (same run as 5)", None, body)


def test_criterion_07_lemma1_bound(capsys):
    def body():
        direct = (0.9 - 0.8) * (1.0 - 2.0**-10) ** (2 - 1)
        assert lemma1_bound(0.9, 0.8, 10, 2) == direct
        assert abs(direct - 0.09990) < 1e-4

        alphas, alpha10s = [], []
        for seed in range(20):
            store = preprocess(synthetic_store(5000, 64, seed=seed), k=10, seed=seed)
            rec = lemma1_check(store, AttackConfig("lemma-regime", 0.0, 0.24),
                               k=10, p_list=(2, 5, 10, 20), n_queries=2000,
                               seed=1000 + seed)
            assert rec.holds, (seed, rec.lhs, rec.bound, rec.band)
            alphas.append(rec.alpha)
            alpha10s.append(rec.alpha_p[10])
        # the constructed regime the bound is checked in
        assert 0.55 <= float(np.mean(alphas)) <= 0.65
        assert 0.82 <= float(np.mean(alpha10s)) <= 0.95

    _criterion(capsys, 7, "top-p displacement bound holds over 20 seeds "
                          "plus the 0.09990 spot value", 300.0, body)


def test_criterion_08_search_exactness_and_scope_monotonicity(capsys):
    def body():
        instances = 0
        rng = substream(88, "acceptance-search")
        for count, d, seed in ((500, 16, 101), (1000, 32, 102), (2000, 64, 103),
                               (750, 8, 104), (1500, 24, 105)):
            store = preprocess(synthetic_store(count, d, seed=seed), k=6,
                               seed=seed, n=24)
            occupied = np.unique(store.clusters)
            for j in range(20):
                if j % 2 == 0:
                    base = store.embeddings[int(rng.integers(count))]
                    q = base + 0.4 * rng.standard_normal(d)
                else:
                    q = rng.standard_normal(d)
                q = q / np.linalg.norm(q)
                ours = top_matches(store, FULL, q, p=5)
                ref = brute_force_top(store.embeddings, store.ids, q, p=5)
                assert [i for i, _ in ours] == [i for i, _ in ref]
                for (_, s1), (_, s2) in zip(ours, ref):
                    assert s1 == pytest.approx(s2, abs=1e-12)
                full_best = ours[0][1]
                for c in rng.choice(occupied, size=3, replace=False).tolist():
                    scoped = top_matches(store, int(c), q, p=1)
                    assert scoped[0][1] <= full_best
                instances += 1
        assert instances == 100

    _criterion(capsys, 8, "top_matches equals brute force on 100 instances; "
                          "cluster scope never beats full scope", 30.0, body)


def test_criterion_09_roc_harness(capsys, acceptance_store):
    def body():
        assert auroc([2.0, 3.0], [0.0, 1.0]) == 1.0
        assert auroc([0.5, 0.5], [0.5, 0.5]) == 0.5

        attack = {a.name: a for a in default_suite()}["crop_0.5"]
        rec = roc_eval(acceptance_store, attack, n_in=1000, n_out=1000, seed=7)
        assert rec.auroc_drew >= rec.auroc_naive - 0.01, (
            rec.auroc_drew, rec.auroc_naive
        )

    _criterion(capsys, 9, "ROC degenerate cases exact; drew AUROC within "
                          "0.01 of naive or better", 120.0, body)


def test_criterion_10_eval_rerun_byte_identical(capsys, tmp_path):
    def body():
        store_path = tmp_path / "store.drew"
        code = cli_main([
            "build", "--synthetic", "N=2000", "d=32",
            "--store", str(store_path), "--seed", "7",
        ])
        assert code == 0
        outputs = []
        for name in ("run1", "run2"):
            out_dir = tmp_path / name
            code = cli_main([
                "eval", "--store", str(store_path), "--out-dir", str(out_dir),
                "--n-queries", "800", "--n-trials", "20000",
                "--n-in", "300", "--n-out", "300", "--seed", "7",
            ])
            assert code == 0
            outputs.append(out_dir)
        files = ("report.json", "accuracy.csv", "epsilon.csv", "roc.csv",
                 "subset.csv", "capacity.csv")
        for fname in files:
            a = (outputs[0] / fname).read_bytes()
            b = (outputs[1] / fname).read_bytes()
            assert a == b, fname
        report = json.loads((outputs[0] / "report.json").read_text())
        assert report["violations"] == []
        assert report["exit_code"] == 0

    _criterion(capsys, 10, "eval rerun with recorded seeds is byte-identical",
               None, body)
