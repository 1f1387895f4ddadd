"""Metric implementations: trend macro-F1, as-of correctness, latest-set accuracy."""

from __future__ import annotations

import logging
from collections import Counter
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from temporal_memory.embedding import HashEmbedder, encode_store, read_vector_file
from temporal_memory.evaluation import (
    asof_correctness,
    latest_set_at_k,
    load_eval_config,
    run_eval,
    sensitivity_sweep,
    trend_macro_f1,
)
from temporal_memory.events import WeekKey, load_events_jsonl
from temporal_memory.retrieval import RankedHit, RetrievalParams, rank
from temporal_memory.tracking import TrendRecord, WeekCluster

from conftest import build_event, store_of

UTC = timezone.utc
W15 = WeekKey(2025, 15)
UNIT = np.array([1.0, 0.0], dtype=np.float32)


def _cluster(cid: int, members: tuple[str, ...]) -> WeekCluster:
    return WeekCluster(week=W15, cluster_id=cid, member_ids=members, centroid=UNIT)


def _trend(cid: int, label: str, size: int = 1) -> TrendRecord:
    return TrendRecord(week=W15, cluster_id=cid, label=label, size=size)


class TestTrendMacroF1:
    def test_perfect_predictions_score_one(self):
        clusters = [_cluster(0, ("x1", "x2")), _cluster(1, ("y1",)), _cluster(2, ("z1",))]
        trends = [_trend(0, "growth"), _trend(1, "drift"), _trend(2, "decay")]
        truth = {"X": {"2025-W15": "growth"}, "Y": {"2025-W15": "drift"}, "Z": {"2025-W15": "decay"}}
        ids = {"X": {"x1", "x2"}, "Y": {"y1"}, "Z": {"z1"}}
        macro, per_class = trend_macro_f1(clusters, trends, truth, ids)
        assert macro == pytest.approx(1.0)
        assert all(per_class[c]["f1"] == 1.0 for c in ("growth", "drift", "decay"))

    def test_all_stable_predictions_score_zero(self):
        clusters = [_cluster(0, ("x1",)), _cluster(1, ("y1",)), _cluster(2, ("z1",))]
        trends = [_trend(0, "stable"), _trend(1, "stable"), _trend(2, "stable")]
        truth = {"X": {"2025-W15": "growth"}, "Y": {"2025-W15": "drift"}, "Z": {"2025-W15": "decay"}}
        ids = {"X": {"x1"}, "Y": {"y1"}, "Z": {"z1"}}
        macro, _ = trend_macro_f1(clusters, trends, truth, ids)
        assert macro == 0.0

    def test_hand_computed_confusion_fixture(self):
        # One growth TP, one drift FN (predicted stable), one decay FP (truth
        # stable): F1 = 1, 0, 0 -> macro = 1/3.
        clusters = [_cluster(0, ("x1", "x2")), _cluster(1, ("y1",)), _cluster(2, ("z1",))]
        trends = [_trend(0, "growth"), _trend(1, "stable"), _trend(2, "decay")]
        truth = {"X": {"2025-W15": "growth"}, "Y": {"2025-W15": "drift"}, "Z": {"2025-W15": "stable"}}
        ids = {"X": {"x1", "x2"}, "Y": {"y1"}, "Z": {"z1"}}
        macro, per_class = trend_macro_f1(clusters, trends, truth, ids)
        assert abs(macro - 1.0 / 3.0) <= 1e-9
        assert per_class["growth"] == {"tp": 1, "fp": 0, "fn": 0, "f1": 1.0}
        assert per_class["drift"] == {"tp": 0, "fp": 0, "fn": 1, "f1": 0.0}
        assert per_class["decay"] == {"tp": 0, "fp": 1, "fn": 0, "f1": 0.0}

    def test_alignment_picks_largest_overlap(self):
        clusters = [_cluster(0, ("x1", "noise")), _cluster(1, ("x2", "x3", "x4"))]
        trends = [_trend(0, "decay"), _trend(1, "growth")]
        truth = {"X": {"2025-W15": "growth"}}
        ids = {"X": {"x1", "x2", "x3", "x4"}}
        macro, per_class = trend_macro_f1(clusters, trends, truth, ids)
        assert per_class["growth"]["tp"] == 1  # aligned to cluster 1, not 0

    def test_overlap_ties_break_to_lower_cluster_id(self):
        clusters = [_cluster(0, ("x1",)), _cluster(1, ("x2",))]
        trends = [_trend(0, "growth"), _trend(1, "decay")]
        truth = {"X": {"2025-W15": "growth"}}
        ids = {"X": {"x1", "x2"}}
        _, per_class = trend_macro_f1(clusters, trends, truth, ids)
        assert per_class["growth"]["tp"] == 1

    def test_no_overlap_anywhere_forces_zero_with_diagnostic(self, caplog):
        clusters = [_cluster(0, ("unrelated",))]
        trends = [_trend(0, "growth")]
        truth = {"X": {"2025-W15": "growth"}}
        ids = {"X": {"x1"}}
        with caplog.at_level(logging.WARNING):
            macro, _ = trend_macro_f1(clusters, trends, truth, ids)
        assert macro == 0.0
        assert any("overlap" in r.message for r in caplog.records)

    def test_absent_class_contributes_zero(self):
        clusters = [_cluster(0, ("x1",))]
        trends = [_trend(0, "growth")]
        truth = {"X": {"2025-W15": "growth"}}  # drift and decay never appear
        ids = {"X": {"x1"}}
        macro, per_class = trend_macro_f1(clusters, trends, truth, ids)
        assert per_class["drift"]["f1"] == 0.0 and per_class["decay"]["f1"] == 0.0
        assert macro == pytest.approx(1.0 / 3.0)


def _hit(event_id: str, ts: datetime) -> RankedHit:
    return RankedHit(event_id=event_id, ts=ts, cosine_sim=1.0, age_days=0.0, recency_weight=1.0, fused=1.0)


NOW = datetime(2025, 6, 30, tzinfo=UTC)


class TestAsofCorrectness:
    def test_all_hits_before_cutoff(self):
        hits = [_hit(f"e{i}", NOW - timedelta(days=i + 1)) for i in range(4)]
        assert asof_correctness(hits, NOW) == 1.0

    def test_half_violating(self):
        hits = [_hit("a", NOW - timedelta(days=1)), _hit("b", NOW + timedelta(days=1))]
        assert asof_correctness(hits, NOW) == 0.5

    def test_empty_is_vacuously_correct_with_warning(self):
        with pytest.warns(UserWarning, match="vacuously"):
            assert asof_correctness([], NOW) == 1.0


def _ts(store, event_id: str) -> datetime:
    return next(e.ts for e in store if e.event_id == event_id)


class TestLatestSetAtK:
    def _store(self):
        events = [
            build_event("2025-06-01T00:00:00Z", "vpn", "cert_expiry", msg="old one"),
            build_event("2025-06-10T00:00:00Z", "vpn", "cert_expiry", msg="newer"),
            build_event("2025-06-10T00:00:00Z", "vpn", "cert_expiry", msg="newer twin"),
            build_event("2025-05-01T00:00:00Z", "okta", "auth_fail", msg="unrelated"),
        ]
        return store_of(events), [e.event_id for e in events]

    def test_newest_at_rank_one(self):
        store, ids = self._store()
        hits = [_hit(ids[1], _ts(store, ids[1]))]
        assert latest_set_at_k(hits, ids[:3], store, k=10) == 1

    def test_stale_top_k_misses(self):
        store, ids = self._store()
        hits = [_hit(ids[0], _ts(store, ids[0]))] * 10
        assert latest_set_at_k(hits, ids[:3], store, k=10) == 0

    def test_either_of_a_terminal_tie_counts(self):
        store, ids = self._store()
        for tied in (ids[1], ids[2]):
            hits = [_hit(tied, _ts(store, tied))]
            assert latest_set_at_k(hits, ids[:3], store, k=10) == 1

    def test_only_top_k_window_counts(self):
        store, ids = self._store()
        hits = [_hit(ids[0], _ts(store, ids[0]))] * 10 + [_hit(ids[1], _ts(store, ids[1]))]
        assert latest_set_at_k(hits, ids[:3], store, k=10) == 0

    def test_no_relevant_events_is_an_error(self):
        store, _ = self._store()
        with pytest.raises(ValueError):
            latest_set_at_k([], [], store)

    def test_relevant_ids_absent_from_store_is_an_error(self):
        store, _ = self._store()
        with pytest.raises(ValueError):
            latest_set_at_k([], ["ghost"], store)


class TestSensitivitySweep:
    def test_singleton_alpha_list(self):
        events = [
            build_event("2025-06-01T00:00:00Z", "vpn", "cert_expiry", msg="gateway certificate expiring"),
            build_event("2025-06-29T00:00:00Z", "vpn", "cert_expiry", msg="gateway certificate expiring"),
        ]
        store = store_of(events)
        vecs = encode_store(store, HashEmbedder(dim=64))
        queries = [{"text": "vpn cert_expiry gateway certificate expiring", "topic": "t"}]
        ids = {"t": [e.event_id for e in events]}
        out = sensitivity_sweep(store, vecs, queries, ids, NOW, alphas=(0.7,), top_k=10)
        assert set(out) == {0.7}
        assert out[0.7] == 1.0


class TestRunEval:
    def test_each_query_text_is_embedded_once(self, pipeline_ws, monkeypatch):
        store = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        config, ground_truth = load_eval_config(pipeline_ws / "logs" / "eval.json")
        embedded = Counter()
        embed = HashEmbedder.embed

        def counting_embed(self, text):
            embedded[text] += 1
            return embed(self, text)

        monkeypatch.setattr(HashEmbedder, "embed", counting_embed)
        run_eval(store, vecs, config, ground_truth)
        assert embedded == Counter(q["text"] for q in config["queries"])


@pytest.fixture(scope="module")
def fixture20():
    events = []
    for i in range(14):
        events.append(
            build_event(f"2025-05-{i + 1:02d}T09:00:00Z", "okta", "auth_fail",
                        msg="mfa challenge denied repeatedly")
        )
    for i in range(6):
        events.append(
            build_event(f"2025-06-{20 + i:02d}T09:00:00Z", "okta", "auth_fail",
                        msg=f"mfa challenge denied variant {i}")
        )
    store = store_of(events)
    return store, encode_store(store, HashEmbedder(dim=128))


class TestAgainstIndependentScorer:
    """Pipeline metrics must agree with naive re-implementations on a small fixture."""

    def test_asof_fraction_matches_manual_scan(self, fixture20):
        store, vecs = fixture20
        cutoff = datetime(2025, 5, 10, tzinfo=UTC)
        params = RetrievalParams(alpha=0.7, now=NOW, top_k=20)
        q = HashEmbedder(dim=128).embed("okta mfa challenge denied")
        hits = rank(q, store, vecs, params, as_of=cutoff)
        manual = 0
        for h in hits:
            if h.ts <= cutoff:
                manual += 1
        expected = manual / len(hits)
        assert asof_correctness(hits, cutoff) == expected == 1.0

    def test_latest_set_matches_manual_scan(self, fixture20):
        store, vecs = fixture20
        params = RetrievalParams(alpha=0.7, now=NOW, top_k=10)
        q = HashEmbedder(dim=128).embed("okta mfa challenge denied")
        hits = rank(q, store, vecs, params)
        relevant = store.ids()
        # manual: newest relevant timestamp, then linear scan of the top 10
        newest = max(e.ts for e in store)
        manual = 0
        for h in hits[:10]:
            if h.ts == newest:
                manual = 1
        assert latest_set_at_k(hits, relevant, store, 10) == manual
