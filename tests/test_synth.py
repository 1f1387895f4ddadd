"""Generator determinism, scripted dynamics, and query-suite composition."""

from __future__ import annotations

import json
from collections import Counter

import pytest

from temporal_memory.events import coerce_timestamp, ingest, period_of
from temporal_memory.synth import STREAM_NOW, STREAM_WEEKS, TOPICS, generate_stream


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    result = generate_stream(7, out)
    return out, result


def _week_file_text(out, week_index: int) -> str:
    return (out / f"events-{STREAM_WEEKS[week_index - 1]}.jsonl").read_text(encoding="utf-8")


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ra = generate_stream(7, a)
        rb = generate_stream(7, b)
        assert ra.total_events == rb.total_events
        for fa, fb in zip(ra.log_files, rb.log_files):
            assert fa.read_bytes() == fb.read_bytes()
        assert ra.ground_truth_path.read_bytes() == rb.ground_truth_path.read_bytes()
        assert ra.eval_config_path.read_bytes() == rb.eval_config_path.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        ra = generate_stream(7, a)
        rb = generate_stream(8, b)
        assert ra.log_files[0].read_bytes() != rb.log_files[0].read_bytes()


class TestScriptedDynamics:
    def test_growth_topic_crosses_both_thresholds(self, generated):
        _, result = generated
        truth = json.loads(result.ground_truth_path.read_text())
        counts = truth["topics"]["okta-auth-fail"]["weekly_counts"]
        week3 = counts[str(STREAM_WEEKS[2])]
        week7 = counts[str(STREAM_WEEKS[6])]
        assert week7 >= 1.5 * week3
        assert week7 >= 30

    def test_growth_weeks_labeled(self, generated):
        _, result = generated
        truth = json.loads(result.ground_truth_path.read_text())
        labels = truth["topics"]["okta-auth-fail"]["truth"]
        growth_weeks = {w for w, lab in labels.items() if lab == "growth"}
        assert growth_weeks == {str(STREAM_WEEKS[i]) for i in (3, 4, 5, 6, 7)}  # weeks 4..8

    def test_vocabulary_switch_has_no_leakage(self, generated):
        out, _ = generated
        for wi in range(1, 6):  # weeks 1..5: no snowflake yet
            assert "snowflake" not in _week_file_text(out, wi).lower()
        for wi in range(8, 14):  # weeks 8..13: s3 fully retired
            assert "s3" not in _week_file_text(out, wi).lower()
        assert "snowflake" in _week_file_text(out, 6).lower()

    def test_switch_week_labeled_drift(self, generated):
        _, result = generated
        truth = json.loads(result.ground_truth_path.read_text())
        labels = truth["topics"]["data-access"]["truth"]
        assert labels[str(STREAM_WEEKS[5])] == "drift"
        assert all(lab in ("emergence", "drift", "stable") for lab in labels.values())

    def test_decay_topic_shrinks_after_week_eight(self, generated):
        _, result = generated
        truth = json.loads(result.ground_truth_path.read_text())
        entry = truth["topics"]["vuln-scan"]
        decay_weeks = {w for w, lab in entry["truth"].items() if lab == "decay"}
        assert decay_weeks == {str(STREAM_WEEKS[i]) for i in (8, 9, 10, 11)}  # weeks 9..12
        counts = entry["weekly_counts"]
        assert counts[str(STREAM_WEEKS[8])] < 0.5 * counts[str(STREAM_WEEKS[7])]

    def test_weekly_counts_match_emitted_files(self, generated):
        out, result = generated
        truth = json.loads(result.ground_truth_path.read_text())
        per_week_by_type = {}
        for wi in range(1, 14):
            counter = Counter()
            for line in _week_file_text(out, wi).splitlines():
                counter[json.loads(line)["event_type"]] += 1
            per_week_by_type[str(STREAM_WEEKS[wi - 1])] = counter
        type_of = {t.name: t.event_type for t in TOPICS}
        for name, entry in truth["topics"].items():
            for week, count in entry["weekly_counts"].items():
                assert per_week_by_type[week][type_of[name]] == count


class TestStreamShape:
    def test_all_events_fall_in_the_stream_weeks(self, generated):
        out, result = generated
        store = ingest(result.log_files)
        weeks = {str(period_of(e.ts)) for e in store}
        assert weeks <= {str(w) for w in STREAM_WEEKS}
        assert str(STREAM_WEEKS[0]) in weeks and str(STREAM_WEEKS[-1]) in weeks

    def test_no_event_is_after_the_pinned_now(self, generated):
        _, result = generated
        store = ingest(result.log_files)
        assert max(e.ts for e in store) < STREAM_NOW

    def test_every_event_id_is_unique_and_accounted(self, generated):
        _, result = generated
        store = ingest(result.log_files)
        assert store.duplicates_dropped == 0
        assert len(store) == result.total_events
        truth = json.loads(result.ground_truth_path.read_text())
        store_ids = set(store.event_ids)
        for entry in truth["topics"].values():
            assert set(entry["event_ids"]) <= store_ids

    def test_freshness_topics_end_in_a_shared_terminal_timestamp(self, generated):
        _, result = generated
        store = ingest(result.log_files)
        truth = json.loads(result.ground_truth_path.read_text())
        for name in ("vpn-cert", "phish-campaign", "edr-quarantine"):
            ids = set(truth["topics"][name]["event_ids"])
            stamps = [e.ts for e in store if e.event_id in ids]
            newest = max(stamps)
            assert stamps.count(newest) == 2

    def test_stale_cohorts_dwarf_fresh_ones(self, generated):
        _, result = generated
        truth = json.loads(result.ground_truth_path.read_text())
        for name in ("vpn-cert", "phish-campaign", "edr-quarantine"):
            counts = truth["topics"][name]["weekly_counts"]
            ordered = [counts[str(w)] for w in STREAM_WEEKS]
            stale = sum(ordered[:-1])
            fresh = ordered[-1]
            assert stale >= 10  # enough duplicates to saturate a top-10
            assert stale > fresh


class TestQuerySuite:
    def test_suite_composition(self, generated):
        _, result = generated
        config = json.loads(result.eval_config_path.read_text())
        freshness = [q for q in config["queries"] if q["type"] == "freshness"]
        asof = [q for q in config["queries"] if q["type"] == "as_of"]
        assert len(freshness) >= 3
        assert len(asof) >= 3
        truth = json.loads(result.ground_truth_path.read_text())
        for q in freshness:
            assert truth["topics"][q["topic"]]["event_ids"]
        for q in asof:
            cutoff = coerce_timestamp(q["cutoff"])
            assert cutoff < STREAM_NOW

    def test_config_pins_now_and_k(self, generated):
        _, result = generated
        config = json.loads(result.eval_config_path.read_text())
        assert coerce_timestamp(config["now"]) == STREAM_NOW
        assert config["top_k"] == 10
        assert config["alphas"] == [0.4, 0.5, 0.7, 0.9, 0.95]
