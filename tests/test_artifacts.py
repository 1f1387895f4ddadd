"""Artifact formats and how they reach disk: exact record layouts and whole-or-nothing writes."""

from __future__ import annotations

import hashlib
from datetime import datetime, timezone

import numpy as np
import pytest

from temporal_memory import cli
from temporal_memory.embedding import VectorStore, group_rows, write_vector_file
from temporal_memory.evaluation import EvalReport
from temporal_memory.events import Event, EventStore, WeekKey, load_events_jsonl, write_events_jsonl
from temporal_memory.retrieval import RankedHit
from temporal_memory.tracking import TrendRecord, WeekCluster, write_clusters_csv

from conftest import corpus_events, events_jsonl_line, store_of


class TestRecordLayouts:
    def test_event_json_line(self, tmp_path):
        event = Event(
            event_id="ev-1",
            ts=datetime(2025, 3, 4, 5, 6, 7, 890123, tzinfo=timezone.utc),
            product="okta",
            event_type="auth_fail",
            asset_id="idp-01",
            msg='Anmeldung für Jörg — blockiert "x"',
            context={"zone": "eu-west", "weight": "1.5"},
            tech=("T1110",),
            attack=("credential access", "brute force"),
            text_repr="okta | auth_fail | idp-01 | Anmeldung für Jörg",
        )
        assert events_jsonl_line(event, tmp_path / "events.jsonl") == (
            '{"event_id":"ev-1","ts":"2025-03-04T05:06:07.890123+00:00","product":"okta",'
            '"event_type":"auth_fail","asset_id":"idp-01","msg":"Anmeldung für Jörg — blockiert \\"x\\"",'
            '"context":{"zone":"eu-west","weight":"1.5"},"tech":["T1110"],'
            '"attack":["credential access","brute force"],"risk_tag":[],'
            '"text_repr":"okta | auth_fail | idp-01 | Anmeldung für Jörg"}'
        )

    def test_ranked_hit_json_line(self):
        hit = RankedHit(
            event_id="ev-1",
            ts=datetime(2025, 3, 4, 5, 6, 7, tzinfo=timezone.utc),
            cosine_sim=0.125,
            age_days=1.5,
            recency_weight=0.9286044319783223,
            fused=0.3660813295934967,
        )
        assert hit.to_json() == (
            '{"event_id":"ev-1","ts":"2025-03-04T05:06:07+00:00","cosine_sim":0.125,"age_days":1.5,'
            '"recency_weight":0.9286044319783223,"fused":0.3660813295934967}'
        )

    def test_eval_report_dict(self):
        query = {"query": "q", "type": "as_of", "cutoff": "2025-05-01", "asof_correctness": 1.0}
        report = EvalReport(
            trend_macro_f1=0.25,
            per_class={"growth": {"tp": 1, "fp": 0, "fn": 1, "f1": 0.5}},
            asof_correctness=1.0,
            latest_set_at_10={"fused": 1.0, "cosine_only": 0.0},
            sensitivity={0.4: 1.0, 0.95: 0.0},
            per_week_k={"2025-W14": 3},
            query_results=[query],
        )
        out = report.to_dict()
        assert out == {
            "trend_macro_f1": 0.25,
            "per_class": {"growth": {"tp": 1, "fp": 0, "fn": 1, "f1": 0.5}},
            "asof_correctness": 1.0,
            "latest_set_at_10": {"fused": 1.0, "cosine_only": 0.0},
            "sensitivity": {"0.4": 1.0, "0.95": 0.0},
            "per_week_k": {"2025-W14": 3},
            "query_results": [query],
        }
        assert list(out) == [
            "trend_macro_f1", "per_class", "asof_correctness", "latest_set_at_10",
            "sensitivity", "per_week_k", "query_results",
        ]


# sha256 of the seed-7 artifacts that no host's BLAS can change: the logs and
# the store are pure Python, and each hash vector is integer bucket counts whose
# sum of squares is exact in float32, then a correctly rounded sqrt, division
# and float16 cast. The results/ files pass through k-means matrix products.
SEED_7_DIGESTS = {
    "logs/eval.json": "a1c5152e02d84d4dad562f7af4139afcfafc1fb4651a0e53c22d18875743e22a",
    "logs/events-2025-W14.jsonl": "9d7478bfddc5e8c6056bc51d61b40d5a295260b0c09db11c0f0f81f22c1ac51a",
    "logs/events-2025-W15.jsonl": "bb13616215f8d318f895730bc3475be1b2139d2585da8483dcc2c8dd590889a5",
    "logs/events-2025-W16.jsonl": "8773c10cdfe15f26f741fca829344f8b4787e2e799d4f7c87436a4667c02e670",
    "logs/events-2025-W17.jsonl": "c4260d74aec0b4438b5bed83560ca2dbcec1f50e00ac8da7cfa39ae05cd59dc5",
    "logs/events-2025-W18.jsonl": "85381ba64eac4095dabb8f230b9404ad13debec1546a5104d2e0ff070206479b",
    "logs/events-2025-W19.jsonl": "d337d0ae36038dc95a6fc8fe879e4faa1b70d3ab5a8994f347d0c8988c42964a",
    "logs/events-2025-W20.jsonl": "a80c551a4ed02366f94392b8b11771350e80d329e99b8eb5b799dfafe97eb7eb",
    "logs/events-2025-W21.jsonl": "9745bb7572b5cb39207b5792cb85efbacd2658c436dfa761201687f814af4d98",
    "logs/events-2025-W22.jsonl": "22b2d0ff3a21a8adc707fd6aaae2a1feee2f558c2efc9ab7206ce29f41c154ab",
    "logs/events-2025-W23.jsonl": "4b4334c0e2c4fb8d643742cb348d412bfd44a1a971ac6a7e377628f2d9051681",
    "logs/events-2025-W24.jsonl": "963df93c9c008a3e7aad08a8d18afcfcd8e83d8acb23196e5558566a29f3a568",
    "logs/events-2025-W25.jsonl": "5fad65be8ffbbf679aa5ba53294cc07164fc454b3e3d3538daf70d13feca9bc7",
    "logs/events-2025-W26.jsonl": "d0cf6484bb3ddb0f64b1acbb0c6a391bd4e14422cbfbae973aa9e43652c677fd",
    "logs/ground_truth.json": "ec0336e6620867518945fc44d560f7465c8f8f9ba40da00470a6d376133e31ad",
    "data/events.jsonl": "7ad93b9d0518687c110caf45b7d115a71f69aa465a70fbff3db349475b778fe7",
    "data/manifest.json": "3d74abcbea2e94975f1684f27af11e59f99a9c131eacf334215a1a2b71f034fd",
    "data/vectors.tmv": "8d2c80eaa657adaef75bc52ca6947ff8c230a62c6636097693f9ebdfee908d16",
}


def test_seed_7_artifact_digests(pipeline_ws):
    digests = {rel: hashlib.sha256((pipeline_ws / rel).read_bytes()).hexdigest() for rel in SEED_7_DIGESTS}
    assert digests == SEED_7_DIGESTS


# The same files for seed 11, which gen, ingest and embed alone write.
SEED_11_DIGESTS = {
    "logs/eval.json": "a1c5152e02d84d4dad562f7af4139afcfafc1fb4651a0e53c22d18875743e22a",
    "logs/events-2025-W14.jsonl": "ecae8e33884ccec68bd867ec94b8866c59b68bc2ce72c953772d1f166a769262",
    "logs/events-2025-W15.jsonl": "0ca2d70c3d49de743c43a2e88248b86b4ea230c316d2f1dc68ec6c80fdce5009",
    "logs/events-2025-W16.jsonl": "1f3ed46e9952b4d5a03ad4f55af1b120ac9d310fd77f5eb944050706d2f87d00",
    "logs/events-2025-W17.jsonl": "213763d94463c7feaa5a07407fb1693818952a70d00d44408e6f28b5f76b8f25",
    "logs/events-2025-W18.jsonl": "d7cc6224d09c95aefad86a1bf3841c77679d10f8a6501e9aab4075c2bd823e8b",
    "logs/events-2025-W19.jsonl": "49cdd9afe1d1fd34974595f748e3c8719d1b2de842fa602007d92bc3ff71d0ab",
    "logs/events-2025-W20.jsonl": "e1b604126a856ce67f5b8bea2fdc0b2fd37c63256e876d7e8188f549c6d78836",
    "logs/events-2025-W21.jsonl": "ae71ad3ac25cfc249dcba78f0c5cf409310907efc86d317543e2bf66a7df020c",
    "logs/events-2025-W22.jsonl": "7c691b4a696d01b0ad382929ede0b6047f994c625404a2b123ff4e29a3390169",
    "logs/events-2025-W23.jsonl": "5bb24ec9edbf040153bbb614b9029e6460df029fe9917e894cd80f9d0fc7b51b",
    "logs/events-2025-W24.jsonl": "4ed969a646a95ca0d2a589393522f2e2b3e8ea8d5e2d6770252e5c6148b842d1",
    "logs/events-2025-W25.jsonl": "5c45d5e5a298a7a28193bd2ae9ec32a5ff781e3759ac21c1a68bf572264e29d1",
    "logs/events-2025-W26.jsonl": "1b597b2ebf36c11eb69a862b57729086647ee732abfe0ed77caaf620191d6f4d",
    "logs/ground_truth.json": "4fb77baa55b6192d3757983d6fb9903b20bdef1cd742b9eee44a3fae4c53b162",
    "data/events.jsonl": "5d2f3da44eb943d6fe8fc3ae799be8a769b81550e78bdb4e94baaaba4caf478b",
    "data/manifest.json": "3d74abcbea2e94975f1684f27af11e59f99a9c131eacf334215a1a2b71f034fd",
    "data/vectors.tmv": "0b74d7becb75a344bab9720aadccf0817676bf0dff5ce0edb94876687cba961e",
}


def test_seed_11_artifact_digests(tmp_path):
    for argv in (["gen", "--seed", "11"], ["ingest"], ["embed"]):
        assert cli.main(["--workspace", str(tmp_path), *argv]) == 0
    digests = {rel: hashlib.sha256((tmp_path / rel).read_bytes()).hexdigest() for rel in SEED_11_DIGESTS}
    assert digests == SEED_11_DIGESTS


def _events_failing_midway(path):
    events = list(store_of(corpus_events()))
    bad = Event(event_id=events[3].event_id, ts=events[3].ts, context={"x": object()})
    write_events_jsonl(EventStore(events=tuple(events[:3] + [bad] + events[4:])), path)


def _vectors_failing_midway(path):
    ids = ("ev-0", "ev-1", 2)  # the third id cannot be encoded
    vectors = np.ones((3, 4), dtype=np.float16)
    write_vector_file(VectorStore(4, ids, *group_rows(vectors), ts_us=np.arange(3), events_sha256="0" * 64), path)


def _clusters_failing_midway(path):
    week = WeekKey(2025, 14)
    clusters = [WeekCluster(week, c, (f"ev-{c}",), np.ones(4, dtype=np.float32)) for c in range(3)]
    trends = [TrendRecord(week, c, "emergence", 1) for c in range(2)]  # cluster 2 has none
    write_clusters_csv(clusters, trends, path)


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "write_failing", [_events_failing_midway, _vectors_failing_midway, _clusters_failing_midway]
    )
    def test_failed_write_keeps_the_previous_file(self, tmp_path, write_failing):
        path = tmp_path / "artifact"
        path.write_bytes(b"previous contents\n")
        with pytest.raises((TypeError, AttributeError, KeyError)):
            write_failing(path)
        assert path.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_successful_write_replaces_the_file(self, tmp_path):
        store = store_of(corpus_events())
        path = tmp_path / "events.jsonl"
        path.write_text("stale\n", encoding="utf-8")
        write_events_jsonl(store, path)
        assert tuple(load_events_jsonl(path)) == tuple(store)
        assert [p.name for p in tmp_path.iterdir()] == ["events.jsonl"]

    def test_pipeline_workspace_holds_only_its_artifacts(self, pipeline_ws):
        files = sorted(str(p.relative_to(pipeline_ws)) for p in pipeline_ws.rglob("*") if p.is_file())
        results = ["clusters_weekly.csv", "eval_report.json", "eval_report.md", "trends_summary.csv"]
        results += [f"run_{cmd}.json" for cmd in ("embed", "eval", "gen", "ingest", "trends")]
        assert files == sorted(
            [".tmem.lock", *SEED_7_DIGESTS, *(f"results/{name}" for name in results)]
        )
