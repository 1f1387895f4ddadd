"""Clustering, elbow selection, term summaries, cross-week matching, trend labels."""

from __future__ import annotations

import csv
import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from temporal_memory.embedding import HashEmbedder, encode_store, read_vector_file
from temporal_memory.events import WeekKey, from_epoch_us, load_events_jsonl
from temporal_memory import tracking
from temporal_memory.tracking import (
    TrendParams,
    WeekCluster,
    drift_of,
    kmeans,
    label_trend,
    match_weeks,
    per_week_k,
    period_of,
    select_k,
    top_terms_for,
    track,
    _kmeanspp_init,
    write_clusters_csv,
    write_trends_summary_csv,
)

from conftest import build_event, store_of


def unit_rows(raw: np.ndarray) -> np.ndarray:
    rows = np.asarray(raw, dtype=np.float32)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def blobs_on_sphere(centers: np.ndarray, per_blob: int, spread: float, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rows = []
    for center in centers:
        noise = rng.standard_normal((per_blob, centers.shape[1])).astype(np.float32) * spread
        rows.append(center + noise)
    return unit_rows(np.vstack(rows))


class TestKmeans:
    def test_single_cluster_centroid_is_normalized_mean(self):
        points = unit_rows(np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]]))
        assign, centers, _ = kmeans(points, 1, seed=3)
        assert set(assign) == {0}
        expected = points.mean(axis=0)
        expected /= np.linalg.norm(expected)
        assert np.allclose(centers[0], expected, atol=1e-6)

    def test_two_antipodal_groups_separate_exactly(self):
        base = np.zeros(8, dtype=np.float32)
        base[0] = 1.0
        group_a = blobs_on_sphere(base[None, :], 10, 0.05, seed=1)
        group_b = blobs_on_sphere(-base[None, :], 10, 0.05, seed=2)
        points = np.vstack([group_a, group_b])
        assign, _, _ = kmeans(points, 2, seed=7)
        assert len(set(assign[:10])) == 1
        assert len(set(assign[10:])) == 1
        assert assign[0] != assign[10]

    def test_same_seed_reproduces_assignments(self):
        rng = np.random.default_rng(5)
        points = unit_rows(rng.standard_normal((40, 16)))
        a1, c1, i1 = kmeans(points, 4, seed=11)
        a2, c2, i2 = kmeans(points, 4, seed=11)
        assert np.array_equal(a1, a2)
        assert np.array_equal(c1, c2)
        assert i1 == i2

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.eye(3, dtype=np.float32), 4)

    def test_every_cluster_non_empty_even_with_duplicates(self):
        points = np.tile(np.array([[1.0, 0.0]], dtype=np.float32), (10, 1))
        assign, _, inertia = kmeans(points, 3, seed=0)
        assert sorted(np.bincount(assign, minlength=3)) == [1, 1, 8]
        assert inertia == pytest.approx(masked_wcss(points, assign, 3), abs=WCSS_ROUNDING * len(points))

    def test_centroids_are_unit_norm(self):
        rng = np.random.default_rng(8)
        points = unit_rows(rng.standard_normal((30, 12)))
        _, centers, _ = kmeans(points, 3, seed=1)
        assert np.allclose(np.linalg.norm(centers, axis=1), 1.0, atol=1e-6)


def unit_member_means(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """The reference centroids: each cluster's members, masked out and averaged, then unit-normalized."""
    means = [points[assign == c].mean(axis=0) for c in range(k)]
    return np.array([(m / float(np.linalg.norm(m))).astype(np.float32) for m in means])


# Per point, the float32 squared distance |x|^2 + |c|^2 - 2 x.c of unit-scale rows rounds by a few eps
# (at most ~5 eps in a 3,000-fit sweep); a stolen point's stale distance would be ~1.
WCSS_ROUNDING = 16 * float(np.finfo(np.float32).eps)


def masked_wcss(points: np.ndarray, assign: np.ndarray, k: int) -> float:
    """The reference inertia: each cluster's members, masked out, summed squared distance to their mean."""
    total = 0.0
    for c in range(k):
        members = points[assign == c].astype(np.float64)
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def seeding(points: np.ndarray, k: int, seed: int) -> np.ndarray:
    return _kmeanspp_init(points, (points * points).sum(axis=1)[:, None], k, np.random.default_rng(seed))


class TestSeedingPrefix:
    """select_k seeds once at k_max and fits each k from the first k rows: exact only if this holds."""

    @pytest.mark.parametrize("points, seed", [
        *[(unit_rows(np.random.default_rng(100 + s).standard_normal((10 + 12 * s, 16))), s) for s in range(6)],
        (np.tile(np.array([[0.6, 0.8, 0.0]], dtype=np.float32), (12, 1)), 3),  # d2 sums to 0 after one draw
        (unit_rows(np.random.default_rng(4).standard_normal((3, 8)))[np.arange(40) % 3], 5),  # 3 distinct < k
    ], ids=[*(f"random-{s}" for s in range(6)), "all-identical", "three-distinct"])
    def test_prefix_of_the_largest_seeding_is_the_seeding_for_k(self, points, seed):
        full = seeding(points, 9, seed)
        for k in range(1, 10):
            assert full[:k].tobytes() == seeding(points, k, seed).tobytes(), k

    def test_select_k_fits_equal_self_seeded_fits(self, monkeypatch):
        points = TestPinnedFit.points()
        fits = []

        def recording(vectors, k, seed=tracking.DEFAULT_SEED, init=None, p2=None):
            result = kmeans(vectors, k, seed, init=init, p2=p2)
            fits.append((k, result))
            return result

        monkeypatch.setattr(tracking, "kmeans", recording)
        select_k(points, seed=42)
        assert [k for k, _ in fits] == list(range(1, 5))
        for k, (assign, centers, inertia) in fits:
            own = kmeans(points, k, seed=42)
            assert np.array_equal(assign, own[0]) and centers.tobytes() == own[1].tobytes() and inertia == own[2]


class TestCentroidsAreMemberMeans:
    """Centroids equal the unit-normalized mean of the final members, byte for byte, on every exit path."""

    def test_converged(self, caplog):
        points = blobs_on_sphere(unit_rows(np.eye(5, 384)), 25, 0.4, seed=9)
        for k in range(1, 8):
            with caplog.at_level(logging.WARNING, logger="temporal_memory"):
                assign, centers, _ = kmeans(points, k, seed=k)
            assert not caplog.records  # a fixpoint was reached
            assert centers.tobytes() == unit_member_means(points, assign, k).tobytes(), k

    def test_iteration_cap_hit(self, monkeypatch, caplog):
        monkeypatch.setattr(tracking, "MAX_KMEANS_ITER", 1)
        rng = np.random.default_rng(12)
        points = unit_rows(rng.standard_normal((200, 384)))
        with caplog.at_level(logging.WARNING, logger="temporal_memory"):
            assign, centers, _ = kmeans(points, 6, seed=1)
        [record] = caplog.records  # stopped at the cap, not at a fixpoint: one warning naming n and k
        assert record.name == "temporal_memory.tracking" and "n=200" in record.getMessage()
        assert "k=6" in record.getMessage()
        assert centers.tobytes() == unit_member_means(points, assign, 6).tobytes()

    def test_force_steal(self, caplog):
        # Five distinct positions cannot fill seven clusters: at the fixpoint some
        # are empty, and members are stolen from multi-member clusters.
        rng = np.random.default_rng(0)
        distinct = unit_rows(rng.standard_normal((3, 384)))
        points = np.vstack([distinct[[0, 0, 0, 1, 1, 2]], unit_rows(rng.standard_normal((2, 384)))])
        with caplog.at_level(logging.WARNING, logger="temporal_memory"):
            assign, centers, inertia = kmeans(points, 7, seed=0)
        assert not caplog.records
        assert sorted(np.bincount(assign, minlength=7)) == [1, 1, 1, 1, 1, 1, 2]
        assert centers.tobytes() == unit_member_means(points, assign, 7).tobytes()
        assert inertia == pytest.approx(masked_wcss(points, assign, 7), abs=WCSS_ROUNDING * len(points))

    @pytest.mark.parametrize("k", [3, 4])
    def test_fewer_distinct_points_than_k(self, k, caplog):
        # Two distinct positions cannot fill k clusters: Lloyd reaches a fixpoint
        # with empty clusters (no cycle to the iteration cap), and the force-steal fills them.
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((2, 384))  # normalized in float64: these rows cycle if Lloyd refills empty clusters
        base = (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)
        points = base[rng.integers(0, 2, 50)]
        with caplog.at_level(logging.WARNING, logger="temporal_memory"):
            assign, centers, inertia = kmeans(points, k, seed=0)
        assert not caplog.records
        assert (np.bincount(assign, minlength=k) > 0).all()
        assert centers.tobytes() == unit_member_means(points, assign, k).tobytes()
        assert inertia == pytest.approx(masked_wcss(points, assign, k), abs=WCSS_ROUNDING * len(points))


class TestPinnedFit:
    """Assignments, inertia and elbow k on one fixed input: any change to the k-means arithmetic shows."""

    @staticmethod
    def points() -> np.ndarray:
        rng = np.random.default_rng(2024)
        centers = rng.standard_normal((4, 6)).astype(np.float32)
        rows = np.vstack([c + 0.35 * rng.standard_normal((6, 6)).astype(np.float32) for c in centers])
        return unit_rows(rows)

    @pytest.mark.parametrize(("k", "assignments", "inertia"), [
        (4, [0] * 6 + [3] * 6 + [1] * 6 + [2] * 6, 1.8944730758666992),
        (5, [0, 0, 0, 4, 4, 0] + [3] * 6 + [1] * 6 + [2] * 6, 1.7917507886886597),
    ])
    def test_kmeans(self, k, assignments, inertia):
        assign, _, got = kmeans(self.points(), k, seed=42)
        assert assign.tolist() == assignments
        assert got == pytest.approx(inertia, rel=1e-6)

    def test_select_k(self):
        assert select_k(self.points(), seed=42) == 3


class TestSelectK:
    def test_three_well_separated_blobs(self):
        centers = unit_rows(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]))
        points = blobs_on_sphere(centers, 20, 0.03, seed=4)
        assert select_k(points, seed=42) == 3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fewer_than_four_points_degenerate(self, n):
        assert select_k(np.eye(n, dtype=np.float32), seed=1) == 1

    def test_identical_vectors_collapse_to_one(self):
        points = np.tile(np.array([[0.6, 0.8]], dtype=np.float32), (100, 1))
        assert select_k(points, seed=1) == 1

    def test_small_population_falls_back_to_one(self):
        rng = np.random.default_rng(2)
        assert select_k(unit_rows(rng.standard_normal((5, 6))), seed=1) == 1


class TestTopTerms:
    def test_uniform_cluster(self):
        assert top_terms_for(["okta auth_fail"] * 4) == ("auth_fail", "okta")

    def test_frequency_beats_rarity(self):
        texts = ["shared unique_a", "shared unique_b", "shared unique_c"]
        terms = top_terms_for(texts)
        assert terms[0] == "shared"

    def test_hand_counted_fixture(self):
        texts = [
            "okta | auth_fail | mfa denied for alice",
            "okta | auth_fail | mfa denied for bob",
            "okta | auth_fail | password blocked for carol",
            "okta | auth_fail | mfa push rejected by dave",
            "okta | auth_fail | login blocked for erin",
            "okta | auth_fail | mfa denied for frank",
            "okta | auth_fail | impossible travel flagged for grace",
            "okta | auth_fail | mfa denied for heidi",
            "okta | auth_fail | password blocked for alice",
            "okta | auth_fail | login flagged for bob",
        ]
        # df: auth_fail/okta 10, mfa 5, denied 4, blocked 3, then
        # alice/bob/flagged/login/password at 2 (lexicographic cut).
        assert top_terms_for(texts) == (
            "auth_fail", "okta", "mfa", "denied", "blocked", "alice", "bob", "flagged",
        )

    def test_stopwords_and_numbers_dropped(self):
        terms = top_terms_for(["the scan of 12345 was done by admin"] * 2)
        assert "the" not in terms and "of" not in terms and "12345" not in terms
        assert "scan" in terms

    def test_cap_at_eight(self):
        text = " ".join(f"tok{i}" for i in range(20))
        assert len(top_terms_for([text])) == 8

    @given(st.lists(
        st.lists(st.sampled_from(["okta", "auth_fail", "mfa", "scan", "s3", "the", "of", "42", "x1"]),
                 min_size=1, max_size=6).map(" ".join),
        min_size=1, max_size=5,
    ), st.lists(st.integers(0, 4), min_size=1, max_size=40))
    def test_repeated_texts_count_once_per_copy(self, pool, picks):
        texts = [pool[i % len(pool)] for i in picks]
        df: dict[str, int] = {}
        for text in texts:  # naive reference: one document per text, repeats included
            for token in set(text.split()):
                if token not in {"the", "of"} and not token.isdigit():
                    df[token] = df.get(token, 0) + 1
        expected = tuple(sorted(df, key=lambda t: (-df[t], t))[:8])
        assert top_terms_for(texts) == expected


def _cluster(week, cid, centroid, size) -> WeekCluster:
    return WeekCluster(
        week=week,
        cluster_id=cid,
        member_ids=tuple(f"{week}-{cid}-{i}" for i in range(size)),
        centroid=np.asarray(centroid, dtype=np.float32),
    )


def _dir(cos_to_e1: float, dim: int = 4) -> np.ndarray:
    vec = np.zeros(dim, dtype=np.float32)
    vec[0] = cos_to_e1
    vec[1] = np.sqrt(1.0 - cos_to_e1 * cos_to_e1)
    return vec


W1, W2 = WeekKey(2025, 14), WeekKey(2025, 15)
E1 = _dir(1.0)


class TestMatchWeeks:
    def test_identical_sets_map_identity(self):
        prev = [_cluster(W1, 0, E1, 5), _cluster(W1, 1, _dir(0.0), 5)]
        curr = [_cluster(W2, 0, E1, 5), _cluster(W2, 1, _dir(0.0), 5)]
        mapping = match_weeks(prev, curr, TrendParams())
        assert mapping == {0: (0, pytest.approx(1.0)), 1: (1, pytest.approx(1.0))}

    def test_tie_goes_to_lower_prev_id(self):
        shared = _dir(0.9)
        prev = [_cluster(W1, 0, shared, 5), _cluster(W1, 1, shared.copy(), 5)]
        curr = [_cluster(W2, 0, E1, 5)]
        mapping = match_weeks(prev, curr, TrendParams())
        assert mapping[0][0] == 0
        assert mapping[0][1] == pytest.approx(0.9, abs=1e-6)

    def test_all_below_threshold_is_empty(self):
        prev = [_cluster(W1, 0, _dir(0.3), 5)]
        curr = [_cluster(W2, 0, E1, 5)]
        assert match_weeks(prev, curr, TrendParams()) == {}

    def test_empty_prior_week(self):
        assert match_weeks([], [_cluster(W2, 0, E1, 5)], TrendParams()) == {}

    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
    def test_mapping_is_injective_both_ways(self, seed, n_prev, n_curr):
        rng = np.random.default_rng(seed)
        prev = [_cluster(W1, i, unit_rows(rng.standard_normal((1, 6)))[0], 3) for i in range(n_prev)]
        curr = [_cluster(W2, i, unit_rows(rng.standard_normal((1, 6)))[0], 3) for i in range(n_curr)]
        mapping = match_weeks(prev, curr, TrendParams())
        prev_ids = [pid for pid, _ in mapping.values()]
        assert len(prev_ids) == len(set(prev_ids))
        assert all(sim >= 0.5 for _, sim in mapping.values())


def _drifted(prev_centroid: np.ndarray, curr_centroid: np.ndarray) -> bool:
    return drift_of(prev_centroid, curr_centroid) >= TrendParams().drift_threshold


class TestLabelTrend:
    def test_doubled_cluster_is_growth(self):
        assert label_trend(40, 20, _drifted(E1, _dir(0.95)), TrendParams()) == "growth"

    def test_shrunken_cluster_is_decay(self):
        assert label_trend(40, 100, _drifted(E1, _dir(0.98)), TrendParams()) == "decay"

    def test_moved_centroid_is_drift(self):
        assert label_trend(32, 30, _drifted(E1, _dir(0.75)), TrendParams()) == "drift"

    def test_unmatched_is_emergence(self):
        assert label_trend(5, None, False, TrendParams()) == "emergence"

    def test_growth_needs_minimum_size(self):
        # doubled but under 30 events
        assert label_trend(20, 10, _drifted(E1, _dir(0.99)), TrendParams()) == "stable"

    def test_growth_takes_precedence_over_drift(self):
        # both growth and drift fire
        assert label_trend(40, 20, _drifted(E1, _dir(0.75)), TrendParams()) == "growth"


class TestTrendParams:
    @pytest.mark.parametrize("name", ["match_threshold", "growth_factor", "decay_factor", "drift_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, name, value):
        with pytest.raises(ValueError, match="finite"):
            TrendParams(**{name: value})

    @pytest.mark.parametrize("name, value, bound", [("match_threshold", 1.0000001, 1), ("match_threshold", 2, 1),
                                                    ("drift_threshold", 2.0000001, 2), ("drift_threshold", 5, 2)])
    def test_a_threshold_no_cosine_can_reach_is_rejected(self, name, value, bound):
        with pytest.raises(ValueError, match=f"^{name} must be <= {bound}, .*, got {value}$"):
            TrendParams(**{name: value})

    def test_the_highest_reachable_thresholds_are_accepted(self):
        params = TrendParams(match_threshold=1, drift_threshold=2)
        assert (params.match_threshold, params.drift_threshold) == (1, 2)

    @pytest.mark.parametrize("k", [True, 2.5, "3", 0])
    def test_k_must_be_a_positive_integer(self, k):
        with pytest.raises(ValueError, match="k must be"):
            TrendParams(k=k)

    def test_numpy_integer_k_accepted(self):
        assert TrendParams(k=np.int64(3)).k == 3

    @pytest.mark.parametrize("value", [True, 2.5, float("nan"), "30", -1])
    def test_growth_min_events_must_be_a_non_negative_integer(self, value):
        with pytest.raises(ValueError, match="growth_min_events must be"):
            TrendParams(growth_min_events=value)

    @pytest.mark.parametrize("value", [0, np.int64(5)])
    def test_growth_min_events_zero_and_numpy_integers_accepted(self, value):
        assert TrendParams(growth_min_events=value).growth_min_events == value


class TestDrift:
    def test_identical_centroids(self):
        assert drift_of(E1, E1) == pytest.approx(0.0)

    def test_orthogonal_centroids(self):
        assert drift_of(E1, _dir(0.0)) == pytest.approx(1.0)

    def test_quarter_drift_crosses_default_threshold(self):
        value = drift_of(E1, _dir(0.75))
        assert value == pytest.approx(0.25, abs=1e-6)
        assert value >= TrendParams().drift_threshold


def _fields(tracked):
    """A ``track`` result's clusters and trends as comparable values, each centroid as its bytes."""
    clusters, trends = tracked
    return [(c.week, c.cluster_id, c.member_ids, c.centroid.tobytes(), c.top_terms) for c in clusters], trends


def _small_two_week_store(gap: bool):
    """Six auth events in week one; six data events two weeks later when gap=True."""
    events = []
    second_week_day = "2025-04-15" if gap else "2025-04-08"
    for i in range(6):
        events.append(build_event(f"2025-04-01T0{i}:00:00Z", "okta", "auth_fail", msg=f"mfa denied {i}"))
        events.append(
            build_event(f"{second_week_day}T0{i}:00:00Z", "okta", "auth_fail", msg=f"mfa denied {i}")
        )
    store = store_of(events)
    return store, encode_store(store, HashEmbedder(dim=64))


class TestTrack:
    def test_single_week_is_all_emergence(self):
        events = [
            build_event(f"2025-04-0{d}T12:00:00Z", "okta", "auth_fail", msg=f"mfa denied {d}")
            for d in range(1, 7)
        ]
        store = store_of(events)
        _, trends = track(store, encode_store(store, HashEmbedder(dim=64)))
        assert trends and all(t.label == "emergence" for t in trends)

    def test_adjacent_weeks_link(self):
        store, vecs = _small_two_week_store(gap=False)
        _, trends = track(store, vecs)
        second = [t for t in trends if str(t.week) == "2025-W15"]
        assert second and all(t.label != "emergence" for t in second)

    def test_empty_week_breaks_the_chain(self):
        store, vecs = _small_two_week_store(gap=True)
        _, trends = track(store, vecs)
        later = [t for t in trends if str(t.week) == "2025-W16"]
        assert later and all(t.label == "emergence" for t in later)

    def test_partition_property_per_week(self):
        store, vecs = _small_two_week_store(gap=False)
        clusters, _ = track(store, vecs)
        for week in {str(c.week) for c in clusters}:
            sizes = sum(c.size for c in clusters if str(c.week) == week)
            count = sum(1 for e in store if str(period_of(e.ts)) == week)
            assert sizes == count

    def test_every_cluster_gets_exactly_one_label(self):
        store, vecs = _small_two_week_store(gap=False)
        clusters, trends = track(store, vecs)
        assert {(str(c.week), c.cluster_id) for c in clusters} == {
            (str(t.week), t.cluster_id) for t in trends
        }
        assert len(trends) == len(clusters)

    def test_fixed_k_is_honored(self):
        store, vecs = _small_two_week_store(gap=False)
        clusters, _ = track(store, vecs, TrendParams(k=2))
        assert per_week_k(clusters) == {"2025-W14": 2, "2025-W15": 2}

    def test_track_is_deterministic(self, tmp_path):
        store, vecs = _small_two_week_store(gap=False)
        outputs = []
        for name in ("a", "b"):
            clusters, trends = track(store, vecs, seed=42)
            c_path, t_path = tmp_path / f"{name}c.csv", tmp_path / f"{name}t.csv"
            write_clusters_csv(clusters, trends, c_path)
            write_trends_summary_csv(trends, t_path)
            outputs.append((c_path.read_bytes(), t_path.read_bytes()))
        assert outputs[0] == outputs[1]

    def test_a_second_call_reuses_each_texts_terms(self, pipeline_ws):
        store = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        tracking._counted_terms.cache_clear()
        first = track(store, vecs)
        assert tracking._counted_terms.cache_info().misses == len(store.texts)
        second = track(store, vecs)
        assert tracking._counted_terms.cache_info().misses == len(store.texts)
        assert _fields(first) == _fields(second)

    def test_drift_stays_within_match_bound(self, pipeline_ws):
        store = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        _, trends = track(store, vecs)
        matched = [t for t in trends if t.drift_value is not None]
        assert matched
        assert all(0.0 <= t.drift_value <= 0.5 + 1e-6 for t in matched)

    def test_scripted_volume_surge_gets_flagged_as_growth(self, pipeline_ws):
        store = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        truth = json.loads((pipeline_ws / "logs" / "ground_truth.json").read_text())
        auth_ids = set(truth["topics"]["okta-auth-fail"]["event_ids"])
        clusters, trends = track(store, vecs)
        label_by = {(str(t.week), t.cluster_id): t.label for t in trends}
        surge_weeks = {f"2025-W{w}" for w in range(17, 22)}  # stream weeks 4..8
        flagged = [
            c for c in clusters
            if str(c.week) in surge_weeks
            and len(auth_ids.intersection(c.member_ids)) > c.size / 2
            and label_by[(str(c.week), c.cluster_id)] == "growth"
        ]
        assert flagged  # the surge is visible to an operator even when labels are noisy



def _walk(stamps):
    """``track`` at k=1 over one event per stamp, all of one text, after checking
    that every cluster holds exactly the events whose ``period_of`` is its week."""
    store = store_of(
        build_event(ts, "okta", "auth_fail", msg="mfa denied", event_id=f"e{i}") for i, ts in enumerate(stamps)
    )
    clusters, trends = track(store, encode_store(store, HashEmbedder(dim=64)), TrendParams(k=1))
    week_of = {e.event_id: period_of(e.ts) for e in store}
    assert sorted(m for c in clusters for m in c.member_ids) == sorted(week_of)
    assert all(week_of[m] == c.week for c in clusters for m in c.member_ids)
    assert [(t.week, t.cluster_id) for t in trends] == [(c.week, c.cluster_id) for c in clusters]
    return clusters, trends


def _consecutive(earlier: WeekKey, later: WeekKey) -> bool:
    return (later.monday() - earlier.monday()).days == 7


class TestWeekWalk:
    """Weeks are found by ISO week number, and only consecutive weeks link."""

    @pytest.mark.parametrize(
        "stamps, weeks, linked",
        [
            (["2020-12-31T12:00:00Z", "2021-01-03T12:00:00Z", "2021-01-04T12:00:00Z"],
             ["2020-W53", "2021-W01"], [False, True]),
            (["2024-12-27T12:00:00Z", "2024-12-30T12:00:00Z", "2025-01-05T12:00:00Z"],
             ["2024-W52", "2025-W01"], [False, True]),
            (["1969-12-28T23:59:59.999999Z", "1969-12-29T00:00:00Z", "1969-12-31T23:59:59.999999Z",
              "1970-01-01T00:00:00Z", "1970-01-04T23:59:59.999999Z", "1970-01-05T00:00:00Z"],
             ["1969-W52", "1970-W01", "1970-W02"], [False, True, True]),
            (["2025-04-06T23:59:59.999999Z", "2025-04-07T00:00:00Z"], ["2025-W14", "2025-W15"], [False, True]),
            (["2025-04-01T12:00:00Z", "2025-04-15T12:00:00Z", "2025-04-22T12:00:00Z"],
             ["2025-W14", "2025-W16", "2025-W17"], [False, False, True]),
        ],
        ids=["iso-year-53-weeks", "iso-year-starts-in-december", "unix-epoch-week", "sunday-to-monday", "skipped-week"],
    )
    def test_weeks_and_links(self, stamps, weeks, linked):
        clusters, trends = _walk(stamps)
        assert [str(c.week) for c in clusters] == weeks
        assert [t.matched_prev_id is not None for t in trends] == linked
        assert all(t.label == "emergence" for t, link in zip(trends, linked) if not link)

    def test_the_epoch_week_starts_on_monday_before_the_epoch(self):
        clusters, _ = _walk(["1969-12-29T00:00:00Z", "1970-01-01T00:00:00Z"])
        assert [(str(c.week), c.size) for c in clusters] == [("1970-W01", 2)]
        assert clusters[0].week.monday().isoformat() == "1969-12-29T00:00:00+00:00"

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-400 * 86_400, 20_000 * 86_400), min_size=1, max_size=12, unique=True))
    def test_links_exactly_the_consecutive_weeks(self, seconds):
        stamps = [from_epoch_us(s * 1_000_000).isoformat() for s in seconds]
        clusters, trends = _walk(stamps)
        assert [c.week for c in clusters] == sorted({period_of(from_epoch_us(s * 1_000_000)) for s in seconds})
        for i, trend in enumerate(trends):
            assert (trend.matched_prev_id is not None) == (i > 0 and _consecutive(trends[i - 1].week, trend.week))


class TestCsvArtifacts:
    def test_clusters_csv_schema(self, tmp_path):
        store, vecs = _small_two_week_store(gap=False)
        clusters, trends = track(store, vecs)
        path = tmp_path / "clusters_weekly.csv"
        write_clusters_csv(clusters, trends, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        assert set(rows[0]) == {
            "week", "cluster_id", "size", "top_terms", "matched_prev_id", "match_sim", "drift", "label",
        }
        assert len(rows) == len(clusters)

    def test_summary_counts_every_label_per_week(self, tmp_path):
        store, vecs = _small_two_week_store(gap=False)
        clusters, trends = track(store, vecs)
        path = tmp_path / "trends_summary.csv"
        write_trends_summary_csv(trends, path)
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        weeks = {r["week"] for r in rows}
        assert len(rows) == len(weeks) * 5
        total = sum(int(r["count"]) for r in rows)
        assert total == len(clusters)
