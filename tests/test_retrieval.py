"""As-of filtering, fused scoring, and ranking against a brute-force oracle."""

from __future__ import annotations

import json
import math
import warnings
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from temporal_memory.embedding import HashEmbedder, VectorStore, encode_store, group_rows, read_vector_file
from temporal_memory.evaluation import latest_set_at_k
from temporal_memory.events import Event, EventStore, coerce_timestamp, epoch_us, parse_cutoff
from temporal_memory.retrieval import (
    MODES,
    SECONDS_PER_DAY,
    RankedHit,
    RetrievalParams,
    fused_score,
    rank,
    recency_weight,
)

from conftest import build_event, corpus_events, store_of

UTC = timezone.utc
NOW = datetime(2025, 6, 30, tzinfo=UTC)


def _age_of_hit(ts: datetime) -> float:
    """``age_days`` of the one hit a one-event store gives at NOW."""
    store = store_of([build_event(ts.isoformat(), "okta", "auth_fail")])
    vecs = encode_store(store, HashEmbedder(dim=64))
    (hit,) = rank(HashEmbedder(dim=64).embed("okta"), store, vecs, RetrievalParams(now=NOW))
    return hit.age_days


class TestAgeDays:
    def test_zero_age(self):
        assert _age_of_hit(NOW) == 0.0

    def test_thirty_six_hours(self):
        assert _age_of_hit(NOW - timedelta(hours=36)) == pytest.approx(1.5)

    def test_future_clamps_with_warning(self):
        with pytest.warns(UserWarning, match="clamped"):
            assert _age_of_hit(NOW + timedelta(hours=1)) == 0.0


class TestFusedScore:
    def test_maximal_both_terms(self):
        for alpha in (0.0, 0.3, 0.7, 1.0):
            params = RetrievalParams(alpha=alpha, half_life_days=14)
            assert fused_score(1.0, 0.0, params) == pytest.approx(1.0)

    def test_hand_computed_blend(self):
        params = RetrievalParams(alpha=0.7, half_life_days=14)
        assert fused_score(0.8, 14.0, params) == pytest.approx(0.71, abs=1e-12)

    def test_alpha_one_degenerates_to_cosine(self):
        params = RetrievalParams(alpha=1.0)
        for cos in (-0.5, 0.0, 0.25, 0.99):
            assert fused_score(cos, 37.0, params) == cos

    def test_half_life_halves_the_weight(self):
        assert recency_weight(14.0, 14.0) == pytest.approx(0.5)
        assert recency_weight(28.0, 14.0) == pytest.approx(0.25)

    # Strictness is asserted over gaps large enough to be representable next
    # to the other term; sub-ulp differences are below what float64 can carry.
    @given(
        cos=st.floats(-1, 1),
        age1=st.floats(0, 120),
        gap=st.floats(0.01, 50),
        alpha=st.floats(0, 0.99),
        h=st.floats(7, 30),
    )
    def test_older_never_scores_higher_at_fixed_cosine(self, cos, age1, gap, alpha, h):
        params = RetrievalParams(alpha=alpha, half_life_days=h)
        assert fused_score(cos, age1, params) > fused_score(cos, age1 + gap, params)

    @given(
        cos1=st.floats(-1, 1 - 1e-6),
        gap=st.floats(1e-6, 2),
        age=st.floats(0, 120),
        alpha=st.floats(0.01, 1),
        h=st.floats(7, 30),
    )
    def test_similarity_always_helps_at_fixed_age(self, cos1, gap, age, alpha, h):
        params = RetrievalParams(alpha=alpha, half_life_days=h)
        hi = min(1.0, cos1 + gap)
        assert fused_score(cos1, age, params) < fused_score(hi, age, params)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            RetrievalParams(alpha=1.2)
        with pytest.raises(ValueError):
            RetrievalParams(half_life_days=0)

    @pytest.mark.parametrize("top_k", [0, -1, 2.5, True, "10"])
    def test_top_k_must_be_a_positive_int(self, top_k):
        with pytest.raises(ValueError, match="top_k"):
            RetrievalParams(top_k=top_k)

    def test_numpy_integer_top_k_accepted(self):
        assert RetrievalParams(top_k=np.int64(3)).top_k == 3

    @pytest.mark.parametrize("half_life", [math.nan, math.inf, -1.0])
    def test_half_life_must_be_positive_and_finite(self, half_life):
        with pytest.raises(ValueError, match="half_life_days"):
            RetrievalParams(half_life_days=half_life)

    # numpy's vectorized power may differ from libm's pow in the last bit.
    def test_array_forms_match_scalar_forms(self):
        params = RetrievalParams(alpha=0.6, half_life_days=10)
        cos = np.array([0.9, -0.2, 0.5, 0.0])
        ages = np.array([0.0, 1.5, 14.0, 37.25])
        scalar = [fused_score(float(c), float(a), params) for c, a in zip(cos, ages)]
        assert fused_score(cos, ages, params).tolist() == pytest.approx(scalar, rel=1e-15)
        weights = [recency_weight(float(a), 10) for a in ages]
        assert recency_weight(ages, 10).tolist() == pytest.approx(weights, rel=1e-15)


@pytest.fixture(scope="module")
def indexed_corpus():
    store = store_of(corpus_events())
    vecs = encode_store(store, HashEmbedder(dim=384))
    return store, vecs


def _as_of(store, vecs, cutoff) -> list:
    """The hits ``rank`` keeps at ``cutoff`` when top_k covers the whole store."""
    q = HashEmbedder(dim=384).embed("okta auth_fail")
    return rank(q, store, vecs, RetrievalParams(top_k=len(store), now=NOW), as_of=cutoff)


class TestAsOfFilter:
    def test_cutoff_before_first_event_is_empty(self, indexed_corpus):
        store, vecs = indexed_corpus
        assert _as_of(store, vecs, store[0].ts - timedelta(seconds=1)) == []

    def test_cutoff_at_last_event_keeps_everything(self, indexed_corpus):
        store, vecs = indexed_corpus
        assert len(_as_of(store, vecs, store[-1].ts)) == len(store)

    def test_mid_stream_cutoff_matches_brute_force(self, indexed_corpus):
        store, vecs = indexed_corpus
        cutoff = store[len(store) // 2].ts
        expected = sorted(e.event_id for e in store if e.ts <= cutoff)
        assert sorted(h.event_id for h in _as_of(store, vecs, cutoff)) == expected

    @given(st.integers(0, 49))
    def test_every_survivor_is_on_or_before_cutoff(self, indexed_corpus, idx):
        store, vecs = indexed_corpus
        cutoff = store[idx].ts
        assert all(h.ts <= cutoff for h in _as_of(store, vecs, cutoff))


def brute_force_rank(query_vec, store, vecs, params, mode, as_of=None):
    """Independent oracle: pure-Python scoring and selection sort."""
    rows = [[float(x) for x in row] for row in vecs.float32()]
    qlist = [float(x) for x in query_vec]
    qnorm = math.sqrt(sum(x * x for x in qlist))
    snapshot = [(event, row) for event, row in zip(store, rows) if as_of is None or event.ts <= as_of]
    # With no now, ages are taken from the newest event in the snapshot.
    now = params.now if params.now is not None else max((event.ts for event, _ in snapshot), default=None)
    scored = []
    for event, row in snapshot:
        dot = sum(a * b for a, b in zip(qlist, row))
        norm = math.sqrt(sum(x * x for x in row))
        cos = dot / (norm * qnorm)
        age = max(0.0, (now - event.ts).total_seconds() / 86400.0)
        fused = params.alpha * cos + (1 - params.alpha) * 0.5 ** (age / params.half_life_days)
        scored.append((event.event_id, event.ts, cos, fused))
    picked = []
    remaining = list(scored)
    while remaining and len(picked) < params.top_k:
        best = remaining[0]
        for cand in remaining[1:]:
            b_score = best[3] if mode == "fused" else best[2]
            c_score = cand[3] if mode == "fused" else cand[2]
            if (c_score, cand[1], _neg_id(cand[0])) > (b_score, best[1], _neg_id(best[0])):
                best = cand
        picked.append(best)
        remaining.remove(best)
    return picked


def _neg_id(event_id: str):
    # invert lexicographic order so "greater" tuples mean "ranks earlier"
    return tuple(-b for b in event_id.encode())


def _cosines(query, rows) -> list[float]:
    """rank's cosine_only similarity of ``query`` to each float16 row, in row order."""
    rows = np.array(rows, dtype=np.float16)
    store = store_of(Event(event_id=f"e{i:02d}", ts=NOW - timedelta(days=i)) for i in range(len(rows)))
    vecs = VectorStore(rows.shape[1], store.event_ids, *group_rows(rows[::-1]))
    hits = rank(np.asarray(query, dtype=np.float32), store, vecs,
                RetrievalParams(now=NOW, top_k=len(rows)), mode="cosine_only")
    cos_of = {hit.event_id: hit.cosine_sim for hit in hits}
    return [cos_of[f"e{i:02d}"] for i in range(len(rows))]


class TestRank:
    def test_equal_cosine_newer_wins_under_fused(self):
        old = datetime(2025, 4, 1, tzinfo=UTC)
        new = datetime(2025, 6, 1, tzinfo=UTC)
        events = []
        from conftest import build_event

        events.append(build_event(old.isoformat(), "okta", "auth_fail", msg="mfa denied"))
        events.append(build_event(new.isoformat(), "okta", "auth_fail", msg="mfa denied"))
        store = store_of(events)
        vecs = encode_store(store, HashEmbedder(dim=64))
        params = RetrievalParams(alpha=0.7, now=NOW, top_k=5)
        hits = rank(HashEmbedder(dim=64).embed("okta auth_fail mfa denied"), store, vecs, params)
        assert hits[0].ts == new
        assert hits[0].cosine_sim == pytest.approx(hits[1].cosine_sim)

    def test_a_top_10_rank_over_of_timeline_builds_at_most_10_events(self, pipeline_ws, monkeypatch):
        built = []

        class CountedEvent(Event):
            def __init__(self, *args, **kwargs):
                built.append(args[0] if args else kwargs["event_id"])
                super().__init__(*args, **kwargs)

        vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        monkeypatch.setattr("temporal_memory.events.Event", CountedEvent)
        store = EventStore.of_timeline(vecs.ids, vecs.ts_us)
        query = HashEmbedder(dim=vecs.dim).embed("okta auth_fail mfa denied")
        hits = rank(query, store, vecs, RetrievalParams(now=NOW, top_k=10))
        assert len(hits) == 10 and len(store) > 1000
        assert len(built) <= 10 and set(built) <= {hit.event_id for hit in hits}

    def test_alpha_one_equals_cosine_only(self, indexed_corpus):
        store, vecs = indexed_corpus
        rng = np.random.default_rng(17)
        params = RetrievalParams(alpha=1.0, now=NOW, top_k=len(store))
        for _ in range(20):
            q = rng.standard_normal(384).astype(np.float32)
            q /= np.linalg.norm(q)
            fused_ids = [h.event_id for h in rank(q, store, vecs, params, mode="fused")]
            cos_ids = [h.event_id for h in rank(q, store, vecs, params, mode="cosine_only")]
            assert fused_ids == cos_ids

    def test_matches_brute_force_oracle(self, indexed_corpus):
        store, vecs = indexed_corpus
        embedder = HashEmbedder(dim=384)
        params = RetrievalParams(alpha=0.7, half_life_days=14, top_k=10, now=NOW)
        for text in ("okta auth_fail mfa challenge denied for alice",
                     "bulk read from s3 bucket finance-data",
                     "gateway certificate expiring soon"):
            q = embedder.embed(text)
            for mode in ("fused", "cosine_only"):
                hits = rank(q, store, vecs, params, mode=mode)
                oracle = brute_force_rank(q, store, vecs, params, mode)
                assert [h.event_id for h in hits] == [o[0] for o in oracle]
                for hit, (eid, ts, cos, fused) in zip(hits, oracle):
                    assert hit.cosine_sim == pytest.approx(cos, abs=1e-5)
                    assert hit.fused == pytest.approx(fused, abs=1e-5)

    def test_oracle_agreement_under_as_of(self, indexed_corpus):
        store, vecs = indexed_corpus
        cutoff = store[30].ts
        params = RetrievalParams(alpha=0.7, now=NOW, top_k=10)
        q = HashEmbedder(dim=384).embed("scan completed on subnet")
        hits = rank(q, store, vecs, params, as_of=cutoff)
        oracle = brute_force_rank(q, store, vecs, params, "fused", as_of=cutoff)
        assert [h.event_id for h in hits] == [o[0] for o in oracle]
        assert all(h.ts <= cutoff for h in hits)

    def test_hit_fields_satisfy_their_definitions(self, indexed_corpus):
        store, vecs = indexed_corpus
        params = RetrievalParams(alpha=0.7, half_life_days=14, now=NOW, top_k=10)
        hits = rank(HashEmbedder(dim=384).embed("okta auth_fail"), store, vecs, params)
        for hit in hits:
            assert hit.recency_weight == 0.5 ** (hit.age_days / 14)
            assert hit.fused == 0.7 * hit.cosine_sim + 0.3 * hit.recency_weight
            assert hit.age_days >= 0

    def test_empty_result_when_cutoff_precedes_stream(self, indexed_corpus):
        store, vecs = indexed_corpus
        cutoff = store[0].ts - timedelta(days=1)
        q = HashEmbedder(dim=384).embed("anything")
        assert rank(q, store, vecs, RetrievalParams(now=NOW), as_of=cutoff) == []

    def test_cosine_of_a_row_with_itself_is_one(self):
        row = HashEmbedder().embed("any text at all").astype(np.float16)
        assert _cosines(row, [row]) == [pytest.approx(1.0, abs=1e-6)]

    def test_orthogonal_rows_score_cosine_zero(self):
        assert _cosines([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]]) == [1.0, 0.0]

    def test_row_at_45_degrees_scores_cosine_sqrt_half(self):
        r = 2**0.5 / 2
        assert _cosines([1.0, 0.0], [[r, r]]) == [pytest.approx(0.7071, abs=1e-4)]

    def test_dim_mismatch_rejected(self, indexed_corpus):
        store, vecs = indexed_corpus
        with pytest.raises(ValueError):
            rank(np.ones(7, dtype=np.float32), store, vecs)

    def test_zero_query_rejected(self, indexed_corpus):
        store, vecs = indexed_corpus
        with pytest.raises(ValueError):
            rank(np.zeros(384, dtype=np.float32), store, vecs)

    def test_bad_mode_rejected(self, indexed_corpus):
        store, vecs = indexed_corpus
        with pytest.raises(ValueError):
            rank(np.ones(384, dtype=np.float32), store, vecs, mode="hybrid")

    def test_future_events_warn_and_clamp(self, indexed_corpus):
        store, vecs = indexed_corpus
        early_now = store[10].ts  # later events are "future" from here
        params = RetrievalParams(now=early_now, top_k=len(store))
        with pytest.warns(UserWarning, match="clamped"):
            hits = rank(HashEmbedder(dim=384).embed("okta"), store, vecs, params)
        assert all(h.age_days >= 0 for h in hits)

    def test_top_k_truncates(self, indexed_corpus):
        store, vecs = indexed_corpus
        q = HashEmbedder(dim=384).embed("okta auth_fail")
        assert len(rank(q, store, vecs, RetrievalParams(top_k=3, now=NOW))) == 3

    def test_top_k_at_or_above_candidates_returns_all_in_order(self, indexed_corpus):
        store, vecs = indexed_corpus
        cutoff = store[20].ts
        n = sum(e.ts <= cutoff for e in store)
        q = HashEmbedder(dim=384).embed("okta auth_fail mfa challenge denied")
        for k in (n, n + 1, 10 * n):
            params = RetrievalParams(now=NOW, top_k=k)
            for mode in MODES:
                hits = rank(q, store, vecs, params, mode=mode, as_of=cutoff)
                oracle = brute_force_rank(q, store, vecs, params, mode, as_of=cutoff)
                assert len(hits) == n
                assert [h.event_id for h in hits] == [o[0] for o in oracle]

    def test_identical_vectors_score_bit_identically(self):
        # One message at 303 instants: every event has the same vector, so
        # every score must be the same float wherever the event sits in the
        # store (a BLAS matrix-vector product may sum its last few rows in
        # another order than the rest, so 303 is deliberately not a multiple of 4).
        start = datetime(2025, 1, 1, tzinfo=UTC)
        store = store_of(
            build_event((start + timedelta(hours=h)).isoformat(), "okta", "auth_fail", msg="mfa push denied for admin")
            for h in range(303)
        )
        vecs = encode_store(store, HashEmbedder(dim=384))
        rng = np.random.default_rng(5)
        params = RetrievalParams(now=NOW, top_k=len(store))
        for _ in range(20):
            q = rng.standard_normal(384).astype(np.float32)
            hits = rank(q, store, vecs, params, mode="cosine_only")
            assert len({h.cosine_sim for h in hits}) == 1
            assert [h.event_id for h in hits] == [e.event_id for e in reversed(store)]

    def test_as_of_equal_to_an_event_ts_is_inclusive(self, indexed_corpus):
        store, vecs = indexed_corpus
        target = store[17]
        q = HashEmbedder(dim=384).embed("anything")
        params = RetrievalParams(now=NOW, top_k=len(store))
        hits = rank(q, store, vecs, params, as_of=target.ts)
        assert target.event_id in {h.event_id for h in hits}
        assert len(hits) == sum(1 for e in store if e.ts <= target.ts)
        earlier = rank(q, store, vecs, params, as_of=target.ts - timedelta(microseconds=1))
        assert target.event_id not in {h.event_id for h in earlier}

    def test_out_of_order_store_rejected(self):
        older = build_event("2025-05-01T00:00:00Z", "okta", "auth_fail", msg="first")
        newer = build_event("2025-05-02T00:00:00Z", "okta", "auth_fail", msg="second")
        with pytest.raises(ValueError, match="not sorted"):
            EventStore(events=(newer, older))

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_zero_or_non_finite_vector_row_rejected(self, indexed_corpus, bad):
        # rank scores no such row: a VectorStore holding one cannot be built.
        _, vecs = indexed_corpus
        rows = vecs.vectors.copy()
        rows[3] = 0.0
        rows[3, 0] = bad
        with pytest.raises(ValueError, match=f"^vector for {vecs.ids[3]} has .*; cosine is undefined$"):
            VectorStore(vecs.dim, vecs.ids, *group_rows(rows))

    @pytest.mark.parametrize("component, value", [(5, np.nan), (5, np.inf), (slice(None), 3e19)],
                             ids=["nan", "inf", "squared-norm-overflows"])
    def test_non_finite_query_rejected(self, indexed_corpus, component, value):
        store, vecs = indexed_corpus
        q = np.ones(384, dtype=np.float32)
        q[component] = value
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="norm"):
            rank(q, store, vecs, RetrievalParams(now=NOW))


# Small integer-valued vectors: float32 dot products and squared norms are
# exact, so rows with equal (dot, squared norm) score bit-identically in
# rank and in the oracle, and exact ties are ties in both.
_int_vecs = st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any)


@given(_int_vecs, _int_vecs)
def test_rank_cosine_is_symmetric_in_query_and_row(a, b):
    assert _cosines(a, [b]) == _cosines(b, [a])


@st.composite
def tie_stores(draw, vectors=_int_vecs, max_pool=3, future_minutes=0, max_instants=4, max_groups=6, max_copies=3):
    """A store of tie groups: one vector at one instant under 1 to ``max_copies`` distinct ids.

    Instants lie up to 30 days before NOW and up to ``future_minutes`` after it.
    """
    pool = draw(st.lists(vectors, min_size=1, max_size=max_pool))
    minutes_before_now = draw(st.lists(
        st.integers(-future_minutes, 60 * 24 * 30), min_size=1, max_size=max_instants, unique=True))
    groups = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.sampled_from(minutes_before_now), st.integers(1, max_copies)),
        min_size=1, max_size=max_groups,
    ))
    ids = iter(draw(st.permutations([f"e{i:02d}" for i in range(sum(g[2] for g in groups))])))
    events, row_of = [], {}
    for vec, minutes, copies in groups:
        for _ in range(copies):
            event_id = next(ids)
            events.append(Event(event_id=event_id, ts=NOW - timedelta(minutes=minutes)))
            row_of[event_id] = pool[vec]
    store = store_of(events)
    rows = np.array([row_of[e.event_id] for e in store], dtype=np.float16)
    return store, VectorStore(4, store.event_ids, *group_rows(rows))


@pytest.mark.parametrize("mode", MODES)
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_rank_matches_oracle_under_exact_ties(mode, data):
    store, vecs = data.draw(tie_stores())
    query = np.array(data.draw(_int_vecs), dtype=np.float32)
    as_of = data.draw(st.sampled_from([None] + sorted({e.ts for e in store})))

    full = brute_force_rank(query, store, vecs, RetrievalParams(now=NOW, top_k=len(store)), mode, as_of)
    row_of = {event_id: row for event_id, row in zip(vecs.ids, vecs.vectors.astype(int).tolist())}

    def tie_key(entry):
        row = row_of[entry[0]]
        exact = (int(np.dot(row, query.astype(int))), sum(x * x for x in row))
        return exact + ((entry[1],) if mode == "fused" else ())

    def score(entry):
        return entry[3] if mode == "fused" else entry[2]

    # Rows that tie only approximately may order differently under float32.
    for i, a in enumerate(full):
        for b in full[i + 1:]:
            assume(tie_key(a) == tie_key(b) or abs(score(a) - score(b)) >= 1e-6)

    # top_k just below, at and just above every tie-group boundary.
    ends = [i + 1 for i in range(len(full)) if i + 1 == len(full) or tie_key(full[i]) != tie_key(full[i + 1])]
    top_k = data.draw(st.sampled_from(sorted({k for end in ends for k in (end - 1, end, end + 1) if k >= 1})))

    params = RetrievalParams(now=NOW, top_k=top_k)
    hits = rank(query, store, vecs, params, mode=mode, as_of=as_of)
    assert [h.event_id for h in hits] == [o[0] for o in full[:top_k]]


def full_rank(query_vec, store, vecs, params, mode="fused", as_of=None):
    """Reference: score every event of the as-of snapshot, then select and sort.

    This is ``rank`` without its row bound, computing each field with the
    same numpy operations over the whole snapshot; the bounded ``rank`` must
    return exactly these hits, float for float.
    """
    query = np.asarray(query_vec, dtype=np.float32)
    qnorm = float(np.linalg.norm(query))
    n = len(store) if as_of is None else int(np.searchsorted(store.ts_us, epoch_us(as_of), side="right"))
    if n == 0:
        return []
    ts_us = store.ts_us[:n]
    rows, norms = vecs.scoring
    cos = ((rows @ query) / (norms * qnorm))[vecs.index[:n]]
    now_us = epoch_us(params.now) if params.now is not None else int(ts_us[-1])  # None = the newest event
    ages = (now_us - ts_us) / 1e6 / SECONDS_PER_DAY
    future = int((ages < 0).sum())
    if future:
        warnings.warn(f"{future} future-dated events clamped to age 0", stacklevel=2)
        np.maximum(ages, 0.0, out=ages)
    weights = recency_weight(ages, params.half_life_days)
    fused = params.alpha * cos.astype(np.float64) + (1.0 - params.alpha) * weights
    score = fused if mode == "fused" else cos
    k = min(params.top_k, n)
    kth = np.partition(score, n - k)[n - k]
    cand = np.flatnonzero(score >= kth)
    top = cand[np.lexsort((cand, -ts_us[cand], -score[cand]))][:k]
    return [
        RankedHit(
            event_id=store[i].event_id,
            ts=store[i].ts,
            cosine_sim=float(cos[i]),
            age_days=float(ages[i]),
            recency_weight=float(weights[i]),
            fused=float(fused[i]),
        )
        for i in top
    ]


def assert_rank_is_full_rank(query, store, vecs, params, mode, as_of=None):
    """``rank`` and ``full_rank`` give the same hits, the same JSON and the same warnings."""
    with warnings.catch_warnings(record=True) as got:
        warnings.simplefilter("always")
        hits = rank(query, store, vecs, params, mode=mode, as_of=as_of)
    with warnings.catch_warnings(record=True) as want:
        warnings.simplefilter("always")
        reference = full_rank(query, store, vecs, params, mode, as_of)
    assert hits == reference
    assert [h.to_json() for h in hits] == [h.to_json() for h in reference]
    assert [str(w.message) for w in got] == [str(w.message) for w in want]


_any_vecs = st.one_of(_int_vecs, st.lists(st.floats(-4, 4, width=16), min_size=4, max_size=4).filter(any))


@pytest.mark.parametrize("mode", MODES)
@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_rank_equals_full_rank(mode, data):
    # Few vectors with many holders, tie groups, future-dated events, and
    # cutoffs that leave some vectors held only after the cut.
    store, vecs = data.draw(tie_stores(
        _any_vecs, max_pool=4, future_minutes=3 * 24 * 60, max_instants=6, max_groups=10, max_copies=4))
    query = np.array(data.draw(_any_vecs), dtype=np.float32)
    instants = sorted({e.ts for e in store})
    as_of = data.draw(st.sampled_from([None, *instants, instants[0] - timedelta(microseconds=1)]))
    n = len(store) if as_of is None else sum(e.ts <= as_of for e in store)
    held = len(set(vecs.index[:n].tolist()))
    top_k = data.draw(st.one_of(st.sampled_from([1, max(held, 1), len(store) + 1]), st.integers(1, len(store) + 1)))
    params = RetrievalParams(
        alpha=data.draw(st.sampled_from([0.0, 0.5, 0.7, 1.0])),
        half_life_days=data.draw(st.sampled_from([14.0, 0.25])),
        top_k=top_k,
        now=NOW,
    )
    assert_rank_is_full_rank(query, store, vecs, params, mode, as_of)


@pytest.mark.parametrize("mode", MODES)
def test_rank_equals_full_rank_over_the_eval_suite(pipeline_ws, mode):
    vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
    store = EventStore.of_timeline(vecs.ids, vecs.ts_us)
    config = json.loads((pipeline_ws / "logs" / "eval.json").read_text(encoding="utf-8"))
    cutoffs = [None, store[0].ts, store[len(store) // 2].ts]
    cutoffs += [parse_cutoff(q["cutoff"]) for q in config["queries"] if "cutoff" in q]
    # The suite's now, and a now halfway through the stream (half the events future-dated).
    nows = (coerce_timestamp(config["now"]), store[len(store) // 2].ts)
    embedder = HashEmbedder(dim=vecs.dim)
    for query in config["queries"]:
        q = embedder.embed(query["text"])
        for now in nows:
            # top_k 1000 is more than the distinct vectors seed 7 has, so rank scores every event.
            for alpha, top_k in ((0.7, 1), (0.7, 10), (0.7, 1000), (0.0, 10), (1.0, 10)):
                params = RetrievalParams(alpha=alpha, top_k=top_k, now=now)
                for cutoff in cutoffs:
                    assert_rank_is_full_rank(q, store, vecs, params, mode, cutoff)


def test_no_now_ranks_from_the_newest_event_of_the_snapshot(pipeline_ws):
    vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
    store = EventStore.of_timeline(vecs.ids, vecs.ts_us)
    config = json.loads((pipeline_ws / "logs" / "eval.json").read_text(encoding="utf-8"))
    truth = json.loads((pipeline_ws / "logs" / config["ground_truth"]).read_text(encoding="utf-8"))
    embedder = HashEmbedder(dim=vecs.dim)
    freshness = [q for q in config["queries"] if q["type"] == "freshness"]
    assert len(freshness) == 3
    for query in freshness:
        q = embedder.embed(query["text"])
        hits = rank(q, store, vecs, RetrievalParams())
        assert hits == rank(q, store, vecs, RetrievalParams(now=store[len(store) - 1].ts))
        assert latest_set_at_k(hits, truth["topics"][query["topic"]]["event_ids"], store) == 1
    for query in config["queries"]:
        if "cutoff" in query:
            q, cutoff = embedder.embed(query["text"]), parse_cutoff(query["cutoff"])
            newest = max(e.ts for e in store if e.ts <= cutoff)
            assert rank(q, store, vecs, as_of=cutoff) == rank(q, store, vecs, RetrievalParams(now=newest), as_of=cutoff)


def _grouped_store(groups):
    """A store of (row, minutes before NOW, copies) groups over a fixed pool of four int rows."""
    pool = [[1, 0, 0, 0], [1, 1, 0, 0], [0, 0, 1, 2], [-1, 2, 2, 0]]
    events, row_of = [], {}
    for row, minutes, copies in groups:
        for _ in range(copies):
            event_id = f"e{len(events):02d}"
            events.append(Event(event_id=event_id, ts=NOW - timedelta(minutes=minutes)))
            row_of[event_id] = pool[row]
    store = store_of(events)
    rows = np.array([row_of[e.event_id] for e in store], dtype=np.float16)
    return store, VectorStore(4, store.event_ids, *group_rows(rows))


# Four rows, each held two to three times, so the row bound applies. Rows 0 and
# 1 have their newest holders at the same instant, row 2 two holders at its
# newest instant, and row 3 its newest holder at the newest instant of all.
# Rows 0 and 3 also have holders weeks older, which score well below their newest.
_WHOLE = [(0, 40 * 24 * 60, 2), (1, 600, 1), (2, 500, 1), (0, 300, 1), (1, 300, 2), (2, 200, 2),
          (3, 20 * 24 * 60, 1), (3, 100, 1)]


class TestWholeStoreRank:
    """A snapshot holding every event ranks from the store's cached holder layout."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("as_of", [None, 0, 1], ids=["no-cutoff", "at-newest", "after-newest"])
    @pytest.mark.parametrize("top_k", [1, 3, 5, 12, 50], ids=lambda k: f"k{k}")
    def test_equals_full_rank_and_the_oracle(self, mode, as_of, top_k):
        store, vecs = _grouped_store(_WHOLE)
        assert len(vecs.rows) == 4 and 2 * len(vecs.rows) <= len(store)
        if as_of is not None:
            as_of = store[len(store) - 1].ts + timedelta(days=as_of)
        params = RetrievalParams(now=NOW, top_k=top_k)
        assert "holders" not in vars(vecs)
        for query in ([1, 0, 0, 0], [1, 1, 1, 1], [0, 1, 1, 0], [-1, 0, 0, -1]):
            query = np.array(query, dtype=np.float32)
            assert_rank_is_full_rank(query, store, vecs, params, mode, as_of)
            hits = rank(query, store, vecs, params, mode=mode, as_of=as_of)
            oracle = brute_force_rank(query, store, vecs, params, mode, as_of)
            assert [h.event_id for h in hits] == [o[0] for o in oracle]
        assert "holders" in vars(vecs)  # the row bound ran


# Rows 0 to 2 are held before the cut at 300 minutes before NOW, and row 3 only
# after it. Rows 1 and 2 also have holders after that cut, and row 2 after the
# cut at 100 minutes too, so the newest holders of both lie outside the prefix.
_PREFIX = [(0, 40 * 24 * 60, 2), (1, 30 * 24 * 60, 2), (2, 900, 2), (0, 600, 1), (1, 500, 2), (2, 400, 1),
           (0, 300, 1), (3, 200, 2), (1, 100, 1), (2, 50, 1)]


class TestPrefixRank:
    """A snapshot that ends before the newest event ranks from the same holder layout."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize(("minutes", "top_k", "held"), [
        (300, 2, [0, 1, 2]),  # row 3 is held by no event of the prefix
        (100, 2, [0, 1, 2, 3]),  # row 2's holders fall on both sides of the cut
        (300, 5, [0, 1, 2]),  # more hits asked for than rows held, so the floor is -inf
    ], ids=["one-row-unheld", "a-row-split-by-the-cut", "top-k-above-the-rows-held"])
    def test_equals_full_rank_and_the_oracle(self, mode, minutes, top_k, held):
        store, vecs = _grouped_store(_PREFIX)
        cutoff = NOW - timedelta(minutes=minutes)
        n = sum(e.ts <= cutoff for e in store)
        assert n < len(store) and 2 * len(vecs.rows) <= n  # a strict prefix, under the row bound
        assert sorted(set(vecs.index[:n].tolist())) == held
        for now in (NOW, None):
            params = RetrievalParams(now=now, top_k=top_k)
            for query in ([1, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 2], [-1, 2, 2, 0]):
                query = np.array(query, dtype=np.float32)
                assert_rank_is_full_rank(query, store, vecs, params, mode, cutoff)
                hits = rank(query, store, vecs, params, mode=mode, as_of=cutoff)
                oracle = brute_force_rank(query, store, vecs, params, mode, cutoff)
                assert [h.event_id for h in hits] == [o[0] for o in oracle]
                assert len(hits) == top_k
        assert "holders" in vars(vecs)  # the row bound ran


class TestHolderLayout:
    @given(tie_stores(max_pool=4, max_groups=10, max_copies=4))
    def test_each_row_holds_its_positions_in_ascending_order_newest_last(self, drawn):
        store, vecs = drawn
        order, starts = vecs.holders
        assert vecs.holders is vecs.holders
        assert not order.flags.writeable and not starts.flags.writeable
        assert sorted(order.tolist()) == list(range(len(store)))  # every position once
        assert starts[0] == 0 and starts[-1] == len(store) and len(starts) == len(vecs.rows) + 1
        for row in range(len(vecs.rows)):
            held = order[starts[row]:starts[row + 1]]
            assert held.tolist() == np.flatnonzero(vecs.index == row).tolist()  # non-empty and ascending
            assert store.ts_us[held[-1]] == store.ts_us[vecs.index == row].max()

    @pytest.mark.parametrize("n_rows", [3, 300, 70_000])  # 8-, 16- and 32-bit sort keys
    def test_order_is_the_stable_argsort_of_the_index(self, n_rows):
        rng = np.random.default_rng(n_rows)
        index = rng.permutation(np.concatenate([np.arange(n_rows), rng.integers(0, n_rows, n_rows)]))
        vecs = VectorStore(2, [f"e{i}" for i in range(len(index))], np.ones((n_rows, 2), np.float16), index)
        order, starts = vecs.holders
        assert order.tolist() == np.argsort(index, kind="stable").tolist()
        assert starts.tolist() == [0, *np.cumsum(np.bincount(index)).tolist()]
