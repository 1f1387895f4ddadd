"""As-of filtering, fused scoring, and ranking against a brute-force oracle."""

from __future__ import annotations

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from temporal_memory.embedding import HashEmbedder, VectorStore, encode_store
from temporal_memory.events import Event, EventStore
from temporal_memory.retrieval import (
    MODES,
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
        assert _as_of(store, vecs, store.events[0].ts - timedelta(seconds=1)) == []

    def test_cutoff_at_last_event_keeps_everything(self, indexed_corpus):
        store, vecs = indexed_corpus
        assert len(_as_of(store, vecs, store.events[-1].ts)) == len(store)

    def test_mid_stream_cutoff_matches_brute_force(self, indexed_corpus):
        store, vecs = indexed_corpus
        cutoff = store.events[len(store) // 2].ts
        expected = sorted(e.event_id for e in store.events if e.ts <= cutoff)
        assert sorted(h.event_id for h in _as_of(store, vecs, cutoff)) == expected

    @given(st.integers(0, 49))
    def test_every_survivor_is_on_or_before_cutoff(self, indexed_corpus, idx):
        store, vecs = indexed_corpus
        cutoff = store.events[idx].ts
        assert all(h.ts <= cutoff for h in _as_of(store, vecs, cutoff))


def brute_force_rank(query_vec, store, vecs, params, mode, as_of=None):
    """Independent oracle: pure-Python scoring and selection sort."""
    rows = [[float(x) for x in row] for row in vecs.float32()]
    qlist = [float(x) for x in query_vec]
    qnorm = math.sqrt(sum(x * x for x in qlist))
    scored = []
    for event, row in zip(store, rows):
        if as_of is not None and event.ts > as_of:
            continue
        dot = sum(a * b for a, b in zip(qlist, row))
        norm = math.sqrt(sum(x * x for x in row))
        cos = dot / (norm * qnorm)
        age = max(0.0, (params.resolved_now() - event.ts).total_seconds() / 86400.0)
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
        cutoff = store.events[30].ts
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
        cutoff = store.events[0].ts - timedelta(days=1)
        q = HashEmbedder(dim=384).embed("anything")
        assert rank(q, store, vecs, RetrievalParams(now=NOW), as_of=cutoff) == []

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
        early_now = store.events[10].ts  # later events are "future" from here
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
        cutoff = store.events[20].ts
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
            assert [h.event_id for h in hits] == [e.event_id for e in reversed(store.events)]

    def test_as_of_equal_to_an_event_ts_is_inclusive(self, indexed_corpus):
        store, vecs = indexed_corpus
        target = store.events[17]
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
        store = EventStore(events=(newer, older))
        vecs = encode_store(store, HashEmbedder(dim=64))
        with pytest.raises(ValueError, match="not sorted"):
            rank(HashEmbedder(dim=64).embed("okta"), store, vecs, RetrievalParams(now=NOW))

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_zero_or_non_finite_vector_row_rejected(self, indexed_corpus, bad):
        store, vecs = indexed_corpus
        rows = vecs.vectors.copy()
        rows[3] = 0.0
        rows[3, 0] = bad
        broken = VectorStore(dim=vecs.dim, ids=vecs.ids, vectors=rows)
        with pytest.raises(ValueError, match="norm"):
            rank(HashEmbedder(dim=384).embed("okta"), store, broken, RetrievalParams(now=NOW))

    def test_non_finite_query_rejected(self, indexed_corpus):
        store, vecs = indexed_corpus
        q = np.ones(384, dtype=np.float32)
        q[5] = np.nan
        with pytest.raises(ValueError, match="norm"):
            rank(q, store, vecs, RetrievalParams(now=NOW))


# Small integer-valued vectors: float32 dot products and squared norms are
# exact, so rows with equal (dot, squared norm) score bit-identically in
# rank and in the oracle, and exact ties are ties in both.
_int_vecs = st.lists(st.integers(-3, 3), min_size=4, max_size=4).filter(any)


@st.composite
def tie_stores(draw):
    """A store of tie groups: one vector at one instant under 1-3 distinct ids."""
    pool = draw(st.lists(_int_vecs, min_size=1, max_size=3))
    minutes_before_now = draw(st.lists(st.integers(0, 60 * 24 * 30), min_size=1, max_size=4, unique=True))
    groups = draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.sampled_from(minutes_before_now), st.integers(1, 3)),
        min_size=1, max_size=6,
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
    return store, VectorStore(dim=4, ids=tuple(store.ids()), vectors=rows)


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
