"""Hash embedder, half-precision store, and TMV2/TMV1 file integrity."""

from __future__ import annotations

import hashlib
import struct
from collections.abc import Sequence
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, strategies as st

from temporal_memory.embedding import (
    HashEmbedder,
    VectorFileError,
    VectorStore,
    _feature_hash,
    check_alignment,
    encode_store,
    group_rows,
    read_vector_file,
    tokenize,
    write_vector_file,
)
from temporal_memory.events import EventStore

from conftest import TMV2_DEFECTS, corpus_events, store_of, tmv1_bytes, tmv2_bytes, tmv2_sample

texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" _-"),
    min_size=1,
    max_size=80,
).filter(lambda t: tokenize(t))


class TestTokenize:
    def test_underscore_stays_inside_tokens(self):
        assert tokenize("Okta AUTH_FAIL mfa-denied") == ["okta", "auth_fail", "mfa", "denied"]

    def test_separators_collapse(self):
        assert tokenize("a | b || c") == ["a", "b", "c"]


class TestHashEmbed:
    def test_unit_norm(self):
        vec = HashEmbedder().embed("okta auth_fail mfa denied")
        assert abs(float(np.linalg.norm(vec)) - 1.0) < 1e-6

    @given(texts)
    def test_unit_norm_everywhere(self, text):
        assert abs(float(np.linalg.norm(HashEmbedder().embed(text))) - 1.0) < 1e-6

    def test_deterministic(self):
        a = HashEmbedder().embed("okta auth_fail")
        b = HashEmbedder().embed("okta auth_fail")
        assert np.array_equal(a, b)

    def test_related_texts_score_above_unrelated(self):
        query = HashEmbedder().embed("okta auth fail mfa")
        near = HashEmbedder().embed("okta auth failure mfa")
        far = HashEmbedder().embed("s3 bucket read")
        assert query @ near > query @ far  # unit vectors: each dot product is their cosine

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError):
            HashEmbedder().embed("| | |")

    def test_small_dim_rejected(self):
        for dim in (1, 0, -3, 384.0, True):
            with pytest.raises(ValueError, match="dim"):
                HashEmbedder(dim=dim)

    def test_no_bucket_dominates_the_corpus(self):
        mass = np.zeros(384, dtype=np.float64)
        for event in corpus_events():
            mass += np.abs(HashEmbedder().embed(event.text_repr))
        assert mass.max() / mass.sum() <= 0.10


def _embed_per_occurrence(text: str, dim: int) -> np.ndarray:
    """The embedding hashed feature by feature and added bucket by bucket in float32, with no table."""
    tokens = tokenize(text)
    if not tokens:
        raise ValueError(f"no tokens in text: {text!r}")
    vec = np.zeros(dim, dtype=np.float32)
    for feature in [*tokens, *(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))]:
        h = int.from_bytes(hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "little")
        vec[h % dim] += 1.0 if (h >> 63) & 1 else -1.0
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise ValueError(f"degenerate zero embedding for text: {text!r}")
    return vec / norm


def _outcome(embed, text: str):
    """The vector's dtype and bytes, or the ValueError's message."""
    try:
        vec = embed(text)
    except ValueError as exc:
        return str(exc)
    return vec.dtype, vec.tobytes()


# Few words, so texts share features and small dims collide, and some cancel to zero.
_WORDS = st.sampled_from(["okta", "auth_fail", "mfa", "denied", "s3", "bucket", "read", "é", "x1", "9"])
_PHRASES = st.lists(_WORDS, min_size=1, max_size=8).map(" ".join)
# One word hundreds to thousands of times over, so that bucket sums grow large.
_REPEATS = st.builds(lambda word, times: " ".join([word] * times), _WORDS, st.integers(100, 3000))


class TestFeatureTable:
    """An embedder hashes each distinct feature once; what it embeds is what hashing every occurrence gives."""

    @given(st.lists(st.one_of(texts, _PHRASES, _REPEATS), min_size=1, max_size=12),
           st.sampled_from([2, 3, 16, 384, 1024]))
    def test_a_reused_embedder_gives_a_fresh_embedders_bytes(self, batch, dim):
        reused, other = HashEmbedder(dim=dim), HashEmbedder(dim=dim + 1)
        for text in batch:
            expected = _outcome(HashEmbedder(dim=dim).embed, text)
            assert _outcome(reused.embed, text) == expected == _outcome(lambda t: _embed_per_occurrence(t, dim), text)
            # An embedder of another dim, fed the same features in between, still gives a fresh one's bytes.
            assert _outcome(other.embed, text) == _outcome(HashEmbedder(dim=dim + 1).embed, text)

    def test_an_embedder_holds_only_its_dim(self):
        a, b = HashEmbedder(), HashEmbedder()
        a.embed("okta auth_fail")
        assert a == b and hash(a) == hash(b) and repr(a) == "HashEmbedder(dim=384)"
        assert vars(a) == vars(b) == {"dim": 384}

    def test_fresh_embedders_of_two_dims_share_each_features_hash(self):
        text = "shared hash cache"  # 3 unigrams and 2 bigrams
        assert _outcome(HashEmbedder(dim=16).embed, text) == _outcome(lambda t: _embed_per_occurrence(t, 16), text)
        before = _feature_hash.cache_info()
        assert _outcome(HashEmbedder(dim=384).embed, text) == _outcome(lambda t: _embed_per_occurrence(t, 384), text)
        after = _feature_hash.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (5, 0)
        assert after.maxsize == 1 << 16


class TestEncodeStore:
    def test_shape_and_order(self, corpus_store):
        vs = encode_store(corpus_store, HashEmbedder(dim=384))
        assert vs.dim == 384
        assert len(vs) == len(corpus_store)
        assert vs.ids == corpus_store.event_ids

    def test_id_sets_match_exactly(self, corpus_store):
        vs = encode_store(corpus_store, HashEmbedder())
        assert set(vs.ids) == set(corpus_store.event_ids)

    def test_encoding_twice_is_byte_identical(self, corpus_store, tmp_path):
        a, b = tmp_path / "a.tmv", tmp_path / "b.tmv"
        for path in (a, b):
            vs = encode_store(corpus_store, HashEmbedder())
            write_vector_file(replace(vs, ts_us=corpus_store.ts_us, events_sha256=_DIGEST), path)
        assert a.read_bytes() == b.read_bytes()

    def test_stored_norms_within_half_precision_tolerance(self, corpus_store):
        vs = encode_store(corpus_store, HashEmbedder())
        norms = np.linalg.norm(vs.float32(), axis=1)
        assert norms.min() >= 1 - 2e-3 and norms.max() <= 1 + 2e-3

    def test_embed_failure_names_the_event(self, corpus_store):
        from temporal_memory.events import Event

        bad = Event(event_id="bad-one", ts=corpus_store[0].ts, text_repr="|||")
        from temporal_memory.events import EventStore

        store = EventStore(events=(bad,))
        with pytest.raises(ValueError, match="bad-one"):
            encode_store(store, HashEmbedder(dim=64))

    @given(st.lists(texts, min_size=1, max_size=4), st.lists(st.integers(0, 3), min_size=1, max_size=30))
    def test_each_row_is_its_own_text_embedded_and_quantized(self, pool, picks):
        from temporal_memory.events import Event, EventStore

        start = corpus_events()[0].ts
        store = EventStore(events=tuple(
            Event(event_id=f"e{i:02d}", ts=start + timedelta(seconds=i), text_repr=pool[j % len(pool)])
            for i, j in enumerate(picks)
        ))
        embedder = HashEmbedder(dim=64)
        vs = encode_store(store, embedder)
        assert vs.vectors.shape == (len(store), 64)
        for row, event in zip(vs.vectors, store):
            expected = embedder.embed(event.text_repr).astype(np.float16)
            assert row.tobytes() == expected.tobytes()
        _assert_same_grouping(vs, vs.vectors)

    def test_texts_whose_float16_rows_are_equal_share_one_row(self, corpus_store):
        from temporal_memory.events import Event, EventStore

        class NearEmbedder:
            """"b" embeds a float32 step away from "a", far below a float16 step."""

            dim = 4

            def embed(self, text):
                vec = np.array([0.0, 0.0, 1.0, 0.0] if text == "c" else [0.6, 0.8, 0.0, 0.0], dtype=np.float32)
                if text == "b":
                    vec[0] = np.nextafter(vec[0], np.float32(1))
                return vec

        assert NearEmbedder().embed("a").tobytes() != NearEmbedder().embed("b").tobytes()
        start = corpus_store[0].ts
        store = EventStore(events=tuple(
            Event(event_id=f"e{i}", ts=start + timedelta(seconds=i), text_repr=text)
            for i, text in enumerate(["c", "a", "b", "c", "b"])
        ))
        vs = encode_store(store, NearEmbedder())
        rows, index = vs.rows, vs.index
        assert len(rows) == 2
        assert index[1] == index[2] == index[4] != index[0] == index[3]
        _assert_same_grouping(vs, vs.vectors)

    def test_an_all_distinct_store_gives_each_event_its_own_row(self, corpus_store):
        from temporal_memory.events import Event, EventStore

        start = corpus_store[0].ts
        store = EventStore(events=tuple(
            Event(event_id=f"e{i:03d}", ts=start + timedelta(seconds=i), text_repr=f"host{i} auth_fail user{i % 7}")
            for i in range(120)
        ))
        embedder = HashEmbedder(dim=64)
        expected = np.stack([embedder.embed(event.text_repr) for event in store]).astype(np.float16)
        assert encode_store(store, embedder).vectors.tobytes() == expected.tobytes()

    def test_a_row_that_overflows_float16_names_its_first_event(self, corpus_store):
        from temporal_memory.events import Event, EventStore

        class LoudEmbedder:
            """"loud" embeds to a finite float32 vector whose float16 row is inf."""

            dim = 4

            def embed(self, text):
                return np.array([7e4, 0, 0, 0] if text == "loud" else [0, 1, 0, 0], dtype=np.float32)

        start = corpus_store[0].ts
        store = EventStore(events=tuple(
            Event(event_id=f"e{i}", ts=start + timedelta(seconds=i), text_repr=text)
            for i, text in enumerate(["quiet", "loud", "quiet", "loud"])
        ))
        with pytest.warns(RuntimeWarning, match="overflow"), \
                pytest.raises(ValueError, match="^vector for e1 has a non-finite value; cosine is undefined$"):
            encode_store(store, LoudEmbedder())

    def test_repeated_unembeddable_text_names_its_first_event(self, corpus_store):
        from temporal_memory.events import Event, EventStore

        start = corpus_store[0].ts
        texts = ["okta auth_fail", "|||", "--", "|||"]
        store = EventStore(events=tuple(
            Event(event_id=f"e{i}", ts=start + timedelta(seconds=i), text_repr=text) for i, text in enumerate(texts)
        ))
        with pytest.raises(ValueError, match=r"^event e1: no tokens in text: '\|\|\|'$"):
            encode_store(store, HashEmbedder(dim=64))

    def test_quantization_keeps_cosine_above_0_999(self):
        rng = np.random.default_rng(123)
        full = rng.standard_normal((1000, 384)).astype(np.float32)
        full /= np.linalg.norm(full, axis=1, keepdims=True)
        back = full.astype(np.float16).astype(np.float32)
        cos = (full * back).sum(1) / (np.linalg.norm(full, axis=1) * np.linalg.norm(back, axis=1))
        assert cos.min() >= 0.999


_DIGEST = hashlib.sha256(b"events.jsonl").hexdigest()


def _assert_same_grouping(vs: VectorStore, vectors: np.ndarray) -> None:
    """``vs`` holds the rows and index that group_rows gives of every event's row."""
    for a, b in zip((vs.rows, vs.index), group_rows(vectors), strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _sample_store(dim=16, count=5) -> VectorStore:
    """Unit vectors with TMV2's ts column and digest."""
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((count, dim)).astype(np.float32)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return VectorStore(dim, tuple(f"ev-{i}" for i in range(count)), *group_rows(vectors.astype(np.float16)),
                       ts_us=1_743_465_600_000_000 + 1_000_000 * np.arange(count), events_sha256=_DIGEST)


def _with_repeats(vs: VectorStore) -> VectorStore:
    """``vs`` with three more events that repeat vectors 3, 0 and 3."""
    vectors = np.concatenate([vs.vectors, vs.vectors[[3, 0, 3]]])
    count = len(vectors)
    return VectorStore(vs.dim, tuple(f"ev-{i}" for i in range(count)), *group_rows(vectors),
                       ts_us=1_743_465_600_000_000 + 1_000_000 * np.arange(count), events_sha256=_DIGEST)


class TestVectorStore:
    def test_float32_is_a_fresh_writable_copy(self):
        vs = _sample_store()
        copy = vs.float32()
        assert copy.dtype == np.float32
        assert np.array_equal(copy, vs.vectors.astype(np.float32))
        copy[0, 0] = 42.0
        assert copy is not vs.float32()
        assert vs.float32()[0, 0] != 42.0

    def test_distinct_rows_rebuild_every_vector(self):
        vs = _with_repeats(_sample_store())
        rows, norms = vs.scoring
        assert vs.scoring is vs.scoring
        assert rows.dtype == norms.dtype == np.float32
        assert len(rows) == len(vs.rows) == 5
        assert np.array_equal(rows, vs.rows.astype(np.float32))
        assert np.array_equal(rows[vs.index], vs.vectors.astype(np.float32))
        assert vs.index[5] == vs.index[3] == vs.index[7] and vs.index[6] == vs.index[0]
        assert np.array_equal(norms, np.linalg.norm(rows, axis=1))
        for array in (rows, norms, vs.rows, vs.index):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_zero_row_has_no_norm(self):
        vs = _sample_store()
        vectors = vs.vectors.copy()
        vectors[2] = 0
        with pytest.raises(ValueError, match="^vector for ev-2 has only zeros; cosine is undefined$"):
            VectorStore(vs.dim, vs.ids, *group_rows(vectors))


class TestVectorFile:
    """TMV2, the workspace artifact; the malformed-file cases are in TestTMV2Reader."""

    def test_round_trip(self, tmp_path):
        vs = _with_repeats(_sample_store())
        path = tmp_path / "v.tmv"
        write_vector_file(vs, path)
        back = read_vector_file(path)
        assert back.dim == vs.dim
        assert tuple(back.ids) == tuple(vs.ids)
        assert np.array_equal(back.vectors, vs.vectors)
        assert np.array_equal(back.ts_us, vs.ts_us) and back.ts_us.dtype == np.int64
        assert back.events_sha256 == _DIGEST
        # The rows and index read from the file are the ones the written store held, array for array.
        _assert_same_grouping(back, vs.vectors)
        for read, fresh in zip(back.scoring, vs.scoring, strict=True):
            assert read.dtype == fresh.dtype and np.array_equal(read, fresh) and not read.flags.writeable
        assert not back.ts_us.flags.writeable

    def test_write_read_write_is_byte_stable(self, tmp_path):
        vs = _with_repeats(_sample_store())
        a, b = tmp_path / "a.tmv", tmp_path / "b.tmv"
        write_vector_file(vs, a)
        write_vector_file(read_vector_file(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_writer_follows_the_layout(self, tmp_path):
        vs = _with_repeats(_sample_store())
        path = tmp_path / "v.tmv"
        write_vector_file(vs, path)
        expected = tmv2_bytes(vs.ids, vs.ts_us, vs.index, vs.rows, bytes.fromhex(_DIGEST))
        assert path.read_bytes() == expected
        assert len(expected) == 56 + 8 * 5 + 12 * 8 + 2 * 16 * 5

    def test_writer_needs_the_ts_column_and_the_digest(self, tmp_path):
        vs = _sample_store()
        for missing in ({"ts_us": None}, {"events_sha256": None}):
            with pytest.raises(ValueError, match="ts and the events.jsonl sha256"):
                write_vector_file(replace(vs, **missing), tmp_path / "v.tmv")
        assert not (tmp_path / "v.tmv").exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.tmv"
        write_vector_file(_sample_store(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(VectorFileError, match="bad magic b'NOPE'"):
            read_vector_file(path)

    # TMV1, the external input format: the package has no TMV1 writer, so these
    # files come from tmv1_bytes.

    def test_tmv1_round_trip(self, tmp_path):
        vs = _sample_store()
        path = tmp_path / "v.tmv"
        path.write_bytes(tmv1_bytes(vs.ids, vs.vectors))
        back = read_vector_file(path)
        assert (back.dim, tuple(back.ids)) == (vs.dim, tuple(vs.ids))
        assert np.array_equal(back.vectors, vs.vectors)
        assert back.ts_us is None and back.events_sha256 is None

    def test_declared_dim_zero(self, tmp_path):
        path = tmp_path / "v.tmv"
        path.write_bytes(struct.pack("<4sIQ", b"TMV1", 0, 0))
        with pytest.raises(VectorFileError, match="declared dim 0 is invalid"):
            read_vector_file(path)

    def test_id_section_ends_early(self, tmp_path):
        path = tmp_path / "v.tmv"
        path.write_bytes(struct.pack("<4sIQ", b"TMV1", 4, 3) + b"only-one-id\n")
        with pytest.raises(VectorFileError, match="id section ended after 1 of 3 declared ids"):
            read_vector_file(path)

    def test_id_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "v.tmv"
        path.write_bytes(struct.pack("<4sIQ", b"TMV1", 2, 1) + b"\xff\n" + np.ones(2, "<f2").tobytes())
        with pytest.raises(VectorFileError, match="an event id is not UTF-8"):
            read_vector_file(path)

    def test_truncated_payload(self, tmp_path):
        vs = _sample_store()
        path = tmp_path / "v.tmv"
        path.write_bytes(tmv1_bytes(vs.ids, vs.vectors)[:-7])
        with pytest.raises(VectorFileError, match=r"payload has \d+ bytes, expected \d+"):
            read_vector_file(path)

    def test_trailing_bytes_beyond_count(self, tmp_path):
        vs = _sample_store()
        path = tmp_path / "v.tmv"
        path.write_bytes(tmv1_bytes(vs.ids, vs.vectors) + b"junk")
        with pytest.raises(VectorFileError, match="4 trailing bytes beyond declared count"):
            read_vector_file(path)

    def test_header_shorter_than_magic(self, tmp_path):
        path = tmp_path / "v.tmv"
        path.write_bytes(b"TM")
        with pytest.raises(VectorFileError, match="shorter than header"):
            read_vector_file(path)

    @pytest.mark.parametrize(
        "bad, problem", [(np.nan, "a non-finite value"), (-np.inf, "a non-finite value"), (-0.0, "only zeros")]
    )
    def test_first_bad_row_is_named(self, tmp_path, bad, problem):
        vs = _sample_store()
        vectors = vs.vectors.copy()
        vectors[3:] = bad
        path = tmp_path / "v.tmv"
        path.write_bytes(tmv1_bytes(vs.ids, vectors))
        with pytest.raises(VectorFileError, match=f"vector for ev-3 has {problem}"):
            read_vector_file(path)

    @given(bits=st.integers(0, 0xFFFF), other=st.sampled_from([0.0, 1.0]))
    def test_row_rejected_exactly_when_it_has_no_cosine(self, tmp_path_factory, bits, other):
        value = np.array([bits], dtype=np.uint16).view(np.float16)[0]
        vectors = np.array([[1.0, 1.0], [value, other]], dtype=np.float16)
        path = tmp_path_factory.mktemp("v") / "v.tmv"
        path.write_bytes(tmv1_bytes(("ok", "probe"), vectors))
        if np.isfinite(value) and (value != 0 or other != 0):
            assert np.array_equal(read_vector_file(path).vectors, vectors)
        else:
            with pytest.raises(VectorFileError, match="probe"):
                read_vector_file(path)


class TestTMV2Reader:
    def test_the_sample_is_well_formed(self, tmp_path):
        path = tmp_path / "v.tmv"
        path.write_bytes(tmv2_sample())
        vs = read_vector_file(path)
        assert vs.ids[3] == "ev-3" and np.array_equal(vs.index, [1, 0, 1, 2, 2, 0])

    @pytest.mark.parametrize("defect", TMV2_DEFECTS)
    def test_malformed_file_is_rejected_naming_it(self, tmp_path, defect):
        build, message = TMV2_DEFECTS[defect]
        path = tmp_path / "v.tmv"
        path.write_bytes(build())
        with pytest.raises(VectorFileError) as exc:
            read_vector_file(path)
        assert str(exc.value).startswith(f"{path}: ")
        assert message in str(exc.value)

    # Twelve events whose row indices (10) and binary16 rows (0x0A0A + i) hold 0x0A bytes.
    _NEWLINE_PAYLOAD = {
        "ids": tuple(f"ev-{i}" for i in range(12)),
        "ts_us": 1_743_465_600_000_000 + np.arange(12),
        "index": np.arange(12) % 11,
        "rows": np.array([[0x0A0A + i, 0x3C00] for i in range(11)], dtype=np.uint16).view(np.float16),
    }

    def test_newline_bytes_in_the_payload_leave_the_ids_as_they_are(self, tmp_path):
        path = tmp_path / "v.tmv"
        data = tmv2_bytes(**self._NEWLINE_PAYLOAD)
        assert data[-(12 * 12 + 11 * 2 * 2):].count(b"\n") == 14  # in the ts, index and rows
        path.write_bytes(data)
        vs = read_vector_file(path)
        assert tuple(vs.ids) == self._NEWLINE_PAYLOAD["ids"]
        assert np.array_equal(vs.index, self._NEWLINE_PAYLOAD["index"])
        assert vs.rows.tobytes() == self._NEWLINE_PAYLOAD["rows"].tobytes()
        assert np.array_equal(vs.ts_us, self._NEWLINE_PAYLOAD["ts_us"])

    @pytest.mark.parametrize("count, message", [
        # One id too many: the thirteenth "id" runs into the payload up to its first 0x0A byte.
        (13, "an event id is not UTF-8: 'utf-8' codec can't decode byte 0xc4 in position 64: invalid continuation byte"),
        (11, "18 trailing bytes beyond declared counts"),
    ])
    def test_a_count_off_by_one_is_reported_as_a_whole_scan_finds_it(self, tmp_path, count, message):
        path = tmp_path / "v.tmv"
        path.write_bytes(tmv2_bytes(**self._NEWLINE_PAYLOAD, count=count))
        with pytest.raises(VectorFileError) as exc:
            read_vector_file(path)
        assert str(exc.value) == f"{path}: {message}"


# Ids a TMV file may hold: multibyte UTF-8 of 2, 3 and 4 bytes, an empty id, a space.
_IDS = ("ev-0", "é", "日本語-id", "🦊", "", "x y", "ev-6")


def _column_file(tmp_path, fmt: str, ids=_IDS, vectors=None) -> Path:
    """A TMV1 or TMV2 file holding ``ids`` and ``vectors`` (default: one distinct unit row per id)."""
    vectors = np.eye(len(ids), max(len(ids), 2), dtype=np.float16) if vectors is None else vectors
    rows, index = group_rows(np.asarray(vectors, dtype=np.float16))
    path = tmp_path / "v.tmv"
    if fmt == "TMV1":
        path.write_bytes(tmv1_bytes(ids, vectors))
    else:
        path.write_bytes(tmv2_bytes(ids, 1_743_465_600_000_000 + np.arange(len(ids)), index, rows))
    return path


@pytest.mark.parametrize("fmt", ["TMV1", "TMV2"])
class TestIdColumn:
    """A file's ids stay its bytes and offsets; each id is decoded when read."""

    def test_iteration_equals_decoding_and_splitting_the_section(self, tmp_path, fmt):
        path = _column_file(tmp_path, fmt)
        data = path.read_bytes()
        start = {"TMV1": 16, "TMV2": 56}[fmt]
        end = start + sum(len(i.encode()) + 1 for i in _IDS)
        ids = read_vector_file(path).ids
        assert list(ids) == data[start:end - 1].decode("utf-8").split("\n") == list(_IDS)
        assert len(ids) == len(_IDS) and isinstance(ids, Sequence)

    def test_indexing_negative_indices_and_slices_match_a_tuple(self, tmp_path, fmt):
        ids = read_vector_file(_column_file(tmp_path, fmt)).ids
        n = len(_IDS)
        assert [ids[i] for i in range(-n, n)] == [_IDS[i] for i in range(-n, n)]
        assert ids[np.int64(2)] == _IDS[2]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                ids[bad]
        with pytest.raises(TypeError):
            ids[1:4]
        assert "🦊" in ids and ids.index("") == 4 and ids.count("ev-0") == 1

    def test_no_ids(self, tmp_path, fmt):
        vs = read_vector_file(_column_file(tmp_path, fmt, (), np.zeros((0, 4))))
        assert len(vs.ids) == 0 and list(vs.ids) == [] and tuple(vs.ids) == ()
        with pytest.raises(IndexError):
            vs.ids[0]

    def test_a_non_utf8_id_is_named_as_before(self, tmp_path, fmt):
        path = _column_file(tmp_path, fmt)
        data = path.read_bytes().replace("日本語".encode(), b"\xff\xfe\xfd\xfc\xfb\xfa\xf9\xf8\xf7", 1)
        path.write_bytes(data)
        with pytest.raises(VectorFileError) as exc:
            read_vector_file(path)
        assert str(exc.value) == (f"{path}: an event id is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                                  "in position 8: invalid start byte")

    def test_a_last_id_cut_inside_a_character_reads_as_before(self, tmp_path, fmt):
        path = _column_file(tmp_path, fmt, ("ok", "ab"))
        # The check leaves out the section's final newline, so a cut there reads as the end of the data.
        path.write_bytes(path.read_bytes().replace(b"ab\n", b"a\xc3\n", 1))
        with pytest.raises(VectorFileError) as exc:
            read_vector_file(path)
        assert str(exc.value) == (f"{path}: an event id is not UTF-8: 'utf-8' codec can't decode byte 0xc3 "
                                  "in position 4: unexpected end of data")

    def test_row_and_vector_errors_name_a_multibyte_id(self, tmp_path, fmt):
        vectors = np.eye(len(_IDS), dtype=np.float16)
        vectors[2] = 0
        with pytest.raises(VectorFileError, match=r": vector for 日本語-id has only zeros; cosine is undefined$"):
            read_vector_file(_column_file(tmp_path, fmt, vectors=vectors))
        if fmt == "TMV2":
            path = tmp_path / "beyond.tmv"
            path.write_bytes(tmv2_bytes(_IDS, np.arange(7), (0, 1, 2, 3, 4, 5, 7), np.eye(7, dtype=np.float16)))
            with pytest.raises(VectorFileError, match=r": row index of ev-6 is 7, beyond the 7 rows$"):
                read_vector_file(path)

    def test_write_of_a_read_file_is_byte_identical(self, tmp_path, fmt):
        path = _column_file(tmp_path, fmt)
        vs = read_vector_file(path)
        if fmt == "TMV1":  # the writer writes TMV2, which also records each ts and the digest
            vs, path = replace(vs, ts_us=1_743_465_600_000_000 + np.arange(len(_IDS)), events_sha256=_DIGEST), None
        out = tmp_path / "out.tmv"
        write_vector_file(vs, out)
        if path is not None:
            assert out.read_bytes() == path.read_bytes()
        again = tmp_path / "again.tmv"
        write_vector_file(read_vector_file(out), again)
        assert again.read_bytes() == out.read_bytes()


def test_a_store_of_the_timeline_keeps_the_column(tmp_path):
    vs = read_vector_file(_column_file(tmp_path, "TMV2"))
    store = EventStore.of_timeline(vs.ids, vs.ts_us)
    assert store.event_ids is vs.ids and tuple(store.event_ids) == _IDS


class TestExternalInjection:
    """A file produced by independent code must be accepted when ids align."""

    @staticmethod
    def _independent_writer(path, ids, dim):
        # Deliberately avoids the package: vectors from each id's sha256, bytes from tmv1_bytes.
        rows = []
        for event_id in ids:
            seed_bytes = hashlib.sha256(event_id.encode()).digest()
            row = np.frombuffer((seed_bytes * (dim // 8))[: dim * 2], dtype="<u2").astype(np.float32)
            row = (row - row.mean()) / (row.std() + 1e-9)
            rows.append(row / np.linalg.norm(row))
        path.write_bytes(tmv1_bytes(ids, rows))

    def test_externally_built_file_feeds_the_pipeline(self, corpus_store, tmp_path):
        path = tmp_path / "external.tmv"
        self._independent_writer(path, corpus_store.event_ids, 384)
        vs = read_vector_file(path)
        assert vs.dim == 384
        check_alignment(corpus_store, vs)
        assert len(vs) == len(corpus_store)

    def test_misaligned_ids_rejected(self, corpus_store, tmp_path):
        path = tmp_path / "external.tmv"
        ids = list(corpus_store.event_ids)
        ids[0], ids[1] = ids[1], ids[0]
        self._independent_writer(path, ids, 384)
        with pytest.raises(ValueError, match="align"):
            check_alignment(corpus_store, read_vector_file(path))


class TestVectorStoreInvariants:
    def test_dtype_enforced(self):
        with pytest.raises(ValueError, match="float16"):
            VectorStore(4, ("a",), np.ones((1, 4), dtype=np.float32), np.zeros(1, dtype=np.intp))
        with pytest.raises(ValueError, match="intp"):
            VectorStore(4, ("a",), np.ones((1, 4), dtype=np.float16), np.zeros(1, dtype=np.uint32))

    def test_shape_alignment_enforced(self):
        rows = np.ones((1, 4), dtype=np.float16)
        for dim, index in ((4, np.zeros(1, dtype=np.intp)), (3, np.zeros(2, dtype=np.intp))):
            with pytest.raises(ValueError, match="inconsistent"):
                VectorStore(dim, ("a", "b"), rows, index)

    def test_ts_column_alignment_enforced(self):
        rows, index = np.ones((1, 4), dtype=np.float16), np.zeros(2, dtype=np.intp)
        for ts_us in (np.arange(3), np.arange(2, dtype=np.int32)):
            with pytest.raises(ValueError, match="ts_us"):
                VectorStore(4, ("a", "b"), rows, index, ts_us=ts_us)

    @pytest.mark.parametrize("index, message", [
        ((0, -1), "row index of b is -1, beyond the 2 rows"),
        ((0, 2), "row index of b is 2, beyond the 2 rows"),
        ((1, 1), "row 0 is held by no event"),
    ])
    def test_index_must_hold_every_row_and_no_other(self, index, message):
        rows = np.eye(2, dtype=np.float16)
        with pytest.raises(ValueError, match=f"^{message}$"):
            VectorStore(2, ("a", "b"), rows, np.array(index, dtype=np.intp))

    def test_bad_row_names_the_first_event_that_holds_it(self):
        rows = np.array([[0, 0], [1, 0], [0, np.nan]], dtype=np.float16)  # row 0 is bad too, but held later
        with pytest.raises(ValueError, match="^vector for b has a non-finite value; cosine is undefined$"):
            VectorStore(2, ("a", "b", "c", "d"), rows, np.array([1, 2, 0, 2], dtype=np.intp))


def test_store_of_rejects_duplicate_fixture_ids():
    event = corpus_events()[0]
    with pytest.raises(AssertionError):
        store_of([event, event])
