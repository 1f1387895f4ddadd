"""Hash embedder, cosine, half-precision store, and TMV1 file integrity."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, strategies as st

from temporal_memory.embedding import (
    HashEmbedder,
    VectorFileError,
    VectorStore,
    check_alignment,
    cosine,
    encode_store,
    read_vector_file,
    tokenize,
    write_vector_file,
)

from conftest import corpus_events, store_of

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
        assert cosine(query, near) > cosine(query, far)

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


class TestCosine:
    def test_identity(self):
        v = HashEmbedder().embed("any text at all")
        assert cosine(v, v) == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_basis(self):
        assert cosine(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_analytic_45_degrees(self):
        r = 2**0.5 / 2
        assert cosine(np.array([1.0, 0.0]), np.array([r, r])) == pytest.approx(0.7071, abs=1e-4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.zeros(3), np.ones(3))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine(np.ones(3), np.ones(4))

    @given(
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
        st.lists(st.floats(-10, 10), min_size=4, max_size=4),
    )
    def test_symmetry_is_exact(self, a, b):
        va, vb = np.array(a, dtype=np.float32), np.array(b, dtype=np.float32)
        if not (np.linalg.norm(va) and np.linalg.norm(vb)):
            return
        assert cosine(va, vb) == cosine(vb, va)


class TestEncodeStore:
    def test_shape_and_order(self, corpus_store):
        vs = encode_store(corpus_store, HashEmbedder(dim=384))
        assert vs.dim == 384
        assert len(vs) == len(corpus_store)
        assert list(vs.ids) == corpus_store.ids()

    def test_id_sets_match_exactly(self, corpus_store):
        vs = encode_store(corpus_store, HashEmbedder())
        assert set(vs.ids) == set(corpus_store.ids())

    def test_encoding_twice_is_byte_identical(self, corpus_store, tmp_path):
        a, b = tmp_path / "a.tmv", tmp_path / "b.tmv"
        write_vector_file(encode_store(corpus_store, HashEmbedder()), a)
        write_vector_file(encode_store(corpus_store, HashEmbedder()), b)
        assert a.read_bytes() == b.read_bytes()

    def test_stored_norms_within_half_precision_tolerance(self, corpus_store):
        vs = encode_store(corpus_store, HashEmbedder())
        norms = np.linalg.norm(vs.float32(), axis=1)
        assert norms.min() >= 1 - 2e-3 and norms.max() <= 1 + 2e-3

    def test_embed_failure_names_the_event(self, corpus_store):
        from temporal_memory.events import Event

        bad = Event(event_id="bad-one", ts=corpus_store.events[0].ts, text_repr="|||")
        from temporal_memory.events import EventStore

        store = EventStore(events=(bad,))
        with pytest.raises(ValueError, match="bad-one"):
            encode_store(store, HashEmbedder(dim=64))

    def test_quantization_keeps_cosine_above_0_999(self):
        rng = np.random.default_rng(123)
        full = rng.standard_normal((1000, 384)).astype(np.float32)
        full /= np.linalg.norm(full, axis=1, keepdims=True)
        back = full.astype(np.float16).astype(np.float32)
        cos = (full * back).sum(1) / (np.linalg.norm(full, axis=1) * np.linalg.norm(back, axis=1))
        assert cos.min() >= 0.999


def _sample_store(dim=16, count=5) -> VectorStore:
    rng = np.random.default_rng(9)
    vectors = rng.standard_normal((count, dim)).astype(np.float32)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return VectorStore(dim=dim, ids=tuple(f"ev-{i}" for i in range(count)), vectors=vectors.astype(np.float16))


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
        vs = _sample_store()
        vectors = np.concatenate([vs.vectors, vs.vectors[[3, 0, 3]]])
        vs = VectorStore(dim=vs.dim, ids=tuple(f"ev-{i}" for i in range(len(vectors))), vectors=vectors)
        rows, norms, index = vs.distinct
        assert vs.distinct is vs.distinct
        assert rows.dtype == norms.dtype == np.float32
        assert len(rows) == 5
        assert np.array_equal(rows[index], vs.vectors.astype(np.float32))
        assert index[5] == index[3] == index[7] and index[6] == index[0]
        assert np.array_equal(norms, np.linalg.norm(rows, axis=1))
        for array in (rows, norms, index):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_zero_row_has_no_norm(self):
        vs = _sample_store()
        vectors = vs.vectors.copy()
        vectors[2] = 0
        with pytest.raises(ValueError, match="ev-2"):
            VectorStore(dim=vs.dim, ids=vs.ids, vectors=vectors).distinct


class TestVectorFile:
    def test_round_trip(self, tmp_path):
        vs = _sample_store()
        path = tmp_path / "v.tmv"
        write_vector_file(vs, path)
        back = read_vector_file(path)
        assert back.dim == vs.dim
        assert back.ids == vs.ids
        assert np.array_equal(back.vectors, vs.vectors)

    def test_write_read_write_is_byte_stable(self, tmp_path):
        vs = _sample_store()
        a, b = tmp_path / "a.tmv", tmp_path / "b.tmv"
        write_vector_file(vs, a)
        write_vector_file(read_vector_file(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "v.tmv"
        write_vector_file(_sample_store(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(VectorFileError, match="bad magic b'NOPE'"):
            read_vector_file(path)

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

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "v.tmv"
        write_vector_file(_sample_store(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(VectorFileError, match=r"payload has \d+ bytes, expected \d+"):
            read_vector_file(path)

    def test_trailing_bytes_beyond_count(self, tmp_path):
        path = tmp_path / "v.tmv"
        write_vector_file(_sample_store(), path)
        path.write_bytes(path.read_bytes() + b"junk")
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
        write_vector_file(VectorStore(dim=vs.dim, ids=vs.ids, vectors=vectors), path)
        with pytest.raises(VectorFileError, match=f"vector for ev-3 has {problem}"):
            read_vector_file(path)

    @given(bits=st.integers(0, 0xFFFF), other=st.sampled_from([0.0, 1.0]))
    def test_row_rejected_exactly_when_it_has_no_cosine(self, tmp_path_factory, bits, other):
        value = np.array([bits], dtype=np.uint16).view(np.float16)[0]
        vectors = np.array([[1.0, 1.0], [value, other]], dtype=np.float16)
        path = tmp_path_factory.mktemp("v") / "v.tmv"
        write_vector_file(VectorStore(dim=2, ids=("ok", "probe"), vectors=vectors), path)
        if np.isfinite(value) and (value != 0 or other != 0):
            assert np.array_equal(read_vector_file(path).vectors, vectors)
        else:
            with pytest.raises(VectorFileError, match="probe"):
                read_vector_file(path)


class TestExternalInjection:
    """A file produced by independent code must be accepted when ids align."""

    @staticmethod
    def _independent_writer(path, ids, dim):
        # Deliberately avoids the package writer: plain struct + byte ops.
        blob = struct.pack("<4s", b"TMV1") + struct.pack("<I", dim) + struct.pack("<Q", len(ids))
        rows = []
        for event_id in ids:
            blob += event_id.encode() + b"\n"
            seed_bytes = hashlib.sha256(event_id.encode()).digest()
            row = np.frombuffer((seed_bytes * (dim // 8))[: dim * 2], dtype="<u2").astype(np.float32)
            row = (row - row.mean()) / (row.std() + 1e-9)
            row /= np.linalg.norm(row)
            rows.append(row.astype("<f2"))
        blob += b"".join(r.tobytes() for r in rows)
        path.write_bytes(blob)

    def test_externally_built_file_feeds_the_pipeline(self, corpus_store, tmp_path):
        path = tmp_path / "external.tmv"
        self._independent_writer(path, corpus_store.ids(), 384)
        vs = read_vector_file(path)
        assert vs.dim == 384
        check_alignment(corpus_store, vs)
        assert len(vs) == len(corpus_store)

    def test_misaligned_ids_rejected(self, corpus_store, tmp_path):
        path = tmp_path / "external.tmv"
        ids = corpus_store.ids()
        ids[0], ids[1] = ids[1], ids[0]
        self._independent_writer(path, ids, 384)
        with pytest.raises(ValueError, match="align"):
            check_alignment(corpus_store, read_vector_file(path))


class TestVectorStoreInvariants:
    def test_dtype_enforced(self):
        with pytest.raises(ValueError):
            VectorStore(dim=4, ids=("a",), vectors=np.zeros((1, 4), dtype=np.float32))

    def test_shape_alignment_enforced(self):
        with pytest.raises(ValueError):
            VectorStore(dim=4, ids=("a", "b"), vectors=np.zeros((1, 4), dtype=np.float16))


def test_store_of_rejects_duplicate_fixture_ids():
    event = corpus_events()[0]
    with pytest.raises(AssertionError):
        store_of([event, event])
