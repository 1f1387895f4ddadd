"""Deterministic text embeddings and a bit-exact half-precision vector store.

The default embedder hashes unigrams and adjacent bigrams into signed
buckets; any externally computed vectors can be injected through the "TMV1"
file format instead.
"""

from __future__ import annotations

import hashlib
import logging
import re
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .events import EventStore, atomic_write, is_int_at_least

logger = logging.getLogger(__name__)

DEFAULT_DIM = 384

# Word characters keep compound tokens like "auth_fail" intact.
_TOKEN_RE = re.compile(r"[a-z0-9_]+")

MAGIC = b"TMV1"
_HEADER = struct.Struct("<4sIQ")  # magic, u32 dim, u64 count


class VectorFileError(RuntimeError):
    """A TMV1 file is cut short, malformed, or holds a vector with no cosine (zero or non-finite)."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split into alphanumeric/underscore runs."""
    return _TOKEN_RE.findall(text.lower())


def _hash64(feature: str) -> int:
    return int.from_bytes(hashlib.blake2b(feature.encode("utf-8"), digest_size=8).digest(), "little")


@dataclass(frozen=True)
class HashEmbedder:
    """Unit-norm signed-bucket hashes of a text's unigrams and adjacent bigrams."""

    dim: int = DEFAULT_DIM

    def __post_init__(self) -> None:
        if not is_int_at_least(self.dim, 2):
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            raise ValueError(f"no tokens in text: {text!r}")
        vec = np.zeros(self.dim, dtype=np.float32)
        features = list(tokens)
        features.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        for feature in features:
            h = _hash64(feature)
            sign = 1.0 if (h >> 63) & 1 else -1.0
            vec[h % self.dim] += sign
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # Possible only if colliding features cancel exactly.
            raise ValueError(f"degenerate zero embedding for text: {text!r}")
        return vec / norm


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity; symmetric by construction, errors on zero vectors."""
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.shape != b.shape:
        raise ValueError(f"dim mismatch: {a.shape} vs {b.shape}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine undefined for zero vector")
    return float(np.dot(a, b) / (na * nb))


@dataclass(frozen=True)
class VectorStore:
    """Event vectors quantized to half precision, index-aligned with their ids."""

    dim: int
    ids: tuple[str, ...]
    vectors: np.ndarray  # shape (count, dim), float16

    def __post_init__(self) -> None:
        if self.vectors.dtype != np.float16:
            raise ValueError(f"vectors must be float16, got {self.vectors.dtype}")
        if self.vectors.shape != (len(self.ids), self.dim):
            raise ValueError(
                f"shape {self.vectors.shape} inconsistent with {len(self.ids)} ids × dim {self.dim}"
            )

    def __len__(self) -> int:
        return len(self.ids)

    def float32(self) -> np.ndarray:
        """A fresh, writable float32 copy of the vectors."""
        return self.vectors.astype(np.float32)

    @cached_property
    def distinct(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, norms, index): each distinct vector once, and which one each event has.

        ``rows`` are read-only float32 and ``norms`` their read-only float32
        L2 norms; event i's vector is ``rows[index[i]]``. Byte-identical
        vectors share a row, so a query scores each distinct vector once and
        identical vectors score exactly alike. A zero or non-finite norm
        raises ValueError.
        """
        keys = np.ascontiguousarray(self.vectors).view(np.dtype((np.void, 2 * self.dim))).ravel()
        _, first, index = np.unique(keys, return_index=True, return_inverse=True)
        rows = self.vectors[first].astype(np.float32)
        norms = np.linalg.norm(rows, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
        if bad.size:
            raise ValueError(f"vector for {self.ids[first[bad[0]]]} has norm {norms[bad[0]]}; cosine is undefined")
        for array in (rows, norms, index):
            array.flags.writeable = False
        return rows, norms, index


def encode_store(store: EventStore, embedder: HashEmbedder) -> VectorStore:
    """Embed every event's text_repr, in store order, quantizing to float16.

    Equal texts embed to equal vectors, so each distinct text is embedded
    once, in first-seen order, and its float16 row is gathered per event. An
    unembeddable text raises ValueError naming the first event that holds it.
    """
    row_of: dict[str, int] = {}
    index = np.fromiter(
        (row_of.setdefault(event.text_repr, len(row_of)) for event in store), dtype=np.intp, count=len(store)
    )
    rows = np.empty((len(row_of), embedder.dim), dtype=np.float32)
    for text, row in row_of.items():
        try:
            rows[row] = embedder.embed(text)
        except ValueError as exc:
            first = next(event for event in store if event.text_repr == text)
            raise ValueError(f"event {first.event_id}: {exc}") from exc
    logger.info("embedded %d events from %d distinct texts", len(store), len(row_of))
    rows = rows.astype(np.float16)  # rebinding frees the float32 table before the gather
    return VectorStore(dim=embedder.dim, ids=tuple(store.ids()), vectors=rows[index])


def write_vector_file(vs: VectorStore, path: Path | str) -> None:
    with atomic_write(path, binary=True) as fh:
        fh.write(_HEADER.pack(MAGIC, vs.dim, len(vs.ids)))
        for event_id in vs.ids:
            fh.write(event_id.encode("utf-8"))
            fh.write(b"\n")
        fh.write(np.ascontiguousarray(vs.vectors, dtype="<f2").tobytes())


def read_vector_file(path: Path | str) -> VectorStore:
    """Read a TMV1 file; a bad magic, dim, count, length or vector raises VectorFileError naming it."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise VectorFileError(f"{path}: shorter than header")
    magic, dim, count = _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise VectorFileError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if dim < 2:
        raise VectorFileError(f"{path}: declared dim {dim} is invalid")

    offset = _HEADER.size
    ids: list[str] = []
    for _ in range(count):
        end = data.find(b"\n", offset)
        if end < 0:
            raise VectorFileError(
                f"{path}: id section ended after {len(ids)} of {count} declared ids"
            )
        ids.append(data[offset:end].decode("utf-8"))
        offset = end + 1

    payload = memoryview(data)[offset:]
    expected_bytes = count * dim * 2
    if len(payload) < expected_bytes:
        raise VectorFileError(
            f"{path}: payload has {len(payload)} bytes, expected {expected_bytes}"
        )
    if len(payload) > expected_bytes:
        raise VectorFileError(
            f"{path}: {len(payload) - expected_bytes} trailing bytes beyond declared count"
        )
    vectors = np.frombuffer(payload, dtype="<f2").reshape(count, dim).astype(np.float16)
    # A binary16 value is NaN or inf exactly when its magnitude bits are >= 0x7C00
    # (exponent all ones), so each row's largest magnitude finds both bad cases.
    magnitude = (vectors.view(np.uint16) & 0x7FFF).max(axis=1)
    bad = np.flatnonzero((magnitude == 0) | (magnitude >= 0x7C00))
    if bad.size:
        problem = "only zeros" if magnitude[bad[0]] == 0 else "a non-finite value"
        raise VectorFileError(f"{path}: vector for {ids[bad[0]]} has {problem}; cosine is undefined")
    return VectorStore(dim=dim, ids=tuple(ids), vectors=vectors)


def check_alignment(store: EventStore, vs: VectorStore) -> None:
    """Require vectors to align index-for-index with the event store."""
    store_ids = store.ids()
    if list(vs.ids) != store_ids:
        missing = set(store_ids).symmetric_difference(vs.ids)
        detail = f"; {len(missing)} ids differ" if missing else "; same ids, different order"
        raise ValueError("vector store does not align with event store" + detail)
