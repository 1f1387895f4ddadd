"""Deterministic text embeddings and a bit-exact half-precision vector store.

The default embedder hashes unigrams and adjacent bigrams into signed
buckets; externally computed vectors can be injected through the "TMV1"
file format instead. The workspace artifact is a "TMV2" file, which also
records each event's timestamp and the sha256 of the events.jsonl it was
embedded from, so a reader can rank from it alone and can tell when that
events.jsonl has changed since.
"""

from __future__ import annotations

import hashlib
import logging
import re
import struct
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .events import EventStore, atomic_write, is_int_at_least

logger = logging.getLogger(__name__)

DEFAULT_DIM = 384

# Word characters keep compound tokens like "auth_fail" intact.
_TOKEN_RE = re.compile(r"[a-z0-9_]+")

# Both formats are little-endian. Each starts with its header, then the event
# ids as newline-terminated UTF-8 in store order. TMV1 (the external input
# format) follows them with count*dim binary16 values, one row per event.
# TMV2 (the workspace artifact) follows them with count int64 epoch-µs
# timestamps, count u32 row indices and rows*dim binary16 values: each
# distinct vector once, in the order np.unique gives them, so event i's
# vector is row index[i].
TMV1 = b"TMV1"
TMV2 = b"TMV2"
_TMV1_HEADER = struct.Struct("<4sIQ")  # magic, u32 dim, u64 count
_TMV2_HEADER = struct.Struct("<4sIQQ32s")  # magic, u32 dim, u64 count, u64 rows, sha256 of events.jsonl


class VectorFileError(RuntimeError):
    """A vector file is cut short or malformed, holds a vector with no cosine (zero or
    non-finite), or does not match the events.jsonl beside it."""


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
    """Event vectors quantized to half precision, index-aligned with their ids.

    A store read from a TMV2 file also holds what that file records of the
    events.jsonl it was embedded from: each event's int64 epoch-µs ``ts_us``
    and the file's ``events_sha256`` (hex). Both are None otherwise, and
    :func:`write_vector_file` needs both.
    """

    dim: int
    ids: tuple[str, ...]
    vectors: np.ndarray  # shape (count, dim), float16
    ts_us: np.ndarray | None = None
    events_sha256: str | None = None

    def __post_init__(self) -> None:
        if self.vectors.dtype != np.float16:
            raise ValueError(f"vectors must be float16, got {self.vectors.dtype}")
        if self.vectors.shape != (len(self.ids), self.dim):
            raise ValueError(
                f"shape {self.vectors.shape} inconsistent with {len(self.ids)} ids × dim {self.dim}"
            )
        if self.ts_us is not None and (self.ts_us.dtype != np.int64 or self.ts_us.shape != (len(self.ids),)):
            raise ValueError(f"ts_us must be {len(self.ids)} int64 values, got {self.ts_us.dtype} {self.ts_us.shape}")

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
        raises ValueError. A TMV2 read fills this in from the file, and
        :func:`encode_store` from its table of distinct texts.
        """
        return _grouped(self.vectors, np.arange(len(self.ids)), self.ids)

    def with_source(self, ts_us: np.ndarray, events_sha256: str) -> VectorStore:
        """This store, keeping its ``distinct``, with the ``ts_us`` and ``events_sha256`` of its events.jsonl."""
        vs = replace(self, ts_us=ts_us, events_sha256=events_sha256)
        vs.__dict__["distinct"] = self.distinct  # the slot cached_property fills
        return vs


def _grouped(table: np.ndarray, rows_of: np.ndarray, ids: tuple[str, ...]) -> tuple[np.ndarray, ...]:
    """``VectorStore.distinct`` of events whose float16 rows are ``table[rows_of]``; equal table rows merge."""
    keys = np.ascontiguousarray(table).view(np.dtype((np.void, 2 * table.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    rows, norms, index = _frozen_distinct(table[first], inverse[rows_of])
    bad = np.flatnonzero(~np.isfinite(norms) | (norms == 0.0))
    if bad.size:
        holder = np.flatnonzero(index == bad[0])[0]
        raise ValueError(f"vector for {ids[holder]} has norm {norms[bad[0]]}; cosine is undefined")
    return rows, norms, index


def _frozen_distinct(rows: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``VectorStore.distinct`` of float16 ``rows`` and an intp ``index``."""
    rows = rows.astype(np.float32)
    norms = np.linalg.norm(rows, axis=1)
    for array in (rows, norms, index):
        array.flags.writeable = False
    return rows, norms, index


def encode_store(store: EventStore, embedder: HashEmbedder) -> VectorStore:
    """Embed every event's text_repr, in store order, quantizing to float16.

    Equal texts embed to equal vectors, so each distinct text is embedded
    once, in first-seen order, and its float16 row (which ``distinct`` groups)
    is gathered per event. An unembeddable text raises ValueError naming the
    first event that holds it.
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
    vs = VectorStore(dim=embedder.dim, ids=tuple(store.ids()), vectors=rows[index])
    vs.__dict__["distinct"] = _grouped(rows, index, vs.ids)  # the slot cached_property fills
    return vs


def write_vector_file(vs: VectorStore, path: Path | str) -> None:
    """Write ``vs`` as TMV2; it must hold ``ts_us`` and ``events_sha256``."""
    if vs.ts_us is None or vs.events_sha256 is None:
        raise ValueError("a TMV2 file records each event's ts and the events.jsonl sha256; the store holds neither")
    rows, _, index = vs.distinct
    with atomic_write(path, binary=True) as fh:
        fh.write(_TMV2_HEADER.pack(TMV2, vs.dim, len(vs.ids), len(rows), bytes.fromhex(vs.events_sha256)))
        for event_id in vs.ids:
            fh.write(event_id.encode("utf-8"))
            fh.write(b"\n")
        fh.write(vs.ts_us.astype("<i8").tobytes())
        fh.write(index.astype("<u4").tobytes())
        fh.write(rows.astype("<f2").tobytes())


def read_vector_file(path: Path | str) -> VectorStore:
    """Read a TMV2 or a TMV1 file; a file that breaks its format raises VectorFileError naming it.

    A TMV2 store comes with ``ts_us``, ``events_sha256`` and ``distinct``
    read from the file; a TMV1 store has none of them.
    """
    data = Path(path).read_bytes()
    magic = data[:4]
    header = {TMV1: _TMV1_HEADER, TMV2: _TMV2_HEADER}.get(magic)
    if len(data) < (header or _TMV1_HEADER).size:
        raise VectorFileError(f"{path}: shorter than header")
    if header is None:
        raise VectorFileError(f"{path}: bad magic {magic!r}, expected {TMV2!r} or {TMV1!r}")
    if magic == TMV2:
        _, dim, count, n_rows, digest = header.unpack_from(data, 0)
    else:
        (_, dim, count), n_rows = header.unpack_from(data, 0), None
    if dim < 2:
        raise VectorFileError(f"{path}: declared dim {dim} is invalid")

    # The ids are the first ``count`` newline-terminated lines; the payload follows them.
    newlines = np.flatnonzero(np.frombuffer(data, np.uint8, offset=header.size) == ord("\n"))[:count]
    if len(newlines) < count:
        raise VectorFileError(f"{path}: id section ended after {len(newlines)} of {count} declared ids")
    offset = header.size + int(newlines[-1]) + 1 if count else header.size
    payload = len(data) - offset
    try:
        ids = data[header.size:offset - 1].decode("utf-8").split("\n") if count else []
    except UnicodeDecodeError as exc:
        raise VectorFileError(f"{path}: an event id is not UTF-8: {exc}") from None
    expected_bytes = count * dim * 2 if n_rows is None else count * 12 + n_rows * dim * 2
    if payload < expected_bytes:
        raise VectorFileError(f"{path}: payload has {payload} bytes, expected {expected_bytes}")
    if payload > expected_bytes:
        raise VectorFileError(f"{path}: {payload - expected_bytes} trailing bytes beyond declared counts")
    if n_rows is None:
        vectors = np.frombuffer(data, "<f2", count * dim, offset).reshape(count, dim).astype(np.float16)
        _check_rows(path, vectors, ids, np.arange(count))
        return VectorStore(dim=dim, ids=tuple(ids), vectors=vectors)

    ts_us = np.frombuffer(data, "<i8", count, offset).astype(np.int64)
    index = np.frombuffer(data, "<u4", count, offset + 8 * count).astype(np.intp)
    rows = np.frombuffer(data, "<f2", n_rows * dim, offset + 12 * count).reshape(n_rows, dim).astype(np.float16)
    beyond = np.flatnonzero(index >= n_rows)
    if beyond.size:
        raise VectorFileError(f"{path}: row index of {ids[beyond[0]]} is {index[beyond[0]]}, beyond the {n_rows} rows")
    held = np.zeros(n_rows, dtype=bool)
    held[index] = True
    if not held.all():
        raise VectorFileError(f"{path}: row {np.flatnonzero(~held)[0]} is held by no event")
    decreases = np.flatnonzero(np.diff(ts_us) < 0)
    if decreases.size:
        raise VectorFileError(f"{path}: ts of {ids[decreases[0] + 1]} is before the ts of the event before it")
    _check_rows(path, rows, ids, index)
    ts_us.flags.writeable = False
    vs = VectorStore(dim=dim, ids=tuple(ids), vectors=rows[index], ts_us=ts_us, events_sha256=digest.hex())
    vs.__dict__["distinct"] = _frozen_distinct(rows, index)  # the slot cached_property fills
    return vs


def _check_rows(path: Path | str, rows: np.ndarray, ids: list[str], index: np.ndarray) -> None:
    """Reject a zero or non-finite row, naming the first event (event i has ``rows[index[i]]``) that holds one."""
    # A binary16 value is NaN or inf exactly when its magnitude bits are >= 0x7C00
    # (exponent all ones), so each row's largest magnitude finds both bad cases.
    magnitude = (rows.view(np.uint16) & 0x7FFF).max(axis=1)
    holders = np.flatnonzero(((magnitude == 0) | (magnitude >= 0x7C00))[index])
    if holders.size:
        first = holders[0]
        problem = "only zeros" if magnitude[index[first]] == 0 else "a non-finite value"
        raise VectorFileError(f"{path}: vector for {ids[first]} has {problem}; cosine is undefined")


def check_alignment(store: EventStore, vs: VectorStore) -> None:
    """Require vectors to align index-for-index with the event store."""
    store_ids = store.ids()
    if list(vs.ids) != store_ids:
        missing = set(store_ids).symmetric_difference(vs.ids)
        detail = f"; {len(missing)} ids differ" if missing else "; same ids, different order"
        raise ValueError("vector store does not align with event store" + detail)
