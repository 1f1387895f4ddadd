"""Deterministic text embeddings and a bit-exact half-precision vector store.

The default embedder hashes unigrams and adjacent bigrams into signed
buckets; externally computed vectors can be injected through the "TMV1"
file format instead. The workspace artifact is a "TMV2" file, which also
records each event's timestamp and the sha256 of the events.jsonl it was
embedded from, so a reader can rank from it alone and can tell when that
events.jsonl has changed since. A VectorStore in memory has TMV2's layout:
each distinct float16 vector once and each event's index into them, so
reading and writing a file copy no per-event vector.
"""

from __future__ import annotations

import hashlib
import logging
import operator
import re
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path
from typing import Iterator, Sequence

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


class IdColumn(Sequence[str]):
    """A vector file's event ids, read-only, kept as their newline-terminated UTF-8 bytes; each is decoded when read.

    ``offsets`` holds each id's start and, last, ``len(data)``, so id i is
    ``data[offsets[i]:offsets[i + 1] - 1]``: the Apache Arrow variable-size
    binary layout, with the newline kept after each id. ``data`` must be valid
    UTF-8.
    """

    def __init__(self, data: bytes, offsets: np.ndarray) -> None:
        self._data, self._offsets = data, offsets

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, i):
        n, i = len(self), operator.index(i)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("id index out of range")
        return self._data[self._offsets[i]:self._offsets[i + 1] - 1].decode("utf-8")

    def __iter__(self) -> Iterator[str]:
        return iter(self._data.decode("utf-8").split("\n")[:-1])


class VectorFileError(RuntimeError):
    """A vector file is cut short or malformed, holds a vector with no cosine (zero or
    non-finite), or does not match the events.jsonl beside it."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split into alphanumeric/underscore runs."""
    return _TOKEN_RE.findall(text.lower())


# The unkeyed 8-byte BLAKE2b state before any input; copying it is cheaper than
# building a new one, and each copy hashes one feature. Nothing updates it.
_BLAKE2B_8 = hashlib.blake2b(digest_size=8)


@lru_cache(maxsize=1 << 16)
def _feature_hash(feature: str) -> int:
    """The feature's unkeyed 8-byte BLAKE2b digest as a little-endian int, cached for the process."""
    blake2b = _BLAKE2B_8.copy()
    blake2b.update(feature.encode("utf-8"))
    return int.from_bytes(blake2b.digest(), "little")


@dataclass(frozen=True)
class HashEmbedder:
    """Unit-norm signed-bucket hashes of a text's unigrams and adjacent bigrams.

    A feature whose 64-bit hash is h adds +1 to bucket h % dim if h's top bit
    is set, else -1. An embedder holds its ``dim`` and nothing else: each
    feature's hash comes from :func:`_feature_hash`, which every embedder
    shares, so a fresh embedder, of any ``dim``, hashes only features no
    embedder has hashed lately.
    """

    dim: int = DEFAULT_DIM

    def __post_init__(self) -> None:
        if not is_int_at_least(self.dim, 2):
            raise ValueError(f"dim must be an integer >= 2, got {self.dim!r}")

    def embed(self, text: str) -> np.ndarray:
        tokens = tokenize(text)
        if not tokens:
            raise ValueError(f"no tokens in text: {text!r}")
        features = list(tokens)
        features.extend(f"{a} {b}" for a, b in zip(tokens, tokens[1:]))
        hashes = np.fromiter(map(_feature_hash, features), dtype=np.uint64, count=len(features))
        buckets = (hashes % np.uint64(self.dim)).astype(np.intp)  # intp, the index type np.bincount takes
        signs = np.where(hashes >> np.uint64(63), 1.0, -1.0)
        # Each bucket sums ±1s, a small integer, which float64 and float32 hold
        # exactly: the vector is bit for bit the feature-by-feature float32 sum.
        vec = np.bincount(buckets, weights=signs, minlength=self.dim).astype(np.float32)
        norm = float(np.sqrt(vec.dot(vec)))  # exactly np.linalg.norm of one vector, without its checks
        if norm == 0.0:
            # Possible only if colliding features cancel exactly.
            raise ValueError(f"degenerate zero embedding for text: {text!r}")
        return vec / norm


@dataclass(frozen=True)
class VectorStore:
    """Event vectors quantized to half precision, index-aligned with their ids.

    The store holds vectors the way a TMV2 file does: ``rows`` is each
    distinct float16 vector once, in the order :func:`group_rows` gives them,
    and event i's vector is ``rows[index[i]]``. Every row is held by some
    event and has a cosine (it is neither all zeros nor non-finite); the
    store makes both arrays read-only once it has checked them.

    A store read from a TMV2 file also holds what that file records of the
    events.jsonl it was embedded from: each event's int64 epoch-µs ``ts_us``
    and the file's ``events_sha256`` (hex). Both are None otherwise, and
    :func:`write_vector_file` needs both. A store read from either format
    holds its ids as an :class:`IdColumn`, which decodes an id only
    when it is read; other stores hold a tuple.
    """

    dim: int
    ids: Sequence[str]
    rows: np.ndarray  # shape (distinct, dim), float16
    index: np.ndarray  # shape (count,), intp
    ts_us: np.ndarray | None = None
    events_sha256: str | None = None

    def __post_init__(self) -> None:
        count, rows, index = len(self.ids), self.rows, self.index
        if rows.dtype != np.float16 or index.dtype != np.intp:
            raise ValueError(f"rows must be float16 and index intp, got {rows.dtype} and {index.dtype}")
        if rows.ndim != 2 or rows.shape[1] != self.dim or index.shape != (count,):
            raise ValueError(f"rows {rows.shape}, index {index.shape} inconsistent with {count} ids × dim {self.dim}")
        if self.ts_us is not None and (self.ts_us.dtype != np.int64 or self.ts_us.shape != (count,)):
            raise ValueError(f"ts_us must be {count} int64 values, got {self.ts_us.dtype} {self.ts_us.shape}")
        beyond = np.flatnonzero((index < 0) | (index >= len(rows)))
        if beyond.size:
            first = beyond[0]
            raise ValueError(f"row index of {self.ids[first]} is {index[first]}, beyond the {len(rows)} rows")
        held = np.zeros(len(rows), dtype=bool)
        held[index] = True
        if not held.all():
            raise ValueError(f"row {np.flatnonzero(~held)[0]} is held by no event")
        # A binary16 value is NaN or inf exactly when its magnitude bits are >= 0x7C00
        # (exponent all ones), so each row's largest magnitude finds both bad cases.
        magnitude = (rows.view(np.uint16) & 0x7FFF).max(axis=1)
        holders = np.flatnonzero(((magnitude == 0) | (magnitude >= 0x7C00))[index])
        if holders.size:
            first = holders[0]
            problem = "only zeros" if magnitude[index[first]] == 0 else "a non-finite value"
            raise ValueError(f"vector for {self.ids[first]} has {problem}; cosine is undefined")
        rows.flags.writeable = index.flags.writeable = False  # so what was checked stays true

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def vectors(self) -> np.ndarray:
        """Each event's float16 vector, gathered from ``rows`` on every access."""
        return self.rows[self.index]

    def float32(self) -> np.ndarray:
        """A fresh, writable float32 copy of each event's vector."""
        return self.vectors.astype(np.float32)

    @cached_property
    def scoring(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, norms): ``rows`` as read-only float32 and their read-only float32 L2 norms.

        Byte-identical vectors share a row, so a query scores each distinct
        vector once and identical vectors score exactly alike.
        """
        rows = self.rows.astype(np.float32)
        norms = np.linalg.norm(rows, axis=1)
        rows.flags.writeable = norms.flags.writeable = False
        return rows, norms

    @cached_property
    def holders(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, starts): each event position grouped by its row, and each row's start in ``order``.

        Row r's holders are ``order[starts[r]:starts[r + 1]]``, in ascending
        position (a stable argsort of ``index``); ``starts`` ends with
        ``len(order)``. Every row is held, so no range is empty. Both arrays
        are read-only.
        """
        # numpy sorts 8- and 16-bit keys stably by radix, ~10x faster than intp at 20k events.
        order = np.argsort(self.index.astype(np.min_scalar_type(len(self.rows) - 1)), kind="stable")
        starts = np.zeros(len(self.rows) + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.index, minlength=len(self.rows)), out=starts[1:])
        order.flags.writeable = starts.flags.writeable = False
        return order, starts


def group_rows(table: np.ndarray, rows_of: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(rows, index) of a :class:`VectorStore` whose event i has the float16 row ``table[rows_of[i]]``.

    ``rows_of`` defaults to one event per table row. Byte-identical table
    rows merge into one, and ``rows`` come in ``np.unique`` order.
    """
    keys = np.ascontiguousarray(table).view(np.dtype((np.void, 2 * table.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return table[first], inverse if rows_of is None else inverse[rows_of]


def encode_store(store: EventStore, embedder: HashEmbedder) -> VectorStore:
    """Embed every event's text_repr, in store order, quantizing to float16.

    Equal texts embed to equal vectors, so each text of the store's table of
    distinct texts is embedded once, in table order, and :func:`group_rows`
    merges the texts whose float16 rows are equal. An unembeddable text
    raises ValueError naming the first event that holds it, as does a vector
    with no cosine.
    """
    rows = np.empty((len(store.texts), embedder.dim), dtype=np.float32)
    for row, text in enumerate(store.texts):
        try:
            rows[row] = embedder.embed(text)
        except ValueError as exc:
            first = store.event_ids[int(np.argmax(store.text_index == row))]
            raise ValueError(f"event {first}: {exc}") from exc
    logger.info("embedded %d events from %d distinct texts", len(store), len(store.texts))
    return VectorStore(embedder.dim, store.event_ids, *group_rows(rows.astype(np.float16), store.text_index))


def write_vector_file(vs: VectorStore, path: Path | str) -> None:
    """Write ``vs`` as TMV2; it must hold ``ts_us`` and ``events_sha256``.

    TMV2 ends each id at a newline, so an id that holds one raises ValueError
    naming it, and nothing is written.
    """
    if vs.ts_us is None or vs.events_sha256 is None:
        raise ValueError("a TMV2 file records each event's ts and the events.jsonl sha256; the store holds neither")
    ids = "".join(event_id + "\n" for event_id in vs.ids)
    if ids.count("\n") != len(vs.ids):
        bad = next(event_id for event_id in vs.ids if "\n" in event_id)
        raise ValueError(f"event {bad!r}: a TMV2 file ends each id at a newline, and this id holds one")
    with atomic_write(path, binary=True) as fh:
        fh.write(_TMV2_HEADER.pack(TMV2, vs.dim, len(vs.ids), len(vs.rows), bytes.fromhex(vs.events_sha256)))
        fh.write(ids.encode("utf-8"))
        fh.write(vs.ts_us.astype("<i8").tobytes())
        fh.write(vs.index.astype("<u4").tobytes())
        fh.write(vs.rows.astype("<f2").tobytes())


def read_vector_file(path: Path | str) -> VectorStore:
    """Read a TMV2 or a TMV1 file; a file that breaks its format raises VectorFileError naming it.

    A TMV2 store takes its rows, index, ``ts_us`` and ``events_sha256`` from
    the file as they are; a TMV1 store groups its per-event rows with
    :func:`group_rows` and has neither ``ts_us`` nor ``events_sha256``.
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

    # The ids are the first ``count`` newline-terminated lines; the payload follows them. In a
    # well-formed file they lie before the payload its header declares, so that much is
    # scanned first; only a file whose ids do not fit there is scanned to its end.
    expected_bytes = count * dim * 2 if n_rows is None else count * 12 + n_rows * dim * 2
    newlines = _newlines(data, header.size, len(data) - expected_bytes)[:count]
    if len(newlines) < count:
        newlines = _newlines(data, header.size, len(data))[:count]
    if len(newlines) < count:
        raise VectorFileError(f"{path}: id section ended after {len(newlines)} of {count} declared ids")
    offset = header.size + int(newlines[-1]) + 1 if count else header.size
    payload = len(data) - offset
    section = data[header.size:offset]  # each id with its newline
    # Checked once here, where ASCII needs no decode; an id is decoded when it is read.
    if not section.isascii():
        try:
            str(memoryview(section)[:-1], "utf-8")
        except UnicodeDecodeError as exc:
            raise VectorFileError(f"{path}: an event id is not UTF-8: {exc}") from None
    ids = IdColumn(section, np.concatenate(([0], newlines + 1)))
    if payload < expected_bytes:
        raise VectorFileError(f"{path}: payload has {payload} bytes, expected {expected_bytes}")
    if payload > expected_bytes:
        raise VectorFileError(f"{path}: {payload - expected_bytes} trailing bytes beyond declared counts")
    if n_rows is None:
        vectors = np.frombuffer(data, "<f2", count * dim, offset).reshape(count, dim).astype(np.float16)
        return _checked_store(path, dim, ids, *group_rows(vectors))

    ts_us = np.frombuffer(data, "<i8", count, offset).astype(np.int64)
    index = np.frombuffer(data, "<u4", count, offset + 8 * count).astype(np.intp)
    rows = np.frombuffer(data, "<f2", n_rows * dim, offset + 12 * count).reshape(n_rows, dim).astype(np.float16)
    ts_us.flags.writeable = False
    vs = _checked_store(path, dim, ids, rows, index, ts_us, digest.hex())
    decreases = np.flatnonzero(np.diff(ts_us) < 0)
    if decreases.size:
        raise VectorFileError(f"{path}: ts of {ids[decreases[0] + 1]} is before the ts of the event before it")
    return vs


def _newlines(data: bytes, start: int, stop: int) -> np.ndarray:
    """Positions of the newline bytes in ``data[start:stop]`` (none if ``stop < start``), relative to ``start``."""
    return np.flatnonzero(np.frombuffer(memoryview(data)[start:max(start, stop)], np.uint8) == ord("\n"))


def _checked_store(path: Path | str, dim: int, ids: IdColumn, *fields) -> VectorStore:
    """The :class:`VectorStore` of a file's fields; one that breaks its invariant raises VectorFileError."""
    try:
        return VectorStore(dim, ids, *fields)
    except ValueError as exc:
        raise VectorFileError(f"{path}: {exc}") from None


def check_alignment(store: EventStore, vs: VectorStore) -> None:
    """Require vectors to align index-for-index with the event store."""
    if tuple(vs.ids) != store.event_ids:
        missing = set(store.event_ids).symmetric_difference(vs.ids)
        detail = f"; {len(missing)} ids differ" if missing else "; same ids, different order"
        raise ValueError("vector store does not align with event store" + detail)
