"""Normalize raw JSONL/CSV log records into a canonical, deterministically ordered event store.

Records are coerced to UTC, given stable ids and rendered into a compact text
representation for embedding. The store keeps them as columns (ids, epoch-µs
timestamps, a table of distinct texts) and builds an Event only when one is
read; ``tracking`` buckets them by ISO week.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import logging
import numbers
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np

logger = logging.getLogger(__name__)

# Epoch values at or above this magnitude are taken as milliseconds
# (1e11 s is year 5138; 1e11 ms is 1973, so the ranges do not overlap).
_EPOCH_MS_THRESHOLD = 1e11

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)


class RecordParseError(ValueError):
    """A single raw record could not be normalized (record is skipped)."""


class IngestError(RuntimeError):
    """Ingestion produced zero usable events, or a canonical events.jsonl breaks its format."""


@dataclass(frozen=True, order=True)
class WeekKey:
    """ISO-8601 week bucket; orders consistently with calendar order."""

    iso_year: int
    iso_week: int

    def __post_init__(self) -> None:
        if not 1 <= self.iso_week <= 53:
            raise ValueError(f"iso_week out of range: {self.iso_week}")

    def __str__(self) -> str:
        return f"{self.iso_year}-W{self.iso_week:02d}"

    def monday(self) -> datetime:
        d = datetime.fromisocalendar(self.iso_year, self.iso_week, 1)
        return d.replace(tzinfo=timezone.utc)


@dataclass(frozen=True)
class Event:
    """One normalized log record."""

    event_id: str
    ts: datetime
    product: str = ""
    event_type: str = ""
    asset_id: str = ""
    msg: str = ""
    context: Mapping[str, str] = field(default_factory=dict)
    tech: tuple[str, ...] = ()
    attack: tuple[str, ...] = ()
    risk_tag: tuple[str, ...] = ()
    text_repr: str = ""


# Canonical field order for events.jsonl lines.
EVENT_FIELDS = tuple(f.name for f in fields(Event))
_EVENT_FIELD_SET = frozenset(EVENT_FIELDS)
_event_fields = operator.attrgetter(*EVENT_FIELDS)


def _row(event_id, ts, product, event_type, asset_id, msg, context, tech, attack, risk_tag, text_repr) -> tuple:
    """An event, given in Event's field order, as a store holds it: (event_id, epoch-µs ts, text_repr, record)."""
    record = (product, event_type, asset_id, msg, tuple(context.items()), tuple(tech), tuple(attack), tuple(risk_tag))
    return event_id, epoch_us(ts), text_repr, record


def _parse_timestamp(raw) -> tuple[datetime, bool]:
    """Parse a raw timestamp; returns (UTC instant, was_naive)."""
    if isinstance(raw, str):
        text = raw.strip()
        if not text:
            raise RecordParseError("empty timestamp")
        # float() takes no ISO time (it holds ":"), and 8 ASCII digits are a YYYYMMDD date, not epoch seconds.
        if ":" not in text and not (len(text) == 8 and text.isascii() and text.isdigit()):
            try:
                seconds = float(text)
            except ValueError:
                pass
            else:
                return _from_epoch(seconds), False
        iso = text[:-1] + "+00:00" if text.endswith(("Z", "z")) else text
        try:
            dt = datetime.fromisoformat(iso)
        except ValueError as exc:
            raise RecordParseError(f"unparseable timestamp: {raw!r}") from exc
        if dt.tzinfo is None:
            # Naive timestamps are taken to already be UTC.
            return dt.replace(tzinfo=timezone.utc), True
        return dt.astimezone(timezone.utc), False
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return _from_epoch(raw), False
    raise RecordParseError(f"not a timestamp: {raw!r}")


def _from_epoch(value: int | float) -> datetime:
    try:
        seconds = float(value)
        if abs(seconds) >= _EPOCH_MS_THRESHOLD:
            seconds /= 1000.0
        return datetime.fromtimestamp(seconds, tz=timezone.utc)
    except (OverflowError, OSError, ValueError) as exc:  # NaN, infinity, or outside years 1-9999
        raise RecordParseError(f"epoch timestamp out of range: {value!r}") from exc


def epoch_us(ts: datetime) -> int:
    """Exact integer microseconds since the Unix epoch."""
    return (ts - _EPOCH) // _ONE_US


def from_epoch_us(us: int) -> datetime:
    """The UTC instant ``us`` integer microseconds after the Unix epoch (the inverse of :func:`epoch_us`)."""
    return _EPOCH + timedelta(microseconds=us)


def coerce_timestamp(raw) -> datetime:
    """Coerce an ISO-8601 string or epoch seconds/milliseconds to a UTC instant.

    Naive ISO strings are interpreted as already-UTC; epoch unit is
    auto-detected by magnitude.
    """
    dt, _ = _parse_timestamp(raw)
    return dt


def parse_cutoff(raw) -> datetime:
    """An as-of cutoff instant: a bare ``YYYY-MM-DD`` date means the inclusive end of
    that UTC day; anything else is read by :func:`coerce_timestamp`."""
    try:
        day = datetime.strptime(raw.strip(), "%Y-%m-%d")
    except (AttributeError, ValueError):  # not a string, or not a bare date
        return coerce_timestamp(raw)
    return day.replace(tzinfo=timezone.utc) + timedelta(days=1) - _ONE_US


def is_int_at_least(value, low: int) -> bool:
    """True for an integer (not a bool) that is >= ``low``."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= low


def derive_event_id(
    ts: datetime,
    product: str = "",
    event_type: str = "",
    asset_id: str = "",
    msg: str = "",
    explicit_id: str = "",
) -> str:
    """Return the record's explicit id, or a stable content digest.

    The digest covers the UTC ISO timestamp plus the identity/text fields,
    joined with the unit separator "\\x1f". A field can hold that separator
    itself, so such a record's fields are hashed as their JSON array instead:
    JSON escapes U+001F, so that payload holds no raw separator, while a joined
    payload holds exactly four, and no two distinct records share a payload.
    """
    if explicit_id:
        return explicit_id
    parts = (ts.isoformat(), product, event_type, asset_id, msg)
    payload = "\x1f".join(parts)
    if payload.count("\x1f") != 4:
        payload = json.dumps(parts)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_text_repr(
    product: str = "",
    event_type: str = "",
    asset_id: str = "",
    msg: str = "",
    tech: Iterable[str] = (),
    attack: Iterable[str] = (),
    risk_tag: Iterable[str] = (),
) -> str:
    """Join the salient fields, in fixed order, with " | "; empty fields are omitted."""
    parts = [product, event_type, asset_id, msg]
    parts.extend(tech)
    parts.extend(attack)
    parts.extend(risk_tag)
    joined = " | ".join(filter(None, parts))
    if not joined:
        raise RecordParseError("all text fields empty; event is unembeddable")
    return joined


def period_of(ts: datetime) -> WeekKey:
    """ISO week-date bucket (weeks start Monday; week 1 holds the first Thursday)."""
    year, week, _ = ts.isocalendar()
    return WeekKey(year, week)


class EventStore(Sequence[Event]):
    """Immutable collection of events in ts order, held as columns.

    A store whose ts would decrease from one event to the next cannot be built
    (ValueError naming the event), since the as-of cut in retrieval takes a
    prefix of the store and tracking takes each ISO week as one run of it.
    ``ingest`` also sorts by (ts, event_id) and keeps the first event of each
    event_id, so its store is invariant under input-line shuffling. However it
    is built, a store holds the ``event_ids`` (a tuple, or the sequence given
    to :meth:`of_timeline`), their read-only int64 ``ts_us`` (epoch µs), the distinct ``texts`` (text_repr) in
    first-seen order with each event's ``text_index``, and one shared record
    per distinct combination of the other fields (see :func:`_row`). The stages
    read these columns; an :class:`Event` is built, with its own context, only
    when the store is indexed or iterated.
    """

    def __init__(self, events: Iterable[Event] = (), source_manifest: tuple = (), duplicates_dropped: int = 0) -> None:
        self._hold_rows(_row(*_event_fields(e)) for e in events)
        self.source_manifest, self.duplicates_dropped = tuple(source_manifest), duplicates_dropped

    def _hold_rows(self, rows: Iterable[tuple[str, int, str, tuple]]) -> None:
        """Hold (event_id, epoch-µs ts, text_repr, record) rows; texts and records are numbered as first seen."""
        ids, ts_us, text_index, record_index, texts, records = [], [], [], [], {}, {}
        for event_id, us, text_repr, record in rows:
            ids.append(event_id)
            ts_us.append(us)
            text_index.append(texts.setdefault(text_repr, len(texts)))
            record_index.append(records.setdefault(record, len(records)))
        self._hold(tuple(ids), ts_us, tuple(texts), text_index, tuple(records), record_index)

    def _hold(self, ids, ts_us, texts: tuple[str, ...], text_index, records: tuple[tuple, ...], record_index) -> None:
        self.event_ids, self.texts, self._records = ids, texts, records
        self.ts_us = np.array(ts_us, dtype=np.int64)
        decreases = np.flatnonzero(np.diff(self.ts_us) < 0)
        if decreases.size:
            event_id = self.event_ids[decreases[0] + 1]
            raise ValueError(f"event store is not sorted by ts: {event_id} is older than the event before it")
        self.text_index = np.array(text_index, dtype=np.intp)
        self._record_index = np.array(record_index, dtype=np.intp)
        self.ts_us.flags.writeable = self.text_index.flags.writeable = False

    @classmethod
    def of_timeline(cls, ids: Sequence[str], ts_us: np.ndarray) -> EventStore:
        """A store of bare events, each an id and a ts, with one empty text and one empty record.

        ``ids`` is kept as it is, uncopied, so a column that decodes each id
        when it is read (a vector file's) decodes only the ids read from the
        store. ``ts_us`` is int64 epoch µs in store order, copied; it
        must hold one value per id and must not decrease (ValueError otherwise).
        """
        if len(ids) != len(ts_us):
            raise ValueError(f"{len(ids)} ids but {len(ts_us)} timestamps")
        store, nothing = cls(), np.zeros(len(ids), dtype=np.intp)
        store._hold(ids, ts_us, ("",), nothing, (("", "", "", "", (), (), (), ()),), nothing)
        return store

    def __len__(self) -> int:
        return len(self.event_ids)

    def __getitem__(self, i):
        """Event ``i`` built from the columns: the one place a store builds an Event."""
        event_id = self.event_ids[i]
        product, event_type, asset_id, msg, context, tech, attack, risk_tag = self._records[self._record_index[i]]
        return Event(
            event_id, from_epoch_us(int(self.ts_us[i])), product, event_type, asset_id, msg, dict(context),
            tech, attack, risk_tag, self.texts[self.text_index[i]],
        )

    def week_range(self) -> tuple[WeekKey, WeekKey] | None:
        if not len(self):
            return None
        return period_of(from_epoch_us(int(self.ts_us[0]))), period_of(from_epoch_us(int(self.ts_us[-1])))

    def manifest(self) -> dict:
        total_records = sum(f["records"] for f in self.source_manifest)
        total_skipped = sum(f["skipped"] for f in self.source_manifest)
        naive = sum(f["naive_timestamps"] for f in self.source_manifest)
        rng = self.week_range()
        return {
            "files": list(self.source_manifest),
            "records": total_records,
            "events": len(self),
            "skipped": total_skipped,
            "duplicates_dropped": self.duplicates_dropped,
            "naive_timestamps": naive,
            "week_range": [str(rng[0]), str(rng[1])] if rng else None,
        }


def _coerce_scalar(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return json.dumps(value)
    return json.dumps(value, sort_keys=True, ensure_ascii=False)


def _coerce_text(value) -> str:
    """A text field's value: "" for None, and any other value as :func:`_coerce_scalar` gives it ("" stays "")."""
    return "" if value is None else _coerce_scalar(value)


def _holds_non_str(items) -> bool:
    """True when any item is not a str (``str.join`` checks each item's type in C)."""
    try:
        "".join(items)
    except TypeError:
        return True
    return False


def _coerce_list(value) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)):
        return tuple(map(_coerce_scalar, value)) if _holds_non_str(value) else tuple(value)
    if value is None or value == "":
        return ()
    if isinstance(value, str):
        return tuple(filter(None, map(str.strip, value.split(";"))))
    raise RecordParseError(f"expected list or ';'-joined string, got {value!r}")


_TEXT_FIELDS = ("product", "event_type", "asset_id", "msg", "event_id", "text_repr")
_LIST_FIELDS = ("tech", "attack", "risk_tag")
_NO_TEXTS = ("",) * len(_TEXT_FIELDS)


def _build_event(fields: dict) -> tuple[tuple, bool]:
    """(:func:`_row`, ts was naive) of a mapping of canonical field names to raw values."""
    raw_ts = fields.get("ts")
    if raw_ts in (None, ""):
        raise RecordParseError("missing ts")
    ts, was_naive = _parse_timestamp(raw_ts)

    texts = list(map(fields.get, _TEXT_FIELDS, _NO_TEXTS))  # a missing field reads ""
    if _holds_non_str(texts):  # a null, number, bool, list or object among them
        texts = map(_coerce_text, map(fields.get, _TEXT_FIELDS))
    product, event_type, asset_id, msg, explicit_id, text_repr = texts
    tech, attack, risk_tag = map(_coerce_list, map(fields.get, _LIST_FIELDS))

    raw_context = fields.get("context") or {}
    if isinstance(raw_context, str):
        try:
            raw_context = json.loads(raw_context) if raw_context else {}
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"bad context JSON: {raw_context!r}") from exc
    if not isinstance(raw_context, dict):
        raise RecordParseError(f"context must be an object, got {raw_context!r}")
    context = {str(key): _coerce_scalar(value) for key, value in raw_context.items()} if raw_context else {}
    if not fields.keys() <= _EVENT_FIELD_SET:  # unknown top-level keys are preserved rather than dropped
        for key, value in fields.items():
            if key not in _EVENT_FIELD_SET:
                context[str(key)] = _coerce_scalar(value)

    if not text_repr:
        text_repr = build_text_repr(product, event_type, asset_id, msg, tech, attack, risk_tag)
    if "\n" in explicit_id:
        raise RecordParseError(f"event_id {explicit_id!r} holds a newline, which ends an id in a TMV2 file")
    try:
        "".join([explicit_id, product, event_type, asset_id, msg, text_repr,
                 *tech, *attack, *risk_tag, *context, *context.values()]).encode()
    except UnicodeEncodeError:
        raise RecordParseError("text holds an invalid UTF-8 byte or a lone surrogate") from None

    event_id = derive_event_id(ts, product, event_type, asset_id, msg, explicit_id=explicit_id)
    return _row(event_id, ts, product, event_type, asset_id, msg, context, tech, attack, risk_tag, text_repr), was_naive


def read_mapping(path: Path | str) -> dict[str, str]:
    """Read a CSV column mapping file of `field=column` lines (a leading UTF-8 byte-order mark is dropped)."""
    mapping: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8-sig").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, column = line.partition("=")
        if not sep:
            raise IngestError(f"bad mapping line (expected field=column): {line!r}")
        mapping[key.strip()] = column.strip()
    return mapping


# Raw inputs are decoded with surrogateescape, so an invalid UTF-8 byte becomes
# a lone surrogate in its record, which _build_event then rejects; utf-8-sig drops
# a leading byte-order mark, which would otherwise begin the first line or CSV header.
def _iter_jsonl(path: Path) -> Iterator[tuple[int, str]]:
    with path.open(encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield line_no, line


# json.loads without its Python wrapper: the C scanner, and the checks json.loads
# makes around it, raising the same JSONDecodeError messages.
_scan_json = json.scanner.make_scanner(json.JSONDecoder())
_skip_json_space = json.decoder.WHITESPACE.match


def _json_object(line: str) -> dict:
    """The object a stripped JSONL line holds, parsed as ``json.loads(line)`` parses it."""
    try:
        if line.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
        try:
            obj, end = _scan_json(line, 0)
        except StopIteration as err:
            raise json.JSONDecodeError("Expecting value", line, err.value) from None
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, _skip_json_space(line, end).end())
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise RecordParseError(f"expected object, got {type(obj).__name__}")
    return obj


def _iter_csv(path: Path, mapping: dict[str, str]) -> Iterator[tuple[int, dict]]:
    """(first physical line, mapped non-empty fields) of each record after the header."""
    with path.open(encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        first = reader.line_num + 1
        for values in reader:
            line_no, first = first, reader.line_num + 1
            if values:  # a blank line holds no record
                row = dict(zip(header, values))
                yield line_no, {canonical: row[column] for canonical, column in mapping.items() if row.get(column)}


@contextmanager
def _cyclic_gc_paused() -> Iterator[None]:
    """Pause cyclic garbage collection, then restore the caller's setting on every exit.

    Building a store allocates tens of thousands of acyclic row tuples, so a
    cyclic collection meanwhile would only rescan them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@_cyclic_gc_paused()
def ingest(paths: Iterable[Path | str], mapping: dict[str, str] | None = None) -> EventStore:
    """Parse, normalize, order, and deduplicate raw JSONL/CSV files.

    Per-record failures (undecodable bytes and bad JSON included) are logged
    as ``path:line`` warnings and counted; zero usable events is fatal. CSV
    inputs require a column mapping.
    """
    parsed: list[tuple] = []
    # Each distinct record, so that equal rows share one tuple. Looked up while a
    # record is fresh in cache, it spares the store a cold hash of each record.
    shared: dict[tuple, tuple] = {}
    manifest: list[dict] = []

    for raw_path in paths:
        path = Path(raw_path)
        records = skipped = naive_count = 0
        if path.suffix.lower() == ".csv":
            if not mapping:
                raise IngestError(f"CSV input {path.name} requires a column mapping")
            record_iter, to_fields = _iter_csv(path, mapping), dict
        else:
            record_iter, to_fields = _iter_jsonl(path), _json_object

        for line_no, raw in record_iter:
            records += 1
            try:
                row, was_naive = _build_event(to_fields(raw))
            except RecordParseError as exc:
                skipped += 1
                logger.warning("%s:%d: skipping record: %s", path.name, line_no, exc)
                continue
            event_id, us, text_repr, record = row
            parsed.append((event_id, us, text_repr, shared.setdefault(record, record)))
            naive_count += was_naive

        manifest.append(
            {
                "path": path.name,
                "records": records,
                "kept": records - skipped,
                "skipped": skipped,
                "naive_timestamps": naive_count,
            }
        )

    if not parsed:
        raise IngestError("no parseable records in any input file")

    parsed.sort(key=operator.itemgetter(1, 0))  # (ts, event_id)
    first: dict[str, tuple] = {}  # in sorted order, so the store's order
    for row in parsed:
        first.setdefault(row[0], row)
    dropped = len(parsed) - len(first)
    if dropped:
        logger.info("dropped %d duplicate event ids", dropped)
    store = EventStore((), manifest, dropped)
    store._hold_rows(first.values())
    return store


@contextmanager
def atomic_write(path: Path | str, binary: bool = False) -> Iterator[IO]:
    """Open a temp file beside ``path``; on success move it onto ``path``, on any exception delete it.

    Every artifact is written through here, so a reader sees either the old
    file or the whole new one, and no temp file is left behind. The parent
    directory is created if missing. Text is UTF-8 with no newline
    translation. Nothing is fsynced: this covers a crashed process or a
    raised error, not a power loss.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("wb") if binary else tmp.open("w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(obj, path: Path | str, sort_keys: bool = True) -> None:
    """Write a JSON artifact: two-space indent, sorted keys unless asked otherwise, a final newline."""
    with atomic_write(path) as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=sort_keys) + "\n")


def write_events_jsonl(store: EventStore, path: Path | str) -> None:
    with atomic_write(path) as fh:
        fh.writelines(line + "\n" for line in _json_lines(store))


# Compact JSON that keeps non-ASCII text as it is; synth writes its raw log lines with it too.
_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode
# A record's fields as they sit between an events.jsonl line's ts and text_repr.
_RECORD_JSON = ",".join(f'"{name}":{{}}' for name in EVENT_FIELDS[2:-1])


def _json_lines(store: EventStore) -> Iterator[str]:
    """Each event's events.jsonl line, Event's fields in order.

    Each distinct field value, record and text is encoded once per call, a
    record's context aside (contexts rarely repeat), and the pieces are
    spliced into each line.
    """
    encoded: dict[str | tuple[str, ...], str] = {}

    def value_json(value: str | tuple[str, ...]) -> str:
        text = encoded.get(value)
        if text is None:
            text = encoded[value] = _JSON(value)
        return text

    records = [
        _RECORD_JSON.format(*map(value_json, r[:4]), _JSON(dict(r[4])), *map(value_json, r[5:]))
        for r in store._records
    ]
    texts = list(map(_JSON, store.texts))
    columns = store.event_ids, store.ts_us.tolist(), store._record_index.tolist(), store.text_index.tolist()
    for event_id, ts_us, record, text in zip(*columns):
        ts = from_epoch_us(ts_us).isoformat()
        yield f'{{"event_id":{_JSON(event_id)},"ts":"{ts}",{records[record]},"text_repr":{texts[text]}}}'


# Bytes of whole lines parsed per json.loads call while loading a store: as
# fast as 1 MiB, and the chunk's transient copies stay small beside the store.
_LOAD_CHUNK_BYTES = 1 << 16
_STRING_FIELDS = ("event_id", "ts", "product", "event_type", "asset_id", "msg", "text_repr")
_event_field_values = operator.itemgetter(*EVENT_FIELDS)
_ZERO = timedelta(0)


def _parse_lines(path: Path, first_line_no: int, lines: list[bytes]) -> list:
    """Parse lines that should each hold one JSON value, with one json.loads call when they do.

    Each line keeps its newline, so a string left open at a line's end is a
    syntax error. When every line starts with "{" and the values number as
    many as the lines, a value that spans a line boundary has the next line's
    "{" right after a comma inside it: a syntax error inside an object, and an
    object item inside a list, which :func:`_canonical_event` rejects. So each
    value it accepts is exactly one line. Otherwise the lines are parsed one by
    one, and the first that fails raises IngestError naming it.
    """
    data = b",".join(lines)
    if data[:1] == b"{" and data.count(b"\n,{") == len(lines) - 1 and lines[-1].endswith(b"\n"):
        try:
            values = json.loads((b"[" + data + b"]").decode("utf-8"))
        except ValueError:
            pass
        else:
            if len(values) == len(lines):
                return values
    values = []
    for line_no, line in enumerate(lines, start=first_line_no):
        if not line.endswith(b"\n"):
            raise IngestError(f"{path}:{line_no}: the line has no newline: the file is cut short")
        try:
            values.append(json.loads(line.decode("utf-8")))
        except ValueError as exc:
            raise IngestError(f"{path}:{line_no}: not one JSON value: {exc}") from None
    return values


def _canonical_event(value) -> tuple[str, int, str, tuple]:
    """(event_id, epoch-µs ts, text_repr, record) of one events.jsonl line.

    ValueError says how the line breaks the format.
    """
    if type(value) is not dict:
        raise ValueError(f"expected an object, got {type(value).__name__}")
    if value.keys() != _EVENT_FIELD_SET:
        missing = sorted(_EVENT_FIELD_SET - value.keys())
        extra = sorted(value.keys() - _EVENT_FIELD_SET)
        raise ValueError(f"fields differ from Event's: missing {missing}, unexpected {extra}")
    event_id, ts, product, event_type, asset_id, msg, context, tech, attack, risk_tag, text_repr = (
        _event_field_values(value)
    )
    if _holds_non_str((event_id, ts, product, event_type, asset_id, msg, text_repr)):
        name = next(name for name in _STRING_FIELDS if type(value[name]) is not str)
        raise ValueError(f"{name} is not a string: {value[name]!r}")
    if not event_id or not text_repr:
        raise ValueError("event_id and text_repr must not be empty")
    if not type(tech) is type(attack) is type(risk_tag) is list or _holds_non_str(tech + attack + risk_tag):
        name = next(name for name in _LIST_FIELDS if type(value[name]) is not list or _holds_non_str(value[name]))
        raise ValueError(f"{name} is not a list of strings: {value[name]!r}")
    if type(context) is not dict or _holds_non_str(context.values()):
        raise ValueError(f"context is not an object of strings: {context!r}")
    instant = datetime.fromisoformat(ts)
    if instant.utcoffset() != _ZERO:
        offset = "no UTC offset" if instant.tzinfo is None else "an offset other than UTC"
        raise ValueError(f"ts has {offset}: {ts!r}")
    return _row(event_id, instant, product, event_type, asset_id, msg, context, tech, attack, risk_tag, text_repr)


@_cyclic_gc_paused()
def load_events_jsonl(path: Path | str) -> EventStore:
    """Load a canonical events.jsonl written by :func:`write_events_jsonl`, strictly.

    Every line must be one JSON object with exactly the Event fields and their
    types, a UTC ``ts`` and a newline at its end; ``(ts, event_id)`` must
    strictly increase from line to line and no event_id may repeat. The first
    line that breaks a rule raises ``IngestError("<path>:<line>: ...")``, as
    does a file with no events. Nothing is re-normalized, re-sorted or dropped:
    the store is the file, kept as columns. Its ``source_manifest`` is empty.
    """
    path = Path(path)
    store = EventStore()
    store._hold_rows(_canonical_rows(path))
    if not len(store):
        raise IngestError(f"{path}:1: no events")
    return store


def _canonical_rows(path: Path) -> Iterator[tuple[str, int, str, tuple]]:
    """The :func:`_canonical_event` of each line of ``path``, checked against the lines before it."""
    seen: set[str] = set()
    previous: tuple[int, str] | None = None
    line_no = 0
    with path.open("rb") as fh:
        while lines := fh.readlines(_LOAD_CHUNK_BYTES):
            for value in _parse_lines(path, line_no + 1, lines):
                line_no += 1
                try:
                    row = event_id, ts_us, _, _ = _canonical_event(value)
                except ValueError as exc:
                    raise IngestError(f"{path}:{line_no}: {exc}") from None
                key = ts_us, event_id
                if previous is not None and key <= previous:
                    raise IngestError(f"{path}:{line_no}: (ts, event_id) is not after the previous line's")
                if event_id in seen:
                    raise IngestError(f"{path}:{line_no}: event_id {event_id!r} repeats an earlier line's")
                seen.add(event_id)
                previous = key
                yield row
