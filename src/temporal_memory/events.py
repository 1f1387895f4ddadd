"""Normalize raw JSONL/CSV log records into a canonical, deterministically ordered event store.

Records are coerced to UTC, given stable ids, rendered into a compact text
representation for embedding, and bucketed by ISO week.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import logging
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from datetime import date, datetime, timedelta, timezone
from functools import cached_property
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping

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

    def next(self) -> "WeekKey":
        nxt = self.monday() + timedelta(days=7)
        y, w, _ = nxt.isocalendar()
        return WeekKey(y, w)


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

    def sort_key(self) -> tuple[datetime, str]:
        return (self.ts, self.event_id)

    def to_json(self) -> str:
        obj = {**vars(self), "ts": self.ts.isoformat(), "context": dict(self.context)}
        return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# Canonical field order for events.jsonl lines.
EVENT_FIELDS = tuple(f.name for f in fields(Event))
_EVENT_FIELD_SET = frozenset(EVENT_FIELDS)


def _parse_timestamp(raw) -> tuple[datetime, bool]:
    """Parse a raw timestamp; returns (UTC instant, was_naive)."""
    if isinstance(raw, bool):
        raise RecordParseError(f"not a timestamp: {raw!r}")
    if isinstance(raw, (int, float)):
        return _from_epoch(raw), False
    if isinstance(raw, str):
        text = raw.strip()
        if not text:
            raise RecordParseError("empty timestamp")
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


def coerce_timestamp(raw) -> datetime:
    """Coerce an ISO-8601 string or epoch seconds/milliseconds to a UTC instant.

    Naive ISO strings are interpreted as already-UTC; epoch unit is
    auto-detected by magnitude.
    """
    dt, _ = _parse_timestamp(raw)
    return dt


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
    joined with an unprintable separator so field boundaries cannot collide.
    """
    if explicit_id:
        return explicit_id
    payload = "\x1f".join((ts.isoformat(), product, event_type, asset_id, msg))
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
    joined = " | ".join(p for p in parts if p)
    if not joined:
        raise RecordParseError("all text fields empty; event is unembeddable")
    return joined


def iso_week_of(ts: datetime) -> WeekKey:
    """ISO week-date bucket (weeks start Monday; week 1 holds the first Thursday)."""
    year, week, _ = ts.isocalendar()
    return WeekKey(year, week)


@dataclass(frozen=True, order=True)
class DayKey:
    """UTC calendar-day bucket."""

    day: date

    def __str__(self) -> str:
        return self.day.isoformat()

    def next(self) -> "DayKey":
        return DayKey(self.day + timedelta(days=1))


@dataclass(frozen=True, order=True)
class MonthKey:
    """UTC calendar-month bucket."""

    year: int
    month: int

    def __str__(self) -> str:
        return f"{self.year}-{self.month:02d}"

    def next(self) -> "MonthKey":
        if self.month == 12:
            return MonthKey(self.year + 1, 1)
        return MonthKey(self.year, self.month + 1)


GRANULARITIES = ("day", "week", "month")
DEFAULT_GRANULARITY = "week"


def period_of(ts: datetime, granularity: str = DEFAULT_GRANULARITY) -> WeekKey | DayKey | MonthKey:
    if granularity == "week":
        return iso_week_of(ts)
    if granularity == "day":
        return DayKey(ts.astimezone(timezone.utc).date())
    if granularity == "month":
        utc = ts.astimezone(timezone.utc)
        return MonthKey(utc.year, utc.month)
    raise ValueError(f"unknown granularity: {granularity!r}")


@dataclass(frozen=True)
class EventStore:
    """Immutable, deterministically ordered collection of events.

    Events are sorted by (ts, event_id) and deduplicated by event_id with
    the first occurrence under that ordering winning, so the store is
    invariant under input-line shuffling.
    """

    events: tuple[Event, ...]
    source_manifest: tuple[dict, ...] = ()
    duplicates_dropped: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def ids(self) -> list[str]:
        return [e.event_id for e in self.events]

    @cached_property
    def ts_us(self) -> np.ndarray:
        """Read-only int64 epoch-microsecond timestamps, in store order.

        Raises ValueError if they decrease: the as-of cut in retrieval takes
        a prefix of the store and relies on the (ts, event_id) order.
        """
        ts = np.fromiter((epoch_us(e.ts) for e in self.events), dtype=np.int64, count=len(self.events))
        decreases = np.flatnonzero(np.diff(ts) < 0)
        if decreases.size:
            event = self.events[decreases[0] + 1]
            raise ValueError(f"event store is not sorted by ts: {event.event_id} is older than the event before it")
        ts.flags.writeable = False
        return ts

    def week_range(self) -> tuple[WeekKey, WeekKey] | None:
        if not self.events:
            return None
        return iso_week_of(self.events[0].ts), iso_week_of(self.events[-1].ts)

    def manifest(self) -> dict:
        total_records = sum(f["records"] for f in self.source_manifest)
        total_skipped = sum(f["skipped"] for f in self.source_manifest)
        naive = sum(f["naive_timestamps"] for f in self.source_manifest)
        rng = self.week_range()
        return {
            "files": list(self.source_manifest),
            "records": total_records,
            "events": len(self.events),
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


def _coerce_list(value) -> tuple[str, ...]:
    if value is None or value == "":
        return ()
    if isinstance(value, str):
        return tuple(part.strip() for part in value.split(";") if part.strip())
    if isinstance(value, (list, tuple)):
        return tuple(_coerce_scalar(v) for v in value)
    raise RecordParseError(f"expected list or ';'-joined string, got {value!r}")


def _build_event(fields: dict) -> tuple[Event, bool]:
    """Build one Event from a mapping of canonical field names to raw values."""
    if "ts" not in fields or fields["ts"] in (None, ""):
        raise RecordParseError("missing ts")
    ts, was_naive = _parse_timestamp(fields["ts"])

    product = str(fields.get("product") or "")
    event_type = str(fields.get("event_type") or "")
    asset_id = str(fields.get("asset_id") or "")
    msg = str(fields.get("msg") or "")
    tech = _coerce_list(fields.get("tech"))
    attack = _coerce_list(fields.get("attack"))
    risk_tag = _coerce_list(fields.get("risk_tag"))

    context: dict[str, str] = {}
    raw_context = fields.get("context") or {}
    if isinstance(raw_context, str):
        try:
            raw_context = json.loads(raw_context) if raw_context else {}
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"bad context JSON: {raw_context!r}") from exc
    if not isinstance(raw_context, dict):
        raise RecordParseError(f"context must be an object, got {raw_context!r}")
    for key, value in raw_context.items():
        context[str(key)] = _coerce_scalar(value)
    # Unknown top-level keys are preserved rather than dropped.
    for key, value in fields.items():
        if key not in EVENT_FIELDS:
            context[str(key)] = _coerce_scalar(value)

    text_repr = str(fields.get("text_repr") or "")
    if not text_repr:
        text_repr = build_text_repr(product, event_type, asset_id, msg, tech, attack, risk_tag)
    explicit_id = str(fields.get("event_id") or "")
    try:
        "".join([explicit_id, product, event_type, asset_id, msg, text_repr,
                 *tech, *attack, *risk_tag, *context, *context.values()]).encode()
    except UnicodeEncodeError:
        raise RecordParseError("text holds an invalid UTF-8 byte or a lone surrogate") from None

    event_id = derive_event_id(ts, product, event_type, asset_id, msg, explicit_id=explicit_id)
    event = Event(
        event_id=event_id,
        ts=ts,
        product=product,
        event_type=event_type,
        asset_id=asset_id,
        msg=msg,
        context=context,
        tech=tech,
        attack=attack,
        risk_tag=risk_tag,
        text_repr=text_repr,
    )
    return event, was_naive


def read_mapping(path: Path | str) -> dict[str, str]:
    """Read a CSV column mapping file of `field=column` lines."""
    mapping: dict[str, str] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, column = line.partition("=")
        if not sep:
            raise IngestError(f"bad mapping line (expected field=column): {line!r}")
        mapping[key.strip()] = column.strip()
    return mapping


# Raw inputs are decoded with surrogateescape, so an invalid UTF-8 byte becomes
# a lone surrogate in its record, which _build_event then rejects.
def _iter_jsonl(path: Path) -> Iterator[tuple[int, str]]:
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield line_no, line


def _json_object(line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise RecordParseError(f"expected object, got {type(obj).__name__}")
    return obj


def _iter_csv(path: Path, mapping: dict[str, str]) -> Iterator[tuple[int, dict]]:
    with path.open(encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):  # header is line 1
            fields = {}
            for canonical, column in mapping.items():
                if column in row and row[column] not in (None, ""):
                    fields[canonical] = row[column]
            yield line_no, fields


def ingest(paths: Iterable[Path | str], mapping: dict[str, str] | None = None) -> EventStore:
    """Parse, normalize, order, and deduplicate raw JSONL/CSV files.

    Per-record failures (undecodable bytes and bad JSON included) are logged
    as ``path:line`` warnings and counted; zero usable events is fatal. CSV
    inputs require a column mapping.
    """
    parsed: list[Event] = []
    manifest: list[dict] = []

    for raw_path in paths:
        path = Path(raw_path)
        records = kept = skipped = naive_count = 0
        if path.suffix.lower() == ".csv":
            if not mapping:
                raise IngestError(f"CSV input {path.name} requires a column mapping")
            record_iter, to_fields = _iter_csv(path, mapping), dict
        else:
            record_iter, to_fields = _iter_jsonl(path), _json_object

        for line_no, raw in record_iter:
            records += 1
            try:
                event, was_naive = _build_event(to_fields(raw))
            except RecordParseError as exc:
                skipped += 1
                logger.warning("%s:%d: skipping record: %s", path.name, line_no, exc)
                continue
            parsed.append(event)
            naive_count += int(was_naive)
            kept += 1

        manifest.append(
            {
                "path": path.name,
                "records": records,
                "kept": kept,
                "skipped": skipped,
                "naive_timestamps": naive_count,
            }
        )

    if not parsed:
        raise IngestError("no parseable records in any input file")

    parsed.sort(key=Event.sort_key)
    deduped: list[Event] = []
    seen: set[str] = set()
    for event in parsed:
        if event.event_id in seen:
            continue
        seen.add(event.event_id)
        deduped.append(event)
    dropped = len(parsed) - len(deduped)
    if dropped:
        logger.info("dropped %d duplicate event ids", dropped)

    return EventStore(
        events=tuple(deduped),
        source_manifest=tuple(manifest),
        duplicates_dropped=dropped,
    )


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
        for event in store:
            fh.write(event.to_json())
            fh.write("\n")


# Bytes of whole lines parsed per json.loads call while loading a store: as
# fast as 1 MiB, and the chunk's transient copies stay small beside the store.
_LOAD_CHUNK_BYTES = 1 << 16
_STRING_FIELDS = ("event_id", "ts", "product", "event_type", "asset_id", "msg", "text_repr")
_LIST_FIELDS = ("tech", "attack", "risk_tag")
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


def _holds_non_str(items) -> bool:
    """True when any item is not a str (``str.join`` checks each item's type in C)."""
    try:
        "".join(items)
    except TypeError:
        return True
    return False


def _canonical_event(value) -> Event:
    """The Event one events.jsonl line holds; ValueError says how the line breaks the format."""
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
    # Positional, in field order: keyword arguments cost twice as much here.
    return Event(
        event_id, instant, product, event_type, asset_id, msg, context,
        tuple(tech), tuple(attack), tuple(risk_tag), text_repr,
    )


def load_events_jsonl(path: Path | str) -> EventStore:
    """Load a canonical events.jsonl written by :func:`write_events_jsonl`, strictly.

    Every line must be one JSON object with exactly the Event fields and their
    types, a UTC ``ts`` and a newline at its end; ``(ts, event_id)`` must
    strictly increase from line to line and no event_id may repeat. The first
    line that breaks a rule raises ``IngestError("<path>:<line>: ...")``, as
    does a file with no events. Nothing is re-normalized, re-sorted or dropped:
    the store is the file. Its ``source_manifest`` is empty.
    """
    path = Path(path)
    events: list[Event] = []
    seen: set[str] = set()
    previous: tuple[datetime, str] | None = None
    line_no = 0
    # Parsing allocates many containers and no cycles, so a cyclic collection
    # during the loop would only rescan them; the caller's setting comes back after.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with path.open("rb") as fh:
            while lines := fh.readlines(_LOAD_CHUNK_BYTES):
                for value in _parse_lines(path, line_no + 1, lines):
                    line_no += 1
                    try:
                        event = _canonical_event(value)
                    except ValueError as exc:
                        raise IngestError(f"{path}:{line_no}: {exc}") from None
                    key = (event.ts, event.event_id)
                    if previous is not None and key <= previous:
                        raise IngestError(f"{path}:{line_no}: (ts, event_id) is not after the previous line's")
                    if event.event_id in seen:
                        raise IngestError(f"{path}:{line_no}: event_id {event.event_id!r} repeats an earlier line's")
                    seen.add(event.event_id)
                    previous = key
                    events.append(event)
    finally:
        if gc_was_enabled:
            gc.enable()
    if not events:
        raise IngestError(f"{path}:1: no events")
    return EventStore(events=tuple(events))
