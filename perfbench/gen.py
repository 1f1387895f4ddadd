"""Seeded raw records and query mix for the query-warm and cli-cold workloads.

Text comes from the topic vocabulary of ``temporal_memory.synth.TOPICS``.
Beside clean records the generator injects, in known numbers, every defect
the ingest manifest counts: malformed lines, records without a usable ``ts``,
verbatim duplicate lines and naive timestamps. Epoch-millisecond timestamps
are mixed in as well. About a fifth of the records are CSV, read through a
column mapping file.

Near-duplicate families share their text at distinct instants, so their
vectors are identical and cosine-only queries tie on score; tie groups share
text *and* instant under distinct explicit ids, so fused queries tie too.
Both make the (score desc, ts desc, id asc) tie-break decide the order.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from temporal_memory.synth import TOPICS

SPAN_START = datetime(2025, 1, 6, tzinfo=timezone.utc)  # a Monday
SPAN_MS = 26 * 7 * 86400 * 1000
_SPAN_START_MS = int(SPAN_START.timestamp()) * 1000
CSV_NAME = "raw.csv"
MAPPING_NAME = "mapping.cfg"
JSONL_FILES = 4
TOP_K = 10

# CSV column for each canonical field; list fields are ';'-joined.
CSV_MAPPING = {
    "ts": "time",
    "product": "source",
    "event_type": "kind",
    "asset_id": "host",
    "msg": "message",
    "tech": "techniques",
    "attack": "tactics",
    "risk_tag": "tags",
}

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")
_FILL = {
    "user": ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi", "ivan", "judy"),
    "ip": ("10.0.0.5", "10.0.1.17", "10.0.2.44", "172.16.4.9", "192.168.7.21", "10.9.8.7"),
    "dev": ("pixel-9", "iphone-15", "thinkpad-x1", "macbook-m3"),
    "net": ("10.20.0.0/24", "10.21.0.0/24", "10.22.0.0/24", "10.23.0.0/24"),
    "bkt": ("finance-data", "analytics-archive", "raw-events", "hr-exports"),
    "wh": ("finance-wh", "analytics-wh", "raw-events-wh"),
}
# Words outside the topic vocabulary: recency decides these queries.
_OFF_VOCAB = ("glacier", "violin", "nebula", "kayak", "sonata", "orchid", "tundra", "marble", "lantern")
_MALFORMED = ('{"ts": "2025-02-0', "not json at all", "[1, 2, 3]", '"just a string"', "{broken: json}")
_BAD_TS = ("yesterday", "2025-13-45T99:00:00Z", "soon")


@dataclass(frozen=True)
class Query:
    text: str
    mode: str  # "fused" or "cosine_only"
    as_of: datetime | None


@dataclass(frozen=True)
class Inputs:
    """Raw input files (name -> bytes) plus what ingesting them must report."""

    files: dict[str, bytes]
    expected: dict  # ingest-manifest counts: records, events, skipped, duplicates_dropped, naive_timestamps
    expected_files: list[dict]  # the manifest's per-file entries, in input order
    now: datetime  # pinned reference instant: the newest event's
    family_texts: tuple[str, ...]
    queries: tuple[Query, ...]


def _fill(template: str, rng: random.Random) -> str:
    def draw(match: re.Match) -> str:
        values = _FILL.get(match.group(1))
        return rng.choice(values) if values else str(rng.randrange(1, 15))

    return _PLACEHOLDER_RE.sub(draw, template)


def _content(rng: random.Random) -> dict:
    topic = rng.choice(TOPICS)
    return {
        "product": topic.product,
        "event_type": topic.event_type,
        "asset_id": rng.choice(topic.assets),
        "msg": _fill(rng.choice(topic.templates + topic.drift_templates), rng),
        "tech": list(topic.tech),
        "attack": list(topic.attack),
        "risk_tag": list(topic.risk_tag),
    }


def _query_text(content: dict) -> str:
    fields = [content["product"], content["event_type"], content["asset_id"], content["msg"]]
    return " ".join(fields + content["tech"] + content["attack"] + content["risk_tag"])


def make_inputs(seed: int, n_records: int = 20_000, n_queries: int = 400) -> Inputs:
    """Build the raw files and query mix for ``seed``; byte-identical per seed."""
    rng = random.Random(seed)
    used_ms: set[int] = set()

    def instant() -> int:
        while True:
            ms = rng.randrange(SPAN_MS)
            if ms not in used_ms:
                used_ms.add(ms)
                return ms

    n_malformed = n_records // 200
    n_no_ts = n_records // 400
    n_bad_ts = len(_BAD_TS)
    n_dups = n_records // 100
    n_families, family_size = n_records // 400, 8
    n_tie_groups, tie_size = n_records // 1000, 3
    n_clean = (
        n_records - n_malformed - n_no_ts - n_bad_ts - n_dups
        - n_families * family_size - n_tie_groups * tie_size
    )

    # Each good record: (instant ms, content dict, explicit id or "").
    good: list[tuple[int, dict, str]] = [(instant(), _content(rng), "") for _ in range(n_clean)]
    family_contents = [_content(rng) for _ in range(n_families)]
    for content in family_contents:
        good.extend((instant(), content, "") for _ in range(family_size))
    for g in range(n_tie_groups):
        content, ms = _content(rng), instant()
        good.extend((ms, content, f"tie-{seed}-{g:04d}-{m}") for m in range(tie_size))
    rng.shuffle(good)

    # Assign format and timestamp style; CSV takes about a fifth.
    jsonl: list[tuple[str, bool]] = []  # (line, naive)
    csv_rows: list[tuple[dict, bool]] = []
    for ms, content, explicit_id in good:
        ts = SPAN_START + timedelta(milliseconds=ms)
        style = rng.random()
        naive = style < 0.02
        if naive:
            raw_ts = ts.replace(tzinfo=None).isoformat()
        elif style < 0.05:
            raw_ts = _SPAN_START_MS + ms
        else:
            raw_ts = ts.isoformat().replace("+00:00", "Z") if style < 0.5 else ts.isoformat()
        if not explicit_id and rng.random() < 0.2:
            row = {CSV_MAPPING[k]: (";".join(v) if isinstance(v, list) else v) for k, v in content.items()}
            row[CSV_MAPPING["ts"]] = str(raw_ts)
            csv_rows.append((row, naive))
        else:
            record = {"ts": raw_ts, **content}
            if explicit_id:
                record["event_id"] = explicit_id
            if rng.random() < 0.1:
                record["context"] = {"sensor": f"s{rng.randrange(50)}", "score": rng.randrange(100)}
            jsonl.append((json.dumps(record, separators=(",", ":")), naive))

    # Verbatim duplicates of good lines, in the same format as their original.
    for _ in range(n_dups):
        if rng.random() < 0.2:
            csv_rows.append(rng.choice(csv_rows))
        else:
            jsonl.append(rng.choice(jsonl))

    # Records that ingest must skip.
    skipped_jsonl = [rng.choice(_MALFORMED) for _ in range(n_malformed)]
    for i in range(n_no_ts):
        content = _content(rng)
        if i % 4 == 0:  # the CSV form: an empty time column
            row = {CSV_MAPPING[k]: (";".join(v) if isinstance(v, list) else v) for k, v in content.items()}
            row[CSV_MAPPING["ts"]] = ""
            csv_rows.append((row, False))
        else:
            record = dict(content)
            if i % 4 == 1:
                record["ts"] = None
            skipped_jsonl.append(json.dumps(record, separators=(",", ":")))
    for bad in _BAD_TS:
        skipped_jsonl.append(json.dumps({"ts": bad, **_content(rng)}, separators=(",", ":")))
    jsonl.extend((line, False) for line in skipped_jsonl)
    rng.shuffle(jsonl)
    rng.shuffle(csv_rows)

    files: dict[str, bytes] = {}
    expected_files: list[dict] = []
    skipped_set = set(skipped_jsonl)
    per_file = -(-len(jsonl) // JSONL_FILES)
    for f in range(JSONL_FILES):
        chunk = jsonl[f * per_file : (f + 1) * per_file]
        name = f"raw-{f:02d}.jsonl"
        files[name] = "".join(line + "\n" for line, _ in chunk).encode("utf-8")
        skipped = sum(1 for line, _ in chunk if line in skipped_set)
        expected_files.append(_file_entry(name, len(chunk), skipped, sum(n for _, n in chunk)))

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(CSV_MAPPING.values()), lineterminator="\n")
    writer.writeheader()
    for row, _ in csv_rows:
        writer.writerow(row)
    files[CSV_NAME] = buf.getvalue().encode("utf-8")
    csv_skipped = sum(1 for row, _ in csv_rows if not row[CSV_MAPPING["ts"]])
    expected_files.append(_file_entry(CSV_NAME, len(csv_rows), csv_skipped, sum(n for _, n in csv_rows)))
    files[MAPPING_NAME] = "".join(f"{k}={v}\n" for k, v in CSV_MAPPING.items()).encode("utf-8")

    records = sum(f["records"] for f in expected_files)
    skipped = sum(f["skipped"] for f in expected_files)
    expected = {
        "records": records,
        "skipped": skipped,
        "duplicates_dropped": n_dups,
        "naive_timestamps": sum(f["naive_timestamps"] for f in expected_files),
        "events": records - skipped - n_dups,
    }

    first_ms, last_ms = min(ms for ms, _, _ in good), max(ms for ms, _, _ in good)
    first_ts = SPAN_START + timedelta(milliseconds=first_ms)
    last_ts = SPAN_START + timedelta(milliseconds=last_ms)
    family_texts = tuple(_query_text(c) for c in family_contents)
    queries = _query_mix(rng, n_queries, family_texts, first_ts, last_ts)
    return Inputs(files, expected, expected_files, last_ts, family_texts, queries)


def _file_entry(name: str, records: int, skipped: int, naive: int) -> dict:
    return {"path": name, "records": records, "kept": records - skipped, "skipped": skipped,
            "naive_timestamps": naive}


def _query_mix(rng, count, family_texts, first_ts, last_ts) -> tuple[Query, ...]:
    """About 1/2 fused, 1/4 cosine-only, 1/4 fused with an as-of cutoff.

    A few fused texts are off-vocabulary; family texts make score ties likely.
    """
    span_us = int((last_ts - first_ts).total_seconds() * 1e6)
    queries = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.04:
            queries.append(Query(" ".join(rng.sample(_OFF_VOCAB, 3)), "fused", None))
            continue
        text = rng.choice(family_texts) if rng.random() < 0.4 else _query_text(_content(rng))
        if kind < 0.5:
            queries.append(Query(text, "fused", None))
        elif kind < 0.75:
            queries.append(Query(text, "cosine_only", None))
        else:
            cutoff = first_ts + timedelta(microseconds=rng.randrange(span_us))
            queries.append(Query(text, "fused", cutoff))
    return tuple(queries)


def write_inputs(inputs: Inputs, directory: Path) -> tuple[list[Path], Path]:
    """Write the raw files; return (input paths in manifest order, mapping path)."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, data in inputs.files.items():
        (directory / name).write_bytes(data)
    return [directory / name for name in inputs.files if name != MAPPING_NAME], directory / MAPPING_NAME
