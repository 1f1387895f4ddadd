"""Shared fixtures: hand-built events, a deterministic 50-event corpus, one pipeline run, vector-file bytes, the golden ingest corpus."""

from __future__ import annotations

import operator
import struct
from pathlib import Path

import numpy as np
import pytest

from temporal_memory import cli
from temporal_memory.events import (
    Event,
    EventStore,
    build_text_repr,
    coerce_timestamp,
    derive_event_id,
    write_events_jsonl,
)


def build_event(
    ts: str,
    product: str = "",
    event_type: str = "",
    asset_id: str = "",
    msg: str = "",
    tech: tuple[str, ...] = (),
    attack: tuple[str, ...] = (),
    risk_tag: tuple[str, ...] = (),
    event_id: str = "",
) -> Event:
    instant = coerce_timestamp(ts)
    return Event(
        event_id=derive_event_id(instant, product, event_type, asset_id, msg, explicit_id=event_id),
        ts=instant,
        product=product,
        event_type=event_type,
        asset_id=asset_id,
        msg=msg,
        tech=tech,
        attack=attack,
        risk_tag=risk_tag,
        text_repr=build_text_repr(product, event_type, asset_id, msg, tech, attack, risk_tag),
    )


# A raw JSONL, CSV and mapping corpus, with what ingest writes for it (see test_events.TestGoldenIngestCorpus).
GOLDEN_INGEST = Path(__file__).resolve().parent / "golden" / "ingest"

# A store's event order.
ts_order = operator.attrgetter("ts", "event_id")


def store_of(events) -> EventStore:
    ordered = tuple(sorted(events, key=ts_order))
    ids = [e.event_id for e in ordered]
    assert len(set(ids)) == len(ids), "fixture events must have unique ids"
    return EventStore(events=ordered)


def events_jsonl_line(event: Event, path) -> str:
    """The line, without its newline, that write_events_jsonl writes to ``path`` for a store of ``event`` alone."""
    write_events_jsonl(EventStore((event,)), path)
    return path.read_text(encoding="utf-8").removesuffix("\n")


# Deterministic 50-event corpus: five near-duplicate families at distinct
# timestamps plus distinct one-off lines, spread over seven weeks.
_CORPUS_TEMPLATES = [
    ("okta", "auth_fail", "idp-01", "mfa challenge denied for alice"),
    ("okta", "auth_fail", "idp-01", "password login blocked for bob"),
    ("dataplatform", "data_access", "dp-01", "bulk read from s3 bucket finance-data"),
    ("dataplatform", "data_access", "dp-01", "presigned url generated for s3 bucket raw-events"),
    ("nessus", "vuln_scan", "scan-01", "scan completed on subnet 10.20.0.0/24"),
]
_CORPUS_ONEOFFS = [
    ("vpn", "cert_expiry", "vpn-gw-01", "gateway certificate expiring soon"),
    ("mailsec", "phish_report", "mx-01", "credential harvesting campaign reported"),
    ("edr", "malware_quarantine", "ws-44", "trojan payload quarantined on endpoint"),
    ("opsmon", "ops_notice", "ops-01", "nightly backup job completed with warnings"),
    ("opsmon", "ops_notice", "ops-02", "dns resolution timeout observed for internal zone"),
]


def corpus_events() -> list[Event]:
    events = []
    day = 0
    for repeat in range(8):
        for product, event_type, asset, msg in _CORPUS_TEMPLATES:
            ts = f"2025-04-{(day % 28) + 1:02d}T{8 + repeat % 12:02d}:{(day * 7) % 60:02d}:00+00:00"
            events.append(build_event(ts, product, event_type, asset, msg))
            day += 1
    for i, (product, event_type, asset, msg) in enumerate(_CORPUS_ONEOFFS * 2):
        ts = f"2025-05-{i + 1:02d}T12:30:00+00:00"
        events.append(build_event(ts, product, event_type, asset, msg))
    return events[:50]


@pytest.fixture(scope="session")
def corpus_store() -> EventStore:
    return store_of(corpus_events())


@pytest.fixture(scope="session")
def pipeline_ws(tmp_path_factory):
    """One full CLI pipeline run (seed 7) shared by read-only tests."""
    ws = tmp_path_factory.mktemp("pipeline")
    code = cli.main(["--workspace", str(ws), "all", "--seed", "7"])
    assert code == 0
    return ws


# Vector files built byte by byte from the layouts, without the package's code:
# the package writes only TMV2, and these also build malformed files.
def tmv1_bytes(ids, vectors) -> bytes:
    """A TMV1 file: header, newline-terminated ids, one binary16 row per event."""
    vectors = np.asarray(vectors, dtype="<f2")
    header = struct.pack("<4sIQ", b"TMV1", vectors.shape[1], len(ids))
    return header + b"".join(i.encode() + b"\n" for i in ids) + vectors.tobytes()


def tmv2_bytes(ids, ts_us, index, rows, digest: bytes = bytes(32), *, count=None, n_rows=None) -> bytes:
    """A TMV2 file; ``count`` and ``n_rows`` override the header's counts."""
    rows = np.asarray(rows, dtype="<f2")
    count = len(ids) if count is None else count
    n_rows = len(rows) if n_rows is None else n_rows
    header = struct.pack("<4sIQQ32s", b"TMV2", rows.shape[1], count, n_rows, digest)
    return (header + b"".join(i.encode() + b"\n" for i in ids) + np.asarray(ts_us, dtype="<i8").tobytes()
            + np.asarray(index, dtype="<u4").tobytes() + rows.tobytes())


# A six-event TMV2 sample whose three rows are first held by events 1, 0 and 3.
_SAMPLE = {
    "ids": tuple(f"ev-{i}" for i in range(6)),
    "ts_us": 1_743_465_600_000_000 + 60_000_000 * np.arange(6),
    "index": (1, 0, 1, 2, 2, 0),
    "rows": ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.5, 0.5, 0.5, 0.5)),
}


def tmv2_sample(**changes) -> bytes:
    """The sample's TMV2 bytes, with any of its fields (or the header counts) replaced."""
    return tmv2_bytes(**{**_SAMPLE, **changes})


# Each reader rule, a sample that breaks it, and what the reader's message says.
TMV2_DEFECTS = {
    "short header": (lambda: tmv2_sample()[:40], "shorter than header"),
    "bad magic": (lambda: b"TMV9" + tmv2_sample()[4:], "bad magic b'TMV9'"),
    "rows overstated": (lambda: tmv2_sample(n_rows=4), "payload has 96 bytes, expected 104"),
    "count understated": (lambda: tmv2_sample(count=5), "17 trailing bytes beyond declared counts"),
    "trailing bytes": (lambda: tmv2_sample() + b"junk", "4 trailing bytes beyond declared counts"),
    "index beyond rows": (lambda: tmv2_sample(index=(1, 0, 3, 2, 2, 0)), "row index of ev-2 is 3, beyond the 3 rows"),
    "row held by no event": (lambda: tmv2_sample(index=(1, 0, 1, 0, 1, 0)), "row 2 is held by no event"),
    "decreasing ts": (
        lambda: tmv2_sample(ts_us=_SAMPLE["ts_us"] - 120_000_000 * (np.arange(6) == 3)),
        "ts of ev-3 is before the ts of the event before it",
    ),
    "zero row": (lambda: tmv2_sample(rows=_SAMPLE["rows"][:2] + ((0.0, -0.0, 0.0, 0.0),)),
                 "vector for ev-3 has only zeros"),
    "non-finite row": (lambda: tmv2_sample(rows=_SAMPLE["rows"][:2] + ((0.5, np.inf, 0.5, 0.5),)),
                       "vector for ev-3 has a non-finite value"),
}
