"""Event normalization: timestamps, ids, text representation, ISO weeks, ingestion."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import logging
import random
import re
import tempfile
from datetime import date, datetime, timedelta, timezone
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from temporal_memory import cli
from temporal_memory.events import (
    EVENT_FIELDS,
    Event,
    EventStore,
    IngestError,
    RecordParseError,
    WeekKey,
    build_text_repr,
    coerce_timestamp,
    derive_event_id,
    ingest,
    load_events_jsonl,
    parse_cutoff,
    period_of,
    read_mapping,
    write_events_jsonl,
)

from conftest import GOLDEN_INGEST, build_event, events_jsonl_line, store_of, ts_order

UTC = timezone.utc


class TestCoerceTimestamp:
    def test_offset_is_folded_into_utc(self):
        assert coerce_timestamp("2025-04-01T12:00:00+02:00") == datetime(2025, 4, 1, 10, tzinfo=UTC)

    def test_naive_is_taken_as_utc(self):
        assert coerce_timestamp("2025-04-01T10:00:00") == datetime(2025, 4, 1, 10, tzinfo=UTC)

    def test_epoch_seconds(self):
        # Frozen from an independent epoch conversion (time.gmtime).
        assert coerce_timestamp(1743501600) == datetime(2025, 4, 1, 10, tzinfo=UTC)

    def test_epoch_milliseconds_by_magnitude(self):
        assert coerce_timestamp(1743501600000) == datetime(2025, 4, 1, 10, tzinfo=UTC)

    def test_epoch_as_string(self):
        assert coerce_timestamp("1743501600") == datetime(2025, 4, 1, 10, tzinfo=UTC)

    def test_trailing_z(self):
        assert coerce_timestamp("2025-04-01T10:00:00Z") == datetime(2025, 4, 1, 10, tzinfo=UTC)

    @pytest.mark.parametrize("text", ["20250401", " 20250401\n"])
    def test_eight_digits_are_an_iso_basic_date(self, text):
        assert coerce_timestamp(text) == datetime(2025, 4, 1, tzinfo=UTC)  # not 1970-08-23T09:06:41Z

    @pytest.mark.parametrize("text", ["20251301", "20250230", "00000000"])
    def test_eight_digits_that_are_no_date_are_rejected(self, text):
        with pytest.raises(RecordParseError):
            coerce_timestamp(text)

    @pytest.mark.parametrize(("text", "seconds"), [("1736121600000", 1736121600), ("2025040", 2025040),
                                                   ("202504011", 202504011), ("20250401.0", 20250401)])
    def test_other_digit_strings_are_epoch_values(self, text, seconds):
        assert coerce_timestamp(text) == datetime.fromtimestamp(seconds, tz=UTC)

    @pytest.mark.parametrize(
        "bad",
        ["not a time", "", "2025-13-45T99:00:00", None, [1, 2], 1e20, -1e20, "inf", float("nan"),
         pytest.param(10**400, id="int-1e400")],
    )
    def test_garbage_rejected(self, bad):
        with pytest.raises(RecordParseError):
            coerce_timestamp(bad)

    @given(
        st.datetimes(
            min_value=datetime(1990, 1, 1),
            max_value=datetime(2100, 1, 1),
            timezones=st.timezones(),
        )
    )
    def test_round_trip_preserves_instant(self, dt):
        assert coerce_timestamp(dt.isoformat()) == dt.astimezone(UTC)


class TestParseCutoff:
    @pytest.mark.parametrize("raw", ["2025-05-01", " 2025-05-01\n"])
    def test_bare_date_is_the_inclusive_end_of_that_utc_day(self, raw):
        assert parse_cutoff(raw) == datetime(2025, 5, 1, 23, 59, 59, 999999, tzinfo=UTC)

    @pytest.mark.parametrize("raw", ["2025-05-01T00:00:00Z", "2025-05-01T02:00:00+02:00", 1746057600])
    def test_anything_else_is_the_instant_it_names(self, raw):
        assert parse_cutoff(raw) == datetime(2025, 5, 1, tzinfo=UTC)

    @pytest.mark.parametrize("bad", ["someday", "2025-13-01", None])
    def test_garbage_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_cutoff(bad)


class TestDeriveEventId:
    TS = datetime(2025, 4, 1, 10, tzinfo=UTC)

    def test_explicit_id_kept_verbatim(self):
        assert derive_event_id(self.TS, "okta", "auth_fail", "a", "m", explicit_id="abc-1") == "abc-1"

    def test_identical_records_get_identical_ids(self):
        a = derive_event_id(self.TS, "okta", "auth_fail", "a", "m")
        b = derive_event_id(self.TS, "okta", "auth_fail", "a", "m")
        assert a == b
        assert len(a) == 64 and set(a) <= set("0123456789abcdef")

    def test_msg_changes_the_id(self):
        msgs = [f"mfa denied attempt {i}" for i in range(200)]
        ids = {derive_event_id(self.TS, "okta", "auth_fail", "a", m) for m in msgs}
        assert len(ids) == len(msgs)

    def test_field_boundaries_cannot_collide(self):
        # "ab"+"c" vs "a"+"bc" must hash differently thanks to the separator
        assert derive_event_id(self.TS, "ab", "c", "", "") != derive_event_id(self.TS, "a", "bc", "", "")

    def test_a_separator_inside_a_field_cannot_collide(self, tmp_path):
        assert derive_event_id(self.TS, "a\x1fb", "c", "", "m") != derive_event_id(self.TS, "a", "b\x1fc", "", "m")
        src = tmp_path / "in.jsonl"
        base = {"ts": "2025-04-01T10:00:00Z", "msg": "m"}
        _write_jsonl(src, [{**base, "product": "a\x1fb", "event_type": "c"},
                           {**base, "product": "a", "event_type": "b\x1fc"}])
        store = ingest([src])
        assert len(store) == 2 and store.duplicates_dropped == 0

    @given(st.lists(st.text(alphabet="ab\x1f", max_size=4), min_size=4, max_size=4),
           st.lists(st.text(alphabet="ab\x1f", max_size=4), min_size=4, max_size=4))
    def test_distinct_fields_get_distinct_ids(self, a, b):
        assert (derive_event_id(self.TS, *a) == derive_event_id(self.TS, *b)) == (a == b)

    def test_a_record_with_no_separator_hashes_its_joined_fields(self):
        joined = "2025-04-01T10:00:00+00:00\x1fokta\x1fauth_fail\x1fa\x1fm"
        assert derive_event_id(self.TS, "okta", "auth_fail", "a", "m") == hashlib.sha256(joined.encode()).hexdigest()


class TestBuildTextRepr:
    def test_basic_join(self):
        assert build_text_repr("okta", "auth_fail", msg="mfa denied") == "okta | auth_fail | mfa denied"

    def test_list_flattening(self):
        assert build_text_repr(msg="x", tech=["t1", "t2"]) == "x | t1 | t2"

    @pytest.mark.parametrize(
        "kwargs,expected",
        [
            (
                dict(product="okta", event_type="auth_fail", asset_id="idp-01",
                     msg="mfa denied", tech=["t1110"], attack=["credential-access"],
                     risk_tag=["identity"]),
                "okta | auth_fail | idp-01 | mfa denied | t1110 | credential-access | identity",
            ),
            (
                dict(product="nessus", event_type="vuln_scan", asset_id="scanner-01",
                     msg="scan completed", tech=["t1046"]),
                "nessus | vuln_scan | scanner-01 | scan completed | t1046",
            ),
            (dict(event_type="data_access", risk_tag=["data"]), "data_access | data"),
            (
                dict(product="vpn", asset_id="vpn-gw-01", attack=["initial-access", "lateral"]),
                "vpn | vpn-gw-01 | initial-access | lateral",
            ),
            (dict(msg="standalone message"), "standalone message"),
        ],
    )
    def test_fixture_records(self, kwargs, expected):
        assert build_text_repr(**kwargs) == expected

    def test_all_empty_is_unembeddable(self):
        with pytest.raises(RecordParseError):
            build_text_repr()

    @given(
        product=st.one_of(st.just(""), st.just("prod")),
        event_type=st.one_of(st.just(""), st.just("etype")),
        msg=st.one_of(st.just(""), st.just("some message")),
        tech=st.lists(st.just("t1"), max_size=2),
    )
    def test_no_double_separators(self, product, event_type, msg, tech):
        if not (product or event_type or msg or tech):
            return
        text = build_text_repr(product, event_type, "", msg, tech)
        assert " |  | " not in text
        assert not text.startswith(" | ") and not text.endswith(" | ")


class TestIsoWeek:
    @pytest.mark.parametrize(
        "day,expected",
        [
            ("2025-04-01T00:00:00", "2025-W14"),
            ("2024-12-30T00:00:00", "2025-W01"),
            ("2026-01-01T00:00:00", "2026-W01"),
        ],
    )
    def test_reference_dates(self, day, expected):
        assert str(period_of(coerce_timestamp(day))) == expected

    def test_rendering_zero_pads(self):
        assert str(WeekKey(2025, 5)) == "2025-W05"

    @given(
        st.dates(min_value=date(1990, 1, 1), max_value=date(2100, 1, 1)),
        st.dates(min_value=date(1990, 1, 1), max_value=date(2100, 1, 1)),
    )
    def test_ordering_consistent_with_calendar(self, d1, d2):
        t1 = datetime(d1.year, d1.month, d1.day, tzinfo=UTC)
        t2 = datetime(d2.year, d2.month, d2.day, tzinfo=UTC)
        w1, w2 = period_of(t1), period_of(t2)
        if w1 < w2:
            assert t1 < t2
        if t1.isocalendar()[:2] == t2.isocalendar()[:2]:
            assert w1 == w2

    def test_monday_starts_the_week(self):
        monday = WeekKey(2025, 14).monday()
        assert monday == datetime(2025, 3, 31, tzinfo=UTC)
        assert monday.isoweekday() == 1


JSONL_FIXTURE = [
    {"ts": "2025-04-02T09:00:00Z", "product": "okta", "event_type": "auth_fail",
     "msg": "mfa denied", "context": {"user": "alice"}},
    {"ts": "2025-04-01T08:00:00Z", "product": "nessus", "event_type": "vuln_scan",
     "msg": "scan completed", "tech": ["t1046"]},
    {"ts": "2025-04-03T10:30:00Z", "product": "vpn", "event_type": "cert_expiry",
     "msg": "certificate expiring", "extra_key": 42},
]


def _write_jsonl(path, records):
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")


class TestIngest:
    def test_events_come_out_in_timestamp_order(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, JSONL_FIXTURE)
        store = ingest([src])
        assert len(store) == 3
        assert [e.product for e in store] == ["nessus", "okta", "vpn"]
        assert all(e.ts.utcoffset() == timedelta(0) for e in store)

    def test_unknown_keys_fold_into_context(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, JSONL_FIXTURE)
        store = ingest([src])
        vpn = [e for e in store if e.product == "vpn"][0]
        assert vpn.context["extra_key"] == "42"

    def test_same_file_twice_dedups(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, JSONL_FIXTURE)
        once = ingest([src])
        twice = ingest([src, src])
        assert tuple(twice) == tuple(once)
        assert twice.duplicates_dropped == 3

    def test_shuffling_lines_changes_nothing(self, tmp_path):
        records = list(JSONL_FIXTURE)
        stores = []
        for i in range(4):
            random.Random(i).shuffle(records)
            src = tmp_path / f"in{i}.jsonl"
            _write_jsonl(src, records)
            stores.append(ingest([src]))
        assert all(tuple(s) == tuple(stores[0]) for s in stores)

    def test_reingesting_canonical_output_is_identity(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, JSONL_FIXTURE)
        store = ingest([src])
        out = tmp_path / "events.jsonl"
        write_events_jsonl(store, out)
        again = load_events_jsonl(out)
        assert tuple(again) == tuple(store)
        out2 = tmp_path / "events2.jsonl"
        write_events_jsonl(again, out2)
        assert out.read_bytes() == out2.read_bytes()

    def test_csv_with_mapping_matches_jsonl(self, tmp_path):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text(
            "when,text,kind,vendor,techniques\n"
            '2025-04-02T09:00:00Z,mfa denied,auth_fail,okta,\n'
            '2025-04-01T08:00:00Z,scan completed,vuln_scan,nessus,t1046\n',
            encoding="utf-8",
        )
        mapping_path = tmp_path / "map.cfg"
        mapping_path.write_text(
            "# canonical=csv column\nts=when\nmsg=text\nevent_type=kind\nproduct=vendor\ntech=techniques\n",
            encoding="utf-8",
        )
        jsonl_path = tmp_path / "in.jsonl"
        _write_jsonl(jsonl_path, [
            {"ts": "2025-04-02T09:00:00Z", "product": "okta", "event_type": "auth_fail", "msg": "mfa denied"},
            {"ts": "2025-04-01T08:00:00Z", "product": "nessus", "event_type": "vuln_scan",
             "msg": "scan completed", "tech": ["t1046"]},
        ])
        from_csv = ingest([csv_path], read_mapping(mapping_path))
        from_jsonl = ingest([jsonl_path])
        assert [e.event_id for e in from_csv] == [e.event_id for e in from_jsonl]
        assert [e.text_repr for e in from_csv] == [e.text_repr for e in from_jsonl]

    def test_a_byte_order_mark_before_the_first_jsonl_record_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        _write_jsonl(plain, JSONL_FIXTURE)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        store = ingest([marked])
        assert (len(store), store.manifest()["skipped"]) == (3, 0)
        assert tuple(store) == tuple(ingest([plain]))

    @pytest.mark.parametrize("marked", ["in.csv", "map.cfg"])
    def test_a_byte_order_mark_before_a_csv_header_or_a_mapping_is_dropped(self, tmp_path, marked):
        csv_path, mapping_path = tmp_path / "in.csv", tmp_path / "map.cfg"
        csv_path.write_text("when,text\n2025-04-01T10:00:00Z,first\n2025-04-02T10:00:00Z,second\n",
                            encoding="utf-8")
        mapping_path.write_text("ts=when\nmsg=text\n", encoding="utf-8")
        plain = ingest([csv_path], read_mapping(mapping_path))
        (tmp_path / marked).write_bytes(b"\xef\xbb\xbf" + (tmp_path / marked).read_bytes())
        store = ingest([csv_path], read_mapping(mapping_path))
        assert (len(store), store.manifest()["skipped"]) == (2, 0)
        assert tuple(store) == tuple(plain)

    @pytest.mark.parametrize("field, raw, expected", [
        ("msg", 0, "0"),
        ("product", False, "false"),
        ("product", ["a", "b"], '["a", "b"]'),
        ("event_type", 1.5, "1.5"),
        ("asset_id", {"k": 1}, '{"k": 1}'),
        ("event_id", 0, "0"),
        ("text_repr", True, "true"),
        ("msg", None, ""),
        ("msg", "", ""),
    ])
    def test_a_text_field_is_coerced_as_a_context_value_is(self, tmp_path, field, raw, expected):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, [{"ts": "2025-04-01T10:00:00Z", "risk_tag": ["kept"], field: raw, "context": {"k": raw}}])
        event = ingest([src])[0]
        assert getattr(event, field) == expected
        if raw is not None and raw != "":
            assert event.context["k"] == expected

    def test_runs_with_cyclic_gc_paused(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps(JSONL_FIXTURE[0]) + "\n{not valid json\n", encoding="utf-8")
        seen = []

        class Probe(logging.Handler):
            def emit(self, record):
                seen.append(gc.isenabled())

        probe = Probe()
        events_logger = logging.getLogger("temporal_memory.events")
        events_logger.addHandler(probe)
        try:
            ingest([src])
        finally:
            events_logger.removeHandler(probe)
        assert seen == [False] and gc.isenabled()

    def test_csv_without_mapping_is_fatal(self, tmp_path):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(IngestError):
            ingest([csv_path])

    def test_bad_records_are_counted_not_fatal(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(
            json.dumps(JSONL_FIXTURE[0]) + "\n"
            + "{not valid json\n"
            + json.dumps({"msg": "no timestamp"}) + "\n"
            + json.dumps({"ts": "garbage", "msg": "bad ts"}) + "\n",
            encoding="utf-8",
        )
        store = ingest([src])
        assert len(store) == 1
        manifest = store.manifest()
        assert manifest["skipped"] == 3
        assert manifest["records"] == 4

    def test_every_bad_record_is_logged_in_one_format(self, tmp_path, caplog):
        src = tmp_path / "in.jsonl"
        src.write_bytes(
            json.dumps(JSONL_FIXTURE[0]).encode() + b"\n"
            + b"{not valid json\n"
            + b"[1, 2]\n"
            + json.dumps({"msg": "no timestamp"}).encode() + b"\n"
            + b'{"ts": "2025-04-01T10:00:00Z", "msg": "bad \xff byte"}\n'
            + b'{"ts": "2025-04-01T10:00:00Z", "context": {"k": "lone \\udc80"}}\n'
        )
        store = ingest([src])
        assert (len(store), store.manifest()["skipped"]) == (1, 5)
        assert [r.getMessage().split(": ")[0] for r in caplog.records] == [f"in.jsonl:{n}" for n in range(2, 7)]
        assert all(": skipping record: " in r.getMessage() for r in caplog.records)

    def test_a_csv_skip_names_the_records_first_physical_line(self, tmp_path, caplog):
        src, mapping = tmp_path / "a.csv", tmp_path / "map.cfg"
        # Line 3 is blank and the record on line 5 holds a quoted newline, so it ends on line 6.
        src.write_text('when,text\nbad-2,a\n\nbad-4,b\nbad-5,"c\nc"\nbad-7,d\n', encoding="utf-8")
        mapping.write_text("ts=when\nmsg=text\n", encoding="utf-8")
        with pytest.raises(IngestError):
            ingest([src], read_mapping(mapping))
        messages = [r.getMessage() for r in caplog.records if ": skipping record: " in r.getMessage()]
        assert [m.split(": ")[0] for m in messages] == ["a.csv:2", "a.csv:4", "a.csv:5", "a.csv:7"]
        assert [m.rsplit(" ", 1)[-1] for m in messages] == ["'bad-2'", "'bad-4'", "'bad-5'", "'bad-7'"]

    def test_a_bare_carriage_return_ends_a_jsonl_line(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_bytes(json.dumps(JSONL_FIXTURE[0]).encode() + b"\r" + json.dumps(JSONL_FIXTURE[1]).encode())
        assert len(ingest([src])) == 2

    def test_zero_usable_records_is_fatal(self, tmp_path):
        src = tmp_path / "in.jsonl"
        src.write_text(json.dumps({"msg": "no ts"}) + "\n", encoding="utf-8")
        with pytest.raises(IngestError):
            ingest([src])

    def test_naive_timestamps_flagged_in_manifest(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, [
            {"ts": "2025-04-01T08:00:00", "msg": "naive"},
            {"ts": "2025-04-01T09:00:00Z", "msg": "aware"},
        ])
        assert ingest([src]).manifest()["naive_timestamps"] == 1

    def test_week_range_covers_every_event(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, JSONL_FIXTURE)
        store = ingest([src])
        lo, hi = store.week_range()
        assert all(lo <= period_of(e.ts) <= hi for e in store)
        assert store.manifest()["week_range"] == [str(lo), str(hi)]


def _edit_line(line_no: int, edit):
    """A mutation of a canonical file's text that applies ``edit`` to the record on one line."""

    def mutate(text: str) -> str:
        lines = text.split("\n")
        record = json.loads(lines[line_no - 1])
        edit(record)
        lines[line_no - 1] = json.dumps(record)
        return "\n".join(lines)

    return mutate


def _swap_lines(a: int, b: int):
    def mutate(text: str) -> str:
        lines = text.split("\n")
        lines[a - 1], lines[b - 1] = lines[b - 1], lines[a - 1]
        return "\n".join(lines)

    return mutate


def _split_first_join_others(text: str) -> str:
    """Line 1 split before its "context" member, lines 2 and 3 joined: as many values as lines."""
    first, second, third, _ = text.split("\n")
    at = first.index(',"context":')
    return f"{first[:at]}\n{first[at + 1:]}\n{second},{third}\n"


def _first_id(text: str) -> str:
    return json.loads(text.split("\n")[0])["event_id"]


# Each rejection: how a canonical three-line file is broken, and the line named.
REJECTIONS = {
    "truncated last line": (lambda text: text[:-20], 3),
    "missing newline at the end": (lambda text: text[:-1], 3),
    "missing field": (_edit_line(2, lambda r: r.pop("msg")), 2),
    "extra field": (_edit_line(2, lambda r: r.update(extra="x")), 2),
    "non-string list item": (_edit_line(2, lambda r: r.update(tech=["t1046", 7])), 2),
    "non-string context value": (_edit_line(1, lambda r: r.update(context={"user": None})), 1),
    "non-string field": (_edit_line(3, lambda r: r.update(msg=5)), 3),
    "empty event_id": (_edit_line(2, lambda r: r.update(event_id="")), 2),
    "naive ts": (_edit_line(2, lambda r: r.update(ts=r["ts"].replace("+00:00", ""))), 2),
    "non-UTC ts": (_edit_line(2, lambda r: r.update(ts=r["ts"].replace("+00:00", "+01:00"))), 2),
    "unparseable ts": (_edit_line(2, lambda r: r.update(ts="yesterday")), 2),
    "lines out of (ts, event_id) order": (_swap_lines(2, 3), 3),
    "repeated event_id": (lambda text: _edit_line(3, lambda r: r.update(event_id=_first_id(text)))(text), 3),
    "repeated line": (lambda text: text + text.split("\n")[2] + "\n", 4),
    "blank line": (lambda text: text.replace("\n", "\n\n", 1), 2),
    "not an object": (lambda text: "[1]\n" + text, 1),
    "two objects on one line": (lambda text: text.replace("}\n", "},", 1), 1),
    "an object over two lines and two on one": (_split_first_join_others, 1),
    "empty file": (lambda text: "", 1),
}

# Characters that JSON escapes or that other line splitters break on, then any other.
_AWKWARD = '"\\\u2028\u2029\n\r\x00{}[],:é€😀'
_TEXT = st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters(exclude_categories=("Cs",))), max_size=10)
_NON_EMPTY = _TEXT.filter(bool)
_STRINGS = st.lists(_TEXT, max_size=3).map(tuple)


@st.composite
def _stores(draw) -> EventStore:
    """Stores as ingest would build them: any text, contexts and list fields, shared timestamps."""
    instants = draw(st.lists(
        st.datetimes(min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30), timezones=st.just(UTC)),
        min_size=1, max_size=3,
    ))
    events = draw(st.lists(
        st.builds(
            Event, event_id=_NON_EMPTY, ts=st.sampled_from(instants), product=_TEXT, event_type=_TEXT,
            asset_id=_TEXT, msg=_TEXT, context=st.dictionaries(_TEXT, _TEXT, max_size=3),
            tech=_STRINGS, attack=_STRINGS, risk_tag=_STRINGS, text_repr=_NON_EMPTY,
        ),
        min_size=1, max_size=8, unique_by=lambda e: e.event_id,
    ))
    return EventStore(events=tuple(sorted(events, key=ts_order)))


@st.composite
def _stores_sharing_values(draw) -> EventStore:
    """Stores whose distinct records draw every field but context from one small pool of values."""
    pool = draw(st.lists(_TEXT, min_size=1, max_size=4))
    value, values = st.sampled_from(pool), st.lists(st.sampled_from(pool), max_size=3).map(tuple)
    ts = datetime(2025, 4, 1, tzinfo=UTC) + timedelta(microseconds=draw(st.integers(0, 10**12)))
    events = draw(st.lists(
        st.builds(
            Event, event_id=_NON_EMPTY, ts=st.just(ts), product=value, event_type=value, asset_id=value,
            msg=value, context=st.dictionaries(_TEXT, _TEXT, max_size=2), tech=values, attack=values,
            risk_tag=values, text_repr=value,
        ),
        min_size=1, max_size=8, unique_by=lambda e: e.event_id,
    ))
    return EventStore(events=tuple(sorted(events, key=ts_order)))


def _dumps_each_event(store: EventStore) -> list[str]:
    """Each event's fields, in Event's order, as json.dumps gives them."""
    return [
        json.dumps({**{name: getattr(e, name) for name in EVENT_FIELDS}, "ts": e.ts.isoformat()},
                   ensure_ascii=False, separators=(",", ":"))
        for e in store
    ]


class TestGoldenIngestCorpus:
    """``tmem ingest`` of the raw corpus under tests/golden/ingest, byte for byte.

    raw.jsonl, raw.csv and mapping.cfg hold a record for each branch of a
    record's normalization: every timestamp form (ISO with "Z", an offset or
    none; epoch seconds and milliseconds as numbers and strings; numeric
    strings with and without ":"; inf and nan), every kind of skipped record,
    ';'-joined lists and lists of non-strings, unknown keys, context as a JSON
    string, byte-order marks and duplicate ids. events.jsonl, manifest.json and
    warnings.txt beside them are what ingest wrote for it before its per-record
    fast paths; any difference is a change to ingest's output.
    """

    def test_writes_the_recorded_events_manifest_and_warnings(self, tmp_path, caplog):
        caplog.set_level(logging.WARNING, logger="temporal_memory.events")
        inputs = [str(GOLDEN_INGEST / "raw.jsonl"), str(GOLDEN_INGEST / "raw.csv")]
        code = cli.main(["--workspace", str(tmp_path), "ingest", "--input", *inputs,
                         "--mapping", str(GOLDEN_INGEST / "mapping.cfg")])
        assert code == 0
        for name in ("events.jsonl", "manifest.json"):
            assert (tmp_path / "data" / name).read_bytes() == (GOLDEN_INGEST / name).read_bytes(), name
        # The lines tmem ingest prints on stderr, in its log format.
        warnings = "".join(f"{r.levelname} {r.name}: {r.getMessage()}\n"
                           for r in caplog.records if r.levelno >= logging.WARNING)
        assert warnings == (GOLDEN_INGEST / "warnings.txt").read_text(encoding="utf-8")


class TestWriteEventsJsonl:
    """The writer encodes each distinct value once; its lines are json.dumps of each event, byte for byte."""

    _AWKWARD_STORE = EventStore(events=(
        Event("q\"uote", datetime(2025, 4, 1, tzinfo=UTC), product='say "hi"', event_type="back\\slash",
              asset_id="日本", msg="é€😀\u2028", context={}, tech=(), attack=("é", '"'), risk_tag=("\\",),
              text_repr="\x00{}"),
        Event("second", datetime(2025, 4, 1, 0, 0, 1, tzinfo=UTC), product="日本", event_type='say "hi"',
              asset_id="back\\slash", msg="", context={"k\"": "v\\", "": ""}, tech=("日本", "日本"),
              attack=(), risk_tag=("é",), text_repr="é€😀\u2028"),
    ))

    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(st.just(_AWKWARD_STORE), _stores(), _stores_sharing_values()))
    def test_lines_are_json_dumps_of_each_event(self, store):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "events.jsonl"
            write_events_jsonl(store, path)
            assert path.read_bytes().decode("utf-8") == "".join(line + "\n" for line in _dumps_each_event(store))
            assert [events_jsonl_line(e, Path(tmp) / "one.jsonl") for e in store] == _dumps_each_event(store)


class TestLoadCanonicalStore:
    # each example draws up to 88 strings; under CPU contention drawing them can trip the
    # too_slow health check, which times input generation, not the code under test
    @settings(max_examples=50, suppress_health_check=[HealthCheck.too_slow])
    @given(_stores())
    def test_round_trip_is_exact(self, store):
        with tempfile.TemporaryDirectory() as tmp:
            path, again = Path(tmp) / "events.jsonl", Path(tmp) / "again.jsonl"
            write_events_jsonl(store, path)
            loaded = load_events_jsonl(path)
            assert tuple(loaded) == tuple(store)
            assert loaded.texts == store.texts and loaded.text_index.tolist() == store.text_index.tolist()
            # ingest skips a record whose event_id holds a newline; the loader keeps it.
            kept = tuple(e for e in loaded if "\n" not in e.event_id)
            if kept:
                assert tuple(ingest([path])) == kept
            else:
                with pytest.raises(IngestError, match="no parseable records"):
                    ingest([path])
            write_events_jsonl(loaded, again)
            assert again.read_bytes() == path.read_bytes()

    def test_pipeline_store_loads_as_ingest_reads_it(self, pipeline_ws):
        path = pipeline_ws / "data" / "events.jsonl"
        assert tuple(load_events_jsonl(path)) == tuple(ingest([path]))

    @pytest.mark.parametrize("case", REJECTIONS)
    def test_rejects_a_broken_line_naming_it(self, tmp_path, case):
        mutate, line_no = REJECTIONS[case]
        path = tmp_path / "events.jsonl"
        write_events_jsonl(self._fixture_store(tmp_path), path)
        path.write_text(mutate(path.read_text(encoding="utf-8")), encoding="utf-8")
        with pytest.raises(IngestError, match=f"^{re.escape(str(path))}:{line_no}: "):
            load_events_jsonl(path)

    def test_leaves_the_callers_gc_setting(self, tmp_path):
        """The loader and ingest pause cyclic GC and restore the caller's setting, on success and on IngestError."""
        path = tmp_path / "events.jsonl"
        write_events_jsonl(self._fixture_store(tmp_path), path)
        broken = tmp_path / "broken.jsonl"
        broken.write_bytes(path.read_bytes()[:-5])
        unusable = tmp_path / "unusable.jsonl"
        _write_jsonl(unusable, [{"msg": "no ts"}])
        calls = [(load_events_jsonl, path, None), (load_events_jsonl, broken, IngestError),
                 (ingest, [path], None), (ingest, [unusable], IngestError)]
        try:
            for enabled in (False, True):
                for function, arg, error in calls:
                    gc.enable() if enabled else gc.disable()
                    with pytest.raises(error) if error else contextlib.nullcontext():
                        function(arg)
                    assert gc.isenabled() is enabled, (function.__name__, arg)
        finally:
            gc.enable()

    @staticmethod
    def _fixture_store(tmp_path) -> EventStore:
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, JSONL_FIXTURE)
        return ingest([src])


class TestEventStore:
    def test_duplicate_ids_resolved_to_earliest_timestamp(self, tmp_path):
        src = tmp_path / "in.jsonl"
        _write_jsonl(src, [
            {"event_id": "dup-1", "ts": "2025-04-05T00:00:00Z", "msg": "later"},
            {"event_id": "dup-1", "ts": "2025-04-01T00:00:00Z", "msg": "earlier"},
        ])
        store = ingest([src])
        assert len(store) == 1
        assert [(e.event_id, e.msg) for e in store] == [("dup-1", "earlier")]

    def test_ts_us_is_exact_epoch_microseconds(self):
        store = store_of([
            build_event("1969-12-31T23:59:59.999999Z", msg="before epoch"),
            build_event("2025-04-01T10:00:00.000001Z", msg="after"),
        ])
        assert store.ts_us.dtype == np.int64
        assert store.ts_us.tolist() == [-1, 1743501600000001]
        with pytest.raises(ValueError):
            store.ts_us[0] = 0

    def test_ts_us_rejects_out_of_order_store(self):
        older = build_event("2025-04-01T00:00:00Z", msg="older")
        newer = build_event("2025-04-02T00:00:00Z", msg="newer")
        with pytest.raises(ValueError, match="not sorted"):
            EventStore(events=(newer, older)).ts_us

    def test_of_timeline_holds_each_events_id_and_exact_ts(self, pipeline_ws):
        loaded = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        bare = EventStore.of_timeline(loaded.event_ids, np.array(loaded.ts_us))
        assert [(e.event_id, e.ts) for e in bare] == [(e.event_id, e.ts) for e in loaded]
        assert [e.ts.isoformat() for e in bare] == [e.ts.isoformat() for e in loaded]
        assert bare[0] == Event(loaded[0].event_id, loaded[0].ts)
        assert np.array_equal(bare.ts_us, loaded.ts_us) and not bare.ts_us.flags.writeable

    def test_of_timeline_copies_the_callers_array(self):
        ts_us = np.array([-1, 0, 1743501600000001])
        store = EventStore.of_timeline(["a", "b", "c"], ts_us)
        ts_us[0] = 7
        assert [e.ts.isoformat() for e in store] == [
            "1969-12-31T23:59:59.999999+00:00", "1970-01-01T00:00:00+00:00", "2025-04-01T10:00:00.000001+00:00",
        ]
        assert ts_us.flags.writeable and store.ts_us is not ts_us and store.ts_us[0] == -1

    def test_of_timeline_events_read_as_the_tuple_of_bare_events(self, pipeline_ws):
        loaded = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        bare = tuple(Event(e.event_id, e.ts) for e in loaded)
        store = EventStore.of_timeline(loaded.event_ids, loaded.ts_us)
        assert len(store) == len(bare)
        assert store[0] == bare[0] and store[-1] == bare[-1] and store[np.int64(5)] == bare[5]
        assert tuple(store) == bare
        assert store.week_range() == loaded.week_range()
        with pytest.raises(IndexError):
            store[len(bare)]
        with pytest.raises(TypeError):
            store[5:17]
        with pytest.raises(TypeError):
            store[0] = bare[0]

    def test_columns_hold_each_distinct_text_once_and_events_are_built_fresh(self, pipeline_ws):
        loaded = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        events = tuple(loaded)
        assert loaded.texts == tuple(dict.fromkeys(e.text_repr for e in events)) and len(loaded.texts) == 498
        assert all(loaded.texts[t] == e.text_repr for t, e in zip(loaded.text_index, events))
        assert not loaded.text_index.flags.writeable
        rebuilt = EventStore(events=events)
        assert rebuilt.event_ids == loaded.event_ids and rebuilt.texts == loaded.texts
        assert np.array_equal(rebuilt.ts_us, loaded.ts_us) and np.array_equal(rebuilt.text_index, loaded.text_index)
        assert tuple(rebuilt) == tuple(loaded)
        loaded[0].context["edited"] = "yes"
        next(iter(loaded)).context.clear()
        assert loaded[0].context == events[0].context != {}

    @pytest.mark.parametrize("ids, ts_us, message", [
        (["a", "b"], [2, 1], "not sorted by ts: b is older"),
        (["a", "b"], [1], "2 ids but 1 timestamps"),
    ])
    def test_of_timeline_rejects_what_ranking_cannot_use(self, ids, ts_us, message):
        with pytest.raises(ValueError, match=message):
            EventStore.of_timeline(ids, np.array(ts_us))

    def test_event_is_immutable(self):
        event = build_event("2025-04-01T00:00:00Z", msg="frozen")
        with pytest.raises(AttributeError):
            event.msg = "thawed"
