"""Span tracer that wraps the program's public functions from outside it.

``Tracer.install`` replaces each traced function at every module attribute
that refers to it -- the defining module and every ``from x import y`` site,
such as ``cli.track`` and ``evaluation.rank`` -- and each traced method on
its class. ``uninstall`` puts every original back. Spans stay in memory
until the run ends; nothing under ``src/`` is changed.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = "temporal_memory"
COMMANDS = ("gen", "ingest", "embed", "trends", "query", "eval", "all")

# module -> traced names; "Class.method" names patch the class attribute.
TRACED = {
    "synth": ("generate_stream",),
    "events": ("ingest", "load_events_jsonl", "write_events_jsonl"),
    "embedding": (
        "encode_store", "write_vector_file", "read_vector_file", "check_alignment",
        "HashEmbedder.embed", "VectorStore.float32",
    ),
    "tracking": ("track", "select_k", "kmeans", "top_terms_for", "match_weeks"),
    "retrieval": ("rank",),
    "evaluation": ("run_eval", "sensitivity_sweep"),
    "cli": ("main",),
}


@dataclass
class Span:
    span_id: int
    parent: int  # 0 = no traced caller
    op: int  # the benchmark operation the span belongs to
    name: str
    start: float
    end: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rank_info(args, kwargs, result) -> dict:
    store = args[1] if len(args) > 1 else kwargs["store"]
    as_of = args[5] if len(args) > 5 else kwargs.get("as_of")
    rows = len(store) if as_of is None else sum(1 for e in store if e.ts <= as_of)
    return {"rows": rows, "hits": len(result)}


def _ingest_info(args, kwargs, result) -> dict:
    m = result.manifest()
    return {key: m[key] for key in ("records", "skipped", "duplicates_dropped", "naive_timestamps")}


def _main_info(args, kwargs, result) -> dict:
    argv = args[0] if args else kwargs.get("argv") or []
    return {"cmd": next((a for a in argv if a in COMMANDS), "?"), "code": result}


_INFO = {
    "retrieval.rank": _rank_info,
    "events.ingest": _ingest_info,
    "embedding.encode_store": lambda args, kwargs, result: {"events": len(result)},
    "cli.main": _main_info,
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = [0]
        self._patched: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for short, names in TRACED.items():
            module = importlib.import_module(f"{PACKAGE}.{short}")
            for name in names:
                span_name = f"{short}.{name}"
                if "." in name:
                    cls_name, attr = name.split(".")
                    owner = getattr(module, cls_name)
                    self._patch(owner, attr, self._wrap(span_name, owner.__dict__[attr]))
                    continue
                original = getattr(module, name)
                wrapper = self._wrap(span_name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, span_name: str, fn):
        info = _INFO.get(span_name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(len(spans) + 1, stack[-1], self.op, span_name, 0.0)
            spans.append(span)
            stack.append(span.span_id)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return wrapper

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.span_id, "parent": s.parent, "op": s.op, "name": s.name,
                                     "start": s.start, "end": s.end, **s.info}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the time its (sequential) child spans cover."""
    out = {s.span_id: s.duration for s in spans}
    for s in spans:
        if s.parent:
            out[s.parent] -= s.duration
    return out


def layer_metrics(spans: list[Span], units: int) -> dict[str, float]:
    """Per-layer numbers per unit of traced work (one `all`, one store build, ...)."""
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)

    def under(s, name):
        return s.parent and by_id[s.parent].name == name

    def pick(name, pred=lambda s: True):
        return [s for s in spans if s.name == name and pred(s)]

    def total(ss):
        return sum(s.duration for s in ss) / units

    def self_total(ss):
        return sum(own[s.span_id] for s in ss) / units

    out: dict[str, float] = {}
    out["synth.generate_stream.s"] = total(pick("synth.generate_stream"))

    # Write-path ingest only: load_events_jsonl re-runs ingest under its own span.
    ingests = pick("events.ingest", lambda s: not under(s, "events.load_events_jsonl"))
    records = sum(s.info.get("records", 0) for s in ingests)
    out["events.ingest.s"] = total(ingests)
    out["events.ingest.us_per_record"] = 1e6 * sum(s.duration for s in ingests) / records if records else 0.0
    out["events.write_events_jsonl.s"] = total(pick("events.write_events_jsonl"))
    loads = pick("events.load_events_jsonl")
    out["events.load_events_jsonl.calls"] = len(loads) / units
    out["events.load_events_jsonl.s"] = total(loads)
    for key in ("skipped", "duplicates_dropped", "naive_timestamps"):
        metric = "records_skipped" if key == "skipped" else key
        out[f"events.{metric}"] = sum(s.info.get(key, 0) for s in ingests) / units

    encodes = pick("embedding.encode_store")
    events_encoded = sum(s.info.get("events", 0) for s in encodes)
    out["embedding.encode_store.s"] = total(encodes)
    out["embedding.encode_store.us_per_event"] = (
        1e6 * sum(s.duration for s in encodes) / events_encoded if events_encoded else 0.0)
    for name in ("write_vector_file", "read_vector_file", "check_alignment"):
        out[f"embedding.{name}.s"] = total(pick(f"embedding.{name}"))
    query_embeds = pick("embedding.HashEmbedder.embed", lambda s: not under(s, "embedding.encode_store"))
    out["embedding.query_embed.us"] = (
        1e6 * sum(s.duration for s in query_embeds) / len(query_embeds) if query_embeds else 0.0)
    f32 = pick("embedding.VectorStore.float32")
    out["embedding.VectorStore.float32.calls"] = len(f32) / units
    out["embedding.VectorStore.float32.s"] = total(f32)

    tracks = pick("tracking.track")
    out["tracking.track.calls"] = len(tracks) / units
    out["tracking.track.s"] = total(tracks)
    out["tracking.track.self_s"] = self_total(tracks)
    for name in ("select_k", "kmeans"):
        ss = pick(f"tracking.{name}")
        out[f"tracking.{name}.calls"] = len(ss) / units
        out[f"tracking.{name}.s"] = total(ss)
    for name in ("top_terms_for", "match_weeks"):
        out[f"tracking.{name}.s"] = total(pick(f"tracking.{name}"))

    ranks = pick("retrieval.rank")
    rows = sum(s.info.get("rows", 0) for s in ranks)
    hits = sum(s.info.get("hits", 0) for s in ranks)
    out["retrieval.rank.calls"] = len(ranks) / units
    out["retrieval.rank.s"] = total(ranks)
    out["retrieval.rank.self_s"] = self_total(ranks)
    out["retrieval.rank.rows_scored"] = rows / units
    out["retrieval.rank.rows_per_hit"] = rows / hits if hits else 0.0

    evals = pick("evaluation.run_eval")
    out["evaluation.run_eval.s"] = total(evals)
    out["evaluation.run_eval.self_s"] = self_total(evals)
    out["evaluation.sensitivity_sweep.s"] = total(pick("evaluation.sensitivity_sweep"))

    mains = pick("cli.main")
    for cmd in COMMANDS:
        out[f"cli.main.{cmd}.s"] = total([s for s in mains if s.info.get("cmd") == cmd])
    out["cli.main.self_s"] = self_total(mains)
    return out
