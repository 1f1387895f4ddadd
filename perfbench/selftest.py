"""The benchmark's own tests: each correctness check is shown able to fail.

    python3 -m pytest -q perfbench/selftest.py

Kept out of the repository's default test collection (the file name does
not match ``test_*.py``) because it builds 20k-event stores.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402
from temporal_memory import cli, embedding, evaluation, retrieval, tracking  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_generator_is_byte_identical_per_seed():
    a, b, c = gen.make_inputs(3), gen.make_inputs(3), gen.make_inputs(4)
    assert a.files == b.files and a.queries == b.queries and a.expected == b.expected
    assert a.files != c.files
    assert a.expected["duplicates_dropped"] > 0 and a.expected["skipped"] > 0
    assert a.expected["naive_timestamps"] > 0


# ---------------------------------------------------------------------------
# query-warm: the oracle catches a broken rank


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    workload = workloads.QueryWarm(5, tmp_path_factory.mktemp("warm"), workloads.Outcome())
    workload.setup()
    return workload


def _run_queries(workload, queries, monkeypatch, rank=None) -> workloads.Outcome:
    monkeypatch.setattr(workloads, "CHECK_EVERY", 1)
    if rank is not None:
        monkeypatch.setattr(retrieval, "rank", rank)
    workload.outcome = workloads.Outcome()
    workload.inputs = dataclasses.replace(workload.inputs, queries=tuple(queries))
    for i in range(len(queries)):
        workload.op(i)
    workload.finish()
    return workload.outcome


def _tie_queries(workload):
    return [gen.Query(text, "cosine_only", None) for text in workload.inputs.family_texts[:3]]


def test_correct_rank_passes(warm, monkeypatch):
    original = warm.inputs
    try:
        outcome = _run_queries(warm, _tie_queries(warm) + list(original.queries[:6]), monkeypatch)
    finally:
        warm.inputs = original
    assert outcome.failed == 0, outcome.problems


def test_reversed_tie_order_fails(warm, monkeypatch):
    real = retrieval.rank

    def reversed_ties(query_vec, store, vecs, params, mode="fused", as_of=None):
        everything = real(query_vec, store, vecs, dataclasses.replace(params, top_k=len(store)), mode, as_of)
        score = (lambda h: h.fused) if mode == "fused" else (lambda h: h.cosine_sim)
        everything.sort(key=lambda h: (-score(h), h.ts, [-ord(ch) for ch in h.event_id]))
        return everything[: params.top_k]

    original = warm.inputs
    try:
        outcome = _run_queries(warm, _tie_queries(warm), monkeypatch, reversed_ties)
    finally:
        warm.inputs = original
    assert outcome.failed > 0
    assert any("tie-break" in p for p in outcome.problems), outcome.problems


def test_dropped_last_hit_fails(warm, monkeypatch):
    real = retrieval.rank
    original = warm.inputs
    try:
        outcome = _run_queries(warm, list(original.queries[:3]), monkeypatch,
                               lambda *args, **kwargs: real(*args, **kwargs)[:-1])
    finally:
        warm.inputs = original
    assert outcome.failed == 3, outcome.problems


# ---------------------------------------------------------------------------
# cli-cold: the manifest check catches a lost duplicate


def test_cli_cold_manifest_check(tmp_path):
    outcome = workloads.Outcome()
    workload = workloads.CliCold(9, tmp_path, outcome)
    workload.setup()
    assert outcome.failed == 0, outcome.problems

    # Drop one copy of an injected duplicate: the manifest no longer matches the generator.
    jsonl = {p: p.read_text(encoding="utf-8").splitlines(keepends=True) for p in workload.paths
             if p.suffix == ".jsonl"}
    counts = Counter(line for lines in jsonl.values() for line in lines)
    twice = next(line for line, n in counts.items() if n > 1 and line.startswith('{"ts"'))
    path = next(p for p, lines in jsonl.items() if twice in lines)
    jsonl[path].remove(twice)
    path.write_text("".join(jsonl[path]), encoding="utf-8")
    workload.setup()
    assert outcome.failed >= 1
    assert "manifest counts" in outcome.problems[0], outcome.problems


# ---------------------------------------------------------------------------
# tracer


def test_tracer_patches_every_import_site_restores_them_and_counts_repeat(tmp_path):
    sites = {
        (cli, "track"), (evaluation, "track"), (cli, "rank"), (evaluation, "rank"),
        (cli, "load_events_jsonl"), (cli, "encode_store"), (tracking, "kmeans"), (tracking, "select_k"),
    }
    originals = {(owner, name): getattr(owner, name) for owner, name in sites}
    float32 = embedding.VectorStore.__dict__["float32"]

    tracer = Tracer()
    tracer.install()
    try:
        for owner, name in sites:
            assert getattr(owner, name) is not originals[owner, name], f"{owner.__name__}.{name} not patched"
        assert embedding.VectorStore.__dict__["float32"] is not float32
        for op in (1, 2):
            tracer.op = op
            code = cli.main(["--workspace", str(tmp_path / f"ws{op}"), "all", "--seed", "7"])
            assert code == 0
    finally:
        tracer.uninstall()

    for owner, name in sites:
        assert getattr(owner, name) is originals[owner, name], f"{owner.__name__}.{name} not restored"
    assert embedding.VectorStore.__dict__["float32"] is float32

    counts = [Counter(s.name for s in tracer.spans if s.op == op) for op in (1, 2)]
    assert counts[0] == counts[1]
    assert counts[0]["tracking.kmeans"] == 260
    assert counts[0]["tracking.track"] == 2
    assert counts[0]["events.load_events_jsonl"] == 3
    assert counts[0]["retrieval.rank"] == 24


# ---------------------------------------------------------------------------
# the command refuses to run without the program


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [*spec["command"], "--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
