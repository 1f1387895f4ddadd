"""CLI behavior: exit codes, artifact wiring, report contents, reproducibility."""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import io
import json
import logging
import os
import re
import shutil
import subprocess
import sys
import threading
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from temporal_memory import cli
from temporal_memory.embedding import HashEmbedder, VectorStore, read_vector_file
from temporal_memory.events import (
    Event,
    EventStore,
    coerce_timestamp,
    load_events_jsonl,
    parse_cutoff,
    write_events_jsonl,
    write_json,
)
from temporal_memory.retrieval import RetrievalParams, rank
from temporal_memory.tracking import TrendParams

from conftest import GOLDEN_INGEST, TMV2_DEFECTS, tmv1_bytes


def run(*argv: str) -> int:
    return cli.main(list(argv))


def exit_code(*argv: str) -> int:
    """run(), with an argparse usage exit turned into its code."""
    try:
        return run(*argv)
    except SystemExit as exc:
        return exc.code


class TestExitCodes:
    def test_bad_flags_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            run("definitely-not-a-command")
        assert exc.value.code == 64

    def test_bad_option_value_exit_64(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run("--workspace", str(tmp_path), "trends", "--k", "zero")
        assert exc.value.code == 64

    @pytest.mark.parametrize("k", ["0", "-1", "two"])
    def test_query_k_must_be_positive_exit_64(self, tmp_path, k):
        with pytest.raises(SystemExit) as exc:
            run("--workspace", str(tmp_path), "query", "--text", "okta", "--k", k)
        assert exc.value.code == 64

    def test_k_takes_auto_or_a_positive_integer(self):
        from temporal_memory.cli import _parse_k

        assert _parse_k("auto") is None
        assert _parse_k("4") == 4

    @pytest.mark.parametrize("argv", [
        ["trends", "--granularity", "week"],
        ["trends", "--k", "fixed"],
        ["eval", "--k", "fixed"],
    ])
    def test_removed_granularity_and_fixed_k_are_usage_errors(self, tmp_path, argv):
        assert exit_code("--workspace", str(tmp_path / "empty"), *argv) == 64

    def test_trends_without_embed_exits_2_naming_the_file(self, tmp_path, capsys):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "data").mkdir()
        code = run("--workspace", str(ws), "trends")
        assert code == 2
        err = capsys.readouterr().err
        assert "events.jsonl" in err and "ingest" in err

    def test_eval_without_config_exits_2(self, tmp_path, capsys, pipeline_ws):
        ws = tmp_path / "ws"
        ws.mkdir()
        (ws / "data").mkdir()
        for name in ("events.jsonl", "vectors.tmv"):
            (ws / "data" / name).write_bytes((pipeline_ws / "data" / name).read_bytes())
        code = run("--workspace", str(ws), "eval")
        assert code == 2
        assert "eval.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["query", "--text", "x", "--alpha", "7"],
            ["query", "--text", "x", "--as-of", "not a date"],
            ["query", "--text", "x", "--now", "not a time"],
            ["trends", "--growth-min-events", "-5"],
            ["eval", "--half-life-days", "nan"],
            ["eval", "--match-threshold", "nan"],
        ],
    )
    def test_bad_parameter_exits_1_before_any_artifact_is_read(self, tmp_path, capsys, argv):
        assert run("--workspace", str(tmp_path / "empty"), *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "missing artifact" not in err

    def test_embed_on_a_cut_store_exits_1_naming_the_line(self, tmp_path, pipeline_ws, capsys):
        ws = tmp_path / "ws"
        (ws / "data").mkdir(parents=True)
        text = (pipeline_ws / "data" / "events.jsonl").read_text(encoding="utf-8")
        cut = text[: len(text) // 2]
        (ws / "data" / "events.jsonl").write_text(cut, encoding="utf-8")
        assert run("--workspace", str(ws), "embed") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ws / 'data' / 'events.jsonl'}:{cut.count(chr(10)) + 1}: ")
        assert not (ws / "data" / "vectors.tmv").exists()

    def test_ingest_skips_out_of_range_epoch_timestamps(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"ts": 1e20, "msg": "past year 9999"}\n'
            '{"ts": "inf", "msg": "infinite"}\n'
            '{"ts": NaN, "msg": "not a number"}\n'
            '{"ts": "2025-04-01T10:00:00Z", "msg": "good"}\n',
            encoding="utf-8",
        )
        ws = tmp_path / "ws"
        assert run("--workspace", str(ws), "ingest", "--input", str(src)) == 0
        manifest = json.loads((ws / "data" / "manifest.json").read_text())
        assert (manifest["events"], manifest["skipped"], manifest["records"]) == (1, 3, 4)

    @pytest.mark.parametrize(
        "name, bad_line",
        [
            ("in.jsonl", b'{"ts": "2025-04-02T10:00:00Z", "msg": "bad \xff byte"}\n'),
            ("in.jsonl", b'{"ts": "2025-04-02T10:00:00Z", "msg": "lone \\ud800 surrogate"}\n'),
            ("in.csv", b"2025-04-02T10:00:00Z,bad \xff byte\n"),
        ],
        ids=["jsonl-invalid-byte", "jsonl-escaped-lone-surrogate", "csv-invalid-byte"],
    )
    def test_ingest_skips_undecodable_records(self, tmp_path, caplog, name, bad_line):
        src = tmp_path / name
        if name.endswith(".csv"):
            (tmp_path / "map.cfg").write_text("ts=when\nmsg=text\n", encoding="utf-8")
            good = b"when,text\n2025-04-01T10:00:00Z,good\n"
            mapping = ("--mapping", str(tmp_path / "map.cfg"))
        else:
            good = b'{"ts": "2025-04-01T10:00:00Z", "msg": "good"}\n'
            mapping = ()
        src.write_bytes(good + bad_line)
        ws = tmp_path / "ws"
        assert run("--workspace", str(ws), "ingest", "--input", str(src), *mapping) == 0
        manifest = json.loads((ws / "data" / "manifest.json").read_text())
        assert (manifest["events"], manifest["skipped"]) == (1, 1)
        assert f"{name}:{len(good.splitlines()) + 1}: skipping record: " in caplog.text
        assert b"\xed" not in (ws / "data" / "events.jsonl").read_bytes()

    def test_embed_exits_1_on_an_event_id_holding_a_newline(self, tmp_path, capsys):
        # TMV2 ends each id at a newline, so such an id would shift every id after it.
        # ingest refuses the id, so the store is written directly.
        store = EventStore(events=[
            Event("a\nb", coerce_timestamp("2025-04-01T10:00:00Z"), msg="first", text_repr="first"),
            Event("c", coerce_timestamp("2025-04-02T10:00:00Z"), msg="second", text_repr="second"),
        ])
        ws = tmp_path / "ws"
        write_events_jsonl(store, ws / "data" / "events.jsonl")
        write_json(store.manifest(), ws / "data" / "manifest.json")
        vectors = ws / "data" / "vectors.tmv"
        vectors.write_bytes(b"an earlier vector file")
        capsys.readouterr()
        assert run("--workspace", str(ws), "embed") == 1
        assert capsys.readouterr().err.startswith("error: event 'a\\nb': ")
        assert vectors.read_bytes() == b"an earlier vector file"
        assert sorted(p.name for p in vectors.parent.iterdir()) == ["events.jsonl", "manifest.json", "vectors.tmv"]

    def test_ingest_skips_an_event_id_holding_a_newline(self, tmp_path, caplog):
        src = tmp_path / "in.jsonl"
        src.write_text(
            '{"event_id": "a\\nb", "ts": "2025-04-01T10:00:00Z", "msg": "first"}\n'
            '{"event_id": "c", "ts": "2025-04-02T10:00:00Z", "msg": "second"}\n',
            encoding="utf-8",
        )
        ws = tmp_path / "ws"
        assert run("--workspace", str(ws), "ingest", "--input", str(src)) == 0
        manifest = json.loads((ws / "data" / "manifest.json").read_text())
        assert (manifest["events"], manifest["skipped"]) == (1, 1)
        assert "in.jsonl:1: skipping record: event_id 'a\\nb' holds a newline" in caplog.text
        assert [e.event_id for e in load_events_jsonl(ws / "data" / "events.jsonl")] == ["c"]

    def test_ingest_reads_every_jsonl_and_csv_file_in_logs(self, tmp_path):
        logs = tmp_path / "ws" / "logs"
        logs.mkdir(parents=True)
        (logs / "events-2025-W14.jsonl").write_text('{"ts": "2025-04-01T10:00:00Z", "msg": "generated"}\n')
        (logs / "other-source.jsonl").write_text('{"ts": "2025-04-02T10:00:00Z", "msg": "placed beside"}\n')
        (logs / "ground_truth.json").write_text("{}\n")
        assert run("--workspace", str(tmp_path / "ws"), "ingest") == 0
        manifest = json.loads((tmp_path / "ws" / "data" / "manifest.json").read_text())
        assert [f["path"] for f in manifest["files"]] == ["events-2025-W14.jsonl", "other-source.jsonl"]
        assert manifest["events"] == 2

    def test_ingest_with_an_empty_input_list_exits_2_and_reads_no_logs(self, tmp_path, capsys):
        logs = tmp_path / "ws" / "logs"
        logs.mkdir(parents=True)
        (logs / "events-2025-W14.jsonl").write_text('{"ts": "2025-04-01T10:00:00Z", "msg": "generated"}\n')
        assert run("--workspace", str(tmp_path / "ws"), "ingest", "--input") == 2
        assert "--input" in capsys.readouterr().err
        assert not (tmp_path / "ws" / "data").exists()

    @pytest.mark.parametrize("top_k", [2.7, True, "10"])
    def test_eval_config_top_k_must_be_a_positive_integer(self, tmp_path, pipeline_ws, capsys, top_k):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        config = json.loads((pipeline_ws / "logs" / "eval.json").read_text())
        config["ground_truth"] = str(pipeline_ws / "logs" / "ground_truth.json")
        config["top_k"] = top_k
        (tmp_path / "eval.json").write_text(json.dumps(config))
        assert run("--workspace", str(ws), "eval", "--eval-config", str(tmp_path / "eval.json")) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "top_k" in err
        assert not (ws / "results" / "eval_report.json").exists()

    @pytest.mark.parametrize("key", ["ground_truth", "now", "queries"])
    def test_eval_config_missing_a_key_exits_1_naming_the_file(self, tmp_path, pipeline_ws, capsys, key):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        config = json.loads((pipeline_ws / "logs" / "eval.json").read_text())
        config["ground_truth"] = str(pipeline_ws / "logs" / "ground_truth.json")
        del config[key]
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(config))
        assert run("--workspace", str(ws), "eval", "--eval-config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and key in err and "Traceback" not in err

    @pytest.mark.parametrize(("break_suite", "named"), [
        pytest.param(lambda config, gt: config.update(ground_truth="absent.json"), "absent.json",
                     id="no-ground-truth-file"),
        pytest.param(lambda config, gt: gt.write_text("{nope"), "ground_truth.json", id="ground-truth-not-json"),
        pytest.param(lambda config, gt: gt.write_text("{}"), "ground_truth.json", id="ground-truth-without-topics"),
        pytest.param(lambda config, gt: _query(config, "freshness").update(topic="nope"), "eval.json",
                     id="unknown-topic"),
        pytest.param(lambda config, gt: _query(config, "as_of").pop("cutoff"), "eval.json", id="as-of-without-cutoff"),
        pytest.param(lambda config, gt: _query(config, "as_of").update(cutoff="someday"), "eval.json", id="bad-cutoff"),
        pytest.param(lambda config, gt: _query(config, "as_of").update(type="asof"), "eval.json", id="type-typo"),
        pytest.param(lambda config, gt: _query(config, "freshness").update(text=7), "eval.json",
                     id="text-not-a-string"),
        pytest.param(lambda config, gt: config.update(alphas=[0.5, "0.7"]), "eval.json", id="alphas-not-numbers"),
    ])
    def test_bad_query_suite_exits_1_naming_the_file(self, tmp_path, pipeline_ws, capsys, break_suite, named):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        gt = tmp_path / "ground_truth.json"
        gt.write_bytes((pipeline_ws / "logs" / "ground_truth.json").read_bytes())
        config = json.loads((pipeline_ws / "logs" / "eval.json").read_text())
        break_suite(config, gt)
        path = tmp_path / "eval.json"
        path.write_text(json.dumps(config))
        assert run("--workspace", str(ws), "eval", "--eval-config", str(path)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {tmp_path / named}: ") and "Traceback" not in err
        assert not (ws / "results" / "eval_report.json").exists()

    def test_bad_query_suite_on_an_empty_workspace_exits_1_naming_the_suite(self, tmp_path, capsys):
        suite = tmp_path / "eval.json"
        suite.write_text("{nope")
        assert run("--workspace", str(tmp_path / "empty"), "eval", "--eval-config", str(suite)) == 1
        assert capsys.readouterr().err.startswith(f"error: {suite}: not JSON")

    def test_ground_truth_ids_missing_from_the_store_exit_1(self, tmp_path, pipeline_ws, capsys):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        ground_truth = json.loads((pipeline_ws / "logs" / "ground_truth.json").read_text())
        topic = next(iter(ground_truth["topics"]))
        ground_truth["topics"][topic]["event_ids"] += ["ghost-1", "ghost-2"]
        (tmp_path / "ground_truth.json").write_text(json.dumps(ground_truth))
        suite = tmp_path / "eval.json"
        suite.write_bytes((pipeline_ws / "logs" / "eval.json").read_bytes())
        assert run("--workspace", str(ws), "eval", "--eval-config", str(suite)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ground truth ground_truth.json: ")
        assert f"topic {topic!r}: 2 of its" in err and "not in the event store" in err
        assert not (ws / "results" / "eval_report.json").exists()

    def test_eval_takes_no_config_spelling_of_eval_config(self, tmp_path, pipeline_ws):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"alpha": 0.5}))
        config = pipeline_ws / "logs" / "eval.json"
        assert exit_code("--workspace", str(tmp_path / "ws"), "eval", "--config", str(settings)) == 64
        assert exit_code("--workspace", str(tmp_path / "ws"), "eval", "--config", str(config)) == 64

    @pytest.mark.parametrize("dim", ["1", "0", "-4"])
    def test_embed_dim_below_2_exits_1_before_any_load(self, tmp_path, capsys, dim):
        assert run("--workspace", str(tmp_path / "empty"), "embed", "--dim", dim) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: dim must be") and "missing artifact" not in err

    @pytest.mark.parametrize("command", ["trends", "eval", "all"])
    def test_negative_cluster_seed_is_a_usage_error(self, tmp_path, capsys, command):
        assert exit_code("--workspace", str(tmp_path / "empty"), command, "--cluster-seed", "-1") == 64
        assert "--cluster-seed" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen", "all"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        assert exit_code("--workspace", str(tmp_path / "empty"), command, "--seed", "-1") == 64
        assert "--seed: must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "empty").exists()

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert run("--workspace", str(tmp_path), "eval", "--eval-config", "nope.json") == 2
        assert "missing artifact nope.json" in capsys.readouterr().err

    def test_config_flag_is_a_usage_error(self, tmp_path):
        settings = tmp_path / "settings.json"
        settings.write_text(json.dumps({"k": 2}))
        assert exit_code("--workspace", str(tmp_path / "ws"), "--config", str(settings), "trends") == 64
        assert not (tmp_path / "ws").exists()

    @pytest.mark.parametrize(("argv", "code", "err"), [
        pytest.param("--workspace {d}/file gen", 1, "error: {d}/file: ", id="workspace-is-a-file"),
        pytest.param("--workspace {d}/file/ws gen", 1, "error: {d}/file/ws: ", id="workspace-under-a-file"),
        pytest.param("--workspace {d}/ws ingest --input {d}", 1, "error: {d}: ", id="input-is-a-directory"),
        pytest.param("--workspace {d}/ws ingest --input {d}/file --mapping {d}/absent.cfg", 2,
                     "missing mapping file {d}/absent.cfg", id="missing-mapping"),
        pytest.param("--workspace {d}/ws embed --embedder external:", 1,
                     "error: unknown embedder 'external:'", id="external-without-a-path"),
    ])
    def test_a_bad_path_argument_exits_with_a_message(self, tmp_path, capsys, caplog, argv, code, err):
        (tmp_path / "file").write_text('{"ts": "2025-04-01T10:00:00Z", "msg": "good"}\n')
        assert exit_code(*argv.format(d=tmp_path).split()) == code
        assert capsys.readouterr().err.startswith(err.format(d=tmp_path))
        assert "internal error" not in caplog.text

    @pytest.mark.parametrize("argv", [
        "--work {d}/ws gen --seed 3",
        "--workspace {d}/ws query --text okta --alph 0.5",
        "--workspace {d}/ws query --text okta --half 3",
        "--workspace {d}/ws trends --growth-f 2",
    ])
    def test_an_abbreviated_flag_is_a_usage_error(self, tmp_path, argv):
        assert exit_code(*argv.format(d=tmp_path).split()) == 64
        assert not (tmp_path / "ws").exists()

    def test_lock_contention_exits_1(self, pipeline_ws, capsys):
        lock = (pipeline_ws / ".tmem.lock").open("w")
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run("--workspace", str(pipeline_ws), "gen", "--seed", "1") == 1
            assert "lock" in capsys.readouterr().err
        finally:
            lock.close()


def _tree(ws: Path) -> dict[str, str]:
    return {
        str(path.relative_to(ws)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(ws.rglob("*")) if path.is_file() and path.name != ".tmem.lock"
    }


def test_verbose_all_logs_one_time_per_step_and_writes_the_same_tree(tmp_path, pipeline_ws):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    ws = tmp_path / "ws"
    proc = subprocess.run(
        [sys.executable, "-m", "temporal_memory.cli", "--workspace", str(ws), "-v", "all", "--seed", "7"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    steps = re.findall(r"^INFO \S+: tmem (\w+): \d+\.\d{3} s$", proc.stderr, flags=re.MULTILINE)
    assert steps == ["gen", "ingest", "embed", "trends", "eval", "all"]
    assert "INFO temporal_memory.embedding: embedded 2955 events from 498 distinct texts" in proc.stderr
    assert _tree(ws) == _tree(pipeline_ws)


def test_verbose_logs_when_the_caller_already_configured_logging(tmp_path):
    # logging.basicConfig does nothing once the root logger has a handler, so -v
    # must set the level on the package's own logger.
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        assert cli.main(["--workspace", str(tmp_path / "ws"), "-v", "gen", "--seed", "1"]) == 0
        assert re.search(r"^tmem gen: \d+\.\d{3} s$", stream.getvalue(), flags=re.MULTILINE), stream.getvalue()
        stream.seek(0)
        stream.truncate()
        assert cli.main(["--workspace", str(tmp_path / "ws"), "gen", "--seed", "1"]) == 0
        assert "tmem gen:" not in stream.getvalue()
    finally:
        root.removeHandler(handler)
        logging.getLogger("temporal_memory").setLevel(logging.NOTSET)


class TestPipelineArtifacts:
    def test_expected_files_exist(self, pipeline_ws):
        for rel in (
            "data/events.jsonl",
            "data/manifest.json",
            "data/vectors.tmv",
            "results/clusters_weekly.csv",
            "results/trends_summary.csv",
            "results/eval_report.json",
            "results/eval_report.md",
        ):
            assert (pipeline_ws / rel).exists(), rel

    def test_eval_prints_the_report_it_wrote(self, pipeline_ws, capsys):
        assert run("--workspace", str(pipeline_ws), "eval") == 0
        assert capsys.readouterr().out == (pipeline_ws / "results" / "eval_report.md").read_text() + "\n"

    def test_eval_markdown_has_the_four_metric_rows(self, pipeline_ws):
        text = (pipeline_ws / "results" / "eval_report.md").read_text()
        for row in ("Trend F1", "As-of Correctness", "Latest@10 Accuracy", "Latest-Set@10"):
            assert row in text

    def test_run_manifests_record_digests(self, pipeline_ws):
        for cmd in ("gen", "ingest", "embed", "trends", "eval"):
            manifest = json.loads((pipeline_ws / "results" / f"run_{cmd}.json").read_text())
            assert manifest["command"] == cmd
            assert manifest["artifacts"], cmd
            for digest in manifest["artifacts"].values():
                assert len(digest) == 64

    def test_eval_manifest_records_every_parameter_of_the_report(self, tmp_path, pipeline_ws):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        config = str(pipeline_ws / "logs" / "eval.json")
        assert run("--workspace", str(ws), "eval", "--eval-config", config, "--k", "3") == 0
        params = json.loads((ws / "results" / "run_eval.json").read_text())["params"]
        assert params == {**asdict(TrendParams(k=3)), "eval_config": config, "alpha": RetrievalParams.alpha,
                          "half_life_days": RetrievalParams.half_life_days, "cluster_seed": 42}

    def test_manifest_keeps_a_parameter_that_is_no_path_as_it_is(self, tmp_path, monkeypatch):
        src = tmp_path / "in.jsonl"
        src.write_text('{"ts": "2025-04-01T10:00:00Z", "msg": "one"}\n', encoding="utf-8")
        ws = tmp_path / "ws"
        assert run("--workspace", str(ws), "ingest", "--input", str(src)) == 0
        (ws / "sub").mkdir()
        monkeypatch.chdir(ws / "sub")
        assert run("--workspace", "..", "embed") == 0
        params = json.loads((ws / "results" / "run_embed.json").read_text())["params"]
        assert params == {"dim": 384, "embedder": "hash"}

    def test_manifest_paths_are_workspace_relative_inside_it_and_absolute_outside(self, tmp_path, monkeypatch):
        lines = ['{"ts": "2025-04-01T10:00:00Z", "msg": "a"}\n', '{"ts": "2025-04-02T10:00:00Z", "msg": "b"}\n']
        (tmp_path / "in").mkdir()
        (tmp_path / "ws" / "logs").mkdir(parents=True)
        (tmp_path / "in" / "a.jsonl").write_text(lines[0], encoding="utf-8")
        (tmp_path / "ws" / "logs" / "b.jsonl").write_text(lines[1], encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run("--workspace", "ws", "ingest", "--input", "in/a.jsonl", "ws/logs/b.jsonl") == 0
        inputs = json.loads((tmp_path / "ws" / "results" / "run_ingest.json").read_text())["params"]["inputs"]
        assert inputs == [str(tmp_path / "in" / "a.jsonl"), "logs/b.jsonl"]
        monkeypatch.chdir(tmp_path / "ws")  # read from the workspace, each names the file ingested
        assert [Path(p).read_text(encoding="utf-8") for p in inputs] == lines

    def test_a_csv_ingest_reruns_from_its_manifest(self, tmp_path, monkeypatch):
        (tmp_path / "in").mkdir()
        (tmp_path / "in" / "a.csv").write_text("when,text\n2025-04-01T10:00:00Z,okta auth_fail\n", encoding="utf-8")
        (tmp_path / "in" / "map.cfg").write_text("ts=when\nmsg=text\n", encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert run("--workspace", "ws", "ingest", "--input", "in/a.csv", "--mapping", "in/map.cfg") == 0
        params = json.loads((tmp_path / "ws" / "results" / "run_ingest.json").read_text())["params"]
        assert params == {"inputs": [str(tmp_path / "in" / "a.csv")], "mapping": str(tmp_path / "in" / "map.cfg")}
        events = (tmp_path / "ws" / "data" / "events.jsonl").read_bytes()
        monkeypatch.chdir(tmp_path / "ws")  # the manifest alone, read from another cwd, redoes the ingest
        assert run("--workspace", ".", "ingest", "--input", *params["inputs"], "--mapping", params["mapping"]) == 0
        assert (tmp_path / "ws" / "data" / "events.jsonl").read_bytes() == events

    @pytest.mark.parametrize("inside", [False, True], ids=["outside", "inside"])
    def test_an_external_embedder_path_is_recorded_as_a_path(self, pipeline_ws, tmp_path, monkeypatch, inside):
        ws = tmp_path / "ws"
        (ws / "data").mkdir(parents=True)
        (ws / "data" / "events.jsonl").write_bytes((pipeline_ws / "data" / "events.jsonl").read_bytes())
        external = (ws / "ext" if inside else tmp_path / "ext") / "vectors.tmv"
        external.parent.mkdir()
        shutil.copyfile(pipeline_ws / "data" / "vectors.tmv", external)
        (tmp_path / "cwd").mkdir()
        monkeypatch.chdir(tmp_path / "cwd")
        typed = os.path.relpath(external)
        assert run("--workspace", "../ws", "embed", "--embedder", f"external:{typed}") == 0
        params = json.loads((ws / "results" / "run_embed.json").read_text())["params"]
        assert params["embedder"] == "external:" + ("ext/vectors.tmv" if inside else str(external))

    def test_trends_and_eval_manifests_agree_on_every_trend_parameter(self, pipeline_ws):
        def params(command):
            return json.loads((pipeline_ws / "results" / f"run_{command}.json").read_text())["params"]

        trends, evals = params("trends"), params("eval")
        assert trends == {key: evals.get(key, "absent") for key in trends}
        assert "cluster_seed" in trends

    def test_ingest_manifest_covers_the_stream(self, pipeline_ws):
        manifest = json.loads((pipeline_ws / "data" / "manifest.json").read_text())
        assert manifest["week_range"] == ["2025-W14", "2025-W26"]
        assert manifest["events"] > 0
        assert manifest["duplicates_dropped"] == 0


# A manifest parameter's flag, where it is not --<key> with "-" for "_"; gen's
# "out" is always <workspace>/logs, so no flag sets it.
_REPLAY_FLAGS = {"inputs": "--input", "out": None}


class TestManifestReplay:
    """Each results/run_*.json, replayed in stage order into one fresh workspace from its params alone,
    remakes every artifact it lists with the digest it records, and the same manifest."""

    @staticmethod
    def _replay(ws: Path, fresh: Path, monkeypatch) -> list[str]:
        fresh.mkdir()
        monkeypatch.chdir(fresh)  # a workspace-relative path names the file in the fresh workspace
        replayed = []
        for command in ("gen", "ingest", "embed", "trends", "eval"):
            recorded = ws / "results" / f"run_{command}.json"
            if not recorded.exists():
                continue
            manifest = json.loads(recorded.read_text(encoding="utf-8"))
            argv = ["--workspace", ".", command]
            for key, value in manifest["params"].items():
                flag = _REPLAY_FLAGS.get(key, "--" + key.replace("_", "-"))
                if flag is not None and value is not None:  # None is the flag's default
                    argv += [flag, *map(str, value if isinstance(value, list) else [value])]
            assert run(*argv) == 0, argv
            digests = {rel: hashlib.sha256((fresh / rel).read_bytes()).hexdigest() for rel in manifest["artifacts"]}
            assert digests == manifest["artifacts"], command
            assert (fresh / "results" / recorded.name).read_bytes() == recorded.read_bytes(), command
            replayed.append(command)
        return replayed

    def test_a_seed_7_workspace_replays(self, pipeline_ws, tmp_path, monkeypatch):
        assert self._replay(pipeline_ws, tmp_path / "replay", monkeypatch) == ["gen", "ingest", "embed", "trends", "eval"]

    def test_a_csv_and_mapping_workspace_replays(self, tmp_path, monkeypatch):
        ws = tmp_path / "ws"
        inputs = [str(GOLDEN_INGEST / "raw.jsonl"), str(GOLDEN_INGEST / "raw.csv")]
        assert run("--workspace", str(ws), "ingest", "--input", *inputs, "--mapping", str(GOLDEN_INGEST / "mapping.cfg")) == 0
        assert run("--workspace", str(ws), "embed", "--dim", "64") == 0
        assert run("--workspace", str(ws), "trends", "--k", "2", "--match-threshold", "0.4", "--cluster-seed", "3") == 0
        assert self._replay(ws, tmp_path / "replay", monkeypatch) == ["ingest", "embed", "trends"]


class TestQueryCommand:
    def test_query_emits_json_lines(self, pipeline_ws, capsys):
        code = run(
            "--workspace", str(pipeline_ws),
            "query", "--text", "okta auth_fail mfa denied",
            "--now", "2025-06-30T00:00:00Z", "--k", "5",
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 5
        hit = json.loads(lines[0])
        assert {"event_id", "ts", "cosine_sim", "age_days", "recency_weight", "fused"} <= set(hit)

    def test_as_of_date_is_inclusive_of_that_day(self, pipeline_ws, capsys):
        code = run(
            "--workspace", str(pipeline_ws),
            "query", "--text", "okta auth_fail", "--as-of", "2025-04-06",
            "--now", "2025-06-30T00:00:00Z",
        )
        assert code == 0
        out = capsys.readouterr().out
        stamps = [json.loads(l)["ts"] for l in out.splitlines() if l.strip()]
        assert stamps
        assert all(ts <= "2025-04-06T23:59:59.999999+00:00" for ts in stamps)
        assert any(ts.startswith("2025-04-06") for ts in stamps)

    def test_cosine_mode_ignores_time(self, pipeline_ws, capsys):
        code = run(
            "--workspace", str(pipeline_ws),
            "query", "--text", "gateway certificate expiring soon renewal required",
            "--mode", "cosine", "--now", "2025-06-30T00:00:00Z",
        )
        assert code == 0
        out = capsys.readouterr().out
        hits = [json.loads(l) for l in out.splitlines() if l.strip()]
        cosines = [h["cosine_sim"] for h in hits]
        assert cosines == sorted(cosines, reverse=True)

    def test_no_evidence_before_early_cutoff(self, pipeline_ws, capsys):
        code = run(
            "--workspace", str(pipeline_ws),
            "query", "--text", "anything", "--as-of", "2020-01-01",
        )
        assert code == 0
        assert "no evidence" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, mode, as_of, top_k", [
        ([], "fused", None, 10),
        (["--mode", "cosine"], "cosine_only", None, 10),
        (["--as-of", "2025-05-01"], "fused", "2025-05-01", 10),
        (["--k", "25"], "fused", None, 25),
    ])
    def test_printed_hits_equal_rank_over_the_loaded_store(self, pipeline_ws, capsys, extra, mode, as_of, top_k):
        text, now = "okta auth_fail mfa denied", "2025-06-30T00:00:00Z"
        assert run("--workspace", str(pipeline_ws), "query", "--text", text, "--now", now, *extra) == 0
        store = load_events_jsonl(pipeline_ws / "data" / "events.jsonl")
        vecs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        params = RetrievalParams(top_k=top_k, now=coerce_timestamp(now))
        hits = rank(HashEmbedder(dim=vecs.dim).embed(text), store, vecs, params, mode=mode,
                    as_of=parse_cutoff(as_of) if as_of else None)
        assert len(hits) == top_k
        assert capsys.readouterr().out == "".join(hit.to_json() + "\n" for hit in hits)

    def test_query_parses_no_json(self, pipeline_ws, capsys, monkeypatch):
        def refuse(path):
            raise AssertionError(f"query loaded {path}")

        monkeypatch.setattr(cli, "load_events_jsonl", refuse)
        assert run("--workspace", str(pipeline_ws), "query", "--text", "okta auth_fail", "--as-of", "2025-05-01") == 0
        assert len(capsys.readouterr().out.splitlines()) == RetrievalParams.top_k

    def test_trends_and_query_gather_no_per_event_vectors(self, pipeline_ws, tmp_path, capsys, monkeypatch):
        def refuse(vs):
            raise AssertionError("gathered every event's vector")

        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        monkeypatch.setattr(VectorStore, "vectors", property(refuse))
        assert run("--workspace", str(ws), "trends") == 0
        for name in ("clusters_weekly.csv", "trends_summary.csv"):
            assert (ws / "results" / name).read_bytes() == (pipeline_ws / "results" / name).read_bytes()
        capsys.readouterr()
        assert run("--workspace", str(ws), "query", "--text", "okta auth_fail mfa denied") == 0
        assert len(capsys.readouterr().out.splitlines()) == RetrievalParams.top_k

    def test_ingest_embed_trends_eval_and_query_build_no_event(self, pipeline_ws, tmp_path, capsys, monkeypatch):
        query = ["query", "--text", "okta auth_fail mfa denied", "--now", "2025-06-30T00:00:00Z", "--k", "25"]
        assert run("--workspace", str(pipeline_ws), *query) == 0
        printed = capsys.readouterr().out

        def refuse(store, i):
            raise AssertionError(f"built event {i} of a store")

        ws = tmp_path / "ws"
        shutil.copytree(pipeline_ws / "logs", ws / "logs")
        monkeypatch.setattr(EventStore, "__getitem__", refuse)
        for command in ("ingest", "embed", "trends", "eval"):
            assert run("--workspace", str(ws), command) == 0
        capsys.readouterr()
        assert run("--workspace", str(ws), *query) == 0
        assert capsys.readouterr().out == printed
        written = sorted(p.relative_to(ws) for d in ("data", "results") for p in (ws / d).iterdir())
        assert len(written) == 11
        for rel in written:
            assert (ws / rel).read_bytes() == (pipeline_ws / rel).read_bytes(), rel


class TestStaleVectors:
    """Every reader of vectors.tmv checks it was embedded from the events.jsonl beside it."""

    COMMANDS = (["trends"], ["query", "--text", "okta auth_fail"],
                ["eval", "--eval-config", "{logs}/eval.json"])

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_an_edited_store_exits_1_naming_both_files(self, pipeline_ws, tmp_path, capsys, argv):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        events = ws / "data" / "events.jsonl"
        lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
        event = json.loads(lines[7])
        event["msg"] += " (edited)"
        event["text_repr"] += " (edited)"
        lines[7] = json.dumps(event, ensure_ascii=False, separators=(",", ":")) + "\n"
        events.write_text("".join(lines), encoding="utf-8")
        argv = [a.format(logs=pipeline_ws / "logs") for a in argv]
        assert run("--workspace", str(ws), *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert str(ws / "data" / "vectors.tmv") in err and str(events) in err
        assert "re-run 'tmem embed'" in err
        assert not (ws / "results").exists()

    @pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: argv[0])
    def test_a_tmv1_workspace_file_exits_1_asking_for_embed(self, pipeline_ws, tmp_path, capsys, argv):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        vs = read_vector_file(ws / "data" / "vectors.tmv")
        (ws / "data" / "vectors.tmv").write_bytes(tmv1_bytes(vs.ids, vs.vectors))
        argv = [a.format(logs=pipeline_ws / "logs") for a in argv]
        assert run("--workspace", str(ws), *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {ws / 'data' / 'vectors.tmv'} is a TMV1 file")
        assert "re-run 'tmem embed'" in err

    @pytest.mark.parametrize("defect", TMV2_DEFECTS)
    def test_a_malformed_file_exits_1_naming_it(self, pipeline_ws, tmp_path, capsys, defect):
        build, message = TMV2_DEFECTS[defect]
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        path = ws / "data" / "vectors.tmv"
        path.write_bytes(build())
        assert run("--workspace", str(ws), "query", "--text", "okta auth_fail") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and message in err


@pytest.mark.parametrize("size", [0, 1, (1 << 18) - 1, 1 << 18, (1 << 18) + 1, 3 << 18])
def test_sha256_reads_across_its_buffer_edges(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "file"
    path.write_bytes(data)
    assert cli._sha256(path) == hashlib.sha256(data).hexdigest()


_SLICE = cli._HASH_SLICE


@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd to count open descriptors")
@pytest.mark.parametrize("size", [0, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1])
def test_sha256_hashes_across_its_slice_edges_and_closes_the_file(tmp_path, size):
    data = np.random.default_rng(size).bytes(size)
    path = tmp_path / "file"
    path.write_bytes(data)
    fds = len(os.listdir("/proc/self/fd"))
    assert cli._sha256(path) == hashlib.sha256(data).hexdigest()
    assert len(os.listdir("/proc/self/fd")) == fds


@pytest.mark.parametrize("argv", [["query", "--text", "okta auth_fail"], ["trends"]], ids=lambda argv: argv[0])
def test_an_empty_events_file_is_stale(pipeline_ws, tmp_path, capsys, argv):
    ws = tmp_path / "ws"
    _copy_store(pipeline_ws, ws)
    events = ws / "data" / "events.jsonl"
    events.write_bytes(b"")
    assert run("--workspace", str(ws), *argv) == 1
    out, err = capsys.readouterr()
    assert err == (f"error: {ws / 'data' / 'vectors.tmv'} was embedded from another version of {events}; "
                   "re-run 'tmem embed'\n")
    assert out == ""


def _stale(ws: Path, append: str = "") -> Path:
    """Edit the first event of ws's events.jsonl, and append ``append``; returns the file."""
    events = ws / "data" / "events.jsonl"
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    event = json.loads(lines[0])
    event["msg"] += " (edited)"
    lines[0] = json.dumps(event, ensure_ascii=False, separators=(",", ":")) + "\n"
    events.write_text("".join(lines) + append, encoding="utf-8")
    return events


def run_and_join(*argv: str) -> int:
    """run(), checking that no thread it started outlives it."""
    threads = threading.active_count()
    code = run(*argv)
    assert threading.active_count() == threads
    return code


class TestErrorOrder:
    """The vector file's own error, then hashing's, then the stale digest, then the command's."""

    def test_stale_beats_the_query_text_error(self, pipeline_ws, tmp_path, capsys):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        events = _stale(ws)
        assert run_and_join("--workspace", str(ws), "query", "--text", "!!!") == 1
        out, err = capsys.readouterr()
        assert err == (f"error: {ws / 'data' / 'vectors.tmv'} was embedded from another version of {events}; "
                       "re-run 'tmem embed'\n")
        assert out == ""

    @pytest.mark.parametrize("argv", [["trends"], ["eval", "--eval-config", "{logs}/eval.json"]],
                             ids=lambda argv: argv[0])
    def test_stale_beats_the_loader_error(self, pipeline_ws, tmp_path, capsys, argv):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        events = _stale(ws, append="not json\n")
        argv = [a.format(logs=pipeline_ws / "logs") for a in argv]
        assert run_and_join("--workspace", str(ws), *argv) == 1
        out, err = capsys.readouterr()
        assert err == (f"error: {ws / 'data' / 'vectors.tmv'} was embedded from another version of {events}; "
                       "re-run 'tmem embed'\n")
        assert out == ""
        assert not (ws / "results").exists()

    @pytest.mark.parametrize("defect", ["bad magic", "trailing bytes"])
    def test_the_vector_file_error_beats_stale(self, pipeline_ws, tmp_path, capsys, defect):
        build, message = TMV2_DEFECTS[defect]
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        _stale(ws)
        path = ws / "data" / "vectors.tmv"
        path.write_bytes(build())
        assert run_and_join("--workspace", str(ws), "query", "--text", "okta auth_fail") == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: {path}: ") and message in err and "another version" not in err
        assert out == ""

    def test_an_events_directory_exits_1_naming_it(self, pipeline_ws, tmp_path, capsys):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        events = ws / "data" / "events.jsonl"
        events.unlink()
        events.mkdir()
        assert run_and_join("--workspace", str(ws), "query", "--text", "okta auth_fail") == 1
        out, err = capsys.readouterr()
        assert err == f"error: {events}: Is a directory\n"
        assert out == ""

    def test_an_interrupt_in_the_block_is_not_replaced_by_stale(self, pipeline_ws, tmp_path):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        _stale(ws)
        threads = threading.active_count()
        with pytest.raises(KeyboardInterrupt):
            with cli._load_vectors(cli.Workspace(ws)):
                raise KeyboardInterrupt
        assert threading.active_count() == threads

    @pytest.mark.parametrize("argv", [["query", "--text", "okta auth_fail"], ["trends"]], ids=lambda argv: argv[0])
    def test_a_good_command_leaves_no_thread(self, pipeline_ws, tmp_path, capsys, argv):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        assert run_and_join("--workspace", str(ws), *argv) == 0
        assert capsys.readouterr().out


class TestEmbedOptions:
    def test_external_vectors_accepted(self, pipeline_ws, tmp_path, capsys):
        ws = tmp_path / "ws"
        (ws / "data").mkdir(parents=True)
        (ws / "data" / "events.jsonl").write_bytes((pipeline_ws / "data" / "events.jsonl").read_bytes())
        vs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        external = tmp_path / "external.tmv"
        external.write_bytes(tmv1_bytes(vs.ids, vs.vectors[::-1]))  # other vectors, the same ids
        code = run("--workspace", str(ws), "embed", "--embedder", f"external:{external}")
        assert code == 0
        written, given = read_vector_file(ws / "data" / "vectors.tmv"), read_vector_file(external)
        assert tuple(written.ids) == tuple(given.ids)
        assert written.vectors.tobytes() == given.vectors.tobytes()
        assert np.array_equal(written.ts_us, vs.ts_us) and written.events_sha256 == vs.events_sha256
        assert run("--workspace", str(ws), "query", "--text", "okta auth_fail") == 0

    @pytest.mark.parametrize("corrupt", ["nan_row", "bad_magic"])
    def test_bad_external_vectors_exit_1_and_leave_no_vectors(self, pipeline_ws, tmp_path, capsys, corrupt):
        ws = tmp_path / "ws"
        (ws / "data").mkdir(parents=True)
        (ws / "data" / "events.jsonl").write_bytes((pipeline_ws / "data" / "events.jsonl").read_bytes())
        vs = read_vector_file(pipeline_ws / "data" / "vectors.tmv")
        vectors = vs.vectors.copy()
        if corrupt == "nan_row":
            vectors[-1, 0] = np.nan
        external = tmp_path / "external.tmv"
        external.write_bytes(tmv1_bytes(vs.ids, vectors))
        if corrupt == "bad_magic":
            external.write_bytes(b"NOPE" + external.read_bytes()[4:])
        assert run("--workspace", str(ws), "embed", "--embedder", f"external:{external}") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if corrupt == "nan_row":
            assert f"vector for {vs.ids[-1]} has a non-finite value" in err
        assert not (ws / "data" / "vectors.tmv").exists()

    def test_unknown_embedder_is_an_error(self, pipeline_ws, tmp_path):
        ws = tmp_path / "ws"
        (ws / "data").mkdir(parents=True)
        (ws / "data" / "events.jsonl").write_bytes((pipeline_ws / "data" / "events.jsonl").read_bytes())
        assert run("--workspace", str(ws), "embed", "--embedder", "bert") == 1


def _query(config: dict, kind: str) -> dict:
    """The first query of type ``kind`` in a query suite."""
    return next(q for q in config["queries"] if q["type"] == kind)


def _copy_store(pipeline_ws, ws):
    (ws / "data").mkdir(parents=True)
    for name in ("events.jsonl", "vectors.tmv"):
        (ws / "data" / name).write_bytes((pipeline_ws / "data" / name).read_bytes())


def _per_week_k(ws) -> dict[str, int]:
    per_week: dict[str, int] = {}
    for row in (ws / "results" / "clusters_weekly.csv").read_text().splitlines()[1:]:
        week, cid = row.split(",")[:2]
        per_week[week] = max(per_week.get(week, 0), int(cid) + 1)
    return per_week


# Centroids are unit vectors: no match similarity exceeds 1 and no drift (1 - cosine) exceeds 2.
_UNREACHABLE_THRESHOLDS = [
    ("--match-threshold", "2", "match_threshold must be <= 1, the highest centroid cosine, got 2.0"),
    ("--drift-threshold", "5", "drift_threshold must be <= 2, the highest 1 - cosine, got 5.0"),
]


class TestTrendParamChecks:
    @pytest.mark.parametrize("flag", ["--match-threshold", "--drift-threshold"])
    def test_nan_threshold_exits_1(self, tmp_path, pipeline_ws, capsys, flag):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        assert run("--workspace", str(ws), "trends", flag, "nan") == 1
        assert "finite" in capsys.readouterr().err
        assert not (ws / "results" / "clusters_weekly.csv").exists()

    @pytest.mark.parametrize("command", ["trends", "eval"])
    @pytest.mark.parametrize("flag, value, error", _UNREACHABLE_THRESHOLDS)
    def test_a_threshold_no_cosine_can_reach_exits_1(
            self, tmp_path, pipeline_ws, capsys, command, flag, value, error):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        (ws / "logs").mkdir()
        (ws / "logs" / "eval.json").write_bytes((pipeline_ws / "logs" / "eval.json").read_bytes())
        before = _tree(ws)
        assert run("--workspace", str(ws), command, flag, value) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert _tree(ws) == before

    @pytest.mark.parametrize("flag, value, error", _UNREACHABLE_THRESHOLDS)
    def test_all_with_a_threshold_no_cosine_can_reach_exits_1_before_tracking(
            self, tmp_path, capsys, flag, value, error):
        ws = tmp_path / "ws"
        assert run("--workspace", str(ws), "all", flag, value) == 1
        assert capsys.readouterr().err.endswith(f"error: {error}\n")
        assert not (ws / "results" / "clusters_weekly.csv").exists()

    @pytest.mark.parametrize("flag, value, error", [
        *_UNREACHABLE_THRESHOLDS,
        ("--match-threshold", "nan", "thresholds must be positive and finite, got (nan, 1.5, 0.5, 0.2)"),
        ("--alpha", "2", "alpha must be in [0, 1], got 2.0"),
        ("--half-life-days", "0", "half_life_days must be positive and finite, got 0.0"),
        ("--dim", "1", "dim must be an integer >= 2, got 1"),
    ])
    def test_all_with_a_setting_no_step_takes_writes_nothing(self, tmp_path, capsys, flag, value, error):
        ws = tmp_path / "ws"
        assert run("--workspace", str(ws), "all", flag, value) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert [p.name for p in ws.iterdir()] == [".tmem.lock"]  # no logs/, data/ or results/

    def test_negative_growth_min_events_exits_1(self, tmp_path, pipeline_ws, capsys):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        assert run("--workspace", str(ws), "trends", "--growth-min-events", "-5") == 1
        assert "growth_min_events must be" in capsys.readouterr().err
        assert not (ws / "results" / "clusters_weekly.csv").exists()


class TestTrendsK:
    def test_k_3_gives_3_clusters_in_every_week(self, tmp_path, pipeline_ws):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        assert run("--workspace", str(ws), "trends", "--k", "3") == 0
        assert set(_per_week_k(ws).values()) == {3}

    def test_k_auto_records_null_and_k_varies_by_week(self, tmp_path, pipeline_ws):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        assert run("--workspace", str(ws), "trends", "--k", "auto") == 0
        assert len(set(_per_week_k(ws).values())) > 1  # the elbow picks k per week
        manifest = json.loads((ws / "results" / "run_trends.json").read_text())
        assert manifest["params"]["k"] is None

    def test_no_k_means_auto(self, tmp_path, pipeline_ws):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        assert run("--workspace", str(ws), "trends") == 0
        assert len(set(_per_week_k(ws).values())) > 1
        manifest = json.loads((ws / "results" / "run_trends.json").read_text())
        assert manifest["params"]["k"] is None


class TestConfigPrecedence:
    """There is no settings file: each setting is its flag, and `--config` is rejected."""

    def test_config_that_is_not_an_object_is_a_usage_error(self, tmp_path):
        path = tmp_path / "conf.json"
        path.write_text(json.dumps([1, 2]))
        assert exit_code("--workspace", str(tmp_path / "ws"), "--config", str(path), "trends") == 64
        assert not (tmp_path / "ws").exists()


def test_readme_tuning_knobs_table_lists_exactly_the_eval_options():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Tuning knobs", 1)[1].split("\n#", 1)[0]
    documented = re.findall(r"^\| `(--[a-z-]+)` \|", section, flags=re.MULTILINE)
    commands = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    eval_parser = commands.choices["eval"]
    options = {flag for action in eval_parser._actions for flag in action.option_strings}
    assert len(documented) == len(set(documented))
    assert set(documented) == options - {"-h", "--help", "--eval-config"}
