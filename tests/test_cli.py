"""CLI behavior: exit codes, artifact wiring, report contents, reproducibility."""

from __future__ import annotations

import argparse
import fcntl
import json
import re
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from temporal_memory import cli
from temporal_memory.embedding import VectorStore, read_vector_file, write_vector_file
from temporal_memory.retrieval import RetrievalParams
from temporal_memory.tracking import TrendParams


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

    def test_lock_contention_exits_1(self, pipeline_ws, capsys):
        lock = (pipeline_ws / ".tmem.lock").open("w")
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            assert run("--workspace", str(pipeline_ws), "gen", "--seed", "1") == 1
            assert "lock" in capsys.readouterr().err
        finally:
            lock.close()


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


class TestEmbedOptions:
    def test_external_vectors_accepted(self, pipeline_ws, tmp_path, capsys):
        ws = tmp_path / "ws"
        (ws / "data").mkdir(parents=True)
        (ws / "data" / "events.jsonl").write_bytes((pipeline_ws / "data" / "events.jsonl").read_bytes())
        external = tmp_path / "external.tmv"
        external.write_bytes((pipeline_ws / "data" / "vectors.tmv").read_bytes())
        code = run("--workspace", str(ws), "embed", "--embedder", f"external:{external}")
        assert code == 0
        assert (ws / "data" / "vectors.tmv").read_bytes() == external.read_bytes()

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
        write_vector_file(VectorStore(dim=vs.dim, ids=vs.ids, vectors=vectors), external)
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


class TestTrendParamChecks:
    @pytest.mark.parametrize("flag", ["--match-threshold", "--drift-threshold"])
    def test_nan_threshold_exits_1(self, tmp_path, pipeline_ws, capsys, flag):
        ws = tmp_path / "ws"
        _copy_store(pipeline_ws, ws)
        assert run("--workspace", str(ws), "trends", flag, "nan") == 1
        assert "finite" in capsys.readouterr().err
        assert not (ws / "results" / "clusters_weekly.csv").exists()

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
