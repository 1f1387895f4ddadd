"""The tmem parser: --help output and usage errors (exit 64) byte for byte, and the part-built parser.

The golden files under tests/golden/ hold what `COLUMNS=80 tmem --help`,
`tmem <command> --help` and each usage error below print. argparse lays out
help differently from one Python minor version to the next, so they are
checked on the version CI runs. `cli.main` builds only the subcommand it
finds in argv; a property checks that this parser parses as the whole one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from temporal_memory import cli

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = ("gen", "ingest", "embed", "trends", "query", "eval", "all")
# golden file name (tests/golden/help/<name>.txt) -> argv
HELP = {"tmem": ["--help"], **{f"tmem-{command}": [command, "--help"] for command in COMMANDS}}
# case name in tests/golden/usage_errors.json -> argv
USAGE_ERRORS = {
    "no-command": [],
    "only-top-level-flags": ["--workspace", "w", "-v"],
    "unknown-command": ["bogus"],
    "unknown-top-level-flag": ["--bogus", "query", "--text", "x"],
    "unknown-flag": ["query", "--text", "x", "--bogus"],
    "top-level-flag-after-the-command": ["query", "--text", "x", "-v"],
    "query-without-text": ["query"],
    "query-k-0": ["query", "--text", "x", "--k", "0"],
    "abbreviated-flag": ["query", "--text", "x", "--alph", "0.5"],
    "abbreviated-top-level-flag": ["--work", "w", "query", "--text", "x"],
    "workspace-without-a-value": ["--workspace"],
    "bad-choice": ["query", "--text", "x", "--mode", "bm25"],
    "bad-k": ["trends", "--k", "zero"],
    "negative-seed": ["all", "--seed", "-1"],
}

needs_golden_python = pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the goldens hold Python 3.11's argparse layout, the version CI runs"
)


def invoke(argv: list[str], capsys) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of ``cli.main(argv)``; argparse's own exits included."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out.encode("utf-8"), err.encode("utf-8")


@pytest.fixture(autouse=True)
def columns_80(monkeypatch):
    """argparse wraps at the terminal width; pin it so the output is the same on any terminal."""
    monkeypatch.setenv("COLUMNS", "80")


@needs_golden_python
@pytest.mark.parametrize("name", HELP)
def test_help_matches_its_golden_file(name, capsys):
    assert invoke(HELP[name], capsys) == (0, (GOLDEN / "help" / f"{name}.txt").read_bytes(), b"")


def test_every_command_has_a_help_golden_file():
    assert list(cli._SUBCOMMANDS) == list(COMMANDS)
    assert {p.stem for p in (GOLDEN / "help").iterdir()} == set(HELP)


@needs_golden_python
@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_usage_error_matches_its_golden_case(name, capsys):
    case = json.loads((GOLDEN / "usage_errors.json").read_text(encoding="utf-8"))[name]
    assert case["argv"] == USAGE_ERRORS[name]
    expected = (case["exit"], case["stdout"].encode("utf-8"), case["stderr"].encode("utf-8"))
    assert invoke(case["argv"], capsys) == expected
    assert case["exit"] == cli.EXIT_USAGE


def _subcommands(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


TOP_LEVEL = ["--workspace", "--workspace=x", "-v", "--verbose", "-h", "--help", "--"]
FLAGS = sorted({flag for p in _subcommands(cli.build_parser()).values()
                 for a in p._actions for flag in a.option_strings})
VALUES = ["x", "", "0", "1", "-1", "2.5", "nan", "auto", "fused", "cosine", "2025-05-01", "-", "bogus",
          "--alph", "--work"]
TOKENS = [*COMMANDS, *TOP_LEVEL, *FLAGS, *VALUES]


def parse(parser: argparse.ArgumentParser, argv: list[str]):
    """(Namespace, None, "", "") of a parse, or (None, exit code, stdout, stderr) of argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return parser.parse_args(argv), None, "", ""
        except SystemExit as exc:
            return None, exc.code, out.getvalue(), err.getvalue()


tokens = st.sampled_from(TOKENS)
argvs = st.one_of(
    st.lists(tokens, max_size=8),
    st.builds(lambda head, command, tail: [*head, command, *tail],
              st.lists(st.sampled_from(TOP_LEVEL + VALUES[:2]), max_size=3), st.sampled_from(COMMANDS),
              st.lists(tokens, max_size=6)),
)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argvs)
def test_the_subcommand_parser_parses_as_the_whole_parser(argv):
    assert parse(cli.build_parser(cli._command_in(argv)), argv) == parse(cli.build_parser(), argv)


@pytest.mark.parametrize("argv, command", [
    (["query", "--text", "x"], "query"),
    (["--workspace", "w", "-v", "--verbose", "--workspace=", "all", "-h"], "all"),
    (["--workspace", "query", "trends"], "trends"),
    ([], None),
    (["bogus", "query"], None),
    (["-h", "query"], None),
    (["--help", "query"], None),
    (["--", "query"], None),
    (["-vv", "query"], None),
    (["--work", "w", "query"], None),
    (["--workspace"], None),
    (["--workspace", "-v", "query"], None),
    (["--workspace", "-x", "query"], None),
    (["--verbose=1", "query"], None),
])
def test_the_scan_names_a_subcommand_only_after_plain_top_level_flags(argv, command):
    assert cli._command_in(argv) == command


def test_main_builds_only_the_named_subcommand(tmp_path, monkeypatch):
    built = []

    def spy(command=None):
        parser = build_parser(command)
        built.append(sorted(_subcommands(parser)))
        return parser

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", spy)
    assert cli.main(["--workspace", str(tmp_path), "query", "--text", "x"]) == cli.EXIT_MISSING_ARTIFACT
    assert built == [["query"]]
