"""Committed BENCH_*.json files (written by scripts/bench_pair.py) hold what a performance claim needs.

A schema check only: it reads the files and runs no benchmark.
"""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_has_both_shas_and_every_end_to_end_metric(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    for side in ("parent", "change"):
        assert re.fullmatch(r"[0-9a-f]{40}", bench[side]["sha"]), side
    assert bench["parent"]["sha"] != bench["change"]["sha"]
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(bench["machine"])
    for workload in SPEC["workloads"]:
        for side in ("parent", "change"):
            result = bench["workloads"][workload["name"]][side]
            assert isinstance(result["attempted"], int) and result["attempted"] > 0
            assert isinstance(result["failed"], int) and result["failed"] >= 0
            for metric in SPEC["end_to_end"]:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"]
                assert len(got["values"]) >= 10
                assert got["median"] == statistics.median(got["values"])
