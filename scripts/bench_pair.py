#!/usr/bin/env python3
"""Benchmark a parent checkout against a change checkout, in alternating pairs.

    python3 scripts/bench_pair.py --parent <parent-checkout> --change <change-checkout> --out BENCH_<n>.json

Each checkout is a git clone with no uncommitted changes to tracked files, so
its commit names exactly the code that ran. For every workload of
``BENCHMARK.json`` it runs ``perfbench/run.py --trace 0`` in each checkout
for PAIRS pairs of runs of the benchmark's ``run_seconds`` at run.py's default
seed, with the parent first in even pairs and the change first in odd ones,
so a slow spell of the shared host does not land on one side only.
The output holds both commits (and the git tree of each ``src/``), the
machine, and per workload and side every end-to-end metric's values, median
and quartiles with the attempted and failed operation counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from baseline import machine, summarize  # noqa: E402

SIDES = ("parent", "change")
# A gain may be claimed only from at least ten alternating pairs, the change winning nine.
PAIRS = 10


def git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def describe(checkout: Path) -> dict:
    if git(checkout, "status", "--porcelain", "--untracked-files=no"):
        raise SystemExit(f"{checkout}: uncommitted changes to tracked files; commit them so the sha names the code")
    return {"sha": git(checkout, "rev-parse", "HEAD"), "src_tree": git(checkout, "rev-parse", "HEAD:src")}


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=30 * seconds + 600,
    )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} printed no result (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    names = [m["name"] for m in spec["end_to_end"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    report = {
        **{side: describe(path) for side, path in checkouts.items()},
        "machine": {key: value for key, value in machine().items() if key != "git_sha"},
        "settings": {"pairs": PAIRS, "seconds": spec["run_seconds"], "trace": 0},
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            for side in SIDES if pair % 2 == 0 else reversed(SIDES):
                result = run_once(checkouts[side], workload, spec["run_seconds"])
                runs[side].append(result)
                print(f"{workload} pair {pair} {side}: "
                      + " ".join(f"{n}={result['metrics'][n]['value']:.4g}" for n in names), file=sys.stderr)
        report["workloads"][workload] = {
            side: {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {n: {"unit": units[n], **summarize([r["metrics"][n]["value"] for r in results])}
                            for n in names},
            }
            for side, results in runs.items()
        }
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
