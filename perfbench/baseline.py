"""Run every workload over several seeds and summarize the results as JSON.

    python3 perfbench/baseline.py --seeds 1-10 --out ../baseline.json

For each workload and metric it records the per-seed values, their median and
quartiles, and the spread (Q3 - Q1) / median that ``BENCHMARK.json``'s
bounds are judged against; one traced run per workload adds the per-layer
numbers. Machine facts and the git commit go alongside, so two summaries
(a parent commit and a change) can be compared metric by metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import BLAS_THREADS

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
    if proc.returncode or not result.get("correct"):
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr[-3000:]}")
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def machine() -> dict:
    import numpy

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": int(BLAS_THREADS), "git_sha": sha or None}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace-seed", type=int, default=7)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in parse_seeds(args.seeds):
            result = run(workload, seed, spec["run_seconds"], 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()}, file=sys.stderr)
        traced = run(workload, args.trace_seed, spec["run_seconds"], 1)
        summary["workloads"][workload] = {
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.out.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
