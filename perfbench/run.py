"""Run one benchmark workload; the last line of stdout is its result as JSON.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload with tracing off and reports the
``end_to_end`` metrics of ``BENCHMARK.json``. ``--trace 1`` runs a fixed
amount of the same work alternately untraced and traced, and reports the
``per_layer`` metrics, the tracing overhead among them; its spans go to
``.bench_out/``. Scratch workspaces live under ``.bench_work/`` and are
removed at exit. The exit code is 0 only when every operation passed its
correctness check.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pipeline", "query-warm", "cli-cold")


# One BLAS thread: the single client runs on one core, and idle BLAS workers spin.
BLAS_THREADS = "1"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "temporal_memory" / "__init__.py").is_file():
        print(f"error: no temporal_memory package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import workloads  # imports numpy, so only after the thread setting

    logging.getLogger().addHandler(logging.NullHandler())  # skipped-record warnings stay quiet
    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            outcome, values, tracer = workloads.traced(args.workload, args.seed, workdir)
            tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
            declared = spec["per_layer"]
        else:
            outcome = workloads.measure(args.workload, args.seed, args.seconds, workdir)
            values = outcome.measured
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    correct = outcome.failed == 0 and outcome.attempted > 0

    for problem in outcome.problems[:20]:
        print(f"FAIL {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} blas_threads={BLAS_THREADS} "
          f"attempted={outcome.attempted} failed={outcome.failed} "
          f"fail_ratio={outcome.failed / max(outcome.attempted, 1):g}", file=sys.stderr)
    extras = ("ops_timed", "host_speed_factor", "raw_setup_s", "raw_op_p50_ms", "raw_op_p90_ms")
    print("  " + " ".join(f"{key}={values[key]:.6g}" for key in extras if key in values), file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:>16.6f} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": outcome.attempted, "failed": outcome.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
