"""The three workloads, each one closed-loop client in this process.

* ``pipeline`` -- ``tmem all`` in a fresh workspace per repetition: the
  paper's reproduction path, where tracking and evaluation do most work.
* ``query-warm`` -- in-process query embed + ``rank`` over a 20k-event store
  built by the program's own ``ingest`` and ``encode_store``; retrieval does
  nearly all the timed work.
* ``cli-cold`` -- ``tmem ingest`` and ``tmem embed`` over 20k raw records with
  injected defects, then ``tmem query`` invocations that each reload
  ``events.jsonl`` and ``vectors.tmv`` from disk.

A timed run is ROUNDS equal rounds; each round sets up once and then repeats
the workload's operation until the round ends, so set-up and operation
samples spread over the same stretch of time. Every workload reports the same
end-to-end metrics: set-up time, the latency and throughput of its operation
(one ``all``; one query embed + ``rank``; one ``tmem query``) and peak RSS.
An operation that exits nonzero, raises or fails its correctness check
counts as failed.

Times are reported at a reference host speed. On the shared 2-core host this
benchmark was built on, the same code runs up to 25% slower for tens of
seconds at a time (a neighbour's load; no steal time shows), which swamps the
run-to-run spread of raw wall times. So a timed run also times a fixed piece
of benchmark-owned work (``calibration_sample``) between set-ups and
operations, spending about CALIBRATION_SHARE of the run on it, and scales its
times by REFERENCE_CALIBRATION_S over the median of those samples. No program
change can move the calibration; the raw times and the factor go to stderr.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from oracle import Oracle
from temporal_memory import cli, embedding, events, retrieval
from tracer import Tracer, layer_metrics

ROUNDS = 3
# The seed the paper's numbers (and tests/test_acceptance.py) are stated for.
PAPER_SEED = 7
OTHER_STREAM_EVERY = 6
PIPELINE_COMMANDS = ("gen", "ingest", "embed", "trends", "eval")
# One query in CHECK_EVERY (at a seeded offset) is checked in full after its round.
CHECK_EVERY = 5
REFERENCE_CALIBRATION_S = 0.0037  # median calibration_sample on the reference host
CALIBRATION_SHARE = 0.02
_CALIBRATION_VECTOR = np.linspace(0.0, 1.0, 1 << 16).astype(np.float16)
# Fixed work of one traced unit, repeated TRACE_UNITS times traced and untraced.
TRACE_UNITS = 2
TRACE_QUERIES = {"query-warm": 20, "cli-cold": 4}


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    measured: dict[str, float] = field(default_factory=dict)

    def record(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.fail(what, problem)

    def fail(self, what: str, problem: str) -> None:
        """A failed check on an operation already counted as attempted."""
        self.failed += 1
        self.problems.append(f"{what}: {problem}")


def attempt(outcome: Outcome, what: str, fn):
    """Run one operation; a raise counts as a failure. Returns fn's result or None."""
    try:
        result, problem = fn()
    except Exception as exc:  # the run must go on and report the failure
        outcome.record(what, f"raised {exc!r}\n{traceback.format_exc(limit=4)}")
        return None
    outcome.record(what, problem)
    return result


def calibration_sample() -> float:
    """Seconds for fixed interpreter and numpy work, about 4 ms; allocates no GC-tracked objects."""
    start = time.perf_counter()
    total = 0
    for i in range(40_000):
        total += i * i
    for _ in range(10):
        _CALIBRATION_VECTOR.astype(np.float32).sum()
    return time.perf_counter() - start


def calibrate(samples: list[float], after_wall: float) -> None:
    """Add calibration samples costing about CALIBRATION_SHARE of ``after_wall``; at least one."""
    spent = 0.0
    while spent < CALIBRATION_SHARE * after_wall or not spent:
        samples.append(calibration_sample())
        spent += samples[-1]


def tmem(*argv: str) -> tuple[int, str, float]:
    """``cli.main`` with its output captured; returns (exit code, stdout, seconds)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(list(argv))
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), elapsed


def _manifest_problem(manifest: dict, inputs: gen.Inputs) -> str | None:
    got = {key: manifest[key] for key in inputs.expected}
    if got != inputs.expected:
        return f"manifest counts {got}, generator injected {inputs.expected}"
    if manifest["files"] != inputs.expected_files:
        return f"per-file manifest {manifest['files']}, expected {inputs.expected_files}"
    return None


def _artifacts(ws: Path, commands) -> dict:
    return {c: json.loads((ws / "results" / f"run_{c}.json").read_text())["artifacts"] for c in commands}


# ---------------------------------------------------------------------------
# pipeline


def pipeline_seed(seed: int, rep: int) -> int:
    """The paper's stream, except every OTHER_STREAM_EVERY-th repetition.

    Repeating one stream keeps the run-to-run spread down (tracking work varies
    by about 11% between streams); the few streams derived from the workload
    seed carry the checks to streams the paper did not report on.
    """
    return seed * 1000 + rep if rep % OTHER_STREAM_EVERY == OTHER_STREAM_EVERY - 1 else PAPER_SEED


def _paper_problem(ws: Path, seed: int) -> str | None:
    report = json.loads((ws / "results" / "eval_report.json").read_text())
    sens = report["sensitivity"]
    latest = report["latest_set_at_10"]
    checks = [
        ("as-of correctness = 1.00", report["asof_correctness"] == 1.0),
        ("Latest-Set@10 fused = 1.00", latest["fused"] == 1.0),
        ("Latest-Set@10 cosine = 0.00", latest["cosine_only"] == 0.0),
        ("sensitivity at alpha 0.9 and 0.95 below 0.7", max(sens["0.9"], sens["0.95"]) < sens["0.7"]),
        ("k varies across weeks", len(set(report["per_week_k"].values())) > 1),
    ]
    if seed == PAPER_SEED:
        # A claim about the paper's stream only: other seeds' trackers can score above 0.5.
        checks.append(("trend macro-F1 <= 0.5", report["trend_macro_f1"] <= 0.5))
    failures = [name for name, ok in checks if not ok]
    return "paper checks failed: " + ", ".join(failures) if failures else None


class Pipeline:
    def __init__(self, seed: int, workdir: Path, outcome: Outcome):
        self.seed, self.workdir, self.outcome = seed, workdir, outcome
        self.digests: dict[int, dict] = {}

    def setup(self) -> float:
        """gen, ingest and embed of a stream in a fresh workspace (warms the process)."""
        ws = Path(tempfile.mkdtemp(dir=self.workdir))
        wall = 0.0
        for command in ("gen", "ingest", "embed"):
            extra = ("--seed", str(self.seed)) if command == "gen" else ()
            code, _, seconds = tmem("--workspace", str(ws), command, *extra)
            wall += seconds
            self.outcome.record(f"setup {command}", f"exit {code}" if code else None)
        shutil.rmtree(ws)
        return wall

    def op(self, rep: int) -> float | None:
        """One ``tmem all``; returns its wall time."""
        seed = pipeline_seed(self.seed, rep)
        ws = Path(tempfile.mkdtemp(dir=self.workdir))

        def run():
            code, _, wall = tmem("--workspace", str(ws), "all", "--seed", str(seed))
            if code:
                return wall, f"exit {code}"
            problem = _paper_problem(ws, seed)
            digests = _artifacts(ws, PIPELINE_COMMANDS)
            if self.digests.setdefault(seed, digests) != digests:
                problem = problem or f"artifacts differ between two runs of seed {seed}"
            return wall, problem

        try:
            return attempt(self.outcome, f"all --seed {seed}", run)
        finally:
            shutil.rmtree(ws)

    def finish(self) -> None:
        pass  # every check ran with its operation


# ---------------------------------------------------------------------------
# query-warm


class QueryWarm:
    def __init__(self, seed: int, workdir: Path, outcome: Outcome):
        self.seed, self.outcome = seed, outcome
        self.inputs = gen.make_inputs(seed)
        self.paths, self.mapping = gen.write_inputs(self.inputs, workdir / "inputs")
        self.params = retrieval.RetrievalParams(now=self.inputs.now, top_k=gen.TOP_K)
        self.store = self.vecs = self.oracle = None
        self.sampled: list[tuple] = []

    def setup(self) -> float:
        """Build the store, then rank one warm-up query so lazy work lands here."""
        self.store = self.vecs = self.oracle = None
        start = time.perf_counter()
        store = events.ingest(self.paths, events.read_mapping(self.mapping))
        vecs = embedding.encode_store(store, embedding.HashEmbedder())
        first = self.inputs.queries[0]
        retrieval.rank(embedding.HashEmbedder(dim=vecs.dim).embed(first.text), store, vecs, self.params,
                       mode=first.mode, as_of=first.as_of)
        done = time.perf_counter()
        self.outcome.record("store build", _manifest_problem(store.manifest(), self.inputs))
        self.store, self.vecs, self.oracle = store, vecs, Oracle(store, vecs)
        return done - start

    def op(self, i: int) -> float | None:
        """Embed and rank the i-th query of the mix; returns its wall time."""
        query = self.inputs.queries[i % len(self.inputs.queries)]

        def run():
            start = time.perf_counter()
            qvec = embedding.HashEmbedder(dim=self.vecs.dim).embed(query.text)
            hits = retrieval.rank(qvec, self.store, self.vecs, self.params, mode=query.mode, as_of=query.as_of)
            wall = time.perf_counter() - start
            want = min(self.params.top_k, self.oracle.candidates(query.as_of))
            if len(hits) != want:
                return wall, f"{len(hits)} hits, expected {want}"
            if query.as_of is not None and any(h.ts > query.as_of for h in hits):
                return wall, "hit after the as-of cutoff"
            if i % CHECK_EVERY == self.seed % CHECK_EVERY:
                self.sampled.append((i, query, qvec, hits))
            return wall, None

        return attempt(self.outcome, f"query {i}", run)

    def finish(self) -> None:
        """Oracle checks for the sampled queries."""
        for i, query, qvec, hits in self.sampled:
            problem = self.oracle.check(hits, qvec, self.params, query.mode, query.as_of)
            if problem:
                self.outcome.fail(f"query {i} ({query.mode}, as_of={query.as_of})", problem)
        self.sampled.clear()


# ---------------------------------------------------------------------------
# cli-cold


class CliCold:
    def __init__(self, seed: int, workdir: Path, outcome: Outcome):
        self.seed, self.workdir, self.outcome = seed, workdir, outcome
        self.inputs = gen.make_inputs(seed)
        self.paths, self.mapping = gen.write_inputs(self.inputs, workdir / "inputs")
        self.now = self.inputs.now.isoformat()
        self.ws: Path | None = None
        self.digests: dict | None = None
        self.printed: list[tuple[int, list]] = []

    def setup(self) -> float:
        """``tmem ingest`` and ``tmem embed`` into a fresh workspace."""
        if self.ws is not None:
            shutil.rmtree(self.ws)
        ws = self.ws = Path(tempfile.mkdtemp(dir=self.workdir))
        code, _, ingest_wall = tmem("--workspace", str(ws), "ingest", "--input", *map(str, self.paths),
                                 "--mapping", str(self.mapping))
        problem = f"exit {code}" if code else _manifest_problem(
            json.loads((ws / "data" / "manifest.json").read_text()), self.inputs)
        self.outcome.record("tmem ingest", problem)
        code, _, embed_wall = tmem("--workspace", str(ws), "embed")
        problem = f"exit {code}" if code else None
        if not code:
            digests = _artifacts(ws, ("ingest", "embed"))
            if self.digests is not None and digests != self.digests:
                problem = "artifacts differ between two builds of the same inputs"
            self.digests = self.digests or digests
        self.outcome.record("tmem embed", problem)
        return ingest_wall + embed_wall

    def op(self, i: int) -> float | None:
        """One ``tmem query`` for the i-th query of the mix; returns its wall time."""
        index = i % len(self.inputs.queries)
        query = self.inputs.queries[index]
        argv = ["--workspace", str(self.ws), "query", "--text", query.text, "--now", self.now,
                "--k", str(gen.TOP_K)]
        if query.mode == "cosine_only":
            argv += ["--mode", "cosine"]
        if query.as_of is not None:
            argv += ["--as-of", query.as_of.isoformat()]

        def run():
            code, out, wall = tmem(*argv)
            if code:
                return wall, f"exit {code}"
            try:
                hits = [json.loads(line) for line in out.splitlines() if line.strip()]
            except json.JSONDecodeError as exc:
                return wall, f"unparseable output: {exc}"
            if i % CHECK_EVERY == self.seed % CHECK_EVERY:
                self.printed.append((index, hits))
            return wall, None

        return attempt(self.outcome, f"tmem query {index}", run)

    def finish(self) -> None:
        """Sampled printed hits must equal an in-process rank of the same query."""
        if not self.printed:
            return
        store = events.load_events_jsonl(self.ws / "data" / "events.jsonl")
        vecs = embedding.read_vector_file(self.ws / "data" / "vectors.tmv")
        params = retrieval.RetrievalParams(now=self.inputs.now, top_k=gen.TOP_K)
        for index, printed in self.printed:
            query = self.inputs.queries[index]
            qvec = embedding.HashEmbedder(dim=vecs.dim).embed(query.text)
            hits = retrieval.rank(qvec, store, vecs, params, mode=query.mode, as_of=query.as_of)
            if printed != [json.loads(h.to_json()) for h in hits]:
                self.outcome.fail(f"tmem query {index}", "printed hits differ from in-process rank")
        self.printed.clear()


WORKLOADS = {"pipeline": Pipeline, "query-warm": QueryWarm, "cli-cold": CliCold}


def measure(name: str, seed: int, seconds: float, workdir: Path) -> Outcome:
    """Untraced run of about ``seconds``: ROUNDS rounds of one set-up, then timed operations."""
    outcome = Outcome()
    workload = WORKLOADS[name](seed, workdir, outcome)
    setups: list[float] = []
    walls: list[float] = []
    calibrations: list[float] = []
    start = time.perf_counter()
    i = 0
    for r in range(1, ROUNDS + 1):
        setups.append(workload.setup())
        calibrate(calibrations, setups[-1])
        round_end = start + seconds * r / ROUNDS
        first = i
        # At least one operation per round, and two in all for pipeline's determinism check.
        while time.perf_counter() < round_end or i == first or i < 2:
            wall = workload.op(i)
            if wall is not None:
                walls.append(wall)
                calibrate(calibrations, wall)
            i += 1
        workload.finish()

    m = outcome.measured
    m["host_speed_factor"] = factor = REFERENCE_CALIBRATION_S / statistics.median(calibrations)
    m["raw_setup_s"] = statistics.median(setups)
    m["setup_s"] = factor * m["raw_setup_s"]
    if walls:
        m["raw_op_p50_ms"] = 1e3 * statistics.median(walls)
        m["op_p50_ms"] = factor * m["raw_op_p50_ms"]
        m["raw_op_p90_ms"] = 1e3 * float(np.percentile(walls, 90))
        m["ops_per_s"] = len(walls) / (factor * sum(walls))
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    m["ops_timed"] = len(walls)
    return outcome


def trace_unit(name: str, workload) -> None:
    """The fixed work of one traced unit: one ``all``, or one set-up and a few queries."""
    if name == "pipeline":
        workload.op(0)
        return
    workload.setup()
    for i in range(TRACE_QUERIES[name]):
        workload.op(i)


def traced(name: str, seed: int, workdir: Path) -> tuple[Outcome, dict[str, float], Tracer]:
    """Alternate untraced and traced units; per-unit layer metrics plus the tracing overhead."""
    tracer = Tracer()
    outcome = Outcome()
    workload = WORKLOADS[name](seed, workdir, outcome)
    trace_unit(name, workload)  # warm-up
    workload.finish()
    walls: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(TRACE_UNITS):
        for on in (False, True):
            if on:
                tracer.op += 1
                tracer.install()
            start = time.perf_counter()
            try:
                trace_unit(name, workload)
            finally:
                walls[on].append(time.perf_counter() - start)
                if on:
                    tracer.uninstall()
            workload.finish()  # the checks' own program calls stay out of the trace
    metrics = layer_metrics(tracer.spans, TRACE_UNITS)
    metrics["trace.overhead_ratio"] = sum(walls[True]) / sum(walls[False]) - 1.0
    calls = [Counter(s.name for s in tracer.spans if s.op == op) for op in range(1, TRACE_UNITS + 1)]
    if any(c != calls[0] for c in calls):
        outcome.fail("traced units", f"call counts differ between units: {calls}")
    return outcome, metrics, tracer
