"""Pipeline CLI: gen, ingest, embed, trends, query, eval, all.

Subcommands share a workspace directory (logs/, data/, results/). Every run
writes a manifest with its parameters and artifact digests so any artifact
can be regenerated from the manifest alone; a lock file serializes runs per
workspace. Exit codes: 0 ok, 1 internal error, 2 missing upstream artifact,
64 usage error.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import logging
import mmap
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, fields, replace
from pathlib import Path
from typing import Iterator

from . import __version__
from .embedding import (
    DEFAULT_DIM,
    HashEmbedder,
    VectorFileError,
    VectorStore,
    check_alignment,
    encode_store,
    read_vector_file,
    write_vector_file,
)
from .events import (
    EventStore,
    IngestError,
    coerce_timestamp,
    ingest,
    load_events_jsonl,
    parse_cutoff,
    read_mapping,
    write_events_jsonl,
    write_json,
)
from .evaluation import load_eval_config, run_eval, write_report_md
from .retrieval import RetrievalParams, rank
from .synth import generate_stream
from .tracking import (
    DEFAULT_SEED,
    TrendParams,
    track,
    write_clusters_csv,
    write_trends_summary_csv,
)

# Named rather than __name__, which is "__main__" under ``python -m``: -v sets
# the level of the package logger, and this one must sit below it.
logger = logging.getLogger("temporal_memory.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_ARTIFACT = 2
EXIT_USAGE = 64


class MissingArtifact(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
    """Exits 64 on a usage error; every flag must be spelled in full (no prefix abbreviations)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_at_least(low: int, what: str):
    def convert(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n

    return convert


_positive_int = _int_at_least(1, "a positive integer")
_seed = _int_at_least(0, "a non-negative integer")


def _parse_k(value: str):
    return None if value == "auto" else _positive_int(value)


# Flags of more than one subcommand: flag -> add_argument options.
_SEED = {"--seed": dict(type=_seed, default=0, help="stream seed, an integer >= 0 (default %(default)s)")}
_DIM = {"--dim": dict(type=int, default=DEFAULT_DIM, help="hash embedding size, >= 2 (default %(default)s)")}
_RECENCY = {"--alpha": dict(type=float), "--half-life-days": dict(type=float)}
_TREND = {
    "--k": dict(type=_parse_k, help="clusters per ISO week: a positive integer, or 'auto' (elbow)"),
    "--match-threshold": dict(type=float),
    "--growth-factor": dict(type=float),
    "--growth-min-events": dict(type=int),
    "--decay-factor": dict(type=float),
    "--drift-threshold": dict(type=float),
    "--cluster-seed": dict(type=_seed, default=DEFAULT_SEED, help="k-means seed, an integer >= 0 (default %(default)s)"),
}

def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The tmem parser; given a ``command``, the same parser with only that subcommand.

    Its usage line still names every subcommand, so its usage errors read the
    same as the whole parser's. A flag left unset (None) takes its parameter
    dataclass's default.
    """
    parser = _Parser(prog="tmem", description=__doc__)
    parser.add_argument("--workspace", default=".", help="workspace directory (default: .)")
    parser.add_argument("-v", "--verbose", action="store_true")
    # A metavar would rename the subcommand argument in the whole parser's errors, so only a part-built one has it.
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar=metavar)
    for name, (_, help, flags) in _SUBCOMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help)
            for flag, options in flags.items():
                p.add_argument(flag, **options)
    if "all" in sub.choices:
        # `all` runs the step handlers; the step flags it does not take keep their defaults.
        sub.choices["all"].set_defaults(input=None, mapping=None, eval_config=None, embedder="hash")
    return parser


def _command_in(argv: list[str]) -> str | None:
    """The subcommand ``argv`` names when only plain top-level flags come before it, else None.

    None sends ``argv`` to the whole parser, so what this scan cannot place
    (help, ``--``, an unknown or abbreviated flag, a value starting with '-',
    no or an unknown subcommand) gets the whole parser's help or usage error.
    """
    args = iter(argv)
    for arg in args:
        if arg in ("-v", "--verbose") or arg.startswith("--workspace="):
            continue
        if arg == "--workspace":
            if next(args, "-").startswith("-"):
                return None
            continue
        return arg if arg in _SUBCOMMANDS else None
    return None


def _params(cls, args: argparse.Namespace, **extra):
    """A ``cls`` from the fields a flag set; the others keep the dataclass defaults."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return cls(**{**{name: value for name, value in given.items() if value is not None}, **extra})


class Workspace:
    def __init__(self, root: Path):
        self.root = root
        self.logs = root / "logs"
        self.data = root / "data"
        self.results = root / "results"
        self.events = self.data / "events.jsonl"
        self.manifest = self.data / "manifest.json"
        self.vectors = self.data / "vectors.tmv"
        self.clusters_csv = self.results / "clusters_weekly.csv"
        self.trends_csv = self.results / "trends_summary.csv"
        self.report_json = self.results / "eval_report.json"
        self.report_md = self.results / "eval_report.md"

    def require(self, path: Path, produced_by: str) -> Path:
        if not path.exists():
            raise MissingArtifact(f"missing artifact {path} (run 'tmem {produced_by}' first)")
        return path


# hashlib releases the GIL for each slice it hashes, and each slice's pages leave
# the process once hashed, so a hash adds at most one slice to its peak RSS. In the
# cli-cold benchmark (a 9.3 MB events.jsonl on a 2-core host), 2 MiB slices were
# slower and 8 MiB ones cost ~3 MB more peak RSS for no gain.
_HASH_SLICE = 4 << 20


def _sha256(path: Path) -> str:
    """The file's sha256, hashed over a memory map one _HASH_SLICE at a time.

    tmem replaces the files it writes by rename, so a mapped file never shrinks
    under a tmem run; another program truncating it in place can raise SIGBUS.
    """
    digest = hashlib.sha256()
    with path.open("rb", buffering=0) as fh:
        if os.fstat(fh.fileno()).st_size:  # an empty file cannot be mapped
            with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                for start in range(0, len(mapped), _HASH_SLICE):
                    with memoryview(mapped)[start:start + _HASH_SLICE] as piece:
                        digest.update(piece)
                    mapped.madvise(mmap.MADV_DONTNEED, start, _HASH_SLICE)
    return digest.hexdigest()


def _portable(ws: Workspace, value):
    """A Path under the workspace relative to it, any other Path absolute, and any other value as it is."""
    if isinstance(value, (list, tuple)):
        return [_portable(ws, v) for v in value]
    if not isinstance(value, Path):
        return value
    try:
        return str(value.resolve().relative_to(ws.root.resolve()))
    except ValueError:
        return os.path.abspath(value)


def _write_run_manifest(ws: Workspace, command: str, params: dict, outputs: list[Path]) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "params": {key: _portable(ws, value) for key, value in params.items()},
        "artifacts": {_portable(ws, p): _sha256(p) for p in outputs if p.exists()},
    }
    write_json(manifest, ws.results / f"run_{command}.json")


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_gen(ws: Workspace, args) -> None:
    result = generate_stream(args.seed, ws.logs)
    print(f"generated {result.total_events} events across {len(result.log_files)} weekly files in {ws.logs}")
    _write_run_manifest(
        ws, "gen", {"seed": args.seed, "out": ws.logs},
        [*result.log_files, result.ground_truth_path, result.eval_config_path],
    )


def _cmd_ingest(ws: Workspace, args) -> None:
    if args.input is not None:
        paths = [Path(p) for p in args.input]
        if not paths:
            raise MissingArtifact("--input names no files (name one or more, or leave --input out)")
    else:
        ws.require(ws.logs, "gen")
        paths = sorted(p for p in ws.logs.iterdir() if p.suffix in (".jsonl", ".csv"))
    if not paths:
        raise MissingArtifact(f"no input files under {ws.logs} (run 'tmem gen' or pass --input)")
    for p in paths:
        ws.require(p, "gen")
    if args.mapping and not Path(args.mapping).exists():
        raise MissingArtifact(f"missing mapping file {args.mapping}")
    mapping = read_mapping(args.mapping) if args.mapping else None
    store = ingest(paths, mapping)
    write_events_jsonl(store, ws.events)
    m = store.manifest()
    write_json(m, ws.manifest)
    print(f"ingested {m['events']} events ({m['skipped']} skipped, "
          f"{m['duplicates_dropped']} duplicates) weeks {m['week_range']}")
    params = {"inputs": paths}
    if args.mapping:  # recorded only when given, so a JSONL ingest's manifest keeps its bytes
        params["mapping"] = Path(args.mapping)
    _write_run_manifest(ws, "ingest", params, [ws.events, ws.manifest])


def _cmd_embed(ws: Workspace, args) -> None:
    choice = args.embedder
    if choice == "hash":
        embedder = HashEmbedder(dim=args.dim)
    elif not choice.startswith("external:") or choice == "external:":
        raise ValueError(f"unknown embedder {choice!r} (use 'hash' or 'external:<path>')")
    ws.require(ws.events, "ingest")
    store = load_events_jsonl(ws.events)
    if choice == "hash":
        vs = encode_store(store, embedder)
    else:
        source = Path(choice.split(":", 1)[1])
        ws.require(source, "an external embedding step")
        vs = read_vector_file(source)
        check_alignment(store, vs)
        choice = f"external:{_portable(ws, source)}"  # its path recorded as every manifest path is
    write_vector_file(replace(vs, ts_us=store.ts_us, events_sha256=_sha256(ws.events)), ws.vectors)
    print(f"embedded {len(vs)} events at dim {vs.dim} -> {ws.vectors}")
    _write_run_manifest(ws, "embed", {"dim": vs.dim, "embedder": choice}, [ws.vectors])


@contextmanager
def _load_vectors(ws: Workspace) -> Iterator[VectorStore]:
    """Yield the workspace's TMV2 vectors; leaving requires them to be embedded from the events.jsonl beside them.

    events.jsonl is hashed on a worker thread meanwhile (hashlib releases the
    GIL while it hashes). Errors come in this order: the vector file's own (or
    TMV1's), then one met hashing events.jsonl, then the stale digest, and
    only then the block's. A KeyboardInterrupt or other BaseException passes
    through; leaving the pool joins the worker on every path.
    """
    ws.require(ws.events, "ingest")
    ws.require(ws.vectors, "embed")
    with ThreadPoolExecutor(max_workers=1) as pool:
        digest = pool.submit(_sha256, ws.events)
        vs = read_vector_file(ws.vectors)
        if vs.events_sha256 is None:
            raise VectorFileError(f"{ws.vectors} is a TMV1 file, which records no events.jsonl digest; "
                                  "re-run 'tmem embed'")

        def check() -> None:
            if vs.events_sha256 != digest.result():
                raise VectorFileError(f"{ws.vectors} was embedded from another version of {ws.events}; "
                                      "re-run 'tmem embed'")

        try:
            yield vs
        except Exception:
            check()  # hashing's error or the stale one replaces the block's
            raise
        check()


def _load_store_and_vectors(ws: Workspace):
    with _load_vectors(ws) as vs:
        return load_events_jsonl(ws.events), vs


def _cmd_trends(ws: Workspace, args) -> None:
    params = _params(TrendParams, args)
    store, vs = _load_store_and_vectors(ws)
    clusters, trends = track(store, vs, params, seed=args.cluster_seed)
    write_clusters_csv(clusters, trends, ws.clusters_csv)
    write_trends_summary_csv(trends, ws.trends_csv)
    print(f"tracked {len(clusters)} clusters over {len({str(c.week) for c in clusters})} weeks")
    _write_run_manifest(
        ws, "trends",
        {"cluster_seed": args.cluster_seed, **asdict(params)},
        [ws.clusters_csv, ws.trends_csv],
    )


def _cmd_query(ws: Workspace, args) -> None:
    params = _params(RetrievalParams, args, now=coerce_timestamp(args.now) if args.now else None)
    mode = "cosine_only" if args.mode == "cosine" else "fused"
    cutoff = parse_cutoff(args.as_of) if args.as_of else None
    with _load_vectors(ws) as vs:
        store = EventStore.of_timeline(vs.ids, vs.ts_us)
        query_vec = HashEmbedder(dim=vs.dim).embed(args.text)
        hits = rank(query_vec, store, vs, params, mode=mode, as_of=cutoff)
    for hit in hits:
        print(hit.to_json())
    if not hits:
        print("no evidence on or before the cutoff", file=sys.stderr)
        return
    print(f"\n{'rank':>4}  {'score':>8}  {'cosine':>8}  {'age_d':>8}  {'ts':<32}  event_id", file=sys.stderr)
    for i, hit in enumerate(hits, 1):
        score = hit.fused if mode == "fused" else hit.cosine_sim
        print(
            f"{i:>4}  {score:8.4f}  {hit.cosine_sim:8.4f}  {hit.age_days:8.2f}  "
            f"{hit.ts.isoformat():<32}  {hit.event_id[:16]}",
            file=sys.stderr,
        )


def _cmd_eval(ws: Workspace, args) -> None:
    recency = _params(RetrievalParams, args)
    trend_params = _params(TrendParams, args)
    config_path = Path(args.eval_config) if args.eval_config else ws.logs / "eval.json"
    ws.require(config_path, "gen")
    config, ground_truth = load_eval_config(config_path)
    store, vs = _load_store_and_vectors(ws)
    report = run_eval(
        store, vs, config, ground_truth,
        trend_params=trend_params,
        seed=args.cluster_seed,
        retrieval_params=recency,
    )
    write_json(report.to_dict(), ws.report_json)
    print(write_report_md(report, ws.report_md))
    _write_run_manifest(
        ws, "eval",
        {"eval_config": config_path, "alpha": recency.alpha,
         "half_life_days": recency.half_life_days, "cluster_seed": args.cluster_seed,
         **asdict(trend_params)},
        [ws.report_json, ws.report_md],
    )


def _cmd_all(ws: Workspace, args) -> None:
    # Each later step's settings are checked, in step order, before gen writes anything.
    HashEmbedder(dim=args.dim)
    _params(TrendParams, args)
    _params(RetrievalParams, args)
    for step in (_cmd_gen, _cmd_ingest, _cmd_embed, _cmd_trends, _cmd_eval):
        _timed(step, ws, args)


def _timed(command, ws: Workspace, args) -> None:
    """Run one ``_cmd_*`` and log its wall time (stderr only: criterion 6e hashes the workspace tree)."""
    start = time.perf_counter()
    command(ws, args)
    logger.info("tmem %s: %.3f s", command.__name__.removeprefix("_cmd_"), time.perf_counter() - start)


# name: (handler, help, flags in the order `tmem <name> --help` lists them)
_SUBCOMMANDS = {
    "gen": (_cmd_gen, "generate the synthetic stream into <workspace>/logs", _SEED),
    "ingest": (_cmd_ingest, "normalize raw logs", {
        "--input": dict(nargs="*", default=None,
                        help="files (default: every .jsonl and .csv file in <workspace>/logs, in name order)"),
        "--mapping": dict(default=None, help="CSV column mapping file (field=column lines)"),
    }),
    "embed": (_cmd_embed, "embed the event store", {
        **_DIM, "--embedder": dict(default="hash", help="hash (default) or external:<path>"),
    }),
    "trends": (_cmd_trends, "weekly clustering and trend labels", _TREND),
    "query": (_cmd_query, "rank events for a query", {
        **_RECENCY,
        "--text": dict(required=True),
        "--as-of": dict(default=None, help="cutoff date or instant (dates are inclusive)"),
        "--mode": dict(choices=["fused", "cosine"], default="fused"),
        "--k": dict(dest="top_k", type=_positive_int, help=f"hits to return (default {RetrievalParams.top_k})"),
        "--now": dict(default=None, help="reference instant (ISO-8601; default: the newest event up to --as-of)"),
    }),
    "eval": (_cmd_eval, "run metric suite from eval config", {
        **_RECENCY, **_TREND,
        "--eval-config": dict(default=None, help="query-suite config (default: <workspace>/logs/eval.json)"),
    }),
    "all": (_cmd_all, "gen -> ingest -> embed -> trends -> eval", {**_SEED, **_DIM, **_RECENCY, **_TREND}),
}


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # Only the subcommand's flags are built, so the stale check's hash starts sooner.
    args = build_parser(_command_in(argv)).parse_args(argv)
    # basicConfig adds a stderr handler only if the root logger has none, so the
    # level goes on the package logger: -v then works for in-process callers too.
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("temporal_memory").setLevel(logging.DEBUG if args.verbose else logging.WARNING)

    ws = Workspace(Path(args.workspace))
    lock_path = ws.root / ".tmem.lock"
    try:
        ws.root.mkdir(parents=True, exist_ok=True)
        with lock_path.open("w") as lock_file:
            try:
                fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                print(f"another run holds the workspace lock {lock_path}", file=sys.stderr)
                return EXIT_ERROR
            _timed(_SUBCOMMANDS[args.command][0], ws, args)
        return EXIT_OK
    except MissingArtifact as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (IngestError, ValueError, VectorFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:  # a path given is a directory, a file, unreadable, ...
        print(f"error: {exc.filename}: {exc.strerror}" if exc.filename else f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
