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
import sys
from dataclasses import asdict, fields
from pathlib import Path

from . import __version__
from .embedding import (
    DEFAULT_DIM,
    HashEmbedder,
    VectorFileError,
    check_alignment,
    encode_store,
    read_vector_file,
    write_vector_file,
)
from .events import (
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

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_ARTIFACT = 2
EXIT_USAGE = 64


class MissingArtifact(RuntimeError):
    pass


class _Parser(argparse.ArgumentParser):
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


def build_parser() -> argparse.ArgumentParser:
    """The tmem parser. A flag left unset (None) takes its parameter dataclass's default."""
    parser = _Parser(prog="tmem", description=__doc__)
    parser.add_argument("--workspace", default=".", help="workspace directory (default: .)")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    seed = _Parser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    dim = _Parser(add_help=False)
    dim.add_argument("--dim", type=int, default=DEFAULT_DIM, help="hash embedding size, >= 2 (default %(default)s)")
    recency = _Parser(add_help=False)
    recency.add_argument("--alpha", type=float)
    recency.add_argument("--half-life-days", type=float)
    trend = _Parser(add_help=False)
    trend.add_argument("--k", type=_parse_k,
                       help="clusters per ISO week: a positive integer, or 'auto' (elbow)")
    trend.add_argument("--match-threshold", type=float)
    trend.add_argument("--growth-factor", type=float)
    trend.add_argument("--growth-min-events", type=int)
    trend.add_argument("--decay-factor", type=float)
    trend.add_argument("--drift-threshold", type=float)
    trend.add_argument("--cluster-seed", type=_seed, default=DEFAULT_SEED,
                       help="k-means seed, an integer >= 0 (default %(default)s)")

    sub.add_parser("gen", parents=[seed], help="generate the synthetic stream into <workspace>/logs")

    p_ing = sub.add_parser("ingest", help="normalize raw logs")
    p_ing.add_argument("--input", nargs="*", default=None, help="files (default: <workspace>/logs/*)")
    p_ing.add_argument("--mapping", default=None, help="CSV column mapping file (field=column lines)")

    p_emb = sub.add_parser("embed", parents=[dim], help="embed the event store")
    p_emb.add_argument("--embedder", default="hash", help="hash (default) or external:<path>")

    sub.add_parser("trends", parents=[trend], help="weekly clustering and trend labels")

    p_q = sub.add_parser("query", parents=[recency], help="rank events for a query")
    p_q.add_argument("--text", required=True)
    p_q.add_argument("--as-of", default=None, help="cutoff date or instant (dates are inclusive)")
    p_q.add_argument("--mode", choices=["fused", "cosine"], default="fused")
    p_q.add_argument("--k", dest="top_k", type=_positive_int,
                     help=f"hits to return (default {RetrievalParams.top_k})")
    p_q.add_argument("--now", default=None, help="pin the reference instant (ISO-8601)")

    p_ev = sub.add_parser("eval", parents=[recency, trend], help="run metric suite from eval config")
    p_ev.add_argument("--eval-config", default=None,
                      help="query-suite config (default: <workspace>/logs/eval.json)")

    p_all = sub.add_parser("all", parents=[seed, dim, recency, trend],
                           help="gen -> ingest -> embed -> trends -> eval")
    # `all` runs the step handlers; the step flags it does not take keep their defaults.
    p_all.set_defaults(input=None, mapping=None, eval_config=None,
                       embedder=p_emb.get_default("embedder"))
    return parser


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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _portable(ws: Workspace, value):
    """Render paths relative to the workspace so manifests are location-independent."""
    if isinstance(value, (list, tuple)):
        return [_portable(ws, v) for v in value]
    if isinstance(value, Path):
        value = str(value)
    if isinstance(value, str):
        try:
            return str(Path(value).resolve().relative_to(ws.root.resolve()))
        except ValueError:
            return value
    return value


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
        ws, "gen", {"seed": args.seed, "out": str(ws.logs)},
        [*result.log_files, result.ground_truth_path, result.eval_config_path],
    )


def _cmd_ingest(ws: Workspace, args) -> None:
    if args.input:
        paths = [Path(p) for p in args.input]
    else:
        ws.require(ws.logs, "gen")
        paths = sorted(ws.logs.glob("events-*.jsonl")) or sorted(
            p for p in ws.logs.iterdir() if p.suffix in (".jsonl", ".csv")
        )
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
    _write_run_manifest(ws, "ingest", {"inputs": [str(p) for p in paths]}, [ws.events, ws.manifest])


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
    write_vector_file(vs, ws.vectors)
    print(f"embedded {len(vs)} events at dim {vs.dim} -> {ws.vectors}")
    _write_run_manifest(ws, "embed", {"dim": vs.dim, "embedder": choice}, [ws.vectors])


def _load_store_and_vectors(ws: Workspace):
    ws.require(ws.events, "ingest")
    ws.require(ws.vectors, "embed")
    store = load_events_jsonl(ws.events)
    vs = read_vector_file(ws.vectors)
    check_alignment(store, vs)
    return store, vs


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
    store, vs = _load_store_and_vectors(ws)
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
        {"eval_config": str(config_path), "alpha": recency.alpha,
         "half_life_days": recency.half_life_days, "cluster_seed": args.cluster_seed,
         **asdict(trend_params)},
        [ws.report_json, ws.report_md],
    )


def _cmd_all(ws: Workspace, args) -> None:
    for step in (_cmd_gen, _cmd_ingest, _cmd_embed, _cmd_trends, _cmd_eval):
        step(ws, args)


_COMMANDS = {
    "gen": _cmd_gen,
    "ingest": _cmd_ingest,
    "embed": _cmd_embed,
    "trends": _cmd_trends,
    "query": _cmd_query,
    "eval": _cmd_eval,
    "all": _cmd_all,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )

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
            _COMMANDS[args.command](ws, args)
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
