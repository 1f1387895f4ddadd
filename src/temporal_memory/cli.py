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
import json
import logging
import sys
from datetime import datetime, timedelta, timezone
from pathlib import Path

from . import __version__
from .embedding import (
    DEFAULT_DIM,
    HashEmbedder,
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
    read_mapping,
    write_events_jsonl,
    write_manifest,
)
from .evaluation import load_eval_config, run_eval, write_report_json, write_report_md
from .retrieval import RetrievalParams, rank
from .synth import generate_stream
from .tracking import (
    DEFAULT_SEED,
    FIXED_K_FALLBACK,
    GRANULARITIES,
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


def _parse_k(value: str):
    if value == "auto":
        return None
    if value == "fixed":
        return FIXED_K_FALLBACK
    try:
        k = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto', 'fixed', or an integer, got {value!r}")
    if k < 1:
        raise argparse.ArgumentTypeError("k must be >= 1")
    return k


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tmem", description=__doc__)
    parser.add_argument("--workspace", default=".", help="workspace directory (default: .)")
    parser.add_argument("--config", default=None, help="JSON config file; explicit flags win")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate the synthetic stream")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", default=None, help="output dir (default: <workspace>/logs)")

    p_ing = sub.add_parser("ingest", help="normalize raw logs")
    p_ing.add_argument("--input", nargs="*", default=None, help="files (default: <workspace>/logs/*)")
    p_ing.add_argument("--mapping", default=None, help="CSV column mapping file (field=column lines)")

    p_emb = sub.add_parser("embed", help="embed the event store")
    p_emb.add_argument("--dim", type=int, default=None)
    p_emb.add_argument("--embedder", default=None, help="hash (default) or external:<path>")

    p_tr = sub.add_parser("trends", help="weekly clustering and trend labels")
    _add_trend_flags(p_tr)

    p_q = sub.add_parser("query", help="rank events for a query")
    p_q.add_argument("--text", required=True)
    p_q.add_argument("--as-of", default=None, help="cutoff date or instant (dates are inclusive)")
    p_q.add_argument("--mode", choices=["fused", "cosine"], default="fused")
    p_q.add_argument("--alpha", type=float, default=None)
    p_q.add_argument("--half-life-days", type=float, default=None)
    p_q.add_argument("--k", dest="top_k", type=_positive_int, default=None, help="hits to return (default 10)")
    p_q.add_argument("--now", default=None, help="pin the reference instant (ISO-8601)")

    p_ev = sub.add_parser("eval", help="run metric suite from eval config")
    p_ev.add_argument("--config", "--eval-config", dest="eval_config", default=None,
                      help="query-suite config (default: <workspace>/logs/eval.json)")
    p_ev.add_argument("--alpha", type=float, default=None)
    p_ev.add_argument("--half-life-days", type=float, default=None)
    _add_trend_flags(p_ev)

    p_all = sub.add_parser("all", help="gen -> ingest -> embed -> trends -> eval")
    p_all.add_argument("--seed", type=int, default=None)
    p_all.add_argument("--dim", type=int, default=None)
    p_all.add_argument("--alpha", type=float, default=None)
    p_all.add_argument("--half-life-days", type=float, default=None)
    _add_trend_flags(p_all)
    return parser


def _add_trend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--k", type=_parse_k, default=None,
                        help=f"clusters per week: integer, 'auto' (elbow), or 'fixed' ({FIXED_K_FALLBACK})")
    parser.add_argument("--match-threshold", type=float, default=None)
    parser.add_argument("--growth-factor", type=float, default=None)
    parser.add_argument("--growth-min-events", type=int, default=None)
    parser.add_argument("--decay-factor", type=float, default=None)
    parser.add_argument("--drift-threshold", type=float, default=None)
    parser.add_argument("--cluster-seed", type=int, default=None, help=f"k-means seed (default {DEFAULT_SEED})")
    parser.add_argument("--granularity", choices=list(GRANULARITIES), default=None)


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
    ws.results.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "version": __version__,
        "params": {key: _portable(ws, value) for key, value in params.items()},
        "artifacts": {_portable(ws, p): _sha256(p) for p in outputs if p.exists()},
    }
    path = ws.results / f"run_{command}.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


class _Settings:
    """Flag resolution: explicit CLI flag > config file > built-in default."""

    def __init__(self, args: argparse.Namespace, config: dict):
        self._args = args
        self._config = config

    def get(self, name: str, default):
        value = getattr(self._args, name, None)
        if value is not None:
            return value
        if name in self._config:
            return self._config[name]
        return default

    def trend_params(self) -> TrendParams:
        return TrendParams(
            match_threshold=self.get("match_threshold", 0.5),
            growth_factor=self.get("growth_factor", 1.5),
            growth_min_events=self.get("growth_min_events", 30),
            decay_factor=self.get("decay_factor", 0.5),
            drift_threshold=self.get("drift_threshold", 0.2),
            k=self.get("k", None),
        )


def _parse_asof(text: str) -> datetime:
    # A bare date means the inclusive end of that UTC day.
    try:
        day = datetime.strptime(text, "%Y-%m-%d")
    except ValueError:
        return coerce_timestamp(text)
    return day.replace(tzinfo=timezone.utc) + timedelta(days=1) - timedelta(microseconds=1)


# ---------------------------------------------------------------------------
# Subcommand implementations


def _cmd_gen(ws: Workspace, settings: _Settings, args) -> int:
    out_dir = Path(args.out) if args.out else ws.logs
    seed = settings.get("seed", 0)
    result = generate_stream(seed, out_dir)
    print(f"generated {result.total_events} events across {len(result.log_files)} weekly files in {out_dir}")
    _write_run_manifest(
        ws, "gen", {"seed": seed, "out": str(out_dir)},
        [*result.log_files, result.ground_truth_path, result.eval_config_path],
    )
    return EXIT_OK


def _cmd_ingest(ws: Workspace, settings: _Settings, args) -> int:
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
    mapping = read_mapping(args.mapping) if args.mapping else None
    store = ingest(paths, mapping)
    ws.data.mkdir(parents=True, exist_ok=True)
    write_events_jsonl(store, ws.events)
    write_manifest(store, ws.manifest)
    m = store.manifest()
    print(f"ingested {m['events']} events ({m['skipped']} skipped, "
          f"{m['duplicates_dropped']} duplicates) weeks {m['week_range']}")
    _write_run_manifest(ws, "ingest", {"inputs": [str(p) for p in paths]}, [ws.events, ws.manifest])
    return EXIT_OK


def _cmd_embed(ws: Workspace, settings: _Settings, args) -> int:
    ws.require(ws.events, "ingest")
    store = load_events_jsonl(ws.events)
    dim = settings.get("dim", DEFAULT_DIM)
    choice = settings.get("embedder", "hash")
    if choice == "hash":
        vs = encode_store(store, HashEmbedder(dim=dim))
    elif choice.startswith("external:"):
        source = Path(choice.split(":", 1)[1])
        ws.require(source, "an external embedding step")
        vs = read_vector_file(source, expect_dim=None)
        check_alignment(store, vs)
    else:
        raise ValueError(f"unknown embedder {choice!r} (use 'hash' or 'external:<path>')")
    ws.data.mkdir(parents=True, exist_ok=True)
    write_vector_file(vs, ws.vectors)
    print(f"embedded {len(vs)} events at dim {vs.dim} -> {ws.vectors}")
    _write_run_manifest(ws, "embed", {"dim": vs.dim, "embedder": choice}, [ws.vectors])
    return EXIT_OK


def _load_store_and_vectors(ws: Workspace):
    ws.require(ws.events, "ingest")
    ws.require(ws.vectors, "embed")
    store = load_events_jsonl(ws.events)
    vs = read_vector_file(ws.vectors)
    check_alignment(store, vs)
    return store, vs


def _cmd_trends(ws: Workspace, settings: _Settings, args) -> int:
    store, vs = _load_store_and_vectors(ws)
    params = settings.trend_params()
    seed = settings.get("cluster_seed", DEFAULT_SEED)
    granularity = settings.get("granularity", "week")
    clusters, trends = track(store, vs, params, seed=seed, granularity=granularity)
    ws.results.mkdir(parents=True, exist_ok=True)
    write_clusters_csv(clusters, trends, ws.clusters_csv)
    write_trends_summary_csv(trends, ws.trends_csv)
    print(f"tracked {len(clusters)} clusters over {len({str(c.week) for c in clusters})} periods")
    _write_run_manifest(
        ws, "trends",
        {"seed": seed, "granularity": granularity, "k": params.k,
         "match_threshold": params.match_threshold, "growth_factor": params.growth_factor,
         "growth_min_events": params.growth_min_events, "decay_factor": params.decay_factor,
         "drift_threshold": params.drift_threshold},
        [ws.clusters_csv, ws.trends_csv],
    )
    return EXIT_OK


def _cmd_query(ws: Workspace, settings: _Settings, args) -> int:
    store, vs = _load_store_and_vectors(ws)
    params = RetrievalParams(
        alpha=settings.get("alpha", 0.7),
        half_life_days=settings.get("half_life_days", 14.0),
        top_k=settings.get("top_k", 10),
        now=coerce_timestamp(args.now) if args.now else None,
    )
    mode = "cosine_only" if args.mode == "cosine" else "fused"
    cutoff = _parse_asof(args.as_of) if args.as_of else None
    query_vec = HashEmbedder(dim=vs.dim).embed(args.text)
    hits = rank(query_vec, store, vs, params, mode=mode, as_of=cutoff)
    for hit in hits:
        print(hit.to_json())
    if not hits:
        print("no evidence on or before the cutoff", file=sys.stderr)
        return EXIT_OK
    print(f"\n{'rank':>4}  {'score':>8}  {'cosine':>8}  {'age_d':>8}  {'ts':<32}  event_id", file=sys.stderr)
    for i, hit in enumerate(hits, 1):
        score = hit.fused if mode == "fused" else hit.cosine_sim
        print(
            f"{i:>4}  {score:8.4f}  {hit.cosine_sim:8.4f}  {hit.age_days:8.2f}  "
            f"{hit.ts.isoformat():<32}  {hit.event_id[:16]}",
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_eval(ws: Workspace, settings: _Settings, args) -> int:
    store, vs = _load_store_and_vectors(ws)
    config_path = Path(args.eval_config) if getattr(args, "eval_config", None) else ws.logs / "eval.json"
    ws.require(config_path, "gen")
    config, ground_truth = load_eval_config(config_path)
    report = run_eval(
        store, vs, config, ground_truth,
        trend_params=settings.trend_params(),
        seed=settings.get("cluster_seed", DEFAULT_SEED),
        alpha=settings.get("alpha", 0.7),
        half_life_days=settings.get("half_life_days", 14.0),
        granularity=settings.get("granularity", "week"),
    )
    ws.results.mkdir(parents=True, exist_ok=True)
    write_report_json(report, ws.report_json)
    write_report_md(report, ws.report_md)
    print(ws.report_md.read_text(encoding="utf-8"))
    _write_run_manifest(
        ws, "eval",
        {"eval_config": str(config_path), "alpha": settings.get("alpha", 0.7),
         "half_life_days": settings.get("half_life_days", 14.0),
         "cluster_seed": settings.get("cluster_seed", DEFAULT_SEED)},
        [ws.report_json, ws.report_md],
    )
    return EXIT_OK


def _cmd_all(ws: Workspace, settings: _Settings, args) -> int:
    for step in (_cmd_gen, _cmd_ingest, _cmd_embed, _cmd_trends, _cmd_eval):
        code = step(ws, settings, args)
        if code != EXIT_OK:
            return code
    return EXIT_OK


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
    # `all` reuses the per-step handlers; give them the flags they expect.
    for attr in ("input", "mapping", "out", "embedder", "eval_config", "now", "as_of"):
        if not hasattr(args, attr):
            setattr(args, attr, None)

    config = {}
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except FileNotFoundError:
            print(f"config file not found: {args.config}", file=sys.stderr)
            return EXIT_MISSING_ARTIFACT
    settings = _Settings(args, config)

    ws = Workspace(Path(args.workspace))
    ws.root.mkdir(parents=True, exist_ok=True)
    lock_path = ws.root / ".tmem.lock"
    lock_file = lock_path.open("w")
    try:
        try:
            fcntl.flock(lock_file, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            print(f"another run holds the workspace lock {lock_path}", file=sys.stderr)
            return EXIT_ERROR
        return _COMMANDS[args.command](ws, settings, args)
    except MissingArtifact as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_MISSING_ARTIFACT
    except (IngestError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # pragma: no cover - defensive
        logger.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        lock_file.close()


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
