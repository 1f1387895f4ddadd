"""Evaluation harness: trend-label F1, as-of correctness, latest-set retrieval accuracy.

Metrics are computed against generator ground truth. The trend metric aligns
predicted clusters to scripted topics by member-id overlap and scores only the
growth/drift/decay classes, macro-averaged, so the dominant stable class
cannot mask failures on the rare trend classes.
"""

from __future__ import annotations

import json
import logging
import warnings
from dataclasses import dataclass, field, replace
from datetime import datetime
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .embedding import HashEmbedder, VectorStore
from .events import EventStore, atomic_write, coerce_timestamp, from_epoch_us, parse_cutoff
from .retrieval import RankedHit, RetrievalParams, rank
from .tracking import DEFAULT_SEED, TrendParams, TrendRecord, WeekCluster, per_week_k, track

logger = logging.getLogger(__name__)

TRACKED_CLASSES = ("growth", "drift", "decay")

DEFAULT_ALPHAS = (0.4, 0.5, 0.7, 0.9, 0.95)

QUERY_TYPES = ("freshness", "as_of")


@dataclass
class EvalReport:
    trend_macro_f1: float
    per_class: dict[str, dict[str, float]]
    asof_correctness: float
    latest_set_at_10: dict[str, float]
    sensitivity: dict[float, float]
    per_week_k: dict[str, int]
    query_results: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {**vars(self), "sensitivity": {f"{a:g}": v for a, v in self.sensitivity.items()}}


def trend_macro_f1(
    clusters: Sequence[WeekCluster],
    trends: Sequence[TrendRecord],
    truth: Mapping[str, Mapping[str, str]],
    topic_event_ids: Mapping[str, set[str] | Sequence[str]],
) -> tuple[float, dict[str, dict[str, float]]]:
    """Macro-F1 over growth/drift/decay for scripted (week, topic) instances.

    For each instance the predicted label comes from the same-week cluster
    with the largest member overlap with the topic's event ids (ties to the
    lower cluster id; no overlap means no prediction). Classes absent from
    both truth and predictions contribute F1 = 0.
    """
    label_by = {(str(t.week), t.cluster_id): t.label for t in trends}
    clusters_by_week: dict[str, list[WeekCluster]] = {}
    for cluster in clusters:
        clusters_by_week.setdefault(str(cluster.week), []).append(cluster)

    counts = {c: {"tp": 0, "fp": 0, "fn": 0} for c in TRACKED_CLASSES}
    aligned_any = False
    for topic, weeks in truth.items():
        ids = set(topic_event_ids[topic])
        for week_str, true_label in weeks.items():
            best: tuple[int, int] | None = None  # (overlap, cluster_id)
            for cluster in clusters_by_week.get(week_str, []):
                overlap = len(ids.intersection(cluster.member_ids))
                if overlap == 0:
                    continue
                if best is None or overlap > best[0] or (overlap == best[0] and cluster.cluster_id < best[1]):
                    best = (overlap, cluster.cluster_id)
            pred = label_by[(week_str, best[1])] if best else None
            if best:
                aligned_any = True
            for cls in TRACKED_CLASSES:
                if true_label == cls and pred == cls:
                    counts[cls]["tp"] += 1
                elif true_label == cls:
                    counts[cls]["fn"] += 1
                elif pred == cls:
                    counts[cls]["fp"] += 1

    per_class: dict[str, dict[str, float]] = {}
    for cls, c in counts.items():
        denom = 2 * c["tp"] + c["fp"] + c["fn"]
        f1 = (2 * c["tp"] / denom) if denom else 0.0
        per_class[cls] = {**c, "f1": f1}
    if not aligned_any:
        logger.warning("no predicted cluster overlaps any ground-truth topic; trend F1 forced to 0")
        return 0.0, per_class
    macro = sum(per_class[c]["f1"] for c in TRACKED_CLASSES) / len(TRACKED_CLASSES)
    return macro, per_class


def asof_correctness(hits: Sequence[RankedHit], cutoff: datetime) -> float:
    """Fraction of hits timestamped at or before the cutoff; empty is vacuously 1.0."""
    if not hits:
        warnings.warn("as-of correctness over zero hits is vacuously 1.0", stacklevel=2)
        return 1.0
    return sum(1 for h in hits if h.ts <= cutoff) / len(hits)


def latest_set_at_k(
    hits: Sequence[RankedHit],
    relevant_ids: set[str] | Sequence[str],
    store: EventStore,
    k: int = RetrievalParams.top_k,
) -> int:
    """1 if the top-k contains any relevant event carrying the newest relevant timestamp."""
    relevant = set(relevant_ids)
    if not relevant:
        raise ValueError("freshness query has no relevant events")
    ids = store.event_ids  # sorted by ts, so the last relevant event holds the newest relevant ts
    last = next((i for i in range(len(ids) - 1, -1, -1) if ids[i] in relevant), None)
    if last is None:
        raise ValueError("no relevant event ids present in the store")
    t_star = from_epoch_us(int(store.ts_us[last]))
    return int(any(h.event_id in relevant and h.ts == t_star for h in hits[:k]))


def sensitivity_sweep(
    store: EventStore,
    vecs: VectorStore,
    freshness_queries: Sequence[dict],
    topic_event_ids: Mapping[str, Sequence[str]],
    now: datetime,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    half_life_days: float = RetrievalParams.half_life_days,
    top_k: int = RetrievalParams.top_k,
    query_vecs: Sequence[np.ndarray] | None = None,
) -> dict[float, float]:
    """Mean latest-set accuracy of fused ranking at each semantic weight.

    ``query_vecs`` are the queries' embeddings, in order; when omitted each
    query text is embedded once here.
    """
    if query_vecs is None:
        query_vecs = _embed_texts(freshness_queries, vecs.dim)
    out: dict[float, float] = {}
    for alpha in alphas:
        params = RetrievalParams(alpha=alpha, half_life_days=half_life_days, top_k=top_k, now=now)
        scores = _latest_set(store, vecs, freshness_queries, query_vecs, topic_event_ids, params, "fused")
        out[alpha] = sum(scores) / len(scores) if scores else 0.0
    return out


def _latest_set(
    store: EventStore, vecs: VectorStore, queries: Sequence[dict], query_vecs: Sequence[np.ndarray],
    topic_event_ids: Mapping[str, Sequence[str]], params: RetrievalParams, mode: str,
) -> list[int]:
    """Latest-set@top_k success (0 or 1) of each freshness query, ranked in ``mode``."""
    return [
        latest_set_at_k(rank(qvec, store, vecs, params, mode=mode), topic_event_ids[q["topic"]], store, params.top_k)
        for q, qvec in zip(queries, query_vecs)
    ]


def _embed_texts(queries: Sequence[dict], dim: int) -> list[np.ndarray]:
    embedder = HashEmbedder(dim=dim)
    return [embedder.embed(query["text"]) for query in queries]


def load_eval_config(path: Path | str) -> tuple[dict, dict]:
    """Load the query-suite config and the ground truth it points to, checking all ``run_eval`` reads.

    The suite is a JSON object with ``ground_truth`` (a path, relative to the
    suite's directory unless absolute), ``now``, ``queries`` and optionally
    ``top_k`` and ``alphas``. Each query is an object with a string ``text``
    and a ``type``: ``freshness`` with a ``topic`` the ground truth holds, or
    ``as_of`` with a ``cutoff`` that :func:`parse_cutoff` reads. The ground
    truth is a JSON object whose ``topics`` give each topic's ``event_ids``
    and ``truth``. Anything else raises ValueError naming the file at fault.
    """
    path = Path(path)
    config = _json_object(path, ("ground_truth", "now", "queries"))
    _require(isinstance(config["ground_truth"], str), path, "ground_truth must be a path")
    gt_path = path.parent / config["ground_truth"]  # an absolute path replaces the parent
    ground_truth = _json_object(gt_path, ("topics",))
    topics = ground_truth["topics"]
    _require(
        isinstance(topics, dict) and all(
            isinstance(t, dict) and isinstance(t.get("truth"), dict)
            and isinstance(t.get("event_ids"), list) and all(isinstance(i, str) for i in t["event_ids"])
            for t in topics.values()
        ),
        gt_path, "topics must map each name to an object with event_ids (a list of ids) and truth",
    )
    _require(_is_timestamp(config["now"]), path, f"now is not a timestamp: {config['now']!r}")
    _require(isinstance(config["queries"], list), path, "queries must be a list")
    for i, query in enumerate(config["queries"]):
        _require(isinstance(query, dict) and isinstance(query.get("text"), str),
                 path, f"query {i}: expected an object with a string text")
        kind = query.get("type")
        _require(kind in QUERY_TYPES, path, f"query {i}: type must be one of {QUERY_TYPES}, got {kind!r}")
        if kind == "freshness":
            topic = query.get("topic")
            _require(isinstance(topic, str) and topic in topics,
                     path, f"query {i}: topic {topic!r} is not in {gt_path}")
        else:
            cutoff = query.get("cutoff")
            _require(_is_timestamp(cutoff, parse_cutoff), path,
                     f"query {i}: as_of needs a timestamp cutoff, got {cutoff!r}")
    alphas = config.get("alphas", [])
    _require(isinstance(alphas, list) and all(isinstance(a, (int, float)) and not isinstance(a, bool) for a in alphas),
             path, "alphas must be a list of numbers")
    try:
        RetrievalParams(top_k=config.get("top_k", RetrievalParams.top_k))
        for alpha in alphas:
            RetrievalParams(alpha=alpha)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return config, ground_truth


def _json_object(path: Path, keys: Sequence[str]) -> dict:
    """The JSON object in ``path``, which must hold ``keys``; ValueError names the file otherwise."""
    try:
        value = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValueError(f"{path}: cannot read: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from None
    _require(isinstance(value, dict), path, "expected a JSON object")
    missing = [key for key in keys if key not in value]
    _require(not missing, path, f"missing {', '.join(missing)}")
    return value


def _require(ok: bool, path: Path, problem: str) -> None:
    if not ok:
        raise ValueError(f"{path}: {problem}")


def _is_timestamp(value, parse=coerce_timestamp) -> bool:
    try:
        parse(value)
    except ValueError:
        return False
    return True


def run_eval(
    store: EventStore,
    vecs: VectorStore,
    config: dict,
    ground_truth: dict,
    trend_params: TrendParams | None = None,
    seed: int = DEFAULT_SEED,
    retrieval_params: RetrievalParams | None = None,
) -> EvalReport:
    """Run the full metric suite over an embedded store and its query config.

    Ranking uses ``alpha`` and ``half_life_days`` from ``retrieval_params``;
    ``top_k`` and ``now`` come from the config. Raises ValueError when a
    ground-truth topic lists an event id the store lacks: the suite was
    generated for another stream.
    """
    params = replace(
        retrieval_params or RetrievalParams(),
        top_k=config.get("top_k", RetrievalParams.top_k),
        now=coerce_timestamp(config["now"]),
    )
    alphas = tuple(config.get("alphas", DEFAULT_ALPHAS))
    queries = config["queries"]
    topics = ground_truth["topics"]
    topic_ids = {name: entry["event_ids"] for name, entry in topics.items()}
    truth = {name: entry["truth"] for name, entry in topics.items()}
    store_ids = set(store.event_ids)
    for name, ids in topic_ids.items():
        missing = len(set(ids) - store_ids)
        if missing:
            raise ValueError(f"ground truth {config['ground_truth']}: topic {name!r}: "
                             f"{missing} of its {len(ids)} event ids are not in the event store")

    clusters, trends = track(store, vecs, trend_params, seed=seed)
    macro, per_class = trend_macro_f1(clusters, trends, truth, topic_ids)

    freshness = [q for q in queries if q["type"] == "freshness"]
    asof = [q for q in queries if q["type"] == "as_of"]
    freshness_vecs = _embed_texts(freshness, vecs.dim)
    query_results: list[dict] = []

    asof_scores = []
    for query, qvec in zip(asof, _embed_texts(asof, vecs.dim)):
        cutoff = parse_cutoff(query["cutoff"])
        hits = rank(qvec, store, vecs, params, mode="fused", as_of=cutoff)
        score = asof_correctness(hits, cutoff)
        asof_scores.append(score)
        query_results.append(
            {"query": query["text"], "type": "as_of", "cutoff": query["cutoff"], "asof_correctness": score}
        )

    latest: dict[str, float] = {}
    for mode in ("fused", "cosine_only"):
        scores = _latest_set(store, vecs, freshness, freshness_vecs, topic_ids, params, mode)
        query_results.extend(
            {"query": query["text"], "type": "freshness", "mode": mode, "latest_set": success}
            for query, success in zip(freshness, scores)
        )
        latest[mode] = sum(scores) / len(scores) if scores else 0.0

    sensitivity = sensitivity_sweep(
        store, vecs, freshness, topic_ids, params.now, alphas, params.half_life_days, params.top_k, freshness_vecs
    )

    return EvalReport(
        trend_macro_f1=macro,
        per_class=per_class,
        asof_correctness=sum(asof_scores) / len(asof_scores) if asof_scores else 1.0,
        latest_set_at_10=latest,
        sensitivity=sensitivity,
        per_week_k=per_week_k(clusters),
        query_results=query_results,
    )


def write_report_md(report: EvalReport, path: Path | str) -> str:
    """Render the markdown report, write it to ``path`` and return it."""
    lines = [
        "# Evaluation report",
        "",
        "| Dataset | Metric | Baseline | Temporal Layer |",
        "|---|---|---:|---:|",
        f"| Synthetic | Trend F1 | -- | {report.trend_macro_f1:.2f} |",
        f"| Synthetic | As-of Correctness | -- | {report.asof_correctness:.2f} |",
        f"| Synthetic | Latest@10 Accuracy | {report.latest_set_at_10['cosine_only']:.2f} "
        f"| {report.latest_set_at_10['fused']:.2f} |",
        f"| Synthetic | Latest-Set@10 | {report.latest_set_at_10['cosine_only']:.2f} "
        f"| {report.latest_set_at_10['fused']:.2f} |",
        "",
        "Latest@10 is scored with the tie-tolerant set definition: retrieving any",
        "relevant event that shares the newest relevant timestamp counts as success.",
        "",
        "## Sensitivity of latest-set accuracy to the semantic weight",
        "",
        "| alpha | Latest-Set@10 |",
        "|---:|---:|",
    ]
    for alpha in sorted(report.sensitivity):
        lines.append(f"| {alpha:g} | {report.sensitivity[alpha]:.3f} |")
    lines += [
        "",
        "## Clusters chosen per week",
        "",
        "| week | k |",
        "|---|---:|",
    ]
    for week in sorted(report.per_week_k):
        lines.append(f"| {week} | {report.per_week_k[week]} |")
    lines.append("")
    text = "\n".join(lines)
    with atomic_write(path) as fh:
        fh.write(text)
    return text
