"""Weekly topic tracking: per-bucket clustering, cross-bucket matching, trend labels.

Events are grouped by calendar period (ISO week by default), clustered with
seeded k-means, summarized with top terms, and linked period-to-period by a
greedy one-to-one centroid match. Linked clusters get rule-based trend labels;
unlinked ones are emergences.
"""

from __future__ import annotations

import csv
import logging
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embedding import VectorStore, tokenize
from .events import DEFAULT_GRANULARITY, DayKey, Event, EventStore, MonthKey, WeekKey, atomic_write, period_of

logger = logging.getLogger(__name__)

LABELS = ("emergence", "growth", "decay", "drift", "stable")

# Fixed stopword list for cluster term summaries (30 words).
STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he in is it its not of on
    that the they this to was were will with""".split()
)

MAX_KMEANS_ITER = 100
DEFAULT_SEED = 42
FIXED_K_FALLBACK = 6
TOP_TERMS = 8


@dataclass(frozen=True)
class TrendParams:
    """Thresholds for cluster linking and trend labeling."""

    match_threshold: float = 0.5
    growth_factor: float = 1.5
    growth_min_events: int = 30
    decay_factor: float = 0.5
    drift_threshold: float = 0.2
    k: int | None = None  # None = auto (elbow); fixed value otherwise

    def __post_init__(self) -> None:
        thresholds = (self.match_threshold, self.growth_factor, self.decay_factor, self.drift_threshold)
        if not all(math.isfinite(t) and t > 0 for t in thresholds):
            raise ValueError(f"thresholds must be positive and finite, got {thresholds}")
        if not self.growth_factor > 1 > self.decay_factor:
            raise ValueError("need growth_factor > 1 > decay_factor")
        if not _is_int_at_least(self.growth_min_events, 0):
            raise ValueError(f"growth_min_events must be an integer >= 0, got {self.growth_min_events!r}")
        if self.k is not None and not _is_int_at_least(self.k, 1):
            raise ValueError(f"fixed k must be an integer >= 1, got {self.k!r}")


def _is_int_at_least(value, low: int) -> bool:
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= low


@dataclass(frozen=True)
class WeekCluster:
    """One topic cluster within a single period."""

    week: WeekKey | DayKey | MonthKey
    cluster_id: int
    member_ids: tuple[str, ...]
    centroid: np.ndarray  # unit norm, float32
    top_terms: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.member_ids)


@dataclass(frozen=True)
class TrendRecord:
    """Label assigned to one cluster, with its link to the prior period if any."""

    week: WeekKey | DayKey | MonthKey
    cluster_id: int
    label: str
    size: int
    matched_prev_id: int | None = None
    match_sim: float | None = None
    drift_value: float | None = None


# ---------------------------------------------------------------------------
# Clustering


def _pairwise_sq_dists(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    p2 = (points * points).sum(axis=1)[:, None]
    c2 = (centers * centers).sum(axis=1)[None, :]
    d2 = p2 + c2 - 2.0 * points @ centers.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kmeanspp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    centers[0] = points[rng.integers(n)]
    d2 = _pairwise_sq_dists(points, centers[:1]).ravel()
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, _pairwise_sq_dists(points, centers[i : i + 1]).ravel())
    return centers


def kmeans(
    vectors: np.ndarray, k: int, seed: int = DEFAULT_SEED
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded k-means++ with Lloyd iterations to an assignment fixpoint.

    Empty clusters are re-seeded with the point currently farthest from its
    centroid. Returns (assignments, unit-normalized centroids, inertia);
    deterministic for a fixed (vectors, k, seed).
    """
    points = np.asarray(vectors, dtype=np.float32)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    rng = np.random.default_rng(seed)
    centers = _kmeanspp_init(points, k, rng)

    prev_assign: np.ndarray | None = None
    d2 = _pairwise_sq_dists(points, centers)
    assign = d2.argmin(axis=1)
    for _ in range(MAX_KMEANS_ITER):
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            break
        prev_assign = assign
        new_centers = centers.copy()
        for c in range(k):
            members = points[assign == c]
            if len(members):
                new_centers[c] = members.mean(axis=0)
        counts = np.bincount(assign, minlength=k)
        if (counts == 0).any():
            dist_to_own = d2[np.arange(n), assign].copy()
            for c in np.flatnonzero(counts == 0):
                idx = int(dist_to_own.argmax())
                new_centers[c] = points[idx]
                dist_to_own[idx] = -1.0  # each refill takes a distinct point
        centers = new_centers
        d2 = _pairwise_sq_dists(points, centers)
        assign = d2.argmin(axis=1)

    # Duplicate points can leave clusters empty even after refills (tied
    # centers all lose the argmin); force-steal so every cluster is non-empty.
    counts = np.bincount(assign, minlength=k)
    for c in np.flatnonzero(counts == 0):
        eligible = np.flatnonzero(counts[assign] > 1)
        idx = int(eligible[d2[eligible, assign[eligible]].argmax()])
        counts[assign[idx]] -= 1
        assign[idx] = c
        counts[c] = 1

    inertia = float(d2[np.arange(n), assign].sum())
    out_centers = np.empty_like(centers)
    for c in range(k):
        members = points[assign == c]
        out_centers[c] = _unit(members.mean(axis=0), fallback=members[0])
    return assign, out_centers, inertia


def _unit(vec: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    if norm < 1e-12:
        return np.asarray(fallback, dtype=np.float32)
    return (vec / norm).astype(np.float32)


def select_k(vectors: np.ndarray, seed: int = DEFAULT_SEED) -> int:
    """Pick k by the elbow of the within-cluster sum of squares.

    Formalized as the k in 2..k_max-1, k_max = min(9, isqrt(n), n - 1),
    maximizing the second difference WCSS(k-1) - 2*WCSS(k) + WCSS(k+1), ties
    toward smaller k. Degenerate inputs (fewer than 4 points, or no interior
    candidate) fall back to 1.
    """
    points = np.asarray(vectors, dtype=np.float32)
    n = points.shape[0]
    k_max = min(9, math.isqrt(n), n - 1)
    if k_max < 3:
        return 1
    wcss = {1: kmeans(points, 1, seed)[2]}
    if wcss[1] == 0.0:
        return 1  # all points identical; splitting cannot help
    for k in range(2, k_max + 1):
        wcss[k] = kmeans(points, k, seed)[2]
    best_k, best_score = 1, -math.inf
    for k in range(2, k_max):
        score = wcss[k - 1] - 2.0 * wcss[k] + wcss[k + 1]
        if score > best_score:
            best_k, best_score = k, score
    return best_k


def top_terms_for(texts: Sequence[str]) -> tuple[str, ...]:
    """The TOP_TERMS terms of highest document frequency within the cluster, ties lexicographic."""
    df: dict[str, int] = {}
    for text in texts:
        for token in set(tokenize(text)):
            if token in STOPWORDS or token.isdigit():
                continue
            df[token] = df.get(token, 0) + 1
    ranked = sorted(df.items(), key=lambda kv: (-kv[1], kv[0]))
    return tuple(term for term, _ in ranked[:TOP_TERMS])


# ---------------------------------------------------------------------------
# Cross-period matching and labeling


def drift_of(prev_centroid: np.ndarray, curr_centroid: np.ndarray) -> float:
    """Semantic shift between matched centroids: 1 - cosine."""
    return 1.0 - float(np.dot(np.asarray(prev_centroid, np.float32), np.asarray(curr_centroid, np.float32)))


def match_weeks(
    prev: Sequence[WeekCluster], curr: Sequence[WeekCluster], params: TrendParams
) -> dict[int, tuple[int, float]]:
    """Greedy one-to-one assignment of current clusters to prior clusters.

    Candidate pairs at or above the similarity threshold are taken in
    descending cosine order (ties: lower current id, then lower prior id);
    each endpoint is used at most once.
    """
    candidates = []
    for c in curr:
        for p in prev:
            sim = float(np.dot(c.centroid, p.centroid))
            if sim >= params.match_threshold:
                candidates.append((-sim, c.cluster_id, p.cluster_id, sim))
    candidates.sort()
    mapping: dict[int, tuple[int, float]] = {}
    used_prev: set[int] = set()
    for _, curr_id, prev_id, sim in candidates:
        if curr_id in mapping or prev_id in used_prev:
            continue
        mapping[curr_id] = (prev_id, sim)
        used_prev.add(prev_id)
    return mapping


def size_trend(size: int, previous: int, params: TrendParams) -> str | None:
    """The size-ratio rule for a cluster linked to one of size ``previous``: "growth", "decay", or None."""
    if size >= params.growth_factor * previous and size >= params.growth_min_events:
        return "growth"
    if size < params.decay_factor * previous:
        return "decay"
    return None


def label_trend(
    curr: WeekCluster, match: tuple[WeekCluster, float] | None, params: TrendParams
) -> str:
    """Apply the trend rules in fixed precedence growth -> decay -> drift -> stable."""
    if match is None:
        return "emergence"
    prev, _ = match
    label = size_trend(curr.size, prev.size, params)
    if label is None:
        label = "drift" if drift_of(prev.centroid, curr.centroid) >= params.drift_threshold else "stable"
    return label


def track(
    store: EventStore,
    vecs: VectorStore,
    params: TrendParams | None = None,
    seed: int = DEFAULT_SEED,
    granularity: str = DEFAULT_GRANULARITY,
) -> tuple[list[WeekCluster], list[TrendRecord]]:
    """Cluster each period and label every cluster against the prior period.

    Periods with zero events produce no clusters and break the match chain:
    the next populated period is all-emergence.
    """
    params = params or TrendParams()
    buckets: dict[object, list[int]] = {}
    for idx, event in enumerate(store):
        buckets.setdefault(period_of(event.ts, granularity), []).append(idx)
    if not buckets:
        return [], []

    events = list(store)
    clusters: list[WeekCluster] = []
    trends: list[TrendRecord] = []
    prev_clusters: list[WeekCluster] = []

    period = min(buckets)
    last = max(buckets)
    while True:
        indices = buckets.get(period)
        if indices is None:
            prev_clusters = []  # a silent period severs the chain
        else:
            week_clusters = _cluster_period(period, indices, events, vecs.vectors, params, seed)
            matches = match_weeks(prev_clusters, week_clusters, params)
            prev_of = {c.cluster_id: c for c in prev_clusters}
            for cluster in week_clusters:
                hit = matches.get(cluster.cluster_id)
                match = (prev_of[hit[0]], hit[1]) if hit else None
                label = label_trend(cluster, match, params)
                trends.append(
                    TrendRecord(
                        week=cluster.week,
                        cluster_id=cluster.cluster_id,
                        label=label,
                        size=cluster.size,
                        matched_prev_id=hit[0] if hit else None,
                        match_sim=hit[1] if hit else None,
                        drift_value=drift_of(match[0].centroid, cluster.centroid) if match else None,
                    )
                )
            clusters.extend(week_clusters)
            prev_clusters = week_clusters
        if period == last:
            break
        period = period.next()

    return clusters, trends


def _cluster_period(
    period,
    indices: list[int],
    events: list[Event],
    vectors: np.ndarray,  # the store's float16 vectors
    params: TrendParams,
    seed: int,
) -> list[WeekCluster]:
    points = vectors[indices].astype(np.float32)
    n = len(indices)
    k = params.k if params.k is not None else select_k(points, seed=seed)
    k = max(1, min(k, n))
    assign, centroids, _ = kmeans(points, k, seed)
    logger.info("%s: n=%d k=%d", period, n, k)

    out: list[WeekCluster] = []
    for c in range(k):
        member_events = [events[indices[i]] for i in np.flatnonzero(assign == c)]
        out.append(
            WeekCluster(
                week=period,
                cluster_id=c,
                member_ids=tuple(e.event_id for e in member_events),
                centroid=centroids[c],
                top_terms=top_terms_for([e.text_repr for e in member_events]),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Artifact writers


def write_clusters_csv(
    clusters: Sequence[WeekCluster], trends: Sequence[TrendRecord], path: Path | str
) -> None:
    by_key = {(str(t.week), t.cluster_id): t for t in trends}
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["week", "cluster_id", "size", "top_terms", "matched_prev_id", "match_sim", "drift", "label"]
        )
        for cluster in clusters:
            trend = by_key[(str(cluster.week), cluster.cluster_id)]
            writer.writerow(
                [
                    str(cluster.week),
                    cluster.cluster_id,
                    cluster.size,
                    ";".join(cluster.top_terms),
                    "" if trend.matched_prev_id is None else trend.matched_prev_id,
                    "" if trend.match_sim is None else f"{trend.match_sim:.6f}",
                    "" if trend.drift_value is None else f"{trend.drift_value:.6f}",
                    trend.label,
                ]
            )


def write_trends_summary_csv(trends: Sequence[TrendRecord], path: Path | str) -> None:
    weeks = sorted({str(t.week) for t in trends})
    counts: dict[tuple[str, str], int] = {}
    for t in trends:
        key = (str(t.week), t.label)
        counts[key] = counts.get(key, 0) + 1
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["week", "label", "count"])
        for week in weeks:
            for label in LABELS:
                writer.writerow([week, label, counts.get((week, label), 0)])


def per_week_k(clusters: Iterable[WeekCluster]) -> dict[str, int]:
    """Chosen cluster count per period, as rendered period -> k."""
    out: dict[str, int] = {}
    for cluster in clusters:
        key = str(cluster.week)
        out[key] = max(out.get(key, 0), cluster.cluster_id + 1)
    return out
