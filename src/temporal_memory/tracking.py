"""Weekly topic tracking: per-bucket clustering, cross-bucket matching, trend labels.

Events are grouped by ISO week, clustered with seeded k-means, summarized
with top terms, and linked week-to-week by a greedy one-to-one centroid
match. Linked clusters get rule-based trend labels; unlinked ones are
emergences.
"""

from __future__ import annotations

import csv
import logging
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .embedding import VectorStore, tokenize
from .events import EventStore, WeekKey, atomic_write, from_epoch_us, is_int_at_least, period_of

logger = logging.getLogger(__name__)

LABELS = ("emergence", "growth", "decay", "drift", "stable")

# Fixed stopword list for cluster term summaries (30 words).
STOPWORDS = frozenset(
    """a an and are as at be but by for from has have he in is it its not of on
    that the they this to was were will with""".split()
)

MAX_KMEANS_ITER = 100
DEFAULT_SEED = 42
TOP_TERMS = 8
_US_PER_DAY = 86_400_000_000
_US_PER_WEEK = 7 * _US_PER_DAY


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
        # Centroids are unit vectors: a match similarity is at most 1, and a drift (1 - cosine) at most 2.
        if self.match_threshold > 1:
            raise ValueError(f"match_threshold must be <= 1, the highest centroid cosine, got {self.match_threshold}")
        if self.drift_threshold > 2:
            raise ValueError(f"drift_threshold must be <= 2, the highest 1 - cosine, got {self.drift_threshold}")
        if not self.growth_factor > 1 > self.decay_factor:
            raise ValueError("need growth_factor > 1 > decay_factor")
        if not is_int_at_least(self.growth_min_events, 0):
            raise ValueError(f"growth_min_events must be an integer >= 0, got {self.growth_min_events!r}")
        if self.k is not None and not is_int_at_least(self.k, 1):
            raise ValueError(f"fixed k must be an integer >= 1, got {self.k!r}")


@dataclass(frozen=True)
class WeekCluster:
    """One topic cluster within a single ISO week."""

    week: WeekKey
    cluster_id: int
    member_ids: tuple[str, ...]
    centroid: np.ndarray  # unit norm, float32
    top_terms: tuple[str, ...] = ()

    @property
    def size(self) -> int:
        return len(self.member_ids)


@dataclass(frozen=True)
class TrendRecord:
    """Label assigned to one cluster, with its link to the prior week if any."""

    week: WeekKey
    cluster_id: int
    label: str
    size: int
    matched_prev_id: int | None = None
    match_sim: float | None = None
    drift_value: float | None = None


# ---------------------------------------------------------------------------
# Clustering


def _pairwise_sq_dists(points: np.ndarray, p2: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from each point to each center; ``p2`` is the points' squared norms as a column.

    Doubling the k centers rather than the n points is exact and gives the same products.
    """
    c2 = (centers * centers).sum(axis=1)[None, :]
    d2 = p2 + c2 - points @ (2.0 * centers).T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _squared_norms(points: np.ndarray) -> np.ndarray:
    """Each point's squared L2 norm, as a column."""
    return (points * points).sum(axis=1)[:, None]


def _kmeanspp_init(points: np.ndarray, p2: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007).

    Center i is drawn from the same generator state whatever k is, so the
    seeding for k is the first k rows of the seeding for any larger k.
    """
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=points.dtype)
    centers[0] = points[rng.integers(n)]
    d2 = _pairwise_sq_dists(points, p2, centers[:1]).ravel()
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centers[i] = points[idx]
        d2 = np.minimum(d2, _pairwise_sq_dists(points, p2, centers[i : i + 1]).ravel())
    return centers


def _member_means(points: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Each cluster's member mean; an empty cluster's row is zero.

    A stable sort lists the members cluster by cluster in index order, and one
    gather lays them out so; each cluster's float32 sum then adds the same rows
    in the same order as ``points[assign == c].mean(axis=0)``. That mean
    divides in float64 and rounds, which gives the same float32 as one float32
    division, so each row equals it bit for bit.
    """
    counts = np.bincount(assign, minlength=k)
    members = points[np.argsort(assign, kind="stable")]
    sums = np.zeros((k, points.shape[1]), dtype=points.dtype)
    start = 0
    for c, end in enumerate(np.cumsum(counts).tolist()):
        if end > start:
            np.add.reduce(members[start:end], axis=0, out=sums[c])
        start = end
    return sums / np.maximum(counts, 1).astype(points.dtype)[:, None]


def kmeans(
    vectors: np.ndarray,
    k: int,
    seed: int = DEFAULT_SEED,
    init: np.ndarray | None = None,
    p2: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Seeded k-means++ with Lloyd iterations to an assignment fixpoint.

    A cluster left empty keeps a zero center while Lloyd runs; at the end each
    empty cluster takes the point farthest from its center out of a cluster
    with more than one member. Returns (assignments, unit-normalized
    centroids, inertia), the inertia being the within-cluster sum of squares
    of the returned partition; deterministic for a fixed (vectors, k, seed).
    ``init`` replaces the seeding with given (k, d) centers; ``select_k``
    passes the first k rows of one seeding at its largest k, which is the
    seeding ``seed`` gives for k. ``p2`` is the points' squared norms as a
    column, as :func:`_squared_norms` gives them; ``select_k`` computes them
    once for all its fits.
    """
    points = np.asarray(vectors, dtype=np.float32)
    n = points.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds point count {n}")
    if p2 is None:
        p2 = _squared_norms(points)
    centers = _kmeanspp_init(points, p2, k, np.random.default_rng(seed)) if init is None else init

    d2 = _pairwise_sq_dists(points, p2, centers)
    assign = d2.argmin(axis=1)
    converged = False
    for _ in range(MAX_KMEANS_ITER):
        centers = _member_means(points, assign, k)
        d2 = _pairwise_sq_dists(points, p2, centers)
        prev_assign, assign = assign, d2.argmin(axis=1)
        if np.array_equal(assign, prev_assign):
            converged = True
            break
    if not converged:
        logger.warning("kmeans: no assignment fixpoint after %d Lloyd iterations (n=%d, k=%d)", MAX_KMEANS_ITER, n, k)

    # Fewer distinct points than k leave clusters empty; force-steal so every
    # cluster is non-empty.
    counts = np.bincount(assign, minlength=k)
    stolen = (counts == 0).any()
    for c in np.flatnonzero(counts == 0):
        eligible = np.flatnonzero(counts[assign] > 1)
        idx = int(eligible[d2[eligible, assign[eligible]].argmax()])
        counts[assign[idx]] -= 1
        assign[idx] = c
        counts[c] = 1

    if not converged or stolen:
        # Only at a fixpoint with no steal are the last update's centers (and
        # d2) those of exactly the final members.
        centers = _member_means(points, assign, k)
        d2 = _pairwise_sq_dists(points, p2, centers)
    inertia = float(d2[np.arange(n), assign].sum())
    out_centers = np.empty_like(centers)
    for c, center in enumerate(centers):
        norm = float(np.sqrt(center.dot(center)))  # exactly np.linalg.norm of one vector
        # Members that cancel out have no direction; the first member stands in.
        out_centers[c] = points[np.argmax(assign == c)] if norm < 1e-12 else center / norm
    return assign, out_centers, inertia


def select_k(vectors: np.ndarray, seed: int = DEFAULT_SEED) -> int:
    """Pick k by the elbow of the within-cluster sum of squares.

    Formalized as the k in 2..k_max-1, k_max = min(9, isqrt(n), n - 1),
    maximizing the second difference WCSS(k-1) - 2*WCSS(k) + WCSS(k+1), ties
    toward smaller k. Degenerate inputs (fewer than 4 points, or no interior
    candidate) fall back to 1. One k-means++ seeding at k_max serves every
    fit: its first k rows are the seeding for k.
    """
    points = np.asarray(vectors, dtype=np.float32)
    n = points.shape[0]
    k_max = min(9, math.isqrt(n), n - 1)
    if k_max < 3:
        return 1
    p2 = _squared_norms(points)
    init = _kmeanspp_init(points, p2, k_max, np.random.default_rng(seed))
    wcss = {1: kmeans(points, 1, init=init[:1], p2=p2)[2]}
    if wcss[1] == 0.0:
        return 1  # all points identical; splitting cannot help
    for k in range(2, k_max + 1):
        wcss[k] = kmeans(points, k, init=init[:k], p2=p2)[2]
    best_k, best_score = 1, -math.inf
    for k in range(2, k_max):
        score = wcss[k - 1] - 2.0 * wcss[k] + wcss[k + 1]
        if score > best_score:
            best_k, best_score = k, score
    return best_k


@lru_cache(maxsize=1 << 16)
def _counted_terms(text: str) -> tuple[str, ...]:
    """The text's distinct terms that count toward a top-terms summary, cached for the process."""
    return tuple(t for t in set(tokenize(text)) if t not in STOPWORDS and not t.isdigit())


def top_terms_for(texts: Sequence[str]) -> tuple[str, ...]:
    """The TOP_TERMS terms of highest document frequency within the cluster, ties lexicographic.

    Each distinct text counts as many documents as it has copies. Its terms
    come from :func:`_counted_terms`, so a text that recurs across clusters,
    weeks and ``track`` calls is tokenized once while it stays in that cache.
    """
    df: dict[str, int] = {}
    for text, copies in Counter(texts).items():
        for term in _counted_terms(text):
            df[term] = df.get(term, 0) + copies
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


def label_trend(size: int, previous: int | None, drifted: bool, params: TrendParams) -> str:
    """The trend rules in fixed precedence emergence -> growth -> decay -> drift -> stable.

    ``previous`` is the size of the linked prior-week cluster (None: no link),
    and ``drifted`` whether the centroid moved by at least the drift threshold.
    """
    if previous is None:
        return "emergence"
    if size >= params.growth_factor * previous and size >= params.growth_min_events:
        return "growth"
    if size < params.decay_factor * previous:
        return "decay"
    return "drift" if drifted else "stable"


def track(
    store: EventStore,
    vecs: VectorStore,
    params: TrendParams | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[list[WeekCluster], list[TrendRecord]]:
    """Cluster each ISO week and label every cluster against the prior week.

    Weeks with zero events produce no clusters and break the match chain:
    the next populated week is all-emergence.
    """
    params = params or TrendParams()
    # ISO weeks start on Monday and 1970-01-01 was a Thursday, so this numbers
    # the weeks consecutively; the store is sorted by ts, so each week is one run.
    weeks, starts = np.unique((store.ts_us + 3 * _US_PER_DAY) // _US_PER_WEEK, return_index=True)
    clusters: list[WeekCluster] = []
    trends: list[TrendRecord] = []
    prev_clusters: list[WeekCluster] = []
    prev_week = None

    for week, indices in zip(weeks.tolist(), np.split(np.arange(len(store)), starts[1:])):
        if week - 1 != prev_week:
            prev_clusters = []  # a silent week severs the chain
        period = period_of(from_epoch_us(int(store.ts_us[indices[0]])))
        week_clusters = _cluster_period(period, indices, store, vecs, params, seed)
        matches = match_weeks(prev_clusters, week_clusters, params)
        for cluster in week_clusters:
            prev_id, sim = matches.get(cluster.cluster_id, (None, None))
            previous = drift = None
            if prev_id is not None:
                prev = prev_clusters[prev_id]  # a cluster's id is its index
                previous, drift = prev.size, drift_of(prev.centroid, cluster.centroid)
            drifted = drift is not None and drift >= params.drift_threshold
            trends.append(
                TrendRecord(
                    week=cluster.week,
                    cluster_id=cluster.cluster_id,
                    label=label_trend(cluster.size, previous, drifted, params),
                    size=cluster.size,
                    matched_prev_id=prev_id,
                    match_sim=sim,
                    drift_value=drift,
                )
            )
        clusters.extend(week_clusters)
        prev_clusters, prev_week = week_clusters, week

    return clusters, trends


def _cluster_period(
    period: WeekKey,
    indices: np.ndarray,
    store: EventStore,
    vecs: VectorStore,
    params: TrendParams,
    seed: int,
) -> list[WeekCluster]:
    points = vecs.rows[vecs.index[indices]].astype(np.float32)
    n = len(indices)
    k = params.k if params.k is not None else select_k(points, seed=seed)
    k = max(1, min(k, n))
    assign, centroids, _ = kmeans(points, k, seed)
    logger.info("%s: n=%d k=%d", period, n, k)

    out: list[WeekCluster] = []
    for c in range(k):
        members = indices[assign == c].tolist()
        out.append(
            WeekCluster(
                week=period,
                cluster_id=c,
                member_ids=tuple(store.event_ids[i] for i in members),
                centroid=centroids[c],
                top_terms=top_terms_for([store.texts[t] for t in store.text_index[members]]),
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
    counts = Counter((str(t.week), t.label) for t in trends)
    with atomic_write(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["week", "label", "count"])
        for week in weeks:
            for label in LABELS:
                writer.writerow([week, label, counts[week, label]])


def per_week_k(clusters: Iterable[WeekCluster]) -> dict[str, int]:
    """Chosen cluster count per week, as rendered week -> k: ``track`` numbers each week's clusters 0..k-1."""
    return dict(Counter(str(cluster.week) for cluster in clusters))
