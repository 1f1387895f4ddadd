"""Time-aware retrieval: as-of snapshot filtering and recency-fused ranking.

Scoring is exhaustive and exact: every event on or before the cutoff is
scored, with no candidate pruning or approximation. The as-of cut is a
binary search over the store's sorted timestamps, and selection partitions
the scores around the k-th best, then sorts only the events that reach it,
so the result equals a brute-force score-then-sort of the whole snapshot.
Cosines are computed once per distinct vector and gathered per event, so
byte-identical vectors score exactly alike and tie-break by (ts, event_id).
The distinct float32 rows, their norms and the timestamp array are built
once per store and cached on it.
"""

from __future__ import annotations

import json
import math
import numbers
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from .embedding import VectorStore
from .events import EventStore, epoch_us

SECONDS_PER_DAY = 86400.0

MODES = ("fused", "cosine_only")


@dataclass(frozen=True)
class RetrievalParams:
    alpha: float = 0.7
    half_life_days: float = 14.0
    top_k: int = 10
    now: datetime | None = None  # None = wall clock at call time

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.half_life_days) and self.half_life_days > 0):
            raise ValueError(f"half_life_days must be positive and finite, got {self.half_life_days}")
        if isinstance(self.top_k, bool) or not isinstance(self.top_k, numbers.Integral) or self.top_k < 1:
            raise ValueError(f"top_k must be a positive integer, got {self.top_k!r}")

    def resolved_now(self) -> datetime:
        return self.now if self.now is not None else datetime.now(timezone.utc)


@dataclass(frozen=True)
class RankedHit:
    event_id: str
    ts: datetime
    cosine_sim: float
    age_days: float
    recency_weight: float
    fused: float

    def to_json(self) -> str:
        return json.dumps({**vars(self), "ts": self.ts.isoformat()}, separators=(",", ":"))


def recency_weight(age, half_life_days: float):
    """0.5 ** (age / half_life_days) for a float age or an array of ages."""
    return 0.5 ** (age / half_life_days)


def _blend(cos_sim, weight, alpha: float):
    return alpha * cos_sim + (1.0 - alpha) * weight


def fused_score(cos_sim, age, params: RetrievalParams):
    """Convex blend of semantic similarity and the half-life recency weight (floats or arrays)."""
    return _blend(cos_sim, recency_weight(age, params.half_life_days), params.alpha)


def _as_of_count(store: EventStore, cutoff: datetime | None) -> int:
    """Length of the store prefix with ts <= cutoff (the store is sorted by ts)."""
    if cutoff is None:
        return len(store)
    return int(np.searchsorted(store.ts_us, epoch_us(cutoff), side="right"))


def rank(
    query_vec: np.ndarray,
    store: EventStore,
    vecs: VectorStore,
    params: RetrievalParams | None = None,
    mode: str = "fused",
    as_of: datetime | None = None,
) -> list[RankedHit]:
    """Score every (optionally as-of filtered) event and return the top-k.

    Sort order is (score desc, ts desc, event_id asc); fused mode ranks by
    the blended score, cosine_only by similarity alone.
    """
    params = params or RetrievalParams()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    query = np.asarray(query_vec, dtype=np.float32)
    if query.shape != (vecs.dim,):
        raise ValueError(f"query dim {query.shape} does not match store dim {vecs.dim}")
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0 or not np.isfinite(qnorm):
        raise ValueError(f"query vector has norm {qnorm}")

    n = _as_of_count(store, as_of)
    if n == 0:
        return []

    ts_us = store.ts_us[:n]
    rows, norms, index = vecs.distinct  # raises on a bad row before numpy would warn
    cos = ((rows @ query) / (norms * qnorm))[index[:n]]
    ages = (epoch_us(params.resolved_now()) - ts_us) / 1e6 / SECONDS_PER_DAY
    future = int((ages < 0).sum())
    if future:
        warnings.warn(f"{future} future-dated events clamped to age 0", stacklevel=2)
        np.maximum(ages, 0.0, out=ages)
    weights = recency_weight(ages, params.half_life_days)
    fused = _blend(cos.astype(np.float64), weights, params.alpha)

    # Only scores at or above the k-th best can make the top k; those go
    # through the exact (score desc, ts desc, position asc) sort, and store
    # position orders equal-ts events by event_id.
    score = fused if mode == "fused" else cos
    k = min(params.top_k, n)
    kth = np.partition(score, n - k)[n - k]
    cand = np.flatnonzero(score >= kth)
    top = cand[np.lexsort((cand, -ts_us[cand], -score[cand]))][:k]
    return [
        RankedHit(
            event_id=store.events[i].event_id,
            ts=store.events[i].ts,
            cosine_sim=float(cos[i]),
            age_days=float(ages[i]),
            recency_weight=float(weights[i]),
            fused=float(fused[i]),
        )
        for i in top
    ]
