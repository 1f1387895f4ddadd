"""Time-aware retrieval: as-of snapshot filtering and recency-fused ranking.

Ranking is exact: the top k equal a brute-force score-then-sort of every
event on or before the cutoff, in the order (score desc, ts desc, event_id
asc). The as-of cut is a binary search over the store's sorted timestamps.
Ages are taken at ``RetrievalParams.now`` or, when it is None, at the newest
event the cut keeps, so a ranking never depends on the wall clock. Cosines
are computed once per distinct vector and gathered per event, so
byte-identical vectors score exactly alike and tie-break by (ts, event_id).

Only the events whose vector can reach the top k are scored, the bound of
Fagin, Lotem & Naor's threshold algorithm (PODS 2001). Every holder of a
vector shares its cosine and the recency weight never falls as ts rises, so
a vector's newest holder in the snapshot scores highest of its holders. The
k-th best of those newest holders is a floor the k-th best event also
reaches, so a vector whose newest holder scores below it holds no top-k
event; the holders of every other vector are scored, partitioned around
their k-th best and sorted. A store with more distinct vectors than half
the snapshot's events is scored in full, as the bound could not halve the
work. numpy's float64 power is not guaranteed monotone, so the floor is
lowered by a few ulps of 1.0, which can only admit more candidates. Each hit
field is read from the same numpy operations as a full scoring gives, so the
hits are bit-identical to it.

A VectorStore holds the distinct float16 rows and each event's index into
them, as a TMV2 vector file does; their float32 copy and norms are built
once per store and cached on it, and so are the holders of each row, in
ascending position. Any snapshot, the whole store included, is a prefix of
the store, so the bound reads its newest and reached holders from that one
layout. Ranking reads only the event store's ids and ``ts_us`` columns and
builds no Event, so ``tmem query`` ranks over ``EventStore.of_timeline`` of
the vector file's columns: no events.jsonl.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from datetime import datetime

import numpy as np

from .embedding import VectorStore
from .events import EventStore, epoch_us, from_epoch_us, is_int_at_least

SECONDS_PER_DAY = 86400.0

MODES = ("fused", "cosine_only")

# numpy's float64 power is not guaranteed monotone; a few ulps of 1.0 cover
# that in the row bound, and a larger margin only admits more candidates.
_POW_TOL = 8 * np.finfo(np.float64).eps


@dataclass(frozen=True)
class RetrievalParams:
    alpha: float = 0.7
    half_life_days: float = 14.0
    top_k: int = 10
    now: datetime | None = None  # None = the newest event in the as-of snapshot

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if not (math.isfinite(self.half_life_days) and self.half_life_days > 0):
            raise ValueError(f"half_life_days must be positive and finite, got {self.half_life_days}")
        if not is_int_at_least(self.top_k, 1):
            raise ValueError(f"top_k must be a positive integer, got {self.top_k!r}")


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


def rank(
    query_vec: np.ndarray,
    store: EventStore,
    vecs: VectorStore,
    params: RetrievalParams | None = None,
    mode: str = "fused",
    as_of: datetime | None = None,
) -> list[RankedHit]:
    """Return the top-k of the (optionally as-of filtered) events, as a full scoring would.

    Sort order is (score desc, ts desc, event_id asc); fused mode ranks by
    the blended score, cosine_only by similarity alone.
    """
    params = params or RetrievalParams()
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    query = np.asarray(query_vec, dtype=np.float32)
    if query.shape != (vecs.dim,):
        raise ValueError(f"query dim {query.shape} does not match store dim {vecs.dim}")
    qnorm = float(np.sqrt(query.dot(query)))
    if qnorm == 0.0 or not np.isfinite(qnorm):
        raise ValueError(f"query vector has norm {qnorm}")

    n = len(store) if as_of is None else int(np.searchsorted(store.ts_us, epoch_us(as_of), side="right"))
    if n == 0:
        return []

    ts_us = store.ts_us[:n]
    index = vecs.index[:n]
    rows, norms = vecs.scoring  # VectorStore holds no zero or non-finite row, so no norm is 0 or inf
    row_cos = (rows @ query) / (norms * qnorm)
    now_us = int(ts_us[-1]) if params.now is None else epoch_us(params.now)
    future = n - int(np.searchsorted(ts_us, now_us, side="right"))
    if future:
        warnings.warn(f"{future} future-dated events clamped to age 0", stacklevel=2)

    def score(row, ts):
        """(cos, ages, weights, fused, ranking score) of events holding ``row`` at epoch-µs ``ts``."""
        cos = row_cos[row]
        ages = (now_us - ts) / 1e6 / SECONDS_PER_DAY
        if future:
            np.maximum(ages, 0.0, out=ages)
        weights = recency_weight(ages, params.half_life_days)
        fused = _blend(cos.astype(np.float64), weights, params.alpha)
        return cos, ages, weights, fused, (fused if mode == "fused" else cos)

    # Every holder of a row shares its cosine and the recency weight never
    # falls as ts rises, so a row's newest holder in the prefix scores
    # highest of the row. The k-th best of those bounds the k-th best event
    # from below (-inf when fewer than k rows are held): rows whose best is
    # under it hold no top-k event. With more rows than half the events, the
    # bound cannot halve the events scored, so every event is scored.
    k = min(params.top_k, n)
    if 2 * len(rows) > n:
        cand = np.arange(n)
    else:
        # Row r's holders in the prefix are the first held[r] of its range of
        # ``order``, in ascending position, so the last of them is its newest.
        order, starts = vecs.holders
        if n == len(vecs):  # every row is held, by its whole range
            live, held = slice(None), starts[1:] - starts[:-1]
        else:  # a row held by no event of the prefix cannot reach the top k
            held = np.bincount(index, minlength=len(rows))
            live = np.flatnonzero(held)
        lo, sizes = starts[:-1][live], held[live]
        best = score(live, ts_us[order[lo + sizes - 1]])[-1]
        if len(best) >= k:
            reach = best >= np.partition(best, len(best) - k)[len(best) - k] - _POW_TOL
            lo, sizes = lo[reach], sizes[reach]
        # The reached rows' holders in the prefix: each row's range of ``order``, laid end to end.
        ends = np.cumsum(sizes)
        cand = order[np.arange(ends[-1]) + np.repeat(lo - ends + sizes, sizes)]

    # Only scores at or above the k-th best can make the top k; those go
    # through the exact (score desc, ts desc, position asc) sort, and store
    # position orders equal-ts events by event_id.
    ts = ts_us[cand]
    cos, ages, weights, fused, key = score(index[cand], ts)
    kth = np.partition(key, len(cand) - k)[len(cand) - k]
    sel = np.flatnonzero(key >= kth)
    top = sel[np.lexsort((cand[sel], -ts[sel], -key[sel]))][:k]
    return [
        RankedHit(event_id=store.event_ids[i], ts=from_epoch_us(t), cosine_sim=c, age_days=a, recency_weight=w, fused=f)
        for i, t, c, a, w, f in zip(
            cand[top].tolist(), ts[top].tolist(),
            cos[top].tolist(), ages[top].tolist(), weights[top].tolist(), fused[top].tolist(),
        )
    ]
