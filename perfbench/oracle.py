"""Independent numpy oracle for ``retrieval.rank``.

It follows ``brute_force_rank`` in ``tests/test_retrieval.py``: float64
cosine of the float16 rows, age clamped at zero, the fused blend
``alpha*cos + (1-alpha)*0.5**(age/half_life)``, and the order
(score desc, ts desc, event_id asc).
"""

from __future__ import annotations

import bisect

import numpy as np

SCORE_TOL = 1e-5  # float32 scoring in rank versus float64 here
_CHUNK = 4096


class Oracle:
    """Precomputed view of one (store, vectors) pair."""

    def __init__(self, store, vecs):
        events = list(store)
        self.ids = [e.event_id for e in events]
        self.ts = [e.ts for e in events]
        self.ts_s = np.array([e.ts.timestamp() for e in events], dtype=np.float64)
        self.vectors = vecs.vectors  # float16, shared with the store
        # Events with byte-identical vectors score identically on cosine.
        self.row_key = [hash(row.tobytes()) for row in self.vectors]
        order = sorted(range(len(self.ids)), key=self.ids.__getitem__)
        self.id_rank = np.empty(len(order), dtype=np.int64)
        self.id_rank[order] = np.arange(len(order))

    def candidates(self, as_of) -> int:
        """Events with ts <= as_of (the store is sorted by ts)."""
        return len(self.ts) if as_of is None else bisect.bisect_right(self.ts, as_of)

    def scores(self, query_vec, params, mode, n: int) -> np.ndarray:
        q = np.asarray(query_vec, dtype=np.float64)
        qnorm = float(np.sqrt(q @ q))
        cos = np.empty(n, dtype=np.float64)
        for lo in range(0, n, _CHUNK):
            rows = self.vectors[lo : min(n, lo + _CHUNK)].astype(np.float64)
            cos[lo : lo + len(rows)] = (rows @ q) / (np.sqrt((rows * rows).sum(axis=1)) * qnorm)
        if mode == "cosine_only":
            return cos
        ages = np.maximum(0.0, (params.now.timestamp() - self.ts_s[:n]) / 86400.0)
        return params.alpha * cos + (1.0 - params.alpha) * 0.5 ** (ages / params.half_life_days)

    def check(self, hits, query_vec, params, mode, as_of) -> str | None:
        """None if ``hits`` is a correct top-k, else the first problem found.

        Ids must match the oracle one for one, except that events whose
        scores differ by at most SCORE_TOL may swap unless they tie exactly
        by construction (identical vector, and identical ts under fused).
        """
        n = self.candidates(as_of)
        want = min(params.top_k, n)
        if len(hits) != want:
            return f"{len(hits)} hits, expected {want}"
        if n == 0:
            return None
        score = self.scores(query_vec, params, mode, n)
        pos = {event_id: i for i, event_id in enumerate(self.ids[:n])}
        picked = []
        for hit in hits:
            i = pos.get(hit.event_id)
            if i is None:
                return f"hit {hit.event_id} is not a candidate at as_of={as_of}"
            reported = hit.fused if mode == "fused" else hit.cosine_sim
            if abs(reported - score[i]) > SCORE_TOL:
                return f"hit {hit.event_id} scored {reported}, oracle {score[i]}"
            picked.append(i)
        if len(set(picked)) != len(picked):
            return "duplicate hits"

        def tie_key(i):
            return (self.row_key[i], self.ts[i]) if mode == "fused" else self.row_key[i]

        def before(a, b) -> bool:
            """Whether the tie-break puts a before b."""
            return (self.ts[a], -self.id_rank[a]) > (self.ts[b], -self.id_rank[b])

        floor = min(score[i] for i in picked)
        chosen = set(picked)
        rivals = [j for j in np.flatnonzero(score >= floor - SCORE_TOL) if j not in chosen]
        for x, a in enumerate(picked):
            for b in picked[x + 1 :] + rivals:
                if score[b] > score[a] + SCORE_TOL:
                    return f"{self.ids[b]} (score {score[b]}) should rank above {self.ids[a]} ({score[a]})"
                if tie_key(a) == tie_key(b) and not before(a, b):
                    return f"tie-break: {self.ids[b]} should rank above {self.ids[a]}"
        return None
