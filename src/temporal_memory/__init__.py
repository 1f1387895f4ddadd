"""Time-aware event memory: ingest, embed, track weekly topics, retrieve with recency."""

__version__ = "0.1.0"

from .events import Event, EventStore, WeekKey
from .embedding import HashEmbedder, VectorStore
from .tracking import TrendParams, WeekCluster, TrendRecord
from .retrieval import RetrievalParams, RankedHit, rank

__all__ = [
    "Event",
    "EventStore",
    "WeekKey",
    "HashEmbedder",
    "VectorStore",
    "TrendParams",
    "WeekCluster",
    "TrendRecord",
    "RetrievalParams",
    "RankedHit",
    "rank",
    "__version__",
]
