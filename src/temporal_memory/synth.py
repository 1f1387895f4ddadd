"""Deterministic synthetic cybersecurity stream with scripted topic dynamics.

Thirteen ISO weeks (2025-W14 through 2025-W26) of JSONL logs covering:
an authentication-failure topic that grows in volume across weeks 4-8, a
data-access topic whose vocabulary switches from S3 to Snowflake at week 6,
a vulnerability-scan topic that decays after week 8, three low-rate topics
built for freshness queries (many stale near-duplicates, a burst of fresh
variants at the very end), and background operational noise.

The generator also emits the ground-truth file (per-topic weekly counts,
expected trend labels, member event ids) and the query-suite config the
evaluation harness consumes.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

from .evaluation import DEFAULT_ALPHAS
from .events import _JSON, WeekKey, atomic_write, build_text_repr, derive_event_id, write_json
from .retrieval import RetrievalParams
from .tracking import TrendParams, label_trend

STREAM_WEEKS = tuple(WeekKey(2025, w) for w in range(14, 27))
STREAM_NOW = datetime(2025, 6, 30, 0, 0, 0, tzinfo=timezone.utc)

GROUND_TRUTH_FILE = "ground_truth.json"
EVAL_CONFIG_FILE = "eval.json"

_SECONDS_PER_WEEK = 7 * 86400
# Late-burst events land in the closing window of their week; the final two
# share this exact terminal offset (Sunday 22:40:00).
_BURST_WINDOW_START = 5 * 86400 + 12 * 3600
_BURST_WINDOW_END = 6 * 86400 + 16 * 3600
_TERMINAL_OFFSET = 6 * 86400 + 22 * 3600 + 40 * 60

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")

# The values each template placeholder draws from; {n} is drawn as a number instead.
_POOLS = {
    "user": ("alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"),
    "ip": ("10.0.0.5", "10.0.1.17", "10.0.2.44", "172.16.4.9", "192.168.7.21"),
    "dev": ("pixel-9", "iphone-15", "thinkpad-x1", "macbook-m3"),
    "net": ("10.20.0.0/24", "10.21.0.0/24", "10.22.0.0/24"),
    "bkt": ("finance-data", "analytics-archive", "raw-events"),
    "wh": ("finance-wh", "analytics-wh", "raw-events-wh"),
}


@dataclass(frozen=True)
class ScriptedTopic:
    """One topic with scripted weekly volumes and (optionally) a vocabulary switch."""

    name: str
    product: str
    event_type: str
    assets: tuple[str, ...]
    weekly_counts: tuple[int, ...]
    templates: tuple[str, ...]
    drift_templates: tuple[str, ...] = ()
    drift_week: int | None = None  # 1-based week index where the pool switches
    tech: tuple[str, ...] = ()
    attack: tuple[str, ...] = ()
    risk_tag: tuple[str, ...] = ()
    late_burst: bool = False  # last populated week lands in its closing window
    in_truth: bool = True

    def pool(self, week_index: int) -> tuple[str, ...]:
        if self.drift_week is not None and week_index >= self.drift_week:
            return self.drift_templates
        return self.templates

    def truth_labels(self) -> dict[int, str]:
        """Expected trend label per populated week, from the scripted volumes.

        Ground truth and the tracker share ``label_trend`` at its default
        thresholds, so these are what a tracker with perfect per-week clusters
        would output: a week after an empty one is an emergence, and the
        scripted vocabulary switch week is the one that drifted.
        """
        rules = TrendParams()
        out: dict[int, str] = {}
        for wi, count in enumerate(self.weekly_counts, start=1):
            if count == 0:
                continue
            prev = self.weekly_counts[wi - 2] if wi >= 2 else 0
            out[wi] = label_trend(count, prev or None, self.drift_week == wi, rules)
        return out


TOPICS = (
    ScriptedTopic(
        name="okta-auth-fail",
        product="okta",
        event_type="auth_fail",
        assets=("idp-okta-01", "idp-okta-02"),
        weekly_counts=(12, 12, 20, 32, 52, 84, 136, 220, 220, 220, 220, 220, 220),
        templates=(
            "mfa challenge denied for {user} from {ip}",
            "password login blocked after repeated failures for {user}",
            "mfa push rejected by {user} on device {dev}",
            "login attempt flagged for impossible travel by {user}",
        ),
        tech=("t1110",),
        attack=("credential-access",),
        risk_tag=("identity",),
    ),
    ScriptedTopic(
        name="data-access",
        product="dataplatform",
        event_type="data_access",
        assets=("dp-gateway-01", "dp-gateway-02"),
        weekly_counts=(40,) * 13,
        templates=(
            "bulk read from s3 bucket {bkt} by {user}",
            "object listing on s3 bucket {bkt} exceeded rate threshold",
            "presigned url generated for s3 bucket {bkt} by {user}",
        ),
        drift_templates=(
            "bulk read from snowflake warehouse {wh} by {user}",
            "query volume on snowflake warehouse {wh} exceeded rate threshold",
            "service account key rotated for snowflake warehouse {wh} by {user}",
        ),
        drift_week=6,
        tech=("t1530",),
        attack=("collection",),
        risk_tag=("data",),
    ),
    ScriptedTopic(
        name="vuln-scan",
        product="nessus",
        event_type="vuln_scan",
        assets=("scanner-01", "scanner-02"),
        weekly_counts=(60, 60, 60, 60, 60, 60, 60, 60, 24, 10, 4, 1, 1),
        templates=(
            "scan completed on subnet {net} with {n} critical findings",
            "scheduled scan started on subnet {net}",
            "scan policy updated for subnet {net} by {user}",
        ),
        tech=("t1046",),
        attack=("discovery",),
        risk_tag=("vulnerability",),
    ),
    # Freshness-query topics: one fixed template so every stale event embeds
    # identically; the final week switches to a longer variant and lands in a
    # late burst whose last two events share the terminal timestamp.
    ScriptedTopic(
        name="vpn-cert",
        product="vpn",
        event_type="cert_expiry",
        assets=("vpn-gw-01", "vpn-gw-02"),
        weekly_counts=(4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 0, 6),
        templates=("gateway certificate expiring soon renewal required",),
        drift_templates=("gateway certificate expiring soon renewal required after emergency rotation",),
        drift_week=13,
        risk_tag=("availability",),
        late_burst=True,
    ),
    ScriptedTopic(
        name="phish-campaign",
        product="mailsec",
        event_type="phish_report",
        assets=("mx-edge-01", "mx-edge-02"),
        weekly_counts=(5, 5, 5, 5, 5, 5, 5, 5, 5, 0, 0, 0, 6),
        templates=("credential harvesting campaign reported targeting finance team",),
        drift_templates=(
            "credential harvesting campaign reported targeting finance team with new lure domain observed",
        ),
        drift_week=13,
        tech=("t1566",),
        attack=("initial-access",),
        risk_tag=("email",),
        late_burst=True,
    ),
    ScriptedTopic(
        name="edr-quarantine",
        product="edr",
        event_type="malware_quarantine",
        assets=("fleet-workstations", "fleet-servers"),
        weekly_counts=(4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 0, 0, 6),
        templates=("trojan payload quarantined on endpoint during scheduled sweep",),
        drift_templates=(
            "trojan payload quarantined on endpoint during scheduled sweep after signature update push",
        ),
        drift_week=13,
        tech=("t1204",),
        attack=("execution",),
        risk_tag=("malware",),
        late_burst=True,
    ),
    ScriptedTopic(
        name="ops-noise",
        product="opsmon",
        event_type="ops_notice",
        assets=("ops-01", "ops-02", "ops-03"),
        weekly_counts=(8,) * 13,
        templates=(
            "nightly backup job completed with warnings",
            "dns resolution timeout observed for internal zone",
            "patch rollout finished on maintenance group",
            "disk usage threshold exceeded on logging volume",
            "certificate transparency monitor heartbeat missed",
            "network flow export lag detected on collector",
            "license usage report generated for platform tools",
            "configuration drift check passed on baseline profile",
        ),
        in_truth=False,
    ),
)

FRESHNESS_QUERY_TOPICS = ("vpn-cert", "phish-campaign", "edr-quarantine")

# (topic, query text skews toward that topic's vocabulary, as-of cutoff)
ASOF_QUERIES = (
    ("okta-auth-fail", "okta auth_fail mfa challenge denied login", "2025-04-27T23:59:59+00:00"),
    ("data-access", "dataplatform data_access bulk read finance", "2025-05-18T23:59:59+00:00"),
    ("vuln-scan", "nessus vuln_scan scan completed subnet critical findings", "2025-06-08T23:59:59+00:00"),
)


@dataclass(frozen=True)
class GenResult:
    log_files: tuple[Path, ...]
    ground_truth_path: Path
    eval_config_path: Path
    total_events: int


def _fill(template: str, rng: random.Random) -> str:
    def draw(match: re.Match) -> str:
        key = match.group(1)
        if key == "n":
            return str(rng.randrange(1, 15))
        if key not in _POOLS:
            raise KeyError(f"unknown placeholder {key!r}")
        return rng.choice(_POOLS[key])

    return _PLACEHOLDER_RE.sub(draw, template)


def _last_populated_week(counts: tuple[int, ...]) -> int:
    return max(i + 1 for i, c in enumerate(counts) if c > 0)


def generate_stream(seed: int, out_dir: Path | str) -> GenResult:
    """Write the scripted stream (one JSONL per week), ground truth, and query config."""
    out = Path(out_dir)
    rng = random.Random(seed)
    micros = itertools.count(1)  # unique sub-second offset keeps every ts distinct

    week_records: dict[WeekKey, list[tuple[datetime, dict]]] = {w: [] for w in STREAM_WEEKS}
    topic_event_ids: dict[str, list[str]] = {t.name: [] for t in TOPICS}

    for topic in TOPICS:
        burst_week = _last_populated_week(topic.weekly_counts) if topic.late_burst else None
        for wi, count in enumerate(topic.weekly_counts, start=1):
            if count == 0:
                continue
            week = STREAM_WEEKS[wi - 1]
            monday = week.monday()
            pool = topic.pool(wi)
            for j in range(count):
                terminal = topic.late_burst and wi == burst_week and j >= count - 2
                if terminal:
                    ts = monday + timedelta(seconds=_TERMINAL_OFFSET)
                    asset = topic.assets[(j - (count - 2)) % len(topic.assets)]
                elif topic.late_burst and wi == burst_week:
                    offset = rng.randrange(_BURST_WINDOW_START, _BURST_WINDOW_END)
                    ts = monday + timedelta(seconds=offset, microseconds=next(micros))
                    asset = topic.assets[0]
                else:
                    offset = rng.randrange(_SECONDS_PER_WEEK)
                    ts = monday + timedelta(seconds=offset, microseconds=next(micros))
                    # Freshness topics keep one asset so the stale cohort embeds identically.
                    asset = topic.assets[0] if topic.late_burst else rng.choice(topic.assets)
                msg = _fill(rng.choice(pool), rng)
                record = {
                    "ts": ts.isoformat(),
                    "product": topic.product,
                    "event_type": topic.event_type,
                    "asset_id": asset,
                    "msg": msg,
                    "context": {"topic_seq": str(j), "week": str(week)},
                    "tech": list(topic.tech),
                    "attack": list(topic.attack),
                    "risk_tag": list(topic.risk_tag),
                }
                week_records[week].append((ts, record))
                topic_event_ids[topic.name].append(
                    derive_event_id(ts, topic.product, topic.event_type, asset, msg)
                )

    log_files = []
    total = 0
    for week in STREAM_WEEKS:
        records = sorted(
            week_records[week], key=lambda pair: (pair[0], pair[1]["asset_id"], pair[1]["msg"])
        )
        path = out / f"events-{week}.jsonl"
        with atomic_write(path) as fh:
            for _, record in records:
                fh.write(_JSON(record))  # one encoder for every line; json.dumps would build one per call
                fh.write("\n")
        log_files.append(path)
        total += len(records)

    ground_truth = {
        "seed": seed,
        "now": STREAM_NOW.isoformat(),
        "weeks": [str(w) for w in STREAM_WEEKS],
        "topics": {
            topic.name: {
                "weekly_counts": {
                    str(STREAM_WEEKS[i]): c for i, c in enumerate(topic.weekly_counts)
                },
                "truth": {
                    str(STREAM_WEEKS[wi - 1]): label for wi, label in topic.truth_labels().items()
                },
                "event_ids": topic_event_ids[topic.name],
            }
            for topic in TOPICS
            if topic.in_truth
        },
    }
    gt_path = out / GROUND_TRUTH_FILE
    write_json(ground_truth, gt_path)

    eval_config = {
        "ground_truth": GROUND_TRUTH_FILE,
        "now": STREAM_NOW.isoformat(),
        "top_k": RetrievalParams.top_k,
        "alphas": list(DEFAULT_ALPHAS),
        "queries": _query_suite(),
    }
    eval_path = out / EVAL_CONFIG_FILE
    write_json(eval_config, eval_path, sort_keys=False)

    return GenResult(
        log_files=tuple(log_files),
        ground_truth_path=gt_path,
        eval_config_path=eval_path,
        total_events=total,
    )


def _query_suite() -> list[dict]:
    by_name = {t.name: t for t in TOPICS}
    queries: list[dict] = []
    for name in FRESHNESS_QUERY_TOPICS:
        topic = by_name[name]
        text = build_text_repr(
            topic.product,
            topic.event_type,
            topic.assets[0],
            topic.templates[0],
            topic.tech,
            topic.attack,
            topic.risk_tag,
        )
        queries.append({"text": text, "type": "freshness", "topic": name})
    for name, text, cutoff in ASOF_QUERIES:
        queries.append({"text": text, "type": "as_of", "topic": name, "cutoff": cutoff})
    return queries
