"""Stream-shaped operators over the ordered ``events`` log.

Ray Data has no event-time windows (ray_guide.md §streaming); the engine
expresses them as: a ``keyed_fold`` on the key (the shuffle), one sort by
(key, timestamp) per block, then vectorized window logic over each key
(polars ``.over(key)``) — the same ordered-replay-within-partition
contract the CDC merge relies on.

Reference analog: per-key interval ordering before fact emission
(AllPropositionIntervalComparator at dest/table/PropositionFactHandler.java:53-54,
:86-96) and the monotonic instance-num assignment
(dest/table/IncrNumFactory.java:28-38 — here made deterministic as a
per-key rank, SURVEY.md ST9).
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray.data as rd

from ..stages.exchange import keyed_fold

WINDOW_US = 3600 * 1_000_000  # 1h tumbling
SESSION_GAP_US = 30 * 60 * 1_000_000  # 30min inactivity closes a session

#: event time as µs epoch (ns-written parquet would be 1000x off)
TS_US = pl.col("ts").cast(pl.Datetime("us")).cast(pl.Int64)


def user_ordered(block: pa.Table, cols: list[str]) -> pl.DataFrame:
    """``cols`` of a keyed-fold block, each user's events in (ts,
    event_id) order, nulls last (SQL's ``ORDER BY ts, event_id``)."""
    return pl.from_arrow(block.select(cols)).sort(
        ["user_id", "ts", "event_id"], nulls_last=True
    )


def user_row_number() -> pl.Expr:
    """1-based ROW_NUMBER within each user of a :func:`user_ordered` frame."""
    return pl.int_range(1, pl.len() + 1, dtype=pl.Int64).over("user_id")


def event_rank(sf_dir: str) -> rd.Dataset:
    """Deterministic per-key sequence numbers: rank of each event within
    its user ordered by (ts, event_id) — the IncrNumFactory analog."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def rank(block: pa.Table) -> pa.Table:
        df = user_ordered(block, ["event_id", "user_id", "ts"])
        return df.select("event_id", "user_id", user_row_number().alias("instance_num")).to_arrow()

    return keyed_fold(ds, ["user_id"], rank)


SQL_EVENT_RANK = """
SELECT event_id, user_id,
       ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS instance_num
FROM events
"""


def tumbling_counts(sf_dir: str) -> rd.Dataset:
    """1-hour tumbling-window counts per user: window assignment is a
    stateless vectorized map (epoch µs // width), then a grouped count with
    per-batch partial pre-aggregation — windows never shuffle raw rows."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"])

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).with_columns(
            (pl.col("ts").cast(pl.Datetime("us")).cast(pl.Int64) // WINDOW_US).alias(
                "window_id"
            )
        )
        return (
            df.group_by(["user_id", "window_id"])
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "window_id"])
        .aggregate(Sum("pn", alias_name="n_events"))
    )


SQL_TUMBLING_COUNTS = f"""
SELECT user_id,
       CAST(epoch_us(ts) // {WINDOW_US} AS BIGINT) AS window_id,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM events GROUP BY user_id, window_id
"""


def session_windows(sf_dir: str) -> rd.Dataset:
    """Gap-based sessionization: per user, a new session starts when the
    gap since the previous event exceeds 30 min; emits one row per session
    with bounds and count.  Requires only per-key ordering — the engine's
    standard partitioned-sort contract."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def sessions(block: pa.Table) -> pa.Table:
        df = user_ordered(block, ["event_id", "user_id", "ts"])
        # a user's first event opens a session, so a running count of
        # openings over the whole sorted block numbers every session
        new = (TS_US.diff().over("user_id") > SESSION_GAP_US).fill_null(True)
        return (
            df.with_columns(new.cum_sum().alias("sid"))
            .group_by("sid")
            .agg(
                pl.col("user_id").first(),
                pl.col("ts").min().alias("session_start"),
                pl.col("ts").max().alias("session_end"),
                pl.len().cast(pl.Int64).alias("n_events"),
            )
            .drop("sid")
            .to_arrow()
        )

    return keyed_fold(ds, ["user_id"], sessions)


SQL_SESSION_WINDOWS = f"""
WITH ordered AS (
  SELECT user_id, ts, event_id,
         CASE WHEN epoch_us(ts) - epoch_us(LAG(ts) OVER w) > {SESSION_GAP_US}
              OR LAG(ts) OVER w IS NULL THEN 1 ELSE 0 END AS is_new
  FROM events
  WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
),
tagged AS (
  SELECT user_id, ts,
         SUM(is_new) OVER (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS UNBOUNDED PRECEDING) AS sid
  FROM ordered
)
SELECT user_id, MIN(ts) AS session_start, MAX(ts) AS session_end,
       CAST(COUNT(*) AS BIGINT) AS n_events
FROM tagged GROUP BY user_id, sid
"""


HOP_US = WINDOW_US // 2  # hopping window: size WINDOW_US, hop = size/2


def hopping_counts(sf_dir: str) -> rd.Dataset:
    """Hopping (sliding) window counts per user: size = 1h, hop = 30min —
    each event contributes to exactly size/hop (=2) overlapping windows.
    Window assignment is a stateless fan-out map (2 rows per event, ids
    only), then the same partial-preaggregated grouped count as the
    tumbling variant — raw rows never shuffle, only (user, window, partial
    count) triples."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    arms = WINDOW_US // HOP_US

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).with_columns(
            (pl.col("ts").cast(pl.Datetime("us")).cast(pl.Int64) // HOP_US).alias("h")
        )
        parts = [
            df.with_columns((pl.col("h") - i).alias("window_hop"))
            for i in range(arms)
        ]
        return (
            pl.concat(parts)
            .group_by(["user_id", "window_hop"])
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "window_hop"])
        .aggregate(Sum("pn", alias_name="n_events"))
    )


SQL_HOPPING_COUNTS = f"""
WITH h AS (
  SELECT user_id, CAST(epoch_us(ts) // {HOP_US} AS BIGINT) AS h FROM events
),
fanned AS (
  SELECT user_id, h - 0 AS window_hop FROM h
  UNION ALL
  SELECT user_id, h - 1 FROM h
)
SELECT user_id, window_hop, CAST(COUNT(*) AS BIGINT) AS n_events
FROM fanned GROUP BY user_id, window_hop
"""
