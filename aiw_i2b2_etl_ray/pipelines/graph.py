"""Derivation-graph traversal as a dataset operator — the engine's J2
analog (dest/table/PropositionFactHandler.java:56-58,78-81,110-132): the
reference walks a bounded per-key record graph (encounter -> referenced
propositions -> their forward derivations, 2 hops) inside each patient's
handleQueryResult group.

Partitioning assumption (same as the reference's): derivation edges NEVER
cross the partition key — every edge connects records of the same key
(patient there, ``user_id`` here) — so one ``keyed_fold`` on ``user_id``
co-locates each key's whole subgraph and the walk is an in-memory shift
per hop over the block, no iterative joins.  A graph with cross-key edges would instead need the
iterative edges-dataset join (one bucketed join per hop, SURVEY.md J2).
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray.data as rd

from ..stages.exchange import keyed_fold

MAX_DEPTH = 2  # the reference's bounded 2-hop walk
ROOT_TYPE = "signup"  # roots of the walk (encounter analog)


def derivation_reach(sf_dir: str) -> rd.Dataset:
    """For every root event (type ``signup``), the events reachable through
    the per-user derivation chain (each event derives the user's next
    event) within MAX_DEPTH hops.  Output: (root_id, reached_id, depth)."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "event_type"]
    )

    def walk(block: pa.Table) -> pa.Table:
        # edge i -> i+1 (the user's next event is its forward derivation),
        # so the event ``depth`` hops on is the user's ``depth``-th next
        df = pl.from_arrow(block.select(["event_id", "user_id", "event_type"]))
        df = df.sort(["user_id", "event_id"])
        hops = [
            df.select(
                pl.col("event_id").alias("root_id"),
                pl.col("event_id").shift(-depth).over("user_id").alias("reached_id"),
                pl.lit(depth, pl.Int64).alias("depth"),
                "event_type",
            )
            for depth in range(1, MAX_DEPTH + 1)
        ]
        return (
            pl.concat(hops)
            .filter((pl.col("event_type") == ROOT_TYPE) & pl.col("reached_id").is_not_null())
            .drop("event_type")
            .to_arrow()
        )

    return keyed_fold(ds, ["user_id"], walk)


SQL_DERIVATION_REACH = f"""
WITH ordered AS (
  SELECT event_id, user_id, event_type,
         LEAD(event_id) OVER (PARTITION BY user_id ORDER BY event_id) AS nxt
  FROM events
),
e1 AS (SELECT event_id AS src, nxt AS dst FROM ordered WHERE nxt IS NOT NULL),
roots AS (SELECT event_id FROM events WHERE event_type = '{ROOT_TYPE}')
SELECT r.event_id AS root_id, a.dst AS reached_id, CAST(1 AS BIGINT) AS depth
FROM roots r JOIN e1 a ON a.src = r.event_id
UNION ALL
SELECT r.event_id, b.dst, CAST(2 AS BIGINT)
FROM roots r JOIN e1 a ON a.src = r.event_id JOIN e1 b ON b.src = a.dst
"""
