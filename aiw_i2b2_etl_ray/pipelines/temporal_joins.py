"""Temporal joins: as-of join and interval/range join.

Ray Data has no native as-of or range join; the engine expresses both with
the same single-shuffle discipline as the CDC core:

* **as-of join** — one ``keyed_fold`` of both sides on the equi-key (the
  bucketed-join pattern from ``stages/join.py``), then a vectorized
  ``polars.join_asof(by=key)`` per block.  One all-to-all total.
* **range join** (no equi-key) — coarse time-bucket both sides with bucket
  width >= the interval width, so every interval overlaps at most 2 buckets.
  Interval rows replicate to those <=2 buckets (ids + bounds only, never
  payload); point rows land in exactly one bucket, so per-interval partial
  counts add without double counting.  Within a bucket the match is a
  sort + ``searchsorted`` prefix-sum — O(n log n) vectorized, no pair
  explosion.  A ``keyed_fold`` on the time bucket brings each bucket's rows
  to one block, and the kernel matches the block's buckets one by one.

Reference analog: the temporal-ordering joins the reference pushes into
source SQL and interval comparators (dest/table/PropositionFactHandler.java:53-54,
86-96; dsb/I2B2DataSourceBackend.java:256-290).
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import ray.data as rd

from ..functions.numeric import round_half_away_pc
from ..schemas import ensure_columns
from ..stages.exchange import keyed_fold
from ..util import worker_runtime_env

DAY_US = 86_400 * 1_000_000
RANGE_DAYS = 7  # range-join interval width: [o_orderdate, +7 days)


def asof_join_events_orders(sf_dir: str) -> rd.Dataset:
    """For every event, the most recent order of the same customer at or
    before the event timestamp (ties on order date break to the highest
    order key).  Inner semantics: events with no prior order are dropped.

    Physical plan: union both sides on a unified schema, one
    ``keyed_fold`` on the customer key, then a per-block
    ``polars.join_asof(by=key)`` after an in-block sort — raw rows cross
    the wire exactly once.
    """
    events = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )
    unified = pa.schema(
        [
            pa.field("key", pa.int64()),
            pa.field("event_id", pa.int64()),
            pa.field("ts", pa.timestamp("us")),
            pa.field("o_orderkey", pa.int64()),
            pa.field("o_orderdate", pa.timestamp("us")),
            pa.field("_side", pa.string()),
        ]
    )

    def prep(side: str, key_col: str):
        def fn(t: pa.Table) -> pa.Table:
            t = t.append_column("key", t[key_col].cast(pa.int64()))
            t = t.drop_columns([key_col])
            t = t.append_column("_side", pa.array([side] * len(t)))
            return ensure_columns(t, unified)

        return fn

    lt = events.map_batches(prep("l", "user_id"), batch_format="pyarrow", **worker_runtime_env())
    rt = orders.map_batches(prep("r", "o_custkey"), batch_format="pyarrow", **worker_runtime_env())

    def join_bucket(g: pa.Table) -> pa.Table:
        import warnings

        # both frames are sorted below; polars just can't verify it per `by` group
        warnings.filterwarnings("ignore", message="Sortedness")
        df = pl.from_arrow(g)
        lhs = (
            df.filter(pl.col("_side") == "l")
            .select("key", "event_id", "ts")
            .sort("ts")
        )
        rhs = (
            df.filter(pl.col("_side") == "r")
            .select("key", "o_orderkey", "o_orderdate")
            # deterministic ties: one row per (key, date), keeping max orderkey
            .sort("key", "o_orderdate", "o_orderkey")
            .unique(subset=["key", "o_orderdate"], keep="last", maintain_order=True)
            .sort("o_orderdate")
        )
        out = lhs.join_asof(rhs, left_on="ts", right_on="o_orderdate", by="key", strategy="backward")
        out = out.drop_nulls("o_orderkey")  # inner semantics
        return out.rename({"key": "user_id"}).select(
            "event_id", "user_id", "ts", "o_orderkey", "o_orderdate"
        ).to_arrow()

    return keyed_fold(lt.union(rt), ["key"], join_bucket)


SQL_ASOF_JOIN = """
SELECT event_id, user_id, ts, o_orderkey, o_orderdate FROM (
  SELECT e.event_id, e.user_id, e.ts, o.o_orderkey, o.o_orderdate,
         ROW_NUMBER() OVER (PARTITION BY e.event_id
                            ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) AS rn
  FROM events e
  JOIN orders o ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
) WHERE rn = 1
"""


def range_join_orders_shipments(sf_dir: str) -> rd.Dataset:
    """Per order: how many lineitems (any order) shipped inside
    ``[o_orderdate, o_orderdate + 7 days)`` and their total quantity — a
    pure interval join with NO equi-key.

    Physical plan: bucket width = interval width (7 days of epoch-µs), so
    an order's interval overlaps at most 2 buckets; the order row (key +
    bounds, 24 bytes) replicates to both, each shipment row lands in
    exactly one.  Inside a bucket, shipments are sorted once and each
    order's count/sum is two ``searchsorted`` probes against prefix sums.
    Partials then fold in a tiny keyed groupby (<=2 rows per order).
    """
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    )
    lineitem = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_shipdate", "l_quantity"]
    )
    width_us = RANGE_DAYS * DAY_US

    unified = pa.schema(
        [
            pa.field("o_orderkey", pa.int64()),
            pa.field("lo", pa.int64()),   # interval bounds (orders side)
            pa.field("hi", pa.int64()),
            pa.field("pt", pa.int64()),   # point (shipments side)
            pa.field("qty", pa.float64()),
            pa.field("_tb", pa.int64()),
            pa.field("_side", pa.string()),
        ]
    )

    def prep_orders(t: pa.Table) -> pa.Table:
        lo = (
            t["o_orderdate"]
            .cast(pa.timestamp("us"))  # normalize ns-written parquet to the engine's µs epoch
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        hi = lo + width_us
        key = t["o_orderkey"].to_numpy(zero_copy_only=False)
        b0 = lo // width_us
        b1 = (hi - 1) // width_us  # inclusive end bucket; == b0 or b0+1
        reps = []
        for b in (b0, b1):
            keep = np.ones(len(b), dtype=bool) if b is b0 else (b1 != b0)
            reps.append(
                pa.table(
                    {
                        "o_orderkey": key[keep],
                        "lo": lo[keep],
                        "hi": hi[keep],
                        "_tb": b[keep],
                    }
                )
            )
        out = pa.concat_tables(reps)
        out = out.append_column("_side", pa.array(["i"] * len(out)))
        return ensure_columns(out, unified)

    def prep_ship(t: pa.Table) -> pa.Table:
        pt = t["l_shipdate"].cast(pa.timestamp("us")).cast(pa.int64())
        out = pa.table(
            {
                "pt": pt,
                "qty": t["l_quantity"].cast(pa.float64()),
                "_tb": pa.compute.divide(pt, width_us),
            }
        )
        out = out.append_column("_side", pa.array(["p"] * len(out)))
        return ensure_columns(out, unified)

    it = orders.map_batches(prep_orders, batch_format="pyarrow", **worker_runtime_env())
    st = lineitem.map_batches(prep_ship, batch_format="pyarrow", **worker_runtime_env())

    def match_bucket(df: pl.DataFrame) -> pa.Table:
        ivs = df.filter(pl.col("_side") == "i")
        pts = df.filter(pl.col("_side") == "p").sort("pt")
        if ivs.height == 0 or pts.height == 0:
            return pa.table(
                {
                    "o_orderkey": pa.array([], pa.int64()),
                    "pn": pa.array([], pa.int64()),
                    "pq": pa.array([], pa.float64()),
                }
            )
        pt = pts["pt"].to_numpy()
        cqty = np.concatenate([[0.0], np.cumsum(pts["qty"].to_numpy())])
        lo = np.searchsorted(pt, ivs["lo"].to_numpy(), side="left")
        hi = np.searchsorted(pt, ivs["hi"].to_numpy(), side="left")
        n = (hi - lo).astype(np.int64)
        q = cqty[hi] - cqty[lo]
        keep = n > 0
        return pa.table(
            {
                "o_orderkey": ivs["o_orderkey"].to_numpy()[keep],
                "pn": n[keep],
                "pq": q[keep],
            }
        )

    from ray.data.aggregate import Sum

    def match_block(g: pa.Table) -> pa.Table:
        parts = pl.from_arrow(g).partition_by("_tb")
        return pa.concat_tables([match_bucket(df) for df in parts])

    folded = (
        keyed_fold(it.union(st), ["_tb"], match_block)
        .groupby("o_orderkey")
        .aggregate(Sum("pn", alias_name="n_shipped"), Sum("pq", alias_name="qty_shipped"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "n_shipped": t["n_shipped"].cast(pa.int64()),
                "qty_shipped": round_half_away_pc(t["qty_shipped"], 2),
            }
        )

    return folded.map_batches(finish, batch_format="pyarrow")


SQL_RANGE_JOIN = f"""
SELECT o.o_orderkey,
       CAST(COUNT(*) AS BIGINT)  AS n_shipped,
       ROUND(SUM(l.l_quantity), 2) AS qty_shipped
FROM orders o
JOIN lineitem l
  ON l.l_shipdate >= o.o_orderdate
 AND l.l_shipdate < o.o_orderdate + INTERVAL {RANGE_DAYS} DAY
GROUP BY o.o_orderkey
"""


B_DAYS = 3  # shipment-activity window length: [l_shipdate, +3 days)


def overlap_join(sf_dir: str) -> rd.Dataset:
    """Interval-OVERLAP join (interval x interval, no equi-key): per
    order-activity window [o_orderdate, +7d), how many shipment-activity
    windows [l_shipdate, +3d) overlap it.

    Harder than the interval-x-point range join: BOTH sides replicate to
    the <=2 time buckets their window touches (bucket width >= both
    lengths), so an overlapping pair can co-occur in two buckets.  The
    canonical-bucket rule dedups without a second shuffle: a pair is
    COUNTED only in the bucket containing max(start_a, start_b) — the
    start of the overlap region, which both replicas provably cover.
    Within a bucket the count is two searchsorted probes (fixed window
    lengths make the end bound an arithmetic offset)."""
    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"])
    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_shipdate"])
    W = RANGE_DAYS * DAY_US  # bucket width = max(7d, 3d)
    LB = B_DAYS * DAY_US

    def prep_a(t: pa.Table) -> pa.Table:
        s = t["o_orderdate"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(zero_copy_only=False)
        e = s + RANGE_DAYS * DAY_US
        key = t["o_orderkey"].to_numpy(zero_copy_only=False)
        b0, b1 = s // W, (e - 1) // W
        reps = []
        for b, keep in ((b0, np.ones(len(s), bool)), (b1, b1 != b0)):
            reps.append(
                pa.table(
                    {
                        "key": key[keep],
                        "sa": s[keep],
                        "ea": e[keep],
                        "_tb": b[keep],
                    }
                )
            )
        out = pa.concat_tables(reps)
        out = out.append_column("_side", pa.array(["a"] * len(out)))
        return ensure_columns(out, _OVERLAP_SCHEMA)

    def prep_b(t: pa.Table) -> pa.Table:
        s = t["l_shipdate"].cast(pa.timestamp("us")).cast(pa.int64()).to_numpy(zero_copy_only=False)
        e = s + LB
        b0, b1 = s // W, (e - 1) // W
        reps = []
        for b, keep in ((b0, np.ones(len(s), bool)), (b1, b1 != b0)):
            reps.append(pa.table({"sb": s[keep], "_tb": b[keep]}))
        out = pa.concat_tables(reps)
        out = out.append_column("_side", pa.array(["b"] * len(out)))
        return ensure_columns(out, _OVERLAP_SCHEMA)

    def match_bucket(df: pl.DataFrame) -> pa.Table:
        k = int(df["_tb"][0])
        A = df.filter(pl.col("_side") == "a")
        B = df.filter(pl.col("_side") == "b")
        if A.height == 0 or B.height == 0:
            return pa.table({"o_orderkey": pa.array([], pa.int64()), "pn": pa.array([], pa.int64())})
        sbs = np.sort(B["sb"].to_numpy())
        sa = A["sa"].to_numpy()
        ea = A["ea"].to_numpy()
        klo, khi = k * W, (k + 1) * W
        # overlap: sb in (sa - LB, ea).  canonical split on max(sa, sb):
        # (1) sb <= sa  -> counted where A's own start lies (this bucket?)
        c1 = np.searchsorted(sbs, sa, side="right") - np.searchsorted(
            sbs, sa - LB, side="right"
        )
        c1 = np.where((sa // W) == k, c1, 0)
        # (2) sb > sa -> counted in sb's own bucket: sb in [klo, khi) too
        lo_excl = np.maximum(sa, klo - 1)
        hi = np.minimum(ea, khi)
        c2 = np.searchsorted(sbs, hi, side="left") - np.searchsorted(
            sbs, lo_excl, side="right"
        )
        c2 = np.maximum(c2, 0)
        n = (c1 + c2).astype(np.int64)
        keep = n > 0
        return pa.table(
            {"o_orderkey": A["key"].to_numpy()[keep], "pn": n[keep]}
        )

    def match_block(g: pa.Table) -> pa.Table:
        parts = pl.from_arrow(g).partition_by("_tb")
        return pa.concat_tables([match_bucket(df) for df in parts])

    from ray.data.aggregate import Sum

    both = orders.map_batches(prep_a, batch_format="pyarrow", **worker_runtime_env()).union(
        line.map_batches(prep_b, batch_format="pyarrow", **worker_runtime_env())
    )
    return (
        keyed_fold(both, ["_tb"], match_block)
        .groupby("o_orderkey")
        .aggregate(Sum("pn", alias_name="n_overlapping"))
        .map_batches(
            lambda t: pa.table(
                {
                    "o_orderkey": t["o_orderkey"],
                    "n_overlapping": t["n_overlapping"].cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


_OVERLAP_SCHEMA = pa.schema(
    [
        pa.field("key", pa.int64()),
        pa.field("sa", pa.int64()),
        pa.field("ea", pa.int64()),
        pa.field("sb", pa.int64()),
        pa.field("_tb", pa.int64()),
        pa.field("_side", pa.string()),
    ]
)


SQL_OVERLAP_JOIN = f"""
SELECT o.o_orderkey, CAST(COUNT(*) AS BIGINT) AS n_overlapping
FROM orders o
JOIN lineitem l
  ON l.l_shipdate < o.o_orderdate + INTERVAL {RANGE_DAYS} DAY
 AND o.o_orderdate < l.l_shipdate + INTERVAL {B_DAYS} DAY
GROUP BY o.o_orderkey
"""
