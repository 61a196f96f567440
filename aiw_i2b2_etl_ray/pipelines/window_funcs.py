"""SQL-window-function analogs: running/cumulative aggregates, sliding
frames, per-group top-k, ROLLUP grouping sets, and grouped COUNT(DISTINCT).

All follow the engine's two physical contracts:

* per-key ordered logic = one ``keyed_fold`` (stages/exchange.py) whose
  polars kernel sorts its block by (key, order) once and runs the window
  logic over every key at once (``.over(key)``, ``group_by``) — the same
  partitioned-sort contract the CDC merge and sessionization use
  (stages/merge.py, pipelines/windows.py);
* unordered aggregates = per-batch partial combine in ``map_batches`` before
  the (tiny) keyed groupby, so raw rows never shuffle.

Reference analog: the reference leans on source-SQL window functions and
ordered comparators (dsb/I2B2DataSourceBackend.java:256-290,
dest/table/PropositionFactHandler.java:53-96); here each is a first-class
distributed operator.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Sum

from ..functions.numeric import round_half_away, round_half_away_pc, round_half_away_pl
from ..stages.exchange import keyed_fold
from ..util import worker_runtime_env
from .windows import TS_US, user_ordered, user_row_number


def _rounded(df: pl.DataFrame, col: str, scale: float = 1.0) -> pa.Table:
    """``df`` as Arrow with ``col`` divided by ``scale`` and rounded half
    away from zero to 4 places, both in numpy: polars may turn a divide by
    a literal into a multiply by its reciprocal, one ULP off DuckDB."""
    t = df.to_arrow()
    v = round_half_away(df[col].to_numpy().astype(np.float64) / scale, 4)
    return t.set_column(t.column_names.index(col), col, pa.array(v))


def cumulative_value(sf_dir: str) -> rd.Dataset:
    """Per-user running sum of ``value`` in (ts, event_id) order — the
    cumulative-aggregate window frame (SUM ... ROWS UNBOUNDED PRECEDING).
    One keyed fold; the kernel is a running sum over each user."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def cum(block: pa.Table) -> pa.Table:
        df = user_ordered(block, ["event_id", "user_id", "ts", "value"])
        run = pl.col("value").fill_nan(None).fill_null(0.0).cum_sum().over("user_id")
        return _rounded(df.select("event_id", "user_id", run.alias("running_value")), "running_value")

    return keyed_fold(ds, ["user_id"], cum)


SQL_CUMULATIVE_VALUE = """
SELECT event_id, user_id,
       ROUND(SUM(COALESCE(value, 0)) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS UNBOUNDED PRECEDING), 4) AS running_value
FROM events
"""


def sliding_avg(sf_dir: str) -> rd.Dataset:
    """Per-user 3-row moving average of ``value`` (ROWS 2 PRECEDING) —
    the bounded sliding frame: the mean of the non-null values among each
    row and its user's two previous rows."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "value"]
    )

    def slide(block: pa.Table) -> pa.Table:
        df = user_ordered(block, ["event_id", "user_id", "ts", "value"])
        frame = [pl.col("value").fill_nan(None).shift(k).over("user_id") for k in (2, 1, 0)]
        n = pl.sum_horizontal([v.is_not_null() for v in frame])
        avg = pl.when(n > 0).then(pl.sum_horizontal(frame) / n)
        return _rounded(df.select("event_id", "user_id", avg.alias("avg3")), "avg3")

    return keyed_fold(ds, ["user_id"], slide)


SQL_SLIDING_AVG = """
SELECT event_id, user_id,
       ROUND(AVG(value) OVER (
         PARTITION BY user_id ORDER BY ts, event_id
         ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 4) AS avg3
FROM events
"""


def topk_orders_per_customer(sf_dir: str) -> rd.Dataset:
    """Top-3 orders by price per customer (ROW_NUMBER <= 3 analog).

    Scale shape: each batch first prunes to its local per-customer top-3
    (a combiner), so at most 3 rows per (batch, customer) shuffle; the
    keyed group then takes the global top-3.  Never ships a customer's
    full order history through the exchange."""
    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).sort(
            ["o_custkey", "o_totalprice", "o_orderkey"], descending=[False, True, False]
        )
        return df.group_by("o_custkey", maintain_order=True).head(3).to_arrow()

    def final(block: pa.Table) -> pa.Table:
        df = pl.from_arrow(block.select(["o_custkey", "o_orderkey", "o_totalprice"])).sort(
            ["o_custkey", "o_totalprice", "o_orderkey"], descending=[False, True, False]
        )
        rk = pl.int_range(1, pl.len() + 1, dtype=pl.Int64).over("o_custkey")
        return df.with_columns(rk.alias("rk")).filter(pl.col("rk") <= 3).to_arrow()

    partials = ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
    return keyed_fold(partials, ["o_custkey"], final)


SQL_TOPK_PER_CUSTOMER = """
SELECT o_custkey, o_orderkey, o_totalprice, rk FROM (
  SELECT o_custkey, o_orderkey, o_totalprice,
         ROW_NUMBER() OVER (PARTITION BY o_custkey
                            ORDER BY o_totalprice DESC, o_orderkey) AS rk
  FROM orders
) WHERE rk <= 3
"""


def rollup_pricing(sf_dir: str) -> rd.Dataset:
    """GROUP BY ROLLUP(l_returnflag, l_linestatus): the three grouping
    levels emitted from ONE pass.  The finest level is computed with the
    usual partial-combine + small groupby; the coarser levels are folded
    from that tiny result (a few rows) in a final single-block map — the
    raw table is read exactly once and never re-shuffled."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_returnflag", "l_linestatus", "l_quantity"]
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["l_returnflag", "l_linestatus"])
            .agg(
                pl.len().cast(pl.Int64).alias("pn"),
                pl.col("l_quantity").sum().alias("pq"),
            )
            .to_arrow()
        )

    finest = (
        ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("pn", alias_name="n_items"), Sum("pq", alias_name="sum_qty"))
    )

    def fold(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        lvl1 = df.group_by("l_returnflag").agg(
            pl.col("n_items").sum(), pl.col("sum_qty").sum()
        ).with_columns(pl.lit(None, dtype=pl.Utf8).alias("l_linestatus"))
        lvl0 = df.select(
            pl.col("n_items").sum(), pl.col("sum_qty").sum()
        ).with_columns(
            pl.lit(None, dtype=pl.Utf8).alias("l_returnflag"),
            pl.lit(None, dtype=pl.Utf8).alias("l_linestatus"),
        )
        cols = ["l_returnflag", "l_linestatus", "n_items", "sum_qty"]
        out = pl.concat([df.select(cols), lvl1.select(cols), lvl0.select(cols)])
        out = out.with_columns(pl.col("n_items").cast(pl.Int64))
        t = out.to_arrow()
        return t.set_column(
            t.column_names.index("sum_qty"), "sum_qty", round_half_away_pc(t["sum_qty"], 2)
        )

    # the finest level is a handful of rows — fold all grouping sets in one block
    return finest.repartition(1).map_batches(fold, batch_format="pyarrow")


SQL_ROLLUP_PRICING = """
SELECT l_returnflag, l_linestatus,
       CAST(COUNT(*) AS BIGINT) AS n_items,
       ROUND(SUM(l_quantity), 2) AS sum_qty
FROM lineitem GROUP BY ROLLUP(l_returnflag, l_linestatus)
"""


def users_per_type(sf_dir: str) -> rd.Dataset:
    """COUNT(DISTINCT user_id) per event_type — the distributed
    distinct-then-count plan: per-batch pair dedup (combiner), one keyed
    shuffle to global-dedup the (type, user) pairs, then a per-batch
    partial count folded by a second tiny groupby.  Raw events never
    shuffle; at most |types|*|users| pairs do."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "user_id"])

    def pair_dedup(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).unique(subset=["event_type", "user_id"]).to_arrow()

    def count_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("event_type")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    from ray.data.aggregate import Count

    pairs = (
        ds.map_batches(pair_dedup, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["event_type", "user_id"])
        .aggregate(Count())  # vectorized global pair-dedup; count discarded
        .select_columns(["event_type", "user_id"])
    )
    return (
        pairs.map_batches(count_partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("pn", alias_name="n_users"))
    )


SQL_USERS_PER_TYPE = """
SELECT event_type, CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
FROM events GROUP BY event_type
"""


QUANTS = (0.25, 0.5, 0.75)


def value_quantiles(sf_dir: str) -> rd.Dataset:
    """Exact continuous quantiles (p25/p50/p75) of ``value`` per
    event_type — linear interpolation, matching SQL ``quantile_cont``.
    One keyed fold; numpy quantile per event_type.  (Exactness
    requires the group's values on one worker — the engine's documented
    per-partition-fits-a-worker contract; the approximate path for
    unbounded groups is the HLL/sketch family in pipelines/sketches.py.)"""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def quants(block: pa.Table) -> pa.Table:
        vals = pl.col("value").filter(pl.col("value").is_not_nan())  # drops nulls too
        by_type = pl.from_arrow(block.select(["event_type", "value"]))
        by_type = by_type.group_by("event_type").agg(vals)
        qs = np.array(
            [
                np.quantile(v, QUANTS) if len(v) else np.full(len(QUANTS), np.nan)
                for v in by_type["value"].to_numpy()
            ]
        ).reshape(-1, len(QUANTS))
        qs = round_half_away(qs, 4)
        cols = {f"p{int(q * 100)}": qs[:, i] for i, q in enumerate(QUANTS)}
        return pa.table({"event_type": by_type["event_type"].to_arrow(), **cols})

    return keyed_fold(ds, ["event_type"], quants)


SQL_VALUE_QUANTILES = """
SELECT event_type,
       ROUND(quantile_cont(value, 0.25), 4) AS p25,
       ROUND(quantile_cont(value, 0.50), 4) AS p50,
       ROUND(quantile_cont(value, 0.75), 4) AS p75
FROM events GROUP BY event_type
"""


PIVOT_TYPES = ("click", "view", "purchase", "signup", "error")


def pivot_event_counts(sf_dir: str) -> rd.Dataset:
    """Pivot: one row per user, one count column per event_type (the
    fixed-vocabulary pivot a star-schema report needs).  Plan: per-batch
    conditional-count partials (already pivoted — the combiner), then one
    small keyed groupby sum; the type vocabulary is a compile-time constant
    so no discovery pass or second shuffle is needed."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_type"])

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (
            df.group_by("user_id")
            .agg(
                *[
                    (pl.col("event_type") == et).sum().cast(pl.Int64).alias(f"n_{et}")
                    for et in PIVOT_TYPES
                ]
            )
            .to_arrow()
        )

    aggs = [Sum(f"n_{et}", alias_name=f"n_{et}") for et in PIVOT_TYPES]
    return (
        ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("user_id")
        .aggregate(*aggs)
    )


SQL_PIVOT_EVENT_COUNTS = """
SELECT user_id,
       CAST(COUNT(*) FILTER (event_type = 'click')    AS BIGINT) AS n_click,
       CAST(COUNT(*) FILTER (event_type = 'view')     AS BIGINT) AS n_view,
       CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT) AS n_purchase,
       CAST(COUNT(*) FILTER (event_type = 'signup')   AS BIGINT) AS n_signup,
       CAST(COUNT(*) FILTER (event_type = 'error')    AS BIGINT) AS n_error
FROM events GROUP BY user_id
"""


UNPIVOT_COLS = ("l_quantity", "l_extendedprice", "l_discount")


def unpivot_lineitem(sf_dir: str) -> rd.Dataset:
    """Unpivot/melt: selected measure columns -> (key, metric, value) rows.
    A stateless per-batch flat map (3x fan-out of ids + one float each) —
    no shuffle at all; the EAV-ification the reference's fact loader
    performs row-wise (AbstractFactHandler), here columnar."""
    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", *UNPIVOT_COLS],
    )

    def melt(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        out = df.unpivot(
            on=list(UNPIVOT_COLS),
            index=["l_orderkey", "l_linenumber"],
            variable_name="metric",
            value_name="metric_value",
        )
        return out.with_columns(
            pl.col("metric_value").cast(pl.Float64)
        ).to_arrow()

    return ds.map_batches(melt, batch_format="pyarrow", **worker_runtime_env())


SQL_UNPIVOT_LINEITEM = """
SELECT l_orderkey, l_linenumber, 'l_quantity' AS metric, l_quantity AS metric_value FROM lineitem
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_extendedprice', l_extendedprice FROM lineitem
UNION ALL
SELECT l_orderkey, l_linenumber, 'l_discount', l_discount FROM lineitem
"""


def event_gaps(sf_dir: str) -> rd.Dataset:
    """LAG analog: per-user gap (seconds) since the previous event in
    (ts, event_id) order; first event per user has a null gap.  Same
    keyed-fold + vectorized-shift contract as the other window ops."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"])

    def gaps(block: pa.Table) -> pa.Table:
        df = user_ordered(block, ["event_id", "user_id", "ts"])
        gap = TS_US.diff().over("user_id")
        return _rounded(df.select("event_id", "user_id", gap.alias("gap_sec")), "gap_sec", 1e6)

    return keyed_fold(ds, ["user_id"], gaps)


SQL_EVENT_GAPS = """
SELECT event_id, user_id,
       ROUND((epoch_us(ts) - epoch_us(LAG(ts) OVER (
         PARTITION BY user_id ORDER BY ts, event_id))) / 1e6, 4) AS gap_sec
FROM events
"""


def json_extract_props(sf_dir: str) -> rd.Dataset:
    """Semi-structured extraction: pull ``$.k`` out of the JSON ``props``
    column as an integer — vectorized polars JSON path match per batch
    (no shuffle, no Python loop).  The engine's analog of the reference's
    C_METADATAXML parsing (functions/value_metadata.py) for JSON payloads."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "props"])

    def extract(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        k = (
            df["props"]
            .str.json_path_match("$.k")
            .cast(pl.Int64, strict=False)
            .alias("k")
        )
        return df.select("event_id").with_columns(k).to_arrow()

    return ds.map_batches(extract, batch_format="pyarrow", **worker_runtime_env())


SQL_JSON_EXTRACT_PROPS = """
SELECT event_id, CAST(json_extract_string(props, '$.k') AS BIGINT) AS k
FROM events
"""


NTILE_N = 4


def global_rank_orders(sf_dir: str) -> rd.Dataset:
    """Global ROW_NUMBER + NTILE over ALL orders by price — the one window
    shape that genuinely needs a total order.  Uses the surrogate-key
    machinery (stages/keymap.global_index): one distributed sort, then
    per-block dense ids via a driver prefix-sum of block LENGTHS (one int
    per block moves; rows never leave their block after the sort).  NTILE
    boundaries derive from the known total: first (total % n) tiles get
    the extra row, exactly SQL's contract."""
    from ..stages.keymap import global_index

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"])
    ranked = global_index(
        ds,
        ["o_totalprice", "o_orderkey"],
        id_name="rk",
        descending=[True, False],
    )
    total = ds.count()
    base, extra = divmod(total, NTILE_N)
    # cumulative tile upper bounds, e.g. total=10,n=4 -> [3,6,8,10]
    sizes = np.array([base + (1 if i < extra else 0) for i in range(NTILE_N)])
    bounds = np.cumsum(sizes)

    def tile(t: pa.Table) -> pa.Table:
        rk = t["rk"].to_numpy()
        q = np.searchsorted(bounds, rk, side="left") + 1
        return t.append_column("quartile", pa.array(q.astype(np.int64)))

    return ranked.map_batches(tile, batch_format="pyarrow")


SQL_GLOBAL_RANK_ORDERS = f"""
SELECT o_orderkey, o_totalprice,
       ROW_NUMBER() OVER (ORDER BY o_totalprice DESC, o_orderkey) AS rk,
       CAST(NTILE({NTILE_N}) OVER (ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT) AS quartile
FROM orders
"""


FUNNEL = ("view", "click", "purchase")


def funnel_conversion(sf_dir: str) -> rd.Dataset:
    """Ordered-sequence (funnel) matching per user: how far through
    view -> click -> purchase each user progressed, where each step must
    occur strictly AFTER the previous step's first occurrence.  One keyed
    fold; the kernel takes, per user and step, the first time of the step
    after the previous step's time — the sequence-pattern shape
    (MATCH_RECOGNIZE-lite) session analytics need."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def funnel(block: pa.Table) -> pa.Table:
        df = pl.from_arrow(block.select(["user_id", "ts", "event_type"]))
        df = df.with_columns(TS_US.alias("us"))
        cutoff = pl.lit(-1)
        for step in FUNNEL:  # a step's first time, null once a step is missed
            hit = (pl.col("event_type") == step) & (pl.col("us") > cutoff)
            df = df.with_columns(pl.col("us").filter(hit).min().over("user_id").alias(step))
            cutoff = pl.col(step)
        depth = pl.sum_horizontal(pl.col(step).is_not_null() for step in FUNNEL)
        return (
            df.group_by("user_id")
            .agg(depth.first().cast(pl.Int64).alias("funnel_depth"))
            .to_arrow()
        )

    return keyed_fold(ds, ["user_id"], funnel)


SQL_FUNNEL_CONVERSION = """
WITH v AS (
  SELECT user_id, MIN(epoch_us(ts)) AS t FROM events WHERE event_type = 'view' GROUP BY user_id
),
c AS (
  SELECT e.user_id, MIN(epoch_us(e.ts)) AS t
  FROM events e JOIN v ON v.user_id = e.user_id
  WHERE e.event_type = 'click' AND epoch_us(e.ts) > v.t GROUP BY e.user_id
),
p AS (
  SELECT e.user_id, MIN(epoch_us(e.ts)) AS t
  FROM events e JOIN c ON c.user_id = e.user_id
  WHERE e.event_type = 'purchase' AND epoch_us(e.ts) > c.t GROUP BY e.user_id
)
SELECT u.user_id,
       CAST(CASE WHEN p.user_id IS NOT NULL THEN 3
                 WHEN c.user_id IS NOT NULL THEN 2
                 WHEN v.user_id IS NOT NULL THEN 1
                 ELSE 0 END AS BIGINT) AS funnel_depth
FROM (SELECT DISTINCT user_id FROM events) u
LEFT JOIN v ON v.user_id = u.user_id
LEFT JOIN c ON c.user_id = u.user_id
LEFT JOIN p ON p.user_id = u.user_id
"""


def retention_cohorts(sf_dir: str) -> rd.Dataset:
    """Cohort retention: users grouped by first-active day, counted by
    day-offset of each later active day — the classic (cohort_day,
    offset) -> n_users triangle.  Two passes expressed as one plan:
    per-batch (user, day) dedup partials, a keyed groupby to get each
    user's first day, then a broadcast-free second aggregation keyed on
    (first_day, offset) built inside the same group."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def day_pairs(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).with_columns(
            (pl.col("ts").cast(pl.Datetime("us")).cast(pl.Int64) // 86_400_000_000)
            .alias("day")
        )
        return df.select("user_id", "day").unique().to_arrow()

    def per_user(block: pa.Table) -> pa.Table:
        df = pl.from_arrow(block.select(["user_id", "day"])).unique()
        cohort = pl.col("day").min().over("user_id")
        return (
            df.select(cohort.alias("cohort_day"), (pl.col("day") - cohort).alias("day_offset"))
            .group_by(["cohort_day", "day_offset"])
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    days = ds.map_batches(day_pairs, batch_format="pyarrow", **worker_runtime_env())
    counted = (
        keyed_fold(days, ["user_id"], per_user)
        .groupby(["cohort_day", "day_offset"])
        .aggregate(Sum("pn", alias_name="n_users"))
    )
    return counted


SQL_RETENTION_COHORTS = """
WITH ud AS (
  SELECT DISTINCT user_id,
         CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day
  FROM events
),
firsts AS (SELECT user_id, MIN(day) AS cohort_day FROM ud GROUP BY user_id)
SELECT f.cohort_day, ud.day - f.cohort_day AS day_offset,
       CAST(COUNT(*) AS BIGINT) AS n_users
FROM ud JOIN firsts f ON f.user_id = ud.user_id
GROUP BY f.cohort_day, day_offset
"""


Z_CUTOFF = 2.5


def value_outliers(sf_dir: str) -> rd.Dataset:
    """Statistical outlier filter: events whose value is more than
    Z_CUTOFF population standard deviations from their event_type's mean —
    the data-cleaning screen a pipeline runs before aggregation.

    Two-pass plan with no second shuffle: per-batch (sum, sumsq, n)
    combiner -> tiny keyed groupby -> per-type stats broadcast via
    ``ray.put`` -> stateless vectorized z-score + filter over the
    original read."""
    import ray

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"])

    def stat_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .drop_nulls("value")
            .group_by("event_type")
            .agg(
                pl.col("value").sum().alias("s"),
                (pl.col("value") ** 2).sum().alias("ss"),
                pl.len().cast(pl.Int64).alias("n"),
            )
            .to_arrow()
        )

    stats = (
        ds.map_batches(stat_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("event_type")
        .aggregate(Sum("s", alias_name="s"), Sum("ss", alias_name="ss"), Sum("n", alias_name="n"))
        .to_pandas()
    )
    mean = stats["s"].to_numpy() / stats["n"].to_numpy()
    sd = np.sqrt(np.maximum(stats["ss"].to_numpy() / stats["n"].to_numpy() - mean * mean, 0.0))
    stats_ref = ray.put(
        pl.DataFrame({"event_type": stats["event_type"], "m": mean, "sd": sd})
    )

    def flag(t: pa.Table) -> pa.Table:
        """Vectorized z-score screen: the tiny per-type stats table joins
        each batch inside polars (hash lookup in the Rust kernel — no
        per-row Python) and the filter+round stay in Arrow memory."""
        z = (pl.col("value") - pl.col("m")) / pl.col("sd")
        return (
            pl.from_arrow(t)
            .join(ray.get(stats_ref), on="event_type", how="left")
            .filter((pl.col("sd") > 0) & (z.abs() > Z_CUTOFF))
            .select("event_id", "event_type", "value", round_half_away_pl(z, 4).alias("z"))
            .to_arrow()
        )

    return ds.map_batches(flag, batch_format="pyarrow", **worker_runtime_env())


SQL_VALUE_OUTLIERS = f"""
WITH s AS (
  SELECT event_type, AVG(value) AS m, STDDEV_POP(value) AS sd
  FROM events GROUP BY event_type
)
SELECT e.event_id, e.event_type, e.value,
       ROUND((e.value - s.m) / s.sd, 4) AS z
FROM events e JOIN s ON s.event_type = e.event_type
WHERE s.sd > 0 AND ABS((e.value - s.m) / s.sd) > {Z_CUTOFF}
"""


def user_journeys(sf_dir: str) -> rd.Dataset:
    """Ordered string aggregation (string_agg ... ORDER BY analog): each
    user's chronological event-type sequence as one delimited string —
    the "journey/path" row a funnel analysis exports.  Keyed fold + an
    ordered string join per user; the sequence is truncated to the first
    50 steps so a hot user can't produce an unbounded row (the 255-char
    EAV truncation rule, M6, applied to aggregation)."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts", "event_type"]
    )

    def seq(block: pa.Table) -> pa.Table:
        df = user_ordered(block, ["event_id", "user_id", "ts", "event_type"])
        return (
            df.filter(user_row_number() <= 50)
            .group_by("user_id", maintain_order=True)
            .agg(
                pl.col("event_type").str.join(">").alias("journey"),
                pl.len().cast(pl.Int64).alias("n_steps"),
            )
            .to_arrow()
        )

    return keyed_fold(ds, ["user_id"], seq)


SQL_USER_JOURNEYS = """
WITH ranked AS (
  SELECT user_id, event_type,
         ROW_NUMBER() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn
  FROM events
)
SELECT user_id,
       string_agg(event_type, '>' ORDER BY rn) AS journey,
       CAST(COUNT(*) AS BIGINT) AS n_steps
FROM ranked WHERE rn <= 50 GROUP BY user_id
"""
