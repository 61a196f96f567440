"""Multi-join relational pipelines (TPC-H Q3/Q5 shapes) — proof that the
engine's join toolbox (broadcast small-side, bucketed co-shuffle,
combiner-first aggregation) composes into the N-way reporting queries the
reference pushes into source SQL (J4, dsb/I2B2DataSourceBackend.java:
200,226,256-290).

Physical plans:
* Q3 (shipping priority): filter both large sides at the READ, broadcast
  the filtered customer keyset, bucketed-join lineitem x orders on
  orderkey (both large), per-batch revenue partials, small keyed groupby,
  global top-10 by sort-limit.
* Q5 (local-supplier volume): lineitem x orders x supplier x customer x
  nation x region — the three small dims fold into one broadcast lookup;
  the one large-large equi-join (lineitem x orders) is the bucketed
  co-shuffle; the same-nation predicate is a vectorized filter inside the
  joined batch.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..functions.numeric import round_half_away_pc
from ..stages.exchange import keyed_fold
from ..stages.join import bucketed_join
from ..util import empty_frame, worker_runtime_env

Q3_SEGMENT = "BUILDING"
Q3_DATE = "1995-03-15"
Q5_REGION = "ASIA"
Q5_DATE_LO = "1996-01-01"
Q5_DATE_HI = "1998-01-01"


def tpch_q3(sf_dir: str) -> rd.Dataset:
    """Top-10 unshipped-order revenue by (orderkey, orderdate, priority)."""
    cust = pl.read_parquet(f"{sf_dir}/customer.parquet").filter(
        pl.col("c_mktsegment") == Q3_SEGMENT
    )["c_custkey"]
    cust_ref = ray.put(set(cust.to_list()))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
    )

    def keep_orders(t: pa.Table) -> pa.Table:
        keys = ray.get(cust_ref)
        df = pl.from_arrow(t).filter(
            pl.col("o_orderdate") < pl.lit(Q3_DATE).str.to_datetime("%Y-%m-%d")
        )
        df = df.filter(pl.col("o_custkey").is_in(list(keys)))
        return df.select("o_orderkey", "o_orderdate", "o_orderpriority").to_arrow()

    o_side = orders.map_batches(keep_orders, batch_format="pyarrow", **worker_runtime_env())
    o_schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("o_orderdate", pa.timestamp("us")),
            ("o_orderpriority", pa.string()),
        ]
    )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def keep_lines(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).filter(
            pl.col("l_shipdate") > pl.lit(Q3_DATE).str.to_datetime("%Y-%m-%d")
        )
        return df.with_columns(
            (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).alias("rev")
        ).select("l_orderkey", "rev").rename({"l_orderkey": "o_orderkey"}).to_arrow()

    l_side = line.map_batches(keep_lines, batch_format="pyarrow", **worker_runtime_env())

    joined = bucketed_join(
        l_side,
        o_side,
        on=["o_orderkey"],
        num_buckets=16,
        l_schema=pa.schema([("o_orderkey", pa.int64()), ("rev", pa.float64())]),
        r_schema=o_schema,
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["o_orderkey", "o_orderdate", "o_orderpriority"])
            .agg(pl.col("rev").sum().alias("pr"))
            .to_arrow()
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["o_orderkey", "o_orderdate", "o_orderpriority"])
        .aggregate(Sum("pr", alias_name="revenue"))
        .sort([("revenue"), ("o_orderkey")], descending=[True, False])
        .limit(10)
        .materialize()  # top-10-sized
    )
    if agg.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(
            o_orderkey="int64",
            o_orderdate="datetime64[us]",
            o_orderpriority="string",
            revenue="float64",
        )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("revenue"), "revenue", round_half_away_pc(t["revenue"], 2)
        ),
        batch_format="pyarrow",
    )


SQL_TPCH_Q3 = f"""
SELECT o.o_orderkey, o.o_orderdate, o.o_orderpriority,
       ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM customer c
JOIN orders o   ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
WHERE c.c_mktsegment = '{Q3_SEGMENT}'
  AND o.o_orderdate < TIMESTAMP '{Q3_DATE} 00:00:00'
  AND l.l_shipdate  > TIMESTAMP '{Q3_DATE} 00:00:00'
GROUP BY o.o_orderkey, o.o_orderdate, o.o_orderpriority
ORDER BY SUM(l.l_extendedprice * (1 - l.l_discount)) DESC, o.o_orderkey
LIMIT 10
"""


def tpch_q5(sf_dir: str) -> rd.Dataset:
    """Revenue per nation for orders where customer and supplier share the
    nation, nation in one region, orderdate in a year window."""
    nat = pl.read_parquet(f"{sf_dir}/nation.parquet")
    reg = pl.read_parquet(f"{sf_dir}/region.parquet").filter(
        pl.col("r_name") == Q5_REGION
    )
    nat = nat.join(reg, left_on="n_regionkey", right_on="r_regionkey").select(
        ["n_nationkey", "n_name"]
    )
    cust = (
        pl.read_parquet(f"{sf_dir}/customer.parquet")
        .select(["c_custkey", "c_nationkey"])
        .join(nat, left_on="c_nationkey", right_on="n_nationkey")
        .select(["c_custkey", "c_nationkey", "n_name"])
    )
    supp = (
        pl.read_parquet(f"{sf_dir}/supplier.parquet")
        .select(["s_suppkey", "s_nationkey"])
        .join(nat, left_on="s_nationkey", right_on="n_nationkey")
        .select(["s_suppkey", "s_nationkey"])
    )
    side_ref = ray.put((cust, supp))

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    # the broadcast side is fetched from the worker-local object store per
    # task (cheap)
    def order_side(t: pa.Table) -> pa.Table:
        cust_tbl, _ = ray.get(side_ref)
        df = pl.from_arrow(t).filter(
            (pl.col("o_orderdate") >= pl.lit(Q5_DATE_LO).str.to_datetime("%Y-%m-%d"))
            & (pl.col("o_orderdate") < pl.lit(Q5_DATE_HI).str.to_datetime("%Y-%m-%d"))
        )
        j = df.join(cust_tbl, left_on="o_custkey", right_on="c_custkey")
        return j.select("o_orderkey", "c_nationkey", "n_name").to_arrow()

    o_side = orders.map_batches(order_side, batch_format="pyarrow", **worker_runtime_env())
    o_schema = pa.schema(
        [
            ("o_orderkey", pa.int64()),
            ("c_nationkey", pa.int64()),
            ("n_name", pa.string()),
        ]
    )

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def line_side(t: pa.Table) -> pa.Table:
        _, supp_tbl = ray.get(side_ref)
        df = pl.from_arrow(t).join(supp_tbl, left_on="l_suppkey", right_on="s_suppkey")
        return (
            df.with_columns(
                (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).alias("rev")
            )
            .select("l_orderkey", "s_nationkey", "rev")
            .rename({"l_orderkey": "o_orderkey"})
            .to_arrow()
        )

    l_side = line.map_batches(line_side, batch_format="pyarrow", **worker_runtime_env())

    joined = bucketed_join(
        l_side,
        o_side,
        on=["o_orderkey"],
        num_buckets=16,
        l_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("s_nationkey", pa.int64()),
                ("rev", pa.float64()),
            ]
        ),
        r_schema=o_schema,
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).filter(pl.col("s_nationkey") == pl.col("c_nationkey"))
        return df.group_by("n_name").agg(pl.col("rev").sum().alias("pr")).to_arrow()

    agg = (
        joined.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("n_name")
        .aggregate(Sum("pr", alias_name="revenue"))
        .materialize()  # |nations|-sized
    )
    if agg.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(n_name="string", revenue="float64")
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("revenue"), "revenue", round_half_away_pc(t["revenue"], 2)
        ),
        batch_format="pyarrow",
    )


SQL_TPCH_Q5 = f"""
SELECT n.n_name,
       ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM customer c
JOIN orders o   ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey AND s.s_nationkey = c.c_nationkey
JOIN nation n   ON n.n_nationkey = c.c_nationkey
JOIN region r   ON r.r_regionkey = n.n_regionkey
WHERE r.r_name = '{Q5_REGION}'
  AND o.o_orderdate >= TIMESTAMP '{Q5_DATE_LO} 00:00:00'
  AND o.o_orderdate <  TIMESTAMP '{Q5_DATE_HI} 00:00:00'
GROUP BY n.n_name
"""


Q17_FRACTION = 0.5  # "small-quantity" threshold vs the part's average
Q18_QTY = 150.0  # large-order total-quantity cutoff


def tpch_q17(sf_dir: str) -> rd.Dataset:
    """Q17 shape — correlated scalar subquery: revenue of lineitems whose
    quantity is below a fraction of their PART's average quantity.

    Physical plan: the correlated aggregate becomes a self-join on the
    correlation key — per-part averages via combiner + keyed groupby, then
    a bucketed co-shuffle join of lineitem against that average table
    (BOTH sides keyed on l_partkey; at 10^8+ parts the averages table is
    itself large, so broadcasting it would be the classic driver-OOM
    mistake), a vectorized threshold filter, and a scalar fold."""
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_quantity", "l_extendedprice"]
    )

    def avg_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("l_partkey")
            .agg(pl.col("l_quantity").sum().alias("ps"), pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    avgs = (
        line.map_batches(avg_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("l_partkey")
        .aggregate(Sum("ps", alias_name="s"), Sum("pn", alias_name="n"))
        .map_batches(
            lambda t: pa.table(
                {
                    "l_partkey": t["l_partkey"],
                    "qty_limit": pa.compute.multiply(
                        pa.compute.divide(t["s"], pa.compute.cast(t["n"], pa.float64())),
                        Q17_FRACTION,
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )

    joined = bucketed_join(line, avgs, on=["l_partkey"], num_buckets=16)

    def below(t: pa.Table) -> pa.Table:
        keep = pa.compute.less(t["l_quantity"], t["qty_limit"])
        kept = t.filter(pa.compute.fill_null(keep, False))
        return pa.table(
            {"pr": pa.array([float(pa.compute.sum(kept["l_extendedprice"]).as_py() or 0.0)])}
        )

    total = (
        joined.map_batches(below, batch_format="pyarrow", **worker_runtime_env())
        .groupby(None)
        .aggregate(Sum("pr", alias_name="s"))
    )

    def finish(t: pa.Table) -> pa.Table:
        return pa.table(
            {"avg_yearly": round_half_away_pc(pa.compute.divide(t["s"], 7.0), 2)}
        )

    return total.map_batches(finish, batch_format="pyarrow")


SQL_TPCH_Q17 = f"""
SELECT ROUND(SUM(l.l_extendedprice) / 7.0, 2) AS avg_yearly
FROM lineitem l
WHERE l.l_quantity < (
  SELECT {Q17_FRACTION} * AVG(l2.l_quantity) FROM lineitem l2
  WHERE l2.l_partkey = l.l_partkey
)
"""


def tpch_q18(sf_dir: str) -> rd.Dataset:
    """Q18 shape — HAVING semi-join: orders whose total lineitem quantity
    exceeds a cutoff, reported with customer key and totals.

    Physical plan: per-order quantity totals (combiner + keyed groupby),
    filter HAVING > cutoff (tiny surviving set), broadcast the surviving
    orderkeys, then a single pruned pass over orders for the report —
    the classic aggregate-then-semi-join, no second big shuffle."""
    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_quantity"])

    def qty_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("l_orderkey")
            .agg(pl.col("l_quantity").sum().alias("pq"))
            .to_arrow()
        )

    totals = (
        line.map_batches(qty_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("l_orderkey")
        .aggregate(Sum("pq", alias_name="total_qty"))
    )

    def having(t: pa.Table) -> pa.Table:
        return t.filter(pa.compute.greater(t["total_qty"], Q18_QTY))

    big = totals.map_batches(having, batch_format="pyarrow").to_pandas()
    big_map = dict(zip(big["l_orderkey"].astype(int), big["total_qty"]))
    big_ref = ray.put(big_map)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )

    def report(t: pa.Table) -> pa.Table:
        import pandas as pd

        big = ray.get(big_ref)
        df = pl.from_arrow(t).filter(pl.col("o_orderkey").is_in(list(big)))
        qty = pd.Series(df["o_orderkey"].to_numpy()).map(big).to_numpy()
        return df.with_columns(pl.Series("total_qty", qty, dtype=pl.Float64)).to_arrow()

    out = orders.map_batches(report, batch_format="pyarrow", **worker_runtime_env())
    return out.map_batches(
        lambda t: t.set_column(
            t.column_names.index("total_qty"), "total_qty", round_half_away_pc(t["total_qty"], 2)
        ),
        batch_format="pyarrow",
    )


SQL_TPCH_Q18 = f"""
SELECT o.o_orderkey, o.o_custkey, o.o_totalprice,
       ROUND(t.total_qty, 2) AS total_qty
FROM orders o
JOIN (
  SELECT l_orderkey, SUM(l_quantity) AS total_qty
  FROM lineitem GROUP BY l_orderkey HAVING SUM(l_quantity) > {Q18_QTY}
) t ON t.l_orderkey = o.o_orderkey
"""


def cheapest_supplier_per_part(sf_dir: str) -> rd.Dataset:
    """Group-wise ARGMIN (the Q2 shape): for every part, the supplier
    with the lowest average sale price (ties -> lowest suppkey).

    Physical plan: finest-grain (part, supplier) averages via the usual
    combiner + keyed groupby; then per-part argmin with a local top-1
    combiner before the second (tiny) ``keyed_fold`` — the row-selection
    aggregate SQL expresses as ROW_NUMBER()=1, done without a join-back."""
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey", "l_extendedprice"]
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["l_partkey", "l_suppkey"])
            .agg(pl.col("l_extendedprice").sum().alias("ps"), pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    pair_avg = (
        line.map_batches(pair_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["l_partkey", "l_suppkey"])
        .aggregate(Sum("ps", alias_name="s"), Sum("pn", alias_name="n"))
        .map_batches(
            lambda t: pa.table(
                {
                    "l_partkey": t["l_partkey"],
                    "l_suppkey": t["l_suppkey"],
                    "avg_price": pa.compute.divide(
                        t["s"], pa.compute.cast(t["n"], pa.float64())
                    ),
                }
            ),
            batch_format="pyarrow",
        )
    )

    def local_min(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["l_partkey", "l_suppkey", "avg_price"]))
            .sort(["l_partkey", "avg_price", "l_suppkey"], nulls_last=True)
            .group_by("l_partkey", maintain_order=True)
            .head(1)
            .to_arrow()
        )

    # the per-block top-1 is also the final one once the fold co-locates parts
    partials = pair_avg.map_batches(local_min, batch_format="pyarrow", **worker_runtime_env())
    out = keyed_fold(partials, ["l_partkey"], local_min)
    return out.map_batches(
        lambda t: t.set_column(
            t.column_names.index("avg_price"),
            "avg_price",
            round_half_away_pc(t["avg_price"], 2),
        ),
        batch_format="pyarrow",
    )


SQL_CHEAPEST_SUPPLIER = """
SELECT l_partkey, l_suppkey, ROUND(avg_price, 2) AS avg_price FROM (
  SELECT l_partkey, l_suppkey, AVG(l_extendedprice) AS avg_price,
         ROW_NUMBER() OVER (PARTITION BY l_partkey
                            ORDER BY AVG(l_extendedprice), l_suppkey) AS rn
  FROM lineitem GROUP BY l_partkey, l_suppkey
) WHERE rn = 1
"""


# --- Q6 / Q12 / Q14 shapes: conditional aggregation ------------------------

Q6_DATE_LO, Q6_DATE_HI = "1996-01-01", "1997-01-01"
Q6_DISC_LO, Q6_DISC_HI = 0.03, 0.07
Q6_QTY = 24.0


def tpch_q6(sf_dir: str) -> rd.Dataset:
    """Q6 shape (forecast revenue change): SUM(extendedprice * discount)
    over a predicate box — the purest scan-dominated query.  Every
    predicate pushes into the parquet scan (row groups outside the
    shipdate/discount/quantity box never leave storage) and only the two
    needed columns are read; the sum folds combiner-first."""
    import datetime

    import pyarrow.dataset as pads

    lo = datetime.datetime.fromisoformat(Q6_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q6_DATE_HI)
    flt = (
        (pads.field("l_shipdate") >= lo)
        & (pads.field("l_shipdate") < hi)
        & (pads.field("l_discount") >= Q6_DISC_LO)
        & (pads.field("l_discount") <= Q6_DISC_HI)
        & (pads.field("l_quantity") < Q6_QTY)
    )
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_extendedprice", "l_discount"],
        filter=flt,
    )

    def partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:  # keep SUM-over-zero-rows NULL semantics (SQL parity)
            return pa.table({"pr": pa.array([], pa.float64())})
        rev = pa.compute.sum(
            pa.compute.multiply(t["l_extendedprice"], t["l_discount"])
        ).as_py()
        return pa.table({"pr": pa.array([rev or 0.0], pa.float64())})

    folded = line.map_batches(
        partial, batch_format="pyarrow", **worker_runtime_env()
    ).aggregate(Sum("pr", alias_name="revenue"))
    import pandas as pd

    # empty predicate window: SQL SUM yields NULL, not 0.0 — emit NULL/NaN
    raw = (folded or {}).get("revenue")
    rev = (
        None if raw is None else round_half_away_pc(pa.array([raw]), 2)[0].as_py()
    )
    return pd.DataFrame({"revenue": pd.array([rev], dtype="float64")})


SQL_TPCH_Q6 = f"""
SELECT ROUND(SUM(l_extendedprice * l_discount), 2) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '{Q6_DATE_LO}'
  AND l_shipdate <  TIMESTAMP '{Q6_DATE_HI}'
  AND l_discount BETWEEN {Q6_DISC_LO} AND {Q6_DISC_HI}
  AND l_quantity < {Q6_QTY}
"""


Q12_DATE_LO, Q12_DATE_HI = "1996-01-01", "1997-01-01"
Q12_HIGH = ("1-URGENT", "2-HIGH")


def tpch_q12(sf_dir: str) -> rd.Dataset:
    """Q12 shape (shipping-priority audit): per return flag, how many
    joined lineitems belong to high- vs low-priority orders inside a
    shipdate window.  One bucketed co-shuffle on orderkey (both sides
    large), then a conditional-count combiner and a tiny keyed fold."""
    import datetime

    import pyarrow.dataset as pads

    lo = datetime.datetime.fromisoformat(Q12_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q12_DATE_HI)
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_returnflag"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(
        lambda t: pa.table(
            {"l_orderkey": t["o_orderkey"], "o_orderpriority": t["o_orderpriority"]}
        ),
        batch_format="pyarrow",
    )
    joined = bucketed_join(line, orders, on=["l_orderkey"], num_buckets=16)

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("l_returnflag")
            .agg(
                pl.col("o_orderpriority")
                .is_in(list(Q12_HIGH))
                .sum()
                .cast(pl.Int64)
                .alias("ph"),
                (~pl.col("o_orderpriority").is_in(list(Q12_HIGH)))
                .sum()
                .cast(pl.Int64)
                .alias("pl"),
            )
            .to_arrow()
        )

    return (
        joined.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("l_returnflag")
        .aggregate(
            Sum("ph", alias_name="high_line_count"),
            Sum("pl", alias_name="low_line_count"),
        )
    )


SQL_TPCH_Q12 = f"""
SELECT l.l_returnflag,
       CAST(SUM(CASE WHEN o.o_orderpriority IN {Q12_HIGH} THEN 1 ELSE 0 END) AS BIGINT)
         AS high_line_count,
       CAST(SUM(CASE WHEN o.o_orderpriority NOT IN {Q12_HIGH} THEN 1 ELSE 0 END) AS BIGINT)
         AS low_line_count
FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
WHERE l.l_shipdate >= TIMESTAMP '{Q12_DATE_LO}'
  AND l.l_shipdate <  TIMESTAMP '{Q12_DATE_HI}'
GROUP BY l.l_returnflag
"""


Q14_DATE_LO, Q14_DATE_HI = "1996-01-01", "1996-04-01"
Q14_PROMO_TYPE = "PROMO"


def tpch_q14(sf_dir: str) -> rd.Dataset:
    """Q14 shape (promotion effect): percent of windowed revenue from
    promo-type parts.  The part table is dimension-small -> its
    partkey->is_promo map broadcasts once; the corpus-side pass emits two
    floats per batch (promo and total revenue partials) and the ratio is
    a driver-side scalar."""
    import datetime

    import numpy as np
    import pyarrow.dataset as pads

    part = pl.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    promo = set(
        part.filter(pl.col("p_type") == Q14_PROMO_TYPE)["p_partkey"].to_list()
    )
    promo_ref = ray.put(np.sort(np.array(sorted(promo), dtype=np.int64)))

    lo = datetime.datetime.fromisoformat(Q14_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q14_DATE_HI)
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def partial(t: pa.Table) -> pa.Table:
        rev = t["l_extendedprice"].to_numpy() * (1.0 - t["l_discount"].to_numpy())
        is_promo = np.isin(t["l_partkey"].to_numpy(), ray.get(promo_ref))
        return pa.table(
            {
                "pp": pa.array([float(rev[is_promo].sum())], pa.float64()),
                "pt": pa.array([float(rev.sum())], pa.float64()),
            }
        )

    folded = (
        line.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .aggregate(Sum("pp", alias_name="promo"), Sum("pt", alias_name="total"))
    )
    import pandas as pd

    from ..functions.numeric import round_half_away

    # empty predicate window / zero total: SQL yields NULL (NULL/NULL or
    # SUM-over-zero-rows), not 0.0 — emit NULL/NaN for parity
    total = (folded or {}).get("total")
    pct = (
        float(round_half_away(np.array([100.0 * folded["promo"] / total]), 4)[0])
        if total
        else None
    )
    return pd.DataFrame({"promo_pct": pd.array([pct], dtype="float64")})


SQL_TPCH_Q14 = f"""
SELECT ROUND(
  100.0 * SUM(CASE WHEN p.p_type = '{Q14_PROMO_TYPE}'
                   THEN l.l_extendedprice * (1 - l.l_discount) ELSE 0 END)
        / SUM(l.l_extendedprice * (1 - l.l_discount)), 4) AS promo_pct
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE l.l_shipdate >= TIMESTAMP '{Q14_DATE_LO}'
  AND l.l_shipdate <  TIMESTAMP '{Q14_DATE_HI}'
"""


# --- Q16 shape: distinct-count across a join + NOT-IN blacklist -------------
Q16_BRAND = "Brand#13"
Q16_TYPE_PREFIX = "PROMO"
Q16_SIZES = (3, 9, 14, 19, 23, 36, 45, 49)
Q16_BLACKLIST_MOD = 10  # suppliers with suppkey % 10 == 0 are excluded


def tpch_q16(sf_dir: str) -> rd.Dataset:
    """Q16 shape (parts/supplier relationship): COUNT(DISTINCT supplier)
    per surviving (brand, type, size) — a distinct-count ACROSS a join
    with a NOT-IN supplier blacklist.  The driver's table set has no
    partsupp, so lineitem is the part<->supplier relation (same shape,
    strictly bigger — the harder version).

    Physical plan: the part predicate prunes AT THE BROADCAST (the
    filtered part map ships once via ``ray.put``, read per task); the
    supplier blacklist is a modulus test applied vectorized (at scale: a
    broadcast keyset exactly like the part map).  Each lineitem batch
    collapses to its UNIQUE (partkey, suppkey) pairs map-side BEFORE the
    exchange, so the first groupby's input is bounded by the distinct
    pair count, not the fact count.  Global pair dedup is ONE keyed
    groupby on the attrs+suppkey 4-tuple; per-batch count partials and a
    second (tiny: one row per surviving 3-tuple) keyed Sum finish it —
    the DISTINCT never rides a full-fact shuffle.

    Reference parity: the reference pushes exactly this COUNT(DISTINCT)
    rollup into source SQL (dsb/I2B2DataSourceBackend.java:256-290)."""
    part = pl.read_parquet(f"{sf_dir}/part.parquet").filter(
        (pl.col("p_brand") != Q16_BRAND)
        & ~pl.col("p_type").str.starts_with(Q16_TYPE_PREFIX)
        & pl.col("p_size").is_in(list(Q16_SIZES))
    )
    pmap_ref = ray.put(part.select(["p_partkey", "p_brand", "p_type", "p_size"]))

    def pair_partial(t: pa.Table) -> pa.Table:
        """Per-batch unique (part-attrs, suppkey) pairs; part attrs attach
        from the broadcast map."""
        df = pl.from_arrow(t.select(["l_partkey", "l_suppkey"]))
        return (
            df.filter(pl.col("l_suppkey") % Q16_BLACKLIST_MOD != 0)
            .unique()
            .join(ray.get(pmap_ref), left_on="l_partkey", right_on="p_partkey", how="inner")
            .select(["p_brand", "p_type", "p_size", "l_suppkey"])
            .unique()
            .to_arrow()
        )

    from ray.data.aggregate import Count

    line = rd.read_parquet(f"{sf_dir}/lineitem.parquet", columns=["l_partkey", "l_suppkey"])
    distinct4 = (
        line.map_batches(pair_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["p_brand", "p_type", "p_size", "l_suppkey"])
        .aggregate(Count(alias_name="_c"))  # global dedup of the 4-tuple
    )

    def count_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["p_brand", "p_type", "p_size"]))
            .group_by(["p_brand", "p_type", "p_size"])
            .agg(pl.len().cast(pl.Int64).alias("pc"))
            .to_arrow()
        )

    return (
        distinct4.map_batches(count_partial, batch_format="pyarrow")
        .groupby(["p_brand", "p_type", "p_size"])
        .aggregate(Sum("pc", alias_name="supplier_cnt"))
    )


SQL_TPCH_Q16 = f"""
SELECT p_brand, p_type, p_size, COUNT(DISTINCT l_suppkey) AS supplier_cnt
FROM lineitem JOIN part ON p_partkey = l_partkey
WHERE p_brand <> '{Q16_BRAND}'
  AND p_type NOT LIKE '{Q16_TYPE_PREFIX}%'
  AND p_size IN {Q16_SIZES}
  AND l_suppkey % {Q16_BLACKLIST_MOD} <> 0
GROUP BY p_brand, p_type, p_size
"""


# --- Q22 shape: scalar-subquery threshold + anti-join + rollup --------------
Q22_CODES = (0, 1, 2, 4, 5)
Q22_CODE_MOD = 7  # country-code analog: c_nationkey % 7 (no c_phone column)
Q22_ORDER_THRESHOLD = 400000.0  # "dormant": no order above this price
#  (every driver customer has SOME order, so the literal NOT EXISTS of
#   TPC-H Q22 would be vacuously empty; the thresholded variant keeps the
#   anti-join shape and a non-degenerate answer)


def tpch_q22(sf_dir: str) -> rd.Dataset:
    """Q22 shape (global sales opportunity): customers in a code set with
    above-average positive balance and NO big order, rolled up per code.
    Exercises the scalar-subquery broadcast (ONE global AVG computed
    distributed, shipped as a plain float into the filter) composed with
    a large-large ANTI join and a final small rollup.

    Physical plan: the AVG folds from per-batch (sum, count) partials —
    one tiny driver fold, no shuffle; candidates filter vectorized at the
    read; the NOT-EXISTS runs as the distributed bucketed ANTI join
    against the orders keyset (NOT a broadcast — the customer universe at
    scale outgrows one heap); the rollup is a keyed Sum over per-batch
    partials with one row per country code."""
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey", "c_acctbal"]
    )

    def code_col(t: pa.Table) -> pa.Table:
        code = (
            pl.from_arrow(t.select(["c_nationkey"]))
            .select((pl.col("c_nationkey") % Q22_CODE_MOD).alias("c"))["c"]
            .to_arrow()
        )
        return t.append_column("cntrycode", code)

    coded = cust.map_batches(code_col, batch_format="pyarrow").map_batches(
        lambda t: t.filter(pc.is_in(t["cntrycode"], value_set=pa.array(Q22_CODES, pa.int64()))),
        batch_format="pyarrow",
    )
    coded = coded.materialize()  # two consumers: the AVG fold + the filter

    def avg_partial(t: pa.Table) -> pa.Table:
        pos = t.filter(pc.greater(t["c_acctbal"], 0.0))
        return pa.table(
            {
                "s": pa.array([pc.sum(pos["c_acctbal"]).as_py() or 0.0], pa.float64()),
                "n": pa.array([len(pos)], pa.int64()),
            }
        )

    parts = coded.map_batches(avg_partial, batch_format="pyarrow")
    tot_s, tot_n = float(parts.sum("s") or 0.0), int(parts.sum("n") or 0)
    if tot_n == 0:
        import pandas as pd

        return pd.DataFrame(
            {
                "cntrycode": pd.array([], dtype="int64"),
                "numcust": pd.array([], dtype="int64"),
                "totacctbal": pd.array([], dtype="float64"),
            }
        )
    avg_bal = tot_s / tot_n

    rich = coded.map_batches(
        lambda t: t.filter(pc.greater(t["c_acctbal"], avg_bal)).select(
            ["c_custkey", "cntrycode", "c_acctbal"]
        ),
        batch_format="pyarrow",
    )
    rich_schema = pa.schema(
        [
            ("c_custkey", pa.int64()),
            ("cntrycode", pa.int64()),
            ("c_acctbal", pa.float64()),
        ]
    )
    import pyarrow.dataset as pads

    orders_keys = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=(pads.field("o_totalprice") > Q22_ORDER_THRESHOLD),
    ).map_batches(
        lambda t: pl.from_arrow(t).unique().rename({"o_custkey": "c_custkey"}).to_arrow(),
        batch_format="pyarrow",
    )
    no_orders = bucketed_join(
        rich,
        orders_keys,
        on=["c_custkey"],
        how="anti",
        num_buckets=16,
        l_schema=rich_schema,
        r_schema=pa.schema([("c_custkey", pa.int64())]),
    )

    def roll_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["cntrycode", "c_acctbal"]))
            .group_by("cntrycode")
            .agg(
                pl.len().cast(pl.Int64).alias("pn"),
                pl.col("c_acctbal").sum().alias("ps"),
            )
            .to_arrow()
        )

    out = (
        no_orders.map_batches(roll_partial, batch_format="pyarrow")
        .groupby("cntrycode")
        .aggregate(Sum("pn", alias_name="numcust"), Sum("ps", alias_name="pss"))
        .map_batches(
            lambda t: pa.table(
                {
                    "cntrycode": t["cntrycode"],
                    "numcust": t["numcust"],
                    "totacctbal": round_half_away_pc(t["pss"], 2),
                }
            )
            if len(t) and "pss" in t.schema.names
            else pa.table(
                {
                    "cntrycode": pa.array([], pa.int64()),
                    "numcust": pa.array([], pa.int64()),
                    "totacctbal": pa.array([], pa.float64()),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()  # |codes|-sized
    )
    if out.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(cntrycode="int64", numcust="int64", totacctbal="float64")
    return out


SQL_TPCH_Q22 = f"""
WITH coded AS (
  SELECT c_custkey, c_acctbal, c_nationkey % {Q22_CODE_MOD} AS cntrycode
  FROM customer WHERE c_nationkey % {Q22_CODE_MOD} IN {Q22_CODES}
),
thr AS (SELECT AVG(c_acctbal) AS a FROM coded WHERE c_acctbal > 0)
SELECT cntrycode, COUNT(*) AS numcust, ROUND(SUM(c_acctbal), 2) AS totacctbal
FROM coded, thr
WHERE c_acctbal > thr.a
  AND NOT EXISTS (
    SELECT 1 FROM orders
    WHERE o_custkey = c_custkey AND o_totalprice > {Q22_ORDER_THRESHOLD}
  )
GROUP BY cntrycode
"""


# --- Q21 shape: exactly-one-late-supplier orders (correlated EXISTS) --------
Q21_LATE_DAYS = 90
Q21_TOP = 20


def tpch_q21(sf_dir: str) -> rd.Dataset:
    """Q21 shape (suppliers who kept orders waiting): for multi-supplier
    orders where EXACTLY ONE supplier shipped late, count such orders per
    that supplier — the EXISTS / NOT-EXISTS-correlated-pair shape, the
    hardest classic TPC-H pattern.  "Late" adapts to the driver's columns
    as ``l_shipdate > o_orderdate + 90 days`` (no receipt/commit dates).

    Physical plan: ONE bucketed large-large join (lineitem x orders on
    orderkey) carrying only 3 columns; each joined batch collapses to its
    DISTINCT (orderkey, suppkey, late) triples map-side, so the per-order
    groupby's input is bounded by the distinct-triple count; the
    per-order fold is vectorized polars (n_unique + conditional
    max/count); the surviving one-row-per-order table joins the supplier
    dim BROADCAST, and a count/sort-limit finishes."""
    from ray.data.aggregate import Sum

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_suppkey", "l_shipdate"]
    )
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderdate"]),
        batch_format="pyarrow",
    )
    joined = bucketed_join(line, orders, on=["l_orderkey"], num_buckets=32)

    late_us = Q21_LATE_DAYS * 86400 * 1_000_000

    def triples(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (
            df.select(
                pl.col("l_orderkey"),
                pl.col("l_suppkey"),
                (
                    pl.col("l_shipdate").cast(pl.Int64)
                    > pl.col("o_orderdate").cast(pl.Int64) + late_us
                ).alias("late"),
            )
            .unique()
            .to_arrow()
        )

    def per_order(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g)
        agg = (
            df.group_by("l_orderkey")
            .agg(
                pl.col("l_suppkey").n_unique().cast(pl.Int64).alias("n_supp"),
                pl.col("l_suppkey")
                .filter(pl.col("late"))
                .n_unique()
                .cast(pl.Int64)
                .alias("n_late_supp"),
                pl.col("l_suppkey").filter(pl.col("late")).max().alias("late_supp"),
            )
            .filter((pl.col("n_supp") > 1) & (pl.col("n_late_supp") == 1))
        )
        return agg.select(["late_supp"]).to_arrow()

    culprit_orders = (
        joined.map_batches(triples, batch_format="pyarrow", **worker_runtime_env())
        .groupby("l_orderkey")
        .map_groups(per_order, batch_format="pyarrow")
    )

    sup = pl.read_parquet(f"{sf_dir}/supplier.parquet").select(["s_suppkey", "s_name"])
    sup_ref = ray.put(sup)

    def attach_name(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("late_supp")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .join(ray.get(sup_ref), left_on="late_supp", right_on="s_suppkey", how="inner")
            .select(["s_name", "pn"])
            .to_arrow()
        )

    return (
        culprit_orders.map_batches(attach_name, batch_format="pyarrow", **worker_runtime_env())
        .groupby("s_name")
        .aggregate(Sum("pn", alias_name="numwait"))
        .sort(["numwait", "s_name"], descending=[True, False])
        .limit(Q21_TOP)
    )


SQL_TPCH_Q21 = f"""
WITH l AS (
  SELECT l_orderkey, l_suppkey,
         (l_shipdate > o_orderdate + INTERVAL {Q21_LATE_DAYS} DAY) AS late
  FROM lineitem JOIN orders ON o_orderkey = l_orderkey
),
per_order AS (
  SELECT l_orderkey,
         COUNT(DISTINCT l_suppkey)                     AS n_supp,
         COUNT(DISTINCT l_suppkey) FILTER (WHERE late) AS n_late_supp,
         MAX(CASE WHEN late THEN l_suppkey END)        AS late_supp
  FROM l GROUP BY l_orderkey
)
SELECT s_name, COUNT(*) AS numwait
FROM per_order JOIN supplier ON s_suppkey = late_supp
WHERE n_supp > 1 AND n_late_supp = 1
GROUP BY s_name
ORDER BY numwait DESC, s_name
LIMIT {Q21_TOP}
"""


# --- Q4 shape: EXISTS semi-join + priority rollup ----------------------------
Q4_DATE_LO, Q4_DATE_HI = "1996-07-01", "1996-10-01"
Q4_LATE_DAYS = 45  # "late" adapts to the driver's columns (no commit/receipt
#                    dates): l_shipdate > o_orderdate + 45 days


def tpch_q4(sf_dir: str) -> rd.Dataset:
    """Q4 shape (order-priority checking): count orders per priority in a
    quarter having AT LEAST ONE late lineitem — the plain correlated
    EXISTS (q21 is the exactly-one pair; this is the one-sided semi).

    Physical plan: the orders side prunes at the READ (orderdate window
    pushes into the parquet scan); ONE bucketed large-large join on
    orderkey carries 2+3 columns; each joined batch keeps only its late
    rows and collapses to DISTINCT (orderkey, priority) map-side, so the
    global dedup groupby's input is bounded by the distinct late-order
    count, not the fact count (the q16 distinct-across-join pattern);
    priority counts fold combiner-first."""
    import datetime

    import pyarrow.dataset as pads
    from ray.data.aggregate import Count

    lo = datetime.datetime.fromisoformat(Q4_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q4_DATE_HI)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_orderdate", "o_orderpriority"]),
        batch_format="pyarrow",
    )
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet", columns=["l_orderkey", "l_shipdate"]
    )
    joined = bucketed_join(
        line,
        orders,
        on=["l_orderkey"],
        num_buckets=16,
        l_schema=pa.schema(
            [("l_orderkey", pa.int64()), ("l_shipdate", pa.timestamp("us"))]
        ),
        r_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("o_orderdate", pa.timestamp("us")),
                ("o_orderpriority", pa.string()),
            ]
        ),
    )

    late_us = Q4_LATE_DAYS * 86400 * 1_000_000

    def late_pairs(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .filter(
                pl.col("l_shipdate").cast(pl.Int64)
                > pl.col("o_orderdate").cast(pl.Int64) + late_us
            )
            .select(["l_orderkey", "o_orderpriority"])
            .unique()
            .to_arrow()
        )

    # priority functionally depends on orderkey, so grouping the pair
    # IS the per-order dedup (one surviving row per late order)
    distinct_orders = (
        joined.map_batches(late_pairs, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["l_orderkey", "o_orderpriority"])
        .aggregate(Count(alias_name="_c"))
    )

    def count_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["o_orderpriority"]))
            .group_by("o_orderpriority")
            .agg(pl.len().cast(pl.Int64).alias("pc"))
            .to_arrow()
        )

    out = (
        distinct_orders.map_batches(count_partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("pc", alias_name="order_count"))
        .materialize()  # priority-count-sized
    )
    if out.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(o_orderpriority="string", order_count="int64")
    return out


SQL_TPCH_Q4 = f"""
SELECT o.o_orderpriority, COUNT(*) AS order_count
FROM orders o
WHERE o.o_orderdate >= TIMESTAMP '{Q4_DATE_LO}'
  AND o.o_orderdate <  TIMESTAMP '{Q4_DATE_HI}'
  AND EXISTS (
    SELECT 1 FROM lineitem l
    WHERE l.l_orderkey = o.o_orderkey
      AND l.l_shipdate > o.o_orderdate + INTERVAL {Q4_LATE_DAYS} DAY
  )
GROUP BY o.o_orderpriority
"""


# --- Q7 shape: bi-national volume shipping with year rollup ------------------
Q7_NATION_A, Q7_NATION_B = "NATION_11", "NATION_20"
Q7_DATE_LO, Q7_DATE_HI = "1995-01-01", "1997-01-01"


def tpch_q7(sf_dir: str) -> rd.Dataset:
    """Q7 shape (volume shipping): revenue between two nations per
    (supp_nation, cust_nation, ship-year) — the classic two-dim-broadcast
    + one large-large join report.

    Physical plan: customer and supplier each fold with nation into a
    key->nation-name map FILTERED TO THE TWO NATIONS before broadcast
    (selectivity-bounded: 2/|nations| of each dim ships, via ``ray.put``
    once, read per task); lineitem prunes at the read (shipdate window)
    and inner-joins the supplier map map-side (non-target rows die before
    the exchange), orders likewise against the customer map; ONE bucketed
    co-shuffle on orderkey joins the two survivors; the cross-pair filter
    and (nation, nation, year) revenue partials are vectorized polars and
    the final keyed Sum sees ≤ 2 x years rows per block."""
    import datetime

    import pyarrow.dataset as pads

    nat = pl.read_parquet(f"{sf_dir}/nation.parquet").filter(
        pl.col("n_name").is_in([Q7_NATION_A, Q7_NATION_B])
    )
    cust = (
        pl.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
        .join(nat, left_on="c_nationkey", right_on="n_nationkey")
        .select(["c_custkey", pl.col("n_name").alias("cust_nation")])
    )
    supp = (
        pl.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
        .join(nat, left_on="s_nationkey", right_on="n_nationkey")
        .select(["s_suppkey", pl.col("n_name").alias("supp_nation")])
    )
    if cust.height == 0 or supp.height == 0:
        # no customer or no supplier in either nation: the join is
        # deterministically empty, and an all-empty mapped side has no
        # schema for bucketed_join to co-shuffle — short-circuit
        return _q7_empty()
    # one ray.put per table: each side fetches only the map it reads
    cust_ref = ray.put(cust)
    supp_ref = ray.put(supp)

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )

    def order_side(t: pa.Table) -> pa.Table:
        cust_tbl = ray.get(cust_ref)
        return (
            pl.from_arrow(t)
            .join(cust_tbl, left_on="o_custkey", right_on="c_custkey")
            .select(["o_orderkey", "cust_nation"])
            .to_arrow()
        )

    o_side = orders.map_batches(order_side, batch_format="pyarrow", **worker_runtime_env())

    lo = datetime.datetime.fromisoformat(Q7_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q7_DATE_HI)
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def line_side(t: pa.Table) -> pa.Table:
        supp_tbl = ray.get(supp_ref)
        return (
            pl.from_arrow(t)
            .join(supp_tbl, left_on="l_suppkey", right_on="s_suppkey")
            .with_columns(
                (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).alias("volume"),
                pl.col("l_shipdate").dt.year().cast(pl.Int64).alias("l_year"),
            )
            .select(["l_orderkey", "supp_nation", "l_year", "volume"])
            .rename({"l_orderkey": "o_orderkey"})
            .to_arrow()
        )

    l_side = line.map_batches(line_side, batch_format="pyarrow", **worker_runtime_env())

    joined = bucketed_join(l_side, o_side, on=["o_orderkey"], num_buckets=16)

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .filter(pl.col("supp_nation") != pl.col("cust_nation"))
            .group_by(["supp_nation", "cust_nation", "l_year"])
            .agg(pl.col("volume").sum().alias("pr"))
            .to_arrow()
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["supp_nation", "cust_nation", "l_year"])
        .aggregate(Sum("pr", alias_name="revenue"))
        .map_batches(
            lambda t: t.set_column(
                t.column_names.index("revenue"),
                "revenue",
                round_half_away_pc(t["revenue"], 2),
            ),
            batch_format="pyarrow",
        )
        .materialize()  # ≤ 2 pair-directions x years rows
    )
    if agg.count() == 0:  # schema-stable empty result (SQL parity)
        return _q7_empty()
    return agg


def _q7_empty():
    """Schema-stable empty Q7 result (SQL keeps its column list)."""
    return empty_frame(
        supp_nation="string", cust_nation="string", l_year="int64", revenue="float64"
    )


SQL_TPCH_Q7 = f"""
SELECT supp_nation, cust_nation, l_year, ROUND(SUM(volume), 2) AS revenue
FROM (
  SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
         EXTRACT(year FROM l.l_shipdate) AS l_year,
         l.l_extendedprice * (1 - l.l_discount) AS volume
  FROM supplier s
  JOIN lineitem l ON s.s_suppkey = l.l_suppkey
  JOIN orders o   ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation n1  ON n1.n_nationkey = s.s_nationkey
  JOIN nation n2  ON n2.n_nationkey = c.c_nationkey
  WHERE ((n1.n_name = '{Q7_NATION_A}' AND n2.n_name = '{Q7_NATION_B}')
      OR (n1.n_name = '{Q7_NATION_B}' AND n2.n_name = '{Q7_NATION_A}'))
    AND l.l_shipdate >= TIMESTAMP '{Q7_DATE_LO}'
    AND l.l_shipdate <  TIMESTAMP '{Q7_DATE_HI}'
)
GROUP BY supp_nation, cust_nation, l_year
"""


# --- Q10 shape: returned-item reporting, top-20 customers --------------------
Q10_DATE_LO, Q10_DATE_HI = "1996-10-01", "1997-01-01"
Q10_FLAG = "R"
Q10_TOP = 20


def tpch_q10(sf_dir: str) -> rd.Dataset:
    """Q10 shape (returned-item reporting): top-20 customers by lost
    revenue from returned lineitems in a quarter, with customer/nation
    attributes attached.

    Physical plan: BOTH large sides prune at the read (returnflag on
    lineitem, orderdate window on orders — row groups outside either
    never leave storage); ONE bucketed co-shuffle on orderkey; revenue
    partials collapse per custkey map-side before the keyed Sum (the
    shuffle carries one row per distinct customer per block, not per
    fact); the customer+nation attribute attach happens AFTER the
    aggregate on the small per-customer result via ONE broadcast lookup,
    never joining attributes through the fact exchange; top-20 by
    sort-limit with a custkey tie-break."""
    import datetime

    import pyarrow.dataset as pads

    lo = datetime.datetime.fromisoformat(Q10_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q10_DATE_HI)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    ).map_batches(
        lambda t: t.rename_columns(["l_orderkey", "o_custkey"]),
        batch_format="pyarrow",
    )
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_returnflag") == Q10_FLAG),
    )
    joined = bucketed_join(
        line,
        orders,
        on=["l_orderkey"],
        num_buckets=16,
        l_schema=pa.schema(
            [
                ("l_orderkey", pa.int64()),
                ("l_extendedprice", pa.float64()),
                ("l_discount", pa.float64()),
            ]
        ),
        r_schema=pa.schema([("l_orderkey", pa.int64()), ("o_custkey", pa.int64())]),
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .with_columns(
                (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).alias("rev")
            )
            .group_by("o_custkey")
            .agg(pl.col("rev").sum().alias("pr"))
            .rename({"o_custkey": "c_custkey"})
            .to_arrow()
        )

    per_cust = (
        joined.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("c_custkey")
        .aggregate(Sum("pr", alias_name="revenue"))
        .sort(["revenue", "c_custkey"], descending=[True, False])
        .limit(Q10_TOP)
        .materialize()  # top-20-sized
    )
    if per_cust.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(
            c_custkey="int64",
            c_name="string",
            revenue="float64",
            c_acctbal="float64",
            n_name="string",
        )

    cust = (
        pl.read_parquet(
            f"{sf_dir}/customer.parquet",
            columns=["c_custkey", "c_name", "c_acctbal", "c_nationkey"],
        )
        .join(
            pl.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]),
            left_on="c_nationkey",
            right_on="n_nationkey",
        )
        .select(["c_custkey", "c_name", "c_acctbal", "n_name"])
    )
    cust_ref = ray.put(cust)

    def attach(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .with_columns(
                pl.col("revenue").map_batches(
                    lambda s: pl.from_arrow(round_half_away_pc(s.to_arrow(), 2))
                )
            )
            .join(ray.get(cust_ref), on="c_custkey", how="inner")
            .select(["c_custkey", "c_name", "revenue", "c_acctbal", "n_name"])
            .to_arrow()
        )

    return per_cust.map_batches(attach, batch_format="pyarrow", **worker_runtime_env())


SQL_TPCH_Q10 = f"""
SELECT c.c_custkey, c.c_name,
       ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
       c.c_acctbal, n.n_name
FROM customer c
JOIN orders o   ON o.o_custkey = c.c_custkey
JOIN lineitem l ON l.l_orderkey = o.o_orderkey
JOIN nation n   ON n.n_nationkey = c.c_nationkey
WHERE o.o_orderdate >= TIMESTAMP '{Q10_DATE_LO}'
  AND o.o_orderdate <  TIMESTAMP '{Q10_DATE_HI}'
  AND l.l_returnflag = '{Q10_FLAG}'
GROUP BY c.c_custkey, c.c_name, c.c_acctbal, n.n_name
ORDER BY SUM(l.l_extendedprice * (1 - l.l_discount)) DESC, c.c_custkey
LIMIT {Q10_TOP}
"""


# --- Q13 shape: order-count distribution incl. the zero bucket ---------------
def tpch_q13(sf_dir: str) -> rd.Dataset:
    """Q13 shape (customer distribution): how many customers placed
    exactly k orders, INCLUDING k=0 — the LEFT-JOIN-then-histogram
    pattern.

    Physical plan: orders alone drives the large pass (per-batch custkey
    count partials -> keyed Sum = one row per ordering customer — the
    left join never materializes; customers with orders are exactly the
    groupby's key set); the counts-of-counts rollup is a second
    combiner-first fold whose input is customer-bounded; the zero bucket
    is total-customer-count (parquet METADATA read, no scan) minus the
    ordering-customer count (a count on the already-small per-customer
    result), unioned in as one driver row."""
    import pyarrow.parquet as pq
    from ray.data.aggregate import Count

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])

    def cnt_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("o_custkey")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    per_cust = (
        orders.map_batches(cnt_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("o_custkey")
        .aggregate(Sum("pn", alias_name="c_count"))
        .materialize()  # two consumers: the histogram + the nonzero count
    )
    n_with_orders = per_cust.count()
    n_cust = pq.ParquetFile(f"{sf_dir}/customer.parquet").metadata.num_rows

    def hist_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["c_count"]))
            .group_by("c_count")
            .agg(pl.len().cast(pl.Int64).alias("pc"))
            .to_arrow()
        )

    dist = (
        per_cust.map_batches(hist_partial, batch_format="pyarrow")
        .groupby("c_count")
        .aggregate(Sum("pc", alias_name="custdist"))
    )
    n_zero = n_cust - n_with_orders
    if n_zero > 0:
        zero_row = rd.from_arrow(
            pa.table(
                {
                    "c_count": pa.array([0], pa.int64()),
                    "custdist": pa.array([n_zero], pa.int64()),
                }
            )
        )
        dist = dist.union(zero_row)
    return dist


SQL_TPCH_Q13 = """
SELECT c_count, COUNT(*) AS custdist
FROM (
  SELECT c.c_custkey, COUNT(o.o_orderkey) AS c_count
  FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
  GROUP BY c.c_custkey
)
GROUP BY c_count
"""


# --- Q15 shape: argmax supplier by windowed revenue --------------------------
Q15_DATE_LO, Q15_DATE_HI = "1996-01-01", "1996-04-01"


def tpch_q15(sf_dir: str) -> rd.Dataset:
    """Q15 shape (top supplier): the supplier(s) whose quarterly revenue
    equals the global max — the view-then-argmax pattern.

    Physical plan: lineitem prunes at the read (shipdate window) and
    carries 3 columns; per-batch suppkey revenue partials collapse
    map-side before the keyed Sum, so the shuffle is supplier-bounded;
    the argmax scans the supplier-sized result ONCE on the driver (the
    max is a scalar fold, not a second shuffle) and the name attach is a
    broadcast lookup over the ≤|argmax| surviving rows."""
    import datetime

    import pyarrow.dataset as pads

    lo = datetime.datetime.fromisoformat(Q15_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q15_DATE_HI)
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_suppkey", "l_extendedprice", "l_discount"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .with_columns(
                (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).alias("rev")
            )
            .group_by("l_suppkey")
            .agg(pl.col("rev").sum().alias("pr"))
            .to_arrow()
        )

    per_supp = (
        line.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("l_suppkey")
        .aggregate(Sum("pr", alias_name="total_revenue"))
        .materialize()  # supplier-bounded; two consumers (max + filter)
    )
    import pandas as pd

    top = per_supp.max("total_revenue") if per_supp.count() else None
    if top is None:
        return empty_frame(s_suppkey="int64", s_name="string", total_revenue="float64")

    sup = pl.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    sup_ref = ray.put(sup)

    def attach(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .filter(pl.col("total_revenue") == top)
            .with_columns(
                pl.col("total_revenue").map_batches(
                    lambda s: pl.from_arrow(round_half_away_pc(s.to_arrow(), 2))
                )
            )
            .rename({"l_suppkey": "s_suppkey"})
            .join(ray.get(sup_ref), on="s_suppkey", how="inner")
            .select(["s_suppkey", "s_name", "total_revenue"])
            .to_arrow()
        )

    return per_supp.map_batches(attach, batch_format="pyarrow", **worker_runtime_env())


SQL_TPCH_Q15 = f"""
WITH revenue AS (
  SELECT l_suppkey, SUM(l_extendedprice * (1 - l_discount)) AS total_revenue
  FROM lineitem
  WHERE l_shipdate >= TIMESTAMP '{Q15_DATE_LO}'
    AND l_shipdate <  TIMESTAMP '{Q15_DATE_HI}'
  GROUP BY l_suppkey
)
SELECT s.s_suppkey, s.s_name, ROUND(r.total_revenue, 2) AS total_revenue
FROM supplier s JOIN revenue r ON r.l_suppkey = s.s_suppkey
WHERE r.total_revenue = (SELECT MAX(total_revenue) FROM revenue)
"""


# --- Q19 shape: disjunctive predicate-box revenue ----------------------------
#: (brand, size_lo, size_hi, qty_lo, qty_hi) — three OR-ed boxes, adapted to
#: the driver's part columns (no container / shipmode / shipinstruct)
Q19_CASES = (
    ("Brand#1", 1, 15, 1.0, 20.0),
    ("Brand#2", 10, 30, 5.0, 30.0),
    ("Brand#3", 20, 50, 10.0, 40.0),
)


def tpch_q19(sf_dir: str) -> rd.Dataset:
    """Q19 shape (discounted revenue): total revenue of lineitems whose
    (part brand, part size, quantity) lands in any of three OR-ed boxes —
    the disjunctive multi-predicate join.

    Physical plan: part is dimension-small and only rows matching SOME
    brand+size box survive the broadcast (brand tag rides along, so the
    per-batch test is one int compare + one float box per case); each
    lineitem batch inner-joins the broadcast map map-side, applies the
    disjunction VECTORIZED, and emits a single revenue partial — the
    whole query is one streaming pass with a scalar fold, no shuffle."""
    brands = {b: i for i, (b, *_rest) in enumerate(Q19_CASES)}
    part = (
        pl.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_brand", "p_size"])
        .filter(
            pl.any_horizontal(
                *[
                    (pl.col("p_brand") == b) & (pl.col("p_size").is_between(slo, shi))
                    for (b, slo, shi, _qlo, _qhi) in Q19_CASES
                ]
            )
        )
        .with_columns(
            pl.col("p_brand").replace_strict(brands, return_dtype=pl.Int64).alias("case_id")
        )
        .select(["p_partkey", "case_id"])
    )
    part_ref = ray.put(part)

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).join(
            ray.get(part_ref), left_on="l_partkey", right_on="p_partkey", how="inner"
        )
        keep = pl.any_horizontal(
            *[
                (pl.col("case_id") == i) & pl.col("l_quantity").is_between(qlo, qhi)
                for i, (_b, _slo, _shi, qlo, qhi) in enumerate(Q19_CASES)
            ]
        )
        surviving = df.filter(keep) if df.height else df
        if surviving.height == 0:  # SUM-over-zero-rows stays NULL (SQL
            # parity) — for join-empty AND quantity-box-filtered-empty alike
            return pa.table({"pr": pa.array([], pa.float64())})
        rev = surviving.select(
            (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).sum().alias("r")
        )["r"]
        return pa.table({"pr": pa.array([float(rev[0])], pa.float64())})

    folded = line.map_batches(
        partial, batch_format="pyarrow", **worker_runtime_env()
    ).aggregate(Sum("pr", alias_name="revenue"))
    import pandas as pd

    raw = (folded or {}).get("revenue")
    rev = None if raw is None else round_half_away_pc(pa.array([raw]), 2)[0].as_py()
    return pd.DataFrame({"revenue": pd.array([rev], dtype="float64")})


_Q19_SQL_CASES = " OR ".join(
    f"(p.p_brand = '{b}' AND p.p_size BETWEEN {slo} AND {shi}"
    f" AND l.l_quantity BETWEEN {qlo} AND {qhi})"
    for (b, slo, shi, qlo, qhi) in Q19_CASES
)
SQL_TPCH_Q19 = f"""
SELECT ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue
FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
WHERE {_Q19_SQL_CASES}
"""


# --- Q8 shape: national market share within a region --------------------------
Q8_REGION = "ASIA"
Q8_TYPE = "PROMO"
Q8_NATION = "NATION_8"
Q8_DATE_LO, Q8_DATE_HI = "1995-01-01", "1997-01-01"


def tpch_q8(sf_dir: str) -> rd.Dataset:
    """Q8 shape (national market share): per order-year, the target
    nation's share of regional revenue for one part type — the classic
    8-table CASE-ratio report.

    Physical plan: three dimension maps broadcast once — the type-filtered
    part keyset, suppkey -> nation name (whole supplier dim, small), and
    the custkey keyset of the target REGION (customer x nation x region
    folded before ``ray.put``); orders prune at the read (date window),
    attach the year and die early unless regional; lineitem attaches
    supp_nation + part-match map-side; ONE bucketed co-shuffle on
    orderkey; per-(year) partials carry two floats (target revenue,
    total revenue) so the final fold is years-sized; the share divides
    at the end (NULL-safe like q14)."""
    import datetime

    import pyarrow.dataset as pads

    nat = pl.read_parquet(f"{sf_dir}/nation.parquet")
    reg = pl.read_parquet(f"{sf_dir}/region.parquet").filter(
        pl.col("r_name") == Q8_REGION
    )
    reg_nat = nat.join(reg, left_on="n_regionkey", right_on="r_regionkey").select(
        ["n_nationkey"]
    )
    cust_keys = (
        pl.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"])
        .join(reg_nat, left_on="c_nationkey", right_on="n_nationkey")
        .select(["c_custkey"])
    )
    supp_map = (
        pl.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
        .join(nat.select(["n_nationkey", "n_name"]), left_on="s_nationkey", right_on="n_nationkey")
        .select(["s_suppkey", pl.col("n_name").alias("supp_nation")])
    )
    part_keys = (
        pl.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
        .filter(pl.col("p_type") == Q8_TYPE)
        .select(["p_partkey"])
    )
    # one ray.put per table: each consumer stage fetches ONLY the map it
    # reads (supp_map, the largest, never ships to the orders side)
    ck_ref = ray.put(cust_keys)
    sm_ref = ray.put(supp_map)
    pk_ref = ray.put(part_keys)

    lo = datetime.datetime.fromisoformat(Q8_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q8_DATE_HI)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
        filter=(pads.field("o_orderdate") >= lo) & (pads.field("o_orderdate") < hi),
    )

    def order_side(t: pa.Table) -> pa.Table:
        ck = ray.get(ck_ref)
        return (
            pl.from_arrow(t)
            .join(ck, left_on="o_custkey", right_on="c_custkey")
            .with_columns(pl.col("o_orderdate").dt.year().cast(pl.Int64).alias("o_year"))
            .select(["o_orderkey", "o_year"])
            .to_arrow()
        )

    o_side = orders.map_batches(order_side, batch_format="pyarrow", **worker_runtime_env())

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def line_side(t: pa.Table) -> pa.Table:
        sm, pk = ray.get(sm_ref), ray.get(pk_ref)
        return (
            pl.from_arrow(t)
            .join(pk, left_on="l_partkey", right_on="p_partkey")
            .join(sm, left_on="l_suppkey", right_on="s_suppkey")
            .with_columns(
                (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).alias("volume")
            )
            .select(["l_orderkey", "supp_nation", "volume"])
            .rename({"l_orderkey": "o_orderkey"})
            .to_arrow()
        )

    l_side = line.map_batches(line_side, batch_format="pyarrow", **worker_runtime_env())

    joined = bucketed_join(
        l_side,
        o_side,
        on=["o_orderkey"],
        num_buckets=16,
        l_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("supp_nation", pa.string()),
                ("volume", pa.float64()),
            ]
        ),
        r_schema=pa.schema([("o_orderkey", pa.int64()), ("o_year", pa.int64())]),
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("o_year")
            .agg(
                pl.col("volume")
                .filter(pl.col("supp_nation") == Q8_NATION)
                .sum()
                .fill_null(0.0)
                .alias("pn"),
                pl.col("volume").sum().alias("pt"),
            )
            .to_arrow()
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("o_year")
        .aggregate(Sum("pn", alias_name="tn"), Sum("pt", alias_name="tt"))
    )

    def share(t: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions.numeric import round_half_away

        tn = t["tn"].to_numpy(zero_copy_only=False)
        tt = t["tt"].to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            share = np.where(tt != 0, tn / tt, np.nan)
        return pa.table(
            {
                "o_year": t["o_year"],
                "mkt_share": pa.array(round_half_away(share, 4), pa.float64()),
            }
        )

    out = agg.map_batches(share, batch_format="pyarrow").materialize()  # years-sized
    if out.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(o_year="int64", mkt_share="float64")
    return out


SQL_TPCH_Q8 = f"""
SELECT o_year,
       ROUND(SUM(CASE WHEN supp_nation = '{Q8_NATION}' THEN volume ELSE 0 END)
             / SUM(volume), 4) AS mkt_share
FROM (
  SELECT EXTRACT(year FROM o.o_orderdate) AS o_year,
         n2.n_name AS supp_nation,
         l.l_extendedprice * (1 - l.l_discount) AS volume
  FROM lineitem l
  JOIN orders o   ON o.o_orderkey = l.l_orderkey
  JOIN customer c ON c.c_custkey = o.o_custkey
  JOIN nation n1  ON n1.n_nationkey = c.c_nationkey
  JOIN region r   ON r.r_regionkey = n1.n_regionkey
  JOIN supplier s ON s.s_suppkey = l.l_suppkey
  JOIN nation n2  ON n2.n_nationkey = s.s_nationkey
  JOIN part p     ON p.p_partkey = l.l_partkey
  WHERE r.r_name = '{Q8_REGION}'
    AND p.p_type = '{Q8_TYPE}'
    AND o.o_orderdate >= TIMESTAMP '{Q8_DATE_LO}'
    AND o.o_orderdate <  TIMESTAMP '{Q8_DATE_HI}'
)
GROUP BY o_year
"""


# --- Q20 shape: excess-shipment suppliers (grouped-view scalar threshold) ----
Q20_NAME_PREFIX = "cold"
Q20_DATE_LO, Q20_DATE_HI = "1996-01-01", "1997-01-01"
Q20_EXCESS = 1.5  # "excess": shipped > 1.5x the part's per-supplier average


def tpch_q20(sf_dir: str) -> rd.Dataset:
    """Q20 shape (excess-stock suppliers): suppliers who shipped MORE
    than ``Q20_EXCESS`` x the per-supplier average quantity of some
    matched part in a year — the grouped-view + correlated-scalar
    threshold + semi-join chain.  The driver's table set has no
    partsupp, so shipped lineitem quantity stands in for available
    stock (same shape, strictly bigger relation — the harder version).

    Physical plan: the name-prefix part keyset broadcasts once;
    lineitem prunes at the read (shipdate window, 3 columns) and
    collapses to per-batch (part, supplier) quantity partials behind
    the keyset filter, so the ONE keyed exchange carries distinct
    pairs, not facts; the per-part average is a second combiner-first
    fold over the pair table (pair-sized, not fact-sized); pairs join
    their part's average via a bucketed join on partkey, the excess
    filter is vectorized, and the surviving suppliers dedup through a
    keyed Count before ONE broadcast name attach."""
    import datetime

    import pyarrow.dataset as pads
    from ray.data.aggregate import Count

    part_keys = (
        pl.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
        .filter(pl.col("p_name").str.starts_with(Q20_NAME_PREFIX))
        .select(["p_partkey"])
    )
    pk_ref = ray.put(part_keys)

    lo = datetime.datetime.fromisoformat(Q20_DATE_LO)
    hi = datetime.datetime.fromisoformat(Q20_DATE_HI)
    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_quantity"],
        filter=(pads.field("l_shipdate") >= lo) & (pads.field("l_shipdate") < hi),
    )

    def pair_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .join(ray.get(pk_ref), left_on="l_partkey", right_on="p_partkey")
            .group_by(["l_partkey", "l_suppkey"])
            .agg(pl.col("l_quantity").sum().alias("pq"))
            .to_arrow()
        )

    pairs = (
        line.map_batches(pair_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["l_partkey", "l_suppkey"])
        .aggregate(Sum("pq", alias_name="q"))
        .materialize()  # distinct-pair-sized; two consumers (avg + join)
    )
    import pandas as pd

    if pairs.count() == 0:
        return empty_frame(s_suppkey="int64", s_name="string")

    def avg_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("l_partkey")
            .agg(pl.col("q").sum().alias("ps"), pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    thr = (
        pairs.map_batches(avg_partial, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("ps", alias_name="ts"), Sum("pn", alias_name="tn"))
        .map_batches(
            lambda t: pa.table(
                {
                    "l_partkey": t["l_partkey"],
                    "aq": pc.divide(t["ts"], pc.cast(t["tn"], pa.float64())),
                }
            ),
            batch_format="pyarrow",
        )
    )

    joined = bucketed_join(pairs, thr, on=["l_partkey"], num_buckets=16)

    def excess_suppliers(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .filter(pl.col("q") > Q20_EXCESS * pl.col("aq"))
            .select(["l_suppkey"])
            .unique()
            .to_arrow()
        )

    distinct_supp = (
        joined.map_batches(excess_suppliers, batch_format="pyarrow")
        .groupby("l_suppkey")
        .aggregate(Count(alias_name="_c"))
    )

    sup_ref = ray.put(
        pl.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_name"])
    )

    def attach(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["l_suppkey"]))
            .rename({"l_suppkey": "s_suppkey"})
            .join(ray.get(sup_ref), on="s_suppkey", how="inner")
            .select(["s_suppkey", "s_name"])
            .to_arrow()
        )

    return distinct_supp.map_batches(attach, batch_format="pyarrow", **worker_runtime_env())


SQL_TPCH_Q20 = f"""
WITH shipped AS (
  SELECT l_partkey, l_suppkey, SUM(l_quantity) AS q
  FROM lineitem JOIN part ON p_partkey = l_partkey
  WHERE p_name LIKE '{Q20_NAME_PREFIX}%'
    AND l_shipdate >= TIMESTAMP '{Q20_DATE_LO}'
    AND l_shipdate <  TIMESTAMP '{Q20_DATE_HI}'
  GROUP BY l_partkey, l_suppkey
),
thr AS (SELECT l_partkey, AVG(q) AS aq FROM shipped GROUP BY l_partkey)
SELECT DISTINCT s.s_suppkey, s.s_name
FROM shipped sh
JOIN thr t ON t.l_partkey = sh.l_partkey
JOIN supplier s ON s.s_suppkey = sh.l_suppkey
WHERE sh.q > {Q20_EXCESS} * t.aq
"""


# --- Q9 shape: profit by supplier-nation and order-year ----------------------
Q9_NAME_TOKEN = "widget"


def tpch_q9(sf_dir: str) -> rd.Dataset:
    """Q9 shape (product-type profit): revenue by (supplier nation,
    order-year) for parts whose name contains a token.  The driver's
    table set has no partsupp/ps_supplycost, so profit reduces to
    discounted revenue (documented adaptation; the plan shape — dim
    broadcast + large-large join + two-key rollup — is Q9's).

    Physical plan: the token-matched part keyset and the suppkey ->
    nation-name map broadcast once; lineitem filters/attaches both
    map-side so only matched rows reach the ONE bucketed co-shuffle with
    orders (carrying 3 columns); (nation, year) partials collapse per
    batch and the final keyed Sum sees |nations| x |years| rows."""
    part_keys = (
        pl.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name"])
        .filter(pl.col("p_name").str.contains(Q9_NAME_TOKEN, literal=True))
        .select(["p_partkey"])
    )
    supp_map = (
        pl.read_parquet(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"])
        .join(
            pl.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]),
            left_on="s_nationkey",
            right_on="n_nationkey",
        )
        .select(["s_suppkey", pl.col("n_name").alias("nation")])
    )
    pk_ref = ray.put(part_keys)
    sm_ref = ray.put(supp_map)

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def line_side(t: pa.Table) -> pa.Table:
        pk, sm = ray.get(pk_ref), ray.get(sm_ref)
        return (
            pl.from_arrow(t)
            .join(pk, left_on="l_partkey", right_on="p_partkey")
            .join(sm, left_on="l_suppkey", right_on="s_suppkey")
            .with_columns(
                # exact integer basis-point units (price and discount are
                # 2-decimal): the sum is order-independent, so the fold is
                # bit-identical to the SQL's — no ROUND boundary flakes
                (
                    (pl.col("l_extendedprice") * 100).round(0).cast(pl.Int64)
                    * (100 - (pl.col("l_discount") * 100).round(0).cast(pl.Int64))
                ).alias("amount")
            )
            .select(["l_orderkey", "nation", "amount"])
            .rename({"l_orderkey": "o_orderkey"})
            .to_arrow()
        )

    l_side = line.map_batches(line_side, batch_format="pyarrow", **worker_runtime_env())

    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).map_batches(
        lambda t: pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "o_year": pc.cast(pc.year(t["o_orderdate"]), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )

    joined = bucketed_join(
        l_side,
        orders,
        on=["o_orderkey"],
        num_buckets=16,
        l_schema=pa.schema(
            [
                ("o_orderkey", pa.int64()),
                ("nation", pa.string()),
                ("amount", pa.int64()),
            ]
        ),
        r_schema=pa.schema([("o_orderkey", pa.int64()), ("o_year", pa.int64())]),
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(["nation", "o_year"])
            .agg(pl.col("amount").sum().alias("pp"))
            .to_arrow()
        )

    out = (
        joined.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["nation", "o_year"])
        .aggregate(Sum("pp", alias_name="sp"))
        .map_batches(
            # back from exact basis-point units; the int sum fits float64
            # exactly (< 2^53), so /1e4 + round is bit-identical to SQL's
            lambda t: pa.table(
                {
                    "nation": t["nation"],
                    "o_year": t["o_year"],
                    "sum_profit": round_half_away_pc(
                        pc.divide(pc.cast(t["sp"], pa.float64()), 10000.0), 2
                    ),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()  # |nations| x |years| rows
    )
    if out.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(nation="string", o_year="int64", sum_profit="float64")
    return out


SQL_TPCH_Q9 = f"""
SELECT n.n_name AS nation,
       CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT) AS o_year,
       ROUND(SUM(CAST(ROUND(l.l_extendedprice * 100) AS BIGINT)
                 * (100 - CAST(ROUND(l.l_discount * 100) AS BIGINT)))
             / 10000.0, 2) AS sum_profit
FROM lineitem l
JOIN part p     ON p.p_partkey = l.l_partkey
JOIN supplier s ON s.s_suppkey = l.l_suppkey
JOIN nation n   ON n.n_nationkey = s.s_nationkey
JOIN orders o   ON o.o_orderkey = l.l_orderkey
WHERE p.p_name LIKE '%{Q9_NAME_TOKEN}%'
GROUP BY n.n_name, EXTRACT(year FROM o.o_orderdate)
"""


# --- Q11 shape: top-value parts by global-fraction threshold ------------------
Q11_FACTOR = 1.2  # threshold = FACTOR x (total value / part count)


def tpch_q11(sf_dir: str) -> rd.Dataset:
    """Q11 shape (important stock): parts whose total shipped value
    exceeds a fraction of the GLOBAL total — the grouped-aggregate vs
    global-scalar-subquery comparison.  No partsupp in the driver's
    tables, so shipped lineitem value stands in for stock value
    (documented adaptation; the threshold scales as FACTOR/|part| like
    the classic's 0.0001/SF).

    Physical plan: one streaming pass — per-batch partkey value partials
    -> keyed Sum (part-sized result, materialized once for its two
    consumers); the global total folds from the SAME result (a scalar
    ``sum``, no second fact scan); the threshold compare is a vectorized
    filter.  The part count comes from parquet METADATA (no scan)."""
    import pyarrow.parquet as pq

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .with_columns(
                # exact integer basis-point units (see tpch_q9): the fold
                # is order-independent, so threshold compares can't flake
                (
                    (pl.col("l_extendedprice") * 100).round(0).cast(pl.Int64)
                    * (100 - (pl.col("l_discount") * 100).round(0).cast(pl.Int64))
                ).alias("v")
            )
            .group_by("l_partkey")
            .agg(pl.col("v").sum().alias("pv"))
            .to_arrow()
        )

    per_part = (
        line.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("l_partkey")
        .aggregate(Sum("pv", alias_name="v_bp"))
        .materialize()  # part-sized; two consumers (total + filter)
    )
    import pandas as pd

    if per_part.count() == 0:
        return empty_frame(p_partkey="int64", value="float64")
    n_parts = pq.ParquetFile(f"{sf_dir}/part.parquet").metadata.num_rows
    # threshold in exact basis-point units; both sides evaluate the same
    # float expression on the same exact integers -> identical verdicts
    threshold = float(per_part.sum("v_bp")) * Q11_FACTOR / n_parts

    return per_part.map_batches(
        lambda t: pa.table(
            {
                "p_partkey": t["l_partkey"],
                "value": round_half_away_pc(
                    pc.divide(pc.cast(t["v_bp"], pa.float64()), 10000.0), 2
                ),
            }
        ).filter(pc.greater(pc.cast(t["v_bp"], pa.float64()), threshold)),
        batch_format="pyarrow",
    )


SQL_TPCH_Q11 = f"""
WITH v AS (
  SELECT l_partkey,
         SUM(CAST(ROUND(l_extendedprice * 100) AS BIGINT)
             * (100 - CAST(ROUND(l_discount * 100) AS BIGINT))) AS v_bp
  FROM lineitem GROUP BY l_partkey
)
SELECT l_partkey AS p_partkey, ROUND(v_bp / 10000.0, 2) AS value
FROM v
WHERE CAST(v_bp AS DOUBLE) > CAST((SELECT SUM(v_bp) FROM v) AS DOUBLE)
                             * {Q11_FACTOR} / (SELECT COUNT(*) FROM part)
"""


# --- Q2 shape: minimum-cost supplier (correlated min + join-back) ------------
Q2_REGION = "EUROPE"
Q2_TYPE = "ECONOMY"
Q2_SIZE_MAX = 15
Q2_TOP = 100


def tpch_q2(sf_dir: str) -> rd.Dataset:
    """Q2 shape (minimum-cost supplier): for every part of a given type
    and size band, the region's supplier(s) whose best offer equals the
    part's region-wide minimum — the correlated-scalar-min + join-back
    pattern, and the last of the 22 TPC-H shapes (the reference pushes
    these into source SQL, dsb/I2B2DataSourceBackend.java:200,226).
    The driver's table set has no partsupp, so a supplier's "offer" for
    a part is the cheapest lineitem total it ever shipped of that part
    (exact cents — MIN over int64, zero float drift; documented
    adaptation: same correlated-min shape over a strictly bigger
    relation).

    Physical plan: the two small sides broadcast once — the region's
    supplier attributes (supplier x nation x region folded driver-side)
    and the type/size-matched part keyset; lineitem prunes to 3 columns
    at the read and collapses to per-batch (part, supplier) MIN partials
    behind both broadcast filters, so the ONE fact-derived keyed
    exchange carries distinct offer pairs, not facts; the correlated
    min + ties-kept join-back then collapse into a single
    ``groupby(partkey).map_groups`` over the pair-sized offer table
    (each group bounded by the region's supplier count — keep-min is a
    vectorized filter, no second aggregate exchange or join-back
    shuffle); names attach to the tiny survivor set by broadcast before
    the deterministic sort-limit (acctbal DESC with a full tie-break,
    so LIMIT is stable under any block layout)."""
    from ray.data.aggregate import Min

    sup = (
        pl.read_parquet(f"{sf_dir}/supplier.parquet")
        .join(
            pl.read_parquet(f"{sf_dir}/nation.parquet"),
            left_on="s_nationkey",
            right_on="n_nationkey",
        )
        .join(
            pl.read_parquet(f"{sf_dir}/region.parquet"),
            left_on="n_regionkey",
            right_on="r_regionkey",
        )
        .filter(pl.col("r_name") == Q2_REGION)
        .select(["s_suppkey", "s_name", "s_acctbal", "n_name"])
    )
    parts = (
        pl.read_parquet(
            f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_type", "p_size"]
        )
        .filter((pl.col("p_type") == Q2_TYPE) & (pl.col("p_size") <= Q2_SIZE_MAX))
        .select(["p_partkey", "p_name"])
    )
    sup_ref, part_ref = ray.put(sup), ray.put(parts)

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_partkey", "l_suppkey", "l_extendedprice"],
    )

    def offer_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .join(ray.get(part_ref).select("p_partkey"), left_on="l_partkey", right_on="p_partkey")
            .join(ray.get(sup_ref).select("s_suppkey"), left_on="l_suppkey", right_on="s_suppkey")
            .with_columns(
                (pl.col("l_extendedprice") * 100)
                .round(0)
                .cast(pl.Int64)
                .alias("cost_cents")
            )
            .group_by(["l_partkey", "l_suppkey"])
            .agg(pl.col("cost_cents").min())
            .to_arrow()
        )

    offers = (
        line.map_batches(offer_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["l_partkey", "l_suppkey"])
        .aggregate(Min("cost_cents", alias_name="cost_cents"))
        .materialize()  # distinct-offer-sized (count guard + one consumer)
    )
    if offers.count() == 0:  # schema-stable empty result (SQL parity)
        return empty_frame(
            s_acctbal="float64",
            s_name="string",
            n_name="string",
            p_partkey="int64",
            p_name="string",
            best_cost_cents="int64",
        )

    # correlated min + equality join-back in ONE keyed pass: grouping the
    # pair-sized offer table by partkey gives each task the part's full
    # offer set (bounded by the region's supplier count), where keep-min
    # WITH TIES is a vectorized filter — no second aggregate exchange, no
    # join-back shuffle of a table this small
    def keep_min(g: pa.Table) -> pa.Table:
        return g.filter(pc.equal(g["cost_cents"], pc.min(g["cost_cents"])))

    joined = offers.groupby("l_partkey").map_groups(keep_min, batch_format="pyarrow")

    def winners(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .join(ray.get(sup_ref), left_on="l_suppkey", right_on="s_suppkey")
            .join(ray.get(part_ref), left_on="l_partkey", right_on="p_partkey")
            .select(
                "s_acctbal",
                "s_name",
                "n_name",
                pl.col("l_partkey").alias("p_partkey"),
                "p_name",
                pl.col("cost_cents").alias("best_cost_cents"),
            )
            .to_arrow()
        )

    return (
        joined.map_batches(winners, batch_format="pyarrow", **worker_runtime_env())
        .sort(
            ["s_acctbal", "n_name", "s_name", "p_partkey"],
            descending=[True, False, False, False],
        )
        .limit(Q2_TOP)
    )


SQL_TPCH_Q2 = f"""
WITH offer AS (
  SELECT l_partkey, l_suppkey,
         MIN(CAST(ROUND(l_extendedprice * 100) AS BIGINT)) AS cost_cents
  FROM lineitem
  JOIN supplier ON s_suppkey = l_suppkey
  JOIN nation   ON n_nationkey = s_nationkey
  JOIN region   ON r_regionkey = n_regionkey
  WHERE r_name = '{Q2_REGION}'
  GROUP BY l_partkey, l_suppkey
),
pmin AS (SELECT l_partkey, MIN(cost_cents) AS mn FROM offer GROUP BY l_partkey)
SELECT s.s_acctbal, s.s_name, n.n_name,
       p.p_partkey, p.p_name, o.cost_cents AS best_cost_cents
FROM offer o
JOIN pmin m     ON m.l_partkey = o.l_partkey AND o.cost_cents = m.mn
JOIN part p     ON p.p_partkey = o.l_partkey
JOIN supplier s ON s.s_suppkey = o.l_suppkey
JOIN nation n   ON n.n_nationkey = s.s_nationkey
WHERE p.p_type = '{Q2_TYPE}' AND p.p_size <= {Q2_SIZE_MAX}
ORDER BY s.s_acctbal DESC, n.n_name, s.s_name, p.p_partkey
LIMIT {Q2_TOP}
"""
