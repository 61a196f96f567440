"""Operator-coverage queries over the driver's TPC-H-ish tables.

Each function exercises one operator family from SURVEY.md §2 as an
idiomatic Ray Data pipeline, and has a matching ANSI-SQL oracle in
``__ray_entry__.oracle_sql``.  Float outputs are rounded (both sides) so
order-of-summation noise can't break value-hash comparison.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd
from ray.data.aggregate import Sum

from ..functions import eav, strings


from ..functions.numeric import round_half_away_pc
from ..util import worker_runtime_env


def _round(col, nd=4):
    # DuckDB-compatible half-away-from-zero rounding (oracle parity)
    return round_half_away_pc(col, nd)


# --- M6: EAV value typing ---------------------------------------------------
def eav_encode(sf_dir: str) -> rd.Dataset:
    """events.value -> (valtype_cd, tval_char, nval_num) triplet
    (AbstractFactHandler.java:64-90 semantics, vectorized)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])

    def enc(t: pa.Table) -> pa.Table:
        trip = eav.encode_numeric(t["value"])
        return pa.table(
            {
                "event_id": t["event_id"],
                "valtype_cd": trip["valtype_cd"],
                "tval_char": trip["tval_char"],
                "nval_num": _round(trip["nval_num"]),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


# --- M7/M8: sentinel + truncation -------------------------------------------
def str_normalize(sf_dir: str) -> rd.Dataset:
    """documents.source null/empty -> '@', truncated to 4 chars; text
    truncated to 50 (TableUtil.java:62-81, MetadataUtil.java:46-52)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "text"])

    def norm(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "source_cd": strings.null_to_sentinel(t["source"], max_len=4),
                "text_50": strings.truncate(t["text"], 50),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


# --- A1/A2/A4: grouped counts with partial pre-aggregation ------------------
def agg_event_counts(sf_dir: str) -> rd.Dataset:
    """Per-type counts + value stats.  Partial aggregation inside
    map_batches (combiner) -> tiny global groupby, the at-scale pattern."""
    import polars as pl

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "value"])

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("event_type")
            .agg(
                pl.len().cast(pl.Int64).alias("pn"),
                pl.col("value").sum().alias("psum"),
            )
            .to_arrow()
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(Sum("pn", alias_name="n_events"), Sum("psum", alias_name="sum_value"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("sum_value"), "sum_value", _round(t["sum_value"], 2)
        ),
        batch_format="pyarrow",
    )


# --- J3/J4: broadcast hash join (small dims) --------------------------------
def join_orders_nations(sf_dir: str) -> rd.Dataset:
    """Revenue per nation: orders x customer x nation.  customer+nation are
    the small side -> broadcast via ray.put and joined per batch (no
    shuffle), the Metadata.conceptCache broadcast-lookup analog (J3)."""
    import polars as pl

    cust = pl.read_parquet(f"{sf_dir}/customer.parquet").select(["c_custkey", "c_nationkey"])
    nat = pl.read_parquet(f"{sf_dir}/nation.parquet").select(["n_nationkey", "n_name"])
    side = cust.join(nat, left_on="c_nationkey", right_on="n_nationkey").select(
        ["c_custkey", "n_name"]
    )
    side_ref = ray.put(side)

    def join_batch(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        j = df.join(ray.get(side_ref), left_on="o_custkey", right_on="c_custkey", how="inner")
        return (
            j.group_by("n_name")
            .agg(pl.col("o_totalprice").sum().alias("psum"), pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])
    agg = (
        ds.map_batches(join_batch, batch_format="pyarrow", **worker_runtime_env())
        .groupby("n_name")
        .aggregate(Sum("psum", alias_name="total_price"), Sum("pn", alias_name="n_orders"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("total_price"), "total_price", _round(t["total_price"], 2)
        ),
        batch_format="pyarrow",
    )


# --- J6/J7 analog: anti join via broadcast key set --------------------------
BIG_ORDER_THRESHOLD = 450_000.0


def customers_without_orders(sf_dir: str) -> rd.Dataset:
    """Anti-join: customers with no big (>450k) order.  The qualifying
    order-key set is broadcast and applied as a vectorized NOT is_in filter
    (semi/anti join by broadcast keyset, the KSB NOT EXISTS analog, J6),
    with the predicate pushed into the scan as a row filter."""
    import pyarrow.dataset as pads

    custkeys = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_custkey"],
        filter=(pads.field("o_totalprice") > BIG_ORDER_THRESHOLD),
    ).unique("o_custkey")  # returns the distinct values
    keyset = pa.array(sorted(custkeys), pa.int64())
    keys_ref = ray.put(keyset)

    def anti_join(t: pa.Table) -> pa.Table:
        mask = pc.invert(pc.is_in(t["c_custkey"], value_set=ray.get(keys_ref)))
        return t.filter(mask).select(["c_custkey", "c_name"])

    return rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name"]
    ).map_batches(anti_join, batch_format="pyarrow", **worker_runtime_env())


# --- J4 both-sides-large: bucketed hash join --------------------------------
def join_lineitem_orders(sf_dir: str) -> rd.Dataset:
    """Revenue per order priority via the bucketed hash join (both sides
    are fact-scale; neither is broadcast).  lineitem and orders co-shuffle
    once on hash(orderkey) and join per bucket, then a combiner-first
    rollup."""
    import polars as pl

    from ..stages.join import bucketed_join

    li = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount"],
    ).map_batches(
        lambda t: pa.table(
            {
                "orderkey": t["l_orderkey"],
                "revenue": pc.multiply(
                    t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])
                ),
            }
        ),
        batch_format="pyarrow",
    )
    od = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderpriority"]
    ).map_batches(
        lambda t: pa.table(
            {"orderkey": t["o_orderkey"], "o_orderpriority": t["o_orderpriority"]}
        ),
        batch_format="pyarrow",
    )
    joined = bucketed_join(li, od, on=["orderkey"], num_buckets=16)

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("o_orderpriority")
            .agg(
                pl.col("revenue").sum().alias("ps"),
                pl.len().cast(pl.Int64).alias("pn"),
            )
            .to_arrow()
        )

    agg = (
        joined.map_batches(partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("ps", alias_name="revenue"), Sum("pn", alias_name="n_items"))
    )
    return agg.map_batches(
        lambda t: t.set_column(
            t.column_names.index("revenue"), "revenue", _round(t["revenue"], 2)
        ),
        batch_format="pyarrow",
    )


# --- deterministic hash-mod sampling ----------------------------------------
def deterministic_sample(sf_dir: str) -> rd.Dataset:
    """Reproducible 10% sample by key arithmetic (id % 10 == 0) — the
    scalable sampling pattern when reruns must pick identical rows."""
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"]
    )
    return ds.map_batches(
        lambda t: t.filter(pa.array(t["doc_id"].to_numpy() % 10 == 0)),
        batch_format="pyarrow",
    )


# --- A3/D1/D2: distinct + union ---------------------------------------------
def distinct_langs(sf_dir: str) -> pa.Table:
    vals = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang"]).unique(
        "lang"
    )
    return pa.table({"lang": pa.array(sorted(vals), pa.string())})


def union_names(sf_dir: str) -> rd.Dataset:
    """UNION ALL across heterogeneous sources (AbstractUnionedMetadataQueryBuilder.java:40-58)."""
    r = rd.read_parquet(f"{sf_dir}/region.parquet", columns=["r_name"]).map_batches(
        lambda t: pa.table({"name": t["r_name"], "kind": pa.array(["region"] * len(t))}),
        batch_format="pyarrow",
    )
    n = rd.read_parquet(f"{sf_dir}/nation.parquet", columns=["n_name"]).map_batches(
        lambda t: pa.table({"name": t["n_name"], "kind": pa.array(["nation"] * len(t))}),
        batch_format="pyarrow",
    )
    return r.union(n)


# --- O-family: sort / top-k -------------------------------------------------
def topk_docs(sf_dir: str) -> rd.Dataset:
    """Top-20 documents by n_chars (deterministic tiebreak on doc_id)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(20)


# --- pricing summary (classic grouped agg over the big fact table) ----------
def pricing_summary(sf_dir: str) -> rd.Dataset:
    """lineitem grouped rollup (returnflag/linestatus): the per-concept
    count/report family (dest/I2b2QueryResultsHandler.java:751-837) at
    fact-table scale, with partial pre-aggregation."""
    import polars as pl

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .with_columns(
                (pl.col("l_extendedprice") * (1 - pl.col("l_discount"))).alias("disc_price")
            )
            .group_by(["l_returnflag", "l_linestatus"])
            .agg(
                pl.col("l_quantity").sum().alias("pq"),
                pl.col("l_extendedprice").sum().alias("pb"),
                pl.col("disc_price").sum().alias("pd"),
                pl.len().cast(pl.Int64).alias("pn"),
            )
            .to_arrow()
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("pq", alias_name="sum_qty"),
            Sum("pb", alias_name="sum_base_price"),
            Sum("pd", alias_name="sum_disc_price"),
            Sum("pn", alias_name="count_order"),
        )
    )

    def final(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "l_returnflag": t["l_returnflag"],
                "l_linestatus": t["l_linestatus"],
                "sum_qty": _round(t["sum_qty"], 2),
                "sum_base_price": _round(t["sum_base_price"], 2),
                "sum_disc_price": _round(t["sum_disc_price"], 2),
                "count_order": t["count_order"],
            }
        )

    return agg.map_batches(final, batch_format="pyarrow")
