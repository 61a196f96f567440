"""Scalar-function-catalog queries (SURVEY.md §2.8 + M9-M15/M18): each
exercises one reference kernel vectorized over a driver table, with an
exact ANSI-SQL oracle defined alongside.

Reference cites (file:line under /root/reference/src/main/java/...):
- M9  active status   dest/table/ActiveStatusCode.java:47-94
- M10 vital status    dest/table/VitalStatusCode.java:30-70
- M11 age years       dest/table/PatientDimensionFactory.java:200-212
- M12 length of stay  dest/table/VisitDimensionFactory.java:92-96
- M14 full name       dest/table/ProviderDimensionFactory.java:269-286
- M18 blob join       dest/table/BlobBuilder.java:34-60
- hierarchy path      dest/metadata/PathSupport.java:84-110
- EAV inequality      dest/table/TValCharWhenNumberCode.java:30-55
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions import dates, eav, strings
from ..util import worker_runtime_env

#: fixed logical clock for age computation (the reference leaks wall-clock
#: here; we inject, as its own tests effectively do by ignoring the column)
AS_OF = "2025-01-01"


def active_status(sf_dir: str) -> rd.Dataset:
    """M9 over events: start=ts (day granularity), end absent -> 'UD'-style
    codes; exercised against a CASE oracle."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "ts"])

    def enc(t: pa.Table) -> pa.Table:
        end = pa.nulls(len(t), pa.timestamp("us"))
        return pa.table(
            {
                "event_id": t["event_id"],
                "active_status_cd": dates.active_status_code(t["ts"], end),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


SQL_ACTIVE_STATUS = """
SELECT event_id,
       CASE WHEN ts IS NOT NULL THEN 'UD' ELSE 'UL' END AS active_status_cd
FROM events
"""


def vital_status(sf_dir: str) -> rd.Dataset:
    """M10: deceased flag (here: negative account balance stands in for the
    boolean) -> N/Y/X code."""
    ds = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_acctbal"])

    def enc(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "vital_status_cd": dates.vital_status_code(
                    pc.less(t["c_acctbal"], 0.0)
                ),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


SQL_VITAL_STATUS = """
SELECT c_custkey,
       CASE WHEN c_acctbal IS NULL THEN 'X'
            WHEN c_acctbal < 0 THEN 'Y' ELSE 'N' END AS vital_status_cd
FROM customer
"""


def age_years(sf_dir: str) -> rd.Dataset:
    """M11: whole-year distance o_orderdate -> fixed AS_OF clock."""
    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"])

    def enc(t: pa.Table) -> pa.Table:
        as_of = pa.scalar(AS_OF).cast(pa.timestamp("us"))
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "age_years": dates.age_years(t["o_orderdate"], as_of),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


SQL_AGE_YEARS = f"""
SELECT o_orderkey,
       CAST(FLOOR(date_diff('day', o_orderdate, TIMESTAMP '{AS_OF} 00:00:00')
                  / 365.25) AS BIGINT) AS age_years
FROM orders
"""


def length_of_stay(sf_dir: str) -> rd.Dataset:
    """M12: per-user day span of event activity (visit-LOS analog) — a
    grouped min/max with partial pre-aggregation then the day-distance
    kernel."""
    import polars as pl

    from ray.data.aggregate import Max, Min

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("user_id")
            .agg(pl.col("ts").min().alias("mn"), pl.col("ts").max().alias("mx"))
            .to_arrow()
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Min("mn", alias_name="first_ts"), Max("mx", alias_name="last_ts"))
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "los_days": dates.length_of_stay(t["first_ts"], t["last_ts"]),
            }
        )

    return agg.map_batches(fin, batch_format="pyarrow")


SQL_LENGTH_OF_STAY = """
SELECT user_id,
       CAST(date_diff('day', MIN(ts), MAX(ts)) AS BIGINT) AS los_days
FROM events GROUP BY user_id
"""


def full_name(sf_dir: str) -> rd.Dataset:
    """M14: "Last, First Middle" assembly (customer name parts stand in)."""
    ds = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_mktsegment"])

    def enc(t: pa.Table) -> pa.Table:
        middle = pa.nulls(len(t), pa.string())
        return pa.table(
            {
                "c_custkey": t["c_custkey"],
                "display_name": strings.full_name(t["c_name"], t["c_mktsegment"], middle),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


SQL_FULL_NAME = """
SELECT c_custkey, c_name || ', ' || c_mktsegment AS display_name
FROM customer
"""


def blob_join(sf_dir: str) -> rd.Dataset:
    """M18: delimited-field escape+join blob."""
    ds = rd.read_parquet(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_name", "p_brand", "p_type"])

    def enc(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "p_partkey": t["p_partkey"],
                "blob": strings.blob_join([t["p_name"], t["p_brand"], t["p_type"]]),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


SQL_BLOB_JOIN = r"""
SELECT p_partkey,
       replace(replace(p_name,  '\', '\\'), '|', '\|') || '|' ||
       replace(replace(p_brand, '\', '\\'), '|', '\|') || '|' ||
       replace(replace(p_type,  '\', '\\'), '|', '\|') AS blob
FROM part
"""


def hierarchy_path(sf_dir: str) -> rd.Dataset:
    r"""i2b2 metadata path assembly ``\region\nation\`` from the joined
    region/nation hierarchy (PathSupport.java:84-110 analog)."""
    import polars as pl

    import ray

    reg = pl.read_parquet(f"{sf_dir}/region.parquet")
    ref = ray.put(reg)

    def enc(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        out = df.join(ray.get(ref), left_on="n_regionkey", right_on="r_regionkey").to_arrow()
        return pa.table(
            {
                "n_nationkey": out["n_nationkey"],
                "c_fullname": strings.hierarchy_path(out["r_name"], out["n_name"]),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/nation.parquet")
    return ds.map_batches(enc, batch_format="pyarrow", **worker_runtime_env())


SQL_HIERARCHY_PATH = r"""
SELECT n_nationkey, '\' || r_name || '\' || n_name || '\' AS c_fullname
FROM nation JOIN region ON n_regionkey = r_regionkey
"""


def eav_inequality(sf_dir: str) -> rd.Dataset:
    """M6 inequality arm: a deterministic comparator per event feeds the
    comparator->tval_char code mapping (TValCharWhenNumberCode.java)."""
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "value"])

    def enc(t: pa.Table) -> pa.Table:
        import numpy as np

        eid = t["event_id"].to_numpy()
        comps = np.array(["=", "<", "<=", ">", ">=", "!="], dtype=object)
        comp = pa.array(comps[eid % 6], pa.string())
        trip = eav.encode_numeric(t["value"], comparator=comp)
        from ..functions.numeric import round_half_away_pc

        return pa.table(
            {
                "event_id": t["event_id"],
                "valtype_cd": trip["valtype_cd"],
                "tval_char": trip["tval_char"],
                "nval_num": round_half_away_pc(trip["nval_num"], 4),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


SQL_EAV_INEQUALITY = """
SELECT event_id,
       CASE WHEN value IS NULL THEN '@' ELSE 'N' END AS valtype_cd,
       CASE WHEN value IS NULL THEN NULL
            ELSE CASE event_id % 6
                   WHEN 0 THEN 'E' WHEN 1 THEN 'L' WHEN 2 THEN 'LE'
                   WHEN 3 THEN 'G' WHEN 4 THEN 'GE' ELSE 'NE' END
       END AS tval_char,
       ROUND(value, 4) AS nval_num
FROM events
"""


# demographic age-range dim codes (DemographicsAgeBuilder.java:51-52,81-84:
# the reference emits one ontology folder per age band with a SQL-expression
# dim code; here the banding itself is the operator, vectorized)
AGE_BANDS = [(0, 9), (10, 17), (18, 34), (35, 44), (45, 54), (55, 64)]


def age_buckets(sf_dir: str) -> rd.Dataset:
    """§2.8: recode age_years into the i2b2 demographics age bands
    ('0-9' ... '65+') — a pure vectorized dictionary-range lookup chained
    after the M11 age kernel."""
    import numpy as np

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"])

    bounds = np.array([b[1] for b in AGE_BANDS])  # upper edges
    labels = np.array([f"{lo}-{hi}" for lo, hi in AGE_BANDS] + ["65+"], dtype=object)

    def enc(t: pa.Table) -> pa.Table:
        as_of = pa.scalar(AS_OF).cast(pa.timestamp("us"))
        yrs = dates.age_years(t["o_orderdate"], as_of).to_numpy(zero_copy_only=False)
        band = np.searchsorted(bounds, yrs, side="left")
        return pa.table(
            {
                "o_orderkey": t["o_orderkey"],
                "age_years": pa.array(yrs),
                "age_band": pa.array(labels[band], pa.string()),
            }
        )

    return ds.map_batches(enc, batch_format="pyarrow", zero_copy_batch=True)


SQL_AGE_BUCKETS = f"""
WITH a AS (
  SELECT o_orderkey,
         CAST(FLOOR(date_diff('day', o_orderdate, TIMESTAMP '{AS_OF} 00:00:00')
                    / 365.25) AS BIGINT) AS age_years
  FROM orders
)
SELECT o_orderkey, age_years,
       CASE WHEN age_years <= 9 THEN '0-9'
            WHEN age_years <= 17 THEN '10-17'
            WHEN age_years <= 34 THEN '18-34'
            WHEN age_years <= 44 THEN '35-44'
            WHEN age_years <= 54 THEN '45-54'
            WHEN age_years <= 64 THEN '55-64'
            ELSE '65+' END AS age_band
FROM a
"""
