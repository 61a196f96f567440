"""Value/units/date/visit extraction chains — the M3/M4/M5/M13 operator
family as explicit precedence kernels (previously subsumed by the EAV
queries):

- ``value_precedence``: the reference's 4-level value extraction
  (dest/table/FactHandler.java:204-221): explicit property > modifier
  property > Parameter.getValue() > nominal(prop id) — plus M4's units
  extraction (unitsPropertyName formatted, :189-202).
- ``date_resolution``: M5's start/finish resolution (FactHandler.java:
  223-265): the record's own timestamp when present, else the configured
  selector against the ENCOUNTER interval (here: the user's first/last
  event time) — the fallback computed as a distributed partial aggregate
  broadcast to the resolve stage.
- ``visit_default``: M13's missing-visit-id default
  (VisitDimensionFactory.java:73-79): '@' + patientId.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray.data as rd

from ..util import worker_runtime_env


def value_precedence(sf_dir: str) -> rd.Dataset:
    """4-level value precedence + units over the events stream; output
    carries ``value_src`` naming which level fired (property / modifier /
    value / nominal).  Fully vectorized polars-over-Arrow (regexes compile
    once inside the Rust kernel) — no pandas copy of the full table."""
    from ..functions.numeric import round_half_away_pl

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "event_type", "value", "props", "user_id"],
    )

    def extract(t: pa.Table) -> pa.Table:
        # expressions built per batch: polars `Then` nodes don't pickle,
        # and construction cost is trivial next to the kernel work
        # L1 explicit property: the props 'k' value, purchases only
        l1 = pl.when(pl.col("event_type") == "purchase").then(
            pl.col("props").str.extract(r'"k": (\d+)', 1)
        )
        # L2 modifier property: uppercased type for the flagged cohort
        l2 = pl.when(pl.col("user_id") % 5 == 0).then(
            pl.col("event_type").str.to_uppercase()
        )
        # L3 parameter value: the numeric value as integer cents
        l3 = pl.when(pl.col("value").is_not_null()).then(
            round_half_away_pl(pl.col("value") * 100, 0).cast(pl.Int64).cast(pl.String)
        )
        # L4 nominal: the prop id itself
        l4 = pl.col("event_type")
        return (
            pl.from_arrow(t)
            .select(
                "event_id",
                pl.coalesce(l1, l2, l3, l4).alias("tval"),
                pl.when(l1.is_not_null())
                .then(pl.lit("property"))
                .when(l2.is_not_null())
                .then(pl.lit("modifier"))
                .when(l3.is_not_null())
                .then(pl.lit("value"))
                .otherwise(pl.lit("nominal"))
                .alias("value_src"),
                pl.col("props").str.extract(r'"(\w+)":', 1).fill_null("@").alias("units_cd"),
            )
            .to_arrow()
        )

    return ds.map_batches(extract, batch_format="pyarrow", **worker_runtime_env())


SQL_VALUE_PRECEDENCE = r"""
WITH x AS (
  SELECT event_id,
    CASE WHEN event_type = 'purchase'
         THEN NULLIF(regexp_extract(props, '"k": (\d+)', 1), '') END AS l1,
    CASE WHEN user_id % 5 = 0 THEN upper(event_type) END             AS l2,
    CASE WHEN value IS NOT NULL
         THEN CAST(CAST(ROUND(value * 100, 0) AS BIGINT) AS VARCHAR) END AS l3,
    event_type                                                        AS l4,
    COALESCE(NULLIF(regexp_extract(props, '"(\w+)":', 1), ''), '@')   AS units_cd
  FROM events
)
SELECT event_id,
       COALESCE(l1, l2, l3, l4) AS tval,
       CASE WHEN l1 IS NOT NULL THEN 'property'
            WHEN l2 IS NOT NULL THEN 'modifier'
            WHEN l3 IS NOT NULL THEN 'value'
            ELSE 'nominal' END  AS value_src,
       units_cd
FROM x
"""


def date_resolution(sf_dir: str) -> rd.Dataset:
    """Start/finish resolution with encounter fallback: events whose own
    timestamp is 'missing' (a deterministic mask) resolve against the
    user's encounter interval (first/last event time), computed as
    distributed per-batch partials folded on the driver and broadcast to
    the resolve stage — one pass + a tiny lookup, no window shuffle."""
    import polars as pl
    import ray

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "user_id", "ts"]
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("user_id")
            .agg(pl.col("ts").min().alias("mn"), pl.col("ts").max().alias("mx"))
            .to_arrow()
        )

    mat = ds.map_batches(partial, batch_format="pyarrow").materialize()
    tbls = [t for t in ray.get(mat.to_arrow_refs()) if len(t)]
    bounds = (
        pl.from_arrow(pa.concat_tables(tbls))
        .group_by("user_id")
        .agg(pl.col("mn").min(), pl.col("mx").max())
    )
    bounds_ref = ray.put(bounds)

    def resolve(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).join(ray.get(bounds_ref), on="user_id", how="left")
        missing = pl.col("event_id") % 7 == 0
        out = df.select(
            pl.col("event_id"),
            pl.when(missing).then(pl.col("mn")).otherwise(pl.col("ts")).alias("start_date"),
            pl.when(missing).then(pl.col("mx")).otherwise(pl.col("ts")).alias("finish_date"),
            pl.when(missing).then(pl.lit("encounter")).otherwise(pl.lit("event")).alias("date_src"),
        )
        return out.to_arrow()

    return ds.map_batches(resolve, batch_format="pyarrow", **worker_runtime_env())


SQL_DATE_RESOLUTION = """
WITH b AS (
  SELECT user_id, MIN(ts) AS mn, MAX(ts) AS mx FROM events GROUP BY user_id
)
SELECT e.event_id,
       CASE WHEN e.event_id % 7 = 0 THEN b.mn ELSE e.ts END AS start_date,
       CASE WHEN e.event_id % 7 = 0 THEN b.mx ELSE e.ts END AS finish_date,
       CASE WHEN e.event_id % 7 = 0 THEN 'encounter' ELSE 'event' END AS date_src
FROM events e JOIN b USING (user_id)
"""


def visit_default(sf_dir: str) -> rd.Dataset:
    """Missing-visit-id default: '@' + patientId (M13)."""
    import pyarrow.compute as pc

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_id", "user_id"])

    def fix(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        raw = pc.binary_join_element_wise(
            "v", pc.cast(pa.array(eid % 97), pa.string()), ""
        )
        raw = pc.if_else(pa.array(eid % 3 == 0), pa.scalar(None, pa.string()), raw)
        default = pc.binary_join_element_wise(
            "@", pc.cast(t["user_id"], pa.string()), ""
        )
        return pa.table(
            {
                "event_id": t["event_id"],
                "visit_id": pc.coalesce(raw, default),
            }
        )

    return ds.map_batches(fix, batch_format="pyarrow")


SQL_VISIT_DEFAULT = """
SELECT event_id,
       COALESCE(CASE WHEN event_id % 3 = 0 THEN NULL
                     ELSE 'v' || CAST(event_id % 97 AS VARCHAR) END,
                '@' || CAST(user_id AS VARCHAR)) AS visit_id
FROM events
"""
