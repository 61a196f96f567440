"""Dimension builders — grouped reductions over already-reduced data.

Reference analogs: PatientDimensionFactory / VisitDimensionFactory /
ProviderDimensionFactory + the first-writer-wins provider dedup
(dest/table/ProviderDimensionFactory.java:119-144) and synonym/modifier
dedup (SURVEY.md §2.7 D2).

At-scale shape: ONE streaming pass over the fact output computes per-block
partial aggregates for BOTH dimensions (a combiner emitting one row per
(key, block)); the partials are tiny (|repos| + |langs| rows per block), so
the final fold happens on the driver — no second shuffle at all.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray
import ray.data as rd

from ..schemas import LANG_DIM, REPO_DIM, ensure_columns
from ..util import worker_runtime_env


def _partials(t: pa.Table) -> pa.Table:
    df = pl.from_arrow(t.select(["repo", "lang", "commit_seq"]))
    r = df.group_by("repo").agg(
        pl.col("commit_seq").min().alias("mn"), pl.col("commit_seq").max().alias("mx")
    )
    l = df.group_by("lang").agg(
        pl.col("commit_seq").min().alias("mn"), pl.col("commit_seq").max().alias("mx")
    )
    both = pl.concat(
        [
            r.select(pl.lit("repo").alias("kind"), pl.col("repo").alias("key"), "mn", "mx"),
            l.select(pl.lit("lang").alias("kind"), pl.col("lang").alias("key"), "mn", "mx"),
        ]
    )
    return both.to_arrow()


def both_dims(fact_ds: rd.Dataset, path_dim: pa.Table) -> tuple[pa.Table, pa.Table]:
    """(repo_dim, lang_dim) in one pass over the fact stream."""
    mat = fact_ds.map_batches(
        _partials, batch_format="pyarrow", **worker_runtime_env()
    ).materialize()
    tbls = [t for t in ray.get(mat.to_arrow_refs()) if len(t)]
    if not tbls:
        return REPO_DIM.empty_table(), LANG_DIM.empty_table()
    agg = (
        pl.from_arrow(pa.concat_tables(tbls))
        .group_by(["kind", "key"])
        .agg(pl.col("mn").min(), pl.col("mx").max())
    )

    # --- repo_dim: fold in live-path counts from the converged path_dim ----
    repo = agg.filter(pl.col("kind") == "repo").select(
        pl.col("key").alias("repo"),
        pl.col("mn").alias("first_commit_seq"),
        pl.col("mx").alias("last_commit_seq"),
    )
    live = (
        pl.from_arrow(path_dim)
        .filter(pl.col("delete_date").is_null())
        .group_by("repo")
        .agg(pl.len().cast(pl.Int64).alias("n_paths_live"))
    )
    repo_out = (
        repo.join(live, on="repo", how="left")
        .with_columns(pl.col("n_paths_live").fill_null(0))
        .with_columns(
            pl.when(pl.col("n_paths_live") == 0)
            .then(pl.col("last_commit_seq"))
            .otherwise(None)
            .cast(pl.Datetime("us"))
            .alias("delete_date")
        )
        .sort("repo")
    )

    lang_out = (
        agg.filter(pl.col("kind") == "lang")
        .select(pl.col("key").alias("lang"), pl.col("mn").alias("first_seen_seq"))
        .sort("lang")
    )
    return (
        ensure_columns(repo_out.to_arrow(), REPO_DIM),
        ensure_columns(lang_out.to_arrow(), LANG_DIM),
    )


def fold_dim_partials(dimpart_dir: str, hot_path_dim: pa.Table | None = None):
    """(repo_dim, lang_dim, modifier_dim) from the dimension partials the
    merge tasks put into the partition records — a driver-side fold over
    ~num_partitions tiny row lists; the fact table is never re-read.
    ``dimpart_dir`` is the out_dir's legacy partials directory
    (``manifest.legacy_partials_dir``): the records are read from its
    sibling ``_manifest``, and a record written before the partials moved
    into it falls back to its file there.  ``hot_path_dim`` (the folded
    hot-key winners, which partition partials exclude) contributes extra
    live counts."""
    import os

    from ..schemas import MODIFIER_DIM
    from ..state import manifest as mf

    out_dir = os.path.dirname(dimpart_dir)
    rows = [
        r
        for rec in mf.read_manifest(out_dir)
        for r in mf.read_partials(out_dir, rec["partition_id"], rec)
    ]
    if not rows:
        return (
            REPO_DIM.empty_table(),
            LANG_DIM.empty_table(),
            MODIFIER_DIM.empty_table(),
        )
    schema = {"kind": pl.String, "key": pl.String, "mn": pl.Int64, "mx": pl.Int64, "live": pl.Int64}
    parts = [pl.DataFrame(rows, schema=schema, orient="row")]
    if hot_path_dim is not None and len(hot_path_dim):
        from .merge import _repo_live

        parts.append(_repo_live(pl.from_arrow(hot_path_dim)))
    agg = (
        pl.concat(parts)
        .group_by(["kind", "key"])
        .agg(pl.col("mn").min(), pl.col("mx").max(), pl.col("live").sum())
    )
    bounds = agg.filter(pl.col("kind") == "repo").select(
        pl.col("key").alias("repo"),
        pl.col("mn").alias("first_commit_seq"),
        pl.col("mx").alias("last_commit_seq"),
    )
    live = agg.filter(pl.col("kind") == "repo_live").select(
        pl.col("key").alias("repo"), pl.col("live").alias("n_paths_live")
    )
    repo_out = (
        bounds.join(live, on="repo", how="left")
        .with_columns(pl.col("n_paths_live").fill_null(0))
        .with_columns(
            pl.when(pl.col("n_paths_live") == 0)
            .then(pl.col("last_commit_seq"))
            .otherwise(None)
            .cast(pl.Datetime("us"))
            .alias("delete_date")
        )
        .sort("repo")
    )
    lang_out = (
        agg.filter(pl.col("kind") == "lang")
        .select(pl.col("key").alias("lang"), pl.col("mn").alias("first_seen_seq"))
        .sort("lang")
    )
    mod_out = (
        agg.filter(pl.col("kind") == "mod")
        .select(
            pl.col("key").alias("modifier_cd"),
            (pl.lit("\\Mod\\") + pl.col("key") + pl.lit("\\")).alias("modifier_path"),
            pl.col("key").alias("name_char"),
            pl.col("mn").alias("first_seen_seq"),
            pl.col("live").alias("n_facts"),
        )
        .sort("modifier_cd")
    )
    return (
        ensure_columns(repo_out.to_arrow(), REPO_DIM),
        ensure_columns(lang_out.to_arrow(), LANG_DIM),
        ensure_columns(mod_out.to_arrow(), MODIFIER_DIM),
    )


def repo_dim(fact_ds: rd.Dataset, path_dim: pa.Table) -> pa.Table:
    """repo_dim (patient_dimension analog): first/last applied commit_seq
    per repo + live-path count; a repo with zero live paths is logically
    deleted (delete_date set)."""
    return both_dims(fact_ds, path_dim)[0]


def lang_dim(fact_ds: rd.Dataset) -> pa.Table:
    """lang_dim (concept_dimension analog): languages discovered dynamically
    from the applied stream, like providers in the reference (ST3)."""
    from ..schemas import PATH_DIM

    return both_dims(fact_ds, PATH_DIM.empty_table())[1]
