"""Connected components over an edge Dataset — distributed hash-to-min
(Rastogi et al., "Finding Connected Components in MapReduce"), the
clustering step that turns near-duplicate PAIRS into duplicate GROUPS
(pick-one-per-cluster is what a dedup pipeline actually ships; pairs
alone are not actionable).

Physical plan per round — one keyed fold, no joins:

    adjacency (src, dst) --keyed_fold(src)--> each node u computes
    m = min(neighborhood ∪ {u}) and emits (m, v) + (v, m) for every v —
    i.e. attaches its whole neighborhood to its current minimum.
    The emitted pairs (deduped by the next round's fold) ARE the
    next round's adjacency; shortcut edges accumulate, so the component
    minimum reaches every node in O(log diameter) rounds, not O(diameter).

SUM over every node of min(neighborhood ∪ {u}) is monotone non-increasing
and stable exactly at the fixpoint (star graphs around each component
minimum), so it doubles as the convergence test.  Deterministic —
component id = min doc_id in the component.

At 100 TB: one keyed shuffle per round over id pairs only (16 B/row);
intermediate adjacency is bounded by O(component size) per component
(hash-to-min's known communication bound is O(n log n) total).  The
reference has no graph subsystem; this serves the training-data dedup
family (SURVEY.md §2.7 extension), composing with dedup_minhash_pairs.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd
from ray.data.aggregate import Min, Sum

from ..stages.exchange import keyed_fold
from ..util import worker_runtime_env


def connected_components(
    edges: rd.Dataset,
    *,
    src: str = "doc_a",
    dst: str = "doc_b",
    max_iters: int = 30,
    num_buckets: int = 16,
) -> rd.Dataset:
    """(node, component) for every node appearing in ``edges``; component
    id is the minimum node id reachable over undirected edges.  Raises if
    the fixpoint is not reached within ``max_iters`` rounds (hash-to-min
    needs ~log2(diameter) + 2, so 30 covers any practical graph).

    Each round is one ``keyed_fold`` on a COARSE node bucket
    (``_pid = src % num_buckets``), not per node: the per-node min/emit
    logic runs fully vectorized in polars over a block of buckets —
    per-node task dispatch would dominate past ~10^4 nodes (measured)."""
    import polars as pl

    def to_und(t: pa.Table) -> pa.Table:
        fwd = pa.table({"src": t[src].cast(pa.int64()), "dst": t[dst].cast(pa.int64())})
        rev = pa.table({"src": t[dst].cast(pa.int64()), "dst": t[src].cast(pa.int64())})
        out = pa.concat_tables([fwd, rev]).combine_chunks()
        pid = (out["src"].to_numpy() % num_buckets).astype(np.int32)
        return out.append_column("_pid", pa.array(pid))

    adj = edges.map_batches(to_und, batch_format="pyarrow", **worker_runtime_env())

    def hash_to_min_bucket(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g.select(["src", "dst"])).unique()
        mins = (
            df.group_by("src")
            .agg(pl.col("dst").min().alias("mn"))
            .with_columns(pl.min_horizontal("src", "mn").alias("m"))
        )
        j = df.join(mins.select("src", "m"), on="src")
        # attach every neighbor to the node's current min, both directions
        e1 = j.select(pl.col("m").alias("src"), pl.col("dst"))
        e2 = j.select(pl.col("dst").alias("src"), pl.col("m").alias("dst"))
        # keep u itself attached to m
        selfm = mins.filter(pl.col("src") != pl.col("m"))
        u1 = selfm.select(pl.col("m").alias("src"), pl.col("src").alias("dst"))
        u2 = selfm.select("src", pl.col("m").alias("dst"))
        out = (
            pl.concat([e1, e2, u1, u2])
            .filter(pl.col("src") != pl.col("dst"))
            .unique()
            .with_columns((pl.col("src") % num_buckets).cast(pl.Int32).alias("_pid"))
        )
        return out.to_arrow()

    def _metric(a: rd.Dataset) -> tuple:
        # (sum over nodes of min(neighborhood), node count, edge count):
        # the sum is monotone non-increasing; counts guard against a
        # theoretical plateau where the sum stalls while structure still
        # evolves.  All three are stable exactly at the star fixpoint.
        mins = a.groupby("src").aggregate(Min("dst", alias_name="m")).materialize()
        return (
            int(mins.aggregate(Sum("m"))["sum(m)"]),
            mins.count(),
            a.count(),
        )

    prev = None
    for it in range(max_iters):
        adj = keyed_fold(adj, "_pid", hash_to_min_bucket, num_buckets).materialize()
        cur = _metric(adj)
        if cur == prev:
            break
        prev = cur
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds"
        )

    def labels_bucket(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g.select(["src", "dst"]))
        out = (
            df.group_by("src")
            .agg(pl.col("dst").min().alias("mn"))
            .with_columns(pl.min_horizontal("src", "mn").alias("cluster_id"))
            .select(pl.col("src").alias("doc_id"), "cluster_id")
        )
        return out.to_arrow()

    return keyed_fold(adj, "_pid", labels_bucket, num_buckets)


def dedup_clusters(sf_dir: str) -> rd.Dataset:
    """Duplicate clusters from the MinHash+LSH verified pairs: each doc in
    any near-dup pair is labeled with its component's min doc_id (the
    canonical survivor a keep-one policy would retain)."""
    from .dedup import minhash_pairs_cached

    # pairs arrive as a (memoized, materialized) Dataset and feed the CC
    # rounds directly — the edge list never lands on the driver, and the
    # sketch+verify pass is shared with the dedup_minhash catalog entry
    edges = minhash_pairs_cached(sf_dir).select_columns(["doc_a", "doc_b"])
    return connected_components(edges)


def source_overlap(sf_dir: str) -> rd.Dataset:
    """Cross-source near-duplication matrix: for every (source_a,
    source_b) pair, how many verified near-dup pairs connect a doc of
    one to a doc of the other — the dataset-analysis report that tells
    a corpus builder which feeds duplicate each other (and themselves)
    before choosing mixing weights.

    Physical plan: the (memoized) verified pair set stays a Dataset; the
    doc->source attribute attaches via TWO bucketed hash joins (the
    corpus-sized side is never broadcast — at 100 TB doc->source is
    billions of rows), then a per-batch combiner + tiny keyed rollup.
    Sources are emitted unordered-pair-normalized (a <= b) so the matrix
    is triangular and join order cannot split a cell."""
    import polars as pl
    from ray.data.aggregate import Sum

    from ..stages.join import bucketed_join
    from .dedup import minhash_pairs_cached

    pairs = minhash_pairs_cached(sf_dir).select_columns(["doc_a", "doc_b"])
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    src_a = docs.map_batches(
        lambda t: pa.table({"doc_a": t["doc_id"], "source_a": t["source"]}),
        batch_format="pyarrow",
        **worker_runtime_env(),
    )
    src_b = docs.map_batches(
        lambda t: pa.table({"doc_b": t["doc_id"], "source_b": t["source"]}),
        batch_format="pyarrow",
        **worker_runtime_env(),
    )
    both = bucketed_join(
        bucketed_join(pairs, src_a, on=["doc_a"], num_buckets=8),
        src_b,
        on=["doc_b"],
        num_buckets=8,
    )

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .select(
                pl.min_horizontal("source_a", "source_b").alias("source_lo"),
                pl.max_horizontal("source_a", "source_b").alias("source_hi"),
            )
            .group_by(["source_lo", "source_hi"])
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    return (
        both.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["source_lo", "source_hi"])
        .aggregate(Sum("pn", alias_name="n_pairs"))
    )


def _pairs_cte() -> str:
    from .dedup import SQL_DEDUP_MINHASH

    return SQL_DEDUP_MINHASH


SQL_SOURCE_OVERLAP = f"""
WITH pairs AS ({_pairs_cte()})
SELECT least(da.source, db.source)    AS source_lo,
       greatest(da.source, db.source) AS source_hi,
       CAST(COUNT(*) AS BIGINT)       AS n_pairs
FROM pairs p
JOIN documents da ON da.doc_id = p.doc_a
JOIN documents db ON db.doc_id = p.doc_b
GROUP BY 1, 2
"""


SQL_DEDUP_CLUSTERS = f"""
WITH RECURSIVE pairs AS ({_pairs_cte()}),
und AS (
  SELECT doc_a AS a, doc_b AS b FROM pairs
  UNION
  SELECT doc_b, doc_a FROM pairs
),
walk(n, m) AS (
  SELECT a, a FROM (SELECT DISTINCT a FROM und)
  UNION
  SELECT w.n, u.b FROM walk w JOIN und u ON u.a = w.m
)
SELECT n AS doc_id, CAST(MIN(m) AS BIGINT) AS cluster_id
FROM walk GROUP BY n
"""
