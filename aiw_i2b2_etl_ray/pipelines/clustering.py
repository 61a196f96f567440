"""Embedding-space clustering over the ``embeddings`` table: spherical
k-means (cosine assignment), the primitive behind cluster-based curation
(SemDeDup-style semantic dedup, cluster-balanced data selection, and
density-based pruning all start from exactly this assignment).

Two queries:

- ``cluster_assign``: one nearest-centroid pass against K deterministic
  seed centroids — the map-only assignment step (broadcast centroids,
  vectorized per-batch argmax; zero shuffle).
- ``kmeans_refine``: ``KMEANS_ITERS`` Lloyd iterations from the same
  seeds — the iterative-convergence shape.  Each iteration is one
  streaming pass emitting K-row mergeable partials (cluster, count,
  per-dim sums); the driver folds a K x dim matrix (config-sized, NOT
  corpus-sized), rounds it canonically, and re-broadcasts.  At 100 TB
  nothing but the K x dim centroid matrix and K-row-per-block partials
  ever leave the workers.

Exact-oracle notes: assignment ties (two centroids equidistant from a
vector) break by lowest cluster_id on both sides; centroid coordinates
are rounded half-away-from-zero to ``CENTROID_ND`` decimals after every
update on BOTH sides, so the engine's float64 means and DuckDB's
``ROUND(AVG(..))`` agree bit-for-bit (same canonicalization as the
ROUND(SUM(..)) oracles — see functions/numeric.py).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from ..functions.numeric import round_half_away
from ..util import worker_runtime_env

CLUSTER_K = 8  # deterministic seed set: the first K vec_ids
KMEANS_ITERS = 2  # Lloyd iterations in kmeans_refine
CENTROID_ND = 6  # centroid coordinates rounded to 6 decimals per update


def _load_seed_centroids(sf_dir: str) -> np.ndarray:
    """The K seed centroids (vec_id < CLUSTER_K) via a predicate-pushed
    parquet read — only overlapping row groups are fetched, never the
    table (same pattern as similarity._load_queries)."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", CLUSTER_K)],
    )
    df = t.to_pandas().sort_values("vec_id")
    return np.stack(df["embedding"].to_numpy()).astype(np.float64)


def _batch_matrix(t: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    ids = t["vec_id"].to_numpy()
    m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
    return ids, m


def _assign(m: np.ndarray, cents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized spherical assignment: argmax cosine, ties to the lowest
    cluster_id (np.argmax returns the FIRST maximum, which is the lowest
    index — matching the SQL ``ORDER BY cos DESC, cluster_id`` tie-break)."""
    mn = m / (np.linalg.norm(m, axis=1, keepdims=True) + 1e-300)
    cn = cents / (np.linalg.norm(cents, axis=1, keepdims=True) + 1e-300)
    cos = mn @ cn.T  # (batch, K)
    cid = np.argmax(cos, axis=1)
    return cid, cos[np.arange(len(cid)), cid]


def cluster_assign(sf_dir: str) -> rd.Dataset:
    """Nearest-seed-centroid assignment for every vector: the map-only
    step of spherical k-means and the partitioning step of SemDeDup.
    Broadcast centroids (ray.put once, fetched per task), one vectorized
    matmul per batch, zero shuffle — output is (vec_id, cluster_id,
    cosine) for the full table."""
    c_ref = ray.put(_load_seed_centroids(sf_dir))

    def assign(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {
                    "vec_id": pa.array([], pa.int64()),
                    "cluster_id": pa.array([], pa.int64()),
                    "cosine": pa.array([], pa.float64()),
                }
            )
        ids, m = _batch_matrix(t)
        cid, cos = _assign(m, ray.get(c_ref))
        return pa.table(
            {
                "vec_id": pa.array(ids, pa.int64()),
                "cluster_id": pa.array(cid.astype(np.int64)),
                "cosine": pa.array(round_half_away(cos, 4)),
            }
        )

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ds.map_batches(assign, batch_format="pyarrow", **worker_runtime_env())


SQL_CLUSTER_ASSIGN = f"""
WITH seeds AS (
  SELECT vec_id AS cluster_id, CAST(embedding AS DOUBLE[]) AS ce
  FROM embeddings WHERE vec_id < {CLUSTER_K}
),
scored AS (
  SELECT e.vec_id, s.cluster_id,
         list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), s.ce) AS cos_raw,
         ROW_NUMBER() OVER (
           PARTITION BY e.vec_id
           ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), s.ce)
                      DESC,
                    s.cluster_id ASC
         ) AS rn
  FROM embeddings e CROSS JOIN seeds s
)
SELECT vec_id, cluster_id, ROUND(cos_raw, 4) AS cosine
FROM scored WHERE rn = 1
"""


def kmeans_refine(sf_dir: str) -> rd.Dataset:
    """``KMEANS_ITERS`` Lloyd iterations of spherical k-means from the
    deterministic seed centroids, returning the final per-cluster census
    (cluster_id, n_vecs) — the iterative distributed-convergence shape.

    Per iteration: one streaming pass emits per-batch partials of
    (cluster_id, count, per-dim float64 sums) — at most K rows per batch,
    mergeable; the driver folds the K x dim matrix, rounds it to
    ``CENTROID_ND`` decimals (canonical with the SQL oracle's
    ROUND(AVG(..))), and broadcasts the update via ray.put.  The final
    assignment pass emits (cluster_id, partial-count) rows into a K-row
    keyed groupby.  live_clusters: a cluster emptied by an exact seed tie
    drops out of the centroid matrix exactly as it drops out of the SQL
    GROUP BY."""
    from ray.data.aggregate import Sum

    cents = _load_seed_centroids(sf_dir)
    dim = cents.shape[1]
    # decode the list<float> column ONCE into a FixedSizeList column and
    # materialize: the 2 Lloyd passes + the census each re-scan it with a
    # zero-copy reshape instead of re-reading parquet and re-stacking
    # Python list rows (the decode dominated the 3-pass wall time).
    # Reuse-vs-recompute: the decoded matrix is 8B x n x dim in the object
    # store (spills past memory) — a win whenever ITERS >= 2; a single-
    # pass consumer (cluster_assign) keeps the direct read.
    raw = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["embedding"])

    def _prep(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"emb": pa.array([], pa.list_(pa.float64(), dim))}
            )
        m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        fsl = pa.FixedSizeListArray.from_arrays(
            pa.array(m.ravel(), pa.float64()), dim
        )
        return pa.table({"emb": fsl})

    ds = raw.map_batches(_prep, batch_format="pyarrow", **worker_runtime_env()).materialize()

    def _emb_matrix(t: pa.Table) -> np.ndarray:
        return np.asarray(
            t["emb"].combine_chunks().flatten(), dtype=np.float64
        ).reshape(-1, dim)

    # cluster ids track the surviving seed order so a dropped (emptied)
    # cluster keeps the remaining ids stable
    cid_map = np.arange(CLUSTER_K, dtype=np.int64)

    for _ in range(KMEANS_ITERS):
        c_ref = ray.put(cents)

        def sum_partial(t: pa.Table, _ref=c_ref) -> pa.Table:
            empty = pa.table(
                {
                    "cluster_id": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sums": pa.array([], pa.list_(pa.float64())),
                }
            )
            if len(t) == 0:
                return empty
            m = _emb_matrix(t)
            cid, _cos = _assign(m, ray.get(_ref))
            order = np.argsort(cid, kind="stable")
            cs, ms = cid[order], m[order]
            bounds = np.flatnonzero(np.diff(cs)) + 1
            groups = np.split(np.arange(len(cs)), bounds)
            out_c = [int(cs[g[0]]) for g in groups]
            out_n = [len(g) for g in groups]
            out_s = [ms[g].sum(axis=0) for g in groups]
            return pa.table(
                {
                    "cluster_id": pa.array(out_c, pa.int64()),
                    "n": pa.array(out_n, pa.int64()),
                    "sums": pa.array([s.tolist() for s in out_s], pa.list_(pa.float64())),
                }
            )

        partials = ds.map_batches(
            sum_partial, batch_format="pyarrow", **worker_runtime_env()
        ).materialize()
        tables = ray.get(partials.to_arrow_refs())
        counts = np.zeros(len(cents), dtype=np.int64)
        sums = np.zeros((len(cents), dim), dtype=np.float64)
        for t in tables:
            if len(t) == 0 or "cluster_id" not in t.schema.names:
                continue
            cds = t["cluster_id"].to_numpy()
            np.add.at(counts, cds, t["n"].to_numpy())
            np.add.at(sums, cds, np.stack(t["sums"].to_pandas().to_numpy()))
        live = counts > 0
        cents = round_half_away(sums[live] / counts[live][:, None], CENTROID_ND)
        cid_map = cid_map[live]

    c_ref = ray.put((cents, cid_map))

    def census_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0:
            return pa.table(
                {"cluster_id": pa.array([], pa.int64()), "pn": pa.array([], pa.int64())}
            )
        cents_f, ids_f = ray.get(c_ref)
        m = _emb_matrix(t)
        cid, _cos = _assign(m, cents_f)
        u, n = np.unique(cid, return_counts=True)
        return pa.table(
            {
                "cluster_id": pa.array(ids_f[u], pa.int64()),
                "pn": pa.array(n.astype(np.int64)),
            }
        )

    return (
        ds.map_batches(census_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("cluster_id")
        .aggregate(Sum("pn", alias_name="n_vecs"))
        .map_batches(
            # sort-groupby schema-less empty reduce block guard
            lambda t: pa.table(
                {"cluster_id": t["cluster_id"], "n_vecs": t["n_vecs"].cast(pa.int64())}
            )
            if len(t) and "cluster_id" in t.schema.names
            else pa.table(
                {
                    "cluster_id": pa.array([], pa.int64()),
                    "n_vecs": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _sql_one_iter(prev_cent_cte: str, out_name: str) -> str:
    """One Lloyd iteration in SQL: assign to ``prev_cent_cte``
    (cluster_id, ce DOUBLE[]) then rebuild rounded per-dim means via the
    parallel-UNNEST zip + list(ORDER BY) reassembly."""
    return f"""
{out_name}_assign AS (
  SELECT vec_id, cluster_id FROM (
    SELECT e.vec_id, c.cluster_id,
           ROW_NUMBER() OVER (
             PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), c.ce)
                        DESC,
                      c.cluster_id ASC
           ) AS rn
    FROM embeddings e CROSS JOIN {prev_cent_cte} c
  ) WHERE rn = 1
),
{out_name} AS (
  SELECT cluster_id, list(m ORDER BY i) AS ce FROM (
    SELECT a.cluster_id, coords.i, ROUND(AVG(coords.x), {CENTROID_ND}) AS m
    FROM {out_name}_assign a
    JOIN (
      SELECT vec_id,
             UNNEST(CAST(embedding AS DOUBLE[])) AS x,
             UNNEST(range(len(embedding))) AS i
      FROM embeddings
    ) coords USING (vec_id)
    GROUP BY a.cluster_id, coords.i
  ) GROUP BY cluster_id
)"""


_SQL_ITER_CHAIN = ",".join(
    _sql_one_iter(f"cent{i}", f"cent{i + 1}") for i in range(KMEANS_ITERS)
)

SQL_KMEANS_REFINE = f"""
WITH cent0 AS (
  SELECT vec_id AS cluster_id, CAST(embedding AS DOUBLE[]) AS ce
  FROM embeddings WHERE vec_id < {CLUSTER_K}
),{_SQL_ITER_CHAIN},
final_assign AS (
  SELECT vec_id, cluster_id FROM (
    SELECT e.vec_id, c.cluster_id,
           ROW_NUMBER() OVER (
             PARTITION BY e.vec_id
             ORDER BY list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), c.ce)
                        DESC,
                      c.cluster_id ASC
           ) AS rn
    FROM embeddings e CROSS JOIN cent{KMEANS_ITERS} c
  ) WHERE rn = 1
)
SELECT cluster_id, CAST(COUNT(*) AS BIGINT) AS n_vecs
FROM final_assign GROUP BY cluster_id
"""
