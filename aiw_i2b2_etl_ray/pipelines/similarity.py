"""Similarity search over the ``embeddings`` table: brute-force cosine
top-k (the exact baseline) and an LSH-bucketed approximate variant (the
scale path).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data as rd

from ..functions.numeric import round_half_away
from ..util import worker_runtime_env

N_QUERIES = 8  # deterministic query set: the first N vec_ids
TOP_K = 5


def _load_queries(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic query set (vec_id < N_QUERIES) via a
    predicate-pushed parquet read: only row groups whose stats overlap the
    filter are fetched, so the driver never holds the embeddings table —
    at 100 TB this read touches one row group, not the corpus."""
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", N_QUERIES)],
    )
    df = t.to_pandas().sort_values("vec_id")
    q = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return df["vec_id"].to_numpy(), q


def _empty_partials() -> pa.Table:
    return pa.table(
        {
            "query_id": pa.array([], pa.int64()),
            "vec_id": pa.array([], pa.int64()),
            "cosine": pa.array([], pa.float64()),
        }
    )


def _topk_partials(ids: np.ndarray, norm: np.ndarray, qids: np.ndarray, qmat: np.ndarray) -> pa.Table:
    """Local top-k of the normalized rows ``norm`` (ids ``ids``) for each
    query row of ``qmat`` (ids ``qids``): (query_id, vec_id, cosine)."""
    cos = norm @ qmat.T  # (rows, queries)
    k = min(TOP_K, len(ids))
    part = np.argpartition(-cos, k - 1, axis=0)[:k]  # (k, queries)
    return pa.table(
        {
            "query_id": pa.array(np.repeat(np.asarray(qids, np.int64), k)),
            "vec_id": pa.array(ids[part.T.ravel()].astype(np.int64)),
            "cosine": pa.array(np.take_along_axis(cos, part, axis=0).T.ravel()),
        }
    )


def _probe_search(g: pa.Table, key: str, qids: np.ndarray, qmat: np.ndarray, probe: dict) -> pa.Table:
    """Top-k partials of one bucket/list group ``g`` against exactly the
    queries that probe it (``probe[g[key]]``)."""
    qidx = probe.get(int(g[key][0].as_py()), [])
    if not qidx:
        return _empty_partials()
    ids = g["vec_id"].to_numpy()
    norm = np.stack(g["embedding"].to_pandas().to_numpy())
    # a persisted list can hold the same vec_id twice (ann_index: a crashed
    # compaction's rename-in-before-delete window); dedup BEFORE the top-k
    # so duplicates can't take several of the k slots and evict a distinct
    # true neighbor
    uniq, first = np.unique(ids, return_index=True)
    if len(uniq) < len(ids):
        ids, norm = ids[first], norm[first]
    return _topk_partials(ids, norm, qids[qidx], qmat[qidx])


def _fold_topk(partials: pd.DataFrame) -> pd.DataFrame:
    """Driver fold of the per-batch/per-group partials to the global
    per-query top-k, ranked and rounded."""
    if len(partials) == 0:
        return pd.DataFrame(columns=["query_id", "rank", "vec_id", "cosine"])
    out = (
        partials.sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True])
        # a duplicated vec_id (see _probe_search) must not fill two slots
        .drop_duplicates(["query_id", "vec_id"])
        .groupby("query_id", sort=True)
        .head(TOP_K)
        .reset_index(drop=True)
    )
    out["rank"] = out.groupby("query_id").cumcount() + 1
    out["cosine"] = round_half_away(out["cosine"], 4)
    return out[["query_id", "rank", "vec_id", "cosine"]]


def ann_topk(sf_dir: str) -> pd.DataFrame:
    """Brute-force cosine top-k: the query matrix is broadcast once
    (ray.put), each batch computes a (batch x queries) matmul and emits its
    local top-k; the driver folds the tiny partials into the global top-k.
    This is exact — the baseline the approximate variants are scored
    against."""
    q_ref = ray.put(_load_queries(sf_dir))

    def batch_topk(t: pa.Table) -> pa.Table:
        qids, qmat = ray.get(q_ref)
        ids = t["vec_id"].to_numpy()
        keep = ids >= N_QUERIES  # exclude the queries themselves
        if not keep.any():
            return _empty_partials()
        m = np.stack(t["embedding"].to_pandas().to_numpy()[keep]).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True) + 1e-300
        return _topk_partials(ids[keep], m, qids, qmat)

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return _fold_topk(
        ds.map_batches(batch_topk, batch_format="pyarrow", **worker_runtime_env()).to_pandas()
    )


SQL_ANN_TOPK = f"""
WITH q AS (
  SELECT vec_id AS query_id, embedding AS qe FROM embeddings
  WHERE vec_id < {N_QUERIES}
),
scored AS (
  SELECT q.query_id, e.vec_id,
         list_cosine_similarity(q.qe, e.embedding) AS cos_raw
  FROM q JOIN embeddings e ON e.vec_id >= {N_QUERIES}
),
ranked AS (
  SELECT query_id, vec_id, cos_raw,
         ROW_NUMBER() OVER (
           PARTITION BY query_id ORDER BY cos_raw DESC, vec_id ASC
         ) AS rank
  FROM scored
)
SELECT query_id, CAST(rank AS BIGINT) AS rank, vec_id,
       ROUND(cos_raw, 4) AS cosine
FROM ranked WHERE rank <= {TOP_K}
"""


# --- LSH-bucketed approximate variant ---------------------------------------

LSH_PLANES = 8  # 2^8 buckets
LSH_PROBE_FLIPS = 2  # multi-probe radius (Hamming ball around query bucket)


def _lsh_planes(dim: int) -> np.ndarray:
    rng = np.random.default_rng(17)
    return rng.standard_normal((LSH_PLANES, dim))


def _probe_map(qmat: np.ndarray) -> dict[int, list[int]]:
    """bucket -> query indices probing it (Hamming ball of radius
    LSH_PROBE_FLIPS around each query's signature)."""
    planes = _lsh_planes(qmat.shape[1])
    qsig = (qmat @ planes.T > 0).astype(np.uint16)
    qbits = (qsig << np.arange(LSH_PLANES, dtype=np.uint16)).sum(axis=1)
    out: dict[int, set[int]] = {}
    for qi, b0 in enumerate(qbits):
        ball = {int(b0)}
        frontier = set(ball)
        for _ in range(LSH_PROBE_FLIPS):
            nxt = {b ^ (1 << i) for b in frontier for i in range(LSH_PLANES)}
            ball |= nxt
            frontier = nxt
        for b in ball:
            out.setdefault(b, set()).add(qi)
    return {b: sorted(qs) for b, qs in out.items()}


def ann_lsh_topk(sf_dir: str, with_stats: bool = False):
    """Approximate top-k, bucket-PARTITIONED: random-hyperplane LSH bucket
    is the shuffle key.

    1. stateless bucketize stage: sign-projection bucket per vector, rows
       outside the union probe set dropped BEFORE the shuffle — non-probed
       data never enters the exchange (at 100 TB, the probed fraction is
       the only data that moves; with a pre-bucketed/partitioned index
       layout even the scan prunes at the read);
    2. ``groupby(bucket).map_groups``: each bucket scanned once against
       exactly the queries whose Hamming ball (radius LSH_PROBE_FLIPS)
       covers it — per-bucket top-k partials;
    3. tiny driver fold to the global per-query top-k.

    ``with_stats=True`` additionally returns a lineage dict with the
    scanned-row count vs the corpus size (the probed fraction).  Recall vs
    the exact baseline is asserted in tests (approximate by design)."""
    qids, qmat = _load_queries(sf_dir)
    pm = _probe_map(qmat)
    planes = _lsh_planes(qmat.shape[1])
    probed = np.zeros(1 << LSH_PLANES, dtype=bool)
    probed[list(pm)] = True
    bucket_ref = ray.put((planes, probed))
    probe_ref = ray.put((qids, qmat, pm))

    def bucketize(t: pa.Table) -> pa.Table:
        planes, probed = ray.get(bucket_ref)
        ids = t["vec_id"].to_numpy()
        m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        norm = m / (np.linalg.norm(m, axis=1, keepdims=True) + 1e-300)
        sig = (norm @ planes.T > 0).astype(np.uint16)
        bits = (sig << np.arange(LSH_PLANES, dtype=np.uint16)).sum(axis=1)
        keep = probed[bits] & (ids >= N_QUERIES)
        emb = pa.array(list(norm[keep]))  # pre-normalized, list<double>
        return pa.table(
            {
                "bucket": pa.array(bits[keep].astype(np.int32)),
                "vec_id": pa.array(ids[keep]),
                "embedding": emb,
            }
        )

    def bucket_search(g: pa.Table) -> pa.Table:
        return _probe_search(g, "bucket", *ray.get(probe_ref))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    bucketed = ds.map_batches(bucketize, batch_format="pyarrow", **worker_runtime_env())
    if with_stats:  # counted and then searched: run the bucketize pass once
        bucketed = bucketed.materialize()
        scanned = bucketed.count()
    out = _fold_topk(
        bucketed.groupby("bucket")
        .map_groups(bucket_search, batch_format="pyarrow", **worker_runtime_env())
        .to_pandas()
    )
    if with_stats:
        total = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id"]).count()
        return out, {"rows_scanned": scanned, "rows_total": total}
    return out


# --- IVF (inverted-file) approximate variant --------------------------------

IVF_LISTS = 16  # coarse centroids
IVF_NPROBE = 4  # centroids probed per query


def _train_centroids(sf_dir: str, sample_rows: int = 2048) -> np.ndarray:
    """Deterministic coarse-quantizer training: Lloyd iterations on a
    bounded head sample, driver-side (the classic IVF recipe — train on a
    sample, assign the full corpus distributed).  Init = the first
    IVF_LISTS eligible vectors; 5 iterations; empty cells keep their
    previous centroid.  Everything is seedless-deterministic.

    The sample is a BOUNDED head read: batches stream off the parquet
    file and the scan stops at ``sample_rows`` — the driver never holds
    more than the sample regardless of corpus size."""
    import pyarrow.parquet as pq

    pf = pq.ParquetFile(f"{sf_dir}/embeddings.parquet")
    batches, got = [], 0
    for b in pf.iter_batches(batch_size=sample_rows, columns=["vec_id", "embedding"]):
        batches.append(b)
        got += len(b)
        if got >= sample_rows:
            break
    t = pa.Table.from_batches(batches).slice(0, sample_rows)
    m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
    m /= np.linalg.norm(m, axis=1, keepdims=True) + 1e-300
    cents = m[:IVF_LISTS].copy()
    for _ in range(5):
        assign = (m @ cents.T).argmax(axis=1)
        for c in range(IVF_LISTS):
            members = m[assign == c]
            if len(members):
                v = members.mean(axis=0)
                cents[c] = v / (np.linalg.norm(v) + 1e-300)
    return cents


def ann_ivf_topk(sf_dir: str, with_stats: bool = False):
    """IVF approximate top-k, list-PARTITIONED (the scale path the prompt
    names alongside LSH): a sample-trained coarse quantizer assigns every
    vector to its nearest centroid list; each query probes only its
    IVF_NPROBE nearest lists.  Identical physical plan to ann_lsh_topk —
    stateless assign stage drops non-probed rows BEFORE the shuffle, list
    id is the shuffle key, per-list scan against exactly the probing
    queries, tiny driver fold."""
    qids, qmat = _load_queries(sf_dir)
    cents = _train_centroids(sf_dir)
    qsim = qmat @ cents.T  # (nq, lists)
    probe: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for c in np.argsort(-qsim[qi])[:IVF_NPROBE]:
            probe.setdefault(int(c), []).append(qi)
    probed = np.zeros(IVF_LISTS, dtype=bool)
    probed[list(probe)] = True
    assign_ref = ray.put((cents, probed))
    probe_ref = ray.put((qids, qmat, probe))

    def assign(t: pa.Table) -> pa.Table:
        cents, probed = ray.get(assign_ref)
        ids = t["vec_id"].to_numpy()
        m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        norm = m / (np.linalg.norm(m, axis=1, keepdims=True) + 1e-300)
        lists = (norm @ cents.T).argmax(axis=1)
        keep = probed[lists] & (ids >= N_QUERIES)
        return pa.table(
            {
                "list_id": pa.array(lists[keep].astype(np.int32)),
                "vec_id": pa.array(ids[keep]),
                "embedding": pa.array(list(norm[keep])),
            }
        )

    def list_search(g: pa.Table) -> pa.Table:
        return _probe_search(g, "list_id", *ray.get(probe_ref))

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    assigned = ds.map_batches(assign, batch_format="pyarrow", **worker_runtime_env())
    if with_stats:  # counted and then searched: run the assign pass once
        assigned = assigned.materialize()
        scanned = assigned.count()
    out = _fold_topk(
        assigned.groupby("list_id")
        .map_groups(list_search, batch_format="pyarrow", **worker_runtime_env())
        .to_pandas()
    )
    if with_stats:
        total = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id"]).count()
        return out, {"rows_scanned": scanned, "rows_total": total}
    return out
