"""Persistent, incrementally-grown IVF similarity index.

The batch pipeline (similarity.ann_ivf_topk) re-trains and re-assigns
the whole embeddings table per query run.  A growing corpus needs the
incremental form — the standard IVF lifecycle (train once on a bounded
sample, then *add* vectors to inverted lists forever): durable
centroids + per-update list run files, so new embedding slices fold in
without touching prior state and queries probe only their nearest
persisted lists.

State layout (under ``out_dir/ann_index/``):
- ``centroids.parquet`` — the coarse quantizer, trained ONCE at index
  creation on a bounded deterministic head sample of the corpus
  (similarity._train_centroids — the driver never holds more than the
  sample).  Immutable thereafter: assignments from every later update
  remain mutually consistent, which is what makes incremental == batch.
- ``lists/run-<run_id>/`` — one parquet run dir per update holding
  ``(list_id:int32, vec_id:int64, embedding:list<float64> normalized)``.
  Appending runs is LSM-style; list membership is a union, so no prior
  file is ever rewritten and a compaction is an optimization, never a
  correctness need.

Queries read ONLY the probed lists (predicate-pushed ``list_id`` filter
over the run files — at scale this touches IVF_NPROBE/IVF_LISTS of the
index), search per-list distributed, and fold a tiny top-k on the
driver.  Because the quantizer is frozen at creation, a two-increment
build answers queries IDENTICALLY to the one-shot batch pipeline —
asserted by test_ann_index.py, the same convergence contract as the
dedup index (pipelines/dedup_index.py) and the persistent ontology.
"""

from __future__ import annotations

import glob
import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..util import worker_runtime_env
from .similarity import (
    IVF_LISTS,
    IVF_NPROBE,
    N_QUERIES,
    _fold_topk,
    _load_queries,
    _probe_search,
    _train_centroids,
)


def _root(out_dir: str) -> str:
    return os.path.join(out_dir, "ann_index")


def _cent_file(out_dir: str) -> str:
    return os.path.join(_root(out_dir), "centroids.parquet")


def _run_dirs(out_dir: str) -> list[str]:
    return sorted(glob.glob(os.path.join(_root(out_dir), "lists", "run-*")))


def _load_centroids(out_dir: str) -> np.ndarray | None:
    f = _cent_file(out_dir)
    if not os.path.exists(f):
        return None
    t = pq.read_table(f)
    return np.stack(t["centroid"].to_pandas().to_numpy()).astype(np.float64)


def ann_index_update(
    sf_dir: str,
    out_dir: str,
    *,
    row_filter=None,
    run_id: str | None = None,
) -> dict:
    """Fold one embedding slice (``row_filter`` pushed into the parquet
    scan) into the persistent index.  First call trains and persists the
    quantizer; every call assigns its slice distributed and appends one
    list run dir.  Query rows (vec_id < N_QUERIES) are never indexed."""
    run_id = run_id or uuid.uuid4().hex[:8]
    cents = _load_centroids(out_dir)
    trained = cents is None
    if trained:
        cents = _train_centroids(sf_dir)
        os.makedirs(_root(out_dir), exist_ok=True)
        from ..stages.merge import _atomic_write

        _atomic_write(
            pa.table(
                {
                    "list_id": pa.array(np.arange(IVF_LISTS, dtype=np.int32)),
                    "centroid": pa.array(list(cents)),
                }
            ),
            _cent_file(out_dir),
        )
    cents_ref = ray.put(cents)

    def assign(t: pa.Table) -> pa.Table:
        """Full assignment (no probe pruning — the index serves arbitrary
        future queries, so every vector lands in its list)."""
        if len(t) == 0:  # predicate-pushed reads can emit empty blocks
            return pa.table(
                {
                    "list_id": pa.array([], pa.int32()),
                    "vec_id": pa.array([], pa.int64()),
                    "embedding": pa.array([], pa.list_(pa.float64())),
                }
            )
        ids = t["vec_id"].to_numpy()
        m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        norm = m / (np.linalg.norm(m, axis=1, keepdims=True) + 1e-300)
        lists = (norm @ ray.get(cents_ref).T).argmax(axis=1)
        keep = ids >= N_QUERIES
        return pa.table(
            {
                "list_id": pa.array(lists[keep].astype(np.int32)),
                "vec_id": pa.array(ids[keep]),
                "embedding": pa.array(list(norm[keep])),
            }
        )

    kwargs = {"columns": ["vec_id", "embedding"]}
    if row_filter is not None:
        kwargs["filter"] = row_filter
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", **kwargs)
    assigned = ds.map_batches(assign, batch_format="pyarrow", **worker_runtime_env())
    # ATOMIC run commit (cf. dedup_index.index_update): tmp dir + rename,
    # so a crashed update can't leave a partial run and a same-run_id
    # retry can't merge fresh files with stale ones (duplicated vectors
    # would crowd true neighbors out of top-k)
    import shutil

    run_dir = os.path.join(_root(out_dir), "lists", f"run-{run_id}")
    tmp_dir = os.path.join(_root(out_dir), "lists", f".tmp-run-{run_id}")
    shutil.rmtree(tmp_dir, ignore_errors=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(tmp_dir)
    assigned.write_parquet(tmp_dir)
    os.replace(tmp_dir, run_dir)
    n = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(run_dir, "*.parquet"))
    )
    return {
        "run_id": run_id,
        "trained": trained,
        "vectors_added": n,
        "total_runs": len(_run_dirs(out_dir)),
    }


def ann_index_compact(out_dir: str) -> dict:
    """Fold all list run dirs into one canonical run — the LSM compaction
    analog (cf. dedup_index.index_compact); list membership is a union so
    this is purely a file-count optimization."""
    import shutil

    dirs = _run_dirs(out_dir)
    if len(dirs) <= 1:
        return {"runs_folded": 0}
    files = [
        f for d in dirs for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
    ]
    # rename-in-before-delete (cf. dedup_index.index_compact): a crash
    # mid-deletion leaves duplicates (the query fold dedups by vec_id and
    # a compaction re-run folds them away); the old order lost the index
    tmp = os.path.join(_root(out_dir), "lists", ".tmp-compaction")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    rd.read_parquet(files).write_parquet(tmp)
    os.replace(
        tmp, os.path.join(_root(out_dir), "lists", f"run-compacted-{uuid.uuid4().hex[:8]}")
    )
    for d in dirs:
        shutil.rmtree(d)
    return {"runs_folded": len(dirs)}


def ann_index_query(sf_dir: str, out_dir: str) -> pd.DataFrame:
    """Top-k over the PERSISTED index: probe each query's IVF_NPROBE
    nearest lists, reading only those lists' rows from the run files
    (predicate-pushed), per-list distributed search, tiny driver fold.
    Same output contract as similarity.ann_ivf_topk."""
    import pyarrow.dataset as pads

    qids, qmat = _load_queries(sf_dir)
    cents = _load_centroids(out_dir)
    if cents is None:
        raise FileNotFoundError(f"no ann_index at {out_dir}")
    qsim = qmat @ cents.T
    probe: dict[int, list[int]] = {}
    for qi in range(len(qids)):
        for c in np.argsort(-qsim[qi])[:IVF_NPROBE]:
            probe.setdefault(int(c), []).append(qi)
    probe_ref = ray.put((qids, qmat, probe))
    probed_lists = sorted(probe)

    def list_search(g: pa.Table) -> pa.Table:
        return _probe_search(g, "list_id", *ray.get(probe_ref))

    files = [
        f
        for d in _run_dirs(out_dir)
        for f in sorted(glob.glob(os.path.join(d, "*.parquet")))
    ]
    lists_ds = rd.read_parquet(files, filter=pads.field("list_id").isin(probed_lists))
    return _fold_topk(
        lists_ds.groupby("list_id")
        .map_groups(list_search, batch_format="pyarrow", **worker_runtime_env())
        .to_pandas()
    )


def ann_incremental(sf_dir: str) -> pd.DataFrame:
    """Catalog surface: two-increment index build (vec_id < 600, then the
    rest) queried from the persisted lists.  The frozen-at-creation
    quantizer makes this IDENTICAL to the one-shot batch pipeline
    (similarity.ann_ivf_topk) — asserted in test_ann_index.py; rows-only
    for the driver (approximate op, no SQL formulation)."""
    import shutil
    import tempfile

    import pyarrow.dataset as pads

    out = tempfile.mkdtemp(prefix="aiw-ann-index-")
    try:
        ann_index_update(
            sf_dir, out, row_filter=(pads.field("vec_id") < 600), run_id="inc1"
        )
        ann_index_update(
            sf_dir, out, row_filter=(pads.field("vec_id") >= 600), run_id="inc2"
        )
        return ann_index_query(sf_dir, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
