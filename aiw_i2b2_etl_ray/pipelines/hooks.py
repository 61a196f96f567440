"""Shipped run-level hook payloads.

The reference exposes stored-proc extension points its handler fires around
a load — EK_PRE_HOOK / EK_POST_HOOK plus the disable/enable-indexes pair
(dest/I2b2QueryResultsHandler.java:97-161, 1116-1139); operators point the
config at a proc NAME.  The engine's analog: ``ReplaySpec.pre_hook`` /
``post_hook`` hold a ``"module:function"`` dotted path, resolved at run
time (config.resolve_hook), and this module ships the natural payloads —
state-file compaction and statistics refresh — so a spec can simply say

    ReplaySpec(post_hook="aiw_i2b2_etl_ray.pipelines.hooks:post_compact")

Contract: ``pre(spec, run_id)`` runs before any output mutation;
``post(spec, run_id, summary)`` runs after every output and manifest is
committed.  Non-None return values are recorded in the run summary.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq


def _table_row_counts(out_dir: str) -> dict[str, int]:
    """Footer-only PHYSICAL row counts per output table (no data read).
    For path_dim this counts file rows, not merge-on-read keys.  A finished
    replay folds its hot-key runs into one file, so the two agree; the runs
    a crashed run left re-state keys until the next replay or compaction
    folds them (the GATHER_TABLE_STATS analog has the same physical-rows
    semantics)."""
    counts: dict[str, int] = {}
    for d in sorted(glob.glob(os.path.join(out_dir, "*"))):
        name = os.path.basename(d)
        if not os.path.isdir(d) or name.startswith("_"):
            continue
        n = 0
        for f in glob.glob(os.path.join(d, "**", "*.parquet"), recursive=True):
            n += pq.ParquetFile(f).metadata.num_rows
        counts[name] = n
    return counts


def pre_stats_snapshot(spec, run_id: str) -> dict:
    """Pre-hook: snapshot the warehouse's per-table row counts before the
    run touches anything, so the summary carries before/after deltas (the
    reference's pre-load count queries, I2b2QueryResultsHandler.java:
    751-837 run the same shape after load)."""
    return {"rows_before": _table_row_counts(spec.out_dir)}


def post_compact(spec, run_id: str, summary: dict) -> dict:
    """Post-hook: LSM-compact the hot-key state files (the natural
    'rebuild indexes after load' payload — stages.merge.compact_path_dim).
    The replay has already folded its own runs, so this reports the hot
    key count and folds only what an earlier crashed run left."""
    from ..stages.merge import compact_path_dim

    n = compact_path_dim(spec.out_dir)
    return {"hot_keys_compacted": n}


def post_stats_refresh(spec, run_id: str, summary: dict) -> dict:
    """Post-hook: refresh warehouse statistics — per-table PHYSICAL row
    counts (see _table_row_counts) written as a ``_stats`` side table
    (the GATHER_TABLE_STATS analog the reference's post-hook slot exists
    for).  Run post_compact first (post_compact_and_stats does) for
    stats closest to the logical counts."""
    counts = _table_row_counts(spec.out_dir)
    t = pa.table(
        {
            "table_name": pa.array(list(counts), pa.string()),
            "n_rows": pa.array(list(counts.values()), pa.int64()),
            "stats_run_id": pa.array([run_id] * len(counts), pa.string()),
        }
    )
    stats_dir = os.path.join(spec.out_dir, "_stats")
    os.makedirs(stats_dir, exist_ok=True)
    from ..stages.merge import _atomic_write

    _atomic_write(t, os.path.join(stats_dir, "stats.parquet"))
    return {"stats_tables": len(counts)}


def post_compact_and_stats(spec, run_id: str, summary: dict) -> dict:
    """Both shipped post payloads in the reference's order (indexes first,
    then stats)."""
    out = post_compact(spec, run_id, summary)
    out.update(post_stats_refresh(spec, run_id, summary))
    return out
