"""Persistent windowed-aggregate state with exactly-once micro-batch
updates — the streaming-window counterpart of the LWW merge.

The CDC merge (stages/merge.py) maintains *latest-value* state; this
module maintains *additive* state: per-(repo, seq-window) change counts
folded into parquet-backed partitions across any number of update runs.
The exactly-once discipline is the same one the merge proved out:

* events route to a partition by ``routing.repo_pids``; a fold whose
  routing differs from the ``_window_manifest/job.json`` record is refused,
* each partition records a commit_seq watermark; an update run filters
  its input to ``commit_seq > watermark`` BEFORE adding partial counts,
  so redelivered rows can never double-count,
* the watermark is stored IN the state parquet's key-value metadata, so
  counts + watermark commit in ONE atomic rename — additive (read-modify-
  add) state is not re-apply-idempotent the way LWW is, so a separate
  watermark file would open a crash window where updated counts pair with
  a stale watermark and a replay double-counts.  A JSON mirror is still
  written for human inspection, but the parquet footer is authoritative.

Additive aggregates tolerate what LWW cannot: rows may arrive in any
order within a run.  The only ordering assumption is the merge's standard
one — redelivery re-sends suffixes of the log, never skips-then-backfills
below a delivered watermark.

Reference analog: the reference recomputes aggregate tables per run
(I2b2Statistics.java); here they are maintained incrementally, which is
what a WAL-tailing deployment needs.
"""

from __future__ import annotations

import glob
import json
import os

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray.data as rd

from ..sources.changes import read_changes
from ..stages import routing
from ..stages.exchange import keyed_fold
from ..stages.merge import _atomic_write
from ..state.manifest import atomic_json
from ..util import worker_runtime_env

WINDOW_SEQS = 1000  # window width in commit_seq units

STATE_SCHEMA = pa.schema(
    [
        pa.field("repo", pa.string()),
        pa.field("window_id", pa.int64()),
        pa.field("n_changes", pa.int64()),
    ]
)


def _part_file(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "window_counts", f"part-{pid:05d}.parquet")


def _wm_file(out_dir: str, pid: int) -> str:
    return os.path.join(out_dir, "_window_manifest", f"part-{pid:05d}.json")


def _read_wm(out_dir: str, pid: int) -> int:
    """Authoritative watermark = the state parquet's footer metadata
    (atomic with the counts it covers).  The JSON mirror is only a
    fallback for partitions that have never folded a row (no state file
    exists, watermark is still -1 or a skip-only update)."""
    pf = _part_file(out_dir, pid)
    if os.path.exists(pf):
        meta = pq.read_schema(pf).metadata or {}
        if b"watermark_seq" in meta:
            return int(meta[b"watermark_seq"])
    f = _wm_file(out_dir, pid)
    if not os.path.exists(f):
        return -1
    with open(f) as fh:
        return json.load(fh)["watermark_seq"]


def update_windows(
    input_path: str | rd.Dataset, out_dir: str, *, num_partitions: int = 8
) -> dict:
    """Fold one micro-batch of the change log into the persistent window
    counts.  Idempotent: re-running with an overlapping (redelivered)
    input slice leaves the state unchanged for already-covered seqs."""
    # stable-routing invariant (same rule as the merge's job manifest):
    # watermarks are per-PARTITION, so the event->partition mapping must
    # never change across folds — a different num_partitions or hash
    # re-routes rows past foreign watermarks and double-counts.
    jm_path = os.path.join(out_dir, "_window_manifest", "job.json")
    if os.path.exists(jm_path):
        with open(jm_path) as fh:
            routing.check_job(json.load(fh), num_partitions)
    changes = (
        read_changes(input_path, with_content=False)
        if isinstance(input_path, str)
        else input_path
    )

    def route(t: pa.Table) -> pa.Table:
        t = t.select(["repo", "commit_seq"])
        return t.append_column("_pid", routing.repo_pids(t, num_partitions))

    routed = changes.map_batches(route, batch_format="pyarrow", **worker_runtime_env())

    def fold_partition(pid: int, g: pa.Table) -> dict:
        """Per-partition fold: load existing counts, watermark-filter the
        batch, add partial counts, atomic rewrite."""
        wm_prev = _read_wm(out_dir, pid)
        seqs = g["commit_seq"]
        keep = pc.fill_null(pc.greater(seqs, wm_prev), False)
        n_in = len(g)
        g = g.filter(keep)
        n_skipped = n_in - len(g)  # late/duplicate rows under the watermark
        wm_new = wm_prev
        if len(g):
            wm_new = int(pc.max(g["commit_seq"]).as_py())
            part = (
                pl.from_arrow(g.select(["repo", "commit_seq"]))
                .with_columns(
                    (pl.col("commit_seq") // WINDOW_SEQS).alias("window_id")
                )
                .group_by(["repo", "window_id"])
                .agg(pl.len().cast(pl.Int64).alias("n_changes"))
            )
            pf = _part_file(out_dir, pid)
            if os.path.exists(pf):
                prev = pl.from_arrow(pq.read_table(pf))
                part = (
                    pl.concat([prev, part])
                    .group_by(["repo", "window_id"])
                    .agg(pl.col("n_changes").sum())
                )
            state = part.sort(["repo", "window_id"]).to_arrow().cast(STATE_SCHEMA)
            # counts + watermark in one atomic rename: the footer
            # watermark can never lag the counts it covers
            state = state.replace_schema_metadata(
                {b"watermark_seq": str(wm_new).encode()}
            )
            _atomic_write(state, _part_file(out_dir, pid))
        atomic_json(
            {"partition_id": pid, "watermark_seq": wm_new}, _wm_file(out_dir, pid)
        )
        return {
            "partition_id": pid,
            "rows_folded": len(g),
            "rows_skipped": n_skipped,
            "watermark_seq": wm_new,
        }

    def fold_partitions(block: pa.Table) -> pa.Table:
        rows = [
            fold_partition(pid, block.filter(pc.equal(block["_pid"], pid)))
            for pid in pc.unique(block["_pid"]).to_pylist()
        ]
        return pa.Table.from_pylist(rows)

    os.makedirs(os.path.join(out_dir, "window_counts"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "_window_manifest"), exist_ok=True)
    atomic_json({"num_partitions": num_partitions, "routing_id": routing.routing_id()}, jm_path)
    summary = keyed_fold(routed, "_pid", fold_partitions, num_partitions).to_pandas()
    # an empty micro-batch folds no partition: the summary has no columns
    return {
        "partitions": len(summary),
        **{k: int(summary[k].sum()) if k in summary else 0 for k in ("rows_folded", "rows_skipped")},
    }


def load_windows(out_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(out_dir, "window_counts", "*.parquet")))
    if not files:
        return STATE_SCHEMA.empty_table()
    t = pa.concat_tables([pq.read_table(f) for f in files])
    return t.sort_by([("repo", "ascending"), ("window_id", "ascending")])
