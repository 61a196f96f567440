"""Checkpoint manifest.

The reference has NO checkpoint/resume — temp tables are truncated at start
and a failed run restarts from scratch (dest/I2b2QueryResultsHandler.java:
405-416; SURVEY.md §4 'checkpoint / resume').  The manifest is the engine's
replacement: one JSON per hash partition, written atomically AFTER that
partition's outputs, holding the per-partition monotonic watermark
(last applied commit_seq), lineage counters, and schema version.  A resumed
run (same out_dir, resume=True) skips partitions whose manifest run_id
matches, and an incremental (mode="update") run filters events at or below
each partition's watermark — together with change-id dedup this yields
exactly-once application.
"""

from __future__ import annotations

import glob
import json
import os
import uuid

import pyarrow as pa

from .. import __version__ as _ENGINE_VERSION
from ..schemas import MANIFEST


def atomic_json(obj: dict, path: str) -> None:
    """Write ``obj`` as JSON to ``path`` atomically (tmp file + rename)."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _read_json(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def write_partition(
    out_dir: str,
    pid: int,
    watermark_seq: int,
    *,
    run_id: str | None = None,
    schema_version: int = 1,
    counts: dict | None = None,
) -> None:
    """The one writer of a partition's manifest record, a read-modify-write
    of ``_manifest/part-<pid>.json``.  The watermark never goes down, and
    ``counts`` (``applied``/``dups``/``conflicts``/``rejected``) add to the
    prior record's lineage counters (``applied`` counts applied events, not
    fan-out rows).  ``run_id`` names the run that commits
    the partition; None keeps the prior record's (None for a fresh one), so
    a watermark bump is never mistaken for a commit by a crash-resume."""
    path = os.path.join(manifest_dir(out_dir), f"part-{pid:05d}.json")
    prev, c = _read_json(path), counts or {}
    atomic_json(
        {
            "partition_id": pid,
            "watermark_seq": max(prev.get("watermark_seq", -1), watermark_seq),
            "rows_applied": prev.get("rows_applied", 0) + c.get("applied", 0),
            "dups_dropped": prev.get("dups_dropped", 0) + c.get("dups", 0),
            "conflicts_resolved": prev.get("conflicts_resolved", 0) + c.get("conflicts", 0),
            "rows_rejected": prev.get("rows_rejected", 0) + c.get("rejected", 0),
            "schema_version": schema_version,
            "run_id": prev.get("run_id") if run_id is None else run_id,
            "engine_version": _ENGINE_VERSION,
        },
        path,
    )


def read_manifest(out_dir: str) -> list[dict]:
    return [
        _read_json(f)
        for f in sorted(glob.glob(os.path.join(manifest_dir(out_dir), "part-*.json")))
    ]


def watermarks(out_dir: str) -> dict[int, int]:
    return {r["partition_id"]: r["watermark_seq"] for r in read_manifest(out_dir)}


def completed_partitions(out_dir: str, run_id: str | None = None) -> set[int]:
    """Partitions already committed (optionally: by this very run_id — used
    by crash-resume to skip work finished before the crash)."""
    return {
        r["partition_id"]
        for r in read_manifest(out_dir)
        if run_id is None or r.get("run_id") == run_id
    }


def job_manifest_path(out_dir: str) -> str:
    return os.path.join(manifest_dir(out_dir), "job.json")


def write_job_manifest(out_dir: str, payload: dict) -> None:
    """Job-level invariants: partitioning parameters and the persisted
    hot-key set.  Exactly-once depends on a STABLE event->partition mapping
    across runs — a redelivered event must land on the partition whose
    watermark covers it.  So update-mode runs must reuse the same
    num_partitions/salt_buckets AND keep previously-hot keys salted even if
    this run's sample wouldn't flag them."""
    atomic_json(payload, job_manifest_path(out_dir))


def read_job_manifest(out_dir: str) -> dict | None:
    p = job_manifest_path(out_dir)
    return _read_json(p) if os.path.exists(p) else None


def manifest_table(out_dir: str) -> pa.Table:
    recs = read_manifest(out_dir)
    cols = {
        name: [r.get(name) for r in recs] for name in MANIFEST.names
    }
    return pa.table(
        {n: pa.array(cols[n], MANIFEST.field(n).type) for n in MANIFEST.names}
    )
