"""Checkpoint manifest.

The reference has NO checkpoint/resume — temp tables are truncated at start
and a failed run restarts from scratch (dest/I2b2QueryResultsHandler.java:
405-416; SURVEY.md §4 'checkpoint / resume').  The manifest is the engine's
replacement.

A partition record, ``_manifest/part-<pid>.json``, holds the partition's
monotonic watermark (last applied commit_seq), its lineage counters, the
schema version, the run that last committed it, and its dimension partials
(``partials``: rows ``[kind, key, mn, mx, live]`` sorted by kind and key,
the combiner side of repo_dim / lang_dim / modifier_dim).  A record
written before the partials moved into it has no ``partials`` key; its
partition's partials are then read from the legacy per-partition file,
which goes once the partition's next record is written.

A merge task commits all of its partitions at once, because one of its
files holds rows of several partitions:

1. it writes every output under a ``*.tmp-*`` name;
2. it writes a task record, ``_manifest/task-<run>-<lo>.json``, listing
   the partitions' new records and the tmp -> final renames — writing it
   is the commit point;
3. it does the renames;
4. it writes the partition records;
5. it deletes the task record.

A replay first rolls forward any task record a crash left (steps 3-5,
each idempotent), then reaps ``*.tmp-*`` names, and only then reads
watermarks and the resume set.  So a task commits whole or leaves nothing
a reader, a resume or a later run can see.  A resumed run (same out_dir,
resume=True) skips partitions whose record's run_id matches, and an
incremental (mode="update") run filters events at or below each
partition's watermark — together with change-id dedup this yields
exactly-once application.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__ as _ENGINE_VERSION
from ..schemas import MANIFEST


def atomic_json(obj: dict, path: str) -> None:
    """Write ``obj`` as JSON to ``path`` atomically (tmp file + rename).
    ``json.dumps`` encodes with the C encoder; ``json.dump`` streams
    through the pure-Python one, 3x slower on a task's records."""
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        f.write(json.dumps(obj))
    os.replace(tmp, path)


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_manifest")


def _read_json(path: str) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


#: the columns of a dimension partial row
_PARTIALS = ["kind", "key", "mn", "mx", "live"]
#: where a record written before the partials moved into it keeps them
_LEGACY_PARTIALS = "_dimpart"


def _record_path(out_dir: str, pid: int) -> str:
    return os.path.join(manifest_dir(out_dir), f"part-{pid:05d}.json")


def legacy_partials_dir(out_dir: str) -> str:
    """The per-partition partials directory of an out_dir written before the
    partials moved into the records; only the fallback reads it."""
    return os.path.join(out_dir, _LEGACY_PARTIALS)


def _legacy_partials_file(out_dir: str, pid: int) -> str:
    return os.path.join(legacy_partials_dir(out_dir), f"part-{pid:05d}.parquet")


def _drop_legacy_partials(out_dir: str, pid: int) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(_legacy_partials_file(out_dir, pid))


def read_partition(out_dir: str, pid: int) -> dict:
    """Partition ``pid``'s record ({} when it has none)."""
    return _read_json(_record_path(out_dir, pid))


def read_partials(out_dir: str, pid: int, rec: dict | None = None) -> list:
    """Partition ``pid``'s dimension partial rows: ``rec`` (default: its
    record) holds them, or, for a record written before they moved into it,
    the partition's legacy file does."""
    rec = read_partition(out_dir, pid) if rec is None else rec
    if "partials" in rec:
        return rec["partials"]
    f = _legacy_partials_file(out_dir, pid)
    if not os.path.exists(f):
        return []
    return [list(r.values()) for r in pq.read_table(f, columns=_PARTIALS).to_pylist()]


def partition_record(
    prev: dict,
    pid: int,
    watermark_seq: int,
    *,
    run_id: str | None = None,
    schema_version: int | None = None,
    counts: dict | None = None,
    partials: list | None = None,
) -> dict:
    """Partition ``pid``'s next record after ``prev`` (its current one, or
    {}).  The watermark never goes down, and ``counts``
    (``applied``/``dups``/``conflicts``/``rejected``) add to the prior
    lineage counters (``applied`` counts applied events, not fan-out rows).
    ``run_id`` names the run that commits the partition; None keeps the
    prior record's (None for a fresh one), so a watermark bump is never
    mistaken for a commit by a crash-resume.  ``schema_version`` None keeps
    the prior one.  ``partials`` replace the prior ones, sorted by kind and
    key (nulls first); None keeps them, and a record without them keeps
    falling back to its legacy file."""
    c = counts or {}
    rec = {
        "partition_id": pid,
        "watermark_seq": max(prev.get("watermark_seq", -1), watermark_seq),
        "rows_applied": prev.get("rows_applied", 0) + c.get("applied", 0),
        "dups_dropped": prev.get("dups_dropped", 0) + c.get("dups", 0),
        "conflicts_resolved": prev.get("conflicts_resolved", 0) + c.get("conflicts", 0),
        "rows_rejected": prev.get("rows_rejected", 0) + c.get("rejected", 0),
        "schema_version": prev.get("schema_version", 1) if schema_version is None else schema_version,
        "run_id": prev.get("run_id") if run_id is None else run_id,
        "engine_version": _ENGINE_VERSION,
    }
    if partials is not None:
        rec["partials"] = sorted(
            (list(r) for r in partials), key=lambda r: (r[0], r[1] is not None, r[1] or "")
        )
    elif "partials" in prev or not prev:
        rec["partials"] = prev.get("partials", [])
    return rec


def write_partition(out_dir: str, pid: int, watermark_seq: int, **kw) -> None:
    """A read-modify-write of partition ``pid``'s record outside a merge
    task (a watermark bump, a partials rewrite); ``kw`` as for
    :func:`partition_record`.  New partials retire the legacy file."""
    path = _record_path(out_dir, pid)
    atomic_json(partition_record(_read_json(path), pid, watermark_seq, **kw), path)
    if kw.get("partials") is not None:
        _drop_legacy_partials(out_dir, pid)


def commit_task(out_dir: str, name: str, records: list[dict], renames: dict) -> None:
    """Commit a merge task: write its task record — the commit point —
    listing the partitions' new ``records`` and the ``renames`` (final ->
    tmp name, both relative to ``out_dir``), then finish it."""
    path = os.path.join(manifest_dir(out_dir), f"task-{name}.json")
    task = {"records": records, "renames": renames}
    atomic_json(task, path)
    _finish_task(out_dir, path, task)


def _finish_task(out_dir: str, path: str, task: dict) -> None:
    """Steps 3-5 of the committed task ``task``, recorded at ``path``; each
    is idempotent, so a crash anywhere in them is finished by
    :func:`roll_forward`."""
    for final, tmp in task["renames"].items():
        if os.path.exists(src := os.path.join(out_dir, tmp)):
            os.replace(src, os.path.join(out_dir, final))
    for rec in task["records"]:
        atomic_json(rec, _record_path(out_dir, rec["partition_id"]))
        _drop_legacy_partials(out_dir, rec["partition_id"])
    os.remove(path)


def roll_forward(out_dir: str) -> None:
    """Finish every task a crash left committed but unfinished; a replay
    calls this before it reaps ``*.tmp-*`` names."""
    for path in sorted(glob.glob(os.path.join(manifest_dir(out_dir), "task-*.json"))):
        _finish_task(out_dir, path, _read_json(path))


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
