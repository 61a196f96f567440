"""Resumable partitioned Parquet sink — the CDC table-writer pattern
(stages/merge._atomic_write + per-partition manifest) generalized to any
Dataset and partition key.

Contract: one directory per key value, one atomic file per key (tmp +
rename, so readers never see partials), and a rerun SKIPS keys whose file
already exists — a failed job resumes by re-running the same call.  This
is the prompt's resumable-output rule as a reusable operator instead of
something each pipeline reinvents.

At scale: the keyed groupby is the one shuffle; a hot key can be salted
into part-files with the same machinery as the merge (pass
``max_rows_per_file`` to split within the writer, no extra exchange).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray.data as rd

from .util import worker_runtime_env


def _safe(v) -> str:
    s = str(v)
    return "".join(c if (c.isalnum() or c in "-_.") else "_" for c in s) or "_null"


def write_partitioned(
    ds: rd.Dataset,
    out_dir: str,
    *,
    by: str,
    max_rows_per_file: int | None = None,
) -> dict:
    """Write ``ds`` as ``out_dir/<by>=<value>/data[-NNN].parquet``.

    Returns {"written": n_keys_written, "skipped": n_keys_skipped}.
    Idempotent per key: keys whose first file exists are skipped whole
    (the atomic rename means an existing file is always complete)."""
    os.makedirs(out_dir, exist_ok=True)

    def write_key(g: pa.Table) -> pa.Table:
        key = g[by][0].as_py()
        d = os.path.join(out_dir, f"{by}={_safe(key)}")
        first = os.path.join(d, "data-000.parquet")
        if os.path.exists(first):
            return pa.table({"key": pa.array([str(key)]), "written": pa.array([False])})
        os.makedirs(d, exist_ok=True)
        # no completion marker => any data-NNN/.tmp files are leftovers of a
        # crashed attempt.  Clear them first: the rerun may produce FEWER
        # chunks (fewer rows, larger max_rows_per_file), and a stale higher-
        # numbered chunk surviving next to fresh files would silently
        # corrupt the partition for glob readers.
        import glob as _glob

        for stale in _glob.glob(os.path.join(d, "data-*.parquet")) + _glob.glob(
            os.path.join(d, "data-*.parquet.tmp")
        ):
            os.remove(stale)
        # the input's pandas metadata describes a frame these files are
        # not; kept, it makes Ray log a schema-hash warning on every split
        # read of them
        meta = {k: v for k, v in (g.schema.metadata or {}).items() if k != b"pandas"}
        g = g.replace_schema_metadata(meta or None)
        chunk = max_rows_per_file or len(g) or 1
        starts = list(range(0, max(1, len(g)), chunk))
        # data-000 is the key's completion marker (the skip check above),
        # so write it LAST: a crash mid-key leaves no data-000 and the
        # rerun rewrites the whole key.
        for i in reversed(starts):
            part = g.slice(i, chunk)
            f = os.path.join(d, f"data-{i // chunk:03d}.parquet")
            tmp = f + ".tmp"
            pq.write_table(part, tmp)
            os.replace(tmp, f)  # atomic: readers never observe partials
        return pa.table({"key": pa.array([str(key)]), "written": pa.array([True])})

    res = (
        ds.groupby(by)
        .map_groups(write_key, batch_format="pyarrow", **worker_runtime_env())
        .to_pandas()
    )
    return {
        "written": int(res["written"].sum()),
        "skipped": int((~res["written"]).sum()),
    }
