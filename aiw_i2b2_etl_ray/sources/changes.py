"""Change-log sources.

Two entry points:

- ``read_footers(path)`` / ``read_changes(path)``: a Parquet change log
  (the engine's real input per BASELINE.json input_hint).  The footers are
  opened once, for the file list, the row count and the unified schema
  (files with/without the added ``size`` column, pruned to the engine's
  columns); ``read_changes`` builds a Ray Data read from them.

- ``changes_from_events(sf_dir)``: derive a deterministic change stream
  from the driver's ``events`` table with arithmetic that is expressible
  identically in ANSI SQL (``CHANGES_FROM_EVENTS_SQL``), so the full CDC
  replay can be validated row-for-row against a DuckDB oracle.  The
  derivation includes a duplicated slice (redelivered change-ids, the
  exactly-once case) and blank-path rows (the rejected-row case), mirroring
  the reference's CDC fixtures (testData.xml's DELETE_DATE/UPDATE_DATE rows).
"""

from __future__ import annotations

import dataclasses

import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd


#: the change log's columns the engine reads, in read order (``size`` is
#: added when some file of the delivery carries it)
_READ_COLUMNS = ["repo", "path", "commit", "lang", "commit_seq", "op", "content"]


@dataclasses.dataclass(frozen=True)
class Footers:
    """What a Parquet change log's footers say, read once: the files, each
    file's row count, and the unified schema every file is read with."""

    path: str | list[str]
    files: tuple[str, ...]
    file_rows: tuple[int, ...]
    schema: pa.Schema

    @property
    def rows(self) -> int:
        return sum(self.file_rows)


def read_footers(path: str | list[str]) -> Footers:
    """Open every footer of the change log at ``path`` (a file, a directory
    or a list of files) once.

    Schema evolution: later log files may carry extra columns (``size``).
    Reading with the unified schema both PRUNES to the engine's columns and
    NULL-BACKFILLS files written before the evolution point -- Arrow schema
    unification at the read, the engine's analog of the reference's
    ontology reconciliation (dest/metadata/Metadata.java:424-513)."""
    import pyarrow.dataset as pads

    from ..schemas import CHANGES_V2

    names: set[str] = set()
    files, rows = [], []
    for frag in pads.dataset(path).get_fragments():
        names.update(frag.physical_schema.names)
        files.append(frag.path)
        rows.append(frag.metadata.num_rows)
    cols = _READ_COLUMNS + (["size"] if "size" in names else [])
    schema = pa.schema([CHANGES_V2.field(c) for c in cols])
    return Footers(path, tuple(files), tuple(rows), schema)


def read_changes(path: str | list[str], *, with_content: bool = True) -> rd.Dataset:
    """Read a Parquet change log as a Ray Dataset, with the unified schema
    of :func:`read_footers`.

    ``cdc_replay.replay`` reads a path delivery with plain Ray tasks, from
    its footers; it reads through here only for the hot-key pre-pass of a
    sample over 2 GB.  A caller hands ``replay`` the Dataset this returns
    to run Ray Data's plan."""
    from ..util import cluster_cpus

    footers = read_footers(path)
    schema = footers.schema
    if not with_content:
        schema = schema.remove(schema.get_field_index("content"))
    # NOTE on read parallelism: Ray's ParquetDatasource assigns WHOLE files
    # to read tasks, and asking for more blocks than files only recuts each
    # file's decoded output (a SplitBlocks step, which also keeps Ray from
    # fusing the read with the Normalizer that follows).  So the read asks
    # for one block per file, never more than the cluster's CPUs: a log
    # with more files than CPUs reads several files per task.  Decode
    # parallelism is therefore at most the file count, so write logs as
    # many bounded-size segments, not a few giant files.
    blocks = max(1, min(len(footers.files), cluster_cpus()))
    return rd.read_parquet(footers.path, schema=schema, override_num_blocks=blocks)


def read_changes_table(path: str) -> pa.Table:
    """Driver-side (test/oracle) read of a whole change log with schema
    unification across evolved files (old files lack ``size``)."""
    import glob
    import os

    import pyarrow.parquet as pq

    from ..schemas import CHANGES_V2, ensure_columns

    files = (
        sorted(glob.glob(os.path.join(path, "*.parquet")))
        if os.path.isdir(path)
        else [path]
    )
    tbls = [pq.read_table(f) for f in files]
    if any("size" in t.column_names for t in tbls):
        tbls = [ensure_columns(t, CHANGES_V2) for t in tbls]
    return pa.concat_tables(tbls)


# --- deterministic derivation from the driver's `events` table -------------
# events schema: event_id:int64, ts:timestamp, user_id:int64,
#                event_type:string, value:double, props:string

_N_REPOS = 37
_N_PATHS = 101
_N_AUTHORS = 23
_DUP_MOD = 10  # every 10th event is redelivered (exact duplicate change-id)
_DEL_MOD = 11  # every 11th event is a tombstone
_REJ_MOD = 89  # every 89th event has an empty path -> rejected


def changes_from_events(sf_dir: str) -> rd.Dataset:
    """Vectorized Arrow derivation; MUST stay in lockstep with
    ``CHANGES_FROM_EVENTS_SQL``."""
    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "user_id", "event_type", "props"],
    )

    def derive(t: pa.Table) -> pa.Table:
        eid = t["event_id"]
        eid_np = eid.to_numpy()
        uid_np = t["user_id"].to_numpy()
        s = lambda x: pc.cast(x, pa.string())
        m = lambda arr, n: pa.array(arr % n)
        repo = pc.binary_join_element_wise("repo_", s(m(uid_np, _N_REPOS)), "")
        path = pc.binary_join_element_wise("f", s(m(eid_np, _N_PATHS)), ".txt", "")
        path = pc.if_else(pa.array(eid_np % _REJ_MOD == 0), "", path)
        commit = pc.binary_join_element_wise("c", s(eid), "")
        content = pc.binary_join_element_wise(
            t["event_type"], pc.coalesce(t["props"], ""), s(m(eid_np, 7)), ":"
        )
        op = pc.if_else(pa.array(eid_np % _DEL_MOD == 0), "D", "U")
        # author (provider analog): several user_ids share an author_id, so
        # first-writer-wins on the display name is a REAL reduction; the
        # name's initial spans A-Z for the alpha hierarchy
        author_id = pc.binary_join_element_wise("a", s(m(uid_np, _N_AUTHORS)), "")
        initial = pa.array([chr(65 + int(u % 26)) for u in uid_np], pa.string())
        author_name = pc.binary_join_element_wise(initial, "_u", s(t["user_id"]), "")
        out = pa.table(
            {
                "repo": repo,
                "path": path,
                "commit": commit,
                "lang": t["event_type"],
                "content": pc.cast(content, pa.large_string()),
                "commit_seq": eid,
                "op": op,
                "author_id": author_id,
                "author_name": author_name,
            }
        )
        # redeliver every DUP_MOD-th event (exact duplicate row)
        dup = out.filter(pa.array(eid_np % _DUP_MOD == 0))
        return pa.concat_tables([out, dup])

    return ds.map_batches(derive, batch_format="pyarrow")


#: SQL CTE producing the identical stream; embed as `WITH changes AS (...)`.
CHANGES_FROM_EVENTS_SQL = f"""
  base AS (
    SELECT
      'repo_' || CAST(user_id % {_N_REPOS} AS VARCHAR)                      AS repo,
      CASE WHEN event_id % {_REJ_MOD} = 0 THEN ''
           ELSE 'f' || CAST(event_id % {_N_PATHS} AS VARCHAR) || '.txt' END AS path,
      'c' || CAST(event_id AS VARCHAR)                                      AS "commit",
      event_type                                                            AS lang,
      event_type || ':' || COALESCE(props, '') || ':'
        || CAST(event_id % 7 AS VARCHAR)                                    AS content,
      event_id                                                              AS commit_seq,
      CASE WHEN event_id % {_DEL_MOD} = 0 THEN 'D' ELSE 'U' END             AS op,
      'a' || CAST(user_id % {_N_AUTHORS} AS VARCHAR)                        AS author_id,
      chr(65 + CAST(user_id % 26 AS INT)) || '_u' || CAST(user_id AS VARCHAR) AS author_name
    FROM events
  ),
  changes AS (
    SELECT * FROM base
    UNION ALL
    SELECT * FROM base WHERE commit_seq % {_DUP_MOD} = 0
  )
"""


# --- alternate ingestion formats --------------------------------------------
# The reference ingests from relational sources via JDBC
# (dsb/I2B2DataSourceBackend.java); a log-shipping deployment of this engine
# sees the same change records as CSV or JSONL drops instead of Parquet.
# Both readers land on the SAME unified Arrow schema (ensure_columns), so
# replay() is format-agnostic: `replay(read_changes_{csv,jsonl}(path), spec)`.


def _unify(ds: rd.Dataset, *, with_content: bool) -> rd.Dataset:
    from ..schemas import CHANGES_V2, ensure_columns

    cols = ["repo", "path", "commit", "lang", "commit_seq", "op"]
    if with_content:
        cols.append("content")
    has_size = "size" in ds.schema().names
    if has_size:
        cols.append("size")
    schema = pa.schema([CHANGES_V2.field(c) for c in cols])

    def norm(t: pa.Table) -> pa.Table:
        return ensure_columns(t, schema)

    return ds.map_batches(norm, batch_format="pyarrow")


def read_changes_csv(path: str | list[str], *, with_content: bool = True) -> rd.Dataset:
    """CSV change-log ingestion (standard quoting; embedded newlines in
    ``content`` must be quoted by the producer, which Arrow's reader
    handles).  Types are coerced to the unified change schema."""
    ds = rd.read_csv(path)
    return _unify(ds, with_content=with_content)


def read_changes_jsonl(path: str | list[str], *, with_content: bool = True) -> rd.Dataset:
    """JSON-lines change-log ingestion (one change record per line)."""
    ds = rd.read_json(path)
    return _unify(ds, with_content=with_content)


CHANGE_READERS = {
    "parquet": read_changes,
    "csv": read_changes_csv,
    "jsonl": read_changes_jsonl,
}
