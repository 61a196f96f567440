"""Source-system-scoped retraction — the engine's analog of the reference's
``DELETE ... WHERE SOURCESYSTEM_CD IN (...)`` semi-join delete
(dest/I2b2QueryResultsHandler.java:1076-1093, J7): retract every row that
one source system (here: the ``lang`` column, set from the stream's source
tag) contributed, across all partitions of the star schema.

Physical plan: one Ray task per output partition file (partition-parallel,
no shuffle — the delete predicate is a per-row filter), rewriting fact /
path_dim / hot files in place (atomic tmp+rename) and refreshing the
dimension partials in each touched partition's record; then the replay's
hot-run fold (``stages.merge.fold_hot_runs``) re-folds the dims.
Retracted fact rows are archived rather than destroyed (the
reference's archive-keeps-history rule): each retraction run writes its
own ``archive/retractions/<run_id>/`` directory, so successive
retractions never overwrite each other's history and the merge-written
``archive/*.parquet`` table (ARCHIVE schema) stays uniformly readable.
"""

from __future__ import annotations

import glob
import os

import polars as pl
import pyarrow.parquet as pq
import ray

from ..schemas import PATH_DIM, ensure_columns
from ..stages.merge import _atomic_write, _repo_live, fold_hot_runs
from ..state import manifest as mf


@ray.remote
def _retract_fact_file(path: str, langs: tuple, archive_dir: str | None) -> int:
    t = pq.read_table(path)
    df = pl.from_arrow(t)
    hit = df.filter(pl.col("lang").is_in(list(langs)))
    if not len(hit):
        return 0
    keep = df.filter(~pl.col("lang").is_in(list(langs)))
    _atomic_write(ensure_columns(keep.to_arrow(), t.schema), path)
    if archive_dir is not None:
        base = os.path.basename(path).replace(".parquet", "")
        _atomic_write(
            hit.to_arrow(),
            os.path.join(archive_dir, f"retracted-fact-{base}.parquet"),
        )
    return len(hit)


@ray.remote
def _retract_path_file(path: str, langs: tuple, out_dir: str) -> int:
    t = ensure_columns(pq.read_table(path), PATH_DIM)
    df = pl.from_arrow(t)
    hit = df.filter(pl.col("lang").is_in(list(langs)))
    if not len(hit):
        return 0
    keep = df.filter(~pl.col("lang").is_in(list(langs)))
    _atomic_write(ensure_columns(keep.to_arrow(), PATH_DIM), path)
    # refresh this partition's repo_live snapshot (canonical part files only)
    base = os.path.basename(path)
    if base.startswith("part-"):
        pid = int(base[len("part-"):-len(".parquet")])
        rows = [r for r in mf.read_partials(out_dir, pid) if r[0] != "repo_live"]
        mf.write_partition(out_dir, pid, -1, partials=rows + _repo_live(keep).rows())
    return len(hit)


def retract_source(
    out_dir: str,
    langs: set[str],
    *,
    refold_dims: bool = True,
    run_id: str | None = None,
) -> dict:
    """Retract all rows a source system (``lang``) contributed, across every
    partition.  Returns counts.  ``refold_dims=True`` folds the hot runs
    and rebuilds the dims from the refreshed partials (min/max seq bounds keep
    their historical values — the reference's DELETE likewise leaves other
    tables' audit columns untouched).  ``run_id`` names this retraction's
    archive directory (auto-numbered when omitted) so repeated retractions
    keep independent history."""
    # a task a crash left committed but unfinished lands first: its renames
    # would otherwise put back rows this retraction removes
    mf.roll_forward(out_dir)
    langs_t = tuple(sorted(langs))
    fact_files = sorted(glob.glob(os.path.join(out_dir, "change_fact", "*.parquet")))
    path_files = sorted(glob.glob(os.path.join(out_dir, "path_dim", "*.parquet")))
    retr_root = os.path.join(out_dir, "archive", "retractions")
    if run_id is None:
        # max existing number + 1, NOT count-of-dirs + 1: after a deleted
        # or renamed retraction dir the count can alias an id that still
        # exists, and the deterministic per-partition archive filenames
        # would silently overwrite that run's retracted-fact history
        taken = [
            int(os.path.basename(d)[1:])
            for d in glob.glob(os.path.join(retr_root, "r[0-9]*"))
            if os.path.basename(d)[1:].isdigit()
        ]
        run_id = f"r{max(taken, default=0) + 1:03d}"
    archive_dir = os.path.join(retr_root, run_id)
    if glob.glob(os.path.join(archive_dir, "*.parquet")):
        raise ValueError(
            f"retraction run_id {run_id!r} already has archived facts in "
            f"{archive_dir}; pick a fresh run_id (reuse would overwrite "
            "that run's retracted-fact history)"
        )
    os.makedirs(archive_dir, exist_ok=True)

    fact_counts = ray.get(
        [_retract_fact_file.remote(f, langs_t, archive_dir) for f in fact_files]
    )
    path_counts = ray.get(
        [_retract_path_file.remote(f, langs_t, out_dir) for f in path_files]
    )

    # drop the retracted langs from every partition's fact partials so the
    # re-folded lang_dim no longer lists them
    for rec in mf.read_manifest(out_dir):
        pid = rec["partition_id"]
        rows = mf.read_partials(out_dir, pid, rec)
        kept = [r for r in rows if not (r[0] == "lang" and r[1] in langs_t)]
        if len(kept) != len(rows):
            mf.write_partition(out_dir, pid, -1, partials=kept)

    summary = {
        "facts_retracted": int(sum(fact_counts)),
        "paths_retracted": int(sum(path_counts)),
        "langs": list(langs_t),
        "run_id": run_id,
    }
    if refold_dims:
        fold_hot_runs(out_dir)
    return summary
