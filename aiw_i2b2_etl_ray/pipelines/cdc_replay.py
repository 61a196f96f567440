"""The flagship pipeline: full CDC replay to a converged Parquet star schema.

Two plans, both of plain Ray tasks, for every input.  A path delivery is
read from its Parquet files, which its footers list and count; a Dataset
input is materialized once and read from its Arrow blocks (both a
``sources.changes.Delivery`` of parts).  The row count picks the plan.
Above ``SMALL_DELIVERY_ROWS`` rows, the task exchange (``merge_exchange``):

    M map tasks, one per contiguous part group        # part_groups
      each: read its parts -> [seq bound]
        -> Normalizer -> [resume skip]                # digest + validate + pkey
        -> stable sort on pkey -> B pieces            # cut at fold_bounds
    B merge tasks, one per contiguous pkey range      # THE exchange: a task
      each: its M pieces, in part order               #   takes its pieces as
        -> stable sort on pkey -> PartitionMerger     #   ObjectRef arguments;
                                                      #   writes every output,
                                                      #   hot-key winners too,
                                                      #   one commit a task
      -> [driver] fold_hot_runs                       # hot runs -> one file,
                                                      #   dims from the records' partials

At most ``SMALL_DELIVERY_ROWS`` rows, the fused plan (``merge_small``):
the same map done inside each of the B range tasks, over the whole
delivery, which then keeps its own range and merges it.  A second wave
costs more than reading a small delivery B times (BASELINE.md sessions
16 and 17).

Both give a merge call the same rows, in the same order (per pkey, in
input order), so they write the same files, whatever the input's kind.

The execution grain is B merge tasks (``merge_tasks``): one per cluster
CPU, more when the delivery counts over ``MERGE_ROWS_PER_TASK`` rows a
task, never more than ``num_partitions``.  It is set by the cluster and
the delivery, not by the durable partition count: ``num_partitions``
part files, watermarks and manifests are as before.  Each wave of tasks
is submitted at once.

``replay_table``, the pure variant, runs Ray Data's plan instead:
``normalized`` -> ``merged_groups`` (a ``keyed_fold`` on pkey).

Reference lifecycle parity (dest/I2b2QueryResultsHandler.java): start() ->
config + broadcast state; handleQueryResult -> Normalizer; finish() ->
merge procs == PartitionMerger; the count/report queries (:751-837) ->
lineage manifest.
"""

from __future__ import annotations

import glob
import os
import shutil
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..config import ReplaySpec, out_paths
from ..sources.changes import Delivery, read_blocks, read_changes, read_footers
from ..stages import routing
from ..stages.exchange import fold_bounds, keyed_fold
from ..stages.merge import PartitionMerger, fold_hot_runs, reduce_hot_rows
from ..stages.normalize import Normalizer
from ..state import manifest as mf
from ..util import cluster_cpus, worker_runtime_env


HOT_TOPK_PER_BLOCK = 512


def find_hot_keys(ds: rd.Dataset, threshold: int) -> set[str]:
    """Pre-pass hot-key discovery, heavy-hitters style: each block emits
    only its top-K key counts (a tiny partial, no shuffle at all); the
    driver sums the partials and thresholds.

    This can UNDER-count a key that never makes a block's top-K, so apply a
    0.5 safety factor — a miss only costs salting (performance), never
    correctness.  Far cheaper than an exact groupby over every (repo, path):
    the full rows never leave their block."""
    import polars as pl

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["repo", "path"]))
            # null/empty keys are rejected rows downstream — never hot.
            .filter((pl.col("repo") != "") & (pl.col("path") != ""))
            .group_by(["repo", "path"])
            .agg(pl.len().cast(pl.Int64).alias("n"))
            .top_k(HOT_TOPK_PER_BLOCK, by="n")
            .to_arrow()
        )

    mat = ds.map_batches(
        partial, batch_format="pyarrow", **worker_runtime_env()
    ).materialize()  # single execution; partials are tiny
    tbls = [t for t in ray.get(mat.to_arrow_refs()) if len(t)]
    if not tbls:
        return set()
    merged = (
        pl.from_arrow(pa.concat_tables(tbls))
        .group_by(["repo", "path"])
        .agg(pl.col("n").sum())
        .filter(pl.col("n") >= max(1, threshold // 2))
    )
    return set(routing.encode_keys(merged))


def find_hot_keys_local(files: list[str], threshold: int) -> set[str]:
    """Driver-local exact variant of find_hot_keys for small sampled inputs
    (column-pruned scan; no Ray stage startup cost).  Uses DuckDB because
    its thread pool is independent of the POLARS_MAX_THREADS=1 cap the
    harness sets for Ray workers — the driver-side scan should use every
    core."""
    # file list + threshold go through parameter binding, never string
    # interpolation — a quote in a file name must not break the query
    keys = _duckdb().execute(
        """
        SELECT repo, path FROM read_parquet($files, union_by_name=true)
        WHERE repo <> '' AND path <> ''  -- also false for NULL: rejected rows
        GROUP BY repo, path
        HAVING COUNT(*) >= $thr
        """,
        {"files": list(files), "thr": max(1, threshold // 2)},
    ).arrow()
    return set(routing.encode_keys(keys))


_DUCKDB = None


def _duckdb():
    """A cursor on the process's one DuckDB database.  Opening a fresh
    database took 20 ms a call, four times the scan of a 5k-row sample; a
    cursor shares the database and is a connection of its own, so callers
    on different threads do not share one."""
    global _DUCKDB
    if _DUCKDB is None:
        import duckdb

        _DUCKDB = duckdb.connect()
    return _DUCKDB.cursor()


def sampled_hot_keys(footers: Delivery, threshold: int) -> set[str] | None:
    """The pre-pass of a path delivery, sampled: every 4th log segment
    (~25% of files, spread across commit time) when there are 8 or more,
    with the threshold scaled by the sampled fraction.  Hot-key detection
    is a performance heuristic — a missed borderline key costs salting,
    never correctness.  A sample whose footers count fewer rows than the
    bar ``thr // 2`` is not scanned: no key can reach the bar, so the skip
    is exact."""
    step = 4 if len(footers.parts) >= 8 else 1
    sample = list(footers.parts[::step])
    thr = max(1, int(threshold * len(sample) / len(footers.parts)))
    if sum(footers.part_rows[::step]) < max(1, thr // 2):
        return None
    if sum(os.path.getsize(f) for f in sample) < 2 << 30:
        # small sample: a driver-local DuckDB scan (column-pruned) beats
        # spinning up a Ray stage by seconds of fixed cost
        return find_hot_keys_local(sample, thr) or None
    return find_hot_keys(read_changes(sample, with_content=False), thr) or None


def seq_bound(t: pa.Table, lo: int | None, hi: int | None) -> pa.Table:
    """The date-bound replay's predicate (reference DateTimeFilter analog):
    the rows with ``lo <= commit_seq < hi``, either bound optional."""
    mask = pa.array([True] * len(t))
    if lo is not None:
        mask = pc.and_(mask, pc.greater_equal(t["commit_seq"], lo))
    if hi is not None:
        mask = pc.and_(mask, pc.less(t["commit_seq"], hi))
    return t.filter(mask)


def drop_partitions(t: pa.Table, pids: pa.Array) -> pa.Table:
    """``t`` without the rows of the partitions ``pids`` (a resume's skip set)."""
    return t.filter(pc.invert(pc.is_in(t["pkey"], value_set=pids)))


def _normalizer(spec: ReplaySpec, hot_keys: set[str] | None, modifier_specs: tuple) -> Normalizer:
    # the Normalizer instance is pickled into each task (tiny — the hot set
    # travels by ObjectRef and is fetched from the local object store
    # inside the worker)
    hot_ref = ray.put(hot_keys) if hot_keys else None
    return Normalizer(spec.num_partitions, spec.salt_buckets, hot_ref, modifier_specs)


def normalized(
    changes: rd.Dataset,
    spec: ReplaySpec,
    hot_keys: set[str] | None = None,
    modifier_specs: tuple = (),
) -> rd.Dataset:
    # stateless tasks, not an actor pool: elastic parallelism, no pool
    # ramp-up; no explicit batch_size: one call per read block avoids a
    # re-batching copy (sha/hash kernels are size-agnostic)
    return changes.map_batches(
        _normalizer(spec, hot_keys, modifier_specs),
        batch_format="pyarrow",
        zero_copy_batch=True,
        **worker_runtime_env(),
    )


#: the most rows a task is given when the files or partitions allow: one
#: merge call peaks at about 0.8 KB a row over its block (a 1M-row block:
#: +0.76 GB; 250k rows: +0.21 GB)
MERGE_ROWS_PER_TASK = 250_000
#: the most rows a delivery may count for its B range tasks to read it
#: whole each (``merge_small``) in place of the task exchange
#: (``merge_exchange``).  At 4 CPUs the fused plan won at 2k rows, the two
#: tied at 4k-12k and the task exchange won from 16k on (BASELINE.md
#: session 17)
SMALL_DELIVERY_ROWS = 8_000


def merge_tasks(num_partitions: int, rows: int = 0) -> int:
    """B: the replay's merge tasks.  One per CPU of the cluster, more when
    ``rows`` (the delivery's row count, when known) would give a task over
    ``MERGE_ROWS_PER_TASK`` rows, and never more than there are partitions:
    a task holds at most max(rows / num_partitions, MERGE_ROWS_PER_TASK)
    rows, give or take the key skew.  Up to one per CPU, the B tasks start
    together."""
    by_rows = -(-rows // MERGE_ROWS_PER_TASK)
    return max(1, min(num_partitions, max(cluster_cpus(), by_rows)))


def part_groups(delivery: Delivery) -> list[tuple]:
    """The task exchange's M map inputs: the delivery's parts in M
    contiguous groups of (nearly) equal part count, M = min(parts,
    max(CPUs, rows / ``MERGE_ROWS_PER_TASK``)), so no map task holds much
    more than that many rows of a delivery of even parts."""
    n = len(delivery.parts)
    m = min(n, max(cluster_cpus(), -(-delivery.rows // MERGE_ROWS_PER_TASK)))
    return [delivery.parts[n * i // m : n * (i + 1) // m] for i in range(m)]


def _merge_group(group: pa.Table, merger_kwargs: dict) -> pa.Table:
    return PartitionMerger(**merger_kwargs)(group)


def merged_groups(norm: rd.Dataset, merger_kwargs: dict, num_partitions: int) -> rd.Dataset:
    """``replay_table``'s exchange and merge: a keyed fold on ``pkey`` into
    ``merge_tasks(num_partitions)`` contiguous pkey ranges (the fold's
    default, one per CPU), one merge call per range block.  A partition
    never straddles two blocks.  Stateless tasks, like normalize."""
    return keyed_fold(
        norm, "pkey", _merge_group, num_partitions, fn_kwargs={"merger_kwargs": merger_kwargs}
    )


def _mapped(
    parts: tuple, schema: pa.Schema | None, normalizer: Normalizer, seq: tuple,
    skip: pa.Array | None,
) -> pa.Table:
    """The map body of both plans: ``parts`` read (files with the
    delivery's unified ``schema``, Arrow blocks as they are), bounded by
    ``seq`` (``min_seq``, ``max_seq``), normalized, without the ``skip``
    partitions, and stable-sorted on pkey: per pkey, in part order."""
    if schema is None:
        t = pa.concat_tables(parts, promote_options="permissive")
    else:
        import pyarrow.dataset as pads

        t = pads.dataset(list(parts), schema=schema).to_table()
    if seq != (None, None):
        t = seq_bound(t, *seq)
    t = normalizer(t)
    if skip is not None:
        t = drop_partitions(t, skip)
    return t.sort_by("pkey")


def _cut(t: pa.Table, edges: list[int]) -> list[pa.Table]:
    """``t``, sorted on pkey, sliced into the pkey ranges between ``edges``."""
    at = np.searchsorted(t["pkey"].to_numpy(), edges).tolist()
    return [t.slice(lo, hi - lo) for lo, hi in zip(at, at[1:])]


def _merge(t: pa.Table, merger_kwargs: dict) -> None:
    # an empty range calls no merger, as Ray Data calls no kernel on an
    # empty block
    if len(t):
        PartitionMerger(**merger_kwargs)(t)


# every task of both plans retries like Ray Data's map tasks
# (``ray/data/_internal/remote_fn.py``), so a dead worker's task reruns.
# A task takes its parts as trailing arguments: Ray resolves a block's
# ObjectRef to its table before the task runs
_retried = ray.remote(max_retries=-1, retry_exceptions=[ray.exceptions.RaySystemError])


@_retried
def _merge_range(
    schema: pa.Schema | None, normalizer: Normalizer, lo: int, hi: int, seq: tuple,
    skip: pa.Array | None, merger_kwargs: dict, *parts,
) -> None:
    """A small delivery's task for the pkey range ``[lo, hi)``: map the
    whole delivery, and merge and commit the rows of its range."""
    [t] = _cut(_mapped(parts, schema, normalizer, seq, skip), [lo, hi])
    _merge(t, merger_kwargs)


@_retried
def _map_parts(
    schema: pa.Schema | None, normalizer: Normalizer, seq: tuple, skip: pa.Array | None,
    edges: list[int], *parts,
):
    """A task exchange's map task: its parts' rows, one piece per pkey range."""
    pieces = _cut(_mapped(parts, schema, normalizer, seq, skip), edges)
    return pieces if len(pieces) > 1 else pieces[0]  # num_returns=1 takes the value


@_retried
def _merge_pieces(merger_kwargs: dict, *pieces: pa.Table) -> None:
    """A task exchange's merge task: its range's pieces, in part order, in
    the order of a stable sort on pkey over them all, merged and committed."""
    _merge(pa.concat_tables(pieces).sort_by("pkey"), merger_kwargs)


def _range_edges(num_partitions: int, rows: int) -> list[int]:
    """``[0, *bounds, P]``: ``keyed_fold``'s B pkey ranges for ``rows``."""
    return [0, *fold_bounds(num_partitions, merge_tasks(num_partitions, rows)), num_partitions]


def merge_small(
    delivery: Delivery, normalizer: Normalizer, merger_kwargs: dict, num_partitions: int,
    seq: tuple = (None, None), skip: pa.Array | None = None,
) -> list:
    """The small delivery's plan: ``merge_tasks(num_partitions, rows)``
    range tasks, cut at ``keyed_fold``'s boundaries and submitted as one
    wave; returns their refs, ready when every task has committed."""
    edges = _range_edges(num_partitions, delivery.rows)
    task = _merge_range.options(**worker_runtime_env())
    return [
        task.remote(delivery.schema, normalizer, lo, hi, seq, skip, merger_kwargs, *delivery.parts)
        for lo, hi in zip(edges, edges[1:])
    ]


def merge_exchange(
    delivery: Delivery, normalizer: Normalizer, merger_kwargs: dict, num_partitions: int,
    seq: tuple = (None, None), skip: pa.Array | None = None,
) -> list:
    """A larger delivery's plan, the task exchange: M map tasks (one per
    ``part_groups`` group) each cut their rows into the B ranges of
    ``merge_small``, and B merge tasks each take their range's M pieces as
    arguments; returns the merge tasks' refs, ready when each has
    committed."""
    edges = _range_edges(num_partitions, delivery.rows)
    b, env = len(edges) - 1, worker_runtime_env()
    mapper = _map_parts.options(num_returns=b, **env)
    pieces = [
        mapper.remote(delivery.schema, normalizer, seq, skip, edges, *parts)
        for parts in part_groups(delivery)
    ]
    if b == 1:
        pieces = [[p] for p in pieces]
    merge = _merge_pieces.options(**env)
    return [merge.remote(merger_kwargs, *ranged) for ranged in zip(*pieces)]


def replay(
    input_path: str | rd.Dataset,
    spec: ReplaySpec,
    *,
    resume: bool = False,
    run_id: str | None = None,
    modifier_specs: tuple = (),
    _debug_skip_partitions=None,
) -> dict:
    """Full checkpointed replay.  Returns output paths + lineage summary.

    - ``spec.mode == "replace"``: fresh build (existing outputs cleared).
    - ``spec.mode == "update"``: incremental tail apply on an existing
      out_dir — events at/below each partition's watermark are dropped
      (exactly-once across redeliveries).
    - ``resume=True``: crash recovery — partitions already committed by
      *this* run_id are skipped wholesale before the shuffle.
    - ``_debug_skip_partitions``: test hook simulating a mid-run crash (the
      listed partitions are dropped before merge, leaving them uncommitted).

    ``input_path`` is a Parquet change log's path, read from its footers,
    or a Dataset, materialized once (the hot-key pre-pass reads the same
    blocks).  Either delivery of at most ``SMALL_DELIVERY_ROWS`` rows runs
    ``merge_small``, a larger one ``merge_exchange``.
    """
    run_id = run_id or uuid.uuid4().hex[:8]
    paths = out_paths(spec)

    # resolve BOTH hooks before touching any output: a run configured with
    # a missing hook must fail before it clears tables, and the pre-hook
    # (index-disable analog) must see the warehouse as the previous run
    # left it (dest/I2b2QueryResultsHandler.java:97-161).
    from ..config import resolve_hook

    pre_fn = resolve_hook(spec.pre_hook) if spec.pre_hook else None
    post_fn = resolve_hook(spec.post_hook) if spec.post_hook else None
    pre_result = pre_fn(spec, run_id) if pre_fn else None

    if spec.mode == "replace" and not resume:
        for p in paths.values():
            if os.path.isdir(p):
                for f in glob.glob(os.path.join(p, "*")):
                    os.remove(f)
        shutil.rmtree(mf.legacy_partials_dir(spec.out_dir), ignore_errors=True)
    for p in paths.values():
        os.makedirs(p, exist_ok=True)
    # finish the merge tasks a crash left committed (task record written)
    # but unfinished, then reap orphan tmp files from a SIGKILLed prior
    # run: every writer is atomic (tmp + os.replace, or a task's tmp names
    # + its task record), so after the roll-forward a `*.tmp-*` file
    # belongs to no commit, and directory-scan readers
    # (ray.data.read_parquet(dir)) would otherwise pick it up.
    mf.roll_forward(spec.out_dir)
    for p in paths.values():
        for f in glob.glob(os.path.join(p, "*.tmp-*")):
            os.remove(f)

    # a path's footers, read once: files, unified schema and row count; a
    # Dataset, executed once: its blocks
    changes = None if isinstance(input_path, str) else input_path.materialize()
    delivery = read_footers(input_path) if changes is None else read_blocks(changes)

    hot_keys = None
    if spec.salt_buckets > 1 and spec.hot_key_threshold > 0:
        if changes is None:
            hot_keys = sampled_hot_keys(delivery, spec.hot_key_threshold)
        else:
            hot_keys = find_hot_keys(changes, spec.hot_key_threshold) or None
    del changes  # the delivery holds the blocks now

    # exactly-once requires a STABLE event->partition mapping across runs:
    # update mode must replay with the same partitioning parameters, and a
    # key once salted stays salted (else a redelivered event lands on a
    # partition whose watermark doesn't cover it and re-applies).
    job = mf.read_job_manifest(spec.out_dir)
    if spec.mode == "update" and job is not None:
        routing.check_job(job, spec.num_partitions, spec.salt_buckets)
        persisted_hot = set(job.get("hot_keys", []))
        if persisted_hot:
            hot_keys = (hot_keys or set()) | persisted_hot

    # --- newly-hot transition, BEFORE the merge ---------------------------
    # Keys crossing the salting threshold THIS run may have prior state in
    # their canonical partition files.  Extract that state now and raise the
    # watermark of every salt bucket the key can route to, up to the key's
    # last applied seq — so a pre-transition event redelivered IN THIS VERY
    # RUN routes salted and is dropped by a bucket watermark that already
    # covers it.  (Running this after the merge left that redelivery window
    # open; the bump is safe because commit_seq is globally monotonic in the
    # log, so genuinely new events always exceed any previously applied seq.)
    from ..stages.merge import (
        _atomic_write,
        _bump_salted_watermarks,
        extract_keys_from_parts,
        hot_file,
        remove_keys_from_parts,
    )

    persisted_prior = set((job or {}).get("hot_keys", []))
    newly_hot = (hot_keys or set()) - persisted_prior
    if newly_hot and spec.mode == "update":
        # DURABILITY ordering: (1) read-only extract, (2) persist the
        # extracted state as a hot-transition file, (3) bump watermarks,
        # (4) only THEN destructively remove the keys from the canonical
        # parts.  The state always exists in >=1 durable place: a crash
        # before (4) leaves keys in both parts and the hot file — the LWW
        # merge-on-read folds the duplicates and a resumed run re-runs
        # all four phases idempotently.  (The previous one-pass expunge
        # rewrote parts while holding the extracted rows only in driver
        # memory — a crash mid-loop lost them unrecoverably.)
        extracted = extract_keys_from_parts(
            spec.out_dir, newly_hot, spec.num_partitions
        )
        if len(extracted):
            # the end-of-run fold absorbs this file exactly like a hot
            # run, so no in-memory hand-off needed
            _atomic_write(extracted, hot_file(paths["path_dim"], f"transition-{run_id}"))
            _bump_salted_watermarks(
                spec.out_dir, extracted, spec.num_partitions, spec.salt_buckets,
                spec.schema_version,
            )
            remove_keys_from_parts(spec.out_dir, newly_hot, spec.num_partitions)

    skip = set()
    if resume:
        # Crash recovery. replace mode: the out_dir belongs to this build,
        # so every committed partition (manifest present) is skipped
        # wholesale. update mode: prior runs committed every partition, so
        # only partitions committed by THIS run_id (pass the crashed run's
        # id) are skipped; the rest re-filter via their watermark.
        skip |= mf.completed_partitions(
            spec.out_dir, run_id=run_id if spec.mode == "update" else None
        )
    if _debug_skip_partitions:
        skip |= set(_debug_skip_partitions)
    skip_arr = pa.array(sorted(skip), pa.int32()) if skip else None

    wm_ref = ray.put(mf.watermarks(spec.out_dir) if spec.mode == "update" else {})
    merger_kwargs = dict(
        emit="checkpoint",
        out_dirs=paths,
        watermarks_ref=wm_ref,
        run_id=run_id,
        mode=spec.mode,
        schema_version=spec.schema_version,
        merge_policy=spec.merge_policy,
        modifier_names=tuple(s.name for s in modifier_specs),
        state_cap_rows=spec.state_cap_rows,
        num_partitions=spec.num_partitions,
    )
    # every merge task writes its outputs (hot-key winners included) and
    # commits them in one task record, with its partitions' records.  The
    # date bound (reference DateTimeFilter analog) is a predicate right
    # after each task's read: rows outside it never reach the digest
    plan = merge_small if delivery.rows <= SMALL_DELIVERY_ROWS else merge_exchange
    merged = plan(
        delivery, _normalizer(spec, hot_keys, modifier_specs), merger_kwargs,
        spec.num_partitions, (spec.min_seq, spec.max_seq), skip_arr,
    ) if delivery.parts else []  # an empty Dataset has no block to read
    # the tasks' arguments hold a Dataset's blocks from here on, so each
    # block is freed when the last task that reads it ends
    del delivery
    ray.get(merged)
    # one fold of every hot run (this run's, prior runs', a skipped
    # partition's, the transition file) and the dims from the partials
    fold_hot_runs(spec.out_dir, reduce_hot_rows)
    summary: dict = {"run_id": run_id, "out": paths}

    from .. import __version__ as _engine_version

    mf.write_job_manifest(
        spec.out_dir,
        {
            "num_partitions": spec.num_partitions,
            "salt_buckets": spec.salt_buckets,
            "hot_keys": sorted(hot_keys or ()),
            "merge_policy": spec.merge_policy,
            "schema_version": spec.schema_version,
            # update runs refuse state routed differently (routing.check_job)
            "routing_id": routing.routing_id(),
            "engine_version": _engine_version,
        },
    )

    # consolidated manifest table (the `_manifest` logical table)
    mt = mf.manifest_table(spec.out_dir)
    pq.write_table(mt, os.path.join(paths["_manifest"], "manifest.parquet"))
    summary["lineage"] = {
        name: (pc.sum(mt[name]).as_py() if len(mt) else 0)
        for name in ("rows_applied", "dups_dropped", "conflicts_resolved", "rows_rejected")
    }
    summary["partitions"] = len(mt)

    # post-hook runs only after EVERY output and manifest is durably
    # committed (the enable-indexes / gather-stats slot): a crash inside
    # the hook loses nothing, and a resumed run re-fires it.
    if pre_fn and pre_result is not None:
        summary["pre_hook"] = pre_result
    if post_fn:
        post_result = post_fn(spec, run_id, summary)
        if post_result is not None:
            summary["post_hook"] = post_result
    return summary


# --- pure (non-writing) variants for the correctness harness ---------------


def replay_table(
    changes: rd.Dataset,
    *,
    emit: str,
    num_partitions: int = 16,
    modifier_specs: tuple = (),
) -> rd.Dataset:
    """Run normalize+merge and return one logical output as a Dataset
    (emit='path_dim' or 'fact'); nothing is written.  Used by the
    driver-facing queries() and by tests."""
    spec = ReplaySpec(num_partitions=num_partitions, salt_buckets=1, hot_key_threshold=0)
    norm = normalized(changes, spec, None, modifier_specs)
    return merged_groups(
        norm,
        {"emit": emit, "modifier_names": tuple(s.name for s in modifier_specs)},
        num_partitions,
    )
