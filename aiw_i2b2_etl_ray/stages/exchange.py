"""The keyed fold: the engine's one keyed exchange.

Every keyed operator has the same shape as the reference's merge (stage
rows, co-locate them by key, run one merge per key range;
dest/I2b2QueryResultsHandler.java:97-161):

    [map_batches: _bucket = bucket_hash(keys) % num_buckets]   # hash form
      -> sort(_bucket, B - 1 explicit boundaries)              # THE shuffle
      -> map_batches(kernel, one call per block)               # B tasks

B is ``min(num_buckets, tasks or util.cluster_cpus())``.  Every row of a
bucket lands in exactly one block, so every key's rows reach exactly one
kernel call.  A kernel therefore sees many keys at once and groups them
itself (polars ``group_by``, ``.over(key)``); there is no per-group
dispatch, which dominated Ray's ``groupby().map_groups`` at ~10^4 groups.

The B kernel calls are dispatched as one wave, and so are the tasks that
feed the sort.  Ray Data's per-operator reservation (on by default) sets
CPU aside for every operator of the plan, so the read ran one task at a
time while the sort and the kernel held CPU they could not use before the
sort's barrier, and until a first kernel task reports its output size the
reservation's guess (2 x ``target_max_block_size``) admits one kernel task
at a 512 MiB object store.  The sort materializes everything upstream of
it anyway, so the returned plan runs with the reservation off, in a
``DataContext`` of its own: the caller's Dataset and the process-wide
context keep their settings.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from ..functions.hashing import bucket_hash
from ..util import cluster_cpus, worker_runtime_env


def fold_bounds(num_buckets: int, tasks: int | None = None) -> list[int]:
    """The B - 1 boundaries of the fold's contiguous bucket ranges, B =
    ``min(num_buckets, tasks or util.cluster_cpus())``: range ``i`` holds
    the buckets in ``[bounds[i - 1], bounds[i])``, as Ray's sort splits at
    them.  The replay's path plans (``cdc_replay.merge_small`` and
    ``merge_exchange``) take the same ranges, so all of its plans cut the
    partitions alike."""
    b = max(1, min(num_buckets, tasks or cluster_cpus()))
    return [num_buckets * i // b for i in range(1, b)]


def keyed_fold(
    ds: rd.Dataset,
    by: str | list[str],
    kernel,
    num_buckets: int = 1 << 16,
    *,
    tasks: int | None = None,
    fn_kwargs: dict | None = None,
) -> rd.Dataset:
    """Co-locate ``ds`` by key and call ``kernel(block: pa.Table) ->
    pa.Table`` once per contiguous bucket range.

    ``by`` is either a list of key columns, hashed with ``bucket_hash``
    into ``num_buckets`` buckets, or the name of an int column whose values
    already lie in ``[0, num_buckets)`` (the replay's ``pkey``, a routed
    ``_pid``); rows with equal values of it share a block.  At B = 1 the
    input is coalesced into one block unsorted.  The block may carry the
    ``_bucket`` column the hash form adds, so a kernel selects the columns
    it returns; Ray calls it on no empty block.  It is passed to Ray as is,
    so the operator is named ``MapBatches(<kernel>)``.  The returned
    Dataset carries its own copy of ``ds``'s ``DataContext``, with the
    per-operator reservation off."""
    bounds = fold_bounds(num_buckets, tasks)
    if not bounds:
        ds = ds.repartition(1)
    elif isinstance(by, str):
        ds = ds.sort(by, boundaries=bounds)
    else:

        def add_bucket(t: pa.Table) -> pa.Table:
            return t.append_column("_bucket", bucket_hash(t, by, num_buckets))

        ds = ds.map_batches(add_bucket, batch_format="pyarrow", **worker_runtime_env())
        ds = ds.sort("_bucket", boundaries=bounds)
    out = ds.map_batches(
        kernel,
        batch_size=None,
        batch_format="pyarrow",
        fn_kwargs=fn_kwargs,
        **worker_runtime_env(),
    )
    # a copy, on the fresh plan of ``out``'s last operator: Ray Data shares
    # one context object along a chain of Datasets (the caller's too) and
    # plans the whole DAG with the context of the Dataset that executes
    ctx = out.context.copy()
    ctx.op_resource_reservation_enabled = False
    out._plan._context = out._logical_plan._context = ctx
    return out
