"""Bucketed hash join — both sides large (neither fits a broadcast).

Tag each side's rows, union them on a unified schema, and run one
``keyed_fold`` on the join key (stages/exchange.py): one shuffle total,
co-partitioned by construction, and one polars join per block of bucket
ranges.  Hot join keys can salt into sub-keys, as the merge's hot keys do.

Used where the reference pushes N-way relational joins into source SQL
(J4, dsb/I2B2DataSourceBackend.java:200,226,256-290) and the dimension
side is too large to broadcast (J3's small-side broadcast covers the rest).
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import ray.data as rd

from ..schemas import ensure_columns
from ..util import worker_runtime_env
from .exchange import keyed_fold


def bucketed_join(
    left: rd.Dataset,
    right: rd.Dataset,
    *,
    on: list[str],
    num_buckets: int = 32,
    how: str = "inner",
    hot_keys: set | None = None,
    salt: int = 8,
    l_schema: "pa.Schema | None" = None,
    r_schema: "pa.Schema | None" = None,
) -> rd.Dataset:
    """Hash-partitioned join of two Datasets on ``on``.  Non-key column
    names must be disjoint (resolve collisions upstream, as in SQL).

    **Skew handling** (same salting idea as the CDC merge's hot-key path,
    pipelines/cdc_replay.py): pass ``hot_keys`` — a set of key values
    (tuples for multi-column ``on``) known to dominate — and each LEFT row
    of a hot key gets one of ``salt`` sub-keys (round-robin within its
    batch) while the matching RIGHT rows replicate to all ``salt``
    sub-keys.  The join then pairs rows on ``on + [_salt]``, so one hot
    key's work spreads over up to ``salt`` buckets instead of landing on
    a single worker.  Output is identical (salt only affects placement).
    Use the heavy-hitter pre-pass (``cdc_replay.find_hot_keys_local``-style
    sample) to obtain ``hot_keys``; replication cost is |hot right rows| x
    salt, so keep the replicated side the smaller one.

    ``how="semi"`` / ``how="anti"`` return LEFT columns only (the right
    side acts as a distributed key set — the scale path for NOT-IN /
    EXISTS filters whose key set is too large to broadcast).  The right
    side's key rows are deduplicated inside each bucket, so duplicate
    right keys never multiply output rows."""
    if hot_keys is not None and how != "inner":
        raise ValueError("hot-key salting currently supports inner joins only")
    filter_join = how in ("semi", "anti")
    # callers whose sides are map_batches outputs should pass l_schema/
    # r_schema explicitly: a side whose blocks all come back empty (empty
    # predicate window / keyset) has no inferable schema, and .schema()
    # on a lazy pipeline schedules a sample execution per side
    if l_schema is None:
        l_schema = left.schema().base_schema
    if r_schema is None:
        r_schema = right.schema().base_schema
    l_only = [f.name for f in l_schema if f.name not in on]
    # semi/anti use the right side as a key set: its non-key columns are
    # dropped before the shuffle (never shipped), so no collision applies
    r_only = [] if filter_join else [f.name for f in r_schema if f.name not in on]
    overlap = set(l_only) & set(r_only)
    if overlap:
        raise ValueError(f"non-key column collision: {sorted(overlap)}")

    hot: set = hot_keys or set()
    join_keys = on + (["_salt"] if hot else [])

    def _is_hot(t: pa.Table):
        import numpy as np
        import pyarrow.compute as pc

        if len(on) == 1:  # vectorized membership for the common case
            m = pc.is_in(t[on[0]], value_set=pa.array(list(hot), t[on[0]].type))
            return pc.fill_null(m, False).to_numpy(zero_copy_only=False).astype(bool)
        rows = zip(*(t[c].to_pylist() for c in on))
        return np.array([tuple(r) in hot for r in rows], dtype=bool)

    # one unified schema both sides project onto (missing columns -> null)
    unified = pa.schema(
        [l_schema.field(c) for c in on]
        + [l_schema.field(c) for c in l_only]
        + [r_schema.field(c) for c in r_only]
        + [pa.field("_salt", pa.int32()), pa.field("_side", pa.string())]
    )

    def prep(side: str):
        def fn(t: pa.Table) -> pa.Table:
            import numpy as np

            if hot:
                mask = _is_hot(t)
                if side == "l":
                    # probe side: spread hot rows round-robin over salts
                    s = np.zeros(len(t), dtype=np.int32)
                    s[mask] = np.arange(int(mask.sum()), dtype=np.int32) % salt
                    t = t.append_column("_salt", pa.array(s))
                else:
                    # build side: replicate hot rows to every salt
                    cold = t.filter(~mask).append_column(
                        "_salt", pa.array(np.zeros(int((~mask).sum()), dtype=np.int32))
                    )
                    hot_t = t.filter(mask)
                    reps = [
                        hot_t.append_column(
                            "_salt", pa.array(np.full(len(hot_t), s, dtype=np.int32))
                        )
                        for s in range(salt)
                    ]
                    t = pa.concat_tables([cold, *reps])
            else:
                t = t.append_column(
                    "_salt", pa.array([0] * len(t), pa.int32())
                )
            t = t.append_column("_side", pa.array([side] * len(t)))
            return ensure_columns(t, unified)

        return fn

    lt = left.map_batches(prep("l"), batch_format="pyarrow", **worker_runtime_env())
    rt = right.map_batches(prep("r"), batch_format="pyarrow", **worker_runtime_env())

    def join_bucket(g: pa.Table) -> pa.Table:
        df = pl.from_arrow(g)
        lhs = df.filter(pl.col("_side") == "l").select(join_keys + l_only)
        if filter_join:
            rhs = df.filter(pl.col("_side") == "r").select(join_keys).unique()
            return lhs.join(rhs, on=join_keys, how=how).select(on + l_only).to_arrow()
        rhs = df.filter(pl.col("_side") == "r").select(join_keys + r_only)
        out = lhs.join(rhs, on=join_keys, how=how)
        return out.select(on + l_only + r_only).to_arrow()

    return keyed_fold(lt.union(rt), join_keys, join_bucket, num_buckets)
