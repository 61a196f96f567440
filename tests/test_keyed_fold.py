"""``stages.exchange.keyed_fold``: the one keyed exchange.

A keyed operator is correct only if every row of a key reaches the same
kernel call, whatever the key's shape.  These tests pin that, the number
of tasks the fold runs, the contiguous ranges of the pre-bucketed form,
and the empty input.
"""

import uuid

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray
import ray.data as rd

from aiw_i2b2_etl_ray.stages.exchange import keyed_fold


def tally(block: pa.Table, keys: list[str]) -> pa.Table:
    """One row per distinct key of the block: the key as text, its row
    count, and an id of this kernel call."""
    import polars as pl

    enc = pl.concat_str(
        [pl.col(k).cast(pl.String).fill_null("<null>") for k in keys], separator="|"
    )
    df = pl.from_arrow(block.select(keys)).group_by(enc.alias("key")).agg(pl.len().alias("n"))
    return df.with_columns(pl.lit(uuid.uuid4().hex).alias("call")).to_arrow()


def _rows(n: int = 3000) -> list[dict]:
    repos = ["a", "b", None, "c", ""]
    return [
        {"repo": repos[i % 5], "path": None if i % 7 == 0 else i % 40, "v": i}
        for i in range(n)
    ]


@pytest.mark.parametrize("keys", [["repo"], ["repo", "path"]])
def test_every_key_reaches_exactly_one_call(keys):
    rows = _rows()
    ds = rd.from_items(rows, override_num_blocks=6)
    out = keyed_fold(ds, keys, tally, fn_kwargs={"keys": keys}).to_pandas()

    # a key met in two calls would show up twice
    assert not out["key"].duplicated().any(), out[out["key"].duplicated(keep=False)]
    want: dict = {}
    for r in rows:
        k = "|".join("<null>" if r[c] is None else str(r[c]) for c in keys)
        want[k] = want.get(k, 0) + 1
    assert dict(zip(out["key"], out["n"])) == want
    assert "<null>" in "".join(want)  # null key values took part
    assert out["call"].nunique() > 1  # and the keys spread over calls


def test_stats_show_one_task_per_range():
    """B = min(num_buckets, CPUs) tasks, each named after the kernel."""
    cpus = int(ray.cluster_resources()["CPU"])
    ds = rd.from_items(_rows(), override_num_blocks=6)
    for num_buckets, b in ((1 << 16, cpus), (2, min(2, cpus))):
        out = keyed_fold(
            ds, ["repo", "path"], tally, num_buckets, fn_kwargs={"keys": ["repo", "path"]}
        ).materialize()
        assert f"MapBatches(tally): {b} tasks executed" in out.stats(), out.stats()


def test_pre_bucketed_column_keeps_whole_contiguous_ranges():
    """An int column already in [0, num_buckets) is not hashed: each call
    gets whole values of it, all from one range [P*i//B, P*(i+1)//B),
    B = min(P, CPUs)."""
    p = 16
    b = min(p, int(ray.cluster_resources()["CPU"]))
    ds = rd.from_items([{"pid": i % p, "v": i} for i in range(4000)], override_num_blocks=5)
    out = keyed_fold(ds, "pid", tally, p, fn_kwargs={"keys": ["pid"]}).to_pandas()
    assert not out["key"].duplicated().any()
    assert dict(zip(out["key"].astype(int), out["n"])) == {i: 250 for i in range(p)}
    ranges = [range(p * i // b, p * (i + 1) // b) for i in range(b)]
    for _, call in out.groupby("call"):
        pids = set(call["key"].astype(int))
        assert any(pids <= set(r) for r in ranges), pids
    assert out["call"].nunique() == b


def test_one_task_coalesces_all_rows():
    """One bucket is one range: the input coalesced into one block."""
    ds = rd.from_items(_rows(), override_num_blocks=6)
    out = keyed_fold(ds, ["repo"], tally, 1, fn_kwargs={"keys": ["repo"]}).materialize()
    assert "MapBatches(tally): 1 tasks executed" in out.stats(), out.stats()
    assert out.to_pandas()["call"].nunique() == 1


@pytest.mark.parametrize("by", [["k"], "k"])
def test_empty_input_yields_no_rows(by):
    empty = rd.from_arrow(pa.table({"k": pa.array([], pa.int32())}))
    assert keyed_fold(empty, by, tally, 8, fn_kwargs={"keys": ["k"]}).count() == 0
    none_left = rd.range(100).map_batches(lambda t: t.filter(pc.less(t["id"], 0)), batch_format="pyarrow")
    assert keyed_fold(none_left, ["id"], tally, fn_kwargs={"keys": ["id"]}).count() == 0
