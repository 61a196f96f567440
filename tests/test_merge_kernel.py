"""The merge kernel takes a block of many partitions.

One ``PartitionMerger`` call over a block holding several ``pkey`` values
must write exactly what one call per ``pkey`` writes: the same path_dim
part files, the same rows of the fact, rejected, archive and hot-key
tables, and the same manifest records (dimension partials included).
The fact, rejected, archive and hot-key tables are one file per call, so
their file names differ by design and only their contents compare.  The
scenarios run a REPLACE base and then an UPDATE apply over its state,
with hot rows, ``null_key`` and ``null_seq`` rejects, duplicate
change-ids, a redelivered slice and modifiers.
"""

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from aiw_i2b2_etl_ray.config import ModifierSpec, ReplaySpec, out_paths
from aiw_i2b2_etl_ray.stages import merge, routing
from aiw_i2b2_etl_ray.stages.merge import PartitionMerger
from aiw_i2b2_etl_ray.stages.normalize import Normalizer
from aiw_i2b2_etl_ray.state import manifest as mf

from .util import assert_table_eq

P, S = 8, 4
HOT = set(routing.encode_keys(pa.table({"repo": ["r0"], "path": ["hot.c"]})))


def _tag(t: pa.Table) -> pa.Array:
    """Modifier ``TAG``: the commit of every third event."""
    seq = pc.coalesce(t["commit_seq"], 0).to_numpy()
    return pc.if_else(pa.array(seq % 3 == 0), t["commit"], pa.scalar(None, pa.string()))


MODS = (ModifierSpec(name="TAG", extract=_tag),)


def _changes(seq0: int, n: int, resend: int = 0, paths: int = 12) -> pa.Table:
    """``n`` events from ``seq0`` over 3 repos x ``paths`` paths plus a churned
    ``r0/hot.c``; every 17th has a blank path, every 29th a null
    ``commit_seq`` and every 11th is a tombstone.  The first ``resend``
    events of the window before ``seq0`` are sent again, and every tenth
    event is sent twice."""
    seqs = list(range(max(0, seq0 - resend), seq0 + n))
    rows = []
    for s in seqs:
        path = "hot.c" if s % 4 == 0 else ("" if s % 17 == 0 else f"f{s % paths}.py")
        rows.append(
            dict(
                repo=f"r{s % 3}" if path != "hot.c" else "r0", path=path, commit=f"c{s}",
                lang=("py", "go", None)[s % 3], content=f"body-{s % 7}",
                commit_seq=None if s % 29 == 0 else s, op="D" if s % 11 == 0 else "U",
            )
        )
    rows += [dict(r) for r in rows if r["commit_seq"] is not None and r["commit_seq"] % 10 == 0]
    schema = pa.schema(
        [("repo", pa.string()), ("path", pa.string()), ("commit", pa.string()),
         ("lang", pa.string()), ("content", pa.large_string()),
         ("commit_seq", pa.int64()), ("op", pa.string())]
    )
    return pa.Table.from_pylist(rows, schema=schema)


def _apply(out_dir: str, block: pa.Table, per_pkey: bool, **kw) -> None:
    """Merge ``block`` into ``out_dir`` in one call, or in one call per
    ``pkey``."""
    paths = out_paths(ReplaySpec(out_dir=out_dir))
    for p in paths.values():
        os.makedirs(p, exist_ok=True)
    wm = ray.put(mf.watermarks(out_dir) if kw.get("mode") == "update" else {})
    merger = PartitionMerger(
        emit="checkpoint", out_dirs=paths, watermarks_ref=wm,
        modifier_names=tuple(m.name for m in MODS), **kw,
    )
    if not per_pkey:
        merger(block)
        return
    block = block.sort_by("pkey")
    for k in pc.unique(block["pkey"]).to_pylist():
        merger(block.filter(pc.equal(block["pkey"], k)))


def _rows(d: str, pattern: str) -> pa.Table | None:
    files = sorted(glob.glob(os.path.join(d, pattern)))
    return pa.concat_tables([pq.read_table(f) for f in files]) if files else None


def _assert_same_outputs(a: str, b: str) -> None:
    parts = [sorted(os.path.basename(f) for f in glob.glob(os.path.join(d, "path_dim", "part-*"))) for d in (a, b)]
    assert parts[0] == parts[1]
    for name in parts[0]:
        ta, tb = (pq.read_table(os.path.join(d, "path_dim", name)) for d in (a, b))
        assert ta.equals(tb), name
    for pattern in ("path_dim/hot-*", "change_fact/*", "rejected/*", "archive/*"):
        ta, tb = _rows(a, pattern), _rows(b, pattern)
        assert (ta is None) == (tb is None), pattern
        if ta is not None:
            assert ta.schema == tb.schema, pattern
            assert_table_eq(ta, tb, ta.column_names)
    ma = sorted(glob.glob(os.path.join(a, "_manifest", "part-*.json")))
    assert ma, "no manifest written"
    assert len(ma) == len(glob.glob(os.path.join(b, "_manifest", "part-*.json")))
    for f in ma:
        with open(f) as fa, open(os.path.join(b, "_manifest", os.path.basename(f))) as fb:
            assert json.load(fa) == json.load(fb), f
    for d in (a, b):
        assert not glob.glob(os.path.join(d, "*", "*.tmp-*")), "a call left its commit unfinished"
        assert not glob.glob(os.path.join(d, "_manifest", "task-*")), "a call left its task record"


@pytest.mark.parametrize(
    "policy,cap",
    [("last_writer_wins", None), ("first_writer_wins", None), ("last_writer_wins", 40)],
)
def test_block_merge_writes_what_per_pkey_merges_write(tmp_path, policy, cap):
    norm = Normalizer(P, S, ray.put(HOT), MODS)
    base, tail = norm(_changes(0, 300)), norm(_changes(300, 120, resend=60))
    assert len(pc.unique(base["pkey"])) > P // 2
    assert pc.any(base["is_hot"]).as_py()
    assert pc.count(pc.unique(pc.drop_null(base["reject_reason"]))).as_py() == 2

    kw = dict(merge_policy=policy, state_cap_rows=cap)
    for mode, batch, run in (("replace", base, "b1"), ("update", tail, "b2")):
        for side, per_pkey in (("block", False), ("pkeys", True)):
            _apply(str(tmp_path / side), batch, per_pkey, mode=mode, run_id=run, **kw)
        # the hot runs are path_dim files, so this compares them too
        _assert_same_outputs(str(tmp_path / "block"), str(tmp_path / "pkeys"))
        assert glob.glob(str(tmp_path / "block" / "path_dim" / f"hot-{run}-*.parquet"))
    # first-writer-wins keeps the prior state, so nothing is displaced
    archived = glob.glob(str(tmp_path / "block" / "archive" / "*.parquet"))
    assert bool(archived) == (policy == "last_writer_wins")


def _read_paths(monkeypatch) -> list:
    """Every path ``stages.merge`` reads a Parquet table from, from now on."""
    seen = []
    orig = pq.read_table

    def spy(source, *a, **kw):
        seen.append(str(source))
        return orig(source, *a, **kw)

    monkeypatch.setattr(merge.pq, "read_table", spy)
    return seen


def test_rejected_files_are_read_only_for_null_seq_rows(tmp_path, monkeypatch):
    """A ``null_seq`` redelivery is still deduped against earlier rejected
    files, and an apply without a null ``commit_seq`` reads none of them."""
    norm = Normalizer(P, 1, None, MODS)
    changes = _changes(0, 200)
    out = str(tmp_path / "out")
    _apply(out, norm(changes), False, mode="replace", run_id="u1")
    rejected = os.path.join(out, "rejected")
    n_rej = sum(pq.read_metadata(f).num_rows for f in glob.glob(f"{rejected}/*.parquet"))

    seen = _read_paths(monkeypatch)
    _apply(out, norm(changes), False, mode="update", run_id="u2")
    assert [f for f in seen if f.startswith(rejected)], "null_seq rows need the prior keys"
    assert not glob.glob(f"{rejected}/*-u2.parquet"), "a redelivered null_seq row re-appended"

    seen.clear()
    no_null = changes.filter(pc.is_valid(changes["commit_seq"]))
    _apply(out, norm(no_null), False, mode="update", run_id="u3")
    assert not [f for f in seen if f.startswith(rejected)]
    total = sum(pq.read_metadata(f).num_rows for f in glob.glob(f"{rejected}/*.parquet"))
    assert total == n_rej


def test_block_merge_filters_each_partition_by_its_own_watermark():
    """A row above its own partition's watermark applies even when another
    partition of the same block has a higher one."""
    block = Normalizer(P, 1)(_changes(0, 200))
    wms = {p: 40 + 20 * p for p in range(P)}
    merger = PartitionMerger(emit="fact", watermarks_ref=ray.put(wms))
    got = merger(block)
    want = pa.concat_tables(
        [merger(block.filter(pc.equal(block["pkey"], p))) for p in pc.unique(block["pkey"]).to_pylist()]
    )
    assert_table_eq(got, want, got.column_names)
    assert 0 < pc.min(got["commit_seq"]).as_py() < max(wms.values())


def test_block_of_many_partitions_keeps_few_files_open(tmp_path, monkeypatch):
    """A block holding hundreds of partitions (far more partitions than
    merge tasks) writes what per-pkey calls write, and keeps at most one
    partition's streaming writers open at a time: none without
    ``state_cap_rows``, and under it only a partition over the cap streams."""
    norm = Normalizer(512, S, ray.put(HOT), MODS)
    base = norm(_changes(0, 250, paths=250))
    tail = norm(_changes(250, 80, resend=40, paths=250))
    assert len(pc.unique(base["pkey"])) > 150

    open_now, most = [0], {}

    class CountingWriter(pq.ParquetWriter):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            open_now[0] += 1
            most[side] = max(most.get(side, 0), open_now[0])

        def close(self):
            super().close()
            open_now[0] -= 1

    monkeypatch.setattr(merge.pq, "ParquetWriter", CountingWriter)
    for mode, batch, run in (("replace", base, "m1"), ("update", tail, "m2")):
        for side, per_pkey, cap in (("block", False, 10), ("pkeys", True, 10), ("uncapped", False, None)):
            _apply(str(tmp_path / side), batch, per_pkey, mode=mode, run_id=run, state_cap_rows=cap)
    # both runs' per-run files and the update's part files and manifests
    _assert_same_outputs(str(tmp_path / "block"), str(tmp_path / "pkeys"))
    _assert_same_outputs(str(tmp_path / "uncapped"), str(tmp_path / "pkeys"))
    assert open_now[0] == 0
    assert 0 < most["block"] <= len(merge._SCHEMAS) and "uncapped" not in most
