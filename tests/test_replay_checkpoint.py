"""Checkpointed replay: full star-schema build, exactly-once, crash-resume,
incremental update, schema evolution, hot-key salting."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from aiw_i2b2_etl_ray.config import ReplaySpec, out_paths
from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
from aiw_i2b2_etl_ray.sources.changes import read_changes_table
from aiw_i2b2_etl_ray.stages.merge import load_path_dim
from aiw_i2b2_etl_ray.state import manifest as mf

from .util import assert_table_eq


def _read_dir(d):
    import pyarrow as pa

    files = sorted(glob.glob(os.path.join(d, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files]) if files else None


def _check_outputs(spec, oracle):
    paths = out_paths(spec)
    assert_table_eq(load_path_dim(spec.out_dir), oracle.path_dim, ["repo", "path"])
    assert_table_eq(
        _read_dir(paths["change_fact"]), oracle.change_fact, ["repo", "path", "commit_seq"]
    )
    assert_table_eq(_read_dir(paths["repo_dim"]), oracle.repo_dim, ["repo"])
    assert_table_eq(_read_dir(paths["lang_dim"]), oracle.lang_dim, ["lang"])
    rej = _read_dir(paths["rejected"])
    assert (rej.num_rows if rej is not None else 0) == len(oracle.rejected)


def test_full_replay(tmp_path, tiny_changes, tiny_oracle):
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=1, hot_key_threshold=0)
    summary = replay(tiny_changes, spec)
    _check_outputs(spec, tiny_oracle)
    lin = summary["lineage"]
    assert lin["rows_applied"] == len(tiny_oracle.change_fact)
    assert lin["dups_dropped"] == tiny_oracle.counters["dups_dropped"]
    assert lin["conflicts_resolved"] == tiny_oracle.counters["conflicts_resolved"]
    assert lin["rows_rejected"] == len(tiny_oracle.rejected)
    # one output file per partition + manifest commit per partition
    assert summary["partitions"] > 0


def test_crash_resume(tmp_path, tiny_changes, tiny_oracle):
    """Run 1 'crashes' with half the partitions uncommitted; the resumed run
    must complete exactly the missing ones and converge to golden state."""
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=1, hot_key_threshold=0)
    replay(tiny_changes, spec, run_id="runA", _debug_skip_partitions=[0, 2, 4, 6])
    done_before = mf.completed_partitions(spec.out_dir)
    assert 0 < len(done_before) < 8
    replay(tiny_changes, spec, run_id="runB", resume=True)
    done_after = mf.completed_partitions(spec.out_dir)
    assert len(done_after) > len(done_before)
    _check_outputs(spec, tiny_oracle)


def test_update_mode_redelivery_is_idempotent(tmp_path, tiny_changes, tiny_oracle):
    """Re-running the whole log in update mode applies nothing (watermarks);
    the reference analog is appendFlag=0 merge-on-update re-runs
    (dest/I2b2QueryResultsHandler.java:674-679)."""
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=1, hot_key_threshold=0)
    replay(tiny_changes, spec)
    spec2 = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=1, hot_key_threshold=0, mode="update"
    )
    summary2 = replay(tiny_changes, spec2)
    _check_outputs(spec2, tiny_oracle)
    # second run applied zero new rows
    lin = summary2["lineage"]
    assert lin["rows_applied"] == len(tiny_oracle.change_fact)


def test_incremental_tail(tmp_path, tiny_changes, tiny_oracle):
    """Replay the first 60% of the log, then apply the remainder (plus a
    redelivered overlap) incrementally; converged state equals one-shot."""
    import pyarrow.compute as pc

    full = read_changes_table(tiny_changes)
    cut = int(pc.max(full["commit_seq"]).as_py() * 0.6)
    head = full.filter(pc.less_equal(full["commit_seq"], cut))
    # tail includes a 20% overlap -> watermark must drop it
    tail = full.filter(pc.greater(full["commit_seq"], int(cut * 0.8)))

    d1, d2 = str(tmp_path / "head"), str(tmp_path / "tail")
    os.makedirs(d1), os.makedirs(d2)
    pq.write_table(head, os.path.join(d1, "part-00000.parquet"))
    pq.write_table(tail, os.path.join(d2, "part-00000.parquet"))

    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=1, hot_key_threshold=0)
    replay(d1, spec)
    spec_u = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=1, hot_key_threshold=0, mode="update"
    )
    replay(d2, spec_u)
    _check_outputs(spec_u, tiny_oracle)


def test_schema_evolution_size_backfill(tmp_path, tiny_changes):
    """Rows last touched after the evolution point carry size; earlier rows
    are null-backfilled (pa.unify_schemas-at-read + merge propagation)."""
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=4, salt_buckets=1, hot_key_threshold=0)
    replay(tiny_changes, spec)
    pd_t = load_path_dim(spec.out_dir).to_pandas()
    assert pd_t["size"].notna().any(), "evolved column should be populated"
    assert pd_t["size"].isna().any(), "pre-evolution rows should be null-backfilled"


def test_schema_evolution_widened_column(tmp_path):
    """The other half of the evolution rule: a log segment written with a
    NARROWER physical type (size as int32) must be widened to the engine
    schema's int64 at the read (pads explicit-schema cast), and both
    segments' values must survive the merge."""
    import pyarrow as pa

    log = tmp_path / "log"
    log.mkdir()

    def seg(fname, rows, size_type):
        t = pa.table(
            {
                "repo": pa.array([r[0] for r in rows]),
                "path": pa.array([r[1] for r in rows]),
                "commit": pa.array([r[2] for r in rows]),
                "lang": pa.array(["py"] * len(rows)),
                "content": pa.array([r[3] for r in rows], pa.large_string()),
                "commit_seq": pa.array([r[4] for r in rows], pa.int64()),
                "op": pa.array(["insert"] * len(rows)),
                "size": pa.array([len(r[3]) for r in rows], size_type),
            }
        )
        pq.write_table(t, str(log / fname))

    # segment 1: pre-widening producer (int32 size); segment 2: int64
    seg("seg-0.parquet", [("r1", "a.py", "c1", "aaaa", 0), ("r1", "b.py", "c2", "bb", 1)], pa.int32())
    seg("seg-1.parquet", [("r1", "a.py", "c3", "aaaaaa", 2), ("r2", "c.py", "c4", "ccc", 3)], pa.int64())

    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=4, salt_buckets=1, hot_key_threshold=0
    )
    replay(str(log), spec)
    pd_t = load_path_dim(spec.out_dir).to_pandas().set_index(["repo", "path"])
    assert load_path_dim(spec.out_dir).schema.field("size").type == pa.int64()
    assert pd_t.loc[("r1", "a.py"), "size"] == 6  # LWW: the int64 segment
    assert pd_t.loc[("r1", "b.py"), "size"] == 2  # widened from the int32 segment
    assert pd_t.loc[("r2", "c.py"), "size"] == 3


def test_hot_key_salting(tmp_path, tiny_changes, tiny_oracle):
    """Low threshold forces the churned hot path through salted sub-partitions
    + the final per-key reduce; result must still converge to golden."""
    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"),
        num_partitions=8,
        salt_buckets=4,
        hot_key_threshold=50,  # tiny log: several keys qualify
    )
    replay(tiny_changes, spec, run_id="hot1")
    hot_files = glob.glob(os.path.join(spec.out_dir, "path_dim", "hot-*.parquet"))
    assert hot_files, "hot keys should be folded into a hot run file"
    _check_outputs(spec, tiny_oracle)


def test_modifier_fanout_write_path(tmp_path):
    """replay() with modifier specs writes fan-out facts + modifier_dim;
    lineage rows_applied still counts base events."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import glob
    import os

    from aiw_i2b2_etl_ray.config import ModifierSpec, ReplaySpec
    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

    n = 100
    t = pa.table(
        {
            "repo": pa.array([f"r{i%5}" for i in range(n)]),
            "path": pa.array([f"f{i%20}.c" for i in range(n)]),
            "commit": pa.array([f"c{i}" for i in range(n)]),
            "lang": pa.array(["c"] * n),
            "content": pa.array([f"body-{i}" for i in range(n)], pa.large_string()),
            "commit_seq": pa.array(np.arange(n, dtype=np.int64)),
            "op": pa.array(["D" if i % 10 == 0 else "U" for i in range(n)]),
        }
    )
    d = str(tmp_path / "in")
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "p.parquet"))

    def ext_even(tb):
        import pyarrow.compute as pc

        seq = tb["commit_seq"]
        even = pa.array(seq.to_numpy() % 2 == 0)
        return pc.if_else(even, pc.cast(seq, pa.string()), pa.scalar(None, pa.string()))

    specs = (ModifierSpec(name="EVEN", extract=ext_even),)
    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=4, salt_buckets=1, hot_key_threshold=0
    )
    summary = replay(d, spec, run_id="m1", modifier_specs=specs)
    assert summary["lineage"]["rows_applied"] == n  # base events only

    facts = pa.concat_tables(
        [pq.read_table(f) for f in glob.glob(os.path.join(spec.out_dir, "change_fact", "*.parquet"))]
    )
    base = facts.filter(pa.compute.equal(facts["modifier_cd"], "@"))
    mod = facts.filter(pa.compute.equal(facts["modifier_cd"], "EVEN"))
    assert len(base) == n
    assert len(mod) == n // 2
    assert set(mod["tval_modifier"].to_pylist()) == {str(i) for i in range(0, n, 2)}

    md = pq.read_table(os.path.join(spec.out_dir, "modifier_dim", "modifier_dim.parquet"))
    row = md.to_pylist()[0]
    assert row["modifier_cd"] == "EVEN"
    assert row["modifier_path"] == "\\Mod\\EVEN\\"
    assert row["n_facts"] == n // 2
    assert row["first_seen_seq"] == 0


def test_null_seq_rejects_not_reaccumulated(tmp_path):
    """Null-commit_seq rows bypass the watermark by design (no change-id
    ordering), so every redelivery would re-append them to the rejected
    table; the content-key dedup must keep the rejected table bounded
    under steady redelivery."""
    import numpy as np
    import pyarrow as pa

    n = 40
    seqs = [None if i % 10 == 0 else i for i in range(n)]  # 4 malformed rows
    t = pa.table(
        {
            "repo": pa.array([f"r{i % 2}" for i in range(n)]),
            "path": pa.array([f"f{i % 7}.py" for i in range(n)]),
            "commit": pa.array([f"c{i}" for i in range(n)]),
            "lang": pa.array(["py"] * n),
            "content": pa.array([f"v{i}" for i in range(n)], pa.large_string()),
            "commit_seq": pa.array(seqs, pa.int64()),
            "op": pa.array(["U"] * n),
        }
    )
    d = str(tmp_path / "in")
    os.makedirs(d)
    pq.write_table(t, os.path.join(d, "part-00000.parquet"))

    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=4,
                      salt_buckets=1, hot_key_threshold=0)
    replay(d, spec, run_id="n1")
    paths = out_paths(spec)
    rej1 = _read_dir(paths["rejected"])
    assert rej1.num_rows == 4

    spec_u = ReplaySpec(out_dir=spec.out_dir, num_partitions=4, salt_buckets=1,
                        hot_key_threshold=0, mode="update")
    for rid in ("n2", "n3"):  # steady redelivery of the same slice
        replay(d, spec_u, run_id=rid)
    rej = _read_dir(paths["rejected"])
    assert rej.num_rows == 4, f"rejected table grew to {rej.num_rows}"


def test_bump_only_manifest_has_the_committed_keys(tmp_path, tiny_changes):
    """The salt buckets' watermark bump and the merge's commit write one
    record shape; a bump never takes a run id, so a resume cannot mistake a
    bump-only partition for a committed one."""
    from aiw_i2b2_etl_ray.stages.merge import _bump_salted_watermarks

    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=1, hot_key_threshold=0)
    replay(tiny_changes, spec, run_id="c1")
    committed = mf.read_manifest(spec.out_dir)
    key = load_path_dim(spec.out_dir).slice(0, 1)
    seq = key["last_commit_seq"][0].as_py()

    fresh = str(tmp_path / "fresh")
    os.makedirs(os.path.join(fresh, "_manifest"))
    _bump_salted_watermarks(fresh, key, 8, 4)
    bumped = mf.read_manifest(fresh)
    assert bumped
    for rec in bumped:
        assert rec.keys() == committed[0].keys()
        assert rec["run_id"] is None and rec["watermark_seq"] == seq
        assert rec["engine_version"] == committed[0]["engine_version"]

    # on committed partitions the bump raises the watermark, keeps the rest
    i = key.schema.get_field_index("last_commit_seq")
    _bump_salted_watermarks(spec.out_dir, key.set_column(i, "last_commit_seq", pa.array([10**9])), 8, 4)
    after = {r["partition_id"]: r for r in mf.read_manifest(spec.out_dir)}
    for rec in bumped:
        pid = rec["partition_id"]
        before = next(r for r in committed if r["partition_id"] == pid)
        assert after[pid] == {**before, "watermark_seq": 10**9}
