"""MergePolicy hook: first-writer-wins variant (the provider-dedup rule)."""

import pyarrow as pa
import ray.data as rd

from aiw_i2b2_etl_ray.pipelines.cdc_replay import merged_groups, normalized
from aiw_i2b2_etl_ray.config import ReplaySpec


def _mk_changes():
    return rd.from_arrow(
        pa.table(
            {
                "repo": ["r"] * 3,
                "path": ["a", "a", "a"],
                "commit": ["c1", "c2", "c3"],
                "lang": ["py", "py", "go"],
                "content": pa.array(["v1", "v2", "v3"], pa.large_string()),
                "commit_seq": [1, 2, 3],
                "op": ["I", "U", "U"],
            }
        )
    )


def _run(policy):
    spec = ReplaySpec(num_partitions=2, salt_buckets=1, hot_key_threshold=0)
    norm = normalized(_mk_changes(), spec, None)
    out = merged_groups(
        norm, {"emit": "path_dim", "merge_policy": policy}, spec.num_partitions
    ).to_pandas()
    return out.iloc[0]


def test_last_writer_wins_default():
    row = _run("last_writer_wins")
    assert row["last_commit"] == "c3" and row["lang"] == "go"


def test_first_writer_wins():
    row = _run("first_writer_wins")
    assert row["last_commit"] == "c1" and row["lang"] == "py"


def test_first_writer_wins_rejects_salting():
    """The cross-bucket hot-key fold is last-writer-wins only; the spec
    refuses the unsound combination instead of shipping it."""
    import pytest

    with pytest.raises(ValueError, match="first_writer_wins"):
        ReplaySpec(merge_policy="first_writer_wins", salt_buckets=4, hot_key_threshold=10)
    # salting disabled either way -> fine
    ReplaySpec(merge_policy="first_writer_wins", salt_buckets=1)
    ReplaySpec(merge_policy="first_writer_wins", hot_key_threshold=0)


def _built_out_dir(tmp_path, rows: int = 1):
    """A salted REPLACE build of ``rows`` events; returns (input_dir, spec)."""
    import os

    import pyarrow.parquet as pq

    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

    d = str(tmp_path / "in")
    os.makedirs(d)
    pq.write_table(pa.table(
        {
            "repo": ["r"] * rows, "path": ["a" if i % 2 else f"p{i}" for i in range(rows)],
            "commit": [f"c{i}" for i in range(rows)], "lang": ["py"] * rows,
            "content": pa.array([f"v{i}" for i in range(rows)], pa.large_string()),
            "commit_seq": pa.array(range(rows), pa.int64()), "op": ["U"] * rows,
        }
    ), os.path.join(d, "p.parquet"))
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=4,
                      salt_buckets=2, hot_key_threshold=10)
    replay(d, spec, run_id="v1")
    return d, ReplaySpec(out_dir=spec.out_dir, num_partitions=4, salt_buckets=2,
                         hot_key_threshold=10, mode="update")


def _edit_job(out_dir, **fields):
    from aiw_i2b2_etl_ray.state import manifest as mf

    job = mf.read_job_manifest(out_dir)
    for k, v in fields.items():
        if v is None:
            job.pop(k, None)
        else:
            job[k] = v
    mf.write_job_manifest(out_dir, job)


def test_update_rejects_routing_id_mismatch(tmp_path):
    """State routed differently (a tampered routing id stands in for a hash
    that moved rows) must not be updated: a redelivered event could land
    past its partition's watermark and re-apply."""
    import pytest

    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

    d, spec_u = _built_out_dir(tmp_path)
    _edit_job(spec_u.out_dir, routing_id="0" * 16)
    with pytest.raises(ValueError, match="routing"):
        replay(d, spec_u, run_id="v2")


def test_update_rejects_legacy_manifest_from_other_polars(tmp_path):
    """A job manifest from before routing ids records only the polars
    version; under a different polars nothing proves routing unchanged."""
    import pytest

    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

    d, spec_u = _built_out_dir(tmp_path)
    _edit_job(spec_u.out_dir, routing_id=None, polars_version="0.0.1-other")
    with pytest.raises(ValueError, match="polars"):
        replay(d, spec_u, run_id="v2")


def test_update_on_legacy_manifest_matches_oracle(tmp_path):
    """A legacy job manifest built under this polars updates normally, the
    redelivered hot-key rows do not re-apply, and the run records its
    routing id."""
    import glob
    import os

    import polars as pl
    import pyarrow.parquet as pq

    from aiw_i2b2_etl_ray import oracle
    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
    from aiw_i2b2_etl_ray.sources.changes import read_changes_table
    from aiw_i2b2_etl_ray.stages import routing
    from aiw_i2b2_etl_ray.stages.merge import load_path_dim
    from aiw_i2b2_etl_ray.state import manifest as mf

    from .util import assert_table_eq

    d, spec_u = _built_out_dir(tmp_path, rows=60)
    assert mf.read_job_manifest(spec_u.out_dir)["hot_keys"] == ["r\x1fa"]
    _edit_job(spec_u.out_dir, routing_id=None, polars_version=pl.__version__)
    s = replay(d, spec_u, run_id="v2")  # a full redelivery
    golden = oracle.replay(read_changes_table(d))
    assert s["lineage"]["rows_applied"] == len(golden.change_fact)
    fact_rows = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(spec_u.out_dir, "change_fact", "*.parquet"))
    )
    assert fact_rows == len(golden.change_fact)
    assert_table_eq(load_path_dim(spec_u.out_dir), golden.path_dim, ["repo", "path"])
    job = mf.read_job_manifest(spec_u.out_dir)
    assert job["routing_id"] == routing.routing_id() and "polars_version" not in job


def test_null_commit_seq_rejected():
    """Rows with null commit_seq land in the rejected table with
    reason='null_seq' in every run mode (never silently dropped)."""
    ds = rd.from_arrow(
        pa.table(
            {
                "repo": ["r", "r"],
                "path": ["a", "b"],
                "commit": ["c1", "c2"],
                "lang": ["py", "py"],
                "content": pa.array(["v1", "v2"], pa.large_string()),
                "commit_seq": pa.array([1, None], pa.int64()),
                "op": ["U", "U"],
            }
        )
    )
    spec = ReplaySpec(num_partitions=2, salt_buckets=1, hot_key_threshold=0)
    norm = normalized(ds, spec, None).to_pandas()
    assert set(norm["reject_reason"].dropna()) == {"null_seq"}
    assert norm.loc[norm["path"] == "b", "reject_reason"].iloc[0] == "null_seq"
