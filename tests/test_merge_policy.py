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
    out = merged_groups(norm, {"emit": "path_dim", "merge_policy": policy}).to_pandas()
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


def test_update_rejects_polars_version_mismatch(tmp_path):
    """Partition routing uses polars' hash(); an update run under a
    different polars version must be refused (silent re-apply otherwise)."""
    import pyarrow.parquet as pq
    import pytest

    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
    from aiw_i2b2_etl_ray.state import manifest as mf

    d = str(tmp_path / "in")
    import os

    os.makedirs(d)
    pq.write_table(_mk_changes().take_all() if False else pa.table(
        {
            "repo": ["r"], "path": ["a"], "commit": ["c1"], "lang": ["py"],
            "content": pa.array(["v1"], pa.large_string()),
            "commit_seq": pa.array([1], pa.int64()), "op": ["U"],
        }
    ), os.path.join(d, "p.parquet"))
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=2,
                      salt_buckets=1, hot_key_threshold=0)
    replay(d, spec, run_id="v1")
    job = mf.read_job_manifest(spec.out_dir)
    job["polars_version"] = "0.0.1-other"
    mf.write_job_manifest(spec.out_dir, job)
    spec_u = ReplaySpec(out_dir=spec.out_dir, num_partitions=2, salt_buckets=1,
                        hot_key_threshold=0, mode="update")
    with pytest.raises(ValueError, match="polars"):
        replay(d, spec_u, run_id="v2")


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
