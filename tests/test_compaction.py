"""LSM hot-run compaction (consolidation) + the newly-hot-key transition."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from aiw_i2b2_etl_ray import oracle
from aiw_i2b2_etl_ray.config import ReplaySpec
from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
from aiw_i2b2_etl_ray.stages.merge import compact_path_dim, load_path_dim

from .util import assert_table_eq


def _mk(repo, path, commits, seq0, op="U", lang="c"):
    n = len(commits)
    return pa.table(
        {
            "repo": pa.array([repo] * n),
            "path": pa.array([path] * n),
            "commit": pa.array(commits),
            "lang": pa.array([lang] * n),
            "content": pa.array([f"{c}-body" for c in commits], pa.large_string()),
            "commit_seq": pa.array(np.arange(seq0, seq0 + n, dtype=np.int64)),
            "op": pa.array([op] * n),
        }
    )


def test_compaction_consolidates_hot_runs(tmp_path, tiny_changes, tiny_oracle):
    """Each salted run folds its hot runs into one file; compaction keeps
    that file and the converged state."""
    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=50
    )
    replay(tiny_changes, spec, run_id="c1")
    # a second update run with a redelivery slice adds hot runs of its own
    spec_u = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=4, hot_key_threshold=50, mode="update"
    )
    replay(tiny_changes, spec_u, run_id="c2")
    hd = os.path.join(spec.out_dir, "path_dim", "hot-*.parquet")
    assert len(glob.glob(hd)) == 1
    assert compact_path_dim(spec.out_dir) > 0
    assert len(glob.glob(hd)) == 1
    assert_table_eq(load_path_dim(spec.out_dir), tiny_oracle.path_dim, ["repo", "path"])


def test_newly_hot_key_no_double_count(tmp_path):
    """A key that is COLD in run 1 (state in its partition file) and HOT in
    run 2 must end with exactly one live-path count in repo_dim (the
    expunge-on-transition path) and golden converged state."""
    t1 = _mk("mega", "hot.c", ["a0"], seq0=0)  # cold: single event
    churn = [f"b{i}" for i in range(1000)]
    t2 = _mk("mega", "hot.c", churn, seq0=1)  # hot: heavy churn
    golden = oracle.replay(pa.concat_tables([t1, t2]))

    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    os.makedirs(d1), os.makedirs(d2)
    pq.write_table(t1, os.path.join(d1, "p.parquet"))
    pq.write_table(t2, os.path.join(d2, "p.parquet"))

    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=100
    )
    replay(d1, spec, run_id="n1")  # below threshold: no salting
    spec_u = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=4, hot_key_threshold=100, mode="update"
    )
    replay(d2, spec_u, run_id="n2")  # crosses threshold: salted + expunged

    repo_dim = (
        pq.read_table(os.path.join(spec.out_dir, "repo_dim", "repo_dim.parquet"))
        .to_pandas()
        .set_index("repo")
    )
    assert repo_dim.loc["mega", "n_paths_live"] == 1, repo_dim
    assert_table_eq(load_path_dim(spec.out_dir), golden.path_dim, ["repo", "path"])


def test_compaction_keeps_repo_dim_correct_after_update(tmp_path):
    """Hot state consolidated by compaction still contributes live counts
    through later update runs that never touch the hot key."""
    n = 1200
    t1 = _mk("mega", "hot.c", [f"c{i}" for i in range(n)], seq0=0)
    t2 = pa.table(
        {
            "repo": pa.array(["other"] * 10),
            "path": pa.array([f"f{i}" for i in range(10)]),
            "commit": pa.array([f"d{i}" for i in range(10)]),
            "lang": pa.array(["go"] * 10),
            "content": pa.array([f"w{i}" for i in range(10)], pa.large_string()),
            "commit_seq": pa.array(np.arange(n, n + 10, dtype=np.int64)),
            "op": pa.array(["U"] * 10),
        }
    )
    golden = oracle.replay(pa.concat_tables([t1, t2]))
    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    os.makedirs(d1), os.makedirs(d2)
    pq.write_table(t1, os.path.join(d1, "p.parquet"))
    pq.write_table(t2, os.path.join(d2, "p.parquet"))

    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=100
    )
    replay(d1, spec, run_id="k1")
    compact_path_dim(spec.out_dir)
    spec_u = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=4, hot_key_threshold=100, mode="update"
    )
    replay(d2, spec_u, run_id="k2")

    repo_dim = (
        pq.read_table(os.path.join(spec.out_dir, "repo_dim", "repo_dim.parquet"))
        .to_pandas()
        .set_index("repo")
    )
    assert repo_dim.loc["mega", "n_paths_live"] == 1, repo_dim
    assert repo_dim.loc["other", "n_paths_live"] == 10
    assert_table_eq(load_path_dim(spec.out_dir), golden.path_dim, ["repo", "path"])


def test_pre_transition_redelivery_dropped(tmp_path):
    """Exactly-once across the hot transition: an event applied while the
    key was COLD, redelivered in a run AFTER the key went hot, must not
    re-apply (salt-bucket watermarks were bumped at the transition)."""
    import polars as pl

    def salt_bucket(commit: str, S: int = 4) -> int:
        # exact python-int modulo: numpy uint64 % python-int silently
        # promotes to float64 and corrupts high bits
        return pl.Series([commit]).hash(seed=1).to_list()[0] % S

    # craft run-2 commits that AVOID a0's salt bucket, so that bucket's
    # watermark stays -1 unless the transition bump raises it — without the
    # bump, the redelivered a0 re-applies and the assertion fails
    a0_bucket = salt_bucket("a0")
    churn = [c for c in (f"b{i}" for i in range(4000)) if salt_bucket(c) != a0_bucket][
        :1000
    ]
    t1 = _mk("mega", "hot.c", ["a0"], seq0=0)
    t2 = _mk("mega", "hot.c", churn, seq0=1)
    golden = oracle.replay(pa.concat_tables([t1, t2]))

    d1, d2, d3 = (str(tmp_path / f"r{i}") for i in range(3))
    for d in (d1, d2, d3):
        os.makedirs(d)
    pq.write_table(t1, os.path.join(d1, "p.parquet"))
    pq.write_table(t2, os.path.join(d2, "p.parquet"))
    pq.write_table(t1, os.path.join(d3, "p.parquet"))  # run 3 redelivers a0

    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=100
    )
    replay(d1, spec, run_id="p1")
    spec_u = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=4, hot_key_threshold=100, mode="update"
    )
    replay(d2, spec_u, run_id="p2")
    replay(d3, spec_u, run_id="p3")

    fact_rows = sum(
        pq.ParquetFile(f).metadata.num_rows
        for f in glob.glob(os.path.join(spec.out_dir, "change_fact", "*.parquet"))
    )
    assert fact_rows == len(golden.change_fact), "pre-transition redelivery re-applied!"
    assert_table_eq(load_path_dim(spec.out_dir), golden.path_dim, ["repo", "path"])


def test_transition_run_redelivery_dropped(tmp_path):
    """Exactly-once IN the transition run itself: the run whose input makes
    the key hot ALSO redelivers an event applied while the key was cold.
    The pre-merge expunge+bump must cover it (this was the one documented
    redelivery window before the bump moved ahead of the merge)."""
    t1 = _mk("mega", "hot.c", ["a0"], seq0=0)  # cold: applied in run 1
    churn = _mk("mega", "hot.c", [f"b{i}" for i in range(1000)], seq0=1)
    # run 2 = churn (crosses the hot threshold) + redelivered a0
    t2 = pa.concat_tables([churn, t1])
    golden = oracle.replay(pa.concat_tables([t1, churn]))

    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    os.makedirs(d1), os.makedirs(d2)
    pq.write_table(t1, os.path.join(d1, "p.parquet"))
    pq.write_table(t2, os.path.join(d2, "p.parquet"))

    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=100
    )
    replay(d1, spec, run_id="t1")
    spec_u = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=4, hot_key_threshold=100, mode="update"
    )
    replay(d2, spec_u, run_id="t2")

    facts = pa.concat_tables(
        [
            pq.read_table(f)
            for f in glob.glob(os.path.join(spec.out_dir, "change_fact", "*.parquet"))
        ]
    )
    n_a0 = len(facts.filter(pc.equal(facts["commit"], "a0")))
    assert n_a0 == 1, f"redelivered a0 applied {n_a0} times in the transition run"
    assert len(facts) == len(golden.change_fact)
    assert_table_eq(load_path_dim(spec.out_dir), golden.path_dim, ["repo", "path"])


def test_hot_transition_survives_crash_before_part_rewrite(tmp_path):
    """Two-phase transition durability: a crash AFTER the hot-transition
    file is persisted but BEFORE the canonical parts are rewritten leaves
    the key's state in BOTH places — the LWW merge-on-read folds the
    duplicates, and the resumed run converges to golden state."""
    from aiw_i2b2_etl_ray.stages.merge import (
        _atomic_write,
        _bump_salted_watermarks,
        extract_keys_from_parts,
    )

    t1 = _mk("mega", "hot.c", ["a0"], seq0=0)  # cold in run 1
    churn = [f"b{i}" for i in range(1000)]
    t2 = _mk("mega", "hot.c", churn, seq0=1)  # crosses threshold in run 2
    golden = oracle.replay(pa.concat_tables([t1, t2]))

    d1, d2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    os.makedirs(d1), os.makedirs(d2)
    pq.write_table(t1, os.path.join(d1, "p.parquet"))
    pq.write_table(t2, os.path.join(d2, "p.parquet"))

    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=100
    )
    replay(d1, spec, run_id="x1")

    # simulate the crashed transition run: phases 1-3 ran, phase 4 (the
    # destructive part rewrite) never did
    keys = {"mega\x1fhot.c"}
    extracted = extract_keys_from_parts(spec.out_dir, keys, 8)
    assert len(extracted) == 1
    _atomic_write(
        extracted, os.path.join(spec.out_dir, "path_dim", "hot-transition-crash.parquet")
    )
    _bump_salted_watermarks(spec.out_dir, extracted, 8, 4)
    # state now exists in BOTH the canonical part and the hot file; the
    # merge-on-read must not double it
    assert len(load_path_dim(spec.out_dir).filter(
        pc.equal(pc.field("path"), "hot.c")
    )) == 1

    # the retried run re-runs all phases and converges to golden
    spec_u = ReplaySpec(
        out_dir=spec.out_dir, num_partitions=8, salt_buckets=4, hot_key_threshold=100,
        mode="update",
    )
    replay(d2, spec_u, run_id="x2")
    assert_table_eq(load_path_dim(spec.out_dir), golden.path_dim, ["repo", "path"])
