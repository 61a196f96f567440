"""Exactly-once incremental window counts (pipelines/stream_windows).

Contracts: (1) K sequential micro-batches — including a redelivered
overlapping slice — converge to the same state as one full-log fold;
(2) that state equals a DuckDB windowed count over the full log;
(3) re-folding the SAME batch twice is a no-op (idempotency)."""

import duckdb
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from aiw_i2b2_etl_ray.pipelines.stream_windows import (
    WINDOW_SEQS,
    load_windows,
    update_windows,
)
from aiw_i2b2_etl_ray.sources.changes import read_changes_table

from .util import assert_table_eq


@pytest.fixture(scope="module")
def log_dir(tmp_path_factory):
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    d = str(tmp_path_factory.mktemp("win_changes"))
    generate_changes(d, 3000, n_repos=3, paths_per_repo=25, seed=11, rows_per_file=1000)
    return d


def _slice_ds(full: pa.Table, lo: int, hi: int) -> rd.Dataset:
    import pyarrow.compute as pc

    m = pc.and_(pc.greater_equal(full["commit_seq"], lo), pc.less(full["commit_seq"], hi))
    return rd.from_arrow(full.filter(m))


def test_micro_batches_converge_to_one_shot_and_oracle(log_dir, tmp_path, ray_session):
    full = read_changes_table(log_dir)
    inc_out = str(tmp_path / "inc")
    # 3 micro-batches; the second redelivers the first's tail (seq 800-1000)
    for lo, hi in [(0, 1000), (800, 2200), (2200, 10_000_000)]:
        update_windows(_slice_ds(full, lo, hi), inc_out, num_partitions=4)

    one_out = str(tmp_path / "one")
    update_windows(rd.from_arrow(full), one_out, num_partitions=4)

    inc, one = load_windows(inc_out), load_windows(one_out)
    assert_table_eq(inc, one, ["repo", "window_id"])

    con = duckdb.connect()
    expected = con.sql(
        f"""SELECT repo, CAST(commit_seq // {WINDOW_SEQS} AS BIGINT) AS window_id,
                   CAST(COUNT(*) AS BIGINT) AS n_changes
            FROM read_parquet('{log_dir}/*.parquet')
            GROUP BY repo, window_id ORDER BY repo, window_id"""
    ).arrow()
    assert_table_eq(inc, expected.cast(inc.schema), ["repo", "window_id"])


def test_refold_same_batch_is_noop(log_dir, tmp_path, ray_session):
    full = read_changes_table(log_dir)
    out = str(tmp_path / "idem")
    update_windows(_slice_ds(full, 0, 1500), out, num_partitions=4)
    before = load_windows(out)
    s = update_windows(_slice_ds(full, 0, 1500), out, num_partitions=4)  # redelivery
    assert s["rows_folded"] == 0
    assert s["rows_skipped"] > 0  # everything was late/duplicate
    assert_table_eq(load_windows(out), before, ["repo", "window_id"])


def test_partition_count_change_is_rejected(log_dir, tmp_path, ray_session):
    """Watermarks are per-partition, so the routing fn must be pinned:
    folding the same state dir with a different num_partitions would
    double-count and must be refused (the merge's job-manifest rule)."""
    full = read_changes_table(log_dir)
    out = str(tmp_path / "pinned")
    update_windows(_slice_ds(full, 0, 1000), out, num_partitions=4)
    with pytest.raises(ValueError, match="num_partitions"):
        update_windows(_slice_ds(full, 1000, 2000), out, num_partitions=8)
    # the original partitioning still works
    s = update_windows(_slice_ds(full, 1000, 2000), out, num_partitions=4)
    assert s["rows_folded"] > 0


def test_routing_change_is_rejected(log_dir, tmp_path, ray_session):
    """State routed under another hash (a tampered routing id stands in for
    a polars upgrade that moved rows) must not fold: its rows would land
    past foreign watermarks."""
    import json
    import os

    full = read_changes_table(log_dir)
    out = str(tmp_path / "rid")
    update_windows(_slice_ds(full, 0, 1000), out, num_partitions=4)
    jm_path = os.path.join(out, "_window_manifest", "job.json")
    with open(jm_path) as f:
        jm = json.load(f)
    jm["routing_id"] = "0" * 16
    with open(jm_path, "w") as f:
        json.dump(jm, f)
    before = load_windows(out)
    with pytest.raises(ValueError, match="routing"):
        update_windows(_slice_ds(full, 1000, 2000), out, num_partitions=4)
    assert_table_eq(load_windows(out), before, ["repo", "window_id"])


def test_legacy_job_manifest_folds_and_gains_routing_id(log_dir, tmp_path, ray_session):
    """State written before routing ids (job.json holds only
    num_partitions) still folds, and the fold records the id."""
    import json
    import os

    from aiw_i2b2_etl_ray.stages import routing

    full = read_changes_table(log_dir)
    out = str(tmp_path / "legacy")
    update_windows(_slice_ds(full, 0, 1000), out, num_partitions=4)
    jm_path = os.path.join(out, "_window_manifest", "job.json")
    with open(jm_path, "w") as f:
        json.dump({"num_partitions": 4}, f)
    s = update_windows(_slice_ds(full, 800, 2000), out, num_partitions=4)
    assert s["rows_folded"] > 0
    with open(jm_path) as f:
        assert json.load(f) == {"num_partitions": 4, "routing_id": routing.routing_id()}
    one = str(tmp_path / "one")
    update_windows(_slice_ds(full, 0, 2000), one, num_partitions=4)
    assert_table_eq(load_windows(out), load_windows(one), ["repo", "window_id"])


def test_crash_between_state_and_manifest_does_not_double_count(
    log_dir, tmp_path, ray_session
):
    """Simulate a crash AFTER the state parquet rename but BEFORE the JSON
    mirror write: delete the JSON manifests (stale-watermark stand-in) and
    refold the same batch.  The authoritative footer watermark must reject
    the redelivery — additive state is not re-apply-idempotent, so this is
    the exactly-once crash window the footer metadata closes."""
    import glob
    import os

    full = read_changes_table(log_dir)
    out = str(tmp_path / "crash")
    update_windows(rd.from_arrow(full), out, num_partitions=4)
    before = load_windows(out)

    # the crash: JSON mirrors vanish/stale while state parquets are new
    for f in glob.glob(os.path.join(out, "_window_manifest", "part-*.json")):
        os.remove(f)

    s = update_windows(rd.from_arrow(full), out, num_partitions=4)
    assert s["rows_folded"] == 0, "footer watermark must reject redelivery"
    assert_table_eq(load_windows(out), before, ["repo", "window_id"])


def test_empty_micro_batch_folds_nothing(log_dir, tmp_path, ray_session):
    """A micro-batch with no rows returns zero counts and leaves the state
    as it was."""
    full = read_changes_table(log_dir)
    out = str(tmp_path / "out")
    update_windows(_slice_ds(full, 0, 1000), out, num_partitions=4)
    before = load_windows(out)
    summary = update_windows(rd.from_arrow(full.slice(0, 0)), out, num_partitions=4)
    assert summary == {"partitions": 0, "rows_folded": 0, "rows_skipped": 0}
    assert load_windows(out).equals(before)
