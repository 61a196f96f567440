"""The hot-key pre-pass never flags a blank key, and skips a sample too
small to hold a hot key.

Rows whose ``repo`` or ``path`` is NULL or empty are rejected by the
``Normalizer`` (``null_key``), so salting them would only spread rejects
over salt buckets.  Both pre-pass variants must drop them.
"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from aiw_i2b2_etl_ray.pipelines import cdc_replay
from aiw_i2b2_etl_ray.pipelines.cdc_replay import find_hot_keys, find_hot_keys_local
from aiw_i2b2_etl_ray.sources.changes import read_footers
from aiw_i2b2_etl_ray.stages import routing

THRESHOLD = 20


def _keys() -> pa.Table:
    """50 rows of each blank key shape and of one real key."""
    repos = ["", "r", None, "r", "r"]
    paths = ["x", "", "x", None, "x"]
    return pa.table(
        {
            "repo": pa.array([r for r in repos for _ in range(50)], pa.string()),
            "path": pa.array([p for p in paths for _ in range(50)], pa.string()),
        }
    )


WANT = set(routing.encode_keys(pa.table({"repo": ["r"], "path": ["x"]})))


def test_find_hot_keys_local_drops_blank_keys(tmp_path):
    f = str(tmp_path / "keys.parquet")
    pq.write_table(_keys(), f)
    assert find_hot_keys_local([f], THRESHOLD) == WANT


@pytest.mark.parametrize("blocks", [1, 3])
def test_find_hot_keys_drops_blank_keys(blocks):
    ds = rd.from_arrow(_keys()).repartition(blocks)
    assert find_hot_keys(ds, THRESHOLD) == WANT


@pytest.mark.parametrize("n_files", [1, 8])
def test_sampled_prepass_skips_a_sample_no_key_can_fill(tmp_path, monkeypatch, n_files):
    """Below the bar ``thr // 2`` in sampled footer rows, the pre-pass
    returns no keys and opens no DuckDB cursor; from the bar on it scans,
    and returns the keys the scan finds.  The skip is exact: the scan finds
    none below the bar either.  With 8 files every 4th is sampled."""
    for i in range(n_files):
        pq.write_table(_keys(), str(tmp_path / f"part-{i:05d}.parquet"))
    footers = read_footers(str(tmp_path))
    sample = list(footers.parts[:: 4 if n_files >= 8 else 1])
    rows = len(_keys()) * len(sample)
    scans = []
    orig = cdc_replay._duckdb

    def counted():
        scans.append(1)
        return orig()

    monkeypatch.setattr(cdc_replay, "_duckdb", counted)
    for thr in (2, 100, 2 * rows - 2, 2 * rows, 2 * rows + 2, 10 * rows):
        threshold = thr * n_files // len(sample)  # scaled back down to thr
        before = len(scans)
        got = cdc_replay.sampled_hot_keys(footers, threshold)
        scanned = len(scans) > before
        assert scanned == (rows >= thr // 2), (thr, rows)
        assert (got or set()) == find_hot_keys_local(sample, thr), thr
    assert cdc_replay.sampled_hot_keys(footers, 100 * n_files // len(sample)) == WANT
