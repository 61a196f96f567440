"""The hot-key pre-pass never flags a blank key.

Rows whose ``repo`` or ``path`` is NULL or empty are rejected by the
``Normalizer`` (``null_key``), so salting them would only spread rejects
over salt buckets.  Both pre-pass variants must drop them.
"""

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data as rd

from aiw_i2b2_etl_ray.pipelines.cdc_replay import find_hot_keys, find_hot_keys_local
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
