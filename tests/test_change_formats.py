"""Format-agnostic change-log ingestion: the same change records delivered
as Parquet, CSV, or JSONL must replay to byte-identical star-schema state
(the unified-schema contract of sources.changes.CHANGE_READERS)."""

import glob
import os

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from aiw_i2b2_etl_ray.config import ReplaySpec
from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
from aiw_i2b2_etl_ray.sources.changes import (
    read_changes_csv,
    read_changes_jsonl,
    read_changes_table,
)
from aiw_i2b2_etl_ray.stages.merge import load_path_dim

from .util import assert_table_eq


@pytest.fixture(scope="module")
def small_changes(tmp_path_factory):
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    d = str(tmp_path_factory.mktemp("fmt_changes"))
    generate_changes(d, 1200, n_repos=2, paths_per_repo=20, seed=9, rows_per_file=600)
    return d


def _reencode(src_dir: str, dst: str, fmt: str) -> str:
    t = read_changes_table(src_dir)
    df = t.to_pandas()
    os.makedirs(dst, exist_ok=True)
    f = os.path.join(dst, f"changes.{fmt}")
    if fmt == "csv":
        df.to_csv(f, index=False)
    else:
        df.to_json(f, orient="records", lines=True)
    return dst


def _replay_to(src, out_dir: str):
    spec = ReplaySpec(
        out_dir=out_dir, num_partitions=4, salt_buckets=1, hot_key_threshold=0
    )
    replay(src, spec)
    return spec


def _read_fact(out_dir: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(out_dir, "change_fact", "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files])


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_alternate_format_replay_matches_parquet(
    fmt, small_changes, tmp_path, ray_session
):
    ref_spec = _replay_to(small_changes, str(tmp_path / "out_parquet"))
    enc = _reencode(small_changes, str(tmp_path / f"in_{fmt}"), fmt)
    reader = read_changes_csv if fmt == "csv" else read_changes_jsonl
    alt_spec = _replay_to(reader(enc), str(tmp_path / f"out_{fmt}"))

    assert_table_eq(
        load_path_dim(alt_spec.out_dir),
        load_path_dim(ref_spec.out_dir),
        ["repo", "path"],
    )
    assert_table_eq(
        _read_fact(alt_spec.out_dir),
        _read_fact(ref_spec.out_dir),
        ["repo", "path", "commit_seq"],
    )
