"""Subprocess drives of the newer CLI verbs (each owns its Ray session):
`windows` (exactly-once fold + idempotent refold) and `corpus`
(build + resumed rerun)."""

import json
import os
import subprocess
import sys

import pytest


def _run(args, timeout=300):
    env = dict(os.environ, RAY_ADDRESS="local")
    r = subprocess.run(
        [sys.executable, "-m", "aiw_i2b2_etl_ray", *args],
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=env,
        timeout=timeout,
    )
    return r


@pytest.fixture(scope="module")
def changes_dir(tmp_path_factory):
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    d = str(tmp_path_factory.mktemp("cli_changes"))
    generate_changes(d, 800, n_repos=2, paths_per_repo=15, seed=21, rows_per_file=400)
    return d


def test_windows_cli_fold_refold_and_pin(changes_dir, tmp_path):
    out = str(tmp_path / "win")
    r1 = _run(["windows", "--input", changes_dir, "--out", out, "--num-partitions", "4"])
    assert r1.returncode == 0, r1.stderr[-2000:]
    s1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert s1["rows_folded"] > 0 and s1["rows_skipped"] == 0

    r2 = _run(["windows", "--input", changes_dir, "--out", out, "--num-partitions", "4"])
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["rows_folded"] == 0 and s2["rows_skipped"] > 0  # exactly-once

    r3 = _run(["windows", "--input", changes_dir, "--out", out, "--num-partitions", "8"])
    assert r3.returncode != 0
    assert "refusing to fold" in (r3.stderr + r3.stdout)


def test_corpus_cli_build_and_resume(tmp_path):
    out = str(tmp_path / "corpus")
    r1 = _run(["corpus", "--sf-dir", "/root/testdata/sf0.001", "--out", out], timeout=420)
    assert r1.returncode == 0, r1.stderr[-2000:]
    s1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert s1["written"] > 0 and s1["docs"] > 0

    r2 = _run(["corpus", "--sf-dir", "/root/testdata/sf0.001", "--out", out], timeout=420)
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["written"] == 0 and s2["skipped"] == s1["written"]


def test_compact_cli_prints_hot_keys_left(changes_dir, tmp_path):
    """`compact` folds the hot runs a crash left into one file and prints
    how many hot keys that file holds (it re-homes none)."""
    import glob
    import shutil

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from aiw_i2b2_etl_ray.config import ReplaySpec
    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
    from aiw_i2b2_etl_ray.sources.changes import read_changes_table

    full = read_changes_table(changes_dir)
    cut = pc.max(full["commit_seq"]).as_py() // 2
    logs = {}
    for name, mask in (("head", pc.less_equal), ("tail", pc.greater)):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(full.filter(mask(full["commit_seq"], cut)), str(d / "p.parquet"))
        logs[name] = str(d)
    out = str(tmp_path / "out")
    kw = dict(out_dir=out, num_partitions=4, salt_buckets=4, hot_key_threshold=20)
    replay(logs["head"], ReplaySpec(**kw), run_id="c1")
    replay(logs["tail"], ReplaySpec(mode="update", **kw), run_id="c2")
    hot = os.path.join(out, "path_dim", "hot-*.parquet")
    # each replay folds its hot runs into one file; a second copy of it is
    # what a crash between the fold's write and its deletes leaves
    (folded,) = glob.glob(hot)
    shutil.copy(folded, os.path.join(out, "path_dim", "hot-c2-00000.parquet"))

    r = _run(["compact", "--out", out])
    assert r.returncode == 0, r.stderr[-2000:]
    (left,) = glob.glob(hot)
    n = pq.read_metadata(left).num_rows
    assert n > 0
    assert json.loads(r.stdout.strip().splitlines()[-1]) == {"hot_keys": n}


_CAPS_SCRIPT = """
import json, os, sys
import ray
from aiw_i2b2_etl_ray.__main__ import main

seen = {}


class Stop(Exception):
    pass


def init(*args, **kwargs):  # the caps as ray.init sees them; no session starts
    seen.update({k: os.environ.get(k) for k in sys.argv[2:]})
    raise Stop


ray.init = init
try:
    main(["status", "--out", sys.argv[1]])
except Stop:
    pass
print(json.dumps(seen))
"""


def test_cli_caps_kernel_threads_before_ray_init(tmp_path):
    """``python -m aiw_i2b2_etl_ray`` sets the kernel thread caps before it
    starts Ray, so workers inherit them and ``worker_runtime_env()`` gives
    no stage a runtime_env of its own."""
    from aiw_i2b2_etl_ray.util import WORKER_ENV

    caps = WORKER_ENV["env_vars"]
    env = {k: v for k, v in os.environ.items() if k not in caps}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    r = subprocess.run(
        [sys.executable, "-c", _CAPS_SCRIPT, str(tmp_path), *caps],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    assert json.loads(r.stdout.strip().splitlines()[-1]) == caps
