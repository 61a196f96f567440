"""A REAL mid-run driver kill: SIGKILL the `replay` CLI process while
partition manifests are landing, then re-submit with --resume and require
byte-level convergence to a clean single-run build.

This is the north-star resumability claim exercised at its true surface
(the reference restarts from scratch on any failure —
dest/I2b2QueryResultsHandler.java:405-416; the engine's checkpoint
manifest replaces that).  `test_replay_checkpoint.test_crash_resume`
simulates the crash by dropping partitions pre-merge; here the driver
process group actually dies mid-commit, which additionally exercises the
orphan `*.tmp-*` reap (a kill between a writer's open and its
os.replace leaves a partial file that directory-scan readers would
otherwise pick up).
"""

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

N_PARTITIONS = 64
REPLAY_ARGS = [
    "--num-partitions",
    str(N_PARTITIONS),
    "--salt-buckets",
    "1",
    "--hot-key-threshold",
    "0",
]


def _replay_cmd(changes_dir: str, out: str, *extra: str) -> list[str]:
    return [
        sys.executable,
        "-m",
        "aiw_i2b2_etl_ray",
        "replay",
        "--input",
        changes_dir,
        "--out",
        out,
        *REPLAY_ARGS,
        *extra,
    ]


def _env() -> dict:
    return dict(os.environ, RAY_ADDRESS="local")


def _manifests(out: str) -> list[str]:
    return sorted(glob.glob(os.path.join(out, "_manifest", "part-*.json")))


@pytest.fixture(scope="module")
def kill_changes(tmp_path_factory):
    """Large enough that the merge stage commits partitions over a
    multi-second window (the kill target), small enough to stay quick."""
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    d = str(tmp_path_factory.mktemp("kill_changes"))
    generate_changes(
        d, 1_000_000, n_repos=8, paths_per_repo=400, seed=77, rows_per_file=250_000
    )
    return d


def _load_state(out: str):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from aiw_i2b2_etl_ray.stages.merge import load_path_dim

    fact_files = sorted(glob.glob(os.path.join(out, "change_fact", "*.parquet")))
    fact = pa.concat_tables([pq.read_table(f) for f in fact_files])
    return load_path_dim(out), fact


def _sorted_pdf(t, keys):
    df = t.to_pandas()
    return df[sorted(df.columns)].sort_values(keys, kind="mergesort").reset_index(drop=True)


def _committed_by(out: str, run_id: str) -> int:
    """Partitions whose manifest was committed by the given run (manifests
    are atomic JSON, so a read never sees a partial)."""
    n = 0
    for m in _manifests(out):
        if json.load(open(m)).get("run_id") == run_id:
            n += 1
    return n


def _spawn_and_kill_mid_commit(cmd: list[str], ready) -> None:
    """Start the replay CLI in its own process group, SIGKILL the group the
    moment `ready()` turns true (manifests landing), then wait for straggler
    worker tasks (owned by the dead driver, cancelled by the raylet on owner
    death) to drain so the resume run's committed-partition snapshot is
    stable."""
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        cwd="/root/repo",
        env=_env(),
        start_new_session=True,  # own pgid: killpg reaps Ray daemons too
    )
    deadline = time.time() + 300
    while time.time() < deadline and proc.poll() is None:
        if ready():
            break
        time.sleep(0.02)
    if proc.poll() is not None:
        pytest.skip("replay finished before the kill window opened (host too fast)")
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait(timeout=60)
    n = -1
    while True:
        m = len(_manifests_anywhere(cmd))
        if m == n:
            break
        n = m
        time.sleep(2.0)
    try:  # second sweep for any pgid member that outlived the first kill
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _manifests_anywhere(cmd: list[str]) -> list[str]:
    out = cmd[cmd.index("--out") + 1]
    return _manifests(out)


def test_sigkill_mid_run_then_resume_converges(kill_changes, tmp_path):
    import pandas.testing as pdt

    # --- ground truth: one clean uninterrupted run --------------------------
    out_clean = str(tmp_path / "clean")
    r = subprocess.run(
        _replay_cmd(kill_changes, out_clean),
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=_env(),
        timeout=600,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    clean_rows_applied = sum(
        json.load(open(m))["rows_applied"] for m in _manifests(out_clean)
    )
    assert clean_rows_applied > 0

    # --- the kill run: SIGKILL the whole process group mid-commit -----------
    out_kill = str(tmp_path / "kill")
    _spawn_and_kill_mid_commit(
        _replay_cmd(kill_changes, out_kill, "--run-id", "killrun"),
        ready=lambda: len(_manifests(out_kill)) >= 2,
    )
    done_before = len(_manifests(out_kill))
    # the job-level manifest is the LAST thing a run writes; if it exists or
    # every partition committed, the kill landed too late to claim mid-run
    if done_before >= N_PARTITIONS or os.path.exists(
        os.path.join(out_kill, "_manifest", "job.json")
    ):
        pytest.skip("kill landed after every partition committed (host too fast)")
    assert done_before > 0  # the poll condition guaranteed >=2 at kill time

    # --- resume: same command + --resume + the crashed run's id -------------
    r2 = subprocess.run(
        _replay_cmd(kill_changes, out_kill, "--run-id", "killrun", "--resume"),
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=_env(),
        timeout=600,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]

    # --- convergence: identical final state, exactly-once lineage -----------
    pd_clean, fact_clean = _load_state(out_clean)
    pd_kill, fact_kill = _load_state(out_kill)
    pdt.assert_frame_equal(
        _sorted_pdf(pd_kill, ["repo", "path"]), _sorted_pdf(pd_clean, ["repo", "path"])
    )
    pdt.assert_frame_equal(
        _sorted_pdf(fact_kill, ["repo", "path", "commit_seq"]),
        _sorted_pdf(fact_clean, ["repo", "path", "commit_seq"]),
    )
    kill_rows_applied = sum(
        json.load(open(m))["rows_applied"] for m in _manifests(out_kill)
    )
    assert kill_rows_applied == clean_rows_applied  # no double- or lost applies

    # --- the reap: no orphan tmp garbage survives the resumed run -----------
    assert glob.glob(os.path.join(out_kill, "**", "*.tmp-*"), recursive=True) == []


def test_sigkill_mid_update_run_then_resume_converges(kill_changes, tmp_path):
    """The incremental path: SIGKILL an update-mode (tail-apply) run while
    its watermark bumps are landing, resume with the crashed run's id, and
    require convergence to a clean base+tail build with exactly-once
    lineage.  Update mode is the harder case — every partition already has
    a manifest from the base load, so resume must skip by run_id, and the
    per-partition watermark (not manifest presence) carries exactly-once."""
    import shutil

    import pandas.testing as pdt
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    # split the log at the median commit_seq: base load + incremental tail
    t = pads.dataset(kill_changes).to_table()
    cut = int(pc.approximate_median(t["commit_seq"]).as_py())
    base_d, tail_d = str(tmp_path / "base"), str(tmp_path / "tail")
    os.makedirs(base_d), os.makedirs(tail_d)
    pq.write_table(
        t.filter(pc.less(t["commit_seq"], cut)), os.path.join(base_d, "chunk-0.parquet")
    )
    pq.write_table(
        t.filter(pc.greater_equal(t["commit_seq"], cut)),
        os.path.join(tail_d, "chunk-0.parquet"),
    )

    # clean base load, cloned for the kill branch (identical starting state)
    out_ref = str(tmp_path / "ref")
    r = subprocess.run(
        _replay_cmd(base_d, out_ref, "--run-id", "base"),
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=_env(),
        timeout=600,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    out_k = str(tmp_path / "k")
    shutil.copytree(out_ref, out_k)

    # ground truth: clean uninterrupted tail apply
    r = subprocess.run(
        _replay_cmd(tail_d, out_ref, "--mode", "update", "--run-id", "uref"),
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=_env(),
        timeout=600,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    ref_rows_applied = sum(
        json.load(open(m))["rows_applied"] for m in _manifests(out_ref)
    )

    # the kill: update run dies while per-partition watermark bumps land
    _spawn_and_kill_mid_commit(
        _replay_cmd(tail_d, out_k, "--mode", "update", "--run-id", "upk"),
        ready=lambda: _committed_by(out_k, "upk") >= 2,
    )
    done_before = _committed_by(out_k, "upk")
    if done_before >= N_PARTITIONS:
        pytest.skip("kill landed after every partition committed (host too fast)")
    assert done_before > 0

    # resume the tail apply with the crashed run's id
    r2 = subprocess.run(
        _replay_cmd(tail_d, out_k, "--mode", "update", "--run-id", "upk", "--resume"),
        capture_output=True,
        text=True,
        cwd="/root/repo",
        env=_env(),
        timeout=600,
    )
    assert r2.returncode == 0, r2.stderr[-2000:]

    pd_ref, fact_ref = _load_state(out_ref)
    pd_k, fact_k = _load_state(out_k)
    pdt.assert_frame_equal(
        _sorted_pdf(pd_k, ["repo", "path"]), _sorted_pdf(pd_ref, ["repo", "path"])
    )
    pdt.assert_frame_equal(
        _sorted_pdf(fact_k, ["repo", "path", "commit_seq"]),
        _sorted_pdf(fact_ref, ["repo", "path", "commit_seq"]),
    )
    k_rows_applied = sum(json.load(open(m))["rows_applied"] for m in _manifests(out_k))
    assert k_rows_applied == ref_rows_applied  # exactly-once across the kill
    assert glob.glob(os.path.join(out_k, "**", "*.tmp-*"), recursive=True) == []


def test_orphan_tmp_files_are_reaped_on_resume(tiny_changes, tmp_path):
    """Deterministic pin of the reap itself: plant tmp garbage (as a killed
    writer would leave) and require the resumed replay to remove it and to
    keep it out of every table read."""
    from aiw_i2b2_etl_ray.config import ReplaySpec, out_paths
    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=1, hot_key_threshold=0
    )
    replay(tiny_changes, spec, run_id="runA", _debug_skip_partitions=[1, 3])
    paths = out_paths(spec)
    planted = []
    for name in ("path_dim", "change_fact", "_manifest"):
        p = os.path.join(paths[name], "part-00001.parquet.tmp-deadbeef")
        with open(p, "wb") as f:
            f.write(b"\x00partial parquet garbage")  # not a valid file
        planted.append(p)
    planted.append(os.path.join(paths["_manifest"], "job.json.tmp-deadbeef"))
    with open(planted[-1], "w") as f:
        f.write("{")

    replay(tiny_changes, spec, run_id="runB", resume=True)
    for p in planted:
        assert not os.path.exists(p), p
    assert glob.glob(os.path.join(spec.out_dir, "**", "*.tmp-*"), recursive=True) == []
