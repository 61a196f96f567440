"""The replay's keyed merge runs as stateless Ray tasks, not an actor pool.

An actor pool at the merge held a CPU per actor: with one logical CPU the
pool took the only slot while the read/normalize/sort tasks it waited on
could not be scheduled, and a replay never finished.  These tests pin the
task-based plan and run a salted replace + update pair in a Ray session of
its own with ``num_cpus=1``.  The Ray Data plan tests feed a Dataset
input, which is the input that runs it; a path's task exchange is checked
from ``ray.timeline()``.
"""

import json

import pyarrow.compute as pc
import pyarrow.parquet as pq

from aiw_i2b2_etl_ray.config import ReplaySpec
from aiw_i2b2_etl_ray.pipelines import cdc_replay
from aiw_i2b2_etl_ray.sources.changes import read_changes

from .util import assert_table_eq, run_one_cpu

#: a 40k-event replay takes a few seconds at num_cpus=1; the pool-based
#: merge never finished one at all
ONE_CPU_TIMEOUT_S = 120

_ONE_CPU_SCRIPT = """
import json, sys
from aiw_i2b2_etl_ray.config import ReplaySpec
from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
head, tail, out = sys.argv[1:4]
kw = dict(out_dir=out, num_partitions=8, salt_buckets=4, hot_key_threshold=200)
first = replay(head, ReplaySpec(**kw))
second = replay(tail, ReplaySpec(mode="update", **kw))
print(json.dumps({"replace": first["lineage"], "update": second["lineage"]}))
ray.shutdown()
"""


def _changes(tmp_path):
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    # the generator's defaults plant a hot key, deletes, duplicate
    # change-ids and rejected rows
    d = str(tmp_path / "log")
    generate_changes(d, 20_000, n_repos=4, paths_per_repo=50, seed=11, rows_per_file=5000)
    return d


def _split(log: str, tmp_path):
    """head (first 70% of commit_seq) and a tail re-sending 20% of it."""
    from aiw_i2b2_etl_ray.sources.changes import read_changes_table

    full = read_changes_table(log)
    cut = int(pc.max(full["commit_seq"]).as_py() * 0.7)
    parts = {
        "head": full.filter(pc.less_equal(full["commit_seq"], cut)),
        "tail": full.filter(pc.greater(full["commit_seq"], int(cut * 0.8))),
    }
    dirs = {}
    for name, t in parts.items():
        d = tmp_path / name
        d.mkdir()
        pq.write_table(t, str(d / "part-00000.parquet"))
        dirs[name] = str(d)
    return full, parts["head"], dirs


def _run_one_cpu(*args: str) -> dict:
    out = run_one_cpu(
        _ONE_CPU_SCRIPT, *args, timeout_s=ONE_CPU_TIMEOUT_S, what="replace + update"
    )
    return json.loads(out.strip().splitlines()[-1])


def test_one_cpu_salted_replay_and_update_match_oracle(tmp_path):
    from aiw_i2b2_etl_ray import oracle
    from aiw_i2b2_etl_ray.stages.merge import load_path_dim
    from aiw_i2b2_etl_ray.state import manifest as mf

    full, head, dirs = _split(_changes(tmp_path), tmp_path)
    out = str(tmp_path / "out")
    lineage = _run_one_cpu(dirs["head"], dirs["tail"], out)

    assert mf.read_job_manifest(out)["hot_keys"], "the log must exercise salting"
    # conflicts_resolved is not compared: a salted key counts one conflict
    # fewer per extra salt bucket it lands in (by design)
    want_head = oracle.replay(head)
    lineage["replace"].pop("conflicts_resolved")
    assert lineage["replace"] == {
        "rows_applied": len(want_head.change_fact),
        "dups_dropped": want_head.counters["dups_dropped"],
        "rows_rejected": len(want_head.rejected),
    }
    want = oracle.replay(full)
    assert lineage["update"]["rows_applied"] == len(want.change_fact)
    assert_table_eq(load_path_dim(out), want.path_dim, ["repo", "path"])


def test_checkpoint_merge_runs_as_tasks(tmp_path, tiny_changes, monkeypatch):
    """A checkpoint replay's merge stage plans as a task-pool operator, and
    no operator of its plan is an actor pool."""
    # private Ray Data API (the planner and ``Dataset._plan``), checked
    # against ray 2.49.2: the physical operator class is the only place the
    # task/actor choice shows before execution
    from ray.data._internal.logical.optimizers import get_execution_plan

    plans = []
    orig = cdc_replay.merged_groups

    def capture(*args, **kwargs):
        ds = orig(*args, **kwargs)
        todo = [get_execution_plan(ds._plan._logical_plan).dag]
        while todo:
            op = todo.pop()
            plans.append((type(op).__name__, op.name))
            todo.extend(op.input_dependencies)
        return ds

    monkeypatch.setattr(cdc_replay, "merged_groups", capture)
    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=50
    )
    summary = cdc_replay.replay(read_changes(tiny_changes), spec)
    assert summary["partitions"] > 0
    assert ("TaskPoolMapOperator", "MapBatches(_merge_group)") in plans, plans
    assert not [op for op in plans if op[0] == "ActorPoolMapOperator"], plans


def test_replay_reads_fused_and_merges_in_one_task_per_range(tmp_path, tiny_changes, monkeypatch):
    """The read and ``Normalizer`` fuse into one operator (the read is not
    split), and the merge runs B = min(num_partitions, CPUs) task-pool
    tasks, one per pkey range."""
    import ray
    from ray.data._internal.logical.optimizers import get_execution_plan

    plans, stats = [], []
    orig = cdc_replay.merged_groups

    def capture(*args, **kwargs):
        ds = orig(*args, **kwargs)
        todo = [get_execution_plan(ds._plan._logical_plan).dag]
        while todo:
            op = todo.pop()
            plans.append((type(op).__name__, op.name))
            todo.extend(op.input_dependencies)
        ds = ds.materialize()
        stats.append(ds.stats())
        return ds

    monkeypatch.setattr(cdc_replay, "merged_groups", capture)
    spec = ReplaySpec(
        out_dir=str(tmp_path / "out"), num_partitions=8, salt_buckets=4, hot_key_threshold=50
    )
    cdc_replay.replay(read_changes(tiny_changes), spec)
    b = cdc_replay.merge_tasks(spec.num_partitions)
    assert b == min(spec.num_partitions, int(ray.cluster_resources()["CPU"])) > 1
    assert ("TaskPoolMapOperator", "ReadParquet->MapBatches(Normalizer)") in plans, plans
    assert f"MapBatches(_merge_group): {b} tasks executed" in stats[0], stats[0]


def test_merge_tasks_bound_the_rows_of_a_task(monkeypatch):
    """B is one task per CPU, more when the delivery's rows would give a
    task over ``MERGE_ROWS_PER_TASK``, and never more than the partitions
    (a head node that reports no CPUs counts as one)."""
    cap = cdc_replay.MERGE_ROWS_PER_TASK
    monkeypatch.setattr(cdc_replay, "cluster_cpus", lambda: 4)
    assert cdc_replay.merge_tasks(64) == 4
    assert cdc_replay.merge_tasks(2) == 2
    assert cdc_replay.merge_tasks(64, 4 * cap) == 4
    assert cdc_replay.merge_tasks(64, 10 * cap) == 10
    assert cdc_replay.merge_tasks(8, 10 * cap) == 8
    monkeypatch.setattr(cdc_replay, "cluster_cpus", lambda: 1)
    assert cdc_replay.merge_tasks(64, 3 * cap + 1) == 4


def test_replay_sizes_merge_tasks_from_the_footer_row_count(tmp_path, tiny_changes, monkeypatch):
    """A path delivery whose footers count more rows than the CPUs' tasks
    may hold runs more merge tasks than CPUs, each over its own pkey range:
    the task exchange's M map tasks, then B = ``merge_tasks(P, rows)``
    merge tasks."""
    import glob
    import time

    import ray

    from .test_exchange_schedule import MAP, PIECES, task_spans

    files = glob.glob(f"{tiny_changes}/*.parquet")
    rows = sum(pq.read_metadata(f).num_rows for f in files)
    cpus = int(ray.cluster_resources()["CPU"])
    monkeypatch.setattr(cdc_replay, "MERGE_ROWS_PER_TASK", -(-rows // (cpus + 2)))
    monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", 0)
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), num_partitions=16, salt_buckets=1)
    t0 = time.time()
    summary = cdc_replay.replay(tiny_changes, spec)
    spans = task_spans(ray.timeline(), t0 * 1e6, time.time() * 1e6)
    assert cdc_replay.merge_tasks(spec.num_partitions, rows) == cpus + 2
    assert len(spans[PIECES]) == cpus + 2, spans
    assert len(spans[MAP]) == min(len(files), cpus + 2), spans
    assert len(glob.glob(str(tmp_path / "out" / "_manifest" / "part-*.json"))) == 16
    assert summary["lineage"]["rows_applied"] > 0
