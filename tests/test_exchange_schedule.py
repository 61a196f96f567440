"""The keyed exchange dispatches each of its stages as one wave.

Ray Data's per-operator reservation ran the replay's normalize tasks one
after another and, at a 512 MiB object store, its merge tasks in two
waves.  ``keyed_fold`` turns the reservation off for the plan it returns,
in a ``DataContext`` of its own.  These tests read the schedule from
``ray.timeline()`` for a Dataset input, which runs that plan, and check
that neither the caller's Dataset nor the process-wide context changes.
A path input runs plain Ray tasks: on this small log its fused range
tasks, or, with ``SMALL_DELIVERY_ROWS = 0``, the task exchange's map
tasks and then its merge tasks; each kind starts as one wave too.
"""

import json
import time

import pyarrow as pa
import pytest
import ray
from ray.data import DataContext

from aiw_i2b2_etl_ray.config import ReplaySpec
from aiw_i2b2_etl_ray.pipelines import cdc_replay, windows
from aiw_i2b2_etl_ray.sources.changes import read_changes, read_footers
from aiw_i2b2_etl_ray.stages.exchange import keyed_fold

from .conftest import SF_DIR
from .util import run_in_session

NORMALIZE = "MapBatches(Normalizer)"
MERGE = "MapBatches(_merge_group)"
RANGE = "_merge_range"
MAP = "_map_files"
PIECES = "_merge_pieces"
NUM_PARTITIONS = 8
#: settings a replay could leave behind in a context
KNOBS = ("op_resource_reservation_enabled", "shuffle_strategy", "target_max_block_size")


@pytest.fixture(scope="module")
def four_file_log(tmp_path_factory):
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    d = str(tmp_path_factory.mktemp("log4"))
    generate_changes(d, 8000, n_repos=4, paths_per_repo=50, seed=3, rows_per_file=2000)
    return d


def task_spans(events: list[dict], t0: float, t1: float) -> dict[str, list[tuple]]:
    """(start, end) in µs of every task that started in ``[t0, t1]``, by
    operator name (``ray.timeline()`` names a task's event ``task::<op>``
    and the phases inside it ``task:<phase>``)."""
    spans: dict[str, list[tuple]] = {}
    for e in events:
        cat = e.get("cat", "")
        if e.get("ph") != "X" or not cat.startswith("task::") or e["name"].startswith("task:"):
            continue
        if t0 <= e["ts"] <= t1:
            spans.setdefault(cat[len("task::"):], []).append((e["ts"], e["ts"] + e["dur"]))
    return spans


def assert_one_wave(spans: dict[str, list[tuple]]) -> None:
    norm = sorted(s for op, ss in spans.items() if op.endswith(NORMALIZE) for s in ss)
    assert len(norm) >= 2, spans
    # some pair overlaps iff some pair adjacent in start order does
    assert any(b[0] < a[1] for a, b in zip(norm, norm[1:])), (
        f"normalize tasks ran one after another: {norm}"
    )
    assert_one_merge_wave(spans.get(MERGE, []))


def assert_one_merge_wave(merge: list[tuple]) -> None:
    assert len(merge) == cdc_replay.merge_tasks(NUM_PARTITIONS), merge
    assert_started_together(merge)


def assert_started_together(tasks: list[tuple]) -> None:
    first_end = min(end for _, end in tasks)
    assert all(start < first_end for start, _ in tasks), (
        f"a task waited for another to finish: {sorted(tasks)}"
    )


def assert_two_waves(spans: dict[str, list[tuple]], maps: int) -> None:
    """The task exchange's schedule: only its own tasks, ``maps`` map
    tasks as one wave, then the B merge tasks as one wave."""
    assert set(spans) == {MAP, PIECES}, spans
    assert len(spans[MAP]) == maps, spans
    assert_started_together(spans[MAP])
    assert_one_merge_wave(spans[PIECES])
    assert max(end for _, end in spans[MAP]) <= min(start for start, _ in spans[PIECES])


def map_tasks(log: str) -> int:
    return len(cdc_replay.file_groups(read_footers(log)))


def timed_replay(log, out_dir: str) -> tuple[float, float]:
    """The replay's window in µs, as ``ray.timeline()`` stamps events."""
    t0 = time.time()
    cdc_replay.replay(log, ReplaySpec(out_dir=out_dir, num_partitions=NUM_PARTITIONS))
    return t0 * 1e6, time.time() * 1e6


@pytest.mark.parametrize("kind", ["path", "dataset"])
def test_replay_runs_each_stage_in_one_wave(four_file_log, tmp_path, kind, monkeypatch):
    monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", 0)

    def log():
        return four_file_log if kind == "path" else read_changes(four_file_log)

    timed_replay(log(), str(tmp_path / "warm"))  # starts the worker pool
    t0, t1 = timed_replay(log(), str(tmp_path / "out"))
    spans = task_spans(ray.timeline(), t0, t1)
    if kind == "path":  # the task exchange
        assert_two_waves(spans, map_tasks(four_file_log))
    else:
        assert_one_wave(spans)


def test_small_delivery_runs_its_range_tasks_in_one_wave(four_file_log, tmp_path, monkeypatch):
    """A small path delivery runs no Ray Data operator: its B range tasks
    are all the replay's tasks, and they start together.  The log's 8,160
    rows are over the bound, so the bound is raised to them."""
    monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", read_footers(four_file_log).rows)
    timed_replay(four_file_log, str(tmp_path / "warm"))
    t0, t1 = timed_replay(four_file_log, str(tmp_path / "out"))
    spans = task_spans(ray.timeline(), t0, t1)
    assert list(spans) == [RANGE], spans
    assert_one_merge_wave(spans[RANGE])


_SMALL_STORE_SCRIPT = """
import json, sys, time
from aiw_i2b2_etl_ray.config import ReplaySpec
from aiw_i2b2_etl_ray.pipelines import cdc_replay
from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
from aiw_i2b2_etl_ray.sources.changes import read_changes
cdc_replay.SMALL_DELIVERY_ROWS = 0  # the task exchange, on a small log
log, out, partitions = sys.argv[1], sys.argv[2], int(sys.argv[3])
windows = {}
for kind in ("path", "dataset"):
    for i in range(2):  # the first replay starts the worker pool
        t0 = time.time()
        replay(log if kind == "path" else read_changes(log),
               ReplaySpec(out_dir=f"{out}/{kind}{i}", num_partitions=partitions))
        windows[kind] = (t0 * 1e6, time.time() * 1e6)
tasks = [e for e in ray.timeline() if e.get("cat", "").startswith("task::")]
print(json.dumps({"windows": windows, "events": tasks}))
ray.shutdown()
"""


def test_merge_runs_in_one_wave_at_a_small_object_store(four_file_log, tmp_path):
    """At the benchmark's 512 MiB store the reservation's guess of a merge
    task's output (2 x target_max_block_size) admitted one merge task
    before the rest; a session of its own, as the store size is set at
    ``ray.init``.  The task exchange runs in two waves there too."""
    out = run_in_session(
        _SMALL_STORE_SCRIPT,
        four_file_log,
        str(tmp_path),
        str(NUM_PARTITIONS),
        init="num_cpus=4, object_store_memory=512 << 20",
        timeout_s=180,
        what="replays at a 512 MiB object store",
    )
    got = json.loads(out.strip().splitlines()[-1])
    assert_one_wave(task_spans(got["events"], *got["windows"]["dataset"]))
    assert_two_waves(task_spans(got["events"], *got["windows"]["path"]), map_tasks(four_file_log))


def _process_context() -> tuple:
    ctx = DataContext.get_current()
    return ctx, {k: getattr(ctx, k) for k in KNOBS}


def test_process_context_is_left_alone(four_file_log, tmp_path, monkeypatch):
    ctx, knobs = _process_context()
    spec = ReplaySpec(out_dir=str(tmp_path / "a"), num_partitions=NUM_PARTITIONS)
    cdc_replay.replay(four_file_log, spec)
    assert _process_context() == (ctx, knobs)

    def crash(*args, **kwargs):
        raise RuntimeError("crash after the merge")

    monkeypatch.setattr(cdc_replay, "fold_hot_runs", crash)
    with pytest.raises(RuntimeError, match="crash after the merge"):
        cdc_replay.replay(four_file_log, spec)
    assert _process_context() == (ctx, knobs)

    assert windows.event_rank(SF_DIR).count() > 0  # a keyed_fold catalog query
    assert _process_context() == (ctx, knobs)


def test_caller_dataset_keeps_its_context(four_file_log, tmp_path):
    ds = read_changes(four_file_log)
    mine = ds.context
    mine.target_max_block_size = 64 << 20  # a caller's own setting
    knobs = {k: getattr(mine, k) for k in KNOBS}

    def repos(t: pa.Table) -> pa.Table:
        return t.select(["repo"])

    folded = keyed_fold(ds, ["repo"], repos)
    assert ds.context is mine and {k: getattr(mine, k) for k in KNOBS} == knobs
    # the fold's plan starts from the caller's settings and changes its copy
    assert folded.context is not mine
    assert folded.context.target_max_block_size == 64 << 20
    assert not folded.context.op_resource_reservation_enabled
    assert folded.count() == ds.count()

    cdc_replay.replay(ds, ReplaySpec(out_dir=str(tmp_path), num_partitions=NUM_PARTITIONS))
    assert ds.context is mine and {k: getattr(mine, k) for k in KNOBS} == knobs
