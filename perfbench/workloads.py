"""The workloads, their Ray sessions and their output checks.

A workload drives the engine only through its public surface:
``pipelines.cdc_replay.replay`` with a ``config.ReplaySpec``, the
``stages.merge.load_path_dim`` reader, and ``__ray_entry__.queries()``.
Every operation's output is checked against the oracle answer built by
``inputs``; a mismatch or an exception counts as a failed operation and
the run goes on.
"""

from __future__ import annotations

import glob
import os
import shutil
import sys
import time
import traceback

import pyarrow.parquet as pq

import host
import inputs as inp

#: Ray object store per session; the inputs are a few MB
OBJECT_STORE_BYTES = 512 << 20
#: AF_UNIX socket paths are limited to 107 bytes and Ray nests
#: ``session_<date>_<pid>/sockets/plasma_store`` (about 62 bytes) under its
#: temp dir, so the temp dir stays inside the checkout only when short
MAX_RAY_TEMP_DIR = 44


class Bench:
    """State of one benchmark run: directories, Ray session, op counters."""

    def __init__(self, root: str, seed: int, scale: str):
        state = os.path.join(root, ".perfbench")
        self.work = os.path.join(state, f"work-{os.getpid()}")
        self.traces = os.path.join(state, "traces")
        self.ray_tmp = os.path.join(root, ".pbray")
        self.inputs = inp.Inputs(os.path.join(state, "cache"), seed, scale)
        self.attempted = 0
        self.failed = 0
        #: self-test hook: corrupt the first checked result
        self.inject_wrong = False
        os.makedirs(self.work, exist_ok=True)

    # -- Ray session ----------------------------------------------------------
    def ray_start(self) -> None:
        import ray
        from ray.data import DataContext

        kw = {}
        if len(self.ray_tmp) <= MAX_RAY_TEMP_DIR:
            kw["_temp_dir"] = self.ray_tmp
        ray.init(
            address="local",
            num_cpus=host.cpu_count(),
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES,
            **kw,
        )
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False

    def ray_stop(self) -> None:
        import ray

        procs = host.descendants()
        ray.shutdown()
        host.reap(procs)

    def close(self) -> None:
        import ray

        if ray.is_initialized():
            self.ray_stop()
        shutil.rmtree(self.work, ignore_errors=True)
        shutil.rmtree(self.ray_tmp, ignore_errors=True)

    # -- checked operations ---------------------------------------------------
    def attempt(self, what: str, op, check):
        """Run ``op`` once; returns ``(seconds, result)``, or None when it
        raised.  ``check(result)`` returns a list of problems; an exception
        or any problem counts the operation as failed."""
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            res = op()
            dt = time.perf_counter() - t0
        except Exception:  # noqa: BLE001 - a failing operation is a finding
            self.failed += 1
            print(f"[perfbench] {what} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        if self.inject_wrong:
            self.inject_wrong = False
            res = _corrupt(res)
        try:
            problems = check(res)
        except Exception as ex:  # noqa: BLE001 - a failing check is a finding
            problems = [f"check raised {ex!r}"]
        if problems:
            self.failed += 1
            print(f"[perfbench] {what} wrong: {problems}", file=sys.stderr)
        print(f"[perfbench] {what}: {dt:.3f} s", file=sys.stderr)
        return dt, res


def _corrupt(res):
    """A wrong result of either kind: a replay summary that over-counts
    applied rows, or a query result missing a row."""
    if isinstance(res, dict):
        lineage = dict(res["lineage"], rows_applied=res["lineage"]["rows_applied"] + 1)
        return dict(res, lineage=lineage)
    return res.iloc[1:]


def check_replay(out_dir: str, summary: dict, answer: dict) -> list[str]:
    """Per-row path_dim state and the lineage counters against the oracle.
    ``conflicts_resolved`` is not compared: a salted key counts one
    conflict fewer per extra salt bucket it lands in (by design)."""
    from aiw_i2b2_etl_ray.stages.merge import load_path_dim

    problems = []
    if inp.path_dim_digest(load_path_dim(out_dir)) != answer["path_dim"]:
        problems.append("path_dim rows differ from the oracle")
    for k, want in answer["lineage"].items():
        got = summary["lineage"][k]
        if got != want:
            problems.append(f"{k}={got}, oracle {want}")
    return problems


def _read_bytes(paths: list[str]) -> None:
    for f in paths:
        with open(f, "rb") as fh:
            while fh.read(1 << 22):
                pass


def _rows(d: str) -> int:
    return sum(
        pq.ParquetFile(f).metadata.num_rows for f in glob.glob(os.path.join(d, "*.parquet"))
    )


def replay_spec(out_dir: str, hot_key_threshold: int, mode: str = "replace"):
    from aiw_i2b2_etl_ray.config import ReplaySpec

    return ReplaySpec(
        out_dir=out_dir,
        num_partitions=inp.NUM_PARTITIONS,
        salt_buckets=inp.SALT_BUCKETS,
        hot_key_threshold=hot_key_threshold,
        mode=mode,
    )


# --- workloads -----------------------------------------------------------------


class FullReplay:
    """REPLACE-mode builds of one seeded log, each into a fresh out_dir."""

    name = "full_replay"

    def __init__(self, bench: Bench):
        self.b = bench
        self.log = bench.inputs.full_log()
        self.answer = bench.inputs.full_answer()
        self.events = self.answer["events"]
        # the bench.py rule: a tenth of the log; the 6% churned path is
        # hot because the sampled pre-pass flags keys at half the threshold
        self.hot_threshold = max(1, self.events // 10)

    def spec(self, out_dir: str):
        return replay_spec(out_dir, self.hot_threshold)

    def prepare(self) -> None:
        pass

    def set_up(self) -> None:
        _read_bytes(sorted(glob.glob(os.path.join(self.log, "*.parquet"))))

    def warm_up(self) -> None:
        """Replay the first log segment: starts the workers and the merge
        pool and imports the engine in them."""
        from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

        out = os.path.join(self.b.work, "warm")
        first = sorted(glob.glob(os.path.join(self.log, "*.parquet")))[0]
        replay(first, self.spec(out), run_id="warm")
        shutil.rmtree(out)

    def out_dir(self, i: int) -> str:
        return os.path.join(self.b.work, f"full-{i}")

    def op(self, i: int, replay_fn=None):
        """One checked replay; ``(seconds, events)``, or None if it raised."""
        from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

        replay_fn = replay_fn or replay
        out = self.out_dir(i)
        shutil.rmtree(out, ignore_errors=True)
        r = self.b.attempt(
            f"replay {i}",
            lambda: replay_fn(self.log, self.spec(out), run_id=f"r{i:03d}"),
            lambda s: check_replay(out, s, self.answer),
        )
        return None if r is None else (r[0], self.events)

    def drop(self, i: int) -> None:
        shutil.rmtree(self.out_dir(i), ignore_errors=True)

    def more(self, i: int) -> bool:
        return True


class TailUpdates:
    """UPDATE-mode micro-batches applied in order to a restored base."""

    name = "tail_updates"

    def __init__(self, bench: Bench):
        self.b = bench
        self.tail = bench.inputs.tail()
        self.batches = self.tail["batches"]
        self.delivered = [_rows(d) for d in self.batches]
        # the base's churned path is hot; no batch is large enough to make
        # another key newly hot
        self.hot_threshold = max(1, bench.inputs.size["tail_base"] // 20)
        self.base_out = os.path.join(bench.inputs.dir, "tail-base-out")
        self.out = os.path.join(bench.work, "tail")

    def spec(self, out_dir: str, mode: str = "update"):
        return replay_spec(out_dir, self.hot_threshold, mode)

    def prepare(self) -> None:
        """Build the base star schema once per seed (needs Ray; untimed)."""
        from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

        if os.path.exists(os.path.join(self.base_out, "_COMPLETE")):
            return
        tmp = self.base_out + ".tmp"
        shutil.rmtree(tmp, ignore_errors=True)
        self.b.attempt(
            "base build",
            lambda: replay(self.tail["base"], self.spec(tmp, "replace"), run_id="base"),
            lambda s: check_replay(tmp, s, self.b.inputs.tail_answer(0)),
        )
        open(os.path.join(tmp, "_COMPLETE"), "w").close()
        shutil.rmtree(self.base_out, ignore_errors=True)
        os.replace(tmp, self.base_out)

    def restore(self, dst: str) -> None:
        shutil.rmtree(dst, ignore_errors=True)
        shutil.copytree(self.base_out, dst)

    def set_up(self) -> None:
        files = [self.tail["base"]] + self.batches
        _read_bytes(sorted(f for d in files for f in glob.glob(os.path.join(d, "*.parquet"))))
        self.restore(self.out)

    def warm_up(self) -> None:
        from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

        warm = os.path.join(self.b.work, "tail-warm")
        self.restore(warm)
        replay(self.batches[0], self.spec(warm), run_id="warm")
        shutil.rmtree(warm)

    def op(self, k: int, replay_fn=None, run_id: str | None = None):
        """Apply batch ``k`` (1-based); ``(seconds, delivered events)``, or
        None if it raised.  Re-applying a batch needs a new ``run_id``: update-mode fact and
        rejected files are named by run."""
        from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay

        replay_fn = replay_fn or replay
        out = self.out
        r = self.b.attempt(
            f"apply batch {k}",
            lambda: replay_fn(self.batches[k - 1], self.spec(out), run_id=run_id or f"b{k:03d}"),
            lambda s: check_replay(out, s, self.b.inputs.tail_answer(k)),
        )
        return None if r is None else (r[0], self.delivered[k - 1])

    def drop(self, k: int) -> None:
        pass

    def more(self, k: int) -> bool:
        return k <= len(self.batches)


class CatalogPanel:
    """The catalog panel of the traced run: six queries in order, cold.
    Every pass reads a fresh copy of the tables, so no in-process memo
    keyed on the input path can serve it warm."""

    def __init__(self, bench: Bench):
        self.b = bench
        self.tables, self.answers = bench.inputs.catalog()

    def set_up(self) -> None:
        _read_bytes(sorted(glob.glob(os.path.join(self.tables, "*.parquet"))))

    def check_query(self, q: str, df) -> list[str]:
        want = self.answers[q]
        if len(df) != want["rows"]:
            return [f"{len(df)} rows, oracle {want['rows']}"]
        if sorted(df.columns) != want["cols"]:
            return [f"columns {sorted(df.columns)}, oracle {want['cols']}"]
        if inp.frame_digest(df) != want["hash"]:
            return ["value hash differs from the oracle"]
        return []

    def run_pass(self, query_fn) -> None:
        """One checked cold pass; ``query_fn(name, run)`` wraps each
        query's run-and-collect."""
        import pandas as pd

        import __ray_entry__

        qs = __ray_entry__.queries()
        d = os.path.join(self.b.work, "catalog")
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(self.tables, d)
        for q in inp.PANEL:

            def run(q=q):
                out = qs[q](d)
                return out if isinstance(out, pd.DataFrame) else out.to_pandas()

            self.b.attempt(q, query_fn(q, run), lambda df, q=q: self.check_query(q, df))
        shutil.rmtree(d)


#: the benchmark's workloads; the catalog panel runs only in the traced
#: run (one 12-21 s pass per window is too few samples, see NOTES.md)
WORKLOADS = {w.name: w for w in (FullReplay, TailUpdates)}
