"""The traced run: spans around the engine's layers, and the layer sweep
that turns them into the per-layer metrics.

Spans are recorded from outside the engine.  For the length of a traced
replay the driver-side layer functions are replaced, on their modules, by
wrappers that time each call:

- ``cdc_replay.read_changes`` / ``normalized`` / ``merged_groups`` also
  materialize their Dataset, so read -> normalize -> exchange+merge run
  stage by stage and each stage gets its own span;
- ``cdc_replay.find_hot_keys_local``, ``cdc_replay.reduce_hot_rows``,
  ``dims.fold_dim_partials`` and the ``manifest`` readers are timed as
  they are.

The kernels (``Normalizer``, ``PartitionMerger``) are called in-process on
a fixed sample of the log.  Spans are kept in memory and written to
``.perfbench/traces/`` when the run ends.
"""

from __future__ import annotations

import contextlib
import glob
import json
import os
import shutil
import statistics
import time

import host
import inputs as inp

#: tail batches applied traced in the sweep
TRACE_BATCHES = 4
#: minimum time per in-process kernel measurement
KERNEL_MIN_S = 0.3


class Tracer:
    """In-memory spans: ``{"id", "name", "start", "end", "parent", ...}``."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        ticks, t0 = host.cpu_ticks(), time.perf_counter()
        try:
            yield attrs
        finally:
            t1 = time.perf_counter()
            attrs["busy_share"] = host.busy_share(ticks, host.cpu_ticks())
            self._stack.pop()
            self.spans.append(
                {"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, **attrs}
            )

    def spanned(self, name: str, fn, post=None, count=None):
        """``fn`` wrapped so every call records a span."""

        def wrapper(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if post is not None:
                    out = post(out)
                if count is not None:
                    attrs["count"] = count(out)
                return out

        return wrapper

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, self.spanned(name, orig, **kw))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def replay_layers(self):
        """Wrap the replay's driver-side layer functions, staged."""
        from aiw_i2b2_etl_ray.pipelines import cdc_replay
        from aiw_i2b2_etl_ray.stages import dims
        from aiw_i2b2_etl_ray.state import manifest

        def mat(ds):
            return ds.materialize()

        self.patch(cdc_replay, "read_changes", "sources.read", post=mat)
        self.patch(cdc_replay, "normalized", "normalize", post=mat)
        self.patch(cdc_replay, "merged_groups", "exchange.shuffle_merge", post=mat)
        self.patch(cdc_replay, "find_hot_keys_local", "cdc_replay.hot_prepass", count=len)
        self.patch(cdc_replay, "find_hot_keys", "cdc_replay.hot_prepass", count=len)
        self.patch(cdc_replay, "reduce_hot_rows", "merge.hot_fold")
        self.patch(dims, "fold_dim_partials", "dims.fold")
        for fn in ("watermarks", "read_job_manifest", "manifest_table", "completed_partitions"):
            self.patch(manifest, fn, "manifest.read")
        try:
            yield
        finally:
            self.unpatch()

    # -- queries over recorded spans -------------------------------------------
    def ops(self) -> list[dict]:
        return [s for s in self.spans if s["name"] == "op"]

    def children(self, op: dict) -> list[dict]:
        return [s for s in self.spans if s["parent"] == op["id"]]

    def child_s(self, op: dict, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.children(op) if s["name"] == name)

    def unaccounted_s(self, op: dict) -> float:
        return (op["end"] - op["start"]) - sum(
            s["end"] - s["start"] for s in self.children(op)
        )

    def dump(self, path: str, extra: dict) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"spans": self.spans, **extra}, f, indent=1)


def _dir_bytes(d: str) -> int:
    return sum(
        os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(d) for f in fs
    )


def _n_files(d: str) -> int:
    return sum(len(fs) for _, _, fs in os.walk(d))


def _lineage(out_dir: str) -> tuple[dict, list[int]]:
    """Lineage totals over the partition manifests, and rows applied per
    partition."""
    from aiw_i2b2_etl_ray.state import manifest

    recs = manifest.read_manifest(out_dir)
    keys = ("rows_applied", "dups_dropped", "conflicts_resolved", "rows_rejected")
    return {k: sum(r[k] for r in recs) for k in keys}, [r["rows_applied"] for r in recs]


def _timed(fn, min_s: float = KERNEL_MIN_S, min_reps: int = 3) -> float:
    """Median seconds per call over at least ``min_reps`` calls and
    ``min_s`` seconds."""
    times = []
    while len(times) < min_reps or sum(times) < min_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _by_pkey(t):
    import pyarrow.compute as pc

    t = t.sort_by("pkey")
    keys = pc.unique(t["pkey"]).to_pylist()
    return [t.filter(pc.equal(t["pkey"], k)) for k in keys]


def kernels(bench, full, hot_keys: list[str]) -> dict:
    """Single-process kernel cost: Normalizer and the REPLACE merge over
    every log segment but the last, then the UPDATE merge of the last
    segment against the part files the REPLACE pass wrote."""
    import ray
    from aiw_i2b2_etl_ray.config import ReplaySpec, out_paths
    from aiw_i2b2_etl_ray.sources.changes import read_changes_table
    from aiw_i2b2_etl_ray.stages.merge import PartitionMerger
    from aiw_i2b2_etl_ray.stages.normalize import Normalizer
    from aiw_i2b2_etl_ray.state import manifest

    files = sorted(glob.glob(os.path.join(full.log, "*.parquet")))
    head = inp.concat_changes([read_changes_table(f) for f in files[:-1]])
    last = read_changes_table(files[-1])
    norm = Normalizer(
        inp.NUM_PARTITIONS, inp.SALT_BUCKETS, ray.put(set(hot_keys)) if hot_keys else None
    )
    n_head = norm(head)
    norm_s = _timed(lambda: norm(head))
    g_head, g_last = _by_pkey(n_head), _by_pkey(norm(last))

    def merge_pass(out_dir: str, groups, **kw) -> float:
        merger = PartitionMerger(emit="checkpoint", out_dirs=out_paths(ReplaySpec(out_dir=out_dir)), **kw)
        t0 = time.perf_counter()
        for g in groups:
            merger(g)
        return time.perf_counter() - t0

    def fresh(d: str) -> str:
        shutil.rmtree(d, ignore_errors=True)
        for p in out_paths(ReplaySpec(out_dir=d)).values():
            os.makedirs(p)
        return d

    k_out = os.path.join(bench.work, "kernel")
    merge_s = statistics.median(
        merge_pass(fresh(k_out), g_head, run_id="k1") for _ in range(3)
    )
    wm_ref = ray.put(manifest.watermarks(k_out))

    def update_pass() -> float:
        d = os.path.join(bench.work, "kernel-update")
        shutil.rmtree(d, ignore_errors=True)
        shutil.copytree(k_out, d)
        return merge_pass(d, g_last, watermarks_ref=wm_ref, run_id="k2", mode="update")

    update_s = statistics.median(update_pass() for _ in range(3))
    return {
        "normalize.us_per_event": (norm_s / len(head) * 1e6, "us"),
        "normalize.exchange_bytes_per_event": (n_head.nbytes / len(head), "B"),
        "merge.us_per_event": (merge_s / len(head) * 1e6, "us"),
        "merge.update_us_per_event": (update_s / len(last) * 1e6, "us"),
    }


def sweep(bench, wl) -> dict:
    """The traced run.  Every workload sweeps every layer, so each traced
    run prints the whole per-layer set: a REPLACE replay of the
    full_replay log, tail batches on the restored base plus a no-op apply,
    the in-process kernels, and the catalog panel.  The workload's own
    operation is also run once untraced first, for the tracing overhead.
    The sweep is a fixed sequence, whatever ``--seconds`` says."""
    from aiw_i2b2_etl_ray.pipelines.cdc_replay import replay
    from aiw_i2b2_etl_ray.state import manifest
    from workloads import CatalogPanel, FullReplay, TailUpdates

    full = wl if isinstance(wl, FullReplay) else FullReplay(bench)
    tail = wl if isinstance(wl, TailUpdates) else TailUpdates(bench)
    panel = CatalogPanel(bench)
    tr = Tracer()
    m: dict[str, tuple[float, str]] = {}

    bench.ray_start()
    tail.prepare()
    for w in (full, tail, panel):
        w.set_up()
    wl.warm_up()

    # the workload's own operation, untraced
    if wl is tail:
        tail.restore(tail.out)
    untraced = wl.op(1)
    untraced_s = untraced[0] if untraced else 0.0
    wl.drop(1)

    # full_replay log: one staged, traced REPLACE replay
    traced_replay = tr.spanned("op", replay)
    with tr.replay_layers():
        full.op(2, replay_fn=traced_replay)
    op = tr.ops()[-1]
    out = full.out_dir(2)
    events = full.events
    lin, rows = _lineage(out)
    hot_spans = [s for s in tr.children(op) if s["name"] == "cdc_replay.hot_prepass"]
    hot_keys = (manifest.read_job_manifest(out) or {}).get("hot_keys", [])
    m.update({
        "sources.read_s": (tr.child_s(op, "sources.read"), "s"),
        "normalize.s": (tr.child_s(op, "normalize"), "s"),
        "exchange.shuffle_merge_s": (tr.child_s(op, "exchange.shuffle_merge"), "s"),
        "cdc_replay.hot_prepass_s": (tr.child_s(op, "cdc_replay.hot_prepass"), "s"),
        "cdc_replay.hot_keys": (sum(s.get("count", 0) for s in hot_spans), "count"),
        "exchange.partition_skew": (max(rows) / statistics.median(rows) if rows else 0.0, "ratio"),
        "merge.dups_per_event": (lin["dups_dropped"] / events, "ratio"),
        "merge.conflicts_per_event": (lin["conflicts_resolved"] / events, "ratio"),
        "merge.rejected_per_event": (lin["rows_rejected"] / events, "ratio"),
        "merge.files_per_run": (_n_files(out), "count"),
        "store.bytes_per_event": (_dir_bytes(out) / events, "B"),
    })
    for t in ("path_dim", "change_fact", "rejected", "_dimpart", "_manifest"):
        m[f"merge.bytes_written_per_event.{t}"] = (_dir_bytes(os.path.join(out, t)) / events, "B")
    replay_ops = [op]
    full.drop(2)

    # tail batches on the restored base, traced; then a no-op apply
    tail.restore(tail.out)
    before_bytes, before = _dir_bytes(tail.out), _lineage(tail.out)[0]["rows_applied"]
    k_max = min(TRACE_BATCHES, len(tail.batches))
    n_ops = len(tr.ops())
    with tr.replay_layers():
        for k in range(1, k_max + 1):
            tail.op(k, replay_fn=traced_replay)
    applies = tr.ops()[n_ops:]
    delivered = sum(tail.delivered[:k_max])
    m.update({
        "merge.useful_ratio": ((_lineage(tail.out)[0]["rows_applied"] - before) / delivered, "ratio"),
        "store.tail_bytes_per_event": ((_dir_bytes(tail.out) - before_bytes) / delivered, "B"),
        "merge.hot_fold_s": (_median_child(tr, applies, "merge.hot_fold"), "s"),
        "merge.hot_run_files": (len(glob.glob(os.path.join(tail.out, "path_dim", "hot-*"))), "count"),
        "dims.fold_s": (_median_child(tr, applies, "dims.fold"), "s"),
        "manifest.read_s": (_median_child(tr, applies, "manifest.read"), "s"),
        "manifest.files": (len(os.listdir(os.path.join(tail.out, "_manifest"))), "count"),
    })
    noop = tail.op(k_max, run_id="noop")
    m["cdc_replay.noop_apply_s"] = (noop[0] if noop else 0.0, "s")
    if wl is tail:
        replay_ops = applies

    m.update(kernels(bench, full, hot_keys))

    # the catalog panel, one traced cold pass
    panel.run_pass(lambda q, run: tr.spanned(f"catalog.{q}", run))
    for q in inp.PANEL:
        m[f"catalog.{q}_s"] = (
            sum(s["end"] - s["start"] for s in tr.spans if s["name"] == f"catalog.{q}"), "s"
        )

    subject = op if wl is full else (applies[0] if applies else op)
    traced = subject["end"] - subject["start"]
    wall = sum(o["end"] - o["start"] for o in replay_ops)
    m.update({
        "trace.overhead_s": (traced - untraced_s, "s"),
        "cdc_replay.unaccounted_s": (sum(tr.unaccounted_s(o) for o in replay_ops), "s"),
        "cdc_replay.busy_share": (
            sum(o["busy_share"] * (o["end"] - o["start"]) for o in replay_ops) / wall, "share"
        ),
    })
    bench.ray_stop()
    tr.dump(
        os.path.join(bench.traces, f"{wl.name}-{bench.inputs.seed}-{os.getpid()}.json"),
        {"workload": wl.name, "seed": bench.inputs.seed, "untraced_s": untraced_s},
    )
    return {k: {"value": v, "unit": u} for k, (v, u) in sorted(m.items())}


def _median_child(tr: Tracer, ops: list[dict], name: str) -> float:
    return statistics.median(tr.child_s(o, name) for o in ops) if ops else 0.0
