"""A merge task commits once.

Every output of a merge task is written under a ``*.tmp-*`` name; one task
record commits them all together with the partitions' manifest records
(``state.manifest.commit_task``), and a replay rolls a committed task
forward before it reaps tmp names.  So a task a crash stopped before its
commit leaves nothing a later run sees, and one stopped after it is
finished by the next run.  The dimension partials live in the partition
records; an out_dir written before that (per-partition ``_dimpart`` files,
one file per partition for every table) still takes UPDATE applies.

``tests/data/legacy_out`` is that older layout: the out_dir a REPLACE
replay of ``_log(0, 600)`` wrote (num_partitions 8, salt_buckets 4,
hot_key_threshold 40, run id ``base``) with the engine as it was before
the merge task became the unit of commit.
"""

import ast
import glob
import json
import os
import pathlib
import re
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from aiw_i2b2_etl_ray import oracle
from aiw_i2b2_etl_ray.config import ReplaySpec, out_paths
from aiw_i2b2_etl_ray.pipelines import cdc_replay
from aiw_i2b2_etl_ray.sources.changes import read_changes_table
from aiw_i2b2_etl_ray.stages.merge import PartitionMerger, load_path_dim
from aiw_i2b2_etl_ray.stages.normalize import Normalizer
from aiw_i2b2_etl_ray.state import manifest as mf

from .util import assert_table_eq

HERE = os.path.dirname(os.path.abspath(__file__))
PKG = os.path.join(os.path.dirname(HERE), "aiw_i2b2_etl_ray")
LEGACY_OUT = os.path.join(HERE, "data", "legacy_out")
COLD = dict(num_partitions=8, salt_buckets=1, hot_key_threshold=0)


def _write_log(t: pa.Table, d) -> str:
    os.makedirs(d, exist_ok=True)
    pq.write_table(t, os.path.join(str(d), "part-00000.parquet"))
    return str(d)


def _split(tiny_changes: str, tmp_path) -> tuple:
    """The tiny log as a base (first 60% of commit_seq) and a tail."""
    full = read_changes_table(tiny_changes)
    cut = pc.max(full["commit_seq"]).as_py() * 6 // 10
    base = full.filter(pc.less_equal(full["commit_seq"], cut))
    tail = full.filter(pc.greater(full["commit_seq"], cut))
    return base, tail, _write_log(base, tmp_path / "base"), _write_log(tail, tmp_path / "tail")


def _table(out: str, pattern: str) -> pa.Table:
    return pa.concat_tables([pq.read_table(f) for f in sorted(glob.glob(os.path.join(out, pattern)))])


def _records(out: str) -> dict:
    return {r["partition_id"]: r for r in mf.read_manifest(out)}


def _crash_merge(out: str, tail: pa.Table, run_id: str) -> None:
    """The tail's UPDATE merge as one in-process task, which must raise."""
    merger = PartitionMerger(
        emit="checkpoint", out_dirs=out_paths(ReplaySpec(out_dir=out)),
        watermarks_ref=ray.put(mf.watermarks(out)), run_id=run_id, mode="update",
    )
    with pytest.raises(RuntimeError, match="simulated crash"):
        merger(Normalizer(COLD["num_partitions"], 1)(tail))


# --- a task stopped before its commit leaves nothing ---------------------------


def test_uncommitted_task_then_new_run_matches_oracle(tmp_path, tiny_changes, monkeypatch):
    """A task wrote its outputs but never committed; a run under a new id
    then applies the same tail.  Nothing of the first attempt may count."""
    base, tail, base_d, tail_d = _split(tiny_changes, tmp_path)
    out = str(tmp_path / "out")
    cdc_replay.replay(base_d, ReplaySpec(out_dir=out, **COLD), run_id="b")

    def no_commit(obj, path):
        raise RuntimeError("simulated crash at the commit point")

    with monkeypatch.context() as m:
        m.setattr(mf, "atomic_json", no_commit)
        _crash_merge(out, tail, "u1")
    cdc_replay.replay(tail_d, ReplaySpec(out_dir=out, mode="update", **COLD), run_id="u2")

    want, prior = oracle.replay(pa.concat_tables([base, tail])), oracle.replay(base)
    assert_table_eq(_table(out, "change_fact/*.parquet"), want.change_fact, ["repo", "path", "commit_seq"])
    assert_table_eq(load_path_dim(out), want.path_dim, ["repo", "path"])
    # the archive: every base winner a tail event displaced
    final = want.path_dim.set_index(["repo", "path"])["last_commit_seq"]
    displaced = prior.path_dim[
        [final.get((r, p)) != s for r, p, s in prior.path_dim[["repo", "path", "last_commit_seq"]].itertuples(index=False)]
    ]
    archive = _table(out, "archive/*.parquet")
    assert set(archive["archived_run_id"].to_pylist()) == {"u2"}
    assert_table_eq(archive.drop(["replaced_by_seq", "archived_run_id"]), displaced, ["repo", "path"])
    recs = mf.read_manifest(out)
    assert sum(r["rows_applied"] for r in recs) == len(want.change_fact)
    assert sum(r["dups_dropped"] for r in recs) == want.counters["dups_dropped"]
    assert sum(r["conflicts_resolved"] for r in recs) == want.counters["conflicts_resolved"]
    assert sum(r["rows_rejected"] for r in recs) == len(want.rejected)


# --- a task stopped after its commit is finished by the next run ---------------


def _crash_after_commit(monkeypatch, phase: str, nth: int) -> None:
    """Raise at the ``nth`` step of ``phase`` of a committed task: a
    ``rename`` of an output, a partition ``record`` write, or the ``delete``
    of the task record."""
    seen = {"rename": 0, "record": 0, "delete": 0}
    replace, remove = os.replace, os.remove

    def step(kind: str) -> None:
        seen[kind] += 1
        if kind == phase and seen[kind] == nth:
            raise RuntimeError(f"simulated crash at {kind} {nth}")

    def spy_replace(src, dst):
        name = os.path.basename(dst)
        if not name.startswith("task-"):
            step("record" if os.path.basename(os.path.dirname(dst)) == "_manifest" else "rename")
        return replace(src, dst)

    def spy_remove(path):
        if os.path.basename(path).startswith("task-"):
            step("delete")
        return remove(path)

    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(os, "remove", spy_remove)


@pytest.mark.parametrize("phase,nth", [("rename", 1), ("rename", 6), ("record", 1), ("record", 5), ("delete", 1)])
def test_same_run_resume_finishes_a_committed_task(tmp_path, tiny_changes, monkeypatch, phase, nth):
    base, tail, base_d, tail_d = _split(tiny_changes, tmp_path)
    clean, out = str(tmp_path / "clean"), str(tmp_path / "out")
    for d in (clean, out):
        cdc_replay.replay(base_d, ReplaySpec(out_dir=d, **COLD), run_id="b")
    cdc_replay.replay(tail_d, ReplaySpec(out_dir=clean, mode="update", **COLD), run_id="u1")

    with monkeypatch.context() as m:
        _crash_after_commit(m, phase, nth)
        _crash_merge(out, tail, "u1")
    assert glob.glob(os.path.join(out, "_manifest", "task-u1-*.json")), "the task did not commit"
    cdc_replay.replay(tail_d, ReplaySpec(out_dir=out, mode="update", **COLD), run_id="u1", resume=True)

    assert not glob.glob(os.path.join(out, "_manifest", "task-*"))
    assert not glob.glob(os.path.join(out, "**", "*.tmp-*"), recursive=True)
    assert _records(out) == _records(clean)
    assert_table_eq(load_path_dim(out), load_path_dim(clean), ["repo", "path"])
    for pattern in ("change_fact/*", "rejected/*", "archive/*", "repo_dim/*", "lang_dim/*"):
        a, b = _table(out, pattern), _table(clean, pattern)
        assert_table_eq(a, b, a.column_names)


# --- the records and files are deterministic -----------------------------------


def test_two_replays_write_identical_files(tmp_path, tiny_changes):
    """Two replays of one log, a REPLACE build and an UPDATE apply with hot
    keys, write byte-identical records and output files."""
    base, tail, base_d, tail_d = _split(tiny_changes, tmp_path)
    kw = dict(num_partitions=8, salt_buckets=4, hot_key_threshold=50)
    trees = []
    for side in ("a", "b"):
        out = str(tmp_path / side)
        cdc_replay.replay(base_d, ReplaySpec(out_dir=out, **kw), run_id="b")
        cdc_replay.replay(tail_d, ReplaySpec(out_dir=out, mode="update", **kw), run_id="u")
        files = [f for f in glob.glob(os.path.join(out, "**", "*"), recursive=True) if os.path.isfile(f)]
        trees.append({os.path.relpath(f, out): pathlib.Path(f).read_bytes() for f in files})
    assert sorted(trees[0]) == sorted(trees[1])
    assert [f for f in trees[0] if f.startswith("_manifest/part-")], "no partition record"
    assert all(json.loads(trees[0][f])["partials"] for f in trees[0] if f.startswith("_manifest/part-"))
    assert [f for f, data in trees[0].items() if data != trees[1][f]] == []


# --- an out_dir of the older layout takes UPDATE applies -----------------------


def _log(lo: int, hi: int, hot_from: int | None = None, extra: tuple = ()) -> pa.Table:
    """Events ``lo..hi-1`` (and the seqs in ``extra``) over 3 repos x 40
    paths plus ``r0/hot.c``: every 50th event touches ``hot.c``, and from
    ``hot_from`` on every other one does; every 37th has a blank path,
    every 31st a null ``commit_seq`` and every 13th is a tombstone."""
    rows = []
    for s in [*extra, *range(lo, hi)]:
        hot = s % 50 == 0 or (hot_from is not None and s >= hot_from and s % 2 == 0)
        path = "hot.c" if hot else ("" if s % 37 == 0 else f"f{s % 40}.py")
        rows.append(
            dict(
                repo="r0" if hot else f"r{s % 3}", path=path, commit=f"c{s}",
                lang=("py", "go", "rs")[s % 3], content=f"body-{s % 11}",
                commit_seq=None if s % 31 == 0 else s, op="D" if s % 13 == 0 else "U",
            )
        )
    schema = pa.schema(
        [("repo", pa.string()), ("path", pa.string()), ("commit", pa.string()),
         ("lang", pa.string()), ("content", pa.large_string()),
         ("commit_seq", pa.int64()), ("op", pa.string())]
    )
    return pa.Table.from_pylist(rows, schema=schema)


def _expected_rejected(deliveries: list) -> set:
    """Each distinct rejected event once: blank paths, then null seqs."""
    rej = set()
    for t in deliveries:
        for r in t.to_pylist():
            if not r["path"]:
                rej.add((r["repo"], r["path"], r["commit"], "null_key"))
            elif r["commit_seq"] is None:
                rej.add((r["repo"], r["path"], r["commit"], "null_seq"))
    return rej


def test_legacy_out_dir_takes_update_applies(tmp_path):
    """The older layout's partials, per-partition rejected files and
    per-partition tables keep working through a newly-hot transition and a
    redelivery that re-sends null-seq rows of the base."""
    out = str(tmp_path / "out")
    shutil.copytree(LEGACY_OUT, out)
    assert glob.glob(os.path.join(mf.legacy_partials_dir(out), "part-*.parquet"))
    assert not any("partials" in r for r in mf.read_manifest(out))

    base = _log(0, 600)
    t1 = _log(600, 900, hot_from=600)
    t2 = _log(850, 1000, hot_from=600, extra=(31, 62, 93, 124))
    spec = ReplaySpec(out_dir=out, mode="update", num_partitions=8, salt_buckets=4, hot_key_threshold=40)
    for i, t in enumerate((t1, t2), 1):
        cdc_replay.replay(_write_log(t, tmp_path / f"t{i}"), spec, run_id=f"t{i}")
    hot = mf.read_job_manifest(out)["hot_keys"]
    assert len(hot) == 1 and "hot.c" in hot[0], hot

    events = pa.concat_tables([base, t1, t2])
    want = oracle.replay(events.filter(pc.is_valid(events["commit_seq"])))
    assert_table_eq(load_path_dim(out), want.path_dim, ["repo", "path"])
    assert_table_eq(_table(out, "change_fact/*.parquet"), want.change_fact, ["repo", "path", "commit_seq"])
    repo_dim = pq.read_table(os.path.join(out, "repo_dim", "repo_dim.parquet"))
    assert_table_eq(repo_dim, want.repo_dim, ["repo"])
    lang_dim = pq.read_table(os.path.join(out, "lang_dim", "lang_dim.parquet"))
    assert_table_eq(lang_dim, want.lang_dim, ["lang"])
    rejected = _table(out, "rejected/*.parquet").select(["repo", "path", "commit", "reason"]).to_pylist()
    got = [tuple(r.values()) for r in rejected]
    assert len(got) == len(set(got)), "a redelivered rejected row was appended again"
    assert set(got) == _expected_rejected([base, t1, t2])
    # a record that took new partials retired its legacy file
    for r in mf.read_manifest(out):
        legacy = os.path.join(mf.legacy_partials_dir(out), f"part-{r['partition_id']:05d}.parquet")
        assert ("partials" in r) != os.path.exists(legacy), r["partition_id"]


def _rows(seqs, path=None, null_seq=False) -> pa.Table:
    """Events at ``seqs`` over 3 repos x 40 paths, or all on ``r0/<path>``;
    with ``null_seq`` each keeps its commit but has no ``commit_seq``."""
    schema = _log(0, 0).schema
    return pa.Table.from_pylist(
        [
            dict(
                repo="r0" if path else f"r{s % 3}", path=path or f"f{s % 40}.py",
                commit=f"c{s}", lang="py", content=f"body-{s % 11}",
                commit_seq=None if null_seq else s, op="U",
            )
            for s in seqs
        ],
        schema=schema,
    )


def test_null_seq_reject_redelivered_after_its_key_turned_hot_is_kept_once(tmp_path):
    """Six null-seq rejects of a cold key, redelivered in the batch that
    makes the key hot (P=8, S=4, threshold 20): each is kept once.  They
    now route to salt buckets, so the dedup must also read the key's cold
    home partition, where the first copies were written."""
    rejects = _rows(range(1000, 1006), path="hot.c", null_seq=True)
    base = pa.concat_tables([_rows(range(200)), _rows(range(200, 203), path="hot.c"), rejects])
    tail = pa.concat_tables([_rows(range(300, 330), path="hot.c"), rejects])
    out = str(tmp_path / "out")
    kw = dict(out_dir=out, num_partitions=8, salt_buckets=4, hot_key_threshold=20)
    cdc_replay.replay(_write_log(base, tmp_path / "base"), ReplaySpec(**kw), run_id="b")
    assert not mf.read_job_manifest(out)["hot_keys"]
    cdc_replay.replay(_write_log(tail, tmp_path / "tail"), ReplaySpec(mode="update", **kw), run_id="t")
    assert len(mf.read_job_manifest(out)["hot_keys"]) == 1

    got = _table(out, "rejected/*.parquet").select(["repo", "path", "commit", "reason"]).to_pylist()
    assert sorted(tuple(r.values()) for r in got) == sorted(
        ("r0", "hot.c", f"c{s}", "null_seq") for s in range(1000, 1006)
    )


# --- one spelling of the legacy partials directory: a static guard -------------

_DIMPART = re.compile(r"_dimpart")


def _dimpart_leaks(path: str) -> list[int]:
    """Lines in ``path`` holding a non-docstring string constant (an
    f-string's literal parts included) that names ``_dimpart``."""
    tree = ast.parse(open(path).read(), path)
    docs = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and id(node) not in docs
        and _DIMPART.search(node.value)
    )


def test_only_the_legacy_fallback_names_dimpart():
    stray = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, PKG)
        lines = _dimpart_leaks(path)
        if rel == os.path.join("state", "manifest.py"):
            assert len(lines) == 1, f"the legacy fallback names _dimpart more than once: {lines}"
        elif lines:
            stray[rel] = lines
    assert not stray, f"_dimpart named outside the legacy fallback: {stray}"


def test_dimpart_guard_detects_a_leak(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""Reads _dimpart/part-*.parquet (a docstring: allowed)."""\n'
        'a = os.path.join(out_dir, "_dimpart")\n'
        'b = f"{out_dir}/_dimpart/part-{pid:05d}.parquet"\n'
        'c = "dimpart"\n'
    )
    assert _dimpart_leaks(str(src)) == [2, 3]
