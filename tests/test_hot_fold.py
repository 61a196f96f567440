"""Hot-key winners are partition outputs.

Each partition writes its salted keys' winners to its own hot run before
its manifest commits it, and one fold (``stages.merge.fold_hot_runs``)
reduces every hot run into one file at the end of a replay, a compaction
or a retraction.  A crash of the replaying process after the partitions
commit therefore loses no winner: the resumed run folds the runs the
crashed one left.  A static check holds that only ``stages/merge.py``
names a hot file.
"""

import ast
import glob
import os
import re

import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from aiw_i2b2_etl_ray.config import ReplaySpec
from aiw_i2b2_etl_ray.pipelines import cdc_replay
from aiw_i2b2_etl_ray.sources.changes import read_changes_table
from aiw_i2b2_etl_ray.stages.merge import load_path_dim
from aiw_i2b2_etl_ray.state import manifest as mf

from .util import assert_table_eq

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "aiw_i2b2_etl_ray")

#: every key of the tiny log is hot at this threshold
KW = dict(num_partitions=8, salt_buckets=4, hot_key_threshold=50)


def _hot_files(out_dir: str) -> list:
    return sorted(glob.glob(os.path.join(out_dir, "path_dim", "hot-*.parquet")))


def _crash_at_first_fold(monkeypatch) -> None:
    """Make the first ``cdc_replay.reduce_hot_rows`` call raise: every
    partition has committed by then, so this is a crash of the replaying
    process between the merge and the hot fold."""
    orig, calls = cdc_replay.reduce_hot_rows, []

    def reduce_or_crash(hot):
        calls.append(len(hot))
        if len(calls) == 1:
            raise RuntimeError("simulated crash before the hot fold")
        return orig(hot)

    monkeypatch.setattr(cdc_replay, "reduce_hot_rows", reduce_or_crash)


def _check(out_dir: str, expected) -> None:
    assert_table_eq(load_path_dim(out_dir), expected.path_dim, ["repo", "path"])
    repo_dim = pq.read_table(os.path.join(out_dir, "repo_dim", "repo_dim.parquet"))
    assert_table_eq(repo_dim, expected.repo_dim, ["repo"])


def _slices(tiny_changes: str, tmp_path, cuts: list) -> list:
    """Log slices ``(lo, hi]`` of commit_seq as one-file directories; each
    slice after the first re-sends the last 100 seqs of the one before."""
    full = read_changes_table(tiny_changes)
    bounds = [-1, *cuts, pc.max(full["commit_seq"]).as_py()]
    dirs = []
    for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        lo = lo - 100 if i else lo
        seq = full["commit_seq"]
        part = full.filter(pc.and_(pc.greater(seq, lo), pc.less_equal(seq, hi)))
        d = tmp_path / f"slice{i}"
        d.mkdir()
        pq.write_table(part, str(d / "part-00000.parquet"))
        dirs.append(str(d))
    return dirs


def test_replace_resume_after_crash_before_hot_fold(tmp_path, tiny_changes, tiny_oracle, monkeypatch):
    spec = ReplaySpec(out_dir=str(tmp_path / "out"), **KW)
    _crash_at_first_fold(monkeypatch)
    with pytest.raises(RuntimeError, match="simulated crash before the hot fold"):
        cdc_replay.replay(tiny_changes, spec, run_id="r1")
    assert len(mf.completed_partitions(spec.out_dir)) == 8
    assert _hot_files(spec.out_dir), "committed partitions left no hot run"

    cdc_replay.replay(tiny_changes, spec, run_id="r1", resume=True)
    assert len(mf.read_job_manifest(spec.out_dir)["hot_keys"]) == len(tiny_oracle.path_dim)
    assert len(_hot_files(spec.out_dir)) == 1
    _check(spec.out_dir, tiny_oracle)


def test_update_resume_after_crash_before_hot_fold(tmp_path, tiny_changes, tiny_oracle, monkeypatch):
    cut = pc.max(read_changes_table(tiny_changes)["commit_seq"]).as_py() * 6 // 10
    head, tail = _slices(tiny_changes, tmp_path, [cut])
    out = str(tmp_path / "out")
    cdc_replay.replay(head, ReplaySpec(out_dir=out, **KW), run_id="base")

    spec = ReplaySpec(out_dir=out, mode="update", **KW)
    _crash_at_first_fold(monkeypatch)
    with pytest.raises(RuntimeError, match="simulated crash before the hot fold"):
        cdc_replay.replay(tail, spec, run_id="u1")
    assert len(mf.completed_partitions(out, run_id="u1")) == 8

    cdc_replay.replay(tail, spec, run_id="u1", resume=True)
    assert len(_hot_files(out)) == 1
    _check(out, tiny_oracle)


def test_salted_applies_leave_one_hot_file(tmp_path, tiny_changes, tiny_oracle):
    top = pc.max(read_changes_table(tiny_changes)["commit_seq"]).as_py()
    dirs = _slices(tiny_changes, tmp_path, [top // 4, top // 2, top * 3 // 4])
    out = str(tmp_path / "out")
    for i, d in enumerate(dirs):
        mode = "update" if i else "replace"
        cdc_replay.replay(d, ReplaySpec(out_dir=out, mode=mode, **KW), run_id=f"a{i}")
        assert len(_hot_files(out)) == 1, _hot_files(out)
    _check(out, tiny_oracle)


# --- one owner of hot-file names: a static guard -------------------------------

#: a string that starts a file name with ``hot-`` (the words "hot-key" aside)
_HOT_NAME = re.compile(r"(?:^|[/\\])hot-(?!key)")


def _hot_name_leaks(path: str) -> list[int]:
    """Lines in ``path`` holding a non-docstring string constant (an
    f-string's literal parts included) that names a ``hot-`` file."""
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
        and _HOT_NAME.search(node.value)
    )


def test_hot_file_names_have_one_owner():
    stray = {}
    for path in sorted(glob.glob(os.path.join(PKG, "**", "*.py"), recursive=True)):
        rel = os.path.relpath(path, PKG)
        if rel != os.path.join("stages", "merge.py") and (lines := _hot_name_leaks(path)):
            stray[rel] = lines
    assert not stray, f"hot-file names outside stages/merge.py: {stray}"


def test_hot_name_guard_detects_a_leak(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        '"""Reads path_dim/hot-*.parquet (a docstring: allowed)."""\n'
        'a = os.path.join(d, "hot-*.parquet")\n'
        'b = f"hot-{run_id}.parquet"\n'
        'c = "path_dim/hot-folded.parquet"\n'
        'e = "hot-key salting supports inner joins only"\n'
        'f = "--hot-key-threshold"\n'
    )
    assert _hot_name_leaks(str(src)) == [2, 3, 4]
