"""A replay skips Ray Data's exchange, and both plans agree on every input.

``cdc_replay.replay`` runs B fused range tasks for a delivery of at most
``SMALL_DELIVERY_ROWS`` rows (``merge_small``) and the task exchange for
a larger one (``merge_exchange``: M map tasks, then B merge tasks),
whether the delivery is a path's Parquet files or a materialized
Dataset's blocks.  Every case here runs three times: a path on the fused
plan, a path on the task exchange (forced by ``SMALL_DELIVERY_ROWS =
0``), and a Dataset on the task exchange (``replay`` handed a
``read_changes`` of the path); each out_dir is checked against
``oracle.replay``, and the three out_dirs must hold the same bytes in
every file.
"""

import glob
import os
import pathlib

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from aiw_i2b2_etl_ray import oracle
from aiw_i2b2_etl_ray.config import ModifierSpec, ReplaySpec
from aiw_i2b2_etl_ray.pipelines import cdc_replay
from aiw_i2b2_etl_ray.sources.changes import Delivery, read_changes, read_changes_table
from aiw_i2b2_etl_ray.stages.merge import load_path_dim
from aiw_i2b2_etl_ray.state import manifest as mf

from .util import assert_table_eq

#: each plan's entry point in ``cdc_replay``
PLANS = {"fused": "merge_small", "exchange": "merge_exchange"}
#: the three runs of a case: (input, the plan it runs)
LEGS = {"fused": ("path", "fused"), "exchange": ("path", "exchange"), "dataset": ("dataset", "exchange")}
COLD = dict(num_partitions=8, salt_buckets=1, hot_key_threshold=0)
SALTED = dict(num_partitions=8, salt_buckets=4, hot_key_threshold=40)
_SCHEMA = pa.schema(
    [("repo", pa.string()), ("path", pa.string()), ("commit", pa.string()),
     ("lang", pa.string()), ("content", pa.large_string()),
     ("commit_seq", pa.int64()), ("op", pa.string())]
)


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
    return pa.Table.from_pylist(rows, schema=_SCHEMA)


def _write(t: pa.Table, d, files: int = 2) -> str:
    """``t`` as ``files`` Parquet files in ``d``."""
    os.makedirs(d, exist_ok=True)
    step = -(-len(t) // files)
    for i in range(files):
        pq.write_table(t.slice(i * step, step), os.path.join(str(d), f"part-{i:05d}.parquet"))
    return str(d)


def _table(out: str, table: str) -> pa.Table:
    files = sorted(glob.glob(os.path.join(out, table, "*.parquet")))
    return pa.concat_tables([pq.read_table(f) for f in files]) if files else None


def _concat(tables: list) -> pa.Table:
    return pa.concat_tables(tables, promote_options="default")  # with and without ``size``


def _redelivered(applies: list) -> int:
    """Rows of a delivery whose change-id an earlier one held: the oracle
    counts them as duplicates, the engine drops them by watermark."""
    n, seen = 0, set()
    for t in applies:
        ids = [(r["repo"], r["path"], r["commit"]) for r in t.select(["repo", "path", "commit"]).to_pylist() if all((r["repo"], r["path"], r["commit"]))]
        n += sum(i in seen for i in ids)
        seen.update(ids)
    return n


def _tree(out: str) -> dict:
    files = [f for f in glob.glob(os.path.join(out, "**", "*"), recursive=True) if os.path.isfile(f)]
    return {os.path.relpath(f, out): pathlib.Path(f).read_bytes() for f in files}


def _content_keys(t: pa.Table) -> list:
    return sorted((tuple(r.values()) for r in t.select(["repo", "path", "commit", "reason"]).to_pylist()), key=repr)


def _expected_rejects(applies: list) -> list:
    """Every rejected event of each delivery (blank keys, then null seqs),
    but none an earlier delivery already held: a redelivered reject is
    dropped by its watermark, or by the null-seq dedup."""
    rej, seen = [], set()
    for t in applies:
        mine = []
        for r in t.to_pylist():
            if not r["repo"] or not r["path"] or not r["commit"]:
                mine.append((r["repo"], r["path"], r["commit"], "null_key"))
            elif r["commit_seq"] is None:
                mine.append((r["repo"], r["path"], r["commit"], "null_seq"))
        rej += [k for k in mine if k not in seen]
        seen.update(mine)
    return sorted(rej, key=repr)


def _archive_oracle(applies: list, hot: set) -> pa.Table | None:
    """The path_dim rows each UPDATE apply displaced, by the oracle: the
    winners after the deliveries before it that its winners replace."""
    rows = []
    for k in range(1, len(applies)):
        before = oracle.replay(_concat(applies[:k])).path_dim
        after = oracle.replay(_concat(applies[: k + 1])).path_dim
        final = after.set_index(["repo", "path"])["last_commit_seq"]
        rows.append(before[[final.get((r, p)) != s for r, p, s in
                            before[["repo", "path", "last_commit_seq"]].itertuples(index=False)]])
    if not rows:
        return None
    import pandas as pd

    out = pd.concat(rows)
    return out[[(r, p) not in hot for r, p in out[["repo", "path"]].itertuples(index=False)]]


def _check_oracle(out: str, applies: list, *, modifiers: bool = False) -> None:
    """``out`` against ``oracle.replay`` of ``applies`` (each delivery's
    events as the engine saw them): path_dim, change_fact, rejected,
    archive, the dims and the lineage."""
    seqd = [t.filter(pc.is_valid(t["commit_seq"])) for t in applies]
    want = oracle.replay(_concat(seqd))
    assert_table_eq(load_path_dim(out), want.path_dim, ["repo", "path"])
    facts = _table(out, "change_fact")
    if modifiers:
        facts = facts.filter(pc.equal(facts["modifier_cd"], "@"))
    assert_table_eq(facts, want.change_fact, ["repo", "path", "commit_seq"])
    rejected = _table(out, "rejected")
    assert _content_keys(rejected) == _expected_rejects(applies)
    for dim, key in (("repo_dim", "repo"), ("lang_dim", "lang")):
        assert_table_eq(pq.read_table(os.path.join(out, dim, f"{dim}.parquet")), getattr(want, dim), [key])

    hot = {tuple(k.split("\x1f")) for k in mf.read_job_manifest(out)["hot_keys"]}
    want_archive, archive = _archive_oracle(seqd, hot), _table(out, "archive")
    if want_archive is None or not len(want_archive):
        assert archive is None or not len(archive)
    else:
        keep = pa.array([(r, p) not in hot for r, p in zip(archive["repo"].to_pylist(), archive["path"].to_pylist())])
        archive = archive.filter(keep).drop(["replaced_by_seq", "archived_run_id"])
        assert_table_eq(archive, want_archive, ["repo", "path", "last_commit_seq"])

    recs = mf.read_manifest(out)
    lineage = {k: sum(r[k] for r in recs) for k in ("rows_applied", "dups_dropped", "conflicts_resolved", "rows_rejected")}
    assert lineage["rows_applied"] == len(want.change_fact)
    assert lineage["dups_dropped"] == want.counters["dups_dropped"] - _redelivered(seqd)
    assert lineage["rows_rejected"] == len(rejected)
    if not hot:  # a salted key counts its conflicts per salt bucket
        assert lineage["conflicts_resolved"] == want.counters["conflicts_resolved"]


# --- the cases: each replays into ``out`` and returns what to check -------------


def _salted_replace(tmp, out):
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    log = generate_changes(str(tmp / "log"), 4000, n_repos=3, paths_per_repo=40, seed=5, rows_per_file=1000)
    cdc_replay.replay(log, ReplaySpec(out_dir=out, num_partitions=8, salt_buckets=4, hot_key_threshold=50), run_id="r")
    assert mf.read_job_manifest(out)["hot_keys"], "the log must exercise salting"
    return [read_changes_table(log)], {}


def _update_redelivery(tmp, out):
    base, tail = _log(0, 600), _log(500, 900, extra=(31, 62, 93, 124))
    cdc_replay.replay(_write(base, tmp / "base"), ReplaySpec(out_dir=out, **COLD), run_id="b")
    cdc_replay.replay(_write(tail, tmp / "tail"), ReplaySpec(out_dir=out, mode="update", **COLD), run_id="u")
    return [base, tail], {}


def _newly_hot(tmp, out):
    base, tail = _log(0, 600), _log(600, 900, hot_from=600, extra=(31, 62))
    cdc_replay.replay(_write(base, tmp / "base"), ReplaySpec(out_dir=out, **SALTED), run_id="b")
    assert not mf.read_job_manifest(out)["hot_keys"]
    cdc_replay.replay(_write(tail, tmp / "tail"), ReplaySpec(out_dir=out, mode="update", **SALTED), run_id="u")
    assert len(mf.read_job_manifest(out)["hot_keys"]) == 1
    return [base, tail], {}


def _resume_after_skip(tmp, out):
    base, tail = _log(0, 600), _log(550, 900)
    cdc_replay.replay(_write(base, tmp / "base"), ReplaySpec(out_dir=out, **COLD), run_id="b")
    spec, tail_d = ReplaySpec(out_dir=out, mode="update", **COLD), _write(tail, tmp / "tail")
    cdc_replay.replay(tail_d, spec, run_id="u", _debug_skip_partitions={1, 2, 6})
    cdc_replay.replay(tail_d, spec, run_id="u", resume=True)
    return [base, tail], {}


def _seq_bound(tmp, out):
    log = _log(0, 1000)
    spec = ReplaySpec(out_dir=out, min_seq=100, max_seq=700, **COLD)
    cdc_replay.replay(_write(log, tmp / "log"), spec, run_id="r")
    seq = log["commit_seq"]
    return [log.filter(pc.and_(pc.greater_equal(seq, 100), pc.less(seq, 700)))], {}


def _even_seq(t: pa.Table):
    seq = t["commit_seq"]
    even = pc.equal(pc.bit_wise_and(seq, 1), 0)
    return pc.if_else(even, pc.cast(seq, pa.string()), pa.scalar(None, pa.string()))


def _modifier(tmp, out):
    log = _log(0, 800)
    specs = (ModifierSpec(name="EVEN", extract=_even_seq),)
    cdc_replay.replay(_write(log, tmp / "log"), ReplaySpec(out_dir=out, **COLD), run_id="r", modifier_specs=specs)
    facts = _table(out, "change_fact")
    mods = facts.filter(pc.equal(facts["modifier_cd"], "EVEN"))
    assert len(mods) and all(int(v) % 2 == 0 for v in mods["tval_modifier"].to_pylist())
    assert pq.read_table(os.path.join(out, "modifier_dim", "modifier_dim.parquet"))["n_facts"].to_pylist() == [len(mods)]
    return [log], {"modifiers": True}


def _evolved_sizes(tmp, out):
    from aiw_i2b2_etl_ray.sources.synth import generate_changes

    log = generate_changes(str(tmp / "gen"), 4000, n_repos=3, paths_per_repo=40, seed=9, rows_per_file=700, evo_frac=0.5)
    files = sorted(glob.glob(os.path.join(log, "*.parquet")))
    assert "size" not in pq.read_schema(files[0]).names and "size" in pq.read_schema(files[-1]).names
    base_d, tail_d = tmp / "base", tmp / "tail"
    for d, part in ((base_d, files[:2]), (tail_d, files[1:])):  # the tail re-sends a file
        os.makedirs(d)
        for f in part:
            os.symlink(f, d / os.path.basename(f))
    cdc_replay.replay(str(base_d), ReplaySpec(out_dir=out, **COLD), run_id="b")
    cdc_replay.replay(str(tail_d), ReplaySpec(out_dir=out, mode="update", **COLD), run_id="u")
    return [read_changes_table(str(base_d)), read_changes_table(str(tail_d))], {}


CASES = {
    "salted_replace": _salted_replace,
    "update_redelivery": _update_redelivery,
    "newly_hot": _newly_hot,
    "resume_after_skip": _resume_after_skip,
    "seq_bound": _seq_bound,
    "modifier": _modifier,
    "evolved_sizes": _evolved_sizes,
}


def _record_plans(monkeypatch) -> list[str]:
    """The plans that run from here on, in order, by ``PLANS`` name."""
    ran = []
    for plan, fn in PLANS.items():
        orig = getattr(cdc_replay, fn)
        monkeypatch.setattr(cdc_replay, fn, lambda *a, _p=plan, _f=orig, **k: ran.append(_p) or _f(*a, **k))
    return ran


def _as_dataset(monkeypatch) -> None:
    """From here on, ``replay`` of a path replays ``read_changes`` of it."""
    replay = cdc_replay.replay
    monkeypatch.setattr(cdc_replay, "replay", lambda log, *a, **k: replay(read_changes(log), *a, **k))


@pytest.mark.parametrize("case", list(CASES))
def test_both_plans_match_the_oracle_and_each_other(case, tmp_path, monkeypatch):
    """A path on both plans, fused and the task exchange, and a Dataset
    input on the task exchange: each matches the oracle, byte for byte
    alike."""
    trees = {}
    ran = _record_plans(monkeypatch)
    bound = cdc_replay.SMALL_DELIVERY_ROWS
    for leg, (kind, plan) in LEGS.items():
        monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", 0 if plan == "exchange" else bound)
        if kind == "dataset":
            _as_dataset(monkeypatch)
        ran.clear()
        out = str(tmp_path / leg / "out")
        applies, kw = CASES[case](tmp_path / leg, out)
        assert set(ran) == {plan}, (leg, ran)
        _check_oracle(out, applies, **kw)
        trees[leg] = _tree(out)
    fused = trees["fused"]
    for leg in ("exchange", "dataset"):
        assert sorted(trees[leg]) == sorted(fused), leg
        assert [f for f in fused if fused[f] != trees[leg][f]] == [], leg


def test_the_bound_is_inclusive(tmp_path, monkeypatch):
    """A delivery of exactly ``SMALL_DELIVERY_ROWS`` rows takes the fused
    plan; one row more takes the task exchange.  A Dataset input follows
    the same bound, by its materialized row count."""
    log = _write(_log(0, 400), tmp_path / "log")
    rows = sum(pq.read_metadata(f).num_rows for f in glob.glob(f"{log}/*.parquet"))
    ran = _record_plans(monkeypatch)
    for kind in ("path", "dataset"):
        for bound in (rows, rows - 1):
            monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", bound)
            src = log if kind == "path" else read_changes(log)
            cdc_replay.replay(src, ReplaySpec(out_dir=str(tmp_path / f"{kind}{bound}"), **COLD))
    assert ran == ["fused", "exchange", "fused", "exchange"]


def test_a_path_above_the_bound_builds_no_ray_data_plan(tmp_path, monkeypatch):
    """The task exchange reads, normalizes and exchanges with plain Ray
    tasks: a path replay over the bound, salted so that the hot pre-pass
    runs, builds no Ray Data read and no keyed fold.  A Dataset replay
    reads the caller's Dataset, then runs the same tasks: it builds no
    normalize and no keyed fold."""
    import ray.data

    def no_ray_data(*a, **k):
        raise AssertionError("a replay built a Ray Data plan")

    monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", 0)
    base, tail = _log(0, 600, hot_from=300), _log(500, 900, hot_from=300)
    logs = [_write(base, tmp_path / "base", files=3), _write(tail, tmp_path / "tail", files=3)]
    for kind in ("path", "dataset"):
        with monkeypatch.context() as m:
            if kind == "path":
                m.setattr(ray.data, "read_parquet", no_ray_data)
            else:
                logs = [read_changes(log) for log in logs]
            for name in ("keyed_fold", "normalized", "merged_groups"):
                m.setattr(cdc_replay, name, no_ray_data)
            out = str(tmp_path / kind)
            cdc_replay.replay(logs[0], ReplaySpec(out_dir=out, **SALTED))
            cdc_replay.replay(logs[1], ReplaySpec(out_dir=out, mode="update", **SALTED))
        assert mf.read_job_manifest(out)["hot_keys"], "the pre-pass must find the hot key"
        _check_oracle(out, [base, tail])


def test_a_salted_dataset_replay_executes_its_input_once(tmp_path):
    """A Dataset input is materialized once: the hot-key pre-pass and the
    map tasks read the same blocks.  Each call of the input's last
    operator leaves one marker file."""
    import ray.data

    log = _write(_log(0, 900, hot_from=300), tmp_path / "log", files=3)
    marks = tmp_path / "marks"
    marks.mkdir()

    def mark(t: pa.Table, d: str) -> pa.Table:
        import uuid

        open(os.path.join(d, uuid.uuid4().hex), "w").close()
        return t

    ds = ray.data.read_parquet(log, override_num_blocks=3)
    blocks = ds.materialize().num_blocks()
    ds = ds.map_batches(mark, batch_size=None, batch_format="pyarrow", fn_kwargs={"d": str(marks)})
    out = str(tmp_path / "out")
    cdc_replay.replay(ds, ReplaySpec(out_dir=out, **SALTED))
    assert mf.read_job_manifest(out)["hot_keys"], "the pre-pass must run and find the hot key"
    assert len(os.listdir(marks)) == blocks


def test_an_empty_dataset_replays_to_no_rows(tmp_path):
    """A Dataset with no rows materializes to no block: the replay runs
    no task, and still writes its manifests."""
    log = _write(_log(0, 300), tmp_path / "log")
    empty = read_changes(log).filter(expr="commit_seq < 0")
    out = str(tmp_path / "out")
    summary = cdc_replay.replay(empty, ReplaySpec(out_dir=out, **SALTED))
    assert summary["lineage"] == dict.fromkeys(("rows_applied", "dups_dropped", "conflicts_resolved", "rows_rejected"), 0)
    assert mf.read_job_manifest(out) is not None


@pytest.mark.parametrize("files, rows_per_file, cpus", [(23, 120_000, 4), (23, 1_000, 4), (3, 400_000, 8)])
def test_file_groups_are_contiguous_and_cover_every_file(files, rows_per_file, cpus, monkeypatch):
    """M = min(files, max(CPUs, ceil(rows / MERGE_ROWS_PER_TASK))) groups
    of consecutive files, every file in exactly one."""
    monkeypatch.setattr(cdc_replay, "cluster_cpus", lambda: cpus)
    names = tuple(f"part-{i:05d}.parquet" for i in range(files))
    footers = Delivery(names, (rows_per_file,) * files, _SCHEMA)
    groups = cdc_replay.part_groups(footers)
    by_rows = -(-files * rows_per_file // cdc_replay.MERGE_ROWS_PER_TASK)
    assert len(groups) == min(files, max(cpus, by_rows))
    assert all(groups) and tuple(f for g in groups for f in g) == names
    assert max(map(len, groups)) - min(map(len, groups)) <= 1
