"""A small path delivery skips the exchange, and both plans agree.

``cdc_replay.replay`` runs B plain range tasks for a path whose footers
count at most ``SMALL_DELIVERY_ROWS`` rows, and Ray Data's read ->
normalize -> sort -> merge plan for anything else.  Every case here runs
on both plans (the exchange forced by ``SMALL_DELIVERY_ROWS = 0``); each
out_dir is checked against ``oracle.replay``, and the two out_dirs must
hold the same bytes in every file.
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
from aiw_i2b2_etl_ray.sources.changes import read_changes_table
from aiw_i2b2_etl_ray.stages.merge import load_path_dim
from aiw_i2b2_etl_ray.state import manifest as mf

from .util import assert_table_eq

PLANS = ("small", "exchange")
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


@pytest.mark.parametrize("case", list(CASES))
def test_both_plans_match_the_oracle_and_each_other(case, tmp_path, monkeypatch):
    trees = {}
    for plan in PLANS:
        bound = cdc_replay.SMALL_DELIVERY_ROWS if plan == "small" else 0
        monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", bound)
        calls = []
        orig = cdc_replay.merge_small
        monkeypatch.setattr(cdc_replay, "merge_small", lambda *a, **k: calls.append(1) or orig(*a, **k))
        out = str(tmp_path / plan / "out")
        applies, kw = CASES[case](tmp_path / plan, out)
        assert bool(calls) == (plan == "small"), (plan, len(calls))
        _check_oracle(out, applies, **kw)
        trees[plan] = _tree(out)
    small, exchange = trees["small"], trees["exchange"]
    assert sorted(small) == sorted(exchange)
    assert [f for f in small if small[f] != exchange[f]] == []


def test_the_bound_is_inclusive(tmp_path, monkeypatch):
    """A delivery of exactly ``SMALL_DELIVERY_ROWS`` rows takes the small
    plan; one row more takes the exchange."""
    log = _write(_log(0, 400), tmp_path / "log")
    rows = sum(pq.read_metadata(f).num_rows for f in glob.glob(f"{log}/*.parquet"))
    plans = []
    orig_small, orig_exchange = cdc_replay.merge_small, cdc_replay.merged_groups
    monkeypatch.setattr(cdc_replay, "merge_small", lambda *a, **k: plans.append("small") or orig_small(*a, **k))
    monkeypatch.setattr(cdc_replay, "merged_groups", lambda *a, **k: plans.append("exchange") or orig_exchange(*a, **k))
    for bound in (rows, rows - 1):
        monkeypatch.setattr(cdc_replay, "SMALL_DELIVERY_ROWS", bound)
        cdc_replay.replay(log, ReplaySpec(out_dir=str(tmp_path / f"out{bound}"), **COLD))
    assert plans == ["small", "exchange"]
