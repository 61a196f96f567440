"""The shuffle-merge stage — the engine's analog of the reference's
temp-table -> ``EK_*`` merge stored procedures
(dest/I2b2QueryResultsHandler.java:508-686; proc contract :97-161; H2 mocks
src/main/resources/sql/mock_stored_procedures_h2.sql:22-92).

Physical plan: ``keyed_fold(ds, "pkey", ...)`` (stages/exchange.py) — a
sort at explicit boundaries on the int32 partition key (the ONLY wide
shuffle in the pipeline, ~100 B/row because content was digested in
normalize) into one block per contiguous pkey range, as many ranges as
the cluster has CPUs, or more for a large delivery
(``cdc_replay.merge_tasks``; at most one per partition); then one
vectorized ``PartitionMerger`` call per block in a stateless task.  A
block holds many partitions: the merge runs its chain once over all of
them, keyed by ``(pkey, repo, path)``, and splits the outputs per
partition only when it writes them.

Per-partition merge semantics (all vectorized via polars; no Python row
loops):

1. drop rows at-or-below the partition's persisted watermark (exactly-once
   across runs / retries);
2. divert rows with ``reject_reason`` to the rejected side table
   (RejectedFactHandler.java:32-40 analog);
3. stable-sort by ``commit_seq``; drop duplicate change-ids
   ``(repo, path, commit)`` keep-first (exactly-once within a delivery;
   reference analog: appendFlag=0 merge-on-update,
   dest/I2b2QueryResultsHandler.java:674-679);
4. surviving events are the ``change_fact`` rows; the last event per
   ``(repo, path)`` is the converged ``path_dim`` row (last-writer-wins
   upsert; ``op='D'`` -> non-null ``delete_date``, the reference's logical
   delete);
5. in ``update`` mode, prior partition state (the existing part file) joins
   the reduction as synthetic events so re-runs converge identically;
6. the task, not the partition, writes and commits.  Each output table is
   converted from polars to Arrow once per merge call.  ``path_dim`` stays
   one part file per partition (the state an UPDATE reads back), sliced
   from that one table; ``change_fact``, ``rejected``, ``archive`` and the
   hot-key winners are one file per task, named by run id and pkey range;
   each partition's dimension partials go into its manifest record.
   Every file is written under a ``*.tmp-*`` name, and one task record
   (``state.manifest.commit_task``) commits them all together with the
   partitions' records — the checkpoint the resume path reads.

Hot-key handling (LSM-style): salted sub-partitions each produce their own
winner for a hot key.  Those rows are one more task output: each task
writes them to its own hot run (``path_dim/hot-<run>-<lo>-<hi>.parquet``)
and commits it with its partitions, so a committed partition's winners are
durable.  At the end of a run :func:`fold_hot_runs` reduces every hot run
per key into one file and deletes the runs it folded — exactly an LSM
merge.  Until then ``load_path_dim``'s last-writer-wins merge-on-read sees
the runs as they are.
"""

from __future__ import annotations

import glob
import os
import re
import uuid

import polars as pl
import pyarrow as pa
import pyarrow.parquet as pq

from ..schemas import ARCHIVE, CHANGE_FACT, PATH_DIM, REJECTED, ensure_columns
from ..state import manifest as mf
from . import dims, routing

_MERGED_COLS = [
    "repo",
    "path",
    "commit",
    "lang",
    "commit_seq",
    "op",
    "content_sha256",
    "content_len",
    "size",
]
#: the merge's outputs and their schemas (``hot``: the hot-key winners, a
#: run of ``path_dim``); all but ``path_dim`` are one file per task
_SCHEMAS = {
    "path_dim": PATH_DIM,
    "hot": PATH_DIM,
    "change_fact": CHANGE_FACT,
    "rejected": REJECTED,
    "archive": ARCHIVE,
}
#: the chain's key: a salted hot key has one winner per partition it lands in
_KEY = ["pkey", "repo", "path"]
#: a per-run file of an append-only table: a task's pkey range, or (written
#: before the task became the unit) one partition's
_RUN_FILE = re.compile(r"(?:range-(\d{5})-|part-)(\d{5})-(.+)\.parquet")


def _atomic_write(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


class _TaskFiles:
    """A merge task's output files, each written under a ``*.tmp-*`` name
    until the task commits.  ``renames`` maps every final name to its tmp
    name, both relative to the out_dir.  ``write`` writes a whole file, or
    with ``stream`` appends a row group to a file kept open until
    :meth:`close`."""

    def __init__(self, out_dir: str):
        self.out_dir, self.renames, self._writers = out_dir, {}, {}

    def has(self, path: str) -> bool:
        return os.path.relpath(path, self.out_dir) in self.renames

    def write(self, path: str, table: pa.Table, stream: bool = False) -> None:
        if not stream:
            pq.write_table(table, self._tmp(path))
            return
        if path not in self._writers:
            self._writers[path] = pq.ParquetWriter(self._tmp(path), table.schema)
        self._writers[path].write_table(table)

    def close(self, paths=None) -> None:
        for p in list(self._writers if paths is None else paths):
            if p in self._writers:
                self._writers.pop(p).close()

    def _tmp(self, path: str) -> str:
        final = os.path.relpath(path, self.out_dir)
        if final not in self.renames:
            self.renames[final] = f"{final}.tmp-{uuid.uuid4().hex[:8]}"
        return os.path.join(self.out_dir, self.renames[final])


def hot_file(path_dim_dir: str, name: str) -> str:
    """A hot-key state file of ``path_dim``; every name matches the
    ``hot-*.parquet`` glob that the fold and merge-on-read read."""
    return os.path.join(path_dim_dir, f"hot-{name}.parquet")


def _arrow(df: pl.DataFrame, schema: pa.Schema) -> pa.Table:
    """A polars frame projected onto an output schema (``pkey`` dropped)."""
    return ensure_columns(df.to_arrow(), schema)


def _path_dim_from_last(last: pl.DataFrame) -> pl.DataFrame:
    """Converged per-key rows -> PATH_DIM columns (and ``pkey``, if any)."""
    return last.select(
        *(["pkey"] if "pkey" in last.columns else []),
        pl.col("repo"),
        pl.col("path"),
        pl.col("lang"),
        pl.col("content_sha256"),
        pl.col("commit").alias("last_commit"),
        pl.col("commit_seq").alias("last_commit_seq"),
        pl.when(pl.col("op") == "D")
        .then(pl.col("commit_seq"))
        .otherwise(None)
        .cast(pl.Datetime("us"))
        .alias("delete_date"),
        pl.col("size").cast(pl.Int64),
    )


def _state_to_events(state: pl.DataFrame, modifier_names: tuple = ()) -> pl.DataFrame:
    """Prior path_dim rows -> synthetic events for re-reduction (update mode)."""
    cols = [
        pl.col("pkey"),
        pl.col("repo"),
        pl.col("path"),
        pl.col("last_commit").alias("commit"),
        pl.col("lang"),
        pl.col("last_commit_seq").alias("commit_seq"),
        pl.when(pl.col("delete_date").is_not_null())
        .then(pl.lit("D"))
        .otherwise(pl.lit("U"))
        .alias("op"),
        pl.col("content_sha256"),
        pl.lit(None, dtype=pl.Int64).alias("content_len"),
        pl.col("size").cast(pl.Int64),
    ]
    # modifier values are fact-level, not state: synthetic events carry none
    cols += [pl.lit(None, dtype=pl.String).alias(f"mod__{n}") for n in modifier_names]
    return state.select(cols)


def _repo_live(path_dim: pl.DataFrame, *by: str) -> pl.DataFrame:
    """``repo_live`` dimension partial rows: live (undeleted) paths per repo."""
    return (
        path_dim.filter(pl.col("delete_date").is_null())
        .group_by(*by, "repo")
        .agg(pl.len().cast(pl.Int64).alias("live"))
        .select(
            *by,
            pl.lit("repo_live").alias("kind"),
            pl.col("repo").alias("key"),
            pl.lit(None, dtype=pl.Int64).alias("mn"),
            pl.lit(None, dtype=pl.Int64).alias("mx"),
            "live",
        )
    )


def fan_out_facts(df: pl.DataFrame, modifier_names: tuple = ()) -> pl.DataFrame:
    """Per-fact modifier fan-out (PropositionFactHandler.java:163-186): the
    base row gets modifier_cd='@'; each non-null ``mod__<name>`` value emits
    one extra row with modifier_cd=name and the 255-truncated value (the
    M6-style truncation, AbstractFactHandler.java:83-86).  Vectorized: one
    filter+concat per configured modifier, no row loops."""
    mod_cols = [f"mod__{n}" for n in modifier_names]
    base = df.drop(mod_cols).with_columns(
        pl.lit("@").alias("modifier_cd"),
        pl.lit(None, dtype=pl.String).alias("tval_modifier"),
    )
    parts = [base]
    for n in modifier_names:
        hit = df.filter(pl.col(f"mod__{n}").is_not_null())
        parts.append(
            hit.with_columns(
                pl.lit(n).alias("modifier_cd"),
                pl.col(f"mod__{n}").str.slice(0, 255).alias("tval_modifier"),
            ).drop(mod_cols)
        )
    return pl.concat(parts) if len(parts) > 1 else parts[0]


class PartitionMerger:
    """The merge of one block of the keyed exchange, built inside a
    stateless task (``cdc_replay``'s merge tasks); ``__init__`` fetches the
    broadcast watermark map, its only state, from the local object store.
    A block may hold any number of partitions (``pkey`` values).

    emit:
        "checkpoint" — write the block's outputs (hot-key winners included)
                       and commit them with the partitions' records, all
                       inside the call; return an empty PATH_DIM table.
        "path_dim"   — pure: return every converged path_dim row.
        "fact"       — pure: return applied change_fact rows.

    ``num_partitions`` (the replay's P) lets the null-seq reject dedup also
    read a salted key's cold home partition (``_prior_rejected``).
    """

    def __init__(
        self,
        emit: str,
        out_dirs: dict | None = None,
        watermarks_ref=None,
        run_id: str = "r0",
        mode: str = "replace",
        schema_version: int = 1,
        merge_policy: str = "last_writer_wins",
        modifier_names: tuple = (),
        state_cap_rows: int | None = None,
        num_partitions: int | None = None,
    ):
        self.emit = emit
        self.num_partitions = num_partitions
        self.out_dirs = out_dirs or {}
        self.run_id = run_id
        self.mode = mode
        self.schema_version = schema_version
        self.modifier_names = tuple(modifier_names)
        self.state_cap_rows = state_cap_rows
        if merge_policy not in ("last_writer_wins", "first_writer_wins"):
            raise ValueError(f"unknown merge_policy: {merge_policy}")
        self.merge_policy = merge_policy
        if watermarks_ref is not None:
            import ray

            self.watermarks = ray.get(watermarks_ref)
        else:
            self.watermarks = {}

    # -- pure vectorized core -------------------------------------------------
    def _merge(self, g: pl.DataFrame, pids: list, prior_rej=None, slice_spec=None) -> dict:
        """The whole chain over the partitions ``pids`` of ``g`` (a block, a
        run of its partitions, or one key-hash slice of a partition).  Every frame returned keeps ``pkey``;
        ``counts`` holds per-partition counter parts for ``_totals``."""
        seq = pl.col("commit_seq")
        ev = g
        if self.watermarks:
            # watermark first: redelivered rows (applied OR rejected in a
            # prior run) are dropped before any other processing —
            # exactly-once holds for the rejected side table too.  Null-seq
            # rows (rejected upstream as "null_seq" by the Normalizer) pass
            # so they reach the rejected table deterministically on every
            # delivery — they have no change-id ordering.
            wm = pl.col("pkey").replace_strict(
                pids, [self.watermarks.get(p, -1) for p in pids],
                default=-1, return_dtype=pl.Int64,
            )
            ev = g.filter(seq.is_null() | (wm < 0) | (seq > wm))

        rejected = ev.filter(pl.col("reject_reason").is_not_null()).rename(
            {"reject_reason": "reason"}
        )
        if prior_rej is not None:
            rejected = _drop_redelivered_null_seq(rejected, prior_rej)
        ok = ev.filter(pl.col("reject_reason").is_null()).select(
            ["pkey", *_MERGED_COLS, *(f"mod__{n}" for n in self.modifier_names)]
        )
        if ok.schema["content_sha256"] == pl.Binary:
            # shuffle carries the raw 32-byte digest; outputs are hex
            ok = ok.with_columns(pl.col("content_sha256").bin.encode("hex"))
        ok = ok.sort("commit_seq", maintain_order=True)
        df = ok.unique(subset=["pkey", "repo", "path", "commit"], keep="first", maintain_order=True)

        prior = None
        if self.mode == "update" and self.emit == "checkpoint":
            prior = self._read_prior(pids)
            if prior is not None and slice_spec is not None:
                # bounded-state mode: keep only this key-hash slice of the
                # prior (re-read per slice trades IO for O(cap) memory; keys
                # never cross slices by construction)
                s_i, s_n = slice_spec
                prior = prior.filter(pl.Series(routing.slice_ids(routing.key_hash(prior), s_n) == s_i))
        merged = df if prior is None else pl.concat(
            [_state_to_events(prior, self.modifier_names).select(df.columns), df]
        ).sort("commit_seq", maintain_order=True)

        grouped = merged.group_by(_KEY, maintain_order=True)
        last = grouped.last() if self.merge_policy == "last_writer_wins" else grouped.first()
        path_dim = _path_dim_from_last(last)
        hot = path_dim.clear()
        if "is_hot" in g.columns and g["is_hot"].any():
            # keys that arrived salted: their winners go to the final per-key reduce
            arrived = g.filter(pl.col("is_hot")).select(_KEY).unique()
            hot = path_dim.join(arrived, on=_KEY, how="semi")
            path_dim = path_dim.join(arrived, on=_KEY, how="anti")

        # ARCHIVE_OBSERVATION_FACT analog: a prior state row displaced by a
        # newer winner is archived, not dropped (i2b2_data_tables_1_7_h2
        # .sql:139-163).  Hot-key folds are exempt (their state lives in
        # LSM hot runs, compacted separately).
        archive = None
        if prior is not None and len(prior) and "archive" in self.out_dirs:
            cur = last.select(*_KEY, seq.alias("replaced_by_seq"))
            archive = (
                prior.join(cur, on=_KEY, how="inner")
                .filter(pl.col("replaced_by_seq") != pl.col("last_commit_seq"))
                .with_columns(pl.lit(self.run_id).alias("archived_run_id"))
            )

        n = pl.len().cast(pl.Int64)
        counts = pl.concat(
            [
                ok.group_by("pkey").agg(n.alias("dups")),
                df.group_by("pkey").agg((-n).alias("dups"), n.alias("applied"), seq.max().alias("wm")),
                merged.group_by("pkey").agg(n.alias("conflicts")),
                last.group_by("pkey").agg((-n).alias("conflicts")),
                rejected.group_by("pkey").agg(n.alias("rejected"), seq.max().alias("wm")),
            ],
            how="diagonal",
        )
        return dict(
            path_dim=path_dim, hot=hot, change_fact=fan_out_facts(df, self.modifier_names),
            rejected=rejected, archive=archive, partials=self._dim_partials(df, path_dim),
            counts=counts,
        )

    def __call__(self, block: pa.Table) -> pa.Table:
        if not len(block):
            return (CHANGE_FACT if self.emit == "fact" else PATH_DIM).empty_table()
        g = pl.from_arrow(block)
        pids = g["pkey"].unique().sort().to_list()
        if self.emit == "path_dim":
            out = self._merge(g, pids)
            return _arrow(pl.concat([out["path_dim"], out["hot"]]), PATH_DIM)
        if self.emit == "fact":
            return _arrow(self._merge(g, pids)["change_fact"], CHANGE_FACT)

        # --- checkpoint mode -------------------------------------------------
        # Bounded state (SURVEY §7.5 item 1): with state_cap_rows the block's
        # partitions merge in runs of at most cap rows, and a partition over
        # the cap merges alone in key-hash slices streamed to its part file
        # as row groups — so the merge working set is O(cap); the task's
        # per-task files then stream a row group per merge call too.
        out_dir = os.path.dirname(self.out_dirs["_manifest"])
        prior_rej = self._prior_rejected(g) if self.mode == "update" else None
        files, lo, hi = _TaskFiles(out_dir), pids[0], pids[-1]
        cap = self.state_cap_rows
        streamed = bool(cap) and len(g) > cap  # more than one merge call
        partials, counts = [], []
        for run in self._runs(g, pids):
            sub = g if len(run) == len(pids) else g.filter(pl.col("pkey").is_in(run))
            n_slices = -(-len(sub) // cap) if cap and len(sub) > cap else 1
            slice_ids = routing.slice_ids(routing.key_hash(sub), n_slices) if n_slices > 1 else None
            for s_i in range(n_slices):
                part, spec = sub, None
                if slice_ids is not None:
                    part, spec = sub.filter(pl.Series(slice_ids == s_i)), (s_i, n_slices)
                out = self._merge(part, run, prior_rej, spec)
                self._write_parts(files, out["path_dim"], stream=slice_ids is not None)
                for table in ("hot", "change_fact", "rejected", "archive"):
                    if out[table] is not None and len(out[table]):
                        t = _arrow(out[table], _SCHEMAS[table])
                        files.write(self._task_path(table, lo, hi), t, streamed)
                partials.append(out["partials"])
                counts.append(out["counts"])
            files.close([self._part(pid) for pid in run])

        # every partition's part file is (re)written, even empty (the prior
        # one was consumed above), and so is the task's change_fact file;
        # rejected / archive / hot only when rows exist
        for pid in pids:
            if not files.has(self._part(pid)):
                files.write(self._part(pid), PATH_DIM.empty_table())
        if not files.has(cf := self._task_path("change_fact", lo, hi)):
            files.write(cf, CHANGE_FACT.empty_table())
        files.close()
        records = self._records(out_dir, pl.concat(partials), pl.concat(counts), pids)
        mf.commit_task(out_dir, f"{self.run_id}-{lo:05d}", records, files.renames)
        return PATH_DIM.empty_table()

    def _write_parts(self, files: _TaskFiles, path_dim: pl.DataFrame, stream: bool) -> None:
        """One part file per partition of ``path_dim``, each a slice of one
        Arrow table."""
        path_dim = path_dim.sort("pkey", maintain_order=True)
        t, off = _arrow(path_dim, PATH_DIM), 0
        for pid, n in path_dim.group_by("pkey", maintain_order=True).len().iter_rows():
            files.write(self._part(pid), t.slice(off, n), stream)
            off += n

    def _runs(self, g: pl.DataFrame, pids: list) -> list:
        """The block's partitions grouped into merge runs: one run of all of
        them, or under ``state_cap_rows`` consecutive partitions packed up to
        the cap (a partition over the cap is a run of its own)."""
        cap = self.state_cap_rows
        if not cap or len(g) <= cap:
            return [pids]
        runs, n = [[]], 0
        for pid, k in g.group_by("pkey").len().sort("pkey").iter_rows():
            if runs[-1] and n + k > cap:
                runs.append([])
                n = 0
            runs[-1].append(pid)
            n += k
        return runs

    def _part(self, pid: int) -> str:
        """A partition's ``path_dim`` part file."""
        return os.path.join(self.out_dirs["path_dim"], f"part-{pid:05d}.parquet")

    def _task_path(self, table: str, lo: int, hi: int) -> str:
        """The task's file of an append-only table, or of its hot-key
        winners: one per run id and pkey range ``[lo, hi]``."""
        span = f"{lo:05d}-{hi:05d}"
        if table == "hot":
            return hot_file(self.out_dirs["path_dim"], f"{self.run_id}-{span}")
        return os.path.join(self.out_dirs[table], f"range-{span}-{self.run_id}.parquet")

    def _read_prior(self, pids: list) -> pl.DataFrame | None:
        """The existing part files of ``pids``, tagged with ``pkey``."""
        frames = [
            pl.from_arrow(pq.read_table(p)).with_columns(pl.lit(pid, pl.Int32).alias("pkey"))
            for pid in pids
            if os.path.exists(p := self._part(pid))
        ]
        return pl.concat(frames) if frames else None

    def _prior_rejected(self, g: pl.DataFrame) -> pl.DataFrame | None:
        """Content keys ``(repo, path, commit, reason)`` of the rejected
        rows PRIOR runs persisted, read from the files that cover the
        partitions where ``g`` has a null ``commit_seq``, and those rows'
        cold home partitions (a key salted since held its first copy
        there): the task files whose pkey range holds one of them, and the
        per-partition files of an out_dir written before the task became
        the unit.  Null-seq rejects bypass the watermark by design (no
        change-id ordering), so under steady redelivery they would
        otherwise re-append every run; this content-key dedup bounds the
        rejected table.  A block with no
        null-seq row reads no rejected file.  The current run's own files
        are excluded — a crash-resume rewrites them, so deduping against
        them would drop rows from the rewrite."""
        null_seq = g.filter(pl.col("commit_seq").is_null())
        if not len(null_seq):
            return None
        pids = set(null_seq["pkey"].to_list())
        if self.num_partitions:
            pids.update(routing.home_pids(routing.encode_keys(null_seq), self.num_partitions).tolist())
        frames = []
        for f in sorted(glob.glob(os.path.join(self.out_dirs["rejected"], "*.parquet"))):
            m = _RUN_FILE.fullmatch(os.path.basename(f))
            if m is None or m[3] == self.run_id:
                continue
            lo, hi = int(m[1] or m[2]), int(m[2])
            if any(lo <= p <= hi for p in pids):
                frames.append(pl.from_arrow(pq.read_table(f, columns=["repo", "path", "commit", "reason"])))
        return pl.concat(frames).unique() if frames else None

    def _dim_partials(self, f: pl.DataFrame, path_dim: pl.DataFrame) -> pl.DataFrame:
        """Per-partition dimension partial rows (the combiner side of
        repo_dim / lang_dim / modifier_dim): per-repo first/last applied seq
        + per-repo live-path count + per-lang first-seen + per-modifier
        counts.  The driver folds these tiny tables — no second pass over
        the fact table.  Hot-key winners are NOT in ``path_dim`` here; the
        driver adds the hot fold's live counts separately."""
        seq = pl.col("commit_seq")
        bounds = [seq.min().alias("mn"), seq.max().alias("mx")]
        parts = [
            f.group_by("pkey", col)
            .agg(bounds)
            .select(
                "pkey", pl.lit(col).alias("kind"), pl.col(col).alias("key"), "mn", "mx",
                pl.lit(0, dtype=pl.Int64).alias("live"),
            )
            for col in ("repo", "lang")
        ]
        # modifier_dim partials: per-modifier first-seen seq + fact count
        for name in self.modifier_names:
            parts.append(
                f.filter(pl.col(f"mod__{name}").is_not_null())
                .group_by("pkey")
                .agg(*bounds, pl.len().cast(pl.Int64).alias("live"))
                .select("pkey", pl.lit("mod").alias("kind"), pl.lit(name).alias("key"), "mn", "mx", "live")
            )
        return pl.concat([*parts, _repo_live(path_dim, "pkey")])

    def _records(self, out_dir: str, partials: pl.DataFrame, counts: pl.DataFrame, pids: list) -> list:
        """The partitions' next manifest records: watermark, lineage
        counters over every merge call's counter parts, and the folded
        dimension partials.  An UPDATE folds each prior record's partials
        (min/max fold for seq bounds); ``repo_live`` is a fresh snapshot,
        since the path_dim state was re-merged above."""
        prev = {pid: mf.read_partition(out_dir, pid) for pid in pids}
        if self.mode == "update":
            prior = [
                (pid, *r)
                for pid in pids
                for r in mf.read_partials(out_dir, pid, prev[pid])
                if r[0] != "repo_live"
            ]
            partials = pl.concat([partials, pl.DataFrame(prior, schema=partials.schema, orient="row")])
        folded = partials.group_by(["pkey", "kind", "key"]).agg(
            pl.col("mn").min(), pl.col("mx").max(), pl.col("live").sum()
        )
        rows = {
            pid: t.rows()
            for (pid,), t in folded.partition_by("pkey", as_dict=True, include_key=False).items()
        }
        totals = self._totals(counts)
        return [
            mf.partition_record(
                prev[pid], pid, max(self.watermarks.get(pid, -1), totals.get(pid, {}).get("wm", -1)),
                run_id=self.run_id, schema_version=self.schema_version,
                counts=totals.get(pid, {}), partials=rows.get(pid, []),
            )
            for pid in pids
        ]

    @staticmethod
    def _totals(counts: pl.DataFrame) -> dict:
        """Per-partition lineage counters over every slice's counter parts."""
        totals = counts.group_by("pkey").agg(
            pl.col("applied", "dups", "conflicts", "rejected").sum(),
            pl.col("wm").max().fill_null(-1),
        )
        return {r.pop("pkey"): r for r in totals.iter_rows(named=True)}


def _drop_redelivered_null_seq(rej: pl.DataFrame, prior: pl.DataFrame) -> pl.DataFrame:
    """Drop null-commit_seq rejected rows whose ``(pkey, repo, path, commit,
    reason)`` a prior run's rejected table already holds.  Watermarked
    (non-null-seq) rows never reach the merge twice, so only the null-seq
    side needs this content-key dedup."""
    rej = rej.with_row_index("_row")
    seen = (
        rej.filter(pl.col("commit_seq").is_null())
        .join(prior, on=prior.columns, how="semi", nulls_equal=True)["_row"]
    )
    return rej.filter(~pl.col("_row").is_in(seen.implode())).drop("_row")


def reduce_hot_rows(hot: pa.Table) -> pa.Table:
    """The per-key last-writer-wins reduce of ``path_dim`` runs: keep each
    ``(repo, path)``'s row with the max ``last_commit_seq``."""
    if len(hot) == 0:
        return hot
    df = (
        pl.from_arrow(hot)
        .sort("last_commit_seq", maintain_order=True)
        .group_by(["repo", "path"], maintain_order=True)
        .last()
    )
    return ensure_columns(df.to_arrow(), PATH_DIM)


def fold_hot_runs(out_dir: str, reduce=reduce_hot_rows) -> pa.Table:
    """The hot-key fold, run at the end of every replay, compaction and
    retraction: reduce every ``hot-*.parquet`` run per key with ``reduce``,
    write the result as one file, only then delete the runs it folded, and
    refold repo/lang/modifier dims from the records' partials plus the
    folded winners (which partition partials exclude).  A crash between
    the write and the deletes leaves duplicate rows, which the next fold
    and merge-on-read absorb.  Returns the folded winners.  The replay passes the
    ``reduce_hot_rows`` it imports as ``reduce``, so a wrapper installed on
    ``cdc_replay`` sees the replay's fold.

    Deliberately never re-homes keys into partition files: a key in the
    persisted hot set lives EXCLUSIVELY in hot files (partition files and
    their dimension partials never hold it), and it stays in that set once
    salted (its event->partition routing is watermark-committed).  Re-homing
    would double-count dimensions and split state."""
    path_dim_dir = os.path.join(out_dir, "path_dim")
    runs = sorted(glob.glob(hot_file(path_dim_dir, "*")))
    folded, hot = hot_file(path_dim_dir, "folded"), PATH_DIM.empty_table()
    if runs:
        hot = reduce(pa.concat_tables([ensure_columns(pq.read_table(f), PATH_DIM) for f in runs]))
        if runs != [folded]:
            _atomic_write(hot, folded)
            for f in runs:
                if f != folded:
                    os.remove(f)
    repo_t, lang_t, mod_t = dims.fold_dim_partials(mf.legacy_partials_dir(out_dir), hot)
    if len(repo_t):
        _atomic_write(repo_t, os.path.join(out_dir, "repo_dim", "repo_dim.parquet"))
        _atomic_write(lang_t, os.path.join(out_dir, "lang_dim", "lang_dim.parquet"))
    if len(mod_t):
        _atomic_write(mod_t, os.path.join(out_dir, "modifier_dim", "modifier_dim.parquet"))
    return hot


def compact_path_dim(out_dir: str) -> int:
    """LSM compaction: :func:`fold_hot_runs` on its own, after finishing
    any merge task a crash left committed.  A finished replay has already
    folded its runs, so this repairs what a crashed one left.  Returns the
    number of hot keys."""
    mf.roll_forward(out_dir)
    return len(fold_hot_runs(out_dir))


def _bump_salted_watermarks(
    out_dir: str, extracted: pa.Table, num_partitions: int, salt_buckets: int,
    schema_version: int = 1,
) -> None:
    """For each newly-hot key, raise the watermark of every salt bucket the
    key can route to, up to the key's expunged last_commit_seq: a
    pre-transition event redelivered later routes salted, and without this
    bump would land on a bucket whose watermark doesn't cover it and
    re-apply.  Safe because commit_seq is globally monotonic in the log —
    genuinely new events always exceed any previously applied seq."""
    pids = routing.salted_pids(
        routing.encode_keys(extracted), num_partitions, salt_buckets
    )
    bumps: dict[int, int] = {}
    for row, seq in zip(pids.tolist(), extracted["last_commit_seq"].to_pylist()):
        for pid in row:
            bumps[pid] = max(bumps.get(pid, -1), int(seq))
    for pid, seq in bumps.items():
        # no run_id: the bump runs BEFORE the merge, and a crash-resume must
        # not mistake a bump-only manifest for a partition this run committed
        mf.write_partition(out_dir, pid, seq, schema_version=schema_version)


def _home_parts(out_dir: str, keys: set[str], num_partitions: int):
    """``(pid, path, table, mask of the keys' rows)`` of each canonical
    partition file holding any of ``keys``."""
    for pid in sorted(set(routing.home_pids(keys, num_partitions).tolist())):
        part = os.path.join(out_dir, "path_dim", f"part-{pid:05d}.parquet")
        if os.path.exists(part):
            t = ensure_columns(pq.read_table(part), PATH_DIM)
            hit = routing.hot_mask(t, keys)
            if hit.any():
                yield pid, part, t, hit


def extract_keys_from_parts(out_dir: str, keys: set[str], num_partitions: int) -> pa.Table:
    """Phase 1 of the newly-hot-key transition: READ-ONLY collection of the
    listed keys' rows from their canonical partition files.  The caller
    must persist the result durably (the hot-transition file) BEFORE
    calling :func:`remove_keys_from_parts` — that ordering means the
    state always exists in at least one durable place; the old
    extract-and-rewrite-in-one-pass version lost it forever on a crash
    mid-loop (the rewritten parts no longer had it, the return value was
    only in driver memory)."""
    parts = _home_parts(out_dir, keys, num_partitions)
    extracted = [t.filter(pa.array(hit)) for _, _, t, hit in parts]
    return pa.concat_tables(extracted) if extracted else PATH_DIM.empty_table()


def remove_keys_from_parts(out_dir: str, keys: set[str], num_partitions: int) -> None:
    """Phase 2 of the newly-hot-key transition: destructively rewrite the
    canonical partition files WITHOUT the listed keys, and refresh the
    repo_live partials in their records.  Only safe after the extracted
    state is on disk (hot-transition file): a crash mid-rewrite then
    leaves some keys in both places, which the LWW merge-on-read folds and
    a resumed run's re-extract + re-remove repairs."""
    for pid, part, t, hit in _home_parts(out_dir, keys, num_partitions):
        keep = t.filter(pa.array(~hit))
        _atomic_write(keep, part)
        # refresh this partition's repo_live snapshot (now excluding the keys)
        rows = [r for r in mf.read_partials(out_dir, pid) if r[0] != "repo_live"]
        mf.write_partition(out_dir, pid, -1, partials=rows + _repo_live(pl.from_arrow(keep)).rows())


def load_path_dim(out_dir: str) -> pa.Table:
    """Merge-on-read over the LSM runs: part files + hot files; LWW per key."""
    files = sorted(glob.glob(os.path.join(out_dir, "path_dim", "*.parquet")))
    if not files:
        return PATH_DIM.empty_table()
    return reduce_hot_rows(
        pa.concat_tables([ensure_columns(pq.read_table(f), PATH_DIM) for f in files])
    )
