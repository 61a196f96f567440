"""The shuffle-merge stage — the engine's analog of the reference's
temp-table -> ``EK_*`` merge stored procedures
(dest/I2b2QueryResultsHandler.java:508-686; proc contract :97-161; H2 mocks
src/main/resources/sql/mock_stored_procedures_h2.sql:22-92).

Physical plan: ``ds.groupby("pkey").map_groups(...)`` — a sort-based
all-to-all exchange on the int32 partition key (the ONLY wide shuffle in
the pipeline, ~100 B/row because content was digested in normalize), then
one vectorized ``PartitionMerger`` call per partition in a stateless task.

Per-partition merge semantics (all vectorized via polars; no Python row
loops):

1. divert rows with ``reject_reason`` to the rejected side table
   (RejectedFactHandler.java:32-40 analog);
2. drop rows at-or-below the partition's persisted watermark (exactly-once
   across runs / retries);
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
6. outputs are written atomically (tmp file + rename) one file per
   partition, and a per-partition manifest JSON (watermark + lineage
   counters + schema version) commits the partition — the checkpoint the
   resume path reads.

Hot-key handling (LSM-style): salted sub-partitions each produce their own
winner for a hot key; those rows are *returned* instead of written, and the
driver folds them with a final tiny per-key reduce into a separate sorted
run (``path_dim/hot-*.parquet``).  ``load_path_dim`` therefore performs
last-writer-wins merge-on-read across runs, and ``compact_path_dim``
folds runs back into canonical partition files — exactly an LSM merge.
"""

from __future__ import annotations

import json
import os
import uuid

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .. import __version__ as _ENGINE_VERSION
from ..schemas import ARCHIVE, CHANGE_FACT, PATH_DIM, REJECTED, ensure_columns
from . import routing

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


def _atomic_write(table: pa.Table, path: str) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    pq.write_table(table, tmp)
    os.replace(tmp, path)


class _StreamingWriter:
    """Atomic multi-row-group Parquet writer: row groups stream to a tmp
    file; close() renames into place (nothing if no rows were written)."""

    def __init__(self, path: str, schema: pa.Schema):
        self.path = path
        self.schema = schema
        self.tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
        self._w = None
        self.rows = 0

    def write(self, t: pa.Table):
        if not len(t):
            return
        if self._w is None:
            self._w = pq.ParquetWriter(self.tmp, self.schema)
        self._w.write_table(t)
        self.rows += len(t)

    def close(self):
        if self._w is not None:
            self._w.close()
            os.replace(self.tmp, self.path)


def _atomic_json(obj: dict, path: str) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(obj, f)
    os.replace(tmp, path)


def _path_dim_from_last(last: pl.DataFrame) -> pa.Table:
    """Converged per-key rows -> PATH_DIM arrow table."""
    out = last.select(
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
    ).to_arrow()
    return ensure_columns(out, PATH_DIM)


def _state_to_events(state: pa.Table, modifier_names: tuple = ()) -> pl.DataFrame:
    """Prior path_dim rows -> synthetic events for re-reduction (update mode)."""
    df = pl.from_arrow(state)
    cols = [
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
    return df.select(cols)


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
    """The per-partition merge, built once per partition inside a stateless
    task (``cdc_replay.merged_groups``); ``__init__`` fetches the broadcast
    watermark map, its only state, from the local object store.

    emit:
        "checkpoint" — side-write partition outputs + manifest; return hot
                       rows (PATH_DIM schema) for the driver's final reduce.
        "path_dim"   — pure: return every converged path_dim row.
        "fact"       — pure: return applied change_fact rows.
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
    ):
        self.emit = emit
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
    def _reduce(self, g: pa.Table, pid: int, slice_spec: tuple | None = None):
        # watermark first: redelivered rows (applied OR rejected in a prior
        # run) are dropped before any other processing — exactly-once holds
        # for the rejected side table too.
        wm_prev = self.watermarks.get(pid, -1)
        if wm_prev >= 0 and len(g):
            # null-safe: rows with null commit_seq (rejected upstream as
            # "null_seq" by the Normalizer) pass the filter so they reach the
            # rejected table deterministically on every delivery — they have
            # no change-id ordering, so watermark exactly-once cannot apply.
            g = g.filter(
                pc.coalesce(pc.greater(g["commit_seq"], wm_prev), pa.scalar(True))
            )

        reason = g["reject_reason"]
        ok = pc.is_null(reason)
        rejected = g.filter(pc.invert(ok))
        g = g.filter(ok)

        df = pl.from_arrow(
            g.select(_MERGED_COLS + [f"mod__{n}" for n in self.modifier_names])
        )
        if df.schema["content_sha256"] == pl.Binary:
            # shuffle carries the raw 32-byte digest; outputs are hex
            df = df.with_columns(pl.col("content_sha256").bin.encode("hex"))
        if len(df):
            df = df.sort("commit_seq", maintain_order=True)
        n_in = len(df)
        df = df.unique(subset=["repo", "path", "commit"], keep="first", maintain_order=True)
        dups = n_in - len(df)

        prior = None
        prior_raw = None
        if self.mode == "update" and self.emit == "checkpoint":
            part = os.path.join(self.out_dirs["path_dim"], f"part-{pid:05d}.parquet")
            if os.path.exists(part):
                prior_raw = pq.read_table(part)
                if slice_spec is not None:
                    # bounded-state mode: keep only this key-hash slice of
                    # the prior (re-read per slice trades IO for O(cap)
                    # memory; keys never cross slices by construction)
                    s_i, s_n = slice_spec
                    mask = routing.slice_ids(routing.key_hash(prior_raw), s_n) == s_i
                    prior_raw = prior_raw.filter(pa.array(mask))
                prior = _state_to_events(prior_raw, self.modifier_names)

        merged = df if prior is None else pl.concat(
            [prior.select(df.columns), df], how="vertical"
        ).sort("commit_seq", maintain_order=True)

        grouped = merged.group_by(["repo", "path"], maintain_order=True)
        last = grouped.last() if self.merge_policy == "last_writer_wins" else grouped.first()
        conflicts = len(merged) - len(last)
        wm_new = wm_prev
        if len(df):
            wm_new = max(wm_new, int(df["commit_seq"].max()))
        if len(rejected):
            rej_max = pc.max(rejected["commit_seq"]).as_py()
            if rej_max is not None:
                wm_new = max(wm_new, int(rej_max))
        return df, last, rejected, dups, conflicts, wm_new, prior_raw

    def _slice_result(self, sub: pa.Table, pid: int, slice_spec: tuple | None):
        """One slice's full merge result (the whole partition when
        slice_spec is None)."""
        facts_df, last, rejected, dups, conflicts, wm_new, prior_raw = self._reduce(
            sub, pid, slice_spec
        )
        path_dim = _path_dim_from_last(last)
        hot_mask = None
        if "is_hot" in sub.column_names:
            arrived_hot = pc.coalesce(sub["is_hot"], False)
            if pc.any(arrived_hot).as_py():
                # keys that arrived salted: their winners go to the driver reduce
                hot = pl.from_arrow(sub.filter(arrived_hot).select(["repo", "path"])).unique()
                hot_mask = pa.array(routing.hot_mask(path_dim, routing.encode_keys(hot)))
        if hot_mask is not None:
            hot_rows = path_dim.filter(hot_mask)
            path_dim = path_dim.filter(pc.invert(hot_mask))
        else:
            hot_rows = path_dim.slice(0, 0)

        # ARCHIVE_OBSERVATION_FACT analog: a prior state row displaced by a
        # newer winner is archived, not dropped (i2b2_data_tables_1_7_h2
        # .sql:139-163).  Hot-key folds are exempt (their state lives in
        # LSM hot runs, compacted separately).
        arch = None
        if prior_raw is not None and len(prior_raw) and "archive" in self.out_dirs:
            pr = pl.from_arrow(ensure_columns(prior_raw, PATH_DIM))
            cur = last.select(
                pl.col("repo"), pl.col("path"), pl.col("commit_seq").alias("replaced_by_seq")
            )
            arch_df = (
                pr.join(cur, on=["repo", "path"], how="inner")
                .filter(pl.col("replaced_by_seq") != pl.col("last_commit_seq"))
                .with_columns(pl.lit(self.run_id).alias("archived_run_id"))
            )
            if len(arch_df):
                arch = ensure_columns(arch_df.to_arrow(), ARCHIVE)

        facts = ensure_columns(
            fan_out_facts(facts_df, self.modifier_names).to_arrow(), CHANGE_FACT
        )
        rej = None
        if len(rejected):
            rej = ensure_columns(
                rejected.rename_columns(
                    [c if c != "reject_reason" else "reason" for c in rejected.column_names]
                ),
                REJECTED,
            )
        partials = self._dim_partial_frames(facts_df, path_dim)
        counters = dict(
            applied=len(facts_df), dups=dups, conflicts=conflicts,
            rejected=0 if rej is None else len(rej), wm=wm_new,
        )
        return path_dim, hot_rows, facts, rej, arch, partials, counters

    def __call__(self, g: pa.Table) -> pa.Table:
        pid = g["pkey"][0].as_py()

        if self.emit == "path_dim":
            _, last = self._reduce(g, pid)[0:2]
            return _path_dim_from_last(last)
        if self.emit == "fact":
            facts_df = self._reduce(g, pid)[0]
            return ensure_columns(
                fan_out_facts(facts_df, self.modifier_names).to_arrow(), CHANGE_FACT
            )

        # --- checkpoint mode -------------------------------------------------
        # Bounded state (SURVEY §7.5 item 1): above state_cap_rows the
        # partition merges in key-hash slices — per-slice sort/prior-join/
        # outputs are O(cap), streamed to the part files as row groups.
        cap = self.state_cap_rows
        n_slices = 1
        if cap and len(g) > cap:
            n_slices = -(-len(g) // cap)
        fact_name = (
            f"part-{pid:05d}.parquet"
            if self.mode == "replace"
            else f"part-{pid:05d}-{self.run_id}.parquet"
        )
        w_path = _StreamingWriter(
            os.path.join(self.out_dirs["path_dim"], f"part-{pid:05d}.parquet"), PATH_DIM
        )
        w_fact = _StreamingWriter(
            os.path.join(self.out_dirs["change_fact"], fact_name), CHANGE_FACT
        )
        w_rej = _StreamingWriter(
            os.path.join(self.out_dirs["rejected"], f"part-{pid:05d}-{self.run_id}.parquet"),
            REJECTED,
        )
        w_arch = None
        if "archive" in self.out_dirs:
            w_arch = _StreamingWriter(
                os.path.join(self.out_dirs["archive"], f"part-{pid:05d}-{self.run_id}.parquet"),
                ARCHIVE,
            )

        slice_ids = routing.slice_ids(routing.key_hash(g), n_slices) if n_slices > 1 else None
        hot_parts, partial_frames = [], []
        totals = dict(applied=0, dups=0, conflicts=0, rejected=0, wm=-1)
        prior_rej = (
            self._prior_rejected_keys(pid) if self.mode == "update" else set()
        )
        for s_i in range(n_slices):
            if slice_ids is None:
                sub, spec = g, None
            else:
                sub, spec = g.filter(pa.array(slice_ids == s_i)), (s_i, n_slices)
            path_dim, hot_rows, facts, rej, arch, partials, c = self._slice_result(
                sub, pid, spec
            )
            if rej is not None and prior_rej:
                rej = _drop_redelivered_null_seq(rej, prior_rej)
                c["rejected"] = len(rej)
                if len(rej) == 0:
                    rej = None
            w_path.write(path_dim)
            w_fact.write(facts)
            if rej is not None:
                w_rej.write(rej)
            if arch is not None and w_arch is not None:
                w_arch.write(arch)
            if len(hot_rows):
                hot_parts.append(hot_rows)
            partial_frames.extend(partials)
            for k in ("applied", "dups", "conflicts", "rejected"):
                totals[k] += c[k]
            totals["wm"] = max(totals["wm"], c["wm"])

        # path_dim / change_fact part files are always (re)written, even
        # empty (the prior part file was consumed into the slices above);
        # rejected / archive only when rows exist (matching prior behavior)
        if w_path.rows == 0:
            _atomic_write(PATH_DIM.empty_table(), w_path.path)
        else:
            w_path.close()
        if w_fact.rows == 0:
            _atomic_write(CHANGE_FACT.empty_table(), w_fact.path)
        else:
            w_fact.close()
        w_rej.close()
        if w_arch is not None:
            w_arch.close()

        self._commit_dim_partials(pid, partial_frames)
        # rows_applied counts APPLIED EVENTS (base rows), not fan-out rows
        self._commit_manifest(
            pid, totals["applied"], totals["dups"], totals["conflicts"],
            totals["rejected"], totals["wm"],
        )
        hot_rows = (
            pa.concat_tables(hot_parts) if hot_parts else PATH_DIM.empty_table()
        )
        return hot_rows

    def _prior_rejected_keys(self, pid: int) -> set:
        """Content keys (repo, path, commit, reason) of this partition's
        already-persisted rejected rows from PRIOR runs.  Null-seq rejects
        bypass the watermark by design (no change-id ordering), so under
        steady redelivery they would otherwise re-append every run; this
        content-key dedup bounds the rejected table.  The current run's own
        file is excluded — a crash-resume rewrites it, so deduping against
        it would drop rows from the rewrite."""
        import glob as _glob

        keys: set = set()
        pat = os.path.join(self.out_dirs["rejected"], f"part-{pid:05d}-*.parquet")
        for f in _glob.glob(pat):
            if f.endswith(f"-{self.run_id}.parquet"):
                continue
            t = pq.read_table(f, columns=["repo", "path", "commit", "reason"])
            keys.update(
                zip(
                    t["repo"].to_pylist(),
                    t["path"].to_pylist(),
                    t["commit"].to_pylist(),
                    t["reason"].to_pylist(),
                )
            )
        return keys

    def _dim_partial_frames(self, facts_df: pl.DataFrame, path_dim: pa.Table) -> list:
        """Per-partition dimension partial frames (the combiner side of
        repo_dim / lang_dim / modifier_dim): per-repo first/last applied seq
        + per-repo live-path count + per-lang first-seen + per-modifier
        counts.  The driver folds these tiny tables — no second pass over
        the fact table.  Hot-key winners are NOT in ``path_dim`` here; the
        driver adds the hot fold's live counts separately."""
        parts = []
        if len(facts_df):
            f = facts_df
            parts.append(
                pl.concat(
                    [
                        f.group_by("repo")
                        .agg(
                            pl.col("commit_seq").min().alias("mn"),
                            pl.col("commit_seq").max().alias("mx"),
                        )
                        .select(
                            pl.lit("repo").alias("kind"),
                            pl.col("repo").alias("key"),
                            "mn",
                            "mx",
                            pl.lit(0, dtype=pl.Int64).alias("live"),
                        ),
                        f.group_by("lang")
                        .agg(
                            pl.col("commit_seq").min().alias("mn"),
                            pl.col("commit_seq").max().alias("mx"),
                        )
                        .select(
                            pl.lit("lang").alias("kind"),
                            pl.col("lang").alias("key"),
                            "mn",
                            "mx",
                            pl.lit(0, dtype=pl.Int64).alias("live"),
                        ),
                    ]
                )
            )
            # modifier_dim partials: per-modifier first-seen seq + fact count
            for name in self.modifier_names:
                hit = f.filter(pl.col(f"mod__{name}").is_not_null())
                if len(hit):
                    parts.append(
                        pl.DataFrame(
                            {
                                "kind": ["mod"],
                                "key": [name],
                                "mn": [int(hit["commit_seq"].min())],
                                "mx": [int(hit["commit_seq"].max())],
                                "live": [len(hit)],
                            }
                        ).with_columns(
                            pl.col("mn").cast(pl.Int64),
                            pl.col("mx").cast(pl.Int64),
                            pl.col("live").cast(pl.Int64),
                        )
                    )
        if len(path_dim):
            live = (
                pl.from_arrow(path_dim)
                .filter(pl.col("delete_date").is_null())
                .group_by("repo")
                .agg(pl.len().cast(pl.Int64).alias("live"))
                .select(
                    pl.lit("repo_live").alias("kind"),
                    pl.col("repo").alias("key"),
                    pl.lit(None, dtype=pl.Int64).alias("mn"),
                    pl.lit(None, dtype=pl.Int64).alias("mx"),
                    "live",
                )
            )
            parts.append(live)
        return parts

    def _commit_dim_partials(self, pid: int, parts: list):
        dp_path = os.path.join(self.out_dirs["_dimpart"], f"part-{pid:05d}.parquet")
        if self.mode == "update" and os.path.exists(dp_path):
            # fold the prior partial: min/max fold for seq bounds; live is a
            # fresh snapshot (prior live rows dropped, since path_dim state
            # was re-merged above)
            prior = pl.from_arrow(pq.read_table(dp_path)).filter(
                pl.col("kind") != "repo_live"
            )
            parts = parts + [prior]
        if not parts:
            return
        folded = (
            pl.concat(parts)
            .group_by(["kind", "key"])
            .agg(pl.col("mn").min(), pl.col("mx").max(), pl.col("live").sum())
        )
        _atomic_write(folded.to_arrow(), dp_path)

    def _commit_manifest(self, pid, n_facts, dups, conflicts, n_rejected, wm_new):
        # manifest commit point — MUST be last (resume reads this)
        prev = {}
        mpath = os.path.join(self.out_dirs["_manifest"], f"part-{pid:05d}.json")
        if os.path.exists(mpath):
            with open(mpath) as f:
                prev = json.load(f)
        _atomic_json(
            {
                "partition_id": pid,
                "watermark_seq": wm_new,
                "rows_applied": prev.get("rows_applied", 0) + n_facts,
                "dups_dropped": prev.get("dups_dropped", 0) + dups,
                "conflicts_resolved": prev.get("conflicts_resolved", 0) + conflicts,
                "rows_rejected": prev.get("rows_rejected", 0) + n_rejected,
                "schema_version": self.schema_version,
                "run_id": self.run_id,
                "engine_version": _ENGINE_VERSION,
            },
            mpath,
        )


def _drop_redelivered_null_seq(rej: pa.Table, prior_keys: set) -> pa.Table:
    """Drop null-commit_seq rejected rows whose (repo, path, commit,
    reason) already exists in a prior run's rejected table.  Watermarked
    (non-null-seq) rows never reach the merge twice, so only the null-seq
    side needs this content-key dedup."""
    null_mask = pc.is_null(rej["commit_seq"]).to_numpy(zero_copy_only=False)
    if not null_mask.any():
        return rej
    rows = zip(
        rej["repo"].to_pylist(),
        rej["path"].to_pylist(),
        rej["commit"].to_pylist(),
        rej["reason"].to_pylist(),
    )
    keep = [not (null_mask[i] and k in prior_keys) for i, k in enumerate(rows)]
    return rej.filter(pa.array(keep))


def reduce_hot_rows(hot: pa.Table) -> pa.Table:
    """Final per-key reduce across salt buckets: keep max last_commit_seq."""
    if len(hot) == 0:
        return hot
    df = (
        pl.from_arrow(hot)
        .sort("last_commit_seq", maintain_order=True)
        .group_by(["repo", "path"], maintain_order=True)
        .last()
    )
    return ensure_columns(df.to_arrow(), PATH_DIM)


def compact_path_dim(out_dir: str) -> int:
    """LSM compaction: consolidate all hot-run files into ONE LWW-reduced
    hot file.  Returns the number of surviving hot keys.

    Deliberately consolidation-only, never re-homing into partition files:
    the engine's state invariant is that a key in the persisted hot set
    lives EXCLUSIVELY in hot files (partition files + their dimension
    partials never contain it), and a key must stay in the hot set forever
    once salted (its event->partition routing is watermark-committed).
    Re-homing would put hot-key state back into partition files while
    future events still route salted — double-counting dimensions and
    splitting state."""
    import glob

    hot_files = sorted(glob.glob(os.path.join(out_dir, "path_dim", "hot-*.parquet")))
    if len(hot_files) <= 1:
        return 0
    hot = reduce_hot_rows(pa.concat_tables([pq.read_table(f) for f in hot_files]))
    _atomic_write(hot, os.path.join(out_dir, "path_dim", "hot-compacted.parquet"))
    for f in hot_files:
        if not f.endswith("hot-compacted.parquet"):
            os.remove(f)
    return len(hot)


def _bump_salted_watermarks(
    out_dir: str, extracted: pa.Table, num_partitions: int, salt_buckets: int
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
        mpath = os.path.join(out_dir, "_manifest", f"part-{pid:05d}.json")
        # fresh records carry run_id=None, NOT the current run's id: the
        # bump runs BEFORE the merge, and a crash-resume must not mistake a
        # bump-only manifest for a partition this run already committed.
        rec = {
            "partition_id": pid,
            "watermark_seq": -1,
            "rows_applied": 0,
            "dups_dropped": 0,
            "conflicts_resolved": 0,
            "rows_rejected": 0,
            "schema_version": 1,
            "run_id": None,
        }
        if os.path.exists(mpath):
            with open(mpath) as f:
                rec = json.load(f)
        if rec.get("watermark_seq", -1) < seq:
            rec["watermark_seq"] = seq
            _atomic_json(rec, mpath)


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
    canonical partition files (and their repo_live dimension partials)
    WITHOUT the listed keys.  Only safe after the extracted state is on
    disk (hot-transition file): a crash mid-rewrite then leaves some keys
    in both places, which the LWW merge-on-read folds and a resumed run's
    re-extract + re-remove repairs."""
    for pid, part, t, hit in _home_parts(out_dir, keys, num_partitions):
        keep = t.filter(pa.array(~hit))
        _atomic_write(keep, part)
        # refresh this partition's repo_live snapshot (now excluding the keys)
        dp_path = os.path.join(out_dir, "_dimpart", f"part-{pid:05d}.parquet")
        fresh_live = (
            pl.from_arrow(keep)
            .filter(pl.col("delete_date").is_null())
            .group_by("repo")
            .agg(pl.len().cast(pl.Int64).alias("live"))
            .select(
                pl.lit("repo_live").alias("kind"),
                pl.col("repo").alias("key"),
                pl.lit(None, dtype=pl.Int64).alias("mn"),
                pl.lit(None, dtype=pl.Int64).alias("mx"),
                "live",
            )
        )
        if os.path.exists(dp_path):
            prior = pl.from_arrow(pq.read_table(dp_path)).filter(
                pl.col("kind") != "repo_live"
            )
            fresh_live = pl.concat([prior, fresh_live])
        _atomic_write(fresh_live.to_arrow(), dp_path)


def load_path_dim(out_dir: str) -> pa.Table:
    """Merge-on-read over the LSM runs: part files + hot files; LWW per key."""
    import glob

    files = sorted(glob.glob(os.path.join(out_dir, "path_dim", "*.parquet")))
    if not files:
        return PATH_DIM.empty_table()
    t = pa.concat_tables([ensure_columns(pq.read_table(f), PATH_DIM) for f in files])
    df = (
        pl.from_arrow(t)
        .sort("last_commit_seq", maintain_order=True)
        .group_by(["repo", "path"], maintain_order=True)
        .last()
    )
    return ensure_columns(df.to_arrow(), PATH_DIM)
