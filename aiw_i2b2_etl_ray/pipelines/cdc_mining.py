"""Repo-mining reads over the change stream: co-change pairs, ownership
(bus-factor) census, and per-path lifecycle audits.

These are the classic MSR (mining-software-repositories) reads a code-corpus
curator runs over a converged CDC lake — the analytical complement of the
operational reads in ``cdc_queries`` (hot keys, tombstone GC, renames).  The
reference's analog is its post-load provider/concept usage reporting
(dest/table/ProviderDimensionFactory.java attribution + the A1 row-count
census); here the same attribution questions are asked of the raw change
history rather than the final star.

All three follow the catalog's exchange discipline: a per-block vectorized
partial (projection + distinct) shrinks the stream map-side, ONE keyed
``keyed_fold`` moves the bounded partials, and one polars kernel folds
all the keys of a block (the ``cdc_state_diff``/``scd2`` pattern).
Every output column is an exact integer or string, so the driver's
value-hash compare is drift-proof.
"""

from __future__ import annotations

import pyarrow as pa
import ray.data as rd

from ..sources.changes import CHANGES_FROM_EVENTS_SQL, changes_from_events
from ..stages.exchange import keyed_fold
from .cdc_queries import _VALID

#: co-change session width in commit_seq units.  A session is (repo,
#: commit_seq // BUCKET): the change-stream analog of "commits landed in
#: the same review window".  250 keeps sf0.001 (seq 0..999) at four
#: sessions per repo so the >=2-sessions filter is exercised at the
#: smallest test scale.
COCHANGE_BUCKET = 250


def _valid_mask(t: pa.Table) -> pa.Table:
    """The merge pipeline's validity rule (non-blank repo/path/commit) —
    must stay in lockstep with the SQL ``valid`` CTE in cdc_queries."""
    import pyarrow.compute as pc

    m = None
    for c in ("repo", "path", "commit"):
        cm = pc.and_(pc.is_valid(t[c]), pc.not_equal(t[c], ""))
        m = cm if m is None else pc.and_(m, cm)
    return t.filter(m)


# --- co-change pairs ---------------------------------------------------------


def cdc_cochange(sf_dir: str) -> "rd.Dataset":
    """Co-changed path pairs: for each (repo, seq-bucket) session, the
    distinct paths touched together; pairs that co-occur in >= 2 sessions,
    with the exact session count.  The logical-coupling read (Zimmermann
    et al.'s co-change mining) a curator uses to find generated-file
    clusters and hidden module boundaries before sampling a code corpus.

    Physical plan: per-block distinct (repo, bkt, path) triples map-side
    (redelivered rows and within-block repeats collapse before anything
    moves), ONE ``keyed_fold`` on (repo, bkt): each task expands MANY
    sessions (boundaries via one run-length scan, triangular indices
    cached per session size), never one task per session — at sf0.1 the
    (repo, bkt) grouping makes ~15k tiny sessions — then a
    combiner-first pair count (per-block partial, then a pair-bounded
    groupby-sum).  The pair space is bounded by the distinct
    paths per session, NOT the stream: session width is a config constant,
    so a session's pair count is quadratic only in paths-per-session.
    ``max_session_paths`` caps a degenerate mega-session (a bot commit
    touching the whole tree) by keeping the lexicographically-first K
    paths — deterministic, but intentionally OFF by default because the
    oracle is uncapped; at 100 TB you run with a cap and accept the
    documented truncation (the dedup_minhash bucket-cap discipline)."""
    return cochange_table(changes_from_events(sf_dir))


def cochange_table(
    changes: "rd.Dataset",
    *,
    bucket: int = COCHANGE_BUCKET,
    min_sessions: int = 2,
    max_session_paths: int | None = None,
) -> "rd.Dataset":
    """Core of ``cdc_cochange`` over any change stream; split out so tests
    can drive crafted streams and the mega-session cap."""
    import polars as pl

    from ray.data.aggregate import Sum

    from ..util import empty_frame

    def session_partial(t: pa.Table) -> pa.Table:
        t = _valid_mask(t)
        return (
            pl.from_arrow(t.select(["repo", "path", "commit_seq"]))
            .select(
                "repo",
                (pl.col("commit_seq") // bucket).alias("bkt"),
                "path",
            )
            .unique()
            .to_arrow()
        )

    _EMPTY_PAIRS = pa.table(
        {
            "repo": pa.array([], pa.string()),
            "path_a": pa.array([], pa.string()),
            "path_b": pa.array([], pa.string()),
        }
    )

    def expand_bucket(g: pa.Table) -> pa.Table:
        """All sessions of this block at once: one sort, one
        run-length boundary scan, cached triangular indices per session
        size — no per-session task or table-slice overhead."""
        import numpy as np

        df = (
            pl.from_arrow(g.select(["repo", "bkt", "path"]))
            .unique()  # cross-block dedup of the map-side distinct
            .sort(["repo", "bkt", "path"])
        )
        if len(df) == 0:
            return _EMPTY_PAIRS
        repo = df["repo"].to_numpy()
        bkt = df["bkt"].to_numpy()
        path = df["path"].to_numpy()
        n = len(df)
        new_sess = np.ones(n, dtype=bool)
        new_sess[1:] = (repo[1:] != repo[:-1]) | (bkt[1:] != bkt[:-1])
        starts = np.flatnonzero(new_sess)
        sizes = np.diff(np.append(starts, n))
        triu_cache: dict[int, tuple] = {}
        rep_parts, a_parts, b_parts = [], [], []
        for s, c in zip(starts.tolist(), sizes.tolist()):
            if max_session_paths is not None and c > max_session_paths:
                c = max_session_paths  # paths sorted -> lexicographic-first K
            if c < 2:
                continue
            if c not in triu_cache:
                triu_cache[c] = np.triu_indices(c, k=1)
            ia, ib = triu_cache[c]
            a_parts.append(path[s + ia])
            b_parts.append(path[s + ib])
            rep_parts.append(np.full(ia.size, repo[s]))
        if not a_parts:
            return _EMPTY_PAIRS
        return pa.table(
            {
                "repo": pa.array(np.concatenate(rep_parts), pa.string()),
                "path_a": pa.array(np.concatenate(a_parts), pa.string()),
                "path_b": pa.array(np.concatenate(b_parts), pa.string()),
            }
        )

    def count_partial(t: pa.Table) -> pa.Table:
        if len(t) == 0 or "repo" not in t.schema.names:
            return pa.table(
                {
                    "repo": pa.array([], pa.string()),
                    "path_a": pa.array([], pa.string()),
                    "path_b": pa.array([], pa.string()),
                    "pn": pa.array([], pa.int64()),
                }
            )
        return (
            pl.from_arrow(t.select(["repo", "path_a", "path_b"]))
            .group_by(["repo", "path_a", "path_b"])
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    def keep(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        if len(t) == 0 or "n_sessions" not in t.schema.names:
            return pa.table(
                {
                    "repo": pa.array([], pa.string()),
                    "path_a": pa.array([], pa.string()),
                    "path_b": pa.array([], pa.string()),
                    "n_sessions": pa.array([], pa.int64()),
                }
            )
        return t.filter(pc.greater_equal(t["n_sessions"], min_sessions))

    # two exchanges, both over pre-shrunk tables, is the floor for this read
    sessions = changes.map_batches(session_partial, batch_format="pyarrow")
    out = (
        keyed_fold(sessions, ["repo", "bkt"], expand_bucket)
        .map_batches(count_partial, batch_format="pyarrow")
        .groupby(["repo", "path_a", "path_b"])
        .aggregate(Sum("pn", alias_name="n_sessions"))
        .map_batches(keep, batch_format="pyarrow")
        .materialize()  # distinct-pair-bounded (<= paths²/2 per repo)
    )
    if out.count() == 0:
        return empty_frame(
            repo="string", path_a="string", path_b="string", n_sessions="int64"
        )
    return out


SQL_COCHANGE = f"""
WITH {CHANGES_FROM_EVENTS_SQL}, {_VALID},
sess AS (
  SELECT DISTINCT repo, commit_seq // {COCHANGE_BUCKET} AS bkt, path FROM valid
)
SELECT a.repo, a.path AS path_a, b.path AS path_b,
       CAST(COUNT(*) AS BIGINT) AS n_sessions
FROM sess a JOIN sess b ON a.repo = b.repo AND a.bkt = b.bkt AND a.path < b.path
GROUP BY a.repo, a.path, b.path
HAVING COUNT(*) >= 2
"""


# --- ownership / bus-factor census -------------------------------------------


def cdc_ownership(sf_dir: str) -> "rd.Dataset":
    """Per-(repo, path) ownership census over the deduped change history:
    how many distinct authors touched the path, total deduped changes, and
    the top author (most changes, ties broken by smallest author_id) with
    their change count — the bus-factor read behind per-author sampling
    weights and the attribution the reference performs when it folds
    provider rows into provider_dimension
    (dest/table/ProviderDimensionFactory.java:119-188).

    Physical plan: per-block distinct (repo, path, commit, author_id)
    map-side (a redelivered change-id is an exact row copy, so the
    4-tuple distinct IS change-id dedup once folded globally), one
    ``keyed_fold`` on (repo, path) — NOT repo (the scd2 keying: a
    mega-repo spreads its paths over all tasks instead of pinning one),
    and a per-block polars fold: global change-id
    dedup, per-(path, author) counts, then one row per path with the
    argmax author.  Output is path-bounded."""
    return ownership_table(changes_from_events(sf_dir))


def _ownership_partial(t: pa.Table) -> pa.Table:
    """Per-block distinct (repo, path, commit, author_id) of valid rows."""
    import polars as pl

    t = _valid_mask(t).select(["repo", "path", "commit", "author_id"])
    return pl.from_arrow(t).unique().to_arrow()


def _author_counts(g: pa.Table):
    """Cross-block change-id dedup, then one (repo, path, author_id, n)
    row per author-path pair."""
    import polars as pl

    return (
        pl.from_arrow(g.select(["repo", "path", "commit", "author_id"]))
        .unique(["repo", "path", "commit"])
        .group_by(["repo", "path", "author_id"])
        .agg(pl.len().cast(pl.Int64).alias("n"))
    )


def _top_authors(df) -> pa.Table:
    """One row per path with the top author (ties to min author_id)."""
    import polars as pl

    return (
        df.sort(["n", "author_id"], descending=[True, False])
        .group_by(["repo", "path"], maintain_order=True)
        .agg(
            pl.len().cast(pl.Int64).alias("n_authors"),
            pl.col("n").sum().alias("n_changes"),
            pl.col("author_id").first().alias("top_author_id"),
            pl.col("n").first().alias("top_changes"),
        )
        .to_arrow()
    )


def _ownership_or_empty(out: "rd.Dataset") -> "rd.Dataset":
    from ..util import empty_frame

    out = out.materialize()  # path-bounded (one row per live-or-dead path)
    if out.count() == 0:
        return empty_frame(
            repo="string",
            path="string",
            n_authors="int64",
            n_changes="int64",
            top_author_id="string",
            top_changes="int64",
        )
    return out


def ownership_counts(changes: "rd.Dataset") -> "rd.Dataset":
    """The MERGEABLE census partial: one (repo, path, author_id, n) row
    per author-path pair, with change-id dedup done inside the keyed
    fold.  Two counts tables from seq-disjoint stream segments can be
    unioned and re-folded (``ownership_from_counts``) into the same
    result as a full recompute — the incremental/streaming contract
    ``cdc_ownership_incremental`` hash-checks."""

    def count_fold(g: pa.Table) -> pa.Table:
        return _author_counts(g).to_arrow()

    partials = changes.map_batches(_ownership_partial, batch_format="pyarrow")
    return keyed_fold(partials, ["repo", "path"], count_fold)


def ownership_from_counts(counts: "rd.Dataset") -> "rd.Dataset":
    """Argmax fold over a (possibly unioned) counts table: sums per
    (repo, path, author) first — so merged segment partials combine —
    then one row per path with the top author (ties to min author_id)."""
    import polars as pl

    def fold(g: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(g.select(["repo", "path", "author_id", "n"]))
            .group_by(["repo", "path", "author_id"])
            .agg(pl.col("n").sum().alias("n"))
        )
        return _top_authors(df)

    return _ownership_or_empty(keyed_fold(counts, ["repo", "path"], fold))


def ownership_table(changes: "rd.Dataset") -> "rd.Dataset":
    """Single-exchange plan for the full-stream census: dedup, count and
    argmax all happen inside ONE keyed fold (``ownership_counts`` +
    ``ownership_from_counts`` pays a second exchange; that two-step path
    exists for merging persisted segment partials)."""

    def fold(g: pa.Table) -> pa.Table:
        return _top_authors(_author_counts(g))

    partials = changes.map_batches(_ownership_partial, batch_format="pyarrow")
    return _ownership_or_empty(keyed_fold(partials, ["repo", "path"], fold))


def cdc_ownership_incremental(sf_dir: str) -> "rd.Dataset":
    """The ownership census computed INCREMENTALLY: the stream is split
    at the midpoint sequence, each segment folds to its own mergeable
    counts partial (``ownership_counts`` — what a streaming deployment
    would persist per ingest window), the partials union and re-fold.
    The result must be IDENTICAL to the full recompute, so the oracle is
    ``SQL_OWNERSHIP`` itself — census mergeability stated as an equality
    the driver hash-checks end-to-end (the ``cdc_reapply`` contract
    pattern, applied to an aggregation instead of the upsert).

    Precondition (documented, held by construction here): segments
    partition the stream by change-id — a change-id redelivered WITHIN a
    segment dedups in that segment's fold; one redelivered ACROSS
    segments would double-count (a real deployment assigns segments by
    commit_seq ranges, which makes cross-segment duplicates impossible
    for seq-keyed ids)."""
    import pyarrow.compute as pc

    changes = changes_from_events(sf_dir)
    mid = int(changes.max("commit_seq")) // 2

    def lo(t: pa.Table) -> pa.Table:
        return t.filter(pc.less_equal(t["commit_seq"], mid))

    def hi(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater(t["commit_seq"], mid))

    seg_a = ownership_counts(
        changes_from_events(sf_dir).map_batches(lo, batch_format="pyarrow")
    )
    seg_b = ownership_counts(
        changes_from_events(sf_dir).map_batches(hi, batch_format="pyarrow")
    )
    return ownership_from_counts(seg_a.union(seg_b))


SQL_OWNERSHIP = f"""
WITH {CHANGES_FROM_EVENTS_SQL}, {_VALID},
pa_counts AS (
  SELECT repo, path, author_id, CAST(COUNT(*) AS BIGINT) AS n
  FROM dedup GROUP BY repo, path, author_id
),
tops AS (
  SELECT repo, path, author_id AS top_author_id, n AS top_changes,
         ROW_NUMBER() OVER (
           PARTITION BY repo, path ORDER BY n DESC, author_id
         ) AS r
  FROM pa_counts
),
agg AS (
  SELECT repo, path,
         CAST(COUNT(*) AS BIGINT) AS n_authors,
         CAST(SUM(n) AS BIGINT)   AS n_changes
  FROM pa_counts GROUP BY repo, path
)
SELECT agg.repo, agg.path, agg.n_authors, agg.n_changes,
       t.top_author_id, t.top_changes
FROM agg JOIN tops t ON agg.repo = t.repo AND agg.path = t.path AND t.r = 1
"""


# --- per-path lifecycle audit -------------------------------------------------


def cdc_path_lifetimes(sf_dir: str) -> "rd.Dataset":
    """Per-(repo, path) lifecycle over the deduped history: first/last
    change seq, deduped change count, tombstone count, and resurrection
    count (a delete followed by a later non-delete — the reference's
    DELETE_DATE-then-UPDATE_DATE fixture case, testData.xml, generalized
    to a census).  The read that sizes tombstone-GC safety windows
    (complementing ``cdc_tombstone_gc``) and flags flapping paths.

    Physical plan: per-block distinct (repo, path, commit_seq, op)
    map-side, one ``keyed_fold`` on (repo, path) (the scd2 keying —
    mega-repos spread over all tasks), per-block polars
    fold with the ops sorted by seq inside each (repo, path) group and
    the D->not-D transition counted via a shifted comparison — the LAG
    window re-expressed as a vectorized in-group shift (the scd2
    intervals pattern)."""
    return path_lifetimes_table(changes_from_events(sf_dir))


def path_lifetimes_table(changes: "rd.Dataset") -> "rd.Dataset":
    import polars as pl

    from ..util import empty_frame

    def partial(t: pa.Table) -> pa.Table:
        t = _valid_mask(t)
        return (
            pl.from_arrow(t.select(["repo", "path", "commit_seq", "op"]))
            .unique()
            .to_arrow()
        )

    def fold(g: pa.Table) -> pa.Table:
        df = (
            pl.from_arrow(g.select(["repo", "path", "commit_seq", "op"]))
            # change-id dedup: commit <-> commit_seq is 1:1 in the stream,
            # and a redelivered row is an exact copy, so distinct
            # (repo, path, commit_seq) keeps one op per change-id
            .unique(["repo", "path", "commit_seq"])
            .sort("commit_seq")
        )
        prev = pl.col("op").shift(1)
        return (
            df.group_by(["repo", "path"], maintain_order=True)
            .agg(
                pl.col("commit_seq").min().alias("first_seq"),
                pl.col("commit_seq").max().alias("last_seq"),
                pl.len().cast(pl.Int64).alias("n_changes"),
                (pl.col("op") == "D").sum().cast(pl.Int64).alias("n_deletes"),
                ((prev == "D") & (pl.col("op") != "D"))
                .sum()
                .cast(pl.Int64)
                .alias("n_resurrections"),
            )
            .to_arrow()
        )

    partials = changes.map_batches(partial, batch_format="pyarrow")
    out = keyed_fold(partials, ["repo", "path"], fold).materialize()  # path-bounded
    if out.count() == 0:
        return empty_frame(
            repo="string",
            path="string",
            first_seq="int64",
            last_seq="int64",
            n_changes="int64",
            n_deletes="int64",
            n_resurrections="int64",
        )
    return out


SQL_PATH_LIFETIMES = f"""
WITH {CHANGES_FROM_EVENTS_SQL}, {_VALID},
seqd AS (
  SELECT repo, path, commit_seq, op,
         LAG(op) OVER (PARTITION BY repo, path ORDER BY commit_seq) AS prev_op
  FROM dedup
)
SELECT repo, path,
       CAST(MIN(commit_seq) AS BIGINT) AS first_seq,
       CAST(MAX(commit_seq) AS BIGINT) AS last_seq,
       CAST(COUNT(*) AS BIGINT)        AS n_changes,
       CAST(SUM(CASE WHEN op = 'D' THEN 1 ELSE 0 END) AS BIGINT) AS n_deletes,
       CAST(SUM(CASE WHEN prev_op = 'D' AND op <> 'D' THEN 1 ELSE 0 END) AS BIGINT)
         AS n_resurrections
FROM seqd GROUP BY repo, path
"""

# --- burst detection ----------------------------------------------------------

#: burst-scan seq-bucket width (finer than the co-change session width —
#: a burst is a spike inside a replay window, not a review session)
BURST_BUCKET = 100
#: a bucket is a burst when its count exceeds BURST_FACTOR x the repo's
#: mean bucket count (over observed buckets)
BURST_FACTOR = 2


def cdc_bursts(sf_dir: str) -> "rd.Dataset":
    """Ingest-spike detection: (repo, seq-bucket) windows whose deduped
    change count exceeds ``BURST_FACTOR`` x that repo's mean bucket count
    — the spike complement of ``cdc_seq_audit``'s hole detection, and the
    read a CDC operator runs to find replay storms (force-pushes, bot
    runs, migration squashes) before sizing merge partitions.

    The threshold is stated integer-only (n * n_buckets >
    BURST_FACTOR * repo_total) so no float mean can drift the compare.

    Physical plan: per-block combiner partials per (repo, bkt) -> ONE
    keyed Sum over the bucket table (seq-range/width x repos rows, never
    fact-sized) -> per-repo totals folded from the bucket table
    (repo-bounded, broadcast back as a plain dict) -> vectorized filter.
    Two keyed exchanges, both over pre-aggregated tables."""
    import polars as pl

    from ray.data.aggregate import Sum

    from .cdc_queries import _fact_cached
    from ..util import empty_frame

    facts = _fact_cached(sf_dir)

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["repo", "commit_seq"]))
            .select("repo", (pl.col("commit_seq") // BURST_BUCKET).alias("bkt"))
            .group_by(["repo", "bkt"])
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    buckets = (
        facts.map_batches(partial, batch_format="pyarrow")
        .groupby(["repo", "bkt"])
        .aggregate(Sum("pn", alias_name="n"))
        .materialize()  # bucket-table-sized (seq_range/width x repos)
    )

    # per-repo totals: fold the (small) bucket table driver-side — the
    # broadcast-dim discipline (repo count is config-bounded)
    totals: dict[str, tuple[int, int]] = {}
    for ref in buckets.to_arrow_refs():
        import ray

        t = ray.get(ref)
        if len(t) == 0 or "repo" not in t.schema.names:
            continue  # sort-groupby can emit schema-less empty blocks
        for repo, n in zip(t["repo"].to_pylist(), t["n"].to_pylist()):
            tot, nb = totals.get(repo, (0, 0))
            totals[repo] = (tot + n, nb + 1)

    def keep(t: pa.Table) -> pa.Table:
        if len(t) == 0 or "repo" not in t.schema.names:
            return pa.table(
                {
                    "repo": pa.array([], pa.string()),
                    "bkt": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "repo_total": pa.array([], pa.int64()),
                    "n_buckets": pa.array([], pa.int64()),
                }
            )
        import numpy as np

        repos = t["repo"].to_pylist()
        tot = pa.array([totals[r][0] for r in repos], pa.int64())
        nb = pa.array([totals[r][1] for r in repos], pa.int64())
        n = t["n"].to_numpy()
        mask = pa.array(
            n * nb.to_numpy() > BURST_FACTOR * tot.to_numpy()
        )
        return pa.table(
            {
                "repo": t["repo"],
                "bkt": t["bkt"],
                "n": t["n"],
                "repo_total": tot,
                "n_buckets": nb,
            }
        ).filter(mask)

    out = buckets.map_batches(keep, batch_format="pyarrow").materialize()
    if out.count() == 0:
        return empty_frame(
            repo="string",
            bkt="int64",
            n="int64",
            repo_total="int64",
            n_buckets="int64",
        )
    return out


SQL_BURSTS = f"""
WITH {CHANGES_FROM_EVENTS_SQL}, {_VALID},
b AS (
  SELECT repo, commit_seq // {BURST_BUCKET} AS bkt,
         CAST(COUNT(*) AS BIGINT) AS n
  FROM dedup GROUP BY repo, commit_seq // {BURST_BUCKET}
),
r AS (
  SELECT repo, CAST(SUM(n) AS BIGINT) AS repo_total,
         CAST(COUNT(*) AS BIGINT) AS n_buckets
  FROM b GROUP BY repo
)
SELECT b.repo, b.bkt, b.n, r.repo_total, r.n_buckets
FROM b JOIN r USING (repo)
WHERE b.n * r.n_buckets > {BURST_FACTOR} * r.repo_total
"""
