"""End-to-end corpus curation: the composition a pre-training data
pipeline actually ships — quality gate ∧ language gate ∧ keep-one-per-
duplicate-cluster.

Physical shape: BOTH per-doc gate signals (alpha ratio + language id)
come from ONE fused ``map_batches`` pass over the corpus — the scorer
kernels are shared polars expression builders from textops, so the fused
gate is definitionally identical to chaining text_quality + text_langid
but reads and decodes the ``text`` column once instead of twice and
needs no doc_id join shuffle at all.  The duplicate drop-set (non-
canonical members of near-dup clusters) is removed adaptively: its size
is COUNTED first, a bounded set (<= DROP_GATHER_LIMIT id rows) takes a
broadcast vectorized filter, and anything larger — the duplicate-heavy
100 TB corpus where the drop-set is output-sized — stays a Dataset and
is removed with a bucketed ANTI-join on doc_id, so an unbounded set
never lands on the driver; either way the gate runs BEFORE the dedup
step so already-rejected docs never shuffle at all.
"""

from __future__ import annotations

import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..util import worker_runtime_env

MIN_ALPHA_RATIO = 0.82
MIN_STOPWORD_SCORE = 0.02
#: Bounded driver hop for the duplicate drop-set: id rows only (8 B each).
#: Below this the drop ids broadcast into a vectorized filter (no shuffle
#: of the gated side); above it the drop-set stays a Dataset and the
#: survivors anti-join it distributed.
DROP_GATHER_LIMIT = 2_000_000


from dataclasses import dataclass


@dataclass(frozen=True)
class CurationSpec:
    """User-extension surface for the training-data pipeline — the
    curation analog of ``config.ReplaySpec`` (SURVEY §2.10: job specs are
    plain dataclasses, not a service registry).  Every knob the curation
    chain hard-codes by default is overridable per job."""

    min_alpha_ratio: float = MIN_ALPHA_RATIO
    min_stopword_score: float = MIN_STOPWORD_SCORE
    drop_duplicates: bool = True  # keep-one-per-near-dup-cluster
    pack_capacity: int = 2048  # tokens per packed context window


def corpus_filter(sf_dir: str, spec: CurationSpec = CurationSpec()) -> rd.Dataset:
    """doc ids that survive curation, with the signals that admitted them."""
    from ..stages.join import bucketed_join
    from .graph_cc import dedup_clusters
    from .textops import _alpha_ratio_expr, _with_langid

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def gate(t: pa.Table) -> pa.Table:
        """Fused quality + language gate: one pass over the text column
        computes both admission signals (shared textops kernels) and
        applies both predicates in the same batch."""
        df = _with_langid(pl.from_arrow(t).with_columns(_alpha_ratio_expr()))
        return (
            df.filter(
                (pl.col("alpha_ratio") >= spec.min_alpha_ratio)
                & (pl.col("pred_lang") != "und")
                & (pl.col("stopword_score") >= spec.min_stopword_score)
            )
            .select("doc_id", "alpha_ratio", "pred_lang")
            .to_arrow()
        )

    gated = docs.map_batches(gate, batch_format="pyarrow", **worker_runtime_env())
    if not spec.drop_duplicates:
        return gated

    # non-canonical members of duplicate clusters, kept as a Dataset; the
    # drop-set is output-sized on a duplicate-heavy corpus, so the plan is
    # adaptive (the verify_candidate_pairs discipline, dedup.py): a COUNTED,
    # bounded id set takes the broadcast-filter fast path (ids only, capped
    # at DROP_GATHER_LIMIT rows ~16 MB — no shuffle of the gated side);
    # anything larger anti-joins distributed and never lands on the driver
    drop_ids = dedup_clusters(sf_dir).map_batches(
        lambda t: t.filter(pc.not_equal(t["doc_id"], t["cluster_id"])).select(
            ["doc_id"]
        ),
        batch_format="pyarrow",
        **worker_runtime_env(),
    ).materialize()
    n_drop = drop_ids.count()
    if n_drop == 0:
        return gated
    if n_drop <= DROP_GATHER_LIMIT:
        import numpy as np
        import ray

        arr = np.sort(
            np.concatenate(
                [
                    t["doc_id"].to_numpy()
                    for t in ray.get(drop_ids.to_arrow_refs())
                    if len(t)
                ]
            )
        )
        drop_ref = ray.put(arr)

        def drop(t: pa.Table) -> pa.Table:
            return t.filter(pa.array(~np.isin(t["doc_id"].to_numpy(), ray.get(drop_ref))))

        return gated.map_batches(drop, batch_format="pyarrow", **worker_runtime_env())
    return bucketed_join(gated, drop_ids, on=["doc_id"], how="anti", num_buckets=8)


def _sql() -> str:
    from .graph_cc import SQL_DEDUP_CLUSTERS
    from .textops import SQL_TEXT_LANGID, SQL_TEXT_QUALITY

    return f"""
WITH q AS ({SQL_TEXT_QUALITY}),
l AS ({SQL_TEXT_LANGID}),
c AS ({SQL_DEDUP_CLUSTERS})
SELECT q.doc_id, q.alpha_ratio, l.pred_lang
FROM q
JOIN l ON l.doc_id = q.doc_id
WHERE q.alpha_ratio >= {MIN_ALPHA_RATIO}
  AND l.pred_lang <> 'und'
  AND l.stopword_score >= {MIN_STOPWORD_SCORE}
  AND q.doc_id NOT IN (SELECT doc_id FROM c WHERE doc_id <> cluster_id)
"""


SQL_CORPUS_FILTER = _sql()


#: Benchmark membership rule for the decontamination screen: doc_id %
#: BENCH_MOD == 0 plays the held-out eval set (deterministic ~1% of the
#: corpus at test scale; in production this is the benchmark suite).
BENCH_MOD = 101
#: distinct shared 3-gram shingles at or above which a doc is flagged
DECON_MIN_HITS = 3
#: Bounded driver hop for the benchmark shingle-hash set (8 B rows).  The
#: benchmark is usually config-sized, but the membership RULE here makes
#: it corpus-proportional (~1%), so the gather is counted first — at or
#: below this many per-block-unique partial rows the set broadcasts into
#: the searchsorted probe; above it the screen switches to a distributed
#: semi-join + groupby plan and nothing lands on the driver.
BENCH_GATHER_LIMIT = 2_000_000


def decontaminate(sf_dir: str) -> rd.Dataset:
    """Benchmark decontamination screen: flag training docs sharing >=
    DECON_MIN_HITS distinct word-3-gram shingles with the benchmark set —
    the eval-contamination filter a pre-training pipeline runs before
    mixing (the n-gram-overlap method of the public train-test-overlap
    literature).

    Physical plan — adaptive, the corpus_filter drop-set discipline: the
    benchmark's shingle-hash set is built with per-block unique partials
    and its row count CHECKED first.  At or below ``BENCH_GATHER_LIMIT``
    (a config-sized benchmark — the common case) the set gathers bounded,
    broadcasts sorted via ``ray.put``, and each corpus batch counts
    per-doc distinct membership with a searchsorted probe: one streaming
    pass, NO shuffle.  Above the cap (a corpus-proportional "benchmark",
    as the doc_id % BENCH_MOD rule here makes it at extreme scale) the
    per-doc distinct (doc_id, shingle-hash) pairs SEMI-join the partials
    distributed (``bucketed_join(how="semi")`` dedups right keys
    in-bucket) and a groupby counts hits — nothing corpus-sized ever
    lands on the driver.  Hashed (xxhash64) shingles stand in for string
    shingles exactly as in the dedup family's oracles — collision
    probability at 64 bits is negligible at any candidate scale.

    Returns (doc_id, n_hits) for flagged non-benchmark docs."""
    import numpy as np
    import ray

    from ..functions.sketch import _batch_shingle_hashes

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bench_partial(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        b = t.filter(pa.array(ids % BENCH_MOD == 0))
        if len(b) == 0:
            return pa.table({"h": pa.array([], pa.uint64())})
        hashes, _ = _batch_shingle_hashes(b["text"].combine_chunks(), 3)
        return pa.table({"h": np.unique(hashes)})

    mat = docs.map_batches(
        bench_partial, batch_format="pyarrow", **worker_runtime_env()
    ).materialize()
    # partial-row count bounds the global unique count from above, so the
    # gather decision never needs its own dedup shuffle
    if mat.count() > BENCH_GATHER_LIMIT:
        return _decontaminate_distributed(docs, mat)
    parts = [t["h"].to_numpy() for t in ray.get(mat.to_arrow_refs()) if len(t)]
    bench = np.unique(np.concatenate(parts)) if parts else np.empty(0, np.uint64)
    bench_ref = ray.put(bench)  # sorted by construction (np.unique)

    def score(t: pa.Table) -> pa.Table:
        bench = ray.get(bench_ref)
        ids = t["doc_id"].to_numpy()
        t = t.filter(pa.array(ids % BENCH_MOD != 0))
        if len(t) == 0 or bench.size == 0:
            return pa.table(
                {"doc_id": pa.array([], pa.int64()), "n_hits": pa.array([], pa.int64())}
            )
        # fully vectorized per batch: membership probe over the flat
        # shingle stream, then per-doc DISTINCT hit counts via one
        # lexsort + boundary bincount (no per-doc unique loop — the
        # same segment trick as textops.text_repetition)
        hashes, offsets = _batch_shingle_hashes(t["text"].combine_chunks(), 3)
        ids = t["doc_id"].to_numpy()
        di = np.repeat(np.arange(len(t)), np.diff(offsets))
        pos = np.searchsorted(bench, hashes)
        pos[pos == bench.size] = 0
        hit = bench[pos] == hashes
        dh, hh = di[hit], hashes[hit]
        order = np.lexsort((hh, dh))
        d_s, h_s = dh[order], hh[order]
        new = np.ones(len(d_s), dtype=bool)
        new[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        n_hits = np.bincount(d_s[new], minlength=len(t))
        keep = n_hits >= DECON_MIN_HITS
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "n_hits": pa.array(n_hits[keep].astype(np.int64)),
            }
        )

    return docs.map_batches(score, batch_format="pyarrow", **worker_runtime_env())


def _decontaminate_distributed(docs: rd.Dataset, bench_partials: rd.Dataset) -> rd.Dataset:
    """Scale arm of :func:`decontaminate` — the benchmark shingle set is
    too large to broadcast, so it stays a Dataset: per-doc distinct
    (doc_id, shingle-hash) pairs SEMI-join it (right keys dedup in-bucket)
    and per-batch partial counts Sum per doc.  Each (doc_id, h) pair is
    globally unique (docs never split across batches, pairs dedup
    in-batch), so the summed partials ARE the distinct hit counts."""
    import numpy as np

    from ray.data.aggregate import Sum

    from ..functions.sketch import distinct_doc_shingle_pairs
    from ..stages.join import bucketed_join

    empty_pairs = pa.table(
        {"doc_id": pa.array([], pa.int64()), "h": pa.array([], pa.uint64())}
    )

    def pair_emit(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy()
        t = t.filter(pa.array(ids % BENCH_MOD != 0))
        if len(t) == 0:
            return empty_pairs
        # shared flat-shingle + lexsort-dedup kernel (functions/sketch)
        return distinct_doc_shingle_pairs(
            t["doc_id"].to_numpy(), t["text"].combine_chunks(), 3
        )

    pairs = docs.map_batches(pair_emit, batch_format="pyarrow", **worker_runtime_env())
    hits = bucketed_join(pairs, bench_partials, on=["h"], how="semi", num_buckets=32)

    def count_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t.select(["doc_id"]))
            .group_by("doc_id")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    return (
        hits.map_batches(count_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("doc_id")
        .aggregate(Sum("pn", alias_name="n_hits"))
        .map_batches(
            # guard: sort-based groupby can emit schema-less empty blocks
            lambda t: pa.table(
                {"doc_id": t["doc_id"], "n_hits": t["n_hits"].cast(pa.int64())}
            ).filter(pc.greater_equal(t["n_hits"], DECON_MIN_HITS))
            if len(t) and "doc_id" in t.schema.names
            else pa.table(
                {"doc_id": pa.array([], pa.int64()), "n_hits": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )


SQL_DECONTAMINATE = rf"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS tk
  FROM documents
),
sh AS (
  SELECT doc_id,
    CASE WHEN len(tk)=0 OR (len(tk)=1 AND tk[1]='') THEN []
         WHEN len(tk) < 3 THEN [array_to_string(tk,' ')]
         ELSE list_transform(range(1, len(tk)-1),
                             i -> tk[i]||' '||tk[i+1]||' '||tk[i+2])
    END AS shingles
  FROM toks
),
u AS (SELECT doc_id, unnest(shingles) AS s FROM sh),
bench AS (SELECT DISTINCT s FROM u WHERE doc_id % {BENCH_MOD} = 0)
SELECT u.doc_id, CAST(COUNT(DISTINCT u.s) AS BIGINT) AS n_hits
FROM u JOIN bench b ON b.s = u.s
WHERE u.doc_id % {BENCH_MOD} <> 0
GROUP BY u.doc_id
HAVING COUNT(DISTINCT u.s) >= {DECON_MIN_HITS}
"""


def corpus_build(
    sf_dir: str, out_dir: str, *, spec: CurationSpec = CurationSpec(), capacity: int | None = None
) -> dict:
    """The second flagship: end-to-end training-corpus build.

        documents --corpus_filter--> surviving docs
                  --join n_chars----> token counts
                  --per-lang pack---> context-window assignment
                  --write_partitioned(by=lang)--> resumable parquet layout

    Returns {"written": ..., "skipped": ..., "docs": n}.  Rerunning after
    a partial failure skips completed language partitions (sinks.py
    contract); the whole build is deterministic, so a resumed run
    produces byte-identical output."""
    from ..sinks import write_partitioned
    from ..stages.join import bucketed_join

    cap = capacity if capacity is not None else spec.pack_capacity
    kept = corpus_filter(sf_dir, spec)

    # fetch n_chars for surviving docs: broadcast the (tiny) kept-id set
    # is wrong at 100 TB — instead co-shuffle docs + kept ids once
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])
    enriched = bucketed_join(
        kept.select_columns(["doc_id", "pred_lang"]), docs, on=["doc_id"], num_buckets=8
    )

    # partitioned two-phase prefix sum — never a whole-language single
    # task (see mixing.pack_assign); materialize once: both the count and
    # the sink consume the same blocks
    from .mixing import pack_assign

    packed = pack_assign(enriched, capacity=cap, lang_col="pred_lang").materialize()
    summary = write_partitioned(packed, out_dir, by="pred_lang")
    summary["docs"] = packed.count()
    return summary
