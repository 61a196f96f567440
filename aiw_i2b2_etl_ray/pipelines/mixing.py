"""Training-data curation ops: stratified sampling, weighted source
mixing, and sequence packing.

These are the dataset-shaping stages a pre-training pipeline runs after
dedup/quality filtering.  All three are deterministic (hash- or
order-defined, no RNG state), so results are stable across runs, cluster
sizes and partitionings — the property that makes them resumable and
driver-oracle-checkable.

Scale shapes:
* sampling/mixing are per-row hash decisions (embarrassingly parallel, no
  shuffle; the per-group sample adds the usual local-top-k combiner before
  one tiny keyed fold);
* packing needs per-group *order* — one keyed shuffle, then a vectorized
  prefix-sum, the same partitioned-sort contract as sessionization
  (pipelines/windows.py).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import polars as pl
import pyarrow as pa
import ray.data as rd

from ..functions.hashing import (
    md5_digests_of_ints,
    md5_hex_from_digests,
    md5_hex_of_ints,
    md5_uniform32_of_ints,
    md5_uniform52_from_digests,
    md5_uniform52_of_ints,
)
from ..stages.exchange import keyed_fold
from ..util import worker_runtime_env

SAMPLE_K = 20  # docs kept per language stratum


def _md5_ranked(block: pa.Table, key: str, rank_name: str, extra=()) -> pl.DataFrame:
    """A keyed-fold block with each ``key`` group's docs numbered 1.. in
    md5-rank (``rk``) order as ``rank_name``."""
    df = pl.from_arrow(block.select([key, "doc_id", "rk", *extra]))
    rank = pl.int_range(1, pl.len() + 1, dtype=pl.Int64).over(key)
    return df.sort([key, "rk"], maintain_order=True).with_columns(rank.alias(rank_name))

# sampling decisions are keyed on md5(str(doc_id)) — portable to the
# DuckDB oracle (`md5(CAST(doc_id AS VARCHAR))`) and uniform enough; the
# digest itself is the vectorized single-block MD5 kernel
# (functions/hashing.md5_digests_of_ints), not a per-row hashlib loop.


def sample_per_lang(sf_dir: str) -> rd.Dataset:
    """Deterministic stratified sample: K docs per language, chosen by
    md5(doc_id) rank — a reproducible 'random' sample that needs no RNG
    state and never changes under repartitioning.

    Plan: per-batch local top-K per lang (combiner) -> keyed global top-K;
    at most K rows per (batch, lang) ever shuffle."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t).with_columns(
            pl.Series("rk", md5_hex_of_ints(t["doc_id"].to_numpy()))
        )
        return (
            df.sort(["lang", "rk"])
            .group_by("lang", maintain_order=True)
            .head(SAMPLE_K)
            .to_arrow()
        )

    def final(block: pa.Table) -> pa.Table:
        df = _md5_ranked(block, "lang", "sample_rank")
        return df.filter(pl.col("sample_rank") <= SAMPLE_K).drop("rk").to_arrow()

    partials = ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
    return keyed_fold(partials, ["lang"], final)


SQL_SAMPLE_PER_LANG = f"""
SELECT lang, doc_id, sample_rank FROM (
  SELECT lang, doc_id,
         ROW_NUMBER() OVER (PARTITION BY lang ORDER BY md5(CAST(doc_id AS VARCHAR))) AS sample_rank
  FROM documents
) WHERE sample_rank <= {SAMPLE_K}
"""


def mix_sources(sf_dir: str) -> rd.Dataset:
    """Weighted source mixing: keep each doc with probability w(source),
    decided by a uniform hash of its id — the deterministic version of the
    mixture-weights resample every pre-training data recipe needs.  Weight
    here derives from the source id (src<N> -> ((N % 4)+1)/4) to exercise
    4 distinct rates; a real recipe passes a weights dict the same way the
    CDC spec passes mappings.  Pure per-row filter: no shuffle, no state."""
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "lang"]
    )

    def keep(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        srcnum = df["source"].str.slice(3).cast(pl.Int64)
        w = ((srcnum % 4) + 1).cast(pl.Float64) / 4.0
        u = md5_uniform32_of_ints(t["doc_id"].to_numpy())
        out = df.with_columns(pl.Series("u", u), w.alias("w")).filter(
            pl.col("u") < pl.col("w")
        )
        return out.select("doc_id", "source", "lang").to_arrow()

    return ds.map_batches(keep, batch_format="pyarrow", **worker_runtime_env())


SQL_MIX_SOURCES = """
SELECT doc_id, source, lang FROM (
  SELECT doc_id, source, lang,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8)) AS BIGINT) / 4294967296.0 AS u,
         ((CAST(substr(source, 4) AS BIGINT) % 4) + 1) / 4.0 AS w
  FROM documents
) WHERE u < w
"""


PACK_CAPACITY = 2048  # tokens per packed context window


def _block_pack_partial_fn(t: pa.Table, lang_col: str, chars_col: str):
    """Per-language token sums for ONE sorted block (languages are
    contiguous after the (lang, doc_id) sort): a handful of (lang, sum)
    rows per block — the only thing that ever reaches the driver."""
    if len(t) == 0:
        return [], []
    toks = (t[chars_col].to_numpy() // 4).astype(np.int64)
    langs = t[lang_col].to_numpy(zero_copy_only=False)
    first = np.ones(len(t), dtype=bool)
    first[1:] = langs[1:] != langs[:-1]
    idx = np.flatnonzero(first)
    return langs[idx].tolist(), np.add.reduceat(toks, idx).tolist()


def _block_pack_assign_fn(
    t: pa.Table,
    bases: dict,
    capacity: int,
    lang_col: str,
    order_col: str,
    chars_col: str,
) -> pa.Table:
    """Vectorized chunk assignment for one sorted block given its
    per-language running-token base offsets (phase 3: zero row motion)."""
    toks = (t[chars_col].to_numpy() // 4).astype(np.int64)
    langs = t[lang_col].to_numpy(zero_copy_only=False)
    first = np.ones(len(t), dtype=bool)
    first[1:] = langs[1:] != langs[:-1]
    idx = np.flatnonzero(first)
    seg = np.cumsum(first) - 1
    before = np.cumsum(toks) - toks  # tokens before each row, block-global
    in_lang_before = before - before[idx][seg]
    base = np.asarray([bases[l] for l in langs[idx]], dtype=np.int64)[seg]
    chunk = (base + in_lang_before) // capacity
    return pa.table(
        {
            order_col: t[order_col],
            lang_col: t[lang_col],
            "n_tokens": pa.array(toks),
            "chunk_id": pa.array(chunk.astype(np.int64)),
        }
    )


def pack_assign(
    ds: rd.Dataset,
    *,
    capacity: int,
    lang_col: str = "lang",
    order_col: str = "doc_id",
    chars_col: str = "n_chars",
) -> rd.Dataset:
    """Distributed sequence packing: assign rows (in deterministic
    ``order_col`` order per ``lang_col`` stratum) to fixed-capacity
    context windows by running token count — a partitioned TWO-PHASE
    PREFIX SUM, never a whole-language single task (the r04-verdict
    scale-killer: ``groupby(lang).map_groups(pack)`` put the entire
    English stratum — tens of GB at 10^10 docs — into one worker's
    sequential cumsum):

    1. one (lang, order) sort — range-partitioned, in-block sorted;
    2. per-block per-lang token partials (a few (lang, sum) rows per
       block move to the driver — block-count-sized, like
       ``stages/keymap.global_index``'s length fold);
    3. driver prefix-fold of block bases, then a per-block vectorized
       chunk assignment with zero row motion.

    Deterministic and partitioning-invariant: chunk =
    floor(running_before / capacity) depends only on the global (lang,
    order) prefix sums."""
    import ray

    blocks = ds.sort([lang_col, order_col]).materialize().to_arrow_refs()
    partial = ray.remote(num_cpus=0.5)(_block_pack_partial_fn)
    summaries = ray.get(
        [partial.remote(b, lang_col, chars_col) for b in blocks]
    )
    running: dict = {}
    tagged = []
    assign = ray.remote(num_cpus=0.5)(_block_pack_assign_fn)
    for b, (langs, sums) in zip(blocks, summaries):
        if not langs:  # empty (possibly schema-less) sort output block
            continue
        bases = {l: running.get(l, 0) for l in langs}
        tagged.append(
            assign.remote(b, bases, capacity, lang_col, order_col, chars_col)
        )
        for l, s in zip(langs, sums):
            running[l] = running.get(l, 0) + s
    if not tagged:
        return rd.from_arrow(
            pa.table(
                {
                    order_col: pa.array([], pa.int64()),
                    lang_col: pa.array([], pa.string()),
                    "n_tokens": pa.array([], pa.int64()),
                    "chunk_id": pa.array([], pa.int64()),
                }
            )
        )
    return rd.from_arrow_refs(tagged)


def pack_sequences(sf_dir: str) -> rd.Dataset:
    """Sequence packing: assign docs (in deterministic doc_id order, per
    language) to fixed-capacity context windows by running token count —
    chunk = floor((running_total - tokens) / capacity), the contiguous
    packing a distributed writer can compute with one prefix sum instead
    of a sequential best-fit loop.  Token count is the engine's cheap
    deterministic proxy (chars/4, matching text_tokens' scale contract).

    Physical plan: see :func:`pack_assign` (partitioned two-phase prefix
    sum — one sort, block-count-sized driver fold, zero row motion)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "n_chars"])
    return pack_assign(ds, capacity=PACK_CAPACITY)


SQL_PACK_SEQUENCES = f"""
SELECT doc_id, lang, n_tokens,
       CAST((cum - n_tokens) // {PACK_CAPACITY} AS BIGINT) AS chunk_id
FROM (
  SELECT doc_id, lang, n_chars // 4 AS n_tokens,
         SUM(n_chars // 4) OVER (PARTITION BY lang ORDER BY doc_id
                                 ROWS UNBOUNDED PRECEDING) AS cum
  FROM documents
)
"""


def corpus_shuffle(sf_dir: str) -> rd.Dataset:
    """Deterministic training-order shuffle: every doc gets a dense global
    ``shuffle_rank`` following md5(doc_id) order — the reproducible
    'random' epoch ordering a pre-training run needs (stable across
    cluster sizes and repartitionings, unlike ``random_shuffle``).

    Plan: one vectorized hash-rank pass + the ``stages/keymap.global_index``
    machinery (one distributed sort, per-block lengths to the driver,
    per-block offset tagging — rows never leave their block after the
    sort)."""
    from ..stages.keymap import global_index

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "lang"])

    def rank(t: pa.Table) -> pa.Table:
        return t.append_column(
            "rk", pa.array(md5_hex_of_ints(t["doc_id"].to_numpy()))
        )

    ranked = global_index(
        ds.map_batches(rank, batch_format="pyarrow", **worker_runtime_env()),
        ["rk", "doc_id"],
        id_name="shuffle_rank",
    )
    return ranked.select_columns(["doc_id", "lang", "shuffle_rank"])


SQL_CORPUS_SHUFFLE = """
SELECT doc_id, lang,
       ROW_NUMBER() OVER (ORDER BY md5(CAST(doc_id AS VARCHAR)), doc_id)
         AS shuffle_rank
FROM documents
"""


WEIGHTED_K = 25


def weighted_sample(sf_dir: str) -> rd.Dataset:
    """Weighted sampling WITHOUT replacement (top-K per corpus): the
    Efraimidis-Spirakis A-ES scheme with deterministic hash randomness —
    key = ln(u) / w with u = md5-uniform(doc_id) and w = n_chars (longer
    docs proportionally likelier), take the K largest keys.  This is the
    importance-weighted selection a data recipe uses to oversample
    high-value documents, reproducible across runs and partitionings.

    Plan: per-batch local top-K (combiner) -> one tiny global fold —
    identical shape to sample_per_lang, so at most K rows per batch
    shuffle."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "n_chars"])

    def key_batch(t: pa.Table) -> pa.Table:
        # 52-bit mantissa-exact uniform in [0,1)
        u = md5_uniform52_of_ints(t["doc_id"].to_numpy())
        w = t["n_chars"].to_numpy().astype(np.float64)
        key = np.log(np.maximum(u, 1e-300)) / np.maximum(w, 1.0)
        df = pl.from_arrow(t).with_columns(pl.Series("es_key", key))
        return df.top_k(min(WEIGHTED_K, len(df)), by="es_key").to_arrow()

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        g = g.nlargest(WEIGHTED_K, "es_key").sort_values("es_key", ascending=False)
        g = g.reset_index(drop=True)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_chars": g["n_chars"].to_numpy(),
                "pick_rank": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return (
        ds.map_batches(key_batch, batch_format="pyarrow", **worker_runtime_env())
        .repartition(1)
        .map_batches(fold, batch_format="pandas")
    )


SQL_WEIGHTED_SAMPLE = f"""
SELECT doc_id, n_chars, pick_rank FROM (
  SELECT doc_id, n_chars,
         ROW_NUMBER() OVER (
           ORDER BY ln(greatest(
             CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 13)) AS BIGINT)
               / 4503599627370496.0, 1e-300))
             / greatest(n_chars, 1) DESC
         ) AS pick_rank
  FROM documents
) WHERE pick_rank <= {WEIGHTED_K}
"""


# --- deterministic train/val/test split -------------------------------------

SPLIT_TRAIN = 0.90  # md5-uniform draw below -> 'train'
SPLIT_VAL = 0.95  # below -> 'val'; else 'test'


def corpus_split(sf_dir: str) -> rd.Dataset:
    """Deterministic train/val/test split manifest: every doc lands in a
    split by its md5(doc_id) uniform draw (90/5/5), and the result is the
    per-(source, split) census a training run checks before consuming the
    splits.  Hash assignment (not rank) means the split of a given doc
    NEVER changes when the corpus grows — the property that keeps eval
    sets stable across crawl refreshes.

    Plan: per-row hash decision + per-batch (source, split) partial
    counts (combiner) -> a tiny keyed groupby; nothing corpus-sized ever
    shuffles and nothing lands on the driver."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "source", "n_chars"]
    )

    def partial(t: pa.Table) -> pa.Table:
        u = md5_uniform52_of_ints(t["doc_id"].to_numpy())
        split = np.where(
            u < SPLIT_TRAIN, "train", np.where(u < SPLIT_VAL, "val", "test")
        )
        return (
            pl.from_arrow(t)
            .with_columns(pl.Series("split", split))
            .group_by(["source", "split"])
            .agg(
                pl.len().cast(pl.Int64).alias("pn"),
                pl.col("n_chars").sum().alias("pc"),
            )
            .to_arrow()
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["source", "split"])
        .aggregate(Sum("pn", alias_name="n_docs"), Sum("pc", alias_name="sum_chars"))
    )


SQL_CORPUS_SPLIT = f"""
SELECT source,
       CASE WHEN u < {SPLIT_TRAIN} THEN 'train'
            WHEN u < {SPLIT_VAL} THEN 'val'
            ELSE 'test' END AS split,
       CAST(COUNT(*) AS BIGINT) AS n_docs,
       CAST(SUM(n_chars) AS BIGINT) AS sum_chars
FROM (
  SELECT source, n_chars,
         CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 13)) AS BIGINT)
           / 4503599627370496.0 AS u
  FROM documents
)
GROUP BY 1, 2
"""


# --- temperature-scaled source mixing ----------------------------------------

TEMP_SCALE = 8.0  # quota_s = min(c_s, floor(TEMP_SCALE * sqrt(c_s)))


def mix_temperature(sf_dir: str) -> rd.Dataset:
    """Temperature-scaled source mixing at alpha = 0.5: each source's kept
    quota is ``floor(TEMP_SCALE * sqrt(count_s))`` (capped at the source
    size), the exponent-smoothing recipe multilingual/multi-source
    pre-training uses to up-weight small sources relative to large ones
    without oversampling.  sqrt is IEEE-correctly-rounded in both numpy
    and the SQL oracle and TEMP_SCALE is a power of two, so the quota is
    bit-exactly reproducible.  Selection inside a source is by md5 rank
    (stable under growth of OTHER sources, reproducible across
    partitionings).

    Plan: pass 1 is a tiny per-source count fold (combiner partials ->
    source-count-sized groupby -> driver fold bounded by the number of
    sources); pass 2 is a deterministic hash-THRESHOLD pre-filter: keep a
    doc iff its 52-bit md5 prefix draw <= SAFETY * quota_s / c_s.  The
    prefix draw orders consistently with the full hex rank, so the
    survivor set is a guaranteed superset of the top-quota whenever it
    counts >= quota (counted per source on the driver, source-count-sized;
    shortfall — Chernoff-tail rare — escalates the threshold x4 and
    refilters).  Only the ~SAFETY*quota = O(sqrt(c_s)) survivors per
    source ever shuffle into the exact rank stage, so no task receives a
    whole source (a per-batch local top-quota combiner could NOT
    guarantee this: at scale quota >> rows-per-source-per-batch and the
    combiner never filters)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "source"])
    counts = _source_counts(ds)
    quotas = {
        s: int(min(c, np.floor(TEMP_SCALE * np.sqrt(float(c))))) for s, c in counts.items()
    }
    survivors = _mix_survivors(ds, quotas, counts)

    def final(block: pa.Table) -> pa.Table:
        df = _md5_ranked(block, "source", "pick_rank", extra=["quota"])
        df = df.filter(pl.col("pick_rank") <= pl.col("quota"))
        return df.select("source", "doc_id", "pick_rank").to_arrow()

    return keyed_fold(survivors, ["source"], final)


MIX_SAFETY = 2.0  # threshold head-room: expected survivors = SAFETY * quota


def _source_counts(ds: rd.Dataset) -> dict[str, int]:
    """Per-source row counts: combiner partials -> source-keyed groupby ->
    driver fold bounded by the number of sources."""
    import ray
    from ray.data.aggregate import Sum

    def count_partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by("source")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    agg = (
        ds.map_batches(count_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("source")
        .aggregate(Sum("pn", alias_name="n"))
    )
    counts: dict[str, int] = {}
    for t in ray.get(agg.materialize().to_arrow_refs()):
        if len(t) == 0 or "source" not in t.schema.names:
            continue  # sort-groupby empty reduce partitions are schema-less
        counts.update(zip(t["source"].to_pylist(), t["n"].to_pylist()))
    return counts


def _mix_survivors(
    ds: rd.Dataset, quotas: dict[str, int], counts: dict[str, int]
) -> rd.Dataset:
    """Materialized superset of each source's top-quota docs by md5 rank,
    O(sqrt(c_s)) rows per source: threshold filter on the 52-bit md5
    prefix, escalated x4 on the (rare) per-source shortfall.  Correctness
    of the superset: the 52-bit draw is a PREFIX of the hex rank, so
    u52(a) < u52(b) implies rk(a) < rk(b); if >= quota docs pass the
    threshold, the quota-th doc by rank must itself pass it."""
    import ray

    thr = {
        s: min(1.0, MIX_SAFETY * q / max(counts[s], 1)) for s, q in quotas.items()
    }
    while True:
        thr_ref = ray.put((thr, quotas))

        def keep_draw(t: pa.Table) -> pa.Table:
            thr, quotas = ray.get(thr_ref)
            ids = t["doc_id"].to_numpy()
            # ONE compression pass: the u52 draw and the hex rank come
            # from the same digest matrix (u52 is a prefix of the hex
            # order), and the hex expansion runs only on survivors
            dig = md5_digests_of_ints(ids)
            df = (
                pl.from_arrow(t)
                .with_columns(
                    pl.Series("u", md5_uniform52_from_digests(dig)),
                    pl.col("source")
                    .replace_strict(thr, default=1.0, return_dtype=pl.Float64)
                    .alias("thr"),
                    pl.col("source")
                    .replace_strict(quotas, default=0, return_dtype=pl.Int64)
                    .alias("quota"),
                )
                .with_row_index("_ri")
                .filter(pl.col("u") <= pl.col("thr"))
            )
            keep = df["_ri"].to_numpy()
            return (
                df.with_columns(
                    pl.Series("rk", md5_hex_from_digests(dig[keep]))
                )
                .select("doc_id", "source", "rk", "quota")
                .to_arrow()
            )

        survivors = ds.map_batches(
            keep_draw, batch_format="pyarrow", **worker_runtime_env()
        ).materialize()
        # survivor CENSUS only (source-count-sized), never the rows
        got: dict[str, int] = {s: 0 for s in quotas}
        for t in ray.get(survivors.to_arrow_refs()):
            if len(t) == 0 or "source" not in t.schema.names:
                continue
            for s, n in zip(*np.unique(t["source"].to_numpy(zero_copy_only=False), return_counts=True)):
                got[str(s)] = got.get(str(s), 0) + int(n)
        short = [s for s, q in quotas.items() if got.get(s, 0) < q and thr[s] < 1.0]
        if not short:
            return survivors
        for s in short:
            thr[s] = min(1.0, thr[s] * 4.0)


SQL_MIX_TEMPERATURE = f"""
WITH q AS (
  SELECT source,
         LEAST(COUNT(*),
               CAST(FLOOR({TEMP_SCALE} * sqrt(CAST(COUNT(*) AS DOUBLE))) AS BIGINT)
         ) AS quota
  FROM documents GROUP BY source
), r AS (
  SELECT source, doc_id,
         ROW_NUMBER() OVER (
           PARTITION BY source ORDER BY md5(CAST(doc_id AS VARCHAR))
         ) AS pick_rank
  FROM documents
)
SELECT r.source, r.doc_id, r.pick_rank
FROM r JOIN q USING (source)
WHERE r.pick_rank <= q.quota
"""
