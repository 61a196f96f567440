"""Text-analysis ops over ``documents``: token counting, quality scoring,
language-ID heuristic, document fingerprinting.  The hot full-corpus maps
are polars expressions over zero-copy Arrow batches (Rust regex kernels,
no per-batch pandas conversion); only the lookahead-regex BPE counter
needs Python ``re``.  All scorer kernels are shared module-level polars
expression builders so the fused curation gate (curation.corpus_filter)
computes every signal in ONE corpus pass."""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions.hashing import md5_hex, rolling_fingerprint
from ..functions.numeric import round_half_away, round_half_away_pl
from ..util import worker_runtime_env

_WORD = r"[0-9A-Za-z_]+"  # \w without unicode surprises; matches RE2+re


def _token_count_exprs() -> list[pl.Expr]:
    return [
        pl.col("text").str.count_matches(_WORD).cast(pl.Int64).alias("n_tokens"),
        pl.col("text").str.len_chars().cast(pl.Int64).alias("n_chars"),
    ]


def text_tokens(sf_dir: str) -> rd.Dataset:
    """Whitespace-robust token count (regex word extraction) + char length."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def tok(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t).select(pl.col("doc_id"), *_token_count_exprs()).to_arrow()
        )

    return ds.map_batches(tok, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_TOKENS = f"""
SELECT doc_id,
       CAST(length(regexp_extract_all(text, '{_WORD}')) AS BIGINT) AS n_tokens,
       CAST(length(text) AS BIGINT)                                 AS n_chars
FROM documents
"""


def _alpha_ratio_expr() -> pl.Expr:
    """alpha_ratio alone — the signal the fused curation gate needs; the
    full quality op composes it with the other three."""
    n = pl.col("text").str.len_chars().cast(pl.Float64).clip(lower_bound=1.0)
    n_alpha = pl.col("text").str.count_matches("[A-Za-z]").cast(pl.Float64)
    return round_half_away_pl(n_alpha / n).alias("alpha_ratio")


def _quality_exprs() -> list[pl.Expr]:
    """The 4 quality signals as polars expressions over ``text``."""
    n = pl.col("text").str.len_chars().cast(pl.Float64).clip(lower_bound=1.0)
    n_alpha = pl.col("text").str.count_matches("[A-Za-z]").cast(pl.Float64)
    n_digit = pl.col("text").str.count_matches("[0-9]").cast(pl.Float64)
    n_space = pl.col("text").str.count_matches(r"\s").cast(pl.Float64)
    n_tok = pl.col("text").str.count_matches(_WORD).cast(pl.Float64).clip(lower_bound=1.0)
    return [
        _alpha_ratio_expr(),
        round_half_away_pl(n_digit / n).alias("digit_ratio"),
        round_half_away_pl(n_space / n).alias("space_ratio"),
        round_half_away_pl((n_alpha + n_digit) / n_tok).alias("mean_token_len"),
    ]


def text_quality(sf_dir: str) -> rd.Dataset:
    """Quality signals: alpha ratio, digit ratio, whitespace ratio, mean
    token length — the length/punct/stopword-style scoring family."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def quality(t: pa.Table) -> pa.Table:
        return pl.from_arrow(t).select(pl.col("doc_id"), *_quality_exprs()).to_arrow()

    return ds.map_batches(quality, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_QUALITY = f"""
WITH t AS (
  SELECT doc_id, text,
         GREATEST(length(text), 1) AS n,
         length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS n_alpha,
         length(regexp_replace(text, '[^0-9]', '', 'g'))    AS n_digit,
         length(text) - length(regexp_replace(text, '\\s', '', 'g')) AS n_space,
         GREATEST(length(regexp_extract_all(text, '{_WORD}')), 1)    AS n_tok
  FROM documents
)
SELECT doc_id,
       ROUND(CAST(n_alpha AS DOUBLE) / n, 4)            AS alpha_ratio,
       ROUND(CAST(n_digit AS DOUBLE) / n, 4)            AS digit_ratio,
       ROUND(CAST(n_space AS DOUBLE) / n, 4)            AS space_ratio,
       ROUND(CAST(n_alpha + n_digit AS DOUBLE) / n_tok, 4) AS mean_token_len
FROM t
"""


_STOPWORDS = {
    "en": {"the", "and", "of", "to", "a", "in", "is", "it", "for", "on", "with"},
    "es": {"el", "la", "de", "que", "y", "en", "un", "por", "con", "para"},
    "fr": {"le", "la", "de", "et", "un", "est", "pour", "que", "dans", "sur"},
    "de": {"der", "die", "das", "und", "ist", "von", "mit", "für", "auf", "ein"},
}


def _with_langid(df: pl.DataFrame) -> pl.DataFrame:
    """Append ``pred_lang`` + ``stopword_score`` columns: per-language
    stopword hit rate over the lowercased word tokens; argmax wins with a
    first-max-in-sorted-lang-order tie-break (= numpy argmax), 'und' when
    no language scores.  Pure polars — the Rust kernels do the token
    explosion and set membership, no Python per-row work."""
    langs = sorted(_STOPWORDS)
    scols = [f"_s_{l}" for l in langs]
    df = df.with_columns(
        pl.col("text").str.to_lowercase().str.extract_all(_WORD).alias("_toks")
    )
    n_tok = pl.col("_toks").list.len().cast(pl.Float64).clip(lower_bound=1.0)
    df = df.with_columns(
        [
            (
                pl.col("_toks")
                .list.eval(pl.element().is_in(sorted(_STOPWORDS[l])).cast(pl.UInt32))
                .list.sum()
                .cast(pl.Float64)
                / n_tok
            ).alias(s)
            for l, s in zip(langs, scols)
        ]
    )
    best = pl.max_horizontal([pl.col(s) for s in scols])
    pred = (
        pl.when(best > 0.0)
        .then(
            pl.coalesce(
                [
                    pl.when(pl.col(s) == best).then(pl.lit(l))
                    for l, s in zip(langs, scols)
                ]
            )
        )
        .otherwise(pl.lit("und"))
    )
    return df.with_columns(
        pred.alias("pred_lang"), round_half_away_pl(best).alias("stopword_score")
    ).drop(["_toks"] + scols)


def text_langid(sf_dir: str) -> rd.Dataset:
    """n-gram/stopword language-ID heuristic: per-language stopword hit
    rate; argmax wins, 'und' (undetermined) when no language scores."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def langid(t: pa.Table) -> pa.Table:
        return (
            _with_langid(pl.from_arrow(t))
            .select("doc_id", "pred_lang", "stopword_score")
            .to_arrow()
        )

    return ds.map_batches(langid, batch_format="pyarrow", **worker_runtime_env())


def _langid_sql() -> str:
    """DuckDB oracle generated from the SAME stopword tables: per-language
    duplicate-counting hit rate over the same ASCII word tokenization of
    lower(text); argmax tie-break = first max in sorted language order
    (matching numpy argmax).  Token-less docs -> ('und', 0)."""
    langs = sorted(_STOPWORDS)
    hit_cols = ",\n         ".join(
        "CAST(COUNT(*) FILTER (WHERE w IN ({})) AS DOUBLE) AS h_{}".format(
            ", ".join(f"'{w}'" for w in sorted(_STOPWORDS[l])), l
        )
        for l in langs
    )
    scores = ",\n       ".join(f"h_{l} / GREATEST(n_tok, 1) AS s_{l}" for l in langs)
    g = "GREATEST({})".format(", ".join(f"s_{l}" for l in langs))
    pred = "CASE WHEN best IS NULL OR best = 0 THEN 'und' "
    pred += " ".join(f"WHEN s_{l} = best THEN '{l}'" for l in langs[:-1])
    pred += f" ELSE '{langs[-1]}' END"
    return f"""
WITH tok AS (
  SELECT doc_id, unnest(regexp_extract_all(lower(text), '[0-9a-z_]+')) AS w
  FROM documents
),
counts AS (
  SELECT doc_id, CAST(COUNT(*) AS DOUBLE) AS n_tok,
         {hit_cols}
  FROM tok GROUP BY doc_id
),
scored AS (
  SELECT doc_id,
       {scores}
  FROM counts
),
best AS (SELECT *, {g} AS best FROM scored)
SELECT d.doc_id,
       COALESCE({pred}, 'und')            AS pred_lang,
       ROUND(COALESCE(best, 0), 4)        AS stopword_score
FROM documents d LEFT JOIN best USING (doc_id)
"""


SQL_TEXT_LANGID = _langid_sql()


def text_repetition(sf_dir: str) -> rd.Dataset:
    """Intra-document repetition ratio — the duplicate-n-gram quality
    rule of the public pretraining-corpus filters (C4/Gopher style): per
    doc, 1 - distinct_3grams/total_3grams.  High values mean boilerplate
    or degenerate repetition and get dropped before training.

    Fully vectorized per batch: one flat hashed-shingle pass (shared
    sketch kernel), then a single lexsort over (doc, hash) and a
    boundary bincount yields every doc's distinct count — no per-doc
    np.unique loop.  Hashed shingles stand in for string shingles as in
    the dedup-family oracles (64-bit collision odds negligible)."""
    from ..functions.sketch import _batch_shingle_hashes

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def rep(t: pa.Table) -> pa.Table:
        hashes, offsets = _batch_shingle_hashes(t["text"].combine_chunks(), 3)
        counts = np.diff(offsets)
        di = np.repeat(np.arange(len(t)), counts)
        order = np.lexsort((hashes, di))
        h_s, d_s = hashes[order], di[order]
        new = np.ones(len(h_s), dtype=bool)
        new[1:] = (d_s[1:] != d_s[:-1]) | (h_s[1:] != h_s[:-1])
        distinct = np.bincount(d_s[new], minlength=len(t))
        keep = counts > 0
        ratio = 1.0 - distinct[keep] / counts[keep]
        return pa.table(
            {
                "doc_id": t["doc_id"].to_numpy()[keep],
                "n_ngrams": pa.array(counts[keep].astype(np.int64)),
                "dup_ratio": pa.array(round_half_away(ratio, 4)),
            }
        )

    return ds.map_batches(rep, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_REPETITION = r"""
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
)
SELECT doc_id,
       CAST(len(shingles) AS BIGINT) AS n_ngrams,
       ROUND(1.0 - CAST(len(list_distinct(shingles)) AS DOUBLE)/len(shingles), 4)
         AS dup_ratio
FROM sh WHERE len(shingles) > 0
"""


def text_fingerprint(sf_dir: str) -> rd.Dataset:
    """Document fingerprint: md5 of alnum-normalized text (content identity
    modulo formatting/case) — SQL-comparable."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        # normalization stays in the Rust string kernels; the md5 hashes
        # the normalized column's Arrow buffer directly (zero-copy slices,
        # hashing.md5_hex — no per-row Python strings)
        norm = (
            pl.from_arrow(t.select(["text"]))
            .select(
                pl.col("text").str.to_lowercase().str.replace_all(r"[^a-z0-9]+", "").alias("n")
            )["n"]
            .to_arrow()
        )
        return pa.table({"doc_id": t["doc_id"], "md5_fingerprint": md5_hex(norm)})

    return ds.map_batches(fp, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_FINGERPRINT = """
SELECT doc_id,
       md5(regexp_replace(lower(text), '[^a-z0-9]+', '', 'g')) AS md5_fingerprint
FROM documents
"""


#: GPT2-style pre-tokenizer approximation: contractions, letter runs,
#: number runs, punctuation runs, whitespace runs.  A lookahead regex:
#: Python ``re`` only (polars' Rust regex crate has no lookarounds).
_BPE_ISH = re.compile(
    r"'(?:s|t|re|ve|m|ll|d)| ?[A-Za-z]+| ?[0-9]+| ?[^\sA-Za-z0-9]+|\s+(?!\S)|\s+"
)


def text_bpe_tokens(sf_dir: str) -> rd.Dataset:
    """BPE-ish token counting (the tokenizer-budget estimator): counts
    matches of a GPT2-style pre-tokenization regex, compiled once per
    worker process at import; rows-only check (lookahead regexes aren't
    portable to the SQL oracle's RE2 engine)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def bpe(t: pa.Table) -> pa.Table:
        findall = _BPE_ISH.findall
        counts = [len(findall(s)) if s is not None else 0 for s in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"], "n_bpe_tokens": pa.array(counts, pa.int64())})

    return ds.map_batches(bpe, batch_format="pyarrow", **worker_runtime_env())


def text_rolling_fp(sf_dir: str) -> rd.Dataset:
    """Winnowing-style rolling-hash min fingerprint (not SQL-expressible;
    rows-only checked)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fp(t: pa.Table) -> pa.Table:
        return pa.table(
            {"doc_id": t["doc_id"], "rolling_min_hash": rolling_fingerprint(t["text"])}
        )

    return ds.map_batches(fp, batch_format="pyarrow")


# --- PII scrubbing -----------------------------------------------------------

# deliberately simple, SQL-portable patterns (no lookarounds): the point is
# the masking STAGE (stateless task, vectorized replace), not a
# production PII model
_EMAIL_RE = r"[A-Za-z0-9_.]+@[A-Za-z0-9_.]+"
_NUM_RE = r"[0-9][0-9][0-9]+"


def text_scrub(sf_dir: str) -> rd.Dataset:
    """PII-style scrubbing: mask email-shaped tokens and long digit runs,
    and report how many replacements were made per doc — the masking
    pre-pass every public-corpus pipeline runs before training.  Pure
    polars replace_all/count_matches over zero-copy Arrow batches."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def scrub(t: pa.Table) -> pa.Table:
        clean = (
            pl.col("text")
            .str.replace_all(_EMAIL_RE, "<EMAIL>")
            .str.replace_all(_NUM_RE, "<NUM>")
        )
        n_masked = (
            pl.col("text").str.count_matches(_EMAIL_RE)
            + pl.col("text").str.count_matches(_NUM_RE)
        ).cast(pl.Int64)
        return (
            pl.from_arrow(t)
            .select(
                pl.col("doc_id"),
                clean.str.slice(0, 50).alias("clean_50"),
                n_masked.alias("n_masked"),
            )
            .to_arrow()
        )

    return ds.map_batches(scrub, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_SCRUB = f"""
SELECT doc_id,
       substr(regexp_replace(regexp_replace(text, '{_EMAIL_RE}', '<EMAIL>', 'g'),
                             '{_NUM_RE}', '<NUM>', 'g'), 1, 50) AS clean_50,
       CAST(length(regexp_extract_all(text, '{_EMAIL_RE}'))
          + length(regexp_extract_all(text, '{_NUM_RE}')) AS BIGINT) AS n_masked
FROM documents
"""


# --- overlapping chunking ----------------------------------------------------

CHUNK_LEN = 400
CHUNK_STRIDE = 300  # 100-char overlap


def text_chunks(sf_dir: str) -> rd.Dataset:
    """Split each document into fixed-length character windows with
    overlap (stride < length) — the context-window chunking step of a
    retrieval/training corpus.  A stateless flat-map: output rows >> input
    rows, ids + offsets + a digest only (never the full chunk text to the
    driver)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def chunk(t: pa.Table) -> pa.Table:
        # offsets/slices fully vectorized (polars char-based kernels);
        # the per-piece md5 hashes the piece column's Arrow buffer directly
        # (hashing.md5_hex, zero-copy slices)
        df = pl.from_arrow(t).with_columns(pl.col("text").fill_null(""))
        n = pl.col("text").str.len_chars().cast(pl.Int64)
        span = pl.max_horizontal(n - (CHUNK_LEN - CHUNK_STRIDE), pl.lit(1))
        nc = (span + (CHUNK_STRIDE - 1)) // CHUNK_STRIDE  # == len(starts)
        ex = (
            df.with_columns(nc.alias("_nc"))
            .with_columns(pl.int_ranges(0, pl.col("_nc")).alias("chunk_idx"))
            .explode("chunk_idx")
            .with_columns(
                (pl.col("chunk_idx").cast(pl.Int64) * CHUNK_STRIDE).alias("offset")
            )
            .with_columns(
                pl.col("text")
                .str.slice(pl.col("offset"), CHUNK_LEN)
                .alias("piece")
            )
            .with_columns(
                pl.col("piece").str.len_chars().cast(pl.Int64).alias("chunk_len")
            )
            .filter(pl.col("chunk_len") > 0)
        )
        return pa.table(
            {
                "doc_id": ex["doc_id"].to_arrow().cast(pa.int64()),
                "chunk_idx": ex["chunk_idx"].to_arrow().cast(pa.int32()),
                "offset": ex["offset"].to_arrow().cast(pa.int64()),
                "chunk_len": ex["chunk_len"].to_arrow().cast(pa.int64()),
                # md5 over the piece column's Arrow buffer (zero-copy
                # slices, hashing.md5_hex — no per-row Python strings)
                "chunk_md5": md5_hex(ex["piece"].to_arrow()),
            }
        )

    return ds.map_batches(chunk, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_CHUNKS = f"""
WITH d AS (SELECT doc_id, text, length(text) AS n FROM documents),
idx AS (
  SELECT d.doc_id, d.text, gs.g AS chunk_idx, gs.g * {CHUNK_STRIDE} AS off
  FROM d, LATERAL (
    SELECT UNNEST(generate_series(0,
      CAST(ceil(greatest(d.n - {CHUNK_LEN} + {CHUNK_STRIDE}, 1) / {CHUNK_STRIDE}.0) AS BIGINT) - 1
    )) AS g
  ) gs
  WHERE gs.g * {CHUNK_STRIDE} < d.n OR (gs.g = 0 AND d.n = 0)
)
SELECT doc_id,
       CAST(chunk_idx AS INT) AS chunk_idx,
       off AS offset,
       CAST(length(substr(text, CAST(off + 1 AS BIGINT), {CHUNK_LEN})) AS BIGINT) AS chunk_len,
       md5(substr(text, CAST(off + 1 AS BIGINT), {CHUNK_LEN})) AS chunk_md5
FROM idx
WHERE length(substr(text, CAST(off + 1 AS BIGINT), {CHUNK_LEN})) > 0
"""


VOCAB_K = 100


def vocab_topk(sf_dir: str) -> rd.Dataset:
    """Corpus vocabulary statistics: the VOCAB_K most frequent word
    tokens with their counts — the vocabulary-building pass a tokenizer
    training run makes.  Per-batch token explosion + count partials
    (vectorized split/explode/group_by, compiled pattern), one keyed
    groupby sum over (token) — the shuffle carries (token, partial_count)
    pairs, never raw text — then a tiny global sort-limit with a
    deterministic (count DESC, token ASC) tie-break."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    import polars as pl

    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        return (
            df.select(pl.col("text").str.extract_all(_WORD).alias("tok"))
            .explode("tok")
            .drop_nulls()
            .group_by("tok")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("tok")
        .aggregate(Sum("pn", alias_name="n"))
    )

    # Ray's sort-groupby re-encodes large_string keys to string, so the
    # guard's empty block matches that type (it feeds the type-strict sort)
    _empty = pa.table({"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    return (
        counts.map_batches(
            # sort-based groupby can emit a SCHEMA-LESS empty block when a
            # reduce partition receives no rows — guard before indexing
            lambda t: pa.table({"token": t["tok"], "n": t["n"].cast(pa.int64())})
            if len(t) and "tok" in t.schema.names
            else _empty,
            batch_format="pyarrow",
        )
        .sort([("n"), ("token")], descending=[True, False])
        .limit(VOCAB_K)
    )


SQL_VOCAB_TOPK = f"""
SELECT tok AS token, CAST(COUNT(*) AS BIGINT) AS n
FROM (SELECT UNNEST(regexp_extract_all(text, '{_WORD}')) AS tok FROM documents)
GROUP BY tok
ORDER BY COUNT(*) DESC, tok
LIMIT {VOCAB_K}
"""


# --- exact heavy hitters, bounded-memory candidate pass ---------------------

HH_PHI = 0.001  # report tokens with frequency >= HH_PHI * total tokens
HH_CAP = 4096  # candidate-pass capacity: underestimate bound is N/HH_CAP
_HH_PARTIAL = pa.schema([("tok", pa.large_string()), ("pn", pa.int64())])


def heavy_hitter_tokens(sf_dir: str) -> rd.Dataset:
    """EXACT corpus heavy hitters — every token with frequency >=
    ``HH_PHI`` x total-token-count — in two bounded passes, the plan that
    still works when the token domain itself is too large to shuffle:

    1. CANDIDATES (lossy-counting prune, Manku & Motwani VLDB'02 shape):
       each batch counts its tokens vectorized and keeps only tokens with
       batch count > n_b/CAP (fewer than CAP survivors by construction).
       Dropping a token loses at most n_b/CAP of its count per batch, so
       the folded partial counts underestimate any token by at most N/CAP
       — every true heavy hitter therefore folds to >= (PHI - 1/CAP)*N
       and the candidate filter at that threshold is a guaranteed
       SUPERSET.  The candidate set is itself bounded by construction:
       at most 1/(PHI - 1/CAP) ~ 1.3k tokens can clear the filter, so the
       broadcast to pass 2 is always tiny, independent of corpus size.
    2. EXACT: candidates broadcast (``ray.put``), one more scan counts
       ONLY candidate tokens (per-batch partials -> small keyed sum), and
       the true threshold PHI*N filters the final answer.

    Unlike ``vocab_topk`` (whose shuffle carries every distinct token),
    nothing here ever shuffles the full domain: pass-1 partials carry
    < CAP rows per batch, pass-2 partials < 1.3k rows per batch."""
    import ray

    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def candidate_partial(t: pa.Table) -> pa.Table:
        df = pl.from_arrow(t)
        counts = (
            df.select(pl.col("text").str.extract_all(_WORD).alias("tok"))
            .explode("tok")
            .drop_nulls()
            .group_by("tok")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
        )
        n_b = int(counts["pn"].sum() or 0)
        kept = counts.filter(pl.col("pn") > n_b / HH_CAP)
        total_row = pl.DataFrame(
            {"tok": [""], "pn": pl.Series([n_b], dtype=pl.Int64)}
        )  # "" never matches _WORD, so it is a safe total-count sentinel
        # explicit schema: every block identical regardless of batch content
        return pl.concat([kept, total_row]).to_arrow().cast(_HH_PARTIAL)

    partials = ds.map_batches(
        candidate_partial, batch_format="pyarrow", **worker_runtime_env()
    ).materialize()  # reused by the N-fold and the candidate fold below

    n_total = int(
        partials.map_batches(
            lambda t: t.filter(pc.equal(t["tok"], "")), batch_format="pyarrow"
        ).sum("pn")
        or 0
    )
    if n_total == 0:
        return rd.from_arrow(
            pa.table({"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
        )

    cand_thr = (HH_PHI - 1.0 / HH_CAP) * n_total
    cand = (
        partials.map_batches(
            lambda t: t.filter(pc.invert(pc.equal(t["tok"], ""))),
            batch_format="pyarrow",
        )
        .groupby("tok")
        .aggregate(Sum("pn", alias_name="est"))
        .map_batches(
            # Ray's sort-based groupby can emit a SCHEMA-LESS empty block
            # when a reduce partition receives no rows (layout-dependent:
            # seen only at num_cpus=32 in CORRECTNESS_r04) — guard before
            # indexing columns, like every other driver fold in the repo.
            lambda t: t.filter(pc.greater_equal(t["est"], cand_thr))
            if len(t) and "est" in t.schema.names
            else pa.table(
                {"tok": pa.array([], pa.string()), "est": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )
    # bounded by 1/(PHI - 1/CAP) rows — safe driver fold + broadcast
    cand_tokens = set()
    for t in ray.get(cand.materialize().to_arrow_refs()):
        if len(t) and "tok" in t.schema.names:
            cand_tokens.update(t["tok"].to_pylist())
    # pass 2 counts ONLY the broadcast candidates
    cand_ref = ray.put(pl.Series("c", sorted(cand_tokens)))

    def exact_counter(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .select(pl.col("text").str.extract_all(_WORD).alias("tok"))
            .explode("tok")
            .drop_nulls()
            .filter(pl.col("tok").is_in(ray.get(cand_ref)))
            .group_by("tok")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
            .cast(_HH_PARTIAL)
        )

    exact_thr = HH_PHI * n_total
    exact_partials = ds.map_batches(exact_counter, batch_format="pyarrow", **worker_runtime_env())
    return (
        exact_partials.groupby("tok")
        .aggregate(Sum("pn", alias_name="n"))
        .map_batches(
            # same schema-less-empty-reduce-block guard as the candidate fold
            lambda t: pa.table(
                {"token": t["tok"], "n": t["n"].cast(pa.int64())}
            ).filter(pc.greater_equal(t["n"].cast(pa.float64()), exact_thr))
            if len(t) and "tok" in t.schema.names
            else pa.table(
                {"token": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
    )


SQL_HEAVY_HITTERS = f"""
WITH toks AS (
  SELECT UNNEST(regexp_extract_all(text, '{_WORD}')) AS tok FROM documents
),
tot AS (SELECT CAST(COUNT(*) AS DOUBLE) AS n FROM toks),
counts AS (SELECT tok, CAST(COUNT(*) AS BIGINT) AS c FROM toks GROUP BY tok)
SELECT counts.tok AS token, counts.c AS n
FROM counts, tot
WHERE CAST(counts.c AS DOUBLE) >= {HH_PHI} * tot.n
"""


# --- bounded-vocab unigram quality score -------------------------------------

UNI_V = 4096  # scoring vocabulary size (config-bounded broadcast)


def unigram_score(sf_dir: str) -> rd.Dataset:
    """Unigram-frequency quality score — the unigram-LM filter shape
    (CCNet-style: score docs by how typical their tokens are of the
    corpus) with EXACT oracle parity: per doc, the mean corpus-frequency
    of its tokens over the bounded top-``UNI_V`` vocabulary, out-of-vocab
    tokens counting 0.  All sums are int64 and the score is ONE final
    IEEE int/int division, so engine and SQL agree bit-for-bit (the
    log-surprisal variant differs only by a monotone transform and would
    reintroduce libm-ULP flakiness; see functions/numeric.py).

    Plan: pass 1 builds the vocabulary exactly like ``vocab_topk`` (the
    shuffle carries (token, partial-count) pairs, never text; the
    sort-limit runs on the distinct-vocab table, corpus-sublinear —
    ``heavy_hitter_tokens`` is the bounded-memory alternative when even
    that table is too wide); the top-V rows (config-sized) broadcast via
    the object store; pass 2 is one streaming scoring pass, a polars
    hash-join per batch against the broadcast vocab — no further
    shuffle."""
    import ray

    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .select(pl.col("text").str.extract_all(_WORD).alias("tok"))
            .explode("tok")
            .drop_nulls()
            .group_by("tok")
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    vocab = (
        ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby("tok")
        .aggregate(Sum("pn", alias_name="n"))
        .map_batches(
            # guard: sort-groupby emits schema-less blocks for empty
            # reduce partitions
            lambda t: t
            if len(t) and "tok" in t.schema.names
            else pa.table(
                {"tok": pa.array([], pa.string()), "n": pa.array([], pa.int64())}
            ),
            batch_format="pyarrow",
        )
        .sort([("n"), ("tok")], descending=[True, False])
        .limit(UNI_V)
    )
    # UNI_V rows by construction — a config-bounded driver fold, like the
    # heavy-hitter candidate set
    parts = [
        t
        for t in ray.get(vocab.materialize().to_arrow_refs())
        if len(t) and "tok" in t.schema.names
    ]
    vt = (
        pa.concat_tables(parts)
        if parts
        else pa.table({"tok": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    )
    vocab_ref = ray.put(pl.from_arrow(vt).rename({"tok": "v_tok"}))

    def score(t: pa.Table) -> pa.Table:
        """Pass 2: streaming per-doc mean vocab frequency (the broadcast
        vocab joined in the Rust kernel)."""
        df = pl.from_arrow(t)
        base = df.with_row_index("ri").select(
            "ri",
            "doc_id",
            pl.col("text").str.extract_all(_WORD).alias("toks"),
        )
        base = base.with_columns(
            # null text -> null token list; the oracle COALESCEs
            # n_tokens to 0 (left join misses), so fill here too
            pl.col("toks").list.len().cast(pl.Int64).fill_null(0).alias("n_tokens")
        )
        freq = (
            base.select("ri", "toks")
            .explode("toks")
            .drop_nulls("toks")
            .join(ray.get(vocab_ref), left_on="toks", right_on="v_tok", how="left")
            .group_by("ri")
            .agg(pl.col("n").fill_null(0).sum().alias("freq_sum"))
        )
        out = (
            base.select("ri", "doc_id", "n_tokens")
            .join(freq, on="ri", how="left")
            .with_columns(pl.col("freq_sum").fill_null(0).cast(pl.Int64))
            .with_columns(
                pl.when(pl.col("n_tokens") > 0)
                .then(pl.col("freq_sum") / pl.col("n_tokens"))
                .otherwise(None)
                .alias("uni_score")
            )
            .sort("ri")
            .select("doc_id", "n_tokens", "freq_sum", "uni_score")
        )
        return out.to_arrow()

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return docs.map_batches(score, batch_format="pyarrow", **worker_runtime_env())


SQL_UNIGRAM_SCORE = f"""
WITH tok AS (
  SELECT doc_id, UNNEST(regexp_extract_all(text, '{_WORD}')) AS tok FROM documents
), vocab AS (
  SELECT tok, CAST(COUNT(*) AS BIGINT) AS n FROM tok
  GROUP BY tok ORDER BY COUNT(*) DESC, tok LIMIT {UNI_V}
), per_doc AS (
  SELECT t.doc_id,
         CAST(COUNT(*) AS BIGINT) AS n_tokens,
         CAST(SUM(COALESCE(v.n, 0)) AS BIGINT) AS freq_sum
  FROM tok t LEFT JOIN vocab v USING (tok)
  GROUP BY t.doc_id
)
SELECT d.doc_id,
       COALESCE(p.n_tokens, 0) AS n_tokens,
       COALESCE(p.freq_sum, 0) AS freq_sum,
       COALESCE(p.freq_sum, 0) / NULLIF(COALESCE(p.n_tokens, 0), 0) AS uni_score
FROM documents d LEFT JOIN per_doc p USING (doc_id)
"""


def text_entropy(sf_dir: str) -> rd.Dataset:
    """Token-entropy quality signal: per-doc Shannon entropy (bits) of the
    word-token distribution plus token/distinct counts — the lexical-
    diversity rule of the quality-filter family (low-entropy docs are
    boilerplate/keyword-stuffing; the C4/Gopher screens gate on the same
    distributional degeneracy that ``text_repetition`` measures at the
    n-gram level).  Complements ``unigram_score`` (corpus-typicality)
    with a purely intra-document signal.

    Entropy is written as sum((c/n) * log2(n/c)) — every term is
    nonnegative so no -0.0 sign leaks into the value hash — and rounded
    half-away at 4 decimals on both sides; the pre-round engine/oracle
    gap is libm-ULP-scale (~1e-13) against 5e-5 rounding boundaries,
    the same budget the ratio family (text_quality) runs on.

    Plan: embarrassingly parallel — one streaming pass, the token
    explosion + two group-bys run per batch inside polars' Rust kernels,
    NO shuffle (per-doc state never crosses batch boundaries because the
    group key is the in-batch row index)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def ent(t: pa.Table) -> pa.Table:
        base = (
            pl.from_arrow(t)
            .with_row_index("ri")
            .select("ri", "doc_id", pl.col("text").str.extract_all(_WORD).alias("toks"))
        )
        cnt = (
            base.select("ri", "toks")
            .explode("toks")
            .drop_nulls("toks")
            .group_by("ri", "toks")
            .agg(pl.len().cast(pl.Float64).alias("c"))
        )
        n = pl.col("c").sum()
        agg = cnt.group_by("ri").agg(
            n.cast(pl.Int64).alias("n_tokens"),
            pl.len().cast(pl.Int64).alias("n_distinct"),
            ((pl.col("c") / n) * (n / pl.col("c")).log(2.0)).sum().alias("e"),
        )
        out = (
            base.select("ri", "doc_id")
            .join(agg, on="ri", how="left")
            .with_columns(
                pl.col("n_tokens").fill_null(0),
                pl.col("n_distinct").fill_null(0),
                round_half_away_pl(pl.col("e"), 4).alias("token_entropy"),
            )
            .sort("ri")
            .select("doc_id", "n_tokens", "n_distinct", "token_entropy")
        )
        return out.to_arrow()

    return ds.map_batches(ent, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_ENTROPY = f"""
WITH tok AS (
  SELECT doc_id, UNNEST(regexp_extract_all(text, '{_WORD}')) AS tok FROM documents
), cnt AS (
  SELECT doc_id, tok, CAST(COUNT(*) AS DOUBLE) AS c FROM tok GROUP BY doc_id, tok
), tot AS (
  SELECT doc_id, SUM(c) AS n FROM cnt GROUP BY doc_id
), agg AS (
  SELECT c.doc_id,
         CAST(SUM(c.c) AS BIGINT)   AS n_tokens,
         CAST(COUNT(*) AS BIGINT)   AS n_distinct,
         ROUND(SUM((c.c / t.n) * log2(t.n / c.c)), 4) AS token_entropy
  FROM cnt c JOIN tot t USING (doc_id)
  GROUP BY c.doc_id
)
SELECT d.doc_id,
       COALESCE(a.n_tokens, 0)   AS n_tokens,
       COALESCE(a.n_distinct, 0) AS n_distinct,
       a.token_entropy
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def text_dup_lines(sf_dir: str) -> rd.Dataset:
    """Duplicate-line fraction — the Gopher line-level repetition filter
    (docs whose lines repeat are navigation chrome / SEO spam; the rule
    complements ``text_repetition``'s n-gram view with exact-line
    granularity).  Per doc: the count of non-blank lines, the distinct
    count, and ``dup_line_frac = 1 - distinct/count`` (NULL for docs with
    no non-blank lines).  Counts are exact integers and the fraction is
    one division, so the oracle compare is drift-proof.

    Plan: embarrassingly parallel — line split + explode + two group-bys
    run per batch in polars' Rust kernels with the in-batch row index as
    the group key (the ``text_entropy`` shape), NO shuffle."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def dup(t: pa.Table) -> pa.Table:
        base = pl.from_arrow(t).with_row_index("ri")
        lines = (
            base.select("ri", pl.col("text").str.split("\n").alias("line"))
            .explode("line")
            # blank = nothing outside [ \t\r] — explicit class, because
            # polars strip_chars() strips UNICODE whitespace while DuckDB
            # trim() strips ASCII spaces; the class is identical in both
            .filter(pl.col("line").str.contains(r"[^ \t\r]"))
        )
        agg = lines.group_by("ri").agg(
            pl.len().cast(pl.Int64).alias("n_lines"),
            pl.col("line").n_unique().cast(pl.Int64).alias("n_distinct_lines"),
        )
        out = (
            base.select("ri", "doc_id")
            .join(agg, on="ri", how="left")
            .with_columns(
                pl.col("n_lines").fill_null(0),
                pl.col("n_distinct_lines").fill_null(0),
            )
            .with_columns(
                pl.when(pl.col("n_lines") > 0)
                .then(
                    round_half_away_pl(
                        1.0
                        - pl.col("n_distinct_lines").cast(pl.Float64)
                        / pl.col("n_lines").cast(pl.Float64)
                    )
                )
                .alias("dup_line_frac")
            )
            .sort("ri")
            .select("doc_id", "n_lines", "n_distinct_lines", "dup_line_frac")
        )
        return out.to_arrow()

    return ds.map_batches(dup, batch_format="pyarrow", **worker_runtime_env())


SQL_TEXT_DUP_LINES = """
WITH l AS (
  SELECT doc_id, UNNEST(string_split(text, chr(10))) AS line FROM documents
), nb AS (
  SELECT doc_id, line FROM l WHERE regexp_matches(line, '[^ \t\r]')
), agg AS (
  SELECT doc_id,
         CAST(COUNT(*) AS BIGINT)             AS n_lines,
         CAST(COUNT(DISTINCT line) AS BIGINT) AS n_distinct_lines,
         ROUND(1.0 - CAST(COUNT(DISTINCT line) AS DOUBLE) / COUNT(*), 4)
                                              AS dup_line_frac
  FROM nb GROUP BY doc_id
)
SELECT d.doc_id,
       COALESCE(a.n_lines, 0)          AS n_lines,
       COALESCE(a.n_distinct_lines, 0) AS n_distinct_lines,
       a.dup_line_frac
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def _source_census_partial(t: pa.Table) -> pa.Table:
    """Map-side combiner for :func:`source_quality`: collapses a block of
    any size to <= |source x lang| exact-integer partial rows, so the
    shuffle volume is group-count-bounded, never row-count-bounded
    (module-level so the scale-behavior suite can pin the property)."""
    return (
        pl.from_arrow(t)
        .group_by("source", "lang")
        .agg(
            pl.len().cast(pl.Int64).alias("pd"),
            pl.col("text").str.count_matches(_WORD).sum().cast(pl.Int64).alias("pt"),
            pl.col("text").str.count_matches("[A-Za-z]").sum().cast(pl.Int64).alias("pa"),
            pl.col("text").str.len_chars().sum().cast(pl.Int64).alias("pc"),
        )
        .to_arrow()
    )


def source_quality(sf_dir: str) -> rd.Dataset:
    """Per-(source, lang) corpus census — the "which crawl sources are
    junk" report every training-data pipeline runs before weighting a
    mixture: doc count, total tokens, corpus-level alpha ratio, and mean
    tokens per doc.  All partials are exact integer sums (one division at
    the end), so the result is bit-deterministic under any block layout
    or fold order — no float-accumulation drift.

    Plan: combiner-first (A1/A4 discipline) — per-batch polars partials
    collapse each block to <= |source x lang| rows, the shuffle carries
    only those, and a source-count-sized groupby folds them."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["source", "lang", "text"]
    )

    folded = (
        ds.map_batches(
            _source_census_partial, batch_format="pyarrow", **worker_runtime_env()
        )
        .groupby(["source", "lang"])
        .aggregate(
            Sum("pd", alias_name="n_docs"),
            Sum("pt", alias_name="n_tokens"),
            Sum("pa", alias_name="_a"),
            Sum("pc", alias_name="_c"),
        )
    )

    _OUT = pa.schema(
        [
            ("source", pa.string()),
            ("lang", pa.string()),
            ("n_docs", pa.int64()),
            ("n_tokens", pa.int64()),
            ("alpha_ratio", pa.float64()),
            ("mean_tokens", pa.float64()),
        ]
    )

    def final(t: pa.Table) -> pa.Table:
        # schema-less empty reduce blocks happen under sort-based groupby
        # (the heavy_hitter_tokens lesson) — guard before column access
        if len(t) == 0 or "n_docs" not in t.schema.names:
            return _OUT.empty_table()
        return (
            pl.from_arrow(t)
            .with_columns(
                round_half_away_pl(
                    pl.col("_a").cast(pl.Float64)
                    / pl.max_horizontal(pl.col("_c"), pl.lit(1)).cast(pl.Float64)
                ).alias("alpha_ratio"),
                round_half_away_pl(
                    pl.col("n_tokens").cast(pl.Float64)
                    / pl.col("n_docs").cast(pl.Float64)
                ).alias("mean_tokens"),
            )
            .select("source", "lang", "n_docs", "n_tokens", "alpha_ratio", "mean_tokens")
            .to_arrow()
            .cast(_OUT)
        )

    return folded.map_batches(final, batch_format="pyarrow")


SQL_SOURCE_QUALITY = f"""
WITH t AS (
  SELECT source, lang,
         length(regexp_extract_all(text, '{_WORD}'))        AS nt,
         length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS na,
         length(text)                                       AS nc
  FROM documents
)
SELECT source, lang,
       CAST(COUNT(*) AS BIGINT)  AS n_docs,
       CAST(SUM(nt) AS BIGINT)   AS n_tokens,
       ROUND(CAST(SUM(na) AS DOUBLE) / GREATEST(SUM(nc), 1), 4) AS alpha_ratio,
       ROUND(CAST(SUM(nt) AS DOUBLE) / COUNT(*), 4)             AS mean_tokens
FROM t GROUP BY source, lang
"""


# --- corpus length distribution + bigram diversity censuses ------------------


def doc_length_hist(sf_dir: str) -> rd.Dataset:
    """Document-length distribution per language — the corpus-datasheet
    histogram a mixture designer reads before setting context length and
    packing capacity.  Bins are decimal-digit counts of ``n_chars``
    (1 = 1-9 chars, 2 = 10-99, ... — log10-ish), chosen because the bin
    is an EXACT integer in both engines (string length of the decimal
    rendering; no float log whose ULP could flip a floor at bin edges).
    All partials are exact integer sums, so the result is
    bit-deterministic under any block layout.

    Plan: combiner-first — per-batch polars partials collapse each block
    to <= |lang x bins| rows; the shuffle carries only those."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "n_chars"])

    def partial(t: pa.Table) -> pa.Table:
        return (
            pl.from_arrow(t)
            .group_by(
                "lang",
                pl.col("n_chars")
                .cast(pl.Utf8)
                .str.len_chars()
                .cast(pl.Int64)
                .alias("digits_bin"),
            )
            .agg(
                pl.len().cast(pl.Int64).alias("pd"),
                pl.col("n_chars").sum().alias("pc"),
            )
            .to_arrow()
        )

    folded = (
        ds.map_batches(partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["lang", "digits_bin"])
        .aggregate(Sum("pd", alias_name="n_docs"), Sum("pc", alias_name="total_chars"))
    )

    _OUT = pa.schema(
        [
            ("lang", pa.string()),
            ("digits_bin", pa.int64()),
            ("n_docs", pa.int64()),
            ("total_chars", pa.int64()),
        ]
    )

    def final(t: pa.Table) -> pa.Table:
        # schema-less empty reduce blocks happen under sort-based groupby
        # (the heavy_hitter_tokens lesson) — guard before column access
        if len(t) == 0 or "n_docs" not in t.schema.names:
            return _OUT.empty_table()
        return pa.table(
            {
                "lang": t["lang"],
                "digits_bin": t["digits_bin"],
                "n_docs": t["n_docs"].cast(pa.int64()),
                "total_chars": t["total_chars"].cast(pa.int64()),
            }
        ).cast(_OUT)

    return folded.map_batches(final, batch_format="pyarrow")


SQL_DOC_LENGTH_HIST = """
SELECT lang,
       CAST(LENGTH(CAST(n_chars AS VARCHAR)) AS BIGINT) AS digits_bin,
       CAST(COUNT(*) AS BIGINT)                          AS n_docs,
       CAST(SUM(n_chars) AS BIGINT)                      AS total_chars
FROM documents
GROUP BY lang, LENGTH(CAST(n_chars AS VARCHAR))
"""


def ngram_diversity(sf_dir: str) -> rd.Dataset:
    """Per-source bigram type-token ratio — the distributional-diversity
    signal (Self-BLEU's cheap exact cousin) that flags template-generated
    or looping sources before they enter a mixture: distinct word-bigram
    count / total bigram count per source.

    Plan: per-batch polars bigram explosion (aligned list slices — no
    Python loop) collapses each block to DISTINCT (source, bigram)
    partial counts; ONE keyed groupby over those pairs yields exact
    per-pair totals (summed partials ARE totals); a second combiner-first
    fold reduces the pair table to one row per source (distinct = row
    count, total = sum).  The shuffle carries (source, bigram, count)
    rows — the ``vocab_topk`` exchange class; at open-web scale the
    bigrams would hash to 8 B like ``dup_spans`` (documented trade: the
    string form keeps the oracle exact here).  Sources whose docs all
    have < 2 tokens emit no bigrams and are absent in both engines."""
    from ray.data.aggregate import Sum

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["source", "text"])

    def pair_partial(t: pa.Table) -> pa.Table:
        toks = pl.from_arrow(t).select(
            "source", pl.col("text").str.extract_all(_WORD).alias("toks")
        )
        return (
            toks.select(
                "source",
                a=pl.col("toks").list.slice(0, pl.col("toks").list.len() - 1),
                b=pl.col("toks").list.slice(1),
            )
            .explode(["a", "b"])
            .drop_nulls()  # a doc with < 2 tokens explodes to one null row
            .group_by("source", (pl.col("a") + " " + pl.col("b")).alias("bigram"))
            .agg(pl.len().cast(pl.Int64).alias("pn"))
            .to_arrow()
        )

    pairs = (
        ds.map_batches(pair_partial, batch_format="pyarrow", **worker_runtime_env())
        .groupby(["source", "bigram"])
        .aggregate(Sum("pn", alias_name="n"))
    )

    def source_partial(t: pa.Table) -> pa.Table:
        # guard: sort-based groupby can emit schema-less empty blocks
        if len(t) == 0 or "source" not in t.schema.names:
            return pa.table(
                {
                    "source": pa.array([], pa.string()),
                    "pdist": pa.array([], pa.int64()),
                    "ptot": pa.array([], pa.int64()),
                }
            )
        return (
            pl.from_arrow(t)
            .group_by("source")
            .agg(
                pl.len().cast(pl.Int64).alias("pdist"),
                pl.col("n").sum().alias("ptot"),
            )
            .to_arrow()
        )

    folded = (
        pairs.map_batches(source_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("pdist", alias_name="n_distinct_bigrams"),
            Sum("ptot", alias_name="n_bigrams"),
        )
    )

    _OUT = pa.schema(
        [
            ("source", pa.string()),
            ("n_distinct_bigrams", pa.int64()),
            ("n_bigrams", pa.int64()),
            ("diversity", pa.float64()),
        ]
    )

    def final(t: pa.Table) -> pa.Table:
        if len(t) == 0 or "n_bigrams" not in t.schema.names:
            return _OUT.empty_table()
        return (
            pl.from_arrow(t)
            .with_columns(
                round_half_away_pl(
                    pl.col("n_distinct_bigrams").cast(pl.Float64)
                    / pl.col("n_bigrams").cast(pl.Float64)
                ).alias("diversity")
            )
            .select("source", "n_distinct_bigrams", "n_bigrams", "diversity")
            .to_arrow()
            .cast(_OUT)
        )

    return folded.map_batches(final, batch_format="pyarrow")


SQL_NGRAM_DIVERSITY = f"""
WITH bg AS (
  SELECT source, toks[i] || ' ' || toks[i + 1] AS bigram
  FROM (SELECT source, regexp_extract_all(text, '{_WORD}') AS toks
        FROM documents),
       UNNEST(range(1, greatest(len(toks), 1))) AS u(i)
)
SELECT source,
       CAST(COUNT(DISTINCT bigram) AS BIGINT) AS n_distinct_bigrams,
       CAST(COUNT(*) AS BIGINT)               AS n_bigrams,
       ROUND(COUNT(DISTINCT bigram) / CAST(COUNT(*) AS DOUBLE), 4) AS diversity
FROM bg
GROUP BY source
"""
