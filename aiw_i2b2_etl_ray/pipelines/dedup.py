"""Deduplication family over the ``documents`` table — the training-data
ops the engine adds beyond the reference's exact dedup (SURVEY.md §2.7).

All sketches are deterministic (fixed seeds); exact + embedding variants
have DuckDB oracles, the sketch-based ones (minhash/simhash/ngram) are
hash-defined and rows-only checked.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from ..functions import sketch
from ..functions.hashing import sha256_hex
from ..functions.numeric import round_half_away
from ..stages.exchange import keyed_fold
from ..util import worker_runtime_env

# --- exact dedup ------------------------------------------------------------


def keep_first(block: pa.Table, key: str) -> pa.Table:
    """First-writer-wins per digest (ST3), shared by dedup_exact and
    dedup_normalized: min doc_id survives, copies counted."""
    return (
        pl.from_arrow(block.select([key, "doc_id"]))
        .group_by(key)
        .agg(
            pl.col("doc_id").min().alias("keep_doc_id"),
            pl.len().cast(pl.Int64).alias("n_copies"),
        )
        .to_arrow()
    )


def dedup_exact(sf_dir: str) -> rd.Dataset:
    """Exact dedup: sha256(text) -> keyed fold on the digest -> keep min
    doc_id per digest (first-writer-wins, the provider-dedup pattern ST3)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def digest(t: pa.Table) -> pa.Table:
        return pa.table({"doc_id": t["doc_id"], "text_sha256": sha256_hex(t["text"])})

    digests = ds.map_batches(digest, batch_format="pyarrow", zero_copy_batch=True)
    return keyed_fold(
        digests, ["text_sha256"], keep_first, fn_kwargs={"key": "text_sha256"}
    )


SQL_DEDUP_EXACT = """
SELECT sha256(text)             AS text_sha256,
       MIN(doc_id)              AS keep_doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_copies
FROM documents GROUP BY sha256(text)
"""


# --- MinHash + LSH near-dup --------------------------------------------------

MINHASH_PERMS = 64
MINHASH_BANDS = 16
JACCARD_TAU = 0.6

_PAIR_COLS = {"doc_a": pa.int64(), "doc_b": pa.int64()}

#: candidate-pair count below which texts are fetched via a broadcast
#: semi-join (one filtered corpus pass) instead of bucketed hash joins
PAIR_GATHER_LIMIT = 200_000

#: byte cap on broadcasting the PRUNED candidate texts for the verify
#: stage: below this the id->text payload ships once to plasma and each
#: verify task attaches texts by searchsorted lookup (no join shuffles);
#: above it the texts attach via the two bucketed hash joins
TEXT_BROADCAST_LIMIT = 64 << 20


def _spread(ds: rd.Dataset, min_rows_per_block: int = 64) -> rd.Dataset:
    """Split a small single-row-group input into enough blocks to use the
    whole CPU pool for the sketch stage.  Parquet row counts are metadata
    (no execution); a big corpus already arrives in many blocks, so this
    repartition only ever touches driver-test-scale inputs."""
    import ray

    n = ds.count()  # parquet metadata only
    cpus = int(ray.cluster_resources().get("CPU", 8))
    target = min(cpus * 2, max(1, n // min_rows_per_block))
    return ds.repartition(target) if target > 1 and n < 1_000_000 else ds


def band_rows(t: pa.Table, *, with_digest: bool = False) -> pa.Table:
    """MinHash-sign one batch of ``(doc_id, text)`` and explode to
    ``(band_id, band_key, doc_id)`` rows — the 24 B/row unit that enters
    every LSH band shuffle AND the persistent dedup index
    (pipelines/dedup_index.py).  Empty-shingle docs are excluded (their
    signature is the sentinel; matching "nothing" is meaningless).

    ``with_digest`` adds a ``dig`` column (vectorized xxhash64 of the raw
    text) so degenerate band buckets can collapse exact duplicates before
    pair expansion (see ``BAND_BUCKET_CAP``) — 8 B/row on top of the 24."""
    sigs = sketch.minhash_signatures(t["text"], num_perm=MINHASH_PERMS)
    nonempty = sigs[:, 0] != sketch._MAXH
    sigs = sigs[nonempty]
    ids = t["doc_id"].to_numpy()[nonempty]
    bands = sketch.lsh_bands(sigs, bands=MINHASH_BANDS)  # (n, B)
    n, B = bands.shape
    cols = {
        "band_id": pa.array(np.repeat(np.arange(B, dtype=np.int32), n)),
        "band_key": pa.array(bands.T.reshape(-1).astype(np.int64)),
        "doc_id": pa.array(np.tile(ids, B)),
    }
    if with_digest:
        import polars as pl

        dig = (
            pl.from_arrow(t.select(["text"]))
            .select(pl.col("text").hash(seed=7).alias("d"))["d"]
            .to_numpy()
            .astype(np.uint64)[nonempty]
        )
        cols["dig"] = pa.array(np.tile(dig, B))
    return pa.table(cols)


def _verify_pairs_fn(t: pa.Table) -> pa.Table:
    """Vectorized-per-batch exact verify: each distinct doc's shingle set is
    built ONCE per batch (cache keyed by doc id), then per-pair sorted-array
    intersection — no per-pair re-tokenization."""
    da, db = t["doc_a"].to_pylist(), t["doc_b"].to_pylist()
    ta, tb = t["text_a"].to_pylist(), t["text_b"].to_pylist()
    cache: dict[int, np.ndarray] = {}

    def sset(doc_id: int, text: str) -> np.ndarray:
        arr = cache.get(doc_id)
        if arr is None:
            arr = np.unique(sketch._token_ngrams(text, 3))
            cache[doc_id] = arr
        return arr

    jac = np.empty(len(t), dtype=np.float64)
    for i in range(len(t)):
        sa, sb = sset(da[i], ta[i]), sset(db[i], tb[i])
        inter = np.intersect1d(sa, sb, assume_unique=True).size
        union = sa.size + sb.size - inter
        jac[i] = inter / max(1, union)
    keep = jac >= JACCARD_TAU
    return pa.table(
        {
            "doc_a": pa.array(np.asarray(da, dtype=np.int64)[keep]),
            "doc_b": pa.array(np.asarray(db, dtype=np.int64)[keep]),
            "jaccard": pa.array(round_half_away(jac[keep], 4)),
        }
    )


def dedup_minhash_pairs(sf_dir: str) -> rd.Dataset:
    """MinHash+LSH near-duplicate pairs, digest-before-shuffle end to end,
    returned as a DATASET (verified pairs are output-sized — billions of
    rows on a duplicate-heavy 100 TB corpus — so they never land on the
    driver; consumers stream, cluster, or sink them):

    1. per-batch MinHash signatures -> explode to ``(band_id, band_key,
       doc_id)`` rows ONLY (24 B/row — the raw text never enters the band
       shuffle; at 100 TB the old text-tiling plan would have moved
       input x bands bytes through the exchange);
    2. groupby band bucket -> candidate id pairs (docs sharing a bucket);
    3. pair dedup (the same pair surfaces from several bands) — driver-side
       for a bounded candidate count (id pairs only, 16 B/row), distributed
       above PAIR_GATHER_LIMIT;
    4. texts re-fetched by doc id via TWO bucketed hash joins
       (stages.join.bucketed_join — each side moves once, co-partitioned);
       below the limit the docs side is first pruned by a broadcast
       needed-id set (at 100 TB: a bloom filter) so the joins only move
       candidate texts;
    5. vectorized exact n-gram Jaccard verify >= tau in ``map_batches`` —
       the verify stage's Dataset IS the return value.

    Docs with no tokens are excluded from banding (their signature is the
    empty sentinel; matching "nothing" is meaningless and the SQL oracle's
    shingle join excludes them naturally).

    Oracle: at driver scale LSH recall is indistinguishable from 1
    (all true pairs in the test tables have j >= 0.9; the per-pair miss
    probability at j=0.9 with 16x4 bands is (1-0.9^4)^16 ~ 4e-8, and
    MinHash is fully deterministic), so ``SQL_DEDUP_MINHASH`` — the exact
    all-pairs inverted-index join — is an equality oracle on these inputs.
    """
    docs = _spread(
        rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    )

    cap = BAND_BUCKET_CAP  # bind on the driver: workers unpickle the
    #                        closure by value, so a configured/monkeypatched
    #                        cap propagates (module globals would not)
    cands = (
        docs.map_batches(
            lambda t: band_rows(t, with_digest=True),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby(["band_id", "band_key"])
        .map_groups(lambda g: bucket_pairs(g, cap=cap), batch_format="pyarrow")
        .materialize()
    )
    return verify_candidate_pairs(cands, docs)


#: Band-bucket size at or below which all-pairs expansion runs unchanged.
#: A degenerate bucket (mass-duplicated boilerplate — common in web
#: corpora) would otherwise emit O(n^2) candidate pairs into the
#: exchange; above the cap, exact duplicates collapse by text digest and
#: the bucket emits a CC-EQUIVALENT sparsification instead (see
#: ``bucket_pairs``).  Never triggers at driver test scale (band buckets
#: are far smaller than NGRAM's (lang, len) blocks), so the exact SQL
#: oracle holds there.
BAND_BUCKET_CAP = 1024


def bucket_pairs(g: pa.Table, *, cap: int | None = None) -> pa.Table:
    """Candidate id pairs for one LSH band bucket.

    Buckets at or below ``BAND_BUCKET_CAP`` docs emit the full all-pairs
    upper triangle (the textbook LSH candidate set).  Larger buckets
    collapse exact duplicates first — one representative (min doc id) per
    text digest — and emit: (a) a STAR inside each digest group (member ->
    representative; true jaccard exactly 1.0, so every star pair survives
    verify), plus (b) all-pairs across the g representatives.  The union
    has the same transitive closure as the full clique — duplicate
    clustering (``dedup_clusters``) and the curation drop-set consume
    connected components, which are invariant under this sparsification —
    while the candidate count drops from O(n^2) to O(n + g^2)."""
    if cap is None:
        cap = BAND_BUCKET_CAP
    ids = g["doc_id"].to_numpy()
    if np.unique(ids).size < 2:
        return pa.table({c: pa.array([], t) for c, t in _PAIR_COLS.items()})
    if ids.size <= cap or "dig" not in g.schema.names:
        ids = np.unique(ids)
        iu = np.triu_indices(ids.size, k=1)
        return pa.table(
            {"doc_a": pa.array(ids[iu[0]]), "doc_b": pa.array(ids[iu[1]])}
        )
    digs = g["dig"].to_numpy()
    order = np.lexsort((ids, digs))
    ids_s, digs_s = ids[order], digs[order]
    first = np.ones(ids_s.size, dtype=bool)
    first[1:] = digs_s[1:] != digs_s[:-1]
    grp = np.cumsum(first) - 1
    reps = ids_s[first]  # min doc id per digest (ids sorted within digest)
    rep_of_row = reps[grp]
    member = ids_s != rep_of_row  # rep < member, so (rep, member) is ordered
    iu = np.triu_indices(reps.size, k=1)
    # reps is ordered by DIGEST value, not doc id — orient every rep-rep
    # pair (min, max) so it dedups against the same pair emitted as
    # all-pairs by an uncapped bucket of another band (the pair dedup in
    # verify_candidate_pairs is orientation-sensitive)
    ra, rb = reps[iu[0]], reps[iu[1]]
    return pa.table(
        {
            "doc_a": pa.array(np.concatenate([rep_of_row[member], np.minimum(ra, rb)])),
            "doc_b": pa.array(np.concatenate([ids_s[member], np.maximum(ra, rb)])),
        }
    )


_PAIRS_MEMO: dict[tuple, rd.Dataset] = {}


def minhash_pairs_cached(sf_dir: str) -> rd.Dataset:
    """Materialized verified-pairs set, shared per sf_dir: the catalog's
    `dedup_minhash`, the CC clustering (`dedup_clusters`) and the corpus
    gate (`corpus_filter`) all consume the same pair set — compute the
    sketch+shuffle+verify once (same memoization pattern as
    cdc_queries._fact_cached; pairs are output-sized, held in the object
    store, never the driver).  The memo key includes the input file's
    (mtime, size) so an in-process rewrite of documents.parquet never
    serves stale pairs; entries are evicted FIFO past 4 (their blocks may
    also die with the Ray session — single-session cache only)."""
    import os

    st = os.stat(f"{sf_dir}/documents.parquet")
    key = (sf_dir, st.st_mtime_ns, st.st_size)
    ds = _PAIRS_MEMO.get(key)
    if ds is None:
        while len(_PAIRS_MEMO) >= 4:
            _PAIRS_MEMO.pop(next(iter(_PAIRS_MEMO)))
        ds = _PAIRS_MEMO[key] = dedup_minhash_pairs(sf_dir).materialize()
    return ds


def distinct_pairs(block: pa.Table) -> pa.Table:
    """The block's distinct (doc_a, doc_b) candidate pairs."""
    return pl.from_arrow(block.select(["doc_a", "doc_b"])).unique().to_arrow()


def verify_candidate_pairs(cands: rd.Dataset, docs: rd.Dataset) -> rd.Dataset:
    """Exact-verify LSH candidate id pairs against the corpus texts.

    Adaptive verify-fetch physical plan (candidate count is known and
    bounded after LSH; the same pair can surface from several bands):
     - small candidate set (the common case): dedup the ID pairs
       driver-side (16 B/row, bounded by PAIR_GATHER_LIMIT — texts never
       come to the driver), broadcast the needed doc-id set, and prune
       the corpus with it; if the PRUNED texts fit TEXT_BROADCAST_LIMIT
       they broadcast zero-copy and each verify task attaches them by
       searchsorted lookup (no join shuffles), else they attach via two
       bucketed hash joins;
     - large candidate set: distributed pair dedup, full docs side,
       bucketed joins.
    The verify stage always runs distributed; its Dataset is the return
    value.  All three plans are pytest-asserted identical
    (tests/test_scale_behaviors.py)."""
    from ..stages.join import bucketed_join

    n_pairs = cands.count()
    if n_pairs == 0:
        return rd.from_arrow(
            pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "jaccard": pa.array([], pa.float64()),
                }
            )
        )
    if n_pairs <= PAIR_GATHER_LIMIT:
        import ray

        pairs = cands.to_pandas().drop_duplicates(["doc_a", "doc_b"])
        need_ref = ray.put(
            np.unique(
                np.concatenate([pairs["doc_a"].to_numpy(), pairs["doc_b"].to_numpy()])
            )
        )

        def pick_texts(t: pa.Table) -> pa.Table:
            mask = np.isin(t["doc_id"].to_numpy(), ray.get(need_ref))
            return t.filter(pa.array(mask))

        # materialized so the pruned-texts pass runs once, not per join
        docs_small = docs.map_batches(pick_texts, batch_format="pyarrow").materialize()
        if docs_small.size_bytes() <= TEXT_BROADCAST_LIMIT:
            # The pruned candidate texts fit a broadcast: attach both
            # texts with a searchsorted lookup against a zero-copy Arrow
            # payload instead of TWO bucketed joins (each join is an
            # all-to-all Sort — measured 2x8.6 s of a 26 s sf0.1 run for
            # a few hundred candidate texts).  ids are a numpy array and
            # texts an Arrow array, so tasks share the plasma copy.
            tbl = pa.concat_tables(
                [t for t in ray.get(docs_small.to_arrow_refs()) if len(t)]
            ).combine_chunks()
            ids = tbl["doc_id"].to_numpy()
            order = np.argsort(ids)
            texts_ref = ray.put(
                (ids[order], tbl["text"].take(pa.array(order)).combine_chunks())
            )
            pairs_ds = rd.from_arrow(pa.Table.from_pandas(pairs, preserve_index=False))

            def attach_verify(t: pa.Table) -> pa.Table:
                ids, texts = ray.get(texts_ref)
                if ids.size == 0:  # no candidate text resolved
                    return _verify_pairs_fn(
                        pa.table(
                            {
                                "doc_a": pa.array([], pa.int64()),
                                "doc_b": pa.array([], pa.int64()),
                                "text_a": pa.array([], pa.string()),
                                "text_b": pa.array([], pa.string()),
                            }
                        )
                    )
                da = t["doc_a"].to_numpy()
                db = t["doc_b"].to_numpy()
                ia = np.minimum(np.searchsorted(ids, da), ids.size - 1)
                ib = np.minimum(np.searchsorted(ids, db), ids.size - 1)
                # an id absent from the pruned texts (cannot happen for
                # LSH candidates, which derive from docs — defensive)
                # must DROP the pair, matching the bucketed-join plan's
                # inner semantics, not attach a neighbor's text
                found = (ids[ia] == da) & (ids[ib] == db)
                if not found.all():
                    t = t.filter(pa.array(found))
                    ia, ib = ia[found], ib[found]
                t2 = pa.table(
                    {
                        "doc_a": t["doc_a"],
                        "doc_b": t["doc_b"],
                        "text_a": texts.take(pa.array(ia)),
                        "text_b": texts.take(pa.array(ib)),
                    }
                )
                return _verify_pairs_fn(t2)

            return pairs_ds.map_batches(
                attach_verify, batch_format="pyarrow", **worker_runtime_env()
            )
        pairs_ds = rd.from_arrow(pa.Table.from_pandas(pairs, preserve_index=False))
    else:
        pairs_ds = keyed_fold(cands, ["doc_a", "doc_b"], distinct_pairs)
        docs_small = docs
    docs_a = docs_small.map_batches(
        lambda t: pa.table({"doc_a": t["doc_id"], "text_a": t["text"]}),
        batch_format="pyarrow",
    )
    docs_b = docs_small.map_batches(
        lambda t: pa.table({"doc_b": t["doc_id"], "text_b": t["text"]}),
        batch_format="pyarrow",
    )
    witha = bucketed_join(pairs_ds, docs_a, on=["doc_a"])
    both = bucketed_join(witha, docs_b, on=["doc_b"])
    return both.map_batches(_verify_pairs_fn, batch_format="pyarrow")


#: Exact all-pairs n-gram (3-token shingle) Jaccard via an inverted-index
#: self-join — the independent formulation of the same quantity the engine
#: computes (hashed-shingle sets are Jaccard-equivalent to string-shingle
#: sets modulo 64-bit collisions).
_SQL_SHINGLES = r"""
toks AS (
  SELECT doc_id, lang, CAST(n_chars // 200 AS INT) AS len_block,
         regexp_split_to_array(trim(lower(text)), '\s+') AS tk
  FROM documents
),
sh AS (
  SELECT doc_id, lang, len_block,
    CASE WHEN len(tk)=0 OR (len(tk)=1 AND tk[1]='') THEN []
         WHEN len(tk) < 3 THEN [array_to_string(tk,' ')]
         ELSE list_transform(range(1, len(tk)-1),
                             i -> tk[i]||' '||tk[i+1]||' '||tk[i+2])
    END AS shingles
  FROM toks
),
dsh AS (
  SELECT doc_id, lang, len_block, unnest(list_distinct(shingles)) AS s FROM sh
),
sizes AS (SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n FROM dsh GROUP BY doc_id)
"""

SQL_DEDUP_MINHASH = f"""
WITH {_SQL_SHINGLES},
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(COUNT(*) AS BIGINT) AS i
  FROM dsh a JOIN dsh b ON a.s = b.s AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.doc_a, i.doc_b,
       ROUND(CAST(i.i AS DOUBLE)/(sa.n + sb.n - i.i), 4) AS jaccard
FROM inter i
JOIN sizes sa ON i.doc_a = sa.doc_id
JOIN sizes sb ON i.doc_b = sb.doc_id
WHERE CAST(i.i AS DOUBLE)/(sa.n + sb.n - i.i) >= {JACCARD_TAU}
"""


# --- SimHash ----------------------------------------------------------------


def dedup_simhash(sf_dir: str) -> rd.Dataset:
    """Per-doc 64-bit SimHash + its 16-bit prefix bucket: docs sharing a
    bucket are near-dup candidates (Hamming-ball blocking)."""
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def sim(t: pa.Table) -> pa.Table:
        h = sketch.simhash64(t["text"])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "simhash": pa.array(h.astype(np.int64)),
                "bucket": pa.array((h >> np.uint64(48)).astype(np.int32)),
            }
        )

    return ds.map_batches(sim, batch_format="pyarrow", zero_copy_batch=True)


# --- n-gram Jaccard (blocked exact) -----------------------------------------


NGRAM_BLOCK_CAP = 1024  # all-pairs bound; larger blocks switch to LSH prefilter
_NGRAM_PAIRS = pa.schema(
    [("doc_a", pa.int64()), ("doc_b", pa.int64()), ("jaccard", pa.float64())]
)


def dedup_ngram_jaccard(sf_dir: str) -> rd.Dataset:
    """Blocked exact n-gram Jaccard: block by (lang, length-bucket), then
    within each block compute every doc's shingle-hash set ONCE (one
    vectorized pass) and intersect sorted arrays per pair — no per-pair
    re-tokenization, no unbounded quadratic text work.  Returns the
    per-block verify stage's Dataset (pair output is output-sized; it
    never lands on the driver).

    Blocks above ``NGRAM_BLOCK_CAP`` docs do NOT run all-pairs: candidate
    pairs come from an in-block MinHash band prefilter (same 16x4 banding
    as dedup_minhash, recall ~1 at tau=0.6+), so one popular
    (lang, length) block at 100 TB costs O(n x bands) not O(n^2).  The cap
    never triggers at driver test scale (max observed block 836 at sf0.1),
    so the exact SQL oracle holds there.
    """
    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang", "n_chars"]
    )

    def add_block(t: pa.Table) -> pa.Table:
        blk = (t["n_chars"].to_numpy() // 200).astype(np.int32)
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "text": t["text"],
                "lang": t["lang"],
                "len_block": pa.array(blk),
            }
        )

    def group_pairs(g: pl.DataFrame) -> pa.Table:
        g = g.sort("doc_id")
        ids = g["doc_id"].to_numpy()
        texts = g["text"].to_arrow().cast(pa.string())
        flat, offsets = sketch._batch_shingle_hashes(texts, 3)
        sets = [
            np.unique(flat[offsets[i] : offsets[i + 1]]) for i in range(len(g))
        ]
        nonempty = np.array([s.size > 0 for s in sets], dtype=bool)
        ids, sets = ids[nonempty], [s for s, m in zip(sets, nonempty) if m]
        n = len(ids)
        if n < 2:
            return _NGRAM_PAIRS.empty_table()
        if n <= NGRAM_BLOCK_CAP:
            iu = np.triu_indices(n, k=1)
            cand = zip(iu[0].tolist(), iu[1].tolist())
        else:  # LSH prefilter inside the oversized block
            sigs = sketch.minhash_signatures(
                texts.filter(pa.array(nonempty)), num_perm=MINHASH_PERMS
            )
            bands = sketch.lsh_bands(sigs, bands=MINHASH_BANDS)
            seen: set[tuple[int, int]] = set()
            for bi in range(bands.shape[1]):
                order = np.argsort(bands[:, bi], kind="stable")
                keys = bands[order, bi]
                start = 0
                for end in range(1, len(keys) + 1):
                    if end == len(keys) or keys[end] != keys[start]:
                        grp = order[start:end]
                        if len(grp) > 1:
                            for x in range(len(grp)):
                                for y in range(x + 1, len(grp)):
                                    a, b = sorted((int(grp[x]), int(grp[y])))
                                    seen.add((a, b))
                        start = end
            cand = sorted(seen)
        rows_a, rows_b, rows_j = [], [], []
        for i, j in cand:
            sa, sb = sets[i], sets[j]
            inter = np.intersect1d(sa, sb, assume_unique=True).size
            jac = inter / max(1, sa.size + sb.size - inter)
            if jac >= JACCARD_TAU:
                rows_a.append(int(ids[i]))
                rows_b.append(int(ids[j]))
                rows_j.append(jac)
        return pa.table(
            {
                "doc_a": pa.array(rows_a, pa.int64()),
                "doc_b": pa.array(rows_b, pa.int64()),
                "jaccard": round_half_away(np.array(rows_j, dtype=np.float64), 4),
            },
            schema=_NGRAM_PAIRS,
        )

    def block_pairs(block: pa.Table) -> pa.Table:
        df = pl.from_arrow(block.select(["doc_id", "text", "lang", "len_block"]))
        keys = ["lang", "len_block"]
        return pa.concat_tables([group_pairs(g) for g in df.partition_by(keys)])

    blocked = ds.map_batches(add_block, batch_format="pyarrow")
    return keyed_fold(blocked, ["lang", "len_block"], block_pairs)


SQL_DEDUP_NGRAM_JACCARD = f"""
WITH {_SQL_SHINGLES},
inter AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, CAST(COUNT(*) AS BIGINT) AS i
  FROM dsh a JOIN dsh b
    ON a.s = b.s AND a.lang = b.lang AND a.len_block = b.len_block
   AND a.doc_id < b.doc_id
  GROUP BY a.doc_id, b.doc_id
)
SELECT i.doc_a, i.doc_b,
       ROUND(CAST(i.i AS DOUBLE)/(sa.n + sb.n - i.i), 4) AS jaccard
FROM inter i
JOIN sizes sa ON i.doc_a = sa.doc_id
JOIN sizes sb ON i.doc_b = sb.doc_id
WHERE CAST(i.i AS DOUBLE)/(sa.n + sb.n - i.i) >= {JACCARD_TAU}
"""


# --- embedding cosine near-dup ----------------------------------------------

# embeddings in the driver tables are near-random (within-label max cosine
# ~0.45); tau is set where a non-trivial pair set exists at test scale.
# Real embedding spaces would use ~0.9+.
COSINE_TAU = 0.4

_COSINE_PAIRS = pa.schema(
    [("vec_a", pa.int64()), ("vec_b", pa.int64()), ("cosine", pa.float64())]
)


def _cosine_pairs(ids: np.ndarray, m: np.ndarray) -> pa.Table:
    """Pairs (a < b in ``ids`` order) of one block's normalized rows ``m``
    with cosine >= COSINE_TAU; a vector never pairs with itself."""
    cos = m @ m.T
    iu = np.triu_indices(len(ids), k=1)
    mask = (cos[iu] >= COSINE_TAU) & (ids[iu[0]] != ids[iu[1]])
    return pa.table(
        {
            "vec_a": ids[iu[0][mask]].astype(np.int64),
            "vec_b": ids[iu[1][mask]].astype(np.int64),
            "cosine": round_half_away(cos[iu][mask], 4),
        },
        schema=_COSINE_PAIRS,
    )



def dedup_embedding(sf_dir: str) -> rd.Dataset:
    """Embedding near-dup: within-label blocking, per-block numpy matmul,
    pairs with cosine >= tau.  Label blocking keeps each group one task; at
    scale labels come from a coarse LSH/IVF assignment instead.  Returns
    the per-block pair Dataset (never driver-materialized)."""
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")

    def block_pairs(block: pa.Table) -> pa.Table:
        df = pl.from_arrow(block.select(["vec_id", "label", "embedding"]))
        out = []
        for g in df.partition_by("label"):
            g = g.sort("vec_id")
            m = np.stack(g["embedding"].to_numpy()).astype(np.float64)
            m /= np.linalg.norm(m, axis=1, keepdims=True) + 1e-12
            out.append(_cosine_pairs(g["vec_id"].to_numpy(), m))
        return pa.concat_tables(out)

    return keyed_fold(ds, ["label"], block_pairs)


SQL_DEDUP_EMBEDDING = f"""
WITH e AS (SELECT vec_id, label, embedding FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       ROUND(list_cosine_similarity(a.embedding, b.embedding), 4) AS cosine
FROM e a JOIN e b ON a.label = b.label AND a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {COSINE_TAU}
"""


# --- IVF-blocked embedding near-dup (the at-scale variant) -------------------

IVF_DEDUP_ASSIGN = 4  # multi-assign factor: each vector joins its top-4 lists
# (4 of 16 lists => 25% replication.  On REAL embedding spaces — clustered,
# tau ~0.9 — 2 suffices; these driver vectors are near-random with tau 0.4,
# the adversarial case for coarse quantization, and 4 measures recall 1.0 at
# both test scales, which is what lets the exact-pairs SQL below serve as the
# driver oracle — same argument as dedup_minhash's shingle-join oracle.)


def dedup_embedding_ivf(sf_dir: str) -> rd.Dataset:
    """Embedding near-dup with coarse-quantizer (IVF) blocking — the scale
    path `dedup_embedding`'s docstring promises: no label column needed,
    blocks are the centroid lists of a sample-trained quantizer
    (similarity._train_centroids), and each vector multi-assigns to its
    top-IVF_DEDUP_ASSIGN lists so near-neighbors straddling a centroid
    boundary still co-occur somewhere.  Exact cosine verify within each
    list, then a keyed pair-dedup (a pair found in 2 shared lists must
    emit once); the deduped pair Dataset is the return value.

    Approximate by nature (recall < 1 is possible when a pair's lists are
    disjoint); accuracy is pinned by a recall-vs-exact pytest, like
    ann_lsh.  Block size is bounded by list population (~n/lists x
    multi-assign), so no O(n^2) global blowup."""
    from .similarity import _train_centroids

    cents = _train_centroids(sf_dir)
    import ray as _ray

    cents_ref = _ray.put(cents)

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def assign(t: pa.Table) -> pa.Table:
        ids = t["vec_id"].to_numpy()
        m = np.stack(t["embedding"].to_pandas().to_numpy()).astype(np.float64)
        m /= np.linalg.norm(m, axis=1, keepdims=True) + 1e-12
        sim = m @ _ray.get(cents_ref).T
        top = np.argsort(-sim, axis=1)[:, :IVF_DEDUP_ASSIGN]
        n, a = top.shape
        return pa.table(
            {
                "list_id": pa.array(top.ravel().astype(np.int32)),
                "vec_id": pa.array(np.repeat(ids, a)),
                "embedding": pa.array(list(np.repeat(m, a, axis=0))),
            }
        )

    def list_pairs(block: pa.Table) -> pa.Table:
        df = pl.from_arrow(block.select(["list_id", "vec_id", "embedding"]))
        out = []
        for g in df.partition_by("list_id"):
            g = g.sort("vec_id")  # embeddings already normalized
            m = np.stack(g["embedding"].to_numpy())
            out.append(_cosine_pairs(g["vec_id"].to_numpy(), m))
        return pa.concat_tables(out)

    from ray.data.aggregate import Max

    assigned = ds.map_batches(assign, batch_format="pyarrow", **worker_runtime_env())
    return (
        keyed_fold(assigned, ["list_id"], list_pairs)
        .groupby(["vec_a", "vec_b"])
        .aggregate(Max("cosine", alias_name="cosine"))  # dedup shared-list pairs
    )


SQL_DEDUP_EMBEDDING_IVF = """
WITH e AS (SELECT vec_id, embedding FROM embeddings)
SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
       ROUND(list_cosine_similarity(a.embedding, b.embedding), 4) AS cosine
FROM e a JOIN e b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= {tau}
""".format(tau=COSINE_TAU)


# --- cross-document duplicated spans ------------------------------------------

#: words per span for the duplicated-span screen.  Test-scale setting; the
#: published substring-dedup screens (Lee et al. 2022, "Deduplicating
#: Training Data Makes Language Models Better") use ~50-token spans —
#: the plan below is span-width-agnostic.
DUP_SPAN_W = 3
#: distinct documents a span must appear in to count as duplicated
DUP_SPAN_MIN_DOCS = 2


def _span_pairs(t: pa.Table) -> pa.Table:
    """Per-doc DISTINCT (doc_id, span-hash) pairs for one batch — the
    shared flat-shingle + lexsort-dedup kernel (functions/sketch), with
    the hash re-viewed int64 for Ray's sort-based groupby."""
    return sketch.distinct_doc_shingle_pairs(
        t["doc_id"].to_numpy() if len(t) else np.empty(0, np.int64),
        t["text"].combine_chunks(),
        DUP_SPAN_W,
        as_int64=True,
    )


def dup_spans(sf_dir: str) -> rd.Dataset:
    """Cross-document duplicated-span screen — the frequency pass of
    substring-level dedup (Lee et al. 2022): for every document, how many
    of its DISTINCT word-``DUP_SPAN_W``-gram spans also appear in at least
    ``DUP_SPAN_MIN_DOCS - 1`` other documents.  The per-doc count is the
    removal/trimming signal a substring-dedup pipeline thresholds on.

    Physical plan — id-only exchanges, the text never shuffles, nothing
    lands on the driver:
      1. one flat shingle-hash pass -> per-doc distinct (doc_id, h) pairs;
      2. groupby(h) over (h, partial-count) rows -> spans with
         doc-frequency >= DUP_SPAN_MIN_DOCS (the duplicated-span set,
         output-sized, kept as a Dataset);
      3. the pairs (recomputed map-only — cheaper than materializing the
         corpus-shingle-sized intermediate) SEMI-join the duplicated set
         (``bucketed_join`` dedups right keys in-bucket) and a
         groupby(doc_id) of partial counts emits the per-doc totals.
    Summed per-batch partials ARE distinct counts because each (doc, h)
    pair is globally unique (step 1).  Hashed spans stand in for string
    spans exactly as in the dedup/decontaminate oracles (64-bit collision
    probability negligible)."""
    from ray.data.aggregate import Sum

    from ..stages.join import bucketed_join

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs1 = docs.map_batches(
        _span_pairs, batch_format="pyarrow", **worker_runtime_env()
    )

    def count_partial(col: str, out: str):
        def fn(t: pa.Table) -> pa.Table:
            import polars as pl

            return (
                pl.from_arrow(t.select([col]))
                .group_by(col)
                .agg(pl.len().cast(pl.Int64).alias(out))
                .to_arrow()
            )

        return fn

    dup_h = (
        pairs1.map_batches(count_partial("h", "pn"), batch_format="pyarrow")
        .groupby("h")
        .aggregate(Sum("pn", alias_name="n_docs"))
        .map_batches(
            lambda t: t.select(["h"]).filter(
                pc.greater_equal(t["n_docs"], DUP_SPAN_MIN_DOCS)
            )
            if len(t) and "h" in t.schema.names
            else pa.table({"h": pa.array([], pa.int64())}),
            batch_format="pyarrow",
        )
    )
    pairs2 = docs.map_batches(
        _span_pairs, batch_format="pyarrow", **worker_runtime_env()
    )
    hits = bucketed_join(pairs2, dup_h, on=["h"], how="semi", num_buckets=32)
    return (
        hits.map_batches(count_partial("doc_id", "pn"), batch_format="pyarrow")
        .groupby("doc_id")
        .aggregate(Sum("pn", alias_name="n_dup_spans"))
        .map_batches(
            lambda t: pa.table(
                {"doc_id": t["doc_id"], "n_dup_spans": t["n_dup_spans"].cast(pa.int64())}
            )
            if len(t) and "doc_id" in t.schema.names
            else pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "n_dup_spans": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


SQL_DUP_SPANS = rf"""
WITH toks AS (
  SELECT doc_id, regexp_split_to_array(trim(lower(text)), '\s+') AS tk
  FROM documents
),
sh AS (
  SELECT doc_id,
    CASE WHEN len(tk)=0 OR (len(tk)=1 AND tk[1]='') THEN []
         WHEN len(tk) < {DUP_SPAN_W} THEN [array_to_string(tk,' ')]
         ELSE list_transform(range(1, len(tk)-{DUP_SPAN_W - 2}),
                             i -> tk[i]||' '||tk[i+1]||' '||tk[i+2])
    END AS spans
  FROM toks
),
u0 AS (SELECT doc_id, unnest(spans) AS s FROM sh),
u AS (SELECT DISTINCT doc_id, s FROM u0),
d AS (SELECT s FROM u GROUP BY s HAVING COUNT(*) >= {DUP_SPAN_MIN_DOCS})
SELECT u.doc_id, CAST(COUNT(*) AS BIGINT) AS n_dup_spans
FROM u JOIN d ON d.s = u.s
GROUP BY u.doc_id
"""


def dedup_normalized(sf_dir: str) -> rd.Dataset:
    """Normalize-then-exact dedup — the CCNet-style fuzzy-exact stage:
    lowercase, strip everything outside lowercase-alnum + ASCII
    whitespace, collapse whitespace runs, trim — then sha256 the
    canonical form and keep the minimum doc_id per digest.  Catches the
    re-hosted/boilerplate-reformatted copies that byte-exact
    ``dedup_exact`` misses but that are identical prose (the
    deduplicate-text-datasets "normalized exact" screen).

    Whitespace is the EXPLICIT class ``[ \\t\\n\\r\\f]`` spelled
    identically in both engines — polars' Rust ``\\s`` is Unicode while
    DuckDB's RE2 ``\\s`` is ASCII, so the shorthand would normalize a
    NBSP-bearing doc to different digests (same divergence class
    text_dup_lines guards).

    Plan shape is dedup_exact's: normalization + digest run map-side in
    polars' Rust kernels, so the shuffle carries (digest, doc_id) only —
    never text — and the per-digest reduce is a first-writer-wins
    groupby (ST3)."""
    import polars as pl

    from ..functions.hashing import sha256_hex

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def digest(t: pa.Table) -> pa.Table:
        norm = (
            pl.from_arrow(t.select(["text"]))
            .select(
                pl.col("text")
                .str.to_lowercase()
                .str.replace_all("[^0-9a-z \t\n\r\f]", "")
                .str.replace_all("[ \t\n\r\f]+", " ")
                .str.strip_chars(" ")  # only ASCII spaces remain at edges
                .alias("n")
            )["n"]
            .to_arrow()
        )
        return pa.table({"doc_id": t["doc_id"], "norm_sha256": sha256_hex(norm)})

    digests = ds.map_batches(
        digest,
        batch_format="pyarrow",
        zero_copy_batch=True,
        **worker_runtime_env(),  # cap polars threads under any driver
    )
    return keyed_fold(
        digests, ["norm_sha256"], keep_first, fn_kwargs={"key": "norm_sha256"}
    )


SQL_DEDUP_NORMALIZED = """
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(regexp_replace(lower(text),
                                            '[^0-9a-z \t\n\r\f]', '', 'g'),
                             '[ \t\n\r\f]+', ' ', 'g'),
              ' ') AS norm
  FROM documents
)
SELECT sha256(norm)             AS norm_sha256,
       MIN(doc_id)              AS keep_doc_id,
       CAST(COUNT(*) AS BIGINT) AS n_copies
FROM n GROUP BY sha256(norm)
"""
