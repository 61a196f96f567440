"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing
here calls ray.init()/ray.shutdown().  See aiw_i2b2_etl_ray/ for the
engine; SURVEY.md §2 for the operator inventory each query covers.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

SF_SMOKE = "/root/testdata/sf0.001"


def entry() -> Any:
    """Flagship pipeline: full CDC replay (normalize -> hash-partition
    shuffle -> exactly-once last-writer-wins merge) over a change stream
    derived from sf0.001, returning the converged path_dim Dataset."""
    from aiw_i2b2_etl_ray.pipelines.cdc_queries import cdc_path_dim

    return cdc_path_dim(SF_SMOKE)


def queries() -> dict[str, Callable[[str], Any]]:
    from aiw_i2b2_etl_ray.pipelines import analytics as an
    from aiw_i2b2_etl_ray.pipelines import cdc_mining as cm
    from aiw_i2b2_etl_ray.pipelines import cdc_queries as cq

    cat: dict[str, Callable[[str], Any]] = {
        # --- CDC star schema (the flagship) --------------------------------
        "cdc_path_dim": cq.cdc_path_dim,
        "cdc_change_fact": cq.cdc_change_fact,
        "cdc_repo_dim": cq.cdc_repo_dim,
        "cdc_lang_dim": cq.cdc_lang_dim,
        "cdc_rejected": cq.cdc_rejected,
        "cdc_key_map": cq.cdc_key_map,  # surrogate-id mapping table
        "cdc_repo_map": cq.cdc_repo_map,  # repo-level mapping (PATIENT_MAPPING)
        "cdc_state_asof": cq.cdc_state_asof,  # time-travel state read
        # incremental snapshot diff between two sequence cuts (added late
        # r5; only touched keys shuffle — the delta-sync read)
        "cdc_state_diff": cq.cdc_state_diff,
        # SCD2 validity-interval history (new r5 session 2): the
        # lake-upsert engine's full-history product, bucket-hash keyed
        "cdc_scd2": cq.cdc_scd2,
        # watermark-integrity audit: anomalous commit-seq holes per repo
        "cdc_seq_audit": cq.cdc_seq_audit,
        # churn hot-list (feeds bucketed_join/merge hot_keys) + GC plan
        "cdc_hot_keys": cq.cdc_hot_keys,
        "cdc_tombstone_gc": cq.cdc_tombstone_gc,
        "cdc_renames": cq.cdc_renames,
        "cdc_lang_migrations": cq.cdc_lang_migrations,
        "cdc_shared_content": cq.cdc_shared_content,
        "cdc_change_fact_mod": cq.cdc_change_fact_mod,  # modifier fan-out
        "cdc_modifier_dim": cq.cdc_modifier_dim,  # modifier_dimension analog
        "cdc_author_dim": cq.cdc_author_dim,  # provider_dimension analog
        # exactly-once stated as an equality: full-redelivery replay must
        # hash-match the single-delivery path_dim (new r5 session 5)
        "cdc_reapply": cq.cdc_reapply,
        # post-load referential-integrity census, all-integer (new r5 s5)
        "cdc_integrity": cq.cdc_integrity,
        # repo-mining reads (new r5 s8): logical-coupling pairs, bus-factor
        # census, per-path lifecycle audit — all-integer/string outputs
        "cdc_cochange": cm.cdc_cochange,
        "cdc_ownership": cm.cdc_ownership,
        "cdc_path_lifetimes": cm.cdc_path_lifetimes,
        # ingest-spike windows (integer-only threshold; local-oracle-green
        # — the r5 window was already allocated to never-verified entries)
        "cdc_bursts": cm.cdc_bursts,
        # census mergeability stated as an equality: two half-stream
        # partial folds merged must hash-match the full recompute
        # (oracle = SQL_OWNERSHIP, the cdc_reapply contract pattern)
        "cdc_ownership_incremental": cm.cdc_ownership_incremental,
        # --- reference operator families (SURVEY.md §2) --------------------
        "eav_encode": an.eav_encode,  # M6
        "str_normalize": an.str_normalize,  # M7/M8
        "agg_event_counts": an.agg_event_counts,  # A1/A2/A4
        "join_orders_nations": an.join_orders_nations,  # J3/J4 broadcast join
        "join_lineitem_orders": an.join_lineitem_orders,  # J4 bucketed hash join
        "deterministic_sample": an.deterministic_sample,  # reproducible sampling
        "customers_without_orders": an.customers_without_orders,  # J6/J7 anti-join
        "distinct_langs": an.distinct_langs,  # A3/D2
        "union_names": an.union_names,  # D1
        "topk_docs": an.topk_docs,  # O-family sort/limit
        "pricing_summary": an.pricing_summary,  # A-family rollup
    }
    from aiw_i2b2_etl_ray.pipelines import scalar_queries as sq

    cat.update(
        {
            "active_status": sq.active_status,  # M9
            "vital_status": sq.vital_status,  # M10
            "age_years": sq.age_years,  # M11
            "length_of_stay": sq.length_of_stay,  # M12
            "full_name": sq.full_name,  # M14
            "blob_join": sq.blob_join,  # M18
            "hierarchy_path": sq.hierarchy_path,  # path assembly
            "eav_inequality": sq.eav_inequality,  # M6 inequality arm
            "age_buckets": sq.age_buckets,  # demographics age bands
        }
    )
    from aiw_i2b2_etl_ray.pipelines import graph as gr
    from aiw_i2b2_etl_ray.pipelines import ontology as on
    from aiw_i2b2_etl_ray.pipelines import ontology_store as ost
    from aiw_i2b2_etl_ray.pipelines import windows as wn

    cat.update(
        {
            "ontology_table": on.ontology_table,  # K2/O2 metadata emission (3-level)
            # persistent store: two-run incremental merge converging on the
            # one-shot table (alreadyLoaded reconciliation)
            "ontology_persisted": ost.ontology_persisted,
            "concept_value_sets": on.concept_value_sets,  # M16/M17 value-set read
            "concept_descendants": on.concept_descendants,  # LevelReader analog
            "concept_ancestors": on.concept_ancestors,  # LevelReader parent walk
            "table_access": on.table_access,  # TableAccessReader discovery
            "lang_stats": on.lang_stats,  # A4 statistics + rollup
            "event_rank": wn.event_rank,  # O1/ST9 per-key ordering
            "derivation_reach": gr.derivation_reach,  # J2 bounded graph walk
            "tumbling_counts": wn.tumbling_counts,  # windowed aggregate
            "hopping_counts": wn.hopping_counts,  # overlapping-window aggregate
            "session_windows": wn.session_windows,  # gap sessionization
        }
    )
    from aiw_i2b2_etl_ray.pipelines import temporal_joins as tj
    from aiw_i2b2_etl_ray.pipelines import tpch_like as tq
    from aiw_i2b2_etl_ray.pipelines import window_funcs as wf

    cat.update(
        {
            "tpch_q3": tq.tpch_q3,  # 3-way join + top-k report
            "tpch_q5": tq.tpch_q5,  # 6-table local-supplier volume
            "tpch_q17": tq.tpch_q17,  # correlated scalar subquery (broadcast)
            "tpch_q18": tq.tpch_q18,  # HAVING semi-join report
            # r4 additions (rotate into the driver window in r5):
            "tpch_q6": tq.tpch_q6,  # predicate-box scan + conditional sum
            "tpch_q12": tq.tpch_q12,  # join + conditional counts
            "tpch_q14": tq.tpch_q14,  # promo revenue share (broadcast dim)
            "tpch_q16": tq.tpch_q16,  # distinct-count across join + NOT IN
            "tpch_q21": tq.tpch_q21,  # exactly-one-late-supplier (EXISTS pair)
            "tpch_q22": tq.tpch_q22,  # scalar-subquery avg + anti-join
            # r5 session-3 additions:
            "tpch_q4": tq.tpch_q4,  # EXISTS semi-join + priority rollup
            "tpch_q7": tq.tpch_q7,  # bi-national volume (2 broadcast dims)
            "tpch_q10": tq.tpch_q10,  # returned-item top-20 report
            "tpch_q13": tq.tpch_q13,  # order-count histogram incl. zero bucket
            "tpch_q15": tq.tpch_q15,  # argmax supplier by windowed revenue
            "tpch_q19": tq.tpch_q19,  # disjunctive predicate-box revenue
            "tpch_q8": tq.tpch_q8,  # national market share (8-table CASE ratio)
            "tpch_q20": tq.tpch_q20,  # excess-shipment suppliers (grouped-view threshold)
            "tpch_q9": tq.tpch_q9,  # profit by supplier-nation x year
            "tpch_q11": tq.tpch_q11,  # global-fraction top-value parts
            # full Q2 (correlated min, ALL ties kept, region-scoped dims,
            # attribute join-back, deterministic sort-limit) — the
            # group-wise-argmin variant below keeps only one winner
            "tpch_q2": tq.tpch_q2,
            "cheapest_supplier": tq.cheapest_supplier_per_part,  # group-wise argmin
            "asof_join": tj.asof_join_events_orders,  # as-of (latest-prior) join
            "range_join": tj.range_join_orders_shipments,  # interval join, no equi-key
            "overlap_join": tj.overlap_join,  # interval x interval overlap
            "cumulative_value": wf.cumulative_value,  # running-sum window frame
            "sliding_avg": wf.sliding_avg,  # bounded sliding frame
            "topk_per_group": wf.topk_orders_per_customer,  # ROW_NUMBER<=k analog
            "rollup_pricing": wf.rollup_pricing,  # GROUP BY ROLLUP grouping sets
            "users_per_type": wf.users_per_type,  # grouped COUNT(DISTINCT)
            "value_quantiles": wf.value_quantiles,  # exact quantile_cont analog
            "pivot_event_counts": wf.pivot_event_counts,  # fixed-vocab pivot
            "unpivot_lineitem": wf.unpivot_lineitem,  # melt to EAV rows
            "event_gaps": wf.event_gaps,  # LAG window analog
            "json_extract_props": wf.json_extract_props,  # semi-structured pull
            "global_rank": wf.global_rank_orders,  # total-order rank + NTILE
            "funnel_conversion": wf.funnel_conversion,  # ordered-sequence match
            "retention_cohorts": wf.retention_cohorts,  # cohort triangle
            "value_outliers": wf.value_outliers,  # z-score cleaning screen
            "user_journeys": wf.user_journeys,  # ordered string_agg analog
        }
    )
    from aiw_i2b2_etl_ray.pipelines import mixing as mx
    from aiw_i2b2_etl_ray.pipelines import sketches as sk

    cat.update(
        {
            # mergeable sketches: the unbounded-cardinality scale path
            "approx_distinct_users": sk.approx_distinct_users,  # HLL (hash-defined)
            "approx_median_hist": sk.approx_median_hist,  # histogram quantile
            # training-data curation: sampling / mixing / packing
            "sample_per_lang": mx.sample_per_lang,  # stratified hash sample
            "mix_sources": mx.mix_sources,  # weighted source mixing
            "pack_sequences": mx.pack_sequences,  # context-window packing
            "weighted_sample": mx.weighted_sample,  # A-ES weighted selection
            "corpus_shuffle": mx.corpus_shuffle,  # deterministic epoch order
            # deterministic train/val/test split census (new r5)
            "corpus_split": mx.corpus_split,
            # alpha=0.5 temperature-scaled source quotas (new r5)
            "mix_temperature": mx.mix_temperature,
        }
    )
    from aiw_i2b2_etl_ray.sources import declarative as dl
    from aiw_i2b2_etl_ray.sources import mappings as mp

    from aiw_i2b2_etl_ray.pipelines import extraction as ex

    cat.update(
        {
            "declarative_read": dl.declarative_read,  # S1 reader
            "declarative_read_phenotype": dl.declarative_read_phenotype,  # S2 variant
            "recode_events": mp.recode_events,  # S5 mapping recode
            "ontology_with_totals": on.ontology_with_totals,  # A6+J5
            "value_precedence": ex.value_precedence,  # M3+M4 precedence chain
            "date_resolution": ex.date_resolution,  # M5 encounter fallback
            "visit_default": ex.visit_default,  # M13
        }
    )
    try:  # training-data ops (dedup / similarity / text) — added as built
        from aiw_i2b2_etl_ray.pipelines import curation as cu
        from aiw_i2b2_etl_ray.pipelines import inference as inf
        from aiw_i2b2_etl_ray.pipelines import dedup as dd
        from aiw_i2b2_etl_ray.pipelines import dedup_index as ddi
        from aiw_i2b2_etl_ray.pipelines import graph_cc as gc
        from aiw_i2b2_etl_ray.pipelines import ann_index as anx
        from aiw_i2b2_etl_ray.pipelines import similarity as sim
        from aiw_i2b2_etl_ray.pipelines import clustering as clu
        from aiw_i2b2_etl_ray.pipelines import textops as tx
        from aiw_i2b2_etl_ray.pipelines import multimodal as mm
        from aiw_i2b2_etl_ray.pipelines import retrieval as rt

        cat.update(
            {
                "dedup_exact": dd.dedup_exact,
                # normalize-then-exact (CCNet-style fuzzy-exact) dedup
                "dedup_normalized": dd.dedup_normalized,
                "dedup_minhash": dd.minhash_pairs_cached,
                # persistent LSH index, two-increment build == one-shot
                "dedup_incremental": ddi.dedup_incremental,
                "dedup_simhash": dd.dedup_simhash,
                "dedup_ngram_jaccard": dd.dedup_ngram_jaccard,
                "dedup_embedding": dd.dedup_embedding,
                "dedup_embedding_ivf": dd.dedup_embedding_ivf,
                "dedup_clusters": gc.dedup_clusters,
                # cross-doc duplicated-span screen (substring-dedup
                # frequency pass, Lee et al. 2022 shape) — added r5
                "dup_spans": dd.dup_spans,
                # cross-source near-dup matrix (added r4, rotates into the
                # driver window in r5)
                "source_overlap": gc.source_overlap,
                "corpus_filter": cu.corpus_filter,
                # benchmark n-gram-overlap contamination screen (added r4,
                # rotates into the driver window in r5 — see COVERAGE.md)
                "decontaminate": cu.decontaminate,
                "model_score": inf.model_score,  # batched inference actor pool
                # spherical k-means: broadcast-centroid assignment (the
                # SemDeDup / cluster-based-selection partitioning step) and
                # the iterative Lloyd refinement (K x dim mergeable partials)
                "cluster_assign": clu.cluster_assign,
                "kmeans_refine": clu.kmeans_refine,
                "ann_topk": sim.ann_topk,
                "ann_lsh": sim.ann_lsh_topk,
                "ann_ivf": sim.ann_ivf_topk,
                # persistent IVF index: two-increment build == one-shot
                "ann_incremental": anx.ann_incremental,
                "text_tokens": tx.text_tokens,
                "text_quality": tx.text_quality,
                "text_langid": tx.text_langid,
                "text_fingerprint": tx.text_fingerprint,
                # intra-doc duplicate-ngram quality rule (added r4,
                # rotates into the driver window in r5)
                "text_repetition": tx.text_repetition,
                "text_scrub": tx.text_scrub,
                "vocab_topk": tx.vocab_topk,
                # exact heavy hitters without a full-domain shuffle
                "heavy_hitter_tokens": tx.heavy_hitter_tokens,
                # sparse lexical (tf-idf) relevance top-k — retrieval-
                # based curation read (new r5 session 2)
                "term_topk": rt.term_topk,
                "text_chunks": tx.text_chunks,
                "text_rolling_fp": tx.text_rolling_fp,
                "text_bpe_tokens": tx.text_bpe_tokens,
                # bounded-vocab unigram-LM quality score (new r5)
                "unigram_score": tx.unigram_score,
                # per-doc token-entropy lexical-diversity signal (new r5 s5)
                "text_entropy": tx.text_entropy,
                # Gopher duplicate-line-fraction filter (new r5 s6)
                "text_dup_lines": tx.text_dup_lines,
                # per-(source, lang) corpus census, exact-integer partials
                # (new r5 s6)
                "source_quality": tx.source_quality,
                # corpus-datasheet length histogram + bigram type-token
                # diversity census (new r5 s7)
                "doc_length_hist": tx.doc_length_hist,
                "ngram_diversity": tx.ngram_diversity,
                "multimodal_features": mm.multimodal_features,
                "multimodal_frames": mm.frame_sample,
                "multimodal_resize": mm.multimodal_resize,
            }
        )
        from aiw_i2b2_etl_ray.pipelines import profiling as pf

        # per-column datasheet census (new r5 s10): count/nulls/distinct/
        # min/max per column in two bounded passes — dim-sized partials,
        # map-side-DISTINCT pair exchange (local-oracle; the r5 window was
        # already allocated to never-verified entries)
        cat["table_profile"] = pf.table_profile
        # referential-integrity audit over every FK edge (new r5 s10):
        # child side never shuffles rows (distinct-(fk, n) combiner), the
        # parent key set is counted then broadcast or anti-joined
        cat["fk_orphans"] = pf.fk_orphans
    except ImportError:
        pass
    # Driver-window ordering: the correctness gate checks only the FIRST 50
    # entries in dict order.  Round-5 rotation (VERDICT r04 item #2): the six
    # queries that have never had a driver row (tpch_q6/q12/q14,
    # source_overlap, decontaminate, text_repetition) swap in for six
    # window-function stalwarts that went driver-green in r04; the CDC
    # sentinels and heavy_hitter_tokens (r04's one red row, fixed this
    # round) keep their slots.  All rotated-out queries remain in the dict
    # (and stay green in the local oracle harness,
    # tests/test_queries_vs_duckdb.py — same compare).
    window = [
        # CDC sentinels (flagship must keep a driver row)
        "cdc_path_dim",
        "cdc_change_fact",
        # never driver-verified (r4-late additions) — rotate in per VERDICT
        "tpch_q6",
        "tpch_q12",
        "tpch_q14",
        "source_overlap",
        "decontaminate",
        "text_repetition",
        # new (corpus_shuffle) / physically-changed (text_fingerprint —
        # polars-native normalization this round) queries take the slots
        # of two more r04-green stalwarts
        "corpus_shuffle",
        "text_fingerprint",
        # cross-doc duplicated-span screen (new r5)
        "dup_spans",
        # late-r5 additions (never driver-verified) take the slots of three
        # r04-green stalwarts (funnel_conversion, retention_cohorts,
        # approx_median_hist — all stay in the dict and local-green)
        "corpus_split",
        "mix_temperature",
        "unigram_score",
        # churn hot-list + tombstone GC plan (new r5 session 2, hash-
        # compared) take the slots of approx_distinct_users (rows-only,
        # r04 driver row exists) and concept_ancestors (r04 green)
        "cdc_hot_keys",
        "cdc_tombstone_gc",
        # tf-idf retrieval top-k (new r5 session 2) takes sample_per_lang's
        # slot (r04 driver-green; stays in the dict and local-green)
        "term_topk",
        # mix_sources: r04 driver-green; its one r5 change (the vectorized
        # md5 rank) is locally oracle-green at two sfs and shared with
        # weighted_sample/corpus_shuffle — its slot goes to the new
        # repo-mining co-change read (never driver-verified)
        "cdc_cochange",
        "pack_sequences",
        # weighted_sample: r04 driver-green; its one r5 change (the
        # vectorized md5 draw) is the same kernel mix_sources exercises
        # in the slot above, so its slot goes to the final-session Q2
        # (the last of the 22 TPC-H shapes — correlated min + join-back;
        # never driver-verified, preflighted at sf0.01 x 8 AND 32 CPUs
        # before rotating in).  weighted_sample stays in the dict and
        # local-oracle-green.
        "tpch_q2",
        # declarative_read_phenotype: r04 driver-green, sources/declarative
        # untouched since round 2 — its slot goes to the new source-census
        # groupby (new r5 s6; it exercises the sort-groupby empty-reduce-
        # block path, the layout-dependent class r04 caught at 32 CPUs;
        # text_dup_lines, the other s6 addition, is per-batch shuffle-free
        # and layout-independent, so local oracle coverage suffices)
        "source_quality",
        # Q21 (new r5 session 2, hash-compared) takes ontology_with_totals'
        # slot (r04 driver-green, unchanged since; stays local-green)
        "tpch_q21",
        # incremental snapshot diff (new late r5, never driver-verified)
        # takes value_precedence's slot (r04 driver-green; stays in the
        # dict and local-oracle-green)
        "cdc_state_diff",
        # spherical k-means (new r5, never driver-verified) takes the slots
        # of date_resolution/visit_default (both r04 driver-green; they stay
        # in the dict and local-oracle-green)
        "cluster_assign",
        "kmeans_refine",
        # dedup family: dedup_minhash/dedup_incremental are r04
        # driver-green; the r5 bucket-cap change is pytest-forced on a
        # crafted mass-duplicate corpus and locally oracle-green at two
        # sfs — their slots go to the new ownership/lifecycle mining reads
        # (never driver-verified, all-integer hash-compared)
        "cdc_ownership",
        "cdc_path_lifetimes",
        # dedup_simhash is hash-defined rows-only with an r04 driver row —
        # its slot frees for the sixth new TPC-H shape
        # dedup_ngram_jaccard / dedup_clusters: r04 driver-green, their
        # functions untouched this round — slots go to the exact-integer
        # Q9/Q11 shapes (minhash/incremental and source_overlap keep the
        # dedup + clustering families in the window)
        "tpch_q9",
        # dedup_embedding: r04 driver-green, untouched this round — its
        # slot goes to the new hash-compared Q8 market-share shape (the
        # IVF variant keeps the embedding-dedup family in the window)
        "tpch_q8",
        # dedup_embedding_ivf: r04 driver-green, untouched this round —
        # its slot goes to the all-integer integrity census (new r5 s5)
        "cdc_integrity",
        "tpch_q11",
        # corpus_filter: r04 driver-green, its adaptive drop-set plan
        # unchanged since r4 — slot goes to the new doc-length census
        # (never driver-verified)
        "doc_length_hist",
        # model_score: r04 driver-green, untouched this round — its slot
        # goes to the new hash-compared lang-migration audit
        "cdc_lang_migrations",
        # similarity family (ann_lsh/ann_ivf/ann_incremental are rows-only
        # by nature and already have r04 driver rows — their slots go to
        # three of the new hash-compared TPC-H shapes below)
        # ann_topk: r04 driver-green, similarity.py untouched this round —
        # its slot goes to the new hash-compared Q20 excess-shipment shape
        "tpch_q20",
        # text analysis family (dedup_simhash/text_rolling_fp/
        # text_bpe_tokens likewise rows-only with r04 driver rows — slots
        # freed for the remaining new TPC-H shapes).  Session-5 additions
        # (never driver-verified, all oracle-checked at two sfs) take the
        # slots of text_langid / text_scrub / vocab_topk — all three r04
        # driver-green with functions untouched this round; they stay in
        # the dict and local-oracle-green
        "text_entropy",
        "dedup_normalized",
        "cdc_reapply",
        "heavy_hitter_tokens",
        # text_chunks: r04 driver-green; the r5 offset vectorization is
        # locally oracle-green at two sfs — slot goes to the new n-gram
        # diversity census (never driver-verified)
        "ngram_diversity",
        # the six queries without a CORRECTNESS row yet take the slots of
        # six TPC-H shapes added in r5 (tpch_q4/q7/q10/q13/q15/q19: green
        # in CORRECTNESS_r05, untouched since; they stay in the dict and
        # local-oracle-green)
        "cdc_shared_content",
        "cdc_bursts",
        "cdc_ownership_incremental",
        "text_dup_lines",
        "table_profile",
        "fk_orphans",
        # multimodal plumbing: all three got driver rows in r04
        # (rows-only — no oracle by nature); the family keeps its local
        # pytest + rows-only history, its window slot goes to the new
        # hash-compared rename-detection read
        "cdc_renames",
        "tpch_q16",
        "tpch_q22",
        # SCD2 history + watermark audit (new r5 session 2, never
        # driver-verified) take the slots of ontology_table /
        # ontology_persisted (both r04 driver-green; they stay in the
        # dict and local-oracle-green)
        "cdc_scd2",
        "cdc_seq_audit",
    ]
    ordered: dict[str, Callable[[str], Any]] = {
        k: cat[k] for k in window if k in cat
    }
    ordered.update({k: v for k, v in cat.items() if k not in ordered})
    return ordered


def oracle_sql() -> dict[str, str]:
    from aiw_i2b2_etl_ray.pipelines import cdc_mining as cm
    from aiw_i2b2_etl_ray.pipelines import cdc_queries as cq

    sql: dict[str, str] = {
        "cdc_path_dim": cq.SQL_PATH_DIM,
        "cdc_change_fact": cq.SQL_CHANGE_FACT,
        "cdc_repo_dim": cq.SQL_REPO_DIM,
        "cdc_lang_dim": cq.SQL_LANG_DIM,
        "cdc_rejected": cq.SQL_REJECTED,
        "cdc_key_map": cq.SQL_KEY_MAP,
        "cdc_repo_map": cq.SQL_REPO_MAP,
        "cdc_state_asof": cq.SQL_STATE_ASOF,
        "cdc_state_diff": cq.SQL_STATE_DIFF,
        "cdc_scd2": cq.SQL_SCD2,
        "cdc_seq_audit": cq.SQL_SEQ_AUDIT,
        "cdc_hot_keys": cq.SQL_HOT_KEYS,
        "cdc_tombstone_gc": cq.SQL_TOMBSTONE_GC,
        "cdc_renames": cq.SQL_RENAMES,
        "cdc_lang_migrations": cq.SQL_LANG_MIGRATIONS,
        "cdc_shared_content": cq.SQL_SHARED_CONTENT,
        "cdc_change_fact_mod": cq.SQL_CHANGE_FACT_MOD,
        "cdc_modifier_dim": cq.SQL_MODIFIER_DIM,
        "cdc_author_dim": cq.SQL_AUTHOR_DIM,
        "cdc_reapply": cq.SQL_REAPPLY,
        "cdc_integrity": cq.SQL_INTEGRITY,
        "cdc_cochange": cm.SQL_COCHANGE,
        "cdc_ownership": cm.SQL_OWNERSHIP,
        "cdc_path_lifetimes": cm.SQL_PATH_LIFETIMES,
        "cdc_bursts": cm.SQL_BURSTS,
        "cdc_ownership_incremental": cm.SQL_OWNERSHIP,
        "eav_encode": """
            SELECT event_id,
                   CASE WHEN value IS NULL THEN '@' ELSE 'N' END AS valtype_cd,
                   CASE WHEN value IS NULL THEN NULL ELSE 'E' END AS tval_char,
                   ROUND(value, 4) AS nval_num
            FROM events
        """,
        "str_normalize": """
            SELECT doc_id,
                   substr(CASE WHEN source IS NULL OR source = '' THEN '@' ELSE source END, 1, 4) AS source_cd,
                   substr(text, 1, 50) AS text_50
            FROM documents
        """,
        "agg_event_counts": """
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   ROUND(SUM(value), 2)     AS sum_value
            FROM events GROUP BY event_type
        """,
        "join_orders_nations": """
            SELECT n.n_name,
                   ROUND(SUM(o.o_totalprice), 2) AS total_price,
                   CAST(COUNT(*) AS BIGINT)      AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n   ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "join_lineitem_orders": """
            SELECT o.o_orderpriority,
                   ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue,
                   CAST(COUNT(*) AS BIGINT) AS n_items
            FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
            GROUP BY o.o_orderpriority
        """,
        "deterministic_sample": """
            SELECT doc_id, lang, n_chars FROM documents WHERE doc_id % 10 = 0
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN
              (SELECT o_custkey FROM orders WHERE o_totalprice > 450000)
        """,
        "distinct_langs": "SELECT DISTINCT lang FROM documents",
        "union_names": """
            SELECT r_name AS name, 'region' AS kind FROM region
            UNION ALL
            SELECT n_name AS name, 'nation' AS kind FROM nation
        """,
        "topk_docs": """
            SELECT doc_id, n_chars FROM documents
            ORDER BY n_chars DESC, doc_id ASC LIMIT 20
        """,
        "pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   ROUND(SUM(l_quantity), 2)      AS sum_qty,
                   ROUND(SUM(l_extendedprice), 2) AS sum_base_price,
                   ROUND(SUM(l_extendedprice * (1 - l_discount)), 2) AS sum_disc_price,
                   CAST(COUNT(*) AS BIGINT)       AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
    }
    from aiw_i2b2_etl_ray.pipelines import scalar_queries as sq

    sql.update(
        {
            "active_status": sq.SQL_ACTIVE_STATUS,
            "vital_status": sq.SQL_VITAL_STATUS,
            "age_years": sq.SQL_AGE_YEARS,
            "length_of_stay": sq.SQL_LENGTH_OF_STAY,
            "full_name": sq.SQL_FULL_NAME,
            "blob_join": sq.SQL_BLOB_JOIN,
            "hierarchy_path": sq.SQL_HIERARCHY_PATH,
            "eav_inequality": sq.SQL_EAV_INEQUALITY,
            "age_buckets": sq.SQL_AGE_BUCKETS,
        }
    )
    from aiw_i2b2_etl_ray.pipelines import graph as gr
    from aiw_i2b2_etl_ray.pipelines import ontology as on
    from aiw_i2b2_etl_ray.pipelines import windows as wn

    sql.update(
        {
            "ontology_table": on.SQL_ONTOLOGY_TABLE,
            # convergence contract: the incrementally-merged store must be
            # byte-identical to the one-shot emission
            "ontology_persisted": on.SQL_ONTOLOGY_TABLE,
            "concept_value_sets": on.SQL_CONCEPT_VALUE_SETS,
            "concept_descendants": on.SQL_CONCEPT_DESCENDANTS,
            "concept_ancestors": on.SQL_CONCEPT_ANCESTORS,
            "table_access": on.SQL_TABLE_ACCESS,
            "lang_stats": on.SQL_LANG_STATS,
            "event_rank": wn.SQL_EVENT_RANK,
            "derivation_reach": gr.SQL_DERIVATION_REACH,
            "tumbling_counts": wn.SQL_TUMBLING_COUNTS,
            "hopping_counts": wn.SQL_HOPPING_COUNTS,
            "session_windows": wn.SQL_SESSION_WINDOWS,
        }
    )
    from aiw_i2b2_etl_ray.pipelines import temporal_joins as tj
    from aiw_i2b2_etl_ray.pipelines import tpch_like as tq
    from aiw_i2b2_etl_ray.pipelines import window_funcs as wf

    sql.update(
        {
            "tpch_q3": tq.SQL_TPCH_Q3,
            "tpch_q5": tq.SQL_TPCH_Q5,
            "tpch_q17": tq.SQL_TPCH_Q17,
            "tpch_q18": tq.SQL_TPCH_Q18,
            "tpch_q6": tq.SQL_TPCH_Q6,
            "tpch_q12": tq.SQL_TPCH_Q12,
            "tpch_q14": tq.SQL_TPCH_Q14,
            "tpch_q16": tq.SQL_TPCH_Q16,
            "tpch_q21": tq.SQL_TPCH_Q21,
            "tpch_q22": tq.SQL_TPCH_Q22,
            "tpch_q4": tq.SQL_TPCH_Q4,
            "tpch_q7": tq.SQL_TPCH_Q7,
            "tpch_q10": tq.SQL_TPCH_Q10,
            "tpch_q13": tq.SQL_TPCH_Q13,
            "tpch_q15": tq.SQL_TPCH_Q15,
            "tpch_q19": tq.SQL_TPCH_Q19,
            "tpch_q8": tq.SQL_TPCH_Q8,
            "tpch_q20": tq.SQL_TPCH_Q20,
            "tpch_q9": tq.SQL_TPCH_Q9,
            "tpch_q11": tq.SQL_TPCH_Q11,
            "tpch_q2": tq.SQL_TPCH_Q2,
            "cheapest_supplier": tq.SQL_CHEAPEST_SUPPLIER,
            "asof_join": tj.SQL_ASOF_JOIN,
            "range_join": tj.SQL_RANGE_JOIN,
            "overlap_join": tj.SQL_OVERLAP_JOIN,
            "cumulative_value": wf.SQL_CUMULATIVE_VALUE,
            "sliding_avg": wf.SQL_SLIDING_AVG,
            "topk_per_group": wf.SQL_TOPK_PER_CUSTOMER,
            "rollup_pricing": wf.SQL_ROLLUP_PRICING,
            "users_per_type": wf.SQL_USERS_PER_TYPE,
            "value_quantiles": wf.SQL_VALUE_QUANTILES,
            "pivot_event_counts": wf.SQL_PIVOT_EVENT_COUNTS,
            "unpivot_lineitem": wf.SQL_UNPIVOT_LINEITEM,
            "event_gaps": wf.SQL_EVENT_GAPS,
            "json_extract_props": wf.SQL_JSON_EXTRACT_PROPS,
            "global_rank": wf.SQL_GLOBAL_RANK_ORDERS,
            "funnel_conversion": wf.SQL_FUNNEL_CONVERSION,
            "retention_cohorts": wf.SQL_RETENTION_COHORTS,
            "value_outliers": wf.SQL_VALUE_OUTLIERS,
            "user_journeys": wf.SQL_USER_JOURNEYS,
        }
    )
    from aiw_i2b2_etl_ray.pipelines import sketches as sk

    # approx_distinct_users: HLL is xxhash-defined -> rows-only check; the
    # error-bound contract is pinned in tests/test_sketches.py
    sql.update({"approx_median_hist": sk.SQL_APPROX_MEDIAN_HIST})
    from aiw_i2b2_etl_ray.pipelines import mixing as mx

    sql.update(
        {
            "sample_per_lang": mx.SQL_SAMPLE_PER_LANG,
            "mix_sources": mx.SQL_MIX_SOURCES,
            "pack_sequences": mx.SQL_PACK_SEQUENCES,
            "weighted_sample": mx.SQL_WEIGHTED_SAMPLE,
            "corpus_shuffle": mx.SQL_CORPUS_SHUFFLE,
            "corpus_split": mx.SQL_CORPUS_SPLIT,
            "mix_temperature": mx.SQL_MIX_TEMPERATURE,
        }
    )
    from aiw_i2b2_etl_ray.sources import declarative as dl
    from aiw_i2b2_etl_ray.sources import mappings as mp

    from aiw_i2b2_etl_ray.pipelines import extraction as ex

    sql.update(
        {
            "declarative_read": dl.SQL_DECLARATIVE_READ,
            "declarative_read_phenotype": dl.SQL_DECLARATIVE_READ_PHENOTYPE,
            "recode_events": mp.SQL_RECODE_EVENTS,
            "ontology_with_totals": on.SQL_ONTOLOGY_WITH_TOTALS,
            "value_precedence": ex.SQL_VALUE_PRECEDENCE,
            "date_resolution": ex.SQL_DATE_RESOLUTION,
            "visit_default": ex.SQL_VISIT_DEFAULT,
        }
    )
    try:
        from aiw_i2b2_etl_ray.pipelines import curation as cu
        from aiw_i2b2_etl_ray.pipelines import inference as inf
        from aiw_i2b2_etl_ray.pipelines import dedup as dd
        from aiw_i2b2_etl_ray.pipelines import graph_cc as gc
        from aiw_i2b2_etl_ray.pipelines import similarity as sim
        from aiw_i2b2_etl_ray.pipelines import clustering as clu
        from aiw_i2b2_etl_ray.pipelines import textops as tx

        sql.update(
            {
                "dedup_exact": dd.SQL_DEDUP_EXACT,
                "dedup_normalized": dd.SQL_DEDUP_NORMALIZED,
                "dedup_embedding": dd.SQL_DEDUP_EMBEDDING,
                "dedup_clusters": gc.SQL_DEDUP_CLUSTERS,
                "dup_spans": dd.SQL_DUP_SPANS,
                "source_overlap": gc.SQL_SOURCE_OVERLAP,
                "corpus_filter": cu.SQL_CORPUS_FILTER,
                "decontaminate": cu.SQL_DECONTAMINATE,
                "model_score": inf.SQL_MODEL_SCORE,
                # recall deterministically 1.0 at multi-assign=4 on these
                # inputs (see IVF_DEDUP_ASSIGN note) -> exact-pairs oracle
                "dedup_embedding_ivf": dd.SQL_DEDUP_EMBEDDING_IVF,
                # exact all-pairs shingle-join oracles (LSH recall is
                # deterministically 1 on these inputs — see docstrings)
                "dedup_minhash": dd.SQL_DEDUP_MINHASH,
                "dedup_incremental": dd.SQL_DEDUP_MINHASH,  # convergence contract
                "dedup_ngram_jaccard": dd.SQL_DEDUP_NGRAM_JACCARD,
                "ann_topk": sim.SQL_ANN_TOPK,
                "cluster_assign": clu.SQL_CLUSTER_ASSIGN,
                "kmeans_refine": clu.SQL_KMEANS_REFINE,
                "text_tokens": tx.SQL_TEXT_TOKENS,
                "text_quality": tx.SQL_TEXT_QUALITY,
                "text_langid": tx.SQL_TEXT_LANGID,
                "text_fingerprint": tx.SQL_TEXT_FINGERPRINT,
                "text_repetition": tx.SQL_TEXT_REPETITION,
                "text_scrub": tx.SQL_TEXT_SCRUB,
                "vocab_topk": tx.SQL_VOCAB_TOPK,
                "heavy_hitter_tokens": tx.SQL_HEAVY_HITTERS,
                "text_chunks": tx.SQL_TEXT_CHUNKS,
                "unigram_score": tx.SQL_UNIGRAM_SCORE,
                "text_entropy": tx.SQL_TEXT_ENTROPY,
                "text_dup_lines": tx.SQL_TEXT_DUP_LINES,
                "source_quality": tx.SQL_SOURCE_QUALITY,
                "doc_length_hist": tx.SQL_DOC_LENGTH_HIST,
                "ngram_diversity": tx.SQL_NGRAM_DIVERSITY,
            }
        )
        from aiw_i2b2_etl_ray.pipelines import retrieval as rt

        sql["term_topk"] = rt.SQL_TERM_TOPK
        from aiw_i2b2_etl_ray.pipelines import profiling as pf

        sql["table_profile"] = pf.SQL_TABLE_PROFILE
        sql["fk_orphans"] = pf.SQL_FK_ORPHANS
        from aiw_i2b2_etl_ray.pipelines import multimodal as mm

        sql.update(
            {
                # the decode stub is deterministic (sha256-derived), so the
                # full plumbing is oracle-checkable
                "multimodal_features": mm.SQL_MULTIMODAL_FEATURES,
                "multimodal_frames": mm.SQL_MULTIMODAL_FRAMES,
                "multimodal_resize": mm.SQL_MULTIMODAL_RESIZE,
            }
        )
        # dedup_simhash / ann_lsh / text_rolling_fp / text_bpe_tokens:
        # hash/projection-defined (xxhash, rolling poly-hash, lookahead
        # regex) -> rows-only check; legitimately not SQL-expressible.
    except ImportError:
        pass
    return sql
