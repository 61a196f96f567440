"""CLI entry point — the unit a ``ray job submit`` invocation runs:

    ray job submit -- python -m aiw_i2b2_etl_ray replay \
        --input /data/changes --out /lake/star --mode update --resume

A killed driver resumes by re-submitting the same command with --resume:
committed partitions are skipped via the checkpoint manifest, uncommitted
ones re-merge idempotently (watermark + change-id dedup).
"""

from __future__ import annotations

import argparse
import json
import sys


def _id_filter(col: str, lo: int | None, hi: int | None):
    """Half-open [lo, hi) predicate on an id column, pushed into the
    parquet scan; None bounds are open."""
    import pyarrow.dataset as pads

    expr = None
    if lo is not None:
        expr = pads.field(col) >= lo
    if hi is not None:
        e2 = pads.field(col) < hi
        expr = e2 if expr is None else (expr & e2)
    return expr


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="aiw_i2b2_etl_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    rp = sub.add_parser("replay", help="run a CDC replay")
    rp.add_argument("--input", required=True, help="change-log dir/file")
    rp.add_argument(
        "--input-format",
        choices=["parquet", "csv", "jsonl"],
        default="parquet",
        help="change-log encoding (all land on the same unified schema)",
    )
    rp.add_argument("--out", required=True, help="output star-schema dir")
    rp.add_argument("--mode", choices=["replace", "update"], default="replace")
    rp.add_argument("--resume", action="store_true")
    rp.add_argument("--run-id", default=None)
    rp.add_argument("--num-partitions", type=int, default=256)
    rp.add_argument("--salt-buckets", type=int, default=8)
    rp.add_argument("--hot-key-threshold", type=int, default=250_000)
    rp.add_argument("--merge-policy", default="last_writer_wins")
    rp.add_argument(
        "--pre-hook",
        default=None,
        help="'module:function' run before any output mutation (EK_PRE_HOOK)",
    )
    rp.add_argument(
        "--post-hook",
        default=None,
        help="'module:function' run after all outputs commit (EK_POST_HOOK)",
    )

    cp = sub.add_parser("compact", help="consolidate hot-key LSM runs into one file")
    cp.add_argument("--out", required=True)

    st = sub.add_parser("status", help="print the checkpoint manifest")
    st.add_argument("--out", required=True)

    rt = sub.add_parser(
        "retract", help="retract all rows one source system (lang) contributed"
    )
    rt.add_argument("--out", required=True)
    rt.add_argument("--langs", required=True, help="comma-separated lang codes")
    rt.add_argument(
        "--run-id", default=None, help="archive directory name (auto-numbered if omitted)"
    )

    cb = sub.add_parser(
        "corpus", help="end-to-end training-corpus build (filter+dedup+pack+write)"
    )
    cb.add_argument("--sf-dir", required=True, help="input table dir (documents.parquet)")
    cb.add_argument("--out", required=True)
    cb.add_argument("--capacity", type=int, default=2048)

    on = sub.add_parser(
        "ontology",
        help="incrementally merge discovered concepts into the persisted metadata table",
    )
    on.add_argument("--sf-dir", required=True, help="input table dir (documents.parquet)")
    on.add_argument("--out", required=True, help="warehouse dir (metadata/ lives here)")

    di = sub.add_parser(
        "dedup-index",
        help="fold a document slice into the persistent LSH dedup index; "
        "prints the UNVERIFIED candidate-pair count (pairs involving at "
        "least one new doc; exact-verify downstream)",
    )
    di.add_argument("--sf-dir", required=True, help="input dir (documents.parquet)")
    di.add_argument("--out", required=True, help="warehouse dir (dedup_index/ lives here)")
    di.add_argument("--id-min", type=int, default=None, help="doc_id >= bound")
    di.add_argument("--id-max", type=int, default=None, help="doc_id < bound")
    di.add_argument("--run-id", default=None)
    di.add_argument(
        "--compact", action="store_true", help="fold band run dirs after the update"
    )

    ai = sub.add_parser(
        "ann-index",
        help="fold an embedding slice into the persistent IVF index "
        "(trains the quantizer on first use); --query prints top-k instead",
    )
    ai.add_argument("--sf-dir", required=True, help="input dir (embeddings.parquet)")
    ai.add_argument("--out", required=True, help="warehouse dir (ann_index/ lives here)")
    ai.add_argument("--id-min", type=int, default=None, help="vec_id >= bound")
    ai.add_argument("--id-max", type=int, default=None, help="vec_id < bound")
    ai.add_argument("--run-id", default=None)
    ai.add_argument("--query", action="store_true", help="query instead of update")
    ai.add_argument(
        "--compact", action="store_true", help="fold list run dirs after the update"
    )

    wn = sub.add_parser(
        "windows", help="fold a change-log micro-batch into persistent window counts"
    )
    wn.add_argument("--input", required=True)
    wn.add_argument(
        "--input-format", choices=["parquet", "csv", "jsonl"], default="parquet"
    )
    wn.add_argument("--out", required=True)
    wn.add_argument("--num-partitions", type=int, default=8)

    args = p.parse_args(argv)

    import ray

    from .util import cap_kernel_threads

    # before ray.init: workers inherit the caps, so stages need no
    # runtime_env of their own (util.worker_runtime_env) and run in Ray's
    # default worker pool
    cap_kernel_threads()
    if not ray.is_initialized():  # a ray job submit driver may pre-init
        ray.init(address="local", include_dashboard=False, ignore_reinit_error=True)

    if args.cmd == "replay":
        from .config import ReplaySpec
        from .pipelines.cdc_replay import replay

        spec = ReplaySpec(
            out_dir=args.out,
            num_partitions=args.num_partitions,
            salt_buckets=args.salt_buckets,
            hot_key_threshold=args.hot_key_threshold,
            mode=args.mode,
            merge_policy=args.merge_policy,
            pre_hook=args.pre_hook,
            post_hook=args.post_hook,
        )
        if args.input_format == "parquet":
            src = args.input  # replay() prunes at the parquet read itself
        else:
            from .sources.changes import CHANGE_READERS

            src = CHANGE_READERS[args.input_format](args.input)
        summary = replay(src, spec, resume=args.resume, run_id=args.run_id)
        print(json.dumps({k: v for k, v in summary.items() if k != "out"}))
    elif args.cmd == "compact":
        from .stages.merge import compact_path_dim

        print(json.dumps({"hot_keys": compact_path_dim(args.out)}))
    elif args.cmd == "status":
        from .state.manifest import read_manifest

        print(json.dumps(read_manifest(args.out)))
    elif args.cmd == "retract":
        from .pipelines.retract import retract_source

        print(
            json.dumps(
                retract_source(args.out, set(args.langs.split(",")), run_id=args.run_id)
            )
        )
    elif args.cmd == "corpus":
        from .pipelines.curation import corpus_build

        print(json.dumps(corpus_build(args.sf_dir, args.out, capacity=args.capacity)))
    elif args.cmd == "ontology":
        from .pipelines.ontology_store import update_ontology

        print(json.dumps(update_ontology(args.sf_dir, args.out)))
    elif args.cmd == "dedup-index":
        from .pipelines.dedup_index import index_compact, index_update

        summary, cands = index_update(
            args.sf_dir,
            args.out,
            row_filter=_id_filter("doc_id", args.id_min, args.id_max),
            run_id=args.run_id,
        )
        if args.compact:
            summary["compaction"] = index_compact(args.out)
        print(json.dumps(summary))
    elif args.cmd == "ann-index":
        from .pipelines.ann_index import ann_index_query, ann_index_update

        if args.query:
            df = ann_index_query(args.sf_dir, args.out)
            print(df.to_json(orient="records"))
        else:
            summary = ann_index_update(
                args.sf_dir,
                args.out,
                row_filter=_id_filter("vec_id", args.id_min, args.id_max),
                run_id=args.run_id,
            )
            if args.compact:
                from .pipelines.ann_index import ann_index_compact

                summary["compaction"] = ann_index_compact(args.out)
            print(json.dumps(summary))
    elif args.cmd == "windows":
        from .pipelines.stream_windows import update_windows

        if args.input_format == "parquet":
            src = args.input
        else:
            from .sources.changes import CHANGE_READERS

            src = CHANGE_READERS[args.input_format](args.input, with_content=False)
        print(
            json.dumps(
                update_windows(src, args.out, num_partitions=args.num_partitions)
            )
        )
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
