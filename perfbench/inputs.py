"""Seeded benchmark inputs and their oracle answers.

Everything here is a pure function of ``(seed, scale)``.  Inputs and the
oracle's expected answers are built once per seed and scale under the
cache directory and reused by later runs; building them is never timed.

- full_replay: one change log from ``sources.synth.generate_changes`` with
  the ``bench.py`` event mix, plus ``oracle.replay``'s answer for it.
- tail_updates: a base log, a fixed sequence of small micro-batches (each a
  new log segment plus a re-sent slice of the previous segment; the later
  batches carry the evolved ``size`` column), and the oracle's answer
  after the base and after each batch prefix a run reaches.
- the catalog panel: the five tables its queries read, in the schemas of
  TESTDATA.md, plus the DuckDB ``oracle_sql()`` answer for each query.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

#: sizes per scale; "std" is the benchmark, "tiny" the self-tests
SCALES = {
    "std": {
        "full_events": 40_000,
        "full_files": 8,
        "tail_base": 10_000,
        "tail_batch": 2_000,
        "tail_batches": 16,
        "cat_events": 5_000,
        "cat_docs": 500,
        "cat_orders": 7_500,
    },
    "tiny": {
        "full_events": 6_000,
        "full_files": 8,
        "tail_base": 4_000,
        "tail_batch": 500,
        "tail_batches": 4,
        "cat_events": 1_000,
        "cat_docs": 120,
        "cat_orders": 1_000,
    },
}

#: bump when the cached layout changes
CACHE_FORMAT = 2
#: the bench.py replay shape: 32 partitions, 8 salt buckets
NUM_PARTITIONS = 32
SALT_BUCKETS = 8
#: the re-sent share of the previous segment in every tail batch
RESEND_FRAC = 0.2

PANEL = (
    "dedup_exact",
    "dedup_normalized",
    "event_gaps",
    "cdc_path_dim",
    "cdc_seq_audit",
    "tpch_q18",
)
CATALOG_TABLES = ("events", "documents", "customer", "orders", "lineitem")


# --- digests -----------------------------------------------------------------


def path_dim_digest(t: pa.Table) -> str:
    """Order-insensitive sha256 over the per-row fields the check compares:
    key, content digest, last_commit_seq and delete_date."""
    import pandas as pd

    df = pd.DataFrame(
        {
            "repo": t["repo"].to_pylist(),
            "path": t["path"].to_pylist(),
            "sha": t["content_sha256"].to_pylist(),
            "seq": t["last_commit_seq"].to_pylist(),
            "del": t["delete_date"].cast(pa.timestamp("us")).cast(pa.int64()).to_pylist(),
        }
    ).sort_values(["repo", "path"], kind="mergesort")
    h = hashlib.sha256()
    for row in df.itertuples(index=False):
        h.update(repr(tuple(row)).encode())
    return h.hexdigest()


def frame_digest(df) -> str:
    """The compare hash of ``tools/preflight.py``: columns sorted by
    name, rows sorted, cells stringified."""
    import pandas as pd

    df = df[sorted(df.columns)].sort_values(sorted(df.columns)).reset_index(drop=True)
    return hashlib.sha256(
        pd.util.hash_pandas_object(df.astype(str)).values.tobytes()
    ).hexdigest()[:16]


def _oracle_answer(events: pa.Table) -> dict:
    from aiw_i2b2_etl_ray import oracle

    o = oracle.replay(events)
    return {
        "path_dim": path_dim_digest(pa.Table.from_pandas(o.path_dim, preserve_index=False)),
        "lineage": {
            "rows_applied": len(o.change_fact),
            "dups_dropped": o.counters["dups_dropped"],
            "rows_rejected": len(o.rejected),
        },
        "events": events.num_rows,
    }


# --- cache -------------------------------------------------------------------


class Inputs:
    """Cached inputs of one ``(seed, scale)`` under ``cache_root``."""

    def __init__(self, cache_root: str, seed: int, scale: str = "std"):
        self.seed = seed
        self.size = SCALES[scale]
        key = hashlib.sha256(
            json.dumps([CACHE_FORMAT, seed, scale, self.size], sort_keys=True).encode()
        ).hexdigest()[:12]
        self.dir = os.path.join(cache_root, f"in-{scale}-{seed}-{key}")

    def _built(self, name: str, build) -> str:
        """Build ``name`` once: into a temp dir, renamed when complete."""
        d = os.path.join(self.dir, name)
        if not os.path.exists(os.path.join(d, "_COMPLETE")):
            tmp = d + ".tmp"
            shutil.rmtree(tmp, ignore_errors=True)
            shutil.rmtree(d, ignore_errors=True)
            os.makedirs(tmp)
            build(tmp)
            open(os.path.join(tmp, "_COMPLETE"), "w").close()
            os.replace(tmp, d)
        return d

    @staticmethod
    def _load(d: str) -> dict:
        with open(os.path.join(d, "answer.json")) as f:
            return json.load(f)

    # -- full_replay ----------------------------------------------------------
    def full_log(self) -> str:
        return os.path.join(self._built("full", self._build_full), "log")

    def full_answer(self) -> dict:
        return self._load(self._built("full", self._build_full))

    def _build_full(self, d: str) -> None:
        from aiw_i2b2_etl_ray.sources.changes import read_changes_table
        from aiw_i2b2_etl_ray.sources.synth import generate_changes

        n = self.size["full_events"]
        log = os.path.join(d, "log")
        generate_changes(
            log,
            n,
            n_repos=20,
            paths_per_repo=200,
            seed=self.seed,
            rows_per_file=n // self.size["full_files"],
        )
        with open(os.path.join(d, "answer.json"), "w") as f:
            json.dump(_oracle_answer(read_changes_table(log)), f)

    # -- tail_updates ---------------------------------------------------------
    def tail(self) -> dict:
        """``{"base": dir, "batches": [dir, ...]}``."""
        d = self._built("tail", self._build_tail)
        return {
            "base": os.path.join(d, "base"),
            "batches": sorted(glob.glob(os.path.join(d, "batch-*"))),
        }

    def tail_answer(self, k: int) -> dict:
        """The oracle after the base and batches 1..k, built on first use.
        It sees every event once: the re-sent slices are redeliveries the
        engine drops at the watermark without counting them."""
        from aiw_i2b2_etl_ray.sources.changes import read_changes_table

        d = self._built("tail", self._build_tail)
        path = os.path.join(d, f"answer-{k:03d}.json")
        if not os.path.exists(path):
            segs = [read_changes_table(os.path.join(d, "base"))] + [
                read_changes_table(os.path.join(d, f"batch-{i:03d}", "segment.parquet"))
                for i in range(1, k + 1)
            ]
            with open(path + ".tmp", "w") as f:
                json.dump(_oracle_answer(concat_changes(segs)), f)
            os.replace(path + ".tmp", path)
        with open(path) as f:
            return json.load(f)

    def _build_tail(self, d: str) -> None:
        from aiw_i2b2_etl_ray.sources.synth import generate_changes

        base, batch, k = (self.size[x] for x in ("tail_base", "tail_batch", "tail_batches"))
        total = base + k * batch
        raw = os.path.join(d, "raw")
        # one log cut into segments of `batch` events: the base is the first
        # base/batch files, batch i the next file; the schema evolves from
        # the third batch on
        generate_changes(
            raw,
            total,
            n_repos=20,
            paths_per_repo=200,
            seed=self.seed + 1_000_003,
            rows_per_file=batch,
            evo_frac=(base + 2 * batch) / total,
        )
        files = sorted(glob.glob(os.path.join(raw, "*.parquet")))
        n_base = base // batch
        os.makedirs(os.path.join(d, "base"))
        for f in files[:n_base]:
            os.replace(f, os.path.join(d, "base", os.path.basename(f)))
        prev = os.path.join(d, "base", os.path.basename(files[n_base - 1]))
        for i, f in enumerate(files[n_base:], 1):
            bd = os.path.join(d, f"batch-{i:03d}")
            os.makedirs(bd)
            seg = os.path.join(bd, "segment.parquet")
            os.replace(f, seg)
            # the re-sent slice: the tail of the previous segment
            p = pq.read_table(prev)
            n_re = int(len(p) * RESEND_FRAC)
            pq.write_table(p.slice(len(p) - n_re), os.path.join(bd, "resent.parquet"))
            prev = seg
        os.rmdir(raw)

    # -- catalog panel --------------------------------------------------------
    def catalog(self) -> tuple[str, dict]:
        """``(table_dir, {query: {"rows", "cols", "hash"}})``."""
        d = self._built("catalog", self._build_catalog)
        return os.path.join(d, "tables"), self._load(d)

    def _build_catalog(self, d: str) -> None:
        import duckdb

        tables = os.path.join(d, "tables")
        os.makedirs(tables)
        write_catalog_tables(tables, self.seed, self.size)
        from __ray_entry__ import oracle_sql

        sqls = oracle_sql()
        con = duckdb.connect()
        for t in CATALOG_TABLES:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{tables}/{t}.parquet')"
            )
        ans = {}
        for q in PANEL:
            df = con.sql(sqls[q]).df()
            ans[q] = {"rows": len(df), "cols": sorted(df.columns), "hash": frame_digest(df)}
        con.close()
        with open(os.path.join(d, "answer.json"), "w") as f:
            json.dump(ans, f)


def concat_changes(tables: list[pa.Table]) -> pa.Table:
    """Change-log tables in one, the schema unified across evolution."""
    from aiw_i2b2_etl_ray.schemas import CHANGES_V2, ensure_columns

    if any("size" in t.column_names for t in tables):
        tables = [ensure_columns(t, CHANGES_V2) for t in tables]
    return pa.concat_tables(tables)


# --- catalog tables ----------------------------------------------------------

_WORDS = (
    "key agg row scan slow fast table value part hash merge batch spark the a "
    "line sort window order data column join small customer query big stream "
    "filter group vector"
).split()
_EVENT_TYPES = np.array(["signup", "error", "click", "view", "purchase"])
_LANGS = np.array(["en", "zh", "es", "de", "fr"])
_SEGMENTS = np.array(["HOUSEHOLD", "MACHINERY", "FURNITURE", "BUILDING", "AUTOMOBILE"])
_PRIORITIES = np.array(["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"])


def write_catalog_tables(out: str, seed: int, size: dict) -> None:
    """The panel's five tables in the TESTDATA.md schemas,
    shaped like its generator's: ~100 users per 10k events, 4 line items
    per order on average, and documents with exact and case/punctuation
    duplicates so both dedup screens have work to do."""
    rng = np.random.default_rng(seed)
    us = pa.timestamp("us")

    n_ev = size["cat_events"]
    gaps = rng.exponential(259e6, n_ev).astype(np.int64) + 1
    ts = np.datetime64("2024-01-01", "us").astype(np.int64) + np.cumsum(gaps)
    events = pa.table(
        {
            "event_id": pa.array(np.arange(n_ev, dtype=np.int64)),
            "ts": pa.array(ts, us),
            "user_id": pa.array(rng.integers(0, max(10, n_ev // 67), n_ev)),
            "event_type": pa.array(_EVENT_TYPES[rng.integers(0, 5, n_ev)]),
            "value": pa.array(np.round(rng.uniform(0, 20, n_ev), 2)),
            "props": pa.array([f'{{"k": {k}}}' for k in rng.integers(0, 100, n_ev)]),
        }
    )

    n_doc = size["cat_docs"]
    texts = [
        " ".join(rng.choice(_WORDS, int(rng.integers(8, 80))))
        for _ in range(n_doc)
    ]
    for i in range(n_doc):
        r = rng.random()
        if i and r < 0.05:  # exact copy of an earlier document
            texts[i] = texts[int(rng.integers(0, i))]
        elif i and r < 0.10:  # same prose, different case and punctuation
            texts[i] = texts[int(rng.integers(0, i))].upper().replace(" ", ",  ", 2) + "!"
    documents = pa.table(
        {
            "doc_id": pa.array(np.arange(n_doc, dtype=np.int64)),
            "text": pa.array(texts),
            "lang": pa.array(_LANGS[rng.integers(0, 5, n_doc)]),
            "source": pa.array([f"src{i % 20}" for i in range(n_doc)]),
            "n_chars": pa.array([len(t) for t in texts], pa.int64()),
        }
    )

    n_ord = size["cat_orders"]
    n_cust = max(10, n_ord // 10)
    customer = pa.table(
        {
            "c_custkey": pa.array(np.arange(n_cust, dtype=np.int64)),
            "c_name": pa.array([f"Customer#{i:09d}" for i in range(n_cust)]),
            "c_nationkey": pa.array(rng.integers(0, 25, n_cust).astype(np.int32)),
            "c_acctbal": pa.array(np.round(rng.uniform(-999, 9999, n_cust), 2)),
            "c_mktsegment": pa.array(_SEGMENTS[rng.integers(0, 5, n_cust)]),
        }
    )
    day0 = np.datetime64("1992-01-01", "us").astype(np.int64)
    day = 86_400_000_000
    orders = pa.table(
        {
            "o_orderkey": pa.array(np.arange(n_ord, dtype=np.int64)),
            "o_custkey": pa.array(rng.integers(0, n_cust, n_ord)),
            "o_orderstatus": pa.array(np.array(["O", "F", "P"])[rng.integers(0, 3, n_ord)]),
            "o_totalprice": pa.array(np.round(rng.uniform(900, 500_000, n_ord), 2)),
            "o_orderdate": pa.array(day0 + rng.integers(0, 2400, n_ord) * day, us),
            "o_orderpriority": pa.array(_PRIORITIES[rng.integers(0, 5, n_ord)]),
        }
    )
    per_order = rng.integers(1, 8, n_ord)
    n_li = int(per_order.sum())
    lineitem = pa.table(
        {
            "l_orderkey": pa.array(np.repeat(np.arange(n_ord, dtype=np.int64), per_order)),
            "l_partkey": pa.array(rng.integers(0, 2000, n_li)),
            "l_suppkey": pa.array(rng.integers(0, 100, n_li)),
            "l_linenumber": pa.array(
                np.concatenate([np.arange(1, k + 1) for k in per_order]).astype(np.int32)
            ),
            "l_quantity": pa.array(rng.integers(1, 51, n_li).astype(np.float64)),
            "l_extendedprice": pa.array(np.round(rng.uniform(900, 100_000, n_li), 2)),
            "l_discount": pa.array(rng.integers(0, 11, n_li) / 100.0),
            "l_tax": pa.array(rng.integers(0, 9, n_li) / 100.0),
            "l_returnflag": pa.array(np.array(["A", "N", "R"])[rng.integers(0, 3, n_li)]),
            "l_linestatus": pa.array(np.array(["F", "O"])[rng.integers(0, 2, n_li)]),
            "l_shipdate": pa.array(day0 + rng.integers(0, 2500, n_li) * day, us),
        }
    )
    for name, t in (
        ("events", events),
        ("documents", documents),
        ("customer", customer),
        ("orders", orders),
        ("lineitem", lineitem),
    ):
        pq.write_table(t, os.path.join(out, f"{name}.parquet"))
