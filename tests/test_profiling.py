"""Edge cases for the per-column datasheet census (pipelines/profiling.py).

The oracle equivalence itself is covered by test_queries_vs_duckdb
(table_profile is parametrized in automatically); these pin the partial
shapes the fold depends on: all-null blocks, null-bearing blocks, and
the fixed partial schema regardless of block content.
"""

import pyarrow as pa

from aiw_i2b2_etl_ray.pipelines.profiling import (
    _PARTIAL_SCHEMA,
    _distinct_pairs_int,
    _distinct_pairs_str,
    _stats_partial,
    PROFILE_COLS,
)


def _block(rows: dict) -> pa.Table:
    names = [c for c, _ in PROFILE_COLS]
    data = {}
    n = len(next(iter(rows.values()))) if rows else 0
    for name, kind in PROFILE_COLS:
        if name in rows:
            data[name] = rows[name]
        elif kind == "int":
            data[name] = pa.array([None] * n, pa.int64())
        elif kind == "date":
            data[name] = pa.array([None] * n, pa.timestamp("us"))
        else:
            data[name] = pa.array([None] * n, pa.string())
    return pa.table({k: data[k] for k in names})


def test_stats_partial_all_null_block():
    t = _block({"l_orderkey": pa.array([None, None], pa.int64())})
    p = _stats_partial(t)
    assert p.schema.equals(_PARTIAL_SCHEMA)
    assert len(p) == len(PROFILE_COLS)
    rows = {r["col"]: r for r in p.to_pylist()}
    for name, _ in PROFILE_COLS:
        r = rows[name]
        assert r["n_rows"] == 2 and r["n_nulls"] == 2
        assert r["min_i"] is None and r["max_i"] is None
        assert r["min_s"] is None and r["max_s"] is None


def test_stats_partial_mixed_nulls_and_date_format():
    import datetime

    t = _block(
        {
            "l_orderkey": pa.array([5, None, 3], pa.int64()),
            "l_returnflag": pa.array(["R", "A", None], pa.string()),
            "l_shipdate": pa.array(
                [
                    datetime.datetime(1995, 1, 2, 0, 0, 0, 123456),
                    None,
                    datetime.datetime(2001, 11, 4),
                ],
                pa.timestamp("us"),
            ),
        }
    )
    rows = {r["col"]: r for r in _stats_partial(t).to_pylist()}
    assert rows["l_orderkey"]["min_i"] == 3 and rows["l_orderkey"]["max_i"] == 5
    assert rows["l_orderkey"]["n_nulls"] == 1
    assert rows["l_returnflag"]["min_s"] == "A" and rows["l_returnflag"]["max_s"] == "R"
    # second-granularity image: microseconds truncated, no fractional part
    assert rows["l_shipdate"]["min_s"] == "1995-01-02 00:00:00"
    assert rows["l_shipdate"]["max_s"] == "2001-11-04 00:00:00"


def test_distinct_pairs_drops_nulls_and_dedups_in_block():
    t = _block(
        {
            "l_orderkey": pa.array([1, 1, None, 2], pa.int64()),
            "l_returnflag": pa.array(["R", "R", "R", None], pa.string()),
        }
    )
    pi = _distinct_pairs_int(t)
    ps = _distinct_pairs_str(t)
    # int-keyed columns exchange as int64 (never stringified)
    assert pi["v"].type == pa.int64()
    int_pairs = set(zip(pi["col"].to_pylist(), pi["v"].to_pylist()))
    assert ("l_orderkey", 1) in int_pairs and ("l_orderkey", 2) in int_pairs
    str_pairs = set(zip(ps["col"].to_pylist(), ps["v"].to_pylist()))
    assert ("l_returnflag", "R") in str_pairs
    # nulls never enter the distinct exchange
    assert not any(v is None for v in pi["v"].to_pylist() + ps["v"].to_pylist())
    # in-block dedup: one pair per distinct value; streams are disjoint
    assert len(int_pairs) == len(pi) and len(str_pairs) == len(ps)
    assert {c for c, _ in int_pairs}.isdisjoint({c for c, _ in str_pairs})


def test_distinct_pairs_with_no_column_of_the_kind(monkeypatch):
    """A column list holding one kind only leaves the other pair function
    with nothing to concatenate: it returns a typed empty table."""
    from aiw_i2b2_etl_ray.pipelines import profiling

    t = pa.table({"a": pa.array([1, 2], pa.int64()), "b": pa.array(["x", None])})
    monkeypatch.setattr(profiling, "PROFILE_COLS", [("b", "str")])
    pi = _distinct_pairs_int(t)
    assert len(pi) == 0 and pi.schema == pa.schema([("col", pa.string()), ("v", pa.int64())])
    monkeypatch.setattr(profiling, "PROFILE_COLS", [("a", "int")])
    ps = _distinct_pairs_str(t)
    assert len(ps) == 0 and ps.schema == pa.schema([("col", pa.string()), ("v", pa.string())])


def test_stats_partial_pre_epoch_subsecond_floors():
    """Pre-epoch sub-second timestamps floor to the second, as DuckDB's
    strftime does (a truncating cast would round them up to 1970)."""
    import datetime

    t = _block(
        {
            "l_shipdate": pa.array(
                [datetime.datetime(1969, 12, 31, 23, 59, 59, 500000)], pa.timestamp("us")
            )
        }
    )
    rows = {r["col"]: r for r in _stats_partial(t).to_pylist()}
    assert rows["l_shipdate"]["min_s"] == "1969-12-31 23:59:59"
    assert rows["l_shipdate"]["max_s"] == "1969-12-31 23:59:59"


# --- fk_orphans ---------------------------------------------------------------


def _mini_tables(d, *, null_fk=False, orphan_fk=False):
    """Minimal 7-table layout exercising every FK edge."""
    import pyarrow.parquet as pq

    def w(name, tbl):
        pq.write_table(tbl, f"{d}/{name}.parquet")

    w("region", pa.table({"r_regionkey": pa.array([0, 1], pa.int64())}))
    w(
        "nation",
        pa.table(
            {
                "n_nationkey": pa.array([0, 1, 2], pa.int64()),
                # one NULL FK and/or one dangling FK when requested
                "n_regionkey": pa.array(
                    [0, None if null_fk else 1, 9 if orphan_fk else 0], pa.int64()
                ),
            }
        ),
    )
    w(
        "customer",
        pa.table(
            {
                "c_custkey": pa.array([10, 11], pa.int64()),
                "c_nationkey": pa.array([0, 2], pa.int64()),
            }
        ),
    )
    w(
        "supplier",
        pa.table(
            {
                "s_suppkey": pa.array([20], pa.int64()),
                "s_nationkey": pa.array([1], pa.int64()),
            }
        ),
    )
    w("part", pa.table({"p_partkey": pa.array([30, 31], pa.int64())}))
    w(
        "orders",
        pa.table(
            {
                "o_orderkey": pa.array([40, 41, 42], pa.int64()),
                "o_custkey": pa.array([10, 11, 10], pa.int64()),
            }
        ),
    )
    w(
        "lineitem",
        pa.table(
            {
                "l_orderkey": pa.array([40, 40, 42], pa.int64()),
                "l_partkey": pa.array([30, 31, 30], pa.int64()),
                "l_suppkey": pa.array([20, 20, 20], pa.int64()),
            }
        ),
    )


def test_fk_orphans_counts_null_and_dangling_fks(tmp_path):
    from aiw_i2b2_etl_ray.pipelines.profiling import fk_orphans

    d = str(tmp_path)
    _mini_tables(d, null_fk=True, orphan_fk=True)
    rows = {r["rel"]: r for r in fk_orphans(d).to_pylist()}
    # nation has 3 rows: one valid FK (0), one NULL, one dangling (9)
    assert rows["nation->region"]["n_child"] == 3
    assert rows["nation->region"]["n_orphan"] == 2
    # every other edge is fully contained
    for rel, r in rows.items():
        if rel != "nation->region":
            assert r["n_orphan"] == 0, rel


def test_fk_orphans_anti_join_branch_matches_broadcast(tmp_path, monkeypatch):
    """Forcing the distributed anti-join plan (parent 'too large to
    broadcast') must produce the identical audit."""
    from aiw_i2b2_etl_ray.pipelines import profiling

    d = str(tmp_path)
    _mini_tables(d, null_fk=True, orphan_fk=True)
    base = profiling.fk_orphans(d).to_pylist()
    monkeypatch.setattr(profiling, "FK_BROADCAST_LIMIT", 0)
    forced = profiling.fk_orphans(d).to_pylist()
    assert forced == base
