"""Catalog queries that used to run actor pools finish in a one-CPU session.

An idle pool actor holds its logical CPU for as long as its Dataset
lives, so a pool can starve the tasks it waits on, or the next query's
tasks.  These queries run back to back in one ``num_cpus=1`` Ray session,
under a timeout.  Each answer is checked against its DuckDB oracle.  A
query without an oracle (approximate search, a lookahead regex) is
checked against the same query run in this test's own session.
"""

import os

import pandas as pd
import pytest

from .test_queries_vs_duckdb import SF_DIR, _duck, _norm
from .util import run_one_cpu, to_pdf

#: each formerly pooled stage named after its old class
QUERIES = (
    "ann_ivf",  # Assign, ListSearch
    "ann_lsh",  # Bucketize, BucketSearch
    "ann_incremental",  # ann_index Assign, ListSearch
    "cdc_seq_audit",  # Flag
    "value_outliers",  # Flag
    "tpch_q18",  # Report
    "tpch_q21",  # AttachName
    "text_bpe_tokens",  # Bpe
    "heavy_hitter_tokens",  # ExactCounter
)
#: the nine queries take about 11 s at num_cpus=1 on a 4-vCPU host; with
#: actor pools the first of them (ann_ivf) did not finish in 120 s
TIMEOUT_S = 120

_SCRIPT = """
import sys
import pandas as pd
import __ray_entry__ as e
sf_dir, out = sys.argv[1:3]
qs = e.queries()
for name in sys.argv[3:]:
    r = qs[name](sf_dir)
    df = r if isinstance(r, pd.DataFrame) else r.to_pandas()
    df.to_parquet(f"{out}/{name}.parquet", index=False)
    print(name, len(df), flush=True)
ray.shutdown()
"""


@pytest.fixture(scope="module")
def one_cpu_answers(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("one_cpu"))
    run_one_cpu(_SCRIPT, SF_DIR, out, *QUERIES, timeout_s=TIMEOUT_S, what="catalog queries")
    return out


@pytest.mark.parametrize("name", QUERIES)
def test_one_cpu_query_matches(name, one_cpu_answers):
    import __ray_entry__ as e

    actual = _norm(pd.read_parquet(os.path.join(one_cpu_answers, f"{name}.parquet")))
    sql = e.oracle_sql().get(name)
    if sql is not None:
        with _duck(SF_DIR) as con:
            expected = _norm(con.sql(sql).df())
    else:
        expected = _norm(to_pdf(e.queries()[name](SF_DIR)))
    assert len(actual) > 0, name
    assert sorted(actual.columns) == sorted(expected.columns), (name, list(actual.columns))
    assert len(actual) == len(expected), f"{name}: rows {len(actual)} != {len(expected)}"
    pd.testing.assert_frame_equal(actual, expected, check_dtype=False, rtol=1e-6)
