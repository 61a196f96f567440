"""Self-tests of the benchmark at tiny scale.

    python3 -m pytest perfbench -q -p no:cacheprovider

Each benchmark run is a subprocess, started the way a measurement starts it.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)

#: per-layer values that depend only on the seed, never on timing
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "B", "ratio")]
#: on-disk sizes of tables the engine writes in an order it does not fix
#: (rejected rows in shuffle-arrival order, dimension partials in hash
#: order), so their compressed size moves by a few bytes between runs
ORDER_DEPENDENT = {
    "merge.bytes_written_per_event.rejected",
    "merge.bytes_written_per_event._dimpart",
    "store.bytes_per_event",
    "store.tail_bytes_per_event",
}


def bench(workload: str, *extra: str, seed: int = 7, trace: int = 0, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)
    return p, (json.loads(p.stdout.strip().splitlines()[-1]) if p.returncode == 0 else None)


def _expect(names: list[dict], metrics: dict) -> None:
    assert sorted(metrics) == sorted(m["name"] for m in names)
    for m in names:
        assert metrics[m["name"]]["unit"] == m["unit"], m["name"]
        assert isinstance(metrics[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_printed_with_unit(workload):
    p, out = bench(workload, "--scale", "tiny")
    assert p.returncode == 0, p.stderr[-3000:]
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    _expect(SPEC["end_to_end"], out["metrics"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_prints_every_layer_and_counts_repeat():
    runs = [bench("full_replay", "--scale", "tiny", trace=1) for _ in range(2)]
    for p, out in runs:
        assert p.returncode == 0, p.stderr[-3000:]
        assert out["correct"], p.stderr[-3000:]
        _expect(SPEC["per_layer"], out["metrics"])
    a, b = ({k: v["value"] for k, v in out["metrics"].items()} for _, out in runs)
    exact = [n for n in COUNTS if n not in ORDER_DEPENDENT]
    differ = [n for n in exact if a[n] != b[n]]
    assert not differ, differ
    drift = [n for n in ORDER_DEPENDENT if abs(a[n] - b[n]) > 1e-3 * abs(a[n])]
    assert not drift, drift


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_injected_wrong_result_raises_error_rate(workload):
    p, out = bench(workload, "--scale", "tiny", "--inject-wrong")
    assert p.returncode == 0, p.stderr[-3000:]
    assert out["failed"] >= 1 and not out["correct"]


def test_panel_check_rejects_a_wrong_result(tmp_path):
    """The catalog panel's check passes the DuckDB oracle's own frame and
    fails it with one row dropped."""
    import duckdb

    sys.path[:0] = [ROOT, HERE]
    import inputs
    from __ray_entry__ import oracle_sql
    from workloads import Bench, CatalogPanel

    panel = CatalogPanel(Bench(str(tmp_path), seed=7, scale="tiny"))
    con = duckdb.connect()
    for t in inputs.CATALOG_TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{panel.tables}/{t}.parquet'")
    for q in inputs.PANEL:
        df = con.sql(oracle_sql()[q]).df()
        assert panel.check_query(q, df) == [], q
        assert panel.check_query(q, df.iloc[1:]) != [], q


def test_fails_without_the_engine(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p, _ = bench("full_replay", cwd=str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()
