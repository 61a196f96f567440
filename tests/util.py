import os
import signal
import subprocess
import sys

import pandas as pd
import pyarrow as pa

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: prologue of a script run by :func:`run_in_session`: its own Ray session,
#: started with the ``{init}`` keywords, and the kernel thread caps
SESSION_PROLOGUE = """
import ray
from aiw_i2b2_etl_ray.util import cap_kernel_threads
cap_kernel_threads()
ray.init(address="local", {init}, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
"""


def to_pdf(x) -> pd.DataFrame:
    if isinstance(x, pd.DataFrame):
        return x
    if isinstance(x, pa.Table):
        return x.to_pandas()
    # ray Dataset
    return x.to_pandas()


def assert_table_eq(actual, expected, keys, *, ignore=()):
    """Order-insensitive table comparison (the engine's analog of the
    reference's DBUnit sorted-dataset assertion ignoring volatile columns,
    ProtempaFactory.java:153-170)."""
    a, e = to_pdf(actual).copy(), to_pdf(expected).copy()
    a = a.drop(columns=[c for c in ignore if c in a], errors="ignore")
    e = e.drop(columns=[c for c in ignore if c in e], errors="ignore")
    if len(a) == 0 and len(e) == 0:
        return  # an empty Ray result loses its schema in pandas; both empty = equal
    assert sorted(a.columns) == sorted(e.columns), (sorted(a.columns), sorted(e.columns))
    cols = sorted(a.columns)
    a = a[cols].sort_values(keys, kind="mergesort").reset_index(drop=True)
    e = e[cols].sort_values(keys, kind="mergesort").reset_index(drop=True)
    assert len(a) == len(e), f"row count {len(a)} != {len(e)}"
    for c in cols:
        av, ev = a[c], e[c]
        if pd.api.types.is_datetime64_any_dtype(ev) or pd.api.types.is_datetime64_any_dtype(av):
            av = pd.to_datetime(av)
            ev = pd.to_datetime(ev)
        elif pd.api.types.is_float_dtype(ev) or pd.api.types.is_float_dtype(av):
            pd.testing.assert_series_equal(
                av.astype(float), ev.astype(float), check_names=False, rtol=1e-9
            )
            continue
        elif pd.api.types.is_integer_dtype(ev) or pd.api.types.is_integer_dtype(av):
            av = av.astype("Int64")
            ev = ev.astype("Int64")
        bad = ~((av == ev) | (av.isna() & ev.isna()))
        assert not bad.any(), f"column {c}: {int(bad.sum())} mismatches\n" + str(
            pd.concat([a[bad][keys], av[bad].rename('actual'), ev[bad].rename('expected')], axis=1).head(10)
        )


def run_one_cpu(script: str, *args: str, timeout_s: int, what: str) -> str:
    """:func:`run_in_session` in a ``num_cpus=1`` Ray session."""
    return run_in_session(script, *args, init="num_cpus=1", timeout_s=timeout_s, what=what)


def run_in_session(script: str, *args: str, init: str, timeout_s: int, what: str) -> str:
    """Run ``script`` in a fresh interpreter, after a prologue that starts
    its own Ray session with ``ray.init(..., <init>)``, and return its
    stdout; fail the test if it does not finish ``what`` within
    ``timeout_s``."""
    import pytest

    env = dict(os.environ)
    env["PYTHONPATH"] = REPO_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("RAY_ADDRESS", None)
    proc = subprocess.Popen(
        [sys.executable, "-c", SESSION_PROLOGUE.format(init=init) + script, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
        env=env,
        start_new_session=True,  # own pgid: a timeout reaps its Ray daemons
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"{init} {what} did not finish in {timeout_s} s")
    assert proc.returncode == 0, err[-2000:]
    return out
