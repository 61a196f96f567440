"""Shared execution helpers."""

from __future__ import annotations

#: runtime_env for every heavy map_batches stage: each Ray worker runs its
#: vectorized kernels (polars, BLAS) SINGLE-threaded.  Ray already runs one
#: task per CPU; letting every polars call also spawn a machine-wide thread
#: pool oversubscribes cores ~30x and was measured to slow the normalize
#: stage ~8x.  Parallelism belongs to the scheduler, not the kernel.
WORKER_ENV = {
    "env_vars": {
        "POLARS_MAX_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
}


def worker_runtime_env() -> dict:
    """runtime_env for heavy stages — empty when the driver process already
    set the thread caps BEFORE ray.init (workers inherit them, and skipping
    the explicit runtime_env lets Ray reuse its default worker pool instead
    of spawning a dedicated one per stage)."""
    import os

    if os.environ.get("POLARS_MAX_THREADS") == "1":
        return {}
    return {"runtime_env": WORKER_ENV}


def cluster_cpus() -> int:
    """Logical CPUs of the Ray cluster; starts a local one when none is
    connected, as Ray Data's first use would."""
    import ray

    if not ray.is_initialized():
        ray.init()
    return max(1, int(ray.cluster_resources().get("CPU", 1)))


def cap_kernel_threads() -> None:
    """Call in bench/test entrypoints BEFORE ray.init so every worker
    inherits single-threaded kernel settings."""
    import os

    for k, v in WORKER_ENV["env_vars"].items():
        os.environ.setdefault(k, v)


def empty_frame(**dtypes: str):
    """Schema-stable empty result: a typed 0-row pandas DataFrame.

    A Ray pipeline whose blocks all come back empty loses its schema, so
    ``to_pandas()`` yields a column-less frame and the driver's
    rows+schema compare fails; queries guard their (tiny, materialized)
    finals with ``if out.count() == 0: return empty_frame(col="dtype",
    ...)``.  One helper instead of a hand-written pd.DataFrame literal
    per query — the literal was forgotten once (cdc_shared_content) and
    each copy's dtype list had to be eye-synced with the real schema.

    A typed empty table does not replace this guard (Ray 2.49):
    ``rd.from_arrow(schema.empty_table()).to_pandas()`` has no columns,
    and neither has a ``keyed_fold`` whose kernels all return typed empty
    tables, though ``to_arrow_refs()`` shows each block's schema."""
    import pandas as pd

    return pd.DataFrame({c: pd.array([], dtype=t) for c, t in dtypes.items()})
