"""Key -> partition routing, the only code that decides where a change lands.

Exactly-once holds only while a redelivered change lands on the partition
whose watermark covers it.  A key is ``repo`` and ``path`` encoded by
``hashing.key_expr``; hot-key sets hold encoded keys.  Its hash ``kh`` is
polars' xxhash64 of that string (seed 0), and a cold row goes to
``kh % P``.  A hot key's row is salted, as in skewed hash joins, to
``(kh + (ch % S) * _SALT_PRIME) % P`` with ``ch`` its commit's hash: one
change-id always lands in one bucket, and a churned key spreads over ``S``.
``stream_windows`` routes a repo to :func:`repo_pids`.  polars does not
promise a stable ``hash()``, so :func:`routing_id` fingerprints both on a
fixed probe table; the job manifest records it and
:func:`check_job` refuses state that this process would route elsewhere.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np
import polars as pl
import pyarrow as pa

from ..functions.hashing import bucket_hash, key_expr

_KEY = key_expr(["repo", "path"])
_SALT_PRIME = np.uint64(0x9E3779B97F4A7C15)


def encode_keys(t: pa.Table | pl.DataFrame) -> pl.Series:
    """The encoded key of every row of ``t``."""
    df = t if isinstance(t, pl.DataFrame) else pl.from_arrow(t.select(["repo", "path"]))
    return df.select(_KEY).to_series()


def _as_series(hot) -> pl.Series:
    return hot if isinstance(hot, pl.Series) else pl.Series(list(hot), dtype=pl.String)


def hot_mask(t: pa.Table | pl.DataFrame, hot) -> np.ndarray:
    """Whether each row's key is in ``hot``, encoded keys (a ``pl.Series``
    or any collection)."""
    return encode_keys(t).is_in(_as_series(hot).implode()).to_numpy()


def key_hash(t: pa.Table | pl.DataFrame) -> np.ndarray:
    """The uint64 ``kh`` of every row of ``t``."""
    return encode_keys(t).hash(seed=0).to_numpy()


def route(t: pa.Table, num_partitions: int, salt_buckets: int, hot=None):
    """``(pkey int32, is_hot bool)`` arrays for the rows of ``t``."""
    keys = encode_keys(t)
    P = np.uint64(num_partitions)
    kh = keys.hash(seed=0).to_numpy()
    pkey, is_hot = kh % P, np.zeros(len(t), dtype=bool)
    if hot is not None and len(hot):
        is_hot = keys.is_in(_as_series(hot).implode()).to_numpy()
        if is_hot.any():  # the commit hash is only needed for hot rows
            ch = pl.from_arrow(t["commit"]).fill_null("\x00").hash(seed=1).to_numpy()
            salt = (ch % np.uint64(max(salt_buckets, 1))) * _SALT_PRIME
            pkey = np.where(is_hot, (kh + salt) % P, pkey)
    return pkey.astype(np.int32), is_hot


def salted_pids(keys, num_partitions: int, salt_buckets: int) -> np.ndarray:
    """``(len(keys), salt_buckets)``: each encoded key's partition per salt bucket."""
    kh = _as_series(keys).hash(seed=0).to_numpy()
    salt = np.arange(salt_buckets, dtype=np.uint64) * _SALT_PRIME
    return ((kh[:, None] + salt) % np.uint64(num_partitions)).astype(np.int64)


def home_pids(keys, num_partitions: int) -> np.ndarray:
    """The partition of each encoded key while it is cold (salt bucket 0)."""
    return salted_pids(keys, num_partitions, 1)[:, 0]


def repo_pids(t: pa.Table, num_partitions: int) -> pa.Array:
    """Per-repo partitions (``stream_windows``): ``bucket_hash`` of ``repo``."""
    return bucket_hash(t, ["repo"], num_partitions)


def slice_ids(kh: np.ndarray, n_slices: int) -> np.ndarray:
    """Bounded-state merge slice per key hash.  Every cold key of a
    partition shares ``kh % P``, so the slice reads the upper 32 bits,
    which are independent of it for any power-of-two ``P`` up to 2**32."""
    return ((kh >> np.uint64(32)) % np.uint64(n_slices)).astype(np.int64)


def probe_table() -> pa.Table:
    """Null, empty, non-ASCII, separator-bearing and >64-byte keys."""
    vals = [None, "", "r", "ü日/ß.c", "a\x1fb", "x" * 70]
    rows = [(r, p) for r in vals for p in vals]
    commits = [(None, "", f"c{i}\x1f{i}")[i % 3] for i in range(len(rows))]
    return pa.table(
        {"repo": [r for r, _ in rows], "path": [p for _, p in rows], "commit": commits},
        schema=pa.schema([(c, pa.string()) for c in ("repo", "path", "commit")]),
    )


@functools.cache
def routing_id() -> str:
    """16-hex fingerprint of :func:`route` and :func:`repo_pids` on
    :func:`probe_table`; computed on first call (a polars computation)."""
    t = probe_table()
    # every other key hot; a large prime P keeps most hash bits in pkey
    P = 2**31 - 1
    pkey, is_hot = route(t, P, 8, encode_keys(t)[::2])
    repo = repo_pids(t, P).to_numpy()
    return hashlib.sha256(pkey.tobytes() + is_hot.tobytes() + repo.tobytes()).hexdigest()[:16]


def check_job(job: dict, num_partitions: int, salt_buckets: int | None = None) -> None:
    """Raise unless the state ``job`` (its job manifest) describes was routed
    as this process routes: same partitioning, same ``routing_id``.  A
    manifest from before routing ids falls back to its polars version."""
    for name, v in (("num_partitions", num_partitions), ("salt_buckets", salt_buckets)):
        if v is not None and job.get(name, v) != v:
            raise ValueError(
                f"partitioning mismatch: state was built with {name}={job[name]}; "
                f"refusing to fold or update with {v}. Rerun with matching parameters."
            )
    rid, built = job.get("routing_id"), job.get("polars_version")
    if rid is not None and rid != routing_id():
        raise ValueError(
            f"routing mismatch: state was routed with routing_id {rid}, this process "
            f"routes with {routing_id()}. Rebuild in replace mode."
        )
    if rid is None and built is not None and built != pl.__version__:
        raise ValueError(
            f"hash-provider mismatch: state built with polars {built} records no "
            f"routing id; this process runs {pl.__version__}. Rebuild in replace mode."
        )
