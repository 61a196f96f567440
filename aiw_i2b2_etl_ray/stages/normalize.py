"""Normalize stage: validate, digest, type, and partition each batch.

This is the engine's analog of the reference's per-record staging transform
(``handleQueryResult`` -> record beans -> EK_TEMP_* inserts,
dest/I2b2QueryResultsHandler.java:419-436 + dest/table/FactHandler.java:115-174),
re-expressed as ONE vectorized, stateless ``map_batches`` function:

- rejection of null-key rows (the reference rejects null-start-date facts
  into EK_REJECTED_OBSERVATION_FACT, FactHandler.java:140-143,177-187) —
  here rows gain a ``reject_reason`` column and are diverted by the merge;
- content digesting: ``content`` (arbitrarily large payload) is reduced to
  ``(content_sha256, content_len)`` BEFORE the all-to-all shuffle so the
  exchange moves ~100 B/row, not the payload (SURVEY.md §7.5 item 5);
- partition key: ``pkey`` and ``is_hot`` come from ``stages.routing.route``
  — the key's home partition, or for a hot key a salt bucket its commit
  picks, so a redelivered change-id lands where it landed before while a
  mega-churned key spreads across ``salt_buckets`` merge tasks.  Hot-key
  path_dim rows are re-reduced per-key after the merge (stages.merge).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.hashing import sha256_bin
from ..schemas import SHUFFLE_COLUMNS
from . import routing

#: tolerant op-token canonicalization for real-world change logs: the
#: engine's contract is I/U/D (FIXTURES.md), but binlog/WAL tails emit
#: source-specific tokens — Debezium c/u/d/r, full words insert/update/
#: delete, MySQL WRITE_ROWS-style uppercase.  Mapping is by lowercased
#: FIRST character: i/c/r (insert/create/read-snapshot) -> I, u -> U,
#: d -> D; anything else passes through unchanged (and merges as an
#: upsert, the engine's long-standing behavior for unknown ops).
_OP_ALIASES = {"i": "I", "c": "I", "r": "I", "u": "U", "d": "D"}
_OP_FROM = pa.array(list(_OP_ALIASES), pa.string())
_OP_TO = pa.array(list(_OP_ALIASES.values()), pa.string())


def canonical_op(op: pa.ChunkedArray | pa.Array) -> pa.ChunkedArray | pa.Array:
    """Vectorized: first char, lowercased, through the alias map; rows
    already in canonical form (the common case) are returned bit-equal."""
    first = pc.utf8_lower(pc.utf8_slice_codeunits(op, 0, 1))
    idx = pc.index_in(first, value_set=_OP_FROM)
    mapped = pc.take(_OP_TO, idx)  # null where not aliased
    return pc.coalesce(mapped, op)


class Normalizer:
    """Callable batch transform — stateless, so it runs as plain Ray TASKS
    (elastic, no actor-pool ramp-up).  The hot-key set is a broadcast small
    side: ``ray.put`` once on the driver, ``ray.get`` per worker process
    (cached in the worker's in-process object store — effectively once per
    worker, never re-shipped per batch).
    """

    def __init__(
        self,
        num_partitions: int,
        salt_buckets: int,
        hot_keys_ref=None,
        modifier_specs: tuple = (),
    ):
        self.num_partitions = num_partitions
        self.salt_buckets = salt_buckets
        self._hot_ref = hot_keys_ref
        self._hot_loaded = hot_keys_ref is None
        self.hot_keys = None  # set of routing-encoded keys
        # modifier extraction happens HERE, pre-shuffle, so only the small
        # extracted value (not the payload it derives from) crosses the
        # exchange — same digest-before-shuffle rule as content_sha256
        self.modifier_specs = tuple(modifier_specs)

    def _load_hot(self):
        if not self._hot_loaded:
            import ray

            self.hot_keys = ray.get(self._hot_ref)
            self._hot_loaded = True

    def __call__(self, t: pa.Table) -> pa.Table:
        self._load_hot()
        n = len(t)
        repo, path, commit = t["repo"], t["path"], t["commit"]

        # --- validity / rejection ------------------------------------------
        def blank(col):
            return pc.or_(pc.is_null(col), pc.equal(pc.coalesce(col, ""), ""))

        bad = pc.or_(pc.or_(blank(repo), blank(path)), blank(commit))
        reject_reason = pc.if_else(bad, pa.scalar("null_key"), pa.scalar(None, pa.string()))
        # null commit_seq is rejected HERE (reason "null_seq") so malformed
        # rows land deterministically in the rejected table in every mode —
        # the merge's watermark filter compares commit_seq and would silently
        # drop null-seq rows on update runs otherwise.
        null_seq = pc.is_null(t["commit_seq"])
        if pc.any(null_seq).as_py():
            reject_reason = pc.if_else(
                pc.and_(null_seq, pc.is_null(reject_reason)),
                pa.scalar("null_seq"),
                reject_reason,
            )

        # --- content digest -------------------------------------------------
        # digest is carried as 32-byte binary through the shuffle (half the
        # bytes of hex); hex-encoding happens at the output edge in merge
        if "content" in t.column_names:
            content = t["content"]
            sha = sha256_bin(content)
            clen = pc.cast(pc.utf8_length(content), pa.int64())
        else:  # pre-digested input
            sha = t["content_sha256"].combine_chunks()
            clen = t["content_len"]

        pkey, is_hot = routing.route(t, self.num_partitions, self.salt_buckets, self.hot_keys)

        out = {
            "repo": repo,
            "path": path,
            "commit": commit,
            "lang": t["lang"] if "lang" in t.column_names else pa.nulls(n, pa.string()),
            "commit_seq": t["commit_seq"],
            "op": canonical_op(t["op"]),
            "content_sha256": sha,
            "content_len": clen,
            "size": t["size"] if "size" in t.column_names else pa.nulls(n, pa.int64()),
            "pkey": pa.array(pkey),
        }
        assert list(out) == SHUFFLE_COLUMNS  # schema drift guard
        for spec in self.modifier_specs:
            val = spec.extract(t)
            if not isinstance(val, (pa.Array, pa.ChunkedArray)):
                val = pa.array(val, pa.string())
            out[f"mod__{spec.name}"] = pc.cast(val, pa.string())
        out["is_hot"] = pa.array(is_hot)
        out["reject_reason"] = reject_reason
        return pa.table(out)
