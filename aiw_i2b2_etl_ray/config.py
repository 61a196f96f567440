"""Job configuration.

The reference is configured by a four-section ``conf.xml``
(dictionary/database/concepts/data — /root/reference
src/main/java/edu/emory/cci/aiw/i2b2etl/dest/config/xml/*, SURVEY.md §2.10);
the engine's equivalent is a plain dataclass the driver constructs (or loads
from JSON).  The reference's ``mergeOnUpdate`` / REPLACE-vs-UPDATE query
modes (dest/config/xml/DictionarySection.java:92-99,
dest/I2b2QueryResultsHandler.java:329-332) map to ``mode``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ModifierSpec:
    """One modifier property (the reference's ModifierSpec in the concepts
    config section, ConceptsSection.java:51-87): when ``extract`` yields a
    non-null string for an event, the fact stage emits one EXTRA fact row
    with ``modifier_cd=name`` and the (255-truncated) value — the per-fact
    modifier fan-out of dest/table/PropositionFactHandler.java:163-186.
    Base rows always carry ``modifier_cd='@'`` (ObservationFact default).

    extract: callable(pyarrow.Table of raw change columns) -> pyarrow
        string Array (null = modifier absent for that event).  Must be a
        picklable top-level callable; it runs inside the Normalizer, so the
        extracted value (not the payload) rides the shuffle.
    """

    name: str
    extract: object = None  # Callable[[pa.Table], pa.Array]

    def __post_init__(self):
        if not self.name or self.name == "@" or "__" in self.name:
            raise ValueError(f"invalid modifier name: {self.name!r}")


#: ReplaySpec fields that no longer exist; spec JSON written before their
#: removal still loads (``from_json`` drops them).  merge_concurrency sized
#: the retired merge actor pool; shuffle chose push or pull for the keyed
#: exchange (now always push); batch_size was never read.
RETIRED_SPEC_KEYS = ("merge_concurrency", "shuffle", "batch_size")


@dataclass(frozen=True)
class ReplaySpec:
    """Everything a CDC replay run needs.

    Attributes:
        num_partitions: hash partitions over ``(repo, path)``: the durable
            layout (one part file, watermark and manifest each).  The merge
            runs one task per cluster CPU over a contiguous range of
            partitions, and more tasks, up to ``num_partitions``, when a
            delivery (a log's footers, a Dataset's blocks) counts over
            ``cdc_replay.MERGE_ROWS_PER_TASK`` rows a task.  So a task holds
            at most max(rows / num_partitions, MERGE_ROWS_PER_TASK) rows
            (~100 B/row after normalize; the merge peaks near 0.8 KB/row):
            pick ``num_partitions`` so rows / num_partitions fits a worker
            heap — at 10^10 events that is 4096-16384 partitions.
        salt_buckets: sub-buckets for hot ``(repo, path)`` keys.  Salting is
            by ``hash(commit) % salt_buckets`` which preserves exactly-once
            (same change-id -> same bucket) while the last-writer-wins merge
            is reassembled by a final per-key reduce (SURVEY.md §7.2 step 6).
        hot_key_threshold: events per key above which a key is salted; the
            hot set is discovered by a cheap pruned-column count pre-pass.
        mode: "replace" truncates outputs first; "update" merges into the
            existing table state (the reference's QueryMode semantics).
        merge_policy: the per-key reducer — "last_writer_wins" (default;
            the reference's merge-proc upsert) or "first_writer_wins" (the
            reference's provider-dedup rule, ProviderDimensionFactory.java:
            119-144).  The engine's MergePolicy hook (SURVEY.md §2.10).
        schema_version: bumped when the input log carries evolved columns.
    """

    out_dir: str = "/tmp/aiw_ray_out"
    num_partitions: int = 64
    salt_buckets: int = 8
    hot_key_threshold: int = 250_000
    mode: str = "replace"  # replace | update
    merge_policy: str = "last_writer_wins"  # | first_writer_wins
    schema_version: int = 1
    #: optional replay bounds on commit_seq (inclusive lower, exclusive
    #: upper) — the reference's date-bound query filters
    #: (I2b2LoadNoDerivedVariablesLowerDateBoundTest.java:56, DateTimeFilter)
    #: pushed down to the parquet scan as row-group predicates.
    min_seq: int | None = None
    max_seq: int | None = None
    #: bounded merge state (SURVEY §7.5 item 1): a merge task whose
    #: shuffled block exceeds this many rows merges its partitions in runs
    #: of at most this many rows, and a partition over it alone in key-hash
    #: slices with streaming row-group writes, so the merge working set
    #: (sort + prior join + outputs) stays O(cap) instead of O(block).
    #: None = off.
    state_cap_rows: int | None = None
    #: run-level hooks — the stored-proc extension points the reference's
    #: handler invokes around a load (EK_PRE_HOOK / EK_POST_HOOK +
    #: index disable/enable, dest/I2b2QueryResultsHandler.java:97-161,
    #: 1116-1139).  Like the reference's, each is a NAME (here a dotted
    #: "module:function" path, resolved at run time), so the spec stays
    #: JSON-round-trippable.  pre_hook(spec, run_id) runs before any
    #: output mutation; post_hook(spec, run_id, summary) runs after every
    #: output and manifest is committed (compaction / stats refresh live
    #: here — see pipelines/hooks.py for shipped payloads).  A non-None
    #: return value is recorded in the run summary.
    pre_hook: str | None = None
    post_hook: str | None = None

    def __post_init__(self):
        if self.merge_policy not in ("last_writer_wins", "first_writer_wins"):
            raise ValueError(f"unknown merge_policy: {self.merge_policy}")
        if self.mode not in ("replace", "update"):
            raise ValueError(f"unknown mode: {self.mode}")
        # Hot-key salting's cross-bucket fold (reduce_hot_rows /
        # load_path_dim / compact_path_dim) reduces by MAX last_commit_seq,
        # which is only correct for last-writer-wins; first-writer-wins
        # winners would need MIN-seq folds AND a different watermark-bump
        # rule at the hot transition.  Rather than ship a subtly-wrong
        # combination, reject it (the reference's first-writer dedup —
        # providers — is a small dimension that never needs salting).
        for h in (self.pre_hook, self.post_hook):
            if h is not None and ":" not in h:
                raise ValueError(
                    f"hook must be a 'module:function' dotted path: {h!r}"
                )
        if self.merge_policy == "first_writer_wins" and (
            self.salt_buckets > 1 and self.hot_key_threshold > 0
        ):
            raise ValueError(
                "merge_policy='first_writer_wins' requires salting disabled "
                "(salt_buckets=1 or hot_key_threshold=0): the cross-bucket "
                "hot-key fold is last-writer-wins only"
            )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @staticmethod
    def from_json(s: str) -> "ReplaySpec":
        d = json.loads(s)
        for k in RETIRED_SPEC_KEYS:
            d.pop(k, None)
        return ReplaySpec(**d)


def resolve_hook(path: str):
    """Resolve a ``"module:function"`` hook name to the callable.  Fails
    loudly (ImportError/AttributeError) — a run configured with a hook that
    does not exist must not silently proceed, matching the reference's
    behavior when a configured stored proc is missing."""
    import importlib

    mod_name, _, fn_name = path.partition(":")
    return getattr(importlib.import_module(mod_name), fn_name)


def out_paths(spec: ReplaySpec) -> dict[str, str]:
    """Output layout: one directory per logical table.  ``path_dim`` holds
    one part file per hash partition (plus hot-key runs); ``change_fact``,
    ``rejected`` and ``archive`` hold one file per merge task, named by run
    id and pkey range; ``_manifest`` holds one record per partition (its
    watermark, lineage counters and dimension partials), so a resumed run
    skips finished partitions (the 'resumable output' rule)."""
    return {
        name: os.path.join(spec.out_dir, name)
        for name in (
            "path_dim",
            "repo_dim",
            "lang_dim",
            "modifier_dim",
            "change_fact",
            "rejected",
            "archive",
            "_manifest",
        )
    }
