"""aiw_i2b2_etl_ray — a Ray-Data-native CDC / incremental-ingest engine.

Re-expresses the capabilities of eurekaclinical/aiw-i2b2-etl (a Protempa →
i2b2 star-schema incremental loader, see /root/reference) as an idiomatic
Ray Data pipeline: a change-event log over source-code repositories
``(repo, path, commit, lang, content)`` is replayed in commit order and
applied as key-partitioned upserts into Parquet dimension + fact tables
with exactly-once semantics, schema evolution, checkpoint/resume, and
skew-aware salting.

Reference mapping (file:line cites refer to /root/reference):

- staged-temp-table → stored-proc merge
  (dest/I2b2QueryResultsHandler.java:97-161, :508-686) becomes
  ``stages.merge``: a range shuffle on a hash of ``(repo, path)`` followed
  by a vectorized last-writer-wins merge of each range's partitions.
- dimension factories (dest/table/PatientDimensionFactory.java,
  VisitDimensionFactory.java, ProviderDimensionFactory.java) become
  ``stages.dims`` grouped reductions.
- rejected-fact side table (dest/table/RejectedFactHandler.java:32-40)
  becomes the ``rejected`` side output of ``stages.normalize``.
- EAV value typing (dest/table/AbstractFactHandler.java:64-90) becomes
  ``functions.eav``.
"""

__version__ = "0.1.0"
