"""crawl4ai_ray — a Ray-Data-native crawl/data-processing engine.

A from-scratch reimplementation of the *capabilities* of the reference
crawler (``bannert1337/crawl4ai``, read-only at ``/root/reference``) on top of
``ray.data.Dataset``: URL canonicalization + 64-bit hashing, frontier
filters/scorers, a sharded bloom URL-seen filter held in actors, per-host
politeness (robots cache + token bucket + priority heap), fetch/extract stages
emitting interleaved text+media span documents, plus the large-scale
training-data operators (dedup, similarity search, text analysis,
multimodal plumbing).

Design contract (see SURVEY.md):
  * every per-record transform is a ``map_batches`` over Arrow batches;
  * stateful stages are actor pools or explicit shard actors;
  * only shared-mutable state (the host shards: URL-seen, politeness) uses
    raw actors;
  * no stage materializes the full dataset on the driver;
  * checkpoints are partitioned Parquet tables (Lance API is not available in
    this container — the storage layer is abstracted in ``state.store`` and a
    Lance backend slots in behind the same interface).

Library code never calls ``ray.init``/``ray.shutdown``; sessions are owned by
the test fixture / bench scripts / the driver.
"""

__version__ = "0.1.0"
