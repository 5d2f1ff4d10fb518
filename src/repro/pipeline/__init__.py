"""repro.pipeline: a sharded, streaming analysis-pipeline API.

The paper's methodology is a chain of log-analysis passes; production
reuse (thousands of sites × snapshots, millions of records) needs that
chain to be composable, shardable and streaming rather than a set of
eagerly-materialized properties on one facade object.  This package is
the contract:

**Stage** (:mod:`repro.pipeline.stage`)
    A named unit of work with declared dependencies and a
    ``run(context) -> artifact`` method.  :class:`FunctionStage` wraps
    a plain callable; :class:`ShardStage` is the map/reduce shape — a
    picklable worker per record shard plus an explicit ``merge`` hook.

**Pipeline** (:mod:`repro.pipeline.runner`)
    Validates the stage DAG (unique names, known deps, no cycles),
    topologically orders it, memoizes artifacts single-flight in a
    :class:`PipelineContext`, and executes independent stages
    concurrently (``config.jobs``).

**Sharding** (:mod:`repro.pipeline.shard`)
    Deterministic crc32 hash partitioning of column batches by site
    (or IP), an order-restoring merge, and process/thread/inline
    executors.  The
    parity guarantee — sharded output == sequential output, enforced
    by property tests — is a design invariant: merges consume
    mergeable statistics (counters, sets) and restore original stream
    order before any order-sensitive reduction runs.

**Streaming** (:class:`~repro.pipeline.context.RecordSource`)
    Stages consume ``Iterable[LogRecord]`` fed directly from
    ``read_jsonl`` / ``read_csv`` / ``read_clf`` factories without
    double-materializing; only stages that genuinely need multiple
    passes force the single bounded spill.

**Study stages** (:mod:`repro.pipeline.stages`)
    The paper's §4 chain as a prebuilt DAG
    (:func:`build_study_pipeline`); the
    :class:`~repro.reporting.study.StudyAnalysis` facade and the
    experiment drivers are thin views over it.

**Incremental caching** (:mod:`repro.pipeline.store`)
    A content-addressed on-disk :class:`ArtifactStore`.  Stage keys
    combine a streaming, chunked source fingerprint, each stage's
    declared code token, and the transitive fingerprints of its
    dependencies; shard-stage worker outputs are additionally cached
    per shard by content, so appending records to a log reruns only
    the affected shard plus the stages downstream of it.  The cached
    == cold byte-parity guarantee is property-tested alongside the
    sharded == sequential one.

Quickstart::

    from repro.pipeline import PipelineConfig, build_study_pipeline

    pipeline = build_study_pipeline(
        source=lambda: read_jsonl("study.jsonl"),
        scenario=default_scenario(),
        config=PipelineConfig(jobs=4, shard_by="site"),
        cache_dir=".repro-cache",            # incremental re-analysis
    )
    table = pipeline.get("category_table")       # Table 5
    records, report = pipeline.get("preprocess")
    print(pipeline.context.stats.summary())      # hits/misses this run
"""

from .context import PipelineConfig, PipelineContext, RecordSource
from .runner import Pipeline
from .shard import (
    Shard,
    chunk_evenly,
    partition_batches,
    restore_order,
    run_sharded,
    shard_index,
)
from .stage import FunctionStage, ShardStage, Stage, stage
from .stages import SiteTraffic, VERSION_DIRECTIVES, build_study_pipeline
from .store import (
    ArtifactStore,
    CacheStats,
    PruneResult,
    SourceFingerprint,
    StoreInfo,
    fingerprint_batch,
    fingerprint_batches,
)

__all__ = [
    "ArtifactStore",
    "CacheStats",
    "FunctionStage",
    "Pipeline",
    "PipelineConfig",
    "PipelineContext",
    "PruneResult",
    "RecordSource",
    "Shard",
    "ShardStage",
    "SiteTraffic",
    "SourceFingerprint",
    "Stage",
    "StoreInfo",
    "VERSION_DIRECTIVES",
    "build_study_pipeline",
    "chunk_evenly",
    "fingerprint_batch",
    "fingerprint_batches",
    "partition_batches",
    "restore_order",
    "run_sharded",
    "shard_index",
    "stage",
]
