"""Pipeline execution context: configuration, record source, artifacts.

Three small objects shared by every stage of a pipeline run:

:class:`PipelineConfig`
    How to execute — worker count (``jobs``), the shard key
    (``shard_by``: ``site`` partitions by ``sitename``, ``ip`` by
    ``ip_hash``), and the shard executor backend (``process`` for true
    parallelism, ``thread`` for GIL-bound concurrency, ``inline`` for
    deterministic in-process debugging).

:class:`RecordSource`
    Streaming ingestion with a *single bounded spill*.  Wraps a record
    factory (``lambda: read_jsonl(path)``), an in-memory list, or a
    one-shot iterable; stages consume it via :meth:`stream` and only
    stages that genuinely need multiple passes force :meth:`materialize`.
    A replayable factory source is streamed from disk on every pass and
    never spilled, so ``analyze --format jsonl`` no longer
    double-materializes the corpus (once in the CLI, once in the
    facade) the way the pre-pipeline code did.

:class:`PipelineContext`
    The artifact store stages read from and the runner writes to, plus
    free-form ``params`` (e.g. the study scenario).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field

from ..exceptions import PipelineError
from ..logs.columnar import (
    DEFAULT_BATCH_RECORDS,
    RecordBatch,
    iter_batches,
    rechunk,
    rows_of,
)
from ..logs.schema import LogRecord
from .shard import SHARD_KEY_COLUMNS
from .store import (
    ArtifactStore,
    CacheStats,
    SourceFingerprint,
    fingerprint_batches,
)

#: Valid shard-key names.
SHARD_BY_CHOICES: tuple[str, ...] = tuple(SHARD_KEY_COLUMNS)

#: Valid shard executor backends.  ``queue`` dispatches shard work to
#: a filesystem-spool task queue (:mod:`repro.distributed`) consumed by
#: worker processes on this or other hosts; it requires ``spool``.
EXECUTOR_CHOICES: tuple[str, ...] = ("process", "thread", "inline", "queue")


@dataclass(frozen=True)
class PipelineConfig:
    """Execution knobs for one pipeline run.

    Attributes:
        jobs: shard/worker count; ``1`` means fully sequential (the
            facade default, byte-identical to the legacy code path).
        shard_by: record attribute that keys the hash partition.
        executor: backend that runs per-shard stage work.
        drop_scanners: propagated to preprocessing (screen out
            vulnerability-scanner IP hashes, the paper's §3.1 step).
        spool: spool directory for the ``queue`` executor — the work
            queue, leases, payloads and results shared with the worker
            fleet (``repro-study worker --spool DIR``).  Like ``jobs``
            and ``executor``, it is execution plumbing: artifact cache
            keys never include it.
        workers: local worker processes the ``queue`` executor spawns
            for the duration of each shard map.  ``None`` (default)
            mirrors ``jobs``; ``0`` spawns none and relies entirely on
            externally started workers serving the spool.
    """

    jobs: int = 1
    shard_by: str = "site"
    executor: str = "process"
    drop_scanners: bool = True
    spool: str | None = None
    workers: int | None = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise PipelineError(f"jobs must be >= 1, got {self.jobs}")
        if self.shard_by not in SHARD_BY_CHOICES:
            raise PipelineError(
                f"shard_by must be one of {SHARD_BY_CHOICES}, got {self.shard_by!r}"
            )
        if self.executor not in EXECUTOR_CHOICES:
            raise PipelineError(
                f"executor must be one of {EXECUTOR_CHOICES}, got {self.executor!r}"
            )
        if self.executor == "queue" and not self.spool:
            raise PipelineError(
                "executor 'queue' requires a spool directory "
                "(PipelineConfig(spool=...) / --spool)"
            )
        if self.workers is not None and self.workers < 0:
            raise PipelineError(
                f"workers must be >= 0, got {self.workers}"
            )
        if self.spool is not None:
            # Normalized so the frozen config carries a plain string
            # (Path objects repr differently across platforms).
            object.__setattr__(self, "spool", str(self.spool))


class RecordSource:
    """A log-record source stages can stream from more than once.

    Construct via :meth:`of`, which accepts:

    - another :class:`RecordSource` (returned unchanged);
    - a ``list`` of records (reused as-is, zero copies);
    - a zero-argument callable returning an iterable (replayable:
      every :meth:`stream` call re-invokes it, nothing is spilled);
    - any other iterable (consumed once into the spill immediately,
      since a bare iterator cannot be replayed).

    Batch-backed sources are constructed via :meth:`of_batches` from a
    replayable :class:`RecordBatch` stream factory (e.g. ``lambda:
    read_batches(path, "parquet")``).  Either backing serves both
    granularities: :meth:`stream` over a batch source materializes one
    thin row view at a time, and :meth:`batches` over a row source
    packs rows into batches on the fly.
    """

    __slots__ = ("_factory", "_batch_factory", "_spill", "_fingerprint")

    def __init__(
        self,
        factory: Callable[[], Iterable[LogRecord]] | None = None,
        records: list[LogRecord] | None = None,
        batch_factory: Callable[[], Iterable[RecordBatch]] | None = None,
    ) -> None:
        backings = sum(
            backing is not None for backing in (factory, records, batch_factory)
        )
        if backings != 1:
            raise PipelineError(
                "RecordSource needs exactly one of factory, records, or "
                "batch_factory"
            )
        self._factory = factory
        self._batch_factory = batch_factory
        self._spill = records
        self._fingerprint: SourceFingerprint | None = None

    @classmethod
    def of(
        cls,
        source: "RecordSource | list[LogRecord] | Callable[[], Iterable[LogRecord]] | Iterable[LogRecord]",
    ) -> "RecordSource":
        if isinstance(source, RecordSource):
            return source
        if isinstance(source, list):
            return cls(records=source)
        if callable(source):
            return cls(factory=source)
        return cls(records=list(source))

    @classmethod
    def of_batches(
        cls, batch_factory: Callable[[], Iterable[RecordBatch]]
    ) -> "RecordSource":
        """A source backed by a replayable column-batch stream."""
        return cls(batch_factory=batch_factory)

    @property
    def replayable(self) -> bool:
        """True when streaming passes do not require a spill."""
        return self._factory is not None or self._batch_factory is not None

    def stream(self) -> Iterator[LogRecord]:
        """One full pass over the records.

        Factory sources re-run the factory (true streaming); spilled
        sources iterate the in-memory list; batch sources materialize
        thin row views batch by batch.
        """
        if self._spill is not None:
            return iter(self._spill)
        if self._batch_factory is not None:
            return rows_of(self._batch_factory())
        assert self._factory is not None
        return iter(self._factory())

    def batches(
        self, size: int = DEFAULT_BATCH_RECORDS
    ) -> Iterator[RecordBatch]:
        """One full pass over the records as column batches.

        Batch-backed sources re-slice their native stream to ``size``
        rows per batch (pass-through when already exact); row-backed
        sources pack rows on the fly, so at most one batch is live at a
        time and the single-spill discipline is preserved.
        """
        if self._batch_factory is not None:
            return rechunk(self._batch_factory(), size)
        if self._spill is not None:
            return iter_batches(iter(self._spill), size)
        assert self._factory is not None
        return iter_batches(self._factory(), size)

    def materialize(self) -> list[LogRecord]:
        """The records as a list — the single bounded spill.

        Called only by stages that genuinely need random access or
        multiple in-memory passes; the result is cached so the spill
        happens at most once per source.
        """
        if self._spill is None:
            self._spill = list(self.stream())
        return self._spill

    def fingerprint(self) -> SourceFingerprint:
        """Chunked content identity of this source (computed once).

        The fingerprint hashes raw column chunks, so it is independent
        of the serialization format *and* of the backing granularity: a
        JSONL row source and a Parquet batch source over the same
        records produce identical digests and hit the same cached
        artifacts.  Cached per instance: a factory source is assumed
        not to change underneath one pipeline run; re-reading a grown
        log file means constructing a fresh source (the CLI does this
        on every invocation).
        """
        if self._fingerprint is None:
            self._fingerprint = fingerprint_batches(self.batches())
        return self._fingerprint


@dataclass
class PipelineContext:
    """State shared by the stages of one pipeline run.

    Attributes:
        config: execution knobs (read-only to stages).
        source: the record source feeding ingestion stages (may be
            ``None`` for pipelines that do not consume logs).
        params: free-form inputs (e.g. ``params["scenario"]``).
        artifacts: memoized stage outputs, keyed by stage name.  Written
            by the runner; stages read dependencies via :meth:`artifact`.
        store: optional persistent artifact cache; when set, the runner
            consults it before executing a stage and publishes fresh
            artifacts into it.
        stats: cache hit/miss/invalidation accounting for this run
            (always present; stays all-zero without a store).
    """

    config: PipelineConfig = field(default_factory=PipelineConfig)
    source: RecordSource | None = None
    params: dict[str, object] = field(default_factory=dict)
    artifacts: dict[str, object] = field(default_factory=dict)
    store: ArtifactStore | None = None
    stats: CacheStats = field(default_factory=CacheStats)

    def artifact(self, name: str) -> object:
        """A previously computed stage artifact (raises if absent)."""
        try:
            return self.artifacts[name]
        except KeyError:
            raise PipelineError(
                f"artifact {name!r} has not been computed; declare it as a "
                "dependency of the requesting stage"
            ) from None
