"""Deterministic hash sharding and the parallel shard executor.

Partitioning uses ``zlib.crc32`` over the shard key rather than
Python's builtin ``hash`` — ``hash(str)`` is salted per process
(``PYTHONHASHSEED``), which would assign records to different shards
in every worker and break the sharded == sequential parity guarantee.
crc32 is stable across processes, platforms and Python versions.

A record shard's payload is a column batch; row objects exist only
inside the worker that consumes it.  Within a shard, records keep
their arrival order and remember their original stream positions, so
a merge can stitch shard outputs back into the exact global order the
sequential pipeline sees.  That order-restoring merge is what makes
the parity guarantee *byte* identical instead of merely
equivalent-up-to-reordering.

:func:`run_sharded` executes one worker callable per shard payload on
the configured backend:

``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor` (fork context
    where available) — true parallelism for the CPU-bound enrichment
    and policy-evaluation work.  Workers must be picklable
    (module-level functions or :func:`functools.partial` of one).
``thread``
    A thread pool — cheap to spin up, shares record objects, used by
    property tests and IO-bound workers.
``inline``
    A plain loop in the calling thread — deterministic debugging.
"""

from __future__ import annotations

import multiprocessing
import zlib
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import TypeVar

from ..exceptions import PipelineError
from ..logs.columnar import RecordBatch
from ..logs.schema import LogRecord

_P = TypeVar("_P")
_R = TypeVar("_R")

#: Shard key name -> the batch column whose value picks the shard.
SHARD_KEY_COLUMNS: dict[str, str] = {
    "site": "sitename",
    "ip": "ip_hash",
}


def shard_index(key: str, shards: int) -> int:
    """Deterministic shard assignment for one key value."""
    return zlib.crc32(key.encode("utf-8")) % shards


class Shard:
    """One partition of a shard stage's input.

    Attributes:
        index: this shard's position in the partition.
        payload: what the shard worker receives — a
            :class:`RecordBatch` for a record partition (see
            :func:`partition_batches`), or any other picklable sequence
            (e.g. a scenario-matrix cell's spec list).
        positions: each payload item's position in the original
            stream, parallel to the payload — the merge key that
            restores global order.
        fingerprint: optional explicit content key for the per-shard
            artifact cache.  Without one, the runner hashes the
            payload batch's columns; non-record payloads set it to a
            digest of the payload itself so each shard's cache entry
            keys on exactly what the worker will see.
    """

    __slots__ = ("index", "payload", "positions", "fingerprint")

    def __init__(
        self,
        index: int,
        payload: RecordBatch | Sequence[object],
        positions: list[int],
        fingerprint: str | None = None,
    ) -> None:
        self.index = index
        self.payload = payload
        self.positions = positions
        self.fingerprint = fingerprint

    def __len__(self) -> int:
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Shard(index={self.index}, items={len(self)})"


def partition_batches(
    batches: Iterable[RecordBatch], shards: int, shard_by: str = "site"
) -> list[Shard]:
    """Partition a batch stream into ``shards`` shards, columnar-wise.

    Consumes ``batches`` exactly once.  Rows are assigned by hashing
    the key *column* and gathered with :meth:`RecordBatch.take`, so no
    row objects are materialized.  Rows with the same shard key always
    land in the same shard, and every shard preserves the relative
    order of its rows.
    """
    if shards < 1:
        raise PipelineError(f"shard count must be >= 1, got {shards}")
    try:
        column_name = SHARD_KEY_COLUMNS[shard_by]
    except KeyError:
        raise PipelineError(
            f"unknown shard key {shard_by!r}; choose from {sorted(SHARD_KEY_COLUMNS)}"
        ) from None
    parts = [
        Shard(index=i, payload=RecordBatch(), positions=[])
        for i in range(shards)
    ]
    offset = 0
    for batch in batches:
        keys = batch.column(column_name)
        buckets: dict[int, list[int]] = {}
        for row, key in enumerate(keys):
            buckets.setdefault(shard_index(key, shards), []).append(row)
        for index, rows in buckets.items():
            shard = parts[index]
            shard.payload.extend(batch.take(rows))
            shard.positions.extend(offset + row for row in rows)
        offset += len(batch)
    return parts


def restore_order(
    outputs: Sequence[Sequence[LogRecord]],
    positions: Sequence[Sequence[int]],
    total: int,
) -> list[LogRecord]:
    """Stitch per-shard record lists back into original stream order.

    Every stream position must be covered exactly once: shard workers
    transform records but never add or drop them (filtering happens in
    the reduce step, *after* the merge).  A gap, a duplicate, or an
    out-of-range position means the partition and the outputs have
    drifted apart, and a silent best-effort merge would quietly drop
    records from the study — so any mismatch raises
    :class:`~repro.exceptions.PipelineError` instead.
    """
    merged: list[LogRecord | None] = [None] * total
    filled = 0
    for shard, (records, where) in enumerate(zip(outputs, positions)):
        if len(records) != len(where):
            raise PipelineError(
                f"shard {shard}: {len(records)} output record(s) but "
                f"{len(where)} position(s); shard workers must return "
                "exactly one record per input"
            )
        for position, record in zip(where, records):
            if not 0 <= position < total:
                raise PipelineError(
                    f"shard {shard}: position {position} outside the "
                    f"stream (total {total})"
                )
            if merged[position] is not None:
                raise PipelineError(
                    f"shard {shard}: duplicate stream position {position}"
                )
            merged[position] = record
            filled += 1
    if filled != total:
        raise PipelineError(
            f"merge covered {filled} of {total} stream position(s); "
            "records were dropped between partition and merge"
        )
    return merged  # type: ignore[return-value]


def chunk_evenly(items: Sequence[_P], parts: int) -> list[list[_P]]:
    """Split ``items`` into at most ``parts`` contiguous, order-preserving
    chunks (for payloads that are per-site batches rather than records)."""
    parts = max(1, min(parts, len(items)))
    size, remainder = divmod(len(items), parts)
    chunks: list[list[_P]] = []
    start = 0
    for i in range(parts):
        end = start + size + (1 if i < remainder else 0)
        chunks.append(list(items[start:end]))
        start = end
    return chunks


def _process_context():
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_sharded(
    worker: Callable[[_P], _R],
    payloads: Sequence[_P],
    jobs: int = 1,
    executor: str = "process",
) -> list[_R]:
    """Run ``worker`` over each payload, results aligned with inputs.

    ``jobs <= 1``, a single payload, or ``executor="inline"`` all
    degrade to a plain loop — no pool, no pickling, no threads.
    """
    if jobs <= 1 or len(payloads) <= 1 or executor == "inline":
        return [worker(payload) for payload in payloads]
    workers = min(jobs, len(payloads))
    if executor == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(worker, payloads))
    if executor != "process":
        raise PipelineError(f"unknown executor {executor!r}")
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_process_context()
    ) as pool:
        return list(pool.map(worker, payloads))
