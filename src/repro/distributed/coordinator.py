"""The coordinator: enqueue shard tasks, reap dead workers, collect.

:func:`run_sharded_queue` is the queue-backed twin of
:func:`repro.pipeline.shard.run_sharded`: same contract (worker over
payloads, results aligned with inputs), different substrate — tasks go
through a :class:`~repro.distributed.queue.SpoolBackend` and are
executed by whatever worker processes serve that spool.  With
``workers > 0`` the coordinator is one of the local workers: it serves
the spool itself while it waits and starts the rest as a local pool for
the duration of the call.  With ``workers=0`` it only enqueues and
watches, relying on standalone workers (``repro-study worker --spool
DIR``) on this or other hosts.

Crash recovery is built from three properties, not from bookkeeping:

*content-keyed tasks*
    A task id is a hash of ``(stage, worker, payload)``, so the same
    shard work always maps to the same spool entries.  A restarted
    coordinator re-enqueues the same ids, finds the results that
    already exist, and only waits for the remainder — checkpoint/resume
    without a checkpoint file.
*atomic, checksummed results*
    Workers publish via write-temp-then-rename with a sha256 frame; a
    result either verifies completely or is treated as absent.  There
    is no half-published state to repair.
*lease reaping*
    Each watch tick, any claimed task whose lease is missing or past
    its TTL is requeued (the holder is presumed dead).  A task that
    keeps failing this way exhausts ``max_attempts`` and surfaces as
    :class:`~repro.exceptions.SpoolError` rather than looping forever.
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from collections.abc import Callable, Sequence
from contextlib import contextmanager
from pathlib import Path

from ..exceptions import DistributedError, SpoolError
from ..pipeline.shard import _process_context
from .lease import DEFAULT_LEASE_TTL, Lease
from .queue import PICKLE_PROTOCOL, FilesystemSpool, SpoolBackend, task_id_for
from .worker import (
    DEFAULT_POLL,
    decode_outcome,
    default_worker_id,
    process_one,
    run_worker,
)

__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "QueueCoordinator",
    "local_worker_pool",
    "run_sharded_queue",
    "usable_cores",
]

#: A task may be claimed-and-lost this many times before the run aborts.
DEFAULT_MAX_ATTEMPTS = 5

#: Default ceiling on one queue run, seconds (None disables).
DEFAULT_TIMEOUT = 600.0


class QueueCoordinator:
    """Drives one batch of shard tasks through a spool to completion."""

    def __init__(
        self,
        spool: SpoolBackend,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        poll: float = DEFAULT_POLL,
        timeout: float | None = DEFAULT_TIMEOUT,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        self.spool = spool
        self.lease_ttl = lease_ttl
        self.poll = poll
        self.timeout = timeout
        self.max_attempts = max_attempts

    def run(
        self,
        worker: Callable[[object], object],
        payloads: Sequence[object],
        stage: str = "stage",
    ) -> list[object]:
        """Execute ``worker`` over ``payloads`` via the spool.

        Returns results aligned with ``payloads``.  Identical payloads
        dedupe onto one task (empty shards, notably); each slot still
        gets an independent copy of the shared result, exactly as if
        it had been unpickled from its own blob, so downstream
        mutation of one shard's output cannot alias another's.
        """
        return self.collect(self.submit(worker, payloads, stage), stage)

    def submit(
        self,
        worker: Callable[[object], object],
        payloads: Sequence[object],
        stage: str = "stage",
    ) -> list[str]:
        """Enqueue one task per payload; returns their ids in order."""
        order: list[str] = []
        for index, payload in enumerate(payloads):
            task_id, blob = task_id_for(stage, worker, payload)
            order.append(task_id)
            self.spool.enqueue(task_id, stage, index, blob)
        return order

    def collect(
        self,
        order: list[str],
        stage: str = "stage",
        serve: bool = False,
        wake=None,
    ) -> list[object]:
        """Wait for the :meth:`submit`-ted tasks; results align with ``order``.

        With ``serve`` the coordinator runs pending tasks itself instead
        of idling, through the same claim/lease/publish/ack steps as any
        worker (:func:`~repro.distributed.worker.process_one`), in a
        daemon thread it waits on only until the run's deadline.  A task
        still running then is left to finish in that thread; its lease
        stays alive until it does or the process exits.  ``wake`` is an
        optional semaphore that workers release after each task (see
        :func:`local_worker_pool`); it ends a wait early so a finished
        result is collected at once.
        """
        if not order:
            return []
        outcomes = self._watch(set(order), stage, serve, wake)
        results: list[object] = []
        served: set[str] = set()
        for task_id in order:
            value = outcomes[task_id]
            if task_id in served:
                value = pickle.loads(
                    pickle.dumps(value, protocol=PICKLE_PROTOCOL)
                )
            else:
                served.add(task_id)
            results.append(value)
        return results

    def _watch(
        self, wanted: set[str], stage: str, serve: bool = False, wake=None
    ) -> dict[str, object]:
        """Poll until every wanted task has a verified result."""
        worker_id = default_worker_id()
        outcomes: dict[str, object] = {}
        attempts: dict[str, int] = {}
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        # Serving or a ``wake`` ends a wait early, but the reaper keeps
        # the ``poll`` cadence: a fresh claim is lease-less for a moment,
        # and reaping on every pass would requeue a helper's live work.
        last_reap = time.monotonic()
        while True:
            for task_id in sorted(wanted - set(outcomes)):
                payload = self.spool.read_result(task_id)
                if payload is None:
                    continue
                outcome = decode_outcome(payload)
                if outcome is None:
                    continue  # torn/corrupt: treat as absent, let it re-run
                status, value = outcome
                if status == "error":
                    raise DistributedError(
                        f"task {task_id} ({stage}) failed in a worker:\n{value}"
                    )
                outcomes[task_id] = value
                # Tidy up after a worker that died between publishing
                # and acking: finish its claimed -> done transition.
                self.spool.ack(task_id)
                self.spool.clear_lease(task_id)
            if len(outcomes) == len(wanted):
                return outcomes
            now = time.monotonic()
            if now - last_reap >= self.poll:
                self._reap(wanted, set(outcomes), attempts, stage)
                last_reap = now
            if deadline is not None and now > deadline:
                missing = sorted(wanted - set(outcomes))
                raise DistributedError(
                    f"queue run for stage {stage!r} timed out after "
                    f"{self.timeout:g}s with {len(missing)} unfinished "
                    f"task(s): {', '.join(missing[:3])}"
                    f"{'…' if len(missing) > 3 else ''} — are any workers "
                    "serving this spool?"
                )
            ran = self._serve_one(worker_id, deadline) if serve else None
            if ran is not None:
                task_id, outcome = ran
                if task_id in wanted and outcome and outcome[0] == "ok":
                    # Published already; no need to read it back.
                    outcomes[task_id] = outcome[1]
                continue  # collect whatever else finished, at once
            if wake is None:
                time.sleep(self.poll)
            elif wake.acquire(timeout=self.poll):
                # One pass collects every task finished so far.
                while wake.acquire(False):
                    pass

    def _serve_one(self, worker_id: str, deadline: float | None):
        """Run one pending task here; ``None`` when none is pending.

        Otherwise the task id and outcome from
        :func:`~repro.distributed.worker.process_one`, or ``("", None)``
        when the call raised or is still running at ``deadline`` (the
        caller's next deadline check then ends the run).
        """
        ran: list = []
        server = threading.Thread(
            target=lambda: ran.append(
                process_one(self.spool, worker_id, ttl=self.lease_ttl)
            ),
            daemon=True,
        )
        server.start()
        server.join(
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        return ran[0] if ran else ("", None)

    def _reap(
        self,
        wanted: set[str],
        done: set[str],
        attempts: dict[str, int],
        stage: str,
    ) -> None:
        """Requeue claimed tasks whose lease is missing or expired."""
        now = time.time()
        for task_id in self.spool.claimed_ids():
            if task_id not in wanted or task_id in done:
                continue
            if self.spool.has_result(task_id):
                continue  # publish landed; the collect pass handles it
            lease = Lease.read(self.spool, task_id)
            if lease is not None and not lease.expired(now):
                continue
            self.spool.clear_lease(task_id)
            if not self.spool.requeue(task_id):
                continue  # raced the worker's own ack/requeue
            attempts[task_id] = attempts.get(task_id, 0) + 1
            if attempts[task_id] >= self.max_attempts:
                raise SpoolError(
                    f"task {task_id} ({stage}) lost its lease "
                    f"{attempts[task_id]} times; giving up (are workers "
                    "being killed faster than the lease TTL "
                    f"{self.lease_ttl:g}s?)"
                )


@contextmanager
def local_worker_pool(
    spool_dir: str | Path,
    workers: int,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    done=None,
):
    """``workers`` local worker processes serving ``spool_dir``.

    The processes run until the context exits (a multiprocessing event
    is their stop signal), so one pool can serve several successive
    stage maps against the same spool.  Exiting the context returns
    once every process has left its worker loop (or died), without
    waiting for the process exit itself.  They are daemons: a crashed
    coordinator cannot leak workers.  ``done``, when given, is a
    multiprocessing semaphore each worker releases after every task.
    """
    if workers <= 0:
        yield []
        return
    context = _process_context()
    stop = context.Event()
    lefts = [context.Event() for _ in range(workers)]
    processes = [
        context.Process(
            target=_pool_worker,
            args=(str(spool_dir), stop, lease_ttl, poll, done, left),
            daemon=True,
            name=f"repro-worker-{index}",
        )
        for index, left in enumerate(lefts)
    ]
    for process in processes:
        process.start()
    try:
        yield processes
    finally:
        stop.set()
        deadline = time.monotonic() + 10.0
        for process, left in zip(processes, lefts):
            # A process that has left its loop never touches the spool
            # again.  Its exit unmaps its copy of this process, which can
            # take as long as a small task, so it is not joined here;
            # multiprocessing reaps it at the next start or at exit.
            while not left.wait(0.01):
                if not process.is_alive():
                    break  # died inside the loop
                if time.monotonic() > deadline:  # pragma: no cover - hung
                    process.terminate()
                    process.join(timeout=5.0)
                    break


def _pool_worker(
    spool_dir: str, stop, lease_ttl: float, poll: float, done, left
) -> None:
    """Module-level pool target (picklable under the spawn context)."""
    try:
        run_worker(
            FilesystemSpool(spool_dir),
            ttl=lease_ttl,
            poll=poll,
            stop=stop,
            done=done,
        )
    finally:
        left.set()


def usable_cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_sharded_queue(
    worker: Callable[[object], object],
    payloads: Sequence[object],
    spool: str | Path,
    workers: int = 1,
    stage: str = "stage",
    lease_ttl: float = DEFAULT_LEASE_TTL,
    poll: float = DEFAULT_POLL,
    timeout: float | None = DEFAULT_TIMEOUT,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> list[object]:
    """Queue-backed :func:`~repro.pipeline.shard.run_sharded`.

    Args:
        worker: picklable shard worker (module-level function or
            ``functools.partial`` of one — same constraint as the
            ``process`` executor).
        payloads: one entry per shard; results come back aligned.
        spool: the spool directory (shared with the worker fleet).
        workers: local workers for this call, the coordinator included:
            it serves the spool itself and starts the others as
            processes, never more local workers in all than there are
            tasks or usable CPUs; ``0`` relies entirely on externally
            started workers.  The coordinator runs its tasks in this
            process, so a task that crashes the process (a segfault,
            ``os._exit``) ends the run; use ``0`` and standalone
            workers to keep tasks out of it.
        stage: stage name folded into task ids (and error messages).
        lease_ttl / poll / timeout / max_attempts: see
            :class:`QueueCoordinator`.
    """
    if not payloads:
        return []
    backend = FilesystemSpool(spool)
    coordinator = QueueCoordinator(
        backend,
        lease_ttl=lease_ttl,
        poll=poll,
        timeout=timeout,
        max_attempts=max_attempts,
    )
    # Enqueue before the pool starts, so new workers find work at once.
    order = coordinator.submit(worker, payloads, stage=stage)
    # Local workers past the task count would only idle, and past the
    # CPU count only time-slice; each one costs a fork and an exit of
    # this process, which may be large.
    local = min(workers, len(set(order)), usable_cores())
    done = _process_context().Semaphore(0)
    with local_worker_pool(
        spool, local - 1, lease_ttl=lease_ttl, poll=poll, done=done
    ):
        return coordinator.collect(
            order, stage=stage, serve=workers > 0, wake=done
        )
