"""The service's shard pool: pull-based async supervision of workers.

One :class:`ShardPool` owns a set of
:class:`~repro.exec.supervise.SupervisedWorker` shards -- the
execution substrate's single supervision unit -- and exposes them to
the asyncio server as an awaitable :meth:`ShardPool.submit`.
Dispatch is **pull-based**: admitted jobs land on one shared
:class:`asyncio.Queue` and each shard's async loop pulls the next job
the moment its worker goes idle, so a slow synthesis on one shard
never head-blocks the others (the least-loaded-shard rule falls out
of the pull protocol for free).  The ``workers`` shard processes are
forked at :meth:`start`, one pipe worker each.

Supervision is :meth:`SupervisedWorker.attempt` run on the event
loop's default executor (the blocking waits stay off the loop, so the
accept loop remains responsive while every shard is busy): crash /
timeout (the substrate's single SIGTERM -> SIGKILL escalation) /
error, with up to ``retries`` re-attempts.  A job that exhausts them
resolves to a structured ``{"status": "failed"}`` verdict -- never an
unresolved future, never a hung connection.

:meth:`ShardPool.drain` is the graceful-shutdown half of the
contract: it closes the queue to new submissions (the server starts
refusing with 503 first), lets every queued and in-flight job finish,
then stops the workers.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from typing import Any, Dict, List, Optional

from repro.errors import SpecificationError
from repro.obs.trace import Tracer, resolve_tracer
from repro.exec import ERROR, OK, PipeTransport, SupervisedWorker

#: Worker target resolved inside each shard process (the same
#: executor the campaign runner dispatches to).
JOB_TARGET = "repro.campaign.jobs:execute_job"


class PoolClosed(RuntimeError):
    """A job was submitted to a draining or closed pool."""


class ShardPool:
    """A pull-based pool of supervised synthesis shards.

    ``workers`` worker processes, each paired with an async shard
    loop pulling from one shared queue.  ``retries`` bounds
    re-attempts after a crash/timeout/error;
    ``timeout_s`` is the per-attempt wall-clock budget (``None`` =
    unbounded).  All counters land on ``tracer`` under
    ``service.jobs.*`` (supervision) and ``exec.workers.*``
    (substrate health).
    """

    def __init__(
        self,
        workers: int = 1,
        retries: int = 1,
        timeout_s: Optional[float] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        """Configure the pool; processes spawn in :meth:`start`.  A
        setting no pool can run with raises
        :class:`~repro.errors.SpecificationError` here, before any
        worker exists."""
        if workers < 1:
            raise SpecificationError(
                "a shard pool needs >= 1 worker, got %r" % (workers,)
            )
        if retries < 0:
            raise SpecificationError("retries must be >= 0, got %r" % (retries,))
        if timeout_s is not None and not timeout_s > 0:
            raise SpecificationError(
                "timeout must be positive, got %r" % (timeout_s,)
            )
        self.workers = workers
        self.retries = retries
        self.timeout_s = timeout_s
        self.tracer = resolve_tracer(tracer)
        self._queue: Optional[asyncio.Queue] = None
        self._shards: list = []
        self._shard_workers: List[SupervisedWorker] = []
        self._draining = False
        self._started = False
        self._inflight = 0

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        """Whether :meth:`start` has run (and :meth:`drain` has not)."""
        return self._started

    @property
    def draining(self) -> bool:
        """Whether the pool has stopped accepting submissions."""
        return self._draining

    @property
    def alive_workers(self) -> int:
        """How many shard workers are alive."""
        return sum(1 for w in self._shard_workers if w.alive)

    @property
    def backlog(self) -> int:
        """Jobs admitted but not yet resolved (queued + in flight)."""
        queued = self._queue.qsize() if self._queue is not None else 0
        return queued + self._inflight

    def worker_info(self) -> List[Dict[str, Any]]:
        """Per-shard health rows for ``/stats``: liveness, pid,
        restarts, jobs done, busy."""
        rows = []
        for i, worker in enumerate(self._shard_workers):
            row = worker.describe()
            row["shard"] = i
            rows.append(row)
        return rows

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the shard workers and their pull loops (idempotent)."""
        if self._started:
            return
        self._queue = asyncio.Queue()
        loop = asyncio.get_running_loop()
        self._shard_workers = [
            SupervisedWorker(PipeTransport(JOB_TARGET), tracer=self.tracer)
            for _ in range(self.workers)
        ]
        for worker in self._shard_workers:
            # Spawning forks a process; cheap, but keep it off the loop.
            await loop.run_in_executor(None, worker.spawn)
        self._shards = [
            asyncio.ensure_future(self._shard_loop(i, worker))
            for i, worker in enumerate(self._shard_workers)
        ]
        self._draining = False
        self._started = True

    async def submit(self, job_id: str, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Queue one job payload and await its supervision verdict.

        Returns ``{"status": "done", "result": ..., "attempts": n}``
        or ``{"status": "failed", "error": {"kind", "detail"},
        "attempts": n}``; raises :class:`PoolClosed` when draining.
        """
        if not self._started or self._draining:
            raise PoolClosed("the shard pool is not accepting jobs")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._inflight += 1
        self._queue.put_nowait((job_id, payload, future, time.monotonic()))
        try:
            return await future
        finally:
            self._inflight -= 1

    async def drain(self) -> None:
        """Gracefully shut down: finish queued + in-flight jobs first.

        Idempotent; after it returns every submitted future is
        resolved and every worker process is stopped.
        """
        self._draining = True
        if not self._started:
            return
        for _ in self._shards:
            self._queue.put_nowait(None)  # one stop token per shard
        await asyncio.gather(*self._shards, return_exceptions=True)
        loop = asyncio.get_running_loop()
        for worker in self._shard_workers:
            await loop.run_in_executor(None, worker.stop)
        self._shards = []
        self._started = False

    # ------------------------------------------------------------------
    async def _shard_loop(self, shard: int, worker: SupervisedWorker) -> None:
        """One shard: pull jobs until the drain token arrives."""
        while True:
            item = await self._queue.get()
            if item is None:
                return
            job_id, payload, future, enqueued_at = item
            queue_wait_s = time.monotonic() - enqueued_at
            try:
                verdict = await self._run_job(shard, worker, job_id, payload)
            except Exception:  # supervision must never kill the shard
                verdict = {
                    "status": "failed",
                    "error": {"kind": ERROR,
                              "detail": traceback.format_exc()},
                    "attempts": 0,
                }
                self.tracer.incr("service.jobs.failed")
            verdict["queue_wait_s"] = round(queue_wait_s, 6)
            verdict["shard"] = shard
            if not future.cancelled():
                future.set_result(verdict)

    async def _run_job(
        self, shard: int, worker: SupervisedWorker, job_id: str,
        payload: Dict[str, Any],
    ) -> Dict[str, Any]:
        """Attempt loop for one job on one shard's worker."""
        loop = asyncio.get_running_loop()
        for attempt in range(1, self.retries + 2):
            self.tracer.event(
                "service.job.start", job=job_id, shard=shard, attempt=attempt
            )
            outcome = await loop.run_in_executor(
                None, worker.attempt, job_id, attempt, payload,
                self.timeout_s,
            )
            if outcome.kind == OK:
                self.tracer.incr("service.jobs.done")
                return {
                    "status": "done", "result": outcome.value,
                    "attempts": attempt,
                }
            self.tracer.incr("service.jobs.%s" % outcome.kind)
            if attempt <= self.retries:
                self.tracer.incr("service.jobs.retried")
                self.tracer.event(
                    "service.job.retry",
                    job=job_id, shard=shard, attempt=attempt,
                    reason=outcome.kind,
                )
        self.tracer.incr("service.jobs.failed")
        self.tracer.event(
            "service.job.failed",
            job=job_id, shard=shard, reason=outcome.kind,
        )
        return {
            "status": "failed",
            "error": {"kind": outcome.kind, "detail": outcome.value},
            "attempts": self.retries + 1,
        }
