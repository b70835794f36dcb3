"""The one crash/timeout/error/retry supervision state machine.

Before ``repro.exec``, the campaign runner's ``_Slot`` loop and the
service ``ShardPool``'s attempt loop each hand-rolled this machine
over a pipe-coupled worker.  :class:`SupervisedWorker` is the single
implementation, wrapping one :class:`~repro.exec.transport.
PipeTransport`, so both call sites get the same verdicts:

* **crash** -- the worker died mid-job (process death, broken pipe);
  the worker is replaced.
* **timeout** -- the attempt outlived its deadline; the worker is
  killed (the single SIGTERM -> SIGKILL escalation) and replaced.
* **error** -- the job itself raised; the traceback travels back as
  the outcome detail.
* **ok** -- the job's result travels back as the outcome value.

Two consumption styles cover all call sites: the campaign's
multiplexed loop calls the non-blocking :meth:`SupervisedWorker.poll`
each tick, and the service's per-shard coroutines run the blocking
:meth:`SupervisedWorker.attempt` on an executor thread.

The crash/timeout detail strings are deliberately policy-independent
(no attempt counts, no budgets): they land in campaign manifests and
service failure documents, and resuming under a different retry
policy must still produce byte-identical output.
"""

from __future__ import annotations

import time
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Dict, NamedTuple, Optional

from repro.obs.trace import Tracer, resolve_tracer
from repro.exec.transport import PipeTransport, TransportDead

#: Outcome kinds, shared vocabulary across campaign + service.
OK = "ok"
CRASH = "crash"
TIMEOUT = "timeout"
ERROR = "error"

#: Policy-independent failure details (see module docstring).
CRASH_DETAIL = "worker process died before replying"
TIMEOUT_DETAIL = "attempt exceeded the per-job timeout"

#: Longest single blocking wait inside :meth:`SupervisedWorker.attempt`;
#: shorter slices keep kill latency bounded without busy-polling.
WAIT_SLICE_S = 0.5


class AttemptOutcome(NamedTuple):
    """One attempt's verdict: ``kind`` is ok/crash/timeout/error and
    ``value`` is the result (ok) or the failure detail string."""

    kind: str
    value: Any

    @property
    def ok(self) -> bool:
        """Whether the attempt succeeded."""
        return self.kind == OK


class SupervisedWorker:
    """One worker under the unified supervision state machine.

    Wraps a :class:`~repro.exec.transport.PipeTransport` with the
    job protocol (``("job", id, attempt, payload)`` out;
    ``("ok"|"error", id, value)`` back), busy-tracking, deadline
    enforcement and crash recovery.  A worker holds at most one job
    at a time, which keeps supervision exact: a dead busy worker
    names exactly the job that must be retried.

    ``exec.workers.*`` counters (``spawned``, ``restarts``) land on
    ``tracer`` so pool owners (the service's ``/stats``) can report
    worker health without reaching into transports.
    """

    def __init__(
        self, transport: PipeTransport, tracer: Optional[Tracer] = None
    ) -> None:
        """Supervise ``transport``; counters land on ``tracer``."""
        self.transport = transport
        self.tracer = resolve_tracer(tracer)
        #: (job_id, attempt, payload) of the in-flight job, or None.
        self.busy: Optional[tuple] = None
        #: Times this worker was replaced after a crash or timeout.
        self.restarts = 0
        #: Jobs this worker completed with an ``ok`` reply.
        self.jobs_done = 0
        #: Whether this supervisor ever started its worker (a first
        #: spawn is not a restart).
        self._spawned = False

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the worker process is running."""
        return self.transport.alive

    def spawn(self) -> None:
        """Start the worker (idempotent while alive)."""
        self.transport.spawn()
        self.busy = None
        self._spawned = True
        self.tracer.incr("exec.workers.spawned")

    def respawn(self) -> None:
        """Kill whatever is left and start a replacement."""
        self.transport.kill()
        self.transport.spawn()
        self.busy = None
        self._spawned = True
        self.restarts += 1
        self.tracer.incr("exec.workers.restarts")

    def kill(self) -> None:
        """Hard-stop the worker (the escalated kill)."""
        self.transport.kill()
        self.busy = None

    def stop(self) -> None:
        """Politely stop, then hard-stop whatever is left."""
        self.transport.stop()
        self.busy = None

    def describe(self) -> Dict[str, Any]:
        """A JSON-able health row for ``/stats``."""
        info = self.transport.describe()
        info["restarts"] = self.restarts
        info["jobs_done"] = self.jobs_done
        info["busy"] = self.busy is not None
        return info

    # ------------------------------------------------------------------
    def submit(self, job_id: str, attempt: int, payload: Any) -> None:
        """Send one job to the (idle, live) worker."""
        if self.busy is not None:
            raise RuntimeError(
                "worker already holds job %r" % (self.busy[0],)
            )
        self.transport.send(("job", job_id, attempt, payload))
        self.busy = (job_id, attempt, payload)

    def wait_handles(self) -> list:
        """Waitables for a multiplexed supervisor loop."""
        return self.transport.wait_handles()

    def poll(
        self, now: Optional[float] = None, deadline: Optional[float] = None
    ) -> Optional[AttemptOutcome]:
        """Non-blocking: the in-flight attempt's outcome, or ``None``.

        Checks, in order: a reply (``ok``/``error``), worker death
        (``crash`` -- the worker is replaced), then the ``deadline``
        (``timeout`` -- the worker is killed, escalated, and
        replaced).  After any non-``None`` return the worker is
        idle.
        """
        if self.busy is None:
            return None
        try:
            reply = self.transport.try_recv()
        except TransportDead:
            return self._crashed()
        if reply is not None:
            self.busy = None
            if reply[0] == "ok":
                self.jobs_done += 1
                return AttemptOutcome(OK, reply[2])
            return AttemptOutcome(ERROR, reply[2])
        if not self.transport.alive:
            return self._crashed()
        if deadline is not None:
            if now is None:
                now = time.monotonic()
            if now >= deadline:
                self.respawn()
                return AttemptOutcome(TIMEOUT, TIMEOUT_DETAIL)
        return None

    def _crashed(self) -> AttemptOutcome:
        """Mark the in-flight attempt crashed and replace the worker."""
        self.respawn()
        return AttemptOutcome(CRASH, CRASH_DETAIL)

    # ------------------------------------------------------------------
    def attempt(
        self,
        job_id: str,
        attempt: int,
        payload: Any,
        timeout_s: Optional[float] = None,
        slice_s: float = WAIT_SLICE_S,
    ) -> AttemptOutcome:
        """Blocking: run one attempt to its typed outcome.

        Spawns/replaces a dead worker first, submits, then waits in
        bounded slices so a deadline overrun kills the worker within
        ``slice_s`` of the deadline.  Never hangs: every exit path is
        a typed :class:`AttemptOutcome`.
        """
        if not self.alive:
            if self._spawned:
                self.respawn()
            else:
                self.spawn()
        try:
            self.submit(job_id, attempt, payload)
        except TransportDead:
            return self._crashed()
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while True:
            now = time.monotonic()
            outcome = self.poll(now, deadline)
            if outcome is not None:
                return outcome
            wait_s = slice_s
            if deadline is not None:
                wait_s = min(wait_s, max(0.0, deadline - now))
            _conn_wait(self.wait_handles(), timeout=wait_s)
