"""The execution substrate: supervised worker processes over pipes.

``repro.exec`` is the one home for "run jobs in worker processes and
survive their failures".  It factors what the campaign runner's slot
loop and the service's shard pool used to reimplement into:

* :class:`~repro.exec.transport.PipeTransport` -- one forked worker
  behind a duplex pickle pipe: how it starts, speaks, proves
  liveness and dies (the single SIGTERM -> SIGKILL escalation);
* :func:`~repro.exec.worker.job_worker_main` -- the loop the worker
  runs, executing one ``"module:function"`` job per message;
* :class:`~repro.exec.supervise.SupervisedWorker` -- the single
  crash/timeout/error/retry state machine.
"""

from repro.exec.transport import (
    PipeTransport,
    TERM_GRACE_S,
    TransportDead,
    pool_context,
    terminate_process,
)
from repro.exec.supervise import (
    AttemptOutcome,
    CRASH,
    CRASH_DETAIL,
    ERROR,
    OK,
    SupervisedWorker,
    TIMEOUT,
    TIMEOUT_DETAIL,
)
from repro.exec.worker import job_worker_main

__all__ = [
    "AttemptOutcome",
    "CRASH",
    "CRASH_DETAIL",
    "ERROR",
    "OK",
    "PipeTransport",
    "SupervisedWorker",
    "TERM_GRACE_S",
    "TIMEOUT",
    "TIMEOUT_DETAIL",
    "TransportDead",
    "job_worker_main",
    "pool_context",
    "terminate_process",
]
