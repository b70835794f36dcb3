"""The pipe transport: one forked worker behind a duplex pickle pipe.

A :class:`PipeTransport` owns exactly one worker process: how it
starts (forked, running :func:`~repro.exec.worker.job_worker_main`
over the child end of the pipe), how messages travel (pickled objects
over the pipe), how liveness is judged (the process sentinel) and how
it dies (the single SIGTERM -> SIGKILL escalation in
:func:`terminate_process`, which every layer's kill goes through).
The supervision state machine (:mod:`repro.exec.supervise`) drives
it; the campaign runner and the service ``ShardPool`` both sit on
top of that.

Contract highlights:

* :meth:`PipeTransport.try_recv` never blocks; it returns ``None``
  when no message is pending.
* :meth:`PipeTransport.wait_handles` returns objects usable with
  ``multiprocessing.connection.wait`` whose readability means
  "calling :meth:`try_recv` may yield progress".
* Every receive-side failure -- a dead pipe, EOF, a worker that was
  never spawned -- surfaces as :class:`TransportDead`, the one
  exception supervision maps to a ``crash`` verdict.
"""

from __future__ import annotations

import multiprocessing
from typing import Any, Dict, List, Optional

from repro.exec.worker import job_worker_main

#: Seconds a kill waits after SIGTERM before escalating to an
#: unignorable SIGKILL.  This is the *only* escalation implementation;
#: every layer's kill goes through :func:`terminate_process`.
TERM_GRACE_S = 5.0


class TransportDead(RuntimeError):
    """The worker behind a transport is gone (process death or a
    broken pipe)."""


def pool_context():
    """The multiprocessing context every local worker uses: ``fork``
    where available (workers inherit the warm interpreter), ``spawn``
    otherwise."""
    return multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def terminate_process(proc, grace_s: Optional[float] = None) -> None:
    """The one SIGTERM -> SIGKILL escalation.

    SIGTERM first; a process still alive after ``grace_s`` (default
    :data:`TERM_GRACE_S` -- masked signal, uninterruptible state) gets
    an unignorable SIGKILL, so a wedged worker can never be leaked to
    run on beside its respawned replacement.  Safe on an
    already-dead process.
    """
    if proc is None:
        return
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=TERM_GRACE_S if grace_s is None else grace_s)
    if proc.is_alive():
        proc.kill()
        proc.join()


class PipeTransport:
    """One forked job worker and its duplex pickle pipe.

    The child runs ``job_worker_main(child_conn, target)``, where
    ``target`` is the ``"module:function"`` job executor (a dotted
    name, so it also survives the ``spawn`` start method).  Crash
    detection rides the process sentinel.
    """

    def __init__(self, target: str) -> None:
        """Configure an unspawned worker executing ``target``."""
        self.target = target
        self._ctx = pool_context()
        self._proc = None
        self._conn = None

    # ------------------------------------------------------------------
    def spawn(self) -> None:
        """Fork the worker process and keep the parent pipe end
        (idempotent while alive)."""
        if self.alive:
            return
        if self._proc is not None:
            self.kill()  # reap a dead-while-idle worker and its pipe
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=job_worker_main,
            args=(child_conn, self.target),
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._proc = proc
        self._conn = parent_conn

    def send(self, message: Any) -> None:
        """Send over the pipe; a broken pipe is a dead worker."""
        if self._conn is None:
            raise TransportDead("pipe worker is not spawned")
        try:
            self._conn.send(message)
        except (BrokenPipeError, OSError) as exc:
            raise TransportDead("pipe worker is gone: %s" % (exc,)) from exc

    def try_recv(self) -> Optional[Any]:
        """One pending message, or ``None``; EOF means a dead worker."""
        if self._conn is None:
            raise TransportDead("pipe worker is not spawned")
        try:
            if not self._conn.poll(0):
                return None
            return self._conn.recv()
        except (EOFError, OSError) as exc:
            raise TransportDead(
                "pipe worker died before replying"
            ) from exc

    def wait_handles(self) -> List[Any]:
        """The pipe connection plus the process sentinel."""
        handles: List[Any] = []
        if self._conn is not None:
            handles.append(self._conn)
        if self._proc is not None:
            handles.append(self._proc.sentinel)
        return handles

    @property
    def alive(self) -> bool:
        """Whether the worker process exists and is running."""
        return self._proc is not None and self._proc.is_alive()

    @property
    def pid(self) -> Optional[int]:
        """The worker's pid while spawned (for tests/diagnostics)."""
        return self._proc.pid if self._proc is not None else None

    def kill(self) -> None:
        """Escalated terminate (:func:`terminate_process`) + close
        (idempotent)."""
        terminate_process(self._proc)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._proc = None
        self._conn = None

    def stop(self) -> None:
        """Ask the worker to exit, then :meth:`kill` whatever is left
        (the polite half is best-effort)."""
        try:
            self.send(("stop",))
        except TransportDead:
            pass
        self.kill()

    def describe(self) -> Dict[str, Any]:
        """A JSON-able summary for ``/stats``: liveness and pid."""
        return {"alive": self.alive, "pid": self.pid}
