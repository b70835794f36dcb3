"""Worker-side entry point: the persistent job loop.

:func:`job_worker_main` is what every forked worker runs over the
child end of its :class:`~repro.exec.transport.PipeTransport` pipe,
for the campaign runner and the service shard pool alike.
"""

from __future__ import annotations

import importlib
import signal
import traceback


def job_worker_main(conn, target: str) -> None:
    """Generic persistent-worker loop executing ``fn(payload, attempt)``.

    Resolves ``target`` (a ``"module:function"`` dotted name, so it
    survives the ``spawn`` start method) and executes one job per
    ``("job", job_id, attempt, payload)`` message, replying
    ``("ok", job_id, result)`` or ``("error", job_id, traceback)``.
    Anything that escapes this loop entirely -- ``os._exit``, a
    segfault, a kill -- is what the parent's supervision exists for.
    """
    _restore_default_signals()
    module_name, _, fn_name = target.partition(":")
    fn = getattr(importlib.import_module(module_name), fn_name)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg[0] == "stop":
            break
        _, job_id, attempt, payload = msg
        try:
            result = fn(payload, attempt)
        except BaseException:
            conn.send(("error", job_id, traceback.format_exc()))
        else:
            conn.send(("ok", job_id, result))
    conn.close()


def _restore_default_signals() -> None:
    """Give a forked worker the default SIGTERM and SIGINT handling.

    A worker forked under an event loop's signal handlers (``repro
    serve`` installs them before its shard workers start) inherits
    them: it would ignore SIGTERM, so every kill would escalate to
    SIGKILL, and the inherited wakeup fd would hand its signals to the
    parent's loop, which would take a worker's kill for its own SIGTERM.
    """
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.default_int_handler)
