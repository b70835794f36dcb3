"""Campaign job units and their worker-side executor.

A :class:`Job` is one independent cell of a campaign grid; the
executor :func:`execute_job` runs inside a persistent worker process
(a :class:`repro.exec.PipeTransport` with target
``"repro.campaign.jobs:execute_job"``) and returns a compact,
JSON-able, *deterministic* result -- wall-clock times never appear in
it, so the final manifest is byte-identical across reruns and
resumes.

Job kinds
---------

``table2``
    One example's with/without-reconfiguration comparison
    (:func:`repro.bench.table2.run_table2_row`) under the variant's
    config overrides.
``table3``
    The fault-tolerant comparison
    (:func:`repro.bench.table3.run_table3_row`).
``selftest``
    A synthesis-free job whose result is a pure function of its
    parameters.  It exists so the crash/retry/resume machinery can be
    exercised in milliseconds, and it hosts the fault-injection hook.
``synthesize``
    One full co-synthesis of an embedded ``crusade-spec`` document
    (``params["spec"]``) under the job's config overrides -- the unit
    of work the synthesis service (:mod:`repro.service`) dispatches to
    its shard pool.  The result is the run-neutral ``crusade-result``
    export (``cpu_seconds``/``stats`` stripped), so a recomputation of
    the same request is byte-identical to the first -- the property
    the service's cache and coalescing layers are built on.

Fault injection
---------------

A job's ``params`` may carry an ``inject`` map consumed *inside the
worker*, keyed by the attempt number the supervisor sends along:

* ``{"crash_attempts": N}`` -- attempts ``<= N`` hard-exit the worker
  process (``os._exit``), simulating a segfault/OOM kill;
* ``{"error_attempts": N}`` -- attempts ``<= N`` raise, simulating a
  job bug (the traceback is captured in the checkpoint record);
* ``{"hang_attempts": N}`` -- attempts ``<= N`` sleep far past any
  per-job timeout, simulating a wedged job;
* ``{"ignore_sigterm": true}`` -- the worker masks SIGTERM first,
  simulating a wedged process that survives a polite ``terminate()``
  (exercises the supervisor's SIGKILL escalation);
* ``{"touch": path}`` -- touch ``path`` after the masks above are
  installed (and before any hang), so tests can wait for the worker
  to reach a known state instead of sleeping.

Injection is honoured for every kind (the hook runs before the
executor), but only tests and smoke campaigns should use it.
"""

from __future__ import annotations

import os
import pathlib
import signal
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

#: The job kinds :func:`execute_job` understands.
JOB_KINDS = ("table2", "table3", "selftest", "synthesize")

#: The kinds a campaign grid can expand on its own: ``synthesize``
#: jobs need a per-job spec document in ``params``, which only the
#: service front end (:mod:`repro.service`) constructs.
CAMPAIGN_GRID_KINDS = ("table2", "table3", "selftest")

#: How long an injected hang sleeps; effectively forever next to any
#: sane per-job timeout, short enough that a leaked worker exits.
_HANG_SECONDS = 3600.0


@dataclass(frozen=True)
class Job:
    """One independent unit of campaign work."""

    id: str
    kind: str
    example: str
    scale: float
    variant: str
    #: CrusadeConfig keyword overrides from the variant.
    config: Mapping[str, Any] = field(default_factory=dict)
    #: Kind-specific extras (selftest payloads, ``inject`` maps).
    params: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (the worker payload and manifest key set)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "example": self.example,
            "scale": self.scale,
            "variant": self.variant,
            "config": dict(self.config),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Job":
        """Inverse of :meth:`to_dict`."""
        return cls(
            id=payload["id"],
            kind=payload["kind"],
            example=payload["example"],
            scale=float(payload["scale"]),
            variant=payload["variant"],
            config=dict(payload.get("config", {})),
            params=dict(payload.get("params", {})),
        )


# ----------------------------------------------------------------------
def _apply_injection(params: Mapping[str, Any], attempt: int) -> None:
    """Honour the job's ``inject`` map for this attempt (test hook)."""
    inject = params.get("inject")
    if not inject:
        return
    if attempt <= inject.get("crash_attempts", 0):
        os._exit(23)
    if inject.get("ignore_sigterm"):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    if inject.get("touch"):
        pathlib.Path(inject["touch"]).touch()
    if attempt <= inject.get("hang_attempts", 0):
        time.sleep(float(inject.get("hang_seconds", _HANG_SECONDS)))
    if attempt <= inject.get("error_attempts", 0):
        raise RuntimeError(
            "injected failure for %r (attempt %d)"
            % (params.get("label", "job"), attempt)
        )


def _result_side(result) -> Dict[str, Any]:
    """The deterministic slice of one CoSynthesisResult-like object."""
    return {
        "pes": result.n_pes,
        "links": result.n_links,
        "cost": round(result.cost, 2),
        "feasible": result.feasible,
    }


def _run_table(job: Job) -> Dict[str, Any]:
    """Execute a ``table2``/``table3`` job: one example, without vs.
    with reconfiguration (plain or fault-tolerant)."""
    from repro.core.config import CrusadeConfig
    from repro.bench.table2 import run_table2_row
    from repro.bench.table3 import run_table3_row

    run_row = run_table2_row if job.kind == "table2" else run_table3_row
    row = run_row(
        job.example,
        scale=job.scale,
        config=CrusadeConfig(**dict(job.config)),
    )
    return {
        "example": job.example,
        "tasks": row.tasks,
        "without": _result_side(row.without),
        "with_reconfig": _result_side(row.with_reconfig),
        "savings_pct": round(row.savings_pct, 1),
    }


def _run_selftest(job: Job) -> Dict[str, Any]:
    """Execute a ``selftest`` job: a pure function of its params."""
    value = job.params.get("value", job.example)
    return {
        "example": job.example,
        "echo": value,
        "checksum": sum(ord(c) for c in "%s|%s" % (job.id, value)),
    }


def _run_synthesize(job: Job) -> Dict[str, Any]:
    """Execute a ``synthesize`` job: one service synthesis request.

    ``params["spec"]`` is a ``crusade-spec`` document (already
    admission-validated by the server, but revalidated here by
    ``spec_from_dict`` -- a worker must never trust a pipe);
    ``job.config`` carries the whitelisted overrides plus the server's
    ``cache_dir``, so :func:`repro.core.crusade.crusade` itself
    read-probes and write-throughs the shared content-addressed store.
    """
    from repro.core.config import CrusadeConfig
    from repro.core.crusade import crusade
    from repro.io.result_json import result_to_dict, strip_run_varying
    from repro.io.spec_json import spec_from_dict

    spec = spec_from_dict(job.params["spec"])
    result = crusade(spec, config=CrusadeConfig(**dict(job.config)))
    return {
        "system": spec.name,
        "feasible": result.feasible,
        "cost": round(result.cost, 2),
        "result": strip_run_varying(result_to_dict(result)),
    }


_EXECUTORS = {
    "table2": _run_table,
    "table3": _run_table,
    "selftest": _run_selftest,
    "synthesize": _run_synthesize,
}


def execute_job(payload: Mapping[str, Any], attempt: int) -> Dict[str, Any]:
    """Run one job payload inside a worker; returns its result dict.

    ``payload`` is ``Job.to_dict()`` output; ``attempt`` is 1-based
    and exists for the fault-injection hook.  Raising here is safe:
    the worker loop captures the traceback and the supervisor turns
    it into a retry or a failed-job record.
    """
    job = Job.from_dict(payload)
    _apply_injection(job.params, attempt)
    try:
        executor = _EXECUTORS[job.kind]
    except KeyError:
        raise ValueError("unknown job kind %r" % (job.kind,)) from None
    return executor(job)
