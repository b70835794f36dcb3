"""Structured trace events and their wire schema.

Every event serializes to one JSON object with a fixed envelope:

``v``
    Schema version (:data:`SCHEMA_VERSION`); bumped only when an
    envelope key changes meaning.
``event``
    Dotted event name, e.g. ``"phase.end"`` or ``"merge.accept"``.
``seq``
    Monotonically increasing per-tracer sequence number.
``t``
    Seconds since the tracer was created (wall clock, informational
    only -- never fed back into synthesis).
``fields``
    Event-specific payload (JSON-serializable scalars).

Downstream consumers key on ``event`` + ``fields`` and must tolerate
new event names appearing; the envelope keys themselves are stable.

Well-known event families: ``phase.start``/``phase.end`` from
:meth:`repro.obs.trace.Tracer.phase`; ``merge.*`` from the Figure 3
merge procedure; and the campaign runner's lifecycle events
(:data:`CAMPAIGN_EVENT_NAMES`), which stream per-job progress --
start, completion with wall seconds, retries with their reason and
backoff, and terminal failures -- to the campaign directory's
``events.jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

#: Version of the event envelope written by :class:`repro.obs.trace.JsonlSink`.
SCHEMA_VERSION = 1

#: Envelope keys every serialized event carries, in order.
ENVELOPE_KEYS = ("v", "event", "seq", "t", "fields")

#: Lifecycle events emitted by :mod:`repro.campaign.runner`, in the
#: order a job can traverse them.  ``campaign.job.retry`` carries
#: ``reason`` (``crash`` | ``timeout`` | ``error``) and ``backoff_s``;
#: ``campaign.job.done`` carries per-job ``wall_s``.
CAMPAIGN_EVENT_NAMES = (
    "campaign.start",
    "campaign.job.start",
    "campaign.job.done",
    "campaign.job.retry",
    "campaign.job.failed",
    "campaign.end",
)

#: Lifecycle events emitted by the synthesis service
#: (:mod:`repro.service`).  ``service.request`` carries the
#: per-request trace -- ``outcome`` (``cache_hit`` | ``coalesced`` |
#: ``computed``) plus, for computed requests, ``queue_wait_s``,
#: ``worker_wall_s``, ``attempts`` and the winning ``shard``; the
#: ``service.job.*`` events mirror the campaign runner's supervision
#: vocabulary (retry reasons ``crash`` | ``timeout`` | ``error``).
SERVICE_EVENT_NAMES = (
    "service.start",
    "service.request",
    "service.job.start",
    "service.job.retry",
    "service.job.failed",
    "service.drain",
    "service.end",
)


@dataclass(frozen=True)
class Event:
    """One structured observation emitted during synthesis."""

    name: str
    seq: int
    t: float
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready envelope (see module docstring for the schema)."""
        return {
            "v": SCHEMA_VERSION,
            "event": self.name,
            "seq": self.seq,
            "t": self.t,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Event":
        """Rebuild an event from its envelope (inverse of ``to_dict``)."""
        return cls(
            name=payload["event"],
            seq=payload["seq"],
            t=payload["t"],
            fields=dict(payload.get("fields", {})),
        )
