"""Declarative campaign grids and their expansion into jobs.

A campaign is a grid -- examples x scales x config variants -- plus a
retry/timeout policy.  :func:`expand_jobs` turns the grid into its
list of independent :class:`~repro.campaign.jobs.Job` units in a
deterministic order (examples outermost, then scales, then variants),
each with a stable human-readable id like
``table2:A1TR@0.05:largest-first``.  Job ids are the keys of the checkpoint
log, so expansion refuses grids that would produce duplicates.

Variants map onto :class:`repro.core.config.CrusadeConfig` knobs and
are checked against its fields and its own validation when built; the
named presets in :data:`VARIANT_PRESETS` are the paper's rules and the
alternative cluster order that the benchmark ablations sweep.  There
is no pruning preset: the search cuts never change a result and are
always on, so a stored variant naming ``prune`` or ``bound_abort`` is
refused like any other unknown field.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.bench.examples import example_profile
from repro.core.config import CrusadeConfig
from repro.errors import SpecificationError
from repro.io.campaign_json import CAMPAIGN_SCHEMA_VERSION
from repro.io.spec_json import malformed_document
from repro.campaign.jobs import CAMPAIGN_GRID_KINDS, Job

#: Named config variants: CrusadeConfig knob overrides per name.
#: ``largest-first`` sets ``CrusadeConfig.policy``: it re-orders
#: cluster allocation biggest-first instead of by priority.
VARIANT_PRESETS: Dict[str, Dict[str, Any]] = {
    "default": {},
    "largest-first": {"policy": "largest-first"},
}

#: The keys a variant's ``config`` may carry.
CONFIG_FIELDS = frozenset(f.name for f in fields(CrusadeConfig))


@dataclass(frozen=True)
class Variant:
    """One named configuration column of the grid."""

    name: str
    #: CrusadeConfig keyword overrides (e.g. ``{"clustering": False}``).
    config: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject keys that are not ``CrusadeConfig`` fields, and values
        ``CrusadeConfig`` refuses, here rather than as a retried error
        inside every worker of the column."""
        unknown = sorted(set(self.config) - CONFIG_FIELDS)
        if unknown:
            raise SpecificationError(
                "variant %r: unknown config field(s) %s"
                % (self.name, ", ".join(unknown))
            )
        try:
            CrusadeConfig(**self.config)
        except SpecificationError as exc:
            raise SpecificationError(
                "variant %r: %s" % (self.name, exc)
            ) from None

    @classmethod
    def preset(cls, name: str) -> "Variant":
        """The named preset from :data:`VARIANT_PRESETS`."""
        try:
            return cls(name=name, config=dict(VARIANT_PRESETS[name]))
        except KeyError:
            raise SpecificationError(
                "unknown variant preset %r (choose from %s)"
                % (name, ", ".join(sorted(VARIANT_PRESETS)))
            ) from None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {"name": self.name, "config": dict(self.config)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Variant":
        """Inverse of :meth:`to_dict`."""
        return cls(
            name=payload["name"], config=dict(payload.get("config", {}))
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Per-job fault-tolerance policy for one campaign.

    ``retries`` counts *re*-attempts, so a job runs at most
    ``retries + 1`` times before it is recorded as failed.  Backoff
    between attempts is bounded exponential:
    ``min(cap, backoff_s * 2**(attempt-1))``.  ``timeout_s`` is the
    per-attempt wall-clock budget (``None`` = no timeout); a timed-out
    worker is killed and respawned, and the attempt counts as a
    failure.
    """

    retries: int = 2
    backoff_s: float = 0.5
    backoff_cap_s: float = 30.0
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        """Reject nonsensical policies."""
        if self.retries < 0:
            raise SpecificationError("retries must be >= 0")
        if self.backoff_s < 0 or self.backoff_cap_s < 0:
            raise SpecificationError("backoff must be >= 0")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise SpecificationError("timeout_s must be positive")

    def delay(self, attempt: int) -> float:
        """Backoff before re-attempt number ``attempt`` (2-based)."""
        return min(self.backoff_cap_s, self.backoff_s * 2 ** max(0, attempt - 2))

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form."""
        return {
            "retries": self.retries,
            "backoff_s": self.backoff_s,
            "backoff_cap_s": self.backoff_cap_s,
            "timeout_s": self.timeout_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RetryPolicy":
        """Inverse of :meth:`to_dict`."""
        return cls(
            retries=payload.get("retries", 2),
            backoff_s=payload.get("backoff_s", 0.5),
            backoff_cap_s=payload.get("backoff_cap_s", 30.0),
            timeout_s=payload.get("timeout_s"),
        )


@dataclass(frozen=True)
class CampaignSpec:
    """One declarative campaign: a grid plus its retry policy.

    ``kind`` picks the job executor (``table2``, ``table3`` or the
    synthesis-free ``selftest`` used by the fault-injection tests);
    ``params`` carries kind-specific extras keyed by job id --
    notably ``inject`` maps for the fault-injection hook (see
    :mod:`repro.campaign.jobs`).  A table campaign names only paper
    examples (:data:`repro.bench.examples.EXAMPLE_NAMES`) at scales in
    (0, 1]; a ``selftest`` campaign's examples and scales are free.
    """

    name: str
    kind: str
    examples: Tuple[str, ...]
    scales: Tuple[float, ...]
    variants: Tuple[Variant, ...] = (Variant("default"),)
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Validate the grid axes."""
        if self.kind not in CAMPAIGN_GRID_KINDS:
            raise SpecificationError(
                "unknown campaign kind %r (choose from %s)"
                % (self.kind, ", ".join(sorted(CAMPAIGN_GRID_KINDS)))
            )
        if not self.examples:
            raise SpecificationError("a campaign needs at least one example")
        if not self.scales:
            raise SpecificationError("a campaign needs at least one scale")
        if not self.variants:
            raise SpecificationError("a campaign needs at least one variant")
        if self.kind in ("table2", "table3"):
            # Refused here, not after a job's retries: build_example
            # refuses each of these every time.
            for example in self.examples:
                example_profile(example)
            for scale in self.scales:
                if not 0.0 < scale <= 1.0:
                    raise SpecificationError(
                        "scale %r must be in (0, 1]" % (scale,)
                    )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (what ``campaign.json`` stores)."""
        return {
            "schema": CAMPAIGN_SCHEMA_VERSION,
            "name": self.name,
            "kind": self.kind,
            "examples": list(self.examples),
            "scales": list(self.scales),
            "variants": [v.to_dict() for v in self.variants],
            "policy": self.policy.to_dict(),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CampaignSpec":
        """Inverse of :meth:`to_dict`; a document of the wrong shape
        raises :class:`SpecificationError`."""
        with malformed_document():
            schema = payload.get("schema", CAMPAIGN_SCHEMA_VERSION)
            if schema != CAMPAIGN_SCHEMA_VERSION:
                raise SpecificationError(
                    "campaign schema %r unsupported (this build reads %d)"
                    % (schema, CAMPAIGN_SCHEMA_VERSION)
                )
            return cls(
                name=payload["name"],
                kind=payload["kind"],
                examples=tuple(payload["examples"]),
                scales=tuple(float(s) for s in payload["scales"]),
                variants=tuple(
                    Variant.from_dict(v) for v in payload.get("variants", [])
                ) or (Variant("default"),),
                policy=RetryPolicy.from_dict(payload.get("policy", {})),
                params=dict(payload.get("params", {})),
            )


def job_id(kind: str, example: str, scale: float, variant: str) -> str:
    """The stable id of one grid cell, e.g. ``table2:A1TR@0.05:default``."""
    return "%s:%s@%g:%s" % (kind, example, scale, variant)


def expand_jobs(spec: CampaignSpec) -> List[Job]:
    """Expand a campaign grid into its ordered list of jobs.

    Order is deterministic -- examples outermost, then scales, then
    variants -- and duplicate job ids (e.g. two variants with the same
    name) are a specification error.
    """
    jobs: List[Job] = []
    seen: Dict[str, None] = {}
    per_job_params = spec.params.get("jobs", {})
    for example in spec.examples:
        for scale in spec.scales:
            for variant in spec.variants:
                jid = job_id(spec.kind, example, scale, variant.name)
                if jid in seen:
                    raise SpecificationError("duplicate job id %r" % (jid,))
                seen[jid] = None
                jobs.append(Job(
                    id=jid,
                    kind=spec.kind,
                    example=example,
                    scale=scale,
                    variant=variant.name,
                    config=dict(variant.config),
                    params=dict(per_job_params.get(jid, {})),
                ))
    return jobs


def spec_from_flags(
    name: str,
    kind: str,
    examples: Sequence[str],
    scales: Sequence[float],
    variant_names: Sequence[str] = ("default",),
    policy: Optional[RetryPolicy] = None,
) -> CampaignSpec:
    """Build a campaign from CLI-style flags using variant presets."""
    return CampaignSpec(
        name=name,
        kind=kind,
        examples=tuple(examples),
        scales=tuple(float(s) for s in scales),
        variants=tuple(Variant.preset(v) for v in variant_names),
        policy=policy if policy is not None else RetryPolicy(),
    )
