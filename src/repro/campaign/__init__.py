"""Resumable, fault-tolerant benchmark campaigns.

A *campaign* is a declarative grid -- examples x scales x config
variants -- expanded into independent jobs and driven to completion
by a supervisor that survives worker crashes, per-job timeouts and
mid-campaign kills.  It is the harness the Table 2/Table 3 sweeps run
through once they outgrow a single in-process run: every completed
job is durably checkpointed (JSONL, fsync per record) under a
campaign directory, so a killed campaign resumes from its completed
jobs and the final manifest is byte-identical to an uninterrupted
run.

The pieces:

* :mod:`repro.campaign.grid` -- :class:`CampaignSpec`,
  :class:`Variant`, :class:`RetryPolicy` and grid expansion;
* :mod:`repro.campaign.jobs` -- the :class:`Job` unit, the worker-side
  executor, and the fault-injection hook the tests use;
* :mod:`repro.campaign.checkpoint` -- the campaign directory layout
  and the append-only checkpoint log;
* :mod:`repro.campaign.runner` -- :func:`run_campaign`: dispatch onto
  persistent supervised worker processes (:mod:`repro.exec`),
  bounded-backoff retries, graceful degradation to failed-job
  records;
* :mod:`repro.campaign.manifest` -- the deterministic final
  aggregate and its Table 2/3-style rendering.

CLI surface: ``repro campaign run | resume | status`` (see
README.md, "Campaigns").
"""

from repro.campaign.checkpoint import CampaignDir
from repro.campaign.grid import (
    VARIANT_PRESETS,
    CampaignSpec,
    RetryPolicy,
    Variant,
    expand_jobs,
    spec_from_flags,
)
from repro.campaign.jobs import JOB_KINDS, Job, execute_job
from repro.campaign.manifest import build_manifest, render_manifest
from repro.campaign.runner import (
    CampaignOutcome,
    campaign_status,
    run_campaign,
)

__all__ = [
    "CampaignDir",
    "CampaignOutcome",
    "CampaignSpec",
    "JOB_KINDS",
    "Job",
    "RetryPolicy",
    "VARIANT_PRESETS",
    "Variant",
    "build_manifest",
    "campaign_status",
    "execute_job",
    "expand_jobs",
    "render_manifest",
    "run_campaign",
    "spec_from_flags",
]
