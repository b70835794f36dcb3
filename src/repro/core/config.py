"""Configuration knobs for the CRUSADE driver.

Defaults follow the paper: ERUF 70 % / EPUF 80 %, clustering enabled,
restricted preemption on, dynamic reconfiguration on.  The ablation
benchmarks flip individual knobs.  The performance layer has no mode
switches beyond ``prune`` and ``bound_abort``, both result-neutral and
set only here (no environment variable or CLI flag reaches them): every
run evaluates through the incremental engine (:mod:`repro.perf.engine`)
on the one production timeline pair (:mod:`repro.perf.fasttimeline`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster.clustering import CLUSTER_ORDERS
from repro.delay.model import DelayPolicy
from repro.errors import SpecificationError


@dataclass(frozen=True)
class CrusadeConfig:
    """Driver configuration.

    Attributes
    ----------
    reconfiguration:
        Enable dynamic reconfiguration (multiple modes per PPE).  Off
        reproduces the paper's baseline column: each programmable
        device has a single mode.
    clustering:
        Critical-path task clustering; off allocates one cluster per
        task (the clustering ablation).
    max_explicit_copies:
        Association-array cap on materialized copies per graph.
    max_cluster_size:
        Upper bound on tasks per cluster.
    delay_policy:
        ERUF/EPUF caps for programmable devices.
    preemption:
        Restricted-preemption path on processors.
    max_existing_options:
        Bound on existing-instance entries in each allocation array.
    fast_inner_loop:
        Inner-loop scheduling restricted to resource-coupled graphs.
        ``None`` auto-enables above :attr:`fast_threshold_tasks`.
    fast_threshold_tasks:
        Task count beyond which the fast inner loop auto-enables.
    link_strategies:
        Link-type selection strategies tried in order when a cluster
        cannot meet deadlines with the first.
    combine_modes:
        Post-merge mode combining (Section 4.2's last step).
    interface_retries:
        How many times the boot-time requirement is halved when the
        synthesized interface's boot times break the schedule.
    prune:
        Admissible candidate pruning (:mod:`repro.perf.prune`):
        candidates whose finish-time/demand lower bounds provably miss
        a deadline or overload a resource are cut without scheduling.
        Pure dominance pruning -- the chosen candidate and final
        architecture are byte-identical either way; ``False`` restores
        exhaustive evaluation (the identity suites' reference).
    bound_abort:
        Incumbent-driven bounded search: candidate evaluations carry
        the incumbent's badness tuple into the scheduler, which aborts
        the moment the partial schedule's proven violation count
        exceeds it (:class:`~repro.sched.scheduler.ScheduleAbort`).
        Pure dominance -- aborted candidates provably lose to the
        incumbent, so the chosen candidate and final architecture are
        byte-identical either way; ``False`` evaluates every candidate
        to completion.  Aborts are reported as
        ``sched.abort`` / ``sched.abort.<reason>`` counters.
    policy:
        Cluster allocation order, one of the names in
        :data:`~repro.cluster.clustering.CLUSTER_ORDERS`:
        ``"default"`` is the paper's decreasing-priority order,
        ``"largest-first"`` (biggest clusters first) the campaign
        grid's ablation column.  Candidate order and merge acceptance
        are the paper's fixed rules.  A string so configs stay
        picklable and JSON-serializable for the campaign runner; any
        other value is rejected here.
    cache_dir:
        Directory of the persistent content-addressed synthesis store
        (:mod:`repro.perf.store`); ``None`` (default) disables it.
        With a store, an exact resubmission (same spec content, same
        catalog, same semantic config) returns the cached result in
        milliseconds, and near-hit resubmissions reuse still-valid
        per-component schedule fragments across runs.  Warm-started
        results are byte-identical to cold ones.  The
        ``REPRO_CACHE_DIR`` environment variable is the fallback when
        this field is ``None`` (how campaign workers share one store).
        A configured store is always read and written; to run cold,
        run without one.
    """

    reconfiguration: bool = True
    clustering: bool = True
    max_explicit_copies: int = 4
    max_cluster_size: int = 8
    delay_policy: DelayPolicy = field(default_factory=DelayPolicy)
    preemption: bool = True
    max_existing_options: int = 12
    fast_inner_loop: Optional[bool] = None
    fast_threshold_tasks: int = 300
    link_strategies: Tuple[str, ...] = ("cheapest", "fastest")
    combine_modes: bool = True
    interface_retries: int = 6
    prune: bool = True
    bound_abort: bool = True
    policy: str = "default"
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.cache_dir is not None and not isinstance(self.cache_dir, str):
            raise SpecificationError("cache_dir must be a string path or None")
        if self.max_explicit_copies < 1:
            raise SpecificationError("max_explicit_copies must be >= 1")
        if self.max_cluster_size < 1:
            raise SpecificationError("max_cluster_size must be >= 1")
        if self.max_existing_options < 1:
            raise SpecificationError("max_existing_options must be >= 1")
        if not self.link_strategies:
            raise SpecificationError("need at least one link strategy")
        if self.interface_retries < 0:
            raise SpecificationError("interface_retries must be >= 0")
        if self.policy not in CLUSTER_ORDERS:
            raise SpecificationError(
                "unknown policy %r (choose from %s)"
                % (self.policy, ", ".join(sorted(CLUSTER_ORDERS)))
            )

    def use_fast_inner_loop(self, total_tasks: int) -> bool:
        """Resolve the auto setting against a system size."""
        if self.fast_inner_loop is not None:
            return self.fast_inner_loop
        return total_tasks > self.fast_threshold_tasks
