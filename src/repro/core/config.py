"""Configuration knobs for the CRUSADE driver.

Defaults follow the paper: ERUF 70 % / EPUF 80 %, clustering enabled,
restricted preemption on, dynamic reconfiguration on.  The ablation
benchmarks flip individual knobs.  The performance layer has no mode
switches: every run evaluates through the incremental engine
(:mod:`repro.perf.engine`) on the one production timeline pair
(:mod:`repro.perf.fasttimeline`), with the admissible prune floors
(:mod:`repro.perf.prune`) and incumbent-driven bound aborts always on.
Both cuts are pure dominance, so the exhaustive search they skip is a
test oracle, not a setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.cluster.clustering import CLUSTER_ORDERS
from repro.delay.model import DelayPolicy
from repro.errors import SpecificationError
from repro.resources.link import LINK_STRATEGIES

#: Fields that must hold a ``bool`` and fields that must hold an
#: ``int`` (a ``bool`` is not one): a JSON ``"false"`` or ``1.5`` is
#: refused, not silently coerced.
_BOOL_FIELDS = ("reconfiguration", "clustering", "preemption",
                "combine_modes")
_INT_FIELDS = ("max_explicit_copies", "max_cluster_size",
               "max_existing_options", "fast_threshold_tasks",
               "interface_retries")


def _refuse(name: str, value, expected: str) -> None:
    """Raise the error naming the field, what it needs and ``value``."""
    raise SpecificationError(
        "%s must be %s, got %r" % (name, expected, value)
    )


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
        cannot meet deadlines with the first: a tuple (or list, stored
        as a tuple) of names from
        :data:`~repro.resources.link.LINK_STRATEGIES`.
    combine_modes:
        Post-merge mode combining (Section 4.2's last step).
    interface_retries:
        How many times the boot-time requirement is halved when the
        synthesized interface's boot times break the schedule.
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
        results are byte-identical to cold ones.  A configured store
        is always read and written; to run cold, run without one.
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
    link_strategies: Tuple[str, ...] = LINK_STRATEGIES
    combine_modes: bool = True
    interface_retries: int = 6
    policy: str = "default"
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        """Refuse a value of the wrong type or out of range, naming
        the field, so a campaign variant or service request that sets
        one fails when it is admitted."""
        for name in _BOOL_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, bool):
                _refuse(name, value, "a bool")
        if not isinstance(self.fast_inner_loop, (bool, type(None))):
            _refuse("fast_inner_loop", self.fast_inner_loop, "a bool or None")
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                _refuse(name, value, "an int")
        if not isinstance(self.delay_policy, DelayPolicy):
            _refuse("delay_policy", self.delay_policy, "a DelayPolicy")
        strategies = self.link_strategies
        if not isinstance(strategies, (tuple, list)) or any(
            name not in LINK_STRATEGIES for name in strategies
        ):
            _refuse("link_strategies", strategies,
                    "a list of names from %s" % ", ".join(LINK_STRATEGIES))
        object.__setattr__(self, "link_strategies", tuple(strategies))
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
        if not isinstance(self.policy, str) or (
            self.policy not in CLUSTER_ORDERS
        ):
            raise SpecificationError(
                "unknown policy %r (choose from %s)"
                % (self.policy, ", ".join(sorted(CLUSTER_ORDERS)))
            )

    def use_fast_inner_loop(self, total_tasks: int) -> bool:
        """Resolve the auto setting against a system size."""
        if self.fast_inner_loop is not None:
            return self.fast_inner_loop
        return total_tasks > self.fast_threshold_tasks
