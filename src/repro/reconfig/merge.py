"""The dynamic-reconfiguration merge procedure (Figure 3).

Once an architecture meets its deadlines, CRUSADE computes its *merge
potential* (number of PPEs plus links), builds a *merge array* of PPE
pairs that could collapse into one multi-mode device, and explores
each merge: the donor device's modes become new modes of the host,
the donor is removed, the system is rescheduled (now paying reboot
tasks at mode switches), and the merge is accepted only when every
deadline still holds and the cost went down.  The loop repeats while
cost or merge potential decreases.  A second pass tries combining
modes *within* each device when resources allow (Section 4.2's final
step), shrinking boot storage and reconfiguration count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Set, Tuple

from repro.errors import AllocationError
from repro.arch.architecture import Architecture
from repro.arch.pe_instance import PEInstance
from repro.cluster.clustering import ClusteringResult
from repro.delay.model import DelayPolicy
from repro.graph.spec import SystemSpec
from repro.obs.trace import NULL_TRACER, Tracer
from repro.reconfig.compatibility import CompatibilityAnalysis
from repro.resources.pe import PpeType
from repro.alloc.evaluate import EvalResult, choose_link_type, _connect_cluster_edges


@dataclass
class MergeOutcome:
    """Result of the merge phase."""

    arch: Architecture
    result: EvalResult
    merges_accepted: int = 0
    merges_rejected: int = 0
    mode_combines: int = 0
    rounds: int = 0


def _graphs_on(pe: PEInstance, clustering: ClusteringResult) -> Set[str]:
    """Task graphs with clusters configured on a PE instance."""
    return {clustering.clusters[c].graph for c in pe.clusters()}


def _donor_fits_host(
    donor: PEInstance, host: PEInstance, policy: DelayPolicy
) -> bool:
    """Every donor mode must fit an empty mode of the host under the
    ERUF/EPUF caps."""
    host_type = host.pe_type
    if not isinstance(host_type, PpeType):
        return False
    for mode in donor.modes:
        if not policy.admits(host_type, mode.gates_used, mode.pins_used):
            return False
    return True


def _move_cluster(
    arch: Architecture,
    cluster_name: str,
    clustering: ClusteringResult,
    spec: SystemSpec,
    target_pe_id: str,
    target_mode: int,
    link_strategy: str = "cheapest",
) -> None:
    """Re-home one cluster onto (target pe, mode), reconnecting links."""
    cluster = clustering.clusters[cluster_name]
    arch.deallocate_cluster(
        cluster_name,
        gates=cluster.area_gates,
        pins=cluster.pins,
        memory=cluster.memory,
    )
    arch.allocate_cluster(
        cluster_name,
        target_pe_id,
        target_mode,
        gates=cluster.area_gates,
        pins=cluster.pins,
        memory=cluster.memory,
    )
    link_type = choose_link_type(arch, link_strategy)
    _connect_cluster_edges(
        arch, cluster, arch.pe(target_pe_id), clustering, spec, link_type
    )


def _apply_merge(
    arch: Architecture,
    host_id: str,
    donor_id: str,
    clustering: ClusteringResult,
    spec: SystemSpec,
) -> None:
    """Fold the donor's modes into fresh modes of the host and delete
    the donor."""
    donor = arch.pe(donor_id)
    host = arch.pe(host_id)
    for mode in list(donor.modes):
        if mode.empty:
            continue
        target_mode = host.new_mode().index
        for cluster_name in sorted(mode.clusters):
            _move_cluster(
                arch, cluster_name, clustering, spec, host_id, target_mode
            )
    arch.remove_pe(donor_id)
    arch.compact_pe_modes(host_id)


def _merge_array(
    arch: Architecture,
    clustering: ClusteringResult,
    compat: CompatibilityAnalysis,
    policy: DelayPolicy,
) -> List[Tuple[str, str]]:
    """Candidate (host, donor) pairs, biggest donor saving first.

    A pair qualifies when every donor mode fits the host under the
    caps and every donor graph is compatible with every host graph.
    """
    # Devices carrying replicated clusters are left as allocated: their
    # mode structure encodes cross-mode residency that whole-device
    # moves would break.
    ppes = [p for p in arch.programmable_pes() if not p.has_replicas]
    candidates: List[Tuple[float, str, str]] = []
    for host in ppes:
        host_graphs = _graphs_on(host, clustering)
        for donor in ppes:
            if donor.id == host.id:
                continue
            if not donor.clusters():
                continue
            if not _donor_fits_host(donor, host, policy):
                continue
            donor_graphs = _graphs_on(donor, clustering)
            if not compat.all_compatible(host_graphs, donor_graphs):
                continue
            saving = donor.pe_type.cost
            candidates.append((saving, host.id, donor.id))
    candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
    return [(host, donor) for _, host, donor in candidates]


def _try_combine_modes(
    clustering: ClusteringResult,
    spec: SystemSpec,
    policy: DelayPolicy,
    evaluate: Callable[[Architecture], EvalResult],
    best: EvalResult,
) -> Tuple[EvalResult, int]:
    """Combine mode pairs within each PPE when capacity allows and
    deadlines stay met (Section 4.2's post-allocation step)."""
    combines = 0
    current = best
    progress = True
    while progress:
        progress = False
        for pe in current.arch.programmable_pes():
            if pe.n_modes < 2 or pe.has_replicas:
                continue
            ppe_type = pe.pe_type
            assert isinstance(ppe_type, PpeType)
            done = False
            for a in range(pe.n_modes):
                for b in range(a + 1, pe.n_modes):
                    mode_a, mode_b = pe.mode(a), pe.mode(b)
                    if mode_a.empty or mode_b.empty:
                        continue
                    if not policy.admits(
                        ppe_type,
                        mode_a.gates_used + mode_b.gates_used,
                        mode_a.pins_used + mode_b.pins_used,
                    ):
                        continue
                    trial = current.arch.clone()
                    trial_pe = trial.pe(pe.id)
                    for cluster_name in sorted(trial_pe.mode(b).clusters):
                        _move_cluster(
                            trial, cluster_name, clustering, spec, pe.id, a
                        )
                    trial.compact_pe_modes(pe.id)
                    verdict = evaluate(trial)
                    if (
                        verdict is not None
                        and verdict.feasible
                        and verdict.cost <= current.cost
                    ):
                        current = verdict
                        combines += 1
                        progress = True
                        done = True
                        break
                if done:
                    break
            if progress:
                break
    return current, combines


def merge_reconfigurable_pes(
    spec: SystemSpec,
    clustering: ClusteringResult,
    compat: CompatibilityAnalysis,
    policy: DelayPolicy,
    initial: EvalResult,
    evaluate: Callable[[Architecture], EvalResult],
    combine_modes: bool = True,
    tracer: Tracer = NULL_TRACER,
) -> MergeOutcome:
    """Run the Figure 3 merge loop from a deadline-feasible start.

    ``evaluate`` re-schedules a trial architecture and returns its
    verdict; the driver supplies it so merge stays agnostic of
    priorities/boot-time details.
    """
    if not initial.feasible:
        raise AllocationError(
            "merge phase requires a deadline-feasible starting architecture"
        )
    outcome = MergeOutcome(arch=initial.arch, result=initial)
    current = initial
    while True:
        outcome.rounds += 1
        tracer.incr("merge.rounds")
        cost_before = current.cost
        potential_before = current.arch.merge_potential()
        for host_id, donor_id in _merge_array(
            current.arch, clustering, compat, policy
        ):
            if (
                host_id not in current.arch.pes
                or donor_id not in current.arch.pes
            ):
                continue
            tracer.incr("merge.candidates")
            trial = current.arch.clone()
            try:
                _apply_merge(trial, host_id, donor_id, clustering, spec)
            except AllocationError:
                outcome.merges_rejected += 1
                tracer.incr("merge.rejects.apply_error")
                tracer.event(
                    "merge.reject", host=host_id, donor=donor_id,
                    reason="apply_error",
                )
                continue
            verdict = evaluate(trial)
            if (
                verdict is not None
                and verdict.feasible
                and verdict.cost < current.cost
            ):
                current = verdict
                outcome.merges_accepted += 1
                tracer.incr("merge.accepts")
                tracer.event(
                    "merge.accept", host=host_id, donor=donor_id,
                    cost=verdict.cost,
                )
            else:
                outcome.merges_rejected += 1
                if verdict is None:
                    reason = "interface"
                elif not verdict.feasible:
                    reason = "deadline"
                else:
                    reason = "cost"
                tracer.incr("merge.rejects.%s" % reason)
                tracer.event(
                    "merge.reject", host=host_id, donor=donor_id, reason=reason
                )
        improved = (
            current.cost < cost_before
            or current.arch.merge_potential() < potential_before
        )
        if not improved:
            break
    if combine_modes:
        current, combines = _try_combine_modes(
            clustering, spec, policy, evaluate, current
        )
        outcome.mode_combines = combines
        tracer.incr("merge.mode_combines", combines)
    outcome.arch = current.arch
    outcome.result = current
    return outcome
