"""The heap replay that finds a resumed build's reusable prefix: the
oracle for the index-based resume point.

:func:`repro.sched.scheduler._resume_point` finds the first decision a
resumed build must schedule again from indexes: the common prefix of
two decision orders, each cluster's first decision, and the decision
that first read each programmable device and each PE pair.
:func:`replay_prefix` finds the same decision the direct way.  It
replays the scheduler's heap under the build's own priorities against
the trail's schedule, and reuses a decision only when its popped task
is the trail's at the same step and every input it reads equals the
trail's:

* its cluster's placement signature -- the same PE instance, mode and
  PE type, or unplaced in both builds;
* on a programmable PE, the boot time of every mode carrying the
  cluster and of the cluster's own mode;
* for every incoming edge routed between two PEs, the link's id, type
  and port bucket.

The replay reads devices the way the reference scheduler does, from
``PEInstance.modes_of_cluster`` and the request's boot-time function
(:func:`_device_modes`), never through the fingerprint view the build
reads them from, and links with ``Architecture.find_link_between``
(:func:`_pair_read`), never through the architecture's link memo the
build reads them from.  :func:`checked_resume_points` holds the two to the
same answer on every resumed build made inside it.
"""

from __future__ import annotations

import contextlib
import heapq

import pytest

from repro.perf import engine as engine_module
from repro.reconfig.reboot import default_boot_time
from repro.resources.pe import PEKind
from repro.sched import scheduler
from repro.sched.scheduler import _same_signature


def _device_modes(pe, cluster_name, boot_time_fn) -> dict:
    """``{mode: boot time}`` for the modes of a programmable ``pe``
    whose configuration carries the cluster."""
    return {
        m: boot_time_fn(pe, m) for m in pe.modes_of_cluster(cluster_name)
    }


def _pair_read(arch, pair):
    """``(link id, link type name, port bucket)`` of the link joining
    a PE pair, found by a fresh scan, or None when none does."""
    link = arch.find_link_between(*pair)
    if link is None:
        return None
    return (link.id, link.link_type.name, max(link.ports_used, 2))


def replay_prefix(prior, priorities, sigs, arch, boot_time_fn) -> int:
    """How many leading decisions a build under ``priorities`` over
    ``arch`` makes exactly as the ``prior`` trail's build did.

    ``sigs`` are the build's cluster signatures.  Links and boot
    times are computed here, into memos of the replay's own.
    """
    plan = prior.plan
    records = plan.records
    trail_tasks = prior.schedule.tasks
    steps = list(trail_tasks)
    total = len(steps)
    old_sigs = prior.sigs
    old_routes = {pair: then for _, pair, then in prior.reads}
    old_allowed = {}
    old_boots = {}
    for (pe_id, cluster_name), then in prior.device_reads.items():
        old_allowed[(pe_id, cluster_name)] = then[0]
        old_boots[(pe_id, old_sigs[cluster_name][1])] = then[2]
    replaced = {
        name for name, sig in sigs.items()
        if not _same_signature(sig, old_sigs[name])
    }
    indegree = dict(plan.indegree)
    heap = []
    for key in plan.roots:
        heapq.heappush(
            heap, (-priorities[key[0]][key[2]], records[key][0], key)
        )
    device_verdicts = {}
    pair_verdicts = {}
    pes = arch.pes
    step = 0
    while heap:
        key = heapq.heappop(heap)[2]
        if step == total or steps[step] != key:
            break
        _, preds, succs, _, cluster_name = records[key]
        if cluster_name in replaced:
            break
        sig = sigs[cluster_name]
        if sig is not None:
            pe_id, mode, _, _, kind = sig
            if kind is not PEKind.PROCESSOR and kind is not PEKind.ASIC:
                akey = (pe_id, cluster_name)
                same = device_verdicts.get(akey)
                if same is None:
                    pe = pes[pe_id]
                    allowed = _device_modes(pe, cluster_name, boot_time_fn)
                    same = device_verdicts[akey] = (
                        old_allowed.get(akey) == allowed
                        and old_boots.get((pe_id, mode))
                        == boot_time_fn(pe, mode)
                    )
                if not same:
                    break
            diverged = False
            for pred_key, bytes_, _ in preds:
                pred_pe_id = trail_tasks[pred_key].pe_id
                if pred_pe_id is None or pred_pe_id == pe_id or bytes_ == 0:
                    continue
                pair = (pred_pe_id, pe_id)
                same = pair_verdicts.get(pair)
                if same is None:
                    route = _pair_read(arch, pair)
                    old = old_routes.get(pair)
                    same = pair_verdicts[pair] = (
                        route is not None
                        and old is not None
                        and route[0] is old[0]
                        and route[1:] == old[1:]
                    )
                if not same:
                    diverged = True
                    break
            if diverged:
                break
        step += 1
        for succ_key, succ_name in succs:
            indegree[succ_key] -= 1
            if indegree[succ_key] == 0:
                heapq.heappush(heap, (
                    -priorities[key[0]][succ_name], records[succ_key][0],
                    succ_key,
                ))
    return step


@contextlib.contextmanager
def checked_resume_points():
    """Check every resumed build's resume point against
    :func:`replay_prefix`; yields a one-element list counting the
    resumed builds checked."""
    checked = [0]
    building = []
    real_build = scheduler.build_schedule
    real_point = scheduler._resume_point

    def build(request):
        building.append(request)
        try:
            return real_build(request)
        finally:
            building.pop()

    def point(prior, order, sigs, *rest):
        request = building[-1]
        expected = replay_prefix(
            prior, request.priorities, sigs, request.arch,
            request.boot_time_fn or default_boot_time,
        )
        reused = real_point(prior, order, sigs, *rest)
        assert reused == expected, (reused, expected)
        checked[0] += 1
        return reused

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scheduler, "build_schedule", build)
        patch.setattr(engine_module, "build_schedule", build)
        patch.setattr(scheduler, "_resume_point", point)
        yield checked
