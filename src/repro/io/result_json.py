"""JSON export of co-synthesis results.

One-way (results are not reloaded as live objects): the export captures
everything a downstream consumer needs to audit or visualize a
synthesized system -- the architecture with its modes and replicas,
the cluster allocation, link topology, the schedule of the
representative hyperperiod, the deadline report, and the programming
interfaces.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Union

from repro.arch.cost import cost_breakdown
from repro.core.report import CoSynthesisResult
from repro.io.campaign_json import canonical_dumps
from repro.obs.report import SynthesisStats, stats_from_dict


def _arch_to_dict(result: CoSynthesisResult) -> Dict[str, Any]:
    arch = result.arch
    pes = []
    for pe_id in sorted(arch.pes):
        pe = arch.pes[pe_id]
        bank = pe.memory_bank()
        pes.append({
            "id": pe.id,
            "type": pe.pe_type.name,
            "kind": pe.pe_type.kind.value,
            "cost": pe.cost,
            "memory_bank_bytes": bank.size_bytes if bank else 0,
            "modes": [
                {
                    "index": mode.index,
                    "gates_used": mode.gates_used,
                    "pins_used": mode.pins_used,
                    "clusters": sorted(mode.clusters),
                }
                for mode in pe.modes
            ],
            "replicas": {
                name: sorted(modes)
                for name, modes in sorted(pe.replica_modes.items())
            },
        })
    links = [
        {
            "id": link.id,
            "type": link.link_type.name,
            "cost": link.cost,
            "attached": link.attached_sorted(),
        }
        for link_id, link in sorted(arch.links.items())
    ]
    return {
        "pes": pes,
        "links": links,
        "allocation": {
            cluster: {"pe": pe_id, "mode": mode}
            for cluster, (pe_id, mode) in sorted(arch.cluster_alloc.items())
        },
        "cost_breakdown": cost_breakdown(arch).as_dict(),
    }


def _schedule_to_dict(result: CoSynthesisResult) -> Dict[str, Any]:
    tasks = []
    for key in sorted(result.schedule.tasks):
        placed = result.schedule.tasks[key]
        graph, copy, task = key
        tasks.append({
            "graph": graph,
            "copy": copy,
            "task": task,
            "pe": placed.pe_id,
            "mode": placed.mode,
            "start": placed.start,
            "finish": placed.finish,
            "preempted": placed.preempted,
        })
    edges = []
    for key in sorted(result.schedule.edges):
        placed = result.schedule.edges[key]
        graph, copy, src, dst = key
        edges.append({
            "graph": graph,
            "copy": copy,
            "src": src,
            "dst": dst,
            "link": placed.link_id,
            "start": placed.start,
            "finish": placed.finish,
        })
    windows = {
        pe_id: [
            {"mode": w.mode, "start": w.start, "end": w.end, "boot_time": w.boot_time}
            for w in timeline.windows
        ]
        for pe_id, timeline in sorted(result.schedule.ppe_timelines.items())
    }
    return {
        "tasks": tasks,
        "edges": edges,
        "mode_windows": windows,
        "reconfigurations": result.reconfigurations,
        "preemptions": result.schedule.preemptions,
    }


def result_to_dict(result: CoSynthesisResult) -> Dict[str, Any]:
    """Serialize a co-synthesis result to JSON-ready structures."""
    interfaces = {}
    if result.interface is not None:
        for pe_id, device in sorted(result.interface.devices.items()):
            interfaces[pe_id] = {
                "option": device.option.name,
                "storage_bytes": device.storage_bytes,
                "chained_with": list(device.chained_with),
                "cost_share": device.cost_share,
                "runtime_boot_times": dict(device.runtime_boot_times),
            }
    payload = {
        "format": "crusade-result",
        "version": 1,
        "system": result.spec.name,
        "feasible": result.feasible,
        "cost": result.cost,
        "cpu_seconds": result.cpu_seconds,
        "reconfiguration_enabled": result.reconfiguration_enabled,
        "merge_stats": dict(result.merge_stats),
        "deadlines": {
            "all_met": result.report.all_met,
            "missed": result.report.n_missed,
            "max_lateness": result.report.max_lateness,
            "overloaded": dict(result.report.overloaded),
        },
        "architecture": _arch_to_dict(result),
        "schedule": _schedule_to_dict(result),
        "interfaces": interfaces,
    }
    # Untraced runs keep the historical export byte-for-byte: the
    # stats block appears only when a tracer collected one.
    if result.stats is not None:
        payload["stats"] = result.stats.to_dict()
    return payload


def strip_run_varying(result_payload: Dict[str, Any]) -> Dict[str, Any]:
    """A run-neutral copy of a ``crusade-result`` export.

    Drops ``cpu_seconds`` and the traced ``stats`` block -- the only
    legitimately run-varying fields -- so two runs on the same inputs,
    or a computed service response and a cache-served one, carry
    byte-identical payloads.
    """
    neutral = dict(result_payload)
    neutral.pop("cpu_seconds", None)
    neutral.pop("stats", None)
    return neutral


def canonical_result_json(result: CoSynthesisResult) -> str:
    """Deterministic JSON text of a result, timing stripped.

    Two synthesis runs on the same inputs must produce byte-identical
    canonical text: the run-varying fields are stripped
    (:func:`strip_run_varying`) and the rest is written as canonical
    JSON.  This is what the golden regression fixtures under
    ``tests/core/golden/`` store.
    """
    return canonical_dumps(strip_run_varying(result_to_dict(result)))


def stats_from_result_dict(payload: Dict[str, Any]) -> Union[SynthesisStats, None]:
    """The stats block of an exported result, or None for untraced
    runs (inverse of the ``"stats"`` key written by
    :func:`result_to_dict`)."""
    block = payload.get("stats")
    if block is None:
        return None
    return stats_from_dict(block)


def save_result_file(
    result: CoSynthesisResult, path: Union[str, pathlib.Path]
) -> None:
    """Write a result export to a JSON file."""
    payload = result_to_dict(result)
    pathlib.Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))
