"""Specification validation.

Validation is separated from construction so that programmatic graph
builders (the generator, the FT transformation) can assemble partial
structures cheaply and validate once.  :func:`validate_spec` is called
by the CRUSADE driver before pre-processing.
"""

from __future__ import annotations

from typing import List, Optional

from repro.errors import SpecificationError
from repro.graph.spec import SystemSpec
from repro.graph.taskgraph import TaskGraph
from repro.resources.library import ResourceLibrary


def validate_graph(
    graph: TaskGraph, library: Optional[ResourceLibrary] = None
) -> List[str]:
    """Validate one task graph; returns a list of warnings.

    Raises :class:`SpecificationError` on hard errors: cyclic graphs,
    empty graphs, deadlines exceeding hyperperiod sanity, exclusion
    vectors naming unknown tasks, or (when a library is given) tasks
    whose execution vector names no PE type present in the library.
    Warnings cover suspicious-but-legal conditions such as deadlines
    longer than the period.
    """
    warnings: List[str] = []
    if len(graph) == 0:
        raise SpecificationError("task graph %r has no tasks" % (graph.name,))
    graph.topological_order()  # raises SpecificationError on a cycle
    if graph.deadline > graph.period:
        warnings.append(
            "graph %r deadline %g exceeds period %g; copies may overlap"
            % (graph.name, graph.deadline, graph.period)
        )
    for task in graph.tasks.values():
        for excluded in task.exclusions:
            if excluded not in graph:
                # Exclusions may also reference tasks of other graphs;
                # those are resolved at the system level, so only warn.
                warnings.append(
                    "task %r excludes %r which is not in graph %r"
                    % (task.name, excluded, graph.name)
                )
        if task.deadline is not None and task.deadline > graph.deadline:
            warnings.append(
                "task %r deadline %g exceeds graph deadline %g"
                % (task.name, task.deadline, graph.deadline)
            )
        if library is not None:
            known = [t for t in task.exec_times if library.has_pe_type(t)]
            if not known:
                raise SpecificationError(
                    "task %r names no PE type present in the resource library"
                    % (task.name,)
                )
            runnable = [t for t in known if task.can_run_on(t)]
            if not runnable:
                raise SpecificationError(
                    "task %r cannot run on any library PE type "
                    "(all mappings forbidden)" % (task.name,)
                )
    return warnings


def validate_spec(
    spec: SystemSpec, library: Optional[ResourceLibrary] = None
) -> List[str]:
    """Validate a full system specification; returns all warnings.

    Hard errors raise :class:`SpecificationError`.
    """
    warnings: List[str] = []
    for name in spec.graph_names():
        warnings.extend(validate_graph(spec.graph(name), library))
    # Cross-graph exclusion references must name a task that exists
    # somewhere in the system.
    all_task_names = set()
    for name in spec.graph_names():
        all_task_names.update(spec.graph(name).tasks)
    for name in spec.graph_names():
        for task in spec.graph(name).tasks.values():
            for excluded in task.exclusions:
                if excluded not in all_task_names:
                    raise SpecificationError(
                        "task %r excludes unknown task %r" % (task.name, excluded)
                    )
    return warnings
