"""Periodic acyclic task graph (Figure 1 of the paper).

A :class:`TaskGraph` owns a set of :class:`~repro.graph.task.Task`
nodes and :class:`~repro.graph.edge.Edge` arcs, plus the rate
constraints of the paper's execution model: an earliest start time
(EST), a period, and a deadline.  The underlying structure is a
:class:`networkx.DiGraph`, exposed read-only for algorithms that want
graph traversals.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import networkx as nx

from repro.errors import SpecificationError
from repro.graph.edge import Edge
from repro.graph.task import Task


class TaskGraph:
    """A periodic acyclic task graph with rate constraints.

    Parameters
    ----------
    name:
        Identifier, unique within a :class:`~repro.graph.spec.SystemSpec`.
    period:
        Activation period in seconds; a new copy of the graph arrives
        every ``period`` seconds.
    deadline:
        End-to-end deadline in seconds relative to each copy's earliest
        start time.  Applies to every sink task that does not carry its
        own deadline.  Defaults to the period.
    est:
        Earliest start time of the first copy, in seconds from time 0.
    """

    def __init__(
        self,
        name: str,
        period: float,
        deadline: Optional[float] = None,
        est: float = 0.0,
    ) -> None:
        if not name:
            raise SpecificationError("task graph name must be non-empty")
        if period <= 0:
            raise SpecificationError(
                "task graph %r period must be positive, got %r" % (name, period)
            )
        if deadline is None:
            deadline = period
        if deadline <= 0:
            raise SpecificationError(
                "task graph %r deadline must be positive, got %r" % (name, deadline)
            )
        if est < 0:
            raise SpecificationError(
                "task graph %r EST must be non-negative, got %r" % (name, est)
            )
        self.name = name
        self.period = float(period)
        self.deadline = float(deadline)
        self.est = float(est)
        self._tasks: Dict[str, Task] = {}
        self._edges: Dict[Tuple[str, str], Edge] = {}
        self._nx = nx.DiGraph()
        self._topo_cache: Optional[List[str]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_task(self, task: Task) -> Task:
        """Add a task node; returns the task for chaining."""
        if task.name in self._tasks:
            raise SpecificationError(
                "duplicate task %r in graph %r" % (task.name, self.name)
            )
        self._tasks[task.name] = task
        self._nx.add_node(task.name)
        self._topo_cache = None
        return task

    def add_edge(self, src: str, dst: str, bytes_: int = 0) -> Edge:
        """Add a directed communication edge between existing tasks."""
        for endpoint in (src, dst):
            if endpoint not in self._tasks:
                raise SpecificationError(
                    "edge endpoint %r not a task of graph %r" % (endpoint, self.name)
                )
        edge = Edge(src=src, dst=dst, bytes_=bytes_)
        if edge.key in self._edges:
            raise SpecificationError(
                "duplicate edge %s->%s in graph %r" % (src, dst, self.name)
            )
        self._edges[edge.key] = edge
        self._nx.add_edge(src, dst)
        self._topo_cache = None
        return edge

    def replace_task(self, task: Task) -> None:
        """Replace an existing task definition in place, keeping edges.

        Used by the fault-tolerance transformation when annotating
        tasks, never by client code building a specification.
        """
        if task.name not in self._tasks:
            raise SpecificationError(
                "cannot replace unknown task %r in graph %r" % (task.name, self.name)
            )
        self._tasks[task.name] = task

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def tasks(self) -> Dict[str, Task]:
        """Mapping of task name to :class:`Task` (do not mutate)."""
        return self._tasks

    @property
    def edges(self) -> Dict[Tuple[str, str], Edge]:
        """Mapping of (src, dst) to :class:`Edge` (do not mutate)."""
        return self._edges

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, task_name: str) -> bool:
        return task_name in self._tasks

    def task(self, name: str) -> Task:
        """Look up a task by name."""
        try:
            return self._tasks[name]
        except KeyError:
            raise SpecificationError(
                "no task %r in graph %r" % (name, self.name)
            ) from None

    def edge(self, src: str, dst: str) -> Edge:
        """Look up an edge by endpoints."""
        try:
            return self._edges[(src, dst)]
        except KeyError:
            raise SpecificationError(
                "no edge %s->%s in graph %r" % (src, dst, self.name)
            ) from None

    def predecessors(self, task_name: str) -> List[str]:
        """Names of tasks with an edge into ``task_name`` (sorted)."""
        return sorted(self._nx.predecessors(task_name))

    def successors(self, task_name: str) -> List[str]:
        """Names of tasks fed by ``task_name`` (sorted)."""
        return sorted(self._nx.successors(task_name))

    def sources(self) -> List[str]:
        """Tasks with no predecessors, sorted by name."""
        return sorted(n for n in self._nx.nodes if self._nx.in_degree(n) == 0)

    def sinks(self) -> List[str]:
        """Tasks with no successors, sorted by name."""
        return sorted(n for n in self._nx.nodes if self._nx.out_degree(n) == 0)

    def topological_order(self) -> List[str]:
        """Deterministic topological order of task names.

        Ties are broken lexicographically so repeated runs are
        reproducible regardless of insertion order.
        """
        if self._topo_cache is None:
            self._topo_cache = list(
                nx.lexicographical_topological_sort(self._nx)
            )
        return list(self._topo_cache)

    def is_acyclic(self) -> bool:
        """True when the graph has no directed cycles."""
        return nx.is_directed_acyclic_graph(self._nx)

    def effective_deadline(self, task_name: str) -> Optional[float]:
        """Deadline applying to ``task_name``, if any.

        A task's own deadline wins; otherwise sink tasks inherit the
        graph deadline; non-sink tasks without their own deadline have
        none.
        """
        task = self.task(task_name)
        if task.deadline is not None:
            return task.deadline
        if self._nx.out_degree(task_name) == 0:
            return self.deadline
        return None

    def deadline_tasks(self) -> List[str]:
        """Names of tasks carrying an effective deadline, sorted."""
        return sorted(
            name for name in self._tasks if self.effective_deadline(name) is not None
        )

    def iter_tasks(self) -> Iterator[Task]:
        """Iterate tasks in deterministic (topological) order."""
        for name in self.topological_order():
            yield self._tasks[name]

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate edges in deterministic order."""
        for key in sorted(self._edges):
            yield self._edges[key]

    def total_area_gates(self) -> int:
        """Sum of gate areas over all tasks (hardware sizing aid)."""
        return sum(t.area_gates for t in self._tasks.values())

    def __repr__(self) -> str:
        return "TaskGraph(%r, %d tasks, %d edges, period=%g)" % (
            self.name,
            len(self._tasks),
            len(self._edges),
            self.period,
        )
