"""Periodic acyclic task graph (Figure 1 of the paper).

A :class:`TaskGraph` owns a set of :class:`~repro.graph.task.Task`
nodes and :class:`~repro.graph.edge.Edge` arcs, plus the rate
constraints of the paper's execution model: an earliest start time
(EST), a period, and a deadline.  The edge table is the only stored
structure; sorted predecessor and successor lists and the deterministic
topological order are derived from it on first use.

:class:`GraphTables` holds the rows the estimators read on every pass
-- the priority pass, the finish-time floor and its deadline check,
and the scheduler's plans -- derived once from that cache, and
:class:`GraphTableCache` keeps one per graph for as long as its owner
(a synthesis run's priority context, or an incremental engine's
scheduler context) lives, next to the run's demand-floor totals.
Neither is stored on the graph, so specifications and results pickle
exactly as before.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import SpecificationError
from repro.graph.edge import Edge
from repro.graph.task import Task
from repro.units import require_finite

#: ``(predecessors, successors, topological order)`` of a graph.
_Derived = Tuple[Dict[str, List[str]], Dict[str, List[str]], List[str]]


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

    #: Derived from ``_edges``; ``None`` until the first query after a
    #: change.  A class default, so graphs unpickled from store entries
    #: written before this cache existed derive it on first use too.
    _derived: Optional[_Derived] = None

    def __init__(
        self,
        name: str,
        period: float,
        deadline: Optional[float] = None,
        est: float = 0.0,
    ) -> None:
        """Validate the rate constraints and start with no tasks or
        edges; an empty name, a period or deadline that is not positive
        and finite, or an EST that is negative or infinite, raises
        :class:`SpecificationError`."""
        if not name:
            raise SpecificationError("task graph name must be non-empty")
        if not 0 < period < math.inf:
            require_finite(period, "task graph %r period", name)
            raise SpecificationError(
                "task graph %r period must be positive, got %r" % (name, period)
            )
        if deadline is None:
            deadline = period
        if not 0 < deadline < math.inf:
            require_finite(deadline, "task graph %r deadline", name)
            raise SpecificationError(
                "task graph %r deadline must be positive, got %r" % (name, deadline)
            )
        if not 0 <= est < math.inf:
            require_finite(est, "task graph %r EST", name)
            raise SpecificationError(
                "task graph %r EST must be non-negative, got %r" % (name, est)
            )
        self.name = name
        self.period = float(period)
        self.deadline = float(deadline)
        self.est = float(est)
        self._tasks: Dict[str, Task] = {}
        self._edges: Dict[Tuple[str, str], Edge] = {}

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
        self._derived = None
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
        self._derived = None
        return edge

    def _adjacency(self) -> _Derived:
        """The derived cache, rebuilt from ``sorted(_edges)`` if stale.

        The order is Kahn's algorithm popping the smallest ready name,
        so it never depends on insertion order; on a cyclic graph it
        stops short of the tasks on or behind a cycle.
        """
        if self._derived is None:
            preds: Dict[str, List[str]] = {name: [] for name in sorted(self._tasks)}
            succs: Dict[str, List[str]] = {name: [] for name in preds}
            for src, dst in sorted(self._edges):
                succs[src].append(dst)
                preds[dst].append(src)
            waiting = {name: len(into) for name, into in preds.items()}
            # Built in name order, so already a heap.
            ready = [name for name, count in waiting.items() if count == 0]
            order: List[str] = []
            while ready:
                name = heapq.heappop(ready)
                order.append(name)
                for succ in succs[name]:
                    waiting[succ] -= 1
                    if waiting[succ] == 0:
                        heapq.heappush(ready, succ)
            self._derived = (preds, succs, order)
        return self._derived

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
        self.task(task_name)  # an unknown name raises SpecificationError
        return list(self._adjacency()[0][task_name])

    def successors(self, task_name: str) -> List[str]:
        """Names of tasks fed by ``task_name`` (sorted)."""
        self.task(task_name)  # an unknown name raises SpecificationError
        return list(self._adjacency()[1][task_name])

    def sources(self) -> List[str]:
        """Tasks with no predecessors, sorted by name."""
        return [name for name, into in self._adjacency()[0].items() if not into]

    def sinks(self) -> List[str]:
        """Tasks with no successors, sorted by name."""
        return [name for name, out in self._adjacency()[1].items() if not out]

    def topological_order(self) -> List[str]:
        """Deterministic topological order of task names.

        Ties are broken lexicographically so repeated runs are
        reproducible regardless of insertion order.  Raises
        :class:`SpecificationError` when the graph has a cycle.
        """
        if not self.is_acyclic():
            raise SpecificationError(
                "task graph %r contains a cycle; task graphs must be acyclic"
                % (self.name,)
            )
        return list(self._adjacency()[2])

    def is_acyclic(self) -> bool:
        """True when the graph has no directed cycles."""
        return len(self._adjacency()[2]) == len(self._tasks)

    def effective_deadline(self, task_name: str) -> Optional[float]:
        """Deadline applying to ``task_name``, if any.

        A task's own deadline wins; otherwise sink tasks inherit the
        graph deadline; non-sink tasks without their own deadline have
        none.
        """
        task = self.task(task_name)
        if task.deadline is not None:
            return task.deadline
        if not self._adjacency()[1][task_name]:
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


class GraphTables:
    """One graph's static estimator inputs, derived once.

    Every row is built from the graph's derived adjacency cache with the
    same lookups the per-call queries make, so each stored value is the
    one those queries return.  The tables are stale once the graph
    changes: ``add_task`` and ``add_edge`` drop the adjacency cache, so
    ``derived`` is no longer the graph's.
    """

    __slots__ = (
        "graph", "derived", "priority_rows", "topo_rows", "deadline_rows",
        "_plan_rows", "_min_wcet",
    )

    def __init__(self, graph: TaskGraph) -> None:
        """Derive ``graph``'s rows (a cyclic graph raises as
        :meth:`TaskGraph.topological_order` does)."""
        order = graph.topological_order()
        derived = graph._adjacency()
        preds, succs = derived[0], derived[1]
        tasks, edges = graph._tasks, graph._edges
        self.graph = graph
        self.derived = derived
        #: ``(name, task, effective deadline, ((successor, edge), ...))``
        #: in reverse topological order: the priority pass.
        self.priority_rows = tuple(
            (
                name,
                tasks[name],
                graph.effective_deadline(name),
                tuple((succ, edges[(name, succ)]) for succ in succs[name]),
            )
            for name in reversed(order)
        )
        #: ``(name, task, predecessor names)`` in topological order: the
        #: finish-time floor.
        self.topo_rows = tuple(
            (name, tasks[name], tuple(preds[name])) for name in order
        )
        #: ``(name, effective deadline)`` of every deadline-carrying
        #: task, sorted by name.
        self.deadline_rows = tuple(
            (name, graph.effective_deadline(name))
            for name in graph.deadline_tasks()
        )
        self._plan_rows: Optional[tuple] = None
        self._min_wcet: Dict[str, float] = {}

    @property
    def plan_rows(self) -> tuple:
        """``(name, ((predecessor, edge bytes), ...), successor names,
        task)`` in topological order: the scheduler plan's rows
        (:mod:`repro.perf.fastsched`), derived on first use.  Every
        name is the string object the graph's own queries return, so a
        plan holds the key strings those queries would give it."""
        rows = self._plan_rows
        if rows is None:
            preds, succs, order = self.derived
            tasks, edges = self.graph._tasks, self.graph._edges
            rows = self._plan_rows = tuple(
                (
                    name,
                    tuple(
                        (pred, edges[(pred, name)].bytes_)
                        for pred in preds[name]
                    ),
                    tuple(succs[name]),
                    tasks[name],
                )
                for name in order
            )
        return rows

    def min_wcet(self, task: Task) -> float:
        """``task.min_exec_time``, computed on first use (a task no PE
        type can run raises then, as the property does)."""
        try:
            return self._min_wcet[task.name]
        except KeyError:
            value = self._min_wcet[task.name] = task.min_exec_time
            return value


class GraphTableCache:
    """:class:`GraphTables` per graph, rebuilt when a graph changes,
    and the demand floor's per-cluster totals per clustering.

    Keyed by graph (clustering) identity; each entry holds its graph
    (clustering), so an id is never reused while the cache lives.  Give
    it the lifetime of one synthesis run: it holds every graph and
    clustering it has seen, and frees them with the run.
    """

    __slots__ = ("_tables", "_demand")

    def __init__(self) -> None:
        """Start empty."""
        self._tables: Dict[int, GraphTables] = {}
        self._demand: Dict[int, tuple] = {}

    def demand_totals(self, clustering) -> dict:
        """The busy-time totals memo of ``clustering``'s clusters that
        :func:`repro.sched.bounds.demand_floor` fills, kept for as long
        as this cache lives."""
        entry = self._demand.get(id(clustering))
        if entry is None:
            entry = self._demand[id(clustering)] = (clustering, {})
        return entry[1]

    def __call__(self, graph: TaskGraph) -> GraphTables:
        """The current tables of ``graph``."""
        tables = self._tables.get(id(graph))
        if tables is None or tables.derived is not graph._adjacency():
            tables = self._tables[id(graph)] = GraphTables(graph)
        return tables
