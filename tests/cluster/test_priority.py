"""Deadline-based priority levels (Section 5 semantics)."""

import pytest

from repro import Task, TaskGraph
from repro.cluster.priority import (
    NO_DEADLINE_PRIORITY,
    PriorityContext,
    compute_edge_priorities,
    compute_task_priorities,
)


def chain(pe="CPU", wcets=(1e-3, 2e-3, 3e-3), deadline=0.01, bytes_=0):
    g = TaskGraph(name="c", period=0.1, deadline=deadline)
    names = []
    for i, w in enumerate(wcets):
        name = "t%d" % i
        g.add_task(Task(name=name, exec_times={pe: w}))
        names.append(name)
    for a, b in zip(names, names[1:]):
        g.add_edge(a, b, bytes_=bytes_)
    return g


def fixed_context(exec_value=None, comm_value=0.0):
    return PriorityContext(
        exec_time=lambda g, t: exec_value if exec_value is not None else t.max_exec_time,
        comm_time=lambda g, e: comm_value,
    )


class TestTaskPriorities:
    def test_sink_priority_is_exec_minus_deadline(self):
        g = chain(wcets=(1e-3,), deadline=0.01)
        prios = compute_task_priorities(g, fixed_context())
        assert prios["t0"] == pytest.approx(1e-3 - 0.01)

    def test_chain_accumulates_longest_path(self):
        g = chain(wcets=(1e-3, 2e-3, 3e-3), deadline=0.01)
        prios = compute_task_priorities(g, fixed_context())
        assert prios["t2"] == pytest.approx(3e-3 - 0.01)
        assert prios["t1"] == pytest.approx(2e-3 + prios["t2"])
        assert prios["t0"] == pytest.approx(1e-3 + prios["t1"])

    def test_upstream_tasks_more_urgent(self):
        g = chain()
        prios = compute_task_priorities(g, fixed_context())
        assert prios["t0"] > prios["t1"] > prios["t2"]

    def test_communication_adds_to_path(self):
        g = chain(bytes_=100)
        with_comm = compute_task_priorities(g, fixed_context(comm_value=1e-3))
        without = compute_task_priorities(g, fixed_context(comm_value=0.0))
        assert with_comm["t0"] == pytest.approx(without["t0"] + 2e-3)

    def test_branch_takes_max(self):
        g = TaskGraph(name="b", period=0.1, deadline=0.01)
        for name, w in (("root", 1e-3), ("fast", 1e-3), ("slow", 5e-3)):
            g.add_task(Task(name=name, exec_times={"CPU": w}))
        g.add_edge("root", "fast")
        g.add_edge("root", "slow")
        prios = compute_task_priorities(g, fixed_context())
        assert prios["root"] == pytest.approx(1e-3 + prios["slow"])

    def test_task_with_own_deadline(self):
        g = TaskGraph(name="d", period=0.1, deadline=0.05)
        g.add_task(Task(name="a", exec_times={"CPU": 1e-3}, deadline=0.002))
        g.add_task(Task(name="b", exec_times={"CPU": 1e-3}))
        g.add_edge("a", "b")
        prios = compute_task_priorities(g, fixed_context())
        # a's own tight deadline dominates the path through b.
        assert prios["a"] == pytest.approx(1e-3 - 0.002)

    def test_pessimistic_context_uses_max(self, library):
        g = chain(pe="MC68360")
        context = PriorityContext.pessimistic(library)
        prios = compute_task_priorities(g, context)
        assert prios["t0"] > prios["t2"]


class TestEdgePriorities:
    def test_edge_priority_formula(self):
        g = chain(bytes_=10)
        context = fixed_context(comm_value=5e-4)
        task_prios = compute_task_priorities(g, context)
        edge_prios = compute_edge_priorities(g, context, task_prios)
        assert edge_prios[("t0", "t1")] == pytest.approx(5e-4 + task_prios["t1"])

    def test_computed_without_supplied_task_priorities(self):
        g = chain()
        context = fixed_context()
        edge_prios = compute_edge_priorities(g, context)
        assert set(edge_prios) == set(g.edges)


class TestNoDeadlinePaths:
    def test_isolated_task_without_deadline(self):
        # A graph-level deadline applies only to sinks; an isolated
        # no-deadline situation needs a task-level construction:
        g = TaskGraph(name="n", period=0.1, deadline=0.05)
        g.add_task(Task(name="sink", exec_times={"CPU": 1e-3}))
        prios = compute_task_priorities(g, fixed_context())
        assert prios["sink"] != NO_DEADLINE_PRIORITY  # sinks inherit
