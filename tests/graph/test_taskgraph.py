"""TaskGraph structure, traversal, and deadline semantics."""

import pickle

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import SpecificationError, Task, TaskGraph
from repro.graph.edge import Edge


def simple_task(name, deadline=None):
    return Task(name=name, exec_times={"CPU": 1e-3}, deadline=deadline)


def diamond():
    g = TaskGraph(name="d", period=0.01)
    for n in ("a", "b", "c", "d"):
        g.add_task(simple_task(n))
    g.add_edge("a", "b", bytes_=10)
    g.add_edge("a", "c", bytes_=10)
    g.add_edge("b", "d", bytes_=10)
    g.add_edge("c", "d", bytes_=10)
    return g


class TestConstruction:
    def test_defaults(self):
        g = TaskGraph(name="g", period=0.5)
        assert g.deadline == 0.5  # defaults to the period
        assert g.est == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(name="", period=1.0),
        dict(name="g", period=0.0),
        dict(name="g", period=1.0, deadline=0.0),
        dict(name="g", period=1.0, est=-1.0),
    ])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(SpecificationError):
            TaskGraph(**kwargs)

    def test_duplicate_task_rejected(self):
        g = TaskGraph(name="g", period=1.0)
        g.add_task(simple_task("a"))
        with pytest.raises(SpecificationError):
            g.add_task(simple_task("a"))

    def test_edge_endpoints_must_exist(self):
        g = TaskGraph(name="g", period=1.0)
        g.add_task(simple_task("a"))
        with pytest.raises(SpecificationError):
            g.add_edge("a", "missing")

    def test_duplicate_edge_rejected(self):
        g = diamond()
        with pytest.raises(SpecificationError):
            g.add_edge("a", "b")

    def test_self_loop_rejected(self):
        with pytest.raises(SpecificationError):
            Edge(src="a", dst="a")

    def test_negative_bytes_rejected(self):
        with pytest.raises(SpecificationError):
            Edge(src="a", dst="b", bytes_=-1)


class TestTraversal:
    def test_sources_and_sinks(self):
        g = diamond()
        assert g.sources() == ["a"]
        assert g.sinks() == ["d"]

    def test_topological_order_is_valid_and_deterministic(self):
        g = diamond()
        order = g.topological_order()
        assert order.index("a") < order.index("b") < order.index("d")
        assert order.index("a") < order.index("c") < order.index("d")
        assert order == g.topological_order()

    def test_predecessors_successors(self):
        g = diamond()
        assert g.predecessors("d") == ["b", "c"]
        assert g.successors("a") == ["b", "c"]

    def test_acyclicity(self):
        g = diamond()
        assert g.is_acyclic()

    def test_contains_and_len(self):
        g = diamond()
        assert "a" in g
        assert "z" not in g
        assert len(g) == 4

    def test_unknown_lookups_raise(self):
        g = diamond()
        with pytest.raises(SpecificationError):
            g.task("zz")
        with pytest.raises(SpecificationError):
            g.edge("a", "d")
        with pytest.raises(SpecificationError, match="no task 'nope'"):
            g.predecessors("nope")
        with pytest.raises(SpecificationError, match="no task 'nope'"):
            g.successors("nope")

    def test_graph_pickled_without_the_derived_cache_derives_it(self):
        """A graph unpickled from a store entry written before the
        cache existed has no ``_derived`` of its own and answers from
        the class default."""
        g = diamond()
        del g.__dict__["_derived"]
        old = pickle.loads(pickle.dumps(g))
        assert "_derived" not in vars(old)
        assert old.predecessors("d") == ["b", "c"]
        assert old.topological_order() == ["a", "b", "c", "d"]


@st.composite
def shuffled_dags(draw):
    """``(tasks, edges)`` of a random DAG, each in shuffled insertion order.

    Edges run forward in a hidden ranking of the tasks, so the graph is
    acyclic, and that ranking is independent of name order.
    """
    names = draw(st.lists(st.text("abxyz", min_size=1, max_size=3),
                          min_size=1, max_size=10, unique=True))
    ranked = draw(st.permutations(names))
    forward = [(a, b) for i, a in enumerate(ranked) for b in ranked[i + 1:]]
    keep = draw(st.lists(st.booleans(), min_size=len(forward),
                         max_size=len(forward)))
    edges = draw(st.permutations([e for e, k in zip(forward, keep) if k]))
    return draw(st.permutations(names)), edges


def build_graph(tasks, edges):
    g = TaskGraph(name="h", period=1.0)
    for name in tasks:
        g.add_task(simple_task(name))
    for src, dst in edges:
        g.add_edge(src, dst)
    return g


def brute_force_order(tasks, edges):
    """Repeatedly emit the smallest task whose predecessors were all
    emitted already."""
    emitted = []
    while len(emitted) < len(tasks):
        emitted.append(min(
            t for t in tasks if t not in emitted
            and all(src in emitted for src, dst in edges if dst == t)
        ))
    return emitted


class TestDerivedViews:
    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags())
    def test_views_match_the_edge_table(self, dag):
        tasks, edges = dag
        g = build_graph(tasks, edges)
        assert g.is_acyclic()
        assert g.topological_order() == brute_force_order(tasks, edges)
        for name in tasks:
            assert g.predecessors(name) == sorted(s for s, d in g.edges if d == name)
            assert g.successors(name) == sorted(d for s, d in g.edges if s == name)
        assert g.sources() == sorted(set(tasks) - {d for _, d in edges})
        assert g.sinks() == sorted(set(tasks) - {s for s, _ in edges})

    @settings(max_examples=200, deadline=None)
    @given(shuffled_dags(), st.data())
    def test_one_back_edge_makes_a_cycle(self, dag, data):
        """An edge from any descendant of ``src`` back to ``src`` closes
        a cycle, and the cache derived before it is not reused."""
        tasks, edges = dag
        assume(edges)
        g = build_graph(tasks, edges)
        g.topological_order()
        src, dst = data.draw(st.sampled_from(edges))
        below = {dst}
        while True:
            grown = below | {d for s, d in edges if s in below}
            if grown == below:
                break
            below = grown
        g.add_edge(data.draw(st.sampled_from(sorted(below))), src)
        assert not g.is_acyclic()
        with pytest.raises(SpecificationError, match="contains a cycle"):
            g.topological_order()


class TestDeadlines:
    def test_sink_inherits_graph_deadline(self):
        g = diamond()
        assert g.effective_deadline("d") == g.deadline

    def test_non_sink_has_no_deadline_by_default(self):
        g = diamond()
        assert g.effective_deadline("b") is None

    def test_task_deadline_wins(self):
        g = TaskGraph(name="g", period=1.0, deadline=0.9)
        g.add_task(simple_task("a", deadline=0.3))
        g.add_task(simple_task("b"))
        g.add_edge("a", "b")
        assert g.effective_deadline("a") == 0.3
        assert g.effective_deadline("b") == 0.9

    def test_deadline_tasks(self):
        g = diamond()
        assert g.deadline_tasks() == ["d"]


class TestHelpers:
    def test_total_area(self):
        g = TaskGraph(name="g", period=1.0)
        g.add_task(Task(name="x", exec_times={"F": 1e-4}, area_gates=100))
        g.add_task(Task(name="y", exec_times={"F": 1e-4}, area_gates=200))
        assert g.total_area_gates() == 300

    def test_iter_edges_sorted(self):
        g = diamond()
        keys = [e.key for e in g.iter_edges()]
        assert keys == sorted(keys)
