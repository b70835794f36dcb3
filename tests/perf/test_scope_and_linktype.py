"""Two small inner-loop helpers: the scope cache and the link-type
choice.

The sub-specification (scope) cache must report hits/misses, respect
its LRU bound, and key per specification object; the link-type choice
must be each strategy's minimum over the library's current link
types, including one added after an earlier choice.
"""

from repro import SystemSpec, Task, TaskGraph, Tracer
from repro.arch.architecture import Architecture
from repro.graph.association import AssociationArray
from repro.resources.catalog import default_library
from repro.resources.link import LinkType
from repro.alloc import evaluate as evaluate_mod
from repro.alloc.evaluate import SCOPE_CACHE_MAX_ENTRIES, _scope, choose_link_type


def many_graph_spec(n=6):
    graphs = []
    for i in range(n):
        g = TaskGraph(name="g%d" % i, period=0.1, deadline=0.05)
        g.add_task(Task(name="t", exec_times={"MC68360": 1e-3}))
        graphs.append(g)
    return SystemSpec("s", graphs)


def test_scope_cache_hits_and_misses():
    spec = many_graph_spec()
    assoc = AssociationArray(spec, max_explicit_copies=2)
    tracer = Tracer()
    first = _scope(spec, assoc, ["g0", "g1"], tracer)
    again = _scope(spec, assoc, ["g1", "g0"], tracer)  # order-insensitive
    assert first is again
    other = _scope(spec, assoc, ["g2"], tracer)
    assert other is not first
    counters = tracer.counters.as_dict()
    assert counters["scope.misses"] == 2
    assert counters["scope.hits"] == 1


def test_scope_cache_is_per_spec():
    spec_a = many_graph_spec()
    spec_b = many_graph_spec()
    assoc_a = AssociationArray(spec_a, max_explicit_copies=2)
    assoc_b = AssociationArray(spec_b, max_explicit_copies=2)
    scoped_a = _scope(spec_a, assoc_a, ["g0"])
    scoped_b = _scope(spec_b, assoc_b, ["g0"])
    assert scoped_a is not scoped_b
    assert scoped_a[0].graph("g0") is spec_a.graph("g0")


def test_scope_cache_lru_bound():
    spec = many_graph_spec(n=8)
    assoc = AssociationArray(spec, max_explicit_copies=2)
    tracer = Tracer()
    names = spec.graph_names()
    # More distinct subsets than the cache holds: all singletons and
    # pairs of 8 graphs is 36 > 64? no -- so hammer repeats of rotated
    # windows until evictions must occur.
    import itertools

    subsets = [list(c) for r in (1, 2, 3)
               for c in itertools.combinations(names, r)]
    assert len(subsets) > SCOPE_CACHE_MAX_ENTRIES
    for subset in subsets:
        _scope(spec, assoc, subset, tracer)
    counters = tracer.counters.as_dict()
    assert counters["scope.misses"] == len(subsets)
    assert counters["scope.evictions"] == len(subsets) - SCOPE_CACHE_MAX_ENTRIES
    with evaluate_mod._scope_lock:
        assert len(evaluate_mod._scope_cache[spec]) == SCOPE_CACHE_MAX_ENTRIES


def test_choose_link_type_is_the_strategy_minimum():
    library = default_library()
    arch = Architecture(library)
    for strategy in ("cheapest", "fastest"):
        first = choose_link_type(arch, strategy)
        assert choose_link_type(arch, strategy) is first
    links = library.links_by_cost()
    cheapest = min(links, key=lambda l: (l.instance_cost(2), l.name))
    fastest = min(links, key=lambda l: (l.comm_time(256), l.name))
    assert choose_link_type(arch, "cheapest") is cheapest
    assert choose_link_type(arch, "fastest") is fastest


def test_choose_link_type_notices_grown_library():
    library = default_library()
    arch = Architecture(library)
    before = choose_link_type(arch, "cheapest")
    # A dirt-cheap new link type is the new minimum.
    library.add_link_type(LinkType(
        name="freebie",
        cost=0.001,
        max_ports=4,
        access_times=(1e-6, 1e-6, 2e-6, 3e-6),
        bytes_per_packet=64,
        packet_tx_time=1e-6,
        cost_per_port=0.001,
        assumed_ports=2,
    ))
    after = choose_link_type(arch, "cheapest")
    assert after is not before
    assert after.name == "freebie"
