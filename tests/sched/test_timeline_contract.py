"""The timeline contract: exactly the operations the program uses.

A serial timeline offers ``__len__``, ``intervals``, ``earliest_fit``,
``occupy``, ``split_fit`` and ``busy_time``; a mode timeline offers
``windows``, ``place``, ``busy_time``, ``reconfigurations`` and
``boot_time_total``.  That is the op stream the scheduler emits (see
the committed NGXM capture under ``tests/sched/traces/``) plus what
Gantt charts, validation, JSON export, ``Schedule.reconfigurations``
and the sharing report read afterwards.  Anything else an
implementation grows is surface the differential oracle would have
to keep bit-identical for no caller.
"""

import ast
import pathlib

import pytest

import repro
from repro.perf import fasttimeline, treetimeline
from repro.sched import timeline
from tests.sched.oracle import PpeDifferential, SerialDifferential
from tests.sched.tlrecord import load_trace

SERIAL_CONTRACT = frozenset(
    {"__len__", "intervals", "earliest_fit", "occupy", "split_fit", "busy_time"}
)
MODE_CONTRACT = frozenset(
    {"windows", "place", "busy_time", "reconfigurations", "boot_time_total"}
)

SERIAL_CLASSES = (
    timeline.IntervalTimeline,
    fasttimeline.FastTimeline,
)
MODE_CLASSES = (
    timeline.PpeModeTimeline,
    fasttimeline.FastPpeModeTimeline,
)

#: The empty names ``perfbench/layers.py`` binds (see
#: :mod:`repro.perf.treetimeline`), each with the fast class it extends.
BENCHMARK_ONLY_CLASSES = (
    (treetimeline.TreeTimeline, fasttimeline.FastTimeline),
    (treetimeline._BlockedTimeline, fasttimeline.FastTimeline),
    (treetimeline.TreePpeModeTimeline, fasttimeline.FastPpeModeTimeline),
)

NGXM_TRACE = pathlib.Path(__file__).parent / "traces" / "ngxm_scale0p05.jsonl.gz"
SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent


def _public(cls) -> set:
    """Public attribute names ``cls`` defines or inherits."""
    return {name for name in dir(cls) if not name.startswith("_")}


@pytest.mark.parametrize(
    "cls, contract",
    [pytest.param(cls, SERIAL_CONTRACT, id=cls.__name__)
     for cls in SERIAL_CLASSES]
    + [pytest.param(cls, MODE_CONTRACT, id=cls.__name__)
       for cls in MODE_CLASSES],
)
def test_classes_offer_exactly_their_contract(cls, contract):
    """No public operation outside the contract; none missing."""
    assert _public(cls) <= contract, sorted(_public(cls) - contract)
    # ``windows`` is instance data, not a class attribute.
    missing = {name for name in contract - {"windows"} if not hasattr(cls, name)}
    assert not missing, sorted(missing)


def test_recorded_ngxm_ops_are_inside_the_contract():
    """Every op the scheduler emitted on NGXM@0.05 is a contract op
    of its timeline kind."""
    kinds = {}
    seen = {"serial": set(), "ppe": set()}
    for event in load_trace(str(NGXM_TRACE)):
        if "new" in event:
            kinds[event["new"]] = event["kind"]
        elif "t" in event:
            seen[kinds[event["t"]]].add(event["op"])
    assert seen["serial"] and seen["ppe"]
    assert seen["serial"] <= SERIAL_CONTRACT, sorted(seen["serial"])
    assert seen["ppe"] <= MODE_CONTRACT, sorted(seen["ppe"])


@pytest.mark.parametrize(
    "differential, op",
    [(SerialDifferential, op)
     for op in ("span", "running_at", "free_until_after", "preempt_split")]
    + [(PpeDifferential, op) for op in ("span", "last_window")],
)
def test_oracle_vocabulary_has_no_removed_op(differential, op):
    """The oracle refuses ops no implementation offers any more."""
    with pytest.raises(AssertionError, match="unknown"):
        differential().step((op, 0.0))


def _imported_modules(path: pathlib.Path):
    """Every module name ``path`` imports, including the
    ``package.name`` a ``from package import name`` may load."""
    package = path.relative_to(SRC_ROOT.parent).parent.parts
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            parts = list(package[:len(package) - node.level + 1]
                         if node.level else ())
            module = ".".join(parts + ([node.module] if node.module else []))
            yield module
            for alias in node.names:
                yield module + "." + alias.name


def test_no_program_module_imports_the_benchmark_only_names():
    """``repro.perf.treetimeline`` exists for the benchmark alone:
    nothing in ``src/`` may build on it again."""
    importers = sorted(
        str(path.relative_to(SRC_ROOT))
        for path in SRC_ROOT.rglob("*.py")
        if "repro.perf.treetimeline" in _imported_modules(path)
    )
    assert importers == []


@pytest.mark.parametrize(
    "cls, base",
    [pytest.param(cls, base, id=cls.__name__)
     for cls, base in BENCHMARK_ONLY_CLASSES],
)
def test_benchmark_only_classes_add_nothing(cls, base):
    """Each offers exactly its fast base class's contract and defines
    no public name itself.  The benchmark wraps an op (``earliest_fit``,
    ``occupy``, ``split_fit``, ``place``) on the class that defines it,
    so every op stays counted once, on the fast pair."""
    assert issubclass(cls, base)
    assert _public(cls) == _public(base)
    assert [name for name in vars(cls) if not name.startswith("_")] == []
