"""Non-finite numbers in a specification are refused where it is read.

NaN passes every ``<= 0`` / ``< 0`` range check, and Python's ``json``
reads the ``NaN`` and ``Infinity`` tokens, so each numeric field is
checked for finiteness first: a NaN WCET once synthesized to a
"feasible" architecture its own validator rejected, and an infinite
period crashed in the hyperperiod arithmetic.
"""

import json

import pytest

from repro.cli import main
from repro.errors import SpecificationError
from repro.graph.spec import SystemSpec
from repro.graph.task import AssertionSpec, MemoryRequirement, Task
from repro.graph.taskgraph import TaskGraph
from repro.io.spec_json import save_spec_file, spec_from_dict, spec_to_dict

NAN = float("nan")
INF = float("inf")


def base_document():
    """A valid two-task specification document."""
    g = TaskGraph(name="g", period=0.1, deadline=0.08, est=0.0)
    g.add_task(Task(
        name="a", exec_times={"CPU": 1e-3, "FPGA": 2e-4},
        memory=MemoryRequirement(program=64, data=32, stack=16),
        area_gates=100, pins=4, deadline=0.05,
        assertions=(AssertionSpec(name="parity", coverage=0.9,
                                  exec_times={"CPU": 1e-4}),),
    ))
    g.add_task(Task(name="b", exec_times={"CPU": 2e-3}))
    g.add_edge("a", "b", bytes_=256)
    return spec_to_dict(SystemSpec("s", [g], unavailability={"g": 5.0}))


def _task(doc, name="a"):
    (task,) = [t for t in doc["graphs"][0]["tasks"] if t["name"] == name]
    return task


#: (field label in the message, edit of the document).
FIELDS = [
    ("WCET on PE type 'CPU'",
     lambda d, v: _task(d)["exec_times"].update(CPU=v)),
    ("task 'a' deadline", lambda d, v: _task(d).update(deadline=v)),
    ("task 'a' area_gates", lambda d, v: _task(d).update(area_gates=v)),
    ("task 'a' pins", lambda d, v: _task(d).update(pins=v)),
    ("memory requirement program",
     lambda d, v: _task(d)["memory"].update(program=v)),
    ("memory requirement data",
     lambda d, v: _task(d)["memory"].update(data=v)),
    ("memory requirement stack",
     lambda d, v: _task(d)["memory"].update(stack=v)),
    ("assertion 'parity' execution time on PE type 'CPU'",
     lambda d, v: _task(d)["assertions"][0]["exec_times"].update(CPU=v)),
    ("assertion 'parity' comm_bytes",
     lambda d, v: _task(d)["assertions"][0].update(comm_bytes=v)),
    ("edge a->b byte count",
     lambda d, v: d["graphs"][0]["edges"][0].update(bytes=v)),
    ("task graph 'g' period", lambda d, v: d["graphs"][0].update(period=v)),
    ("task graph 'g' deadline",
     lambda d, v: d["graphs"][0].update(deadline=v)),
    ("task graph 'g' EST", lambda d, v: d["graphs"][0].update(est=v)),
    ("boot-time requirement",
     lambda d, v: d.update(boot_time_requirement=v)),
    ("unavailability for 'g'",
     lambda d, v: d["unavailability"].update(g=v)),
]


def test_base_document_loads():
    spec_from_dict(base_document())


@pytest.mark.parametrize("value", [NAN, INF, -INF],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("label, edit", FIELDS,
                         ids=[label for label, _ in FIELDS])
def test_non_finite_field_is_refused_by_name(label, edit, value):
    """Each field's check names the field and the value."""
    doc = base_document()
    edit(doc, value)
    # The JSON round trip is how such a value arrives in practice.
    doc = json.loads(json.dumps(doc))
    with pytest.raises(SpecificationError) as excinfo:
        spec_from_dict(doc)
    message = str(excinfo.value)
    assert label in message
    assert "must be finite, got %r" % (value,) in message


def test_cli_refuses_a_nan_wcet_with_one_error_line(tmp_path, capsys):
    """``repro synthesize`` prints one ``error:`` line and exits 2
    instead of synthesizing the specification."""
    doc = base_document()
    _task(doc, "b")["exec_times"]["CPU"] = NAN
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "r.json"
    assert main(["synthesize", str(path), "--out", str(out)]) == 2
    (line,) = capsys.readouterr().err.strip().splitlines()
    assert line == (
        "error: task 'b' WCET on PE type 'CPU' must be finite, got nan"
    )
    assert not out.exists()


def test_integers_and_finite_floats_still_load(tmp_path):
    """Saving and reloading a valid specification is unaffected."""
    path = tmp_path / "ok.json"
    save_spec_file(spec_from_dict(base_document()), path)
    assert spec_to_dict(spec_from_dict(json.loads(path.read_text()))) == (
        base_document()
    )


@pytest.mark.parametrize("value", [0.0, -1e-4], ids=["zero", "negative"])
def test_non_positive_assertion_time_is_refused(value):
    """Assertion execution times are range-checked like WCETs: the
    check task CRUSADE-FT inserts runs for them."""
    doc = base_document()
    _task(doc)["assertions"][0]["exec_times"]["CPU"] = value
    with pytest.raises(SpecificationError, match="non-positive execution"):
        spec_from_dict(doc)
