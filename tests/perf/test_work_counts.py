"""The work-count gate: a cold synthesis does exactly the committed work.

``tests/perf/work_counts.json`` holds, per input, every tracer counter
under the gated prefixes (schedule builds, aborts and task decisions,
prune cuts, allocation options, merge and repair steps, fragment, plan
and scope cache traffic, copy-on-write applications, priority passes
recomputed or reused, and decisions resumed and decision orders
computed).  They are deterministic, so they are
compared exactly: a speed change that claims to leave the search alone
must leave every one of them where it was.  ``make_work_counts.py`` in
this directory regenerates the file, with a stated reason.
"""

import json
import pathlib

import pytest

from tests.perf.make_work_counts import PREFIXES, input_name, work_counts

RECORD = json.loads(
    (pathlib.Path(__file__).with_name("work_counts.json")).read_text()
)


def test_record_states_its_reason_and_prefixes():
    """The committed record says why it was made and what it covers."""
    assert RECORD["reason"].strip()
    assert tuple(RECORD["prefixes"]) == PREFIXES


def _assert_counts(example: str, scale: float) -> None:
    expected = RECORD["inputs"][input_name(example, scale)]
    got = work_counts(example, scale)
    changed = {
        name: (expected.get(name), got.get(name))
        for name in set(expected) | set(got)
        if expected.get(name) != got.get(name)
    }
    assert not changed, "work counts moved (committed, now): %r" % changed


def test_a1tr_work_counts():
    """A1TR@0.05: every gated counter equals the committed record."""
    _assert_counts("A1TR", 0.05)


@pytest.mark.slow
def test_ngxm_work_counts():
    """NGXM@0.05 (656 schedule builds): every gated counter equals
    the committed record."""
    _assert_counts("NGXM", 0.05)
