"""A store that an earlier revision filled still answers.

``fixtures/store-dc58804`` holds the result entry and two fragment
entries that commit ``dc58804`` wrote for a small specification
(``make_store_fixture.py`` gives the command).  Those entries pickle
the result with its specification inside, and each schedule and
timeline as an attribute dict.  Entries are leaner now, but the keys,
the FORMAT stamp and the schema version did not move, so the old
entries must keep answering: ``crusade()`` gives an exact hit equal to
a cold run, and ``load_fragment`` returns each fragment equal to the
one this revision builds under the same key.  CI runs this file in a
step of its own, before the long suite, so a layout change that
orphans existing stores fails first.
"""

from __future__ import annotations

import shutil

import pytest

from repro import CrusadeConfig, Tracer, crusade
from repro.io.result_json import canonical_result_json
from repro.perf.store import SynthesisStore
from tests.perf.make_store_fixture import FIXTURE, fixture_spec
from tests.perf.test_entry_layout import fragment_state, pickled_classes


@pytest.fixture
def old_store(tmp_path):
    """A copy of the fixture store: a failed load deletes its entry."""
    root = tmp_path / "old"
    shutil.copytree(FIXTURE, root)
    return root


def test_fixture_is_in_the_old_layout():
    """The fixture exercises the old layout: its result entry carries
    the spec, and its timelines are attribute dicts with their bisect
    lists."""
    (entry,) = (FIXTURE / "results").glob("*.pkl")
    data = entry.read_bytes()
    assert ("repro.graph.spec", "SystemSpec") in pickled_classes(data)
    assert b"_wends" in data and b"_ends" in data


def test_exact_hit_from_an_old_store(old_store):
    spec = fixture_spec()
    tracer = Tracer()
    hit = crusade(
        spec, config=CrusadeConfig(cache_dir=str(old_store)), tracer=tracer
    )
    counters = tracer.counters.as_dict()
    assert counters.get("perf.store.hit") == 1, counters
    assert "perf.store.corrupt" not in counters
    assert hit.spec is spec
    assert canonical_result_json(hit) == canonical_result_json(crusade(spec))


def test_old_fragments_load_intact(old_store, tmp_path):
    fresh = tmp_path / "fresh"
    crusade(fixture_spec(), config=CrusadeConfig(cache_dir=str(fresh)))
    old, new = SynthesisStore(old_store), SynthesisStore(fresh)
    entries = sorted((old_store / "fragments").rglob("*.pkl"))
    assert len(entries) == 2
    for entry in entries:
        key = entry.stem.split("-")
        loaded, built = old.load_fragment(*key), new.load_fragment(*key)
        assert loaded is not None and built is not None
        assert fragment_state(loaded) == fragment_state(built)
        assert loaded.lateness is loaded.schedule.lateness
