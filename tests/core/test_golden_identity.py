"""Golden-result fixtures pin the synthesized output byte-for-byte.

The fixtures under ``tests/core/golden/`` were generated by the
pre-stage-refactor monolithic driver on the paper examples at
``scale=0.1`` with the full default configuration (reconfiguration
on).  Any change to the pipeline that alters a placement, a schedule
time, a merge decision or even JSON key order fails here first --
refactors must be behavior-preserving unless the fixtures are
regenerated on purpose (see the module-level regeneration note).

Regenerate (only for an *intentional* behavior change) with::

    PYTHONPATH=src python - <<'PY'
    import pathlib
    from repro import CrusadeConfig, crusade
    from repro.bench.examples import build_example
    from repro.io.result_json import canonical_result_json
    for name in ("A1TR", "VDRTX"):
        spec = build_example(name, scale=0.1)
        result = crusade(spec, config=CrusadeConfig())
        pathlib.Path("tests/core/golden/%s@0.1.json" % name).write_text(
            canonical_result_json(result))
    PY
"""

import pathlib

import pytest

from repro import CrusadeConfig, crusade
from repro.bench.examples import build_example
from repro.io.result_json import canonical_result_json
from tests.sched.reference_scheduler import exhaustive

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("example", ["A1TR", "VDRTX"])
def test_crusade_output_is_byte_identical_to_golden(example):
    """The default configuration reproduces the fixtures
    byte-for-byte, not approximately."""
    spec = build_example(example, scale=0.1)
    result = crusade(spec, config=CrusadeConfig())
    got = canonical_result_json(result)
    want = (GOLDEN_DIR / ("%s@0.1.json" % example)).read_text()
    assert result.feasible
    assert got == want, (
        "synthesized result for %s diverged from the golden fixture; if "
        "the change is intentional, regenerate per the module docstring"
        % (example,)
    )


@pytest.mark.parametrize("bound_abort", [True, False])
@pytest.mark.parametrize("example", ["A1TR", "VDRTX"])
def test_bound_abort_reproduces_golden(example, bound_abort):
    """Incumbent-driven bound aborts and the prune floors are pure
    dominance: the paper examples synthesize to the exact golden bytes
    with both cuts on, and with both off (``bound_abort=False`` runs
    the exhaustive search; the fixtures predate both layers)."""
    spec = build_example(example, scale=0.1)
    with exhaustive(keep_floors=bound_abort, keep_aborts=bound_abort):
        result = crusade(spec, config=CrusadeConfig())
    want = (GOLDEN_DIR / ("%s@0.1.json" % example)).read_text()
    assert canonical_result_json(result) == want, (
        "bound_abort=%s diverged from the golden fixture for %s"
        % (bound_abort, example)
    )


def test_canonical_json_strips_timing_but_keeps_everything_else():
    """The canonical form drops only the nondeterministic fields."""
    import json

    spec = build_example("A1TR", scale=0.1)
    result = crusade(spec, config=CrusadeConfig())
    payload = json.loads(canonical_result_json(result))
    assert "cpu_seconds" not in payload
    assert "stats" not in payload
    assert payload["feasible"] is True
    assert payload["cost"] == result.arch.cost
