"""Regenerate ``tests/perf/work_counts.json``, the work-count gate.

The gate (``tests/perf/test_work_counts.py``) asserts that a cold
synthesis of each input does exactly the committed amount of work:
every tracer counter under the prefixes in :data:`PREFIXES` (schedule
builds, aborts and task decisions, prune cuts, allocation options,
merge and repair steps, fragment, plan and scope cache traffic,
copy-on-write applications, priority passes recomputed or reused, and
schedule decisions resumed from a trail and decision orders
computed).  These
counts are deterministic across runs, hosts and Python versions, so
any change is a change in what the synthesis does -- and an
optimization that claims to do the same work faster must leave them
alone.  Timeline operation counts are deliberately not gated: they
measure how a schedule is built, not what it decides, and the
benchmark counts them from outside (``perfbench``).

Regenerate only when a change is meant to alter the search, and state
why::

    PYTHONPATH=src python tests/perf/make_work_counts.py \\
        --reason "why the work changed"

The script needs only the standard library and ``repro``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import sys

#: Counter-name prefixes the gate covers.
PREFIXES = (
    "sched.", "prune.", "alloc.", "merge.", "repair.",
    "perf.schedule.", "perf.plan.", "perf.priorities.", "perf.cow.",
    "perf.resume.", "scope.",
)

#: (example, scale) inputs the gate synthesizes.
INPUTS = (("A1TR", 0.05), ("NGXM", 0.05))

OUT = pathlib.Path(__file__).with_name("work_counts.json")


def work_counts(example: str, scale: float) -> dict:
    """The gated counters of one cold, store-less synthesis."""
    from repro import CrusadeConfig, Tracer, crusade
    from repro.bench.examples import build_example

    tracer = Tracer()
    crusade(build_example(example, scale=scale), config=CrusadeConfig(),
            tracer=tracer)
    return {
        name: value
        for name, value in sorted(tracer.counters.as_dict().items())
        if name.startswith(PREFIXES)
    }


def input_name(example: str, scale: float) -> str:
    """The JSON key of one gated input."""
    return "%s@%g" % (example, scale)


def main(argv=None) -> int:
    """Write the counters of every gated input to :data:`OUT`."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reason", required=True,
                        help="why the committed work counts change")
    args = parser.parse_args(argv)
    record = {
        "reason": args.reason,
        "python": platform.python_version(),
        "prefixes": list(PREFIXES),
        "inputs": {
            input_name(example, scale): work_counts(example, scale)
            for example, scale in INPUTS
        },
    }
    OUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print("wrote %s" % OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
