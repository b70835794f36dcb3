"""Regenerate ``references.json``: digests of cold, store-free runs.

Every library-workload result is compared against these digests (the
canonical result JSON without ``cpu_seconds`` and ``stats``).  Run
only when the synthesis output is meant to change::

    python3 perfbench/make_references.py

It synthesizes every system of both library workloads and every
near-hit edit a seed may pick, so it takes a few minutes.
"""

from __future__ import annotations

import json
import sys

from common import REFERENCES, prepare_path, result_digest


def main() -> int:
    """Write the reference digests; returns the exit code."""
    if not prepare_path():
        print("make_references: src/repro not found", file=sys.stderr)
        return 2
    from library import (COUPLED, DECOUPLED, NEAR_HIT, SCALE,
                         reference_key, tweak_menu)
    from repro import crusade
    from repro.bench.examples import build_example
    from repro.perf.warmstart import tweak_deadline

    references = {}
    for name in COUPLED + DECOUPLED:
        spec = build_example(name, SCALE)
        references[reference_key(name)] = result_digest(crusade(spec))
        print(name, flush=True)
        if name in NEAR_HIT:
            for tweak in tweak_menu(spec):
                tweaked = tweak_deadline(spec, *tweak)
                references[reference_key(name, tweak)] = result_digest(
                    crusade(tweaked))
                print(" ", reference_key(name, tweak), flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True)
                          + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
