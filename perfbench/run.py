"""CRUSADE co-synthesis benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload coupled-cold --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload once untraced and once with per-layer
spans, reports the per-layer metrics and writes them to
``.perfbench/trace-<workload>-seed<n>.json``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A wrong result prints
``"correct": false`` and exits 1; an invalid run (a wrapper that saw
no calls, or a load generator that fell behind) exits 3 without a
result.  perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys

from common import (
    OUT,
    WORK,
    Checker,
    HostSpeed,
    at_reference_speed,
    clock,
    prepare_path,
    program_env,
)

WORKLOADS = ("coupled-cold", "decoupled-resubmit", "service-mix")

#: End-to-end metrics and their units; every workload reports all.
END_TO_END = {
    "setup_s": "s",
    "synth_s": "s",
    "hit_ms": "ms",
    "hit_p90_ms": "ms",
    "cost_usd": "usd",
    "peak_rss_mb": "MB",
}

#: Set-ups per run, half before and half after the measured window so
#: they sample the host at two moments; ``setup_s`` is their median.
SETUP_REPEATS = 6


def parse_args(argv):
    """The benchmark's command line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--round-child", metavar="HIT_DIR",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def library_setup_walls(workload: str, seed: int, repeats: int) -> list:
    """Walls at reference speed of fresh processes importing the
    program and building the workload's inputs.

    Each process samples the host's speed while it sets up and prints
    the samples; the time its own probes took is taken out of the wall.
    """
    walls = []
    for _ in range(repeats):
        started = clock()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(seed), "--setup-probe"],
            env=program_env(), stdout=subprocess.PIPE, check=True,
            timeout=120,
        )
        wall = clock() - started
        samples = json.loads(proc.stdout.decode("utf-8").splitlines()[-1])
        walls.append(at_reference_speed(wall - sum(samples[1:-1]), samples))
    return walls


def run_library(args, checker: Checker):
    """A library workload; returns ``(metrics, problem)``."""
    from library import run_rounds, trace_rounds

    if args.trace:
        return trace_rounds(args.workload, args.seed, checker)
    half = SETUP_REPEATS // 2
    setup = library_setup_walls(args.workload, args.seed, half)
    values = run_rounds(args.workload, args.seed, args.seconds, checker)
    setup += library_setup_walls(args.workload, args.seed,
                                 SETUP_REPEATS - half)
    values["setup_s"] = statistics.median(setup)
    return values, None


def main(argv=None) -> int:
    """Run one workload; returns the process exit code."""
    args = parse_args(argv)
    if not prepare_path():
        print("perfbench: no program sources at src/repro; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    if args.setup_probe:
        from library import make_plan

        speed = HostSpeed()
        speed.run(make_plan, args.workload, args.seed)
        print(json.dumps(list(speed.samples)))
        return 0
    WORK.mkdir(parents=True, exist_ok=True)
    if args.round_child:
        from library import round_record

        try:
            record = round_record(args.workload, args.seed,
                                  pathlib.Path(args.round_child),
                                  bool(args.trace))
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
        print(json.dumps(record))
        return 0
    checker = Checker()
    try:
        if args.workload == "service-mix":
            from service_mix import run_service, trace_service

            run = trace_service if args.trace else run_service
            metrics, problem = run(args, checker)
        else:
            metrics, problem = run_library(args, checker)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if problem:
        print("perfbench: %s" % problem, file=sys.stderr)
        return 3
    if args.trace:
        (OUT / ("trace-%s-seed%d.json" % (args.workload, args.seed))
         ).write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
    else:
        metrics = {name: {"value": metrics[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }))
    return 0 if checker.correct else 1


if __name__ == "__main__":
    sys.exit(main())
