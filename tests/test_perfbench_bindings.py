"""The benchmark's layer wrappers still find every name they bind.

``perfbench/layers.py`` wraps ``repro`` functions, methods and classes
by name, and ``perfbench/library.py`` and ``perfbench/service_mix.py``
build their workloads from ``repro`` helpers.  A ``src/`` change that
deletes or renames one of those names, or stops calling a wrapped
layer, breaks ``perfbench/run.py`` only when someone next runs it;
this test notices at once.  It builds every workload's inputs, then
runs one cold synthesis and one near-hit through a fresh store under
the wrappers and applies the coverage guard that makes ``--trace 1``
fail.  Installing the wrappers monkeypatches ``repro`` modules for the
whole process, so the check runs in a subprocess.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SCRIPT = """
import sys
import tempfile
sys.path.insert(0, "perfbench")
import common
import layers
import library
import service_mix

layers.preload_modules()
recorder = layers.Recorder()
recorder.install_synthesis()
recorder.install_store()
recorder.install_service()
for workload in ("coupled-cold", "decoupled-resubmit"):
    library.make_plan(workload, 1)
pool = service_mix.pool_specs()
bodies = [service_mix.request_body(spec) for spec in pool]
service_mix.make_schedule(1, 20.0, pool, bodies)

from repro import CrusadeConfig, crusade
from repro.bench.examples import build_example
from repro.perf.warmstart import tweak_deadline

spec = build_example("A1TR", library.SCALE)
with tempfile.TemporaryDirectory() as store:
    config = CrusadeConfig(cache_dir=store)
    crusade(spec, config=config)
    graph, factor = library.tweak_menu(spec)[0]
    crusade(tweak_deadline(spec, graph, factor), config=config)
workload = "decoupled-resubmit"
problem = common.check_coverage(
    recorder.snapshot(), library.EXPECTED_LAYERS[workload], workload)
assert problem is None, problem
print("bindings ok")
"""


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="perfbench/ is absent")
def test_perfbench_wrappers_install_and_plans_build():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=str(ROOT), env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("bindings ok")
