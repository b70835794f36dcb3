"""The benchmark's layer wrappers still find every name they bind.

``perfbench/layers.py`` wraps ``repro`` functions, methods and classes
by name, and ``perfbench/library.py`` builds its workloads from
``repro`` helpers.  A ``src/`` change that deletes or renames one of
those names breaks ``perfbench/run.py --trace 1`` only when someone
next runs it; this test notices at once.  Installing the wrappers
monkeypatches ``repro`` modules for the whole process, so the check
runs in a subprocess.
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
sys.path.insert(0, "perfbench")
import layers
import library

layers.preload_modules()
recorder = layers.Recorder()
recorder.install_synthesis()
recorder.install_store()
recorder.install_service()
for workload in ("coupled-cold", "decoupled-resubmit"):
    library.make_plan(workload, 1)
print("bindings ok")
"""


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="perfbench/ is absent")
def test_perfbench_wrappers_install_and_plans_build():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=str(ROOT), env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().endswith("bindings ok")
