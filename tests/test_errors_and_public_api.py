"""Error hierarchy and public-API surface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro import errors


class TestErrorHierarchy:
    @pytest.mark.parametrize("name", [
        "SpecificationError", "ResourceLibraryError", "AllocationError",
        "SchedulingError", "SynthesisError", "RoutingError",
        "DependabilityError",
    ])
    def test_all_derive_from_repro_error(self, name):
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)
        assert issubclass(cls, Exception)

    def test_synthesis_error_carries_best_result(self):
        err = errors.SynthesisError("msg", best_result="sentinel")
        assert err.best_result == "sentinel"
        bare = errors.SynthesisError("msg")
        assert bare.best_result is None


_THIRD_PARTY_LOADED_BY_IMPORT = """
import pathlib, sys
def third_party():
    return {
        name for name, module in list(sys.modules.items())
        if name.split(".")[0] != "repro"
        and {"site-packages", "dist-packages"}
        & set(pathlib.PurePath(getattr(module, "__file__", None) or "").parts)
    }
before = third_party()
import repro
print(sorted(third_party() - before)[:5])
"""

_CRUSADE_WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None
from repro import GeneratorConfig, crusade, generate_spec
spec = generate_spec(GeneratorConfig(seed=3, n_graphs=2, tasks_per_graph=5))
print(crusade(spec).feasible)
"""


def _fresh_interpreter(script: str) -> str:
    """Run ``script`` in a new interpreter with this checkout's ``src``
    first on the path; returns its stripped stdout."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_import_loads_no_third_party_module(self):
        """The package has no runtime dependency: importing it in a
        fresh interpreter loads nothing from an installed-packages
        directory that the bare interpreter had not loaded already."""
        assert _fresh_interpreter(_THIRD_PARTY_LOADED_BY_IMPORT) == "[]"

    def test_crusade_runs_with_networkx_blocked(self):
        """No lazy import hides anywhere on the synthesis path."""
        assert _fresh_interpreter(_CRUSADE_WITHOUT_NETWORKX) == "True"

    @pytest.mark.parametrize("name", [
        "Task", "TaskGraph", "SystemSpec", "crusade", "crusade_ft",
        "default_library", "render_architecture", "generate_spec",
        "validate_schedule", "validate_architecture", "render_gantt",
        "save_spec_file", "load_spec_file",
    ])
    def test_key_entry_points_exported(self, name):
        assert name in repro.__all__

    def test_every_public_callable_has_a_docstring(self):
        undocumented = []
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, undocumented

    def test_public_modules_have_docstrings(self):
        import importlib
        import pkgutil

        missing = []
        package = repro
        for info in pkgutil.walk_packages(package.__path__, prefix="repro."):
            module = importlib.import_module(info.name)
            if not module.__doc__:
                missing.append(info.name)
        assert not missing, missing
