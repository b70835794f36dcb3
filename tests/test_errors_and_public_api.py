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


class TestPublicApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_import_does_not_load_numpy(self):
        """networkx is the only runtime dependency: importing the
        package in a fresh interpreter never pulls in numpy."""
        src = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH", "")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'numpy')[:3])"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

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
