"""Docstring coverage gate for the documented packages and the API.

Gated packages: repro.perf and its persistent store (repro.perf.store),
repro.campaign, repro.exec, the synthesis service (repro.service),
every reader and writer in repro.io, the staged synthesis pipeline
(repro.core plus repro.core.stages), the scheduler (repro.sched),
allocation (repro.alloc), the task-graph model (repro.graph) and the
architecture model (repro.arch).  CI
enforces the same contract with ruff's pydocstyle D1 rules (see
pyproject.toml); this AST-based test keeps the gate verifiable in
environments without ruff installed.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
GATED_PACKAGES = (
    "perf", "perf/store", "campaign", "core", "core/stages", "exec",
    "service", "sched", "io", "alloc", "graph", "arch",
)


def _gated_modules():
    files = [SRC / "__init__.py"]
    for package in GATED_PACKAGES:
        files.extend(sorted((SRC / package).glob("*.py")))
    return files


def _missing_docstrings(path: pathlib.Path):
    """(line, name) for every undocumented module/public def in ``path``."""
    tree = ast.parse(path.read_text())
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append((1, "<module>"))
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if node.name.startswith("_") and node.name != "__init__":
            continue
        if ast.get_docstring(node) is None:
            missing.append((node.lineno, node.name))
    return missing


@pytest.mark.parametrize(
    "path", _gated_modules(), ids=lambda p: str(p.relative_to(SRC))
)
def test_module_and_public_defs_are_documented(path):
    missing = _missing_docstrings(path)
    assert missing == [], (
        "undocumented definitions in %s: %s"
        % (path.name, ", ".join("%s:%d" % (n, ln) for ln, n in missing))
    )


def test_every_top_level_export_has_a_docstring():
    undocumented = [
        name
        for name in repro.__all__
        if not (getattr(getattr(repro, name), "__doc__", None) or "").strip()
    ]
    assert undocumented == []
