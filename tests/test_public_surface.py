"""The benchmark's workloads reach qiopa through names that must keep
resolving: a deletion from the package would otherwise surface only when a
benchmark run fails.  The declared runtime dependencies are exactly what the
package's sources import."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"


def called_names(path):
    """``(module, name)`` for every call ``alias.name(...)`` in ``path`` whose
    ``alias`` is bound by ``import qiopa`` or ``import qiopa.X as alias``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {
        # a plain ``import qiopa.X`` binds ``qiopa`` itself
        alias.asname or "qiopa": alias.name if alias.asname else "qiopa"
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "qiopa" or alias.name.startswith("qiopa.")
    }
    return {
        (aliases[node.func.value.id], node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in aliases
    }


def test_every_name_the_workloads_call_resolves():
    calls = called_names(WORKLOADS)
    # the library workload's pipeline and the CLI workloads' entry points
    assert ("qiopa", "attenuated_injection_pipeline") in calls
    assert ("qiopa.cli", "main") in calls
    missing = [
        f"{module}.{name}" for module, name in sorted(calls)
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def third_party_imports(paths):
    """Top-level names of every absolute import in ``paths`` that is neither
    the standard library nor qiopa itself."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"qiopa"}


def test_runtime_dependencies_are_what_src_imports():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # a requirement such as "numpy>=1.24" starts with its distribution name
    declared = {re.match(r"[A-Za-z0-9._-]+", req).group(0) for req in project["dependencies"]}
    imported = third_party_imports(sorted((ROOT / "src" / "qiopa").glob("*.py")))
    assert declared == imported == {"numpy"}
