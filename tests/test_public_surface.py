"""The benchmark's workloads reach qiopa through names that must keep
resolving: a deletion from the package would otherwise surface only when a
benchmark run fails."""

import ast
import importlib
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


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
