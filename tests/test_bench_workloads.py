"""One untimed pass of every benchmark workload at seed 1, each operation
judged by its own check from ``bench/checks.py``: an output the benchmark
would count as incorrect fails here first.  The pass raises on a
floating-point overflow, invalid operation or division by zero that no
kernel masks on purpose.  ``bench/`` is imported as it is and nothing is
written there."""

import importlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


@pytest.mark.parametrize("name", NAMES)
def test_every_operation_passes_its_check(workloads, name):
    ops = workloads.WORKLOADS[name].build(1)
    assert ops
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        problems = {op.label: op.check(op.run(op.resolve())) for op in ops}
    assert {label: found for label, found in problems.items() if found} == {}
