"""The benchmark's own output checks, run on its tiny operations.

`perfbench/workloads.py` builds each workload's operations and a check per
operation that recounts the CLI's outputs along its own code path (culprit
members of corrupted documents, witness flats, search witnesses on the
integer grid). Running them here makes a change that breaks one of those
checks fail the test suite too, not only `python3 perfbench/smoke.py`.
The module is imported from its file and never modified.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from brickpart.io_cli import cli

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("workload", ["families", "search", "documents"])
def test_tiny_operations_pass_the_benchmark_checks(workloads, workload, tmp_path):
    ops = workloads.build(workload, 5, "tiny", tmp_path)
    assert ops
    for op in ops:
        calls = []
        for argv in op.argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = cli.main(argv)
            calls.append(workloads.Call(rc, out.getvalue(), err.getvalue()))
        assert op.check(calls) == [], op.name
