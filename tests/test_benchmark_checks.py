"""The benchmark's own output checks, run on its tiny operations.

`perfbench/workloads.py` builds each workload's operations and a check per
operation that recounts the CLI's outputs along its own code path (culprit
members of corrupted documents, witness flats, search witnesses on the
integer grid). Running them here makes a change that breaks one of those
checks fail the test suite too, not only `python3 perfbench/smoke.py`.
The same holds for `perfbench/spans.py`, whose tracer wraps `src/` functions
by name: a rename there would silently zero a per-layer metric. Both modules
are imported from their files and never modified.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from brickpart.io_cli import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """perfbench/<name>.py as a module, registered while a fixture holds it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _load("workloads")


@pytest.fixture(scope="module")
def spans():
    yield from _load("spans")


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


def run_op(workloads, op):
    """The op's calls and the bytes of every file they wrote."""
    calls = []
    for argv in op.argvs:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
        calls.append(workloads.Call(rc, out.getvalue(), err.getvalue()))
    return calls, [path.read_bytes() for path in op.outputs]


@pytest.mark.parametrize("workload", ["families", "search", "documents"])
def test_a_second_pass_in_one_process_repeats_every_byte(workloads, workload, tmp_path):
    # the benchmark checks each operation's first output in full and requires
    # every later pass to repeat it byte for byte, exit codes included
    # (ops may share an output file, so each op's outputs are read before the next runs)
    ops = workloads.build(workload, 5, "tiny", tmp_path)
    first = []
    for op in ops:
        first.append(run_op(workloads, op))
        assert op.check(first[-1][0]) == [], op.name
    for op, expected in zip(ops, first):
        assert run_op(workloads, op) == expected, op.name


def test_the_benchmark_tracer_finds_every_site_but_the_two_dead_ones(spans, tmp_path):
    # one op of every command the workloads run; files go through --out, as
    # stdout is a StringIO
    doc, found, obj = tmp_path / "p3.json", tmp_path / "found.json", tmp_path / "p3.obj"
    argvs = [
        ["construct", "--family", "piercing3d", "--k", "3", "--out", str(doc)],
        ["verify", str(doc)],
        ["search", "--d", "2", "--k", "2", "--mode", "piercing", "--max-bricks", "4",
         "--grid", "4", "--out", str(found)],
        ["export", str(doc), "--format", "obj", "--out", str(obj)],
    ]
    tracer = spans.Tracer()
    tracer.op = 0
    tracer.begin_pass()
    try:
        for argv in argvs:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert cli.main(argv) == 0, argv
    finally:
        stats = tracer.end_pass()
    # the two sites gone since the grid moved to rank space, and no other
    assert tracer.missing == [
        "brickpart.metrics.build_grid", "brickpart.geometry.BreakpointGrid.cell_span",
    ]
    assert len(spans.SPANS) == 10
    assert set(stats["calls"]) == {name for name, _, _ in spans.SPANS}
    for counter in ("metrics.flat_cells", "search.placements", "io_cli.parse.bytes"):
        assert stats["counters"][counter] > 0, counter
