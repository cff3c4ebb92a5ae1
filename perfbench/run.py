#!/usr/bin/env python3
"""brickpart benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload families --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --seed 1        # every workload, each in its own process

One process runs one workload, single-threaded, as a closed loop with one
client: each operation starts when the previous one has finished. An
operation is one or two calls of ``brickpart.io_cli.cli.main(argv)`` in this
process, with stdout and stderr captured; every output is checked (see
``workloads.py``). A run

1. imports numpy, then times ``SETUP_REPEATS`` set-ups, each a fresh import
   of brickpart from ``src/`` plus writing the workload's inputs, and reports
   their median as ``setup_s``;
2. runs the first operation once, untimed, to warm the CLI code paths;
3. repeats whole passes until ``--seconds`` would be exceeded. The first
   output of each operation is checked in full (outside the timed calls);
   each later one must be byte-identical to it.

The benchmark's fixed reference work is timed before and during every timed
set-up and untraced operation, and the reported times are rescaled to the
reference speed (see ``reference.py``), because the shared host's own speed
drifts by more than the bounds; the raw times are printed on the ``raw:``
line.

With ``--trace 0`` the passes are untraced and the run prints the end-to-end
metrics. With ``--trace 1`` untraced and traced passes alternate; the run
prints the per-layer metrics (see ``spans.py``) of the traced passes, the
tracing overhead (median traced minus median untraced pass time), and writes
the spans to ``.perfbench/traces/``. Count metrics are per pass and must
repeat exactly across passes; time metrics are medians over traced passes.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when
every operation passed its check.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from math import ceil
from pathlib import Path
from time import perf_counter

# one thread, also should the program start calling BLAS
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import workloads  # noqa: E402
from reference import REFERENCE_S, SpeedProbe, pre_samples, rescale, speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Call  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# name, unit, and whether it is a count that must repeat exactly per pass
PER_LAYER = (
    ("geometry.build_grid.calls", "count", True),
    ("geometry.build_grid.s", "s", False),
    ("geometry.cell_span.calls", "count", True),
    ("geometry.cell_span.s", "s", False),
    ("geometry.grid_cells", "count", True),
    ("partition.validate.calls", "count", True),
    ("partition.validate.self_s", "s", False),
    ("partition.validate.invalid", "count", True),
    ("partition.validate.calls_per_op", "calls/op", True),
    ("partition.refine.calls", "count", True),
    ("partition.refine.self_s", "s", False),
    ("metrics.min_flat_count.calls", "count", True),
    ("metrics.min_flat_count.self_s", "s", False),
    ("metrics.flat_cells", "count", True),
    ("constructions.calls", "count", True),
    ("constructions.self_s", "s", False),
    ("search.calls", "count", True),
    ("search.s", "s", False),
    ("search.found", "count", True),
    ("search.placements", "count", True),
    ("search.placements_per_s", "1/s", False),
    ("io_cli.parse.calls", "count", True),
    ("io_cli.parse.s", "s", False),
    ("io_cli.parse.bytes", "bytes", True),
    ("io_cli.emit.calls", "count", True),
    ("io_cli.emit.s", "s", False),
    ("io_cli.emit.bytes", "bytes", True),
    ("io_cli.export.calls", "count", True),
    ("io_cli.export.s", "s", False),
    ("io_cli.export.bytes", "bytes", True),
    ("io_cli.cli.self_s", "s", False),
    ("trace.overhead_s", "s", False),
)

_NODES = re.compile(r"^nodes_explored: (\d+)$", re.M)


def layer_values(summary: dict, ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``ops`` operations."""
    calls, s, self_s = summary["calls"], summary["s"], summary["self_s"]
    counters = summary["counters"]
    span_calls, span_s = summary["leaves"].get("geometry.cell_span", (0, 0.0))
    values = {
        "geometry.build_grid.calls": calls["geometry.build_grid"],
        "geometry.build_grid.s": s["geometry.build_grid"],
        "geometry.cell_span.calls": span_calls,
        "geometry.cell_span.s": span_s,
        "geometry.grid_cells": counters["geometry.grid_cells"],
        "partition.validate.calls": calls["partition.validate"],
        "partition.validate.self_s": self_s["partition.validate"],
        "partition.validate.invalid": counters["partition.validate.invalid"],
        "partition.validate.calls_per_op": calls["partition.validate"] / ops,
        "partition.refine.calls": calls["partition.refine"],
        "partition.refine.self_s": self_s["partition.refine"],
        "metrics.min_flat_count.calls": calls["metrics.min_flat_count"],
        "metrics.min_flat_count.self_s": self_s["metrics.min_flat_count"],
        "metrics.flat_cells": counters["metrics.flat_cells"],
        "constructions.calls": calls["constructions"],
        "constructions.self_s": self_s["constructions"],
        "search.calls": calls["search"],
        "search.s": s["search"],
        "search.found": counters["search.found"],
        "search.placements": counters["search.placements"],
        "search.placements_per_s": (
            counters["search.placements"] / s["search"] if s["search"] else 0.0
        ),
        "io_cli.cli.self_s": self_s["io_cli.cli"],
    }
    for part in ("parse", "emit", "export"):
        values[f"io_cli.{part}.calls"] = calls[f"io_cli.{part}"]
        values[f"io_cli.{part}.s"] = s[f"io_cli.{part}"]
        values[f"io_cli.{part}.bytes"] = counters[f"io_cli.{part}.bytes"]
    return values


def _commit() -> str:
    """HEAD commit when the checkout is a git repository, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _fresh_import():
    """Import brickpart from this checkout's src/, discarding earlier copies."""
    for name in [n for n in sys.modules if n == "brickpart" or n.startswith("brickpart.")]:
        del sys.modules[name]
    import brickpart
    import brickpart.io_cli.cli

    if not Path(brickpart.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"brickpart imported from {brickpart.__file__}, not {SRC}")
    return brickpart.io_cli.cli


class Runner:
    """Closed-loop execution and checking of one workload's operations."""

    def __init__(self, cli, ops: list[workloads.Op], tracer: Tracer | None):
        self.cli = cli
        self.ops = ops
        self.tracer = tracer
        self.checked: dict[int, str] = {}  # op index -> digest of checked outputs
        self.attempted = 0
        self.failed = 0
        self.op_id = 0

    def _fail(self, op: workloads.Op, problems: list[str]) -> None:
        self.failed += 1
        for problem in problems[:5]:
            print(f"FAIL {op.name}: {problem}", file=sys.stderr)

    def run_op(self, index: int, probe: SpeedProbe | None = None) -> tuple[float | None, list[Call]]:
        """Run one operation; returns its time (None if it raised) and calls.
        A probe, when given, samples the host's speed during the timed calls
        and its own time is taken off the operation's."""
        op = self.ops[index]
        self.attempted += 1
        self.op_id += 1
        calls = []
        if self.tracer is not None:
            self.tracer.op = self.op_id
        try:
            with probe or nullcontext():
                start = perf_counter()
                for argv in op.argvs:
                    out, err = io.StringIO(), io.StringIO()
                    with redirect_stdout(out), redirect_stderr(err):
                        rc = self.cli.main(argv)
                    calls.append(Call(rc, out.getvalue(), err.getvalue()))
                elapsed = perf_counter() - start - (probe.spent if probe else 0.0)
        except Exception:  # an operation that raises is a failure, not the end of the run
            self._fail(op, [traceback.format_exc()])
            return None, calls
        finally:
            if self.tracer is not None:
                self.tracer.op = None
        self._check(index, op, calls)
        return elapsed, calls

    def _check(self, index: int, op: workloads.Op, calls: list[Call]) -> None:
        digest = hashlib.sha256(repr([(c.rc, c.out, c.err) for c in calls]).encode())
        for path in op.outputs:
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        digest = digest.hexdigest()
        if index in self.checked:
            if digest != self.checked[index]:
                self._fail(op, ["output differs from the checked first run"])
            return
        try:
            problems = op.check(calls)
        except Exception:  # a check that cannot read the output fails the op
            problems = [traceback.format_exc()]
        if problems:
            self._fail(op, problems)
        else:
            self.checked[index] = digest

    def run_pass(self, traced: bool) -> tuple[list[float], list, list, dict | None, int]:
        """One pass over all operations: op times, the reference samples
        taken right before and during each (untraced passes only), the trace
        summary when traced, and the nodes_explored total the CLI printed."""
        gc.collect()
        times, pre, during, nodes, summary = [], [], [], 0, None
        probe = None if traced else SpeedProbe()
        if traced:
            self.tracer.begin_pass()
        try:
            for index in range(len(self.ops)):
                before = [] if traced else pre_samples()
                elapsed, calls = self.run_op(index, probe)
                if elapsed is not None:
                    times.append(elapsed)
                    pre.append(before)
                    during.append([] if traced else probe.samples)
                nodes += sum(int(n) for c in calls for n in _NODES.findall(c.out))
        finally:
            if traced:
                summary = self.tracer.end_pass()
        return times, pre, during, summary, nodes


def _tail_ms(times: list[float]) -> tuple[float, int]:
    """p95 by nearest rank, in ms, and the number of samples beyond it."""
    ordered = sorted(times)
    rank = ceil(0.95 * len(ordered))
    return ordered[rank - 1] * 1000, len(ordered) - rank


def run_one(workload: str, seed: int, seconds: int, trace: bool, scale: str) -> int:
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    try:
        import numpy

        setup_times, setup_refs = [], []
        for _ in range(SETUP_REPEATS):
            before = pre_samples()
            with SpeedProbe() as probe:
                start = perf_counter()
                cli = _fresh_import()
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                ops = workloads.build(workload, seed, scale, workdir)
                setup_times.append(perf_counter() - start - probe.spent)
            setup_refs.append(speed(before, probe.samples))
    except ImportError as e:
        shutil.rmtree(workdir, ignore_errors=True)
        print(f"error: cannot import brickpart from {SRC}: {e}", file=sys.stderr)
        return 2

    setup = (setup_times, setup_refs)
    try:
        return _measure(workload, seed, seconds, trace, cli, ops, setup, load_start, numpy.__version__)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(workload, seed, seconds, trace, cli, ops, setup, load_start, numpy_version) -> int:
    tracer = Tracer() if trace else None
    runner = Runner(cli, ops, tracer)
    runner.run_op(0)  # warm-up

    kinds = (False, True) if trace else (False,)
    walls: dict[bool, list[float]] = {False: [], True: []}
    # untraced op times and their reference samples (before, during), in
    # run order, and the number of ops of each untraced pass
    op_times: list[float] = []
    op_pre: list[list[float]] = []
    op_during: list[list[float]] = []
    pass_ops: list[int] = []
    summaries: list[dict] = []
    node_mismatch = []
    loop = []
    start = perf_counter()
    while True:
        for traced in kinds:
            began = perf_counter()
            times, pre, during, summary, nodes = runner.run_pass(traced)
            loop.append(perf_counter() - began)
            walls[traced].append(sum(times))
            if traced:
                summaries.append(summary)
                if summary["counters"]["search.placements"] != nodes:
                    node_mismatch.append((summary["counters"]["search.placements"], nodes))
            else:
                op_times.extend(times)
                op_pre.extend(pre)
                op_during.extend(during)
                pass_ops.append(len(times))
        if perf_counter() - start + len(kinds) * statistics.median(loop) > seconds:
            break

    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "ops_per_pass": len(ops),
        "passes": len(walls[False]) + len(walls[True]),
        "traced_passes": len(walls[True]),
        "pass_s": [round(w, 4) for w in walls[False]],
        "client": "closed loop, 1 client, 1 thread",
    }
    print("run: " + json.dumps(meta))

    metrics: dict[str, dict] = {}

    def report(name: str, value, unit: str, note: str = "") -> None:
        metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value} {unit}" + (f"  ({note})" if note else ""))

    if not trace:
        setup_times, setup_refs = setup
        scaled = rescale(op_times, op_pre, op_during)
        scaled_walls, at = [], 0
        for n in pass_ops:
            scaled_walls.append(sum(scaled[at : at + n]))
            at += n
        scaled_setup = [t * REFERENCE_S / r for t, r in zip(setup_times, setup_refs)]
        raw = {
            "wall_s": statistics.median(walls[False]),
            "op_p50_ms": statistics.median(op_times) * 1000,
            "op_p95_ms": _tail_ms(op_times)[0],
            "setup_s": statistics.median(setup_times),
            "reference_ms": statistics.median(s for p in op_pre for s in p) * 1000,
            "reference_nominal_ms": REFERENCE_S * 1000,
        }
        print("raw: " + json.dumps(raw))
        at_ref = "at the reference speed"
        tail, beyond = _tail_ms(scaled)
        report("wall_s", statistics.median(scaled_walls), "s", f"median of {len(scaled_walls)} passes, {at_ref}")
        report("op_p50_ms", statistics.median(scaled) * 1000, "ms", f"n={len(scaled)}, {at_ref}")
        note = f"n={len(scaled)}, {beyond} samples beyond"
        note += "" if beyond >= 10 else "; fewer than 10, indicative"
        report("op_p95_ms", tail, "ms", f"{note}, {at_ref}")
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        report("peak_rss_mb", rss_kib * 1024 / 1e6, "MB", "ru_maxrss of this process")
        report("setup_s", statistics.median(scaled_setup), "s", f"median of {len(scaled_setup)} set-ups, {at_ref}")
    else:
        per_pass = [layer_values(s, len(ops)) for s in summaries]
        for name, unit, exact in PER_LAYER[:-1]:
            values = [p[name] for p in per_pass]
            if exact and len(set(values)) != 1:
                runner.failed += 1
                print(f"FAIL count {name} differs between passes: {values}", file=sys.stderr)
            value = values[0] if exact else statistics.median(values)
            report(name, value, unit, "per pass" if exact else f"median of {len(values)} passes")
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        report("trace.overhead_s", overhead, "s", "traced minus untraced median pass time")
        if tracer.missing:
            print("trace: lookup sites not found: " + ", ".join(tracer.missing))
        for traced_nodes, printed in node_mismatch:
            runner.failed += 1
            print(f"FAIL search.placements {traced_nodes} != nodes_explored total {printed}", file=sys.stderr)
        _write_spans(workload, seed, meta, tracer, summaries)

    print(f"metric fail_ratio = {runner.failed / runner.attempted} 1  ({runner.failed} of {runner.attempted})")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if runner.failed == 0 else 1


def _write_spans(workload: str, seed: int, meta: dict, tracer: Tracer, summaries: list[dict]) -> None:
    path = OUT / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "meta": meta,
        "span_fields": ["name", "start", "end", "parent", "op", "child_s"],
        "spans": tracer.spans,
        "leaves_per_pass": [s["leaves"] for s in summaries],
        "counters_per_pass": [dict(s["counters"]) for s in summaries],
    }
    path.write_text(json.dumps(doc))
    print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")


def run_all(seed: int, seconds: int, trace: bool, scale: str) -> int:
    """Every workload, each in a fresh process; prints their results and a
    combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rc = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
                "--scale", scale]  # fmt: skip
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {workload}")
        print("\n".join(lines[:-1]))
        rc = rc or proc.returncode
        if proc.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return rc


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="brickpart benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: minimal inputs for the smoke test",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace), args.scale)
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
