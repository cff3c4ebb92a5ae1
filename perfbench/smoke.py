#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs (about a minute).

Run from the repository root:

    python3 perfbench/smoke.py

It checks that

* every end-to-end and per-layer metric listed in BENCHMARK.json is printed
  by name with its unit, and the result line reports exactly those;
* count metrics repeat exactly across two traced runs with the same seed;
* the same seed writes byte-identical documents and another seed does not;
* the correctness check fires when an expected value is deliberately wrong;
* without ``src/`` the benchmark exits non-zero and prints no result.

Exits 0 when every check holds; prints each failed check otherwise.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "5", "--seconds", "1", "--scale", "tiny"]
EXACT_UNITS = {"count", "bytes", "calls/op"}

problems: list[str] = []


def expect(ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)
        print(f"FAILED: {message}")


def bench(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )  # fmt: skip
    return proc.returncode, proc.stdout.splitlines()


def check_reported(workload: str, lines: list[str], specs: list[dict]) -> dict:
    """The result line has exactly the listed metrics with their units, and
    each is printed as a ``metric`` line; returns the result's metrics."""
    result = json.loads(lines[-1])
    expect(
        set(result) == {"correct", "attempted", "failed", "metrics"},
        f"{workload}: result keys {sorted(result)}",
    )
    expect(result["correct"] and result["failed"] == 0, f"{workload}: run not correct")
    metrics = result["metrics"]
    expect(
        [m["name"] for m in specs] == list(metrics),
        f"{workload}: reported {list(metrics)}",
    )
    for spec in specs:
        got = metrics.get(spec["name"], {})
        expect(got.get("unit") == spec["unit"], f"{workload}: {spec['name']} unit {got.get('unit')}")
        printed = f"metric {spec['name']} = {got.get('value')} {spec['unit']}"
        expect(any(line.startswith(printed) for line in lines), f"{workload}: no line {printed!r}")
    expect(any(line.startswith("metric fail_ratio = ") for line in lines), f"{workload}: no fail_ratio")
    expect(lines[0].startswith("run: ") and '"seed": 5' in lines[0], f"{workload}: no run metadata")
    return metrics


def check_metrics_and_counts() -> None:
    for workload in workloads.WORKLOADS:
        rc, lines = bench(["--workload", workload, "--trace", "0", *TINY])
        expect(rc == 0, f"{workload} --trace 0 exit code {rc}")
        check_reported(workload, lines, BENCH["end_to_end"])
        traced = []
        for _ in range(2):
            rc, lines = bench(["--workload", workload, "--trace", "1", *TINY])
            expect(rc == 0, f"{workload} --trace 1 exit code {rc}")
            traced.append(check_reported(workload, lines, BENCH["per_layer"]))
        for spec in BENCH["per_layer"]:
            if spec["unit"] in EXACT_UNITS:
                a, b = (t[spec["name"]]["value"] for t in traced)
                expect(a == b, f"{workload}: count {spec['name']} {a} then {b}")


def check_seeded_documents() -> None:
    sys.path.insert(0, str(run.SRC))
    texts = {}
    for tag, seed in (("a", 5), ("b", 5), ("c", 6)):
        workdir = run.OUT / f"smoke-docs-{tag}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        workloads.build("documents", seed, "tiny", workdir)
        texts[tag] = [p.read_bytes() for p in sorted(workdir.glob("*.json"))]
        shutil.rmtree(workdir)
    expect(texts["a"] == texts["b"], "seed 5 twice gave different documents")
    expect(texts["a"] != texts["c"], "seeds 5 and 6 gave the same documents")


def check_fires(workload: str, module, attr: str, wrong) -> None:
    """Run in this process with one expectation replaced by a wrong one."""
    saved = getattr(module, attr)
    setattr(module, attr, wrong(saved))
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = run.main(["--workload", workload, "--trace", "0", *TINY])
    finally:
        setattr(module, attr, saved)
    result = json.loads(out.getvalue().splitlines()[-1])
    expect(rc != 0 and not result["correct"] and result["failed"] > 0,
           f"{workload}: wrong {attr} not detected (rc {rc})")  # fmt: skip
    expect("FAIL" in err.getvalue(), f"{workload}: wrong {attr} gave no FAIL line")


def check_wrong_expectations() -> None:
    check_fires("families", workloads, "family_members", lambda f: lambda fam, k: f(fam, k) + 1)
    check_fires(
        "search", workloads, "SEARCH_VALUES",
        lambda values: tuple(v[:-1] + (v[-1] + 1,) for v in values),
    )  # fmt: skip
    check_fires("documents", workloads, "FAILURE_KIND", lambda kinds: {**kinds, "gap": "overlap"})


def check_bare_directory() -> None:
    bare = run.OUT / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in Path(__file__).parent.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        rc, lines = bench(["--workload", "families", "--trace", "0", *TINY], cwd=bare)
    finally:
        shutil.rmtree(bare)
    expect(rc != 0, "benchmark without src/ exited 0")
    expect(not any(line.startswith("{") for line in lines), "benchmark without src/ printed a result")


def main() -> int:
    check_metrics_and_counts()
    check_seeded_documents()
    check_wrong_expectations()
    check_bare_directory()
    print("smoke: " + ("ok" if not problems else f"{len(problems)} failed checks"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
