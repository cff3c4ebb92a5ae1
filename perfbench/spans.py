"""Spans around the calls into each brickpart layer, recorded from outside.

The tracer replaces public functions at the module attributes where their
callers look them up (for example ``brickpart.constructions.refine``, which
``piercing_3d`` calls), so nothing under ``src/`` is edited. Each call made
while an operation is open becomes one span: name, start, end, the index of
the enclosing span and the operation id. Spans stay in memory until the run
writes them out.

A span's self time is its duration minus the time covered by its child
spans. ``BreakpointGrid.cell_span`` runs tens of thousands of times per
pass, so it is a *leaf*: its calls and time are summed instead of stored
one span each, and its time is still charged to the enclosing span as child
time.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from math import prod
from time import perf_counter
from typing import Any, Callable

CLI = "brickpart.io_cli.cli"


def _invalid(count, args, report) -> None:
    if not report.valid:
        count("partition.validate.invalid")


def _flat_cells(count, args, profile) -> None:
    count("metrics.flat_cells", sum(int(a.size) for a in profile.counts.values()))


def _grid_cells(count, args, grid) -> None:
    count("geometry.grid_cells", prod(grid.shape))


def _search(count, args, outcome) -> None:
    count("search.placements", outcome.nodes_explored)
    if outcome.status.value == "found":
        count("search.found")


def _parsed(count, args, doc) -> None:
    count("io_cli.parse.bytes", len(args[0].encode()))


def _emitted(count, args, text) -> None:
    count("io_cli.emit.bytes", len(text.encode()))


def _exported(count, args, data) -> None:
    count("io_cli.export.bytes", len(data))


# span name, lookup sites (module, attribute path), hook on the result
SPANS: tuple[tuple[str, tuple[tuple[str, str], ...], Callable | None], ...] = (
    ("io_cli.cli", ((CLI, "main"),), None),
    (
        "constructions",
        tuple((CLI, f) for f in ("grid_partition", "piercing_2d", "piercing_3d", "slicing_3d")),
        None,
    ),
    ("partition.refine", (("brickpart.constructions", "refine"),), None),
    (
        "partition.validate",
        (
            ("brickpart.partition", "validate"),
            ("brickpart.constructions", "validate"),
            (CLI, "validate"),
        ),
        _invalid,
    ),
    (
        "metrics.min_flat_count",
        (("brickpart.metrics", "min_flat_count"), (CLI, "min_flat_count")),
        _flat_cells,
    ),
    (
        "geometry.build_grid",
        (("brickpart.partition", "build_grid"), ("brickpart.metrics", "build_grid")),
        _grid_cells,
    ),
    ("search", ((CLI, "exists_partition"),), _search),
    ("io_cli.parse", ((CLI, "parse_document"),), _parsed),
    ("io_cli.emit", ((CLI, "emit_document"),), _emitted),
    ("io_cli.export", ((CLI, "export_figure"),), _exported),
)
LEAVES = (("geometry.cell_span", (("brickpart.geometry", "BreakpointGrid.cell_span"),)),)


def _owner(module: str, path: str) -> tuple[Any, str] | None:
    """The object holding the attribute and its name, or None if absent."""
    obj: Any = sys.modules.get(module)
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name, None)
    if obj is None or not hasattr(obj, attr):
        return None
    return obj, attr


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: int | None = None  # spans are recorded only while an op is open
        self.counters: Counter = Counter()
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.missing: list[str] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self._pass_start = 0

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def _span(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            record = [name, 0.0, 0.0, parent, tracer.op, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer.stack.pop()
                record[1], record[2] = start, end
                if parent >= 0:
                    tracer.spans[parent][5] += end - start
            if hook is not None:
                hook(tracer.count, args, result)
            return result

        return wrapper

    def _leaf(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stat = tracer.leaves[name]
                stat[0] += 1
                stat[1] += elapsed
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][5] += elapsed

        return wrapper

    def install(self) -> None:
        """Wrap every lookup site; sites the program no longer has are listed
        in ``missing`` and their metrics read zero."""
        points = [(name, sites, hook, False) for name, sites, hook in SPANS]
        points += [(name, sites, None, True) for name, sites in LEAVES]
        self.missing = []
        for name, sites, hook, leaf in points:
            for module, path in sites:
                found = _owner(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                wrapped = self._leaf(name, original) if leaf else self._span(name, original, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def begin_pass(self) -> None:
        self.counters.clear()
        self.leaves.clear()
        self._pass_start = len(self.spans)
        self.install()

    def end_pass(self) -> dict[str, Any]:
        """Calls, total and self seconds per span name for the pass just
        run, with its counters and leaf totals."""
        self.uninstall()
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, _, _, child in self.spans[self._pass_start:]:
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child
        return {
            "calls": calls,
            "s": total,
            "self_s": self_s,
            "counters": Counter(self.counters),
            "leaves": {k: tuple(v) for k, v in self.leaves.items()},
        }
