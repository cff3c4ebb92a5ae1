"""The benchmark's workloads: their inputs, operations and output checks.

Every operation is one or two calls of the public CLI entry point
``brickpart.io_cli.cli.main(argv)``. ``build`` makes a workload's operations
and writes their input files; each operation carries a ``check`` that reads
the captured outputs and returns the problems it finds (none when correct).
The checks recompute what they can along a different code path from the one
that produced the output, and never share a time measurement with it.

brickpart is imported inside the functions, never at module level, so the
run can import a fresh copy of the package for every set-up it times.

Why these workloads:

* ``families`` builds and verifies the paper's three families on structured
  coordinates. The time goes to the constructions, ``refine``'s validation,
  grid building and flat counting; the search is idle.
* ``search`` runs the exact small values and three steps of the proof ladder.
  The search DFS does nearly all the work and its placement counts repeat
  exactly; the other layers only see the small witnesses.
* ``documents`` verifies and exports untrusted random documents, a quarter
  of them corrupted. Generic coordinates give large grids (the biggest 3D
  count array is about twice the 105 MiB L3 of the reference machine), and
  the failure-witness path, parsing and export all run.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable

WORKLOADS = ("families", "search", "documents")


@dataclass
class Call:
    """Exit code and captured streams of one CLI call."""

    rc: int
    out: str
    err: str


@dataclass
class Op:
    """One closed-loop operation: CLI calls run back to back."""

    name: str
    argvs: list[list[str]]
    check: Callable[[list[Call]], list[str]]
    outputs: list[Path] = field(default_factory=list)  # files the calls write


def build(workload: str, seed: int, scale: str, workdir: Path) -> list[Op]:
    """Operations of a workload; writes the input documents into workdir."""
    if workload == "families":
        return _family_ops(scale, workdir)
    if workload == "search":
        return _search_ops(scale)
    if workload == "documents":
        return _document_ops(seed, scale, workdir)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- helpers


def _fields(text: str) -> dict[str, list[str]]:
    """The ``key: value`` lines of a CLI report, values in order."""
    fields: dict[str, list[str]] = defaultdict(list)
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key].append(value)
    return fields


_FLAT = re.compile(r"^(?:line|plane) with free axes \{([\d,]+)\} at (.+)$")


def _recount_witness(P, text: str) -> int:
    """Members met by a printed witness flat, counted by count_intersections."""
    from brickpart import FlatQuery, count_intersections

    match = _FLAT.match(text)
    if match is None:
        raise ValueError(f"unreadable witness {text!r}")
    free = tuple(int(a) for a in match.group(1).split(","))
    fixed = []
    for token in match.group(2).split():
        axis, _, value = token.partition("=")
        fixed.append((int(axis.lstrip("x")), Fraction(value)))
    return count_intersections(P, FlatQuery(free, tuple(fixed)))


def _check_numbers(P, fields: dict[str, list[str]], expected: dict[str, int]) -> list[str]:
    """Each reported flat minimum must equal its expected value (when one is
    given) and the recount of its printed witness."""
    problems = []
    for number in ("piercing_number", "slicing_number"):
        if number not in fields:
            if number in expected:
                problems.append(f"{number} not reported")
            continue
        value = int(fields[number][0])
        if number in expected and value != expected[number]:
            problems.append(f"{number} {value}, expected {expected[number]}")
        witness = number.replace("_number", "_witness")
        recount = _recount_witness(P, fields[witness][0])
        if recount != value:
            problems.append(f"{witness} meets {recount} members, reported {value}")
    return problems


def _round_trip(text: str) -> list[str]:
    from brickpart import parse_document

    if parse_document(text).emit() != text:
        return ["emit(parse(text)) is not byte-identical"]
    return []


def _strided(lo: int, hi: int, step: int) -> list[int]:
    """lo, lo+step, ... up to hi, always ending with hi."""
    ks = list(range(lo, hi + 1, step))
    return ks if ks[-1] == hi else ks + [hi]


# --------------------------------------------------------------- families

# family -> (first k, largest k, stride) per scale
FAMILY_KS = {
    "full": {"piercing3d": (3, 50, 6), "slicing3d": (2, 200, 20), "piercing2d": (2, 50, 6)},
    "tiny": {"piercing3d": (3, 4, 1), "slicing3d": (2, 3, 1), "piercing2d": (2, 3, 1)},
}


def family_members(family: str, k: int) -> int:
    """Member count the paper gives for a family member."""
    if family == "piercing3d":
        return 12 * k - 15
    if family == "slicing3d":
        return max(4, 2 * k - 1)
    return 4 * (k - 1)


def _family_ops(scale: str, workdir: Path) -> list[Op]:
    path = workdir / "family.json"
    ops = []
    for family, (lo, hi, step) in FAMILY_KS[scale].items():
        for k in _strided(lo, hi, step):
            ops.append(
                Op(
                    f"{family}(k={k})",
                    [
                        ["construct", "--family", family, "--k", str(k), "--out", str(path)],
                        ["verify", str(path)],
                    ],
                    _family_check(family, k, path),
                    [path],
                )
            )
    return ops


def _family_check(family: str, k: int, path: Path) -> Callable[[list[Call]], list[str]]:
    number = "slicing_number" if family == "slicing3d" else "piercing_number"

    def check(calls: list[Call]) -> list[str]:
        from brickpart import parse_document

        construct, verify = calls
        if construct.rc != 0 or verify.rc != 0:
            return [f"exit codes {construct.rc}, {verify.rc}, expected 0, 0"]
        text = path.read_text()
        problems = _round_trip(text)
        P = parse_document(text).to_partition()
        fields = _fields(verify.out)
        expected = family_members(family, k)
        if fields["members"] != [str(expected)] or len(P.members) != expected:
            problems.append(f"members {fields['members']}, expected {expected}")
        if fields["valid"] != ["yes"]:
            problems.append(f"valid {fields['valid']}, expected yes")
        return problems + _check_numbers(P, fields, {number: k})

    return check


# ----------------------------------------------------------------- search

# name, d, k, mode, largest m that exhausts, grid cap, proven minimum
SEARCH_VALUES = (
    ("p(2,2)", 2, 2, "piercing", 3, 3, 4),
    ("p(2,3)", 2, 3, "piercing", 7, 4, 8),
    ("p(3,2)", 3, 2, "piercing", 7, 2, 8),
    ("s(3,2)", 3, 2, "slicing", 3, 2, 4),
    ("s(3,3)", 3, 3, "slicing", 4, 4, 5),
)
# name, d, k, mode, m, grid: larger grids on the way to complete proofs;
# each must exhaust
SEARCH_LADDER = (
    ("s(3,2)", 3, 2, "slicing", 3, 3),
    ("p(3,2)", 3, 2, "piercing", 7, 3),
    ("p(2,3)", 2, 3, "piercing", 7, 6),
)


def _search_ops(scale: str) -> list[Op]:
    values = SEARCH_VALUES if scale == "full" else SEARCH_VALUES[:1]
    ladder = SEARCH_LADDER if scale == "full" else SEARCH_LADDER[:1]
    ops = []
    for name, d, k, mode, m_none, g, proven in values:
        ops.append(_search_op(f"{name} m={m_none} g={g}", d, k, mode, m_none, g, None))
        ops.append(_search_op(f"{name} m={m_none + 1} g={g}", d, k, mode, m_none + 1, g, proven))
    for name, d, k, mode, m, g in ladder:
        ops.append(_search_op(f"{name} m={m} g={g}", d, k, mode, m, g, None))
    return ops


def _search_op(name: str, d: int, k: int, mode: str, m: int, g: int, proven: int | None) -> Op:
    argv = ["search", "--d", str(d), "--k", str(k), "--mode", mode,
            "--max-bricks", str(m), "--grid", str(g)]  # fmt: skip

    def check(calls: list[Call]) -> list[str]:
        (call,) = calls
        if call.rc != 0:
            return [f"exit code {call.rc}, expected 0"]
        fields = _fields(call.out)
        problems = []
        nodes = fields["nodes_explored"]
        if len(nodes) != 1 or not nodes[0].isdigit() or int(nodes[0]) < 1:
            problems.append(f"nodes_explored {nodes}")
        status = "exhausted_none" if proven is None else "found"
        if fields["status"] != [status]:
            return problems + [f"status {fields['status']}, expected {status}"]
        start = call.out.find("\n{")
        if proven is None:
            return problems + (["unexpected witness"] if start >= 0 else [])
        if start < 0:
            return problems + ["no witness printed"]
        doc = json.loads(call.out[start + 1:])
        if len(doc["bricks"]) != proven:
            problems.append(f"witness has {len(doc['bricks'])} members, expected {proven}")
        return problems + _grid_witness_problems(doc, d, k, mode, g)

    return Op(name, [argv], check)


def _grid_witness_problems(doc: dict, d: int, k: int, mode: str, g: int) -> list[str]:
    """Independent check of a search witness on the integer grid [0,g]^d:
    every unit cell covered once, and every line (piercing) or hyperplane
    (slicing) through cell interiors meets at least k members. Flats on grid
    lines meet supersets of these, so the cell flats decide the minimum."""
    if doc["parent"] != [[0, g]] * d:
        return [f"witness parent {doc['parent']}, expected [0,{g}]^{d}"]
    boxes = [[tuple(side) for side in b] for b in doc["bricks"]]
    cover = Counter(
        cell for b in boxes for cell in product(*(range(lo, hi) for lo, hi in b))
    )
    if set(cover) != set(product(range(g), repeat=d)) or set(cover.values()) != {1}:
        return ["witness does not tile the grid"]
    if mode == "piercing":
        met = [
            sum(all(b[o][0] <= c < b[o][1] for o, c in zip(others, cell)) for b in boxes)
            for a in range(d)
            for others in [[o for o in range(d) if o != a]]
            for cell in product(range(g), repeat=d - 1)
        ]
    else:
        met = [sum(b[a][0] <= i < b[a][1] for b in boxes) for a in range(d) for i in range(g)]
    if min(met) < k:
        return [f"witness has a flat meeting {min(met)} members, need {k}"]
    return []


# -------------------------------------------------------------- documents

# dim, members, corruption (None for a valid document). An odd number of
# documents puts the median operation inside one document's samples, and two
# documents of the largest kind put p95 between their samples instead of at
# the edge of one, so both percentiles depend less on a single random grid.
DOCUMENTS = {
    "full": (
        (2, 50, None), (3, 50, None), (2, 150, None), (3, 150, None),
        (2, 300, "gap"), (3, 300, "overlap"), (2, 400, None), (3, 400, None),
        (2, 800, None), (3, 800, None), (2, 1000, "outside"), (3, 1000, "gap"),
        (2, 1500, None), (3, 1500, None), (3, 1500, None),
    ),
    "tiny": (
        (2, 20, None), (3, 20, None), (2, 20, "gap"), (3, 20, "overlap"), (3, 20, "outside"),
    ),
}  # fmt: skip

# failure kind the CLI must report for each corruption
FAILURE_KIND = {"gap": "gap", "overlap": "overlap", "outside": "outside_parent"}

_FAILURE = re.compile(r"^(\w+)(?: at \(([^)]*)\))?(?: members \[([\d, ]*)\])?$")


def _document_ops(seed: int, scale: str, workdir: Path) -> list[Op]:
    """Seeded random documents; the same seed writes byte-identical files."""
    from brickpart import BrickPartition, emit_document, random_split_partition

    rng = random.Random(seed)
    ops = []
    for i, (dim, n, corruption) in enumerate(DOCUMENTS[scale]):
        P = random_split_partition(rng, dim, n)
        members = list(P.members)
        j = rng.randrange(n)
        culprit = members[j]
        if corruption == "gap":
            del members[j]
        elif corruption == "overlap":
            members.insert(j + 1, culprit)
        elif corruption == "outside":
            shift = P.parent.sides[0].length
            members[j] = culprit.translate((shift,) + (0,) * (dim - 1))
        D = BrickPartition(P.parent, tuple(members))
        text = emit_document(D, metadata={"generator": "random_split", "seed": seed, "index": i})
        path = workdir / f"doc-{i:02d}.json"
        path.write_text(text)
        fmt = "svg" if dim == 2 else "obj"
        figure = path.with_suffix("." + fmt)
        ops.append(
            Op(
                f"{dim}d n={n} {corruption or 'valid'}",
                [["verify", str(path)], ["export", str(path), "--format", fmt, "--out", str(figure)]],
                _document_check(D, text, corruption, j, culprit, figure),
                [figure],
            )
        )
    return ops


def _document_check(D, text, corruption, j, culprit, figure) -> Callable[[list[Call]], list[str]]:
    def check(calls: list[Call]) -> list[str]:
        verify, export = calls
        want_rc = 0 if corruption is None else 1
        if verify.rc != want_rc or export.rc != 0:
            return [f"exit codes {verify.rc}, {export.rc}, expected {want_rc}, 0"]
        problems = _round_trip(text) + _figure_problems(figure.read_bytes(), D)
        fields = _fields(verify.out)
        if fields["members"] != [str(len(D.members))]:
            problems.append(f"members {fields['members']}, expected {len(D.members)}")
        if corruption is None:
            if fields["valid"] != ["yes"]:
                return problems + [f"valid {fields['valid']}, expected yes"]
            return problems + _check_numbers(D, fields, {})
        if fields["valid"] != ["no"] or len(fields["failure"]) != 1:
            return problems + [f"valid {fields['valid']} failures {fields['failure']}"]
        return problems + _failure_problems(fields["failure"][0], corruption, j, culprit)

    return check


def _failure_problems(line: str, corruption: str, j: int, culprit) -> list[str]:
    """The reported failure must name the corruption made at member j."""
    match = _FAILURE.match(line)
    if match is None:
        return [f"unreadable failure {line!r}"]
    kind, point, members = match.groups()
    if kind != FAILURE_KIND[corruption]:
        return [f"failure kind {kind}, expected {FAILURE_KIND[corruption]}"]
    members = [int(m) for m in members.split(",")] if members else []
    want = {"gap": [], "overlap": [j, j + 1], "outside": [j]}[corruption]
    if members != want:
        return [f"failure members {members}, expected {want}"]
    if corruption != "outside":
        at = tuple(Fraction(c) for c in point.split(", "))
        if not culprit.contains_point(at):
            return [f"failure point {point} is not in the corrupted member"]
    return []


def _figure_problems(data: bytes, D) -> list[str]:
    text = data.decode()
    n = len(D.members)
    if D.dim == 2:
        rects = text.count("<rect")
        return [] if rects == n else [f"SVG has {rects} rects, expected {n}"]
    lines = text.splitlines()
    v = sum(line.startswith("v ") for line in lines)
    f = sum(line.startswith("f ") for line in lines)
    return [] if (v, f) == (8 * n, 12 * n) else [f"OBJ has {v} v and {f} f lines for {n} members"]
