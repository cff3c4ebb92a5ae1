"""Command-line surface: construct, verify, bounds, search, export.

All subcommands read and write the PartitionDocument format, UTF-8 in any locale.
Exit codes: 0 on success, 1 when verification fails (or a search hits its
node budget), 2 on usage errors including unusable input documents. In-process
callers of `main` share one parser, built on the first call and holding no
functions; a one-shot process (`python -m brickpart`) builds it once either way.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Any, Callable

from ..constructions import BoundKind, bounds, grid_partition, piercing_2d, piercing_3d, slicing_3d
from ..errors import BrickError, ResourceLimit
from ..geometry import format_scalar
from ..metrics import min_flat_count
from ..partition import BrickPartition, boundary_incidence, validate
from ..search import DEFAULT_NODE_BUDGET, Mode, SearchProblem, exists_partition
from .document import emit_document, parse_document
from .export import ExportOptions, FigureFormat, export_figure

# Every API the CLI calls refuses a bad parameter as ValueError("<field>: <reason>");
# the CLI reports it under the field's flag.
_FLAGS = {"d": "--d", "k": "--k", "m_max": "--max-bricks", "g": "--grid",
          "node_budget": "--node-budget", "precision": "--precision",
          "exploded": "--exploded"}  # fmt: skip


def _flagged(make: Callable[..., Any], **fields: Any) -> Any:
    """make(**fields), with a refusal "<field>: <reason>" of a field passed here
    raised again as "<flag>: <reason>"; any other error passes through as it is."""
    try:
        return make(**fields)
    except ValueError as e:
        field, _, reason = str(e).partition(": ")
        if field not in fields or field not in _FLAGS:
            raise
        raise ValueError(f"{_FLAGS[field]}: {reason}") from e


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _write_bytes(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
    else:
        Path(out).write_bytes(data)


def _print_flat_count(P: BrickPartition, free_axis_count: int, name: str) -> None:
    # the profile's count arrays are released on return, before the next is counted
    profile = min_flat_count(P, free_axis_count)
    q, kind = profile.witness, "line" if free_axis_count == 1 else "plane"
    free = ",".join(str(a) for a in q.free_axes)
    fixed = " ".join(f"x{a}={format_scalar(c)}" for a, c in q.fixed_coords)
    print(f"{name}_number: {profile.minimum}")
    print(f"{name}_witness: {kind} with free axes {{{free}}} at {fixed}")


def _cmd_construct(args: argparse.Namespace) -> int:
    build = {"grid": grid_partition, "piercing2d": piercing_2d, "piercing3d": piercing_3d,
             "slicing3d": slicing_3d}  # built per call, so it holds the current functions
    fields = {"d": args.d, "k": args.k} if args.family == "grid" else {"k": args.k}
    P = _flagged(build[args.family], **fields)
    _write_text(emit_document(P, metadata={"generator": args.family, **fields}), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    P = parse_document(Path(args.file).read_text(encoding="utf-8")).to_partition()
    print(f"dim: {P.dim}")
    print(f"members: {len(P.members)}")
    report = validate(P)
    print(f"valid: {'yes' if report.valid else 'no'}")
    if not report.valid:
        for failure in report.failures:
            detail = failure.kind.value
            if failure.point is not None:
                detail += " at (" + ", ".join(format_scalar(c) for c in failure.point) + ")"
            if failure.members:
                detail += f" members {list(failure.members)}"
            print(f"failure: {detail}")
        return 1
    if P.dim >= 2:
        _print_flat_count(P, 1, "piercing")
    if P.dim == 3:
        _print_flat_count(P, 2, "slicing")
    incidence = boundary_incidence(P)
    print(f"incidence_F: {incidence.total}")
    print(f"incidence_alpha: {incidence.alpha}")
    return 0


def _printable_bounds(d: int, k: int) -> dict[BoundKind, int]:
    """bounds(d, k), refused before it is computed if k^d, the largest bound, has
    more digits than str() converts: k >= 2 makes k^d >= 2^(d·(bits(k) - 1)), so
    the first test refuses only past the limit, and k^d stays under 2^(8·limit)."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    if limit and k >= 2 and d >= 1:
        if d * (k.bit_length() - 1) > 4 * limit or k**d >= 10**limit:
            raise ValueError(f"d: k^d = {k}^{d} has more than {limit} digits")
    return bounds(d, k)


def _cmd_bounds(args: argparse.Namespace) -> int:
    for kind, value in _flagged(_printable_bounds, d=args.d, k=args.k).items():
        print(f"{kind.value}(d={args.d}, k={args.k}): {value}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    problem = _flagged(
        SearchProblem, d=args.d, k=args.k, mode=args.mode, m_max=args.max_bricks, g=args.grid,
        symmetry_pruning=not args.no_symmetry, node_budget=args.node_budget
    )
    try:
        outcome = exists_partition(problem)
    except ResourceLimit as e:
        print(f"status: resource_limit ({e})")
        return 1
    print(f"status: {outcome.status.value}")
    print(f"nodes_explored: {outcome.nodes_explored}")
    print(f"grid_cap: {problem.scope()}")
    if outcome.witness is not None:
        metadata = {
            "generator": "search", "d": args.d, "k": args.k, "mode": args.mode, "grid": args.grid
        }
        _write_text(emit_document(outcome.witness, metadata=metadata), args.out)
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    P = parse_document(Path(args.file).read_text(encoding="utf-8")).to_partition()
    options = _flagged(
        ExportOptions, precision=args.precision, exploded=args.exploded, labels=args.labels
    )
    _write_bytes(export_figure(P, args.format, options), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brickpart",
        description="Exact construction, verification, and search for "
        "k-piercing and k-slicing brick partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="generate a partition family member")
    p.add_argument(
        "--family",
        required=True,
        choices=["grid", "piercing2d", "piercing3d", "slicing3d"],
    )
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=3, help="dimension (grid family only)")
    p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("verify", help="validate a document and report metrics")
    p.add_argument("file")

    p = sub.add_parser("bounds", help="print closed-form bounds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = sub.add_parser("search", help="exhaustive minimality search on a cell grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", required=True, choices=[m.value for m in Mode])
    p.add_argument("--max-bricks", type=int, required=True)
    p.add_argument("--grid", type=int, required=True)
    p.add_argument(
        "--node-budget",
        type=int,
        default=DEFAULT_NODE_BUDGET,
        help="placement budget, >= 0 (default: 10^8)",
    )
    p.add_argument(
        "--no-symmetry",
        action="store_true",
        help="disable first-box symmetry pruning (for count cross-checks)",
    )
    p.add_argument("--out", help="write the witness document here when found")

    p = sub.add_parser("export", help="render a document as SVG (d=2) or OBJ (d=3)")
    p.add_argument("file")
    p.add_argument("--format", required=True, choices=[f.value for f in FigureFormat])
    p.add_argument("--exploded", default="0", help="OBJ: rational outward translation factor")
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--labels", action="store_true", help="SVG: draw member labels")
    p.add_argument("--out", help="output file (default: stdout)")

    return parser


_parser = functools.cache(build_parser)  # built on the first main call, then shared


def main(argv: list[str] | None = None) -> int:
    # built per call, so it holds the current functions
    commands = {"construct": _cmd_construct, "verify": _cmd_verify, "bounds": _cmd_bounds,
                "search": _cmd_search, "export": _cmd_export}  # fmt: skip
    args = _parser().parse_args(argv)
    try:
        return commands[args.command](args)
    except (OSError, ValueError) as e:
        # unusable paths, bad parameters (ValueError) and bad documents
        # (ParseError, a ValueError); verification failures exit 1 from the
        # subcommands themselves
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrickError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
