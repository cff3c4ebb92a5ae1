"""Command-line surface: construct, verify, bounds, search, export.

All subcommands read and write the PartitionDocument format. Exit codes:
0 on success, 1 when verification fails (or a search hits its node budget),
2 on usage errors including unusable input documents.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..constructions import bounds, grid_partition, piercing_2d, piercing_3d, slicing_3d
from ..errors import BrickError, ParseError, ResourceLimit
from ..geometry import format_scalar
from ..metrics import FlatQuery, min_flat_count
from ..partition import BrickPartition, boundary_incidence, validate
from ..search import DEFAULT_NODE_BUDGET, SearchProblem, exists_partition
from .document import emit_document, parse_document
from .export import ExportOptions, export_figure


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _write_bytes(data: bytes, out: str | None) -> None:
    if out is None:
        sys.stdout.buffer.write(data)
    else:
        Path(out).write_bytes(data)


def _describe_flat(q: FlatQuery) -> str:
    kind = "line" if len(q.free_axes) == 1 else "plane"
    free = ",".join(str(a) for a in q.free_axes)
    fixed = " ".join(f"x{a}={format_scalar(c)}" for a, c in q.fixed_coords)
    return f"{kind} with free axes {{{free}}} at {fixed}"


def _print_flat_count(P: BrickPartition, free_axis_count: int, name: str) -> None:
    # the profile's count arrays are released on return, before the next is counted
    profile = min_flat_count(P, free_axis_count)
    print(f"{name}_number: {profile.minimum}")
    print(f"{name}_witness: {_describe_flat(profile.witness)}")


def _cmd_construct(args: argparse.Namespace) -> int:
    if args.family == "grid":
        P = grid_partition(args.d, args.k)
        metadata = {"generator": "grid", "d": args.d, "k": args.k}
    else:  # built per call, so it holds the module's current functions
        build = {"piercing2d": piercing_2d, "piercing3d": piercing_3d, "slicing3d": slicing_3d}
        P, metadata = build[args.family](args.k), {"generator": args.family, "k": args.k}
    _write_text(emit_document(P, metadata=metadata), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    doc = parse_document(Path(args.file).read_text())
    P = doc.to_partition()
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


def _cmd_bounds(args: argparse.Namespace) -> int:
    for kind, value in bounds(args.d, args.k).items():
        print(f"{kind.value}(d={args.d}, k={args.k}): {value}")
    return 0


def _cmd_search(args: argparse.Namespace) -> int:
    if args.node_budget < 0:
        raise ValueError(f"--node-budget: must be >= 0, got {args.node_budget}")
    problem = SearchProblem(
        d=args.d,
        k=args.k,
        mode=args.mode,
        m_max=args.max_bricks,
        g=args.grid,
        symmetry_pruning=not args.no_symmetry,
        node_budget=args.node_budget,
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
    doc = parse_document(Path(args.file).read_text())
    P = doc.to_partition()
    try:
        options = ExportOptions(args.precision, args.exploded, args.labels)
    except ParseError as e:  # the one ValueError that the exploded text raises
        raise ParseError(f"--exploded: {e}") from e
    except ValueError as e:
        raise ValueError(f"--precision: {e}") from e
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
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="validate a document and report metrics")
    p.add_argument("file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bounds", help="print closed-form bounds")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("search", help="exhaustive minimality search on a cell grid")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mode", required=True, choices=["piercing", "slicing"])
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
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("export", help="render a document as SVG (d=2) or OBJ (d=3)")
    p.add_argument("file")
    p.add_argument("--format", required=True, choices=["svg", "obj"])
    p.add_argument("--exploded", default="0", help="OBJ: rational outward translation factor")
    p.add_argument("--precision", type=int, default=6)
    p.add_argument("--labels", action="store_true", help="SVG: draw member labels")
    p.add_argument("--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as e:
        # unusable paths and inputs and bad parameters (every input error type
        # in errors.py is a ValueError); verification failures exit 1 from the
        # subcommands themselves
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrickError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
