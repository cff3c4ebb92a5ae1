"""Self-describing JSON interchange format for brick partitions.

A document carries dim, parent, bricks, and optional labels/metadata, with a
canonical rendering: stable key order, two-space indentation, newline
terminated. Scalars are JSON integers when integral; otherwise strings,
either terminating decimals ("0.5") or "p/q". JSON floats are rejected so a
parsed document is always exact. Documents are not assumed to be valid
partitions; validation is a separate explicit step.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ..errors import DimensionMismatch, ParseError
from ..geometry import Brick, Interval, format_scalar, parse_scalar
from ..partition import BrickPartition

SidePairs = tuple[tuple[Fraction, Fraction], ...]


@dataclass(frozen=True)
class PartitionDocument:
    dim: int
    parent: SidePairs
    bricks: tuple[SidePairs, ...]
    labels: tuple[str, ...] | None = None
    metadata: dict[str, Any] | None = None

    @classmethod
    def from_partition(
        cls,
        P: BrickPartition,
        labels: tuple[str, ...] | None = None,
        metadata: dict[str, Any] | None = None,
    ) -> "PartitionDocument":
        return cls(
            dim=P.dim,
            parent=P.parent.as_pairs(),
            bricks=tuple(b.as_pairs() for b in P.members),
            labels=labels if labels is not None else P.labels,
            metadata=metadata,
        )

    def to_partition(self) -> BrickPartition:
        """Materialize geometry; validity is still the validator's business."""
        parent = Brick(tuple(Interval(lo, hi) for lo, hi in self.parent))
        members = tuple(
            Brick(tuple(Interval(lo, hi) for lo, hi in pairs)) for pairs in self.bricks
        )
        return BrickPartition(parent, members, self.labels)

    def emit(self) -> str:
        """Canonical text: bricks in document order (one per line), scalars
        canonical, stable key order, newline-terminated."""
        entries = [f'"dim": {self.dim}']
        entries.append(f'"parent": {_sides_text(self.parent)}')
        brick_lines = ",\n".join(f"    {_sides_text(pairs)}" for pairs in self.bricks)
        entries.append('"bricks": [\n' + brick_lines + "\n  ]")
        if self.labels is not None:
            entries.append(f'"labels": {json.dumps(list(self.labels))}')
        if self.metadata is not None:
            entries.append(f'"metadata": {json.dumps(self.metadata)}')
        return "{\n  " + ",\n  ".join(entries) + "\n}\n"


def _scalar_text(x: Fraction) -> str:
    return json.dumps(int(x) if x.denominator == 1 else format_scalar(x))


def _sides_text(pairs: SidePairs) -> str:
    return "[" + ", ".join(
        f"[{_scalar_text(lo)}, {_scalar_text(hi)}]" for lo, hi in pairs
    ) + "]"


def emit_document(
    P: BrickPartition,
    labels: tuple[str, ...] | None = None,
    metadata: dict[str, Any] | None = None,
) -> str:
    """Canonical document text for a partition (labels default to P's own)."""
    return PartitionDocument.from_partition(P, labels, metadata).emit()


def _parse_scalar_value(value: Any, where: str) -> Fraction:
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a scalar, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(
            f"{where}: floats are not exact; quote the value as a decimal or p/q string"
        )
    if isinstance(value, str):
        try:
            return parse_scalar(value)
        except ParseError as e:
            raise ParseError(f"{where}: {e}") from e
    raise ParseError(f"{where}: expected a scalar, got {type(value).__name__}")


def _parse_pair(value: Any, where: str) -> tuple[Fraction, Fraction]:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected a [lo, hi] pair")
    lo = _parse_scalar_value(value[0], f"{where}[0]")
    hi = _parse_scalar_value(value[1], f"{where}[1]")
    Interval(lo, hi)  # raises DegenerateInterval when lo >= hi
    return (lo, hi)


def _parse_sides(value: Any, dim: int, where: str) -> SidePairs:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of [lo, hi] pairs")
    if len(value) != dim:
        raise DimensionMismatch(f"{where}: {len(value)} sides for dimension {dim}")
    return tuple(_parse_pair(p, f"{where}[{i}]") for i, p in enumerate(value))


_KNOWN_KEYS = {"dim", "parent", "bricks", "labels", "metadata"}


def parse_document(text: str) -> PartitionDocument:
    """Parse a document, reporting the failing field on structural errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ParseError("top level must be an object")
    unknown = set(raw) - _KNOWN_KEYS
    if unknown:
        raise ParseError(f"unknown keys: {sorted(unknown)}")
    for key in ("dim", "parent", "bricks"):
        if key not in raw:
            raise ParseError(f"missing required key {key!r}")

    dim = raw["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError("dim: expected a positive integer")
    parent = _parse_sides(raw["parent"], dim, "parent")
    bricks_raw = raw["bricks"]
    if not isinstance(bricks_raw, list) or not bricks_raw:
        raise ParseError("bricks: expected a nonempty list")
    bricks = tuple(
        _parse_sides(b, dim, f"bricks[{i}]") for i, b in enumerate(bricks_raw)
    )

    labels = None
    if "labels" in raw:
        labels_raw = raw["labels"]
        if not isinstance(labels_raw, list) or not all(
            isinstance(s, str) for s in labels_raw
        ):
            raise ParseError("labels: expected a list of strings")
        if len(labels_raw) != len(bricks):
            raise ParseError(
                f"labels: {len(labels_raw)} labels for {len(bricks)} bricks"
            )
        labels = tuple(labels_raw)

    metadata = None
    if "metadata" in raw:
        if not isinstance(raw["metadata"], dict):
            raise ParseError("metadata: expected an object")
        metadata = raw["metadata"]

    return PartitionDocument(dim, parent, bricks, labels, metadata)
