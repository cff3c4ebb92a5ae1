"""Self-describing JSON interchange format for brick partitions.

A parsed document is a partition plus metadata: the text carries dim,
parent, bricks and optional labels/metadata, and `parse_document` builds the
parent and each member once, straight into a `BrickPartition`. For the
duration of one call, every distinct scalar token (the same JSON int or
string) is parsed once into one `Fraction`, and every distinct token pair
builds one `Interval`, each shared by all its occurrences; a token or pair
that fails raises at its first occurrence and is never remembered, and a
bool, float or nested token is never looked up or stored. The
canonical rendering has a stable key order, two-space indentation and a
final newline. Scalars are JSON integers when integral; otherwise strings,
either terminating decimals ("0.5") or "p/q". JSON floats are rejected so a
parsed document is always exact. Documents are not assumed to be valid
partitions; validation is a separate explicit step.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ..errors import DimensionMismatch, ParseError
from ..geometry import Brick, Interval, format_scalar, parse_scalar
from ..partition import BrickPartition


@dataclass(frozen=True)
class PartitionDocument:
    partition: BrickPartition
    metadata: dict[str, Any] | None = None

    def to_partition(self) -> BrickPartition:
        """The parsed geometry; validity is still the validator's business."""
        return self.partition

    def emit(self) -> str:
        """Canonical text: bricks in document order (one per line), scalars
        canonical, stable key order, newline-terminated."""
        P = self.partition
        entries = [f'"dim": {P.dim}']
        entries.append(f'"parent": {_sides_text(P.parent)}')
        brick_lines = ",\n".join(f"    {_sides_text(b)}" for b in P.members)
        entries.append('"bricks": [\n' + brick_lines + "\n  ]")
        if P.labels is not None:
            entries.append(f'"labels": {json.dumps(list(P.labels))}')
        if self.metadata is not None:
            entries.append(f'"metadata": {json.dumps(self.metadata)}')
        return "{\n  " + ",\n  ".join(entries) + "\n}\n"


def _scalar_text(x: Fraction) -> str:
    # format_scalar writes only digits, "-", "." and "/": nothing to escape
    return str(x.numerator) if x.denominator == 1 else f'"{format_scalar(x)}"'


def _sides_text(b: Brick) -> str:
    return "[" + ", ".join(
        f"[{_scalar_text(s.lo)}, {_scalar_text(s.hi)}]" for s in b.sides
    ) + "]"


def emit_document(P: BrickPartition, metadata: dict[str, Any] | None = None) -> str:
    """Canonical document text for a partition, its labels included."""
    return PartitionDocument(P, metadata).emit()


# exact types, checked before any lookup: a bool is an int, and True == 1;
# an int never equals a str, so the raw tokens are the keys
_TOKENS = (int, str)
_Scalars = dict[int | str, Fraction]  # token -> its scalar
_Sides = dict[tuple[int | str, int | str], Interval]  # token pair -> its side


def _parse_scalar_value(value: Any, where: str, scalars: _Scalars) -> Fraction:
    if type(value) in _TOKENS:
        x = scalars.get(value)
        if x is None:  # a failing token raises here, so it is never stored
            try:
                x = scalars[value] = parse_scalar(value) if type(value) is str else Fraction(value)
            except ParseError as e:
                raise ParseError(f"{where}: {e}") from e
        return x
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a scalar, got a boolean")
    if isinstance(value, float):
        raise ParseError(
            f"{where}: floats are not exact; quote the value as a decimal or p/q string"
        )
    raise ParseError(f"{where}: expected a scalar, got {type(value).__name__}")


def _parse_pair(value: Any, where: str, sides: _Sides, scalars: _Scalars) -> Interval:
    if not isinstance(value, list) or len(value) != 2:
        raise ParseError(f"{where}: expected a [lo, hi] pair")
    lo, hi = value
    side = sides.get((lo, hi)) if type(lo) in _TOKENS and type(hi) in _TOKENS else None
    if side is None:  # any other token raises here, so a failure is never stored
        side = sides[lo, hi] = Interval(  # raises DegenerateInterval when lo >= hi
            _parse_scalar_value(lo, f"{where}[0]", scalars),
            _parse_scalar_value(hi, f"{where}[1]", scalars),
        )
    return side


def _parse_sides(value: Any, dim: int, where: str, sides: _Sides, scalars: _Scalars) -> Brick:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of [lo, hi] pairs")
    if len(value) != dim:
        raise DimensionMismatch(f"{where}: {len(value)} sides for dimension {dim}")
    return Brick(
        tuple(_parse_pair(p, f"{where}[{i}]", sides, scalars) for i, p in enumerate(value))
    )


_KNOWN_KEYS = {"dim", "parent", "bricks", "labels", "metadata"}


def parse_document(text: str) -> PartitionDocument:
    """Parse a document, reporting the failing field on structural errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except ValueError as e:  # the only other error: int() refuses a digit run over the limit
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: an integer longer than {limit} digits") from e
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
    scalars: _Scalars = {}  # for this call: one Fraction per distinct token
    sides: _Sides = {}  # and one Interval per distinct token pair
    parent = _parse_sides(raw["parent"], dim, "parent", sides, scalars)
    bricks_raw = raw["bricks"]
    if not isinstance(bricks_raw, list) or not bricks_raw:
        raise ParseError("bricks: expected a nonempty list")
    bricks = tuple(
        _parse_sides(b, dim, f"bricks[{i}]", sides, scalars) for i, b in enumerate(bricks_raw)
    )

    labels = None
    if "labels" in raw:
        labels = raw["labels"]
        if not isinstance(labels, list) or not all(
            isinstance(s, str) for s in labels
        ):
            raise ParseError("labels: expected a list of strings")

    metadata = None
    if "metadata" in raw:
        if not isinstance(raw["metadata"], dict):
            raise ParseError("metadata: expected an object")
        metadata = raw["metadata"]

    try:  # the partition owns the label rules: one printable label per member
        P = BrickPartition(parent, bricks, labels)
    except ValueError as e:
        raise ParseError(str(e)) from e
    return PartitionDocument(P, metadata)
