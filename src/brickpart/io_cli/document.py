"""Self-describing JSON interchange format for brick partitions.

A parsed document is a partition plus metadata: the text carries dim,
parent, bricks and optional labels/metadata, and `parse_document` builds the
parent and each member once, straight into a `BrickPartition`. For the
duration of one call, every distinct scalar token (the same JSON int or
string) is parsed once into one `Fraction`, and every distinct token pair
builds one `Interval`, each shared by all its occurrences. One loop reads
the parent and then the bricks: a stored pair of plain tokens costs an
exact-type check and one lookup; a new pair looks up or parses its two
tokens and builds its side in place. A location such as `bricks[1][0][1]` is
written only when the loop raises, at the first failing row, pair or token
in document order, and nothing that fails is remembered. A bool, float or
nested token is never looked up or stored. Emission renders each
scalar object once per call, and a parsed document holds one per distinct
token. The canonical rendering has a stable key order, two-space
indentation and a final newline. Scalars are JSON integers when integral;
otherwise strings, either terminating decimals ("0.5") or "p/q". JSON
floats are rejected so a parsed document is always exact. Documents are not
assumed to be valid partitions; validation is a separate explicit step.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from ..errors import ParseError
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
        P, texts = self.partition, {}  # per scalar object (all alive): its JSON text

        def scalar_text(x: Fraction) -> str:
            # format_scalar writes only digits, "-", "." and "/": nothing to escape
            if (text := texts.get(id(x))) is None:
                text = format_scalar(x)
                text = texts[id(x)] = text if x.denominator == 1 else f'"{text}"'
            return text

        def sides_text(b: Brick) -> str:
            return "[" + ", ".join(
                [f"[{scalar_text(s.lo)}, {scalar_text(s.hi)}]" for s in b.sides]
            ) + "]"

        entries = [f'"dim": {P.dim}', f'"parent": {sides_text(P.parent)}']
        brick_lines = ",\n".join([f"    {sides_text(b)}" for b in P.members])
        entries.append('"bricks": [\n' + brick_lines + "\n  ]")
        if P.labels is not None:
            entries.append(f'"labels": {json.dumps(list(P.labels))}')
        if self.metadata is not None:
            entries.append(f'"metadata": {json.dumps(self.metadata)}')
        return "{\n  " + ",\n  ".join(entries) + "\n}\n"


def emit_document(P: BrickPartition, metadata: dict[str, Any] | None = None) -> str:
    """Canonical document text for a partition, its labels included."""
    return PartitionDocument(P, metadata).emit()


# exact types, checked before any lookup: a bool is an int, and True == 1;
# an int never equals a str, so the raw tokens are the keys
_TOKENS = (int, str)


def _not_a_scalar(token: Any) -> str:
    if isinstance(token, bool):
        return "expected a scalar, got a boolean"
    if isinstance(token, float):
        return "floats are not exact; quote the value as a decimal or p/q string"
    return f"expected a scalar, got {type(token).__name__}"


def _place(row: int, pair: int | None = None, end: int | None = None) -> str:
    """The location of a failing row (the parent, then bricks[i]), pair or token."""
    where = "parent" if row == 0 else f"bricks[{row - 1}]"
    return where + "".join(f"[{i}]" for i in (pair, end) if i is not None)


def _parse_rows(rows: list, dim: int) -> list[Brick]:
    """Parent and bricks in one loop, raising at the first failure in document order."""
    scalars: dict[int | str, Fraction] = {}  # for this call: one Fraction per distinct token
    sides: dict[tuple[int | str, int | str], Interval] = {}  # one Interval per token pair
    get, out = sides.get, []
    for row in rows:
        if type(row) is not list:
            raise ParseError(f"{_place(len(out))}: expected a list of [lo, hi] pairs")
        if len(row) != dim:
            raise ParseError(f"{_place(len(out))}: {len(row)} sides for dimension {dim}")
        brick: list[Interval] = []
        for p in row:  # a stored pair of plain tokens is one type check and one lookup
            if type(p) is not list or len(p) != 2:
                raise ParseError(f"{_place(len(out), len(brick))}: expected a [lo, hi] pair")
            lo, hi = p
            side = get((lo, hi)) if type(lo) in _TOKENS and type(hi) in _TOKENS else None
            if side is None:
                for end, token in enumerate(p):  # a new pair: its tokens stored or located
                    if type(token) not in _TOKENS:
                        place = _place(len(out), len(brick), end)
                        raise ParseError(f"{place}: {_not_a_scalar(token)}")
                    if token not in scalars:  # a failing token raises here, never stored
                        try:
                            x = parse_scalar(token) if type(token) is str else Fraction(token)
                        except ValueError as e:
                            raise ParseError(f"{_place(len(out), len(brick), end)}: {e}") from e
                        scalars[token] = x
                try:
                    side = sides[lo, hi] = Interval(scalars[lo], scalars[hi])
                except ValueError as e:  # lo >= hi
                    raise ParseError(f"{_place(len(out), len(brick))}: {e}") from e
            brick.append(side)
        out.append(Brick(tuple(brick)))
    return out


_KNOWN_KEYS = {"dim", "parent", "bricks", "labels", "metadata"}


def parse_document(text: str) -> PartitionDocument:
    """Parse a document, reporting the failing field on structural errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise ParseError("invalid JSON: nested past the interpreter's recursion limit") from e
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
    bricks = raw["bricks"]  # checked after the parent, which comes first in a document
    listed = isinstance(bricks, list) and bool(bricks)
    parent, *bricks = _parse_rows([raw["parent"], *bricks] if listed else [raw["parent"]], dim)
    if not listed:
        raise ParseError("bricks: expected a nonempty list")

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
        P = BrickPartition(parent, tuple(bricks), labels)
    except ValueError as e:
        raise ParseError(str(e)) from e
    return PartitionDocument(P, metadata)
