import json
import re
from fractions import Fraction
from random import Random

import pytest

from brickpart import (
    Brick,
    BrickPartition,
    Interval,
    ParseError,
    emit_document,
    parse_document,
    random_split_partition,
    validate,
)
from brickpart.constructions import piercing_3d, slicing_3d
from brickpart.geometry import as_scalar, parse_scalar
from brickpart.io_cli import document

from helpers import as_pairs, int_max_str_digits, reference_parse


def test_emit_slicing_k2_document():
    text = emit_document(slicing_3d(2))
    P = parse_document(text).to_partition()
    assert P.dim == 3
    assert as_pairs(P.parent) == ((0, 2), (0, 2), (0, 2))
    assert len(P.members) == 4
    assert P.labels == ("X0", "X1", "Y0", "Y1")


def test_emit_is_byte_stable():
    a = emit_document(slicing_3d(2), metadata={"generator": "slicing3d", "k": 2})
    b = emit_document(slicing_3d(2), metadata={"generator": "slicing3d", "k": 2})
    assert a == b
    assert a.endswith("\n")


def test_round_trip_piercing_3d():
    P = piercing_3d(3)
    doc = parse_document(emit_document(P))
    Q = doc.to_partition()
    assert Q.parent == P.parent
    assert Q.members == P.members
    assert Q.labels == P.labels
    assert len(Q.members) == 21


def test_round_trip_is_byte_canonical():
    for P in (slicing_3d(4), piercing_3d(3)):
        text = emit_document(P, metadata={"k": 4})
        assert parse_document(text).emit() == text


def _labeled_random_document():
    P = random_split_partition(Random(4), 3, 60)
    labels = tuple(f"m{i}" for i in range(len(P)))
    text = emit_document(BrickPartition(P.parent, P.members, labels), metadata={"seed": 4})
    return parse_document(text).to_partition()  # one Interval per distinct token pair


@pytest.mark.parametrize("make", [lambda: piercing_3d(5), _labeled_random_document])
def test_emit_reads_the_same_from_shared_and_fresh_sides(make):
    P = make()
    sides = [s for b in (P.parent, *P.members) for s in b.sides]
    assert len({id(s) for s in sides}) < len(sides)  # the partition shares side objects

    def fresh(b):  # every side and scalar its own new object
        return Brick(tuple(Interval(Fraction(s.lo), Fraction(s.hi)) for s in b.sides))

    Q = BrickPartition(fresh(P.parent), tuple(map(fresh, P.members)), P.labels)
    assert len({id(s) for b in (Q.parent, *Q.members) for s in b.sides}) == len(sides)
    assert emit_document(Q, {"seed": 4}) == emit_document(P, {"seed": 4})


def test_emit_writes_an_integer_past_the_digit_limit():
    side = Brick((Interval(0, 10**4400),))  # the limit is a rule on input, not on output
    P = BrickPartition(side, (side,))
    text = emit_document(P)
    with int_max_str_digits(0):
        assert text == emit_document(P)
        assert f'"parent": [[0, {10**4400}]]' in text


def test_parse_brick_row():
    text = """{
  "dim": 3,
  "parent": [[0, 6], [0, 6], [0, 6]],
  "bricks": [
    [[0, 2], [3, 6], [0, 4]]
  ]
}
"""
    doc = parse_document(text)
    assert doc.to_partition().members[0] == Brick.from_pairs([(0, 2), (3, 6), (0, 4)])


def test_parse_rejects_degenerate_interval():
    text = '{"dim": 1, "parent": [[0, 2]], "bricks": [[[1, 1]]]}'
    with pytest.raises(ParseError, match=r"^bricks\[0\]\[0\]: need lo < hi, got \[1, 1\]$"):
        parse_document(text)


def test_parse_rejects_wrong_brick_dimension():
    text = '{"dim": 2, "parent": [[0, 2], [0, 2]], "bricks": [[[0, 1]]]}'
    with pytest.raises(ParseError, match=r"^bricks\[0\]: 1 sides for dimension 2$"):
        parse_document(text)


def test_rational_scalars_round_trip():
    third = Fraction(1, 3)
    P = BrickPartition(
        Brick.from_pairs([(0, 1)]),
        (Brick.from_pairs([(0, third)]), Brick.from_pairs([(third, 1)])),
    )
    text = emit_document(P)
    assert '"1/3"' in text
    doc = parse_document(text)
    assert as_pairs(doc.to_partition().members[0])[0] == (Fraction(0), third)
    assert doc.emit() == text


def test_decimal_scalars_round_trip():
    half = Fraction(1, 2)
    P = BrickPartition(
        Brick.from_pairs([(0, 1)]),
        (Brick.from_pairs([(0, half)]), Brick.from_pairs([(half, 1)])),
    )
    text = emit_document(P)
    assert '"0.5"' in text
    assert parse_document(text).emit() == text


def test_parse_rejects_malformed_json():
    with pytest.raises(ParseError):
        parse_document("{not json")


def test_parse_rejects_an_integer_over_the_digit_limit():
    text = '{"dim": 1, "parent": [[0, ' + "1" * 5000 + ']], "bricks": [[[0, 1]]]}'
    with pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == "invalid JSON: an integer longer than 4300 digits"


def test_parse_names_the_interpreters_own_digit_limit():
    text = '{"dim": 1, "parent": [[0, ' + "1" * 700 + ']], "bricks": [[[0, 1]]]}'
    with int_max_str_digits(640), pytest.raises(ParseError) as exc:
        parse_document(text)
    assert str(exc.value) == "invalid JSON: an integer longer than 640 digits"


def test_parse_rejects_floats():
    text = '{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, 0.5]]]}'
    with pytest.raises(ParseError, match="floats"):
        parse_document(text)


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"dim": 0, "parent": [], "bricks": []}',
        '{"dim": 1, "parent": [[0, 1]], "bricks": []}',
        '{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, 1]]], "mystery": 1}',
        '{"dim": 1, "parent": [[0, 1]]}',
        '{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, 1]]], "labels": ["a", "b"]}',
        '{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, "x"]]]}',
        '{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, 1]]], "metadata": 7}',
    ],
)
def test_parse_rejects_structural_errors(text):
    with pytest.raises(ParseError):
        parse_document(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"dim": 1, "parent": 5, "bricks": [[[0, 1]]]}',
         "parent: expected a list of [lo, hi] pairs"),
        ('{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, 1, 2]]]}',
         "bricks[0][0]: expected a [lo, hi] pair"),
        ('{"dim": 1, "parent": [[0, null]], "bricks": [[[0, 1]]]}',
         "parent[0][1]: expected a scalar, got NoneType"),
        ('{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, 1]]], "labels": [1]}',
         "labels: expected a list of strings"),
        # bricks[1][0] repeats a stored pair, then bricks[1][1] fails
        ('{"dim": 2, "parent": [[0, 1], [0, 2]], "bricks": [[[0, 1], [0, 2]], [[0, 1], [0, 1, 2]]]}',
         "bricks[1][1]: expected a [lo, hi] pair"),
        ('{"dim": 2, "parent": [[0, 1], [0, 2]], "bricks": [[[0, 1], [0, 2]], [[0, 1], [0, null]]]}',
         "bricks[1][1][1]: expected a scalar, got NoneType"),
    ],
)
def test_parse_names_the_place_of_each_shape_error(text, message):
    with pytest.raises(ParseError) as e:
        parse_document(text)
    assert type(e.value) is ParseError and str(e.value) == message


def test_parse_error_carries_field_context():
    text = '{"dim": 2, "parent": [[0, 1], [0, 1]], "bricks": [[[0, 1], [0, "x"]]]}'
    with pytest.raises(ParseError, match=r"bricks\[0\]\[1\]"):
        parse_document(text)


def test_document_not_assumed_valid():
    # overlapping bricks parse fine; validity is the validator's business
    text = '{"dim": 1, "parent": [[0, 2]], "bricks": [[[0, 2]], [[0, 2]]]}'
    doc = parse_document(text)
    P = doc.to_partition()
    assert not validate(P).valid


def test_labels_survive_emit_and_parse():
    P = slicing_3d(2)
    labeled = BrickPartition(P.parent, P.members, ("a", "b", "c", "d"))
    text = emit_document(labeled)
    assert '"labels": ["a", "b", "c", "d"]' in text
    assert parse_document(text).to_partition().labels == ("a", "b", "c", "d")


def _typed_pairs(text):
    """Every [lo, hi] token pair of a document, parent first, keyed by value and type."""
    raw = json.loads(text)
    return [
        (type(lo), lo, type(hi), hi) for b in [raw["parent"], *raw["bricks"]] for lo, hi in b
    ]


def _count_interval_builds(monkeypatch):
    built = []
    post_init = Interval.__post_init__

    def counting_post_init(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(Interval, "__post_init__", counting_post_init)
    return built


def test_parse_builds_each_interval_once(monkeypatch):
    P = piercing_3d(3)
    text = emit_document(P)
    pairs = _typed_pairs(text)
    assert len(set(pairs)) < len(pairs)  # the document repeats sides
    built = _count_interval_builds(monkeypatch)
    Q = parse_document(text).to_partition()
    assert len(built) == len(set(pairs))
    assert Q.members == P.members
    shared = {}  # each repeated pair is one Interval object
    sides = [s for b in (Q.parent, *Q.members) for s in b.sides]
    for pair, side in zip(pairs, sides):
        assert shared.setdefault(pair, side) is side


def test_parse_shares_no_interval_between_calls():
    text = emit_document(piercing_3d(3))
    first, second = (parse_document(text).to_partition() for _ in range(2))
    assert first.members == second.members
    assert first.members[0].sides[0] is not second.members[0].sides[0]


def test_parse_never_matches_a_boolean_to_a_stored_pair():
    doc = {"dim": 1, "parent": [[0, 2]], "bricks": [[[0, 1]], [[1, 2]], [[True, 2]]]}
    where = re.escape("bricks[2][0][0]: expected a scalar, got a boolean")
    with pytest.raises(ParseError, match=f"^{where}$"):
        parse_document(json.dumps(doc))


def test_parse_raises_a_repeated_degenerate_pair_at_its_first_occurrence(monkeypatch):
    doc = {"dim": 1, "parent": [[0, 2]], "bricks": [[[0, 1]], [[2, 2]], [[2, 2]], [[1.5, 2]]]}
    built = _count_interval_builds(monkeypatch)
    for _ in range(2):  # a failure is not remembered by the next call
        built.clear()
        with pytest.raises(ParseError, match=r"^bricks\[1\]\[0\]: need lo < hi, got \[2, 2\]$"):
            parse_document(json.dumps(doc))
        assert len(built) == 3  # the parent, [0, 1] and the first [2, 2]


@pytest.mark.parametrize("a, b", [(1, "1"), ("0.5", "1/2"), ("0.5", "2/4")])
def test_parse_spellings_of_one_scalar_give_equal_sides(a, b):
    doc = {"dim": 1, "parent": [[0, a]], "bricks": [[[0, b]]]}
    P = parse_document(json.dumps(doc)).to_partition()
    assert P.parent.sides == P.members[0].sides
    assert P.parent.sides[0].hi == as_scalar(b)


@pytest.mark.parametrize("label", ["evil\nv 9 9 9\nf 1 2 3", "tab\there", "nul\x00"])
def test_parse_rejects_unprintable_labels(label):
    doc = {"dim": 1, "parent": [[0, 2]], "bricks": [[[0, 1]], [[1, 2]]], "labels": ["ok", label]}
    with pytest.raises(ParseError, match=r"labels\[1\]"):
        parse_document(json.dumps(doc))


def _count_scalar_parses(monkeypatch):
    parsed = []

    def counting_parse_scalar(text):
        parsed.append(text)
        return parse_scalar(text)

    monkeypatch.setattr(document, "parse_scalar", counting_parse_scalar)
    return parsed


def test_parse_parses_each_string_token_once(monkeypatch):
    text = emit_document(random_split_partition(Random(3), 3, 60))
    raw = json.loads(text)
    tokens = [t for b in [raw["parent"], *raw["bricks"]] for pair in b for t in pair]
    strings = [t for t in tokens if isinstance(t, str)]
    assert len(set(strings)) < len(strings)  # the document repeats string tokens
    parsed = _count_scalar_parses(monkeypatch)
    P = parse_document(text).to_partition()
    assert sorted(parsed) == sorted(set(strings))
    shared = {}  # each repeated token is one Fraction object
    scalars = [x for b in (P.parent, *P.members) for s in b.sides for x in (s.lo, s.hi)]
    for token, x in zip(tokens, scalars):
        assert shared.setdefault((type(token), token), x) is x


def test_parse_keeps_int_and_string_tokens_apart(monkeypatch):
    doc = {"dim": 2, "parent": [[0, "1"], [0, 1]], "bricks": [[[0, 1], [0, "1"]]]}
    parsed = _count_scalar_parses(monkeypatch)
    P = parse_document(json.dumps(doc)).to_partition()
    assert parsed == ["1"]
    (a, b), (c, d) = P.parent.sides, P.members[0].sides
    assert a.hi == b.hi == 1 and a.hi is not b.hi
    assert c.hi is b.hi and d.hi is a.hi


@pytest.mark.parametrize(
    "pair, where", [([True, 2], "bricks[1][0][0]"), ([1, True], "bricks[1][0][1]")]
)
def test_parse_never_matches_a_boolean_to_a_stored_token(pair, where):
    doc = {"dim": 1, "parent": [[1, 2]], "bricks": [[[1, 2]], [pair]]}
    where = re.escape(f"{where}: expected a scalar, got a boolean")
    with pytest.raises(ParseError, match=f"^{where}$"):
        parse_document(json.dumps(doc))


def test_parse_remembers_no_failing_token(monkeypatch):
    doc = {"dim": 1, "parent": [[0, "2"]], "bricks": [[[0, "1"]], [["1", "x"]], [["x", "2"]]]}
    parsed = _count_scalar_parses(monkeypatch)
    for _ in range(2):  # neither this call nor the next one stores "x"
        parsed.clear()
        with pytest.raises(ParseError, match=re.escape("bricks[1][0][1]: not an integer")):
            parse_document(json.dumps(doc))
        assert parsed == ["2", "1", "x"]


def _corrupt(rng, raw, row):
    """Corrupt one place of a row (0 the parent, then the bricks) in place, and
    return the location that a reader names for it."""
    sides = raw["parent"] if row == 0 else raw["bricks"][row - 1]
    where = "parent" if row == 0 else f"bricks[{row - 1}]"
    j, end = rng.randrange(len(sides)), rng.randrange(2)
    pair = sides[j]
    kind = rng.choice(
        ["bool", "float", "nested", "short", "long", "swap", "equal", "plus", "brick", "count"]
    )
    if kind in ("brick", "count"):
        bad = [5, "x", None, {"a": 1}] if kind == "brick" else [sides[:-1], sides + sides[:1]]
        if row == 0:
            raw["parent"] = rng.choice(bad)
        else:
            raw["bricks"][row - 1] = rng.choice(bad)
        return where
    lo, hi = pair
    if kind in ("short", "long", "swap", "equal"):
        pair[:] = {"short": [lo], "long": [lo, hi, hi], "swap": [hi, lo], "equal": [lo, lo]}[kind]
        return f"{where}[{j}]"
    token = pair[end]
    pair[end] = {
        "bool": rng.choice([True, False]),  # False == 0: a stored pair must not match it
        "float": float(as_scalar(token)),
        "nested": [token],
        "plus": f"+{token}",
    }[kind]
    return f"{where}[{j}][{end}]"


@pytest.mark.parametrize("seed", range(100))
def test_parse_reads_what_the_reference_reads(seed):
    rng = Random(seed)
    P = random_split_partition(rng, rng.choice([1, 2, 3]), rng.randrange(1, 40))
    raw, rows = json.loads(emit_document(P)), 1 + len(P.members)
    corrupted = sorted(rng.sample(range(rows), min(rng.randrange(3), rows)))
    places = [_corrupt(rng, raw, row) for row in corrupted]  # distinct rows, earliest first
    text = json.dumps(raw)
    try:
        want = reference_parse(text)
    except ParseError as e:
        with pytest.raises(ParseError) as got:
            parse_document(text)
        assert str(got.value) == str(e) and str(e).startswith(f"{places[0]}: ")
    else:
        assert not places and parse_document(text).to_partition() == want == P
