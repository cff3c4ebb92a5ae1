import argparse
import io
import json
import sys
import time
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickpart import (
    BrickOutsideParent,
    emit_document,
    errors,
    format_scalar,
    geometry,
    metrics,
    parse_document,
    partition,
    random_split_partition,
)
from brickpart.io_cli import cli
from brickpart.io_cli.cli import main

from helpers import as_pairs, whole_grid_report


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_then_verify(tmp_path, capsys):
    doc = tmp_path / "slicing.json"
    code, _, _ = run_cli(capsys, "construct", "--family", "slicing3d", "--k", "4", "--out", str(doc))
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", str(doc))
    assert code == 0
    assert "valid: yes" in out
    assert "slicing_number: 4" in out
    assert "incidence_F:" in out and "incidence_alpha:" in out
    assert "piercing_witness:" in out


def test_construct_writes_stdout(capsys):
    code, out, _ = run_cli(capsys, "construct", "--family", "grid", "--d", "2", "--k", "2")
    assert code == 0
    assert '"dim": 2' in out and out.count("[[") == 5  # parent + 4 bricks


def test_verify_invalid_document_exits_1(tmp_path, capsys):
    doc = tmp_path / "broken.json"
    doc.write_text(
        '{"dim": 1, "parent": [[0, 2]], "bricks": [[[0, 1]]]}\n'
    )
    code, out, _ = run_cli(capsys, "verify", str(doc))
    assert code == 1
    assert "valid: no" in out
    assert "gap" in out


def test_verify_overlap_reports_members(tmp_path, capsys):
    doc = tmp_path / "overlap.json"
    doc.write_text('{"dim": 1, "parent": [[0, 2]], "bricks": [[[0, 2]], [[0, 2]]]}\n')
    code, out, _ = run_cli(capsys, "verify", str(doc))
    assert code == 1
    assert "overlap" in out and "members" in out


def test_verify_refuses_flat_counts_above_the_cap(tmp_path, capsys):
    # valid, with 7.8e15 cells; one 9-axis projection would need petabytes
    doc = tmp_path / "d10.json"
    doc.write_text(emit_document(random_split_partition(Random(0), 10, 800)))
    code, out, err = run_cli(capsys, "verify", str(doc))
    assert code == 1
    assert "valid: yes" in out
    assert err.startswith("error: flat counts over ") and err.count("\n") == 1


def test_verify_refuses_validation_above_the_corner_cap(tmp_path, capsys):
    # one brick strictly inside [0, 3]^40: 2^40 signed corners inside the grid
    doc = tmp_path / "d40.json"
    doc.write_text(json.dumps({"dim": 40, "parent": [[0, 3]] * 40, "bricks": [[[1, 2]] * 40]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", str(doc))
    assert time.perf_counter() - start < 1
    assert code == 1
    assert "valid:" not in out
    # the cap is 2^23 corners up to d = 3 and 2^23·3 // d above: int32 bytes, not corners
    assert err == f"error: validation over {2**40 + 1} corners exceeds the cap of 629145\n"


def test_verify_refuses_a_wide_document_under_the_three_axis_cap(tmp_path, capsys):
    # 2^21 corners, under 2^23, but 24 int32 coordinates each: about 200 MB
    doc = tmp_path / "d24.json"
    sides = [[0, 2]] * 24
    doc.write_text(json.dumps({"dim": 24, "parent": sides, "bricks": [[[0, 1]] * 21 + sides[:3]]}))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "verify", str(doc))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "valid:" not in out
    assert err == f"error: validation over {2**21 + 1} corners exceeds the cap of {2**20}\n"
    assert peak < 2**20  # refused before any corner array


def _one_brick_document(path, d):
    # one brick filling [0, 1]^d: valid, with one cell
    path.write_text(json.dumps({"dim": d, "parent": [[0, 1]] * d, "bricks": [[[0, 1]] * d]}))
    return str(path)


def test_verify_counts_flats_over_64_axes(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", _one_brick_document(tmp_path / "d65.json", 65))
    assert (code, err) == (0, "")
    assert "valid: yes" in out and "piercing_number: 1\n" in out


def test_verify_refuses_flat_counts_above_64_axes(tmp_path, capsys):
    code, out, err = run_cli(capsys, "verify", _one_brick_document(tmp_path / "d66.json", 66))
    assert code == 1
    assert "valid: yes" in out and "piercing_number" not in out
    assert err == "error: flat counts over 65 axes exceed the cap of 64\n"


def test_verify_refuses_a_4000_dimensional_brick_fast(tmp_path, capsys):
    doc = _one_brick_document(tmp_path / "d4000.json", 4000)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", doc)
    assert time.perf_counter() - start < 2
    assert code == 1 and "valid: yes" in out
    assert err == "error: flat counts over 3999 axes exceed the cap of 64\n"


def test_verify_releases_each_flat_profile_before_counting_the_next(tmp_path, capsys, monkeypatch):
    doc = tmp_path / "p3.json"
    assert run_cli(capsys, "construct", "--family", "piercing3d", "--k", "3", "--out", str(doc))[0] == 0
    count, profiles, alive = cli.min_flat_count, [], []

    def tracking(P, free_axis_count):
        alive.append([ref() is not None for ref in profiles])
        profile = count(P, free_axis_count)
        profiles.append(weakref.ref(profile))
        return profile

    monkeypatch.setattr(cli, "min_flat_count", tracking)
    code, out, _ = run_cli(capsys, "verify", str(doc))
    assert code == 0 and "slicing_number: 8" in out
    assert alive == [[], [False]]  # the piercing profile was gone when slicing was asked for


def test_verify_unparseable_exits_2(tmp_path, capsys):
    doc = tmp_path / "junk.json"
    doc.write_text("not json at all")
    code, _, err = run_cli(capsys, "verify", str(doc))
    assert code == 2
    assert "error" in err


def test_verify_an_integer_over_the_digit_limit_exits_2(tmp_path, capsys):
    doc = tmp_path / "long.json"
    doc.write_text('{"dim":1,"parent":[[0,' + "1" * 5000 + ']],"bricks":[[[0,1]]]}')
    code, out, err = run_cli(capsys, "verify", str(doc))
    assert (code, out) == (2, "")
    assert err == "error: invalid JSON: an integer longer than 4300 digits\n"


def test_main_runs_after_a_usage_error_in_the_same_process(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "--d", "2"])
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err
    code, out, _ = run_cli(capsys, "bounds", "--d", "3", "--k", "5")
    assert code == 0 and "slicing_lb_3d(d=3, k=5): 9" in out


def test_search_out_does_not_carry_over_to_the_next_call(tmp_path, capsys):
    args = ("search", "--d", "2", "--k", "2", "--mode", "piercing", "--max-bricks", "4", "--grid", "3")
    witness = tmp_path / "witness.json"
    code, out, _ = run_cli(capsys, *args, "--out", str(witness))
    assert code == 0 and '"bricks"' not in out
    text = witness.read_text()
    witness.unlink()
    code, out, _ = run_cli(capsys, *args)
    assert code == 0 and out.endswith(text)  # the witness goes to stdout this time
    assert not witness.exists()


def test_bounds_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--d", "3", "--k", "5")
    assert code == 0
    assert "elementary_piercing_lb(d=3, k=5): 44" in out
    assert "trivial_grid_ub(d=3, k=5): 125" in out
    assert "slicing_lb_3d(d=3, k=5): 9" in out


def test_search_exhaustion(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--d", "2", "--k", "2", "--mode", "piercing",
        "--max-bricks", "3", "--grid", "3",
    )
    assert code == 0
    assert "status: exhausted_none" in out
    assert "grid_cap:" in out


def test_search_found_writes_witness(tmp_path, capsys):
    witness = tmp_path / "witness.json"
    code, out, _ = run_cli(
        capsys, "search", "--d", "2", "--k", "2", "--mode", "piercing",
        "--max-bricks", "4", "--grid", "3", "--out", str(witness),
    )
    assert code == 0
    assert "status: found" in out
    code, out, _ = run_cli(capsys, "verify", str(witness))
    assert code == 0
    assert "piercing_number: 2" in out


def test_search_node_budget_exit_code(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--d", "2", "--k", "3", "--mode", "piercing",
        "--max-bricks", "7", "--grid", "4", "--node-budget", "5",
    )
    assert code == 1
    assert "resource_limit" in out


def test_search_rejects_a_grid_above_the_cell_cap(capsys):
    code, out, err = run_cli(capsys, "search", "--d", "2", "--k", "2", "--mode", "piercing",
                             "--max-bricks", "1", "--grid", str(2**13 + 1), "--node-budget", "1")
    assert (code, out) == (2, "")
    assert err == "error: --grid: 8193 in d=2 gives more than 2^26 cells\n"


@pytest.mark.parametrize("flag, value, message", [
    ("--d", "0", "must be >= 1, got 0"),
    ("--k", "0", "must be >= 1, got 0"),
    ("--max-bricks", "-1", "must be >= 1, got -1"),
    ("--grid", "0", "must be >= 1, got 0"),
    ("--d", "1", "slicing mode needs d >= 2, got 1"),
])
def test_search_names_the_flag_of_each_bad_parameter(capsys, flag, value, message):
    # SearchProblem owns the rules; the CLI only renames the field to its flag
    argv = {"--d": "3", "--k": "2", "--mode": "slicing", "--max-bricks": "4", "--grid": "3"}
    argv[flag] = value
    code, out, err = run_cli(capsys, "search", *(x for pair in argv.items() for x in pair))
    assert (code, out, err) == (2, "", f"error: {flag}: {message}\n")


def test_search_rejects_negative_node_budget(capsys):
    code, out, err = run_cli(capsys, "search", "--d", "2", "--k", "2", "--mode", "piercing",
                             "--max-bricks", "4", "--grid", "3", "--node-budget", "-5")
    assert (code, out) == (2, "")
    assert "--node-budget" in err


_SEARCH = ("search", "--k", "1", "--mode", "piercing", "--max-bricks", "1")


@pytest.mark.parametrize("argv, flag, reason", [
    ((*_SEARCH, "--d", "27", "--grid", "1"), "--d", "must be <= 26, got 27"),
    ((*_SEARCH, "--d", "2", "--grid", "2", "--node-budget", "-5"), "--node-budget", "must be >= 0, got -5"),
    (("export", "{doc}", "--format", "svg", "--precision", "-1"), "--precision",
     "decimal places must be >= 0 and <= 4300, got -1"),
    (("export", "{doc}", "--format", "obj", "--exploded", "1e3"), "--exploded",
     "not an integer, decimal or p/q scalar: '1e3'"),
    (("construct", "--family", "grid", "--d", "0", "--k", "2"), "--d", "dimension must be >= 1"),
    (("construct", "--family", "grid", "--d", "2", "--k", "0"), "--k", "grid partition needs k >= 1"),
    (("construct", "--family", "piercing2d", "--k", "1"), "--k", "piercing_2d needs k >= 2"),
    (("construct", "--family", "piercing3d", "--k", "2"), "--k", "piercing_3d needs k >= 3"),
    (("construct", "--family", "slicing3d", "--k", "1"), "--k", "slicing_3d needs k >= 2"),
    (("bounds", "--d", "0", "--k", "3"), "--d", "dimension must be >= 1"),
    (("bounds", "--d", "3", "--k", "1"), "--k", "bounds are defined for k >= 2"),
    (("bounds", "--d", "4300", "--k", "10"), "--d", "k^d = 10^4300 has more than 4300 digits"),
    (("bounds", "--d", "20000", "--k", "3"), "--d", "k^d = 3^20000 has more than 4300 digits"),
])  # fmt: skip
def test_each_refusal_names_its_flag(tmp_path, capsys, argv, flag, reason):
    # every API names the field it refuses; the CLI renames it to the flag
    doc = tmp_path / "doc.json"
    doc.write_text('{"dim": 2, "parent": [[0, 1], [0, 1]], "bricks": [[[0, 1], [0, 1]]]}\n')
    code, out, err = run_cli(capsys, *(str(doc) if a == "{doc}" else a for a in argv))
    assert (code, out, err) == (2, "", f"error: {flag}: {reason}\n")


def test_each_flag_of_the_table_is_an_option_of_every_subcommand_passing_its_field(
    tmp_path, capsys, monkeypatch
):
    passed = []  # the fields of each _flagged call
    flagged = cli._flagged

    def recording(make, **fields):
        passed.append(fields)
        return flagged(make, **fields)

    monkeypatch.setattr(cli, "_flagged", recording)
    doc = tmp_path / "doc.json"
    runs = [
        ("construct", "--family", "grid", "--d", "2", "--k", "2", "--out", str(doc)),
        ("construct", "--family", "slicing3d", "--k", "3"),
        ("bounds", "--d", "3", "--k", "3"),
        ("search", "--d", "2", "--k", "2", "--mode", "piercing", "--max-bricks", "4", "--grid", "2"),
        ("export", str(doc), "--format", "svg"),
    ]
    subcommands = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ).choices
    seen = set()
    for command, *argv in runs:
        passed.clear()
        assert run_cli(capsys, command, *argv)[0] == 0
        (fields,) = passed
        options = subcommands[command]._option_string_actions
        assert {cli._FLAGS[f] for f in fields.keys() & cli._FLAGS} <= options.keys()
        seen |= fields.keys()
    assert cli._FLAGS.keys() <= seen  # and no entry is a field that no subcommand passes


def test_a_refusal_of_a_field_the_call_did_not_pass_keeps_its_name(capsys, monkeypatch):
    def raising(d, k):
        raise ValueError("g: x")  # a field of the table, but not one that bounds takes

    monkeypatch.setattr(cli, "bounds", raising)
    assert run_cli(capsys, "bounds", "--d", "3", "--k", "3") == (2, "", "error: g: x\n")


def test_bounds_prints_up_to_the_digit_limit(capsys):
    code, out, err = run_cli(capsys, "bounds", "--d", "4299", "--k", "10")
    assert (code, err) == (0, "") and f"trivial_grid_ub(d=4299, k=10): 1{'0' * 4299}\n" in out
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit
    try:
        code, out, err = run_cli(capsys, "bounds", "--d", "4300", "--k", "10")
    finally:
        sys.set_int_max_str_digits(default)
    assert (code, err) == (0, "") and f"trivial_grid_ub(d=4300, k=10): 1{'0' * 4300}\n" in out


@pytest.mark.parametrize("argv", [
    ("bounds", "--d", "10000000", "--k", "3"),
    ("search", "--d", "4000", "--k", "1", "--mode", "piercing", "--max-bricks", "1", "--grid", "1",
     "--node-budget", "0"),
])  # fmt: skip
def test_refusals_come_before_the_work(capsys, argv):
    # refused before k^d (15.8 M bits) or the search's d·(d-1) axis tuples are built
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 0.1
    assert (code, out) == (2, "") and err.startswith("error: --d: ") and err.count("\n") == 1


def test_export_svg(tmp_path, capsys):
    doc = tmp_path / "p2.json"
    run_cli(capsys, "construct", "--family", "piercing2d", "--k", "3", "--out", str(doc))
    out_file = tmp_path / "fig.svg"
    code, _, _ = run_cli(capsys, "export", str(doc), "--format", "svg", "--out", str(out_file))
    assert code == 0
    assert out_file.read_text().count("<rect") == 8


def test_export_wrong_dimension_exits_2(tmp_path, capsys):
    doc = tmp_path / "p3.json"
    run_cli(capsys, "construct", "--family", "piercing3d", "--k", "3", "--out", str(doc))
    code, _, err = run_cli(capsys, "export", str(doc), "--format", "svg")
    assert code == 2
    assert "error" in err


def test_export_rejects_a_label_that_would_inject_obj_lines(tmp_path, capsys):
    doc, fig = tmp_path / "doc.json", tmp_path / "fig.obj"
    bricks = [[[0, 1], [0, 1], [0, 1]], [[1, 2], [0, 1], [0, 1]]]
    labels = ["evil\nv 9 9 9\nf 1 2 3", "ok"]
    parent = [[0, 2], [0, 1], [0, 1]]
    doc.write_text(json.dumps({"dim": 3, "parent": parent, "bricks": bricks, "labels": labels}))
    code, out, err = run_cli(capsys, "export", str(doc), "--format", "obj", "--out", str(fig))
    assert (code, out) == (2, "")
    assert "labels[0]" in err and not fig.exists()


def test_construct_bad_k_exits_2(capsys):
    code, _, err = run_cli(capsys, "construct", "--family", "piercing3d", "--k", "2")
    assert code == 2
    assert "error" in err


INPUT_ERRORS = {
    "BadAxis", "BadCodimension", "BadDimensionForFormat", "BadK", "DegenerateInterval",
    "DimensionMismatch", "ParseError", "QueryOutsideParent",
}
BRICK_ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.BrickError)
]


def test_input_errors_are_the_value_errors():
    assert {cls.__name__ for cls in BRICK_ERRORS if issubclass(cls, ValueError)} == INPUT_ERRORS


@pytest.mark.parametrize("cls", BRICK_ERRORS, ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_type(capsys, monkeypatch, cls):
    def raising(d, k):
        raise cls("x")

    monkeypatch.setattr(cli, "bounds", raising)
    code, out, err = run_cli(capsys, "bounds", "--d", "3", "--k", "3")
    assert (code, out, err) == (2 if cls.__name__ in INPUT_ERRORS else 1, "", "error: x\n")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--family", "nonsense", "--k", "3"])
    assert exc.value.code == 2


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "/nonexistent/path.json")
    assert code == 2


def test_directory_paths_exit_2(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", str(tmp_path))
    assert code == 2 and err.startswith("error: ")
    code, out, err = run_cli(
        capsys, "construct", "--family", "grid", "--k", "2", "--out", str(tmp_path)
    )
    assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.fixture
def grid_builds(monkeypatch):
    """Count the grids built, wherever a module looks build_grid up."""
    calls = []
    build = geometry.build_grid

    def counting(*args):
        calls.append(args)
        return build(*args)

    for module in (geometry, partition, metrics):
        if hasattr(module, "build_grid"):
            monkeypatch.setattr(module, "build_grid", counting)
    return calls


def test_verify_builds_one_grid(tmp_path, capsys, grid_builds):
    doc = tmp_path / "p4.json"
    code, _, _ = run_cli(capsys, "construct", "--family", "piercing3d", "--k", "4", "--out", str(doc))
    assert code == 0
    grid_builds.clear()
    code, out, _ = run_cli(capsys, "verify", str(doc))
    assert code == 0 and "slicing_number: 12" in out  # validate and both flat counts ran
    assert len(grid_builds) == 1


def test_construct_piercing2d_builds_one_grid(capsys, grid_builds):
    # the self-check runs validate and the piercing oracle on one grid
    assert run_cli(capsys, "construct", "--family", "piercing2d", "--k", "5")[0] == 0
    assert len(grid_builds) == 1


@pytest.mark.parametrize("scalar", ["1e999999999", "1e2", " 3 ", "1_000", "+1"])
def test_verify_rejects_undocumented_scalars_fast(tmp_path, capsys, scalar):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({"dim": 1, "parent": [[0, scalar]], "bricks": [[[0, 2]]]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", str(doc))
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "parent[0][1]" in err


def test_export_rejects_undocumented_exploded_fast(tmp_path, capsys):
    doc = tmp_path / "p3.json"
    assert run_cli(capsys, "construct", "--family", "piercing3d", "--k", "3", "--out", str(doc))[0] == 0
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "export", str(doc), "--format", "obj", "--exploded", "1e999999999")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "not an integer, decimal or p/q scalar" in err
    assert "--exploded" in err


def test_export_precision_is_capped_at_the_scalar_digit_limit(tmp_path, capsys):
    # more places than MAX_SCALAR_DIGITS cannot be printed: rejected at once,
    # naming the option, while the limit itself renders 1/7's 4,300 digits
    doc = tmp_path / "seventh.json"
    doc.write_text(
        '{"dim": 2, "parent": [[0, 1], [0, 1]], '
        '"bricks": [[[0, "1/7"], [0, 1]], [["1/7", 1], [0, 1]]]}\n'
    )
    limit = str(geometry.MAX_SCALAR_DIGITS)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "export", str(doc), "--format", "svg", "--precision", "4301")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: --precision:") and limit in err
    code, out, err = run_cli(capsys, "export", str(doc), "--format", "svg", "--precision", limit)
    assert (code, err) == (0, "")
    places = ("857142" * 717)[: geometry.MAX_SCALAR_DIGITS]  # 48/7, the next digit a 4
    assert f'width="6.{places}"' in out


def test_export_rejects_negative_precision(tmp_path, capsys):
    doc = tmp_path / "p2.json"
    assert run_cli(capsys, "construct", "--family", "piercing2d", "--k", "3", "--out", str(doc))[0] == 0
    code, out, err = run_cli(capsys, "export", str(doc), "--format", "svg", "--precision", "-1")
    assert (code, out) == (2, "")
    assert "--precision" in err


_MALFORMED = st.sampled_from(
    [1.5, 2.0, True, False, None, [1], "1e3", "+1", " 1", "1\n", "1/0", "0x1", "", "½"]
)


@st.composite
def _scalar_text(draw, x: Fraction):
    """x as a JSON int or a decimal or p/q string, canonical or not (x is dyadic)."""
    num, den = x.numerator, x.denominator
    forms = [format_scalar(x), f"{num}/{den}", f"{3 * num}/{3 * den}"]
    if den == 1:
        forms += [num, f"{num}.0"]
    return draw(st.sampled_from(forms))


@st.composite
def verify_documents(draw):
    """A document in d = 1..4 with at most 8 bricks, as JSON-ready data: a
    seeded valid partition or bricks at random half-integer coordinates, all
    scalars in mixed forms, then up to two corruptions."""
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        P = random_split_partition(Random(draw(st.integers(0, 99))), d, draw(st.integers(1, 8)))
        parent, bricks = as_pairs(P.parent), [as_pairs(b) for b in P.members]
    else:
        ends = st.lists(st.integers(0, 8), min_size=2, max_size=2, unique=True)
        halves = ends.map(lambda e: sorted(Fraction(n, 2) for n in e))
        box = st.lists(halves, min_size=d, max_size=d)
        parent, bricks = [(0, 4)] * d, draw(st.lists(box, min_size=1, max_size=8))

    def sides(box):
        return [[draw(_scalar_text(Fraction(c))) for c in side] for side in box]

    boxes = [sides(b) for b in bricks]
    doc = {"dim": d, "parent": sides(parent), "bricks": boxes}
    if draw(st.booleans()):
        doc["labels"] = [f"b{i}" for i in range(len(boxes))]
    for _ in range(draw(st.integers(0, 2))):
        brick = draw(st.sampled_from(boxes))
        side = draw(st.sampled_from(brick))
        kind = draw(st.integers(0, 8))
        if kind == 0:  # a malformed scalar
            side[draw(st.integers(0, 1))] = draw(_MALFORMED)
        elif kind == 1:  # lo >= hi
            side[:] = draw(st.sampled_from([side[::-1], side[:1] * 2]))
        elif kind == 2:  # one side too few or too many
            if len(brick) > 1 and draw(st.booleans()):
                brick.pop()
            else:
                brick.append(side)
        elif kind == 3:  # a required key missing, or an unknown one
            key = draw(st.sampled_from(["dim", "parent", "bricks", "mystery"]))
            if key in doc:
                del doc[key]
            else:
                doc[key] = 1
        elif kind == 4:  # a label with a newline, or one label too many
            doc["labels"] = [f"b{i}" for i in range(len(boxes))]
            doc["labels"][0] += draw(st.sampled_from(["\n", ""]))
            doc["labels"] += draw(st.sampled_from([[], ["extra"]]))
        elif kind == 5:  # a wrong dim
            doc["dim"] = draw(st.sampled_from([0, d + 1, True, "3", 1.0]))
        elif kind == 6:  # a brick dropped or repeated: still parses
            if len(boxes) > 1:
                boxes.pop()
            else:
                boxes.append(brick)
            doc.pop("labels", None)
        elif kind == 7:  # a side pushed past the parent
            side[1] = 9
        else:  # an earlier pair repeated with one token made a boolean, the
            # equal one when the token is 0 or 1, so only its type differs
            pairs = [p for b in [doc.get("parent", []), *boxes] for p in b]
            if len(pairs) > 1:
                i = draw(st.integers(1, len(pairs) - 1))
                pair = pairs[i]
                pair[:] = pairs[draw(st.integers(0, i - 1))]
                end = draw(st.sampled_from([e for e in (0, 1) if pair[e] in (0, 1)] or [0, 1]))
                pair[end] = pair[end] == 1 if pair[end] in (0, 1) else draw(st.booleans())
    return doc


@settings(deadline=2000, max_examples=200)
@given(verify_documents())
def test_verify_on_any_document_exits_cleanly(tmp_path_factory, doc):
    text = json.dumps(doc)
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["verify", str(path)])  # nothing escapes
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if "true" in text or "false" in text:  # a JSON boolean: no string here spells one
        assert code == 2
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert err.endswith("\n")
    else:
        assert err == ""
        assert ("valid: yes" in out) == (code == 0) != ("valid: no" in out)
        P = parse_document(text).to_partition()
        try:
            P.grid
        except BrickOutsideParent:
            return
        assert whole_grid_report(P).valid == (code == 0)
