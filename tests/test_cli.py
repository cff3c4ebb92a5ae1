import argparse
import ast
import gc
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
import weakref
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brickpart import (
    BrickOutsideParent,
    ResourceLimit,
    emit_document,
    errors,
    format_scalar,
    geometry,
    metrics,
    parse_document,
    partition,
    piercing_3d,
    random_split_partition,
)
from brickpart.io_cli import cli
from brickpart.io_cli.cli import main

from helpers import as_pairs, int_max_str_digits, int_refusal, whole_grid_report


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
    assert err == f"error: invalid JSON: {int_refusal('1' * 5000)}\n"


def test_verify_refuses_a_quoted_integer_over_the_interpreters_digit_limit(tmp_path, capsys):
    doc = tmp_path / "long.json"
    doc.write_text('{"dim":1,"parent":[[0,"' + "1" * 1000 + '"]],"bricks":[[[0,1]]]}')
    with int_max_str_digits(640):
        code, out, err = run_cli(capsys, "verify", str(doc))
        message = int_refusal("1" * 1000)
    assert (code, out) == (2, "")
    assert err == f"error: parent[0][1]: {message}\n" and "(640 digits)" in message


def test_verify_reads_quoted_and_bare_integers_alike_with_no_digit_limit(tmp_path, capsys):
    doc, side = tmp_path / "long.json", "1" * 5000
    results = []
    for text in (f'"{side}"', side):
        doc.write_text('{"dim":1,"parent":[[0,' + text + ']],"bricks":[[[0,' + text + ']]]}')
        with int_max_str_digits(0):  # no limit
            results.append(run_cli(capsys, "verify", str(doc)))
    code, out, err = results[0]
    assert results[1] == results[0] and (code, err) == (0, "")
    assert out.startswith("dim: 1\nmembers: 1\nvalid: yes\n")


def run_cli_as_with_no_digit_limit(capsys, *args):
    """run_cli, checked to give what the same run gives with no int <-> str limit."""
    result = run_cli(capsys, *args)
    with int_max_str_digits(0):
        assert run_cli(capsys, *args) == result
    return result


# a and b each have 4,298-digit terms, under the limit; (a + b)/2 has longer ones
_A = Fraction(10**4297, 3 * 10**4297 + 1)
_B = Fraction(2 * 10**4297, 3 * 10**4297 + 7)


def _ratio_document(path, bricks):
    texts = {x: f'"{x.numerator}/{x.denominator}"' for x in (_A, _B)}
    sides = [", ".join(f"[{texts.get(lo, lo)}, {texts.get(hi, hi)}]" for lo, hi in b) for b in bricks]
    path.write_text('{"dim": 2, "parent": [[0, 1], [0, 1]], "bricks": [[' + "], [".join(sides) + "]]}")


def test_verify_prints_a_gap_between_long_ratios(tmp_path, capsys):
    doc = tmp_path / "gap.json"
    _ratio_document(doc, [((0, _A), (0, 1)), ((_B, 1), (0, 1))])
    code, out, err = run_cli_as_with_no_digit_limit(capsys, "verify", str(doc))
    mid = (_A + _B) / 2
    with int_max_str_digits(0):
        gap = f"failure: gap at ({mid.numerator}/{mid.denominator}, 0.5)\n"
    assert (code, out, err) == (1, "dim: 2\nmembers: 2\nvalid: no\n" + gap, "")


def test_verify_prints_a_witness_between_long_ratios(tmp_path, capsys):
    doc, half = tmp_path / "valid.json", '"1/2"'
    _ratio_document(doc, [((0, _A), (0, half)), ((0, _A), (half, 1)), ((_A, _B), (0, 1)),
                          ((_B, 1), (0, half)), ((_B, 1), (half, 1))])
    code, out, err = run_cli_as_with_no_digit_limit(capsys, "verify", str(doc))
    mid = (_A + _B) / 2
    with int_max_str_digits(0):
        witness = f"line with free axes {{2}} at x1={mid.numerator}/{mid.denominator}"
    assert (code, err) == (0, "")
    assert f"valid: yes\npiercing_number: 1\npiercing_witness: {witness}\n" in out


def test_verify_prints_a_gap_between_long_decimals(tmp_path, capsys):
    doc, places = tmp_path / "gap.json", 4300  # the midpoint has one place more
    lo, hi = "0." + "1" * places, "0." + "2" * places
    doc.write_text(f'{{"dim": 1, "parent": [[0, 1]], "bricks": [[[0, "{lo}"]], [["{hi}", 1]]]}}')
    code, out, err = run_cli_as_with_no_digit_limit(capsys, "verify", str(doc))
    gap = "0.1" + "6" * (places - 2) + "65"
    assert (code, out, err) == (1, f"dim: 1\nmembers: 2\nvalid: no\nfailure: gap at ({gap})\n", "")


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
    (("construct", "--family", "grid", "--d", "40", "--k", "2"), "--k",
     "k^d = 2^40 members exceed the 629145 corners validation can check"),
    (("construct", "--family", "grid", "--d", "3", "--k", "204"), "--k",
     "k^d = 204^3 members exceed the 8388608 corners validation can check"),
    (("construct", "--family", "piercing3d", "--k", "699052"), "--k",
     "12k-15 = 8388609 members exceed the 8388608 corners validation can check"),
    (("construct", "--family", "slicing3d", "--k", "4194305"), "--k",
     "2k-1 = 8388609 members exceed the 8388608 corners validation can check"),
    (("construct", "--family", "piercing2d", "--k", "2097154"), "--k",
     "4(k-1) = 8388612 members exceed the 8388608 corners validation can check"),
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
    with int_max_str_digits(0):  # no limit
        code, out, err = run_cli(capsys, "bounds", "--d", "4300", "--k", "10")
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


ACCENTED_PLANE = json.dumps({
    "dim": 2, "parent": [[0, 2], [0, 1]], "bricks": [[[0, 1], [0, 1]], [[1, 2], [0, 1]]],
    "labels": ["é", "Straße"],
}, ensure_ascii=False)  # fmt: skip


def test_export_writes_a_figure_to_a_text_only_stdout(tmp_path):
    # an in-process caller may capture stdout in a StringIO, which has no byte buffer
    plane, solid = tmp_path / "plane.json", tmp_path / "solid.json"
    plane.write_text(ACCENTED_PLANE, encoding="utf-8")
    assert main(["construct", "--family", "piercing3d", "--k", "3", "--out", str(solid)]) == 0
    texts = []
    for doc, figure in ((plane, ["--format", "svg", "--labels"]), (solid, ["--format", "obj"])):
        out_file = tmp_path / "figure"
        assert main(["export", str(doc), *figure, "--out", str(out_file)]) == 0
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["export", str(doc), *figure])
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue().encode("utf-8") == out_file.read_bytes()
        texts.append(out.getvalue())
    assert ">Straße</text>" in texts[0] and texts[1].startswith("# brick partition, ")


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


INPUT_ERRORS = {"ParseError"}
BRICK_ERRORS = [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.BrickError)
]


def test_input_errors_are_the_value_errors():
    assert {cls.__name__ for cls in BRICK_ERRORS if issubclass(cls, ValueError)} == INPUT_ERRORS


def test_errors_defines_one_type_per_kind_of_refusal():
    assert {cls.__name__ for cls in BRICK_ERRORS} == {
        "BrickError", "BrickOutsideParent", "ConstructionInvalid", "ResourceLimit", "ParseError"
    }


def _raised_names():
    """(file under brickpart/, raised name) for every `raise X` or `raise X(...)`
    in the package's source."""
    root = Path(errors.__file__).parent
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                yield path.relative_to(root).as_posix(), name


def test_no_setting_outside_the_command_line_decides_what_is_read_or_accepted():
    # a file is read and written as UTF-8 in any locale; int() alone enforces the
    # digit limit on input, so only `bounds`' printing cost and emission's round
    # trip consult it
    root = Path(errors.__file__).parent
    unencoded, limit_reads = [], set()
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            scope = getattr(top, "name", None)  # the top-level function or class
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called in ("read_text", "write_text", "open"):
                    if all(keyword.arg != "encoding" for keyword in node.keywords):
                        unencoded.append(f"{name}:{node.lineno}")
                if called == "get_int_max_str_digits":
                    limit_reads.add(f"{name}:{scope}")
    assert unencoded == []
    assert limit_reads == {"io_cli/cli.py:_printable_bounds", "io_cli/document.py:PartitionDocument"}


def test_only_main_switches_the_garbage_collector():
    # one owner of the collector policy: no library function pauses, freezes or retunes it
    root = Path(errors.__file__).parent
    switches = {"disable", "enable", "freeze", "set_threshold"}
    sites = []
    for path in sorted(root.rglob("*.py")):
        name = path.relative_to(root).as_posix()
        for top in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            scope = getattr(top, "name", None)  # the top-level function or class
            for node in ast.walk(top):  # a renamed gc or function would hide a switch
                if isinstance(node, ast.ImportFrom) and node.module == "gc":
                    sites.append((f"{name}:{scope}", "from gc import"))
                elif isinstance(node, ast.Import):
                    renamed = [alias for alias in node.names if alias.name == "gc" and alias.asname]
                    sites += [(f"{name}:{scope}", "import gc as")] * len(renamed)
                elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    func = node.func
                    if isinstance(func.value, ast.Name) and func.value.id == "gc":
                        if func.attr in switches:
                            sites.append((f"{name}:{scope}", func.attr))
    assert sorted(sites) == [("io_cli/cli.py:main", "disable"), ("io_cli/cli.py:main", "enable")]


def test_only_the_document_reader_raises_parse_error_and_no_parameter_is_a_lookup_error():
    # a bad document is a located ParseError; a bad parameter, from any API, a ValueError
    raised = list(_raised_names())
    assert {f for f, name in raised if name == "ParseError"} == {"io_cli/document.py"}
    assert [(f, n) for f, n in raised if n in ("IndexError", "KeyError", "LookupError")] == []
    assert {"ValueError", "ResourceLimit", "ConstructionInvalid"} <= {n for _, n in raised}


@pytest.mark.parametrize("cls", [*BRICK_ERRORS, ValueError], ids=lambda cls: cls.__name__)
def test_exit_code_follows_the_error_type(capsys, monkeypatch, cls):
    def raising(d, k):
        raise cls("x")

    monkeypatch.setattr(cli, "bounds", raising)
    code, out, err = run_cli(capsys, "bounds", "--d", "3", "--k", "3")
    expected = 2 if cls is ValueError or cls.__name__ in INPUT_ERRORS else 1
    assert (code, out, err) == (expected, "", "error: x\n")


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


def test_deep_nesting_is_a_parse_error(tmp_path, capsys):
    doc = tmp_path / "deep.json"
    doc.write_text("[" * 100_000 + "]" * 100_000)  # deeper than json.loads recurses by default
    for argv in (["verify", str(doc)], ["export", str(doc), "--format", "svg"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid JSON: ") and err.count("\n") == 1


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


def test_verify_names_the_place_of_a_degenerate_side(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    bricks = [[[0, 2], [0, 2]], [[1, 1], [0, 1]]]
    doc.write_text(json.dumps({"dim": 2, "parent": [[0, 2], [0, 2]], "bricks": bricks}))
    code, out, err = run_cli(capsys, "verify", str(doc))
    assert (code, out, err) == (2, "", "error: bricks[1][0]: need lo < hi, got [1, 1]\n")


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


def test_export_precision_is_capped_at_the_interpreters_digit_limit(tmp_path, capsys):
    # the cap is a fixed 4,300 places whatever the digit limit (0: no limit)
    doc, out_path = tmp_path / "s2.json", tmp_path / "s2.obj"
    assert run_cli(capsys, "construct", "--family", "slicing3d", "--k", "2", "--out", str(doc))[0] == 0
    export = ("export", str(doc), "--format", "obj", "--exploded", "1/3", "--out", str(out_path))
    msg = "error: --precision: decimal places must be >= 0 and <= 4300, got 4301\n"
    figures = set()
    for limit in (640, 0, 9000):
        with int_max_str_digits(limit):
            refused = run_cli(capsys, *export, "--precision", "4301")
            accepted = run_cli(capsys, *export, "--precision", "4300")
        assert (refused, accepted) == ((2, "", msg), (0, "", ""))
        figures.add(out_path.read_bytes())
    first = figures.pop().decode().split("\n")[2]  # the first vertex, moved by -1/6 on y and z
    assert (figures, first) == (set(), f"v 0.{'0' * 4300}" + f" -0.1{'6' * 4298}7" * 2)


def test_export_writes_the_same_figure_at_any_digit_limit(tmp_path, capsys):
    # 1,000 places under a limit of 640 renders what no limit renders
    doc = tmp_path / "s2.json"
    assert run_cli(capsys, "construct", "--family", "slicing3d", "--k", "2", "--out", str(doc))[0] == 0
    export = ("export", str(doc), "--format", "obj", "--exploded", "1/3", "--precision", "1000")
    runs = []
    for limit in (640, 0, 4300):
        with int_max_str_digits(limit):
            runs.append(run_cli(capsys, *export))
    assert runs[0] == runs[1] == runs[2] and runs[0][::2] == (0, "")
    assert runs[0][1].split("\n")[2] == f"v 0.{'0' * 1000}" + f" -0.1{'6' * 998}7" * 2


def test_export_svg_prints_a_width_past_the_digit_limit(tmp_path, capsys):
    doc, side = tmp_path / "big.json", 10**4300 - 1  # 4,300 nines: the most a document may have
    with int_max_str_digits(0):
        text, width = str(side), str(48 * side)
    doc.write_text(f'{{"dim": 2, "parent": [[0, {text}], [0, 1]], "bricks": [[[0, {text}], [0, 1]]]}}')
    code, out, err = run_cli_as_with_no_digit_limit(capsys, "export", str(doc), "--format", "svg")
    assert (code, err) == (0, "")
    assert f'width="{width}" height="48"' in out


def test_export_obj_explodes_by_a_factor_at_the_digit_limit(tmp_path, capsys):
    doc = tmp_path / "p3.json"
    assert run_cli(capsys, "construct", "--family", "piercing3d", "--k", "3", "--out", str(doc))[0] == 0
    export = ("export", str(doc), "--format", "obj", "--exploded", "9" * 4300)
    code, out, err = run_cli_as_with_no_digit_limit(capsys, *export)
    assert (code, err) == (0, "")
    assert out.startswith("# brick partition, ")


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


# Run in a fresh interpreter: records every ArgumentParser made while main runs
# a command, prints help, reports a usage error and runs a command again.
COUNT_PARSERS = """
import argparse, io
from contextlib import redirect_stderr, redirect_stdout
from brickpart.io_cli import cli

progs, init = [], argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    progs.append(kwargs.get("prog"))
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
codes, bounds = [], ["bounds", "--d", "3", "--k"]
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    for argv in ([*bounds, "2"], ["--help"], ["bounds", "--d"], [*bounds, "3"]):
        try:
            codes.append(cli.main(argv))
        except SystemExit as e:
            codes.append(e.code)
print(codes, progs)
"""


def test_main_calls_in_one_process_build_one_parser_tree():
    path = [str(Path(cli.__file__).parent.parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [sys.executable, "-c", COUNT_PARSERS]
    done = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    commands = ("construct", "verify", "bounds", "search", "export")
    tree = ["brickpart", *(f"brickpart {c}" for c in commands)]
    assert done.stdout == f"{[0, 0, 2, 0]} {tree}\n"


def test_a_shared_parser_keeps_no_defaults_between_calls(capsys):
    search = "search --d 2 --k 2 --mode piercing --max-bricks 3 --grid 3".split()
    code, out, _ = run_cli(capsys, *search, "--no-symmetry")
    assert code == 0 and "nodes_explored: 69\n" in out
    code, out, _ = run_cli(capsys, *search)
    assert code == 0 and "nodes_explored: 47\n" in out


def test_help_and_usage_errors_read_the_same_on_every_call():
    def run(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as done:
            parse(argv)
        return done.value.code, out.getvalue(), err.getvalue()

    fresh = [run(cli.build_parser().parse_args, argv) for argv in (["--help"], ["search", "--d"])]
    for _ in range(2):
        assert [run(main, ["--help"]), run(main, ["search", "--d"])] == fresh
    assert fresh[0][0] == 0 and fresh[0][1].startswith("usage: brickpart ")
    assert fresh[1][0] == 2 and "error: argument --d: expected one argument" in fresh[1][2]


def test_a_command_patched_after_the_first_call_is_the_one_that_runs(capsys, monkeypatch):
    assert run_cli(capsys, "bounds", "--d", "2", "--k", "2")[0] == 0
    files = []

    def patched(args):
        files.append(args.file)
        return 7

    monkeypatch.setattr(cli, "_cmd_verify", patched)
    assert run_cli(capsys, "verify", "doc.json") == (7, "", "")
    assert files == ["doc.json"]


def test_verify_and_export_read_a_utf8_document_in_any_locale(tmp_path):
    # JSON text is UTF-8 (RFC 8259): a raw non-ASCII label reads the same in the C locale
    doc = tmp_path / "accents.json"
    doc.write_bytes(
        '{"dim": 2, "parent": [[0, 2], [0, 1]], '
        '"bricks": [[[0, 1], [0, 1]], [[1, 2], [0, 1]]], "labels": ["é", "Straße"]}\n'.encode()
    )
    path = [str(Path(cli.__file__).parent.parent.parent), os.environ.get("PYTHONPATH")]
    base = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    locales = [{"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}, {"PYTHONUTF8": "1"}]
    for argv in (["verify"], ["export", "--format", "svg", "--labels"]):
        runs = []
        for env in locales:
            command = [sys.executable, "-m", "brickpart", argv[0], str(doc), *argv[1:]]
            done = subprocess.run(command, env={**base, **env}, capture_output=True)
            runs.append((done.returncode, done.stdout, done.stderr))
        assert runs[0] == runs[1] and runs[0][::2] == (0, b"")
    assert ">Straße</text>".encode() in runs[0][1]


def test_a_found_search_prints_its_status_before_the_witness_on_a_buffered_stdout(capsys):
    # a pipe without PYTHONUNBUFFERED buffers the printed lines; the witness goes
    # to the byte stream beneath them, so the writer flushes them first
    args = ["search", "--d", "2", "--k", "2", "--mode", "piercing", "--max-bricks", "4",
            "--grid", "3"]  # fmt: skip
    path = [str(Path(cli.__file__).parent.parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-m", "brickpart", *args], env=env, capture_output=True)
    code, out, _ = run_cli(capsys, *args)
    assert (done.returncode, done.stdout, done.stderr) == (code, out.encode(), b"")
    lines = out.split("\n")
    assert lines[0] == "status: found" and lines[3] == "{"  # nodes_explored and grid_cap between


def test_main_pauses_the_collector_for_the_command_alone(capsys, monkeypatch):
    seen, disables, disable = [], [], gc.disable

    def recording(args):
        seen.append(gc.isenabled())
        if args.d:
            raise (ResourceLimit, ValueError, RuntimeError)[args.d - 1]("x")
        return 0

    def counted_disable():
        disables.append(True)
        disable()

    monkeypatch.setattr(cli, "_cmd_bounds", recording)
    monkeypatch.setattr(gc, "disable", counted_disable)
    bounds = ["bounds", "--k", "2", "--d"]
    try:
        gc.enable()
        for d, code in ((0, 0), (1, 1), (2, 2)):
            assert run_cli(capsys, *bounds, str(d))[0] == code and gc.isenabled()
        with pytest.raises(RuntimeError):
            main([*bounds, "3"])
        assert gc.isenabled() and seen == [False] * 4 and len(disables) == 4
        with pytest.raises(SystemExit) as usage:  # argparse exits before any command runs
            main(bounds)
        assert usage.value.code == 2 and gc.isenabled() and len(disables) == 4
        capsys.readouterr()
        gc.disable()  # a caller who paused the collector keeps it paused
        assert run_cli(capsys, *bounds, "0")[0] == 0 and not gc.isenabled()
        with pytest.raises(RuntimeError):
            main([*bounds, "3"])
        assert not gc.isenabled() and seen == [False] * 6
    finally:
        gc.enable()


def _write_cycle_check_documents(folder: Path) -> None:
    (folder / "valid.json").write_text(emit_document(piercing_3d(3)), encoding="utf-8")
    (folder / "plane.json").write_text(ACCENTED_PLANE, encoding="utf-8")
    one_axis = {"gap": [[[0, 1]]], "outside": [[[0, 1]], [[1, 3]]]}
    for name, bricks in one_axis.items():
        document = {"dim": 1, "parent": [[0, 2]], "bricks": bricks}
        (folder / f"{name}.json").write_text(json.dumps(document), encoding="utf-8")
    broken = '{"dim": 1, "parent": [[0, 2]], "bricks": [[[0, 1'
    (folder / "broken.json").write_text(broken, encoding="utf-8")


_SEARCH = ["search", "--d", "2", "--mode", "piercing"]


@pytest.mark.parametrize("argv, code", [
    (["construct", "--family", "grid", "--d", "2", "--k", "3"], 0),
    *((["construct", "--family", family, "--k", "3"], 0)
      for family in ("piercing2d", "piercing3d", "slicing3d")),
    (["verify", "valid.json"], 0),
    (["verify", "gap.json"], 1),
    (["verify", "outside.json"], 1),
    (["verify", "broken.json"], 2),
    (["verify", "missing.json"], 2),
    (["export", "plane.json", "--format", "svg", "--labels"], 0),
    (["export", "valid.json", "--format", "obj", "--exploded", "1/3"], 0),
    (["export", "plane.json", "--format", "svg", "--precision", "-1"], 2),
    (["bounds", "--d", "3", "--k", "5"], 0),
    ([*_SEARCH, "--k", "2", "--max-bricks", "4", "--grid", "3"], 0),  # found
    ([*_SEARCH, "--k", "2", "--max-bricks", "3", "--grid", "3"], 0),  # exhausted
    ([*_SEARCH, "--k", "3", "--max-bricks", "7", "--grid", "4", "--node-budget", "5"], 1),
    (["construct", "--family", "piercing3d", "--k", "1"], 2),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)  # fmt: skip
def test_each_command_leaves_no_cyclic_garbage(tmp_path, monkeypatch, argv, code):
    # the premise of main's pause: reference counting alone frees all a command made
    _write_cycle_check_documents(tmp_path)
    monkeypatch.chdir(tmp_path)
    cli._parser()  # the shared parser's own cycles are made once, outside the pause
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.disable()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            assert main(argv) == code
        assert gc.collect() == 0
    finally:
        gc.enable()
