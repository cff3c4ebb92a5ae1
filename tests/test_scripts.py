"""The scripts in scripts/ import from top-level brickpart; these checks run
each script's main(argv) in-process, which keeps them in step with the
package's export list, and check that every export has a user outside tests."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.fixture
def scripts_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield
    for name in ("family_tables", "search_small_values", "milp_crosscheck"):
        sys.modules.pop(name, None)


def test_family_tables_runs(scripts_on_path, capsys):
    family_tables = importlib.import_module("family_tables")
    assert family_tables.main(["--k-min", "3", "--k-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "3D piercing family: 12k-15 members vs lower bound 12k-16" in out
    assert "3D slicing family: 2k-1 members, matching the lower bound exactly" in out
    assert "2D pinwheel family: 4(k-1) members, matching the lower bound exactly" in out


# Full stdout of `family_tables.py --k-min 3 --k-max 6`, recorded before the
# bounds became a map; it must stay byte-identical.
FAMILY_TABLES_3_6 = """\
3D piercing family: 12k-15 members vs lower bound 12k-16
   k  members     lb  piercing  valid
   3       21     20         3   True
   4       33     32         4   True
   5       45     44         5   True
   6       57     56         6   True

3D slicing family: 2k-1 members, matching the lower bound exactly
   k  members     lb  slicing      F  alpha
   2        4      3        2     16      4
   3        5      5        3     18      3
   4        7      7        4     24      3
   5        9      9        5     30      3
   6       11     11        6     36      3

2D pinwheel family: 4(k-1) members, matching the lower bound exactly
   k  members     lb  piercing
   2        4      4         2
   3        8      8         3
   4       12     12         4
   5       16     16         5
   6       20     20         6
"""


def test_family_tables_output_is_golden(scripts_on_path, capsys):
    family_tables = importlib.import_module("family_tables")
    assert family_tables.main(["--k-min", "3", "--k-max", "6"]) == 0
    assert capsys.readouterr().out == FAMILY_TABLES_3_6


def test_search_small_values_runs(scripts_on_path, capsys):
    search_small_values = importlib.import_module("search_small_values")
    assert search_small_values.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = [line.split(" = ")[1].split()[0] for line in lines if " = " in line]
    assert values == ["4", "8", "8", "4", "5"]
    assert [line for line in lines if "exhaustion scope:" in line] == [
        "  exhaustion scope: g=3, m_max=3 (complete)",
        "  exhaustion scope: g=7, m_max=7 (complete)",
        "  exhaustion scope: g=2, m_max=7 (relative to this grid)",
        "  exhaustion scope: g=3, m_max=3 (complete)",
        "  exhaustion scope: g=4, m_max=4 (complete)",
    ]


def test_milp_crosscheck_runs(scripts_on_path, capsys):
    pytest.importorskip("scipy.optimize")
    milp_crosscheck = importlib.import_module("milp_crosscheck")
    assert milp_crosscheck.main(["--case", "p(2,2)"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("p(2,2) > 3 at g=3: infeasible, as the search says [36 boxes; model ")


def test_every_export_has_a_user_outside_tests():
    # names that only tests need belong in tests/helpers.py; neither a name's
    # own def or class line nor an __init__.py file counts as a use
    init = ast.parse((ROOT / "src" / "brickpart" / "__init__.py").read_text())
    names = [a.name for n in init.body if isinstance(n, ast.ImportFrom) for a in n.names]
    lines = [
        line
        for top in ("src", "scripts", "perfbench")
        for path in (ROOT / top).rglob("*.py")
        if path.name != "__init__.py"
        for line in path.read_text().splitlines()
    ]

    def used(name):
        own = re.compile(rf"\s*(def|class) {name}\b")
        return any(re.search(rf"\b{name}\b", line) and not own.match(line) for line in lines)

    assert len(names) == 40 and [name for name in names if not used(name)] == []
