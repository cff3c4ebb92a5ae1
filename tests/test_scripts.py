"""The scripts in scripts/ import from top-level brickpart; these checks run
each script's main(argv) in-process, which keeps them in step with the
package's export list."""

import importlib
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_on_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    yield
    for name in ("family_tables", "search_small_values"):
        sys.modules.pop(name, None)


def test_family_tables_runs(scripts_on_path, capsys):
    family_tables = importlib.import_module("family_tables")
    assert family_tables.main(["--k-min", "3", "--k-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "3D piercing family: 12k-15 members vs lower bound 12k-16" in out
    assert "3D slicing family: 2k-1 members, matching the lower bound exactly" in out
    assert "2D pinwheel family: 4(k-1) members, matching the lower bound exactly" in out


def test_search_small_values_runs(scripts_on_path, capsys):
    search_small_values = importlib.import_module("search_small_values")
    assert search_small_values.main([]) == 0
    values = [
        line.split(" = ")[1].split()[0]
        for line in capsys.readouterr().out.splitlines()
        if " = " in line
    ]
    assert values == ["4", "8", "8", "4", "5"]
