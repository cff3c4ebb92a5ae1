"""Golden outputs of the CLI, pinned byte for byte.

The expected values were recorded from the implementation that compared
`Fraction` endpoints inside every counting loop. Any change to the grid,
counting or construction code must reproduce them exactly: the `construct`
documents (by sha256), the full `verify` stdout with its exit code, the same
for three seeded random documents corrupted by a gap, an overlap and a member
outside the parent, the SVG/OBJ export bytes of two family documents and
of three exports of seeded random documents (by sha256), the full
`search` and `bounds` stdout with exit codes, the search's node count at
each solution it yields, and one sha256 over the
concatenated documents of each explicit family across its range of k.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from random import Random

import pytest

import brickpart
from brickpart import Interval, emit_document, random_split_partition
from brickpart.constructions import piercing_2d, piercing_3d
from brickpart.io_cli.cli import main
from brickpart.partition import BrickPartition
from brickpart.search import Mode, SearchProblem, _Engine


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    return code, capsys.readouterr().out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def corrupted_document(kind: str) -> str:
    """A seeded random partition with one defect of the given kind."""
    seed, d, n = {"gap": (1, 3, 40), "overlap": (2, 2, 30), "outside": (3, 3, 25)}[kind]
    rng = Random(seed)
    P = random_split_partition(rng, d, n)
    members = list(P.members)
    i = rng.randrange(len(members))
    if kind == "gap":
        del members[i]
    elif kind == "overlap":
        members.append(members[i])
    else:
        side = members[i].sides[0]
        members[i] = members[i].replace_side(0, Interval(side.lo, P.parent.sides[0].hi + 1))
    return emit_document(BrickPartition(P.parent, tuple(members)))


CONSTRUCT_SHA256 = {
    ('piercing3d', 3): 'b11faff5e0875c688ba3e844560ad109f1e9940b05ce8e36a4607540eb6f4210',
    ('piercing3d', 4): '3f992dbf2ec76de4b9dd80547d3db70b380acd03d2e61e5aa18cbe2aa0d9d161',
    ('piercing3d', 10): 'f9af83a1e8bd6e8cc52b45875cf0bb7a87ebf98b789e98dc1d9c77d2fb66d05a',
    ('slicing3d', 2): '94aae0adab61c2d575be0ca13b193167ccb1e79592eae9218e2364acb3a78b5d',
    ('slicing3d', 3): 'd595f59161af17733bf219426bcade3e16efdb5cc794e8672aff8191b8aa721d',
    ('slicing3d', 7): 'a784c2527a4f916d57ea0f24f554a3b530b4648a624a85bb907f7ada9e2ad005',
    ('piercing2d', 2): 'd4e4e48851a0ce606cf61e96d2c420ca3e9e436001d0e96d7ecfd211293bb5ab',
    ('piercing2d', 3): '935a7496883ab023736b360ca4783d81daadff47907d6fc69ecf2722402416ad',
    ('piercing2d', 8): 'c29506aa8f70ed3d0e09b618b7e542cdcf7fb12f28462c9f3bc2263ebd85840f',
}

VERIFY = {
    ('piercing3d', 3): (0, 'dim: 3\nmembers: 21\nvalid: yes\npiercing_number: 3\npiercing_witness: line with free axes {1} at x2=0.5 x3=0.5\nslicing_number: 8\nslicing_witness: plane with free axes {1,2} at x3=0.5\nincidence_F: 48\nincidence_alpha: 0\n'),
    ('piercing3d', 4): (0, 'dim: 3\nmembers: 33\nvalid: yes\npiercing_number: 4\npiercing_witness: line with free axes {1} at x2=1/3 x3=1/3\nslicing_number: 12\nslicing_witness: plane with free axes {1,2} at x3=1/3\nincidence_F: 72\nincidence_alpha: 0\n'),
    ('piercing3d', 10): (0, 'dim: 3\nmembers: 105\nvalid: yes\npiercing_number: 10\npiercing_witness: line with free axes {1} at x2=1/9 x3=1/9\nslicing_number: 36\nslicing_witness: plane with free axes {1,2} at x3=1/9\nincidence_F: 216\nincidence_alpha: 0\n'),
    ('slicing3d', 2): (0, 'dim: 3\nmembers: 4\nvalid: yes\npiercing_number: 1\npiercing_witness: line with free axes {1} at x2=0.5 x3=0.5\nslicing_number: 2\nslicing_witness: plane with free axes {1,2} at x3=0.5\nincidence_F: 16\nincidence_alpha: 4\n'),
    ('slicing3d', 3): (0, 'dim: 3\nmembers: 5\nvalid: yes\npiercing_number: 1\npiercing_witness: line with free axes {1} at x2=1.5 x3=0.5\nslicing_number: 3\nslicing_witness: plane with free axes {1,2} at x3=0.5\nincidence_F: 18\nincidence_alpha: 3\n'),
    ('slicing3d', 7): (0, 'dim: 3\nmembers: 13\nvalid: yes\npiercing_number: 1\npiercing_witness: line with free axes {1} at x2=1.1 x3=0.5\nslicing_number: 7\nslicing_witness: plane with free axes {1,2} at x3=0.5\nincidence_F: 42\nincidence_alpha: 3\n'),
    ('piercing2d', 2): (0, 'dim: 2\nmembers: 4\nvalid: yes\npiercing_number: 2\npiercing_witness: line with free axes {1} at x2=0.5\nincidence_F: 8\nincidence_alpha: 0\n'),
    ('piercing2d', 3): (0, 'dim: 2\nmembers: 8\nvalid: yes\npiercing_number: 3\npiercing_witness: line with free axes {1} at x2=0.5\nincidence_F: 12\nincidence_alpha: 0\n'),
    ('piercing2d', 8): (0, 'dim: 2\nmembers: 28\nvalid: yes\npiercing_number: 8\npiercing_witness: line with free axes {1} at x2=0.5\nincidence_F: 32\nincidence_alpha: 0\n'),
}

CORRUPTED = {
    'gap': ('3dce9a43cb2f2c95b7eaec99e8c7222f7ae364521b47be06737ce4412ab41b3d', (1, 'dim: 3\nmembers: 39\nvalid: no\nfailure: gap at (0.0546875, 0.234375, 7.03125)\n')),
    'overlap': ('c1759b5b5776717b5fe4613107afb92c41382b3facf0a5c6065ad9dcab56e626', (1, 'dim: 2\nmembers: 31\nvalid: no\nfailure: overlap at (5.7578125, 4.9444580078125) members [16, 30]\n')),
    'outside': ('e461dbe441a9017a1d2ccc78a892c8364ecabe00792d3479e36a4dfd877ee7f2', (1, 'dim: 3\nmembers: 25\nvalid: no\nfailure: outside_parent members [18]\n')),
}

EXPORT_SHA256 = {
    ('piercing2d', 4, 'svg'): '36903dca13cb106680c6deba9ac6b79cf92e49cb4bd6813b7af2b62091cbc29f',
    ('piercing3d', 4, 'obj'): 'b21d8aa8db26bc6333e7515876ff0303511ab60398fff5fd76752b338b633bf1',
}

# Exports of seeded random documents (200 members): dyadic coordinates whose
# denominators reach 2^18, so rendering truncates, hits round-half-up ties,
# and with --exploded 1/3 also negative and non-terminating values.
RANDOM_EXPORT_SHA256 = {
    (7, 3, 'obj', ('--exploded', '1/3')): 'ece1423cd4759089db0f0da3057f56da5cacce24f1c827f1413ba011c3786c46',
    (7, 3, 'obj', ('--exploded', '1/3', '--precision', '0')): '8a2ed91ff735194c0e1d2a9d6624ee7d81dc60b815e7f95ff597d345d7e06d67',
    (8, 2, 'svg', ('--precision', '3', '--labels')): '80ac00075ff67b4ac211f5361ab255aeff3ba36269484f6eca3910eaa565b062',
}


SEARCH = {
    (2, 2, 'piercing', 4, 3): (0, 'status: found\nnodes_explored: 30\ngrid_cap: g=3, m_max=4 (relative to this grid)\n{\n  "dim": 2,\n  "parent": [[0, 3], [0, 3]],\n  "bricks": [\n    [[0, 1], [0, 1]],\n    [[0, 1], [1, 3]],\n    [[1, 3], [0, 1]],\n    [[1, 3], [1, 3]]\n  ],\n  "metadata": {"generator": "search", "d": 2, "k": 2, "mode": "piercing", "grid": 3}\n}\n'),
    (2, 2, 'piercing', 3, 3): (0, 'status: exhausted_none\nnodes_explored: 47\ngrid_cap: g=3, m_max=3 (complete)\n'),
    (3, 2, 'piercing', 7, 3): (0, 'status: exhausted_none\nnodes_explored: 54398\ngrid_cap: g=3, m_max=7 (relative to this grid)\n'),
    (3, 2, 'piercing', 8, 2): (0, 'status: found\nnodes_explored: 8\ngrid_cap: g=2, m_max=8 (relative to this grid)\n{\n  "dim": 3,\n  "parent": [[0, 2], [0, 2], [0, 2]],\n  "bricks": [\n    [[0, 1], [0, 1], [0, 1]],\n    [[0, 1], [0, 1], [1, 2]],\n    [[0, 1], [1, 2], [0, 1]],\n    [[0, 1], [1, 2], [1, 2]],\n    [[1, 2], [0, 1], [0, 1]],\n    [[1, 2], [0, 1], [1, 2]],\n    [[1, 2], [1, 2], [0, 1]],\n    [[1, 2], [1, 2], [1, 2]]\n  ],\n  "metadata": {"generator": "search", "d": 3, "k": 2, "mode": "piercing", "grid": 2}\n}\n'),
    # in d = 2, lines and slabs are the same flats under different ids
    (2, 2, 'slicing', 4, 3): (0, 'status: found\nnodes_explored: 30\ngrid_cap: g=3, m_max=4 (relative to this grid)\n{\n  "dim": 2,\n  "parent": [[0, 3], [0, 3]],\n  "bricks": [\n    [[0, 1], [0, 1]],\n    [[0, 1], [1, 3]],\n    [[1, 3], [0, 1]],\n    [[1, 3], [1, 3]]\n  ],\n  "metadata": {"generator": "search", "d": 2, "k": 2, "mode": "slicing", "grid": 3}\n}\n'),
    (3, 2, 'slicing', 4, 3): (0, 'status: found\nnodes_explored: 2787\ngrid_cap: g=3, m_max=4 (relative to this grid)\n{\n  "dim": 3,\n  "parent": [[0, 3], [0, 3], [0, 3]],\n  "bricks": [\n    [[0, 1], [0, 1], [0, 3]],\n    [[0, 1], [1, 3], [0, 3]],\n    [[1, 3], [0, 1], [0, 3]],\n    [[1, 3], [1, 3], [0, 3]]\n  ],\n  "metadata": {"generator": "search", "d": 3, "k": 2, "mode": "slicing", "grid": 3}\n}\n'),
    # the remaining benchmark search ops, p(2,3) m=7 g=6 the largest
    (2, 3, 'piercing', 7, 4): (0, 'status: exhausted_none\nnodes_explored: 2369\ngrid_cap: g=4, m_max=7 (relative to this grid)\n'),
    (2, 3, 'piercing', 8, 4): (0, 'status: found\nnodes_explored: 4293\ngrid_cap: g=4, m_max=8 (relative to this grid)\n{\n  "dim": 2,\n  "parent": [[0, 4], [0, 4]],\n  "bricks": [\n    [[0, 1], [0, 2]],\n    [[0, 2], [2, 3]],\n    [[0, 2], [3, 4]],\n    [[1, 2], [0, 2]],\n    [[2, 4], [0, 1]],\n    [[2, 4], [1, 2]],\n    [[2, 3], [2, 4]],\n    [[3, 4], [2, 4]]\n  ],\n  "metadata": {"generator": "search", "d": 2, "k": 3, "mode": "piercing", "grid": 4}\n}\n'),
    (2, 3, 'piercing', 7, 6): (0, 'status: exhausted_none\nnodes_explored: 1359798\ngrid_cap: g=6, m_max=7 (relative to this grid)\n'),
    (3, 2, 'piercing', 7, 2): (0, 'status: exhausted_none\nnodes_explored: 22\ngrid_cap: g=2, m_max=7 (relative to this grid)\n'),
    (3, 2, 'slicing', 3, 2): (0, 'status: exhausted_none\nnodes_explored: 30\ngrid_cap: g=2, m_max=3 (relative to this grid)\n'),
    (3, 2, 'slicing', 4, 2): (0, 'status: found\nnodes_explored: 53\ngrid_cap: g=2, m_max=4 (relative to this grid)\n{\n  "dim": 3,\n  "parent": [[0, 2], [0, 2], [0, 2]],\n  "bricks": [\n    [[0, 1], [0, 1], [0, 2]],\n    [[0, 1], [1, 2], [0, 2]],\n    [[1, 2], [0, 1], [0, 2]],\n    [[1, 2], [1, 2], [0, 2]]\n  ],\n  "metadata": {"generator": "search", "d": 3, "k": 2, "mode": "slicing", "grid": 2}\n}\n'),
    (3, 2, 'slicing', 3, 3): (0, 'status: exhausted_none\nnodes_explored: 724\ngrid_cap: g=3, m_max=3 (complete)\n'),
    (3, 3, 'slicing', 4, 4): (0, 'status: exhausted_none\nnodes_explored: 112934\ngrid_cap: g=4, m_max=4 (complete)\n'),
    (3, 3, 'slicing', 5, 4): (0, 'status: found\nnodes_explored: 78435\ngrid_cap: g=4, m_max=5 (relative to this grid)\n{\n  "dim": 3,\n  "parent": [[0, 4], [0, 4], [0, 4]],\n  "bricks": [\n    [[0, 1], [0, 1], [0, 1]],\n    [[0, 1], [0, 4], [1, 4]],\n    [[0, 4], [1, 4], [0, 1]],\n    [[1, 4], [0, 1], [0, 4]],\n    [[1, 4], [1, 4], [1, 4]]\n  ],\n  "metadata": {"generator": "search", "d": 3, "k": 3, "mode": "slicing", "grid": 4}\n}\n'),
    # larger grids than the benchmark's: the free-move table's keys grow with g^d
    (3, 3, 'slicing', 5, 5): (0, 'status: found\nnodes_explored: 909427\ngrid_cap: g=5, m_max=5 (complete)\n{\n  "dim": 3,\n  "parent": [[0, 5], [0, 5], [0, 5]],\n  "bricks": [\n    [[0, 1], [0, 1], [0, 1]],\n    [[0, 1], [0, 5], [1, 5]],\n    [[0, 5], [1, 5], [0, 1]],\n    [[1, 5], [0, 1], [0, 5]],\n    [[1, 5], [1, 5], [1, 5]]\n  ],\n  "metadata": {"generator": "search", "d": 3, "k": 3, "mode": "slicing", "grid": 5}\n}\n'),
    (2, 3, 'piercing', 7, 7): (0, 'status: exhausted_none\nnodes_explored: 13527892\ngrid_cap: g=7, m_max=7 (complete)\n'),
}

# --no-symmetry: every first box is tried, so the counts exceed the pruned ones
SEARCH_NO_SYMMETRY = {
    (2, 2, 'piercing', 3, 3): (0, 'status: exhausted_none\nnodes_explored: 69\ngrid_cap: g=3, m_max=3 (complete)\n'),
    (3, 2, 'slicing', 3, 3): (0, 'status: exhausted_none\nnodes_explored: 2493\ngrid_cap: g=3, m_max=3 (complete)\n'),
}

# sha256 over one line per solution, in the order the engine yields them:
# the placements counted so far, then the solution's boxes. Pins the node
# count at every solution, not only the total.
SOLUTION_NODES_SHA256 = {
    (2, 1, 'piercing', 9, 3, False): (322, 720, '3d34fcb31671ab454f3046bd41c84a5a87a9cad22b90772a3790d387f81cfb1f'),
    (2, 2, 'piercing', 5, 4, True): (208, 3164, 'ceafa644ddc0b716226e0051b4ab26d3eed1ac64843cf828f86c0c8ebd70378d'),
}

SEARCH_OVER_BUDGET = (1, 'status: resource_limit (node budget 10 exceeded at 11 placements)\n')

BOUNDS = {
    (3, 5): (0, 'elementary_piercing_lb(d=3, k=5): 44\ntrivial_grid_ub(d=3, k=5): 125\nslicing_lb_3d(d=3, k=5): 9\n'),
    (2, 2): (0, 'elementary_piercing_lb(d=2, k=2): 4\ntrivial_grid_ub(d=2, k=2): 4\n'),
}

# sha256 over emit_document(family(k)) concatenated in order of k.
FAMILY_SHA256 = {
    'piercing_2d': (piercing_2d, range(2, 51), 'f0ed634f042204a336c0e6e42ad238d1ac6897f736271c0d84e340a42ab67135'),
    'piercing_3d': (piercing_3d, range(3, 51), '7ab7518c573d1173816da3cbba9afd24b4461bcd45580d7ae1b524e598fa78ea'),
}


@pytest.mark.parametrize("family, k", sorted(CONSTRUCT_SHA256))
def test_construct_and_verify_are_golden(tmp_path, capsys, family, k):
    doc = tmp_path / "doc.json"
    assert run_cli(capsys, "construct", "--family", family, "--k", k, "--out", doc) == (0, "")
    assert sha256(doc.read_bytes()) == CONSTRUCT_SHA256[family, k]
    assert run_cli(capsys, "verify", doc) == VERIFY[family, k]


@pytest.mark.parametrize("kind", sorted(CORRUPTED))
def test_corrupted_documents_are_golden(tmp_path, capsys, kind):
    doc = tmp_path / "doc.json"
    text = corrupted_document(kind)
    doc.write_text(text)
    expected_sha, expected_verify = CORRUPTED[kind]
    assert sha256(text.encode()) == expected_sha
    assert run_cli(capsys, "verify", doc) == expected_verify


@pytest.mark.parametrize("family, k, fmt", sorted(EXPORT_SHA256))
def test_exports_are_golden(tmp_path, capsys, family, k, fmt):
    doc, fig = tmp_path / "doc.json", tmp_path / "fig"
    run_cli(capsys, "construct", "--family", family, "--k", k, "--out", doc)
    extra = ("--exploded", "1/4") if fmt == "obj" else ("--labels",)
    assert run_cli(capsys, "export", doc, "--format", fmt, *extra, "--out", fig) == (0, "")
    assert sha256(fig.read_bytes()) == EXPORT_SHA256[family, k, fmt]


@pytest.mark.parametrize("seed, d, fmt, extra", sorted(RANDOM_EXPORT_SHA256))
def test_random_document_exports_are_golden(tmp_path, capsys, seed, d, fmt, extra):
    doc, fig = tmp_path / "doc.json", tmp_path / "fig"
    doc.write_text(emit_document(random_split_partition(Random(seed), d, 200)))
    assert run_cli(capsys, "export", doc, "--format", fmt, *extra, "--out", fig) == (0, "")
    assert sha256(fig.read_bytes()) == RANDOM_EXPORT_SHA256[seed, d, fmt, extra]


@pytest.mark.parametrize("d, k, mode, m, g", sorted(SEARCH))
def test_search_is_golden(capsys, d, k, mode, m, g):
    args = ("--d", d, "--k", k, "--mode", mode, "--max-bricks", m, "--grid", g)
    assert run_cli(capsys, "search", *args) == SEARCH[d, k, mode, m, g]


@pytest.mark.parametrize("d, k, mode, m, g", sorted(SEARCH_NO_SYMMETRY))
def test_search_without_symmetry_is_golden(capsys, d, k, mode, m, g):
    args = ("--d", d, "--k", k, "--mode", mode, "--max-bricks", m, "--grid", g)
    assert run_cli(capsys, "search", *args, "--no-symmetry") == SEARCH_NO_SYMMETRY[d, k, mode, m, g]


@pytest.mark.parametrize("d, k, mode, m, g, symmetry", sorted(SOLUTION_NODES_SHA256))
def test_solution_node_counts_are_golden(d, k, mode, m, g, symmetry):
    engine = _Engine(SearchProblem(d, k, Mode(mode), m, g, symmetry_pruning=symmetry))
    lines = "".join(f"{engine.nodes} {boxes}\n" for boxes in engine.solutions())
    expected = SOLUTION_NODES_SHA256[d, k, mode, m, g, symmetry]
    assert (lines.count("\n"), engine.nodes, sha256(lines.encode())) == expected


def test_search_over_budget_is_golden(capsys):
    args = ("--d", 2, "--k", 3, "--mode", "piercing", "--max-bricks", 8, "--grid", 4)
    assert run_cli(capsys, "search", *args, "--node-budget", 10) == SEARCH_OVER_BUDGET


def test_search_over_budget_on_a_large_grid_stops_fast(capsys):
    # the budget must bound the move table too, not only the placements
    args = ("--d", 3, "--k", 2, "--mode", "piercing", "--max-bricks", 2, "--grid", 12)
    start = time.perf_counter()
    assert run_cli(capsys, "search", *args, "--node-budget", 10) == SEARCH_OVER_BUDGET
    assert time.perf_counter() - start < 2.0


def test_search_set_up_is_bounded_by_the_budget(capsys):
    # [0,128]^3 has 2^21 cells and 3 * 128^2 lines: nothing built before the
    # first placement may grow with them (no cell-row table, no slack per flat)
    args = ("--d", 3, "--k", 2, "--mode", "piercing", "--max-bricks", 2, "--grid", 128)
    gc.collect()  # earlier tests' garbage is not collected inside the timed call
    start = time.perf_counter()
    assert run_cli(capsys, "search", *args, "--node-budget", 10) == SEARCH_OVER_BUDGET
    assert time.perf_counter() - start < 0.1
    tracemalloc.start()
    try:
        assert run_cli(capsys, "search", *args, "--node-budget", 10) == SEARCH_OVER_BUDGET
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


@pytest.mark.parametrize("d, k", sorted(BOUNDS))
def test_bounds_are_golden(capsys, d, k):
    assert run_cli(capsys, "bounds", "--d", d, "--k", k) == BOUNDS[d, k]


def test_the_module_entry_point_exits_with_the_cli_code():
    # `python -m brickpart` runs __main__.py, whose sys.exit passes main's code on
    path = [str(Path(brickpart.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}

    def run(*argv):
        argv = [sys.executable, "-m", "brickpart", *argv]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        return done.returncode, done.stdout, done.stderr

    assert run("bounds", "--d", "3", "--k", "5") == (*BOUNDS[3, 5], "")
    assert run("bounds", "--d", "3", "--k", "1") == (2, "", "error: --k: bounds are defined for k >= 2\n")


@pytest.mark.parametrize("name", sorted(FAMILY_SHA256))
def test_family_documents_are_golden(name):
    family, ks, expected = FAMILY_SHA256[name]
    text = "".join(emit_document(family(k)) for k in ks)
    assert sha256(text.encode()) == expected
