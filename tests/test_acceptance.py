"""Acceptance suite: one test per criterion, exact-integer assertions, with
the stated runtime caps enforced. Run with `pytest tests/test_acceptance.py -v -s`
to see one pass line per criterion.
"""

import time
from random import Random

from brickpart import (
    BoundKind,
    BrickPartition,
    FailureKind,
    Mode,
    SearchProblem,
    SearchStatus,
    boundary_incidence,
    bounds,
    exists_partition,
    min_flat_count,
    piercing_number,
    refine,
    slicing_number,
    validate,
)
from brickpart.constructions import (
    elementary_piercing_lb,
    grid_partition,
    piercing_2d,
    piercing_3d,
    slicing_3d,
)
from brickpart.io_cli import FigureFormat, emit_document, export_figure, parse_document

from helpers import (
    as_pairs,
    brute_force_min_flat,
    parent_corners_contained,
    random_monotone_remap,
    random_refine_plan,
)

ANCHOR_2D_K3 = {
    ((0, 2), (0, 1)),
    ((3, 4), (0, 2)),
    ((2, 4), (3, 4)),
    ((0, 1), (2, 4)),
    ((2, 3), (0, 2)),
    ((2, 4), (2, 3)),
    ((1, 2), (2, 4)),
    ((0, 2), (1, 2)),
}


def _report(n, label, t0, limit):
    elapsed = time.perf_counter() - t0
    print(f"ACCEPTANCE {n} ({label}): PASS in {elapsed:.1f}s (limit {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_1_piercing_3d_reproduction():
    t0 = time.perf_counter()
    for k in range(3, 51):
        P = piercing_3d(k)
        assert validate(P).valid
        assert len(P) == 12 * k - 15
        assert piercing_number(P) == k  # >= k guaranteed; equality is the oracle finding
    _report(1, "12k-15 family, k=3..50", t0, 30.0)


def test_criterion_2_slicing_3d_reproduction():
    t0 = time.perf_counter()
    P2 = slicing_3d(2)
    assert len(P2) == 4 and slicing_number(P2) == 2
    for k in range(3, 201):
        P = slicing_3d(k)
        assert len(P) == 2 * k - 1
        assert slicing_number(P) == k
    _report(2, "2k-1 family, k=2..200", t0, 30.0)


def test_criterion_3_bounds_conformance():
    t0 = time.perf_counter()
    for k in range(3, 51):
        lb = bounds(3, k)[BoundKind.ELEMENTARY_PIERCING_LB]
        assert lb == 12 * k - 16
        assert len(piercing_3d(k)) == lb + 1
    for k in range(2, 51):
        assert bounds(2, k)[BoundKind.ELEMENTARY_PIERCING_LB] == 4 * (k - 1)
        assert len(piercing_2d(k)) == 4 * (k - 1)
    for d in range(1, 7):
        lb = bounds(d, 2)[BoundKind.ELEMENTARY_PIERCING_LB]
        ub = bounds(d, 2)[BoundKind.TRIVIAL_GRID_UB]
        assert lb == ub == 2**d
    _report(3, "closed-form bounds", t0, 120.0)


def test_criterion_4_piercing_2d_family():
    t0 = time.perf_counter()
    for k in range(2, 51):
        P = piercing_2d(k)  # self-verifies: validate + piercing_number == k
        assert len(P) == 4 * (k - 1)
    got = {as_pairs(b) for b in piercing_2d(3).members}
    assert got == ANCHOR_2D_K3
    _report(4, "pinwheel family, k=2..50", t0, 60.0)


def test_criterion_5_search_oracle_small_values():
    t0 = time.perf_counter()
    cases = [
        # name, d, k, mode, exhaust_at_m, its grid, the witness's grid, proven_minimum
        ("p(2,2)", 2, 2, Mode.PIERCING, 3, 3, 3, 4),
        ("p(2,3)", 2, 3, Mode.PIERCING, 7, 7, 4, 8),
        ("p(3,2)", 3, 2, Mode.PIERCING, 7, 2, 2, 8),
        ("s(3,2)", 3, 2, Mode.SLICING, 3, 3, 2, 4),
        ("s(3,3)", 3, 3, Mode.SLICING, 4, 4, 4, 5),
    ]
    for name, d, k, mode, m_none, g, g_found, proven in cases:
        run_start = time.perf_counter()
        problem = SearchProblem(d, k, mode, m_none, g)
        # exhaustion at g >= m_none covers every partition; p(3,2)'s cube g=7
        # is out of the uniform search's reach, so its proof is grid-relative
        assert problem.proof_complete is (name != "p(3,2)"), name
        out = exists_partition(problem)
        assert out.status is SearchStatus.EXHAUSTED_NONE, name
        found = exists_partition(SearchProblem(d, k, mode, m_none + 1, g_found))
        assert found.status is SearchStatus.FOUND, name
        assert len(found.witness) == proven
        assert validate(found.witness).valid
        metric = piercing_number if mode is Mode.PIERCING else slicing_number
        assert metric(found.witness) >= k
        # exhaustion must agree exactly with the proven lower bound
        if mode is Mode.PIERCING:
            assert elementary_piercing_lb(d, k) == proven == m_none + 1
        elif k >= 3:
            assert bounds(3, k)[BoundKind.SLICING_LB_3D] == proven == m_none + 1
        else:
            # s(3,2) = 4 rests on the corner argument; the 2k-1 formula only
            # gives 3 and must stay consistent with the search result
            assert bounds(3, 2)[BoundKind.SLICING_LB_3D] <= proven == m_none + 1
        assert time.perf_counter() - run_start < 300.0, name
    _report(5, "exact small values by search", t0, 1500.0)


def test_criterion_6_slicing_proof_diagnostics():
    t0 = time.perf_counter()
    for k in range(2, 51):
        P = slicing_3d(k)
        report = boundary_incidence(P)
        assert max(report.per_member) <= 4
        assert report.alpha <= 4
        for b, f in zip(P.members, report.per_member):
            if f == 4:
                assert parent_corners_contained(P.parent, b) == 2
        assert report.total >= 6 * k
    k3 = boundary_incidence(slicing_3d(3))
    assert k3.total == 18 and k3.alpha == 3
    _report(6, "boundary incidence diagnostics", t0, 60.0)


def test_criterion_7_property_suites(corpus):
    t0 = time.perf_counter()
    assert len(corpus) >= 200
    rng = Random(424242)
    for P in corpus:
        for j in range(1, P.dim):
            base_min = min_flat_count(P, j).minimum
            assert base_min == brute_force_min_flat(P, j)  # dominance lemma
            refined = refine(P, random_refine_plan(rng, P))
            assert min_flat_count(refined, j).minimum >= base_min
            remapped = random_monotone_remap(rng, P)
            assert min_flat_count(remapped, j).minimum == base_min
    for P in (grid_partition(2, 2), piercing_2d(3), piercing_3d(3), slicing_3d(4)):
        for idx in range(len(P.members)):
            rest = [b for i, b in enumerate(P.members) if i != idx]
            gap = validate(BrickPartition(P.parent, rest))
            assert not gap.valid and gap.failures[0].kind is FailureKind.GAP
            assert gap.failures[0].point is not None
            dup = validate(BrickPartition(P.parent, list(P.members) + [P.members[idx]]))
            assert not dup.valid and dup.failures[0].kind is FailureKind.OVERLAP
            assert len(dup.failures[0].members) >= 2
    _report(7, "randomized property suites", t0, 300.0)


def test_criterion_8_round_trip_and_export(corpus):
    t0 = time.perf_counter()
    generated = [
        grid_partition(2, 3),
        grid_partition(3, 2),
        piercing_2d(3),
        piercing_2d(7),
        piercing_3d(3),
        piercing_3d(6),
        slicing_3d(2),
        slicing_3d(9),
    ]
    for P in generated + corpus:
        text = emit_document(P)
        doc = parse_document(text)
        assert doc.emit() == text  # byte-canonical round-trip
        Q = doc.to_partition()
        assert Q.parent == P.parent and Q.members == P.members
    for P in generated:
        if P.dim == 2:
            svg = export_figure(P, FigureFormat.SVG2D).decode()
            assert svg.count("<rect") == len(P.members)
        else:
            obj = export_figure(P, FigureFormat.OBJ3D).decode()
            vertices = [l for l in obj.splitlines() if l.startswith("v ")]
            assert len(vertices) == 8 * len(P.members)
    _report(8, "round-trip and export", t0, 120.0)
