"""Randomized-corpus property suites: the dominance lemma, refinement
monotonicity, reparameterization invariance, conservation laws, and the
validator's mutation coverage on the explicit construction families."""

from random import Random

import pytest

from brickpart import (
    Brick,
    BrickPartition,
    FailureKind,
    Mode,
    SearchProblem,
    boundary_incidence,
    elementary_piercing_lb,
    min_flat_count,
    piercing_number,
    refine,
    slicing_number,
    validate,
)
from brickpart.constructions import (
    grid_partition,
    piercing_2d,
    piercing_3d,
    slicing_3d,
)

from helpers import (
    brute_force_min_flat,
    first_bad_cell_midpoint,
    iter_solutions,
    parent_corners_contained,
    random_monotone_remap,
    random_refine_plan,
    volume,
    whole_grid_report,
)


def test_compression_leaves_at_most_one_cell_per_member_on_each_axis(corpus):
    # the lemma behind SearchProblem.proof_complete: every interior breakpoint
    # is some member's lower end, so m members compress to at most m cells
    partitions = list(corpus)
    for mode, d, m in ((Mode.PIERCING, 2, 9), (Mode.SLICING, 3, 4)):
        partitions += iter_solutions(SearchProblem(d, 1, mode, m, 3, symmetry_pruning=False))
    assert len(partitions) == 200 + 322 + 442
    for P in partitions:
        for a, axis in enumerate(P.grid.axes):
            assert set(axis[1:-1]) <= {b.sides[a].lo for b in P.members}
        assert max(P.grid.shape) <= len(P.members)


def test_corpus_is_large_and_valid(corpus):
    assert len(corpus) >= 200
    assert {P.dim for P in corpus} == {2, 3}
    for P in corpus:
        assert validate(P).valid


def test_volume_conservation(corpus):
    for P in corpus:
        assert sum(volume(b) for b in P.members) == volume(P.parent)


def test_dominance_lemma_on_corpus(corpus):
    # midpoint-only minimum equals the breakpoint-inclusive brute force
    for P in corpus:
        for j in range(1, P.dim):
            assert min_flat_count(P, j).minimum == brute_force_min_flat(P, j)


def test_dominance_lemma_on_constructions():
    for P in (piercing_2d(4), piercing_3d(3), slicing_3d(5), grid_partition(2, 3)):
        for j in range(1, P.dim):
            assert min_flat_count(P, j).minimum == brute_force_min_flat(P, j)


def test_refinement_monotonicity(corpus):
    rng = Random(1405)
    for P in corpus:
        plan = random_refine_plan(rng, P)
        refined = refine(P, plan)
        assert len(refined) == len(P) + sum(n - 1 for _, _, n in plan)
        for j in range(1, P.dim):
            assert min_flat_count(refined, j).minimum >= min_flat_count(P, j).minimum


def test_reparameterization_invariance(corpus):
    rng = Random(2718)
    for P in corpus:
        remapped = random_monotone_remap(rng, P)
        assert validate(remapped).valid
        for j in range(1, P.dim):
            assert min_flat_count(remapped, j).minimum == min_flat_count(P, j).minimum


def test_lower_bound_conformance(corpus):
    # any partition's piercing number k forces at least the elementary bound
    # many members; 3D slicing number k >= 3 forces at least 2k-1
    for P in corpus:
        k = piercing_number(P)
        if k >= 2:
            assert len(P) >= elementary_piercing_lb(P.dim, k)
        if P.dim == 3:
            s = slicing_number(P)
            if s >= 3:
                assert len(P) >= 2 * s - 1


def test_incidence_structure_when_slicing_at_least_2(corpus):
    # in 3D with slicing >= 2: f(b) <= 4, alpha <= 4, and every f(b) = 4
    # member contains two parent corners
    for P in [*corpus, *(slicing_3d(k) for k in (2, 3, 6))]:
        if P.dim != 3 or slicing_number(P) < 2:
            continue
        report = boundary_incidence(P)
        assert max(report.per_member) <= 4
        assert report.alpha <= 4
        for b, f in zip(P.members, report.per_member):
            if f == 4:
                assert parent_corners_contained(P.parent, b) == 2


MUTATION_TARGETS = [
    grid_partition(2, 3),
    grid_partition(3, 2),
    piercing_2d(4),
    piercing_3d(3),
    slicing_3d(2),
    slicing_3d(5),
]


@pytest.mark.parametrize("P", MUTATION_TARGETS, ids=lambda P: f"d{P.dim}m{len(P)}")
def test_validator_catches_every_single_deletion(P):
    for idx in range(len(P.members)):
        members = tuple(b for i, b in enumerate(P.members) if i != idx)
        report = validate(BrickPartition(P.parent, members))
        assert not report.valid
        (failure,) = report.failures
        assert failure.kind is FailureKind.GAP
        # the witness point is genuinely uncovered
        assert sum(1 for b in members if b.contains_point(failure.point)) == 0
        # and matches an independent first-bad-cell scan
        probe_point, count = first_bad_cell_midpoint(BrickPartition(P.parent, members))
        assert count == 0 and probe_point == failure.point


@pytest.mark.parametrize("P", MUTATION_TARGETS, ids=lambda P: f"d{P.dim}m{len(P)}")
def test_validator_catches_every_single_duplication(P):
    for idx in range(len(P.members)):
        members = tuple(P.members) + (P.members[idx],)
        report = validate(BrickPartition(P.parent, members))
        assert not report.valid
        (failure,) = report.failures
        assert failure.kind is FailureKind.OVERLAP
        assert len(failure.members) >= 2
        assert sum(1 for b in members if b.contains_point(failure.point)) >= 2


# a 1D partition of [0, 6]
ONE_D = BrickPartition(
    Brick.from_pairs([(0, 6)]), [Brick.from_pairs([p]) for p in ((0, 1), (1, 3), (3, 6))]
)


@pytest.mark.parametrize("P", MUTATION_TARGETS + [ONE_D], ids=lambda P: f"d{P.dim}m{len(P)}")
def test_validator_witness_does_not_depend_on_block_size(P):
    # validate reads the first bad cell off the members' signed corners, with
    # no cell array: with each member dropped or doubled, it must give the
    # whole-grid count's report
    members = P.members
    partitions = [P]
    partitions += [BrickPartition(P.parent, members[:i] + members[i + 1 :]) for i in range(len(P))]
    partitions += [BrickPartition(P.parent, members + (b,)) for b in members]
    expected = [whole_grid_report(Q) for Q in partitions]
    assert expected[0].valid and not any(r.valid for r in expected[1:])
    for Q, report in zip(partitions, expected):
        assert validate(Q) == report


def test_refine_output_always_validates(corpus):
    rng = Random(97)
    for P in corpus[:50]:
        refined = refine(P, random_refine_plan(rng, P))
        assert validate(refined).valid
