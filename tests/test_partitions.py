"""Ordered equal-block weight partitions and the free rotation action."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from parorb.errors import IndexOutOfRange
from parorb.model import ModuliSpec
from parorb.partitions import (
    PointPartition,
    WeightPartition,
    compute_orbit_section,
    count_partitions,
    enumerate_partitions,
    galois_rotate,
    induced_weights,
    orbit_canonical,
)


def spec_for(r, s, genus=3, degree=1):
    denominator = r + 1
    point = tuple(Fraction(i, denominator) for i in range(1, r + 1))
    return ModuliSpec(genus=genus, rank=r, degree=degree, weights=(point,) * s)


def test_count_partitions_formula():
    # (r! / (l!)^m)^s with l = r/m
    assert count_partitions(2, 2, 1) == 2
    assert count_partitions(3, 3, 1) == 6
    assert count_partitions(4, 2, 1) == 6
    assert count_partitions(6, 2, 1) == 20
    assert count_partitions(6, 3, 1) == 90
    assert count_partitions(6, 6, 1) == 720
    assert count_partitions(6, 3, 2) == 8100
    assert count_partitions(6, 6, 2) == 518400


def test_count_partitions_against_multinomial():
    for r in (2, 3, 4, 6):
        for m in (d for d in range(1, r + 1) if r % d == 0):
            l = r // m
            expected = factorial(r) // (factorial(l) ** m)
            assert count_partitions(r, m, 1) == expected
            assert count_partitions(r, m, 3) == expected ** 3


def test_enumeration_matches_count_and_is_duplicate_free():
    for r, m, s in [(4, 2, 1), (4, 2, 2), (6, 3, 1), (6, 2, 2), (3, 3, 2)]:
        spec = spec_for(r, s)
        seen = list(enumerate_partitions(spec, m))
        assert len(seen) == count_partitions(r, m, s)
        assert len(set(seen)) == len(seen)


def test_enumerated_blocks_partition_the_weights():
    spec = spec_for(6, 1)
    for t in enumerate_partitions(spec, 3):
        merged = sorted(w for block in t.per_point[0].blocks for w in block)
        assert merged == sorted(spec.weights[0])
        assert all(len(block) == 2 for block in t.per_point[0].blocks)
        assert all(
            tuple(sorted(block)) == block for block in t.per_point[0].blocks
        )


def test_rotation_is_a_group_action():
    spec = spec_for(6, 2)
    sample = list(itertools.islice(enumerate_partitions(spec, 3), 40))
    for t in sample:
        assert galois_rotate(t, 0) == t
        assert galois_rotate(galois_rotate(t, 1), 2) == galois_rotate(t, 0)
        assert galois_rotate(galois_rotate(t, 2), 1) == t
        assert galois_rotate(t, 5) == galois_rotate(t, 2)


def test_rotation_moves_blocks_backwards():
    # out[j] = in[(j + i) mod m]: rotating by 1 brings block 1 to slot 0
    spec = spec_for(4, 1)
    t = next(enumerate_partitions(spec, 2))
    rotated = galois_rotate(t, 1)
    assert rotated.per_point[0].blocks[0] == t.per_point[0].blocks[1]
    assert rotated.per_point[0].blocks[1] == t.per_point[0].blocks[0]


def test_orbit_canonical_is_constant_on_orbits():
    spec = spec_for(6, 1)
    for t in enumerate_partitions(spec, 3):
        rep, amount = orbit_canonical(t)
        assert galois_rotate(rep, amount) == t
        for i in range(3):
            other_rep, _ = orbit_canonical(galois_rotate(t, i))
            assert other_rep == rep
        assert rep == min(galois_rotate(t, i) for i in range(3))


def test_orbit_section_covers_everything_freely():
    for r, m, s in [(4, 2, 1), (6, 2, 1), (6, 3, 1), (6, 6, 1), (6, 3, 2)]:
        spec = spec_for(r, s)
        section = compute_orbit_section(spec, m)
        total = count_partitions(r, m, s)
        assert section.partition_count == total
        assert section.orbit_count * m == total  # the action is free
        assert len(set(section.representatives)) == section.orbit_count
        for rep in section.representatives:
            found, amount = section.locate(rep)
            assert found == rep and amount == 0


def uneven_spec(r, s, seed):
    """Unevenly spaced weights with assorted denominators, different per point."""
    rng = random.Random(seed)
    weights = []
    for _ in range(s):
        chosen = set()
        while len(chosen) < r:
            q = rng.randint(r + 1, 97)
            chosen.add(Fraction(rng.randrange(q), q))
        weights.append(tuple(sorted(chosen)))
    return ModuliSpec(genus=2, rank=r, degree=1, weights=tuple(weights))


def brute_force_representatives(spec, m):
    return tuple(
        sorted(
            {min(galois_rotate(t, i) for i in range(m)) for t in enumerate_partitions(spec, m)}
        )
    )


@pytest.mark.parametrize(
    "r, m, s", [(4, 2, 2), (6, 2, 2), (6, 3, 2), (6, 6, 1), (3, 3, 3), (5, 5, 1)]
)
def test_orbit_section_equals_brute_force_orbit_minima(r, m, s):
    spec = uneven_spec(r, s, seed=100 * r + 10 * m + s)
    assert len(set(spec.weights)) == s  # the points carry different weights
    section = compute_orbit_section(spec, m)
    assert section.representatives == brute_force_representatives(spec, m)
    assert section.partition_count == count_partitions(r, m, s)


def test_orbit_canonical_equals_brute_force_minimum():
    spec = uneven_spec(6, 2, seed=632)
    for t in enumerate_partitions(spec, 3):
        rep, amount = orbit_canonical(t)
        assert rep == min(galois_rotate(t, i) for i in range(3))
        assert galois_rotate(rep, amount) == t


def test_orbit_canonical_keeps_its_answer():
    canonical = []
    for t in enumerate_partitions(spec_for(6, 1), 3):
        rep, amount = orbit_canonical(t)
        canonical.append(amount == 0)
        if amount == 0:
            assert rep is t
        else:
            again, again_amount = orbit_canonical(t)
            assert rep is not t and again is rep and again_amount == amount
    assert canonical.count(True) == 30 and canonical.count(False) == 60


def test_dominance_vector_needs_distinct_weights():
    tied = PointPartition(((Fraction(1, 4),), (Fraction(1, 4),)))
    with pytest.raises(ValueError):
        tied.dominance_vector()


def test_orbit_section_locate_inverts_rotation():
    spec = spec_for(6, 1)
    section = compute_orbit_section(spec, 3)
    rng = random.Random(20210)
    reps = section.representatives
    for _ in range(50):
        rep = reps[rng.randrange(len(reps))]
        i = rng.randrange(3)
        shuffled = galois_rotate(rep, i)
        found, amount = section.locate(shuffled)
        assert found == rep
        assert galois_rotate(found, amount) == shuffled


def test_representative_index_round_trip():
    spec = spec_for(6, 1)
    section = compute_orbit_section(spec, 2)
    for k, rep in enumerate(section.representatives):
        assert section.representative_index(rep) == k


def test_induced_weights_per_cover_point():
    spec = spec_for(6, 1)
    t = next(enumerate_partitions(spec, 3))
    induced = induced_weights(t, 0)
    assert len(induced) == 3
    assert [tuple(chunk) for chunk in induced] == [
        tuple(block) for block in t.per_point[0].blocks
    ]
    with pytest.raises(IndexOutOfRange):
        induced_weights(t, 1)


def test_point_partition_ordering_is_value_based():
    a = PointPartition(((Fraction(1, 4),), (Fraction(3, 4),)))
    b = PointPartition(((Fraction(3, 4),), (Fraction(1, 4),)))
    assert a < b
    assert a == PointPartition(((Fraction(1, 4),), (Fraction(3, 4),)))
    assert hash(a) == hash(PointPartition(((Fraction(1, 4),), (Fraction(3, 4),))))


def test_weight_partition_mapping_is_exact():
    spec = spec_for(4, 1)
    t = next(enumerate_partitions(spec, 2))
    rows = t.to_mapping()
    assert rows == [[["1/5", "2/5"], ["3/5", "4/5"]]]
