"""Dominance counts, eigenvalue multiplicities, degree shifts, dimensions."""

import gc
import itertools
import random
import weakref
from fractions import Fraction

import pytest

from parorb.errors import (
    CapabilityMissing,
    IdentityElement,
    IndexOutOfRange,
    ModeMismatch,
    ModulusMismatch,
)
from parorb.model import ModuliSpec, moduli_dimension
from parorb.partitions import (
    PointPartition,
    WeightPartition,
    enumerate_partitions,
    galois_rotate,
)
from parorb.shifts import (
    degree_shift,
    dominance_count,
    eigenvalue_multiplicities,
    fixed_component_dimension,
    total_codimension,
)
from parorb.torsion import TorsionElement, canonical_element_of_order


def twelfths(*numerators):
    return tuple(Fraction(n, 12) for n in numerators)


# the running example: six weights i/12, blocks {1,2}{3,4}{5,6}
EXAMPLE_SPEC = ModuliSpec(
    genus=2, rank=6, degree=1, weights=(twelfths(1, 2, 3, 4, 5, 6),)
)
EXAMPLE_T = WeightPartition(
    (PointPartition((twelfths(1, 2), twelfths(3, 4), twelfths(5, 6))),)
)
EXAMPLE_ETA = TorsionElement(6, (2, 0, 0, 0))  # order 3


def naive_dominance(t, i):
    """Count dominating pairs by scanning every pair of weights."""
    m = t.m
    total = 0
    for point in t.per_point:
        for j in range(m):
            for a in point.blocks[j]:
                for b in point.blocks[(j + i) % m]:
                    if a > b:
                        total += 1
    return total


def test_dominance_worked_example():
    assert dominance_count(EXAMPLE_T, 1) == 4
    assert dominance_count(EXAMPLE_T, 2) == 8


def test_dominance_matches_naive_scan():
    spec = ModuliSpec(
        genus=2,
        rank=6,
        degree=1,
        weights=(twelfths(1, 3, 5, 7, 9, 11), twelfths(0, 2, 4, 6, 8, 10)),
    )
    for m in (2, 3, 6):
        for t in itertools.islice(enumerate_partitions(spec, m), 120):
            for i in range(1, m):
                assert dominance_count(t, i) == naive_dominance(t, i)


def test_dominance_with_shared_point_partitions():
    # the per-point vector is kept on the PointPartition object, so one
    # object reused across many partitions must count right in each of them
    point_a = twelfths(1, 3, 4, 7, 9, 11)
    point_b = twelfths(0, 2, 5, 6, 8, 10)
    rng = random.Random(4141)
    for m in (2, 3, 6):
        l = 6 // m
        shared = PointPartition(random_blocks(rng, point_a, m, l))
        for _ in range(30):
            other = PointPartition(random_blocks(rng, point_b, m, l))
            for t in (
                WeightPartition((shared, other)),
                WeightPartition((other, shared)),
                WeightPartition((shared, shared, other)),
            ):
                for i in range(1, m):
                    assert dominance_count(t, i) == naive_dominance(t, i)


def test_dominance_rejects_out_of_range_index():
    with pytest.raises(IndexOutOfRange):
        dominance_count(EXAMPLE_T, 0)
    with pytest.raises(IndexOutOfRange):
        dominance_count(EXAMPLE_T, 3)


def test_dominance_pairing_identity_exhaustive_small():
    for r, m, s in [(4, 2, 1), (4, 2, 2), (6, 2, 1), (6, 3, 1), (6, 3, 2)]:
        denominator = r * s + 1
        weights = tuple(
            tuple(Fraction(p * r + k, denominator) for k in range(1, r + 1))
            for p in range(s)
        )
        spec = ModuliSpec(genus=2, rank=r, degree=1, weights=weights)
        l = r // m
        target = s * m * l * l
        for t in enumerate_partitions(spec, m):
            for i in range(1, m):
                assert dominance_count(t, i) + dominance_count(t, m - i) == target


def test_multiplicities_worked_example():
    table = eigenvalue_multiplicities(EXAMPLE_SPEC, EXAMPLE_ETA, EXAMPLE_T)
    assert table.m == 3
    assert table.multiplicities == {1: 16, 2: 20}
    assert table.dimension == 50
    assert table.total_codimension == 36
    assert table.unit_eigenvalue_multiplicity == 14


def test_degree_shift_worked_example():
    shift = degree_shift(EXAMPLE_SPEC, EXAMPLE_ETA, EXAMPLE_T)
    assert shift.value == Fraction(56, 3)
    assert shift.eta == EXAMPLE_ETA


def test_degree_shift_constant_on_rotation_orbits():
    for i in range(3):
        rotated = galois_rotate(EXAMPLE_T, i)
        shift = degree_shift(EXAMPLE_SPEC, EXAMPLE_ETA, rotated)
        assert shift.value == Fraction(56, 3)
        assert shift.orbit_representative == degree_shift(
            EXAMPLE_SPEC, EXAMPLE_ETA, EXAMPLE_T
        ).orbit_representative


def test_twice_shift_has_denominator_dividing_m():
    spec = ModuliSpec(
        genus=2, rank=6, degree=1, weights=(twelfths(1, 2, 3, 5, 8, 11),)
    )
    for m in (2, 3, 6):
        eta = canonical_element_of_order(6, 2, m)
        for t in itertools.islice(enumerate_partitions(spec, m), 60):
            doubled = 2 * degree_shift(spec, eta, t).value
            assert m % doubled.denominator == 0, (m, doubled)


def test_rank_two_closed_forms_spot_check():
    spec = ModuliSpec(
        genus=4, rank=2, degree=1, weights=((Fraction(1, 3), Fraction(2, 3)),) * 2
    )
    eta = TorsionElement(2, (1, 1, 0, 0, 1, 0, 0, 1))
    for t in enumerate_partitions(spec, 2):
        table = eigenvalue_multiplicities(spec, eta, t)
        assert table.multiplicities == {1: 2 * 3 + 2}
        assert degree_shift(spec, eta, t).value == 3 + Fraction(2, 2)


def test_dimension_identity_randomized():
    rng = random.Random(88001)
    for r, g, s in [(6, 2, 1), (6, 3, 2), (3, 2, 2), (2, 4, 1)]:
        denominator = r * s + 1
        weights = tuple(
            tuple(Fraction(p * r + k, denominator) for k in range(1, r + 1))
            for p in range(s)
        )
        spec = ModuliSpec(genus=g, rank=r, degree=1, weights=weights)
        dim = moduli_dimension(spec)
        for m in (d for d in range(2, r + 1) if r % d == 0):
            eta = canonical_element_of_order(r, g, m)
            fixed = fixed_component_dimension(spec, eta)
            l = r // m
            for _ in range(25):
                t = WeightPartition(
                    tuple(
                        PointPartition(random_blocks(rng, point, m, l))
                        for point in spec.weights
                    )
                )
                assert fixed + total_codimension(spec, eta, t) == dim


def random_blocks(rng, weights, m, l):
    shuffled = list(weights)
    rng.shuffle(shuffled)
    return tuple(tuple(shuffled[k * l : (k + 1) * l]) for k in range(m))


def test_worked_dimension_split():
    # moduli 50 = fixed 14 + codim 36 in the running example
    assert moduli_dimension(EXAMPLE_SPEC) == 50
    assert fixed_component_dimension(EXAMPLE_SPEC, EXAMPLE_ETA) == 14
    assert total_codimension(EXAMPLE_SPEC, EXAMPLE_ETA, EXAMPLE_T) == 36


def test_fixed_dimension_when_blocks_are_singletons():
    # l = 1: only the Prym contributes, (r-1)(g-1)
    for r, g in [(2, 3), (3, 2), (6, 2)]:
        point = tuple(Fraction(i, r + 1) for i in range(1, r + 1))
        spec = ModuliSpec(genus=g, rank=r, degree=1, weights=(point,))
        eta = canonical_element_of_order(r, g, r)
        assert fixed_component_dimension(spec, eta) == (r - 1) * (g - 1)


def test_hypotheses_are_enforced():
    point = tuple(Fraction(i, 7) for i in range(1, 7))
    eta = TorsionElement(6, (2, 0, 0, 0))
    t = EXAMPLE_T

    not_coprime = ModuliSpec(genus=2, rank=6, degree=3, weights=(point,))
    with pytest.raises(CapabilityMissing):
        eigenvalue_multiplicities(not_coprime, eta, t)

    four = tuple(Fraction(i, 5) for i in range(1, 5))
    not_squarefree = ModuliSpec(genus=2, rank=4, degree=1, weights=(four,))
    with pytest.raises(CapabilityMissing):
        eigenvalue_multiplicities(
            not_squarefree, TorsionElement(4, (1, 0, 0, 0)), t
        )

    higgs = ModuliSpec(genus=2, rank=6, degree=1, weights=(point,), higgs=True)
    with pytest.raises(ModeMismatch):
        degree_shift(higgs, eta, t)

    good = ModuliSpec(genus=2, rank=6, degree=1, weights=(point,))
    with pytest.raises(ModulusMismatch):
        degree_shift(good, TorsionElement(5, (1, 0, 0, 0)), t)
    with pytest.raises(IdentityElement):
        degree_shift(good, TorsionElement(6, (0, 0, 0, 0)), t)


def test_partition_shape_must_match():
    good = EXAMPLE_SPEC
    eta2 = TorsionElement(6, (3, 0, 0, 0))  # order 2
    # blocks shaped for order 3, element of order 2; the check sits behind
    # the memo, so a repeated bad call must raise again
    for _ in range(2):
        with pytest.raises(ValueError):
            eigenvalue_multiplicities(good, eta2, EXAMPLE_T)
        with pytest.raises(ValueError):
            degree_shift(good, eta2, EXAMPLE_T)
    # a good call leaves a memo on the partition; it must not answer for
    # another order
    t = WeightPartition(
        (PointPartition((twelfths(1, 2), twelfths(3, 4), twelfths(5, 6))),)
    )
    degree_shift(good, EXAMPLE_ETA, t)
    with pytest.raises(ValueError):
        eigenvalue_multiplicities(good, eta2, t)
    with pytest.raises(ValueError):
        degree_shift(good, eta2, t)
    two_points = ModuliSpec(
        genus=2, rank=6, degree=1, weights=(twelfths(1, 2, 3, 4, 5, 6),) * 2
    )
    eta3 = TorsionElement(6, (2, 0, 0, 0))
    for _ in range(2):
        with pytest.raises(ValueError):
            degree_shift(two_points, eta3, EXAMPLE_T)
        with pytest.raises(ValueError):
            eigenvalue_multiplicities(two_points, eta3, EXAMPLE_T)


def test_memo_does_not_keep_streamed_partitions_alive():
    spec = ModuliSpec(genus=2, rank=6, degree=1, weights=(twelfths(1, 2, 3, 4, 5, 6),))
    eta = canonical_element_of_order(6, 2, 3)
    refs = []
    gc.disable()  # only reference counting may free them
    try:
        for t in enumerate_partitions(spec, 3):
            degree_shift(spec, eta, t)
            total_codimension(spec, eta, t)
            refs.append(weakref.ref(t))
        del t
        alive = sum(ref() is not None for ref in refs)
    finally:
        gc.enable()
    assert len(refs) == 90
    assert alive == 0


def test_memo_answers_for_its_own_spec_only():
    # a non-canonical partition with C(1) = C(2) = 6, asked for two genera
    t = WeightPartition(
        (PointPartition((twelfths(2, 3), twelfths(1, 4), twelfths(5, 6))),)
    )
    weights = (twelfths(1, 2, 3, 4, 5, 6),)
    genus2 = ModuliSpec(genus=2, rank=6, degree=1, weights=weights)
    genus3 = ModuliSpec(genus=3, rank=6, degree=1, weights=weights)
    tables = [
        eigenvalue_multiplicities(spec, canonical_element_of_order(6, spec.genus, 3), t)
        for spec in (genus2, genus3, genus2)
    ]
    assert [table.multiplicities for table in tables] == [
        {1: 18, 2: 18},
        {1: 30, 2: 30},
        {1: 18, 2: 18},
    ]
