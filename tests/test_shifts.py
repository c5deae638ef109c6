"""Dominance counts, eigenvalue multiplicities, degree shifts, dimensions."""

import gc
import itertools
import math
import random
import weakref
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from parorb.arith import divisors
from parorb.errors import (
    CapabilityMissing,
    IdentityElement,
    IndexOutOfRange,
    ModeMismatch,
    ModulusMismatch,
)
from parorb.model import ModuliSpec, moduli_dimension
from parorb.chenruan import chen_ruan_table
from parorb import partitions
from parorb.partitions import (
    PointPartition,
    _labelled_partitions,
    WeightPartition,
    count_partitions,
    enumerate_partitions,
    galois_rotate,
)
from parorb.shifts import (
    DegreeShift,
    _orbit_classes,
    degree_shift,
    dominance_count,
    _shift_polynomial,
    eigenvalue_multiplicities,
    fixed_component_dimension,
    shift_histogram,
    total_codimension,
)
from parorb.torsion import TorsionElement, canonical_element_of_order
from value_classes import ARGS


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
    for i in (0, 3, -1):
        with pytest.raises(IndexOutOfRange) as raised:
            dominance_count(EXAMPLE_T, i)
        assert str(raised.value) == "rotation index %d outside 1..2" % i


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

    # shift_histogram takes no partition and checks the same hypotheses
    with pytest.raises(CapabilityMissing):
        shift_histogram(not_coprime, eta)
    with pytest.raises(CapabilityMissing):
        shift_histogram(not_squarefree, TorsionElement(4, (1, 0, 0, 0)))
    with pytest.raises(ModeMismatch):
        shift_histogram(higgs, eta)
    with pytest.raises(ModulusMismatch):
        shift_histogram(good, TorsionElement(5, (1, 0, 0, 0)))
    with pytest.raises(IdentityElement):
        shift_histogram(good, TorsionElement(6, (0, 0, 0, 0)))


@pytest.mark.parametrize(
    "rank, degree, higgs, error, message",
    [
        (4, 2, True, CapabilityMissing, "rank 4 and degree 2 are not coprime"),
        (4, 1, True, CapabilityMissing, "rank 4 is not squarefree"),
        (6, 1, True, ModeMismatch, "multiplicity formulas hold in the non-Higgs mode only"),
    ],
)
def test_spec_verdict_is_kept_and_raised_on_every_call(
    rank, degree, higgs, error, message
):
    point = tuple(Fraction(i, rank + 1) for i in range(1, rank + 1))
    spec = ModuliSpec(genus=2, rank=rank, degree=degree, weights=(point,), higgs=higgs)
    # the spec's verdict comes before eta's modulus, on every call
    for eta in (TorsionElement(rank, (1, 0, 0, 0)), TorsionElement(5, (1, 0, 0, 0))):
        for _ in range(2):
            with pytest.raises(error) as refused:
                degree_shift(spec, eta, EXAMPLE_T)
            assert str(refused.value) == message


def test_degree_shift_equals_the_dataclass_it_stands_for():
    rotated = galois_rotate(EXAMPLE_T, 1)
    expected = DegreeShift(Fraction(56, 3), EXAMPLE_ETA, EXAMPLE_T)
    for t in (EXAMPLE_T, rotated, rotated):  # canonical, then a memo miss and hit
        shift = degree_shift(EXAMPLE_SPEC, EXAMPLE_ETA, t)
        assert type(shift) is DegreeShift
        assert shift == expected
        assert hash(shift) == hash(expected)
        assert repr(shift) == repr(expected)
        with pytest.raises(FrozenInstanceError):
            shift.value = Fraction(0)
    assert degree_shift(EXAMPLE_SPEC, EXAMPLE_ETA, EXAMPLE_T).orbit_representative is EXAMPLE_T


@pytest.mark.parametrize("cls", list(ARGS), ids=lambda cls: cls.__name__)
def test_value_classes_refuse_assignment_and_deletion(cls):
    args, expected = ARGS[cls]
    value = cls(*args)
    for name in cls.__match_args__ + ("new_attribute",):
        with pytest.raises(FrozenInstanceError) as refused:
            setattr(value, name, None)
        assert str(refused.value) == "cannot assign to field %r" % name
        with pytest.raises(FrozenInstanceError) as refused:
            delattr(value, name)
        assert str(refused.value) == "cannot delete field %r" % name
    assert repr(value) == expected


def test_degree_shift_holds_its_fields_without_a_dict():
    # a sweep keeps one DegreeShift per call; slots keep each one small
    shift = degree_shift(EXAMPLE_SPEC, EXAMPLE_ETA, EXAMPLE_T)
    assert not hasattr(shift, "__dict__")


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
        with pytest.raises(ValueError):
            total_codimension(good, eta2, EXAMPLE_T)
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
    with pytest.raises(ValueError):
        total_codimension(good, eta2, t)
    two_points = ModuliSpec(
        genus=2, rank=6, degree=1, weights=(twelfths(1, 2, 3, 4, 5, 6),) * 2
    )
    eta3 = TorsionElement(6, (2, 0, 0, 0))
    for _ in range(2):
        with pytest.raises(ValueError):
            degree_shift(two_points, eta3, EXAMPLE_T)
        with pytest.raises(ValueError):
            eigenvalue_multiplicities(two_points, eta3, EXAMPLE_T)
        with pytest.raises(ValueError):
            total_codimension(two_points, eta3, EXAMPLE_T)


@pytest.mark.parametrize("m", [2, 3, 6])
def test_total_codimension_sums_the_multiplicity_table(m):
    eta = canonical_element_of_order(6, 2, m)
    for t in enumerate_partitions(EXAMPLE_SPEC, m):
        before = total_codimension(EXAMPLE_SPEC, eta, t)
        degree_shift(EXAMPLE_SPEC, eta, t)  # leaves a memo on t
        after = total_codimension(EXAMPLE_SPEC, eta, t)
        table = eigenvalue_multiplicities(EXAMPLE_SPEC, eta, t)
        assert before == after == table.total_codimension


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


def uneven_weights(rng, r, s):
    """s different points of r unevenly spaced weights in [0, 1)."""
    points = []
    for _ in range(s):
        chosen = set()
        while len(chosen) < r:
            q = rng.randint(r + 1, 97)
            chosen.add(Fraction(rng.randrange(q), q))
        points.append(tuple(sorted(chosen)))
    return tuple(points)


@pytest.mark.parametrize(
    "g, r, s", [(3, 2, 1), (3, 2, 4), (2, 3, 1), (2, 3, 3), (2, 5, 1), (2, 6, 1), (3, 6, 1)]
)
def test_shift_histogram_counts_every_partition_once_per_orbit(g, r, s):
    # independent of the orbit section: every partition's shift counted,
    # against m times the histogram (orbits have size m)
    spec = ModuliSpec(
        genus=g, rank=r, degree=1, weights=uneven_weights(random.Random(7 * r + s), r, s)
    )
    for m in divisors(r)[1:]:
        eta = canonical_element_of_order(r, g, m)
        every = Counter(degree_shift(spec, eta, t).value for t in enumerate_partitions(spec, m))
        histogram = shift_histogram(spec, eta)
        assert {shift: m * count for shift, count in histogram.items()} == every
        assert list(histogram) == sorted(histogram)


@pytest.mark.parametrize("tied_at", [0, 1])
def test_shift_histogram_refuses_tied_weights(tied_at):
    tied = (0, Fraction(1, 7), Fraction(1, 3), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))
    weights = [twelfths(1, 2, 3, 5, 7, 11)]
    weights.insert(tied_at, tied)
    spec = ModuliSpec(genus=2, rank=6, degree=1, weights=tuple(weights))
    for m in divisors(6)[1:]:
        with pytest.raises(ValueError, match="weights within a point must be distinct"):
            shift_histogram(spec, canonical_element_of_order(6, 2, m))


@pytest.mark.parametrize(
    "g, r, s", [(2, 3, 2), (3, 2, 5), (2, 5, 2), (3, 6, 1), (2, 6, 2)]
)
def test_shift_histogram_depends_on_the_shape_alone(g, r, s):
    # S_p reads only the blocks of point p's ranks, so unrelated weights agree
    first, second = (
        ModuliSpec(genus=g, rank=r, degree=1, weights=uneven_weights(rng, r, s))
        for rng in (random.Random(10 * r + s), random.Random(1000 + 10 * r + s))
    )
    assert first.weights != second.weights
    for m in divisors(r)[1:]:
        eta = canonical_element_of_order(r, g, m)
        assert shift_histogram(first, eta) == shift_histogram(second, eta)


def test_shift_histogram_builds_no_point_partition(monkeypatch):
    def forbidden(cls, *args):
        raise AssertionError("a PointPartition was built")

    def no_rank_partitions(*args):
        raise AssertionError("a partition of the ranks was walked")

    monkeypatch.setattr(PointPartition, "_enumerated", classmethod(forbidden))
    monkeypatch.setattr(partitions, "_rank_partitions", no_rank_partitions)
    weights = uneven_weights(random.Random(3), 6, 3)
    spec = ModuliSpec(genus=2, rank=6, degree=1, weights=weights)
    for m in divisors(6)[1:]:
        histogram = shift_histogram(spec, canonical_element_of_order(6, 2, m))
        assert sum(histogram.values()) == count_partitions(6, m, 3) // m
    # a prime rank needs no Betti table: the whole Chen-Ruan path runs
    weights = uneven_weights(random.Random(4), 5, 2)
    prime = ModuliSpec(genus=2, rank=5, degree=1, weights=weights)
    assert chen_ruan_table(prime).to_rows()


@pytest.mark.parametrize("s", [1, 2, 3])
def test_the_rows_walk_the_ranks_at_most_twice(monkeypatch, s):
    # the rows stream from the library's product walk: once for point 0,
    # and once for the one list that every later point relabels; the first
    # 20,000 rows pass point 0's second partition in all but s = 3, m = 6,
    # whose 62,208,000 rows are too many to walk here
    real = partitions._rank_partitions
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(partitions, "_rank_partitions", counted)
    weights = uneven_weights(random.Random(60 + s), 6, s)
    spec = ModuliSpec(genus=2, rank=6, degree=1, weights=weights)
    for m in divisors(6)[1:]:
        del calls[:]
        rows = _orbit_classes(spec, canonical_element_of_order(6, 2, m))
        walked = sum(1 for _ in itertools.islice(rows, 20_000))
        assert walked == min(count_partitions(6, m, s) // m, 20_000)
        assert len(calls) == min(s, 2)


def rank_shapes(largest):
    return [(r, m) for r in range(1, largest + 1) for m in divisors(r)]


@pytest.mark.parametrize("r, m", rank_shapes(9))
def test_shift_polynomial_matches_the_anchored_tally(r, m):
    # every partition is one of m rotations of an anchored one, all with
    # the same S
    anchored = Counter(
        sum(i * c for i, c in enumerate(vector))
        for _, vector in _labelled_partitions(range(r), m, anchored=True)
    )
    assert _shift_polynomial(r, m) == {total: m * n for total, n in anchored.items()}


@pytest.mark.parametrize("r, m", rank_shapes(12))
def test_shift_polynomial_counts_palindromes_divisible_by_m(r, m):
    polynomial = _shift_polynomial(r, m)
    l = r // m
    assert sum(polynomial.values()) == math.factorial(r) // math.factorial(l) ** m
    low, high = min(polynomial), max(polynomial)
    assert all(polynomial.get(low + high - total) == n for total, n in polynomial.items())
    assert all(n % m == 0 for n in polynomial.values())
