"""Ordered equal-block weight partitions and the free rotation action."""

import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction
from math import factorial

import pytest

from parorb import partitions
from parorb.errors import IndexOutOfRange
from parorb.model import ModuliSpec
from parorb.oracles import brute_force_point_partitions
from parorb.partitions import (
    PointPartition,
    WeightPartition,
    _labelled_partitions,
    _point_partitions,
    _rank_partitions,
    compute_orbit_section,
    count_partitions,
    enumerate_partitions,
    galois_rotate,
    induced_weights,
    orbit_canonical,
)
from parorb.shifts import dominance_count

from value_classes import ARGS


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


def test_streamed_partitions_equal_validated_ones():
    spec = uneven_spec(4, 2, seed=422)
    streamed = list(enumerate_partitions(spec, 2))
    built = [WeightPartition(t.per_point) for t in streamed]
    assert streamed == built
    assert [hash(t) for t in streamed] == [hash(t) for t in built]
    for j, a in enumerate(streamed):
        for k, b in enumerate(built):
            assert (a < b) == (j < k) and (b < a) == (k < j)
    representatives = compute_orbit_section(spec, 2).representatives
    assert {WeightPartition(rep.per_point) for rep in representatives} == set(
        representatives
    )


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
            assert rep is not t and again == rep and again_amount == amount
    assert canonical.count(True) == 30 and canonical.count(False) == 60


def test_dominance_vector_needs_distinct_weights():
    tied = PointPartition(((Fraction(1, 4),), (Fraction(1, 4),)))
    with pytest.raises(ValueError):
        tied.dominance_vector()


TIED_POINT = (0, Fraction(1, 2), Fraction(1, 2), Fraction(3, 4))
DISTINCT_POINT = (Fraction(1, 9), Fraction(1, 3), Fraction(2, 5), Fraction(5, 6))


@pytest.mark.parametrize(
    "weights", [(TIED_POINT,), (DISTINCT_POINT, TIED_POINT)], ids=["first", "second"]
)
def test_tied_weights_are_refused_before_enumeration(weights):
    # unvalidated spec: tied weights used to yield 2 of the 6 partitions at
    # the first point, and the orbit section raised a bare AssertionError
    spec = ModuliSpec(genus=2, rank=4, degree=1, weights=weights)
    with pytest.raises(ValueError, match="weights within a point must be distinct"):
        next(enumerate_partitions(spec, 2))
    with pytest.raises(ValueError, match="weights within a point must be distinct"):
        compute_orbit_section(spec, 2)


@pytest.mark.parametrize("r", range(1, 8))
def test_point_partitions_exhaustively_against_brute_force(r):
    # every m | r, on unevenly spaced weights given out of order
    rng = random.Random(7100 + r)
    weights = uneven_spec(r, 1, seed=7000 + r).weights[0]
    shuffled = list(weights)
    rng.shuffle(shuffled)
    for m in (d for d in range(1, r + 1) if r % d == 0):
        every = list(_point_partitions(shuffled, m))
        assert [p.blocks for p in every] == sorted(brute_force_point_partitions(weights, m))
        anchored = list(_point_partitions(shuffled, m, anchored=True))
        assert anchored == [p for p in every if p.blocks[0][0] == weights[0]]
        assert len(anchored) == count_partitions(r, m, 1) // m
        for p in every:
            assert p.dominance_vector() == PointPartition(p.blocks).dominance_vector()


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


@pytest.mark.parametrize("index", [True, 1.0, Fraction(1), "1"], ids=repr)
@pytest.mark.parametrize("lookup, message", [
    (induced_weights, "point index %r outside 0..1"),
    (dominance_count, "rotation index %r outside 1..2"),
], ids=["induced_weights", "dominance_count"])
def test_an_index_that_is_not_an_int_is_out_of_range(lookup, message, index):
    # each of these equals 1 or reads as 1, an index in range; a lookup
    # takes only an int, and refuses any other as out of range, not with a
    # TypeError from inside the tuple
    t = next(enumerate_partitions(spec_for(3, 2), 3))
    with pytest.raises(IndexOutOfRange) as raised:
        lookup(t, index)
    assert str(raised.value) == message % (index,)
    assert lookup(t, 1) is not None


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


def test_to_mapping_returns_fresh_lists():
    spec = spec_for(4, 2)
    section = compute_orbit_section(spec, 2)
    t = section.representatives[0]
    first, second = t.to_mapping(), t.to_mapping()
    assert first == second and first is not second
    # two representatives sharing point 0's PointPartition
    u = next(rep for rep in section.representatives[1:] if rep.per_point[0] is t.per_point[0])
    shared_t, shared_u = t.to_mapping()[0], u.to_mapping()[0]
    assert shared_t == shared_u and shared_t is not shared_u
    first[0][0][0] = "changed"
    first[0].append(["extra"])
    shared_u[1].clear()
    assert t.to_mapping() == second
    assert u.to_mapping()[0] == second[0]
    assert second[0][0][0] == "1/5" and len(second[0]) == 2


def recounted(t):
    """C_t by the per-point rule, on fresh PointPartitions built from the
    blocks, so that no vector set by an enumeration or a rotation is read."""
    vectors = [PointPartition(p.blocks).dominance_vector() for p in t.per_point]
    return tuple(map(sum, zip(*vectors)))


def built_each_way(spec, m):
    """(how, partition) for partitions made by every route there is."""
    streamed = list(enumerate_partitions(spec, m))
    sample = streamed[:: max(1, len(streamed) // 40)]
    for t in sample:
        yield "enumerate_partitions", t
        yield "directly", WeightPartition(tuple(PointPartition(p.blocks) for p in t.per_point))
        yield "pickle", pickle.loads(pickle.dumps(t))
        for i in range(1, m):
            yield "galois_rotate", galois_rotate(t, i)
    for rep in compute_orbit_section(spec, m).representatives:
        yield "compute_orbit_section", rep


@pytest.mark.parametrize("r, m, s", [(4, 2, 1), (6, 3, 2), (3, 3, 3), (6, 6, 1)])
def test_dominance_vector_is_the_per_point_sum_however_built(r, m, s):
    spec = uneven_spec(r, s, seed=900 + 10 * r + s)
    seen = set()
    for how, t in built_each_way(spec, m):
        seen.add(how)
        assert t.dominance_vector() == recounted(t), how
    assert len(seen) == 5


def test_kept_vector_stays_out_of_equality_hash_repr_and_pickle():
    spec = uneven_spec(6, 2, seed=62)
    t = next(enumerate_partitions(spec, 3))
    for other in (
        WeightPartition(t.per_point),
        galois_rotate(galois_rotate(t, 1), 2),
        pickle.loads(pickle.dumps(t)),
    ):
        assert other == t and hash(other) == hash(t) and repr(other) == repr(t)
    assert "_dominance" not in repr(t)
    assert t.__reduce__() == (WeightPartition, (t.per_point,))
    args, pinned = ARGS[WeightPartition]
    assert repr(WeightPartition(*args)) == pinned


def test_dominance_count_sums_the_points_at_most_once(monkeypatch):
    # the vector is summed when t is built; dominance_count then indexes it
    real = PointPartition.dominance_vector
    calls = []

    def counted(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(PointPartition, "dominance_vector", counted)
    spec = uneven_spec(6, 2, seed=26)
    streamed = next(enumerate_partitions(spec, 6))
    a, b = (PointPartition(p.blocks) for p in streamed.per_point)
    for make in (lambda: streamed, lambda: WeightPartition((a, b))):
        del calls[:]
        t = make()
        for i in range(1, 6):
            dominance_count(t, i)
        assert len(calls) <= 2


def defined_vector(blocks, m):
    """Entry i counts the rank pairs b < a with b's block i places after
    a's, pair by pair."""
    block_of = {k: j for j, block in enumerate(blocks) for k in block}
    vector = [0] * m
    for b, a in itertools.combinations(sorted(block_of), 2):
        vector[(block_of[b] - block_of[a]) % m] += 1
    return tuple(vector)


@pytest.mark.parametrize("r", range(1, 9))
def test_rank_core_matches_the_definition_exhaustively(r):
    # the block order by sorting de-duplicated chunked permutations, and
    # each vector pair by pair, for every m | r, anchored and not
    labels = ["w%d" % k for k in random.Random(8800 + r).sample(range(100), r)]
    labels.sort()
    perms = list(itertools.permutations(range(r)))
    for m in (d for d in range(1, r + 1) if r % d == 0):
        l = r // m
        every = sorted({
            tuple(tuple(sorted(perm[k * l : (k + 1) * l])) for k in range(m))
            for perm in perms
        })
        for anchored in (False, True):
            expected = [
                (blocks, defined_vector(blocks, m))
                for blocks in every
                if not anchored or blocks[0][0] == 0
            ]
            assert list(_rank_partitions(r, m, anchored)) == expected
            assert list(_labelled_partitions(labels, m, anchored)) == [
                (tuple(tuple(labels[k] for k in block) for block in blocks), vector)
                for blocks, vector in expected
            ]


def test_first_partition_of_rank_16_builds_no_table_of_all_block_pairs():
    # C(16, 8)^2 = 165,636,900 pairs of halves: the walk builds no table of
    # them, and counts each vector from the block of each rank
    tracemalloc.start()
    try:
        first = next(_rank_partitions(16, 2, anchored=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first == ((tuple(range(8)), tuple(range(8, 16))), (56, 64))
    assert peak < 64 * 1024


@pytest.mark.parametrize("r, m", [(16, 2), (12, 3)])
def test_a_whole_walk_keeps_no_table_that_grows_with_the_stream(r, m):
    # 12,870 and 34,650 partitions: a count or a labelled block kept for
    # every block the walk meets would take megabytes here, where the walk
    # keeps only the blocks it has placed and the block of each rank
    tracemalloc.start()
    try:
        walked = sum(1 for _ in _labelled_partitions(range(r), m, anchored=False))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert walked == count_partitions(r, m, 1)
    assert peak < 256 * 1024


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("build", [
    lambda spec, m: list(enumerate_partitions(spec, m)),
    lambda spec, m: compute_orbit_section(spec, m),
], ids=["enumerate_partitions", "compute_orbit_section"])
def test_product_walks_the_ranks_at_most_twice(monkeypatch, s, build):
    # once for point 0's stream, and once for the one list that every
    # later point relabels with its own weights
    real = partitions._rank_partitions
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(partitions, "_rank_partitions", counted)
    spec = uneven_spec(4, s, seed=4400 + s)
    for m in (2, 4):
        del calls[:]
        build(spec, m)
        assert len(calls) == min(s, 2)
