"""Ordered equal-block partitions of parabolic weights and their rotations.

For a rank r divisible by m, each marked point's r weights are split into an
ordered tuple of m blocks of size l = r/m.  A tuple of such splittings, one
per point, is a WeightPartition.  The cyclic rotation of block positions
(diagonally across all points) is a free action, so orbits have size exactly
m; the lexicographically least member of an orbit is its representative.

Weights within a point are distinct, so every combinatorial quantity depends
only on their ranks 0..r-1, and enumeration runs on those ranks: blocks of
small ints are chosen in position order, and each partition's dominance
vector is counted from the block of each rank once its blocks are placed, by
the same rule as for a partition built directly.  One product generator,
_labelled_product, walks every weight partition: it serves
enumerate_partitions and compute_orbit_section with the sorted weights as
labels, and the CLI's shifts rows with their strings.  The labels are
attached only to each yielded partition, in one pass over its ranks.  The
points after the first share one walk of the ranks, which each relabels
with its own labels, and each partition's points' vectors are summed as the
product advances, one add per partition.  A PointPartition keeps its
vector, and a WeightPartition keeps that sum, set once where it is built;
a rotation carries its source's vector over.  The least rotation is always
the one that puts point 0's smallest weight (rank 0) into block 0, the only
block starting with it.  compute_orbit_section therefore builds exactly the
partitions whose first block starts with rank 0, and orbit_canonical only
has to find which block holds that weight.

Blocks are kept internally sorted, so comparisons and representatives are
deterministic: partitions compare by (point index, block index, block
contents).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import chain, combinations, starmap
from math import factorial
from operator import add
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .arith import _require_divisor, format_rational
from .errors import IndexOutOfRange, _Frozen
from .model import ModuliSpec, _require_weight_count


@total_ordering
class PointPartition(_Frozen):
    """Ordered tuple of equal-size blocks covering one point's weights."""

    __match_args__ = ("blocks",)

    def __init__(self, blocks: tuple[tuple[Fraction, ...], ...]):
        blocks = tuple(tuple(sorted(block)) for block in blocks)
        if not blocks:
            raise ValueError("a point partition needs at least one block")
        size = len(blocks[0])
        if size == 0 or any(len(b) != size for b in blocks):
            raise ValueError("blocks must be nonempty and of equal size")
        object.__setattr__(self, "blocks", blocks)

    # total_ordering derives <=, > and >= from < and the base's ==
    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.blocks < other.blocks
        return NotImplemented

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    def dominance_vector(self) -> tuple[int, ...]:
        """Entry i counts the pairs a > b with b in the block i places after a's.

        Kept once per object.  Enumerations set it from the ranks they
        already hold, and share PointPartition objects.  A partition built
        directly sorts its weights once, to read off the block of each rank,
        and counts with the same rule.  Weights within a point must be
        distinct: the count runs on their ranks.
        """
        try:
            return self._dominance  # type: ignore[attr-defined]
        except AttributeError:
            pass
        labelled = sorted((w, j) for j, block in enumerate(self.blocks) for w in block)
        if any(x[0] == y[0] for x, y in zip(labelled, labelled[1:])):
            raise ValueError("weights within a point must be distinct")
        vector = _dominance_counts([j for _, j in labelled], self.m)
        object.__setattr__(self, "_dominance", vector)
        return vector

    @classmethod
    def _enumerated(
        cls, blocks: tuple[tuple[Fraction, ...], ...], dominance: tuple[int, ...]
    ) -> PointPartition:
        """A partition from an enumeration or galois_rotate: blocks already
        sorted and of equal size, and its dominance vector known."""
        part = object.__new__(cls)
        object.__setattr__(part, "blocks", blocks)
        object.__setattr__(part, "_dominance", dominance)
        return part


@total_ordering
class WeightPartition(_Frozen):
    """One PointPartition per marked point, all with the same block shape."""

    __match_args__ = ("per_point",)

    def __init__(self, per_point: tuple[PointPartition, ...]):
        if not per_point:
            raise ValueError("a weight partition needs at least one point")
        first = per_point[0].blocks
        m, l = len(first), len(first[0])
        for p in per_point:
            if len(p.blocks) != m or len(p.blocks[0]) != l:
                raise ValueError("all points must share the same block shape")
        object.__setattr__(self, "per_point", per_point)
        # like TorsionElement._order, outside ==, hash, repr and pickling: an
        # unpickled partition comes back through here and sums again
        if len(per_point) == 1:
            vector = per_point[0].dominance_vector()
        else:
            vector = tuple(map(sum, zip(*[p.dominance_vector() for p in per_point])))
        object.__setattr__(self, "_dominance", vector)

    @classmethod
    def _enumerated(
        cls, per_point: tuple[PointPartition, ...], dominance: tuple[int, ...]
    ) -> WeightPartition:
        """A partition from _partition_product or galois_rotate: points of
        one shape, and the sum of their dominance vectors already known."""
        part = object.__new__(cls)
        object.__setattr__(part, "per_point", per_point)
        object.__setattr__(part, "_dominance", dominance)
        return part

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return self.per_point < other.per_point
        return NotImplemented

    @property
    def m(self) -> int:
        return self.per_point[0].m

    @property
    def block_size(self) -> int:
        return self.per_point[0].block_size

    @property
    def num_points(self) -> int:
        return len(self.per_point)

    def dominance_vector(self) -> tuple[int, ...]:
        """Sum of the per-point dominance vectors; entry i is C_t(i).

        Summed once, when the partition is built, and returned as kept.
        """
        return self._dominance

    def to_mapping(self) -> list:
        """Fresh nested lists of weight strings, safe for the caller to mutate."""
        return [
            [list(map(format_rational, block)) for block in point.blocks]
            for point in self.per_point
        ]


def count_partitions(r: int, m: int, s: int) -> int:
    """Number of weight partitions: (r! / (l!)^m)^s with l = r/m.

    Equivalently the product of binomials C(r,l)C(r-l,l)...C(l,l), once per
    point.

    >>> count_partitions(2, 2, 1)
    2
    >>> count_partitions(6, 3, 1)
    90
    >>> count_partitions(6, 6, 2)
    518400
    """
    if type(s) is not int or r < 1 or s < 1:
        raise ValueError("need r >= 1 and an int s >= 1")
    _require_divisor(m, r)
    l = r // m
    per_point = factorial(r) // factorial(l) ** m
    return per_point ** s


def _dominance_counts(blk: list[int], m: int) -> tuple[int, ...]:
    """Entry i counts the rank pairs b < a with blk[b] - blk[a] = i mod m.

    blk[k] is the block of the k-th smallest weight; one pass over the
    r(r-1)/2 pairs gives every i at once.  The one rule for a partition's
    vector, whether it is built directly or yielded by the walk.
    """
    counts = [0] * m
    for a, blk_a in enumerate(blk):
        for blk_b in blk[:a]:
            counts[(blk_b - blk_a) % m] += 1
    return tuple(counts)


def _rank_partitions(
    r: int, m: int, anchored: bool
) -> Iterator[tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]]:
    """(blocks, dominance vector) of each ordered partition of the ranks
    0..r-1 into m blocks of r/m, ascending.

    Blocks are sorted, and all m! arrangements of a set partition appear.
    anchored yields only the partitions whose first block starts with rank
    0, which lead the stream, and builds no other.

    The one integer-labelled core behind every per-point enumeration.
    Blocks are chosen in position order, and each partition's vector is
    counted by _dominance_counts once all m are placed, so the walk keeps
    nothing but the blocks on its path and the block of each rank.
    """
    l = r // m
    # blk[k] is the block of rank k on the current path: placing a block
    # overwrites only its own ranks, which no deeper block holds
    blk = [0] * r

    def rec(remaining, heads, blocks):
        for head in heads:
            for k in head:
                blk[k] = len(blocks)
            placed = blocks + (head,)
            rest = [k for k in remaining if k not in head]
            if rest:
                yield from rec(rest, combinations(rest, l), placed)
            else:
                yield placed, _dominance_counts(blk, m)

    ranks = tuple(range(r))
    if anchored:
        heads = ((0,) + more for more in combinations(ranks[1:], l - 1))
    else:
        heads = combinations(ranks, l)
    return rec(ranks, heads, ())


def _sorted_distinct(spec: ModuliSpec) -> list[list[Fraction]]:
    """Each point's weights in rank order, after the one per-point check: a
    point without exactly spec.rank weights raises WeightCountMismatch, as
    validation does, and tied weights raise ValueError."""
    points = []
    for p, weights in enumerate(spec.weights):
        _require_weight_count(p, weights, spec.rank)
        ranked = sorted(weights)
        if any(a == b for a, b in zip(ranked, ranked[1:])):
            raise ValueError("weights within a point must be distinct")
        points.append(ranked)
    return points


def _labelled_partitions(
    labels: Sequence,
    m: int,
    anchored: bool,
    ranked: Optional[Iterable[tuple]] = None,
) -> Iterator[tuple[tuple[tuple, ...], tuple[int, ...]]]:
    """_rank_partitions(len(labels), m, anchored) with rank k shown as
    labels[k]: a point's sorted weights, their strings, or the ranks.

    ranked, when given, is that walk already made: the one list that every
    later point of a product relabels.  Each partition's ranks are mapped
    in one pass and cut back into blocks of r/m, so no table of labelled
    blocks is kept.
    """
    if ranked is None:
        ranked = _rank_partitions(len(labels), m, anchored)
    show, l = labels.__getitem__, len(labels) // m
    for blocks, vector in ranked:
        yield tuple(zip(*[iter(map(show, chain.from_iterable(blocks)))] * l)), vector


def _labelled_product(
    labels: Sequence[Sequence], m: int, anchored: bool, make: Optional[Callable] = None
) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """(one entry per point, the sum of the points' dominance vectors) of
    each weight partition, ascending; labels[p] labels point p's ranks.

    An entry is make(blocks, vector), or the labelled blocks when make is
    None.  Point 0 streams, anchored or not.  The ranks are walked once
    more, for one list that every later point relabels, so each later
    point's entries are built once and shared.  The vector sum is carried
    down the points, so each partition costs one add, and an earlier
    point's add is shared by every partition below it.
    """

    def entries(point, anchored, ranked=None):
        for blocks, vector in _labelled_partitions(point, m, anchored, ranked):
            yield (blocks if make is None else make(blocks, vector)), vector

    def extend(level, points, vector):
        last = level + 1 == len(tails)
        for entry, p_vector in tails[level]:
            summed = tuple(map(add, vector, p_vector))
            if last:
                yield points + (entry,), summed
            else:
                yield from extend(level + 1, points + (entry,), summed)

    head, *rest = labels
    tails = []
    if rest:
        ranked = list(_rank_partitions(len(head), m, anchored=False))
        tails = [list(entries(point, False, ranked)) for point in rest]
        del ranked  # only the relabelled lists live on while point 0 streams
    for entry, vector in entries(head, anchored):
        if tails:
            yield from extend(0, (entry,), vector)
        else:
            yield (entry,), vector


def _partition_product(
    spec: ModuliSpec, m: int, anchored: bool
) -> Iterator[WeightPartition]:
    """_labelled_product over the sorted weights, as WeightPartitions."""
    _require_divisor(m, spec.rank)
    labels = _sorted_distinct(spec)
    points = _labelled_product(labels, m, anchored, PointPartition._enumerated)
    return starmap(WeightPartition._enumerated, points)


def enumerate_partitions(spec: ModuliSpec, m: int) -> Iterator[WeightPartition]:
    """Stream every weight partition of spec's weights into m blocks per point.

    Deterministic ascending order, no duplicates, nothing materialized
    beyond one per-point table for the points after the first (the first
    point streams, so single-point instances use memory that does not grow
    with the stream: the walk keeps only the blocks it has placed).  m and
    each point's weights are checked when it is called, before the stream.
    """
    return _partition_product(spec, m, anchored=False)


def induced_weights(t: WeightPartition, point_index: int) -> list[list[Fraction]]:
    """The m blocks at one point, each as a sorted list (ascending).

    These are the weight tuples the m sheets of the quotient construction
    carry over the chosen point.  A point_index that is not an int (a bool
    is not) is out of range.
    """
    if type(point_index) is not int or not 0 <= point_index < t.num_points:
        raise IndexOutOfRange(
            "point index %r outside 0..%d" % (point_index, t.num_points - 1)
        )
    return [list(block) for block in t.per_point[point_index].blocks]


def galois_rotate(t: WeightPartition, i: int) -> WeightPartition:
    """Rotate block positions by i: output block j holds input block j+i mod m.

    Rotating by m (or 0) returns an equal partition; rotations compose
    additively.  An i that is not an int (a bool is not) is out of range.
    """
    if type(i) is not int:
        raise IndexOutOfRange("rotation amount %r is not an int" % (i,))
    m = t.m
    i %= m
    if i == 0:
        return t
    # a rotation keeps how many places apart each pair of blocks is, so
    # every point's dominance vector, and their sum, carry over as they are
    return WeightPartition._enumerated(
        tuple(
            PointPartition._enumerated(
                tuple(point.blocks[(j + i) % m] for j in range(m)),
                point.dominance_vector(),
            )
            for point in t.per_point
        ),
        t.dominance_vector(),
    )


def orbit_canonical(t: WeightPartition) -> tuple[WeightPartition, int]:
    """Lexicographically least rotation of t, plus the rotation amount that
    recovers t from it: galois_rotate(rep, amount) == t.

    The least rotation brings the point-0 block holding point 0's smallest
    weight to position 0, so finding that block is all the work.  A
    canonical t is returned as is, with amount 0.
    """
    m = t.m
    blocks = t.per_point[0].blocks
    j = min(range(m), key=lambda k: blocks[k][0])
    return galois_rotate(t, j), (m - j) % m


class OrbitSection(_Frozen):
    """One representative per rotation orbit, plus reverse lookup.

    representatives are the lexicographically least members of their orbits,
    listed ascending; every orbit has size exactly m (the action is free),
    so orbit_count * m == partition_count.  The reverse index behind locate
    and representative_index is built on the first call to either and then
    kept.
    """

    __match_args__ = ("m", "partition_count", "representatives")

    @cached_property
    def _rep_index(self) -> dict[WeightPartition, int]:
        return {rep: k for k, rep in enumerate(self.representatives)}

    @property
    def orbit_count(self) -> int:
        return len(self.representatives)

    def locate(self, t: WeightPartition) -> tuple[WeightPartition, int]:
        """(representative, rotation) with galois_rotate(rep, rotation) == t."""
        rep, amount = orbit_canonical(t)
        if rep not in self._rep_index:
            raise KeyError("partition does not belong to this family")
        return rep, amount

    def representative_index(self, rep: WeightPartition) -> int:
        return self._rep_index[rep]


def compute_orbit_section(spec: ModuliSpec, m: int) -> OrbitSection:
    """One representative per rotation orbit, without visiting the others.

    The product of the per-point partitions with point 0 anchored: only the
    partitions with point 0's smallest weight in block 0, which are exactly
    the least members of their orbits, in ascending order.  PointPartition
    objects, and so their dominance vectors, are shared between the
    representatives that use them.
    """
    representatives = tuple(_partition_product(spec, m, anchored=True))
    total = count_partitions(spec.rank, m, spec.num_points)
    if len(representatives) * m != total:
        raise AssertionError(
            "rotation orbits are not all of size %d: %d reps, %d partitions"
            % (m, len(representatives), total)
        )
    return OrbitSection(m=m, partition_count=total, representatives=representatives)
