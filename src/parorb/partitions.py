"""Ordered equal-block partitions of parabolic weights and their rotations.

For a rank r divisible by m, each marked point's r weights are split into an
ordered tuple of m blocks of size l = r/m.  A tuple of such splittings, one
per point, is a WeightPartition.  The cyclic rotation of block positions
(diagonally across all points) is a free action, so orbits have size exactly
m; the lexicographically least member of an orbit is its representative.

Weights within a point are distinct, so every combinatorial quantity depends
only on their ranks 0..r-1, and the least rotation is always the one that
puts point 0's smallest weight into block 0 (that block is the only one
starting with the smallest weight).  compute_orbit_section therefore
enumerates exactly those partitions, and orbit_canonical only has to find
which block holds that weight.

Blocks are kept internally sorted, so comparisons and representatives are
deterministic: partitions compare by (point index, block index, block
contents).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import factorial
from typing import Iterable, Iterator

from .arith import _require_divisor, format_rational
from .errors import IndexOutOfRange
from .model import ModuliSpec


@dataclass(frozen=True, order=True)
class PointPartition:
    """Ordered tuple of equal-size blocks covering one point's weights."""

    blocks: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "blocks", tuple(tuple(sorted(block)) for block in self.blocks)
        )
        if not self.blocks:
            raise ValueError("a point partition needs at least one block")
        size = len(self.blocks[0])
        if size == 0 or any(len(b) != size for b in self.blocks):
            raise ValueError("blocks must be nonempty and of equal size")

    @property
    def m(self) -> int:
        return len(self.blocks)

    @property
    def block_size(self) -> int:
        return len(self.blocks[0])

    def dominance_vector(self) -> tuple[int, ...]:
        """Entry i counts the pairs a > b with b in the block i places after a's.

        Read off the block of each weight in ascending order (the point's
        labelling) and count over those labels, once per object; enumerations
        share PointPartition objects, so the vector is kept.  Weights within
        a point must be distinct: the count runs on their ranks.
        """
        try:
            return self._dominance  # type: ignore[attr-defined]
        except AttributeError:
            pass
        labelled = sorted((w, j) for j, block in enumerate(self.blocks) for w in block)
        if any(x[0] == y[0] for x, y in zip(labelled, labelled[1:])):
            raise ValueError("weights within a point must be distinct")
        # blk[k] is the block of the k-th smallest weight; one pass over the
        # r(r-1)/2 label pairs b < a gives every i at once
        blk = [j for _, j in labelled]
        counts = [0] * self.m
        for a, blk_a in enumerate(blk):
            for blk_b in blk[:a]:
                counts[(blk_b - blk_a) % self.m] += 1
        vector = tuple(counts)
        object.__setattr__(self, "_dominance", vector)
        return vector

    def formatted_blocks(self) -> tuple[tuple[str, ...], ...]:
        """The blocks with each weight as its exact string, built once per
        object; the representatives of a section share PointPartitions."""
        try:
            return self._formatted  # type: ignore[attr-defined]
        except AttributeError:
            pass
        formatted = tuple(tuple(map(format_rational, block)) for block in self.blocks)
        object.__setattr__(self, "_formatted", formatted)
        return formatted


@dataclass(frozen=True, order=True)
class WeightPartition:
    """One PointPartition per marked point, all with the same block shape."""

    per_point: tuple[PointPartition, ...]

    def __post_init__(self):
        if not self.per_point:
            raise ValueError("a weight partition needs at least one point")
        m, l = self.per_point[0].m, self.per_point[0].block_size
        if any(p.m != m or p.block_size != l for p in self.per_point):
            raise ValueError("all points must share the same block shape")

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
        """Sum of the per-point dominance vectors; entry i is C_t(i)."""
        try:
            return self._dominance  # type: ignore[attr-defined]
        except AttributeError:
            pass
        vector = tuple(map(sum, zip(*(p.dominance_vector() for p in self.per_point))))
        object.__setattr__(self, "_dominance", vector)
        return vector

    def to_mapping(self) -> list:
        """Fresh nested lists of weight strings, safe for the caller to mutate."""
        return [list(map(list, point.formatted_blocks())) for point in self.per_point]


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
    if r < 1 or s < 1:
        raise ValueError("need r >= 1 and s >= 1")
    _require_divisor(m, r)
    l = r // m
    per_point = factorial(r) // factorial(l) ** m
    return per_point ** s


def _ordered_block_partitions(
    weights: Iterable[Fraction], m: int
) -> Iterator[tuple[tuple[Fraction, ...], ...]]:
    """Ordered partitions of distinct sorted weights into m equal blocks.

    Yields block tuples in lexicographic order (blocks themselves sorted);
    block order matters, so all m! arrangements of a given set partition
    appear.
    """
    items = tuple(weights)
    l = len(items) // m

    def rec(remaining: tuple[Fraction, ...]) -> Iterator[tuple]:
        if len(remaining) == l:
            yield (remaining,)
            return
        for first in combinations(remaining, l):
            chosen = set(first)
            rest = tuple(x for x in remaining if x not in chosen)
            for tail in rec(rest):
                yield (first,) + tail

    return rec(items)


def _point_partitions(
    weights: Iterable[Fraction], m: int, anchored: bool = False
) -> Iterator[PointPartition]:
    """One point's ordered block partitions, ascending.

    anchored keeps only the partitions with the smallest weight in block 0.
    """
    ranked = sorted(weights)
    for blocks in _ordered_block_partitions(ranked, m):
        if not anchored or blocks[0][0] == ranked[0]:
            yield PointPartition(blocks)


def _partition_product(
    spec: ModuliSpec, m: int, anchored: bool
) -> Iterator[WeightPartition]:
    """The product of the per-point partitions, ascending; point 0 streams,
    anchored or not, and each later point's list is built once and shared."""
    _require_divisor(m, spec.rank)
    tail_lists = [list(_point_partitions(point, m)) for point in spec.weights[1:]]
    for head in _point_partitions(spec.weights[0], m, anchored):
        for tail in product(*tail_lists):
            yield WeightPartition((head,) + tail)


def enumerate_partitions(spec: ModuliSpec, m: int) -> Iterator[WeightPartition]:
    """Stream every weight partition of spec's weights into m blocks per point.

    Deterministic ascending order, no duplicates, nothing materialized
    beyond one per-point table for the points after the first (the first
    point streams, so single-point instances use O(1) memory).
    """
    return _partition_product(spec, m, anchored=False)


def induced_weights(t: WeightPartition, point_index: int) -> list[list[Fraction]]:
    """The m blocks at one point, each as a sorted list (ascending).

    These are the weight tuples the m sheets of the quotient construction
    carry over the chosen point.
    """
    if not 0 <= point_index < t.num_points:
        raise IndexOutOfRange(
            "point index %r outside 0..%d" % (point_index, t.num_points - 1)
        )
    return [list(block) for block in t.per_point[point_index].blocks]


def galois_rotate(t: WeightPartition, i: int) -> WeightPartition:
    """Rotate block positions by i: output block j holds input block j+i mod m.

    Rotating by m (or 0) returns an equal partition; rotations compose
    additively.
    """
    m = t.m
    i %= m
    if i == 0:
        return t
    return WeightPartition(
        tuple(
            PointPartition(tuple(point.blocks[(j + i) % m] for j in range(m)))
            for point in t.per_point
        )
    )


def orbit_canonical(t: WeightPartition) -> tuple[WeightPartition, int]:
    """Lexicographically least rotation of t, plus the rotation amount that
    recovers t from it: galois_rotate(rep, amount) == t.

    The least rotation brings the point-0 block holding point 0's smallest
    weight to position 0, so finding that block is all the work.  The answer
    is kept on t: the rotation amount, and the representative only when it
    is not t itself (t holding itself would be a reference cycle that keeps
    streamed partitions alive until the cyclic collector runs).  A canonical
    t is returned as is, with amount 0.
    """
    try:
        rep, amount = t._orbit  # type: ignore[attr-defined]
    except AttributeError:
        m = t.m
        blocks = t.per_point[0].blocks
        j = min(range(m), key=lambda k: blocks[k][0])
        rep, amount = (galois_rotate(t, j) if j else None), (m - j) % m
        object.__setattr__(t, "_orbit", (rep, amount))
    return (t if rep is None else rep), amount


@dataclass(frozen=True)
class OrbitSection:
    """One representative per rotation orbit, plus reverse lookup.

    representatives are the lexicographically least members of their orbits,
    listed ascending; every orbit has size exactly m (the action is free),
    so orbit_count * m == partition_count.  The reverse index behind locate
    and representative_index is built on the first call to either and then
    kept.
    """

    m: int
    partition_count: int
    representatives: tuple[WeightPartition, ...]

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
