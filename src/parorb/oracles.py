"""Brute-force cross-checks, kept deliberately independent of the fast paths.

These re-derive the combinatorial counts by exhaustive enumeration with
different algorithms than the library uses, so agreement actually means
something:

- the order census ANDs per-coordinate killer masks, built by trial (bit
  k-1 of value e's mask is set iff k*e = 0 mod r), instead of taking gcds
  or inverting over divisors; each of the r^g halves of g coordinates is
  ANDed once and tallied by mask, and every element, a pair of halves, is
  counted through the pair of its halves' mask classes;
- partitions come from de-duplicated chunked permutations instead of
  recursive combinations, and rotate by list slicing instead of index
  arithmetic; the census walks no product of partitions: rotation acts on
  every point at once, so it counts, on one point's partitions of the
  labels 0..r-1, those each rotation fixes, and Burnside's lemma gives
  the orbits of the s-fold product from those m counts;
- the per-partition identities walk no product of partitions: each
  dominance count C(i) is counted from its definition, pair by pair, on
  one point's permuted-and-chunked partitions of the labels 0..r-1, one
  table serving every point; as C_t(i) = sum_p C_p(i), the s tables are
  convolved into product classes, each a summed vector, its multiplicity
  and one representative, and the dominance pairing, the dimension
  identity (its codimension worked out here) and the tally of the degree
  shifts, built from S = sum_i i*C(i), against shift_histogram, are
  checked once per class.

They back the test suite and the CLI's --oracle mode.  Every limit lives
here with its rule; the oracles keep themselves at desk scale with them, and
the CLI checks a whole run with them, as rules taking (spec, provider),
before any section starts: the genus, the census, the partitions the shifts
rows list, the fill vectors of the shift-polynomial DP and the products of
its convolution, and the digits of a partition count, an Euler sum and a
Chen-Ruan table.
"""

from __future__ import annotations

import sys
from collections import Counter
from functools import partial, reduce
from itertools import combinations, permutations, product
from operator import add, and_

from .arith import _require_divisor, divisors, format_rational
from .errors import GuardrailExceeded
from .model import ModuliSpec, moduli_dimension
from .partitions import count_partitions
from .shifts import fixed_component_dimension, shift_histogram
from .torsion import TorsionElement, count_elements_of_order, spectral_cover_data

CENSUS_LIMIT = 10 ** 7
PARTITION_LIMIT = 10 ** 6
STATE_LIMIT = 2 ** 14
CONVOLUTION_LIMIT = 10 ** 7
PRYM_LIMIT = 1000


def _enforce_prym_limit(spec: ModuliSpec, provider=None) -> None:
    """Refuse a genus whose longest Prym series, (r-1)(g-1) at m = r, is
    longer than PRYM_LIMIT; it also keeps r^(2g) near 600 digits or fewer.
    A rule for the whole run, not for one section."""
    dimension = (spec.rank - 1) * (spec.genus - 1)
    if dimension > PRYM_LIMIT:
        raise GuardrailExceeded(
            "Prym dimension (r-1)(g-1) = %d exceeds the genus guardrail %d"
            % (dimension, PRYM_LIMIT)
        )


def _enforce_census_guardrail(r: int, g: int) -> None:
    """Refuse a census of more than CENSUS_LIMIT elements."""
    size = r ** (2 * g)
    if size > CENSUS_LIMIT:
        raise GuardrailExceeded(
            "r^(2g) = %d exceeds the census guardrail %d" % (size, CENSUS_LIMIT)
        )


def _enforce_partition_limit(spec: ModuliSpec, m: int) -> None:
    """Refuse a family of more than PARTITION_LIMIT weight partitions."""
    count = count_partitions(spec.rank, m, spec.num_points)
    if count > PARTITION_LIMIT:
        raise GuardrailExceeded(
            "|P(alpha)| = %d at m = %d exceeds the partition guardrail %d"
            % (count, m, PARTITION_LIMIT)
        )


def _enforce_state_limit(spec: ModuliSpec, provider=None) -> None:
    """Refuse a spec whose shift polynomials fill more than STATE_LIMIT
    block fill vectors: (l+1)^m at order m, the most, 2^r, at m = r."""
    states = 2 ** spec.rank
    if states > STATE_LIMIT:
        raise GuardrailExceeded(
            "%d block fill vectors at m = %d exceed the state guardrail %d"
            % (states, spec.rank, STATE_LIMIT)
        )


def _enforce_convolution_limit(spec: ModuliSpec, provider=None) -> None:
    """Refuse a spec whose shift histograms may take more than
    CONVOLUTION_LIMIT products to convolve.  Each pair of ranks in
    different blocks adds 0..m-1 to S, so the order-m polynomial spans at
    most w = (m-1)(C(r,2) - m*C(l,2)), and its s-fold convolution makes at
    most s*(s*w+1)*(w+1) products; the rule sums that over the orders."""
    r, s = spec.rank, spec.num_points
    products = 0
    for m in divisors(r)[1:]:
        l = r // m
        width = (m - 1) * (r * (r - 1) // 2 - m * (l * (l - 1) // 2))
        products += s * (s * width + 1) * (width + 1)
    if products > CONVOLUTION_LIMIT:
        raise GuardrailExceeded(
            "%d products convolving the shift polynomials of %d points exceed "
            "the convolution guardrail %d" % (products, s, CONVOLUTION_LIMIT)
        )


def _table_total(provider, genus: int, rank: int, points: int) -> int:
    """The largest coefficient sum among the Betti tables on file for the
    triple, 0 when there is none (the section then stops at the lookup)."""
    tables = provider._chambers(genus, rank, points) if provider is not None else ()
    return max((table.series.total_dimension for table in tables), default=0)


def _refuse_digits(what: str, bound: int) -> None:
    """Refuse a printed integer, bounded from above by bound, that may have
    more digits than an int may have as a str (sys.get_int_max_str_digits();
    0 is no limit), so that it cannot be printed.  A bound can refuse a
    value that would just have fit."""
    limit = sys.get_int_max_str_digits()
    if limit and bound >= 10 ** limit:
        raise GuardrailExceeded(
            "%s has more than %d digits, the int-to-str limit" % (what, limit)
        )


def _enforce_count_digits(spec: ModuliSpec, provider=None) -> None:
    """The digit rule for the largest partition count, count_partitions(r, r, s)."""
    r, s = spec.rank, spec.num_points
    _refuse_digits(
        "count_partitions(r, r, s) at r = %d, s = %d" % (r, s),
        count_partitions(r, r, s),
    )


def _enforce_euler_digits(spec: ModuliSpec, provider=None) -> None:
    """The digit rule for the Euler characteristic, bounded by the sum of
    the untwisted coefficients as read."""
    _refuse_digits(
        "the sum of the untwisted coefficients",
        _table_total(provider, spec.genus, spec.rank, spec.num_points),
    )


def _enforce_table_digits(spec: ModuliSpec, provider=None) -> None:
    """The digit rule for a Chen-Ruan table, bounded by the sum of all its
    dimensions: the untwisted total plus, per order m, the elements of
    order m times their orbit classes times the total of the Prym and
    small-rank series each class carries."""
    r, g, s = spec.rank, spec.genus, spec.num_points
    bound = _table_total(provider, g, r, s)
    for m in divisors(r)[1:]:
        cover = spectral_cover_data(g, m)
        small = 1 if m == r else _table_total(provider, cover.cover_genus, r // m, s * m)
        bound += (
            count_elements_of_order(r, g, m) * (count_partitions(r, m, s) // m)
            * 4 ** cover.prym_dimension * small
        )
    _refuse_digits("the sum of the cr_table dimensions", bound)


def brute_force_order_census(r: int, g: int) -> dict[int, int]:
    """Order census of (Z/r)^(2g) by walking every element.

    Each coordinate value e gets a killer mask, found by trial: bit k-1 is
    set iff k*e vanishes mod r, for k = 1..r.  An element's killers are the
    AND of its 2g masks, and its order is the lowest of them.  Each of the
    r^g half-vectors of g coordinates is walked and ANDed once, and the
    halves are tallied by mask; every element is a pair of halves, so each
    pair of mask classes is one AND, and it stands for the product of the
    two tallies.  The census still covers all r^(2g) elements; no gcd
    shortcut, no Möbius inversion.

    >>> brute_force_order_census(2, 1) == {1: 1, 2: 3}
    True
    """
    if type(r) is not int or type(g) is not int or r < 1 or g < 1:
        raise ValueError("need ints r >= 1 and g >= 1, got r = %r, g = %r" % (r, g))
    _enforce_census_guardrail(r, g)
    killers = [
        sum(1 << (k - 1) for k in range(1, r + 1) if (k * e) % r == 0)
        for e in range(r)
    ]
    halves = Counter(map(partial(reduce, and_), product(killers, repeat=g)))
    census: dict[int, int] = {}
    for (a, count_a), (b, count_b) in product(halves.items(), repeat=2):
        mask = a & b
        order = (mask & -mask).bit_length()
        census[order] = census.get(order, 0) + count_a * count_b
    return dict(sorted(census.items()))


def brute_force_point_partitions(weights, m: int) -> set:
    """All ordered equal-block partitions of one point's weights.

    Generated by chunking every permutation into consecutive blocks and
    sorting inside each block, then de-duplicating — a different route than
    the recursive combination enumerator.  m must divide the number of
    weights.
    """
    items = tuple(weights)
    _require_divisor(m, len(items))
    l = len(items) // m
    return {
        tuple(map(tuple, map(sorted, zip(*[iter(perm)] * l))))
        for perm in permutations(items)
    }


def _label_partitions(spec: ModuliSpec, m: int) -> list:
    """One point's partitions of the labels 0..r-1 into m blocks, ascending.

    Label k stands for a point's k-th smallest weight; every point has r
    distinct weights, so this one table serves all s points.
    """
    return sorted(brute_force_point_partitions(range(spec.rank), m))


def brute_force_partition_census(spec: ModuliSpec, m: int) -> dict:
    """Partition count plus rotation-orbit structure, from one point's table.

    Returns {"count", "orbit_count", "orbits_all_size_m"}; rotation is done
    by list slicing, an independent expression of the same action.  It
    moves every point's blocks at once, so a combination is fixed by
    rotation k iff each of its points is.  With fixed[k] the entries of
    _label_partitions that rotation k fixes, the product holds fixed[0]^s
    partitions, fixed[k]^s of them fixed by rotation k, and Burnside's
    lemma counts the orbits as the mean of those m numbers.  Every orbit
    has m members iff no rotation but the identity fixes an entry.
    """
    _enforce_partition_limit(spec, m)
    table = _label_partitions(spec, m)
    fixed = [sum(blocks[k:] + blocks[:k] == blocks for blocks in table) for k in range(m)]
    s = spec.num_points
    return {
        "count": fixed[0] ** s,
        "orbit_count": sum(n ** s for n in fixed) // m,
        "orbits_all_size_m": not any(fixed[1:]),
    }


def _dominance_by_definition(blocks: tuple, m: int) -> tuple[int, ...]:
    """C(0), ..., C(m-1) of one point's partition of the labels 0..r-1 into
    m blocks, from the definition: entry i counts the pairs a > b with a in
    block j and b in block j+i mod m, read pair by pair off each label's
    block."""
    place = [0] * (m * len(blocks[0]))
    for j, block in enumerate(blocks):
        for a in block:
            place[a] = j
    counts = [0] * m
    for b, a in combinations(range(len(place)), 2):
        counts[(place[b] - place[a]) % m] += 1
    return tuple(counts)


def _partition_classes(spec: ModuliSpec, m: int) -> dict:
    """{C_t: [number of partitions t with it, one of them]} over the product
    of spec's points' partitions into m blocks, t one partition of the
    labels 0..r-1 per point.

    Each entry of _label_partitions, the one table serving all s points,
    is counted from the definition.  C_t(i) = sum_p C_p(i), so the
    product's classes are the s-fold convolution of the table's, and the
    first class holds the least t.
    """
    table: dict = {}
    for blocks in _label_partitions(spec, m):
        vector = _dominance_by_definition(blocks, m)
        if vector in table:
            table[vector][0] += 1
        else:
            table[vector] = [1, blocks]
    classes = {(0,) * m: [1, ()]}
    for _ in spec.weights:
        grown: dict = {}
        for vector, (count, t) in classes.items():
            for point_vector, (point_count, blocks) in table.items():
                summed = tuple(map(add, vector, point_vector))
                if summed in grown:
                    grown[summed][0] += count * point_count
                else:
                    grown[summed] = [count * point_count, t + (blocks,)]
        classes = grown
    return classes


def _weight_mapping(spec: ModuliSpec, t: tuple) -> list:
    """t, one partition of the labels 0..r-1 per point, as the nested lists
    of weight strings WeightPartition.to_mapping gives: label k is the
    point's k-th smallest weight."""
    return [
        [[format_rational(weights[k]) for k in block] for block in blocks]
        for weights, blocks in zip(spec.weights, t)
    ]


def check_partition_identities(
    spec: ModuliSpec, m: int, eta: TorsionElement | None
) -> tuple[dict, dict | None, dict | None]:
    """Dominance pairing, dimension bookkeeping and the shift tally at
    order m, once per class of _partition_classes.

    Pairing: C_t(i) + C_t(m-i) must equal s*m*l^2 for every t and i.
    With eta of order m, mult(i) = r^2 (g-1)/m + C_t(i) for i >= 1, and
    dimension: moduli_dimension must equal fixed_component_dimension plus
    the codimension sum_i mult(i) for every t; shift tally: the number of
    partitions per m*shift = sum_i i*mult(i) must be m times
    shift_histogram's number of orbit classes per shift, compared on the
    integer keys m*shift.  Pass eta=None when its hypotheses fail; the
    last two checks are then not run.  A failing pairing or dimension
    check names the representative of the first class that fails it, and
    a failing tally the least key it disagrees on.  Returns (pairing,
    dimension, shift tally), the last two None without eta.
    """
    s, l = spec.num_points, spec.rank // m
    target = s * m * l * l
    classes = _partition_classes(spec, m)
    count = sum(n for n, _ in classes.values())
    pairing = {"pass": True, "checked": count * (m - 1), "target": target}
    for vector, (_, t) in classes.items():
        i = next((i for i in range(1, m) if vector[i] + vector[m - i] != target), 0)
        if i:
            pairing = {
                "pass": False, "failing_partition": _weight_mapping(spec, t), "i": i
            }
            break
    if eta is None:
        return pairing, None, None

    dim = moduli_dimension(spec)
    fixed = fixed_component_dimension(spec, eta)
    base = spec.rank * spec.rank * (spec.genus - 1) // m
    dimension = {"pass": True, "checked": count, "moduli_dimension": dim}
    tally: Counter = Counter()
    for vector, (n, t) in classes.items():
        mults = [base + c for c in vector[1:]]
        if dimension["pass"] and fixed + sum(mults) != dim:
            dimension = {"pass": False, "failing_partition": _weight_mapping(spec, t)}
        tally[sum(i * mult for i, mult in enumerate(mults, 1))] += n
    expected = {m * shift: m * n for shift, n in shift_histogram(spec, eta).items()}
    shift_tally = {"pass": True, "checked": count, "distinct_shifts": len(expected)}
    for key in sorted(tally.keys() | expected.keys()):
        if tally[key] != expected.get(key, 0):
            shift_tally = {
                "pass": False, "m_times_shift": str(key),
                "tallied": tally[key], "expected": expected.get(key, 0),
            }
            break
    return pairing, dimension, shift_tally
