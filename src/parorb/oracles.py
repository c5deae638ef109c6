"""Brute-force cross-checks, kept deliberately independent of the fast paths.

These re-derive the combinatorial counts by exhaustive enumeration with
different algorithms than the library uses, so agreement actually means
something:

- the order census walks every element and ANDs per-coordinate killer
  masks, built by trial (bit k-1 of value e's mask is set iff k*e = 0 mod
  r), instead of taking gcds or inverting over divisors;
- partitions come from de-duplicated permutations instead of recursive
  combinations, and rotate by list slicing instead of index tables;
- the two per-partition identities, dominance pairing and dimension
  bookkeeping, share one enumerate_partitions stream but check separate
  formulas.

They back the test suite and the CLI's --oracle mode; guardrails keep them
at desk scale.
"""

from __future__ import annotations

from collections import Counter
from functools import partial, reduce
from itertools import permutations, product
from operator import and_

from .errors import GuardrailExceeded
from .model import ModuliSpec, moduli_dimension
from .partitions import count_partitions
from .shifts import dominance_count, total_codimension, fixed_component_dimension
from .torsion import TorsionElement

CENSUS_LIMIT = 10 ** 7
PARTITION_LIMIT = 10 ** 6


def brute_force_order_census(r: int, g: int) -> dict[int, int]:
    """Order census of (Z/r)^(2g) by walking every element.

    Each coordinate value e gets a killer mask, found by trial: bit k-1 is
    set iff k*e vanishes mod r, for k = 1..r.  An element's killers are the
    AND of its 2g masks, and its order is the lowest of them, so the walk
    tallies elements by mask and reads one order per distinct mask; no gcd
    shortcut, no Möbius inversion.

    >>> brute_force_order_census(2, 1) == {1: 1, 2: 3}
    True
    """
    _enforce_census_guardrail(r, g)
    killers = [
        sum(1 << (k - 1) for k in range(1, r + 1) if (k * e) % r == 0)
        for e in range(r)
    ]
    by_mask = Counter(map(partial(reduce, and_), product(killers, repeat=2 * g)))
    census: dict[int, int] = {}
    for mask, count in by_mask.items():
        order = (mask & -mask).bit_length()
        census[order] = census.get(order, 0) + count
    return dict(sorted(census.items()))


def brute_force_point_partitions(weights, m: int) -> set:
    """All ordered equal-block partitions of one point's weights.

    Generated by chunking every permutation into consecutive blocks and
    sorting inside each block, then de-duplicating — a different route than
    the recursive combination enumerator.
    """
    items = tuple(weights)
    l = len(items) // m
    found = set()
    for perm in permutations(items):
        blocks = tuple(
            tuple(sorted(perm[k * l : (k + 1) * l])) for k in range(m)
        )
        found.add(blocks)
    return found


def brute_force_partition_census(spec: ModuliSpec, m: int) -> dict:
    """Exhaustive partition count plus rotation-orbit structure.

    Returns {"count", "orbit_count", "orbits_all_size_m"}; rotation is done
    by list slicing (blocks[i:] + blocks[:i] applied at every point), an
    independent expression of the same action.
    """
    expected = count_partitions(spec.rank, m, spec.num_points)
    if expected > PARTITION_LIMIT:
        raise GuardrailExceeded(
            "partition enumeration of %d items exceeds %d"
            % (expected, PARTITION_LIMIT)
        )
    # relabel each point's weights by their sorted positions: partitions of
    # labels and of weights correspond one-to-one, and small-int hashing
    # keeps the exhaustive sweep affordable
    relabeled = [tuple(range(len(point))) for point in spec.weights]
    per_point = [
        sorted(brute_force_point_partitions(point, m)) for point in relabeled
    ]
    count = 0
    seen_orbit_min = set()
    orbits_all_size_m = True
    for combo in product(*per_point):
        count += 1
        rotations = {
            tuple(blocks[i:] + blocks[:i] for blocks in combo) for i in range(m)
        }
        if len(rotations) != m:
            orbits_all_size_m = False
        seen_orbit_min.add(min(rotations))
    return {
        "count": count,
        "orbit_count": len(seen_orbit_min),
        "orbits_all_size_m": orbits_all_size_m,
    }


def check_partition_identities(
    spec: ModuliSpec, m: int, eta: TorsionElement | None, partitions
) -> tuple[dict, dict | None]:
    """Dominance pairing and dimension bookkeeping over one partition stream.

    Pairing: C_t(i) + C_t(m-i) must equal s*m*l^2 for every t and i.
    Dimension: moduli_dimension must equal fixed dim + codim for every t,
    with eta of order m; pass eta=None when its hypotheses fail, and that
    check is not run.  Each check stops at its first failure, and the
    stream is read until both are decided.  Returns (pairing, dimension),
    the latter None without eta.
    """
    s = spec.num_points
    l = spec.rank // m
    target = s * m * l * l
    pairing = dimension = None
    pairs_checked = dims_checked = 0
    dimension_open = eta is not None
    if dimension_open:
        dim = moduli_dimension(spec)
        fixed = fixed_component_dimension(spec, eta)
    for t in partitions:
        if pairing is None:
            for i in range(1, m):
                if dominance_count(t, i) + dominance_count(t, m - i) != target:
                    pairing = {
                        "pass": False, "failing_partition": t.to_mapping(), "i": i
                    }
                    break
                pairs_checked += 1
        if dimension_open:
            if fixed + total_codimension(spec, eta, t) != dim:
                dimension = {"pass": False, "failing_partition": t.to_mapping()}
                dimension_open = False
            else:
                dims_checked += 1
        if pairing is not None and not dimension_open:
            break
    if pairing is None:
        pairing = {"pass": True, "checked": pairs_checked, "target": target}
    if dimension_open:
        dimension = {"pass": True, "checked": dims_checked, "moduli_dimension": dim}
    return pairing, dimension


def enforce_oracle_guardrails(spec: ModuliSpec) -> None:
    """Hard limits for oracle mode: census and partition enumerations."""
    _enforce_census_guardrail(spec.rank, spec.genus)
    enforce_partition_guardrail(spec)


def _enforce_census_guardrail(r: int, g: int) -> None:
    """Refuse a census of more than CENSUS_LIMIT elements.

    Shared by brute_force_order_census and oracle mode.
    """
    size = r ** (2 * g)
    if size > CENSUS_LIMIT:
        raise GuardrailExceeded(
            "r^(2g) = %d exceeds the census guardrail %d" % (size, CENSUS_LIMIT)
        )


def enforce_partition_guardrail(spec: ModuliSpec) -> None:
    """Refuse a spec whose largest partition family, at m = r, is too big.

    Shared by oracle mode and the CLI's shifts section.
    """
    worst = count_partitions(spec.rank, spec.rank, spec.num_points)
    if worst > PARTITION_LIMIT:
        raise GuardrailExceeded(
            "|P(alpha)| = %d at m = %d exceeds the partition guardrail %d"
            % (worst, spec.rank, PARTITION_LIMIT)
        )


def enforce_histogram_guardrail(spec: ModuliSpec) -> None:
    """Refuse a spec whose shift histograms enumerate too many point partitions.

    shift_histogram walks each point's partitions on its own, at most
    count_partitions(r, r, 1) of them at m = r, never their product.  Used by
    the CLI's cr_table section.
    """
    worst = spec.num_points * count_partitions(spec.rank, spec.rank, 1)
    if worst > PARTITION_LIMIT:
        raise GuardrailExceeded(
            "%d point partitions at m = %d exceed the partition guardrail %d"
            % (worst, spec.rank, PARTITION_LIMIT)
        )
