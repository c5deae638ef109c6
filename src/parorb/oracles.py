"""Brute-force cross-checks, kept deliberately independent of the fast paths.

These re-derive the combinatorial counts by exhaustive enumeration with
different algorithms than the library uses (naive order search instead of
gcd, permutation de-duplication instead of recursive combinations, list
slicing instead of index tables), so agreement actually means something.
They back the test suite and the CLI's --oracle mode; guardrails keep them
at desk scale.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import GuardrailExceeded
from .model import ModuliSpec, moduli_dimension
from .partitions import count_partitions
from .shifts import dominance_count, total_codimension, fixed_component_dimension
from .torsion import TorsionElement

CENSUS_LIMIT = 10 ** 7
PARTITION_LIMIT = 10 ** 6


def brute_force_order_census(r: int, g: int) -> dict[int, int]:
    """Order census of (Z/r)^(2g) by walking every element.

    The order of each element is found by trying k = 1, 2, ... until every
    scaled exponent vanishes — no gcd shortcut, no Möbius inversion.
    """
    _enforce_census_guardrail(r, g)
    census: dict[int, int] = {}
    for exponents in product(range(r), repeat=2 * g):
        order = next(
            k for k in range(1, r + 1) if all((k * e) % r == 0 for e in exponents)
        )
        census[order] = census.get(order, 0) + 1
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


def check_dominance_pairing(spec: ModuliSpec, m: int, partitions) -> dict:
    """C_t(i) + C_t(m-i) must equal s*m*l^2 for every t and i."""
    s = spec.num_points
    l = spec.rank // m
    target = s * m * l * l
    checked = 0
    for t in partitions:
        for i in range(1, m):
            if dominance_count(t, i) + dominance_count(t, m - i) != target:
                return {"pass": False, "failing_partition": t.to_mapping(), "i": i}
            checked += 1
    return {"pass": True, "checked": checked, "target": target}


def check_dimension_identity(
    spec: ModuliSpec, eta: TorsionElement, partitions
) -> dict:
    """moduli_dimension must equal fixed dim + codim for every partition."""
    dim = moduli_dimension(spec)
    fixed = fixed_component_dimension(spec, eta)
    checked = 0
    for t in partitions:
        if fixed + total_codimension(spec, eta, t) != dim:
            return {"pass": False, "failing_partition": t.to_mapping()}
        checked += 1
    return {"pass": True, "checked": checked, "moduli_dimension": dim}


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

    Shared by oracle mode and the CLI's shifts and cr_table sections.
    """
    worst = count_partitions(spec.rank, spec.rank, spec.num_points)
    if worst > PARTITION_LIMIT:
        raise GuardrailExceeded(
            "|P(alpha)| = %d at m = %d exceeds the partition guardrail %d"
            % (worst, spec.rank, PARTITION_LIMIT)
        )
