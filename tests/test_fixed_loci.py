"""Fixed-locus component reports and the intersection support rule."""

import itertools
import random
from fractions import Fraction

import pytest

from parorb.chenruan import (
    PairingSupport,
    ProductSupport,
    pairing_support,
    product_support,
)
from parorb.errors import IdentityElement, ModulusMismatch
from parorb.fixed_loci import (
    IntersectionSupport,
    fixed_locus_components,
    intersection_support,
)
from parorb.model import ModuliSpec
from parorb.partitions import count_partitions, enumerate_partitions
from parorb.shifts import (
    degree_shift,
    eigenvalue_multiplicities,
    fixed_component_dimension,
    shift_histogram,
)
from parorb.torsion import (
    TorsionElement,
    canonical_element_of_order,
    cyclic_subgroup_elements,
    element_order,
)

FORCED = IntersectionSupport.FORCED_EMPTY
MAYBE = IntersectionSupport.POSSIBLY_NONEMPTY


def spec_for(r, s, genus=3, degree=1):
    point = tuple(Fraction(i, r + 1) for i in range(1, r + 1))
    return ModuliSpec(genus=genus, rank=r, degree=degree, weights=(point,) * s)


def test_component_counts_track_partition_counts():
    for r, s in [(2, 1), (3, 1), (6, 1), (6, 2)]:
        spec = spec_for(r, s)
        for m in (d for d in range(2, r + 1) if r % d == 0):
            eta = canonical_element_of_order(r, spec.genus, m)
            report = fixed_locus_components(spec, eta)
            expected = count_partitions(r, m, s)
            assert report.eta_order == m
            assert report.partition_count == expected
            assert report.total_components == expected
            assert report.components_per_partition == m
            assert report.gamma_classes == expected // m
            assert report.free_transitive_subgroup_order == m


def test_rank_modulus_message_is_shared():
    spec = spec_for(6, 1)
    eta = TorsionElement(4, (2, 0, 0, 0, 0, 0))
    t = next(enumerate_partitions(spec, 2))
    for call in (
        lambda: fixed_locus_components(spec, eta),
        lambda: eigenvalue_multiplicities(spec, eta, t),
        lambda: degree_shift(spec, eta, t),
        lambda: fixed_component_dimension(spec, eta),
        lambda: shift_histogram(spec, eta),
    ):
        with pytest.raises(ModulusMismatch) as info:
            call()
        assert str(info.value) == "torsion modulus 4 does not match rank 6"


def test_report_depends_only_on_eta_order():
    spec = spec_for(6, 1)
    a = TorsionElement(6, (2, 0, 0, 0, 0, 0))
    b = TorsionElement(6, (0, 4, 2, 0, 2, 4))  # also order 3
    assert fixed_locus_components(spec, a) == fixed_locus_components(spec, b)


def test_quotient_fields_withheld_without_squarefree_rank():
    spec = spec_for(4, 1)
    report = fixed_locus_components(spec, canonical_element_of_order(4, 3, 2))
    # upstairs counts are still well-defined
    assert report.partition_count == count_partitions(4, 2, 1)
    assert report.total_components == count_partitions(4, 2, 1)
    # the quotient statement needs gcd(l, m) = 1, so nothing is claimed
    assert report.gamma_classes is None
    assert report.free_transitive_subgroup_order is None


def test_identity_has_no_report():
    spec = spec_for(2, 1)
    with pytest.raises(IdentityElement):
        fixed_locus_components(spec, TorsionElement(2, (0, 0, 0, 0, 0, 0)))


def test_modulus_must_match_rank():
    spec = spec_for(2, 1)
    with pytest.raises(ModulusMismatch):
        fixed_locus_components(spec, TorsionElement(3, (1, 0, 0, 0, 0, 0)))


def test_same_order_different_subgroup_forces_empty():
    eta = TorsionElement(4, (1, 0, 0, 0))
    tau = TorsionElement(4, (0, 1, 0, 0))
    assert intersection_support(eta, tau) is FORCED
    assert intersection_support(tau, eta) is FORCED


def test_same_subgroup_stays_possible():
    eta = TorsionElement(4, (1, 0, 0, 0))
    assert intersection_support(eta, eta.scale(3)) is MAYBE


def test_unequal_orders_make_no_claim_for_composite_modulus():
    eta = TorsionElement(6, (1, 0, 0, 0))  # order 6
    tau = TorsionElement(6, (2, 0, 0, 0))  # order 3, inside <eta>
    assert intersection_support(eta, tau) is MAYBE
    off_axis = TorsionElement(6, (0, 3, 0, 0))  # order 2, outside <eta>
    assert intersection_support(eta, off_axis) is MAYBE


def test_prime_modulus_membership_is_decisive():
    eta = TorsionElement(5, (1, 2, 0, 0))
    inside = eta.scale(4)
    outside = TorsionElement(5, (0, 0, 1, 0))
    assert intersection_support(eta, inside) is MAYBE
    assert intersection_support(eta, outside) is FORCED
    assert intersection_support(outside, eta) is FORCED


def test_prime_modulus_exhaustive_symmetry():
    """Every non-identity pair of (Z/r)^2, r = 2..9, and of (Z/3)^4.

    The rule is restated here from raw subgroup sets, prime clause included:
    forced when the orders agree and the subgroups differ, or when the
    modulus is prime and tau lies outside <eta>.  The fixed-locus and
    product verdicts must agree with it and with each other.
    """
    for r, length in [(r, 2) for r in range(2, 10)] + [(3, 4)]:
        prime = all(r % d for d in range(2, r))
        subgroups = {}
        for exps in itertools.product(range(r), repeat=length):
            if any(exps):
                subgroups[exps] = frozenset(
                    tuple((k * e) % r for e in exps) for k in range(r)
                )
        for a, sub_a in subgroups.items():
            eta = TorsionElement(r, a)
            for b, sub_b in subgroups.items():
                tau = TorsionElement(r, b)
                same_order = len(sub_a) == len(sub_b)
                forced = (same_order and sub_a != sub_b) or (
                    prime and b not in sub_a
                )
                left = intersection_support(eta, tau)
                assert left is (FORCED if forced else MAYBE), (eta, tau)
                assert left is intersection_support(tau, eta), (eta, tau)
                product = product_support(tau, eta)
                assert (left is FORCED) == (product is ProductSupport.FORCED_ZERO)


def test_intersection_rejects_identity_and_mixed_moduli():
    eta = TorsionElement(4, (1, 0, 0, 0))
    with pytest.raises(IdentityElement):
        intersection_support(eta, TorsionElement(4, (0, 0, 0, 0)))
    with pytest.raises(ModulusMismatch):
        intersection_support(eta, TorsionElement(2, (1, 0, 0, 0)))


# every ordered pair of (Z/r)^2 for r <= 12 and of (Z/r)^4 for r <= 4
EXHAUSTIVE_GROUPS = [(r, 2) for r in range(1, 13)] + [(r, 4) for r in range(1, 5)]
PAIRING_SPEC = spec_for(2, 1)  # grade 0 lies in its window


def assert_support_rules_match_oracle(eta, subgroup, inverse, tau):
    """The three support rules against group elements built the slow way:
    `subgroup` is the set of listed multiples of eta, `inverse` is
    eta.inverse()."""
    pairing = pairing_support(0, eta, tau, PAIRING_SPEC)
    assert (pairing is PairingSupport.CANDIDATE) == (tau == inverse), (eta, tau)
    if eta.is_identity or tau.is_identity:
        with pytest.raises(IdentityElement):
            intersection_support(eta, tau)
        return
    forced = element_order(eta) == element_order(tau) and tau not in subgroup
    assert intersection_support(eta, tau) is (FORCED if forced else MAYBE), (eta, tau)
    product = product_support(eta, tau)
    assert product is (ProductSupport.FORCED_ZERO if forced else ProductSupport.UNKNOWN)


@pytest.mark.parametrize("r, length", EXHAUSTIVE_GROUPS)
def test_support_rules_match_element_oracle(r, length):
    elements = [TorsionElement(r, e) for e in itertools.product(range(r), repeat=length)]
    for eta in elements:
        subgroup, inverse = set(cyclic_subgroup_elements(eta)), eta.inverse()
        for tau in elements:
            assert_support_rules_match_oracle(eta, subgroup, inverse, tau)


def test_support_rules_match_element_oracle_on_seeded_pairs():
    # (Z/6)^4 has 1,679,616 ordered pairs; a seeded sample in which tau is a
    # multiple of eta, the inverse of eta, or drawn freely
    rng = random.Random(62)
    for _ in range(4000):
        eta = TorsionElement(6, tuple(rng.randrange(6) for _ in range(4)))
        kind = rng.randrange(3)
        if kind == 0:
            tau = eta.scale(rng.randrange(6))
        elif kind == 1:
            tau = eta.inverse()
        else:
            tau = TorsionElement(6, tuple(rng.randrange(6) for _ in range(4)))
        subgroup = set(cyclic_subgroup_elements(eta))
        assert_support_rules_match_oracle(eta, subgroup, eta.inverse(), tau)
