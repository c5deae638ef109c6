"""The brute-force cross-checkers themselves: shapes, limits, agreement."""

from fractions import Fraction

import pytest

from parorb.errors import GuardrailExceeded
from parorb.model import ModuliSpec
from parorb.oracles import (
    CENSUS_LIMIT,
    PARTITION_LIMIT,
    brute_force_order_census,
    brute_force_partition_census,
    brute_force_point_partitions,
    check_dominance_pairing,
    check_dimension_identity,
    enforce_oracle_guardrails,
)
from parorb.partitions import count_partitions, enumerate_partitions
from parorb.torsion import canonical_element_of_order, count_elements_of_order


def spec_for(r, s, genus=2):
    point = tuple(Fraction(i, r + 1) for i in range(1, r + 1))
    return ModuliSpec(genus=genus, rank=r, degree=1, weights=(point,) * s)


def test_brute_census_agrees_with_formula():
    census = brute_force_order_census(6, 2)
    assert census == {
        m: count_elements_of_order(6, 2, m) for m in (1, 2, 3, 6)
    }


def test_brute_census_guardrail():
    assert 6 ** 10 > CENSUS_LIMIT
    with pytest.raises(GuardrailExceeded):
        brute_force_order_census(6, 5)


def test_point_partitions_by_permutation_dedup():
    weights = tuple(Fraction(i, 5) for i in range(1, 5))
    parts = brute_force_point_partitions(weights, 2)
    assert len(parts) == count_partitions(4, 2, 1)
    assert all(len(blocks) == 2 for blocks in parts)


def test_partition_census_structure():
    spec = spec_for(6, 1, genus=3)
    census = brute_force_partition_census(spec, 3)
    assert census["count"] == 90
    assert census["orbit_count"] == 30
    assert census["orbits_all_size_m"] is True


def test_partition_census_guardrail():
    spec = spec_for(6, 3)
    assert count_partitions(6, 6, 3) > PARTITION_LIMIT
    with pytest.raises(GuardrailExceeded):
        brute_force_partition_census(spec, 6)


def test_checkers_pass_on_valid_input():
    spec = spec_for(6, 1, genus=3)
    result = check_dominance_pairing(spec, 3, enumerate_partitions(spec, 3))
    assert result["pass"] is True and result["checked"] == 180
    eta = canonical_element_of_order(6, 3, 3)
    result = check_dimension_identity(spec, eta, enumerate_partitions(spec, 3))
    assert result["pass"] is True and result["checked"] == 90


def test_census_guardrail_is_one_rule():
    # the standalone census and oracle mode refuse (6, 5) with one message
    with pytest.raises(GuardrailExceeded) as census:
        brute_force_order_census(6, 5)
    with pytest.raises(GuardrailExceeded) as oracle:
        enforce_oracle_guardrails(spec_for(6, 1, genus=5))
    assert str(census.value) == str(oracle.value)
    assert str(census.value) == (
        "r^(2g) = %d exceeds the census guardrail %d" % (6 ** 10, CENSUS_LIMIT)
    )


def test_enforce_oracle_guardrails():
    enforce_oracle_guardrails(spec_for(6, 1))
    with pytest.raises(GuardrailExceeded):
        enforce_oracle_guardrails(spec_for(6, 1, genus=5))
    with pytest.raises(GuardrailExceeded):
        enforce_oracle_guardrails(spec_for(6, 3))
