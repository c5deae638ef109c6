"""The brute-force cross-checkers themselves: shapes, limits, agreement."""

import json
from fractions import Fraction
from itertools import product

import pytest

from parorb import cli, oracles
from parorb.arith import divisors
from parorb.errors import GuardrailExceeded
from parorb.model import ModuliSpec
from parorb.oracles import (
    CENSUS_LIMIT,
    PARTITION_LIMIT,
    brute_force_order_census,
    brute_force_partition_census,
    brute_force_point_partitions,
    check_partition_identities,
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


def trial_order_census(r, g):
    # reference per-element trial search: each element's order by trying
    # k = 1, 2, ... until every scaled exponent vanishes
    census = {}
    for exponents in product(range(r), repeat=2 * g):
        order = next(
            k for k in range(1, r + 1) if all((k * e) % r == 0 for e in exponents)
        )
        census[order] = census.get(order, 0) + 1
    return dict(sorted(census.items()))


@pytest.mark.parametrize(
    "r, g", [(r, g) for g in (1, 2) for r in range(1, 9)] + [(6, 3), (5, 4)]
)
def test_brute_census_matches_closed_form(r, g):
    census = brute_force_order_census(r, g)
    assert census == {m: count_elements_of_order(r, g, m) for m in divisors(r)}
    assert sum(census.values()) == r ** (2 * g)


@pytest.mark.parametrize("r, g", [(r, g) for g in (1, 2) for r in range(1, 7)])
def test_brute_census_matches_trial_search(r, g):
    assert brute_force_order_census(r, g) == trial_order_census(r, g)


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
    eta = canonical_element_of_order(6, 3, 3)
    pairing, dimension = check_partition_identities(
        spec, 3, eta, enumerate_partitions(spec, 3)
    )
    assert pairing["pass"] is True and pairing["checked"] == 180
    assert pairing["target"] == 12
    assert dimension["pass"] is True and dimension["checked"] == 90


def test_checkers_without_eta_skip_the_dimension_identity():
    spec = spec_for(6, 1, genus=3)
    pairing, dimension = check_partition_identities(
        spec, 3, None, enumerate_partitions(spec, 3)
    )
    assert pairing == {"pass": True, "checked": 180, "target": 12}
    assert dimension is None


# the fused checker on r = 6, one point, m = 6: 720 partitions, five
# pairing checks each; one chosen partition is made to fail one check
ORDER = 6
CHOSEN = 100


def chosen_partition(spec):
    return list(enumerate_partitions(spec, ORDER))[CHOSEN]


def run_oracle_cli(tmp_path, capsys, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "genus": spec.genus,
        "rank": spec.rank,
        "degree": spec.degree,
        "weights": [[str(w) for w in point] for point in spec.weights],
    }))
    status = cli.main(["--spec", str(path), "--emit", "census", "--oracle"])
    report = json.loads(capsys.readouterr().out)
    checks = {
        (entry["check"], entry.get("order")): entry
        for entry in report["oracle"]["checks"]
    }
    return status, report["oracle"]["all_pass"], checks


def test_broken_dominance_count_fails_pairing_only(monkeypatch, tmp_path, capsys):
    spec = spec_for(6, 1, genus=3)
    chosen = chosen_partition(spec)
    real = oracles.dominance_count

    def broken(t, i):
        return real(t, i) + (1 if t == chosen and i == 2 else 0)

    monkeypatch.setattr(oracles, "dominance_count", broken)
    eta = canonical_element_of_order(6, 3, ORDER)
    pairing, dimension = check_partition_identities(
        spec, ORDER, eta, enumerate_partitions(spec, ORDER)
    )
    # i = 1 pairs C(1) with C(5); the first sum holding C(2) is at i = 2
    assert pairing == {
        "pass": False, "failing_partition": chosen.to_mapping(), "i": 2
    }
    assert dimension["pass"] is True
    assert dimension["checked"] == count_partitions(6, ORDER, 1)

    status, all_pass, checks = run_oracle_cli(tmp_path, capsys, spec)
    assert status == 1 and all_pass is False
    assert checks["dominance_pairing", ORDER]["i"] == 2
    assert checks["dimension_identity", ORDER]["checked"] == 720
    assert checks["dominance_pairing", 3]["pass"] is True


def test_broken_total_codimension_fails_dimension_only(
    monkeypatch, tmp_path, capsys
):
    spec = spec_for(6, 1, genus=3)
    chosen = chosen_partition(spec)
    real = oracles.total_codimension

    def broken(spec_, eta, t):
        return real(spec_, eta, t) + (1 if t == chosen else 0)

    monkeypatch.setattr(oracles, "total_codimension", broken)
    eta = canonical_element_of_order(6, 3, ORDER)
    pairing, dimension = check_partition_identities(
        spec, ORDER, eta, enumerate_partitions(spec, ORDER)
    )
    assert dimension == {"pass": False, "failing_partition": chosen.to_mapping()}
    assert pairing == {
        "pass": True,
        "checked": count_partitions(6, ORDER, 1) * (ORDER - 1),
        "target": ORDER,
    }

    status, all_pass, checks = run_oracle_cli(tmp_path, capsys, spec)
    assert status == 1 and all_pass is False
    assert checks["dimension_identity", ORDER]["pass"] is False
    assert checks["dominance_pairing", ORDER]["checked"] == 3600
    assert checks["dimension_identity", 3]["pass"] is True


def test_stream_stops_once_both_checks_fail(monkeypatch):
    spec = spec_for(6, 1, genus=3)
    chosen = chosen_partition(spec)
    real_count, real_codim = oracles.dominance_count, oracles.total_codimension
    monkeypatch.setattr(
        oracles, "dominance_count",
        lambda t, i: real_count(t, i) + (t == chosen),
    )
    monkeypatch.setattr(
        oracles, "total_codimension",
        lambda spec_, eta, t: real_codim(spec_, eta, t) + (t == chosen),
    )
    read = []

    def stream():
        for t in enumerate_partitions(spec, ORDER):
            read.append(t)
            yield t

    eta = canonical_element_of_order(6, 3, ORDER)
    pairing, dimension = check_partition_identities(spec, ORDER, eta, stream())
    assert pairing["pass"] is False and pairing["i"] == 1
    assert dimension["pass"] is False
    assert len(read) == CHOSEN + 1


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
