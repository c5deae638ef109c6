"""The brute-force cross-checkers themselves: shapes, limits, agreement."""

import json
from fractions import Fraction
from itertools import product

import pytest

from parorb import cli, oracles
from parorb.arith import divisors
from parorb.chenruan import BettiProvider
from parorb.errors import GuardrailExceeded
from parorb.model import ModuliSpec
from parorb.oracles import (
    CENSUS_LIMIT,
    PARTITION_LIMIT,
    brute_force_order_census,
    brute_force_partition_census,
    brute_force_point_partitions,
    check_partition_identities,
)
from parorb.partitions import (
    PointPartition,
    WeightPartition,
    compute_orbit_section,
    count_partitions,
    enumerate_partitions,
)
from parorb.shifts import _shift_polynomial
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


@pytest.mark.parametrize(
    "r, g",
    [(r, g) for g in (1, 2) for r in range(1, 7)]
    + [(r, 3) for r in range(1, 5)]
    + [(3, 4)],
)
def test_brute_census_matches_trial_search(r, g):
    # g = 3 and 4 put three and four coordinates in each half-vector
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


def reference_partition_census(spec, m):
    # reference sweep: every combination re-slices each point's blocks for
    # each of its m rotations
    per_point = [
        sorted(brute_force_point_partitions(range(len(point)), m))
        for point in spec.weights
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


@pytest.mark.parametrize(
    "r, m, s",
    [(r, m, s) for r in range(1, 7) for m in divisors(r) for s in (1, 2)],
)
def test_partition_census_matches_reference_sweep(r, m, s):
    spec = spec_for(r, s)
    census = brute_force_partition_census(spec, m)
    assert census == reference_partition_census(spec, m)
    assert census["orbit_count"] == compute_orbit_section(spec, m).orbit_count


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
    real = WeightPartition.dominance_vector

    def broken(t):
        # C(2) up and C(3) down by one: the codimension is unchanged
        vector = real(t)
        if t != chosen:
            return vector
        return vector[:2] + (vector[2] + 1, vector[3] - 1) + vector[4:]

    monkeypatch.setattr(WeightPartition, "dominance_vector", broken)
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


def test_checker_reads_each_dominance_vector_at_most_twice(monkeypatch):
    # once for the pairing, once inside total_codimension
    spec = spec_for(6, 1, genus=3)
    real = WeightPartition.dominance_vector
    calls = []

    def counted(t):
        calls.append(1)
        return real(t)

    monkeypatch.setattr(WeightPartition, "dominance_vector", counted)
    eta = canonical_element_of_order(6, 3, ORDER)
    pairing, dimension = check_partition_identities(
        spec, ORDER, eta, enumerate_partitions(spec, ORDER)
    )
    assert pairing["pass"] is True and dimension["pass"] is True
    assert len(calls) <= 2 * count_partitions(6, ORDER, 1)


def test_oracle_stream_sums_each_partition_at_most_once(tmp_path, capsys, monkeypatch):
    # each partition's vector is summed as the stream builds it, from point
    # vectors counted once per point partition: the pairing and the
    # codimension both read the kept sum
    real = PointPartition.dominance_vector
    calls = []

    def counted(p):
        calls.append(1)
        return real(p)

    monkeypatch.setattr(PointPartition, "dominance_vector", counted)
    spec = spec_for(3, 3, genus=3)
    streamed = 0
    for m in divisors(3)[1:]:
        del calls[:]
        eta = canonical_element_of_order(3, 3, m)
        check_partition_identities(spec, m, eta, enumerate_partitions(spec, m))
        assert len(calls) <= count_partitions(3, m, 3)
        streamed += count_partitions(3, m, 3)
    del calls[:]
    status, all_pass, _ = run_oracle_cli(tmp_path, capsys, spec)
    assert status == 0 and all_pass is True
    assert len(calls) <= streamed


def test_stream_stops_once_both_checks_fail(monkeypatch):
    spec = spec_for(6, 1, genus=3)
    chosen = chosen_partition(spec)
    real = WeightPartition.dominance_vector

    def broken(t):
        # every C(i), i >= 1, up by one: pairing fails at i = 1, and the
        # codimension, their sum plus a base, grows by m - 1
        vector = real(t)
        if t != chosen:
            return vector
        return vector[:1] + tuple(c + 1 for c in vector[1:])

    monkeypatch.setattr(WeightPartition, "dominance_vector", broken)
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
        cli._check_guards(spec_for(6, 1, genus=5), (), oracle_mode=True)
    assert str(census.value) == str(oracle.value)
    assert str(census.value) == (
        "r^(2g) = %d exceeds the census guardrail %d" % (6 ** 10, CENSUS_LIMIT)
    )


def test_enforce_oracle_guardrails():
    cli._check_guards(spec_for(6, 1), (), oracle_mode=True)
    with pytest.raises(GuardrailExceeded):
        cli._check_guards(spec_for(6, 1, genus=5), (), oracle_mode=True)
    with pytest.raises(GuardrailExceeded):
        cli._check_guards(spec_for(6, 3), (), oracle_mode=True)


def test_digit_limit_follows_the_interpreter_setting(monkeypatch):
    # count_partitions(1001, 1001, 2) has 5,142 digits
    spec = spec_for(1001, 2)
    for limit, refused in ((4300, True), (5141, True), (5142, False), (0, False)):
        monkeypatch.setattr(oracles.sys, "get_int_max_str_digits", lambda: limit)
        if refused:
            with pytest.raises(GuardrailExceeded, match="more than %d digits" % limit):
                oracles._enforce_count_digits(spec)
        else:
            oracles._enforce_count_digits(spec)


def test_every_guard_rule_takes_the_spec_and_provider():
    spec, provider = spec_for(6, 1), BettiProvider()
    rules = [oracles._enforce_prym_limit, *cli._ORACLE_GUARDS]
    for _, section_rules in cli._SECTIONS.values():
        rules.extend(section_rules)
    for rule in rules:
        assert rule(spec, provider) is None


def convolution_products(spec):
    # the products shift_histogram's loop makes, one term pair at a time
    products = 0
    for m in divisors(spec.rank)[1:]:
        polynomial = _shift_polynomial(spec.rank, m)
        totals = {0}
        for _ in range(spec.num_points):
            products += len(totals) * len(polynomial)
            totals = {a + b for a in totals for b in polynomial}
    return products


@pytest.mark.parametrize("r, s", [(3, 1), (3, 40), (5, 3), (6, 3), (7, 2), (9, 1)])
def test_convolution_limit_counts_at_least_the_products_made(r, s, monkeypatch):
    monkeypatch.setattr(oracles, "CONVOLUTION_LIMIT", 0)
    with pytest.raises(GuardrailExceeded) as refused:
        oracles._enforce_convolution_limit(spec_for(r, s))
    assert int(str(refused.value).split()[0]) >= convolution_products(spec_for(r, s))


def test_convolution_limit_admits_487_points_of_rank_3_and_not_488():
    oracles._enforce_convolution_limit(spec_for(3, 487))
    with pytest.raises(GuardrailExceeded, match="^10005464 products"):
        oracles._enforce_convolution_limit(spec_for(3, 488))
