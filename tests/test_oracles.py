"""The brute-force cross-checkers themselves: shapes, limits, agreement."""

import json
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from parorb import cli, oracles, partitions, shifts
from parorb.arith import divisors
from parorb.chenruan import BettiProvider
from parorb.errors import GuardrailExceeded, NotADivisor
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
from parorb.shifts import _shift_polynomial, shift_histogram
from parorb.torsion import (
    canonical_element_of_order,
    count_elements_of_order,
    element_order,
)


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
    [(r, m, s) for r in range(1, 7) for m in divisors(r) for s in (1, 2)]
    + [(r, m, 3) for r in range(1, 5) for m in divisors(r)],
)
def test_partition_census_matches_reference_sweep(r, m, s):
    spec = spec_for(r, s)
    census = brute_force_partition_census(spec, m)
    assert census == reference_partition_census(spec, m)
    assert census["orbit_count"] == compute_orbit_section(spec, m).orbit_count


def test_partition_census_cost_does_not_grow_with_the_points(monkeypatch):
    # Burnside on one point's table: 30 points of rank 4 cost what one
    # does, where a walk of the product would meet 6^30 combinations
    monkeypatch.setattr(oracles, "_enforce_partition_limit", lambda spec, m: None)
    census = brute_force_partition_census(spec_for(4, 30), 2)
    assert census == {
        "count": 6 ** 30, "orbit_count": 6 ** 30 // 2, "orbits_all_size_m": True
    }


def test_point_partitions_refuse_an_order_that_does_not_divide_the_weights():
    # (range(5), 2) gave 30 partitions of four of the five labels, and
    # (range(3), 4) gave {()}
    for weights, m in ((range(5), 2), (range(3), 4), (range(4), 0)):
        with pytest.raises(NotADivisor):
            brute_force_point_partitions(weights, m)


def test_order_census_refuses_a_rank_or_genus_below_one():
    for r, g in ((0, 2), (2, 0), (-6, 5)):
        with pytest.raises(ValueError, match="need ints r >= 1 and g >= 1"):
            brute_force_order_census(r, g)


def test_partition_census_guardrail():
    spec = spec_for(6, 3)
    assert count_partitions(6, 6, 3) > PARTITION_LIMIT
    with pytest.raises(GuardrailExceeded):
        brute_force_partition_census(spec, 6)


def test_checkers_pass_on_valid_input():
    spec = spec_for(6, 1, genus=3)
    eta = canonical_element_of_order(6, 3, 3)
    pairing, dimension, tally = check_partition_identities(spec, 3, eta)
    assert pairing["pass"] is True and pairing["checked"] == 180
    assert pairing["target"] == 12
    assert dimension["pass"] is True and dimension["checked"] == 90
    assert tally["pass"] is True and tally["checked"] == 90
    assert tally["distinct_shifts"] == len(shift_histogram(spec, eta))


def test_checkers_without_eta_skip_the_dimension_identity():
    spec = spec_for(6, 1, genus=3)
    assert check_partition_identities(spec, 3, None) == (
        {"pass": True, "checked": 180, "target": 12}, None, None
    )


# the checker on r = 6, one point, m = 6: 720 partitions, five pairing
# checks each; one input is broken at m = 6 only, so that exactly one
# check of that order fails and the orders 2 and 3 pass
ORDER = 6


def least_partition(spec):
    return next(iter(enumerate_partitions(spec, ORDER))).to_mapping()


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


def failing_checks(checks):
    return sorted(key for key, entry in checks.items() if entry["pass"] is False)


def test_off_by_one_shift_histogram_fails_the_shift_tally_only(
    monkeypatch, tmp_path, capsys
):
    spec = spec_for(6, 1, genus=3)
    real = oracles.shift_histogram

    def broken(spec_, eta):
        # one more orbit class at the least shift of order 6
        histogram = real(spec_, eta)
        if element_order(eta) == ORDER:
            least = min(histogram)
            histogram[least] += 1
        return histogram

    monkeypatch.setattr(oracles, "shift_histogram", broken)
    eta = canonical_element_of_order(6, 3, ORDER)
    least = min(real(spec, eta))
    pairing, dimension, tally = check_partition_identities(spec, ORDER, eta)
    assert tally == {
        "pass": False,
        "m_times_shift": str(ORDER * least),
        "tallied": ORDER * real(spec, eta)[least],
        "expected": ORDER * (real(spec, eta)[least] + 1),
    }
    assert pairing["pass"] is True and dimension["pass"] is True

    status, all_pass, checks = run_oracle_cli(tmp_path, capsys, spec)
    assert status == 1 and all_pass is False
    assert failing_checks(checks) == [("shift_tally", ORDER)]
    assert checks["shift_tally", ORDER]["m_times_shift"] == str(ORDER * least)


def test_fixed_dimension_plus_one_fails_the_dimension_identity_only(
    monkeypatch, tmp_path, capsys
):
    spec = spec_for(6, 1, genus=3)
    real = oracles.fixed_component_dimension

    def broken(spec_, eta):
        return real(spec_, eta) + (element_order(eta) == ORDER)

    monkeypatch.setattr(oracles, "fixed_component_dimension", broken)
    eta = canonical_element_of_order(6, 3, ORDER)
    pairing, dimension, tally = check_partition_identities(spec, ORDER, eta)
    # every class fails; the first holds the least partition
    assert dimension == {"pass": False, "failing_partition": least_partition(spec)}
    assert pairing == {
        "pass": True,
        "checked": count_partitions(6, ORDER, 1) * (ORDER - 1),
        "target": ORDER,
    }
    assert tally["pass"] is True

    status, all_pass, checks = run_oracle_cli(tmp_path, capsys, spec)
    assert status == 1 and all_pass is False
    assert failing_checks(checks) == [("dimension_identity", ORDER)]
    assert checks["dimension_identity", ORDER]["failing_partition"] == (
        least_partition(spec)
    )
    assert checks["dominance_pairing", ORDER]["checked"] == 3600


def test_count_moved_between_c2_and_c3_fails_the_pairing_only(
    monkeypatch, tmp_path, capsys
):
    # Two units of C(3) move to C(2) in a partition A, and two of C(2) to
    # C(3) in a partition B whose S = sum_i i*C(i) is two less (at m = 6
    # every S is odd): the pairing breaks at i = 2 (i = 1 pairs C(1) with
    # C(5)), while the codimension, a sum of the C(i), and the shift tally,
    # where A and B trade places, see nothing.
    spec = spec_for(6, 1, genus=3)
    real = oracles._dominance_by_definition
    table = sorted(brute_force_point_partitions(range(6), ORDER))
    by_sum = {}
    for blocks in table:
        by_sum.setdefault(sum(i * c for i, c in enumerate(real(blocks, ORDER))), blocks)
    a, b = next(
        (by_sum[total], by_sum[total - 2]) for total in by_sum if total - 2 in by_sum
    )
    moved_by = {a: 2, b: -2}

    def moved(blocks, m):
        counts = list(real(blocks, m))
        if m == ORDER and blocks in moved_by:
            counts[2] += moved_by[blocks]
            counts[3] -= moved_by[blocks]
        return tuple(counts)

    monkeypatch.setattr(oracles, "_dominance_by_definition", moved)
    # the labels' sorted order is the weights': the first of A and B fails
    first = list(enumerate_partitions(spec, ORDER))[table.index(min(a, b))]
    eta = canonical_element_of_order(6, 3, ORDER)
    pairing, dimension, tally = check_partition_identities(spec, ORDER, eta)
    assert pairing == {
        "pass": False, "failing_partition": first.to_mapping(), "i": 2
    }
    assert dimension["pass"] is True and dimension["checked"] == 720
    assert tally["pass"] is True and tally["checked"] == 720

    status, all_pass, checks = run_oracle_cli(tmp_path, capsys, spec)
    assert status == 1 and all_pass is False
    assert failing_checks(checks) == [("dominance_pairing", ORDER)]
    assert checks["dominance_pairing", ORDER]["i"] == 2


def test_checker_reads_each_dominance_vector_at_most_twice(monkeypatch):
    # the counts come from the definition: no partition's vector is read
    spec = spec_for(6, 1, genus=3)
    real = WeightPartition.dominance_vector
    calls = []

    def counted(t):
        calls.append(1)
        return real(t)

    monkeypatch.setattr(WeightPartition, "dominance_vector", counted)
    eta = canonical_element_of_order(6, 3, ORDER)
    results = check_partition_identities(spec, ORDER, eta)
    assert all(result["pass"] is True for result in results)
    assert calls == []


def test_oracle_stream_sums_each_partition_at_most_once(tmp_path, capsys, monkeypatch):
    # oracle mode streams no partition, so no point vector is summed
    real = PointPartition.dominance_vector
    calls = []

    def counted(p):
        calls.append(1)
        return real(p)

    monkeypatch.setattr(PointPartition, "dominance_vector", counted)
    spec = spec_for(3, 3, genus=3)
    for m in divisors(3)[1:]:
        eta = canonical_element_of_order(3, 3, m)
        check_partition_identities(spec, m, eta)
    status, all_pass, _ = run_oracle_cli(tmp_path, capsys, spec)
    assert status == 0 and all_pass is True
    assert calls == []


def test_oracle_mode_walks_no_partition_product(tmp_path, capsys, monkeypatch):
    # the identities are checked per class, from one point's table per
    # order: nothing in oracle mode streams the product or reads the fast
    # path's counts, and the table is built once per order for any s
    calls = Counter()

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)
        return counted

    # wherever the CLI's modules hold either name, so that no binding of it
    # escapes the count
    for module in (cli, oracles, partitions, shifts):
        for name in ("enumerate_partitions", "total_codimension"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    monkeypatch.setattr(
        WeightPartition, "dominance_vector",
        counting("dominance_vector", WeightPartition.dominance_vector),
    )
    status, all_pass, _ = run_oracle_cli(tmp_path, capsys, spec_for(3, 3, genus=3))
    assert status == 0 and all_pass is True
    assert calls == Counter()

    monkeypatch.setattr(
        oracles, "brute_force_point_partitions",
        counting("tables", oracles.brute_force_point_partitions),
    )
    for s in (1, 2, 3):
        spec = spec_for(6, s, genus=3)
        for m in divisors(6)[1:]:
            calls.clear()
            check_partition_identities(spec, m, canonical_element_of_order(6, 3, m))
            assert calls == Counter(tables=1)


def test_partition_census_builds_one_rotation_table_for_any_s(monkeypatch):
    # every point has r weights, so one table of the labels' partitions and
    # their rotations serves all s points
    calls = []
    real = oracles.brute_force_point_partitions

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(oracles, "brute_force_point_partitions", counted)
    for s in (1, 2, 3):
        spec = spec_for(4, s)
        for m in divisors(4)[1:]:
            del calls[:]
            census = brute_force_partition_census(spec, m)
            assert len(calls) == 1
            assert census["count"] == count_partitions(4, m, s)
            assert census["orbit_count"] * m == census["count"]


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
