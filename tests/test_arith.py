"""Number-theoretic helpers, checked against naive definitions, and the
one rule for reading a number from a string at every entry point."""

import json
from fractions import Fraction

import pytest

from parorb.arith import (
    divisors,
    format_rational,
    is_squarefree,
    mobius,
    parse_rational,
    prime_factors,
)
from parorb.chenruan import PoincareSeries, RationalGradedDimension, pairing_support
from parorb.cli import main
from parorb.eigenflag import FlaggedOperator
from parorb.errors import NotADivisor, ParseError
from parorb.model import ModuliSpec
from parorb.oracles import brute_force_order_census
from parorb.partitions import count_partitions
from parorb.torsion import (
    TorsionElement,
    canonical_element_of_order,
    count_elements_of_order,
    pushforward_det_twist,
    spectral_cover_data,
)


def naive_divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def naive_mobius(n):
    # count square-free factorizations directly
    factors = []
    d, left = 2, n
    while d * d <= left:
        while left % d == 0:
            factors.append(d)
            left //= d
        d += 1
    if left > 1:
        factors.append(left)
    if len(set(factors)) != len(factors):
        return 0
    return -1 if len(factors) % 2 else 1


def test_divisors_match_trial_division():
    for n in range(1, 200):
        assert divisors(n) == naive_divisors(n), n


def test_divisors_are_sorted():
    for n in (12, 60, 97, 720):
        ds = divisors(n)
        assert ds == sorted(ds)


def test_mobius_against_naive():
    for n in range(1, 300):
        assert mobius(n) == naive_mobius(n), n


def test_mobius_divisor_sum_is_indicator():
    # sum_{d | n} mu(d) is 1 at n=1 and 0 otherwise
    for n in range(1, 150):
        total = sum(mobius(d) for d in divisors(n))
        assert total == (1 if n == 1 else 0), n


def test_prime_factors_squarefree_prime():
    assert prime_factors(60) == {2: 2, 3: 1, 5: 1}
    assert is_squarefree(30) and not is_squarefree(12)


def test_parse_rational_accepts_fractions_and_integers():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("0.5") == Fraction(1, 2)
    assert parse_rational("-0.125") == Fraction(-1, 8)


REFUSED = [
    "", "x", "1/0", "3.5.1", "1//2", "\u0661/\u0664", "1_0/20",
    "1e-5000", "1E-100000000", "2.5e-1", "1e3", "3/4E2",
]


@pytest.mark.parametrize("bad", REFUSED)
def test_parse_rational_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


_ETA = TorsionElement(3, (1, 0, 0, 0))
_SPEC = ModuliSpec(genus=2, rank=3, degree=1, weights=(("1/4", "1/2", "3/4"),))

# every public entry point that reads a number from a string
ENTRY_POINTS = {
    "ModuliSpec": lambda text: ModuliSpec(
        genus=2, rank=3, degree=1, weights=(("1/4", text, "3/4"),)
    ),
    "FlaggedOperator": lambda text: FlaggedOperator(((text,),), ((1,),)),
    "pairing_support": lambda text: pairing_support(text, _ETA, _ETA.scale(2), _SPEC),
    "RationalGradedDimension": lambda text: RationalGradedDimension(((text, 1),)),
    "dimension_at": lambda text: RationalGradedDimension.empty().dimension_at(text),
    "symmetric_about": lambda text: RationalGradedDimension.empty().symmetric_about(text),
    "shifted": lambda text: PoincareSeries(((0, 1),)).shifted(text),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", REFUSED)
def test_entry_points_refuse_what_parse_rational_refuses(entry, bad):
    with pytest.raises(ParseError) as parsed:
        parse_rational(bad)
    with pytest.raises(ParseError) as refused:
        ENTRY_POINTS[entry](bad)
    assert str(refused.value) == str(parsed.value)


@pytest.mark.parametrize("bad", REFUSED)
def test_spec_file_refuses_what_parse_rational_refuses(tmp_path, capsys, bad):
    with pytest.raises(ParseError) as parsed:
        parse_rational(bad)
    path = tmp_path / "spec.json"
    doc = {"genus": 3, "rank": 2, "degree": 1, "weights": [[bad, "3/4"]]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["--spec", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ParseError" and error["message"] == str(parsed.value)


def test_format_round_trips_parse():
    for value in (Fraction(3, 4), Fraction(-1, 6), Fraction(5), Fraction(0)):
        assert parse_rational(format_rational(value)) == value


def test_format_rational_reads_other_values_by_the_exact_number_rule():
    assert format_rational(3) == "3/1"
    assert format_rational("-1/6") == "-1/6"
    for bad in (0.1, 2.0, True):
        with pytest.raises(ValueError, match="must be exact rationals"):
            format_rational(bad)
    with pytest.raises(ParseError):
        format_rational("1e3")


# each helper, with a float or a bool where it takes an int: Python's
# arithmetic would answer most (count_elements_of_order(6, 2, 2.0) was
# 15.0, divisors(6.0) [1, 2, 3.0, 6.0], count_partitions(6, 3, 2.0) 8100.0),
# and the rest failed some other way (brute_force_order_census(6, 5.0) met
# the census guardrail before any check of its genus)
NOT_INTS = [
    (count_elements_of_order, (6, 2, 2.0), NotADivisor),
    (count_elements_of_order, (6.0, 2, 2), NotADivisor),
    (count_elements_of_order, (6, 2.0, 2), ValueError),
    (count_elements_of_order, (6, True, 2), ValueError),
    (count_partitions, (6, True, 1), NotADivisor),
    (count_partitions, (True, 1, 1), NotADivisor),
    (count_partitions, (6, 3, 2.0), ValueError),
    (count_partitions, (6, 3, True), ValueError),
    (canonical_element_of_order, (6, 2, 3.0), NotADivisor),
    (canonical_element_of_order, (6, 2.0, 2), ValueError),
    (canonical_element_of_order, (6, True, 2), ValueError),
    (brute_force_order_census, (6.0, 2), ValueError),
    (brute_force_order_census, (6, 5.0), ValueError),
    (brute_force_order_census, (2, True), ValueError),
    (brute_force_order_census, (True, 2), ValueError),
    (pushforward_det_twist, (2, 6.0), NotADivisor),
    (divisors, (6.0,), ValueError),
    (divisors, (True,), ValueError),
    (spectral_cover_data, (2.5, 2), ValueError),
    (spectral_cover_data, (2, True), ValueError),
]


@pytest.mark.parametrize(
    "call, args, error",
    NOT_INTS,
    ids=["%s%r" % (call.__name__, args) for call, args, _ in NOT_INTS],
)
def test_integer_helpers_refuse_floats_and_bools(call, args, error):
    with pytest.raises(error):
        call(*args)
