"""Moduli descriptions: validation, JSON loading, dimension formula."""

import json
from fractions import Fraction

import pytest

from parorb.errors import (
    GenusTooSmall,
    ParseError,
    WeightCountMismatch,
    WeightOutOfRange,
    WeightsNotStrictlyIncreasing,
)
from parorb.model import (
    ModuliSpec,
    load_spec,
    moduli_dimension,
    spec_to_mapping,
    validate_moduli_spec,
)

W2 = ((Fraction(1, 4), Fraction(3, 4)),)


def make(genus=3, rank=2, degree=1, weights=W2, **kw):
    return ModuliSpec(genus=genus, rank=rank, degree=degree, weights=weights, **kw)


def test_valid_spec_passes_through():
    spec = validate_moduli_spec(make())
    assert spec.num_points == 1
    assert spec.weights[0] == (Fraction(1, 4), Fraction(3, 4))


def test_mapping_form_is_accepted():
    spec = validate_moduli_spec(
        {
            "genus": 2,
            "rank": 3,
            "degree": 1,
            "weights": [["1/6", "1/3", "1/2"]],
        }
    )
    assert spec.rank == 3 and spec.genus == 2
    assert spec.weights[0][1] == Fraction(1, 3)


def test_genus_below_two_rejected():
    with pytest.raises(GenusTooSmall):
        validate_moduli_spec(make(genus=1))


def test_genus_two_rank_two_rejected():
    # the rank-2 statements need genus at least 3
    with pytest.raises(GenusTooSmall):
        validate_moduli_spec(make(genus=2, rank=2))


def test_genus_two_higher_rank_accepted():
    spec = validate_moduli_spec(
        make(genus=2, rank=3, weights=((Fraction(0), Fraction(1, 3), Fraction(2, 3)),))
    )
    assert spec.genus == 2


def test_weight_count_must_match_rank():
    with pytest.raises(WeightCountMismatch):
        validate_moduli_spec(make(weights=((Fraction(1, 4),),)))


def test_weights_must_sit_in_unit_interval():
    with pytest.raises(WeightOutOfRange):
        validate_moduli_spec(make(weights=((Fraction(1, 4), Fraction(5, 4)),)))
    with pytest.raises(WeightOutOfRange):
        validate_moduli_spec(make(weights=((Fraction(-1, 4), Fraction(3, 4)),)))
    with pytest.raises(WeightOutOfRange):
        validate_moduli_spec(make(weights=((Fraction(1, 2), Fraction(1)),)))


def test_weights_must_strictly_increase():
    with pytest.raises(WeightsNotStrictlyIncreasing):
        validate_moduli_spec(make(weights=((Fraction(3, 4), Fraction(1, 4)),)))
    with pytest.raises(WeightsNotStrictlyIncreasing):
        validate_moduli_spec(make(weights=((Fraction(1, 4), Fraction(1, 4)),)))


def test_at_least_one_point_and_rank_two():
    with pytest.raises(ParseError):
        validate_moduli_spec(make(weights=()))
    with pytest.raises(ParseError):
        validate_moduli_spec(make(rank=1, weights=((Fraction(1, 2),),)))


def test_mapping_missing_key_rejected():
    with pytest.raises(ParseError):
        validate_moduli_spec({"genus": 3, "rank": 2, "degree": 1})


MINIMAL = {"genus": 3, "rank": 2, "degree": 1, "weights": [["1/4", "3/4"]]}


@pytest.mark.parametrize("flag", ["higgs", "assume_generic"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None, []])
def test_mapping_flags_must_be_booleans(flag, value):
    # bool("false") is True: the flag must not be coerced
    with pytest.raises(ParseError) as info:
        validate_moduli_spec({**MINIMAL, flag: value})
    assert flag in str(info.value)


def test_mapping_flags_accept_booleans():
    spec = validate_moduli_spec({**MINIMAL, "higgs": True, "assume_generic": False})
    assert spec.higgs is True and spec.assume_generic is False
    spec = validate_moduli_spec(MINIMAL)
    assert spec.higgs is False and spec.assume_generic is True


def test_spec_instance_flags_must_be_booleans():
    with pytest.raises(ParseError):
        validate_moduli_spec(make(higgs="false"))


@pytest.mark.parametrize("key", ["higg", "Higgs", "comment"])
def test_mapping_unknown_key_rejected(key):
    with pytest.raises(ParseError) as info:
        validate_moduli_spec({**MINIMAL, key: 1})
    assert key in str(info.value)


def test_misspelled_flag_with_string_value_rejected(tmp_path):
    # the two faults together used to load as higgs=True
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**MINIMAL, "higgs": "false", "higg": 1}), encoding="utf-8")
    with pytest.raises(ParseError):
        load_spec(str(path))


def test_echoed_spec_validates_again():
    spec = validate_moduli_spec(MINIMAL)
    assert validate_moduli_spec(spec_to_mapping(spec)) == spec


def test_mapping_num_points_consistency():
    raw = {
        "genus": 3,
        "rank": 2,
        "degree": 1,
        "num_points": 2,
        "weights": [["1/4", "3/4"]],
    }
    with pytest.raises(WeightCountMismatch):
        validate_moduli_spec(raw)


@pytest.mark.parametrize("value", [True, 1.0, "1", None])
def test_mapping_num_points_must_be_an_integer(value):
    # True == 1 and 1.0 == 1, so an equality check alone let both through
    with pytest.raises(ParseError) as info:
        validate_moduli_spec({**MINIMAL, "num_points": value})
    assert str(info.value) == "num_points must be an integer, got %r" % (value,)
    assert validate_moduli_spec({**MINIMAL, "num_points": 1}).num_points == 1


def test_load_spec_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    doc = {
        "genus": 2,
        "rank": 6,
        "degree": 1,
        "weights": [[f"{i}/12" for i in range(1, 7)]],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    spec = load_spec(str(path))
    assert spec.rank == 6
    echoed = spec_to_mapping(spec)
    # weights come back in lowest terms
    assert echoed["weights"] == [["1/12", "1/6", "1/4", "1/3", "5/12", "1/2"]]
    assert echoed["num_points"] == 1


def test_load_spec_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"genus": 2,\n  "rank": }', encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_spec(str(path))
    assert "line" in str(info.value)


def test_load_spec_missing_file():
    with pytest.raises(ParseError):
        load_spec("/no/such/file.json")


def test_moduli_dimension_values():
    # (r^2-1)(g-1) + s r(r-1)/2
    assert moduli_dimension(make(genus=3, rank=2)) == 3 * 2 + 1
    six = tuple(Fraction(i, 12) for i in range(1, 7))
    assert moduli_dimension(make(genus=2, rank=6, weights=(six,))) == 35 + 15
    assert (
        moduli_dimension(make(genus=2, rank=6, weights=(six, six))) == 35 + 30
    )


def test_capability_flags():
    spec = make(genus=3, rank=2, degree=1)
    assert spec.capabilities.coprime_rank_degree
    assert spec.capabilities.squarefree_rank
    even = make(genus=3, rank=2, degree=4)
    assert not even.capabilities.coprime_rank_degree
    four = make(
        genus=3,
        rank=4,
        degree=1,
        weights=((Fraction(1, 8), Fraction(2, 8), Fraction(3, 8), Fraction(4, 8)),),
    )
    assert not four.capabilities.squarefree_rank


def test_weights_are_normalized_to_fraction_tuples():
    spec = make(weights=[["1/4", "3/4"]])
    assert isinstance(spec.weights, tuple)
    assert isinstance(spec.weights[0], tuple)
    assert spec.weights[0][0] == Fraction(1, 4)


@pytest.mark.parametrize("weight", ["\u0661/\u0664", "1_0/20", "1e-5000"])
def test_constructor_reads_string_weights_like_a_spec_file(tmp_path, weight):
    # Fraction() would read all three; the constructor and a spec file both
    # refuse them, with the same message
    weights = [["1/4", weight, "3/4"]]
    with pytest.raises(ParseError) as built:
        validate_moduli_spec(make(genus=2, rank=3, weights=weights))
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"genus": 2, "rank": 3, "degree": 1, "weights": weights}),
        encoding="utf-8",
    )
    with pytest.raises(ParseError) as loaded:
        load_spec(str(path))
    assert str(built.value) == str(loaded.value)
    assert str(built.value).startswith("bad rational literal %r: " % weight)


def test_constructor_keeps_fractions_integers_and_plain_decimals():
    spec = make(genus=2, rank=3, weights=[[0, "0.5", Fraction(3, 4)]])
    assert spec.weights == ((Fraction(0), Fraction(1, 2), Fraction(3, 4)),)
    assert validate_moduli_spec(spec) == spec


def test_float_weights_are_rejected():
    # Fraction(0.1) is 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(ParseError, match="floats"):
        make(weights=[[0.1, "3/4"]])
    with pytest.raises(ParseError):  # the mapping path already wanted strings
        validate_moduli_spec(
            {"genus": 3, "rank": 2, "degree": 1, "weights": [[0.25, 0.75]]}
        )


def test_spec_file_errors_keep_their_messages(tmp_path):
    missing = str(tmp_path / "absent.json")
    with pytest.raises(ParseError) as info:
        load_spec(missing)
    assert str(info.value) == (
        "cannot read spec file %s: [Errno 2] No such file or directory: %r"
        % (missing, missing)
    )
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_spec(str(broken))
    assert str(info.value) == (
        "malformed JSON in %s at line 1 column 2: "
        "Expecting property name enclosed in double quotes" % broken
    )
