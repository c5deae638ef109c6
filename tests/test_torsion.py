"""Torsion group elements: orders, census, covers, determinant twists."""

import itertools
import pickle
import random
from math import gcd

import pytest

from parorb import model
from parorb.errors import IdentityElement, ModulusMismatch, NotADivisor
from parorb.model import ModuliSpec
from parorb.partitions import PointPartition, WeightPartition, count_partitions
from parorb.shifts import DegreeShift
from parorb.torsion import (
    DetTwist,
    TorsionElement,
    canonical_element_of_order,
    count_elements_of_order,
    cyclic_subgroup_elements,
    cyclic_subgroup_equal,
    element_order,
    pushforward_det_twist,
    spectral_cover_data,
)
from value_classes import ARGS, FIELD_ONLY, ORDERED, UNHASHABLE

CLASSES = list(ARGS)


def naive_order(modulus, exponents):
    """Smallest k >= 1 killing every exponent, by direct search."""
    for k in range(1, modulus + 1):
        if all((k * e) % modulus == 0 for e in exponents):
            return k
    raise AssertionError("unreachable for a finite group")


def test_element_order_matches_naive_search():
    for exps in itertools.product(range(6), repeat=4):
        eta = TorsionElement(6, exps)
        assert element_order(eta) == naive_order(6, exps), exps
    for exps in itertools.product(range(12), repeat=2):
        eta = TorsionElement(12, exps)
        assert element_order(eta) == naive_order(12, exps), exps


def test_stored_order_stays_out_of_value_semantics():
    # 8 reduces to 2 mod 6: one value, whatever the input spelling
    a = TorsionElement(6, (8, 0, 0, 0))
    b = TorsionElement(6, (2, 0, 0, 0))
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == repr(b) == "TorsionElement(modulus=6, exponents=(2, 0, 0, 0))"
    assert a.to_mapping() == b.to_mapping() == {
        "modulus": 6,
        "exponents": [2, 0, 0, 0],
    }


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_repr_is_the_dataclass_one(cls):
    args, expected = ARGS[cls]
    assert repr(cls(*args)) == expected


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_value_class_equality_and_hash_by_value_and_exact_class(cls):
    args, _ = ARGS[cls]
    a, b = cls(*args), cls(*args)
    fields = tuple(getattr(a, name) for name in cls.__match_args__)
    assert a == b and not a != b
    assert cls(**dict(zip(cls.__match_args__, args))) == a  # keywords are fields
    assert a != object() and a != fields
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert a != subclass(*args) and subclass(*args) != a
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        # the tuple of the fields, even of one, as a dataclass hashes
        assert hash(a) == hash(b) == hash(fields)
        assert {a: 1}[b] == 1
    copied = pickle.loads(pickle.dumps(a))
    assert type(copied) is cls and copied == a and repr(copied) == repr(a)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_only_partitions_are_ordered(cls):
    args, _ = ARGS[cls]
    a = cls(*args)
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        if cls in ORDERED:
            assert getattr(a, name)(object()) is NotImplemented
            assert getattr(a, name)(cls(*args)) is (name in ("__le__", "__ge__"))
        else:
            assert getattr(a, name)(cls(*args)) is NotImplemented
    if cls not in ORDERED:
        with pytest.raises(TypeError):
            a < cls(*args)


@pytest.mark.parametrize("cls", FIELD_ONLY, ids=lambda cls: cls.__name__)
def test_the_base_constructor_takes_each_field_once(cls):
    args, _ = ARGS[cls]
    first, last = cls.__match_args__[0], cls.__match_args__[-1]
    assert "__init__" not in vars(cls)
    assert cls(*args[:-1], **{last: args[-1]}) == cls(*args)
    refusals = [
        (lambda: cls(*args[:-1]), "missing field %r" % last),
        (lambda: cls(*args, None), "takes %d arguments, got %d" % (len(args), len(args) + 1)),
        (lambda: cls(*args, colour=None), "has no field 'colour'"),
        (lambda: cls(*args, **{first: args[0]}), "got field %r twice" % first),
    ]
    for build, message in refusals:
        with pytest.raises(TypeError) as refused:
            build()
        assert str(refused.value) == "%s() %s" % (cls.__qualname__, message)


def test_partitions_order_by_their_one_field():
    (lo,), _ = ARGS[PointPartition]
    small, large = PointPartition(lo), PointPartition(lo[::-1])  # one weight a block
    assert small.blocks < large.blocks
    assert small < large and small <= large and large > small and large >= small
    assert not large < small and not large <= small
    ws, wl = WeightPartition((small,)), WeightPartition((large,))
    assert ws < wl and ws <= wl and wl > ws and wl >= ws and not wl <= ws
    assert sorted([wl, ws]) == [ws, wl] and min(wl, ws) is ws
    with pytest.raises(TypeError):
        ws < small


def test_capabilities_are_computed_once(monkeypatch):
    calls = []
    squarefree = model.is_squarefree
    monkeypatch.setattr(
        model, "is_squarefree", lambda n: calls.append(n) or squarefree(n)
    )
    spec = ModuliSpec(*ARGS[ModuliSpec][0])
    flags = spec.capabilities
    assert spec.capabilities is flags and spec.capabilities is flags
    assert calls == [3]
    # the memo stays out of ==, hash and repr
    assert spec == ModuliSpec(*ARGS[ModuliSpec][0])
    assert repr(spec) == ARGS[ModuliSpec][1]


def test_degree_shift_alone_has_no_dict():
    for cls, (args, _) in ARGS.items():
        assert hasattr(cls(*args), "__dict__") is (cls is not DegreeShift), cls


def test_exponents_are_reduced_modulo_r():
    eta = TorsionElement(4, (5, -1, 8, 3))
    assert eta.exponents == (1, 3, 0, 3)


def test_identity_scale_inverse():
    eta = TorsionElement(6, (2, 0, 3, 0))
    assert not eta.is_identity
    assert eta.scale(0).is_identity
    assert eta.scale(element_order(eta)).is_identity
    combined = tuple(
        (a + b) % 6 for a, b in zip(eta.exponents, eta.inverse().exponents)
    )
    assert combined == (0, 0, 0, 0)


def test_genus_property():
    assert TorsionElement(2, (1, 0, 0, 0, 1, 1)).genus == 3


def test_mapping_round_trip():
    eta = TorsionElement(6, (1, 2, 3, 4))
    assert TorsionElement.from_mapping(eta.to_mapping()) == eta


CENSUS_CASES = {
    # (r, g) -> {order: count}; every value recomputed below by brute force
    (2, 2): {1: 1, 2: 15},
    (2, 3): {1: 1, 2: 63},
    (3, 2): {1: 1, 3: 80},
    (6, 2): {1: 1, 2: 15, 3: 80, 6: 1200},
}


@pytest.mark.parametrize("key", sorted(CENSUS_CASES))
def test_count_elements_of_order_frozen_values(key):
    r, g = key
    for m, expected in CENSUS_CASES[key].items():
        assert count_elements_of_order(r, g, m) == expected


@pytest.mark.parametrize("r,g", [(2, 2), (3, 2), (4, 2), (6, 2), (2, 3)])
def test_census_against_exhaustive_enumeration(r, g):
    seen = {}
    for exps in itertools.product(range(r), repeat=2 * g):
        order = naive_order(r, exps)
        seen[order] = seen.get(order, 0) + 1
    for m, count in seen.items():
        assert count_elements_of_order(r, g, m) == count, (r, g, m)
    assert sum(seen.values()) == r ** (2 * g)


def test_census_divisor_sum_is_group_size():
    for r in (2, 3, 4, 5, 6, 12):
        for g in (2, 3):
            total = sum(
                count_elements_of_order(r, g, m)
                for m in range(1, r + 1)
                if r % m == 0
            )
            assert total == r ** (2 * g)


def test_census_rejects_non_divisor():
    with pytest.raises(NotADivisor):
        count_elements_of_order(6, 2, 4)


def test_not_a_divisor_message_is_shared():
    for call in (
        lambda: count_partitions(6, 4, 1),
        lambda: count_elements_of_order(6, 2, 4),
        lambda: canonical_element_of_order(6, 2, 4),
        lambda: pushforward_det_twist(4, 6),
    ):
        with pytest.raises(NotADivisor) as info:
            call()
        assert str(info.value) == "m = 4 does not divide r = 6"


def test_spectral_cover_genus_riemann_hurwitz():
    # cover is etale of degree m: 2 g_Y - 2 = m (2g - 2)
    for g in range(2, 7):
        for m in range(1, 13):
            data = spectral_cover_data(g, m)
            assert 2 * data.cover_genus - 2 == m * (2 * g - 2)
            assert data.prym_dimension == (m - 1) * (g - 1)


def test_spectral_cover_small_values():
    assert spectral_cover_data(2, 2).cover_genus == 3
    assert spectral_cover_data(2, 3).cover_genus == 4
    assert spectral_cover_data(3, 2).cover_genus == 5


def test_pushforward_det_twist_parity():
    # trivial exactly for odd m; otherwise the half-point of Z/r
    for r in (2, 3, 4, 6, 10, 12):
        for m in (d for d in range(1, r + 1) if r % d == 0):
            twist = pushforward_det_twist(m, r)
            if m % 2 == 1:
                assert twist.is_trivial, (m, r)
            else:
                assert not twist.is_trivial and twist.eta_exponent == r // 2, (m, r)
    with pytest.raises(NotADivisor):
        pushforward_det_twist(4, 6)


def test_det_twist_mapping():
    assert DetTwist(0).to_mapping() == {"twist": "trivial"}
    assert pushforward_det_twist(2, 6).to_mapping() == {
        "twist": "eta_power",
        "power": 3,
    }


def test_cyclic_subgroup_elements():
    eta = TorsionElement(6, (2, 0, 0, 0))
    subgroup = cyclic_subgroup_elements(eta)
    assert len(subgroup) == element_order(eta) == 3
    assert TorsionElement(6, (4, 0, 0, 0)) in subgroup
    assert TorsionElement(6, (0, 0, 0, 0)) in subgroup


def test_cyclic_subgroup_equal_detects_shared_generator():
    a = TorsionElement(5, (1, 2, 0, 0))
    b = a.scale(3)  # 3 is a unit mod 5, so b generates the same subgroup
    assert cyclic_subgroup_equal(a, b)
    c = TorsionElement(5, (0, 1, 0, 0))
    assert not cyclic_subgroup_equal(a, c)
    with pytest.raises(ModulusMismatch):
        cyclic_subgroup_equal(a, TorsionElement(6, (1, 0, 0, 0)))


# every ordered pair of (Z/r)^2 for r <= 12 and of (Z/r)^4 for r <= 4
EXHAUSTIVE_GROUPS = [(r, 2) for r in range(1, 13)] + [(r, 4) for r in range(1, 5)]


def assert_subgroup_rule_matches_oracle(eta, subgroup, tau):
    """cyclic_subgroup_equal against its oracle: equal orders and tau among
    the listed multiples of eta (the set `subgroup`)."""
    expected = element_order(eta) == element_order(tau) and tau in subgroup
    assert cyclic_subgroup_equal(eta, tau) is expected, (eta, tau)


@pytest.mark.parametrize("r, length", EXHAUSTIVE_GROUPS)
def test_cyclic_subgroup_equal_matches_membership_oracle(r, length):
    elements = [TorsionElement(r, e) for e in itertools.product(range(r), repeat=length)]
    for eta in elements:
        subgroup = set(cyclic_subgroup_elements(eta))
        for tau in elements:
            assert_subgroup_rule_matches_oracle(eta, subgroup, tau)


def test_cyclic_subgroup_equal_matches_oracle_on_seeded_pairs():
    # (Z/6)^4 has 1,679,616 ordered pairs; a seeded sample, with tau drawn
    # from <eta> half the time so that both verdicts occur
    rng = random.Random(6)
    for _ in range(4000):
        eta = TorsionElement(6, tuple(rng.randrange(6) for _ in range(4)))
        subgroup = set(cyclic_subgroup_elements(eta))
        if rng.random() < 0.5:
            tau = eta.scale(rng.randrange(6))
        else:
            tau = TorsionElement(6, tuple(rng.randrange(6) for _ in range(4)))
        assert_subgroup_rule_matches_oracle(eta, subgroup, tau)


def test_canonical_element_has_requested_order():
    for r in (2, 3, 4, 6, 12):
        for g in (2, 3):
            for m in (d for d in range(2, r + 1) if r % d == 0):
                eta = canonical_element_of_order(r, g, m)
                assert eta.modulus == r and eta.genus == g
                assert element_order(eta) == m
                assert eta.exponents[0] == r // m
                assert all(e == 0 for e in eta.exponents[1:])


def test_order_of_scaled_element():
    eta = TorsionElement(12, (1, 0, 0, 0))
    for k in range(12):
        assert element_order(eta.scale(k)) == 12 // gcd(k, 12)


@pytest.mark.parametrize(
    "modulus, exponents",
    [
        (6, (2.7, 0, 0, 0)),  # int() would truncate it to an order-3 element
        (6, ("3", 0, 0, 0)),
        (6, (True, 0)),
        (6.0, (1, 0)),
        ("6", (1, 0)),
        (True, (1, 0)),
    ],
)
def test_element_rejects_non_integers(modulus, exponents):
    with pytest.raises(ValueError):
        TorsionElement(modulus, exponents)
