"""Graded carriers, twisted sectors, Euler identity, support rules."""

import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from parorb.chenruan import (
    BettiProvider,
    BettiTable,
    PairingSupport,
    PoincareSeries,
    ProductSupport,
    RationalGradedDimension,
    chen_ruan_table,
    chen_ruan_twisted_part,
    euler_vanishing_certificate,
    load_betti_tables,
    orbifold_euler,
    pairing_support,
    product_support,
    prym_poincare,
    small_rank_poincare,
    twisted_sector,
)
from parorb.arith import divisors
from parorb.fixed_loci import intersection_support
from parorb.errors import (
    IdentityElement,
    ModulusMismatch,
    ParseError,
    TableMissing,
)
from parorb.model import ModuliSpec, moduli_dimension
from parorb.shifts import shift_histogram
from parorb.torsion import (
    TorsionElement,
    canonical_element_of_order,
    count_elements_of_order,
    cyclic_subgroup_equal,
)


def series(*dims):
    return PoincareSeries.from_list(list(dims))


# --- PoincareSeries ---------------------------------------------------------

def test_series_normalizes_and_merges():
    p = PoincareSeries(((2, 1), (0, 3), (2, 2), (5, 0)))
    assert p.to_list() == [3, 0, 3]
    assert p.coefficient(2) == 3 and p.coefficient(17) == 0


@pytest.mark.parametrize("degree", [2.0, True, Fraction(2), "2"], ids=repr)
def test_series_coefficient_takes_only_an_int_degree(degree):
    # each of these once read a coefficient: 2.0, True and Fraction(2) by
    # comparing equal to an int degree, "2" as a missing degree
    with pytest.raises(ValueError):
        series(3, 0, 3).coefficient(degree)


def test_series_rejects_negative_entries():
    with pytest.raises(ValueError):
        PoincareSeries(((-1, 2),))
    with pytest.raises(ValueError):
        PoincareSeries(((1, -2),))


@pytest.mark.parametrize(
    "build",
    [
        lambda: PoincareSeries.from_list([1, 0.5]),
        lambda: PoincareSeries.from_list([1, True]),
        lambda: PoincareSeries(((0.0, 1),)),
        lambda: PoincareSeries(((True, 1),)),
        lambda: RationalGradedDimension(((0.5, 1),)),
        lambda: RationalGradedDimension(((True, 2),)),
        lambda: RationalGradedDimension(((Fraction(1, 2), "1"),)),
        lambda: RationalGradedDimension.empty().dimension_at(0.5),
        lambda: RationalGradedDimension.empty().symmetric_about(0.5),
        lambda: RationalGradedDimension.empty().dimension_at(False),
        lambda: series(1, 2, 1).shifted(0.5),
        lambda: series(1, 2, 1).shifted(True),
    ],
)
def test_graded_carriers_refuse_floats_and_bools(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("degree", [Fraction(1, 2), Fraction(2), "2"])
def test_series_refuses_degrees_that_are_not_ints(degree):
    # a Fraction or string degree would break to_list and the Euler parity
    with pytest.raises(ValueError) as info:
        PoincareSeries(((degree, 1), (1, 2)))
    assert str(info.value) == "degrees must be integers, got %r" % (degree,)


def test_series_keeps_its_float_and_bool_messages():
    for degree, kind in ((0.0, "floats"), (True, "bools")):
        with pytest.raises(ValueError) as info:
            PoincareSeries(((degree, 1),))
        assert str(info.value) == "degrees must be exact rationals, not %s" % kind


def test_graded_carriers_keep_exact_inputs():
    rational = RationalGradedDimension((("1/2", 1), (Fraction(3, 2), 2), (2, 1)))
    assert rational.dimension_at("1/2") == 1 and rational.dimension_at(2) == 1
    assert rational.symmetric_about(1) is False
    assert series(1, 2, 1).shifted(Fraction(1, 3)).dimension_at("4/3") == 2


def test_series_totals_and_euler():
    p = series(1, 4, 6, 4, 1)
    assert p.total_dimension == 16
    assert p.top_degree == 4
    assert p.euler_characteristic() == 1 - 4 + 6 - 4 + 1
    assert p.is_palindromic()
    assert not series(1, 2).is_palindromic()


def test_convolution_is_polynomial_multiplication():
    left = series(1, 2, 1)      # (1+t)^2
    right = series(1, 3, 3, 1)  # (1+t)^3
    assert left.convolve(right).to_list() == [1, 5, 10, 10, 5, 1]
    assert left.convolve(series(1)).to_list() == left.to_list()


def test_convolution_euler_is_multiplicative():
    a = series(1, 0, 3, 5)
    b = series(2, 2, 1)
    assert (
        a.convolve(b).euler_characteristic()
        == a.euler_characteristic() * b.euler_characteristic()
    )


def test_shifted_moves_grades_exactly():
    shifted = series(1, 2).shifted(Fraction(3, 2))
    assert shifted.dimension_at(Fraction(3, 2)) == 1
    assert shifted.dimension_at(Fraction(5, 2)) == 2
    assert shifted.total_dimension == 3


# --- RationalGradedDimension ------------------------------------------------

def test_graded_add_scale_symmetry():
    a = series(1, 2, 1).shifted(Fraction(1, 2))
    b = series(1).shifted(Fraction(5, 2))
    table = a.add(b).scale(3)
    assert table.dimension_at(Fraction(1, 2)) == 3
    assert table.dimension_at(Fraction(5, 2)) == 3 + 3
    assert table.total_dimension == 3 * 5
    # adding the lopsided b destroys the symmetry a had on its own
    assert a.symmetric_about(Fraction(3, 2))
    assert not table.symmetric_about(Fraction(3, 2))
    assert not table.symmetric_about(Fraction(1))


def test_graded_integer_rows_filter():
    table = series(1, 1).shifted(Fraction(1, 2)).add(series(4).shifted(Fraction(2)))
    rows = table.integer_rows()
    assert rows.to_list() == [0, 0, 4]


def test_graded_to_rows_renders_exact_strings():
    table = series(2).shifted(Fraction(7, 3))
    assert table.to_rows() == [{"grade": "7/3", "dim": 2}]


# --- provider ---------------------------------------------------------------

def table_doc(genus, rank, points, chamber, coefficients):
    return {
        "genus": genus,
        "rank": rank,
        "points": points,
        "chamber": chamber,
        "coefficients": coefficients,
    }


def test_provider_lookup_by_full_key_and_unique_triple():
    provider = BettiProvider(
        [
            BettiTable.from_mapping(table_doc(3, 2, 1, "c0", [1, 0, 2])),
            BettiTable.from_mapping(table_doc(3, 2, 2, "c0", [1, 1])),
        ]
    )
    assert provider.lookup(3, 2, 1, "c0").to_list() == [1, 0, 2]
    assert provider.lookup(3, 2, 1).to_list() == [1, 0, 2]
    with pytest.raises(TableMissing):
        provider.lookup(4, 2, 1)
    with pytest.raises(TableMissing):
        provider.lookup(3, 2, 1, "other-chamber")


def test_provider_requires_unique_chamber_for_bare_lookup():
    provider = BettiProvider(
        [
            BettiTable.from_mapping(table_doc(3, 2, 1, "a", [1, 0, 2])),
            BettiTable.from_mapping(table_doc(3, 2, 1, "b", [1, 2, 1])),
        ]
    )
    with pytest.raises(TableMissing):
        provider.lookup(3, 2, 1)
    assert provider.lookup(3, 2, 1, "b").to_list() == [1, 2, 1]


def test_provider_rejects_conflicting_duplicates():
    tables = [
        BettiTable.from_mapping(table_doc(3, 2, 1, "a", [1, 0, 2])),
        BettiTable.from_mapping(table_doc(3, 2, 1, "a", [9, 9])),
    ]
    with pytest.raises(ParseError):
        BettiProvider(tables)


def test_load_betti_tables_round_trip(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text(
        json.dumps([table_doc(3, 2, 1, "c0", [1, 0, 2])]), encoding="utf-8"
    )
    tables = load_betti_tables(str(path))
    assert len(tables) == 1 and tables[0].key == (3, 2, 1, "c0")
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ParseError):
        load_betti_tables(str(path))


# --- sector assembly --------------------------------------------------------

W2 = ((Fraction(1, 4), Fraction(3, 4)),)
FLAGSHIP = ModuliSpec(genus=2, rank=2, degree=1, weights=W2)  # not validated


def test_prym_poincare_is_torus_cohomology():
    assert prym_poincare(2, 2).to_list() == [1, 2, 1]
    assert prym_poincare(3, 2).to_list() == [1, 4, 6, 4, 1]
    assert prym_poincare(2, 1).to_list() == [1]
    assert prym_poincare(4, 3).euler_characteristic() == 0


def test_small_rank_poincare_rank_one_is_a_point():
    assert small_rank_poincare(None, 5, 1, 6).to_list() == [1]


def test_small_rank_poincare_needs_table_beyond_rank_one():
    with pytest.raises(TableMissing):
        small_rank_poincare(None, 3, 2, 4)
    provider = BettiProvider(
        [BettiTable.from_mapping(table_doc(3, 2, 4, "c", [1, 0, 1]))]
    )
    assert small_rank_poincare(provider, 3, 2, 4).to_list() == [1, 0, 1]


def test_flagship_sector_shape():
    eta = TorsionElement(2, (1, 0, 0, 0))
    report = twisted_sector(FLAGSHIP, eta)
    assert report.orbit_class_count == 1
    graded = report.sector_graded
    assert graded.dimension_at(3) == 1
    assert graded.dimension_at(4) == 2
    assert graded.dimension_at(5) == 1
    assert graded.total_dimension == 4
    assert report.unshifted_euler() == 0


def test_flagship_twisted_part():
    twisted = chen_ruan_twisted_part(FLAGSHIP)
    assert count_elements_of_order(2, 2, 2) == 15
    assert twisted.dimension_at(3) == 15
    assert twisted.dimension_at(4) == 30
    assert twisted.dimension_at(5) == 15
    assert twisted.total_dimension == 60
    assert twisted.symmetric_about(moduli_dimension(FLAGSHIP))


def test_chen_ruan_table_merges_untwisted_row():
    untwisted = series(1, 0, 1, 2, 1, 0, 1)
    table = chen_ruan_table(FLAGSHIP, None, untwisted)
    assert table.dimension_at(0) == 1
    assert table.dimension_at(3) == 15 + 2
    assert table.dimension_at(4) == 30 + 1
    assert (
        table.total_dimension
        == 60 + untwisted.total_dimension
    )


def test_sector_grades_live_between_zero_and_twice_dimension():
    six = tuple(Fraction(i, 7) for i in range(1, 7))
    spec = ModuliSpec(genus=2, rank=6, degree=1, weights=(six,))
    provider = BettiProvider(
        [
            # m=2 sheet: rank-3 moduli on the genus-3 cover with 2 points
            BettiTable.from_mapping(table_doc(3, 3, 2, "c", [1, 0, 1])),
            # m=3 sheet: rank-2 moduli on the genus-4 cover with 3 points
            BettiTable.from_mapping(table_doc(4, 2, 3, "c", [1, 1])),
        ]
    )
    table = chen_ruan_twisted_part(spec, provider)
    top = 2 * moduli_dimension(spec)
    assert all(0 < x < top for x, _ in table.entries)


def test_chen_ruan_table_builds_one_table(monkeypatch):
    six = tuple(Fraction(i, 7) for i in range(1, 7))
    spec = ModuliSpec(genus=2, rank=6, degree=1, weights=(six,))
    provider = BettiProvider(
        [
            BettiTable.from_mapping(table_doc(3, 3, 2, "c", [1, 0, 1])),
            BettiTable.from_mapping(table_doc(4, 2, 3, "c", [1, 1])),
        ]
    )
    built = []
    init = RationalGradedDimension.__init__

    def counted(self, entries):
        built.append(self)
        init(self, entries)

    monkeypatch.setattr(RationalGradedDimension, "__init__", counted)
    table = chen_ruan_table(spec, provider, series(1, 0, 2, 0, 1))
    # every order's sector and the untwisted row are summed into one table
    assert built == [table]


# --- sectors from shift histograms ------------------------------------------

def uneven_spec(rng, g, r, s, degree=1):
    """s different points of r unevenly spaced weights with assorted denominators."""
    points = []
    for _ in range(s):
        chosen = set()
        while len(chosen) < r:
            q = rng.randint(r + 1, 97)
            chosen.add(Fraction(rng.randrange(q), q))
        points.append(tuple(sorted(chosen)))
    return ModuliSpec(genus=g, rank=r, degree=degree, weights=tuple(points))


def sector_provider(rng, spec):
    """A palindromic table for every small-rank lookup of spec's sectors."""
    tables = []
    for m in divisors(spec.rank)[1:]:
        l = spec.rank // m
        if l > 1:
            half = [1] + [rng.randint(0, 4) for _ in range(rng.randint(0, 3))]
            cover_genus = m * (spec.genus - 1) + 1
            doc = table_doc(cover_genus, l, spec.num_points * m, "c", half + half[-2::-1])
            tables.append(BettiTable.from_mapping(doc))
    return BettiProvider(tables)


HISTOGRAM_SHAPES = [
    (2, 2, 1), (2, 2, 2), (2, 2, 3), (2, 3, 1), (2, 3, 2), (2, 3, 3), (2, 5, 1),
    (2, 5, 2), (2, 6, 1), (2, 6, 2), (2, 7, 1), (3, 6, 1), (2, 3, 4), (3, 2, 5),
]


@pytest.mark.parametrize("g, r, s", HISTOGRAM_SHAPES)
def test_shift_histogram_equals_twisted_sector_shifts(g, r, s):
    rng = random.Random(100 * g + 10 * r + s)
    spec = uneven_spec(rng, g, r, s)
    provider = sector_provider(rng, spec)
    for m in divisors(r)[1:]:
        eta = canonical_element_of_order(r, g, m)
        sector = twisted_sector(spec, eta, provider)
        enumerated = Counter(shift.value for _, shift, _ in sector.per_orbit)
        assert shift_histogram(spec, eta) == enumerated


def test_twisted_part_equals_census_weighted_sectors():
    rng = random.Random(20261018)
    rows = random.Random(20261019)  # the untwisted rows, apart from the specs
    for _ in range(16):
        r = rng.choice((2, 3, 5, 6, 6, 7))
        s = rng.randint(1, {2: 4, 3: 3, 5: 2, 6: 1, 7: 1}[r])
        g = rng.randint(2, 4)
        degree = rng.choice([d for d in range(1, 2 * r) if gcd(d, r) == 1])
        spec = uneven_spec(rng, g, r, s, degree)
        provider = sector_provider(rng, spec)
        expected = RationalGradedDimension.empty()
        for m in divisors(r)[1:]:
            sector = twisted_sector(spec, canonical_element_of_order(r, g, m), provider)
            # the sector is the sum of its classes' series, each moved up by
            # twice the class's shift
            by_class = RationalGradedDimension(
                tuple(
                    (k + 2 * shift.value, d)
                    for _, shift, class_series in sector.per_orbit
                    for k, d in class_series.coefficients
                )
            )
            assert sector.sector_graded == by_class
            expected = expected.add(
                sector.sector_graded.scale(count_elements_of_order(r, g, m))
            )
        assert chen_ruan_twisted_part(spec, provider) == expected, spec
        untwisted = PoincareSeries.from_list(
            [rows.randint(0, 5) for _ in range(2 * moduli_dimension(spec) + 1)]
        )
        assert chen_ruan_table(spec, provider, untwisted) == expected.add(
            untwisted.shifted(Fraction(0))
        ), spec


def test_euler_certificate_rows_all_vanish():
    for spec in (
        FLAGSHIP,
        ModuliSpec(genus=2, rank=6, degree=1,
                   weights=(tuple(Fraction(i, 7) for i in range(1, 7)),)),
    ):
        rows = euler_vanishing_certificate(spec)
        orders = [row.order for row in rows]
        assert orders == [d for d in range(2, spec.rank + 1) if spec.rank % d == 0]
        assert all(row.sector_euler == 0 for row in rows)
        assert all(row.to_mapping()["vanishes"] for row in rows)


def test_orbifold_euler_equals_untwisted_alternating_sum():
    provider = BettiProvider(
        [BettiTable.from_mapping(table_doc(2, 2, 1, "c", [1, 0, 3, 4, 3, 0, 1]))]
    )
    report = orbifold_euler(FLAGSHIP, provider)
    assert report.value == 1 - 0 + 3 - 4 + 3 - 0 + 1
    assert all(row.sector_euler == 0 for row in report.certificate)


def test_orbifold_euler_missing_table_raises_but_certificate_stands():
    with pytest.raises(TableMissing):
        orbifold_euler(FLAGSHIP, None)
    assert euler_vanishing_certificate(FLAGSHIP)  # no provider required


# --- pairing / product rules ------------------------------------------------

DIM7 = ModuliSpec(genus=3, rank=2, degree=1, weights=W2)  # dimension 7


def test_pairing_candidate_on_inverse_pairs():
    eta = TorsionElement(6, (1, 2, 3, 4))
    spec = ModuliSpec(genus=2, rank=6, degree=1,
                      weights=(tuple(Fraction(i, 7) for i in range(1, 7)),))
    assert pairing_support(5, eta, eta.inverse(), spec) is PairingSupport.CANDIDATE
    assert pairing_support(5, eta.inverse(), eta, spec) is PairingSupport.CANDIDATE
    assert pairing_support(5, eta, eta, spec) is PairingSupport.FORCED_ZERO
    identity = TorsionElement(6, (0, 0, 0, 0))
    assert pairing_support(5, identity, identity, spec) is PairingSupport.CANDIDATE
    assert pairing_support(5, eta, identity, spec) is PairingSupport.FORCED_ZERO


def test_pairing_self_inverse_elements_are_candidates():
    spec = ModuliSpec(genus=3, rank=2, degree=1, weights=W2)
    eta = TorsionElement(2, (1, 0, 1, 0, 0, 0))
    assert pairing_support(3, eta, eta, spec) is PairingSupport.CANDIDATE


def test_pairing_grade_window():
    # each grade as an int (when integral), a Fraction and a "p/q" string
    eta = TorsionElement(2, (1, 0, 0, 0, 0, 0))
    tau = eta.inverse()
    for grade, verdict in [
        (Fraction(-1), PairingSupport.FORCED_ZERO),
        (Fraction(0), PairingSupport.CANDIDATE),
        (Fraction(14), PairingSupport.CANDIDATE),  # 2 * dimension
        (Fraction(29, 2), PairingSupport.FORCED_ZERO),
        (Fraction(15), PairingSupport.FORCED_ZERO),
    ]:
        forms = [grade, "%d/%d" % (grade.numerator, grade.denominator)]
        if grade.denominator == 1:
            forms.append(int(grade))
        for form in forms:
            assert pairing_support(form, eta, tau, DIM7) is verdict, form
            assert pairing_support(form, eta, eta.scale(0), DIM7) is PairingSupport.FORCED_ZERO


def test_pairing_rejects_floats_and_mixed_moduli():
    eta = TorsionElement(2, (1, 0, 0, 0, 0, 0))
    for grade, kind in [(1.5, "float"), (1.0, "float"), (True, "bool")]:
        with pytest.raises(ValueError) as info:
            pairing_support(grade, eta, eta, DIM7)
        assert str(info.value) == "grades must be exact rationals, not %ss" % kind
    with pytest.raises(ModulusMismatch):
        pairing_support(1, eta, TorsionElement(3, (1, 0, 0, 0, 0, 0)), DIM7)


def test_product_equal_order_distinct_subgroups_vanishes():
    eta = TorsionElement(4, (1, 0, 0, 0))
    tau = TorsionElement(4, (0, 1, 0, 0))
    assert product_support(eta, tau) is ProductSupport.FORCED_ZERO
    assert product_support(eta, eta.scale(3)) is ProductSupport.UNKNOWN


def test_product_prime_modulus_membership():
    eta = TorsionElement(5, (2, 1, 0, 0))
    assert product_support(eta, eta.scale(2)) is ProductSupport.UNKNOWN
    outside = TorsionElement(5, (0, 0, 3, 0))
    assert product_support(eta, outside) is ProductSupport.FORCED_ZERO


def test_product_composite_unequal_orders_stay_unknown():
    eta = TorsionElement(6, (1, 0, 0, 0))   # order 6
    tau = TorsionElement(6, (0, 2, 0, 0))   # order 3, different axis
    assert product_support(eta, tau) is ProductSupport.UNKNOWN


def test_product_rejects_identity():
    eta = TorsionElement(4, (1, 0, 0, 0))
    with pytest.raises(IdentityElement):
        product_support(eta, TorsionElement(4, (0, 0, 0, 0)))


def test_modulus_mismatch_message_is_shared():
    spec = ModuliSpec(genus=2, rank=6, degree=1, weights=((Fraction(1, 7),) * 6,))
    eta, tau = TorsionElement(6, (1, 0, 0, 0)), TorsionElement(4, (1, 0, 0, 0))
    for call in (
        lambda: cyclic_subgroup_equal(eta, tau),
        lambda: intersection_support(eta, tau),
        lambda: product_support(eta, tau),
        lambda: pairing_support(0, eta, tau, spec),
    ):
        with pytest.raises(ModulusMismatch) as info:
            call()
        assert str(info.value) == "moduli differ: 6 vs 4"


@pytest.mark.parametrize(
    "rule",
    [
        lambda eta, tau: cyclic_subgroup_equal(eta, tau),
        lambda eta, tau: intersection_support(eta, tau),
        lambda eta, tau: product_support(eta, tau),
        lambda eta, tau: pairing_support(0, eta, tau, DIM7),
    ],
    ids=["cyclic_subgroup_equal", "intersection_support", "product_support",
         "pairing_support"],
)
def test_elements_of_different_genus_are_refused(rule):
    short, long = TorsionElement(3, (1, 0)), TorsionElement(3, (1, 0, 0, 0))
    for eta, tau in ((short, long), (long, short)):
        with pytest.raises(ModulusMismatch) as info:
            rule(eta, tau)
        assert str(info.value) == "exponent vector lengths differ: 2g = %d vs %d" % (
            len(eta.exponents), len(tau.exponents))
    # a different modulus is named first
    with pytest.raises(ModulusMismatch) as info:
        rule(short, TorsionElement(2, (1, 0, 0, 0)))
    assert str(info.value) == "moduli differ: 3 vs 2"


# --- strict Betti files -----------------------------------------------------

@pytest.mark.parametrize(
    "fields, message",
    [
        (("2", 3, 1, "c0"), "genus must be an integer, got '2'"),
        ((2, 3.0, 1, "c0"), "rank must be an integer, got 3.0"),
        ((2, 3, True, "c0"), "points must be an integer, got True"),
        ((2, 3, 1, 7), "chamber must be a string, got 7"),
    ],
)
def test_betti_table_constructor_shares_the_file_type_rule(fields, message):
    # the rule of from_mapping, so a table no lookup can match is refused
    with pytest.raises(ValueError) as info:
        BettiTable(*fields, series(1, 0, 1))
    assert str(info.value) == message


def test_betti_table_constructor_refuses_a_series_that_is_not_one():
    with pytest.raises(ValueError) as info:
        BettiTable(2, 3, 1, "c0", [1, 0, 1])
    assert str(info.value) == "series must be a PoincareSeries, got [1, 0, 1]"


GOOD_ENTRY = table_doc(3, 2, 1, "c0", [1, 0, 2, 0, 1])


@pytest.mark.parametrize(
    "change",
    [
        {"coefficients": [1, 0.5, 2, 0.5, 1]},
        {"coefficients": [1, True, 1]},
        {"coefficients": "10201"},
        {"colour": "blue"},
        {"genus": "3"},
        {"genus": True},
        {"rank": 2.0},
        {"points": None},
        {"chamber": 7},
    ],
)
def test_betti_entry_rejects_anything_but_its_schema(change):
    with pytest.raises(ParseError, match="bad Betti table entry"):
        BettiTable.from_mapping(dict(GOOD_ENTRY, **change))


def test_betti_entry_keeps_its_earlier_messages():
    # a missing key, a negative coefficient and a non-object entry were
    # refused before the schema was strict, and say the same as then
    for raw, message in [
        ({k: v for k, v in GOOD_ENTRY.items() if k != "rank"}, "'rank'"),
        (dict(GOOD_ENTRY, coefficients=[1, -1]),
         "dimensions must be non-negative, got -1"),
        ([1, 2], "list indices must be integers or slices, not str"),
    ]:
        with pytest.raises(ParseError) as info:
            BettiTable.from_mapping(raw)
        assert str(info.value) == "bad Betti table entry: " + message


def test_betti_file_errors_keep_their_messages(tmp_path):
    missing = str(tmp_path / "absent.json")
    with pytest.raises(ParseError) as info:
        load_betti_tables(missing)
    assert str(info.value) == (
        "cannot read Betti table file %s: [Errno 2] No such file or directory: %r"
        % (missing, missing)
    )
    broken = tmp_path / "broken.json"
    broken.write_text('[{"genus": 3,]', encoding="utf-8")
    with pytest.raises(ParseError) as info:
        load_betti_tables(str(broken))
    assert str(info.value) == (
        "malformed JSON in %s at line 1 column 14: "
        "Expecting property name enclosed in double quotes" % broken
    )


def test_benchmark_betti_file_still_loads(tmp_path, monkeypatch):
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(perfbench))
    import inputs

    inputs.generate("cli-report", 1, str(tmp_path))
    tables = load_betti_tables(str(tmp_path / "betti.json"))
    assert tables and all(table.chamber == "generic" for table in tables)
    assert len(BettiProvider(tables)) == len(tables)
