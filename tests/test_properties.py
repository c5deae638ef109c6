"""Seeded property tests on random-weight specs, past the exhaustive cases.

Twenty specs drawn with stdlib random: squarefree rank r <= 7, one or two
marked points, genus 2 or 3, a degree coprime to r, and unevenly spaced
weights with assorted denominators.  Shapes whose product of partitions
would be too long to walk (r >= 6 with two points) get one point.  The
`shifts` rows are checked on one more seeded spec per squarefree r <= 7
and s <= 3 that the CLI's partition guardrail admits, and a CLI run on seeded prime-rank
specs, which need no Betti file, is read back against the library.
"""

import json
import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from parorb.arith import divisors, format_rational
from parorb.chenruan import (
    BettiProvider,
    BettiTable,
    PoincareSeries,
    RationalGradedDimension,
    twisted_sector,
)
from parorb import cli
from parorb.cli import _shifts_section
from parorb.model import ModuliSpec, load_spec, spec_to_mapping
from parorb.oracles import (
    PARTITION_LIMIT,
    _partition_classes,
    brute_force_partition_census,
    check_partition_identities,
)
from parorb.partitions import (
    compute_orbit_section,
    count_partitions,
    enumerate_partitions,
    galois_rotate,
)
from parorb.shifts import (
    degree_shift,
    dominance_count,
    eigenvalue_multiplicities,
    shift_histogram,
    total_codimension,
)
from parorb.torsion import canonical_element_of_order, count_elements_of_order


def random_spec(rng):
    r = rng.choice((2, 3, 5, 6, 7))
    s = 1 if r >= 6 else rng.choice((1, 2))
    return shaped_spec(rng, r, s)


def shaped_spec(rng, r, s):
    g = rng.choice((2, 3))
    degree = rng.choice([d for d in range(1, 2 * r) if gcd(d, r) == 1])
    points = []
    for _ in range(s):
        chosen = set()
        while len(chosen) < r:
            q = rng.randint(r + 1, 97)
            chosen.add(Fraction(rng.randrange(q), q))
        points.append(tuple(sorted(chosen)))
    return ModuliSpec(genus=g, rank=r, degree=degree, weights=tuple(points))


_RNG = random.Random(20221018)
SPECS = [random_spec(_RNG) for _ in range(20)]


def sector_provider(spec):
    """A table for every small-rank lookup of spec's sectors (l > 1)."""
    tables = []
    for m in divisors(spec.rank)[1:-1]:
        cover_genus = m * (spec.genus - 1) + 1
        tables.append(
            BettiTable(
                cover_genus, spec.rank // m, spec.num_points * m, "c",
                PoincareSeries.from_list([1, 0, 1]),
            )
        )
    return BettiProvider(tables)


def spec_id(spec):
    return "g%dr%ds%dd%d" % (spec.genus, spec.rank, spec.num_points, spec.degree)


IDS = ["%02d-%s" % (k, spec_id(spec)) for k, spec in enumerate(SPECS)]


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_shift_histogram_equals_representative_tally_and_sector(spec):
    provider = sector_provider(spec)
    for m in divisors(spec.rank)[1:]:
        eta = canonical_element_of_order(spec.rank, spec.genus, m)
        histogram = shift_histogram(spec, eta)
        tally = Counter(
            degree_shift(spec, eta, rep).value
            for rep in compute_orbit_section(spec, m).representatives
        )
        assert histogram == tally
        assert list(histogram) == sorted(histogram)
        sector = twisted_sector(spec, eta, provider)
        assert histogram == Counter(shift.value for _, shift, _ in sector.per_orbit)


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_shift_is_invariant_under_rotation(spec):
    rng = random.Random(spec_id(spec))
    for m in divisors(spec.rank)[1:]:
        eta = canonical_element_of_order(spec.rank, spec.genus, m)
        partitions = list(enumerate_partitions(spec, m))
        for t in rng.sample(partitions, min(40, len(partitions))):
            shift = degree_shift(spec, eta, t)
            for i in range(1, m):
                assert degree_shift(spec, eta, galois_rotate(t, i)) == shift


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_dominance_pairing_on_every_partition(spec):
    # C(i) + C(m-i) = s*m*l^2: each pair across blocks i apart counts once
    s = spec.num_points
    for m in divisors(spec.rank)[1:]:
        l = spec.rank // m
        for t in enumerate_partitions(spec, m):
            for i in range(1, m):
                assert dominance_count(t, i) + dominance_count(t, m - i) == s * m * l * l


@pytest.mark.parametrize("spec", SPECS, ids=IDS)
def test_partition_identity_checker_passes_on_every_partition(spec):
    s = spec.num_points
    for m in divisors(spec.rank)[1:]:
        count = count_partitions(spec.rank, m, s)
        eta = canonical_element_of_order(spec.rank, spec.genus, m)
        pairing, dimension, tally = check_partition_identities(spec, m, eta)
        l = spec.rank // m
        target = s * m * l * l
        assert pairing == {"pass": True, "checked": count * (m - 1), "target": target}
        assert dimension["pass"] is True and dimension["checked"] == count
        assert tally["pass"] is True and tally["checked"] == count


# the twenty specs have one or two points; two more have three
CENSUS_SPECS = SPECS + [shaped_spec(random.Random(20221020), r, 3) for r in (2, 3)]


# oracle mode checks its identities on classes of summed point counts and
# never streams the product; here the product is streamed, exhaustively
ADDITIVITY_SPECS = [spec for spec in CENSUS_SPECS if spec.rank <= 6]


@pytest.mark.parametrize("spec", ADDITIVITY_SPECS, ids=spec_id)
def test_oracle_classes_tally_the_streamed_dominance_vectors(spec):
    r, g = spec.rank, spec.genus
    for m in divisors(r):
        classes = _partition_classes(spec, m)
        streamed = list(enumerate_partitions(spec, m))
        assert {vector: n for vector, (n, _) in classes.items()} == Counter(
            t.dominance_vector() for t in streamed
        )
        if m == 1:
            continue
        eta = canonical_element_of_order(r, g, m)
        base = (m - 1) * r * r * (g - 1) // m
        for t in streamed:
            assert total_codimension(spec, eta, t) == base + sum(t.dominance_vector()[1:])


@pytest.mark.parametrize(
    "spec", CENSUS_SPECS, ids=IDS + [spec_id(spec) for spec in CENSUS_SPECS[20:]]
)
def test_partition_census_matches_the_closed_forms(spec):
    # every divisor m, m = 1 and m = r included: the index-labelled rotations
    # find the same orbits as the count formula and the free action predict
    r, s = spec.rank, spec.num_points
    for m in divisors(r):
        count = count_partitions(r, m, s)
        assert brute_force_partition_census(spec, m) == {
            "count": count, "orbit_count": count // m, "orbits_all_size_m": True
        }


_ROW_RNG = random.Random(20221019)
ROW_SPECS = [
    shaped_spec(_ROW_RNG, r, s)
    for r in (2, 3, 5, 6, 7)
    for s in (1, 2, 3)
    if count_partitions(r, r, s) <= PARTITION_LIMIT  # the shifts guardrail
]


def library_rows(spec):
    """The shifts rows rebuilt from the library API: one WeightPartition,
    multiplicity table and DegreeShift per orbit representative."""
    for m in divisors(spec.rank)[1:]:
        eta = canonical_element_of_order(spec.rank, spec.genus, m)
        for rep in compute_orbit_section(spec, m).representatives:
            table = eigenvalue_multiplicities(spec, eta, rep)
            yield {
                "order": m,
                "eta": eta.to_mapping(),
                "orbit_representative": rep.to_mapping(),
                "shift": format_rational(degree_shift(spec, eta, rep).value),
                "multiplicities": [table.multiplicities[i] for i in range(1, m)],
            }


@pytest.mark.parametrize("spec", ROW_SPECS, ids=[spec_id(spec) for spec in ROW_SPECS])
def test_shift_rows_equal_the_library_rows(spec):
    rows = _shifts_section(spec)["rows"]
    assert len(rows) == sum(
        count_partitions(spec.rank, m, spec.num_points) // m
        for m in divisors(spec.rank)[1:]
    )
    for row, expected in zip(rows, library_rows(spec)):
        # the row shares tuples of weight strings; to_mapping makes lists
        shared = row["orbit_representative"]
        row = dict(row, orbit_representative=[list(map(list, p)) for p in shared])
        assert row == expected


def trip_spec(rng, r, s):
    """shaped_spec, at genus 3 for rank 2, which the CLI refuses at genus 2."""
    spec = shaped_spec(rng, r, s)
    if r == 2:
        spec = ModuliSpec(genus=3, rank=2, degree=spec.degree, weights=spec.weights)
    return spec


_TRIP_RNG = random.Random(20221021)
# prime ranks: the only nontrivial order is r, whose small-rank factor is a
# point, so the cr_table rows need no Betti file
TRIP_SPECS = [
    trip_spec(_TRIP_RNG, r, s)
    for r, s in [(2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]
]


@pytest.mark.parametrize("spec", TRIP_SPECS, ids=spec_id)
def test_cli_report_reads_back_as_the_library(tmp_path, capsys, spec):
    # spec -> file -> CLI JSON -> spec echo, shifts rows and cr_table rows,
    # each equal to what the library makes of the file
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "genus": spec.genus,
        "rank": spec.rank,
        "degree": spec.degree,
        "weights": [[str(w) for w in point] for point in spec.weights],
    }))
    status = cli.main(["--spec", str(path), "--emit", "shifts,cr_table"])
    report = json.loads(capsys.readouterr().out)
    assert status == 0
    loaded = load_spec(str(path))
    assert loaded == spec
    assert report["spec"] == spec_to_mapping(loaded)
    outputs = report["outputs"]
    assert outputs["shifts"]["rows"] == list(library_rows(loaded))
    r, g = loaded.rank, loaded.genus
    expected = RationalGradedDimension.empty()
    for m in divisors(r)[1:]:
        eta = canonical_element_of_order(r, g, m)
        sector = twisted_sector(loaded, eta).sector_graded
        expected = expected.add(sector.scale(count_elements_of_order(r, g, m)))
    assert outputs["cr_table"]["untwisted"] == "external-input-missing"
    assert outputs["cr_table"]["rows"] == expected.to_rows()
