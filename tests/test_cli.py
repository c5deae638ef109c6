"""End-to-end command line checks: determinism, exit codes, formats."""

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from parorb.arith import divisors, format_rational
from parorb.chenruan import chen_ruan_table
from parorb.cli import RunConfig, render_json, run
from parorb.model import load_spec
from parorb.partitions import compute_orbit_section
from parorb.shifts import degree_shift, eigenvalue_multiplicities
from parorb.torsion import TorsionElement, canonical_element_of_order, element_order

SPEC_G2R3 = {
    "genus": 2,
    "rank": 3,
    "degree": 1,
    "weights": [["1/6", "1/3", "1/2"]],
}

SPEC_G3R2 = {
    "genus": 3,
    "rank": 2,
    "degree": 1,
    "weights": [["1/4", "3/4"]],
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "parorb", *args],
        capture_output=True,
        timeout=300,
    )


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


@pytest.fixture()
def spec_g2r3(tmp_path):
    return write_json(tmp_path / "g2r3.json", SPEC_G2R3)


@pytest.fixture()
def spec_g3r2(tmp_path):
    return write_json(tmp_path / "g3r2.json", SPEC_G3R2)


def test_json_reports_are_byte_identical(spec_g2r3):
    first = run_cli("--spec", spec_g2r3, "--emit", "census,components,shifts")
    second = run_cli("--spec", spec_g2r3, "--emit", "census,components,shifts")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"}\n")


def test_report_echoes_spec_and_names_operations(spec_g2r3):
    result = run_cli("--spec", spec_g2r3)
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["spec"]["rank"] == 3
    assert report["spec"]["num_points"] == 1
    census = report["outputs"]["census"]
    assert census["op"] == "count_elements_of_order"
    # the report carries whatever the census operation returned
    assert census["by_order"] == [
        {"count": 1, "order": 1},
        {"count": 80, "order": 3},
    ]
    assert census["group_size"] == 81
    components = report["outputs"]["components"]
    assert components["op"] == "fixed_locus_components"
    assert components["rows"][0]["total_components"] == 6
    rules = report["outputs"]["product_rules"]
    assert all("rule" in row for row in rules["rows"])


def test_component_counts_depend_only_on_order(spec_g2r3):
    report = json.loads(run_cli("--spec", spec_g2r3).stdout)
    rows = report["outputs"]["components"]["rows"]
    assert [row["order"] for row in rows] == [3]
    assert rows[0]["gamma_classes"] == 2
    assert rows[0]["components_per_partition"] == 3


def test_cr_table_without_provider_flags_untwisted_row(spec_g2r3):
    result = run_cli("--spec", spec_g2r3, "--emit", "cr_table")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    section = report["outputs"]["cr_table"]
    assert section["untwisted"] == "external-input-missing"
    assert section["rows"], "twisted rows must still be emitted"


def test_cr_table_with_provider_includes_untwisted(tmp_path, spec_g2r3):
    tables = [
        {
            "genus": 2,
            "rank": 3,
            "points": 1,
            "chamber": "c0",
            "coefficients": [1, 0, 2, 0, 1],
        }
    ]
    provider = write_json(tmp_path / "tables.json", tables)
    result = run_cli(
        "--spec", spec_g2r3, "--provider", provider, "--emit", "cr_table,euler"
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["outputs"]["cr_table"]["untwisted"] == "included"
    euler = report["outputs"]["euler"]
    assert euler["untwisted"] == "included"
    assert euler["value"] == 1 - 0 + 2 - 0 + 1
    assert all(row["vanishes"] for row in euler["certificate"])


def test_euler_without_provider_still_certifies(spec_g3r2):
    result = run_cli("--spec", spec_g3r2, "--emit", "euler")
    assert result.returncode == 0
    euler = json.loads(result.stdout)["outputs"]["euler"]
    assert euler["value"] is None
    assert euler["untwisted"] == "external-input-missing"
    assert euler["certificate"] == [
        {"order": 2, "prym_dimension": 2, "sector_euler": 0, "vanishes": True}
    ]


def test_table_format_is_human_readable(spec_g2r3):
    result = run_cli("--spec", spec_g2r3, "--format", "table", "--emit", "census")
    assert result.returncode == 0
    text = result.stdout.decode()
    assert "moduli: genus=2 rank=3" in text
    assert "[census]" in text
    assert "order=3" in text


def test_oracle_mode_appends_passing_section(spec_g2r3):
    result = run_cli("--spec", spec_g2r3, "--emit", "census", "--oracle")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    oracle = report["oracle"]
    assert oracle["all_pass"] is True
    names = {entry["check"] for entry in oracle["checks"]}
    assert {
        "census_bruteforce",
        "partition_count",
        "orbit_freeness",
        "dominance_pairing",
        "dimension_identity",
    } <= names
    assert all(entry["pass"] in (True, None) for entry in oracle["checks"])


def test_parse_error_is_structured_and_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    result = run_cli("--spec", str(bad))
    assert result.returncode == 2
    assert result.stdout == b""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ParseError"
    assert error["exit_code"] == 2
    assert "line" in error["message"]


def test_invalid_spec_exits_2(tmp_path):
    doc = dict(SPEC_G3R2, genus=1)
    result = run_cli("--spec", write_json(tmp_path / "g1.json", doc))
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"]["type"] == "GenusTooSmall"


@pytest.mark.parametrize("value", [True, 1.0])
def test_num_points_must_be_an_integer_exits_2(tmp_path, value):
    doc = dict(SPEC_G3R2, num_points=value)
    result = run_cli("--spec", write_json(tmp_path / "points.json", doc))
    assert result.returncode == 2
    assert result.stdout == b""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == "num_points must be an integer, got %r" % (value,)


def test_unknown_emit_exits_2(spec_g2r3):
    result = run_cli("--spec", spec_g2r3, "--emit", "census,nonsense")
    assert result.returncode == 2
    assert json.loads(result.stderr)["error"]["type"] == "ParseError"


def test_capability_missing_exits_3(tmp_path):
    doc = dict(SPEC_G2R3, degree=3)  # gcd(rank, degree) = 3
    result = run_cli(
        "--spec", write_json(tmp_path / "bad_degree.json", doc), "--emit", "shifts"
    )
    assert result.returncode == 3
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "CapabilityMissing"
    assert "coprime" in error["message"]


def test_capability_missing_comes_before_table_missing(tmp_path):
    # gcd(6, 2) = 2, and the order-2 sector would need a rank-3 table that
    # no provider holds: the shift hypotheses are checked before the lookup
    six = {
        "genus": 2,
        "rank": 6,
        "degree": 2,
        "weights": [[f"{i}/7" for i in range(1, 7)]],
    }
    result = run_cli(
        "--spec", write_json(tmp_path / "g2r6d2.json", six), "--emit", "cr_table"
    )
    assert result.returncode == 3
    assert result.stdout == b""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "CapabilityMissing"
    assert "coprime" in error["message"]


def test_table_missing_exits_4(tmp_path):
    six = {
        "genus": 2,
        "rank": 6,
        "degree": 1,
        "weights": [[f"{i}/7" for i in range(1, 7)]],
    }
    result = run_cli(
        "--spec", write_json(tmp_path / "g2r6.json", six), "--emit", "cr_table"
    )
    assert result.returncode == 4
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "TableMissing"
    assert "genus=3" in error["message"] or "genus=4" in error["message"]


@pytest.mark.parametrize("emit", ["euler", "cr_table"])
def test_several_chambers_for_the_spec_exit_4(tmp_path, spec_g2r3, emit):
    # two chambers for the spec's own (genus, rank, points) are not a
    # missing table: the CLI cannot choose, so it stops as a lookup does
    tables = [
        {"genus": 2, "rank": 3, "points": 1, "chamber": chamber,
         "coefficients": [1, 0, 2, 0, 1]}
        for chamber in ("c0", "c1")
    ]
    provider = write_json(tmp_path / "tables.json", tables)
    result = run_cli("--spec", spec_g2r3, "--provider", provider, "--emit", emit)
    assert result.returncode == 4
    assert result.stdout == b""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "TableMissing"
    assert error["message"] == (
        "several chambers on file for (genus=2, rank=3, points=1); "
        "pass an explicit chamber"
    )


def test_guardrail_exits_5_for_oracle_census(tmp_path):
    big = {
        "genus": 5,  # 6^10 elements is past the census guardrail
        "rank": 6,
        "degree": 1,
        "weights": [[f"{i}/7" for i in range(1, 7)]],
    }
    result = run_cli(
        "--spec", write_json(tmp_path / "g5r6.json", big),
        "--emit", "census", "--oracle",
    )
    assert result.returncode == 5
    assert json.loads(result.stderr)["error"]["type"] == "GuardrailExceeded"


def test_guardrail_exits_5_for_huge_shift_enumeration(tmp_path):
    wide = {
        "genus": 3,
        "rank": 7,
        "degree": 1,
        "weights": [[f"{i}/8" for i in range(1, 8)]] * 3,
    }
    result = run_cli(
        "--spec", write_json(tmp_path / "wide.json", wide), "--emit", "shifts"
    )
    assert result.returncode == 5
    assert json.loads(result.stderr)["error"]["type"] == "GuardrailExceeded"


def test_cr_table_guardrail_counts_point_partitions(tmp_path):
    # cr_table walks each point's partitions on its own, so a rank-7,
    # two-point spec (25,401,600 partitions in product) is affordable
    seven = {
        "genus": 2,
        "rank": 7,
        "degree": 1,
        "weights": [[f"{i}/8" for i in range(1, 8)], [f"{i}/9" for i in range(1, 8)]],
    }
    path = write_json(tmp_path / "g2r7s2.json", seven)
    result = run_cli("--spec", path, "--emit", "cr_table")
    assert result.returncode == 0
    section = json.loads(result.stdout)["outputs"]["cr_table"]
    assert section["untwisted"] == "external-input-missing"
    assert section["rows"] == chen_ruan_table(load_spec(path)).to_rows()


def test_cr_table_guardrail_exits_5_at_rank_ten(tmp_path):
    ten = {
        "genus": 2,
        "rank": 10,
        "degree": 1,
        "weights": [[f"{i}/11" for i in range(1, 11)]],
    }
    result = run_cli(
        "--spec", write_json(tmp_path / "g2r10.json", ten), "--emit", "cr_table"
    )
    assert result.returncode == 5
    assert result.stdout == b""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "GuardrailExceeded"
    assert "3628800 point partitions at m = 10" in error["message"]


def test_default_emit_set(spec_g3r2):
    report = json.loads(run_cli("--spec", spec_g3r2).stdout)
    assert sorted(report["outputs"]) == [
        "census", "components", "euler", "product_rules",
    ]


def test_shifts_section_lists_orbit_representatives(spec_g3r2):
    report = json.loads(
        run_cli("--spec", spec_g3r2, "--emit", "shifts").stdout
    )
    rows = report["outputs"]["shifts"]["rows"]
    assert len(rows) == 1  # two partitions in one free orbit
    assert rows[0]["shift"] == "5/2"
    assert rows[0]["multiplicities"] == [5]


GOLDEN_SPECS = {
    "g2r6": {
        "genus": 2,
        "rank": 6,
        "degree": 5,
        "weights": [["1/13", "1/7", "2/7", "3/7", "5/8", "9/10"]],
    },
    "g2r3s2": {
        "genus": 2,
        "rank": 3,
        "degree": 2,
        "weights": [["0", "1/5", "7/11"], ["1/9", "1/2", "4/5"]],
    },
}
GOLDEN_TABLES = [
    {"genus": 2, "rank": 6, "points": 1, "chamber": "c0", "coefficients": [1, 0, 3, 1, 3, 0, 1]},
    {"genus": 3, "rank": 3, "points": 2, "chamber": "c0", "coefficients": [1, 2, 4, 2, 1]},
    {"genus": 4, "rank": 2, "points": 3, "chamber": "c0", "coefficients": [1, 1, 5, 1, 1]},
    {"genus": 2, "rank": 3, "points": 2, "chamber": "c0", "coefficients": [1, 0, 2, 0, 1]},
]
# sha256 of stdout, recorded from the enumerating cr_table path (every orbit
# representative walked by twisted_sector) before the table was built from
# shift histograms, and before weights were formatted once per point
GOLDEN_SHA256 = {
    "g2r6": "7882fa93cdc960719eeb25bcebd4c7129956ad0ab45cc543107884638aaf339f",
    "g2r3s2": "58835b157bc242249dd14bc3463f42c9a0b54a0f91580aee51f4c54ff60d3000",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_full_report_matches_golden_digest(tmp_path, name):
    provider = write_json(tmp_path / "tables.json", GOLDEN_TABLES)
    spec = write_json(tmp_path / (name + ".json"), GOLDEN_SPECS[name])
    result = run_cli(
        "--spec", spec, "--provider", provider,
        "--emit", "census,components,shifts,cr_table,euler,product_rules",
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert len(report["outputs"]) == 6
    assert report["outputs"]["cr_table"]["untwisted"] == "included"
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN_SHA256[name]


# sha256 of --format table stdout, recorded while shift rows still held
# fresh lists from WeightPartition.to_mapping
GOLDEN_TABLE_SHA256 = {
    "g2r6": "e24d0b6d84a8aa82746640c2dfc00230961a1aae0e054e83e5a8d187b2b31b43",
    "g2r3s2": "96db41ace53630456a10abf1b528fbe1a4e0fad4084f98f875f03a0856183946",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_table_report_matches_golden_digest(tmp_path, name):
    spec = write_json(tmp_path / (name + ".json"), GOLDEN_SPECS[name])
    result = run_cli("--spec", spec, "--format", "table", "--emit", "shifts,census")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == GOLDEN_TABLE_SHA256[name]


ORACLE_SPECS = {
    "g2r6": GOLDEN_SPECS["g2r6"],
    # rank 4 is not squarefree, so the dimension identity is skipped
    "g3r4": {
        "genus": 3,
        "rank": 4,
        "degree": 1,
        "weights": [["1/9", "2/9", "1/3", "5/9"]],
    },
}
# sha256 of stdout, recorded while the census still found each element's
# order by trial and each order streamed its partitions once per check
ORACLE_SHA256 = {
    "g2r6": "677676b361cb362fe32f4f74082ae811447fdaf532a208838ffb2c1858155c6b",
    "g3r4": "942c60e03b969f94af8cd8add6eb4ada0738ac36ca408dd4b4eb58ebcd3b2739",
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_oracle_report_matches_golden_digest(tmp_path, name):
    spec = write_json(tmp_path / (name + ".json"), ORACLE_SPECS[name])
    result = run_cli("--spec", spec, "--emit", "census", "--oracle")
    assert result.returncode == 0
    assert json.loads(result.stdout)["oracle"]["all_pass"] is True
    assert hashlib.sha256(result.stdout).hexdigest() == ORACLE_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_SPECS))
def test_shift_rows_equal_the_library_values(tmp_path, name):
    # uneven weights at (2,3,2) and (2,6,1); every order m != 1 of the rank
    path = write_json(tmp_path / (name + ".json"), GOLDEN_SPECS[name])
    result = run_cli("--spec", path, "--emit", "shifts")
    assert result.returncode == 0
    rows = json.loads(result.stdout)["outputs"]["shifts"]["rows"]
    spec = load_spec(path)
    expected = []
    for m in divisors(spec.rank)[1:]:
        eta = canonical_element_of_order(spec.rank, spec.genus, m)
        for rep in compute_orbit_section(spec, m).representatives:
            table = eigenvalue_multiplicities(spec, eta, rep)
            expected.append(
                {
                    "order": m,
                    "eta": eta.to_mapping(),
                    "orbit_representative": rep.to_mapping(),
                    "shift": format_rational(degree_shift(spec, eta, rep).value),
                    "multiplicities": [table.multiplicities[i] for i in range(1, m)],
                }
            )
    assert rows == expected
    assert sorted({row["order"] for row in rows}) == divisors(spec.rank)[1:]


ORACLE_SKIP_SPECS = {
    "degree_not_coprime": dict(SPEC_G2R3, degree=3),
    "rank_four": ORACLE_SPECS["g3r4"],
    "higgs": dict(SPEC_G2R3, higgs=True),
    "hypotheses_hold": SPEC_G2R3,
}


@pytest.mark.parametrize("name", sorted(ORACLE_SKIP_SPECS))
def test_oracle_skips_dimension_identity_exactly_without_shift_hypotheses(
    tmp_path, name
):
    doc = ORACLE_SKIP_SPECS[name]
    path = write_json(tmp_path / (name + ".json"), doc)
    result = run_cli("--spec", path, "--emit", "census", "--oracle")
    assert result.returncode == 0
    checks = json.loads(result.stdout)["oracle"]["checks"]
    identities = [c for c in checks if c["check"] == "dimension_identity"]
    assert [c["order"] for c in identities] == divisors(doc["rank"])[1:]
    if name == "hypotheses_hold":
        assert all(c["pass"] is True and c["checked"] > 0 for c in identities)
    else:
        assert all(c["pass"] is None and "skipped" in c for c in identities)


def test_betti_file_with_floats_exits_2(tmp_path, spec_g2r3):
    entry = {
        "genus": 2, "rank": 3, "points": 1, "chamber": "c0",
        "coefficients": [1, 0.5, 2, 0.5, 1], "colour": "red",
    }
    provider = write_json(tmp_path / "tables.json", [entry])
    result = run_cli(
        "--spec", spec_g2r3, "--provider", provider, "--emit", "cr_table,euler"
    )
    assert result.returncode == 2
    assert result.stdout == b""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "ParseError"
    assert error["message"].startswith("bad Betti table entry: ")


def _order(mapping):
    return element_order(TorsionElement.from_mapping(mapping))


SPEC_G2R6 = dict(SPEC_G2R3, rank=6, weights=[[f"{i}/7" for i in range(1, 7)]])


@pytest.mark.parametrize(
    "doc", [SPEC_G3R2, SPEC_G2R3, SPEC_G2R6], ids=["r2", "r3", "r6"]
)
def test_rows_visit_the_nontrivial_orders_ascending(tmp_path, doc):
    path = write_json(tmp_path / "spec.json", doc)
    config = RunConfig(path, outputs=("components", "shifts", "product_rules"))
    outputs = run(config)[0]["outputs"]
    orders = divisors(doc["rank"])[1:]
    assert [row["order"] for row in outputs["components"]["rows"]] == orders
    shift_orders = [row["order"] for row in outputs["shifts"]["rows"]]
    assert shift_orders == sorted(shift_orders)
    assert list(dict.fromkeys(shift_orders)) == orders
    rules = outputs["product_rules"]["rows"]
    assert [
        _order(row["eta"]) for row in rules if row["rule"] == "pairing_with_inverse"
    ] == orders
    assert [_order(row["tau"]) for row in rules if row["rule"] == "order_pair"] == [
        m2 for _ in orders for m2 in orders for _axis in range(2)
    ]


# --- render_json against json.dumps --------------------------------------------

TEXT = 'aZ09 "\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\u2028\U0001f600'


def reference_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def random_text(rng):
    return "".join(rng.choice(TEXT) for _ in range(rng.randrange(5)))


def random_doc(rng, shared, depth=0):
    """A nested document; containers may be empty at any depth, and a
    tuple from shared may turn up anywhere, at any depth."""
    kind = rng.randrange(11 if depth < 5 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return rng.random() < 0.5
    if kind == 2:
        return rng.choice([0, -1, 7, -(2**70), rng.randrange(-1000, 1000)])
    if kind in (3, 4):
        return random_text(rng)
    if kind == 5:  # ints with bools mixed in
        return [rng.choice([0, 1, True, False, -3]) for _ in range(rng.randrange(4))]
    if kind == 6:  # all strings
        return [random_text(rng) for _ in range(rng.randrange(4))]
    if kind == 7:
        return rng.choice(shared)
    items = [random_doc(rng, shared, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 8:
        return items
    if kind == 9:
        return tuple(items)
    return {random_text(rng): item for item in items}


def test_render_json_matches_json_dumps_on_random_documents():
    rng = random.Random(20221018)
    shared = [(), ("x", 1), ((1, 2), ("a", "\xe9")), ([], {}, (None, True))]
    for _ in range(400):
        doc = random_doc(rng, shared)
        for whole in (doc, [doc, [doc]]):  # each tuple in doc at two depths
            assert render_json(whole) == reference_json(whole)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        (),
        {"a": [[], {}, ()], "b": ({"c": []},), "": {"d": {"e": ()}}},
        {"flags": [True, 1, False, 0], "none": None, "ints": [1, -2, 2**80]},
        ["\u00e9\u4e2d\U0001f600", "\"\\\n\t\x00\x7f"],
    ],
)
def test_render_json_matches_json_dumps_on_edge_cases(doc):
    assert render_json(doc) == reference_json(doc)


def test_render_json_keeps_the_indent_of_a_shared_tuple():
    # one tuple object at depths 1, 3 and 4: a memo keyed by the object
    # alone would print it with the first depth's indentation everywhere
    shared = (("1/2", "1/3"), [4, 5], {"k": None})
    doc = {"a": shared, "b": [[shared]], "c": {"d": [shared, shared]}}
    assert render_json(doc) == reference_json(doc)


@pytest.mark.parametrize(
    "doc", [{"x": 0.5}, {"x": [1, 2.0]}, {"x": Fraction(1, 2)}, {1: "x"}]
)
def test_render_json_refuses_what_the_report_never_holds(doc):
    with pytest.raises(TypeError):
        render_json(doc)
