"""End-to-end command line checks: determinism, exit codes, formats."""

import hashlib
import json
import subprocess
import sys

import pytest

from parorb.chenruan import chen_ruan_table
from parorb.model import load_spec

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
