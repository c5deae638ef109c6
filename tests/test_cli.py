"""End-to-end command line checks: determinism, exit codes, formats."""

import hashlib
import json
import math
import random
import subprocess
import sys
import time
from enum import IntEnum
from fractions import Fraction

import pytest

from parorb import cli
from parorb.arith import divisors, format_rational
from parorb.chenruan import chen_ruan_table
from parorb.cli import RunConfig, render_json, run
from parorb.errors import ParseError
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
        "shift_tally",
    } <= names
    assert all(entry["pass"] in (True, None) for entry in oracle["checks"])
    # perfbench's oracle check reads every other entry's order
    assert all(
        type(entry["order"]) is int
        for entry in oracle["checks"]
        if entry["check"] != "census_bruteforce"
    )


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


def test_repeated_emit_exits_2(spec_g2r3, capsys):
    status = cli.main(
        ["--spec", spec_g2r3, "--emit", "components,census,components,census"]
    )
    assert status == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == "repeated output(s) components, census"
    with pytest.raises(ParseError) as refused:
        RunConfig(spec_path=spec_g2r3, outputs=("shifts", "euler", "shifts"))
    assert str(refused.value) == "repeated output(s) shifts"


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


@pytest.mark.parametrize("emit", ["shifts", "cr_table"])
def test_higgs_mode_exits_3(tmp_path, capsys, emit):
    spec = write_json(tmp_path / "higgs.json", dict(SPEC_G2R3, higgs=True))
    assert cli.main(["--spec", spec, "--emit", emit]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ModeMismatch"
    assert error["message"] == "multiplicity formulas hold in the non-Higgs mode only"


@pytest.mark.parametrize("flag", ["--spec", "--provider"])
def test_repeated_json_key_exits_2_naming_file_and_key(
    tmp_path, capsys, spec_g2r3, flag
):
    if flag == "--spec":
        # json.load alone would run this as rank 5
        text = (
            '{"genus": 2, "rank": 3, "degree": 1, "rank": 5, '
            '"weights": [["1/6", "1/3", "1/2", "2/3", "5/6"]]}'
        )
        what, key = "spec", "rank"
    else:
        text = (
            '[{"genus": 2, "rank": 3, "points": 1, "chamber": "a", '
            '"chamber": "b", "coefficients": [1, 0, 1]}]'
        )
        what, key = "Betti table", "chamber"
    bad = tmp_path / "repeated.json"
    bad.write_text(text, encoding="utf-8")
    # a second --spec replaces the first
    argv = ["--spec", spec_g2r3, flag, str(bad), "--emit", "cr_table"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == "cannot decode %s file %s: repeated key %r" % (
        what, bad, key
    )


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


def test_cr_table_runs_a_two_point_rank_seven_spec(tmp_path):
    # cr_table reads each order's shift polynomial off a fill-vector DP and
    # builds no partition, so a rank-7, two-point spec (25,401,600
    # partitions in product) is affordable
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


def test_cr_table_runs_at_rank_eleven(tmp_path):
    # 2^11 fill vectors; the partition count 11! once exceeded a guard, and
    # a prime rank needs no Betti table for any twisted sector
    path = genus_spec(tmp_path, 2, 11)
    result = run_cli("--spec", path, "--emit", "cr_table")
    assert result.returncode == 0
    section = json.loads(result.stdout)["outputs"]["cr_table"]
    assert section["rows"] == chen_ruan_table(load_spec(path)).to_rows()


def test_cr_table_guardrail_exits_5_at_rank_fifteen(tmp_path):
    result = run_cli(
        "--spec", genus_spec(tmp_path, 2, 15), "--emit", "cr_table"
    )
    assert result.returncode == 5
    assert result.stdout == b""
    error = json.loads(result.stderr)["error"]
    assert error["type"] == "GuardrailExceeded"
    assert error["message"] == STATE_REFUSAL


CENSUS_REFUSAL = "r^(2g) = 60466176 exceeds the census guardrail 10000000"
PRODUCT_REFUSAL = "|P(alpha)| = 3628800 at m = 10 exceeds the partition guardrail 1000000"
STATE_REFUSAL = "32768 block fill vectors at m = 15 exceed the state guardrail 16384"


def g5r6s2(tmp_path, degree=1):
    # 518,400 partitions at m = 6 pass the shifts guard; 6^10 fails the census
    doc = {
        "genus": 5,
        "rank": 6,
        "degree": degree,
        "weights": [[f"{i}/7" for i in range(1, 7)], [f"{i}/8" for i in range(1, 7)]],
    }
    return write_json(tmp_path / "g5r6s2.json", doc)


def refusal(capsys, argv):
    status = cli.main(argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "GuardrailExceeded"
    return status, error["message"]


def test_failing_guard_runs_no_section(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("a section ran before the guards were checked")

    for name in (
        "_census_section", "_components_section", "_shifts_section",
        "_product_rules_section", "_oracle_section",
    ):
        monkeypatch.setattr(cli, name, forbidden)
    argv = ["--spec", g5r6s2(tmp_path), "--emit", "shifts", "--oracle"]
    assert refusal(capsys, argv) == (5, CENSUS_REFUSAL)


def test_guardrail_wins_over_a_missing_capability(tmp_path, capsys):
    # gcd(6, 2) = 2 would make shifts exit 3; the census guard is checked first
    argv = ["--spec", g5r6s2(tmp_path, degree=2), "--emit", "shifts", "--oracle"]
    assert refusal(capsys, argv) == (5, CENSUS_REFUSAL)


@pytest.mark.parametrize(
    "genus, emit, message",
    [
        # at rank 15, where the shift-polynomial states fail too
        (2, ["--emit", "cr_table,shifts"], STATE_REFUSAL),
        (2, ["--emit", "shifts,cr_table"], PRODUCT_REFUSAL),
        (2, ["--emit", "euler", "--oracle"], PRODUCT_REFUSAL),
        # 10^8 elements: oracle mode checks the census before the partitions
        (4, ["--emit", "euler", "--oracle"],
         "r^(2g) = 100000000 exceeds the census guardrail 10000000"),
        (4, ["--emit", "shifts", "--oracle"], PRODUCT_REFUSAL),
    ],
)
def test_guards_are_checked_in_emit_order_then_oracle(
    tmp_path, capsys, genus, emit, message
):
    # rank 10 passes cr_table's guard, so it could not tell the order apart
    rank = 15 if message == STATE_REFUSAL else 10
    argv = ["--spec", genus_spec(tmp_path, genus, rank), *emit]
    assert refusal(capsys, argv) == (5, message)


def genus_spec(tmp_path, genus, rank):
    doc = {
        "genus": genus,
        "rank": rank,
        "degree": 1,
        "weights": [[f"{i}/{rank + 1}" for i in range(1, rank + 1)]],
    }
    return write_json(tmp_path / "genus.json", doc)


@pytest.mark.parametrize("emit", ["census", "euler"])
def test_genus_guardrail_refuses_genus_3000_at_once(tmp_path, capsys, emit):
    # r^(2g) alone would have 4,669 digits, and the Prym series 14,995 terms
    started = time.perf_counter()
    argv = ["--spec", genus_spec(tmp_path, 3000, 6), "--emit", emit]
    assert refusal(capsys, argv) == (
        5, "Prym dimension (r-1)(g-1) = 14995 exceeds the genus guardrail 1000"
    )
    assert time.perf_counter() - started < 1.0


def test_genus_guardrail_is_checked_before_the_section_guards(tmp_path, capsys):
    # |P(alpha)| = 10! at m = 10 and 10^402 elements fail too
    argv = ["--spec", genus_spec(tmp_path, 201, 10), "--emit", "shifts", "--oracle"]
    assert refusal(capsys, argv) == (
        5, "Prym dimension (r-1)(g-1) = 1800 exceeds the genus guardrail 1000"
    )


@pytest.mark.parametrize("genus, status", [(1001, 0), (1002, 5)])
def test_genus_guardrail_admits_a_prym_dimension_of_1000(
    tmp_path, capsys, genus, status
):
    argv = ["--spec", genus_spec(tmp_path, genus, 2), "--emit", "census,euler"]
    assert cli.main(argv) == status
    captured = capsys.readouterr()
    if status == 0:
        census = json.loads(captured.out)["outputs"]["census"]
        assert census["group_size"] == 2 ** (2 * genus)
    else:
        assert captured.out == ""


@pytest.fixture()
def digit_limit():
    """The int-to-str digit limit pinned at CPython's default, 4,300."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def rank_1001_spec(tmp_path, points):
    # (r-1)(g-1) = 1000: the genus rule admits it
    doc = {
        "genus": 2,
        "rank": 1001,
        "degree": 1,
        "weights": [[f"{i}/1001" for i in range(1001)]] * points,
    }
    return write_json(tmp_path / "r1001.json", doc)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_components_refuses_a_count_past_the_digit_limit(
    tmp_path, capsys, digit_limit, fmt
):
    # count_partitions(1001, 1001, 2) has 5,142 digits
    argv = ["--spec", rank_1001_spec(tmp_path, 2), "--format", fmt]
    assert refusal(capsys, argv) == (
        5,
        "count_partitions(r, r, s) at r = 1001, s = 2 has more than 4300 "
        "digits, the int-to-str limit",
    )


def test_components_prints_a_count_within_the_digit_limit(
    tmp_path, capsys, digit_limit
):
    # 1001! has 2,571 digits
    assert cli.main(["--spec", rank_1001_spec(tmp_path, 1)]) == 0
    rows = json.loads(capsys.readouterr().out)["outputs"]["components"]["rows"]
    assert rows[-1]["order"] == 1001
    assert rows[-1]["partition_count"] == math.factorial(1001)


def test_euler_refuses_a_sum_past_the_digit_limit(
    tmp_path, capsys, spec_g2r3, digit_limit
):
    # each 4,300-digit coefficient reads, but their alternating sum has 4,301
    nines = int("9" * 4300)
    tables = [{"genus": 2, "rank": 3, "points": 1, "chamber": "c0",
               "coefficients": [nines, 0, nines, 0, nines]}]
    provider = write_json(tmp_path / "tables.json", tables)
    argv = ["--spec", spec_g2r3, "--provider", provider, "--emit", "euler"]
    assert refusal(capsys, argv) == (
        5, "the sum of the untwisted coefficients has more than 4300 digits, "
        "the int-to-str limit"
    )


CR_TABLE_DIGITS = (
    "the sum of the cr_table dimensions has more than 4300 digits, "
    "the int-to-str limit"
)


def test_cr_table_refuses_a_small_rank_table_past_the_digit_limit(
    tmp_path, capsys, digit_limit
):
    # the order-2 sector multiplies a 4,299-digit coefficient by its class
    # and element counts
    spec = {"genus": 2, "rank": 6, "degree": 1,
            "weights": [[f"{i}/7" for i in range(1, 7)]]}
    tables = [
        {"genus": 3, "rank": 3, "points": 2, "chamber": "c0",
         "coefficients": [int("9" * 4299), 0, int("9" * 4299)]},
        {"genus": 4, "rank": 2, "points": 3, "chamber": "c0",
         "coefficients": [1, 1]},
    ]
    argv = [
        "--spec", write_json(tmp_path / "g2r6.json", spec),
        "--provider", write_json(tmp_path / "tables.json", tables),
        "--emit", "cr_table",
    ]
    assert refusal(capsys, argv) == (5, CR_TABLE_DIGITS)


def test_cr_table_refuses_5600_points_at_once(tmp_path, capsys, digit_limit):
    # 80 elements of order 3 times 6^5600/3 classes pass 4,300 digits; the
    # sector would take tens of seconds to build before failing to print
    started = time.perf_counter()
    spec = {"genus": 2, "rank": 3, "degree": 1,
            "weights": [["1/4", "1/2", "3/4"]] * 5600}
    argv = ["--spec", write_json(tmp_path / "g2r3.json", spec), "--emit", "cr_table"]
    assert refusal(capsys, argv) == (5, CR_TABLE_DIGITS)
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize(
    "rank, points, products",
    [(3, 2000, 168014000), (7, 200, 640105400), (3, 4000, 672028000)],
)
def test_cr_table_refuses_a_long_convolution_at_once(
    tmp_path, capsys, rank, points, products
):
    # these once ran for seconds and printed megabytes of rows; the state
    # and digit rules both admit them
    started = time.perf_counter()
    doc = {"genus": 2, "rank": rank, "degree": 1,
           "weights": [[f"{i}/{rank + 1}" for i in range(1, rank + 1)]] * points}
    argv = ["--spec", write_json(tmp_path / "many.json", doc), "--emit", "cr_table"]
    assert refusal(capsys, argv) == (
        5, "%d products convolving the shift polynomials of %d points exceed "
        "the convolution guardrail 10000000" % (products, points)
    )
    assert time.perf_counter() - started < 1.0


@pytest.mark.parametrize("emit", ["euler", "components", "cr_table"])
def test_only_cr_table_counts_fill_vectors(tmp_path, capsys, emit):
    argv = ["--spec", genus_spec(tmp_path, 2, 15), "--emit", emit]
    if emit == "cr_table":
        assert refusal(capsys, argv) == (5, STATE_REFUSAL)
    else:
        assert cli.main(argv) == 0
        assert emit in json.loads(capsys.readouterr().out)["outputs"]


@pytest.mark.parametrize("flag", ["--spec", "--provider"])
@pytest.mark.parametrize(
    "content",
    [b'{"genus": ' + b"9" * 4301 + b"}", b'{"genus": "\xff"}'],
    ids=["int-past-the-digit-limit", "not-utf-8"],
)
def test_undecodable_file_exits_2_naming_it(
    tmp_path, capsys, spec_g2r3, digit_limit, flag, content
):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    # a second --spec replaces the first
    argv = ["--spec", spec_g2r3, flag, str(bad), "--emit", "census"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ParseError"
    what = "spec" if flag == "--spec" else "Betti table"
    assert error["message"].startswith("cannot decode %s file %s: " % (what, bad))


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


DEEP_GOLDEN_SPEC = {
    "genus": 2,
    "rank": 7,
    "degree": 3,
    "weights": [["1/11", "1/5", "2/7", "3/8", "1/2", "2/3", "5/6"]],
}
# sha256 of stdout at m = 7, where anchoring keeps 720 of 5040 partitions,
# recorded while point partitions were still enumerated on Fraction weights
# and anchored by filtering after enumeration
DEEP_GOLDEN_SHA256 = "5ca600b11410574dbcf047afbb3036201619802dfabc0c8db90de90fe14fa2f4"


def test_rank_seven_full_report_matches_golden_digest(tmp_path):
    provider = write_json(tmp_path / "tables.json", GOLDEN_TABLES)
    spec = write_json(tmp_path / "g2r7.json", DEEP_GOLDEN_SPEC)
    result = run_cli(
        "--spec", spec, "--provider", provider,
        "--emit", "census,components,shifts,cr_table,euler,product_rules",
    )
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert len(report["outputs"]["shifts"]["rows"]) == 720
    assert report["outputs"]["cr_table"]["untwisted"] == "external-input-missing"
    assert hashlib.sha256(result.stdout).hexdigest() == DEEP_GOLDEN_SHA256


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
# sha256 of stdout, recorded when each order gained its shift_tally entry;
# without those entries the reports are byte for byte the ones recorded
# while the census still found each element's order by trial
ORACLE_SHA256 = {
    "g2r6": "a74e6b979100d732d05fc4290322a60b25fcea2fdcde7641b1704de2be5262a7",
    "g3r4": "ed6f67aba87be1667941450f52e5c9085bf1c6f2e11b9b8f7fb33a51923226bf",
}


@pytest.mark.parametrize("name", sorted(ORACLE_SPECS))
def test_oracle_report_matches_golden_digest(tmp_path, name):
    spec = write_json(tmp_path / (name + ".json"), ORACLE_SPECS[name])
    result = run_cli("--spec", spec, "--emit", "census", "--oracle")
    assert result.returncode == 0
    assert json.loads(result.stdout)["oracle"]["all_pass"] is True
    assert hashlib.sha256(result.stdout).hexdigest() == ORACLE_SHA256[name]


DEEP_ORACLE_SPEC = {
    "genus": 2,
    "rank": 5,
    "degree": 2,
    "weights": [
        ["0", "1/7", "1/3", "3/5", "7/8"],
        ["1/10", "1/4", "2/5", "5/9", "4/5"],
    ],
}
# sha256 of stdout at m = 5 over two points (14,400 partitions), recorded
# with the shift_tally entries; without them, byte for byte the report of
# the days when point partitions were enumerated on Fraction weights
DEEP_ORACLE_SHA256 = "61a394c5fdab58d1ee7d93ee24ba9d89ae160e72a00caf9666ac973bade061b1"


def test_rank_five_two_point_oracle_report_matches_golden_digest(tmp_path):
    spec = write_json(tmp_path / "g2r5s2.json", DEEP_ORACLE_SPEC)
    result = run_cli("--spec", spec, "--emit", "census", "--oracle")
    assert result.returncode == 0
    assert json.loads(result.stdout)["oracle"]["all_pass"] is True
    assert hashlib.sha256(result.stdout).hexdigest() == DEEP_ORACLE_SHA256


TWELVE_POINT_SPEC = {
    "genus": 3,
    "rank": 2,
    "degree": 1,
    "weights": [
        ["%d/%d" % (k, q), "%d/%d" % (k + 1, q)]
        for k, q in zip(range(1, 13), (17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61))
    ],
}
# sha256 of --emit shifts stdout where the row product is deepest, recorded
# while each row was built from a WeightPartition of compute_orbit_section:
# rank 5 over two points (24 x 120 = 2,880 rows at m = 5) and rank 2 over
# twelve points (2^11 = 2,048 rows at m = 2, integral shifts such as "9/1")
DEEP_SHIFTS_SHA256 = {
    "r5s2": "bb1a43c2a3d261249a1c93417d8409e47052a74e1812676886a47a1bfbdd2db8",
    "r2s12": "9642cb319dc72061886bc848f7866675ee037b2f23a40fded5ef95ac7f3a237a",
}
DEEP_SHIFTS_ROWS = {"r5s2": 2880, "r2s12": 2048}
# the same twelve-point rows, with the census, in --format table
TWELVE_POINT_TABLE_SHA256 = (
    "c64ec2099eacf219ad56d3b6c81cfc5dbdf6bcbbd94dec82c0f7d061b2a98daf"
)


@pytest.mark.parametrize("name", sorted(DEEP_SHIFTS_SHA256))
def test_deep_shift_rows_match_golden_digest(tmp_path, name):
    doc = {"r5s2": DEEP_ORACLE_SPEC, "r2s12": TWELVE_POINT_SPEC}[name]
    result = run_cli("--spec", write_json(tmp_path / "spec.json", doc), "--emit", "shifts")
    assert result.returncode == 0
    rows = json.loads(result.stdout)["outputs"]["shifts"]["rows"]
    assert len(rows) == DEEP_SHIFTS_ROWS[name]
    assert hashlib.sha256(result.stdout).hexdigest() == DEEP_SHIFTS_SHA256[name]


def test_twelve_point_table_report_matches_golden_digest(tmp_path):
    spec = write_json(tmp_path / "r2s12.json", TWELVE_POINT_SPEC)
    result = run_cli("--spec", spec, "--format", "table", "--emit", "shifts,census")
    assert result.returncode == 0
    assert hashlib.sha256(result.stdout).hexdigest() == TWELVE_POINT_TABLE_SHA256


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
    tallies = [c for c in checks if c["check"] == "shift_tally"]
    assert [c["order"] for c in identities] == divisors(doc["rank"])[1:]
    assert [c["order"] for c in tallies] == divisors(doc["rank"])[1:]
    if name == "hypotheses_hold":
        assert all(c["pass"] is True and c["checked"] > 0 for c in identities + tallies)
    else:
        assert all(c["pass"] is None and c["skipped"] for c in identities + tallies)


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


def test_betti_entry_with_negative_genus_or_points_exits_2(
    tmp_path, capsys, spec_g2r3
):
    # no lookup could ever match such a table; it is refused as it loads
    entry = {
        "genus": -3, "rank": 3, "points": -1, "chamber": "c0",
        "coefficients": [1, 0, 1],
    }
    provider = write_json(tmp_path / "tables.json", [entry])
    argv = ["--spec", spec_g2r3, "--provider", provider, "--emit", "cr_table"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ParseError"
    assert error["message"] == (
        "bad Betti table entry: genus and points must be non-negative, got -3 and -1"
    )


@pytest.mark.parametrize(
    "weight", ["\u0661/\u0664", "1_0/20", "1e-5000", "1E-100000000", "2.5e-1"]
)
def test_python_only_rational_spellings_exit_2(tmp_path, capsys, weight):
    # Fraction() reads Arabic-Indic digits, digit-group underscores and
    # exponents; a spec file may not: the first two would be echoed back as
    # "1/4" and "1/2", and "1e-5000" has a 5,001-digit denominator that the
    # echo cannot print ("1E-100000000" would take minutes to build)
    doc = dict(SPEC_G3R2, weights=[[weight, "3/4"]])
    assert cli.main(["--spec", write_json(tmp_path / "spec.json", doc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error["type"] == "ParseError"
    reason = (
        "exponents are refused"
        if "e" in weight.lower()
        else "non-ASCII characters and '_' are refused"
    )
    assert error["message"] == "bad rational literal %r: %s" % (weight, reason)


def test_exponent_weight_in_the_census_run_exits_2(tmp_path, capsys):
    # the spec echo of --emit census used to die on the 5,001-digit
    # denominator with a ValueError traceback and exit 1
    doc = {"genus": 2, "rank": 3, "degree": 1, "weights": [["0", "1/3", "1e-5000"]]}
    path = write_json(tmp_path / "spec.json", doc)
    assert cli.main(["--spec", path, "--emit", "census"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["type"] == "ParseError"


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


class Power(IntEnum):
    LOW = 1
    HIGH = 2


class Label(str):
    pass


@pytest.mark.parametrize(
    "doc",
    [
        # one key set at two depths, and in two insertion orders
        {"b": {"b": 1, "a": [2]}, "a": [{"b": None, "a": ()}, {"a": "x", "b": []}]},
        [{"order": 2, "eta": {}}, {"eta": {"z": 1}, "order": 3}, {"order": 4}],
        # int and str subclasses, as values, keys and list items
        {"p": Power.HIGH, "q": [Power.LOW, 3], Label("r"): Label("s")},
        [Label("t"), Label("u"), "v"],
        [{Label("k"): 1}, {"k": Label("w")}],
        # a bool beside an int, in lists and as values of one key set
        [True, 1, False, 0],
        [{"n": 1}, {"n": True}, {"n": False}, {"n": 0}],
        [(True, 1), (1, True)],
    ],
)
def test_render_json_matches_json_dumps_across_cached_shapes(doc):
    assert render_json(doc) == reference_json(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [{"a": 1, "b": 2}, {"a": 1, 2: "b"}],
        [{"1": 0}, {1: 0}],
        {"x": {"y": 1}, "z": [{"y": 2}, {True: 3}]},
    ],
)
def test_render_json_refuses_a_non_str_key_after_a_cached_shape(doc):
    with pytest.raises(TypeError):
        render_json(doc)
