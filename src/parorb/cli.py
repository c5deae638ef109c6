"""Batch front end: one spec in, deterministic reports out.

    parorb --spec moduli.json --emit census,components --format json

Every number in a report names the operation that produced it, reports are
byte-identical across runs on identical inputs (json mode), and large
enumerations are refused outright rather than truncated.  Exit codes:
0 success, 1 internal/oracle failure, 2 parse error, 3 capability missing,
4 table missing, 5 guardrail exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .arith import divisors, format_rational
from .chenruan import (
    BettiProvider,
    chen_ruan_table,
    euler_vanishing_certificate,
    load_betti_tables,
    pairing_support,
    product_support,
)
from .errors import (
    CapabilityMissing,
    GuardrailExceeded,
    ParorbError,
    ParseError,
    SpecError,
    TableMissing,
)
from .fixed_loci import fixed_locus_components, intersection_support
from .model import ModuliSpec, load_spec, moduli_dimension, spec_to_mapping
from .oracles import (
    brute_force_order_census,
    brute_force_partition_census,
    check_partition_identities,
    enforce_histogram_guardrail,
    enforce_oracle_guardrails,
    enforce_partition_guardrail,
)
from .partitions import compute_orbit_section, count_partitions, enumerate_partitions
from .shifts import degree_shift, eigenvalue_multiplicities
from .torsion import (
    TorsionElement,
    canonical_element_of_order,
    count_elements_of_order,
)

ALL_OUTPUTS = ("census", "components", "shifts", "cr_table", "euler", "product_rules")
DEFAULT_OUTPUTS = ("census", "components", "euler", "product_rules")


@dataclass(frozen=True)
class RunConfig:
    spec_path: str
    provider_paths: tuple = ()
    outputs: tuple = DEFAULT_OUTPUTS
    format: str = "json"
    oracle_mode: bool = False

    def __post_init__(self):
        if not self.outputs:
            raise ParseError("at least one output must be requested")
        unknown = [name for name in self.outputs if name not in ALL_OUTPUTS]
        if unknown:
            raise ParseError(
                "unknown output(s) %s; valid: %s"
                % (", ".join(unknown), ", ".join(ALL_OUTPUTS))
            )
        if self.format not in ("json", "table"):
            raise ParseError("format must be json or table")


def _exit_code_for(exc: ParorbError) -> int:
    if isinstance(exc, (ParseError, SpecError)):
        return 2
    if isinstance(exc, CapabilityMissing):
        return 3
    if isinstance(exc, TableMissing):
        return 4
    if isinstance(exc, GuardrailExceeded):
        return 5
    return 1


def _census_section(spec: ModuliSpec) -> dict:
    r, g = spec.rank, spec.genus
    return {
        "op": "count_elements_of_order",
        "modulus": r,
        "group_size": r ** (2 * g),
        "by_order": [
            {"order": m, "count": count_elements_of_order(r, g, m)}
            for m in divisors(r)
        ],
    }


def _components_section(spec: ModuliSpec) -> dict:
    rows = []
    for m in divisors(spec.rank):
        if m == 1:
            continue
        eta = canonical_element_of_order(spec.rank, spec.genus, m)
        report = fixed_locus_components(spec, eta)
        rows.append(
            {"order": m, "eta": eta.to_mapping(), **report.to_mapping()}
        )
    return {"op": "fixed_locus_components", "rows": rows}


def _shifts_section(spec: ModuliSpec) -> dict:
    enforce_partition_guardrail(spec)
    rows = []
    for m in divisors(spec.rank):
        if m == 1:
            continue
        eta = canonical_element_of_order(spec.rank, spec.genus, m)
        section = compute_orbit_section(spec, m)
        for rep in section.representatives:
            table = eigenvalue_multiplicities(spec, eta, rep)
            shift = degree_shift(spec, eta, rep)
            rows.append(
                {
                    "order": m,
                    "eta": eta.to_mapping(),
                    "orbit_representative": rep.to_mapping(),
                    "shift": format_rational(shift.value),
                    "multiplicities": [
                        table.multiplicities[i] for i in range(1, m)
                    ],
                }
            )
    return {"op": "degree_shift", "rows": rows}


def _cr_table_section(spec: ModuliSpec, provider: BettiProvider) -> dict:
    enforce_histogram_guardrail(spec)
    try:
        untwisted = provider.lookup(spec.genus, spec.rank, spec.num_points)
        flag = "included"
    except TableMissing:
        untwisted = None
        flag = "external-input-missing"
    table = chen_ruan_table(spec, provider, untwisted)
    return {
        "op": "chen_ruan_table",
        "untwisted": flag,
        "rows": table.to_rows(),
    }


def _euler_section(spec: ModuliSpec, provider: BettiProvider) -> dict:
    certificate = [row.to_mapping() for row in euler_vanishing_certificate(spec)]
    try:
        untwisted = provider.lookup(spec.genus, spec.rank, spec.num_points)
        value = untwisted.euler_characteristic()
        flag = "included"
    except TableMissing:
        value = None
        flag = "external-input-missing"
    return {
        "op": "orbifold_euler",
        "value": value,
        "untwisted": flag,
        "certificate": certificate,
    }


def _product_rules_section(spec: ModuliSpec) -> dict:
    r, g = spec.rank, spec.genus
    grade = moduli_dimension(spec)
    rows = []
    nontrivial = [m for m in divisors(r) if m != 1]
    for m1 in nontrivial:
        eta = canonical_element_of_order(r, g, m1)
        rows.append(
            {
                "rule": "pairing_with_inverse",
                "eta": eta.to_mapping(),
                "tau": eta.inverse().to_mapping(),
                "pairing": pairing_support(grade, eta, eta.inverse(), spec).value,
            }
        )
        for m2 in nontrivial:
            for axis, offset in (("same_axis", 0), ("other_axis", 1)):
                exponents = [0] * (2 * g)
                exponents[offset] = r // m2
                tau = TorsionElement(r, tuple(exponents))
                rows.append(
                    {
                        "rule": "order_pair",
                        "axes": axis,
                        "eta": eta.to_mapping(),
                        "tau": tau.to_mapping(),
                        "intersection": intersection_support(eta, tau).value,
                        "product": product_support(eta, tau).value,
                        "pairing": pairing_support(grade, eta, tau, spec).value,
                    }
                )
    return {
        "op": "product_support/intersection_support/pairing_support",
        "grade_probed": grade,
        "rows": rows,
    }


def _oracle_section(spec: ModuliSpec) -> dict:
    enforce_oracle_guardrails(spec)
    r, g = spec.rank, spec.genus
    checks = []

    formula = {m: count_elements_of_order(r, g, m) for m in divisors(r)}
    brute = brute_force_order_census(r, g)
    checks.append(
        {
            "check": "census_bruteforce",
            "pass": formula == brute,
            "formula": [{"order": m, "count": c} for m, c in sorted(formula.items())],
            "bruteforce": [{"order": m, "count": c} for m, c in sorted(brute.items())],
        }
    )

    caps = spec.capabilities
    dimension_ok = caps.coprime_rank_degree and caps.squarefree_rank and not spec.higgs
    for m in divisors(r):
        if m == 1:
            continue
        census = brute_force_partition_census(spec, m)
        section = compute_orbit_section(spec, m)
        checks.append(
            {
                "check": "partition_count",
                "order": m,
                "pass": census["count"] == count_partitions(r, m, spec.num_points),
                "bruteforce": census["count"],
            }
        )
        checks.append(
            {
                "check": "orbit_freeness",
                "order": m,
                "pass": census["orbits_all_size_m"]
                and census["orbit_count"] * m == census["count"]
                and census["orbit_count"] == section.orbit_count,
            }
        )
        eta = canonical_element_of_order(r, g, m) if dimension_ok else None
        pairing, identity = check_partition_identities(
            spec, m, eta, enumerate_partitions(spec, m)
        )
        checks.append({"check": "dominance_pairing", "order": m, **pairing})
        if identity is None:
            identity = {
                "pass": None,
                "skipped": "needs coprime rank/degree, squarefree rank, "
                "non-Higgs mode",
            }
        checks.append({"check": "dimension_identity", "order": m, **identity})

    all_pass = all(entry["pass"] is not False for entry in checks)
    return {"op": "oracle_crosschecks", "all_pass": all_pass, "checks": checks}


def run(config: RunConfig) -> tuple[dict, int]:
    """Build the full report; returns (document, exit status)."""
    spec = load_spec(config.spec_path)
    tables = []
    for path in config.provider_paths:
        tables.extend(load_betti_tables(path))
    provider = BettiProvider(tables)

    report: dict = {
        "spec": spec_to_mapping(spec),
        "moduli_dimension": moduli_dimension(spec),
        "outputs": {},
    }
    for name in config.outputs:
        if name == "census":
            report["outputs"]["census"] = _census_section(spec)
        elif name == "components":
            report["outputs"]["components"] = _components_section(spec)
        elif name == "shifts":
            report["outputs"]["shifts"] = _shifts_section(spec)
        elif name == "cr_table":
            report["outputs"]["cr_table"] = _cr_table_section(spec, provider)
        elif name == "euler":
            report["outputs"]["euler"] = _euler_section(spec, provider)
        elif name == "product_rules":
            report["outputs"]["product_rules"] = _product_rules_section(spec)

    status = 0
    if config.oracle_mode:
        oracle = _oracle_section(spec)
        report["oracle"] = oracle
        if not oracle["all_pass"]:
            status = 1
    return report, status


# === rendering ==============================================================

def render_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def _render_value(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    return str(value)


def _render_rows(rows: list, indent: str = "  ") -> list[str]:
    lines = []
    for row in rows:
        parts = []
        for key in sorted(row):
            value = row[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            parts.append("%s=%s" % (key, _render_value(value)))
        lines.append(indent + "  ".join(parts))
    return lines


def render_table(report: dict) -> str:
    lines = []
    spec = report["spec"]
    lines.append(
        "moduli: genus=%d rank=%d degree=%d points=%d higgs=%s"
        % (
            spec["genus"],
            spec["rank"],
            spec["degree"],
            spec["num_points"],
            "yes" if spec["higgs"] else "no",
        )
    )
    lines.append("moduli_dimension: %d" % report["moduli_dimension"])
    for name in sorted(report["outputs"]):
        section = report["outputs"][name]
        lines.append("")
        lines.append("[%s]  op=%s" % (name, section.get("op", "?")))
        for key in sorted(section):
            if key == "op":
                continue
            value = section[key]
            if isinstance(value, list) and value and isinstance(value[0], dict):
                lines.append("  %s:" % key)
                lines.extend(_render_rows(value, indent="    "))
            else:
                lines.append("  %s: %s" % (key, _render_value(value)))
    if "oracle" in report:
        lines.append("")
        lines.append("[oracle]  all_pass=%s" % _render_value(report["oracle"]["all_pass"]))
        lines.extend(_render_rows(report["oracle"]["checks"], indent="  "))
    return "\n".join(lines) + "\n"


# === argument handling ======================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parorb",
        description="Exact orbifold invariants of torsion quotients of "
        "full-flag parabolic moduli.",
    )
    parser.add_argument("--spec", required=True, help="JSON moduli description")
    parser.add_argument(
        "--provider",
        action="append",
        default=[],
        metavar="PATH",
        help="Betti table JSON file (repeatable)",
    )
    parser.add_argument(
        "--emit",
        default=",".join(DEFAULT_OUTPUTS),
        help="comma-separated subset of: %s" % ", ".join(ALL_OUTPUTS),
    )
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="append brute-force cross-checks (guardrailed)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            spec_path=args.spec,
            provider_paths=tuple(args.provider),
            outputs=tuple(
                name.strip() for name in args.emit.split(",") if name.strip()
            ),
            format=args.format,
            oracle_mode=args.oracle,
        )
        report, status = run(config)
    except ParorbError as exc:
        code = _exit_code_for(exc)
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
                "exit_code": code,
            }
        }
        sys.stderr.write(json.dumps(error, sort_keys=True) + "\n")
        return code
    renderer = render_json if config.format == "json" else render_table
    sys.stdout.write(renderer(report))
    return status


if __name__ == "__main__":
    sys.exit(main())
