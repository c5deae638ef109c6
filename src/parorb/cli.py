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
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

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
    ModeMismatch,
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
from .shifts import _require_shift_hypotheses, _table_and_shift
from .torsion import TorsionElement, _nontrivial_orders, count_elements_of_order

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
    for m, eta in _nontrivial_orders(spec.rank, spec.genus):
        report = fixed_locus_components(spec, eta)
        rows.append(
            {"order": m, "eta": eta.to_mapping(), **report.to_mapping()}
        )
    return {"op": "fixed_locus_components", "rows": rows}


def _shifts_section(spec: ModuliSpec) -> dict:
    enforce_partition_guardrail(spec)
    rows = []
    for m, eta in _nontrivial_orders(spec.rank, spec.genus):
        # table and shift depend on eta only through m: check once per order
        _require_shift_hypotheses(spec, eta)
        for rep in compute_orbit_section(spec, m).representatives:
            table, shift = _table_and_shift(spec, m, rep)
            rows.append(
                {
                    "order": m,
                    "eta": eta.to_mapping(),
                    # shared per-point tuples: each is rendered once
                    "orbit_representative": [
                        point.formatted_blocks() for point in rep.per_point
                    ],
                    "shift": format_rational(shift),
                    "multiplicities": [
                        table.multiplicities[i] for i in range(1, m)
                    ],
                }
            )
    return {"op": "degree_shift", "rows": rows}


def _untwisted(spec: ModuliSpec, provider: BettiProvider) -> tuple:
    """(the spec's own Betti series or None, the "untwisted" flag to report).

    Only a triple with no table on file is reported missing; several
    chambers for it are the lookup's TableMissing (exit 4), since the CLI
    has no way to pick one.
    """
    triple = (spec.genus, spec.rank, spec.num_points)
    if not provider._chambers(*triple):
        return None, "external-input-missing"
    return provider.lookup(*triple), "included"


def _cr_table_section(spec: ModuliSpec, provider: BettiProvider) -> dict:
    enforce_histogram_guardrail(spec)
    untwisted, flag = _untwisted(spec, provider)
    table = chen_ruan_table(spec, provider, untwisted)
    return {
        "op": "chen_ruan_table",
        "untwisted": flag,
        "rows": table.to_rows(),
    }


def _euler_section(spec: ModuliSpec, provider: BettiProvider) -> dict:
    certificate = [row.to_mapping() for row in euler_vanishing_certificate(spec)]
    untwisted, flag = _untwisted(spec, provider)
    return {
        "op": "orbifold_euler",
        "value": None if untwisted is None else untwisted.euler_characteristic(),
        "untwisted": flag,
        "certificate": certificate,
    }


def _product_rules_section(spec: ModuliSpec) -> dict:
    r, g = spec.rank, spec.genus
    grade = moduli_dimension(spec)
    rows = []
    nontrivial = _nontrivial_orders(r, g)
    for _, eta in nontrivial:
        rows.append(
            {
                "rule": "pairing_with_inverse",
                "eta": eta.to_mapping(),
                "tau": eta.inverse().to_mapping(),
                "pairing": pairing_support(grade, eta, eta.inverse(), spec).value,
            }
        )
        for m2, _ in nontrivial:
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

    formula = _census_section(spec)["by_order"]
    brute = brute_force_order_census(r, g)
    checks.append(
        {
            "check": "census_bruteforce",
            "pass": {row["order"]: row["count"] for row in formula} == brute,
            "formula": formula,
            "bruteforce": [{"order": m, "count": c} for m, c in sorted(brute.items())],
        }
    )

    for m, eta in _nontrivial_orders(r, g):
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
        try:
            _require_shift_hypotheses(spec, eta)
        except (CapabilityMissing, ModeMismatch):
            eta = None
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


# each section name and the function that makes it, in --emit's order
_SECTIONS = {
    "census": lambda spec, provider: _census_section(spec),
    "components": lambda spec, provider: _components_section(spec),
    "shifts": lambda spec, provider: _shifts_section(spec),
    "cr_table": _cr_table_section,
    "euler": _euler_section,
    "product_rules": lambda spec, provider: _product_rules_section(spec),
}
ALL_OUTPUTS = tuple(_SECTIONS)


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
        report["outputs"][name] = _SECTIONS[name](spec, provider)

    status = 0
    if config.oracle_mode:
        oracle = _oracle_section(spec)
        report["oracle"] = oracle
        if not oracle["all_pass"]:
            status = 1
    return report, status


# === rendering ==============================================================

def render_json(report: dict) -> str:
    """The bytes of `json.dumps(report, sort_keys=True, indent=2)` plus a
    newline, without the pure-Python encoder that `indent` selects.

    Takes dicts with str keys, lists, tuples, str, int, bool and None; any
    other value (float and Fraction included) raises TypeError.

    >>> print(render_json({"flags": [True, 1], "none": [], "empty": {}}), end="")
    {
      "empty": {},
      "flags": [
        true,
        1
      ],
      "none": []
    }
    """
    return _render(report, "\n", {}) + "\n"


def _render(value, newline: str, memo: dict) -> str:
    """One value whose opening line ends in `newline` (its indentation).

    A tuple is taken to be an immutable fragment: it is rendered once per
    (object, indentation) and memo keeps the text for the rest of the call.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        for key in value:
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
        return "{%s%s%s}" % (
            inner,
            ("," + inner).join(
                encode_basestring_ascii(key) + ": " + _render(value[key], inner, memo)
                for key in sorted(value)
            ),
            newline,
        )
    if isinstance(value, tuple):
        key = (id(value), len(newline))
        text = memo.get(key)
        if text is None:
            text = memo[key] = _render_items(value, newline, inner, memo)
        return text
    if isinstance(value, list):
        return _render_items(value, newline, inner, memo)
    raise TypeError(
        "cannot render %s: only dict, list, tuple, str, int, bool and None"
        % type(value).__name__
    )


def _render_items(items, newline: str, inner: str, memo: dict) -> str:
    if not items:
        return "[]"
    kinds = set(map(type, items))
    if kinds == {str}:
        texts = map(encode_basestring_ascii, items)
    elif kinds == {int}:
        texts = map(int.__repr__, items)
    else:
        texts = (_render(item, inner, memo) for item in items)
    return "[%s%s%s]" % (inner, ("," + inner).join(texts), newline)


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
