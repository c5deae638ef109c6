"""Batch front end: one spec in, deterministic reports out.

    parorb --spec moduli.json --emit census,components --format json

Every number in a report names the operation that produced it, reports are
byte-identical across runs on identical inputs (json mode), and large
enumerations are refused before any section runs rather than truncated.
Exit codes: 0 success, 1 internal/oracle failure, 2 parse error, 3 capability
missing or Higgs mode, 4 table missing, 5 guardrail exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from json.encoder import encode_basestring_ascii

from .arith import divisors
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
    _Frozen,
)
from .fixed_loci import fixed_locus_components, intersection_support
from .model import ModuliSpec, load_spec, moduli_dimension, spec_to_mapping
from .oracles import (
    _enforce_census_guardrail,
    _enforce_convolution_limit,
    _enforce_count_digits,
    _enforce_euler_digits,
    _enforce_partition_limit,
    _enforce_prym_limit,
    _enforce_state_limit,
    _enforce_table_digits,
    brute_force_order_census,
    brute_force_partition_census,
    check_partition_identities,
)
from .partitions import count_partitions
from .shifts import _orbit_classes, _require_shift_hypotheses
from .torsion import TorsionElement, _nontrivial_orders, count_elements_of_order

DEFAULT_OUTPUTS = ("census", "components", "euler", "product_rules")


class RunConfig(_Frozen):
    """One run: the spec file, Betti table files, the sections to emit in
    order, the output format, and whether to append the oracle checks."""

    __match_args__ = ("spec_path", "provider_paths", "outputs", "format", "oracle_mode")

    def __init__(
        self,
        spec_path: str,
        provider_paths: tuple = (),
        outputs: tuple = DEFAULT_OUTPUTS,
        format: str = "json",
        oracle_mode: bool = False,
    ):
        if not outputs:
            raise ParseError("at least one output must be requested")
        unknown = [name for name in outputs if name not in ALL_OUTPUTS]
        if unknown:
            raise ParseError(
                "unknown output(s) %s; valid: %s"
                % (", ".join(unknown), ", ".join(ALL_OUTPUTS))
            )
        repeated = [name for name, n in Counter(outputs).items() if n > 1]
        if repeated:
            raise ParseError("repeated output(s) %s" % ", ".join(repeated))
        if format not in ("json", "table"):
            raise ParseError("format must be json or table")
        object.__setattr__(self, "spec_path", spec_path)
        object.__setattr__(self, "provider_paths", provider_paths)
        object.__setattr__(self, "outputs", outputs)
        object.__setattr__(self, "format", format)
        object.__setattr__(self, "oracle_mode", oracle_mode)


def _exit_code_for(exc: ParorbError) -> int:
    if isinstance(exc, (ParseError, SpecError)):
        return 2
    if isinstance(exc, (CapabilityMissing, ModeMismatch)):
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
    """One row per rotation-orbit class, from shifts._orbit_classes; the
    shift is printed as format_rational prints it."""
    rows = []
    for m, eta in _nontrivial_orders(spec.rank, spec.genus):
        for blocks, numerator, denominator, multiplicities in _orbit_classes(spec, eta):
            rows.append(
                {
                    "order": m,
                    "eta": eta.to_mapping(),
                    "orbit_representative": list(blocks),
                    "shift": "%d/%d" % (numerator, denominator),
                    "multiplicities": multiplicities,
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
        count = count_partitions(r, m, spec.num_points)
        checks.append(
            {
                "check": "partition_count",
                "order": m,
                "pass": census["count"] == count,
                "bruteforce": census["count"],
            }
        )
        checks.append(
            {
                "check": "orbit_freeness",
                "order": m,
                "pass": census["orbits_all_size_m"]
                and census["orbit_count"] * m == census["count"]
                and census["orbit_count"] == count // m,
            }
        )
        try:
            _require_shift_hypotheses(spec, eta)
        except (CapabilityMissing, ModeMismatch):
            eta = None
        pairing, identity, tally = check_partition_identities(spec, m, eta)
        checks.append({"check": "dominance_pairing", "order": m, **pairing})
        for name, result in (("dimension_identity", identity), ("shift_tally", tally)):
            if result is None:
                result = {
                    "pass": None,
                    "skipped": "needs coprime rank/degree, squarefree rank, "
                    "non-Higgs mode",
                }
            checks.append({"check": name, "order": m, **result})

    all_pass = all(entry["pass"] is not False for entry in checks)
    return {"op": "oracle_crosschecks", "all_pass": all_pass, "checks": checks}


def _partition_product_guard(spec: ModuliSpec, provider=None) -> None:
    _enforce_partition_limit(spec, spec.rank)  # the largest family, at m = r


def _census_guard(spec: ModuliSpec, provider=None) -> None:
    _enforce_census_guardrail(spec.rank, spec.genus)


# the one map from a section to its rules: each name, the function that
# makes the section and the rules that bound it, in the order they are
# checked; sections in --emit's order, and all take the spec and provider
_SECTIONS = {
    "census": (lambda spec, provider: _census_section(spec), ()),
    "components": (
        lambda spec, provider: _components_section(spec), (_enforce_count_digits,)
    ),
    "shifts": (lambda spec, provider: _shifts_section(spec), (_partition_product_guard,)),
    "cr_table": (
        _cr_table_section,
        (_enforce_state_limit, _enforce_table_digits, _enforce_convolution_limit),
    ),
    "euler": (_euler_section, (_enforce_euler_digits,)),
    "product_rules": (lambda spec, provider: _product_rules_section(spec), ()),
}
ALL_OUTPUTS = tuple(_SECTIONS)
_ORACLE_GUARDS = (_census_guard, _partition_product_guard)


def _check_guards(
    spec: ModuliSpec, outputs: tuple, oracle_mode: bool, provider=None
) -> None:
    """Raise the first guardrail the run would exceed: the run-wide genus
    rule, the rules of the requested sections in --emit order, given the
    spec and the Betti tables as read, then oracle mode's."""
    rules = [_enforce_prym_limit]
    for name in outputs:
        rules.extend(_SECTIONS[name][1])
    if oracle_mode:
        rules.extend(_ORACLE_GUARDS)
    for rule in rules:
        rule(spec, provider)


def run(config: RunConfig) -> tuple[dict, int]:
    """Build the full report, every guard checked before the first section
    runs; returns (document, exit status)."""
    spec = load_spec(config.spec_path)
    provider = BettiProvider(
        [table for path in config.provider_paths for table in load_betti_tables(path)]
    )
    _check_guards(spec, config.outputs, config.oracle_mode, provider)
    report = {
        "spec": spec_to_mapping(spec),
        "moduli_dimension": moduli_dimension(spec),
        "outputs": {
            name: _SECTIONS[name][0](spec, provider) for name in config.outputs
        },
    }
    if not config.oracle_mode:
        return report, 0
    report["oracle"] = _oracle_section(spec)
    return report, 0 if report["oracle"]["all_pass"] else 1


# === rendering ==============================================================

def render_json(report: dict) -> str:
    """The bytes of `json.dumps(report, sort_keys=True, indent=2)` plus a
    newline, without the pure-Python encoder that `indent` selects.

    Takes dicts with str keys, lists, tuples, str, int, bool and None, and
    their subclasses; any other value (float and Fraction included) raises
    TypeError.

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
    return _render(report, "\n", {}, {}) + "\n"


def _render(value, newline: str, memo: dict, shapes: dict) -> str:
    """One value whose opening line ends in `newline` (its indentation).

    The exact types the report holds are dispatched first; a subclass takes
    the isinstance path below them.  A tuple is taken to be an immutable
    fragment: it is rendered once per (object, indentation) and memo keeps
    the text for the rest of the call.  shapes keeps, per tuple of a dict's
    keys, the sorted (key, encoded "key": head) pairs, also for one call.
    """
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    if kind is dict:
        return _render_dict(value, newline, memo, shapes)
    if kind is list:
        return _render_items(value, newline, memo, shapes)
    if kind is tuple:
        return _render_tuple(value, newline, memo, shapes)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    # subclasses of the types above
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, dict):
        return _render_dict(value, newline, memo, shapes)
    if isinstance(value, tuple):
        return _render_tuple(value, newline, memo, shapes)
    if isinstance(value, list):
        return _render_items(value, newline, memo, shapes)
    raise TypeError(
        "cannot render %s: only dict, list, tuple, str, int, bool and None"
        % type(value).__name__
    )


def _render_tuple(value: tuple, newline: str, memo: dict, shapes: dict) -> str:
    key = (id(value), len(newline))
    text = memo.get(key)
    if text is None:
        text = memo[key] = _render_items(value, newline, memo, shapes)
    return text


def _render_dict(value: dict, newline: str, memo: dict, shapes: dict) -> str:
    if not value:
        return "{}"
    keys = tuple(value)
    shape = shapes.get(keys)
    if shape is None:
        for key in keys:
            if not isinstance(key, str):
                raise TypeError("keys must be str, not %s" % type(key).__name__)
        shape = shapes[keys] = tuple(
            (key, encode_basestring_ascii(key) + ": ") for key in sorted(keys)
        )
    inner = newline + "  "
    return "{%s%s%s}" % (
        inner,
        ("," + inner).join(
            [head + _render(value[key], inner, memo, shapes) for key, head in shape]
        ),
        newline,
    )


def _render_items(items, newline: str, memo: dict, shapes: dict) -> str:
    if not items:
        return "[]"
    inner = newline + "  "
    kinds = set(map(type, items))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind is str:
        texts = map(encode_basestring_ascii, items)
    elif kind is int:
        texts = map(int.__repr__, items)
    elif kind is tuple:
        # shared tuples are mostly rendered already at this indentation
        get, depth = memo.get, len(inner)
        texts = [
            get((id(item), depth)) or _render(item, inner, memo, shapes)
            for item in items
        ]
    elif kind is dict:
        texts = [_render_dict(item, inner, memo, shapes) for item in items]
    else:
        texts = [_render(item, inner, memo, shapes) for item in items]
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
