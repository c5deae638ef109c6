"""Code that runs inside a fresh interpreter started by run.py.

    child.py setup <workload> <input dir>
        time `import parorb` plus loading and validating the workload's
        generated files; print the seconds as JSON.
    child.py cli <span file> <job id> -- <parorb arguments>
        a traced CLI job: wrap the public functions, call parorb.cli.main.
    child.py sweep <input dir> verify|hash [<span file>]
        one library-sweep pass (traced when a span file is given); print a
        JSON summary as the last line.  `verify` checks every result,
        `hash` only hashes them: run.py verifies the first pass of a run
        and requires every other pass to hash the same.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402


def load_library(path: str) -> dict:
    """Parse and validate the library-sweep input file."""
    from fractions import Fraction

    from parorb import ModuliSpec, validate_moduli_spec

    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    cells = []
    for cell in doc["sweep"]:
        if (cell["genus"], cell["rank"]) == (2, 2):
            # genus 2 needs rank >= 3, so like criterion 01 these cells are
            # built without the validator
            weights = tuple(tuple(Fraction(w) for w in p) for p in cell["weights"])
            spec = ModuliSpec(genus=2, rank=2, degree=cell["degree"], weights=weights)
        else:
            spec = validate_moduli_spec(cell)
        cells.append(spec)
    specs = {key: validate_moduli_spec(raw) for key, raw in doc["pair_specs"].items()}
    pairs = [
        (specs[p["spec"]], p["modulus"], tuple(p["eta"]), tuple(p["tau"]), p["grade"])
        for p in doc["pairs"]
    ]
    operators = [
        (
            tuple(tuple(Fraction(x) for x in row) for row in op["matrix"]),
            tuple(map(tuple, op["flag"])),
            [Fraction(x) for x in op["eigenvalues"]],
        )
        for op in doc["operators"]
    ]
    return {"cells": cells, "pairs": pairs, "operators": operators}


def setup(workload: str, in_dir: str) -> None:
    started = time.perf_counter()
    import parorb

    if workload == "library-sweep":
        load_library(inputs.input_files(workload, in_dir)[0])
    else:
        *specs, betti = inputs.input_files(workload, in_dir)
        for path in specs:
            parorb.load_spec(path)
        parorb.BettiProvider(parorb.load_betti_tables(betti))
    print(json.dumps({"setup_s": time.perf_counter() - started}))


def sweep_pass(lib: dict, check: bool = True) -> dict:
    """The timed loop: (a) rank-2 closed forms, (b) support rules, (c)
    eigenbases.  Results are kept, then verified when `check` is set, and
    hashed."""
    import parorb

    em, ds, tc = parorb.eigenvalue_multiplicities, parorb.degree_shift, parorb.total_codimension
    enumerate_partitions, TorsionElement = parorb.enumerate_partitions, parorb.TorsionElement
    pairing, product, intersection = (
        parorb.pairing_support, parorb.product_support, parorb.intersection_support)
    eigenbasis, FlaggedOperator = parorb.flag_compatible_eigenbasis, parorb.FlaggedOperator
    attempted, errors = 0, []

    wall0, cpu0 = time.perf_counter(), time.process_time()
    part_a = []
    for genus, specs in itertools.groupby(lib["cells"], key=lambda spec: spec.genus):
        etas = [
            TorsionElement(2, exps)
            for exps in itertools.product(range(2), repeat=2 * genus) if any(exps)
        ]
        for spec in specs:
            attempted += 1
            partitions = list(enumerate_partitions(spec, 2))
            for t in partitions:
                for k, eta in enumerate(etas):
                    attempted += 2 if k else 3
                    try:
                        # total_codimension once per partition: its cost is
                        # eigenvalue_multiplicities again
                        codim = None if k else tc(spec, eta, t)
                        part_a.append((spec, em(spec, eta, t), ds(spec, eta, t), codim))
                    except Exception as exc:  # a raising call is a failed operation
                        part_a.append(None)
                        errors.append(repr(exc))
    wall_a = time.perf_counter()
    part_b = []
    for spec, r, eta_exps, tau_exps, grade in lib["pairs"]:
        attempted += 3
        try:
            eta, tau = TorsionElement(r, eta_exps), TorsionElement(r, tau_exps)
            part_b.append((
                pairing(grade, eta, tau, spec).value,
                product(eta, tau).value,
                intersection(eta, tau).value,
            ))
        except Exception as exc:
            part_b.append(None)
            errors.append(repr(exc))
    wall_b = time.perf_counter()
    part_c = []
    for matrix, flag, _ in lib["operators"]:
        attempted += 1
        try:
            part_c.append(eigenbasis(FlaggedOperator(matrix=matrix, flag=flag)))
        except Exception as exc:
            part_c.append(None)
            errors.append(repr(exc))
    wall1, cpu1 = time.perf_counter(), time.process_time()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    problems = verify(lib, part_a, part_b, part_c) if check else []
    digest = hashlib.sha256()
    for kept in part_a:
        if kept is not None:
            _, table, shift, codim = kept
            digest.update(b"%r %r %r\n" % (sorted(table.multiplicities.items()), shift.value, codim))
    for kept in part_b + part_c:
        digest.update(repr(kept).encode() + b"\n")
    return {
        "wall_s": wall1 - wall0,
        "cpu_s": cpu1 - cpu0,
        "part_s": [wall_a - wall0, wall_b - wall_a, wall1 - wall_b],
        "peak_rss_mb": peak_kb / 1024,
        "attempted": attempted,
        "failed": len(errors) + len(problems),
        "problems": (errors + problems)[:5],
        "digest": digest.hexdigest(),
    }


def verify(lib: dict, part_a, part_b, part_c) -> list[str]:
    """Check every kept result; one entry per failed operation."""
    problems = []
    for kept in part_a:
        if kept is None:  # the call raised; already counted
            continue
        spec, table, shift, codim = kept
        mult = 2 * (spec.genus - 1) + spec.num_points
        if table.multiplicities != {1: mult}:
            problems.append("multiplicities %r, expected {1: %d}" % (table.multiplicities, mult))
        if 2 * shift.value != mult:
            problems.append("shift %s, expected %d/2" % (shift.value, mult))
        if codim is not None and codim != mult:
            problems.append("total codimension %r, expected %d" % (codim, mult))
    for (spec, r, eta, tau, grade), verdicts in zip(lib["pairs"], part_b):
        if verdicts is None:
            continue
        dim = checks.moduli_dimension(spec.genus, spec.rank, spec.num_points)
        expected = checks.expected_supports(r, eta, tau, grade, dim)
        for rule, got, want in zip(("pairing", "product", "intersection"), verdicts, expected):
            if got != want:
                problems.append("%s_support(%r, %r) = %s, expected %s" % (rule, eta, tau, got, want))
    for (matrix, _, eigenvalues), basis in zip(lib["operators"], part_c):
        if basis is not None and not checks.check_eigenbasis(matrix, eigenvalues, basis):
            problems.append("eigenbasis check failed for a %d-dim operator" % len(matrix))
    return problems


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], argv[2])
        return 0
    if mode == "sweep":
        in_dir, check = argv[1], argv[2] == "verify"
        span_file = argv[3] if len(argv) > 3 else None
        recorder = None
        if span_file:
            import tracing

            recorder = tracing.Recorder("sweep")
            tracing.install(recorder)
        lib = load_library(inputs.input_files("library-sweep", in_dir)[0])
        summary = sweep_pass(lib, check)
        if recorder:
            recorder.dump(span_file)
        print(json.dumps(summary))
        return 0
    if mode == "cli":
        import tracing

        span_file, job = argv[1], argv[2]
        recorder = tracing.Recorder(job)
        tracing.install(recorder)
        from parorb import cli

        code = cli.main(argv[4:])
        sys.stdout.flush()
        recorder.dump(span_file)
        return code
    raise SystemExit("unknown mode %r" % (mode,))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
