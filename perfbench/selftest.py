"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that one seed always generates the same inputs, that every
generated spec passes parorb's load_spec, that no cli-report job exits 4
for lack of a Betti table, that a corrupted output (one flipped digit)
fails its check, and that BENCHMARK.json names exactly the metrics the
benchmark prints.  Takes about 10 s (it runs each cli-report job once).
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import sys
import unittest
from fractions import Fraction

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

TEST_DIR = os.path.join(run.WORK, "selftest")


def flip_digit(value: int) -> int:
    """The same number with its last digit changed."""
    text = str(value)
    return int(text[:-1] + str((int(text[-1]) + 1) % 10))


def render(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


class Inputs(unittest.TestCase):
    def test_one_seed_always_generates_the_same_inputs(self):
        for workload in inputs.WORKLOADS:
            dirs = [os.path.join(TEST_DIR, "%s-%s" % (workload, tag)) for tag in "abc"]
            for d, seed in zip(dirs, (7, 7, 8)):
                shutil.rmtree(d, ignore_errors=True)
                inputs.generate(workload, seed, d)
            names = sorted(os.listdir(dirs[0]))
            self.assertEqual(names, sorted(os.listdir(dirs[1])))
            _, mismatch, errors = filecmp.cmpfiles(dirs[0], dirs[1], names, shallow=False)
            self.assertEqual((mismatch, errors), ([], []), workload)
            _, mismatch, _ = filecmp.cmpfiles(dirs[0], dirs[2], names, shallow=False)
            self.assertTrue(mismatch, "seed 8 gave the inputs of seed 7 (%s)" % workload)

    def test_every_generated_spec_passes_load_spec(self):
        from parorb import load_spec

        for workload in ("cli-report", "cli-oracle"):
            d = os.path.join(TEST_DIR, workload)
            inputs.generate(workload, 3, d)
            shapes = inputs.REPORT_SHAPES if workload == "cli-report" else inputs.ORACLE_SHAPES
            for shape, path in zip(shapes, inputs.input_files(workload, d)):
                spec = load_spec(path)
                self.assertEqual((spec.genus, spec.rank, spec.num_points), shape)
        d = os.path.join(TEST_DIR, "library-sweep")
        inputs.generate("library-sweep", 3, d)
        lib = child.load_library(inputs.input_files("library-sweep", d)[0])
        self.assertEqual(len(lib["cells"]), len(inputs.SWEEP_GENERA) * len(inputs.SWEEP_POINTS))


class Outputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(run.WORK, exist_ok=True)
        cls.in_dir = os.path.join(TEST_DIR, "jobs")
        inputs.generate("cli-report", 5, cls.in_dir)
        cls.betti = run.load_betti(cls.in_dir)
        cls.jobs = []
        for shape, args in inputs.cli_jobs("cli-report", cls.in_dir):
            job = run.spawn([sys.executable, "-m", "parorb"] + args)
            cls.jobs.append((shape, job))

    def test_no_report_job_lacks_a_table(self):
        for shape, job in self.jobs:
            self.assertNotEqual(job["code"], 4, "%s: %s" % (shape, job["stderr"]))
            self.assertEqual(job["code"], 0, "%s: %s" % (shape, job["stderr"]))
            self.assertEqual(checks.check_report(shape, self.betti, 0, job["stdout"]), [])

    def test_a_flipped_digit_fails_the_report_check(self):
        shape, job = self.jobs[0]  # (2, 6, 1): every section has rows
        fields = (
            lambda d: d["outputs"]["census"]["by_order"][1],
            lambda d: d["outputs"]["components"]["rows"][0],
            lambda d: d["outputs"]["cr_table"]["rows"][3],
            lambda d: d["outputs"]["euler"],
        )
        keys = ("count", "partition_count", "dim", "value")
        for field, key in zip(fields, keys):
            doc = json.loads(job["stdout"])
            field(doc)[key] = flip_digit(field(doc)[key])
            self.assertTrue(checks.check_report(shape, self.betti, 0, render(doc)), key)
        doc = json.loads(job["stdout"])
        row = doc["outputs"]["shifts"]["rows"][5]
        row["multiplicities"][0] = flip_digit(row["multiplicities"][0])
        self.assertTrue(checks.check_report(shape, self.betti, 0, render(doc)))
        doc = json.loads(job["stdout"])
        shift = Fraction(doc["outputs"]["shifts"]["rows"][5]["shift"])
        doc["outputs"]["shifts"]["rows"][5]["shift"] = "%d/%d" % (
            flip_digit(shift.numerator), shift.denominator)
        self.assertTrue(checks.check_report(shape, self.betti, 0, render(doc)))

    def test_a_flipped_digit_fails_the_oracle_check(self):
        d = os.path.join(TEST_DIR, "oracle")
        inputs.generate("cli-oracle", 5, d)
        shape, args = inputs.cli_jobs("cli-oracle", d)[3]  # (3, 6, 1), the quickest
        job = run.spawn([sys.executable, "-m", "parorb"] + args)
        self.assertEqual(checks.check_oracle(shape, job["code"], job["stdout"]), [])
        counted = {"partition_count": "bruteforce", "dominance_pairing": "checked",
                   "dimension_identity": "checked"}
        for index, check in enumerate(json.loads(job["stdout"])["oracle"]["checks"]):
            key = counted.get(check["check"])
            if key is None:
                continue
            doc = json.loads(job["stdout"])
            entry = doc["oracle"]["checks"][index]
            entry[key] = flip_digit(entry[key])
            self.assertTrue(checks.check_oracle(shape, 0, render(doc)), check)

    def test_a_flipped_digit_fails_the_library_check(self):
        import parorb

        d = os.path.join(TEST_DIR, "library-sweep")
        inputs.generate("library-sweep", 5, d)
        lib = child.load_library(inputs.input_files("library-sweep", d)[0])
        lib = {"cells": lib["cells"][4:5], "pairs": lib["pairs"][:40],
               "operators": lib["operators"][7:8]}
        spec = lib["cells"][0]  # genus 3, one point
        eta = parorb.TorsionElement(2, (1, 0, 0, 0, 0, 0))
        t = next(parorb.enumerate_partitions(spec, 2))
        table = parorb.eigenvalue_multiplicities(spec, eta, t)
        part_a = [(spec, table, parorb.degree_shift(spec, eta, t), table.total_codimension)]
        part_b = []
        for pair_spec, r, eta_exps, tau_exps, grade in lib["pairs"]:
            x, y = parorb.TorsionElement(r, eta_exps), parorb.TorsionElement(r, tau_exps)
            part_b.append((parorb.pairing_support(grade, x, y, pair_spec).value,
                           parorb.product_support(x, y).value,
                           parorb.intersection_support(x, y).value))
        matrix, flag, _ = lib["operators"][0]
        op = parorb.FlaggedOperator(matrix=matrix, flag=flag)
        part_c = [parorb.flag_compatible_eigenbasis(op)]
        self.assertEqual(child.verify(lib, part_a, part_b, part_c), [])

        wrong = parorb.EigenvalueMultiplicityTable(
            m=2, multiplicities={1: flip_digit(table.multiplicities[1])}, dimension=table.dimension)
        self.assertTrue(child.verify(lib, [(spec,) + (wrong,) + part_a[0][2:]], part_b, part_c))
        self.assertTrue(child.verify(lib, [part_a[0][:3] + (flip_digit(part_a[0][3]),)],
                                     part_b, part_c))
        flipped = {"candidate": "forced_zero", "forced_zero": "candidate"}
        bad_b = [(flipped[part_b[0][0]],) + part_b[0][1:]] + part_b[1:]
        self.assertTrue(child.verify(lib, part_a, bad_b, part_c))
        basis = [list(v) for v in part_c[0]]
        basis[-1][0] = Fraction(flip_digit(basis[-1][0].numerator) or 5, basis[-1][0].denominator)
        self.assertTrue(child.verify(lib, part_a, part_b, [[tuple(v) for v in basis]]))


class Declaration(unittest.TestCase):
    def test_benchmark_json_names_the_printed_metrics(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
            declared = json.load(handle)
        self.assertEqual([w["name"] for w in declared["workloads"]], list(inputs.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["per_layer"]], list(tracing.LAYER_METRICS))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in declared["end_to_end"]], list(run.END_TO_END))


if __name__ == "__main__":
    unittest.main()
