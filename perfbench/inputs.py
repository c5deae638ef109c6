"""Seeded input generator: spec files, Betti-table files, library-sweep input.

Every value parorb sees in a benchmark run comes from here, drawn from
random.Random("<workload>:<seed>").  The seed picks the values (weights,
degrees, Betti coefficients, element pairs, operators); the shapes below
fix the amount of work, so changing the seed does not change the load.
"""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction
from math import gcd

# (genus, rank, marked points) per CLI job, in job order
REPORT_SHAPES = ((2, 6, 1), (3, 6, 1), (2, 5, 2), (2, 7, 1), (2, 3, 5), (3, 2, 12))
ORACLE_SHAPES = ((2, 5, 2), (2, 7, 1), (2, 3, 5), (3, 6, 1), (4, 5, 1))
REPORT_EMIT = "census,components,shifts,cr_table,euler,product_rules"

# library-sweep part (a): criterion-01 grid, rank 2
SWEEP_GENERA = (2, 3, 4, 5, 6)
SWEEP_POINTS = (1, 2, 3, 4)
# part (b): (eta, tau) pairs over these moduli and genera
PAIR_MODULI = (2, 3, 4, 5, 6, 7, 9, 12)
PAIR_GENERA = (2, 3)
PAIR_COUNT = 7000
# part (c): flagged operators of dimension 1..8
OPERATOR_COUNT = 120
OPERATOR_MAX_DIM = 8

WORKLOADS = ("cli-report", "cli-oracle", "library-sweep")


def fmt(value: Fraction) -> str:
    return "%d/%d" % (value.numerator, value.denominator)


def random_weights(rng: random.Random, rank: int) -> list[str]:
    """rank strictly increasing rationals in [0, 1) with assorted denominators."""
    chosen: set[Fraction] = set()
    while len(chosen) < rank:
        q = rng.randint(rank + 1, 97)
        chosen.add(Fraction(rng.randrange(q), q))
    return [fmt(w) for w in sorted(chosen)]


def random_spec(rng: random.Random, genus: int, rank: int, points: int) -> dict:
    degree = rng.choice([d for d in range(1, 2 * rank) if gcd(d, rank) == 1])
    return {
        "genus": genus,
        "rank": rank,
        "degree": degree,
        "weights": [random_weights(rng, rank) for _ in range(points)],
        "higgs": False,
    }


def moduli_dimension(genus: int, rank: int, points: int) -> int:
    return (rank * rank - 1) * (genus - 1) + points * rank * (rank - 1) // 2


def betti_keys(genus: int, rank: int, points: int, with_sectors: bool) -> list:
    """(genus, rank, points) of every Betti lookup a job on this shape makes.

    The untwisted table always; with cr_table also the rank-l moduli on the
    degree-m spectral cover, genus m(g-1)+1 with s*m points, for each
    divisor m > 1 of r with l = r/m > 1 (rank-1 factors need no table).
    """
    keys = [(genus, rank, points)]
    if with_sectors:
        for m in range(2, rank + 1):
            l = rank // m
            if rank % m == 0 and l > 1:
                keys.append((m * (genus - 1) + 1, l, points * m))
    return keys


def random_betti(rng: random.Random, genus: int, rank: int, points: int) -> dict:
    """Palindromic Betti series of top degree twice the moduli dimension."""
    dim = moduli_dimension(genus, rank, points)
    half = [1] + [rng.randint(0, 9) for _ in range(dim)]
    return {
        "genus": genus,
        "rank": rank,
        "points": points,
        "chamber": "generic",
        "coefficients": half + half[-2::-1],
    }


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, sort_keys=True, separators=(",", ":"))
        handle.write("\n")


def spec_name(shape) -> str:
    return "spec-g%d-r%d-s%d.json" % shape


def _cli_inputs(rng: random.Random, shapes, with_sectors: bool, out_dir: str) -> None:
    tables = {}
    for shape in shapes:
        _write_json(os.path.join(out_dir, spec_name(shape)), random_spec(rng, *shape))
        for key in betti_keys(*shape, with_sectors):
            if key not in tables:
                tables[key] = random_betti(rng, *key)
    _write_json(os.path.join(out_dir, "betti.json"), [tables[k] for k in sorted(tables)])


def _nonidentity(rng: random.Random, modulus: int, length: int) -> list[int]:
    while True:
        exps = [rng.randrange(modulus) for _ in range(length)]
        if any(exps):
            return exps


def _unit(rng: random.Random, modulus: int) -> int:
    return rng.choice([k for k in range(1, modulus) if gcd(k, modulus) == 1])


def _random_pair(rng: random.Random, modulus: int, genus: int, kind: int) -> tuple:
    """Non-identity (eta, tau): kind 0 an inverse pair, kind 1 another
    generator of the same subgroup, kinds 2 and 3 independent draws."""
    eta = _nonidentity(rng, modulus, 2 * genus)
    if kind == 0:
        tau = [(-e) % modulus for e in eta]
    elif kind == 1:
        k = _unit(rng, modulus)
        tau = [(k * e) % modulus for e in eta]
    else:
        tau = _nonidentity(rng, modulus, 2 * genus)
    return eta, tau


def _random_operator(rng: random.Random, index: int) -> dict:
    """U D U^-1 with U unit upper triangular, so the standard flag is
    preserved; the flag is given by a unit upper triangular spanning set.

    The index fixes the dimension (1..8 in turn) and how many eigenvalues
    repeat (0, 1 or 2), so the seed changes values but not the load;
    repeats exercise multi-dimensional eigenspaces.
    """
    n = 1 + index % OPERATOR_MAX_DIM
    distinct = max(1, n - (index // OPERATOR_MAX_DIM) % 3)
    pool = rng.sample(sorted({Fraction(p, q) for p in range(-12, 13) for q in (1, 2, 3)}),
                      distinct)
    eigenvalues = pool + [rng.choice(pool) for _ in range(n - distinct)]
    rng.shuffle(eigenvalues)
    upper = [
        [Fraction(1) if i == j else Fraction(rng.randint(-2, 2)) if j > i else Fraction(0)
         for j in range(n)]
        for i in range(n)
    ]
    ud = [[upper[i][j] * eigenvalues[j] for j in range(n)] for i in range(n)]
    # solve matrix * upper = ud column by column (upper is unit triangular)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            matrix[i][j] = ud[i][j] - sum(matrix[i][k] * upper[k][j] for k in range(j))
    flag = [
        [1 if i == j else rng.randint(-1, 1) if i < j else 0 for i in range(n)]
        for j in range(n)
    ]
    return {
        "matrix": [[fmt(x) for x in row] for row in matrix],
        "flag": flag,
        "eigenvalues": sorted(fmt(x) for x in eigenvalues),
    }


def _library_input(rng: random.Random) -> dict:
    sweep = [
        {"genus": g, "rank": 2, "degree": 1,
         "weights": [random_weights(rng, 2) for _ in range(s)]}
        for g in SWEEP_GENERA for s in SWEEP_POINTS
    ]
    pair_specs = {}
    for r in PAIR_MODULI:
        for g in PAIR_GENERA:
            genus = 3 if (g, r) == (2, 2) else g  # genus 2 needs rank >= 3
            pair_specs["%d,%d" % (g, r)] = random_spec(rng, genus, r, 1)
    pairs = []
    for i in range(PAIR_COUNT):
        # the index fixes modulus, genus and kind; the seed picks the elements
        r = PAIR_MODULI[i % len(PAIR_MODULI)]
        g = PAIR_GENERA[i // len(PAIR_MODULI) % len(PAIR_GENERA)]
        dim = moduli_dimension(pair_specs["%d,%d" % (g, r)]["genus"], r, 1)
        eta, tau = _random_pair(rng, r, g, i // (len(PAIR_MODULI) * len(PAIR_GENERA)) % 4)
        pairs.append({"spec": "%d,%d" % (g, r), "modulus": r, "eta": eta, "tau": tau,
                      "grade": rng.randint(-2, 2 * dim + 2)})
    operators = [_random_operator(rng, i) for i in range(OPERATOR_COUNT)]
    return {"sweep": sweep, "pair_specs": pair_specs, "pairs": pairs, "operators": operators}


def generate(workload: str, seed: int, out_dir: str) -> None:
    """Write the workload's input files for this seed into out_dir."""
    rng = random.Random("%s:%d" % (workload, seed))
    os.makedirs(out_dir, exist_ok=True)
    if workload == "cli-report":
        _cli_inputs(rng, REPORT_SHAPES, True, out_dir)
    elif workload == "cli-oracle":
        _cli_inputs(rng, ORACLE_SHAPES, False, out_dir)
    elif workload == "library-sweep":
        _write_json(os.path.join(out_dir, "library.json"), _library_input(rng))
    else:
        raise ValueError("unknown workload %r" % (workload,))


def input_files(workload: str, in_dir: str) -> list[str]:
    """The generated files a job of this workload loads, in load order."""
    if workload == "library-sweep":
        return [os.path.join(in_dir, "library.json")]
    shapes = REPORT_SHAPES if workload == "cli-report" else ORACLE_SHAPES
    return [os.path.join(in_dir, spec_name(s)) for s in shapes] + [
        os.path.join(in_dir, "betti.json")
    ]


def cli_jobs(workload: str, in_dir: str) -> list[tuple[tuple, list[str]]]:
    """(shape, argv after `parorb`) for each CLI job of a CLI workload."""
    betti = os.path.join(in_dir, "betti.json")
    jobs = []
    if workload == "cli-report":
        for shape in REPORT_SHAPES:
            jobs.append((shape, ["--spec", os.path.join(in_dir, spec_name(shape)),
                                 "--emit", REPORT_EMIT, "--provider", betti]))
    else:
        for shape in ORACLE_SHAPES:
            jobs.append((shape, ["--spec", os.path.join(in_dir, spec_name(shape)),
                                 "--provider", betti, "--oracle"]))
    return jobs
