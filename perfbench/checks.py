"""Output checks, from the benchmark's own closed forms.

Nothing here imports parorb: every expected value is recomputed from the
generated spec and Betti files.  Each check function returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def order_count(r: int, g: int, m: int) -> int:
    """Elements of exact order m in (Z/r)^(2g), by Möbius inversion."""
    return sum(mobius(m // e) * e ** (2 * g) for e in divisors(m))


def partition_count(r: int, m: int, s: int) -> int:
    l = r // m
    return (factorial(r) // factorial(l) ** m) ** s


def moduli_dimension(g: int, r: int, s: int) -> int:
    return (r * r - 1) * (g - 1) + s * r * (r - 1) // 2


def fixed_dimension(g: int, r: int, s: int, m: int) -> int:
    """Prym (m-1)(g-1) plus rank-l moduli on the genus m(g-1)+1 cover."""
    l = r // m
    return (m - 1) * (g - 1) + (l * l - 1) * m * (g - 1) + s * m * l * (l - 1) // 2


def _parse(stdout: bytes, problems: list):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        problems.append("stdout is not valid JSON: %s" % exc)
        return None


def _check_census(doc: dict, g: int, r: int, problems: list) -> None:
    rows = doc["outputs"]["census"]["by_order"]
    if sum(row["count"] for row in rows) != r ** (2 * g):
        problems.append("census does not sum to r^(2g)")
    if [(row["order"], row["count"]) for row in rows] != [
        (m, order_count(r, g, m)) for m in divisors(r)
    ]:
        problems.append("census disagrees with the Möbius count")


def _check_components(doc: dict, r: int, s: int, problems: list) -> None:
    for row in doc["outputs"]["components"]["rows"]:
        m = row["order"]
        n = partition_count(r, m, s)
        if (row["partition_count"], row["gamma_classes"]) != (n, n // m):
            problems.append("components of order %d disagree with |P| = %d" % (m, n))


def _check_shifts(doc: dict, g: int, r: int, s: int, problems: list) -> None:
    dim = moduli_dimension(g, r, s)
    per_order: dict[int, int] = {}
    for row in doc["outputs"]["shifts"]["rows"]:
        m = row["order"]
        per_order[m] = per_order.get(m, 0) + 1
        mult = row["multiplicities"]
        l = r // m
        if len(mult) != m - 1 or sum(mult) + fixed_dimension(g, r, s, m) != dim:
            problems.append("order %d row breaks the dimension identity" % m)
            continue
        pair = 2 * r * r * (g - 1) // m + s * m * l * l
        if any(mult[i] + mult[m - 2 - i] != pair for i in range(m - 1)):
            problems.append("order %d row breaks the dominance pairing" % m)
        weighted = Fraction(sum((i + 1) * x for i, x in enumerate(mult)), m)
        if Fraction(row["shift"]) != weighted:
            problems.append("order %d shift is not sum(i * mult(i)) / m" % m)
    expected = {m: partition_count(r, m, s) // m for m in divisors(r) if m > 1}
    if per_order != expected:
        problems.append("shift rows per order %r, expected %r" % (per_order, expected))


def _check_cr_table(doc, g, r, s, betti, problems) -> None:
    section = doc["outputs"]["cr_table"]
    total = 0
    for m in divisors(r):
        if m == 1:
            continue
        l = r // m
        small = 1 if l == 1 else sum(betti[(m * (g - 1) + 1, l, s * m)])
        rows = partition_count(r, m, s) // m
        total += order_count(r, g, m) * rows * 4 ** ((m - 1) * (g - 1)) * small
    if section["untwisted"] != "included":
        problems.append("cr_table left out the supplied untwisted table")
    total += sum(betti[(g, r, s)])
    if sum(row["dim"] for row in section["rows"]) != total:
        problems.append("cr_table total differs from the closed form %d" % total)


def _check_euler(doc, g, r, s, betti, problems) -> None:
    section = doc["outputs"]["euler"]
    coefficients = betti[(g, r, s)]
    chi = sum(c if k % 2 == 0 else -c for k, c in enumerate(coefficients))
    if section["value"] != chi:
        problems.append("euler value %r, expected %d" % (section["value"], chi))
    orders = [row["order"] for row in section["certificate"] if row["vanishes"]]
    if orders != [m for m in divisors(r) if m > 1]:
        problems.append("euler certificate does not vanish on every sector")


def check_report(shape, betti: dict, code: int, stdout: bytes) -> list[str]:
    """A cli-report job: exit 0, valid JSON, closed forms of every section."""
    g, r, s = shape
    problems: list[str] = []
    if code != 0:
        return ["exit code %d" % code]
    doc = _parse(stdout, problems)
    if doc is None:
        return problems
    try:
        if doc["moduli_dimension"] != moduli_dimension(g, r, s):
            problems.append("moduli_dimension differs")
        _check_census(doc, g, r, problems)
        _check_components(doc, r, s, problems)
        _check_shifts(doc, g, r, s, problems)
        _check_cr_table(doc, g, r, s, betti, problems)
        _check_euler(doc, g, r, s, betti, problems)
    except (KeyError, TypeError, IndexError, ValueError, ZeroDivisionError) as exc:
        problems.append("report is missing or mangles a field: %r" % (exc,))
    return problems


def check_oracle(shape, code: int, stdout: bytes) -> list[str]:
    """A cli-oracle job: exit 0, all_pass, and each oracle covered the whole
    enumeration its closed form predicts."""
    g, r, s = shape
    problems: list[str] = []
    if code != 0:
        return ["exit code %d" % code]
    doc = _parse(stdout, problems)
    if doc is None:
        return problems
    try:
        _check_census(doc, g, r, problems)
        oracle = doc["oracle"]
        if oracle["all_pass"] is not True:
            problems.append("oracle.all_pass is not true")
        for check in oracle["checks"]:
            kind = check["check"]
            if kind == "census_bruteforce":
                if sum(row["count"] for row in check["bruteforce"]) != r ** (2 * g):
                    problems.append("census oracle did not visit r^(2g) elements")
                continue
            m = check["order"]
            n, l = partition_count(r, m, s), r // m
            seen = {
                "partition_count": check.get("bruteforce"),
                "dominance_pairing": (check.get("checked"), check.get("target")),
                "dimension_identity": check.get("checked"),
            }.get(kind)
            wanted = {
                "partition_count": n,
                "dominance_pairing": (n * (m - 1), s * m * l * l),
                "dimension_identity": n,
            }.get(kind)
            if seen != wanted:
                problems.append("%s at order %d: %r, expected %r" % (kind, m, seen, wanted))
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        problems.append("oracle report is missing or mangles a field: %r" % (exc,))
    return problems


# === library-sweep ========================================================

def subgroup(exponents: tuple, r: int) -> set:
    """The cyclic subgroup generated by an exponent vector, as raw tuples."""
    out, k = set(), 0
    while True:
        element = tuple((k * e) % r for e in exponents)
        if element in out:
            return out
        out.add(element)
        k += 1


def expected_supports(r: int, eta: tuple, tau: tuple, grade: int, dim: int) -> tuple:
    """(pairing, product, intersection) verdicts restated from subgroup sets."""
    inverse = tuple((-e) % r for e in eta)
    in_window = 0 <= grade <= 2 * dim
    pairing = "candidate" if in_window and tau == inverse else "forced_zero"
    sub_eta, sub_tau = subgroup(eta, r), subgroup(tau, r)
    same_order_distinct = len(sub_eta) == len(sub_tau) and sub_eta != sub_tau
    prime = len(divisors(r)) == 2
    product = (
        "forced_zero" if same_order_distinct or (prime and eta not in sub_tau) else "unknown"
    )
    intersection = (
        "forced_empty" if same_order_distinct or (prime and tau not in sub_eta)
        else "possibly_nonempty"
    )
    return pairing, product, intersection


def check_eigenbasis(matrix, eigenvalues, basis) -> bool:
    """Eigenvector equation, support adapted to the standard flag, and the
    eigenvalue multiset."""
    n = len(matrix)
    if len(basis) != n:
        return False
    found = []
    for j, v in enumerate(basis):
        if any(v[k] != 0 for k in range(j + 1, n)) or v[j] == 0:
            return False
        image = [sum(matrix[a][b] * v[b] for b in range(n)) for a in range(n)]
        scale = image[j] / v[j]
        if image != [scale * x for x in v]:
            return False
        found.append(scale)
    return sorted(found) == sorted(eigenvalues)
