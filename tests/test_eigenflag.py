"""Flag-compatible eigenbases, verified by elimination code written here.

The verifier below shares no code with the implementation: it re-checks the
eigenvector equation by direct multiplication and the span conditions by its
own Gaussian elimination.
"""

import random
from fractions import Fraction

import pytest

from parorb.eigenflag import FlaggedOperator, flag_compatible_eigenbasis
from parorb.errors import FlagNotFull, FlagNotPreserved, NotDiagonalizable


# --- independent checking machinery -----------------------------------------

def mat_vec(matrix, vector):
    return [
        sum(row[j] * vector[j] for j in range(len(vector))) for row in matrix
    ]


def rank_of(rows):
    """Row rank by plain fraction-exact elimination (own implementation)."""
    work = [list(map(Fraction, row)) for row in rows]
    rank, col, n = 0, 0, len(work[0]) if work else 0
    while rank < len(work) and col < n:
        pivot = next((k for k in range(rank, len(work)) if work[k][col]), None)
        if pivot is None:
            col += 1
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        lead = work[rank][col]
        work[rank] = [x / lead for x in work[rank]]
        for k in range(len(work)):
            if k != rank and work[k][col]:
                factor = work[k][col]
                work[k] = [a - factor * b for a, b in zip(work[k], work[rank])]
        rank += 1
        col += 1
    return rank


def same_span(rows_a, rows_b):
    if rank_of(rows_a) != rank_of(rows_b):
        return False
    return rank_of(list(rows_a) + list(rows_b)) == rank_of(rows_a)


def assert_valid_output(matrix, flag, basis):
    r = len(matrix)
    assert len(basis) == r
    for v in basis:
        image = mat_vec(matrix, v)
        pivot = next(j for j in range(r) if v[j] != 0)
        scale = Fraction(image[pivot], v[pivot])
        assert image == [scale * x for x in v], "not an eigenvector"
    for j in range(1, r + 1):
        assert rank_of(basis[:j]) == j, "prefix not independent"
        assert same_span(basis[:j], flag[:j]), "prefix span differs from flag"


# --- spelled-out cases -------------------------------------------------------

STANDARD2 = ((1, 0), (0, 1))


def test_identity_returns_flag_adapted_basis():
    op = FlaggedOperator(matrix=((1, 0), (0, 1)), flag=((2, 0), (1, 1)))
    basis = flag_compatible_eigenbasis(op)
    assert_valid_output(op.matrix, op.flag, basis)


def test_upper_triangular_two_by_two():
    op = FlaggedOperator(matrix=((1, 1), (0, 2)), flag=STANDARD2)
    basis = flag_compatible_eigenbasis(op)
    assert basis[0] == (Fraction(1), Fraction(0))
    assert basis[1] == (Fraction(1), Fraction(1))
    assert_valid_output(op.matrix, op.flag, basis)


def test_flag_already_eigen_adapted():
    op = FlaggedOperator(matrix=((2, 0), (0, 3)), flag=((0, 1), (1, 0)))
    basis = flag_compatible_eigenbasis(op)
    assert basis[0] == (Fraction(0), Fraction(1))
    assert basis[1] == (Fraction(1), Fraction(0))


def test_repeated_eigenvalue_with_adapted_flag():
    op = FlaggedOperator(
        matrix=((2, 0, 0), (0, 2, 0), (0, 0, 5)),
        flag=((1, 1, 0), (1, 0, 0), (0, 0, 1)),
    )
    basis = flag_compatible_eigenbasis(op)
    assert_valid_output(op.matrix, op.flag, basis)
    assert basis[0] == (Fraction(1), Fraction(1), Fraction(0))


def test_string_and_fraction_entries_are_coerced():
    op = FlaggedOperator(matrix=(("1/2", 0), (0, "1/3")), flag=STANDARD2)
    basis = flag_compatible_eigenbasis(op)
    assert_valid_output(op.matrix, op.flag, basis)


def test_float_entries_rejected():
    with pytest.raises(ValueError):
        FlaggedOperator(matrix=((0.5, 0), (0, 1)), flag=STANDARD2)
    with pytest.raises(ValueError):
        FlaggedOperator(matrix=((1, 0), (0, 1)), flag=((0.25, 0), (0, 1)))


def test_flag_not_preserved_detected():
    op = FlaggedOperator(matrix=((1, 0), (1, 2)), flag=STANDARD2)
    with pytest.raises(FlagNotPreserved):
        flag_compatible_eigenbasis(op)


def test_jordan_block_rejected():
    op = FlaggedOperator(matrix=((1, 1), (0, 1)), flag=STANDARD2)
    with pytest.raises(NotDiagonalizable):
        flag_compatible_eigenbasis(op)


def test_incomplete_or_dependent_flags_rejected():
    with pytest.raises(FlagNotFull):
        flag_compatible_eigenbasis(
            FlaggedOperator(matrix=((1, 0), (0, 1)), flag=((1, 0),))
        )
    with pytest.raises(FlagNotFull):
        flag_compatible_eigenbasis(
            FlaggedOperator(matrix=((1, 0), (0, 1)), flag=((1, 0), (2, 0)))
        )


def test_deterministic_output_is_stable():
    op = FlaggedOperator(
        matrix=((2, 0, 0), (0, 2, 0), (0, 0, 5)),
        flag=((1, 1, 0), (1, 0, 0), (0, 0, 1)),
    )
    again = FlaggedOperator(
        matrix=((2, 0, 0), (0, 2, 0), (0, 0, 5)),
        flag=((1, 1, 0), (1, 0, 0), (0, 0, 1)),
    )
    assert flag_compatible_eigenbasis(op) == flag_compatible_eigenbasis(again)



# Frozen outputs: each operator is W·P·D·P⁻¹·W⁻¹ with the flag vectors as the
# columns of W, P unipotent upper triangular and D diagonal with repeated
# entries, so the flags are non-standard and the eigenvalues repeat.  The
# expected vectors were recorded once and pin the deterministic choice
# (lexicographically least reduced row) at every step.
FROZEN_CASES = [
    (
        (("-5", "4", "-4"), ("-8", "7", "-4"), ("0", "0", "3")),
        ((1, 2, 0), (0, 1, 1), (1, 0, 1)),
        [("1", "2", "0"), ("0", "1", "1"), ("1", "1", "0")],
    ),
    (
        (
            ("116", "-147", "135", "-75"),
            ("159/2", "-203/2", "195/2", "-105/2"),
            ("27", "-36", "38", "-18"),
            ("123/2", "-159/2", "147/2", "-77/2"),
        ),
        ((2, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 3)),
        [
            ("1", "1/2", "0", "1/2"),
            ("1", "3/4", "1/4", "1/2"),
            ("0", "1", "6/5", "1/5"),
            ("0", "1", "1/5", "-8/5"),
        ],
    ),
    (
        (
            ("-8/5", "-1/5", "11/10", "27/20", "9/10"),
            ("-51/10", "-7/10", "41/10", "41/10", "29/10"),
            ("-3/10", "-1/10", "4/5", "1/20", "1/5"),
            ("0", "0", "0", "0", "0"),
            ("-9/2", "-1/2", "5/2", "4", "5/2"),
        ),
        (
            (1, 1, 0, 0, 2),
            (0, 3, 1, 0, 0),
            (1, 0, 0, 1, 0),
            (0, 2, 0, 0, 1),
            (1, 0, 1, 1, 1),
        ),
        [
            ("1", "1", "0", "0", "2"),
            ("1", "4", "1", "0", "2"),
            ("0", "1", "1", "2", "-4"),
            ("0", "1", "1", "0", "-1"),
            ("0", "0", "1", "20/9", "-41/9"),
        ],
    ),
]


@pytest.mark.parametrize("matrix,flag,expected", FROZEN_CASES)
def test_frozen_eigenbases_with_repeated_eigenvalues(matrix, flag, expected):
    op = FlaggedOperator(matrix=matrix, flag=flag)
    basis = flag_compatible_eigenbasis(op)
    assert basis == [tuple(map(Fraction, v)) for v in expected]
    assert_valid_output(op.matrix, op.flag, basis)


def test_jordan_block_at_a_later_flag_step_rejected():
    # in flag coordinates: diag (1, 2, 3, 2) with a 1 coupling the two 2s,
    # so steps 1-3 have eigenvectors and step 4 has none
    op = FlaggedOperator(
        matrix=((1, 0, 0, 1), (-3, 4, -4, 5), (0, 0, 2, 1), (1, -1, 2, 1)),
        flag=((1, 1, 0, 0), (0, 2, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)),
    )
    with pytest.raises(NotDiagonalizable):
        flag_compatible_eigenbasis(op)

# --- randomized battery ------------------------------------------------------

def random_conjugated_diagonal(rng, n):
    """U D U^{-1} for unipotent upper-triangular U: preserves e_1 < e_1,e_2 < ...

    Returned as an upper-triangular matrix computed here by exact forward
    substitution, together with its (distinct) eigenvalues.
    """
    eigenvalues = rng.sample(range(-12, 13), n)
    upper = [
        [
            Fraction(1) if i == j else
            (Fraction(rng.randint(-3, 3)) if j > i else Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    # A = U D U^{-1}, found by solving A U = U D: since U is unipotent
    # upper-triangular, A[i][j] = (UD)[i][j] - sum_{k<j} A[i][k] U[k][j]
    ud = [[upper[i][j] * eigenvalues[j] for j in range(n)] for i in range(n)]
    a = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            a[i][j] = ud[i][j] - sum(a[i][k] * upper[k][j] for k in range(j))
    return a, eigenvalues


def test_randomized_flagged_operators():
    rng = random.Random(410)
    standard = lambda n: tuple(
        tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
    )
    for _ in range(120):
        n = rng.randint(1, 8)
        matrix, eigenvalues = random_conjugated_diagonal(rng, n)
        op = FlaggedOperator(
            matrix=tuple(tuple(row) for row in matrix), flag=standard(n)
        )
        basis = flag_compatible_eigenbasis(op)
        assert_valid_output(op.matrix, op.flag, basis)
        # the eigenvalue multiset of the output equals the one planted
        found = []
        for v in basis:
            image = mat_vec(op.matrix, v)
            pivot = next(j for j in range(n) if v[j] != 0)
            found.append(Fraction(image[pivot], v[pivot]))
        assert sorted(found) == sorted(map(Fraction, eigenvalues))
